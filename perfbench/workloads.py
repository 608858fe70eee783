"""The benchmark's four workloads.

Each is a closed loop with one client: the next operation starts when
the previous one has returned. A workload builds all of its inputs from
the seed in its constructor (the set-up that `setup_s` times), runs one
timed operation per `op()` call, checks every output, and counts
attempted and failed operations. Only the public API of the README is
called, with default arguments: no thread count is passed or set.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import traceback
import warnings
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PROBLEMS = ROOT / "demos" / "problems"


def peakcov_env() -> dict:
    """Environment for child processes: `src` first on PYTHONPATH (the
    package is not installed), everything else inherited."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def import_peakcov():
    """Import peakcov from `src`; returns the module and the seconds the
    import took in this process."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import peakcov
    return peakcov, perf_counter() - t0


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile of a non-empty sample."""
    v = sorted(values)
    at = (len(v) - 1) * q / 100.0
    lo = math.floor(at)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (at - lo)


def tail(values) -> tuple[float, float, int]:
    """Highest whole percentile with at least ten samples beyond it, as
    (value, percentile, samples beyond); the maximum below 20 samples,
    where that percentile would fall under the median."""
    n = len(values)
    if n < 20:
        return max(values), 100.0, 0
    q = math.floor(100.0 * (1.0 - 10.0 / n))
    value = percentile(values, q)
    return value, float(q), sum(1 for x in values if x > value)


class Workload:
    name = ""
    why = ""
    in_process = True  # traced by wrapping functions in this process

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp
        self.attempted = 0
        self.failed = 0
        self.pc, self.import_s = import_peakcov()

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"FAILED [{self.name}] {what}", file=sys.stderr)

    def op(self, rec) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Untimed checks after the measured window."""

    def summary(self, durations: list[float]) -> dict:
        """Workload-specific named results: name -> (value, unit)."""
        return {}

    def dense_operator_bytes(self) -> int:
        """Bytes of the dense s*n^2-square gain operator at the largest
        gain-condition instance this workload analyses (computed)."""
        return 0

    def rho_refined_geomean(self) -> float:
        return 0.0


# ---------------------------------------------------------------- cli-demos

CLI_PROBLEMS = ["identical_rows", "resonant_rotation", "single_loss",
                "single_loss_sticky", "stable_burst2"]
NOT_PROVEN = {"resonant_rotation"}
_ANALYSIS = ["command", "input", "verdict", "observability_index",
             "rho_norm_condition", "rho_gain_condition_seeded",
             "rho_gain_condition", "gain_condition_stable", "gains"]
REPORT_FIELDS = {
    "analyze": _ANALYSIS,
    "compare": _ANALYSIS + ["note"],
    "certificate": ["command", "input", "verdict", "rho_gain_condition", "gains"],
    "transform": ["command", "input", "verdict", "rho_norm_condition",
                  "rho_norm_condition_transformed", "rho_gain_condition",
                  "rho_gain_condition_transformed", "gain_condition_drift"],
    "simulate": ["command", "input", "runs", "horizon", "peak_indices",
                 "means", "stderrs", "counts"],
}
SIM_RUNS, SIM_HORIZON = 50, 96


class CliDemos(Workload):
    name = "cli-demos"
    # How a user gets a verdict: one fresh `python -m peakcov.cli` process
    # per request. Most of each call is `import peakcov`, so the import and
    # problems/cli layers dominate; sim and stability do little at n = 2.
    why = ("fresh CLI processes over the demo problems: import and "
           "problem/report handling dominate, the numerics are tiny")
    in_process = False

    def __init__(self, seed: int, tmp: Path):
        super().__init__(seed, tmp)
        self.rng = random.Random(seed)
        self.queue: list[tuple[str, str, int]] = []
        self.env = peakcov_env()
        self.reports: dict[tuple, bytes] = {}
        self.repeats = 0
        self.first: tuple | None = None
        self.call_s: dict[str, list[float]] = {}

    def _refill(self) -> None:
        # one cycle: four analyses of every demo, one small simulation
        cycle = [(cmd, p, 0) for p in CLI_PROBLEMS
                 for cmd in ("analyze", "compare", "certificate", "transform")]
        cycle.append(("simulate", self.rng.choice(CLI_PROBLEMS),
                      self.rng.randrange(2**31)))
        self.rng.shuffle(cycle)
        self.queue = cycle

    def _argv(self, cmd: str, problem: str, sim_seed: int) -> list[str]:
        argv = [cmd, str(PROBLEMS / f"{problem}.json")]
        if cmd == "transform":
            argv += ["--S", str(PROBLEMS / "transform_S.json")]
        if cmd == "simulate":
            argv += ["--runs", str(SIM_RUNS), "--horizon", str(SIM_HORIZON),
                     "--seed", str(sim_seed), "--csv", str(self.tmp / "peaks.csv")]
        return argv

    def op(self, rec) -> None:
        if not self.queue:
            self._refill()
        job = self.queue.pop()
        self.first = self.first or job
        self._invoke(job, rec)

    def _invoke(self, job: tuple, rec) -> None:
        cmd, problem, _ = job
        argv = self._argv(*job)
        self.attempted += 1
        if rec is None:
            prog = [sys.executable, "-m", "peakcov.cli"]
        else:
            spans = self.tmp / "spans.json"
            spans.unlink(missing_ok=True)
            prog = [sys.executable, str(HERE / "cli_child.py"), str(spans)]
        t0 = perf_counter()
        r = subprocess.run(prog + argv, capture_output=True, env=self.env,
                           cwd=ROOT, timeout=170)
        self.call_s.setdefault(cmd, []).append(perf_counter() - t0)
        if rec is not None and spans.exists():
            rec.merge(json.loads(spans.read_text()))
        problem_found = self._check(cmd, problem, r)
        if problem_found is None:
            prev = self.reports.setdefault(job, r.stdout)
            if prev is not r.stdout:
                self.repeats += 1
                if prev != r.stdout:
                    problem_found = "report bytes differ from an earlier identical call"
        if problem_found:
            self.fail(f"peakcov {' '.join(argv)}: {problem_found}")

    def _check(self, cmd: str, problem: str, r) -> str | None:
        if b"Traceback" in r.stderr:
            return "traceback:\n" + r.stderr.decode(errors="replace")
        want = 1 if problem in NOT_PROVEN and cmd != "simulate" else 0
        if r.returncode != want:
            return f"exit code {r.returncode}, expected {want}"
        try:
            rep = json.loads(r.stdout)
        except ValueError:
            return "stdout is not a JSON report"
        missing = [k for k in REPORT_FIELDS[cmd] if k not in rep]
        if missing:
            return f"report lacks {missing}"
        if rep["command"] != cmd:
            return f"report command is {rep['command']!r}"
        if cmd == "simulate":
            if (rep["runs"], rep["horizon"]) != (SIM_RUNS, SIM_HORIZON):
                return "report runs/horizon differ from the request"
            rows = (self.tmp / "peaks.csv").read_text().splitlines()
            if rows[0] != "j,mean,stderr,count" or len(rows) != rep["peak_indices"] + 1:
                return "CSV header or row count is wrong"
            return None
        if rep["verdict"] != ("stable" if want == 0 else "not-proven"):
            return f"verdict {rep['verdict']!r} disagrees with the exit code"
        if cmd == "certificate" and want == 0:
            import numpy as np
            blocks = [np.asarray(b, dtype=float) for b in rep["certificate_blocks"]]
            floor = self.pc.strict_margin_floor(blocks)
            if not rep["margin_reverified"] > floor:
                return f"margin_reverified {rep['margin_reverified']} <= floor {floor}"
        return None

    def finish(self) -> None:
        # determinism: when no call repeated inside the window, repeat one
        if self.repeats == 0 and self.first is not None:
            self._invoke(self.first, None)

    def summary(self, durations):
        p50 = percentile(durations, 50)
        t, q, beyond = tail(durations)
        out = {"cli_p50_s": (p50, "s"), "cli_tail_s": (t, "s"),
               "cli_tail_percentile": (q, "%"), "cli_tail_beyond": (beyond, "count"),
               "cli_calls": (len(durations), "count")}
        if "analyze" in self.call_s:
            out["cli_analyze_p50_s"] = (percentile(self.call_s["analyze"], 50), "s")
        return out

    def dense_operator_bytes(self) -> int:
        sizes = []
        for p in CLI_PROBLEMS:
            doc = json.loads((PROBLEMS / f"{p}.json").read_text())
            n, s = len(doc["A"]), len(doc["Pi"]) - 1
            sizes.append((s * n * n) ** 2 * 8)
        return max(sizes)


# ---------------------------------------------------------------- mc-wide / mc-long

class _MonteCarlo(Workload):
    runs = 0
    horizon = 0

    def __init__(self, seed: int, tmp: Path):
        super().__init__(seed, tmp)
        self.sysm, self.loss, _ = self.pc.load_problem(str(PROBLEMS / "stable_burst2.json"))
        self.calls = 0
        self.mc_s: list[float] = []
        self.stat: list[float] = []

    def _estimate(self):
        base = self.seed * 1_000_000 + self.calls * self.runs
        self.calls += 1
        t0 = perf_counter()
        est = self.pc.mc_estimate(self.sysm, self.loss, runs=self.runs,
                                  horizon=self.horizon, base_seed=base)
        self.mc_s.append(perf_counter() - t0)
        return est

    def summary(self, durations):
        rate = self.runs * self.horizon / percentile(self.mc_s, 50)
        return {"mc_slot_runs_per_s": (rate, "1/s"),
                "mc_ms_per_96_slot_run": (96e3 / rate, "ms"),
                "mc_calls": (len(self.mc_s), "count"),
                "check_stat_max_abs": (max(abs(x) for x in self.stat), "1")}


class McWide(_MonteCarlo):
    name = "mc-wide"
    # Criterion 09's shape: many short runs, so per-run overhead (Philox
    # set-up, sample_gaps' loop, simulate_run set-up, per-index
    # aggregation) dominates. Batching over runs helps most here.
    why = ("many 96-slot runs of stable_burst2 against exact enumeration: "
           "per-run overhead dominates")
    runs, horizon = 2000, 96

    def op(self, rec) -> None:
        self.attempted += 1
        est = self._estimate()
        enu = self.pc.enumerate_first_peak(self.sysm, self.loss)
        z = float((est.means[0] - enu.mean_norm) / est.stderrs[0])
        self.stat.append(z)
        if not abs(z) <= 4.0:
            self.fail(f"first-peak mean {est.means[0]} is {z:+.2f} standard "
                      f"errors from the exact {enu.mean_norm}")


class McLong(_MonteCarlo):
    name = "mc-long"
    # Criterion 10's stable shape: few runs of 10,000 slots, so per-slot
    # propagation dominates and a batch of 24 lanes gains little. The only
    # workload that times growth_trend's bootstrap.
    why = ("24 runs x 10,000 slots then growth_trend: per-slot propagation "
           "dominates, batching over runs gains little")
    runs, horizon = 24, 10_000

    def op(self, rec) -> None:
        self.attempted += 1
        est = self._estimate()
        z = float(self.pc.growth_trend(est.peak_norms_by_run, burn=50).z)
        self.stat.append(z)
        if not z < 3.0:
            self.fail(f"growth_trend z = {z:+.2f} on a stable instance")


# ---------------------------------------------------------------- gain-ladder

# (n, s, outputs). ceil(n/2) outputs give observability index 2; the
# single-output n = 4 rung has index 4, so depth-2 and depth-3 gain
# blocks (and the idle-step terms) are timed too. The ROADMAP's
# (10, 5) rung is left out: its search alone (~40 s) exceeds a run.
RUNGS = [(2, 2, 1), (4, 3, 1), (6, 4, 3), (8, 4, 4)]
MAX_DRAWS = 8
RHO_REL_TOL = 1e-9


def dense_gain_rho(sysm, loss, gains) -> float:
    """Spectral radius of the gain operator assembled densely from its
    block formula, as an independent reference:

        X_i -> A^j (sum_i Pi[i,j] F_1 X_i F_1'
                    + Pi[i,0] Pi[0,j] sum_l p00^(l-2) F_l X_i F_l') A^j'

    with F_l = A^l + K_l [C; CA; ...; CA^(l-1)].
    """
    import numpy as np

    A, C = np.asarray(sysm.A), np.asarray(sysm.C)
    P = np.asarray(loss.Pi)
    n, s, m = A.shape[0], P.shape[0] - 1, C.shape[0]
    obs, F = C, []
    for l, K in enumerate(gains, start=1):
        if l > 1:
            obs = np.vstack([obs, obs[-m:] @ A])
        F.append(np.linalg.matrix_power(A, l) + np.asarray(K) @ obs)
    direct = np.kron(F[0], F[0])
    idle = np.zeros_like(direct)
    for l in range(2, len(F) + 1):
        idle += P[0, 0] ** (l - 2) * np.kron(F[l - 1], F[l - 1])
    N = n * n
    H = np.zeros((s * N, s * N))
    for j in range(1, s + 1):
        Aj = np.linalg.matrix_power(A, j)
        AA = np.kron(Aj, Aj)
        for i in range(1, s + 1):
            H[(j - 1) * N:j * N, (i - 1) * N:i * N] = AA @ (
                P[i, j] * direct + P[i, 0] * P[0, j] * idle)
    return float(np.max(np.abs(np.linalg.eigvals(H))))


class _Rung:
    def __init__(self, n, s, m, sysm, loss, rho_seeded, rejected, io):
        self.n, self.s, self.m = n, s, m
        self.sysm, self.loss = sysm, loss
        self.rho_seeded, self.rejected, self.io = rho_seeded, rejected, io
        self.rho_refined = None
        self.cert = None  # (gains, blocks) as re-parsed from report bytes
        self.search_s: list[float] = []
        self.cert_s: list[float] = []


class GainLadder(Workload):
    name = "gain-ladder"
    # Where the gain condition's cost lives: each of ~500 Nelder-Mead
    # evaluations assembles a dense Kronecker operator of side s*n^2 and
    # eigensolves it. sim is never called. The matrix-free gain search is
    # judged here; on cli-demos it should change nothing.
    why = ("search_gains, certificate and verification on seeded random "
           "plants from n=2 to n=8: operator assembly and eigensolves dominate")

    def __init__(self, seed: int, tmp: Path):
        super().__init__(seed, tmp)
        import numpy as np

        pc = self.pc
        warnings.simplefilter("ignore", pc.ModelAssumptionWarning)
        rng = np.random.default_rng(seed)
        self.rungs = []
        for n, s, m in RUNGS:
            for draw in range(1, MAX_DRAWS + 1):
                sysm, loss = self._draw(rng, n, s, m)
                _, rho0 = pc.search_gains(sysm, loss, refine=False)
                if rho0 < 1.0:
                    break
            self.rungs.append(_Rung(n, s, m, sysm, loss, rho0, draw - 1,
                                    pc.observability_index(sysm)))

    def _draw(self, rng, n: int, s: int, m: int):
        """A random unstable plant (spectral radius in (1.05, 1.4)) that
        is observable, and a loss chain biased towards the idle state."""
        import numpy as np

        pc = self.pc
        while True:
            A = rng.standard_normal((n, n))
            A *= rng.uniform(1.05, 1.4) / np.max(np.abs(np.linalg.eigvals(A)))
            sysm = pc.SystemModel(A=A, C=rng.standard_normal((m, n)), Q=np.eye(n),
                                  R=np.eye(m), Sigma0=np.eye(n))
            try:
                pc.observability_index(sysm)
                break
            except pc.Unobservable:
                continue
        Pi = np.empty((s + 1, s + 1))
        for i in range(s + 1):
            Pi[i, 0] = rng.uniform(0.6, 0.9)
            Pi[i, 1:] = (1.0 - Pi[i, 0]) * rng.dirichlet(np.ones(s))
        return sysm, pc.LossModel(Pi=Pi)

    def op(self, rec) -> None:
        import numpy as np

        pc = self.pc
        for r in self.rungs:
            self.attempted += 1
            where = f"rung n={r.n} s={r.s}"
            try:
                t0 = perf_counter()
                pc.validate(r.sysm)
                gains, rho = pc.search_gains(r.sysm, r.loss)
                t1 = perf_counter()
                cert = margin = None
                if pc.is_stable(rho):
                    c = pc.build_certificate(r.sysm, r.loss, gains)
                    doc = json.loads(pc.dumps_report(
                        {"gains": gains, "certificate_blocks": c.blocks}))
                    cert = ([np.asarray(g, dtype=float) for g in doc["gains"]],
                            [np.asarray(b, dtype=float) for b in doc["certificate_blocks"]])
                    margin = pc.verify_certificate(r.sysm, r.loss, *cert)
                t2 = perf_counter()
            except Exception:
                self.fail(f"{where} raised:\n{traceback.format_exc()}")
                continue
            r.search_s.append(t1 - t0)
            r.cert_s.append(t2 - t1)
            if not rho <= r.rho_seeded:
                self.fail(f"{where}: refined rho {rho} above seeded {r.rho_seeded}")
            elif r.rho_refined is not None and rho != r.rho_refined:
                self.fail(f"{where}: refined rho {rho} differs from {r.rho_refined} "
                          "on an identical earlier search")
            elif cert is not None and not margin > pc.strict_margin_floor(cert[1]):
                self.fail(f"{where}: certificate does not re-verify from its "
                          f"report bytes (margin {margin})")
            r.rho_refined, r.cert = rho, cert

    def finish(self) -> None:
        # each check is one more attempted operation
        pc = self.pc
        for r in self.rungs:
            where = f"rung n={r.n} s={r.s}"
            _, seed_gains = pc.closed_form_gains(r.sysm)
            ref = dense_gain_rho(r.sysm, r.loss, seed_gains)
            self.attempted += 1
            if not abs(r.rho_seeded - ref) <= RHO_REL_TOL * ref:
                self.fail(f"{where}: seeded rho {r.rho_seeded} vs dense reference {ref}")
            if r.cert is not None:
                gains, blocks = r.cert
                forged = [-blocks[0]] + blocks[1:]
                self.attempted += 1
                if pc.verify_certificate(r.sysm, r.loss, gains, forged) > \
                        pc.strict_margin_floor(forged):
                    self.fail(f"{where}: certificate with block 0 negated was accepted")

    def summary(self, durations):
        out = {"ladder_s": (percentile(durations, 50), "s"),
               "rho_refined_geomean": (self.rho_refined_geomean(), "1")}
        for r in self.rungs:
            tag = f"n{r.n}s{r.s}"
            out[f"search_gains_{tag}_s"] = (percentile(r.search_s, 50), "s")
            out[f"certificate_{tag}_s"] = (percentile(r.cert_s, 50), "s")
            out[f"rho_seeded_{tag}"] = (r.rho_seeded, "1")
            out[f"rho_refined_{tag}"] = (r.rho_refined, "1")
            out[f"observability_index_{tag}"] = (r.io, "count")
            out[f"draws_rejected_{tag}"] = (r.rejected, "count")
        return out

    def dense_operator_bytes(self) -> int:
        return max((s * n * n) ** 2 * 8 for n, s, _ in RUNGS)

    def rho_refined_geomean(self) -> float:
        rhos = [r.rho_refined for r in self.rungs if r.rho_refined is not None]
        if not rhos:
            return 0.0
        return math.exp(sum(math.log(max(x, 1e-300)) for x in rhos) / len(rhos))


WORKLOADS = {w.name: w for w in (CliDemos, McWide, McLong, GainLadder)}
