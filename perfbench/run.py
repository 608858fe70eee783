"""peakcov benchmark: one seeded workload per call, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-spec     # (re)write BENCHMARK.json

Run from the repository root. Workloads (see workloads.py for why each
exists): cli-demos, mc-wide, mc-long, gain-ladder.

--trace 0 measures the workload for S seconds and reports the
end-to-end metrics. Every workload reports every one of them, each
applied to its own unit of work (the "operation"):

  op_p50_s     median wall time of one operation: one CLI process
               (cli-demos), one mc_estimate call with its check
               (mc-wide: 2000 x 96 slots, mc-long: 24 x 10,000 slots),
               one pass over the whole gain ladder (gain-ladder)
  op_tail_s    the highest percentile of those times with at least ten
               samples beyond it, or their maximum below 20 samples
  peak_rss_mb  max resident set of the workload process (of the CLI
               children for cli-demos)
  setup_s      median over five fresh processes of interpreter start,
               `import peakcov` and input generation

Failed operations go to the "failed" count. The workload's own named
results (cli_p50_s, cli_tail_s, mc_slot_runs_per_s, ladder_s,
rho_refined_geomean, error_rate, ...) are printed above the last line.

--trace 1 measures S/2 seconds untraced, then S/2 seconds with every
public function in tracing.TARGETS wrapped, and reports the per-layer
metrics: per traced operation, the self time of each layer (module)
plus an "other" remainder that add up to the traced wall time, call
counts, the import split from `python -X importtime`, and the tracing
overhead ratio. Absent targets read 0 and are listed above the last line.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. Results, and spans of traced runs, go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter

from workloads import (HERE, ROOT, SRC, WORKLOADS, peakcov_env, percentile,
                       tail)

OUT = HERE / "out"
RUN_SECONDS = 20
SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3

# (name, unit, better, bound as a share of the parent's median)
END_TO_END = [
    ("op_p50_s", "s", "lower", 0.25),
    ("op_tail_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
]

LAYERS = ["import", "problems", "cli", "system", "markov", "riccati",
          "linalg", "stability", "sim"]

# (name, unit, better); values are per traced operation unless a ratio,
# a computed size or an import time
PER_LAYER = (
    [("trace.wall_s", "s", "lower"), ("trace.overhead_ratio", "1", "lower"),
     ("trace.ops", "count", "higher"), ("trace.absent_targets", "count", "lower")]
    + [(f"layer.{name}_self_s", "s", "lower") for name in LAYERS]
    + [("layer.other_s", "s", "lower"),
       ("import.peakcov_s", "s", "lower"),
       ("import.scipy_linalg_s", "s", "lower"),
       ("import.scipy_optimize_s", "s", "lower"),
       ("problems.load_problem_s", "s", "lower"),
       ("problems.dumps_report_s", "s", "lower"),
       ("cli.main_s", "s", "lower"),
       ("system.validate_s", "s", "lower"),
       ("system.stacked_calls", "count", "lower"),
       ("stability.gain_condition_matrix_calls", "count", "lower"),
       ("stability.gain_condition_matrix_self_s", "s", "lower"),
       ("linalg.spectral_radius_s", "s", "lower"),
       ("stability.search_gains_s", "s", "lower"),
       ("stability.closed_form_gains_s", "s", "lower"),
       ("stability.build_certificate_s", "s", "lower"),
       ("stability.verify_certificate_s", "s", "lower"),
       ("stability.dense_operator_bytes", "bytes", "lower"),
       ("stability.rho_refined_geomean", "1", "lower"),
       ("markov.sample_gaps_s", "s", "lower"),
       ("markov.sample_gaps_calls", "count", "lower"),
       ("markov.slots_used_ratio", "1", "higher"),
       ("riccati.measurement_update_calls", "count", "lower"),
       ("riccati.time_update_calls", "count", "lower"),
       ("riccati.update_s", "s", "lower"),
       ("linalg.sym_spectral_norm_s", "s", "lower"),
       ("sim.simulate_run_self_s", "s", "lower"),
       ("sim.aggregate_s", "s", "lower"),
       ("sim.enumerate_first_peak_s", "s", "lower"),
       ("sim.growth_trend_s", "s", "lower")]
)

# ROADMAP re-anchor baselines (2 CPUs, Python 3.11.7, numpy 2.4.6, scipy
# 1.17.1): (result name, value, workload it is compared on or None for all)
BASELINES = [
    ("import_peakcov_s", 0.69, None),
    ("cli_analyze_p50_s", 0.76, "cli-demos"),
    ("mc_ms_per_96_slot_run", 2.6, "mc-wide"),
    ("search_gains_n2s2_s", 0.08, "gain-ladder"),
    ("search_gains_n10s5_s", 47.0, "gain-ladder"),  # rung not in the ladder
]


def write_spec() -> None:
    spec = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": x}
                       for n, u, b, x in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
    (ROOT / "BENCHMARK.json").write_text(json.dumps(spec, indent=2) + "\n")


def environment() -> dict:
    import ctypes
    import glob

    import numpy
    import scipy

    env = {"python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__, "nproc": os.cpu_count(),
           "blas": None, "blas_threads": None}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(path), sym)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            env["blas_threads"] = fn()
            break
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "PEAKCOV_THREADS"):
        env[var] = os.environ.get(var)
    return env


def measure(wl, budget: float, rec) -> list[float]:
    """Closed loop: run operations until the next one would end past the
    budget (at least one). Returns each operation's wall time."""
    durations: list[float] = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        try:
            wl.op(rec)
        except Exception:
            wl.fail("operation raised:\n" + traceback.format_exc())
        durations.append(perf_counter() - t0)
        if perf_counter() - start + median(durations) > budget:
            return durations


def setup_samples(args) -> tuple[list[float], list[float]]:
    """Wall time of fresh processes that only set the workload up, and
    the `import peakcov` time each reports."""
    walls, imports = [], []
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        r = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=170)
        walls.append(perf_counter() - t0)
        if r.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{r.stderr}")
        imports.append(json.loads(r.stdout.splitlines()[-1])["import_s"])
    return walls, imports


def import_split() -> dict[str, float]:
    """Cumulative import times from `python -X importtime -c 'import
    peakcov'`, median over a few fresh processes; 0 for a module the
    import no longer loads."""
    wanted = {"peakcov": "import.peakcov_s", "scipy.linalg": "import.scipy_linalg_s",
              "scipy.optimize": "import.scipy_optimize_s"}
    samples = []
    for _ in range(IMPORTTIME_SAMPLES):
        r = subprocess.run([sys.executable, "-X", "importtime", "-c", "import peakcov"],
                           capture_output=True, text=True, env=peakcov_env(),
                           cwd=ROOT, timeout=170)
        if r.returncode != 0:
            raise RuntimeError(f"import failed:\n{r.stderr}")
        found = {}
        for line in r.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 \
                    and parts[1].strip().isdigit():
                found.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
        samples.append(found)
    return {metric: median(s.get(mod, 0.0) for s in samples)
            for mod, metric in wanted.items()}


def layer_metrics(wl, doc: dict, plain: list[float], traced: list[float]) -> dict:
    """Per-layer metrics from the recorder dump `doc` of the traced window."""
    from tracing import attribute

    agg = attribute(doc["names"], doc["spans"])
    ops = len(traced)
    wall = sum(traced)

    def get(name, key):
        return agg.get(name, {}).get(key, 0.0) / ops

    m = {"trace.wall_s": wall / ops,
         "trace.overhead_ratio": (wall / ops) / (sum(plain) / len(plain)),
         "trace.ops": ops,
         "trace.absent_targets": len(doc["absent"])}
    covered = 0.0
    for layer in LAYERS:
        own = sum(v["self_s"] for k, v in agg.items() if k.split(".")[0] == layer)
        m[f"layer.{layer}_self_s"] = own / ops
        covered += own
    m["layer.other_s"] = (wall - covered) / ops
    m.update(import_split())
    for name in ("problems.load_problem", "problems.dumps_report", "cli.main",
                 "system.validate", "linalg.spectral_radius", "stability.search_gains",
                 "stability.closed_form_gains", "stability.build_certificate",
                 "stability.verify_certificate", "markov.sample_gaps",
                 "linalg.sym_spectral_norm", "sim.enumerate_first_peak",
                 "sim.growth_trend"):
        m[f"{name}_s"] = get(name, "incl_s")
    for name in ("system.stacked", "stability.gain_condition_matrix",
                 "markov.sample_gaps", "riccati.measurement_update",
                 "riccati.time_update"):
        m[f"{name}_calls"] = get(name, "calls")
    m["stability.gain_condition_matrix_self_s"] = get("stability.gain_condition_matrix", "self_s")
    m["riccati.update_s"] = (get("riccati.measurement_update", "incl_s")
                             + get("riccati.time_update", "incl_s"))
    m["sim.simulate_run_self_s"] = get("sim.simulate_run", "self_s")
    m["sim.aggregate_s"] = get("sim.mc_estimate", "self_s")
    counters = doc["counters"]
    drawn = counters.get("markov.slots_drawn", 0)
    m["markov.slots_used_ratio"] = counters.get("sim.slots_simulated", 0) / drawn if drawn else 0.0
    m["stability.dense_operator_bytes"] = wl.dense_operator_bytes()
    m["stability.rho_refined_geomean"] = wl.rho_refined_geomean()
    return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--write-spec", action="store_true",
                   help="write BENCHMARK.json from the definitions here and exit")
    args = p.parse_args(argv)
    if args.write_spec:
        write_spec()
        return 0
    if args.workload is None:
        p.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not ((SRC / "peakcov" / "__init__.py").is_file()
            and (ROOT / "demos" / "problems").is_dir()):
        print(f"error: {ROOT} holds no peakcov checkout (src/peakcov, demos/problems)",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        wl = WORKLOADS[args.workload](args.seed, Path(tmp))
        if args.setup_only:
            print(json.dumps({"import_s": wl.import_s}))
            return 0
        if args.trace:
            from tracing import Recorder

            plain = measure(wl, args.seconds / 2, None)
            rec = Recorder()
            if wl.in_process:
                rec.install()
            durations = measure(wl, args.seconds / 2, rec)
            doc = rec.dump()  # the window only, not the checks below
        else:
            durations = measure(wl, args.seconds, None)
            who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
            rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
        wl.finish()
        summary = wl.summary(plain if args.trace else durations)
        walls, imports = setup_samples(args)

    env = environment()
    if args.trace:
        metrics = layer_metrics(wl, doc, plain, durations)
        units = {n: u for n, u, _ in PER_LAYER}
    else:
        t, q, beyond = tail(durations)
        metrics = {"op_p50_s": percentile(durations, 50), "op_tail_s": t,
                   "peak_rss_mb": rss_mb, "setup_s": median(walls)}
        units = {n: u for n, u, _, _ in END_TO_END}
        summary.update({"op_count": (len(durations), "count"),
                        "op_tail_percentile": (q, "%"), "op_tail_beyond": (beyond, "count")})
    summary.update({"setup_s": (median(walls), "s"),
                    "import_peakcov_s": (median(imports), "s"),
                    "error_rate": (wl.failed / max(wl.attempted, 1), "1")})

    print(f"workload {wl.name} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("environment " + json.dumps(env))
    for name, (value, unit) in summary.items():
        print(f"result {name} = {value} {unit}")
    for name, ref, where in BASELINES:
        if where not in (None, wl.name):
            continue
        got = summary.get(name, (None,))[0]
        print(f"baseline {name}: ROADMAP {ref}, " + (
            "not measured" if got is None else f"measured {got:.4g} ({got / ref:.2f}x)"))
    if args.trace and doc["absent"]:
        print("absent " + " ".join(doc["absent"]))
    for name in units:
        print(f"metric {name} = {metrics[name]} {units[name]}")

    stem = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "durations_s": durations,
              "setup_walls_s": walls, "results": summary,
              "metrics": metrics, "attempted": wl.attempted, "failed": wl.failed}
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        with gzip.open(f"{stem}.spans.json.gz", "wt") as fh:
            json.dump(doc, fh)

    print(json.dumps({
        "correct": wl.failed == 0,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
