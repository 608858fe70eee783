"""peakcov command-line interface.

Subcommands over a JSON problem file:

* analyze, compare, certificate, transform: one handler and one report:
  observability index, norm minima, both stability conditions, the gain
  search and, when the gain condition holds, the witness matrices
  X_1..X_s with their margin re-verified from the serialized report.
  "stable" means that re-verified certificate. compare adds a note;
  transform adds both conditions after a change of state coordinates
  (the norm condition moves, the gain condition does not).
* simulate: Monte Carlo peak-norm statistics (report plus optional CSV).

The verdict takes no options: the gain search always refines, and the
margin must exceed stability.strict_margin_floor.

Exit codes: 0 stability proven, 1 not proven or a numerical failure of
the analysis (an overflow included), 2 input error, a bad command line
included, reported in one line. simulate exits 0 on completion; a
simulation cannot prove stability and its report says so. A warning
about the plant (a stable mode) prints as one "peakcov: warning:" line
on stderr and changes neither the report nor the exit code.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys as _sys
import warnings

import numpy as np

from . import __version__, stability
from .errors import NoConvergence, PeakcovError, ProblemFormatError
from .problems import dumps_report, file_digest, load_matrix_file, load_problem
from .sim import mc_estimate
from .system import observability_index, validate

__all__ = ["main"]

EXIT_STABLE = 0
EXIT_NOT_PROVEN = 1
EXIT_INPUT_ERROR = 2


def _load(args):
    """The validated problem of args and the header of its report."""
    sysm, loss, label = load_problem(args.problem)
    # each warning in one line; the active filters (-W) still apply
    with warnings.catch_warnings(record=True) as caught:
        validate(sysm)
    for w in caught:
        print(f"peakcov: warning: {w.message}", file=_sys.stderr)
    return sysm, loss, {
        "tool": "peakcov",
        "version": __version__,
        "command": args.command,
        "input": {"path": args.problem, "label": label,
                  "sha256": file_digest(args.problem)},
    }


@np.errstate(over="raise")  # an overflow is a numerical failure
def cmd_analyze(args) -> int:
    """analyze, compare, certificate and transform (see above); transform
    takes the conditions in the coordinates x -> S^-1 x, at gains S^-1 K."""
    sysm, loss, report = _load(args)
    if args.command == "transform":  # a singular S fails before the analysis
        S = load_matrix_file(args.S, "S")
        sysm2, _ = stability.similarity_transform(sysm, [], S)
    rep = stability.compare_conditions(sysm, loss)
    report.update({
        "observability_index": observability_index(sysm),
        "norm_minima": rep.d,
        "rho_norm_condition": rep.rho_norm,
        "norm_condition_stable": rep.norm_stable,
        "rho_gain_condition_seeded": rep.rho_seeded,
        "rho_gain_condition": rep.rho_refined,
        "gain_condition_stable": rep.gain_stable,
        "gains": rep.gains,
    })
    if args.command == "transform":
        d2, _ = stability.closed_form_gains(sysm2)
        _, gains2 = stability.similarity_transform(sysm, rep.gains, S)
        rho_gain2 = stability.gain_condition_matrix(sysm2, loss, gains2).rho
        report.update({
            "S": S,
            "norm_minima_transformed": d2,
            "rho_norm_condition_transformed":
                stability.norm_condition_matrix(sysm2, loss, d2).rho,
            "rho_gain_condition_transformed": rho_gain2,
            "gain_condition_drift": abs(rep.rho_refined - rho_gain2),
        })
    stable = False
    if rep.gain_stable:
        cert = stability.build_certificate(sysm, loss, rep.gains)
        report["certificate_blocks"] = cert.blocks
        report["margin"] = cert.margin
        # re-verify from the serialized bytes, not the in-memory arrays
        parsed = json.loads(dumps_report(report))
        report["margin_reverified"] = stability.verify_certificate(
            sysm, loss, parsed["gains"], parsed["certificate_blocks"])
        floor = stability.strict_margin_floor(cert.blocks)
        stable = cert.margin > floor and report["margin_reverified"] > floor
    report["verdict"] = "stable" if stable else "not-proven"
    if args.command == "compare":
        report["note"] = (
            "the norm condition implies the gain condition at the minimum-norm "
            "gains; the reverse implication does not hold"
        )
    print(dumps_report(report))
    return EXIT_STABLE if stable else EXIT_NOT_PROVEN


def cmd_simulate(args) -> int:
    sysm, loss, report = _load(args)
    est = mc_estimate(sysm, loss, runs=args.runs, horizon=args.horizon,
                      base_seed=args.seed)
    finite = est.means[np.isfinite(est.means)]
    report.update({
        "runs": est.runs,
        "horizon": est.horizon,
        "base_seed": est.base_seed,
        "peak_indices": int(est.means.size),
        "max_mean_peak_norm": float(finite.max()) if finite.size else None,
        "means": est.means,
        "stderrs": est.stderrs,
        "counts": est.counts,
        "note": (
            "empirical maximum over the simulated horizon; boundedness of "
            "the full sequence is not decidable by simulation"
        ),
    })
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["j", "mean", "stderr", "count"])
            w.writerows([j, format(m, ".17g"), format(se, ".17g"), int(c)]
                        for j, (m, se, c) in enumerate(
                            zip(est.means, est.stderrs, est.counts), start=1))
    print(dumps_report(report))
    return EXIT_STABLE


class _Parser(argparse.ArgumentParser):
    """Raises a command-line error, so main reports it in one line."""

    def error(self, message):
        raise PeakcovError(message)


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="peakcov",
        description=("Peak-covariance stability analysis of Kalman filtering "
                     "under bounded Markovian packet loss"),
    )
    p.add_argument("--version", action="version",
                   version=f"peakcov {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, help_, func):
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("problem", help="problem file (JSON)")
        sp.set_defaults(func=func)
        return sp

    command("analyze", "evaluate both stability conditions", cmd_analyze)
    command("certificate", "construct and verify stability witnesses",
            cmd_analyze)
    command("compare", "norm vs gain condition side by side", cmd_analyze)
    sp = command("simulate", "Monte Carlo peak-norm statistics", cmd_simulate)
    sp.add_argument("--runs", type=int, default=1000)
    sp.add_argument("--horizon", type=int, default=10000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--csv", metavar="PATH", default=None,
                    help="also write per-index series as CSV")
    sp = command("transform",
                 "compare conditions under a state-coordinate change",
                 cmd_analyze)
    sp.add_argument("--S", required=True, metavar="PATH",
                    help="JSON file holding the transform matrix")
    return p


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        for flag in ("runs", "horizon"):
            value = getattr(args, flag, 1)
            if value < 1:
                raise PeakcovError(f"--{flag} must be >= 1, got {value}")
        # run i draws from the Philox stream keyed seed + i, a 128-bit key
        seed, runs = getattr(args, "seed", 0), getattr(args, "runs", 1)
        if not 0 <= seed <= 2**128 - runs:
            raise PeakcovError(
                f"--seed must lie in [0, 2**128 - runs], got {seed}")
        return args.func(args)
    except (NoConvergence, np.linalg.LinAlgError, FloatingPointError) as e:
        print(f"peakcov: error: numerical failure ({type(e).__name__}): {e}",
              file=_sys.stderr)
        return EXIT_NOT_PROVEN
    except (ProblemFormatError, PeakcovError, OSError) as e:
        print(f"peakcov: error: {e}", file=_sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
