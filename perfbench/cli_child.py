"""Traced stand-in for `python -m peakcov.cli`, used by the traced
cli-demos run.

    python3 perfbench/cli_child.py SPANS_JSON <peakcov arguments...>

Times `import peakcov.cli` as a span, wraps the public functions listed
in tracing.TARGETS, runs `peakcov.cli.main` on the remaining arguments
(its report goes to stdout as usual), writes the spans to SPANS_JSON and
exits with main's exit code.
"""

import json
import sys

from tracing import Recorder

if __name__ == "__main__":
    rec = Recorder()
    rec.call("import.peakcov", __import__, "peakcov.cli")
    rec.install()
    cli = sys.modules["peakcov.cli"]
    code = cli.main(sys.argv[2:])
    sys.stdout.flush()
    with open(sys.argv[1], "w") as fh:
        json.dump(rec.dump(), fh)
    raise SystemExit(code)
