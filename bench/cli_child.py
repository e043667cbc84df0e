"""Traced stand-in for `python -m gotzmann`, used by the traced cli_cold run.

    python3 bench/cli_child.py SPANS_FILE gotz-arguments...

Installs the outside tracer, runs gotzmann.cli.main on the arguments, writes
the recorded spans and counters to SPANS_FILE as JSON and exits with main's
exit code.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import gotzmann  # noqa: E402,F401  (its __init__ imports the mathematical modules)
import gotzmann.cli  # noqa: E402,F401

from tracer import Tracer  # noqa: E402


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    code = sys.modules["gotzmann.cli"].main(argv)
    Path(spans_file).write_text(json.dumps(tracer.export()))
    return code


if __name__ == "__main__":
    sys.exit(main())
