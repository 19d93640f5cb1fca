"""Run the cheaptalk CLI with the benchmark's tracer installed.

Usage: ``python cli_trace.py SPANS_FILE COMMAND --config FILE``; the spans
of the run are written to ``SPANS_FILE`` when the command ends.
"""

import sys

from cheaptalk import cli
from tracer import Tracer


def main() -> int:
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        tracer.dump(sys.argv[1])


if __name__ == "__main__":
    sys.exit(main())
