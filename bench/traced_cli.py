"""Run one resichain CLI command under the span tracer.

    python3 bench/traced_cli.py SPANS_FILE VERB [ARGS...]

behaves like ``python3 -m resichain.cli VERB [ARGS...]`` (same output,
exit code and tracebacks) and also writes the spans it recorded to
SPANS_FILE.
"""

import sys

from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    import resichain.cli

    try:
        return resichain.cli.main(argv)
    finally:
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main())
