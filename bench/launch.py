"""Run one thetalab command with the benchmark's tracer installed.

    python3 bench/launch.py RECORD OP_ID ARGV...

Imports ``thetalab.cli`` (timed as the CLI's start-up), wraps the layer
boundaries, calls ``thetalab.cli.main(ARGV)`` and writes the tracer's record
to RECORD as JSON before exiting with the command's exit code.
"""

import json
import sys
import time


def main() -> int:
    record_path, op, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    start = time.perf_counter()
    import thetalab.cli

    import_s = time.perf_counter() - start
    from tracer import Tracer

    tracer = Tracer()
    tracer.op = op
    tracer.install()
    code = 1
    start = time.perf_counter()
    try:
        code = thetalab.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    finally:
        main_s = time.perf_counter() - start
        tracer.uninstall()
        with open(record_path, "w") as fh:
            json.dump({**tracer.record(), "import_s": import_s, "main_s": main_s}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
