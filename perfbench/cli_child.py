"""Run one traced temsphere CLI command in a fresh interpreter.

Usage: python3 perfbench/cli_child.py TRACE_JSON CLI_ARGS...

Times ``import temsphere.cli``, wraps the package's public functions with
the benchmark tracer, runs ``temsphere.cli.main(CLI_ARGS)`` and writes the
spans, events and both times to TRACE_JSON.  Exits with the command's code.
"""

import json
import sys
from time import perf_counter

from tracer import Tracer


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    start = perf_counter()
    import temsphere.cli as cli

    imported = perf_counter()
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        done = perf_counter()
        tracer.uninstall()
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": imported - start, "command_s": done - imported,
                       **tracer.state()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
