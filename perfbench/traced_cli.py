"""Run ``szdet.cli`` under the tracer and write its spans to a file.

Usage: python3 perfbench/traced_cli.py SPANS_OUT CLI_ARG...

The benchmark uses this in place of ``python -m szdet.cli`` for the traced
operations of ``cli_cold``; the exit code and standard output are the CLI's.
"""

import sys
from time import perf_counter

from tracing import Tracer


def main(argv) -> int:
    spans_out, cli_args = argv[0], argv[1:]
    start = perf_counter()
    import szdet.cli

    import_s = perf_counter() - start
    tracer = Tracer()
    tracer.op = 0
    tracer.count("cli.import_s", import_s)
    tracer.install()
    try:
        code = szdet.cli.main(cli_args)
    finally:
        tracer.uninstall()
        tracer.dump(spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
