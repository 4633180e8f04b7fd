"""Run one brouwer CLI command with layer spans recorded.

Usage: python3 perfbench/clishim.py SPANS_OUT <brouwer arguments...>

Stdout and the exit code are the command's own; the spans of the modules
the command calls go to SPANS_OUT as JSON when it ends. Used by the traced
cli-cold run.
"""

import sys

from spans import Tracer, install_program_wrappers


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    import brouwer.cli as cli

    tracer = Tracer()
    install_program_wrappers(tracer, cli)
    tracer.job = 0
    try:
        return cli.main(argv)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
