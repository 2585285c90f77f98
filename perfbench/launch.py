"""Run the robustcert CLI with span wrappers installed.

Usage: ``python3 perfbench/launch.py --spans OUT.json -- <cli arguments>``.
Installs the same wrappers as the in-process traced run, calls
``robustcert.cli.main`` with the remaining arguments, writes the spans to
OUT.json and exits with the CLI's exit code.
"""

import sys
from pathlib import Path


def main() -> int:
    args = sys.argv[1:]
    if len(args) < 3 or args[0] != "--spans" or args[2] != "--":
        print("usage: launch.py --spans OUT.json -- <cli arguments>",
              file=sys.stderr)
        return 1
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from spans import Tracer

    import robustcert.cli

    tracer = Tracer()
    tracer.install()
    try:
        return robustcert.cli.main(args[3:])
    finally:
        tracer.write(args[1])


if __name__ == "__main__":
    sys.exit(main())
