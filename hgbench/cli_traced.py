"""Run one hermgrass CLI command with the span wrappers installed.

    HGBENCH_SPANS=out.json HGBENCH_RUN=<run id> python3 hgbench/cli_traced.py <command> [args...]

Behaves like ``python -m hermgrass.cli``; the spans go to $HGBENCH_SPANS
when the command returns.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import spans  # noqa: E402


def main() -> int:
    rec = spans.Recorder(os.environ["HGBENCH_RUN"])
    spans.install(rec)
    from hermgrass import cli

    try:
        return cli.run(sys.argv[1:])
    finally:
        rec.dump(os.environ["HGBENCH_SPANS"], {"argv": sys.argv[1:]})


if __name__ == "__main__":
    sys.exit(main())
