"""Run the ``staleness-lab`` command line and time it from inside its process.

    python3 perfbench/timed_cli.py REPORT.json ARG...

behaves as ``python3 -m staleness_lab.cli ARG...`` does (same output, same
exit code) and writes ``{"wall_s": ..., "reference_s": ...}`` to REPORT.json:
the wall time of importing ``staleness_lab.cli`` and running the command, and
that time in reference seconds (see ``speed``), sampled in this process, on
the core the command runs on.
"""

from __future__ import annotations

import json
import sys

from speed import SpeedClock


def main() -> int:
    report, args = sys.argv[1], sys.argv[2:]
    clock = SpeedClock(warm_up=3)
    clock.start()
    try:
        from staleness_lab import cli

        code = cli.main(args)
    except SystemExit as exc:
        code = exc.code
    finally:
        reference_s = clock.stop()
        clock.close()
        with open(report, "w", encoding="utf-8") as fh:
            json.dump({"wall_s": clock.walls[-1], "reference_s": reference_s}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
