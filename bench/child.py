"""
One widthk command in a fresh interpreter, with the host speed sampled inside it.

    python3 bench/child.py verify --suite all    # as `python -m widthk verify --suite all`
    python3 bench/child.py --import-only         # only `import widthk.cli`

`widthk` is imported from the `PYTHONPATH` the caller sets.  Stdout is the
command's own; the last line of stderr is a JSON object with the clocked
span's wall time, its program time in reference seconds, and the time the
calibration kernel took inside it (see calib.py).
"""
from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calib  # noqa: E402


def main() -> int:
    argv = sys.argv[1:]
    code = 0
    with calib.SpeedClock() as clock:
        start = perf_counter()
        import widthk.cli

        if argv != ["--import-only"]:
            code = widthk.cli.main(argv)
            sys.stdout.flush()
        end = perf_counter()
    print(json.dumps({
        "wall_s": end - start,
        "reference_s": clock.reference_s(start, end),
        "kernel_s": clock.kernel_s(start, end),
    }), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
