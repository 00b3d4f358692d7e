"""
Record the expected outputs of every benchmark operation into expected.json.

    python3 bench/freeze.py

Run this only at a commit whose outputs are known to be right: it runs every
variant of every workload (both sizes), refuses to freeze an operation that
exits non-zero or fails an identity check, and writes the sha256 of each
exact output plus the (identity, status) list of each verify suite.
"""
from __future__ import annotations

import json
import sys

import run
import ops


def main() -> int:
    widthk = run.import_widthk()
    call = run.InProcess(widthk.cli)
    expected: dict = {"outputs": {}, "verify": {}}
    bad = []
    for workload in ops.WORKLOADS:
        for small in (False, True):
            for variants in ops.universe(workload, small):
                for op_list in variants:
                    previous = None
                    for op in op_list:
                        code, stdout, _ = call(op.argv)
                        if op.argv[0] == "verify":
                            expected["verify"][op.argv[2]] = ops.verify_pairs(stdout)
                        else:
                            expected["outputs"][op.key] = ops.digest(code, stdout)
                        reason = "exit code %d" % code if code else ops.check(
                            op, code, stdout, expected, previous
                        )
                        if reason:
                            bad.append(f"{op.key}: {reason}")
                        previous = stdout
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 1
    with open(run.BENCH / "expected.json", "w") as fh:
        json.dump(expected, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"froze {len(expected['outputs'])} outputs and {len(expected['verify'])} verify suites")
    return 0


if __name__ == "__main__":
    sys.exit(main())
