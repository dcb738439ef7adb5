"""Record the sha256 and size of every CLI op's stdout into expected.json.

    PYTHONPATH=src python3 perfbench/record_expected.py

Run from the root of a checkout of the commit whose output is the
reference.  Each distinct command (argv without --seed) is run once, with
the first solver seed of w = 0 that finishes.
"""
import json

from workloads import EXPECTED_PATH, WORKLOADS, CliOp, build_ops

expected = {}
for workload in WORKLOADS:
    for op in build_ops(workload, 0, 0):
        if not isinstance(op, CliOp) or op.key in expected:
            continue
        code, out, _ = op.run()
        if code == 0:
            expected[op.key] = {"sha256": out.sha256, "bytes": out.bytes}
EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
print(f"{len(expected)} commands recorded in {EXPECTED_PATH.name}")
