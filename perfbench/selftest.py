"""Self-test of the benchmark at tiny input sizes.

    python3 perfbench/selftest.py

For every workload, in both modes, it checks that each metric named in
``BENCHMARK.json`` is printed with its unit and that correct answers pass
the checks; then it corrupts every third outcome before the check
(``--inject-wrong-answer``) and requires the failures to show, as
``failed`` in the result and as ``failed_share`` in the traced run.
Exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCALE = "0.05"
SECONDS = "1"


def run(workload, trace, inject=False):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", SECONDS, "--trace", str(trace),
           "--scale", SCALE]
    if inject:
        cmd.append("--inject-wrong-answer")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=180)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited with "
                             f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect(condition, message):
    if not condition:
        raise AssertionError(message)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, metrics in wanted.items():
            result = run(workload, trace)
            label = f"{workload} --trace {trace}"
            expect(set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, f"{label}: result keys")
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{label}: correct answers failed the checks: {result}")
            got = result["metrics"]
            expect(set(got) == {m["name"] for m in metrics},
                   f"{label}: metrics {sorted(set(got))}")
            for m in metrics:
                expect(got[m["name"]]["unit"] == m["unit"],
                       f"{label}: {m['name']} unit {got[m['name']]['unit']}")
            print(f"ok  {label}: {len(got)} metrics, "
                  f"{result['attempted']} requests")
            wrong = run(workload, trace, inject=True)
            expect(not wrong["correct"] and wrong["failed"] > 0,
                   f"{label}: injected wrong answers passed: {wrong}")
            if trace:
                share = wrong["metrics"]["failed_share"]["value"]
                expect(share > 0, f"{label}: failed_share {share}")
            print(f"ok  {label}: injected wrong answers counted "
                  f"({wrong['failed']}/{wrong['attempted']} failed)")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as problem:
        print(f"FAIL {problem}", file=sys.stderr)
        sys.exit(1)
