"""Self-test of the benchmark: every workload at a tiny size, traced and not.

Run from the root of a checkout::

    python3 bench/selftest.py

For each workload and trace mode it runs run.py with --tiny and checks that
the last line has exactly the result keys, that every check passed, and that
the printed metrics are exactly the ones BENCHMARK.json declares for that
mode, with the declared units and with names made only of letters, digits,
'_', '.' and '-'. Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from workloads import WORKLOADS  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_run(workload: str, trace: int, declared: dict) -> list:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=170)
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"checks: {result['failed']} of {result['attempted']} failed")
    metrics = result["metrics"]
    for name, entry in metrics.items():
        if not NAME_RE.fullmatch(name):
            problems.append(f"metric name {name!r} has characters outside [A-Za-z0-9_.-]")
        if name not in declared:
            problems.append(f"metric {name!r} is not declared in BENCHMARK.json")
        elif entry["unit"] != declared[name]:
            problems.append(f"metric {name!r} has unit {entry['unit']!r}, "
                            f"declared {declared[name]!r}")
        if not isinstance(entry["value"], (int, float)):
            problems.append(f"metric {name!r} value {entry['value']!r} is not a number")
    missing = sorted(set(declared) - set(metrics))
    if missing:
        problems.append(f"declared metrics not printed: {missing}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    listed = {w["name"] for w in spec["workloads"]}
    failures = 0
    if listed != set(WORKLOADS):
        print(f"FAIL BENCHMARK.json lists {sorted(listed)}, workloads.py {sorted(WORKLOADS)}")
        failures += 1
    for workload in WORKLOADS:
        for trace in (0, 1):
            problems = check_run(workload, trace, declared[trace])
            status = "FAIL" if problems else "ok  "
            print(f"{status} {workload} --trace {trace}")
            for problem in problems:
                print(f"     {problem}")
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
