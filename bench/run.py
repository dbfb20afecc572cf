"""distest benchmark: one workload per call, each in a fresh process.

Usage, from the root of a checkout::

    python3 bench/run.py --workload onebit_sweep --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 0

Load model: one closed-loop client with one pass in flight, no process pool,
BLAS pinned to one thread. The workload runs in a fresh process (worker.py),
which also times set-up in further fresh interpreters. The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. The lines before it give each metric by name and
unit, the machine facts and the checks. --workload all runs every workload
in turn and prefixes each metric name with the workload's.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from spans import per_layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["DISTEST_THREADS"] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def machine_facts(seed: int, versions: dict) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, **versions,
            "blas_threads": {var: "1" for var in THREAD_VARS}, "seed": seed}


def run_workload(name: str, seed: int, seconds: int, trace: int, tiny: bool):
    """(metrics {name: (value, unit)}, checks [(description, passed)], info lines)."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                          cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    checks = res["checks"]
    info = [f"# machine {json.dumps(machine_facts(seed, res['versions']))}",
            f"# {name}: {res['passes']} untraced passes, {res['work_units']} work "
            f"units per pass, csv sha256 {res['csv_sha256']}"]
    info += [f"# check {'ok  ' if ok else 'FAIL'} {desc}" for desc, ok in checks]
    if trace:
        units = dict(per_layer_metrics())
        info.append(f"# per-layer values are medians of "
                    f"{len(res['traced_pass_seconds'])} traced passes")
        return {k: (v, units[k]) for k, v in res["per_layer"].items()}, checks, info
    wall = median(res["pass_seconds"])
    setup = res["setup_seconds"]
    info.append(f"# wall_s is the median of {res['passes']} passes; setup_s the "
                f"median of {len(setup)} fresh starts")
    return {
        "wall_s": (wall, "s"),
        "work_per_s": (res["work_units"] / wall, "work/s"),
        "setup_s": (median(setup), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }, checks, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload; used by the self-test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "distest" / "__init__.py").is_file():
        print(f"error: no distest sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    try:
        for name in names:
            got, checks, info = run_workload(name, args.seed, args.seconds,
                                             args.trace, args.tiny)
            prefix = f"{name}." if args.workload == "all" else ""
            print("\n".join(info))
            for key, (value, unit) in got.items():
                print(f"{prefix}{key} {value!r} {unit}")
                metrics[prefix + key] = {"value": value, "unit": unit}
            n_failed = sum(not ok for _, ok in checks)
            # Printed but not a result metric: it reads 0 whenever the program
            # is correct, and the result's failed/attempted carry it already.
            print(f"{prefix}fail_ratio {n_failed / len(checks)!r} ratio "
                  f"({n_failed} of {len(checks)} checks failed)")
            attempted += len(checks)
            failed += n_failed
    except (BenchError, subprocess.TimeoutExpired, ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
