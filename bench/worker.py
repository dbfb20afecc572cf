"""One workload in one fresh process: timed passes, checks, and an optional trace.

run.py starts this with BLAS pinned to one thread and PYTHONPATH set to the
checkout's ``src``; it prints one JSON object as its last line. Untraced
passes repeat until --seconds have elapsed (at least two, so that the
byte-identity check always has a second pass). Set-up starts run between
the untraced passes, so that their median spans the same window as the
passes. With --trace 1 untraced and traced passes alternate, and the traced
passes report the per-layer split.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from workloads import (WORKLOADS, check_output, config_text,  # noqa: E402
                       entry_point, run_pass, work_units)

SETUP_STARTS_PER_PASS = 3
MIN_SETUP_STARTS = 15

# Seconds from a fresh interpreter until distest is imported and the config
# text is parsed; the child prints the CLOCK_MONOTONIC reading at that point.
SETUP_CODE = """\
import sys, time
from distest import cli
cli.parse_config(sys.stdin.read())
print(time.clock_gettime(time.CLOCK_MONOTONIC))
"""


def setup_seconds(text: str) -> float:
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], input=text,
                          capture_output=True, text=True, check=True, timeout=60)
    return float(proc.stdout.split()[-1]) - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    import numpy
    import scipy
    import distest
    from distest import cli
    if Path(distest.__file__).resolve().parent != ROOT / "src" / "distest":
        print(f"distest was imported from {distest.__file__}, not from the checkout",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    config_src = config_text(workload, args.seed, args.tiny)
    config = cli.parse_config(config_src)
    entry = entry_point(cli, workload)

    untraced, traced, outputs, setup = [], [], [], []
    rec = None
    if args.trace:
        import spans
        rec = spans.SpanRecorder()
        traced_entry = rec.span(f"cli.{entry.__name__}", entry)

    def timed(fn, label):
        t0 = perf_counter()
        csv_text = run_pass(fn, workload, config)
        wall = perf_counter() - t0
        outputs.append((label, csv_text))
        return wall

    start = perf_counter()
    while len(untraced) < 2 or perf_counter() - start < args.seconds:
        untraced.append(timed(entry, f"untraced pass {len(untraced) + 1}"))
        if rec is None:
            setup += [setup_seconds(config_src) for _ in range(SETUP_STARTS_PER_PASS)]
        else:
            rec.begin_pass()
            with spans.installed(rec):
                traced.append(timed(traced_entry, f"traced pass {len(traced) + 1}"))
    while rec is None and len(setup) < MIN_SETUP_STARTS:
        setup.append(setup_seconds(config_src))

    first = outputs[0][1]
    checks = check_output(workload, config, first)
    checks += [(f"{label} CSV bytes equal untraced pass 1", csv_text == first)
               for label, csv_text in outputs[1:]]
    result = {
        "passes": len(untraced),
        "pass_seconds": untraced,
        "setup_seconds": setup,
        "work_units": work_units(workload, first),
        "csv_sha256": hashlib.sha256(first.encode()).hexdigest(),
        "checks": [[name, bool(ok)] for name, ok in checks],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if rec is not None:
        result["traced_pass_seconds"] = traced
        result["per_layer"] = spans.summarize(rec, traced, untraced)
        rec.save(ROOT / ".bench_out" / f"spans-{workload.name}.npz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
