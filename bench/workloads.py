"""The benchmark's workloads: inputs made from a seed, work units, and checks.

Every workload is one config file under ``configs/``. Its ``seed`` line is
replaced by the workload seed, and distest receives only that generated text.
The checks read nothing but the CSV text that one pass produced.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

CONFIG_DIR = Path(__file__).resolve().parent / "configs"

# A one-bit row passes when |mse_mean - d/m| <= ONEBIT_STDERRS * mse_stderr.
# At 3 stderr a correct program fails about one row in 370 by chance, and a
# campaign of runs on fresh seeds checks hundreds of rows; 5 stderr keeps
# chance failures below one in a million rows and still catches a bias of
# 2.5 % of d/m at m = 100 (10 000 trials).
ONEBIT_STDERRS = 5.0
UNIFORM_SLOPE = -2.0
UNIFORM_SLOPE_TOL = 0.15


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "simulate" or "verify"
    config: str               # file name under configs/
    tiny: dict = field(default_factory=dict)   # key overrides for the self-test


WORKLOADS = {w.name: w for w in (
    # The independent one-bit scheme. Building BitString/Message/Transcript
    # objects per machine per trial dominates (about 90 % in
    # onebit_bounded_mean, 3 % in draw_trials), so batched kernels and lazy
    # transcripts show here first.
    Workload("onebit_sweep", "simulate", "onebit_sweep.conf", {"trials": "300"}),
    # The interactive Prop. 3 protocol: a sequential loop over machines with
    # about 115k scalar quantize/dequantize calls and variable-length
    # improvement messages. A one-bit-only change should leave it unmoved;
    # a cummin rewrite should move it.
    Workload("uniform_interactive", "simulate", "uniform_interactive.conf",
             {"trials": "1000"}),
    # Compute-bound probit averaging: the damped-Newton solver (probit_mle,
    # log_ndtr) takes about 94 %, codec and sampling almost nothing. The only
    # workload that exercises designs; it shows whether a codec change costs
    # anything on a compute-bound path.
    Workload("probit_avg", "simulate", "probit_avg.conf", {"trials": "20"}),
    # All seven inequality suites. infotheory and sweeps do all the work, so
    # a simulate-side change is predicted to leave it unmoved.
    Workload("verify_suites", "verify", "verify_suites.conf", {"count": "20"}),
)}


def config_text(workload: Workload, seed: int, tiny: bool = False) -> str:
    """The workload's config with its seed (and, for the self-test, its size)
    replaced."""
    overrides = {"seed": str(int(seed))}
    if tiny:
        overrides.update(workload.tiny)
    lines, seen = [], set()
    for raw in (CONFIG_DIR / workload.config).read_text(encoding="utf-8").splitlines():
        key = raw.split("#", 1)[0].split("=", 1)[0].strip()
        if key in overrides:
            raw = f"{key} = {overrides[key]}"
            seen.add(key)
        lines.append(raw)
    missing = set(overrides) - seen
    if missing:
        raise ValueError(f"{workload.config} lacks the keys {sorted(missing)}")
    return "\n".join(lines) + "\n"


def entry_point(cli, workload: Workload):
    """The CLI function one pass of the workload calls."""
    return cli.run_simulate if workload.kind == "simulate" else cli.run_verify


def run_pass(entry, workload: Workload, config: dict) -> str:
    """One pass through `entry` (run_simulate or run_verify); the CSV text."""
    if workload.kind == "simulate":
        return "\n".join(entry(config)) + "\n"
    suites = config["suites"][0].split(",")
    rows, _ = entry(suites, int(config["count"][0]), int(config["seed"][0]))
    return "\n".join(rows) + "\n"


def _rows(text: str):
    return list(csv.DictReader(io.StringIO(text)))


def work_units(workload: Workload, text: str) -> int:
    """Machine-trials (sum of trials * m) for simulate, instances for verify."""
    rows = _rows(text)
    if workload.kind == "verify":
        return len(rows)
    return sum(int(r["trials"]) * int(r["m"]) for r in rows)


def check_output(workload: Workload, config: dict, text: str):
    """Correctness checks on one pass's CSV; a list of (description, passed)."""
    rows = _rows(text)
    checks = []
    if workload.kind == "verify":
        count = int(config["count"][0])
        suites = config["suites"][0].split(",")
        checks.append((f"{count} x {len(suites)} rows", len(rows) == count * len(suites)))
        checks.append(("zero violations", all(r["holds"] == "1" for r in rows)))
        return checks
    for r in rows:
        checks.append((f"m={r['m']}: empty error column", r["error"] == ""))
    if any(r["error"] for r in rows):
        return checks
    protocol = rows[0]["protocol"]
    if protocol == "onebit":
        for r in rows:
            d, m = int(r["d"]), int(r["m"])
            checks.append((f"m={m}: bits_mean == d*m", float(r["bits_mean"]) == d * m))
            err = abs(float(r["mse_mean"]) - d / m)
            checks.append((f"m={m}: mse_mean within {ONEBIT_STDERRS:g} stderr of d/m",
                           err <= ONEBIT_STDERRS * float(r["mse_stderr"])))
    elif protocol == "probit_avg":
        for r in rows:
            d, m, n = int(r["d"]), int(r["m"]), int(r["n"])
            # regress_avg_message_bits: d * ceil(log2(2mn)) bits per machine
            expected = m * d * (2 * m * n - 1).bit_length()
            checks.append((f"m={m}: bits_mean == m*regress_avg_message_bits",
                           float(r["bits_mean"]) == expected))
    elif protocol == "uniform_min":
        mn = [int(r["m"]) * int(r["n"]) for r in rows]
        mse = [float(r["mse_mean"]) for r in rows]
        slope = float(np.polyfit(np.log(mn), np.log(mse), 1)[0])
        checks.append((f"log-log slope {slope:.3f} vs mn within "
                       f"{UNIFORM_SLOPE:g} +/- {UNIFORM_SLOPE_TOL:g}",
                       math.isfinite(slope)
                       and abs(slope - UNIFORM_SLOPE) <= UNIFORM_SLOPE_TOL))
    return checks
