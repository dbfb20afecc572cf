"""Golden outputs: the exact CSV bytes of a fixed set of CLI runs.

The files under tests/golden/ pin what the code produces. A change that
moves any of them must say why in CHANGES.md. To regenerate them, run
``PYTHONPATH=src python tests/test_golden.py`` from the root of a checkout;
it also prints the digests that ``WIDE_VERIFY_SHA256``,
``BENCH_VERIFY_SHA256``, ``BENCH_SIMULATE_SHA256``, ``WIDE_SIMULATE_SHA256``,
``DEMO_06_SHA256``, ``SOLVER_EVALUATIONS`` and ``TRANSCRIPT_SHA256`` hold.
"""

from __future__ import annotations

import hashlib
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from distest import cli, protocols, sweeps
from distest.designs import build_designs
from distest.families import ProbitSpec
from test_kernels import CASES, chunk, make_spec

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
DEMO_CONFIGS = ROOT / "demos" / "configs"
DEMO_TRIALS = 300
SUITES = "dpi3,dpi5,dpi7,chain,tensor,pinsker,fano"
# sha256 of `verify` on every suite at count 300, seed 7 (159116 bytes): far
# more instances, and so more shape classes per suite, than verify.csv holds.
WIDE_VERIFY_ARGS = ["verify", SUITES, "--count", "300", "--seed", "7"]
WIDE_VERIFY_SHA256 = "f4e719d31326fb359a1d670584f381547754031897e124268d8f19b0f9b56ae0"
# sha256 of `verify` on every suite at count 3000, seed 0 (1579829 bytes): the
# benchmark's verify_suites size, more than one block of instances per suite.
BENCH_VERIFY_ARGS = ["verify", SUITES, "--count", "3000", "--seed", "0"]
BENCH_VERIFY_SHA256 = "713973b48ec72bf57e3ceb64e974cf8e2415e915ff621106f3fc7c466c905edc"
# sha256 of `simulate` for every protocol on every family at d, m, n in
# {1, 3} x {3, 40} x {1, 16} (336 rows): more machines and wider blocks than
# matrix.csv, so a reduction over machines whose rounding depends on the
# layout of the draws moves it.
WIDE_SIMULATE_GRID = ("d = 1\nd = 3\nm = 3\nm = 40\nn = 1\nn = 16\ntheta = 0.3\n"
                      "budget_bits = 6\ntrials = 30\nseed = 5\n")
WIDE_SIMULATE_SHA256 = "c38d18d398d7f0a3f602ee2ce2db2d4f1d754999de2afbfe39f5cc3410190380"
# sha256 of demos/06_inequality_checks.py's stdout: its worked instances, the
# risk bound of its Fano instance and the suite summaries it prints.
DEMO_06 = ROOT / "demos" / "06_inequality_checks.py"
DEMO_06_SHA256 = "af6add117e1b7c6d9dc80a2a447055ed0e457a88c4c8003aed4f2a2183303919"
# (calls, values, sha256 of their bytes in order) of every array the probit
# solver hands protocols.log_ndtr over probit_avg and centralized runs on one
# spec: a change to the Newton loop that moves any evaluation moves it.
SOLVER_EVALUATIONS = (411, 309030,
                      "d456fa128ecda311fe60acb7d82e9c3b4da725f4ef0c4681e1624417b9204c9a")
# sha256 of every transcript run_trial gives on the test_kernels CASES draws
# at budget_bits = 7: its kind, then each message's machine, round, payload
# length and payload value, so a change to what goes on the wire moves it.
TRANSCRIPT_SHA256 = "b288c5b116dd23368e0b32f95cd8c180596620c60fb27d3706a15ca24ec53257"

# sha256 of `simulate` on each simulate workload of the benchmark, read
# from its config under bench/configs/ at the seed it holds.
BENCH_CONFIGS = ROOT / "bench" / "configs"
BENCH_SIMULATE_SHA256 = {
    "onebit_sweep": "6d70dc8ed70b7e0870fff145f2ef40ac7b034772acc109a41a88d959db7fa25b",
    "uniform_interactive": "bdfcd7c7f83053729804c510de56e77be77c9eaffa61d013e855c7df6887107e",
    "probit_avg": "d2c5e5d78d0aaca8d4d037a2921d05db0f90f44a7ea305bf3ebe68752622de86",
}

MATRIX_PROTOCOLS = ("single_mean", "gauss_qavg", "onebit", "uniform_min",
                    "regress_avg", "probit_avg", "centralized")
MATRIX_FAMILIES = ("gaussian", "bounded_two_point", "bounded_uniform",
                   "uniform", "regression", "probit")
MATRIX_GRID = ("d = 2\ntheta = 0.3\nm = 1\nm = 4\nn = 1\nn = 8\n"
               "budget_bits = 6\ntrials = 20\nseed = 11\n")

# Every formula id `distest bounds` accepts, the m = 1 branches, and the
# rows whose error text and error order are pinned: a missing budget before
# a missing lambda_max2, a missing lambda_min2, an unknown id, an empty id
# and d = 0.
BOUNDS_QUERIES = """\
formula,family,d,m,n,sigma2,budget_total,budgets_per_machine,lambda_max2,lambda_min2,c,c1,c2,a,delta
prop1,,1,1,1,,3,,,,,,,,
thm1,,4,16,64,2.0,,4;0;4;1;4;4;4;4;4;4;4;4;4;4;4;4,,,0.5,,,,
thm1,,3,1,8,1.0,,2,,,,,,,
prop2,,8,2,1,,,8;2,,,,,,,
prop3_lower,,3,8,16,,20,,,,,2.0,0.5,,
prop3_budget,,5,8,16,,,,,,,,,,
thm2,,4,16,64,2.0,16,,,,3.0,,,,
thm2,,4,1,64,1.0,16,,,,,,,,
thm2,,4,16,64,1.0,0,,,,,,,,
cor1_lower,,3,10,30,2.0,90,,1.5,0.5,,,,,
cor1_lower,,3,1,30,2.0,90,,1.5,0.5,,,,,
cor1_upper,,3,10,30,2.0,90,,1.5,0.5,2.0,,,,
cor2_lower,,3,10,30,2.0,90,,1.5,0.5,,,,,
cor2_lower,,3,10,30,,0,,0.25,0.1,,,,,
cor2_upper,,3,10,30,2.0,90,,1.5,0.5,2.0,,,,
centralized,gaussian,4,16,64,2.0,,,,,,,,,
centralized,bounded,4,16,64,,,,,,,,,,
centralized,uniform,4,16,64,,,,,,,,,,
centralized,regression,4,16,64,0.5,,,,,,,,,
pstar,,1,16,1,1.0,,,,,,,,4.0,0.1
cor1_lower,,3,10,30,1.0,,,,0.5,,,,,
cor1_lower,,3,10,30,1.0,90,,,0.5,,,,,
cor2_lower,,3,10,30,1.0,,,,,,,,,
cor1_upper,,3,10,30,1.0,90,,1.0,,,,,,
thm2,,4,16,64,1.0,,,,,,,,,
prop1,,1,1,1,,,,,,,,,,
thm1,,4,16,64,1.0,,,,,,,,,
centralized,poisson,4,16,64,,,,,,,,,,
bogus,,4,16,64,,,,,,,,,,
,,4,16,64,,,,,,,,,,
thm2,,0,16,64,1.0,16,,,,,,,,
"""


def _cli(argv, tmp: Path) -> str:
    out = tmp / "out.csv"
    assert cli.main([*argv, "--out", str(out)]) == 0
    return out.read_text(encoding="utf-8")


def _demo(name: str, tmp: Path) -> str:
    text = (DEMO_CONFIGS / f"{name}.conf").read_text(encoding="utf-8")
    text, hits = re.subn(r"(?m)^trials = \d+$", f"trials = {DEMO_TRIALS}", text)
    assert hits == 1
    conf = tmp / f"{name}.conf"
    conf.write_text(text, encoding="utf-8")
    return _cli(["simulate", str(conf)], tmp)


def _bounds(text: str, tmp: Path) -> str:
    queries = tmp / "queries.csv"
    queries.write_text(text, encoding="utf-8")
    return _cli(["bounds", str(queries)], tmp)


def _every_pair(grid: str) -> str:
    lines = [cli.SIMULATE_HEADER]
    for protocol in MATRIX_PROTOCOLS:
        for family in MATRIX_FAMILIES:
            text = f"protocol = {protocol}\nfamily = {family}\n{grid}"
            lines += cli.run_simulate(cli.parse_config(text))[1:]
    return "\n".join(lines) + "\n"


def _wide_simulate_digest() -> str:
    return hashlib.sha256(_every_pair(WIDE_SIMULATE_GRID).encode("utf-8")).hexdigest()


def _bench_simulate_digest(workload: str, tmp: Path) -> str:
    text = _cli(["simulate", str(BENCH_CONFIGS / f"{workload}.conf")], tmp)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _solver_evaluations():
    log_ndtr = protocols.log_ndtr
    sha, seen = hashlib.sha256(), [0, 0]

    def recording(s):
        seen[0] += 1
        seen[1] += s.size
        sha.update(np.ascontiguousarray(s).tobytes())
        return log_ndtr(s)

    spec = ProbitSpec(build_designs("orthogonal", 10, 30, 3, 7), (0.3, -0.2, 0.1))
    protocols.log_ndtr = recording
    try:
        for protocol in ("probit_avg", "centralized"):
            protocols.estimate_risk(protocol, spec, 100, 7)
    finally:
        protocols.log_ndtr = log_ndtr
    return (*seen, sha.hexdigest())


def _transcript_digest() -> str:
    sha = hashlib.sha256()
    for protocol, family, m, n, d in CASES:
        if protocol == "centralized":
            continue
        spec = make_spec(family, m, n, d)
        blocks, uniforms = chunk(protocol, spec, m, n)
        for t, block in enumerate(blocks):
            u = None if uniforms is None else uniforms[t]
            transcript = protocols.run_trial(protocol, spec, block, u, 7)[1]
            sha.update(f"{transcript.protocol_kind}\n".encode("utf-8"))
            for msg in transcript.messages:
                sha.update(f"{msg.machine},{msg.round},{msg.payload.length},"
                           f"{msg.payload.value}\n".encode("utf-8"))
    return sha.hexdigest()


def _demo_06_digest() -> str:
    src = str(Path(cli.__file__).resolve().parents[1])
    res = subprocess.run([sys.executable, str(DEMO_06)], capture_output=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src))
    return hashlib.sha256(res.stdout).hexdigest()


PRODUCERS = {
    "onebit_sweep.csv": lambda tmp: _demo("onebit_sweep", tmp),
    "single_mean_grid.csv": lambda tmp: _demo("single_mean_grid", tmp),
    "uniform_interactive.csv": lambda tmp: _demo("uniform_interactive", tmp),
    "rate_queries.csv": lambda tmp: _cli(
        ["bounds", str(DEMO_CONFIGS / "rate_queries.csv")], tmp),
    "bounds_all.csv": lambda tmp: _bounds(BOUNDS_QUERIES, tmp),
    "verify.csv": lambda tmp: _cli(
        ["verify", SUITES, "--count", "20", "--seed", "0"], tmp),
    "matrix.csv": lambda tmp: _every_pair(MATRIX_GRID),
}


@pytest.mark.parametrize("name", sorted(PRODUCERS))
def test_golden_bytes(name, tmp_path):
    got = PRODUCERS[name](tmp_path)
    assert got.encode("utf-8") == (GOLDEN / name).read_bytes()


def test_wide_verify_digest(tmp_path):
    got = _cli(WIDE_VERIFY_ARGS, tmp_path).encode("utf-8")
    assert hashlib.sha256(got).hexdigest() == WIDE_VERIFY_SHA256


def test_bench_verify_digest(tmp_path):
    got = _cli(BENCH_VERIFY_ARGS, tmp_path).encode("utf-8")
    assert hashlib.sha256(got).hexdigest() == BENCH_VERIFY_SHA256


@pytest.mark.parametrize("workload", sorted(BENCH_SIMULATE_SHA256))
def test_bench_simulate_digest(workload, tmp_path):
    assert _bench_simulate_digest(workload, tmp_path) == BENCH_SIMULATE_SHA256[workload]


def test_wide_simulate_digest():
    assert _wide_simulate_digest() == WIDE_SIMULATE_SHA256


def test_demo_06_digest():
    assert _demo_06_digest() == DEMO_06_SHA256


def test_probit_solver_evaluation_digest():
    assert _solver_evaluations() == SOLVER_EVALUATIONS


def test_transcript_digest():
    assert _transcript_digest() == TRANSCRIPT_SHA256


def test_golden_suites_are_every_suite():
    assert SUITES == ",".join(sweeps.SUITE_NAMES)


def test_matrix_covers_every_protocol_and_family():
    rows = (GOLDEN / "matrix.csv").read_text(encoding="utf-8").splitlines()[1:]
    pairs = {tuple(row.split(",")[:2]) for row in rows}
    assert pairs == {(p, f) for p in protocols.PROTOCOLS for f in cli.FAMILIES}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name, produce in PRODUCERS.items():
            (GOLDEN / name).write_text(produce(Path(tmp)), encoding="utf-8")
            print(f"wrote {GOLDEN / name}")
        for name, args in (("WIDE", WIDE_VERIFY_ARGS), ("BENCH", BENCH_VERIFY_ARGS)):
            text = _cli(args, Path(tmp)).encode("utf-8")
            print(f"{name}_VERIFY_SHA256 = {hashlib.sha256(text).hexdigest()!r}")
        print(f"BENCH_SIMULATE_SHA256 = "
              f"{ {w: _bench_simulate_digest(w, Path(tmp)) for w in BENCH_SIMULATE_SHA256}!r}")
        print(f"WIDE_SIMULATE_SHA256 = {_wide_simulate_digest()!r}")
        print(f"DEMO_06_SHA256 = {_demo_06_digest()!r}")
        print(f"SOLVER_EVALUATIONS = {_solver_evaluations()!r}")
        print(f"TRANSCRIPT_SHA256 = {_transcript_digest()!r}")
