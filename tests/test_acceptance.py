"""Acceptance gate: one test per criterion, each printing a PASS line with
the measured numbers once its assertions succeed (pytest -s shows them).

Every tolerance below is fixed up front; runtime limits are asserted with
time.perf_counter() around the measured section.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from scipy.stats import norm

import distest
from distest import bounds, families, sweeps
from distest.codec import decode_improvement_message, transcript_total_bits
from distest.designs import build_designs
from distest.families import (BoundedProductSpec, GaussianLocationSpec,
                              RegressionSpec, UniformLocationSpec,
                              design_eigenbounds, draw_trials, machine_streams,
                              reduce_mean_to_regression,
                              reduce_regression_to_probit)
from distest.protocols import (estimate_risk, gauss_qavg_message_bits, run_chunks,
                               run_trial, uniform_min_value_bits)


def report(criterion: int, message: str):
    print(f"ACCEPTANCE {criterion} PASS: {message}")


def test_criterion_1_bounded_mean_example():
    n, budget, trials, limit = 1024, 10, 5000, 2.0 / 1024
    start = time.perf_counter()
    worst = 0.0
    for i, theta01 in enumerate(np.arange(0.1, 0.95, 0.1)):
        spec = BoundedProductSpec(np.array([2 * theta01 - 1]), "two_point")
        rep = estimate_risk("single_mean", spec, trials=trials, seed=100 + i,
                            m=1, n=n, budget_bits=budget)
        assert rep.mse_mean <= limit, f"theta={theta01}: {rep.mse_mean} > {limit}"
        assert rep.bits_max == budget
        worst = max(worst, rep.mse_mean)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(1, f"single-machine quantized mean: worst MSE {worst:.3e} "
              f"<= 2/n = {limit:.3e} over the theta grid ({elapsed:.1f}s)")


def test_criterion_2_gaussian_quantized_average():
    d, sigma, m, n, trials = 4, 1.0, 16, 64, 5000
    start = time.perf_counter()
    theta = np.random.default_rng(2).uniform(-0.5, 0.5, d)
    spec = GaussianLocationSpec(theta, sigma)
    rep = estimate_risk("gauss_qavg", spec, trials=trials, seed=202, m=m, n=n)
    ratio = rep.mse_mean / (sigma**2 * d / (m * n))
    assert 0.85 <= ratio <= 1.35
    _, transcript, _ = run_trial("gauss_qavg", spec, families.sample(spec, m=m, n=n, seed=202))
    assert len(transcript.messages) == 16
    assert all(msg.payload.length == 48 for msg in transcript.messages)
    assert gauss_qavg_message_bits(d, sigma, m, n) == 48
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(2, f"gaussian quantize-and-average: MSE/centralized = {ratio:.3f} "
              f"in [0.85, 1.35]; transcript 16 x 48 bits ({elapsed:.1f}s)")


def test_criterion_3_onebit_scheme():
    d, m, trials = 8, 100, 10000
    start = time.perf_counter()
    spec = BoundedProductSpec(np.zeros(d), "two_point")
    rep = estimate_risk("onebit", spec, trials=trials, seed=303, m=m, n=1)
    target = d / m
    assert abs(rep.mse_mean - target) <= 0.03 * target
    assert rep.bits_max == rep.bits_mean == m * d

    # unbiasedness across a theta grid (one coordinate per grid value)
    theta = np.array([-0.8, -0.4, -0.1, 0.0, 0.2, 0.5, 0.7, 0.9])
    gspec = BoundedProductSpec(theta, "two_point")
    grid_trials = 2500
    hats = next(run_chunks("onebit", gspec, 1, [grid_trials], machine_streams(304, m),
                           machine_streams(304, m, families.TAG_PROTOCOL)))[0]
    stderr = hats.std(axis=0, ddof=1) / math.sqrt(grid_trials)
    assert np.all(np.abs(hats.mean(axis=0) - theta) <= 4 * stderr)
    elapsed = time.perf_counter() - start
    assert elapsed < 20.0
    report(3, f"one-bit scheme: MSE {rep.mse_mean:.5f} within 3% of d/m = "
              f"{target}; unbiased within 4 stderr on the grid ({elapsed:.1f}s)")


def test_criterion_4_uniform_interactive_protocol():
    d, m, n, trials = 3, 8, 16, 5000
    start = time.perf_counter()
    spec = UniformLocationSpec(np.array([0.2, -0.3, 0.0]))
    gens = machine_streams(404, m)
    per_coord_sq = np.zeros(d)
    improved = np.zeros((m, d))
    improved[0] = trials
    vbits = uniform_min_value_bits(m, n)
    total_bits = 0
    left = trials
    while left:
        k = min(1000, left)
        blocks = draw_trials(spec, gens, n, k)
        for t in range(k):
            theta_hat, transcript, _ = run_trial("uniform_min", spec, blocks[t])
            per_coord_sq += (theta_hat - spec.theta) ** 2
            for i, msg in enumerate(transcript.messages[1:], 1):
                improved[i, list(decode_improvement_message(msg.payload, d, vbits)[0])] += 1
            total_bits += transcript_total_bits(transcript)
        left -= k
    per_coord_mse = per_coord_sq / trials
    big_n = m * n
    oracle = 8.0 / ((big_n + 1) * (big_n + 2))
    assert np.all(np.abs(per_coord_mse - oracle) <= 0.15 * oracle)

    budget = bounds.prop3_budget(d, m, n).value + d
    mean_bits = total_bits / trials
    assert mean_bits <= budget

    freq = improved / trials
    for i in range(1, m):
        p = 1.0 / (i + 1)
        stderr = math.sqrt(p * (1 - p) / trials)
        assert np.all(np.abs(freq[i] - p) <= 3 * stderr), f"machine {i + 1}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(4, f"interactive minimum: per-coordinate MSE within 15% of "
              f"{oracle:.3e}; mean bits {mean_bits:.1f} <= {budget:.1f}; "
              f"improvement frequencies match 1/i ({elapsed:.1f}s)")


def test_criterion_5_regression_local_average():
    d, m, n, sigma, trials = 3, 10, 30, 1.0, 5000
    start = time.perf_counter()
    designs = build_designs("orthogonal", m, n, d, seed=505)
    spec = RegressionSpec(designs, np.array([0.4, -0.2, 0.7]), sigma)
    rep = estimate_risk("regress_avg", spec, trials=trials, seed=505)
    oracle = (sigma**2 / m**2) * sum(
        np.trace(np.linalg.inv(a.T @ a)) for a in designs)
    allowance = 0.10 * oracle + d / (m * n) ** 2
    assert abs(rep.mse_mean - oracle) <= allowance
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(5, f"regression local-average: MSE {rep.mse_mean:.5f} vs oracle "
              f"{oracle:.5f} within 10% + quantization allowance ({elapsed:.1f}s)")


def test_criterion_6_reduction_faithfulness():
    k, n, sigma = 100000, 3, 1.0
    rng = np.random.default_rng(606)
    design = np.array([[1.0, 0.2], [0.1, 1.4], [0.5, -0.3]])
    lmax2, _ = design_eigenbounds([design])
    theta = np.array([0.3, -0.6])
    x = theta + math.sqrt(sigma**2 / (lmax2 * n)) * rng.standard_normal((k, 2))
    y = reduce_mean_to_regression(x, design, sigma, lmax2, rng)
    mean_err = np.abs(y.mean(axis=0) - design @ theta)
    assert np.all(mean_err <= 3 * sigma / math.sqrt(k))
    emp_cov = np.cov(y.T)
    assert np.all(np.abs(np.diag(emp_cov) - sigma**2) <= 3 * sigma**2 * math.sqrt(2 / k))
    off = emp_cov[np.triu_indices(n, k=1)]
    assert np.all(np.abs(off) <= 3 * sigma**2 / math.sqrt(k))

    z = reduce_regression_to_probit(0.5 + rng.standard_normal(k))
    p = norm.cdf(0.5)
    assert abs(z.mean() - p) <= 3 * math.sqrt(p * (1 - p) / k)
    report(6, f"reductions: response mean/cov match N(A theta, I) and "
              f"P(Z=1) = Phi(a.theta) within 3 MC stderr over {k} draws")


SUITE_PLAN = (("pinsker", 10000), ("dpi3", 1000), ("dpi5", 1000),
              ("dpi7", 1000), ("chain", 1000), ("tensor", 1000),
              ("fano", 1000))


def test_criterion_7_inequality_suites():
    start = time.perf_counter()
    counts = {}
    for name, count in SUITE_PLAN:
        rows = sweeps.run_suite(name, count, seed=707)
        bad = [row for row in rows if not row.holds]
        assert not bad, f"{name}: {len(bad)} violations, first {bad[:1]}"
        counts[name] = count
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(7, f"inequality suites {counts}: zero violations at slack 1e-10 "
              f"({elapsed:.1f}s)")


def test_criterion_8_bound_calculators():
    q1 = bounds.RateQuery(d=4, m=16, n=64, sigma2=1.0,
                          budgets_per_machine=(4.0,) * 16)
    v1 = bounds.theorem1_lower(q1).value
    assert v1 == 0.00390625

    q2 = bounds.RateQuery(d=4, m=16, n=64, sigma2=1.0, budget_total=16.0)
    v2 = bounds.theorem2_lower(q2).value
    assert abs(v2 - 0.004508) <= 1e-6

    v3 = bounds.prop3_budget(2, 4, 8).value
    assert abs(v3 - 60.05) <= 0.01

    # budget monotonicity over the 200-point grid
    grid = [(d, m, n) for d in (1, 2, 4, 8, 16) for m in (2, 3, 5, 16, 64)
            for n in (1, 4, 8, 32, 128, 256, 1024, 4096)]
    budgets = [0.0, 1.0, 4.0, 16.0, 256.0, 1e9]
    checked = 0
    for d, m, n in grid:
        prev = [math.inf] * 4
        for budget in budgets:
            q_tot = bounds.RateQuery(d=d, m=m, n=n, sigma2=1.0, budget_total=budget)
            q_per = bounds.RateQuery(d=d, m=m, n=n, sigma2=1.0,
                                     budgets_per_machine=(budget / m,) * m)
            now = [bounds.theorem1_lower(q_per).value,
                   bounds.theorem2_lower(q_tot).value,
                   bounds.prop2_lower(q_per).value,
                   bounds.prop3_lower(q_tot).value]
            assert all(b <= a + 1e-15 for a, b in zip(prev, now))
            prev = now
        checked += 1
    assert checked == 200
    report(8, f"bound calculators: thm1 = {v1}, thm2 = {v2:.9f}, "
              f"prop3 budget = {v3:.4f}; monotone in budget on {checked} grid points")


def test_criterion_9_scaling_shapes():
    ms = [25, 100, 400, 1600]
    mses = []
    for m in ms:
        spec = BoundedProductSpec(np.zeros(8), "two_point")
        rep = estimate_risk("onebit", spec, trials=2500, seed=909, m=m, n=1)
        mses.append(rep.mse_mean)
    slope_m = np.polyfit(np.log(ms), np.log(mses), 1)[0]
    assert abs(slope_m + 1.0) <= 0.1

    pairs = [(4, 16), (8, 16), (16, 16), (32, 16)]
    u_mses = []
    for m, n in pairs:
        spec = UniformLocationSpec(np.array([0.2, -0.3, 0.0]))
        rep = estimate_risk("uniform_min", spec, trials=5000, seed=911, m=m, n=n)
        u_mses.append(rep.mse_mean)
    slope_n = np.polyfit(np.log([m * n for m, n in pairs]), np.log(u_mses), 1)[0]
    assert abs(slope_n + 2.0) <= 0.15
    report(9, f"scaling shapes: one-bit slope vs m = {slope_m:.3f} (-1 +/- 0.1); "
              f"uniform slope vs mn = {slope_n:.3f} (-2 +/- 0.15)")


CRITERION_CONF = """protocol = onebit
family = bounded_two_point
d = 8
theta = 0.0
m = 25
m = 100
m = 400
n = 1
trials = 10000
seed = 2024
"""

CRITERION_QUERIES = """formula,d,m,n,sigma2,budget_total,budgets_per_machine
thm1,4,16,64,1.0,,4;4;4;4;4;4;4;4;4;4;4;4;4;4;4;4
thm2,4,16,64,1.0,16,
prop3_budget,2,4,8,,,
"""


def _run(args):
    """Run ``python -m distest`` on the imported package's sources."""
    src = str(Path(distest.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-m", "distest", *args],
                          capture_output=True, env=dict(os.environ, PYTHONPATH=src))


def test_criterion_10_byte_identical_reruns(tmp_path):
    conf = tmp_path / "onebit.conf"
    conf.write_text(CRITERION_CONF)
    queries = tmp_path / "queries.csv"
    queries.write_text(CRITERION_QUERIES)
    outs = [tmp_path / name for name in
            ("s1.csv", "s2.csv", "b1.csv", "b2.csv", "v1.csv", "v2.csv")]
    assert _run(["simulate", str(conf), "--out", str(outs[0])]).returncode == 0
    assert _run(["simulate", str(conf), "--out", str(outs[1])]).returncode == 0
    assert _run(["bounds", str(queries), "--out", str(outs[2])]).returncode == 0
    assert _run(["bounds", str(queries), "--out", str(outs[3])]).returncode == 0
    verify = ["verify", "pinsker,chain", "--count", "500", "--seed", "7"]
    assert _run([*verify, "--out", str(outs[4])]).returncode == 0
    assert _run([*verify, "--out", str(outs[5])]).returncode == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert outs[2].read_bytes() == outs[3].read_bytes()
    assert outs[4].read_bytes() == outs[5].read_bytes()
    # the simulate rows reproduce the one-bit exact-variance oracle d/m
    for line in outs[0].read_text().splitlines()[1:]:
        cols = line.split(",")
        m, mse, stderr = int(cols[4]), float(cols[12]), float(cols[13])
        assert abs(mse - 8.0 / m) <= 3 * stderr
    report(10, "CLI reruns byte-identical for simulate, bounds and verify; "
               "sweep rows match the d/m oracle")
