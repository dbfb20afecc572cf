import math
import tracemalloc

import numpy as np
import pytest

from distest import codec, families, protocols
from distest.codec import transcript_total_bits
from distest.designs import build_designs
from distest.errors import InvalidArgumentError
from distest.families import (BoundedProductSpec, GaussianLocationSpec,
                              ProbitSpec, RegressionSpec, UniformLocationSpec,
                              draw_trials, machine_streams, sample)
from distest.protocols import (centralized_baseline, estimate_risk,
                               gauss_qavg_message_bits,
                               gaussian_quantized_average, onebit_bounded_mean,
                               probit_local_average, probit_mle,
                               regression_local_average,
                               regress_avg_message_bits,
                               single_machine_quantized_mean,
                               uniform_interactive_min, uniform_min_value_bits)


def mean_sample(spec, m, n, seed):
    return sample(spec, m=m, n=n, seed=seed)


def onebit_uniforms(seed, m, d):
    """The (m, d) uniforms estimate_risk hands the one-bit scheme's first trial."""
    gens = machine_streams(seed, m, families.TAG_PROTOCOL)
    return np.stack([g.random((1, d)) for g in gens], axis=1)[0]


class TestSingleMachineQuantizedMean:
    def test_constant_samples(self):
        out = single_machine_quantized_mean(np.full(64, 0.5), 10)
        assert abs(out.theta_hat[0] - 0.5) <= 2**-10
        assert transcript_total_bits(out.transcript) == 10

    def test_one_bit_grid(self):
        out = single_machine_quantized_mean(np.array([0.1, 0.2]), 1)
        assert out.theta_hat[0] in (0.25, 0.75)

    def test_mse_bound_bernoulli_half(self):
        spec = BoundedProductSpec(np.array([0.0]), "two_point")  # maps to Bern(1/2)
        rep = estimate_risk("single_mean", spec, trials=2000, seed=8, m=1,
                            n=1024, budget_bits=10)
        assert rep.mse_mean <= 2 / 1024
        assert rep.bits_max == rep.bits_mean == 10

    def test_input_validation(self):
        with pytest.raises(InvalidArgumentError):
            single_machine_quantized_mean(np.array([-0.2, 0.5]), 4)
        with pytest.raises(InvalidArgumentError):
            single_machine_quantized_mean(np.array([0.2, 0.5]), 0)


class TestGaussianQuantizedAverage:
    def test_small_sigma_tracks_sample(self):
        spec = GaussianLocationSpec(np.full(3, 0.7), 1e-3)
        x = mean_sample(spec, 1, 1, seed=0)
        out = gaussian_quantized_average(x, 1e-3)
        cell = (2 + 2e-3) / 2 ** codec.bits_for_accuracy(
            -1 - 1e-3, 1 + 1e-3, 1e-6)
        assert np.all(np.abs(out.theta_hat - x[0, :, 0]) <= cell)

    def test_transcript_accounting(self):
        d, sigma, m, n = 4, 1.0, 16, 64
        spec = GaussianLocationSpec(np.full(d, 0.2), sigma)
        out = gaussian_quantized_average(mean_sample(spec, m, n, 3), sigma)
        assert len(out.transcript.messages) == m
        per_machine = gauss_qavg_message_bits(d, sigma, m, n)
        assert per_machine == 48
        assert all(msg.payload.length == per_machine
                   for msg in out.transcript.messages)
        assert transcript_total_bits(out.transcript) == m * per_machine

    def test_risk_near_centralized_rate(self):
        spec = GaussianLocationSpec(np.array([0.3, -0.2, 0.1, 0.4]), 1.0)
        rep = estimate_risk("gauss_qavg", spec, trials=1500, seed=5, m=16, n=64)
        assert rep.mse_mean / (4 / 1024) == pytest.approx(1.0, abs=0.25)


class TestOnebit:
    def test_degenerate_all_ones(self):
        spec = BoundedProductSpec(np.ones(3), "two_point")
        out = onebit_bounded_mean(mean_sample(spec, 5, 1, seed=0), onebit_uniforms(12, 5, 3))
        assert np.array_equal(out.theta_hat, np.ones(3))
        assert transcript_total_bits(out.transcript) == 5 * 3

    def test_exact_variance_at_zero(self):
        spec = BoundedProductSpec(np.zeros(8), "two_point")
        rep = estimate_risk("onebit", spec, trials=4000, seed=2, m=100, n=1)
        assert rep.mse_mean == pytest.approx(0.08, rel=0.05)
        assert rep.bits_mean == rep.bits_max == 800

    def test_unbiased(self):
        theta = np.array([-0.6, 0.0, 0.3, 0.8])
        spec = BoundedProductSpec(theta, "two_point")
        m, trials = 40, 3000
        gens = machine_streams(31, m)
        blocks = draw_trials(spec, gens, 1, trials)
        proto = machine_streams(31, m, families.TAG_PROTOCOL)
        uniforms = np.stack([g.random((trials, 4)) for g in proto], axis=1)
        hats = np.empty((trials, 4))
        for t in range(trials):
            hats[t] = onebit_bounded_mean(blocks[t], uniforms[t]).theta_hat
        stderr = hats.std(axis=0, ddof=1) / math.sqrt(trials)
        assert np.all(np.abs(hats.mean(axis=0) - theta) <= 4 * stderr)

    def test_requires_unit_range_and_single_observation(self):
        with pytest.raises(InvalidArgumentError):
            onebit_bounded_mean(np.full((2, 1, 1), 3.0), onebit_uniforms(0, 2, 1))
        spec = BoundedProductSpec(np.zeros(2), "two_point")
        with pytest.raises(InvalidArgumentError):
            onebit_bounded_mean(mean_sample(spec, 2, 3, 0), onebit_uniforms(0, 2, 2))

    @pytest.mark.parametrize("shape", [(3,), (1, 3), (3, 4), (4, 3, 1)])
    def test_rejects_uniforms_not_shaped_machines_by_coordinates(self, shape):
        # a (d,) or (1, d) array would broadcast, giving every machine one uniform
        x = mean_sample(BoundedProductSpec(np.zeros(3), "two_point"), 4, 1, seed=0)
        with pytest.raises(InvalidArgumentError, match="shape"):
            onebit_bounded_mean(x, np.full(shape, 0.5))
        assert transcript_total_bits(onebit_bounded_mean(x, np.full((4, 3), 0.5)).transcript) == 12


class TestUniformInteractiveMin:
    def test_single_machine_transcript(self):
        spec = UniformLocationSpec(np.array([0.1, -0.2, 0.5]))
        out = uniform_interactive_min(mean_sample(spec, 1, 16, 7))
        assert len(out.transcript.messages) == 1
        assert out.transcript.messages[0].payload.length == (
            3 * uniform_min_value_bits(1, 16))

    def test_state_matches_global_min_oracle(self):
        spec = UniformLocationSpec(np.array([0.2, -0.3, 0.0]))
        m, n = 8, 16
        cell = 4.0 / 2 ** uniform_min_value_bits(m, n)
        for seed in range(30):
            x = mean_sample(spec, m, n, seed)
            gmin = x.min(axis=(0, 2))
            s = uniform_interactive_min(x).theta_hat - 1.0
            assert np.all(s <= gmin + 1e-15)
            assert np.all(s >= gmin - cell - 1e-15)

    def test_bit_accounting_matches_improvement_lists(self):
        spec = UniformLocationSpec(np.array([0.2, -0.3, 0.0]))
        m, n, d = 8, 16, 3
        vb = uniform_min_value_bits(m, n)
        for seed in range(10):
            out = uniform_interactive_min(mean_sample(spec, m, n, seed))
            improved = out.info["improved"]
            expected = d * vb + int(improved[1:].sum()) * (codec.ceil_log2(d) + vb)
            assert transcript_total_bits(out.transcript) == expected

    def test_improvement_frequency_is_one_over_i(self):
        # exchangeability oracle: coordinate j improves at machine i w.p. 1/i
        spec = UniformLocationSpec(np.array([0.2, -0.3, 0.0]))
        m, n, trials = 8, 16, 3000
        gens = machine_streams(5, m)
        blocks = draw_trials(spec, gens, n, trials)
        freq = np.zeros((m, 3))
        for t in range(trials):
            freq += uniform_interactive_min(blocks[t]).info["improved"]
        freq /= trials
        for i in range(1, m):
            p = 1.0 / (i + 1)
            stderr = math.sqrt(p * (1 - p) / trials)
            assert np.all(np.abs(freq[i] - p) <= 4 * stderr)


class TestRegressionLocalAverage:
    def test_noiseless_recovery(self):
        designs = build_designs("orthogonal", 4, 20, 3, seed=1)
        spec = RegressionSpec(designs, np.array([0.5, -0.5, 0.25]), 0.0)
        out = regression_local_average(spec, sample(spec, seed=0))
        cell = 2.0 / 2 ** codec.bits_for_accuracy(-1, 1, 1 / 80)
        assert float((out.theta_hat - spec.theta) @ (out.theta_hat - spec.theta)) <= 3 * cell**2

    def test_per_machine_bits(self):
        assert regress_avg_message_bits(3, 10, 30) == 30
        designs = build_designs("identity", 10, 30, 3, seed=0)
        spec = RegressionSpec(designs, np.zeros(3), 1.0)
        out = regression_local_average(spec, sample(spec, seed=1))
        assert all(msg.payload.length == 30 for msg in out.transcript.messages)
        assert out.info["nominal_bits_per_machine"] == math.ceil(3 * math.log2(300))

    def test_risk_matches_trace_oracle(self):
        designs = build_designs("orthogonal", 10, 30, 3, seed=9)
        spec = RegressionSpec(designs, np.array([0.4, -0.2, 0.7]), 1.0)
        rep = estimate_risk("regress_avg", spec, trials=1500, seed=4)
        oracle = sum(np.trace(np.linalg.inv(a.T @ a)) for a in designs) / 100
        assert rep.mse_mean == pytest.approx(oracle, rel=0.15)


class TestProbit:
    def test_mle_symmetry_at_zero(self):
        designs = build_designs("orthogonal", 8, 120, 2, seed=3)
        spec = ProbitSpec(designs, np.zeros(2))
        gens = machine_streams(6, 8)
        blocks = draw_trials(spec, gens, 120, 400)
        hats = np.empty((400, 2))
        for t in range(400):
            hats[t] = probit_local_average(spec, blocks[t]).theta_hat
        stderr = hats.std(axis=0, ddof=1) / math.sqrt(400)
        assert np.all(np.abs(hats.mean(axis=0)) <= 3 * stderr)

    def test_mle_concentrates_at_fisher_rate(self):
        # Fisher information oracle at u = 0.5: var ~ 1/(n I_F) = 1/5812
        rng = np.random.default_rng(0)
        from scipy.stats import norm
        a = np.ones((10000, 1))
        misses = 0
        for _ in range(100):
            z = (rng.random(10000) < norm.cdf(0.5)).astype(float)
            est, flag = probit_mle(a, z)
            assert not flag
            misses += int(abs(est[0] - 0.5) > 0.05)
        assert misses <= 1  # 0.05 is ~3.8 standard deviations

    def test_mse_quarters_when_n_quadruples(self):
        theta = np.array([0.3, -0.4])
        reps = {}
        for n in (200, 800):
            designs = build_designs("orthogonal", 8, n, 2, seed=11)
            spec = ProbitSpec(designs, theta)
            reps[n] = estimate_risk("probit_avg", spec, trials=600, seed=13)
        ratio = reps[200].mse_mean / reps[800].mse_mean
        assert 3.0 <= ratio <= 5.0

    def test_separation_flagging(self):
        est, flag = probit_mle(np.full((20, 1), 1e-3), np.ones(20))
        assert flag
        assert abs(est[0]) <= 1.0
        designs = (np.full((5, 1), 1e-3),) * 4
        spec = ProbitSpec(designs, np.array([0.2]))
        rep = estimate_risk("probit_avg", spec, trials=160, seed=3)
        assert rep.flagged_trials > 0
        assert math.isfinite(rep.mse_mean)


class TestCentralizedBaselines:
    def test_gaussian_matches_rate(self):
        spec = GaussianLocationSpec(np.array([0.3, -0.2, 0.1, 0.4]), 1.0)
        rep = estimate_risk("centralized", spec, trials=5000, seed=1, m=16, n=64)
        assert rep.mse_mean == pytest.approx(4 / 1024, rel=0.05)
        assert rep.bits_max == 0

    def test_uniform_matches_order_statistics(self):
        spec = UniformLocationSpec(np.array([0.2, -0.3, 0.0]))
        rep = estimate_risk("centralized", spec, trials=5000, seed=2, m=8, n=16)
        oracle = 3 * 8 / (129 * 130)
        assert rep.mse_mean == pytest.approx(oracle, rel=0.15)

    def test_regression_noiseless_exact(self):
        designs = build_designs("orthogonal", 3, 10, 2, seed=5)
        spec = RegressionSpec(designs, np.array([0.3, -0.7]), 0.0)
        est, flagged = centralized_baseline(spec, sample(spec, seed=0))
        assert np.allclose(est, spec.theta, atol=1e-10) and not flagged


class TestEstimateRisk:
    def test_deterministic_protocol_zero_stderr(self):
        designs = build_designs("orthogonal", 3, 10, 2, seed=5)
        spec = RegressionSpec(designs, np.array([0.3, -0.7]), 0.0)
        rep = estimate_risk("regress_avg", spec, trials=50, seed=0)
        assert rep.mse_stderr == 0.0

    def test_same_seed_bit_identical(self):
        spec = BoundedProductSpec(np.zeros(4), "two_point")
        a = estimate_risk("onebit", spec, trials=200, seed=5, m=10, n=1)
        b = estimate_risk("onebit", spec, trials=200, seed=5, m=10, n=1)
        assert a == b
        c = estimate_risk("onebit", spec, trials=200, seed=6, m=10, n=1)
        assert a != c

    def test_working_set_is_the_messages_and_a_few_machine_rows(self):
        """2500 trials of m * d = 3200 one-bit inputs are 8e6 values. The run
        holds one chunk's (k, m, d) bool messages and a few (k, d) float64
        machine rows; the 1 MiB covers the 800 generators and the per-trial
        error and bit arrays. A small run first makes the one-time imports
        and caches, which are not part of the working set."""
        d, m, trials = 8, 400, 2500
        spec = BoundedProductSpec(np.zeros(d), "two_point")
        estimate_risk("onebit", spec, trials=2, seed=1, m=2, n=1)
        k = protocols.WORKING_VALUES // (m * d)
        messages, row = k * m * d, k * d * 8
        tracemalloc.start()
        try:
            estimate_risk("onebit", spec, trials=trials, seed=1, m=m, n=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= messages + 16 * row + 2**20

    def test_chunks_count_every_value_a_trial_draws(self, monkeypatch):
        """uniform_min's fusion makes a few message-sized temporaries, and a
        message is 1/n of what a machine draws. Sizing chunks by the
        m * d * n drawn values keeps the buffer, those temporaries and the
        row within one budget of float64; sizing them by the messages alone
        would give n = 10 times the trials per chunk and about 5 budgets.
        A small budget keeps the run small."""
        d, m, n, trials = 4, 50, 10, 1000
        spec = UniformLocationSpec(np.zeros(d))
        estimate_risk("uniform_min", spec, trials=2, seed=1, m=2, n=2)
        monkeypatch.setattr(protocols, "WORKING_VALUES", 200_000)
        tracemalloc.start()
        try:
            estimate_risk("uniform_min", spec, trials=trials, seed=1, m=m, n=n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * protocols.WORKING_VALUES

    def test_validation(self):
        spec = BoundedProductSpec(np.zeros(4), "two_point")
        with pytest.raises(InvalidArgumentError):
            estimate_risk("onebit", spec, trials=1, seed=0, m=4, n=1)
        with pytest.raises(InvalidArgumentError):
            estimate_risk("onebit", spec, trials=10, seed=0, m=4, n=2)
        with pytest.raises(InvalidArgumentError):
            estimate_risk("warp", spec, trials=10, seed=0, m=4, n=1)
        with pytest.raises(InvalidArgumentError):
            estimate_risk("single_mean", spec, trials=10, seed=0, m=2, n=4,
                          budget_bits=3)
        # single_mean sends one scalar, so a d = 4 spec has no estimate to score
        with pytest.raises(InvalidArgumentError, match="d = 1"):
            estimate_risk("single_mean", spec, trials=10, seed=0, m=1, n=4,
                          budget_bits=3)


@pytest.mark.parametrize("m,n", [(0, 3), (3, 0), (0, 0)])
def test_mean_family_needs_m_and_n_at_least_one(m, n):
    spec = GaussianLocationSpec(np.zeros(2), 1.0)
    for protocol in ("gauss_qavg", "uniform_min", "centralized"):
        with pytest.raises(InvalidArgumentError, match="m >= 1 and n >= 1"):
            estimate_risk(protocol, spec, trials=4, seed=0, m=m, n=n)
    with pytest.raises(InvalidArgumentError, match="m >= 1 and n >= 1"):
        estimate_risk("onebit", BoundedProductSpec(np.zeros(2)), trials=4,
                      seed=0, m=m, n=n)


@pytest.mark.parametrize("m,n", [(4, None), (None, 9), (2, 10)])
def test_design_family_rejects_a_mismatched_m_or_n(m, n):
    # the spec holds 3 designs of 10 rows
    spec = RegressionSpec(build_designs("identity", 3, 10, 2, seed=0), np.zeros(2))
    with pytest.raises(InvalidArgumentError, match="must match"):
        estimate_risk("regress_avg", spec, trials=4, seed=0, m=m, n=n)
    with pytest.raises(InvalidArgumentError, match="must match"):
        sample(spec, m=m, n=n)
    assert estimate_risk("regress_avg", spec, trials=4, seed=0, m=3, n=10).trials == 4


class TestIndependenceStructure:
    def permuted(self, x, keep):
        others = [i for i in range(len(x)) if i != keep]
        blocks = x.copy()
        blocks[others] = blocks[others[::-1]]
        return blocks

    def test_gauss_message_depends_only_on_own_data(self):
        spec = GaussianLocationSpec(np.full(3, 0.1), 1.0)
        x = mean_sample(spec, 6, 8, seed=3)
        out_a = gaussian_quantized_average(x, 1.0)
        out_b = gaussian_quantized_average(self.permuted(x, 2), 1.0)
        assert out_a.transcript.messages[2] == out_b.transcript.messages[2]

    def test_onebit_message_depends_only_on_own_data_and_stream(self):
        spec = BoundedProductSpec(np.zeros(4), "two_point")
        x = mean_sample(spec, 6, 1, seed=4)
        u = onebit_uniforms(99, 6, 4)
        out_a = onebit_bounded_mean(x, u)
        out_b = onebit_bounded_mean(self.permuted(x, 3), u)
        assert out_a.transcript.messages[3] == out_b.transcript.messages[3]

    def test_regression_message_depends_only_on_own_responses(self):
        designs = build_designs("orthogonal", 5, 12, 2, seed=6)
        spec = RegressionSpec(designs, np.array([0.2, -0.1]), 1.0)
        y = sample(spec, seed=2)
        out_a = regression_local_average(spec, y)
        y_perm = y.copy()
        y_perm[[0, 1, 3, 4]] = y_perm[[4, 3, 1, 0]]
        out_b = regression_local_average(spec, y_perm)
        assert out_a.transcript.messages[2] == out_b.transcript.messages[2]


class TestMonotonicityInN:
    @pytest.mark.parametrize("protocol,make_spec", [
        ("gauss_qavg", lambda: GaussianLocationSpec(np.array([0.3, -0.2]), 1.0)),
        ("uniform_min", lambda: UniformLocationSpec(np.array([0.3, -0.2]))),
    ])
    def test_mse_improves_with_four_times_n(self, protocol, make_spec):
        spec = make_spec()
        small = estimate_risk(protocol, spec, trials=1200, seed=7, m=8, n=8)
        large = estimate_risk(protocol, spec, trials=1200, seed=7, m=8, n=32)
        slack = 3 * (small.mse_stderr + large.mse_stderr)
        assert large.mse_mean <= small.mse_mean + slack

    def test_regression_mse_improves_with_four_times_n(self):
        theta = np.array([0.2, -0.4])
        reps = {}
        for n in (8, 32):
            designs = build_designs("orthogonal", 6, n, 2, seed=8)
            spec = RegressionSpec(designs, theta, 1.0)
            reps[n] = estimate_risk("regress_avg", spec, trials=1200, seed=9)
        slack = 3 * (reps[8].mse_stderr + reps[32].mse_stderr)
        assert reps[32].mse_mean <= reps[8].mse_mean + slack


class TestBudgetCompliance:
    def test_every_protocol_matches_its_accounting_formula(self):
        gspec = GaussianLocationSpec(np.array([0.1, -0.2, 0.3]), 0.8)
        rep = estimate_risk("gauss_qavg", gspec, trials=5, seed=0, m=7, n=9)
        assert rep.bits_mean == rep.bits_max == 7 * gauss_qavg_message_bits(3, 0.8, 7, 9)

        bspec = BoundedProductSpec(np.zeros(5), "two_point")
        rep = estimate_risk("onebit", bspec, trials=5, seed=0, m=9, n=1)
        assert rep.bits_mean == rep.bits_max == 9 * 5

        designs = build_designs("orthogonal", 6, 11, 2, seed=2)
        rspec = RegressionSpec(designs, np.array([0.1, 0.2]), 1.0)
        rep = estimate_risk("regress_avg", rspec, trials=5, seed=0)
        assert rep.bits_mean == rep.bits_max == 6 * regress_avg_message_bits(2, 6, 11)

        spec = BoundedProductSpec(np.array([0.3]), "two_point")
        rep = estimate_risk("single_mean", spec, trials=5, seed=0, m=1, n=64,
                            budget_bits=9)
        assert rep.bits_mean == rep.bits_max == 9
