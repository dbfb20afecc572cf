import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from distest import codec, families, protocols
from distest.codec import decode_improvement_message, transcript_total_bits
from distest.designs import build_designs
from distest.errors import InvalidArgumentError
from distest.families import (BoundedProductSpec, GaussianLocationSpec,
                              ProbitSpec, RegressionSpec, UniformLocationSpec,
                              draw_trials, machine_streams, sample)
from distest.protocols import (estimate_risk, gauss_qavg_message_bits,
                               probit_mle, regress_avg_message_bits, run_trial,
                               uniform_min_value_bits)


def mean_sample(spec, m, n, seed):
    return sample(spec, m=m, n=n, seed=seed)


def onebit_uniforms(seed, m, d):
    """The (m, d) uniforms estimate_risk hands the one-bit scheme's first trial."""
    gens = machine_streams(seed, m, families.TAG_PROTOCOL)
    return np.stack([g.random((1, d)) for g in gens], axis=1)[0]


def improved_mask(transcript, d, value_bits):
    """The (m, d) mask of the coordinates each machine of an interactive
    minimum sent, read from its improvement messages."""
    mask = np.zeros((len(transcript.messages), d), dtype=bool)
    mask[0] = True
    for i, msg in enumerate(transcript.messages[1:], 1):
        mask[i, list(decode_improvement_message(msg.payload, d, value_bits)[0])] = True
    return mask


def single_mean(x01, budget_bits):
    """run_trial of single_mean on one machine's [0, 1] sample x01, given as
    the bounded family's 2 x01 - 1."""
    spec = BoundedProductSpec(np.array([0.0]), "two_point")
    return run_trial("single_mean", spec, 2.0 * np.asarray(x01)[None, None] - 1.0,
                     budget_bits=budget_bits)


class TestSingleMachineQuantizedMean:
    def test_constant_samples(self):
        theta_hat, transcript, _ = single_mean(np.full(64, 0.5), 10)
        assert abs(theta_hat[0] - 0.5) <= 2**-10
        assert transcript_total_bits(transcript) == 10

    def test_one_bit_grid(self):
        theta_hat, _, _ = single_mean(np.array([0.1, 0.2]), 1)
        assert theta_hat[0] in (0.25, 0.75)

    def test_mse_bound_bernoulli_half(self):
        spec = BoundedProductSpec(np.array([0.0]), "two_point")  # maps to Bern(1/2)
        rep = estimate_risk("single_mean", spec, trials=2000, seed=8, m=1,
                            n=1024, budget_bits=10)
        assert rep.mse_mean <= 2 / 1024
        assert rep.bits_max == rep.bits_mean == 10

    def test_input_validation(self):
        with pytest.raises(InvalidArgumentError, match=r"must lie in \[-1, 1\]"):
            single_mean(np.array([-0.2, 0.5]), 4)
        with pytest.raises(InvalidArgumentError, match="at least one bit"):
            single_mean(np.array([0.2, 0.5]), 0)


class TestGaussianQuantizedAverage:
    def test_small_sigma_tracks_sample(self):
        spec = GaussianLocationSpec(np.full(3, 0.7), 1e-3)
        x = mean_sample(spec, 1, 1, seed=0)
        theta_hat, _, _ = run_trial("gauss_qavg", spec, x)
        cell = (2 + 2e-3) / 2 ** codec.bits_for_accuracy(
            -1 - 1e-3, 1 + 1e-3, 1e-6)
        assert np.all(np.abs(theta_hat - x[0, :, 0]) <= cell)

    def test_transcript_accounting(self):
        d, sigma, m, n = 4, 1.0, 16, 64
        spec = GaussianLocationSpec(np.full(d, 0.2), sigma)
        _, transcript, _ = run_trial("gauss_qavg", spec, mean_sample(spec, m, n, 3))
        assert len(transcript.messages) == m
        per_machine = gauss_qavg_message_bits(d, sigma, m, n)
        assert per_machine == 48
        assert all(msg.payload.length == per_machine
                   for msg in transcript.messages)
        assert transcript_total_bits(transcript) == m * per_machine

    def test_risk_near_centralized_rate(self):
        spec = GaussianLocationSpec(np.array([0.3, -0.2, 0.1, 0.4]), 1.0)
        rep = estimate_risk("gauss_qavg", spec, trials=1500, seed=5, m=16, n=64)
        assert rep.mse_mean / (4 / 1024) == pytest.approx(1.0, abs=0.25)


class TestOnebit:
    def test_degenerate_all_ones(self):
        spec = BoundedProductSpec(np.ones(3), "two_point")
        theta_hat, transcript, _ = run_trial("onebit", spec, mean_sample(spec, 5, 1, seed=0),
                                             onebit_uniforms(12, 5, 3))
        assert np.array_equal(theta_hat, np.ones(3))
        assert transcript_total_bits(transcript) == 5 * 3

    def test_exact_variance_at_zero(self):
        spec = BoundedProductSpec(np.zeros(8), "two_point")
        rep = estimate_risk("onebit", spec, trials=4000, seed=2, m=100, n=1)
        assert rep.mse_mean == pytest.approx(0.08, rel=0.05)
        assert rep.bits_mean == rep.bits_max == 800

    def test_unbiased(self):
        theta = np.array([-0.6, 0.0, 0.3, 0.8])
        spec = BoundedProductSpec(theta, "two_point")
        m, trials = 40, 3000
        hats = next(protocols.run_chunks("onebit", spec, 1, [trials], machine_streams(31, m),
                                         machine_streams(31, m, families.TAG_PROTOCOL)))[0]
        stderr = hats.std(axis=0, ddof=1) / math.sqrt(trials)
        assert np.all(np.abs(hats.mean(axis=0) - theta) <= 4 * stderr)

    def test_requires_unit_range_and_single_observation(self):
        with pytest.raises(InvalidArgumentError, match=r"must lie in \[-1, 1\]"):
            run_trial("onebit", BoundedProductSpec(np.zeros(1)), np.full((2, 1, 1), 3.0),
                      onebit_uniforms(0, 2, 1))
        spec = BoundedProductSpec(np.zeros(2), "two_point")
        with pytest.raises(InvalidArgumentError, match="needs n = 1"):
            run_trial("onebit", spec, mean_sample(spec, 2, 3, 0), onebit_uniforms(0, 2, 2))

    @pytest.mark.parametrize("shape", [(3,), (1, 3), (3, 4), (4, 3, 1)])
    def test_rejects_uniforms_not_shaped_machines_by_coordinates(self, shape):
        # a (d,) or (1, d) array would broadcast, giving every machine one uniform
        spec = BoundedProductSpec(np.zeros(3), "two_point")
        x = mean_sample(spec, 4, 1, seed=0)
        with pytest.raises(InvalidArgumentError, match="shape"):
            run_trial("onebit", spec, x, np.full(shape, 0.5))
        assert transcript_total_bits(run_trial("onebit", spec, x, np.full((4, 3), 0.5))[1]) == 12

    @pytest.mark.parametrize("law", ["two_point", "uniform_interval"])
    @pytest.mark.parametrize("u", [1.0, math.nan, -1e-300, math.inf])
    def test_refuses_uniforms_outside_the_unit_interval(self, law, u):
        # u = 1 would make every two-point machine send 0 whatever it saw
        spec = BoundedProductSpec(np.ones(2), law)
        uniforms = np.full((3, 2), 0.5)
        uniforms[1, 0] = u
        with pytest.raises(InvalidArgumentError, match=r"^protocol uniforms must lie in \[0, 1\)$"):
            run_trial("onebit", spec, np.ones((3, 2, 1)), uniforms)

    def test_uniforms_are_needed_only_off_two_point_data(self):
        spec = BoundedProductSpec(np.array([-0.5, 0.2, 0.9]), "two_point")
        x = mean_sample(spec, 6, 1, seed=4)
        theta_hat, transcript, _ = run_trial("onebit", spec, x)
        want_theta, want = run_trial("onebit", spec, x, onebit_uniforms(4, 6, 3))[:2]
        assert np.array_equal(theta_hat, want_theta)
        assert [m.payload for m in transcript.messages] == [m.payload for m in want.messages]
        # x > 0 is the bit only on +/-1 data
        with pytest.raises(InvalidArgumentError, match="^one-bit data without uniforms"):
            run_trial("onebit", spec, np.zeros((6, 3, 1)))
        spec = BoundedProductSpec(spec.theta, "uniform_interval")
        with pytest.raises(InvalidArgumentError, match="shape"):
            run_trial("onebit", spec, mean_sample(spec, 6, 1, seed=4))

    def test_two_point_bits_are_the_sign_for_every_u(self):
        # theta = +/-1 puts all mass on one point
        spec = BoundedProductSpec(np.array([-1.0, -0.4, 0.0, 0.7, 1.0]), "two_point")
        row = np.empty((50, 5, 1))
        spec.fill(0, np.random.default_rng(9), row)
        bits = protocols._onebit_local(spec, 0, row.copy(), None)
        assert not bits[:, 0].any() and bits[:, 4].all()
        for u in (0.0, np.nextafter(1.0, 0.0)):
            assert np.array_equal(
                protocols._onebit_local(spec, 0, row.copy(), np.full((50, 5), u)), bits)

    @pytest.mark.parametrize("law,protocol_streams", [("two_point", 0), ("uniform_interval", 7)])
    def test_protocol_streams_are_built_only_where_read(self, monkeypatch, law,
                                                        protocol_streams):
        built = []

        def recording(seed, m, tag=families.TAG_DATA):
            gens = machine_streams(seed, m, tag)
            built.extend([tag] * len(gens))
            return gens

        monkeypatch.setattr(protocols, "machine_streams", recording)
        estimate_risk("onebit", BoundedProductSpec(np.zeros(2), law), trials=5, seed=3, m=7, n=1)
        assert built.count(families.TAG_PROTOCOL) == protocol_streams
        assert built.count(families.TAG_DATA) == 7


class TestUniformInteractiveMin:
    def test_single_machine_transcript(self):
        spec = UniformLocationSpec(np.array([0.1, -0.2, 0.5]))
        _, transcript, _ = run_trial("uniform_min", spec, mean_sample(spec, 1, 16, 7))
        assert len(transcript.messages) == 1
        assert transcript.messages[0].payload.length == (
            3 * uniform_min_value_bits(1, 16))

    def test_state_matches_global_min_oracle(self):
        spec = UniformLocationSpec(np.array([0.2, -0.3, 0.0]))
        m, n = 8, 16
        cell = 4.0 / 2 ** uniform_min_value_bits(m, n)
        for seed in range(30):
            x = mean_sample(spec, m, n, seed)
            gmin = x.min(axis=(0, 2))
            s = run_trial("uniform_min", spec, x)[0] - 1.0
            assert np.all(s <= gmin + 1e-15)
            assert np.all(s >= gmin - cell - 1e-15)

    def test_bit_accounting_matches_improvement_lists(self):
        spec = UniformLocationSpec(np.array([0.2, -0.3, 0.0]))
        m, n, d = 8, 16, 3
        vb = uniform_min_value_bits(m, n)
        for seed in range(10):
            _, transcript, _ = run_trial("uniform_min", spec, mean_sample(spec, m, n, seed))
            improved = improved_mask(transcript, d, vb)
            expected = d * vb + int(improved[1:].sum()) * (codec.ceil_log2(d) + vb)
            assert transcript_total_bits(transcript) == expected

    def test_improvement_frequency_is_one_over_i(self):
        # exchangeability oracle: coordinate j improves at machine i w.p. 1/i
        spec = UniformLocationSpec(np.array([0.2, -0.3, 0.0]))
        m, n, trials = 8, 16, 3000
        gens = machine_streams(5, m)
        blocks = draw_trials(spec, gens, n, trials)
        freq = np.zeros((m, 3))
        vb = uniform_min_value_bits(m, n)
        for t in range(trials):
            freq += improved_mask(run_trial("uniform_min", spec, blocks[t])[1], 3, vb)
        freq /= trials
        for i in range(1, m):
            p = 1.0 / (i + 1)
            stderr = math.sqrt(p * (1 - p) / trials)
            assert np.all(np.abs(freq[i] - p) <= 4 * stderr)


class TestRegressionLocalAverage:
    def test_noiseless_recovery(self):
        designs = build_designs("orthogonal", 4, 20, 3, seed=1)
        spec = RegressionSpec(designs, np.array([0.5, -0.5, 0.25]), 0.0)
        theta_hat, _, _ = run_trial("regress_avg", spec, sample(spec, seed=0))
        cell = 2.0 / 2 ** codec.bits_for_accuracy(-1, 1, 1 / 80)
        assert float((theta_hat - spec.theta) @ (theta_hat - spec.theta)) <= 3 * cell**2

    def test_per_machine_bits(self):
        assert regress_avg_message_bits(3, 10, 30) == 30
        designs = build_designs("identity", 10, 30, 3, seed=0)
        spec = RegressionSpec(designs, np.zeros(3), 1.0)
        _, transcript, _ = run_trial("regress_avg", spec, sample(spec, seed=1))
        assert all(msg.payload.length == 30 for msg in transcript.messages)

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
            hats[t] = run_trial("probit_avg", spec, blocks[t])[0]
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
        est, flagged = spec.pooled(sample(spec, seed=0)[None])
        assert np.allclose(est[0], spec.theta, atol=1e-10) and not flagged[0]


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
        holds one chunk's (m, k, d) bool messages and a few (k, d) float64
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


class TestRunTrial:
    """run_trial looks its protocol up and applies its run rules with the
    helper estimate_risk uses, so both refuse a run with the same text."""

    @pytest.mark.parametrize("protocol,spec,m,n,budget_bits,text", [
        ("warp", BoundedProductSpec(np.zeros(2)), 3, 1, None, "unknown protocol id 'warp'"),
        ("onebit", BoundedProductSpec(np.zeros(2)), 3, 2, None, "the one-bit scheme needs n = 1"),
        ("single_mean", BoundedProductSpec(np.zeros(1)), 2, 4, 3,
         "single_mean is a single-machine protocol"),
        ("single_mean", BoundedProductSpec(np.zeros(1)), 1, 4, 0,
         "budget must be at least one bit"),
        ("onebit", GaussianLocationSpec(np.zeros(2)), 3, 1, None,
         "protocol 'onebit' does not run on GaussianLocationSpec"),
        ("gauss_qavg", GaussianLocationSpec(np.zeros(2)), 0, 3, None, "need m >= 1 and n >= 1"),
    ], ids=["unknown", "check", "single_mean_m", "budget", "accepts", "run_shape"])
    def test_refusals_match_estimate_risk(self, protocol, spec, m, n, budget_bits, text):
        block = np.zeros((m, spec.d, n))
        with pytest.raises(InvalidArgumentError, match=f"^{text}$"):
            run_trial(protocol, spec, block, np.zeros((m, spec.d)), budget_bits)
        with pytest.raises(InvalidArgumentError, match=f"^{text}$"):
            estimate_risk(protocol, spec, trials=4, seed=0, m=m, n=n, budget_bits=budget_bits)

    def test_centralized_sends_no_transcript(self):
        spec = GaussianLocationSpec(np.zeros(2))
        with pytest.raises(InvalidArgumentError,
                           match="^protocol 'centralized' sends no transcript$"):
            run_trial("centralized", spec, mean_sample(spec, 3, 4, seed=0))

    @pytest.mark.parametrize("spec,shape", [
        (GaussianLocationSpec(np.zeros(3)), (2, 3)),
        (GaussianLocationSpec(np.zeros(3)), (2, 2, 4)),
        (GaussianLocationSpec(np.zeros(3)), ()),
        (RegressionSpec(build_designs("identity", 3, 10, 2, seed=0), np.zeros(2)), (3, 9)),
        (RegressionSpec(build_designs("identity", 3, 10, 2, seed=0), np.zeros(2)), (3, 2, 10)),
    ], ids=["mean-2d", "mean-wrong-d", "scalar", "design-wrong-n", "design-3d"])
    def test_block_shape_is_checked_against_the_spec(self, spec, shape):
        protocol = "regress_avg" if isinstance(spec, RegressionSpec) else "gauss_qavg"
        with pytest.raises(InvalidArgumentError, match="blocks for .*Spec; got shape"):
            run_trial(protocol, spec, np.zeros(shape))

    def test_the_caller_block_is_not_written(self):
        # the single_mean local step maps its row in place; run_trial copies
        spec = BoundedProductSpec(np.array([0.4]), "uniform_interval")
        block = mean_sample(spec, 1, 16, seed=2)
        before = block.copy()
        run_trial("single_mean", spec, block, budget_bits=6)
        assert np.array_equal(block, before)


def test_a_bad_grid_fails_before_any_draw(monkeypatch):
    """The run's grid is resolved before the first draw, so a budget that no
    grid can hold is refused with no machine drawn."""
    fills = []
    fill = BoundedProductSpec.fill

    def counting(self, *args):
        fills.append(args[0])
        return fill(self, *args)

    monkeypatch.setattr(BoundedProductSpec, "fill", counting)
    spec = BoundedProductSpec(np.array([0.2]), "two_point")
    with pytest.raises(InvalidArgumentError, match="^bit count must be <= 62$"):
        estimate_risk("single_mean", spec, trials=4, seed=0, m=1, n=8, budget_bits=63)
    assert fills == []
    estimate_risk("single_mean", spec, trials=4, seed=0, m=1, n=8, budget_bits=62)
    assert fills == [0]


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


ONEBIT_SPEC = BoundedProductSpec(np.zeros(2))
QMEAN_SPEC = BoundedProductSpec(np.zeros(1))


def onebit_risk(trials=50, seed=1, m=4, n=1):
    return estimate_risk("onebit", ONEBIT_SPEC, trials, seed, m=m, n=n)


@pytest.mark.parametrize("run,text", [
    (lambda: onebit_risk(seed=1.7), "seed must be an integer, not 1.7"),
    (lambda: onebit_risk(seed=True), "seed must be an integer, not True"),
    (lambda: sample(ONEBIT_SPEC, 4, 1, seed=2.9), "seed must be an integer, not 2.9"),
    (lambda: machine_streams(np.float64(3.0), 2), "seed must be an integer, not "),
    (lambda: onebit_risk(trials=50.0), "trials must be an integer, not 50.0"),
    (lambda: onebit_risk(m=4.0), "m must be an integer, not 4.0"),
    (lambda: onebit_risk(n=True), "n must be an integer, not True"),
    (lambda: sample(ONEBIT_SPEC, 4, 1.0), "n must be an integer, not 1.0"),
    (lambda: estimate_risk("single_mean", QMEAN_SPEC, 50, 1, m=1, n=1, budget_bits=6.5),
     "budget_bits must be an integer, not 6.5"),
    (lambda: run_trial("single_mean", QMEAN_SPEC, np.zeros((1, 1, 1)), budget_bits=6.5),
     "budget_bits must be an integer, not 6.5"),
], ids=["seed", "seed-bool", "sample-seed", "streams-seed", "trials", "m", "n-bool",
        "sample-n", "budget_bits", "run_trial-budget_bits"])
def test_counts_and_seed_must_be_integers(run, text):
    """A seed, trial count, m, n or budget that is not an integer is refused
    where it enters, not truncated or left to fail inside numpy."""
    with pytest.raises(InvalidArgumentError, match=f"^{text}"):
        run()


def test_numpy_integers_are_integers():
    got = onebit_risk(np.int64(50), np.uint8(1), np.int32(4), np.int64(1))
    assert got == onebit_risk()
    assert np.array_equal(sample(ONEBIT_SPEC, np.int64(4), 1, seed=np.int16(2)),
                          sample(ONEBIT_SPEC, 4, 1, seed=2))


@pytest.mark.parametrize("run", [lambda: sample(object(), 2, 1),
                                 lambda: estimate_risk("onebit", object(), 10, 1, m=2, n=1),
                                 lambda: run_trial("onebit", object(), np.zeros((2, 1, 1)))],
                         ids=["sample", "estimate_risk", "run_trial"])
def test_a_non_spec_is_refused_as_one(run):
    with pytest.raises(InvalidArgumentError, match="^not a family spec: object$"):
        run()


def test_estimate_risk_takes_the_run_rules_from_the_table(monkeypatch):
    """A throwaway id registered in PROTOCOLS runs with its entry's check
    and is scored against its entry's target, so estimate_risk needs no
    protocol's name."""
    spec = BoundedProductSpec(np.array([0.4, -0.2]), "two_point")
    seen = []

    def check(spec, m, n, budget_bits):
        seen.append((spec, m, n, budget_bits))
        if budget_bits is None:
            raise InvalidArgumentError("throwaway needs budget_bits")

    rec = dataclasses.replace(protocols.PROTOCOLS["centralized"], check=check,
                              target=lambda theta: theta + 10.0)
    monkeypatch.setitem(protocols.PROTOCOLS, "throwaway", rec)
    with pytest.raises(InvalidArgumentError, match="throwaway needs budget_bits"):
        estimate_risk("throwaway", spec, trials=10, seed=1, m=3, n=4)
    rep = estimate_risk("throwaway", spec, trials=10, seed=1, m=3, n=4, budget_bits=2)
    assert seen == [(spec, 3, 4, None), (spec, 3, 4, 2)]
    theta_hat, _, _ = next(protocols.run_chunks("centralized", spec, 4, [10],
                                                machine_streams(1, 3)))
    sqerr = ((theta_hat - (spec.theta + 10.0)) ** 2).sum(axis=1)
    assert rep.mse_mean == pytest.approx(float(sqerr.mean()), rel=1e-12)
    assert rep.mse_mean > 50.0


class TestIndependenceStructure:
    def permuted(self, x, keep):
        others = [i for i in range(len(x)) if i != keep]
        blocks = x.copy()
        blocks[others] = blocks[others[::-1]]
        return blocks

    def test_gauss_message_depends_only_on_own_data(self):
        spec = GaussianLocationSpec(np.full(3, 0.1), 1.0)
        x = mean_sample(spec, 6, 8, seed=3)
        _, out_a, _ = run_trial("gauss_qavg", spec, x)
        _, out_b, _ = run_trial("gauss_qavg", spec, self.permuted(x, 2))
        assert out_a.messages[2] == out_b.messages[2]

    def test_onebit_message_depends_only_on_own_data_and_stream(self):
        spec = BoundedProductSpec(np.zeros(4), "two_point")
        x = mean_sample(spec, 6, 1, seed=4)
        u = onebit_uniforms(99, 6, 4)
        _, out_a, _ = run_trial("onebit", spec, x, u)
        _, out_b, _ = run_trial("onebit", spec, self.permuted(x, 3), u)
        assert out_a.messages[3] == out_b.messages[3]

    def test_regression_message_depends_only_on_own_responses(self):
        designs = build_designs("orthogonal", 5, 12, 2, seed=6)
        spec = RegressionSpec(designs, np.array([0.2, -0.1]), 1.0)
        y = sample(spec, seed=2)
        _, out_a, _ = run_trial("regress_avg", spec, y)
        y_perm = y.copy()
        y_perm[[0, 1, 3, 4]] = y_perm[[4, 3, 1, 0]]
        _, out_b, _ = run_trial("regress_avg", spec, y_perm)
        assert out_a.messages[2] == out_b.messages[2]


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
