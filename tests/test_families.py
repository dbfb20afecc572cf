import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.stats import norm

from distest.errors import (DegenerateDesignError, InvalidArgumentError,
                            ReductionInfeasibleError)
from distest import families
from distest.families import (TAG_PROTOCOL, BoundedProductSpec, DesignSpec,
                              GaussianLocationSpec, ProbitSpec, RegressionSpec,
                              UniformLocationSpec, design_eigenbounds,
                              draw_trials, machine_streams, min_last_axis,
                              reduce_mean_to_regression,
                              reduce_regression_to_probit, sample)
from distest.protocols import run_trial


# every family, on two machines (the design families' n is their own, 4)
CHUNK_DESIGNS = (np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]]),) * 2
CHUNK_SPECS = {
    "gaussian": GaussianLocationSpec(np.array([0.0]), 1.0),
    "two_point": BoundedProductSpec(np.array([0.3, -0.5]), "two_point"),
    "uniform_interval": BoundedProductSpec(np.array([0.3, -0.5]), "uniform_interval"),
    "uniform": UniformLocationSpec(np.array([0.2, -0.1])),
    "regression": RegressionSpec(CHUNK_DESIGNS, np.array([0.3, -0.2]), 0.8),
    "regression_noiseless": RegressionSpec(CHUNK_DESIGNS, np.array([0.3, -0.2]), 0.0),
    "probit": ProbitSpec(CHUNK_DESIGNS, np.array([0.3, -0.2])),
}


def out_of_place_row(spec, i, gen, shape):
    """Machine i's row as the sampler computed it before it filled rows in
    place: the reference for the in-place arithmetic."""
    theta = spec.theta[:, None]
    if isinstance(spec, GaussianLocationSpec):
        return theta + spec.sigma * gen.standard_normal(shape)
    if isinstance(spec, BoundedProductSpec):
        u = gen.random(shape)
        if spec.law == "two_point":
            return np.where(u < (1.0 + theta) / 2.0, 1.0, -1.0)
        return theta + (1.0 - np.abs(theta)) * (2.0 * u - 1.0)
    if isinstance(spec, UniformLocationSpec):
        return theta + (2.0 * gen.random(shape) - 1.0)
    mean = spec.designs[i] @ spec.theta
    if isinstance(spec, RegressionSpec):
        noise = spec.sigma * gen.standard_normal(shape) if spec.sigma > 0 else 0.0
        return np.broadcast_to(mean + noise, shape)
    return (mean + gen.standard_normal(shape) >= 0).astype(float)


# theta holds a -0.0 entry, and every entry in the last noiseless regression;
# the test compares signs too, so a -0.0 written for +0.0 fails it
SIGNED_ZERO_DESIGNS = (np.array([[1.0, 0.5], [0.0, 2.0], [1.0, -1.0]]),) * 3
SIGNED_ZERO_SPECS = {
    "gaussian": GaussianLocationSpec(np.array([0.4, -0.0, -1.0]), 0.7),
    "two_point": BoundedProductSpec(np.array([0.4, -0.0, -1.0]), "two_point"),
    "uniform_interval": BoundedProductSpec(np.array([0.4, -0.0, -1.0]), "uniform_interval"),
    "uniform": UniformLocationSpec(np.array([0.4, -0.0, -1.0])),
    "regression": RegressionSpec(SIGNED_ZERO_DESIGNS, np.array([0.3, -0.0]), 0.8),
    "regression_noiseless": RegressionSpec(SIGNED_ZERO_DESIGNS, np.array([0.3, -0.0]), 0.0),
    "regression_noiseless_zero_theta": RegressionSpec(
        SIGNED_ZERO_DESIGNS[:1], np.array([-0.0, -0.0]), 0.0),
    "probit": ProbitSpec(SIGNED_ZERO_DESIGNS, np.array([0.3, -0.0])),
}


@pytest.mark.parametrize("split", [(12,), (5, 7)], ids=["whole", "two_chunks"])
@pytest.mark.parametrize("spec", SIGNED_ZERO_SPECS.values(), ids=SIGNED_ZERO_SPECS.keys())
def test_in_place_draws_match_out_of_place_reference(spec, split):
    m = spec.m if isinstance(spec, DesignSpec) else 3
    n = 4
    gens = machine_streams(21, m)
    got = np.concatenate([draw_trials(spec, gens, n, k) for k in split])
    shape = (sum(split), spec.n) if isinstance(spec, DesignSpec) else (sum(split), spec.d, n)
    want = np.stack([out_of_place_row(spec, i, gen, shape)
                     for i, gen in enumerate(machine_streams(21, m))], axis=1)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))   # -0.0 vs +0.0


@pytest.mark.parametrize("spec", [GaussianLocationSpec(np.array([0.2, -0.3]), 1.5),
                                  BoundedProductSpec(np.array([0.2, -0.3]), "two_point"),
                                  BoundedProductSpec(np.array([0.2, -0.3]), "uniform_interval"),
                                  UniformLocationSpec(np.array([0.2, -0.3]))],
                         ids=["gaussian", "two_point", "uniform_interval", "uniform"])
def test_one_machine_chunk_allocates_only_its_blocks(spec):
    # at m = 1 one machine's row is the whole chunk, so any temporary of the
    # sampler's arithmetic would be chunk-sized
    gens = machine_streams(2, 1)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        blocks = draw_trials(spec, gens, 1000, 125)        # 2 MB of float64
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * blocks.nbytes + 64 * 1024


class TestSampling:
    def test_determinism_bit_identical(self):
        spec = GaussianLocationSpec(np.array([0.1, -0.4]), 0.7)
        a = sample(spec, m=3, n=5, seed=99)
        b = sample(spec, m=3, n=5, seed=99)
        assert np.array_equal(a, b)
        c = sample(spec, m=3, n=5, seed=100)
        assert not np.array_equal(a, c)

    def test_machine_data_invariant_to_m(self):
        spec = UniformLocationSpec(np.array([0.2]))
        small = sample(spec, m=2, n=6, seed=5)
        big = sample(spec, m=7, n=6, seed=5)
        assert np.array_equal(small, big[:2])

    @pytest.mark.parametrize("spec", CHUNK_SPECS.values(), ids=CHUNK_SPECS.keys())
    def test_chunked_draws_match_one_shot(self, spec):
        whole = draw_trials(spec, machine_streams(3, 2), 4, 10)
        gens = machine_streams(3, 2)
        parts = np.concatenate([draw_trials(spec, gens, 4, 6),
                                draw_trials(spec, gens, 4, 4)])
        assert np.array_equal(whole, parts)

    @pytest.mark.parametrize("spec", CHUNK_SPECS.values(), ids=CHUNK_SPECS.keys())
    def test_each_machine_draws_into_one_contiguous_row(self, spec):
        # draw_trials is the (trials, m, ...) view of one machine-major buffer,
        # so every machine's (trials, ...) block is C-contiguous in memory
        m = spec.m if isinstance(spec, DesignSpec) else 3
        blocks = draw_trials(spec, machine_streams(4, m), 4, 5)
        assert blocks.shape[:2] == (5, m)
        assert all(blocks[:, i].flags.c_contiguous for i in range(m))
        assert blocks.base is not None and blocks.base.shape[0] == m

    def test_gaussian_lln_smoke(self):
        spec = GaussianLocationSpec(np.array([0.0]), 1.0)
        assert sample(spec, m=2, n=3, seed=1).shape == (2, 1, 3)
        big = draw_trials(spec, machine_streams(1, 4), 5000, 1)[0]
        assert abs(big.mean()) < 0.05

    def test_two_point_degenerate(self):
        spec = BoundedProductSpec(np.array([1.0, -1.0]), "two_point")
        x = sample(spec, m=3, n=9, seed=2)
        assert np.all(x[:, 0, :] == 1.0)
        assert np.all(x[:, 1, :] == -1.0)

    def test_two_point_hoeffding(self):
        # |empirical mean - theta| <= 4/sqrt(N), Hoeffding at prob >= 0.99
        n_total = 10000
        for seed, theta in enumerate([-0.7, -0.2, 0.0, 0.5, 0.9]):
            spec = BoundedProductSpec(np.array([theta]), "two_point")
            x = sample(spec, m=1, n=n_total, seed=seed)
            assert abs(x.mean() - theta) <= 4 / math.sqrt(n_total)

    def test_uniform_interval_mean_and_support(self):
        theta = np.array([0.6, -0.3])
        spec = BoundedProductSpec(theta, "uniform_interval")
        blocks = draw_trials(spec, machine_streams(8, 1), 50000, 1)[0, 0]
        assert np.all(np.abs(blocks) <= 1.0)
        w = 1 - np.abs(theta)
        assert np.allclose(blocks.mean(axis=1), theta, atol=4 * w / math.sqrt(50000))

    def test_uniform_location_extremes(self):
        # order-statistics oracle: E[min + 1] = 2/(N + 1) for N uniforms
        spec = UniformLocationSpec(np.array([0.0]))
        data = sample(spec, m=10, n=10000, seed=4).ravel()
        assert data.min() + 1.0 < 1e-3
        assert 1.0 - data.max() < 1e-3

    def test_spec_validation(self):
        with pytest.raises(InvalidArgumentError):
            GaussianLocationSpec(np.array([1.5]), 1.0)
        with pytest.raises(InvalidArgumentError):
            GaussianLocationSpec(np.array([0.0]), 0.0)
        with pytest.raises(InvalidArgumentError):
            BoundedProductSpec(np.array([0.0]), "triangle")
        with pytest.raises(InvalidArgumentError):
            sample(GaussianLocationSpec(np.array([0.0]), 1.0), m=0, n=3, seed=0)

    def test_sample_set_shape_guard(self):
        # a mean-family trial is (m, d, n) blocks, never (m, n)
        spec = BoundedProductSpec(np.zeros(3), "two_point")
        uniforms = np.stack([g.random((1, 3)) for g in machine_streams(0, 2, TAG_PROTOCOL)],
                            axis=1)[0]
        for protocol in ("onebit", "uniform_min"):
            with pytest.raises(InvalidArgumentError, match="blocks"):
                run_trial(protocol, spec, np.zeros((2, 3)), uniforms)
            assert run_trial(protocol, spec, np.zeros((2, 3, 1)), uniforms)[0].shape == (3,)

    def test_draw_trials_refuses_a_non_spec(self):
        # the one family check, in row_shape, and not a bare AttributeError
        with pytest.raises(InvalidArgumentError, match="^not a family spec: object$"):
            draw_trials(object(), machine_streams(0, 2), 1, 3)


def test_theta_within_the_tolerance_is_held_on_the_interval():
    # every other theta keeps its bytes, -0.0 included
    theta = (1.0 + 1e-13, -1.0 - 1e-13, -0.0, 0.3)
    want = np.array([1.0, -1.0, -0.0, 0.3]).tobytes()
    for spec in (BoundedProductSpec(theta, "uniform_interval"), UniformLocationSpec(theta),
                 GaussianLocationSpec(theta)):
        assert spec.theta.tobytes() == want
    assert ProbitSpec(CHUNK_DESIGNS, theta[:2]).theta.tolist() == [1.0, -1.0]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_theta_and_sigma_rejected(value):
    designs = [np.eye(2)]
    bad_design = np.array([[1.0, 0.0], [0.0, value], [1.0, 1.0]])
    for build in (lambda: BoundedProductSpec(np.array([0.1, value])),
                  lambda: UniformLocationSpec(value),
                  lambda: GaussianLocationSpec(np.array([0.1]), sigma=value),
                  lambda: RegressionSpec(designs, np.array([value, 0.1])),
                  lambda: RegressionSpec(designs, np.array([0.1, 0.1]), sigma=value),
                  lambda: ProbitSpec(designs, value),
                  lambda: RegressionSpec([bad_design], np.zeros(2)),
                  lambda: ProbitSpec([bad_design], np.zeros(2))):
        with pytest.raises(InvalidArgumentError):
            build()


class TestDesignEigenbounds:
    def test_identity_design(self):
        n = 4
        a = math.sqrt(n) * np.eye(n)
        assert design_eigenbounds([a, a]) == (1.0, 1.0)

    def test_diagonal_design(self):
        n = 2
        a = np.diag([math.sqrt(2 * n), math.sqrt(n / 2)])
        lmax2, lmin2 = design_eigenbounds([a])
        assert lmax2 == pytest.approx(2.0)
        assert lmin2 == pytest.approx(0.5)

    def test_random_designs_vs_dense_oracle(self):
        rng = np.random.default_rng(11)
        designs = [rng.standard_normal((50, 3)) for _ in range(4)]
        lmax2, lmin2 = design_eigenbounds(designs)
        # independent dense eigensolver on each Gram
        oracle_max = max(scipy.linalg.eigh(a.T @ a / 50, eigvals_only=True)[-1]
                         for a in designs)
        oracle_min = min(scipy.linalg.eigh(a.T @ a / 50, eigvals_only=True)[0]
                         for a in designs)
        assert lmax2 == pytest.approx(oracle_max, abs=1e-8)
        assert lmin2 == pytest.approx(oracle_min, abs=1e-8)
        assert lmin2 <= lmax2

    def test_overflowing_gram_is_rejected(self):
        # finite entries whose Gram overflows; a warning would fail the test
        huge = np.array([[1e200, 0.0], [0.0, 1e200], [1.0, 1.0]])
        with pytest.raises(InvalidArgumentError, match="overflows"):
            design_eigenbounds([huge])
        with pytest.raises(InvalidArgumentError, match="overflows"):
            RegressionSpec((huge,), np.zeros(2), 1.0)
        with pytest.raises(InvalidArgumentError, match="overflows"):
            ProbitSpec((huge,), np.zeros(2))

    @pytest.mark.parametrize("first", [np.ones(3), np.ones((2, 3, 2))], ids=["1d", "3d"])
    def test_design_that_is_not_2d_is_rejected(self, first):
        for designs in ((first,), (first, np.eye(2))):
            with pytest.raises(InvalidArgumentError, match="share one"):
                ProbitSpec(designs, 0.1)
            with pytest.raises(InvalidArgumentError, match="share one"):
                RegressionSpec(designs, 0.1, 1.0)

    def test_rank_deficient(self):
        a = np.ones((5, 2))
        with pytest.raises(DegenerateDesignError):
            design_eigenbounds([a])
        with pytest.raises(DegenerateDesignError):
            RegressionSpec((np.ones((1, 2)),), np.zeros(2), 1.0)


class TestMeanToRegressionReduction:
    def test_zero_covariance_case(self):
        # A = sqrt(n) I makes the added noise vanish identically
        n = 3
        a = math.sqrt(n) * np.eye(n)
        x = np.array([0.3, -0.1, 0.9])
        y = reduce_mean_to_regression(x, a, sigma=2.0, lambda_max2=1.0,
                                      rng=np.random.default_rng(0))
        assert np.allclose(y, a @ x, atol=1e-12)

    def test_two_by_two_eigenvalues(self):
        # d=1, n=2, A=(1,1)^T: Sigma has eigenvalues {1, 0}
        a = np.array([[1.0], [1.0]])
        lmax2 = design_eigenbounds([a])[0]
        assert lmax2 == pytest.approx(1.0)
        cov = 1.0 * np.eye(2) - (1.0 / (lmax2 * 2)) * (a @ a.T)
        eig = np.linalg.eigvalsh(cov)
        assert eig == pytest.approx([0.0, 1.0], abs=1e-12)
        y = reduce_mean_to_regression(np.array([0.5]), a, 1.0, lmax2, np.random.default_rng(3))
        assert y.shape == (2,)

    def test_marginal_law_matches(self):
        # over 1e5 seeded draws the output matches N(A theta, sigma^2 I)
        rng = np.random.default_rng(123)
        design = np.array([[1.0, 0.2], [0.1, 1.4], [0.5, -0.3]])
        lmax2, _ = design_eigenbounds([design])
        theta = np.array([0.3, -0.6])
        sigma, k, n = 1.0, 100000, 3
        x = theta + math.sqrt(sigma**2 / (lmax2 * n)) * rng.standard_normal((k, 2))
        y = reduce_mean_to_regression(x, design, sigma, lmax2, rng)
        stderr_mean = sigma / math.sqrt(k)
        assert np.all(np.abs(y.mean(axis=0) - design @ theta) <= 3 * stderr_mean)
        emp_cov = np.cov(y.T)
        stderr_cov = sigma**2 * math.sqrt(2.0 / k)
        assert np.all(np.abs(np.diag(emp_cov) - sigma**2) <= 3 * stderr_cov)
        off = emp_cov[np.triu_indices(n, k=1)]
        assert np.all(np.abs(off) <= 3 * sigma**2 / math.sqrt(k))

    def test_infeasible_lambda_rejected(self):
        a = np.array([[1.0], [1.0]])
        with pytest.raises(ReductionInfeasibleError):
            reduce_mean_to_regression(np.array([0.0]), a, 1.0, lambda_max2=0.5,
                                      rng=np.random.default_rng(0))


class TestProbitReduction:
    def test_thresholding_includes_zero(self):
        assert list(reduce_regression_to_probit([0.0, -0.1, 3.2])) == [1, 0, 1]

    def test_symmetry_at_zero(self):
        rng = np.random.default_rng(8)
        z = reduce_regression_to_probit(rng.standard_normal(100000))
        assert abs(z.mean() - 0.5) <= 3 * 0.5 / math.sqrt(100000)

    def test_matches_normal_cdf(self):
        rng = np.random.default_rng(9)
        n = 100000
        y = 0.5 + rng.standard_normal(n)  # a_k = 1, theta = 0.5, sigma = 1
        z = reduce_regression_to_probit(y)
        p = norm.cdf(0.5)
        assert abs(z.mean() - p) <= 3 * math.sqrt(p * (1 - p) / n)


class TestProbitSampling:
    def test_probit_marginal(self):
        design = np.ones((1, 1))
        spec = ProbitSpec((design,) * 1, np.array([0.5]))
        blocks = draw_trials(spec, machine_streams(5, 1), 1, 50000)[:, 0, 0]
        p = norm.cdf(0.5)
        assert abs(blocks.mean() - p) <= 3 * math.sqrt(p * (1 - p) / 50000)

    def test_regression_noiseless(self):
        design = np.vstack([np.eye(2), np.eye(2)])
        spec = RegressionSpec((design,), np.array([0.3, -0.2]), 0.0)
        assert np.allclose(sample(spec, seed=0)[0], design @ spec.theta)
        gens = machine_streams(0, 1)
        draw_trials(spec, gens, 4, 3)       # draws no noise from the stream
        assert gens[0].random() == machine_streams(0, 1)[0].random()


# Row lengths of the exact-minimum tests: n = 1, the fold alone (2, 4, 8, 16),
# odd remainders alone (3, 5, 7), folds then a remainder (12, 24) and a row
# long enough for numpy's own reduce (100).
MIN_ROW_LENGTHS = (1, 2, 3, 4, 5, 7, 8, 12, 16, 24, 100)

# theta at both ends of [-1, 1], where a two-point coordinate is constant
# and a uniform_interval one has zero width
EDGE_THETA = (-1.0, -0.4, 0.0, 0.3, 1.0)


def min_test_rows(shape, values):
    """Uniform draws on [-1, 1]; "inf" puts +inf and -inf at one value in 7
    and makes one row all +inf and one all -inf, "nan" puts NaN at one value
    in 11 (so every position of a row gets one, the last included) beside
    the infinities."""
    x = np.random.default_rng(sum(shape)).uniform(-1.0, 1.0, shape)
    flat = x.reshape(-1, shape[-1])
    if values != "plain":
        flat.flat[::7] = np.inf
        flat.flat[3::7] = -np.inf
        flat[0] = np.inf
        flat[-1] = -np.inf
    if values == "nan":
        flat.flat[5::11] = np.nan
    return x


def assert_same_minima(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    # equal_nan: a NaN in the same places, and every other value equal
    assert np.array_equal(got, want, equal_nan=True)


class TestMinLastAxis:
    """min_last_axis folds and column passes against ndarray.min, byte for
    byte: the kernel tests hold run_chunks to run_trial, and both reduce
    with it, so only this test can catch a wrong fold."""

    @pytest.mark.parametrize("values", ["plain", "inf", "nan"])
    @pytest.mark.parametrize("n", MIN_ROW_LENGTHS)
    def test_local_minima_equal_numpy(self, monkeypatch, n, values):
        # the (k, d) leading shapes of a local step's row; a block of 37
        # values splits the rows into several blocks, the last one partial
        for block in (families.BLOCK_VALUES, 37):
            monkeypatch.setattr(families, "BLOCK_VALUES", block)
            for lead in ((40, 3), (1, 3), (40, 1), (1, 1)):
                x = min_test_rows((*lead, n), values)
                keep = x.copy()
                assert_same_minima(min_last_axis(x), x.min(axis=-1))
                assert np.array_equal(x, keep, equal_nan=True)      # x is not written

    @pytest.mark.parametrize("values", ["plain", "inf", "nan"])
    @pytest.mark.parametrize("n", MIN_ROW_LENGTHS)
    def test_pooled_minimum_equals_numpy(self, n, values):
        # (k, m, d) leading shapes of the centralized estimator's stack
        for lead in ((25, 4, 3), (1, 4, 3), (25, 3, 1), (25, 1, 2)):
            x = min_test_rows((*lead, n), values)
            theta_hat, flagged = UniformLocationSpec(np.zeros(lead[-1])).pooled(x)
            assert_same_minima(min_last_axis(x).min(axis=1), x.min(axis=(1, 3)))
            assert_same_minima(theta_hat, x.min(axis=(1, 3)) + 1.0)
            assert flagged.shape == (lead[0],) and not flagged.any()

    @pytest.mark.parametrize("spec", [
        GaussianLocationSpec(EDGE_THETA, 0.7), GaussianLocationSpec(EDGE_THETA, 1.0),
        BoundedProductSpec(EDGE_THETA, "two_point"),
        BoundedProductSpec(EDGE_THETA, "uniform_interval"), UniformLocationSpec(EDGE_THETA),
    ], ids=["gaussian-0.7", "gaussian-1", "two_point", "uniform_interval", "uniform"])
    @pytest.mark.parametrize("n", (1, 4, 5, 16))
    def test_finished_min_is_the_minimum_of_the_finished_row(self, spec, n):
        # the raw minimum step of uniform_min against its definition, byte
        # for byte, so a zero's sign counts
        raw = np.empty((40, spec.d, n))
        spec.draw(np.random.default_rng(n), raw)
        row = raw.copy()
        spec.finish(row)
        got, want = spec.finished_min(raw.copy()), min_last_axis(row)
        assert got.shape == want.shape == (40, spec.d)
        assert got.tobytes() == want.tobytes()

    def test_empty_shapes(self):
        assert min_last_axis(np.empty((0, 3, 4))).shape == (0, 3)
        with pytest.raises(ValueError):
            min_last_axis(np.empty((2, 3, 0)))
