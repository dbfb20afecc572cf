"""Streaming kernels against the single-trial reference functions.

Every protocol in protocols.PROTOCOLS, its local step run machine by machine
by run_chunks and its fusion step on the messages, must give, trial by
trial, exactly the estimate, transcript length and flag of the reference
function that builds the transcript. The centralized estimator is checked
against centralized_oracle, the pooled formulas written out here trial by
trial, since its public function is the kernel's own spec.pooled. The
comparisons are np.array_equal, never a tolerance.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.special import log_ndtr

from distest import protocols
from distest.codec import transcript_total_bits
from distest.designs import build_designs
from distest.errors import InvalidArgumentError
from distest.families import (TAG_PROTOCOL, BoundedProductSpec, DesignSpec,
                              GaussianLocationSpec, ProbitSpec, RegressionSpec,
                              UniformLocationSpec, draw_trials, machine_streams)
from distest.protocols import (PROTOCOLS, centralized_baseline,
                               gaussian_quantized_average, onebit_bounded_mean,
                               probit_local_average, probit_mle,
                               probit_mle_batched, regression_local_average,
                               run_chunks, single_machine_quantized_mean,
                               uniform_interactive_min)

TRIALS = 60


def make_spec(family, m, n, d, seed=3):
    theta = np.linspace(-0.4, 0.3, d)
    if family == "gaussian":
        return GaussianLocationSpec(theta, 0.7)
    if family == "bounded_two_point":
        return BoundedProductSpec(theta, "two_point")
    if family == "bounded_uniform":
        return BoundedProductSpec(theta, "uniform_interval")
    if family == "uniform":
        return UniformLocationSpec(theta)
    designs = build_designs("orthogonal", m, n, d, seed)
    if family == "regression":
        return RegressionSpec(designs, theta, 0.8)
    if family == "probit":
        return ProbitSpec(designs, theta)
    if family == "probit_separable":    # tiny designs separate often
        return ProbitSpec((np.full((n, d), 1e-3),) * m, np.full(d, 0.2))
    raise ValueError(family)


def centralized_oracle(spec, block):
    """(theta_hat, flagged) of the estimator that sees one trial's pooled
    sample: the pooled mean, the pooled minimum plus one, least squares or
    the two-sided probit MLE on the stacked designs."""
    x = np.asarray(block, dtype=float)
    if isinstance(spec, UniformLocationSpec):
        return x.min(axis=(0, 2)) + 1.0, False
    if isinstance(spec, (GaussianLocationSpec, BoundedProductSpec)):
        return x.mean(axis=(0, 2)), False
    design = np.vstack(spec.designs)
    if isinstance(spec, RegressionSpec):
        return np.linalg.lstsq(design, x.ravel(), rcond=None)[0], False
    return two_sided_probit_mle(design, x.ravel())


def reference(protocol, spec, block, u, budget_bits):
    """(theta_hat, bits, flagged) of one trial, from the reference function."""
    if protocol == "centralized":
        theta_hat, flagged = centralized_oracle(spec, block)
        return theta_hat, 0, flagged
    if protocol == "single_mean":
        out = single_machine_quantized_mean((1.0 + block[0].ravel()) / 2.0, budget_bits)
    elif protocol in ("regress_avg", "probit_avg"):
        run = regression_local_average if protocol == "regress_avg" else probit_local_average
        out = run(spec, block)
    elif protocol == "gauss_qavg":
        out = gaussian_quantized_average(block, spec.sigma)
    elif protocol == "onebit":
        out = onebit_bounded_mean(block, u)
    else:
        out = uniform_interactive_min(block)
    return (out.theta_hat, transcript_total_bits(out.transcript),
            out.info.get("flagged", 0) > 0)


def chunk(protocol, spec, m, n, seed=5, trials=TRIALS):
    blocks = draw_trials(spec, machine_streams(seed, m), n, trials)
    uniforms = None
    if PROTOCOLS[protocol].randomized:
        gens = machine_streams(seed, m, TAG_PROTOCOL)
        uniforms = np.stack([g.random((trials, spec.d)) for g in gens], axis=1)
    return blocks, uniforms


def kernel(protocol, spec, m, n, seed=5, trials=TRIALS, budget_bits=None):
    """(theta_hat, bits, flagged) of one chunk of trials, streamed machine by
    machine from the streams chunk() draws from."""
    proto_gens = (machine_streams(seed, m, TAG_PROTOCOL)
                  if PROTOCOLS[protocol].randomized else None)
    return next(run_chunks(protocol, spec, n, [trials], machine_streams(seed, m),
                           proto_gens, budget_bits))


def assert_kernel_matches_reference(protocol, spec, m, n, budget_bits=None):
    blocks, uniforms = chunk(protocol, spec, m, n)
    theta_hat, bits, flagged = kernel(protocol, spec, m, n, budget_bits=budget_bits)
    assert theta_hat.shape == (TRIALS, spec.d)
    assert bits.shape == flagged.shape == (TRIALS,)
    for t in range(TRIALS):
        ref_theta, ref_bits, ref_flagged = reference(
            protocol, spec, blocks[t], None if uniforms is None else uniforms[t],
            budget_bits)
        assert np.array_equal(theta_hat[t], ref_theta), f"trial {t}"
        assert bits[t] == ref_bits, f"trial {t}"
        assert flagged[t] == ref_flagged, f"trial {t}"
    return blocks, flagged


# (protocol, family, m, n, d): every protocol on every spec type it accepts,
# plus the edge shapes d = 1 (zero index bits), m = 1 and n = 1.
CASES = [
    ("single_mean", "bounded_two_point", 1, 64, 1),
    ("single_mean", "bounded_uniform", 1, 1, 1),
    ("gauss_qavg", "gaussian", 6, 9, 3),
    ("gauss_qavg", "gaussian", 1, 1, 1),
    ("gauss_qavg", "gaussian", 40, 3, 1),
    ("onebit", "bounded_two_point", 12, 1, 5),
    ("onebit", "bounded_uniform", 1, 1, 1),
    ("uniform_min", "uniform", 8, 16, 3),
    ("uniform_min", "uniform", 12, 4, 1),
    ("uniform_min", "uniform", 1, 5, 2),
    ("uniform_min", "uniform", 5, 1, 4),
    ("uniform_min", "gaussian", 6, 3, 2),
    ("uniform_min", "bounded_two_point", 4, 2, 3),
    ("uniform_min", "bounded_uniform", 9, 2, 2),
    ("regress_avg", "regression", 5, 12, 3),
    ("regress_avg", "regression", 1, 1, 1),
    ("regress_avg", "probit", 4, 7, 2),
    ("probit_avg", "probit", 4, 12, 2),
    ("probit_avg", "probit", 1, 3, 1),
    ("centralized", "gaussian", 5, 4, 3),
    ("centralized", "bounded_two_point", 3, 1, 1),
    ("centralized", "bounded_uniform", 1, 6, 2),
    ("centralized", "uniform", 7, 5, 2),
    ("centralized", "regression", 4, 6, 2),
    ("centralized", "probit", 3, 8, 2),
    ("centralized", "probit", 1, 3, 3),
    ("centralized", "probit", 5, 2, 1),
]


SPEC_TYPES = (GaussianLocationSpec, BoundedProductSpec, UniformLocationSpec,
              RegressionSpec, ProbitSpec)


def test_cases_cover_exactly_the_accepted_spec_types():
    covered = {(p, type(make_spec(f, m, n, d))) for p, f, m, n, d in CASES}
    accepted = {(pid, spec_type) for pid, rec in PROTOCOLS.items()
                for spec_type in SPEC_TYPES if issubclass(spec_type, rec.accepts)}
    assert covered == accepted


@pytest.mark.parametrize("protocol,family,m,n,d", CASES)
def test_kernel_matches_reference(protocol, family, m, n, d):
    spec = make_spec(family, m, n, d)
    assert_kernel_matches_reference(protocol, spec, m, n, budget_bits=7)


CENTRALIZED_CASES = [case for case in CASES if case[0] == "centralized"]


@pytest.mark.parametrize("protocol,family,m,n,d", CENTRALIZED_CASES)
def test_centralized_baseline_is_the_kernel_on_a_stack_of_one(protocol, family, m, n, d):
    """Batch invariance: centralized_baseline is spec.pooled on a stack of
    one trial, and it gives each trial the bytes and flag the chunk's
    stacked spec.pooled gives it."""
    spec = make_spec(family, m, n, d)
    blocks, _ = chunk(protocol, spec, m, n)
    theta_hat, _, flagged = kernel(protocol, spec, m, n)
    for t in range(TRIALS):
        got_theta, got_flagged = centralized_baseline(spec, blocks[t])
        assert np.array_equal(got_theta, theta_hat[t]), f"trial {t}"
        assert type(got_flagged) is bool and got_flagged == flagged[t], f"trial {t}"


def test_uniform_kernel_covers_a_machine_that_improves_nothing():
    m, n, d = 6, 8, 1
    spec = make_spec("uniform", m, n, d)
    blocks, _ = assert_kernel_matches_reference("uniform_min", spec, m, n)
    silent = [t for t in range(TRIALS)
              if not uniform_interactive_min(blocks[t]).info["improved"][1:].all()]
    assert silent


def test_probit_kernel_covers_flagged_trials():
    spec = make_spec("probit_separable", 4, 5, 1)
    _, flagged = assert_kernel_matches_reference("probit_avg", spec, 4, 5)
    assert flagged.any() and not flagged.all()


def test_centralized_probit_kernel_covers_flagged_trials():
    m, n = 3, 2
    spec = make_spec("probit_separable", m, n, 1)
    blocks, flagged = assert_kernel_matches_reference("centralized", spec, m, n)
    pooled = np.vstack(spec.designs)
    flags = [probit_mle(pooled, block.ravel())[1] for block in blocks]
    assert np.array_equal(flagged, flags)
    assert any(flags) and not all(flags)


def test_singular_probit_hessian_is_flagged_by_kernel_and_reference(monkeypatch):
    # the grid point protocol = probit_avg, family = probit, d = 2, m = 3,
    # n = 4, theta = 0.9, trials = 50, seed = 11 of distest simulate
    m, n, d, seed = 3, 4, 2, 11
    spec = ProbitSpec(build_designs("orthogonal", m, n, d, seed), np.full(d, 0.9))
    blocks = draw_trials(spec, machine_streams(seed, m), n, 50)
    singular = []
    solve = np.linalg.solve

    def counting(hess, grad):
        try:
            return solve(hess, grad)
        except np.linalg.LinAlgError:
            singular.append(hess.ndim)
            raise

    monkeypatch.setattr(np.linalg, "solve", counting)
    theta_hat, bits, flagged = kernel("probit_avg", spec, m, n, seed=seed, trials=50)
    # a stacked solve failed, and so did a single problem's, in the kernel
    assert 3 in singular and 2 in singular
    for t, block in enumerate(blocks):
        ref_theta, ref_bits, ref_flagged = reference("probit_avg", spec, block, None, None)
        assert np.array_equal(theta_hat[t], ref_theta), f"trial {t}"
        assert bits[t] == ref_bits, f"trial {t}"
        assert flagged[t] == ref_flagged, f"trial {t}"
    assert flagged.any() and not flagged.all()


# ---------------------------------------------------------------------------
# batch invariance of the damped Newton: a problem gets the same bytes solved
# alone (probit_mle, the solver on a stack of one) as in a stack of many

def assert_batch_invariant(a, z, **kw):
    """probit_mle_batched on the (P, n, d) stack a gives each problem the
    theta bytes and flag that probit_mle gives it alone."""
    theta, flagged = probit_mle_batched(a, z, **kw)
    assert theta.shape == (len(z), a.shape[2]) and flagged.shape == (len(z),)
    for p in range(len(z)):
        ref_theta, ref_flagged = probit_mle(a[p], z[p], **kw)
        assert np.array_equal(theta[p], ref_theta), f"problem {p}"
        assert flagged[p] == ref_flagged, f"problem {p}"
    return theta, flagged


def random_probit_problems(n, d, count, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((count, n, d))
    theta = rng.uniform(-1.5, 1.5, (count, d))
    z = rng.random((count, n)) < 0.5 + 0.45 * np.tanh((a @ theta[..., None])[..., 0])
    return a, z.astype(float)


NEWTON_SHAPES = [(1, 1), (2, 1), (9, 1), (2, 2), (3, 3), (5, 2), (30, 3), (12, 4), (6, 6)]


@pytest.mark.parametrize("n,d", NEWTON_SHAPES)
def test_batched_newton_matches_probit_mle(n, d):
    """80 problems in one stack, each against itself solved alone."""
    a, z = random_probit_problems(n, d, 80, seed=100 * n + d)
    assert_batch_invariant(a, z)


def every_way_out_problems():
    a, z = random_probit_problems(4, 2, 40, seed=7)
    unit = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    a[3], z[3] = unit, [1.0, 0.0, 1.0, 0.0]             # gradient exactly 0 at 0
    a[17], z[17] = 1e-3 * unit, np.ones(4)              # separable, tiny design
    return a, z


def test_batched_newton_covers_every_way_out():
    """One batch holds a problem that stops at grad_tol on iteration 0, one
    that separates (flagged) and random ones, so the active set loses
    problems for different reasons in the same iterations."""
    a, z = every_way_out_problems()
    theta, flagged = assert_batch_invariant(a, z)
    assert np.array_equal(theta[3], np.zeros(2)) and not flagged[3]
    assert flagged[17]


def test_batched_newton_covers_exhausted_halvings():
    """With grad_tol = 0 a problem stops only by separating (flagged), at
    max_iter, or at a Newton step that fails all 30 halvings. An unflagged
    problem whose result with max_iter = 50 equals its result with 100
    stopped before iteration 50, so its last step failed every halving."""
    a, z = random_probit_problems(30, 3, 40, seed=8)
    theta, flagged = assert_batch_invariant(a, z, grad_tol=0.0)
    exhausted = [p for p in range(len(z)) if not flagged[p] and np.array_equal(
        probit_mle(a[p], z[p], max_iter=50, grad_tol=0.0)[0], theta[p])]
    assert exhausted


def test_batched_newton_on_a_broadcast_design():
    """One design in each of its three forms gives what each problem gets
    alone: the shared (n, d) matrix, its zero-stride broadcast view (indexed
    like any stack) and a contiguous stack of its copies."""
    a, z = random_probit_problems(12, 3, 60, seed=9)
    view = np.broadcast_to(a[0], a.shape)
    assert view.strides[0] == 0
    theta, flagged = assert_batch_invariant(view, z)
    for design in (a[0], np.ascontiguousarray(view)):
        other_theta, other_flagged = probit_mle_batched(design, z)
        assert np.array_equal(other_theta, theta)
        assert np.array_equal(other_flagged, flagged)


# ---------------------------------------------------------------------------
# the signed solvers against the two-sided form they replaced

def two_sided_probit_mle(design, z, max_iter=100, grad_tol=1e-9, diverge_norm=1e3):
    """probit_mle in its two-sided form: log_ndtr of u = a theta and of -u,
    and the inverse Mills ratios lam_p and lam_m of both sides, weighted by
    z and 1 - z."""
    a = np.asarray(design, dtype=float)
    z = np.asarray(z, dtype=float)
    theta = np.zeros(a.shape[1])

    def loglik(th):
        u = a @ th
        lp, lm = log_ndtr(u), log_ndtr(-u)
        return float(z @ lp + (1.0 - z) @ lm), u, lp, lm

    ll, u, lp, lm = loglik(theta)
    for _ in range(max_iter):
        lam_p = np.exp(-u * u / 2.0 - 0.5 * math.log(2 * math.pi) - lp)
        lam_m = np.exp(-u * u / 2.0 - 0.5 * math.log(2 * math.pi) - lm)
        score = z * lam_p - (1.0 - z) * lam_m
        grad = a.T @ score
        if np.linalg.norm(grad) < grad_tol:
            break
        weights = z * lam_p * (lam_p + u) + (1.0 - z) * lam_m * (lam_m - u)
        hess = a.T @ (weights[:, None] * a)
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            return np.clip(theta, -1.0, 1.0), True
        t = 1.0
        accepted = False
        while t > 2**-30:
            cand = theta + t * step
            cand_ll, *at_cand = loglik(cand)
            if cand_ll > ll:
                theta, ll = cand, cand_ll
                u, lp, lm = at_cand
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
        if np.linalg.norm(theta) > diverge_norm:
            return np.clip(theta, -1.0, 1.0), True
    return theta, False


def assert_matches_two_sided(a, z, **kw):
    """probit_mle, and probit_mle_batched on the (P, n, d) stack a and on
    its first matrix shared by all P problems, give the two-sided solver's
    theta bytes and flag. Returns the stack's flags."""
    for design, design_of in ((a[0], lambda p: a[0]), (a, lambda p: a[p])):
        theta, flagged = probit_mle_batched(design, z, **kw)
        for p in range(len(z)):
            want_theta, want_flagged = two_sided_probit_mle(design_of(p), z[p], **kw)
            got_theta, got_flagged = probit_mle(design_of(p), z[p], **kw)
            assert got_theta.tobytes() == want_theta.tobytes(), f"problem {p}"
            assert theta[p].tobytes() == want_theta.tobytes(), f"problem {p}"
            assert got_flagged == flagged[p] == want_flagged, f"problem {p}"
    return flagged


@pytest.mark.parametrize("grad_tol", [1e-9, 0.0])
def test_newton_evaluates_what_the_two_sided_form_evaluates(monkeypatch, grad_tol):
    """On each problem the solver hands log_ndtr exactly sign * u for each
    u = a theta the two-sided form evaluates (it evaluates u, then -u), in
    the same order: every iteration and every halving, down to the last of
    the 30 halvings of an exhausted step."""
    scipy_log_ndtr = log_ndtr
    a, z = random_probit_problems(30, 3, 6, seed=8)
    for p in range(len(z)):
        oracle, solver = [], []
        monkeypatch.setitem(globals(), "log_ndtr",
                            lambda u: oracle.append(u) or scipy_log_ndtr(u))
        monkeypatch.setattr(protocols, "log_ndtr",
                            lambda s: solver.append(np.ravel(s)) or scipy_log_ndtr(s))
        two_sided_probit_mle(a[p], z[p], grad_tol=grad_tol)
        probit_mle(a[p], z[p], grad_tol=grad_tol)
        sign = 2.0 * z[p] - 1.0
        assert len(oracle) == 2 * len(solver), f"problem {p}"
        for got, u in zip(solver, oracle[::2]):
            assert got.tobytes() == (sign * u).tobytes(), f"problem {p}"


@pytest.mark.parametrize("n,d", NEWTON_SHAPES)
def test_signed_solvers_match_the_two_sided_form(n, d):
    a, z = random_probit_problems(n, d, 80, seed=100 * n + d)
    assert_matches_two_sided(a, z)


def test_signed_solvers_match_the_two_sided_form_on_separable_problems():
    a, z = random_probit_problems(5, 2, 60, seed=12)
    flagged = assert_matches_two_sided(1e-3 * a, z)
    assert flagged.any() and not flagged.all()


def test_signed_solvers_match_the_two_sided_form_on_every_way_out():
    assert_matches_two_sided(*every_way_out_problems())


def test_signed_solvers_match_the_two_sided_form_on_exhausted_halvings():
    a, z = random_probit_problems(30, 3, 40, seed=8)
    assert_matches_two_sided(a, z, grad_tol=0.0)


def test_signed_solvers_read_a_negative_zero_response_as_zero():
    a, z = random_probit_problems(9, 2, 40, seed=13)
    z[z == 0.0] = -0.0
    assert np.signbit(z).any()
    assert_matches_two_sided(a, z)


@pytest.mark.parametrize("bad", [0.5, 2.0, np.nan])
def test_probit_solvers_take_only_binary_responses(bad):
    a, z = random_probit_problems(6, 2, 3, seed=4)
    z[1, 2] = bad
    for solve in (lambda: probit_mle(a[1], z[1]), lambda: probit_mle_batched(a[0], z),
                  lambda: probit_mle_batched(a, z)):
        with pytest.raises(InvalidArgumentError, match="probit responses must be 0 or 1"):
            solve()


def test_probit_avg_rejects_regression_data():
    spec = make_spec("regression", 3, 9, 2)
    with pytest.raises(InvalidArgumentError,
                       match="protocol 'probit_avg' does not run on RegressionSpec"):
        protocols.estimate_risk("probit_avg", spec, trials=10, seed=1)


@pytest.mark.parametrize("family,spec_type", [("gaussian", "GaussianLocationSpec"),
                                               ("uniform", "UniformLocationSpec")])
def test_onebit_runs_on_bounded_data_only(family, spec_type):
    """Proposition 2's scheme is for data in [-1, 1]^d, so the one-bit
    protocol refuses the unbounded location families by spec type."""
    spec = make_spec(family, 4, 1, 2)
    with pytest.raises(InvalidArgumentError,
                       match=f"protocol 'onebit' does not run on {spec_type}$"):
        protocols.estimate_risk("onebit", spec, trials=10, seed=1, m=4, n=1)


@pytest.mark.parametrize("protocol,family,m,n,d", [
    ("single_mean", "bounded_uniform", 1, 16, 1),
    ("gauss_qavg", "gaussian", 5, 3, 2),
    ("onebit", "bounded_two_point", 6, 1, 3),
    ("onebit", "bounded_two_point", 150, 1, 4),     # several chunks of a small budget
    ("uniform_min", "uniform", 5, 4, 2),
    ("regress_avg", "regression", 4, 6, 2),
    ("probit_avg", "probit_separable", 3, 4, 1),
    ("centralized", "gaussian", 4, 3, 2),
    ("centralized", "probit_separable", 3, 2, 1),
])
def test_estimate_risk_matches_reference_loop(monkeypatch, protocol, family, m, n, d):
    """Streamed chunks and the array reduction give the report a per-trial
    loop over the reference functions gives, for any chunk size: the whole
    run in one chunk, chunks of 7 trials, and the chunks of a 2500-value
    working-set budget."""
    spec = make_spec(family, m, n, d)
    trials = 45
    blocks, uniforms = chunk(protocol, spec, m, n, seed=21, trials=trials)
    theta_true = (1.0 + spec.theta) / 2.0 if protocol == "single_mean" else spec.theta
    sqerr = np.empty(trials)
    bits = np.empty(trials, dtype=np.int64)
    flagged = 0
    for t in range(trials):
        theta_hat, bits[t], flag = reference(
            protocol, spec, blocks[t], None if uniforms is None else uniforms[t], 5)
        diff = theta_hat - theta_true
        sqerr[t] = diff @ diff
        flagged += int(flag)
    want = protocols.RiskReport(float(sqerr.mean()),
                                float(sqerr.std(ddof=1) / np.sqrt(trials)), trials,
                                float(bits.mean()), int(bits.max()),
                                PROTOCOLS[protocol].kind, flagged)
    kw = {} if isinstance(spec, DesignSpec) else {"m": m, "n": n}

    def risk():
        return protocols.estimate_risk(protocol, spec, trials, 21, budget_bits=5, **kw)

    assert risk() == want
    chunk_sizes = protocols._chunk_sizes
    monkeypatch.setattr(protocols, "_chunk_sizes",
                        lambda total, per_trial: [min(7, total - s) for s in range(0, total, 7)])
    assert risk() == want
    sizes = []
    monkeypatch.setattr(protocols, "_chunk_sizes",
                        lambda *args: sizes.extend(chunk_sizes(*args)) or sizes)
    monkeypatch.setattr(protocols, "WORKING_VALUES", 2500)
    assert risk() == want
    if m == 150:    # 600 values per trial
        assert sizes == [4] * 11 + [1]
