"""Streaming kernels against the single-trial reference functions.

Every protocol in protocols.PROTOCOLS, its local step run machine by machine
by run_chunks and its fusion step on the messages, must give, trial by
trial, exactly the estimate, transcript length and flag of the reference
function that builds the transcript. The comparisons are np.array_equal,
never a tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest

from distest import protocols
from distest.codec import transcript_total_bits
from distest.designs import build_designs
from distest.errors import InvalidArgumentError
from distest.families import (TAG_PROTOCOL, BoundedProductSpec, DesignSpec,
                              GaussianLocationSpec, ProbitSpec, RegressionSpec,
                              UniformLocationSpec, draw_trials, machine_rows,
                              machine_streams)
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
    if family == "gaussian_narrow":     # stays inside [-1, 1], so one-bit runs
        return GaussianLocationSpec(theta, 0.01)
    if family == "bounded_two_point":
        return BoundedProductSpec(theta, "two_point")
    if family == "bounded_uniform":
        return BoundedProductSpec(theta, "uniform_interval")
    if family == "uniform":
        return UniformLocationSpec(theta)
    if family == "uniform_centered":    # support [-1, 1], so one-bit runs
        return UniformLocationSpec(np.zeros(d))
    designs = build_designs("orthogonal", m, n, d, seed)
    if family == "regression":
        return RegressionSpec(designs, theta, 0.8)
    if family == "probit":
        return ProbitSpec(designs, theta)
    if family == "probit_separable":    # tiny designs separate often
        return ProbitSpec((np.full((n, d), 1e-3),) * m, np.full(d, 0.2))
    raise ValueError(family)


def reference(protocol, spec, block, u, budget_bits):
    """(theta_hat, bits, flagged) of one trial, from the reference function."""
    if protocol == "centralized":
        theta_hat, flagged = centralized_baseline(spec, block)
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
    ("onebit", "gaussian_narrow", 30, 1, 2),
    ("onebit", "uniform_centered", 7, 1, 3),
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
    ("probit_avg", "regression", 3, 9, 2),
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


def test_cases_cover_every_accepted_spec_type():
    covered = {(p, type(make_spec(f, m, n, d))) for p, f, m, n, d in CASES}
    for pid, rec in PROTOCOLS.items():
        for spec_type in SPEC_TYPES:
            if issubclass(spec_type, rec.accepts):
                assert (pid, spec_type) in covered


@pytest.mark.parametrize("protocol,family,m,n,d", CASES)
def test_kernel_matches_reference(protocol, family, m, n, d):
    spec = make_spec(family, m, n, d)
    assert_kernel_matches_reference(protocol, spec, m, n, budget_bits=7)


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
# the batched damped Newton against probit_mle, problem by problem

def assert_newton_matches_reference(a, z, **kw):
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


@pytest.mark.parametrize("n,d", [(1, 1), (2, 1), (9, 1), (2, 2), (3, 3), (5, 2),
                                 (30, 3), (12, 4), (6, 6)])
def test_batched_newton_matches_probit_mle(n, d):
    a, z = random_probit_problems(n, d, 80, seed=100 * n + d)
    assert_newton_matches_reference(a, z)


def test_batched_newton_covers_every_way_out():
    """One batch holds a problem that stops at grad_tol on iteration 0, one
    that separates (flagged) and random ones, so the active set loses
    problems for different reasons in the same iterations."""
    a, z = random_probit_problems(4, 2, 40, seed=7)
    unit = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    a[3], z[3] = unit, [1.0, 0.0, 1.0, 0.0]             # gradient exactly 0 at 0
    a[17], z[17] = 1e-3 * unit, np.ones(4)              # separable, tiny design
    theta, flagged = assert_newton_matches_reference(a, z)
    assert np.array_equal(theta[3], np.zeros(2)) and not flagged[3]
    assert flagged[17]


def test_batched_newton_covers_exhausted_halvings():
    """With grad_tol = 0 a problem stops only by separating (flagged), at
    max_iter, or at a Newton step that fails all 30 halvings. An unflagged
    problem whose result with max_iter = 50 equals its result with 100
    stopped before iteration 50, so its last step failed every halving."""
    a, z = random_probit_problems(30, 3, 40, seed=8)
    theta, flagged = assert_newton_matches_reference(a, z, grad_tol=0.0)
    exhausted = [p for p in range(len(z)) if not flagged[p] and np.array_equal(
        probit_mle(a[p], z[p], max_iter=50, grad_tol=0.0)[0], theta[p])]
    assert exhausted


@pytest.mark.parametrize("grad_tol", [1e-9, 0.0])
def test_batched_newton_evaluates_what_probit_mle_evaluates(monkeypatch, grad_tol):
    """On a single problem the batched solver hands log_ndtr the arguments
    probit_mle does, in the same order: every iteration and every halving,
    down to the last of the 30 halvings of an exhausted step."""
    log_ndtr = protocols.log_ndtr
    a, z = random_probit_problems(30, 3, 6, seed=8)
    for p in range(len(z)):
        args = {}
        for name, solve in (("reference", lambda: probit_mle(a[p], z[p], grad_tol=grad_tol)),
                            ("batched", lambda: probit_mle_batched(a[p:p + 1], z[p:p + 1],
                                                                   grad_tol=grad_tol))):
            seen = args[name] = []
            monkeypatch.setattr(protocols, "log_ndtr",
                                lambda u, seen=seen: seen.append(np.ravel(u)) or log_ndtr(u))
            solve()
        assert len(args["batched"]) == len(args["reference"]), f"problem {p}"
        for got, want in zip(args["batched"], args["reference"]):
            assert np.array_equal(got, want), f"problem {p}"


def test_batched_newton_on_a_broadcast_design():
    """A zero-stride view of one design gives what probit_mle gives on that
    design and what a contiguous stack of its copies gives."""
    a, z = random_probit_problems(12, 3, 60, seed=9)
    view = np.broadcast_to(a[0], a.shape)
    assert view.strides[0] == 0
    theta, flagged = assert_newton_matches_reference(view, z)
    stacked_theta, stacked_flagged = probit_mle_batched(np.ascontiguousarray(view), z)
    assert np.array_equal(stacked_theta, theta)
    assert np.array_equal(stacked_flagged, flagged)


def test_onebit_kernel_rejects_out_of_range_inputs():
    spec = make_spec("gaussian", 4, 1, 2)
    with pytest.raises(InvalidArgumentError, match="one-bit inputs"):
        kernel("onebit", spec, 4, 1)


def test_protocol_uniforms_match_per_machine_draws():
    m, k, d = 5, 11, 3
    got = machine_rows(machine_streams(9, m, TAG_PROTOCOL), (k, d),
                       lambda i, gen, row: gen.random(out=row))
    want = np.stack([g.random((k, d)) for g in machine_streams(9, m, TAG_PROTOCOL)],
                    axis=1)
    assert np.array_equal(got, want)


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
