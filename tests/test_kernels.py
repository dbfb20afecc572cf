"""Streaming kernels against the single-trial runner and per-trial oracles.

Every protocol in protocols.PROTOCOLS, its local step run machine by machine
by run_chunks and its fusion step on the messages, must give, trial by
trial, exactly the estimate, transcript length and flag of run_trial, which
decodes the estimate from the transcript that encode builds. Each local
step, run on a stack of one as run_trial runs it, must give the values of
local_oracle, the per-trial formulas written out here. The centralized
estimator has no transcript, so it is checked against centralized_oracle,
the pooled formulas written out here trial by trial. The comparisons are
np.array_equal, never a tolerance.
"""

from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import log_ndtr

from distest import families, protocols
from distest.codec import dequantize, quantize, transcript_total_bits
from distest.designs import build_designs
from distest.errors import InvalidArgumentError
from distest.families import (TAG_PROTOCOL, BoundedProductSpec, DesignSpec,
                              GaussianLocationSpec, ProbitSpec, RegressionSpec,
                              UniformLocationSpec, draw_trials, machine_streams)
from distest.protocols import (PROTOCOLS, probit_mle, probit_mle_batched,
                               run_chunks, run_trial)

TRIALS = 60


def make_spec(family, m, n, d, seed=3, theta=None):
    theta = np.linspace(-0.4, 0.3, d) if theta is None else np.asarray(theta)
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


def local_oracle(protocol, spec, block, u):
    """The (m, ...) values the machines of one trial send: the mean of the
    [0, 1] image (1 + x) / 2, the local means, the bits u < (1 + x) / 2,
    the local minima, the local least-squares solutions, or the local probit
    MLEs followed by their flags."""
    x = np.asarray(block, dtype=float)
    if protocol == "single_mean":
        return np.array([[((1.0 + x[0].ravel()) / 2.0).mean()]])
    if protocol == "gauss_qavg":
        return x.mean(axis=2)
    if protocol == "onebit":
        return u < (1.0 + x[:, :, 0]) / 2.0
    if protocol == "uniform_min":
        return x.min(axis=2)
    if protocol == "regress_avg":
        return np.stack([np.linalg.solve(a.T @ a, a.T) @ y for a, y in zip(spec.designs, x)])
    return np.stack([np.append(*probit_mle(a, z)) for a, z in zip(spec.designs, x)])


def local_steps(protocol, spec, block, u):
    """What each machine's local step sends in one trial, on a stack of one."""
    rec = PROTOCOLS[protocol]
    return np.stack([rec.local(spec, i, np.array(block[i:i + 1], dtype=float),
                               None if u is None else u[i:i + 1])[0]
                     for i in range(len(block))])


def reference(protocol, spec, block, u, budget_bits):
    """(theta_hat, bits, flagged) of one trial: run_trial and the length of
    its transcript, or the centralized oracle."""
    if protocol == "centralized":
        theta_hat, flagged = centralized_oracle(spec, block)
        return theta_hat, 0, flagged
    theta_hat, transcript, flagged = run_trial(protocol, spec, block, u, budget_bits)
    return theta_hat, transcript_total_bits(transcript), flagged


def chunk(protocol, spec, m, n, seed=5, trials=TRIALS):
    """A chunk's blocks and, for the one-bit scheme on every law, its (trials,
    m, d) uniforms: on two-point data the kernel draws none, so a reference
    run on these checks that the bits do not depend on them."""
    blocks = draw_trials(spec, machine_streams(seed, m), n, trials)
    uniforms = None
    if protocol == "onebit":
        gens = machine_streams(seed, m, TAG_PROTOCOL)
        uniforms = np.stack([g.random((trials, spec.d)) for g in gens], axis=1)
    return blocks, uniforms


def kernel(protocol, spec, m, n, seed=5, trials=TRIALS, budget_bits=None):
    """(theta_hat, bits, flagged) of one chunk of trials, streamed machine by
    machine from the streams chunk() draws from."""
    proto_gens = (machine_streams(seed, m, TAG_PROTOCOL)
                  if PROTOCOLS[protocol].randomized(spec) else None)
    return next(run_chunks(protocol, spec, n, [trials], machine_streams(seed, m),
                           proto_gens, budget_bits))


def assert_kernel_matches_reference(protocol, spec, m, n, budget_bits=None):
    blocks, uniforms = chunk(protocol, spec, m, n)
    theta_hat, bits, flagged = kernel(protocol, spec, m, n, budget_bits=budget_bits)
    assert theta_hat.shape == (TRIALS, spec.d)
    assert bits.shape == flagged.shape == (TRIALS,)
    for t in range(TRIALS):
        u = None if uniforms is None else uniforms[t]
        ref_theta, ref_bits, ref_flagged = reference(protocol, spec, blocks[t], u, budget_bits)
        assert np.array_equal(theta_hat[t], ref_theta), f"trial {t}"
        assert bits[t] == ref_bits, f"trial {t}"
        assert flagged[t] == ref_flagged, f"trial {t}"
        if protocol != "centralized":
            assert np.array_equal(local_steps(protocol, spec, blocks[t], u),
                                  local_oracle(protocol, spec, blocks[t], u)), f"trial {t}"
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
    ("centralized", "gaussian", 12, 5, 1),
    ("centralized", "bounded_two_point", 3, 1, 1),
    ("centralized", "bounded_uniform", 1, 6, 2),
    ("centralized", "uniform", 7, 5, 2),
    ("centralized", "regression", 4, 6, 2),
    ("centralized", "probit", 3, 8, 2),
    ("centralized", "probit", 1, 3, 3),
    ("centralized", "probit", 5, 2, 1),
]


# The interactive minimum's local fold shapes beyond those in CASES: two
# folds then a 3-column remainder (n = 12), and one fold (n = 2). They are
# kept apart from CASES because TRANSCRIPT_SHA256 pins the transcripts of
# exactly the CASES draws.
FOLD_CASES = [
    ("uniform_min", "uniform", 7, 12, 3),
    ("uniform_min", "uniform", 3, 2, 2),
]


SPEC_TYPES = (GaussianLocationSpec, BoundedProductSpec, UniformLocationSpec,
              RegressionSpec, ProbitSpec)


def test_cases_cover_exactly_the_accepted_spec_types():
    covered = {(p, type(make_spec(f, m, n, d))) for p, f, m, n, d in CASES}
    accepted = {(pid, spec_type) for pid, rec in PROTOCOLS.items()
                for spec_type in SPEC_TYPES if issubclass(spec_type, rec.accepts)}
    assert covered == accepted
    # every protocol but centralized, which sends raw data, has a transcript
    assert [pid for pid, rec in PROTOCOLS.items()
            if rec.encode is None or rec.decode is None] == ["centralized"]


@pytest.mark.parametrize("protocol,family,m,n,d", CASES + FOLD_CASES)
def test_kernel_matches_reference(protocol, family, m, n, d):
    spec = make_spec(family, m, n, d)
    assert_kernel_matches_reference(protocol, spec, m, n, budget_bits=7)


def test_a_zero_bit_gauss_qavg_trial_decodes_to_the_kernel_bytes():
    """At sigma = 3 and m = n = 1 the grid's one cell is wider than the
    accuracy asked for, so each machine sends 0 bits per coordinate: the
    transcript is empty, and decoding its zero-width fields gives the
    grid's midpoint, as the fusion does."""
    theta = np.array([0.5, -0.25, 0.0])
    spec = GaussianLocationSpec(theta, 3.0)
    blocks, flagged = assert_kernel_matches_reference("gauss_qavg", spec, 1, 1)
    theta_hat, bits, _ = kernel("gauss_qavg", spec, 1, 1)
    assert not bits.any() and not flagged.any()
    _, transcript, _ = run_trial("gauss_qavg", spec, blocks[0])
    assert transcript_total_bits(transcript) == 0
    assert theta_hat.tobytes() == np.zeros((TRIALS, 3)).tobytes()


CENTRALIZED_CASES = [case for case in CASES if case[0] == "centralized"]


@pytest.mark.parametrize("protocol,family,m,n,d", CENTRALIZED_CASES)
def test_pooled_on_a_stack_of_one_is_the_kernel(protocol, family, m, n, d):
    """Batch invariance: spec.pooled on a stack of one trial gives each
    trial the bytes and flag the chunk's stacked spec.pooled gives it."""
    spec = make_spec(family, m, n, d)
    blocks, _ = chunk(protocol, spec, m, n)
    theta_hat, _, flagged = kernel(protocol, spec, m, n)
    for t in range(TRIALS):
        got_theta, got_flagged = spec.pooled(blocks[t][None])
        assert np.array_equal(got_theta[0], theta_hat[t]), f"trial {t}"
        assert got_flagged[0] == flagged[t], f"trial {t}"


# theta at both ends of [-1, 1], where a two-point coordinate is constant
# and a uniform_interval one has zero width
EDGE_THETA = (-1.0, -0.4, 0.0, 0.3, 1.0)
# just outside [-1, 1], within the theta tolerance of the specs, which hold
# +/-1: a negative uniform_interval width would make its map decrease
OUTSIDE_THETA = (1.0 + 1e-13, -1.0 - 1e-13)


PLANE_CASES = [
    ("onebit", "bounded_two_point", 12, 1, 5, None, True),
    ("onebit", "bounded_two_point", 6, 1, 5, EDGE_THETA, True),
    ("uniform_min", "uniform", 8, 16, 3, None, True),
    ("uniform_min", "uniform", 5, 4, 5, EDGE_THETA, True),
    ("uniform_min", "gaussian", 5, 4, 5, EDGE_THETA, True),
    ("uniform_min", "bounded_uniform", 5, 4, 5, EDGE_THETA, True),
    ("uniform_min", "bounded_two_point", 5, 4, 5, EDGE_THETA, True),
    ("uniform_min", "bounded_uniform", 5, 4, 2, OUTSIDE_THETA, True),
    ("gauss_qavg", "gaussian", 40, 3, 1, None, False),
    ("probit_avg", "probit", 4, 12, 2, None, False),
    ("centralized", "regression", 4, 6, 2, None, False),
]


@pytest.mark.parametrize("protocol,family,m,n,d,theta,raw", PLANE_CASES, ids=[
    "-".join(map(str, case[:5])) + ("" if case[5] is None else "-edge") for case in PLANE_CASES])
def test_run_chunks_hands_fuse_one_plane_per_machine(monkeypatch, protocol, family, m, n, d,
                                                     theta, raw):
    """run_chunks hands fuse a machine-major (m, k, ...) buffer: plane i, one
    contiguous block, holds what machine i's local step sends for the
    chunk's k trials. The run's 60 trials go in chunks of 25, 25 and 10, so
    the last chunk reads the first 10 trials of each reused plane. Where
    the protocol reads the raw draw, its step must send what the local step
    sends on the filled row. families.BLOCK_VALUES is cut to 7 trials'
    values, so each chunk ends in a partial block of the one-bit threshold
    comparison and of the minimum's fold."""
    spec = make_spec(family, m, n, d, theta=theta)
    rec = PROTOCOLS[protocol]
    monkeypatch.setattr(families, "BLOCK_VALUES", 7 * d * n)
    assert (rec.raw(spec, 25) is not None) == raw
    seen = []

    def recording(spec, qspec, messages):
        seen.append((messages.copy(), all(plane.flags.c_contiguous for plane in messages)))
        return rec.fuse(spec, qspec, messages)

    monkeypatch.setitem(PROTOCOLS, protocol, dataclasses.replace(rec, fuse=recording))
    sizes = [25, 25, 10]
    blocks, uniforms = chunk(protocol, spec, m, n)
    proto_gens = machine_streams(5, m, TAG_PROTOCOL) if rec.randomized(spec) else None
    list(run_chunks(protocol, spec, n, sizes, machine_streams(5, m), proto_gens))
    assert len(seen) == len(sizes)
    start = 0
    for k, (messages, contiguous) in zip(sizes, seen):
        assert contiguous
        for i in range(m):
            u = None if uniforms is None else uniforms[start:start + k, i]
            sent = rec.local(spec, i, np.array(blocks[start:start + k, i]), u)
            assert messages.shape == (m, *sent.shape) and messages.dtype == sent.dtype
            assert np.array_equal(messages[i], sent), f"machine {i}"
        start += k


@pytest.mark.parametrize("protocol,buffers", [("uniform_min", 3), ("gauss_qavg", 2)])
def test_a_fusion_holds_a_few_message_buffers(protocol, buffers):
    """On a (32, 5000, 3) float64 message buffer the interactive minimum's
    fusion allocates at most three buffers at once (the running minimum,
    its cell fractions and their indices), and the averaging fusion two
    (the cells and their trial-major copy); 5 % of one buffer covers their
    (k, d) outputs."""
    m, k, d = 32, 5000, 3
    spec = make_spec("gaussian", m, 16, d)
    rec = PROTOCOLS[protocol]
    qspec = rec.grid(spec, m, 16, None)
    messages = np.random.default_rng(0).uniform(-1.5, 1.5, (m, k, d))
    tracemalloc.start()
    try:
        rec.fuse(spec, qspec, messages)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= (buffers + 0.05) * messages.nbytes


def test_uniform_kernel_covers_a_machine_that_improves_nothing():
    m, n, d = 6, 8, 1
    spec = make_spec("uniform", m, n, d)
    blocks, _ = assert_kernel_matches_reference("uniform_min", spec, m, n)
    # a machine that improves nothing sends an empty improvement list
    silent = [t for t in range(TRIALS) if not all(
        msg.payload.length for msg in run_trial("uniform_min", spec, blocks[t])[1].messages[1:])]
    assert silent


def test_uniform_fusion_on_grid_edges_equals_the_transcripts():
    """Local minima that lie exactly on the grid's cell edges: a later
    machine that ties the broadcast state sends nothing for that coordinate,
    and machine 3 of trial 0 improves every coordinate. Each trial's fused
    estimate and bit count equal run_trial's on data whose local minima
    are those edges."""
    m, k, d, n = 5, 40, 3, 12
    spec = make_spec("uniform", m, n, d)
    qspec = PROTOCOLS["uniform_min"].grid(spec, m, n, None)
    rng = np.random.default_rng(8)
    cells = rng.integers(100, 104, size=(m, k, d))     # four edges: many ties
    cells[3, 0] = cells[:3, 0].min(axis=0) - 1
    local_min = dequantize(cells, qspec)
    assert np.array_equal(quantize(local_min, qspec), cells)   # exactly on edges
    theta_hat, bits, flagged = protocols._uniform_min_fuse(spec, qspec, local_min)
    assert not flagged.any()
    # each machine's n samples: its local minimum, then values above it
    above = rng.uniform(0.0, 0.5, size=(m, k, d, n))
    above[..., 0] = 0.0
    blocks = local_min[..., None] + rng.permuted(above, axis=-1)
    ties = 0
    for t in range(k):
        ref_theta, transcript, _ = run_trial("uniform_min", spec, blocks[:, t])
        assert np.array_equal(theta_hat[t], ref_theta), f"trial {t}"
        assert bits[t] == transcript_total_bits(transcript), f"trial {t}"
        state = np.minimum.accumulate(cells[:, t], axis=0)
        ties += int(np.count_nonzero(cells[1:, t] == state[:-1]))
    assert ties > k
    # machine 3 of trial 0 sends an index and a value for every coordinate
    sent = run_trial("uniform_min", spec, blocks[:, 0])[1].messages[3].payload.length
    assert sent == d * (math.ceil(math.log2(d)) + qspec.bits)


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

def assert_batch_invariant(a, z):
    """probit_mle_batched on the problems z that share the design a gives
    each problem the theta bytes and flag that probit_mle gives it alone."""
    theta, flagged = probit_mle_batched(a, z)
    assert theta.shape == (len(z), a.shape[1]) and flagged.shape == (len(z),)
    for p in range(len(z)):
        ref_theta, ref_flagged = probit_mle(a, z[p])
        assert np.array_equal(theta[p], ref_theta), f"problem {p}"
        assert flagged[p] == ref_flagged, f"problem {p}"
    return theta, flagged


def random_probit_problems(n, d, count, seed):
    """One random (n, d) design and the (count, n) responses of count
    problems on it, each drawn at its own theta."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, d))
    theta = rng.uniform(-1.5, 1.5, (count, d))
    z = rng.random((count, n)) < 0.5 + 0.45 * np.tanh(theta @ a.T)
    return a, z.astype(float)


NEWTON_SHAPES = [(1, 1), (2, 1), (9, 1), (2, 2), (3, 3), (5, 2), (30, 3), (12, 4), (6, 6)]


@pytest.mark.parametrize("n,d", NEWTON_SHAPES)
def test_batched_newton_matches_probit_mle(n, d):
    """80 problems in one stack, each against itself solved alone."""
    a, z = random_probit_problems(n, d, 80, seed=100 * n + d)
    assert_batch_invariant(a, z)


def every_way_out_problems():
    """40 problems on a design whose rows come in equal pairs, its last
    column scaled by 1e-3: problem 3 answers 1, 0 on each pair, so its
    gradient at theta = 0 is exactly 0; problem 17 is separable along the
    tiny column; the others are random."""
    rng = np.random.default_rng(7)
    a = np.repeat(rng.standard_normal((4, 3)) * [1.0, 1.0, 1e-3], 2, axis=0)
    z = (rng.random((40, 8)) < 0.5).astype(float)
    z[3] = np.tile([1.0, 0.0], 4)
    z[17] = a[:, 2] > 0
    return a, z


def test_batched_newton_covers_every_way_out():
    """One batch holds a problem that stops at GRAD_TOL on iteration 0, one
    that separates (flagged) and random ones that converge, so the active
    set loses problems for different reasons in the same iterations."""
    a, z = every_way_out_problems()
    theta, flagged = assert_batch_invariant(a, z)
    assert np.array_equal(theta[3], np.zeros(3)) and not flagged[3]
    assert flagged[17] and not flagged.all()


def test_batched_newton_covers_exhausted_halvings(monkeypatch):
    """With GRAD_TOL = 0 a problem stops only by separating (flagged), at
    MAX_ITER, or at a Newton step that cannot raise the log-likelihood: its
    decrement is under TAU ulps of |ll|, or it fails all 30 halvings. An
    unflagged problem whose result with MAX_ITER = 50 equals its result with
    100 stopped before iteration 50, so it stopped on such a step."""
    monkeypatch.setattr(protocols, "GRAD_TOL", 0.0)
    a, z = random_probit_problems(30, 3, 40, seed=8)
    theta, flagged = assert_batch_invariant(a, z)
    monkeypatch.setattr(protocols, "MAX_ITER", 50)
    exhausted = [p for p in range(len(z)) if not flagged[p] and np.array_equal(
        probit_mle(a, z[p])[0], theta[p])]
    assert exhausted


@pytest.mark.parametrize("design_of,z_of", [
    (lambda a: a[:, 0], lambda z: z),
    (lambda a: np.stack([a] * 4), lambda z: z),
    (lambda a: np.broadcast_to(a, (4, *a.shape)), lambda z: z),
    (lambda a: a, lambda z: z[:, :-1]),
    (lambda a: a, lambda z: z[0]),
], ids=["1d-design", "stack-of-designs", "broadcast-view", "wrong-width-z", "1d-z"])
def test_batched_newton_takes_one_shared_design(design_of, z_of):
    """The solver's one problem form is an (n, d) design that all P
    problems of z (P, n) share; any other shape is refused by name."""
    a, z = random_probit_problems(6, 2, 4, seed=9)
    with pytest.raises(InvalidArgumentError,
                       match=r"^need one \(n, d\) design and \(P, n\) responses; got"):
        probit_mle_batched(design_of(a), z_of(z))


# ---------------------------------------------------------------------------
# the signed solvers against the two-sided form they replaced

def two_sided_probit_mle(design, z, max_iter=100, grad_tol=1e-9, diverge_norm=1e3):
    """probit_mle in its two-sided form: log_ndtr of u = a theta and of -u,
    and the inverse Mills ratios lam_p and lam_m of both sides, weighted by
    z and 1 - z. It has the solver's exit rules: a Newton decrement grad @
    step under TAU ulps of |ll| stops it as an exhausted search does, and an
    iterate that puts every u_j on its response's side of 0 is flagged."""
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
        if grad @ step < protocols.TAU * np.spacing(abs(ll)):
            break
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
    if np.where(z == 1.0, u > 0.0, u < 0.0).all():
        return np.clip(theta, -1.0, 1.0), True
    return theta, False


def assert_matches_two_sided(a, z):
    """probit_mle, and probit_mle_batched on the problems z that share the
    design a, give the theta bytes and flag of the two-sided solver run with
    the solver's settings. Returns the batch's flags."""
    theta, flagged = probit_mle_batched(a, z)
    settings = (protocols.MAX_ITER, protocols.GRAD_TOL, protocols.DIVERGE_NORM)
    for p in range(len(z)):
        want_theta, want_flagged = two_sided_probit_mle(a, z[p], *settings)
        got_theta, got_flagged = probit_mle(a, z[p])
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
    monkeypatch.setattr(protocols, "GRAD_TOL", grad_tol)
    a, z = random_probit_problems(30, 3, 6, seed=8)
    for p in range(len(z)):
        oracle, solver = [], []
        monkeypatch.setitem(globals(), "log_ndtr",
                            lambda u: oracle.append(u) or scipy_log_ndtr(u))
        monkeypatch.setattr(protocols, "log_ndtr",
                            lambda s: solver.append(np.ravel(s)) or scipy_log_ndtr(s))
        two_sided_probit_mle(a, z[p], grad_tol=grad_tol)
        probit_mle(a, z[p])
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


def test_signed_solvers_match_the_two_sided_form_on_exhausted_halvings(monkeypatch):
    monkeypatch.setattr(protocols, "GRAD_TOL", 0.0)
    a, z = random_probit_problems(30, 3, 40, seed=8)
    assert_matches_two_sided(a, z)


def test_signed_solvers_read_a_negative_zero_response_as_zero():
    a, z = random_probit_problems(9, 2, 40, seed=13)
    z[z == 0.0] = -0.0
    assert np.signbit(z).any()
    assert_matches_two_sided(a, z)


@pytest.mark.parametrize("bad", [0.5, 2.0, np.nan])
def test_probit_solvers_take_only_binary_responses(bad):
    a, z = random_probit_problems(6, 2, 3, seed=4)
    z[1, 2] = bad
    for solve in (lambda: probit_mle(a, z[1]), lambda: probit_mle_batched(a, z)):
        with pytest.raises(InvalidArgumentError, match="probit responses must be 0 or 1"):
            solve()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_probit_solvers_take_only_finite_designs(bad):
    a, z = random_probit_problems(6, 2, 3, seed=4)
    a[3, 1] = bad
    for solve in (lambda: probit_mle(a, z[1]), lambda: probit_mle_batched(a, z)):
        with pytest.raises(InvalidArgumentError, match="probit design entries must be finite"):
            solve()


def test_probit_solver_with_no_iterations_returns_theta_zero(monkeypatch):
    """MAX_ITER = 0 and GRAD_TOL = 0 are accepted: no iteration returns
    theta = 0 unflagged."""
    monkeypatch.setattr(protocols, "MAX_ITER", 0)
    monkeypatch.setattr(protocols, "GRAD_TOL", 0.0)
    a, z = random_probit_problems(6, 2, 3, seed=4)
    theta, flagged = probit_mle(a, z[1])
    assert theta.tolist() == [0.0, 0.0] and flagged is False


# ---------------------------------------------------------------------------
# separation: an iterate with every s_j > 0 separates the data strictly, so
# no MLE exists, and the solver flags it at whichever exit it takes

def test_a_separated_problem_that_leaves_on_the_gradient_test_is_flagged(monkeypatch):
    """One response of 1 on the design [[1.0]] is separated by every theta >
    0. Each evaluation raises the log-likelihood, so each is an accepted
    iterate; at the last one the gradient, the inverse Mills ratio, is under
    GRAD_TOL = 1e-9, so the solver left on the gradient test. It flags the
    problem and returns the iterate clipped to 1."""
    seen = []
    monkeypatch.setattr(protocols, "log_ndtr",
                        lambda s: seen.append(float(s[0, 0])) or log_ndtr(s))
    theta, flagged = probit_mle([[1.0]], [1.0])
    assert theta.tolist() == [1.0] and flagged is True
    assert seen == sorted(set(seen)) and seen[-1] > 0.0
    last = seen[-1]
    assert math.exp(-last * last / 2.0 - 0.5 * math.log(2 * math.pi) - log_ndtr(last)) < 1e-9


@pytest.mark.parametrize("n,d", [(1, 1), (2, 1), (3, 2), (8, 2), (30, 3), (12, 4), (6, 6)])
def test_every_local_problem_on_an_identity_design_is_flagged(n, d):
    """The identity design sqrt(n) I[:, :d] gives each coordinate one
    observation, which one binary response always separates, and rows d..n-1
    are zero: their s_j is 0 at every theta. So no local problem on it has a
    finite MLE, and the separation test reads only the nonzero rows."""
    design = build_designs("identity", 1, n, d, 0)[0]
    z = (np.random.default_rng(10 * n + d).random((200, n)) < 0.5).astype(float)
    theta, flagged = assert_batch_invariant(design, z)
    assert flagged.all() and (np.abs(theta) <= 1.0).all()


def test_an_all_zero_design_is_not_separated():
    # its likelihood is flat, so every theta is an MLE: no row to separate
    theta, flagged = probit_mle(np.zeros((3, 2)), [1.0, 0.0, 1.0])
    assert theta.tolist() == [0.0, 0.0] and flagged is False


def test_separated_centralized_probit_trials_are_flagged_and_clipped():
    """The grid point of the singular-Hessian test with protocol =
    centralized: the pooled responses of trials 1, 18, 34 and 38 are
    strictly separated by their iterates, which stop far inside
    DIVERGE_NORM. The kernel flags exactly these, clips them to [-1, 1],
    and agrees with the oracle on every trial."""
    m, n, d, seed = 3, 4, 2, 11
    spec = ProbitSpec(build_designs("orthogonal", m, n, d, seed), np.full(d, 0.9))
    blocks = draw_trials(spec, machine_streams(seed, m), n, 50)
    theta_hat, _, flagged = kernel("centralized", spec, m, n, seed=seed, trials=50)
    for t, block in enumerate(blocks):
        ref_theta, ref_flagged = centralized_oracle(spec, block)
        assert np.array_equal(theta_hat[t], ref_theta), f"trial {t}"
        assert flagged[t] == ref_flagged, f"trial {t}"
    assert np.flatnonzero(flagged).tolist() == [1, 18, 34, 38]
    assert (np.abs(theta_hat[flagged]) <= 1.0).all()


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
    ("uniform_min", "uniform", 6, 12, 3),
    ("uniform_min", "uniform", 4, 2, 1),
    ("regress_avg", "regression", 4, 6, 2),
    ("probit_avg", "probit_separable", 3, 4, 1),
    ("centralized", "gaussian", 4, 3, 2),
    ("centralized", "probit_separable", 3, 2, 1),
])
def test_estimate_risk_matches_reference_loop(monkeypatch, protocol, family, m, n, d):
    """Streamed chunks and the array reduction give the report a per-trial
    loop over run_trial (or the centralized oracle) gives, for any chunk size: the whole
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
