"""Executable estimation protocols with bit-accounted transcripts.

PROTOCOLS maps each protocol id to its transcript kind, the spec types it
runs on, its run rules and its steps: a local step that reduces one
machine's block of a chunk of trials to the values it sends, and a fusion
step that turns the chunk's values from all machines into the estimates, bit
counts and flags. Each entry names its wire grid once, a function of the
run's public (spec, m, n, budget_bits) that run_trial and run_chunks resolve
once per run, before the first draw, and hand to every step; it gives None
for centralized, which sends its raw data. Every other protocol also has an
encode, which puts one trial's (m, ...) values on the wire as a Transcript,
and a decode, which computes the estimate from that Transcript, spec.d and
the run's grid alone, since the fusion center sees only the messages. There
are two message kinds: fixed-width fields on the grid (single_mean,
gauss_qavg, onebit, regress_avg, probit_avg; a one-bit message is d 1-bit
fields) and improvement lists (uniform_min). run_trial runs one trial on the
array families.sample returns, (m, d, n) for the mean families and (m, n)
responses for the design families: the local step per machine, then encode,
then decode; tests hold the fusion to it trial by trial. estimate_risk
measures mean-squared error and bit statistics over many seeded trials
through run_chunks, which streams the machines, so a chunk never holds more
than one machine's raw block, and builds no transcript: machine i writes
what it sends into plane i of the chunk's machine-major (m, k, ...) message
buffer, and the fusion step reads the whole buffer. A protocol draws
uniforms only where they can change a message: the one-bit scheme on a law
whose data can lie inside (-1, 1); on two-point data the bit is x > 0.
There is one probit solver, probit_mle_batched, a damped Newton on a stack
of problems that share one (n, d) design, its only problem form; the probit
local step solves all trials of a chunk on the machine's design with it at
once, and probit_mle is that solver on a stack of one. It takes 0/1 responses only,
raises InvalidArgumentError on any other value, and makes one log_ndtr call
per response at each likelihood evaluation. Two exit rules bound its work
and its flags: a Newton decrement under TAU ulps of the log-likelihood stops
a problem without a line search, and a problem whose iterate at exit has
every s_j > 0 on the design's nonzero rows is strictly separated, so it is
flagged and clipped.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import codec
# transcript_total_bits is not called here; it stays importable from this
# module because instrumentation patches the codec names protocols imports.
from .codec import (INDEPENDENT, INTERACTIVE, Message, QuantizerSpec, Transcript,
                    bits_for_accuracy, ceil_log2, decode_improvement_message,
                    encode_improvement_message, pack_fields, quantize, dequantize,
                    transcript_total_bits, unpack_fields)  # noqa: F401
from .errors import DegenerateDesignError, InvalidArgumentError
# draw_trials is not called here either: run_chunks draws machine by machine
# with spec.fill. It stays importable because bench/spans.py patches it, so
# that tracer's draw counters read 0 on simulate workloads (ROADMAP item 1).
from .families import (TAG_DATA, TAG_PROTOCOL, TWO_POINT, BoundedProductSpec, DesignSpec,
                       GaussianLocationSpec, MeanSpec, ProbitSpec,
                       draw_trials, machine_streams, min_last_axis, row_shape,  # noqa: F401
                       run_shape)


def __getattr__(name):
    # scipy.special is most of the package's import time and only the probit
    # solver needs it, so log_ndtr is imported on first use. It stays
    # reachable as protocols.log_ndtr, where instrumentation can wrap it.
    if name == "log_ndtr":
        from scipy.special import log_ndtr
        globals()[name] = log_ndtr
        return log_ndtr
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass
class RiskReport:
    """Monte Carlo risk estimate plus communication statistics."""

    mse_mean: float
    mse_stderr: float
    trials: int
    bits_mean: float
    bits_max: int
    protocol_kind: str
    flagged_trials: int = 0


# ---------------------------------------------------------------------------
# bit accounting formulas (shared by the protocols and the budget tests)

def _gauss_qavg_grid(sigma: float, m: int, n: int) -> QuantizerSpec:
    """Cell width sigma^2/(mn) on the truncation interval
    [-1 - sigma/sqrt(n), 1 + sigma/sqrt(n)], rounding to nearest."""
    half = 1.0 + sigma / math.sqrt(n)
    return QuantizerSpec(-half, half, bits_for_accuracy(-half, half, sigma**2 / (m * n)))


def _local_average_grid(m: int, n: int) -> QuantizerSpec:
    """Cell width 1/(mn) on [-1, 1], rounding to nearest: the regression
    and probit averaging schemes."""
    return QuantizerSpec(-1.0, 1.0, bits_for_accuracy(-1.0, 1.0, 1.0 / (m * n)))


def gauss_qavg_message_bits(d: int, sigma: float, m: int, n: int) -> int:
    """Per-machine bits: d coordinates on the gauss_qavg grid."""
    return d * _gauss_qavg_grid(sigma, m, n).bits


def regress_avg_message_bits(d: int, m: int, n: int) -> int:
    """Per-machine bits: d coordinates at cell width 1/(mn) on [-1, 1]."""
    return d * _local_average_grid(m, n).bits


def uniform_min_value_bits(m: int, n: int) -> int:
    """Per-coordinate bits for the interactive minimum: cell width (mn)^-2
    on [-2, 2], i.e. ceil(2 log2(2mn))."""
    return bits_for_accuracy(-2.0, 2.0, 1.0 / (m * n) ** 2)


def _local_solver(design):
    """A machine's solve operator (A^T A)^-1 A^T."""
    try:
        return np.linalg.solve(design.T @ design, design.T)
    except np.linalg.LinAlgError as err:
        raise DegenerateDesignError(f"singular local Gram: {err}") from err


def _row_dots(x, y):
    """x[p] @ y[p] for each row of two (P, n) stacks: one ddot per row, the
    BLAS call (and rounding) of the 1-d product."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


# The Newton decrement, in ulps of |ll|, under which a step is not searched.
TAU = 1.0


def probit_mle_batched(design, z, max_iter: int = 100, grad_tol: float = 1e-9,
                       diverge_norm: float = 1e3):
    """Damped Newton ascent of the concave probit log-likelihood on P
    problems that share one (n, d) design, z (P, n) holding their 0/1
    responses. Any other shape, a non-finite design entry, a response other
    than 0 or 1, or a setting outside max_iter >= 0 (an int), grad_tol >= 0
    and diverge_norm > 0 raises InvalidArgumentError.

    With sign = 2 z - 1 and s = sign * (design @ theta), response j has
    likelihood Phi(s_j), so each evaluation makes one log_ndtr call. A
    problem stops when its gradient norm is below grad_tol, after max_iter
    iterations, when its Newton step fails every halving, or when its Newton
    decrement grad @ step is below TAU * spacing(|ll|): the quadratic model
    then predicts a rise under half an ulp of ll, which only rounding could
    give, so the step is not searched. Returns theta (P, d) and flagged (P,);
    flagged marks separation, in which case the iterate clipped to [-1, 1]
    is returned. Separation is detected by a singular Newton system, by the
    iterate norm exceeding diverge_norm, or, at exit, by an iterate with
    every s_j > 0 on the design's nonzero rows, which strictly separates the
    data so that no MLE exists.
    Each product is a stack of the one-problem product, which numpy sends to
    the same BLAS call (the design is broadcast, never copied), so a problem
    gets the same bytes alone as in any stack.
    """
    log_ndtr = sys.modules[__name__].log_ndtr
    design = np.asarray(design, dtype=float)
    z = np.asarray(z, dtype=float)
    if design.ndim != 2 or z.ndim != 2 or z.shape[1] != len(design):
        raise InvalidArgumentError(f"need one (n, d) design and (P, n) responses; "
                                   f"got {design.shape} and {z.shape}")
    if not np.isfinite(design).all():
        raise InvalidArgumentError("probit design entries must be finite")
    if not np.all((z == 0.0) | (z == 1.0)):
        raise InvalidArgumentError("probit responses must be 0 or 1")
    if not (isinstance(max_iter, (int, np.integer)) and max_iter >= 0
            and grad_tol >= 0 and diverge_norm > 0):
        raise InvalidArgumentError(f"probit solver needs an int max_iter >= 0, grad_tol >= 0 "
                                   f"and diverge_norm > 0; got {max_iter!r}, {grad_tol!r} "
                                   f"and {diverge_norm!r}")
    sign = 2.0 * z - 1.0
    theta = np.zeros((len(z), design.shape[1]))
    flagged = np.zeros(len(z), dtype=bool)
    stopped = np.zeros(len(z), dtype=bool)   # by a step that cannot raise ll

    def loglik(zs, sg, th):
        # summed per side, each dot product with exact zeros in the other
        # side's places, so it rounds as z @ log Phi(u) + (1 - z) @ log Phi(-u)
        # does and the golden outputs hold; s and log_ndtr(s) are reused
        s = sg * (design @ th[..., None])[..., 0]
        ls = log_ndtr(s)
        return _row_dots(zs, ls) + _row_dots(1.0 - zs, ls), s, ls

    def separated(ids):
        # flag and stop: the iterate clipped to [-1, 1] is returned
        flagged[ids] = True
        theta[ids] = np.clip(theta[ids], -1.0, 1.0)

    ll, s, ls = loglik(z, sign, theta)  # at theta, by problem id as theta is
    s = s.copy()                        # its rows are written; log_ndtr saw it
    live = np.arange(len(z))  # ids of the problems still iterating
    for _ in range(max_iter):
        if not live.size:
            break
        sl = s[live]
        # lam = phi(s) / Phi(s), the inverse Mills ratio
        lam = np.exp(-sl * sl / 2.0 - 0.5 * math.log(2 * math.pi) - ls[live])
        grad = (design.T @ (sign[live] * lam)[..., None])[..., 0]
        going = ~(np.sqrt(_row_dots(grad, grad)) < grad_tol)
        live, sl, lam, grad = (x[going] for x in (live, sl, lam, grad))
        hess = design.T @ ((lam * (lam + sl))[..., None] * design)
        try:
            step = np.linalg.solve(hess, grad[..., None])[..., 0]
        except np.linalg.LinAlgError:
            # some Hessian is singular: solve one by one, stop each singular one
            step = np.zeros_like(grad)
            solved = np.ones(live.size, dtype=bool)
            for j in range(live.size):
                try:
                    step[j] = np.linalg.solve(hess[j], grad[j])
                except np.linalg.LinAlgError:
                    solved[j] = False
            separated(live[~solved])
            live, grad, step = live[solved], grad[solved], step[solved]
        # a decrement under TAU ulps of ll stops the problem as an exhausted
        # search would, without evaluating its halvings
        flat = _row_dots(grad, step) < TAU * np.spacing(np.abs(ll[live]))
        stopped[live[flat]] = True
        # one step size, halved, for the ids still searching; zs, sg, ths,
        # step and lls hold their rows, and only an accepting halving shrinks them
        searching, step = live[~flat], step[~flat]
        zs, sg, ths, lls = z[searching], sign[searching], theta[searching], ll[searching]
        t = 1.0
        while t > 2**-30 and searching.size:
            cand = ths + t * step
            cand_ll, cand_s, cand_ls = loglik(zs, sg, cand)
            up = cand_ll > lls
            if up.any():
                hit = searching[up]
                theta[hit], ll[hit], s[hit], ls[hit] = (
                    x[up] for x in (cand, cand_ll, cand_s, cand_ls))
                searching, zs, sg, ths, step, lls = (
                    x[~up] for x in (searching, zs, sg, ths, step, lls))
            t *= 0.5
        stopped[searching] = True
        live = live[~stopped[live]]
        th = theta[live]
        diverged = np.sqrt(_row_dots(th, th)) > diverge_norm
        separated(live[diverged])
        live = live[~diverged]
    # a zero design row has s_j = 0 at every theta and carries no information
    informative = design.any(axis=1)
    separated(np.flatnonzero(~flagged & (s[:, informative] > 0).all(axis=1)
                             & informative.any()))
    return theta, flagged


def probit_mle(design, z, max_iter: int = 100, grad_tol: float = 1e-9,
               diverge_norm: float = 1e3):
    """probit_mle_batched on one problem: design (n, d) and n responses z.
    Returns theta (d,) and flagged as a bool."""
    theta, flagged = probit_mle_batched(design, np.asarray(z)[None], max_iter, grad_tol,
                                        diverge_norm)
    return theta[0], bool(flagged[0])


# ---------------------------------------------------------------------------
# streaming kernels
#
# estimate_risk runs a chunk of k trials machine by machine, the way the
# protocols run: machine i's data is one reused row, (k, d, n) for the mean
# families and (k, n) for the design families, and a protocol randomized on
# the spec gets the machine's (k, d) TAG_PROTOCOL uniforms with it (None
# otherwise): the one-bit scheme, only on a law whose data can lie inside
# (-1, 1). A protocol's local step reduces the row to what the machine puts
# on the wire, (k, ...), which fills plane i, machine i's contiguous block,
# of the chunk's machine-major (m, k, ...) message buffer; messages[:, t] is
# trial t's (m, ...) values, what run_trial hands encode. Its fusion step
# turns the buffer and the run's grid into theta_hat (k, d), bits (k,) and
# flagged (k,), equal trial by trial to what run_trial gives for that trial,
# and builds no transcript. An exact fusion (an integer count, a minimum)
# reduces whole planes. A float reduction over machines rounds by memory
# layout, so a float fusion reduces one C-ordered trial-major (k, m, ...)
# copy, which adds in the machines' order as a trial's (m, ...) values do.
# The interactive minimum is exact in any order, and numpy's reduce over a
# short axis pays per row, so its local step takes families.min_last_axis
# (pairwise folds and column passes over the flat row) and its fusion the
# running minimum one plane at a time.

def _single_mean_local(spec, i, row, uniforms):
    # the mean of the [0, 1] image (1 + x) / 2; the row is scratch that the
    # next draw refills, so it is mapped in place
    row += 1.0
    row /= 2.0
    return row.mean(axis=2)


def _onebit_local(spec, i, row, uniforms):
    # the bits u < (1 + x) / 2, the scratch row mapped in place; with no
    # uniforms the data is +/-1, where (1 + x) / 2 is exactly 0 or 1 and
    # every u in [0, 1) gives the bit x > 0
    if uniforms is None:
        return row[..., 0] > 0.0
    x = row[..., 0]
    x += 1.0
    x /= 2.0
    return uniforms < x


def _onebit_fuse(spec, qspec, messages):
    m, k, d = messages.shape
    # the sum of m values of +/-1 is an exact integer, so this equals the
    # mean of the decoded cells 2 z - 1 bit for bit; summing the bools keeps
    # the buffer at one byte per value
    ones = messages.sum(axis=0)
    return (2.0 * ones - m) / m, np.full(k, m * d, dtype=np.int64), np.zeros(k, dtype=bool)


def _uniform_min_fuse(spec, qspec, local_min):
    m, k, d = local_min.shape
    # Round-down quantization is monotone, so the fusion state after machine
    # i is q(min_{j <= i} local_min_j), and machine i > 0 sends exactly the
    # coordinates where local_min_i < state_{i-1}.
    # numpy's accumulate and count_nonzero over these axes pay per (k, d)
    # row, so the running minimum and the count go plane by plane.
    running = np.empty_like(local_min)
    running[0] = local_min[0]
    for i in range(1, m):
        np.minimum(running[i - 1], local_min[i], out=running[i])
    state = dequantize(quantize(running, qspec), qspec)
    improvements = (local_min[1:] < state[:-1]).sum(axis=0).sum(axis=1)
    bits = d * qspec.bits + improvements * (ceil_log2(d) + qspec.bits)
    return state[-1] + 1.0, bits, np.zeros(k, dtype=bool)


def _regress_local(spec, i, row, uniforms):
    # a stack of matrix-vector products: one gemv per trial, the same BLAS
    # call (and rounding) as the solver applied to one trial's responses
    return (_local_solver(spec.designs[i]) @ row[..., None])[..., 0]


def _average_fuse(spec, qspec, sent):
    """Fusion of the averaging schemes: quantize the (m, k, d) local values
    on the run's grid, average over machines. A probit message carries the
    solver's flag as one more value after them."""
    local = sent[..., :spec.d]
    m, k, d = local.shape
    # quantize clamps to the grid first: that clamp is the truncation; both
    # steps are elementwise, and the mean takes the trial-major copy
    cells = dequantize(quantize(local, qspec), qspec)
    return (np.ascontiguousarray(cells.swapaxes(0, 1)).mean(axis=1),
            np.full(k, m * d * qspec.bits, dtype=np.int64), sent[..., d:].any(axis=(0, 2)))


def _probit_local(spec, i, row, uniforms):
    # one batched Newton over the chunk's trials, which share the machine's design
    theta, flagged = probit_mle_batched(spec.designs[i], row)
    return np.column_stack((theta, flagged))


def _centralized_fuse(spec, qspec, pooled):
    # spec.pooled takes (k, m, *row) samples: the trial-major copy
    theta_hat, flagged = spec.pooled(np.ascontiguousarray(pooled.swapaxes(0, 1)))
    return theta_hat, np.zeros(pooled.shape[1], dtype=np.int64), flagged


# ---------------------------------------------------------------------------
# the two message kinds: encode takes one trial's (m, ...) values, what the
# local steps send, and returns its Transcript; decode returns theta_hat from
# the Transcript, spec.d and the run's grid alone

def _encode_fields(spec, qspec, sent):
    idx = quantize(sent[:, :spec.d], qspec)
    return Transcript([Message(i + 1, 1, pack_fields(row, qspec.bits))
                       for i, row in enumerate(idx.tolist())], INDEPENDENT)


def _decode_fields(spec, qspec, transcript):
    idx = np.array([unpack_fields(msg.payload, qspec.bits, spec.d)
                    for msg in transcript.messages])
    return dequantize(idx, qspec).mean(axis=0)


def _encode_improvements(spec, qspec, local_min):
    # machine 1 sends all d minima, and each later machine, in index order,
    # the coordinates that strictly improve the broadcast state
    m, d = local_min.shape
    idx = quantize(local_min, qspec)
    cells = dequantize(idx, qspec)
    state = cells[0].copy()
    messages = [Message(1, 1, pack_fields(idx[0], qspec.bits))]
    for i in range(1, m):
        better = np.flatnonzero(local_min[i] < state)
        state[better] = cells[i, better]
        messages.append(Message(i + 1, i + 1, encode_improvement_message(
            better, idx[i, better], d, qspec.bits)))
    return Transcript(messages, INTERACTIVE)


def _decode_improvements(spec, qspec, transcript):
    # a coordinate's state is the cell its last sender sent
    first, *rest = transcript.messages
    idx = np.array(unpack_fields(first.payload, qspec.bits, spec.d))
    for msg in rest:
        better, sent = decode_improvement_message(msg.payload, spec.d, qspec.bits)
        idx[list(better)] = sent
    return dequantize(idx, qspec) + 1.0


def _onebit_check(spec, m, n, budget_bits):
    if n != 1:
        raise InvalidArgumentError("the one-bit scheme needs n = 1")


def _single_mean_check(spec, m, n, budget_bits):
    if m != 1:
        raise InvalidArgumentError("single_mean is a single-machine protocol")
    if budget_bits is None:
        raise InvalidArgumentError("single_mean needs budget_bits")
    if not isinstance(spec, BoundedProductSpec):
        raise InvalidArgumentError("single_mean runs on the bounded family")
    if spec.d != 1:
        raise InvalidArgumentError("single_mean needs d = 1")
    if budget_bits < 1:
        raise InvalidArgumentError("budget must be at least one bit")


# ---------------------------------------------------------------------------
# Monte Carlo risk measurement

@dataclass(frozen=True)
class Protocol:
    """One protocol id: what estimate_risk and run_trial need to run it."""

    kind: str                 # transcript kind reported in the RiskReport
    accepts: tuple            # spec types the protocol runs on
    local: Callable           # (spec, i, row, uniforms) -> machine i's (k, ...) messages
    grid: Callable            # (spec, m, n, budget_bits) -> the run's QuantizerSpec or None
    # the steps, each given the run's grid; by default the averaging schemes';
    # fuse takes the chunk's machine-major (m, k, ...) message buffer
    fuse: Callable = _average_fuse      # (spec, qspec, messages) -> (theta_hat, bits, flagged)
    encode: Callable = _encode_fields   # (spec, qspec, sent) -> one trial's Transcript
    decode: Callable = _decode_fields   # (spec, qspec, transcript) -> theta_hat
    bound: str = None         # lower-bound formula id replacing the family's
    # spec -> whether the local step reads (k, d) TAG_PROTOCOL uniforms
    randomized: Callable = lambda spec: False
    check: Callable = lambda spec, m, n, budget_bits: None  # raises on a run it refuses
    target: Callable = lambda theta: theta    # theta -> what the estimate is scored against


PROTOCOLS = {
    # single_mean works on [0, 1]; the bounded family maps to it affinely
    "single_mean": Protocol(INDEPENDENT, (BoundedProductSpec,), _single_mean_local,
                            lambda spec, m, n, budget_bits: QuantizerSpec(0.0, 1.0, budget_bits),
                            bound="prop1", check=_single_mean_check,
                            target=lambda theta: (1.0 + theta) / 2.0),
    # each machine's local means, truncated to the grid's interval
    "gauss_qavg": Protocol(INDEPENDENT, (GaussianLocationSpec,),
                           lambda spec, i, row, u: row.mean(axis=2),
                           lambda spec, m, n, budget_bits: _gauss_qavg_grid(spec.sigma, m, n)),
    # Proposition 2's scheme is for data in [-1, 1]^d: the bounded family
    # only. Bit z is cell z of a two-cell round-down grid, which decodes to
    # exactly 2 z - 1.
    "onebit": Protocol(INDEPENDENT, (BoundedProductSpec,), _onebit_local,
                       lambda *run: QuantizerSpec(-1.0, 3.0, 1, codec.ROUND_DOWN),
                       _onebit_fuse, bound="prop2", check=_onebit_check,
                       randomized=lambda spec: spec.law != TWO_POINT),
    "uniform_min": Protocol(INTERACTIVE, (MeanSpec,), lambda spec, i, row, u: min_last_axis(row),
                            lambda spec, m, n, budget_bits: QuantizerSpec(
                                -2.0, 2.0, uniform_min_value_bits(m, n), codec.ROUND_DOWN),
                            _uniform_min_fuse, _encode_improvements, _decode_improvements),
    "regress_avg": Protocol(INDEPENDENT, (DesignSpec,), _regress_local,
                            lambda spec, m, n, budget_bits: _local_average_grid(m, n)),
    "probit_avg": Protocol(INDEPENDENT, (ProbitSpec,), _probit_local,
                           lambda spec, m, n, budget_bits: _local_average_grid(m, n)),
    # the centralized estimator sees all the data: each machine sends its row
    "centralized": Protocol("centralized", (MeanSpec, DesignSpec), lambda spec, i, row, u: row,
                            lambda *run: None, _centralized_fuse, None, None),
}


def _runnable(protocol: str, spec, m: int, n: int, budget_bits):
    """The PROTOCOLS entry of protocol and the run's (m, n), once its rules
    accept the run; raises InvalidArgumentError where they do not."""
    rec = PROTOCOLS.get(protocol)
    if rec is None:
        raise InvalidArgumentError(f"unknown protocol id {protocol!r}")
    m, n = run_shape(spec, m, n)
    rec.check(spec, m, n, budget_bits)
    if not isinstance(spec, rec.accepts):
        raise InvalidArgumentError(
            f"protocol {protocol!r} does not run on {type(spec).__name__}")
    return rec, m, n


def run_trial(protocol: str, spec, block, uniforms=None, budget_bits: int = None):
    """(theta_hat, transcript, flagged) of one trial on block, the array
    families.sample returns. Each machine's local step runs on a stack of
    one, encode puts what the machines send on the wire, and theta_hat is
    decoded from that transcript alone. uniforms, when given, must be an
    (m, d) array in [0, 1), machine i's TAG_PROTOCOL uniforms in row i, as
    estimate_risk draws them. A protocol randomized on the spec needs them:
    the one-bit protocol on a law whose data can lie inside (-1, 1). On
    two-point data it may be None, and given uniforms cannot change a bit.
    flagged, side information outside the transcript, is whether a
    machine's probit solver flagged its problem. centralized, which sends
    raw data, has no transcript and is refused.
    """
    block = np.array(block, dtype=float)   # a copy: a local step may map its row in place
    row = row_shape(spec, block.shape[-1] if block.ndim else 0)
    if block.shape[1:] != row:
        raise InvalidArgumentError(f"need (m, {', '.join(map(str, row))}) blocks for "
                                   f"{type(spec).__name__}; got shape {block.shape}")
    rec, m, n = _runnable(protocol, spec, len(block), block.shape[-1], budget_bits)
    if rec.encode is None:
        raise InvalidArgumentError(f"protocol {protocol!r} sends no transcript")
    if uniforms is not None or rec.randomized(spec):
        if np.shape(uniforms) != (m, spec.d):
            raise InvalidArgumentError(
                f"protocol uniforms have shape {np.shape(uniforms)}; expected {(m, spec.d)}")
        uniforms = np.asarray(uniforms, dtype=float)
        if not np.all((uniforms >= 0.0) & (uniforms < 1.0)):
            raise InvalidArgumentError("protocol uniforms must lie in [0, 1)")
    if isinstance(spec, BoundedProductSpec) and np.any(np.abs(block) > 1 + 1e-12):
        raise InvalidArgumentError("bounded-family data must lie in [-1, 1]")
    if uniforms is None and rec.local is _onebit_local and not np.all(np.abs(block) == 1.0):
        # with no uniforms the local step sends x > 0, the bit only on +/-1 data
        raise InvalidArgumentError("one-bit data without uniforms must be -1 or +1")
    qspec = rec.grid(spec, m, n, budget_bits)
    sent = np.stack([rec.local(spec, i, block[i:i + 1],
                               None if uniforms is None else uniforms[i:i + 1])[0]
                     for i in range(m)])
    transcript = rec.encode(spec, qspec, sent)
    return rec.decode(spec, qspec, transcript), transcript, bool(sent[:, spec.d:].any())


# The names bench/spans.py looks up, each one protocol on run_trial.
onebit_bounded_mean = partial(run_trial, "onebit")
uniform_interactive_min = partial(run_trial, "uniform_min")
probit_local_average = partial(run_trial, "probit_avg")


# Ceiling of a simulate config: values in one trial's m * d * n, and trials.
CHUNK_VALUES = 4_000_000

# Working-set budget of estimate_risk: a chunk's trials draw at most this
# many values, m * d * n per trial (32 MB of float64), or one trial's worth
# where a single trial is larger. One machine's row, and the (k, n, d)
# stack its local solver works on, are at most 1/m of that. A machine sends
# at most d * n values per trial, so the message buffer fits too, except
# probit's d + 1 at d = n = 1. The float fusions reduce one trial-major copy
# of the buffer; centralized sends its raw rows, so its fusion holds one
# trial-major copy of its chunk beside the buffer: 2 x 32 MB at the budget.
# The minima (uniform_min's local step, the centralized uniform estimator)
# fold families.MIN_BLOCK values at a time, so their temporaries are at most
# 3/4 of a block, 768 KB, where a fold over the whole row would allocate 3/4
# of it (24 MB at m = 1). Folding in place would write the caller's array
# and, like an allocating first level followed by in-place levels, touches
# the whole row at each level: on a 32 MB row both took 1.7-2.2 times as
# long as the allocating fold, and the blocks 0.8 times.
WORKING_VALUES = 4_000_000


def _chunk_sizes(trials: int, per_trial_values: int):
    chunk = max(1, int(WORKING_VALUES // max(1, per_trial_values)))
    return [min(chunk, trials - start) for start in range(0, trials, chunk)]


def run_chunks(protocol: str, spec, n: int, sizes, data_gens, proto_gens=None,
               budget_bits: int = None):
    """Yield (theta_hat, bits, flagged) of each chunk of sizes[c] trials.

    The run's grid is resolved first, before any draw. Then, machine by
    machine, spec.fill fills one reused row from data_gens[i] (and, for a
    protocol randomized on the spec, the uniforms from proto_gens[i], which
    is not read otherwise and may be None), and the protocol's
    local step writes what the machine sends into plane i of the chunk's
    machine-major (m, k, ...) message buffer; the fusion step then runs on
    the buffer. sizes[0] is the largest chunk.
    """
    rec = PROTOCOLS[protocol]
    qspec = rec.grid(spec, len(data_gens), n, budget_bits)
    row = np.empty((sizes[0], *row_shape(spec, n)))
    randomized = rec.randomized(spec)
    uniforms = np.empty((sizes[0], spec.d)) if randomized else None
    messages = None
    for k in sizes:
        for i, gen in enumerate(data_gens):
            spec.fill(i, gen, row[:k])
            if randomized:
                proto_gens[i].random(out=uniforms[:k])
            sent = rec.local(spec, i, row[:k], uniforms[:k] if randomized else None)
            if messages is None:
                messages = np.empty((len(data_gens), sizes[0], *sent.shape[1:]), sent.dtype)
            messages[i, :k] = sent
        yield rec.fuse(spec, qspec, messages[:, :k])


def estimate_risk(protocol: str, spec, trials: int, seed: int,
                  m: int = None, n: int = None, budget_bits: int = None) -> RiskReport:
    """Run `trials` seeded protocol executions and report risk + bit stats.

    Deterministic given (protocol, spec, trials, seed): data for machine i
    comes from its TAG_DATA stream, protocol randomness from its TAG_PROTOCOL
    stream, trials consuming consecutive blocks. The TAG_PROTOCOL streams are
    built only for a protocol randomized on the spec: the one-bit scheme on
    a law whose data can lie inside (-1, 1), not on two-point data, whose
    bits need no uniforms. Trials run in chunks through
    run_chunks, machine by machine; the results equal run_trial's, trial by
    trial.
    """
    if trials < 2:
        raise InvalidArgumentError("need at least 2 trials for a standard error")
    rec, m, n = _runnable(protocol, spec, m, n, budget_bits)

    theta_true = rec.target(spec.theta)
    sizes = _chunk_sizes(trials, m * spec.d * n)
    chunks = run_chunks(protocol, spec, n, sizes, machine_streams(seed, m, TAG_DATA),
                        machine_streams(seed, m, TAG_PROTOCOL) if rec.randomized(spec) else None,
                        budget_bits)

    sqerr = np.empty(trials)
    bits = np.empty(trials, dtype=np.int64)
    flagged = 0
    pos = 0
    for k, (theta_hat, chunk_bits, chunk_flagged) in zip(sizes, chunks):
        diff = theta_hat - theta_true
        # a stack of (1, d) @ (d, 1) products is one ddot per trial, the same
        # rounding as diff @ diff on a single trial
        sqerr[pos:pos + k] = (diff[:, None, :] @ diff[:, :, None])[:, 0, 0]
        bits[pos:pos + k] = chunk_bits
        flagged += int(np.count_nonzero(chunk_flagged))
        pos += k
    mse_mean = float(sqerr.mean())
    mse_stderr = float(sqerr.std(ddof=1) / math.sqrt(trials))
    return RiskReport(mse_mean=mse_mean, mse_stderr=mse_stderr, trials=trials,
                      bits_mean=float(bits.mean()), bits_max=int(bits.max()),
                      protocol_kind=rec.kind, flagged_trials=flagged)
