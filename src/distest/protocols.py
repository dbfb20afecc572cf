"""Executable estimation protocols with bit-accounted transcripts.

PROTOCOLS maps each protocol id to a Protocol: the spec types it runs on,
its run rules, its wire grid and its steps. The local step reduces one
machine's block of a chunk of trials to what that machine sends, and the
fusion step turns all machines' messages into estimates, bit counts and
flags. Every entry but centralized, which sends raw data, also has an encode
(one trial's messages to a Transcript) and a decode (the estimate from that
Transcript, spec.d and the grid alone). There are two message kinds:
fixed-width fields on the grid, a one-bit message being d 1-bit fields, and
improvement lists (uniform_min).

run_trial runs one trial through encode and decode; estimate_risk runs many
through run_chunks, which builds no transcript. Machine i writes what it
sends into plane i of a chunk's machine-major (m, k, ...) message buffer.
The exact fusions (a count, a minimum) reduce whole planes; a float sum over
machines rounds by memory layout, so the float fusions reduce one C-ordered
trial-major copy, adding in the machines' order as run_trial does. Only the
one-bit scheme draws uniforms, and only off two-point data: on +/-1 data its
bit u < (1 + x) / 2 is x > 0 for every u in [0, 1).

Where a message depends on the raw draw alone, a Protocol's raw step reads
spec.draw's row and skips the family's map spec.finish: the one-bit bit on
two-point data is fill's own comparison u < (1 + theta_j) / 2, and the
interactive minimum is the family's finished_min of the raw row. The steps
on the finished row stay, as run_trial's path and the oracle the raw steps
are tested against.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import codec, families
# transcript_total_bits and draw_trials are not called here: bench/spans.py
# patches them by name (ROADMAP item 1).
from .codec import (INDEPENDENT, INTERACTIVE, Message, QuantizerSpec, Transcript,
                    bits_for_accuracy, ceil_log2, decode_improvement_message,
                    encode_improvement_message, pack_fields, quantize, dequantize,
                    transcript_total_bits, unpack_fields)  # noqa: F401
from .errors import DegenerateDesignError, InvalidArgumentError, check_integer
from .families import (TAG_DATA, TAG_PROTOCOL, TWO_POINT, BoundedProductSpec, DesignSpec,
                       GaussianLocationSpec, MeanSpec, ProbitSpec,
                       draw_trials, machine_streams, min_last_axis, row_shape,  # noqa: F401
                       run_shape)


def __getattr__(name):
    # scipy.special is most of the import time and only the probit solver
    # needs it, so log_ndtr is imported on first use, as protocols.log_ndtr.
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
# wire grids and bit accounting

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


# The probit solver's exit settings. TAU is the Newton decrement, in ulps of
# |ll|, under which a step is not searched.
TAU = 1.0
MAX_ITER = 100
GRAD_TOL = 1e-9
DIVERGE_NORM = 1e3


def probit_mle_batched(design, z):
    """Damped Newton ascent of the concave probit log-likelihood for P
    problems that share one (n, d) design, z (P, n) holding their 0/1
    responses. Returns theta (P, d) and flagged (P,). Raises
    InvalidArgumentError on any other shape, a non-finite design entry or a
    response other than 0 or 1.

    With s = (2 z - 1) * (design @ theta), response j has likelihood
    Phi(s_j), so an evaluation makes one log_ndtr call. A problem stops on a
    gradient norm under GRAD_TOL, after MAX_ITER iterations, on a Newton step
    that fails all 30 halvings, or on a Newton decrement grad @ step under
    TAU ulps of |ll|, where the quadratic model predicts a rise under half an
    ulp, which only rounding could give. It is flagged, and its iterate
    clipped to [-1, 1], on a singular Newton system, an iterate norm over
    DIVERGE_NORM, or an exit iterate with every s_j > 0 on the design's
    nonzero rows, which separates the data so that no MLE exists; a zero row
    has s_j = 0 at every theta, so every local problem on the identity
    design is flagged. A problem gets the same bytes alone as in any stack:
    each product is a stack of the one-problem product, the same BLAS call."""
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
    sign = 2.0 * z - 1.0
    theta = np.zeros((len(z), design.shape[1]))
    flagged = np.zeros(len(z), dtype=bool)
    stopped = np.zeros(len(z), dtype=bool)   # by a step that cannot raise ll

    def loglik(zs, sg, th):
        # summed per side, with exact zeros in the other side's places, so it
        # rounds as z @ log Phi(u) + (1 - z) @ log Phi(-u); s and ls are reused
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
    for _ in range(MAX_ITER):
        if not live.size:
            break
        sl = s[live]
        # lam = phi(s) / Phi(s), the inverse Mills ratio
        lam = np.exp(-sl * sl / 2.0 - 0.5 * math.log(2 * math.pi) - ls[live])
        grad = (design.T @ (sign[live] * lam)[..., None])[..., 0]
        going = ~(np.sqrt(_row_dots(grad, grad)) < GRAD_TOL)
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
        # stopped as an exhausted search would be, without its halvings
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
        diverged = np.sqrt(_row_dots(th, th)) > DIVERGE_NORM
        separated(live[diverged])
        live = live[~diverged]
    informative = design.any(axis=1)
    separated(np.flatnonzero(~flagged & (s[:, informative] > 0).all(axis=1)
                             & informative.any()))
    return theta, flagged


def probit_mle(design, z):
    """probit_mle_batched on one problem: design (n, d) and n responses z.
    Returns theta (d,) and flagged as a bool."""
    theta, flagged = probit_mle_batched(design, np.asarray(z)[None])
    return theta[0], bool(flagged[0])


# ---------------------------------------------------------------------------
# local and fusion steps: a local step maps machine i's (k, ...) row, and its
# (k, d) uniforms or None, to its (k, ...) messages; a fusion step maps the
# (m, k, ...) message buffer to theta_hat (k, d), bits (k,) and flagged (k,)

def _single_mean_local(spec, i, row, uniforms):
    # the mean of (1 + x) / 2, mapped in place: the next draw refills the row
    row += 1.0
    row /= 2.0
    return row.mean(axis=2)


def _onebit_local(spec, i, row, uniforms):
    # the bits u < (1 + x) / 2, mapped in place; with no uniforms, x > 0
    if uniforms is None:
        if not np.all(np.abs(row) == 1.0):
            raise InvalidArgumentError("one-bit data without uniforms must be -1 or +1")
        return row[..., 0] > 0.0
    x = row[..., 0]
    x += 1.0
    x /= 2.0
    return uniforms < x


def _onebit_raw(spec, k):
    # two-point x is +1 exactly where fill's uniform u < (1 + theta_j) / 2,
    # so the bit x > 0 is that comparison on the raw row, made against a
    # contiguous threshold block of at most families.BLOCK_VALUES values:
    # against the broadcast (d,) thresholds numpy's inner loop ran d values
    # at a time, 3 times as long
    if spec.law != TWO_POINT:
        return None
    block = min(k, max(1, families.BLOCK_VALUES // spec.d))
    threshold = np.tile((1.0 + spec.theta) / 2.0, (block, 1))

    def local(raw):
        u = raw[..., 0]
        bits = np.empty(u.shape, dtype=bool)
        for s in range(0, len(u), block):
            np.less(u[s:s + block], threshold[:len(u) - s], out=bits[s:s + block])
        return bits
    return local


def _onebit_fuse(spec, qspec, messages):
    m, k, d = messages.shape
    # an exact integer sum (m < 2^31), so this is the mean of the decoded
    # cells 2 z - 1 bit for bit; the buffer stays bools, one byte per value
    ones = messages.sum(axis=0, dtype=np.int32)
    return (2.0 * ones - m) / m, np.full(k, m * d, dtype=np.int64), np.zeros(k, dtype=bool)


def _uniform_min_fuse(spec, qspec, local_min):
    m, k, d = local_min.shape
    # Round-down quantization is monotone, so the state after machine i is
    # q(min_{j <= i} local_min_j), and machine i > 0 sends exactly the
    # coordinates where local_min_i < state_{i-1}. The running minimum goes
    # plane by plane: numpy's accumulate over axis 0 pays per (k, d) row.
    running = np.empty_like(local_min)
    running[0] = local_min[0]
    for i in range(1, m):
        np.minimum(running[i - 1], local_min[i], out=running[i])
    state = dequantize(quantize(running, qspec), qspec)
    improvements = (local_min[1:] < state[:-1]).sum(axis=0).sum(axis=1)
    bits = d * qspec.bits + improvements * (ceil_log2(d) + qspec.bits)
    return state[-1] + 1.0, bits, np.zeros(k, dtype=bool)


def _regress_local(spec, i, row, uniforms):
    # one gemv per trial: the rounding of the solver on one trial's responses
    return (_local_solver(spec.designs[i]) @ row[..., None])[..., 0]


def _average_fuse(spec, qspec, sent):
    """Fusion of the averaging schemes: the machines' mean of the (m, k, d)
    local values quantized on the grid. A probit message carries the
    solver's flag as one more value."""
    local = sent[..., :spec.d]
    m, k, d = local.shape
    # quantize's clamp to the grid is the truncation
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
# the two message kinds: encode maps one trial's (m, ...) messages to its
# Transcript, and decode maps the Transcript to theta_hat

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
    """One protocol id: the rules and steps run_trial and estimate_risk use."""

    kind: str                 # transcript kind reported in the RiskReport
    accepts: tuple            # spec types the protocol runs on
    local: Callable           # (spec, i, row, uniforms) -> machine i's (k, ...) messages
    grid: Callable            # (spec, m, n, budget_bits) -> the run's QuantizerSpec or None
    # the steps take the run's grid; the defaults are the averaging schemes'
    fuse: Callable = _average_fuse      # (spec, qspec, messages) -> (theta_hat, bits, flagged)
    encode: Callable = _encode_fields   # (spec, qspec, sent) -> one trial's Transcript
    decode: Callable = _decode_fields   # (spec, qspec, transcript) -> theta_hat
    bound: str = None         # lower-bound formula id replacing the family's
    # spec -> whether the local step reads (k, d) TAG_PROTOCOL uniforms
    randomized: Callable = lambda spec: False
    # (spec, k) -> a local step on a mean family's raw draw of up to k trials,
    # raw -> the same messages as local on the filled row; or None
    raw: Callable = lambda spec, k: None
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
                       randomized=lambda spec: spec.law != TWO_POINT, raw=_onebit_raw),
    "uniform_min": Protocol(INTERACTIVE, (MeanSpec,), lambda spec, i, row, u: min_last_axis(row),
                            lambda spec, m, n, budget_bits: QuantizerSpec(
                                -2.0, 2.0, uniform_min_value_bits(m, n), codec.ROUND_DOWN),
                            _uniform_min_fuse, _encode_improvements, _decode_improvements,
                            raw=lambda spec, k: spec.finished_min),
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
    if budget_bits is not None:
        check_integer(budget_bits, "budget_bits")
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
    families.sample returns, theta_hat decoded from the transcript alone.
    uniforms is an (m, d) array in [0, 1), row i machine i's TAG_PROTOCOL
    uniforms, which a randomized protocol needs. flagged is whether a
    machine's probit solver flagged its problem. Raises InvalidArgumentError
    on a wrong shape, a run the protocol refuses, bounded data outside
    [-1, 1], one-bit data without uniforms that is not +/-1, or centralized,
    which has no transcript."""
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


# Working-set budget of estimate_risk, in values: a chunk's trials draw at
# most this many (32 MB of float64), or one trial's where a trial is larger.
# cli refuses a config with more values in one trial, or more trials, so a
# one-trial chunk keeps to it. A run holds one machine's row, 1/m of them,
# beside the message buffer, which fits the budget too (but for probit's
# d + 1 values at d = n = 1). The centralized fusion copies its raw rows
# trial-major, so it holds 2 x 32 MB. The one-bit scheme on two-point data
# adds one threshold block, built once per run, of at most
# families.BLOCK_VALUES (512 KB).
WORKING_VALUES = 4_000_000


def _chunk_sizes(trials: int, per_trial_values: int):
    chunk = max(1, int(WORKING_VALUES // max(1, per_trial_values)))
    return [min(chunk, trials - start) for start in range(0, trials, chunk)]


def run_chunks(protocol: str, spec, n: int, sizes, data_gens, proto_gens=None,
               budget_bits: int = None):
    """Yield (theta_hat, bits, flagged) of each chunk of sizes[c] trials,
    sizes[0] the largest. data_gens[i] feeds machine i's spec.fill, or its
    spec.draw where rec.raw gives a local step on the raw draw, and
    proto_gens[i] its uniforms where the protocol is randomized on the spec
    (proto_gens is not read otherwise and may be None). The grid and the
    raw step are resolved before the first draw."""
    rec = PROTOCOLS[protocol]
    qspec = rec.grid(spec, len(data_gens), n, budget_bits)
    row = np.empty((sizes[0], *row_shape(spec, n)))
    randomized = rec.randomized(spec)
    uniforms = np.empty((sizes[0], spec.d)) if randomized else None
    raw = rec.raw(spec, sizes[0])
    messages = None
    for k in sizes:
        for i, gen in enumerate(data_gens):
            if raw is not None:
                spec.draw(gen, row[:k])
                sent = raw(row[:k])
            else:
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
    """RiskReport of `trials` >= 2 seeded runs of protocol on spec, each
    trial's values equal to run_trial's. Deterministic given the arguments:
    machine i draws its data from its TAG_DATA stream and, for a randomized
    protocol, its uniforms from its TAG_PROTOCOL stream, trial after trial.
    m and n follow families.run_shape. Raises InvalidArgumentError on a run
    the protocol refuses."""
    check_integer(trials, "trials")
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
        # one ddot per trial: the rounding of diff @ diff on one trial
        sqerr[pos:pos + k] = (diff[:, None, :] @ diff[:, :, None])[:, 0, 0]
        bits[pos:pos + k] = chunk_bits
        flagged += int(np.count_nonzero(chunk_flagged))
        pos += k
    mse_mean = float(sqerr.mean())
    mse_stderr = float(sqerr.std(ddof=1) / math.sqrt(trials))
    return RiskReport(mse_mean=mse_mean, mse_stderr=mse_stderr, trials=trials,
                      bits_mean=float(bits.mean()), bits_max=int(bits.max()),
                      protocol_kind=rec.kind, flagged_trials=flagged)
