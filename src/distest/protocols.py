"""Executable estimation protocols with bit-accounted transcripts.

Each protocol has a reference function that runs one trial and returns a
ProtocolOutput holding the estimate and the exact Transcript it would put on
the wire; tests call these. A reference takes the sample as the array
families.sample returns: (m, d, n) for the mean families, (m, n) responses
for the design families. estimate_risk measures mean-squared error and bit
statistics over many seeded trials without building transcripts. PROTOCOLS
maps each protocol id to its transcript kind, the spec types it runs on, its
run rules and its two steps: a local step that reduces one machine's block
of a chunk of trials to the messages it sends, and a fusion step that turns
the chunk's messages from all machines into the estimates, bit counts and
flags the reference gives trial by trial. run_chunks streams the machines,
so a chunk never holds more than one machine's raw block. There is one
probit solver, probit_mle_batched, a damped Newton on a stack of problems
that share one (n, d) design (or on a (P, n, d) stack of designs); the
probit local step solves all trials of a chunk with it at once, and
probit_mle is that solver on a stack of one. It takes 0/1 responses only,
raises InvalidArgumentError on any other value, and makes one log_ndtr call
per response at each likelihood evaluation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import codec
# transcript_total_bits is not called here; it stays importable from this
# module because instrumentation patches the codec names protocols imports.
from .codec import (INDEPENDENT, INTERACTIVE, BitString, Message, QuantizerSpec,
                    Transcript, bits_for_accuracy, ceil_log2,
                    encode_improvement_message, pack_fields, quantize,
                    dequantize, transcript_total_bits)  # noqa: F401
from .errors import DegenerateDesignError, InvalidArgumentError
# draw_trials is not called here either: run_chunks draws machine by machine
# with spec.fill. It stays importable because bench/spans.py patches it, so
# that tracer's draw counters read 0 on simulate workloads (ROADMAP item 1).
from .families import (TAG_DATA, TAG_PROTOCOL, BoundedProductSpec, DesignSpec,
                       GaussianLocationSpec, MeanSpec, ProbitSpec, RegressionSpec,
                       draw_trials, machine_streams, row_shape,  # noqa: F401
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


@dataclass(eq=False)
class ProtocolOutput:
    theta_hat: np.ndarray
    transcript: Transcript
    info: dict = field(default_factory=dict)


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


# ---------------------------------------------------------------------------
# the achievability schemes

def single_machine_quantized_mean(x, budget_bits: int) -> ProtocolOutput:
    """Transmit the sample mean of [0, 1]-valued data on a budget_bits grid."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise InvalidArgumentError("need a 1-d sample vector")
    if np.any(arr < 0) or np.any(arr > 1):
        raise InvalidArgumentError("samples must lie in [0, 1]")
    if budget_bits < 1:
        raise InvalidArgumentError("budget must be at least one bit")
    spec = QuantizerSpec(0.0, 1.0, budget_bits, codec.ROUND_NEAREST)
    idx = quantize(arr.mean(), spec)
    transcript = Transcript((Message(1, 1, BitString(idx, budget_bits)),), INDEPENDENT)
    return ProtocolOutput(np.array([dequantize(idx, spec)]), transcript)


def _mean_blocks(samples):
    """The (m, d, n) blocks of one mean-family sample, and m, d, n."""
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 3:
        raise InvalidArgumentError(f"need (m, d, n) blocks; got shape {arr.shape}")
    return (arr, *arr.shape)


def gaussian_quantized_average(samples, sigma: float) -> ProtocolOutput:
    """Truncate-quantize-average for the normal location family.

    Each machine sends its local mean, truncated coordinatewise to
    [-1 - sigma/sqrt(n), 1 + sigma/sqrt(n)] and quantized to cell width
    sigma^2/(mn) (round to nearest); the fusion center averages.
    """
    x, m, _, n = _mean_blocks(samples)
    spec = _gauss_qavg_grid(sigma, m, n)
    means = x.mean(axis=2)                        # (m, d)
    idx = quantize(means, spec)
    messages = tuple(Message(i + 1, 1, pack_fields(idx[i], spec.bits)) for i in range(m))
    theta_hat = dequantize(idx, spec).mean(axis=0)
    return ProtocolOutput(theta_hat, Transcript(messages, INDEPENDENT))


def onebit_bounded_mean(samples, uniforms) -> ProtocolOutput:
    """One bit per coordinate: machine i sends Z_ij ~ Bernoulli((1 + X_ij)/2).

    uniforms is the (m, d) array U with machine i's TAG_PROTOCOL uniforms in
    row i, as estimate_risk draws them, and Z_ij = [U_ij < (1 + X_ij)/2]. The
    fusion estimate mean(2 Z - 1) is unbiased for theta.
    """
    blocks, m, d, n = _mean_blocks(samples)
    if n != 1:
        raise InvalidArgumentError("the one-bit scheme needs n = 1 per machine")
    x = blocks[:, :, 0]
    if np.any(np.abs(x) > 1 + 1e-12):
        raise InvalidArgumentError("one-bit inputs must lie in [-1, 1]")
    if np.shape(uniforms) != (m, d):
        raise InvalidArgumentError(
            f"protocol uniforms have shape {np.shape(uniforms)}; expected {(m, d)}")
    z = (uniforms < (1.0 + x) / 2.0)
    powers = np.array([1 << k for k in range(d - 1, -1, -1)], dtype=object)
    vals = (z * powers).sum(axis=1)
    messages = tuple(Message(i + 1, 1, BitString(int(vals[i]), d)) for i in range(m))
    theta_hat = (2.0 * z - 1.0).mean(axis=0)
    return ProtocolOutput(theta_hat, Transcript(messages, INDEPENDENT))


def uniform_interactive_min(samples) -> ProtocolOutput:
    """Interactive minimum protocol for the uniform location family.

    Machine 1 broadcasts all d local minima quantized on [-2, 2] to cell
    width (mn)^-2 rounding down; machines 2..m in index order broadcast only
    the coordinates that strictly improve the running state s, as an index
    list plus quantized values; the output is s + 1. info["improved"] is
    the (m, d) mask of the coordinates each machine sent.
    """
    x, m, d, n = _mean_blocks(samples)
    vbits = uniform_min_value_bits(m, n)
    spec = QuantizerSpec(-2.0, 2.0, vbits, codec.ROUND_DOWN)
    local_min = x.min(axis=2)                     # (m, d)

    idx0 = quantize(np.clip(local_min[0], -2.0, 2.0), spec)
    state = dequantize(idx0, spec)
    messages = [Message(1, 1, pack_fields(idx0, vbits))]
    improved = np.zeros((m, d), dtype=bool)
    improved[0] = True
    for i in range(1, m):
        better = np.nonzero(local_min[i] < state)[0]
        if better.size:
            idx = quantize(local_min[i, better], spec)
            state[better] = dequantize(idx, spec)
            payload = encode_improvement_message(better, np.atleast_1d(idx), d, vbits)
            improved[i, better] = True
        else:
            payload = BitString()
        messages.append(Message(i + 1, i + 1, payload))
    return ProtocolOutput(np.asarray(state) + 1.0, Transcript(tuple(messages), INTERACTIVE),
                          {"improved": improved})


def _local_solver(design):
    """A machine's solve operator (A^T A)^-1 A^T."""
    try:
        return np.linalg.solve(design.T @ design, design.T)
    except np.linalg.LinAlgError as err:
        raise DegenerateDesignError(f"singular local Gram: {err}") from err


def regression_local_average(spec: RegressionSpec, responses) -> ProtocolOutput:
    """Average of truncated, quantized local least-squares solutions.

    Coordinates are quantized on [-1, 1] to cell width 1/(mn); the honest
    charge is d * ceil(log2(2mn)) bits per machine, one bit per coordinate
    more than the nominal ceil(d log2(mn)) count, which is reported in info.
    """
    m, n, d = spec.m, spec.n, spec.d
    y = np.asarray(responses, dtype=float)
    if y.shape != (m, n):
        raise InvalidArgumentError(f"responses must have shape {(m, n)}")
    qspec = _local_average_grid(m, n)
    local = np.stack([_local_solver(spec.designs[i]) @ y[i] for i in range(m)])
    idx = quantize(np.clip(local, -1.0, 1.0), qspec)
    messages = tuple(Message(i + 1, 1, pack_fields(idx[i], qspec.bits)) for i in range(m))
    theta_hat = dequantize(idx, qspec).mean(axis=0)
    return ProtocolOutput(theta_hat, Transcript(messages, INDEPENDENT),
                          {"nominal_bits_per_machine": math.ceil(d * math.log2(m * n))})


def _row_dots(x, y):
    """x[p] @ y[p] for each row of two (P, n) stacks: one ddot per row, the
    BLAS call (and rounding) of the 1-d product."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def _rows(x, idx):
    """x[idx] of a (P, n, d) stack of designs; a shared (n, d) design is
    every problem's, so it is returned as it is."""
    return x if x.ndim == 2 else x[idx]


def probit_mle_batched(design, z, max_iter: int = 100, grad_tol: float = 1e-9,
                       diverge_norm: float = 1e3):
    """Damped Newton ascent of the concave probit log-likelihood on P
    problems at once: z (P, n) of 0/1 responses, and a design that is one
    (n, d) matrix all problems share or a (P, n, d) stack.

    A response other than 0 or 1 raises InvalidArgumentError. With
    sign = 2 z - 1 and s = sign * (a @ theta), response j has likelihood
    Phi(s_j), so each evaluation makes one log_ndtr call. Returns theta
    (P, d) and flagged (P,); flagged marks separation, detected by the
    iterate norm exceeding diverge_norm or by a singular Newton system, in
    which case the iterate clipped to [-1, 1] is returned. Each product is a
    stack of the one-problem product, which numpy sends to the same BLAS
    call (a shared design is broadcast, never copied), so a problem gets the
    same bytes alone as in any stack. The line search halves one step size
    for all problems still searching; their rows are gathered once per
    Newton step and again only after a halving that some problem accepts.
    """
    log_ndtr = sys.modules[__name__].log_ndtr
    design = np.asarray(design, dtype=float)
    z = np.asarray(z, dtype=float)
    if not np.all((z == 0.0) | (z == 1.0)):
        raise InvalidArgumentError("probit responses must be 0 or 1")
    sign = 2.0 * z - 1.0
    p, d = len(z), design.shape[-1]
    theta = np.zeros((p, d))
    flagged = np.zeros(p, dtype=bool)

    def loglik(a, zs, sg, th):
        # summed per side, each dot product with exact zeros in the other
        # side's places, so it rounds as z @ log Phi(u) + (1 - z) @ log Phi(-u)
        # does and the golden outputs hold; s and log_ndtr(s) are reused
        s = sg * (a @ th[..., None])[..., 0]
        ls = log_ndtr(s)
        return _row_dots(zs, ls) + _row_dots(1.0 - zs, ls), s, ls

    ll, *at_theta = loglik(design, z, sign, theta)
    live = np.arange(p)       # problems still iterating
    for _ in range(max_iter):
        if not live.size:
            break
        # the live problems' s and log_ndtr(s) at theta, copied out of the
        # loglik that accepted it (no array log_ndtr saw is written)
        a, zs, sg = _rows(design, live), z[live], sign[live]
        s, ls = at_theta
        # lam = phi(s) / Phi(s), the inverse Mills ratio
        lam = np.exp(-s * s / 2.0 - 0.5 * math.log(2 * math.pi) - ls)
        grad = (np.swapaxes(a, -1, -2) @ (sg * lam)[..., None])[..., 0]
        going = ~(np.sqrt(_row_dots(grad, grad)) < grad_tol)
        live, zs, sg, s, lam, grad = (x[going] for x in (live, zs, sg, s, lam, grad))
        a = _rows(a, going)
        weights = lam * (lam + s)
        hess = np.swapaxes(a, -1, -2) @ (weights[..., None] * a)
        try:
            step = np.linalg.solve(hess, grad[..., None])[..., 0]
        except np.linalg.LinAlgError:
            # some Hessian is singular: solve problem by problem, and flag and
            # stop each singular one
            step = np.zeros_like(grad)
            solved = np.ones(live.size, dtype=bool)
            for j in range(live.size):
                try:
                    step[j] = np.linalg.solve(hess[j], grad[j])
                except np.linalg.LinAlgError:
                    solved[j] = False
            stopped = live[~solved]
            flagged[stopped] = True
            theta[stopped] = np.clip(theta[stopped], -1.0, 1.0)
            live, zs, sg, step = (x[solved] for x in (live, zs, sg, step))
            a = _rows(a, solved)
        accepted = np.zeros(live.size, dtype=bool)
        at_theta = [np.empty_like(zs) for _ in range(2)]
        # the searching problems' positions in live; a, zs, sg, ths, step
        # and lls hold their rows, and only an accepting halving shrinks them
        searching = np.arange(live.size)
        ths, lls = theta[live], ll[live]
        t = 1.0
        while t > 2**-30 and searching.size:
            cand = ths + t * step
            cand_ll, *at_cand = loglik(a, zs, sg, cand)
            up = cand_ll > lls
            if up.any():
                hit = searching[up]
                theta[live[hit]], ll[live[hit]] = cand[up], cand_ll[up]
                for x, x_cand in zip(at_theta, at_cand):
                    x[hit] = x_cand[up]
                accepted[hit] = True
                still = ~up
                searching, zs, sg, ths, step, lls = (
                    x[still] for x in (searching, zs, sg, ths, step, lls))
                a = _rows(a, still)
            t *= 0.5
        live = live[accepted]     # the others failed every halving and stop
        th = theta[live]
        diverged = np.sqrt(_row_dots(th, th)) > diverge_norm
        flagged[live[diverged]] = True
        theta[live[diverged]] = np.clip(th[diverged], -1.0, 1.0)
        kept = np.flatnonzero(accepted)[~diverged]
        live = live[~diverged]
        at_theta = [x[kept] for x in at_theta]
    return theta, flagged


def probit_mle(design, z, max_iter: int = 100, grad_tol: float = 1e-9,
               diverge_norm: float = 1e3):
    """probit_mle_batched on one problem: design (n, d) and n responses z.
    Returns theta (d,) and flagged as a bool."""
    theta, flagged = probit_mle_batched(design, np.asarray(z)[None], max_iter, grad_tol,
                                        diverge_norm)
    return theta[0], bool(flagged[0])


def probit_local_average(spec: ProbitSpec, responses) -> ProtocolOutput:
    """Average of truncated, quantized local probit MLEs (same grid as the
    regression scheme). Separation at any machine flags the run in info."""
    m, n, d = spec.m, spec.n, spec.d
    z = np.asarray(responses, dtype=float)
    if z.shape != (m, n):
        raise InvalidArgumentError(f"responses must have shape {(m, n)}")
    qspec = _local_average_grid(m, n)
    local = np.empty((m, d))
    flagged = 0
    for i in range(m):
        est, flag = probit_mle(spec.designs[i], z[i])
        local[i] = est
        flagged += int(flag)
    idx = quantize(np.clip(local, -1.0, 1.0), qspec)
    messages = tuple(Message(i + 1, 1, pack_fields(idx[i], qspec.bits)) for i in range(m))
    theta_hat = dequantize(idx, qspec).mean(axis=0)
    return ProtocolOutput(theta_hat, Transcript(messages, INDEPENDENT),
                          {"flagged": flagged})


def centralized_baseline(spec, samples):
    """The family's estimator on the pooled sample, spec.pooled on a stack
    of one, and whether it is flagged (only the probit MLE can be)."""
    x = np.asarray(samples, dtype=float)
    run_shape(spec, len(x), x.shape[-1])
    theta_hat, flagged = spec.pooled(x[None])
    return theta_hat[0], bool(flagged[0])


# ---------------------------------------------------------------------------
# streaming kernels
#
# estimate_risk runs a chunk of k trials machine by machine, the way the
# protocols run: machine i's data is one reused row, (k, d, n) for the mean
# families and (k, n) for the design families, and a randomized protocol gets
# the machine's (k, d) TAG_PROTOCOL uniforms with it (None otherwise). A
# protocol's local step reduces the row to what the machine puts on the wire,
# (k, ...), which fills machine i's column of the chunk's (k, m, ...) message
# buffer. Its fusion step turns the buffer into theta_hat (k, d), bits (k,)
# and flagged (k,), equal trial by trial to what the reference function above
# gives for that trial, and builds no transcript. The buffer is C-contiguous
# in the references' (machine, coordinate) order, so a float reduction over
# machines adds in their order.

def _fixed(k: int, bits: int):
    """bits and flagged of a chunk whose transcripts all have one length."""
    return np.full(k, bits, dtype=np.int64), np.zeros(k, dtype=bool)


def _single_mean_local(spec, i, row, uniforms):
    # the mean of the [0, 1] image (1 + x) / 2, as the reference averages it;
    # the row is scratch that the next draw refills, so it is mapped in place
    row += 1.0
    row /= 2.0
    return row.mean(axis=2)


def _single_mean_fuse(spec, messages, n, budget_bits):
    if budget_bits < 1:
        raise InvalidArgumentError("budget must be at least one bit")
    qspec = QuantizerSpec(0.0, 1.0, budget_bits, codec.ROUND_NEAREST)
    return (dequantize(quantize(messages[:, 0], qspec), qspec),
            *_fixed(len(messages), budget_bits))


def _gauss_qavg_fuse(spec, messages, n, budget_bits):
    k, m, d = messages.shape
    qspec = _gauss_qavg_grid(spec.sigma, m, n)
    idx = quantize(messages, qspec)
    return dequantize(idx, qspec).mean(axis=1), *_fixed(k, m * d * qspec.bits)


def _onebit_fuse(spec, messages, n, budget_bits):
    k, m, d = messages.shape
    # the sum of m values of +/-1 is an exact integer, so this equals
    # mean(2 z - 1) bit for bit
    ones = messages.sum(axis=1)
    return (2.0 * ones - m) / m, *_fixed(k, m * d)


def _uniform_min_fuse(spec, local_min, n, budget_bits):
    k, m, d = local_min.shape
    vbits = uniform_min_value_bits(m, n)
    qspec = QuantizerSpec(-2.0, 2.0, vbits, codec.ROUND_DOWN)
    # Round-down quantization is monotone, so the fusion state after machine
    # i is q(min_{j <= i} local_min_j), and machine i > 0 sends exactly the
    # coordinates where local_min_i < state_{i-1}.
    state = dequantize(quantize(np.minimum.accumulate(local_min, axis=1), qspec), qspec)
    improvements = np.count_nonzero(local_min[:, 1:] < state[:, :-1], axis=(1, 2))
    bits = d * vbits + improvements * (ceil_log2(d) + vbits)
    return state[:, -1] + 1.0, bits, np.zeros(k, dtype=bool)


def _regress_local(spec, i, row, uniforms):
    # a stack of matrix-vector products: one gemv per trial, the same BLAS
    # call (and rounding) as solvers[i] @ y[i] in the reference
    return (_local_solver(spec.designs[i]) @ row[..., None])[..., 0]


def _average_fuse(spec, sent, n, budget_bits):
    """Fusion of the averaging schemes: truncate the (k, m, d) local
    solutions, quantize on the 1/(mn) grid, average. A probit message
    carries the solver's flag as one more value after them."""
    local = sent[..., :spec.d]
    k, m, d = local.shape
    qspec = _local_average_grid(m, n)
    idx = quantize(np.clip(local, -1.0, 1.0), qspec)
    return (dequantize(idx, qspec).mean(axis=1), np.full(k, m * d * qspec.bits, dtype=np.int64),
            sent[..., d:].any(axis=(1, 2)))


def _probit_local(spec, i, row, uniforms):
    # one batched Newton over the chunk's trials, which share the machine's design
    theta, flagged = probit_mle_batched(spec.designs[i], row)
    return np.column_stack((theta, flagged))


def _centralized_fuse(spec, pooled, n, budget_bits):
    theta_hat, flagged = spec.pooled(pooled)
    return theta_hat, np.zeros(len(pooled), dtype=np.int64), flagged


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


# ---------------------------------------------------------------------------
# Monte Carlo risk measurement

@dataclass(frozen=True)
class Protocol:
    """One protocol id: what estimate_risk needs to run it."""

    kind: str                 # transcript kind reported in the RiskReport
    accepts: tuple            # spec types the protocol runs on
    local: Callable           # (spec, i, row, uniforms) -> machine i's (k, ...) messages
    fuse: Callable            # (spec, messages, n, budget_bits) -> (theta_hat, bits, flagged)
    bound: str = None         # lower-bound formula id replacing the family's
    randomized: bool = False  # the local step reads (k, d) TAG_PROTOCOL uniforms
    check: Callable = lambda spec, m, n, budget_bits: None  # raises on a run it refuses
    target: Callable = lambda theta: theta    # theta -> what the estimate is scored against


PROTOCOLS = {
    # single_mean works on [0, 1]; the bounded family maps to it affinely
    "single_mean": Protocol(INDEPENDENT, (BoundedProductSpec,), _single_mean_local,
                            _single_mean_fuse, bound="prop1", check=_single_mean_check,
                            target=lambda theta: (1.0 + theta) / 2.0),
    "gauss_qavg": Protocol(INDEPENDENT, (GaussianLocationSpec,),
                           lambda spec, i, row, u: row.mean(axis=2), _gauss_qavg_fuse),
    # Proposition 2's scheme is for data in [-1, 1]^d: the bounded family only
    "onebit": Protocol(INDEPENDENT, (BoundedProductSpec,),
                       lambda spec, i, row, u: u < (1.0 + row[..., 0]) / 2.0, _onebit_fuse,
                       bound="prop2", randomized=True, check=_onebit_check),
    "uniform_min": Protocol(INTERACTIVE, (MeanSpec,), lambda spec, i, row, u: row.min(axis=2),
                            _uniform_min_fuse),
    "regress_avg": Protocol(INDEPENDENT, (DesignSpec,), _regress_local, _average_fuse),
    "probit_avg": Protocol(INDEPENDENT, (ProbitSpec,), _probit_local, _average_fuse),
    # the centralized estimator sees all the data: each machine sends its row
    "centralized": Protocol("centralized", (MeanSpec, DesignSpec), lambda spec, i, row, u: row,
                            _centralized_fuse),
}


# Ceiling of a simulate config: values in one trial's m * d * n, and trials.
CHUNK_VALUES = 4_000_000

# Working-set budget of estimate_risk: a chunk's trials draw at most this
# many values, m * d * n per trial (32 MB of float64), or one trial's worth
# where a single trial is larger. One machine's row, and the (k, n, d)
# stack its local solver works on, are at most 1/m of that. A machine sends
# at most d * n values per trial, so the message buffer fits too, except
# probit's d + 1 at d = n = 1.
WORKING_VALUES = 4_000_000


def _chunk_sizes(trials: int, per_trial_values: int):
    chunk = max(1, int(WORKING_VALUES // max(1, per_trial_values)))
    return [min(chunk, trials - start) for start in range(0, trials, chunk)]


def run_chunks(protocol: str, spec, n: int, sizes, data_gens, proto_gens=None,
               budget_bits: int = None):
    """Yield (theta_hat, bits, flagged) of each chunk of sizes[c] trials.

    Machine by machine, spec.fill fills one reused row from data_gens[i] (and
    a randomized protocol's uniforms from proto_gens[i]), and the protocol's
    local step writes what the machine sends into the chunk's message buffer;
    the fusion step then runs on the buffer. sizes[0] is the largest chunk.
    """
    rec = PROTOCOLS[protocol]
    row = np.empty((sizes[0], *row_shape(spec, n)))
    uniforms = np.empty((sizes[0], spec.d)) if rec.randomized else None
    messages = None
    for k in sizes:
        for i, gen in enumerate(data_gens):
            spec.fill(i, gen, row[:k])
            if rec.randomized:
                proto_gens[i].random(out=uniforms[:k])
            sent = rec.local(spec, i, row[:k], uniforms[:k] if rec.randomized else None)
            if messages is None:
                messages = np.empty((sizes[0], len(data_gens), *sent.shape[1:]), sent.dtype)
            messages[:k, i] = sent
        yield rec.fuse(spec, messages[:k], n, budget_bits)


def estimate_risk(protocol: str, spec, trials: int, seed: int,
                  m: int = None, n: int = None, budget_bits: int = None) -> RiskReport:
    """Run `trials` seeded protocol executions and report risk + bit stats.

    Deterministic given (protocol, spec, trials, seed): data for machine i
    comes from its TAG_DATA stream, protocol randomness from its TAG_PROTOCOL
    stream, trials consuming consecutive blocks. Trials run in chunks through
    run_chunks, machine by machine; the results equal those of the reference
    functions, trial by trial.
    """
    if trials < 2:
        raise InvalidArgumentError("need at least 2 trials for a standard error")
    rec = PROTOCOLS.get(protocol)
    if rec is None:
        raise InvalidArgumentError(f"unknown protocol id {protocol!r}")
    m, n = run_shape(spec, m, n)
    rec.check(spec, m, n, budget_bits)
    if not isinstance(spec, rec.accepts):
        raise InvalidArgumentError(
            f"protocol {protocol!r} does not run on {type(spec).__name__}")

    theta_true = rec.target(spec.theta)
    sizes = _chunk_sizes(trials, m * spec.d * n)
    chunks = run_chunks(protocol, spec, n, sizes, machine_streams(seed, m, TAG_DATA),
                        machine_streams(seed, m, TAG_PROTOCOL) if rec.randomized else None,
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
