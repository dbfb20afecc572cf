"""Executable estimation protocols with bit-accounted transcripts.

Each protocol has a reference function that runs one trial and returns a
ProtocolOutput holding the estimate and the exact Transcript it would put on
the wire; tests call these. A reference takes the sample as the array
families.sample returns, which is the kernels' per-trial block blocks[t]:
(m, d, n) for the mean families, (m, n) responses for the design families.
estimate_risk measures mean-squared error and bit statistics over many
seeded trials without building transcripts: PROTOCOLS maps each protocol id
to its transcript kind, the spec types it runs on and a kernel that runs a
whole chunk of trials as arrays, with the reference's estimates and bit
counts trial by trial. The probit kernels solve all trials of a chunk at
once with probit_mle_batched, which repeats probit_mle operation for
operation on a stack of problems.
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
from .families import (TAG_DATA, TAG_PROTOCOL, BoundedProductSpec, DesignSpec,
                       GaussianLocationSpec, MeanSpec, ProbitSpec,
                       RegressionSpec, UniformLocationSpec, draw_trials,
                       machine_rows, machine_streams, run_shape)


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


def _local_least_squares(spec: RegressionSpec):
    """Per-machine solve operators (A^T A)^-1 A^T, computed once."""
    solvers = []
    for a in spec.designs:
        gram = a.T @ a
        try:
            solvers.append(np.linalg.solve(gram, a.T))
        except np.linalg.LinAlgError as err:
            raise DegenerateDesignError(f"singular local Gram: {err}") from err
    return solvers


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
    solvers = _local_least_squares(spec)
    qspec = _local_average_grid(m, n)
    local = np.stack([solvers[i] @ y[i] for i in range(m)])
    idx = quantize(np.clip(local, -1.0, 1.0), qspec)
    messages = tuple(Message(i + 1, 1, pack_fields(idx[i], qspec.bits)) for i in range(m))
    theta_hat = dequantize(idx, qspec).mean(axis=0)
    return ProtocolOutput(theta_hat, Transcript(messages, INDEPENDENT),
                          {"nominal_bits_per_machine": math.ceil(d * math.log2(m * n))})


def probit_mle(design, z, max_iter: int = 100, grad_tol: float = 1e-9,
               diverge_norm: float = 1e3):
    """Damped Newton ascent of the concave probit log-likelihood.

    Returns (theta, flagged); flagged marks separation, detected by the
    iterate norm exceeding diverge_norm or by a singular Newton system, in
    which case the iterate clipped to [-1, 1] is returned.
    """
    log_ndtr = sys.modules[__name__].log_ndtr
    a = np.asarray(design, dtype=float)
    z = np.asarray(z, dtype=float)
    d = a.shape[1]
    theta = np.zeros(d)

    def loglik(th):
        """The log-likelihood at th, and the u = a th, log_ndtr(u) and
        log_ndtr(-u) it is made of, which the next Newton step reuses."""
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


def _row_dots(x, y):
    """x[p] @ y[p] for each row of two (P, n) stacks: one ddot per row, the
    BLAS call (and rounding) of the 1-d product."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def _rows(x, idx):
    """x[idx] along the first axis, where a zero-stride broadcast stays a
    view instead of becoming one copy of its matrix per problem."""
    if x.strides[0] == 0:
        return np.broadcast_to(x[0], (len(idx),) + x.shape[1:])
    return x[idx]


def probit_mle_batched(design, z, max_iter: int = 100, grad_tol: float = 1e-9,
                       diverge_norm: float = 1e3):
    """probit_mle on P problems at once: design (P, n, d), z (P, n).

    Returns theta (P, d) and flagged (P,), equal problem by problem to what
    probit_mle gives, bit for bit. design may be a zero-stride
    np.broadcast_to view of one matrix. Each product is the stacked form of
    probit_mle's, which numpy sends to the same BLAS call; a problem leaves
    the active set where probit_mle returns, and the line search halves one
    step size for all problems still searching.
    """
    log_ndtr = sys.modules[__name__].log_ndtr
    design = np.asarray(design, dtype=float)
    z = np.asarray(z, dtype=float)
    p, n, d = design.shape
    theta = np.zeros((p, d))
    flagged = np.zeros(p, dtype=bool)

    def loglik(a, zs, th):
        u = (a @ th[..., None])[..., 0]
        lp, lm = log_ndtr(u), log_ndtr(-u)
        return _row_dots(zs, lp) + _row_dots(1.0 - zs, lm), u, lp, lm

    ll, *at_theta = loglik(design, z, theta)
    live = np.arange(p)       # problems probit_mle has not returned from
    for _ in range(max_iter):
        if not live.size:
            break
        # the live problems' u, log_ndtr(u) and log_ndtr(-u) at theta, copied
        # out of the loglik that accepted it (no array log_ndtr saw is written)
        a, zs = _rows(design, live), z[live]
        u, lp, lm = at_theta
        lam_p = np.exp(-u * u / 2.0 - 0.5 * math.log(2 * math.pi) - lp)
        lam_m = np.exp(-u * u / 2.0 - 0.5 * math.log(2 * math.pi) - lm)
        score = zs * lam_p - (1.0 - zs) * lam_m
        grad = (a.transpose(0, 2, 1) @ score[..., None])[..., 0]
        going = ~(np.sqrt(_row_dots(grad, grad)) < grad_tol)
        live, zs, u, lam_p, lam_m, grad = (
            x[going] for x in (live, zs, u, lam_p, lam_m, grad))
        a = _rows(a, np.flatnonzero(going))
        weights = zs * lam_p * (lam_p + u) + (1.0 - zs) * lam_m * (lam_m - u)
        hess = a.transpose(0, 2, 1) @ (weights[..., None] * a)
        try:
            step = np.linalg.solve(hess, grad[..., None])[..., 0]
        except np.linalg.LinAlgError:
            # some Hessian is singular: solve problem by problem, and flag and
            # stop each singular one where probit_mle returns
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
            live, zs, u, step = (x[solved] for x in (live, zs, u, step))
            a = _rows(a, np.flatnonzero(solved))
        accepted = np.zeros(live.size, dtype=bool)
        at_theta = [np.empty_like(u) for _ in range(3)]
        searching = np.arange(live.size)
        t = 1.0
        while t > 2**-30 and searching.size:
            rows = live[searching]
            cand = theta[rows] + t * step[searching]
            cand_ll, *at_cand = loglik(_rows(a, searching), zs[searching], cand)
            up = cand_ll > ll[rows]
            theta[rows[up]], ll[rows[up]] = cand[up], cand_ll[up]
            for x, x_cand in zip(at_theta, at_cand):
                x[searching[up]] = x_cand[up]
            accepted[searching[up]] = True
            searching = searching[~up]
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


def centralized_baseline(spec, samples) -> np.ndarray:
    """Family-appropriate estimator with access to the pooled sample.

    Gaussian / bounded: pooled mean; uniform: pooled per-coordinate minimum
    plus one; regression: pooled least squares; probit: pooled MLE.
    """
    x = np.asarray(samples, dtype=float)
    if isinstance(spec, (GaussianLocationSpec, BoundedProductSpec)):
        return x.mean(axis=(0, 2))
    if isinstance(spec, UniformLocationSpec):
        return x.min(axis=(0, 2)) + 1.0
    if isinstance(spec, RegressionSpec):
        sol, *_ = np.linalg.lstsq(np.vstack(spec.designs), x.ravel(), rcond=None)
        return sol
    if isinstance(spec, ProbitSpec):
        est, _ = probit_mle(np.vstack(spec.designs), x.ravel())
        return est
    raise InvalidArgumentError(f"no centralized baseline for {type(spec).__name__}")


# ---------------------------------------------------------------------------
# trial-batched kernels
#
# A kernel runs one chunk of k trials at once. blocks is the draw_trials
# array, (k, m, d, n) for the mean families and (k, m, n) for the design
# families; uniforms is the (k, m, d) TAG_PROTOCOL array of a randomized
# protocol and None otherwise. It returns theta_hat (k, d), bits (k,) and
# flagged (k,), equal trial by trial to what the reference function above
# gives for that trial, and builds no transcript.

def _fixed(k: int, bits: int):
    """bits and flagged of a chunk whose transcripts all have one length."""
    return np.full(k, bits, dtype=np.int64), np.zeros(k, dtype=bool)


def _single_mean_kernel(spec, blocks, uniforms, budget_bits):
    if budget_bits < 1:
        raise InvalidArgumentError("budget must be at least one bit")
    qspec = QuantizerSpec(0.0, 1.0, budget_bits, codec.ROUND_NEAREST)
    means = ((1.0 + blocks[:, 0, 0, :]) / 2.0).mean(axis=1)
    return (dequantize(quantize(means, qspec), qspec)[:, None],
            *_fixed(len(blocks), budget_bits))


def _gauss_qavg_kernel(spec, blocks, uniforms, budget_bits):
    k, m, d, n = blocks.shape
    qspec = _gauss_qavg_grid(spec.sigma, m, n)
    idx = quantize(np.ascontiguousarray(blocks.mean(axis=3)), qspec)
    return dequantize(idx, qspec).mean(axis=1), *_fixed(k, m * d * qspec.bits)


def _onebit_kernel(spec, blocks, uniforms, budget_bits):
    x = blocks[..., 0]
    if np.any(np.abs(x) > 1 + 1e-12):
        raise InvalidArgumentError("one-bit inputs must lie in [-1, 1]")
    k, m, d = x.shape
    # the sum of m values of +/-1 is an exact integer, so this equals
    # mean(2 z - 1) bit for bit
    ones = (uniforms < (1.0 + x) / 2.0).sum(axis=1)
    return (2.0 * ones - m) / m, *_fixed(k, m * d)


def _uniform_min_kernel(spec, blocks, uniforms, budget_bits):
    k, m, d, n = blocks.shape
    vbits = uniform_min_value_bits(m, n)
    qspec = QuantizerSpec(-2.0, 2.0, vbits, codec.ROUND_DOWN)
    local_min = blocks.min(axis=3)                         # (k, m, d)
    # Round-down quantization is monotone, so the fusion state after machine
    # i is q(min_{j <= i} local_min_j), and machine i > 0 sends exactly the
    # coordinates where local_min_i < state_{i-1}.
    state = dequantize(quantize(np.minimum.accumulate(local_min, axis=1), qspec), qspec)
    improvements = np.count_nonzero(local_min[:, 1:] < state[:, :-1], axis=(1, 2))
    bits = d * vbits + improvements * (ceil_log2(d) + vbits)
    return state[:, -1] + 1.0, bits, np.zeros(k, dtype=bool)


def _regress_avg_kernel(spec, blocks, uniforms, budget_bits):
    k, m, n = blocks.shape
    qspec = _local_average_grid(m, n)
    # a stack of matrix-vector products: one gemv per machine and trial, the
    # same BLAS call (and rounding) as solvers[i] @ y[i] in the reference
    local = (np.stack(_local_least_squares(spec)) @ blocks[..., None])[..., 0]
    idx = quantize(np.clip(local, -1.0, 1.0), qspec)
    return dequantize(idx, qspec).mean(axis=1), *_fixed(k, m * spec.d * qspec.bits)


def _probit_avg_kernel(spec, blocks, uniforms, budget_bits):
    k, m, n = blocks.shape
    qspec = _local_average_grid(m, n)
    local = np.empty((k, m, spec.d))
    bits, flagged = _fixed(k, m * spec.d * qspec.bits)
    # one batched Newton per machine over the chunk's trials; the machine's
    # design is shared by all of them, so a zero-stride view stands in for k
    # copies
    for i, design in enumerate(spec.designs):
        local[:, i], flag = probit_mle_batched(
            np.broadcast_to(design, (k, n, spec.d)), np.ascontiguousarray(blocks[:, i]))
        flagged |= flag
    idx = quantize(np.clip(local, -1.0, 1.0), qspec)
    return dequantize(idx, qspec).mean(axis=1), bits, flagged


def _centralized_kernel(spec, blocks, uniforms, budget_bits):
    k = len(blocks)
    if isinstance(spec, UniformLocationSpec):
        theta_hat = blocks.min(axis=(1, 3)) + 1.0
    elif isinstance(spec, MeanSpec):
        theta_hat = np.ascontiguousarray(blocks).mean(axis=(1, 3))
    elif isinstance(spec, ProbitSpec):
        pooled = np.vstack(spec.designs)
        theta_hat, _ = probit_mle_batched(np.broadcast_to(pooled, (k, *pooled.shape)),
                                          blocks.reshape(k, -1))
    else:
        theta_hat = np.stack([centralized_baseline(spec, block) for block in blocks])
    return theta_hat, *_fixed(k, 0)


# ---------------------------------------------------------------------------
# Monte Carlo risk measurement

@dataclass(frozen=True)
class Protocol:
    """One protocol id: what estimate_risk needs to run it."""

    kind: str                 # transcript kind reported in the RiskReport
    accepts: tuple            # spec types the protocol runs on
    kernel: Callable          # (spec, blocks, uniforms, budget_bits) -> (theta_hat, bits, flagged)
    bound: str = None         # lower-bound formula id replacing the family's
    randomized: bool = False  # the kernel reads (k, m, d) TAG_PROTOCOL uniforms


PROTOCOLS = {
    "single_mean": Protocol(INDEPENDENT, (BoundedProductSpec,), _single_mean_kernel,
                            bound="prop1"),
    "gauss_qavg": Protocol(INDEPENDENT, (GaussianLocationSpec,), _gauss_qavg_kernel),
    "onebit": Protocol(INDEPENDENT, (MeanSpec,), _onebit_kernel, bound="prop2",
                       randomized=True),
    "uniform_min": Protocol(INTERACTIVE, (MeanSpec,), _uniform_min_kernel),
    "regress_avg": Protocol(INDEPENDENT, (DesignSpec,), _regress_avg_kernel),
    "probit_avg": Protocol(INDEPENDENT, (DesignSpec,), _probit_avg_kernel),
    "centralized": Protocol("centralized", (MeanSpec, DesignSpec), _centralized_kernel),
}


# Values drawn per chunk of trials (32 MB of float64).
CHUNK_VALUES = 4_000_000


def _chunk_sizes(trials: int, per_trial_values: int):
    chunk = max(1, int(CHUNK_VALUES // max(1, per_trial_values)))
    return [min(chunk, trials - start) for start in range(0, trials, chunk)]


def estimate_risk(protocol: str, spec, trials: int, seed: int,
                  m: int = None, n: int = None, budget_bits: int = None) -> RiskReport:
    """Run `trials` seeded protocol executions and report risk + bit stats.

    Deterministic given (protocol, spec, trials, seed): data for machine i
    comes from its TAG_DATA stream, protocol randomness from its TAG_PROTOCOL
    stream, trials consuming consecutive blocks. Trials run in chunks through
    the protocol's kernel; the results equal those of the reference
    functions, trial by trial.
    """
    if trials < 2:
        raise InvalidArgumentError("need at least 2 trials for a standard error")
    rec = PROTOCOLS.get(protocol)
    if rec is None:
        raise InvalidArgumentError(f"unknown protocol id {protocol!r}")
    m, n = run_shape(spec, m, n)
    if protocol == "onebit" and n != 1:
        raise InvalidArgumentError("the one-bit scheme needs n = 1")
    if protocol == "single_mean":
        if m != 1:
            raise InvalidArgumentError("single_mean is a single-machine protocol")
        if budget_bits is None:
            raise InvalidArgumentError("single_mean needs budget_bits")
        if not isinstance(spec, BoundedProductSpec):
            raise InvalidArgumentError("single_mean runs on the bounded family")
        if spec.d != 1:
            raise InvalidArgumentError("single_mean needs d = 1")
    if not isinstance(spec, rec.accepts):
        raise InvalidArgumentError(
            f"protocol {protocol!r} does not run on {type(spec).__name__}")

    d = spec.d
    # single_mean works on [0, 1]; the bounded family maps to it affinely
    theta_true = (1.0 + spec.theta) / 2.0 if protocol == "single_mean" else spec.theta
    data_gens = machine_streams(seed, m, TAG_DATA)
    proto_gens = machine_streams(seed, m, TAG_PROTOCOL) if rec.randomized else None

    sqerr = np.empty(trials)
    bits = np.empty(trials, dtype=np.int64)
    flagged = 0
    pos = 0
    for k in _chunk_sizes(trials, m * d * n):
        uniforms = (machine_rows(proto_gens, (k, d), lambda i, gen, row: gen.random(out=row))
                    if rec.randomized else None)
        theta_hat, chunk_bits, chunk_flagged = rec.kernel(
            spec, draw_trials(spec, data_gens, n, k), uniforms, budget_bits)
        del uniforms  # this chunk's arrays are freed before the next is drawn
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
