"""Exact finite-alphabet information quantities and enumeration-based
verification of the quantitative data-processing inequalities.

All joint distributions here are explicit tables, so every reported quantity
is exact up to float rounding; checks therefore use a 1e-10 slack. Requests
whose joint state space would exceed 2**20 cells raise instead of
approximating.

Every table argument of a `check_*` function is a plain array: a channel is
its table of rows P(x | v), and the Pinsker and chaining joints are (V, Y)
and (A, B, C, D) tables in that axis order. `_check_pmf` checks each table
once, where it enters a check, as it does for `FinitePMF` and `JointPMF`.
Every table built from those inside this module is a plain array and is not
checked again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (EnumerationTooLargeError, InvalidArgumentError,
                     QuadratureError)

ENUMERATION_CEILING = 1 << 20
SLACK = 1e-10
_NORM_TOL = 1e-12


def _as_prob_array(p) -> np.ndarray:
    arr = np.asarray(p.p if isinstance(p, FinitePMF) else p, dtype=float)
    return arr


def _check_pmf(table, what: str, axis=None, ndim=None) -> np.ndarray:
    """`table` as a float array, after checking that it has `ndim` axes (any
    number when None), that it is nonempty and that its entries are
    nonnegative and sum to 1 over `axis` (over the whole table when None)."""
    arr = np.asarray(table, dtype=float)
    if ndim is not None and arr.ndim != ndim:
        raise InvalidArgumentError(f"{what} needs a {ndim}-d table")
    if arr.size == 0:
        raise InvalidArgumentError(f"{what} is empty")
    # array methods, not np.any / np.all: this runs on every table that enters
    if (arr < 0).any():
        raise InvalidArgumentError(f"{what} entries must be nonnegative")
    total = arr.sum(axis=axis)
    if not (abs(total - 1.0) <= _NORM_TOL).all():
        raise InvalidArgumentError(f"{what} sums to {total!r}, not 1")
    return arr


@dataclass(eq=False)
class FinitePMF:
    """A probability vector over a finite alphabet."""

    p: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.p, dtype=float)
        if arr.ndim != 1:
            raise InvalidArgumentError("a pmf is a nonempty 1-d vector")
        self.p = _check_pmf(arr, "pmf")


@dataclass(eq=False)
class JointPMF:
    """Exact joint distribution over a small product alphabet."""

    axes: tuple
    table: np.ndarray

    def __post_init__(self):
        self.axes = tuple(self.axes)
        arr = np.asarray(self.table, dtype=float)
        if arr.ndim != len(self.axes):
            raise InvalidArgumentError("one axis label per table dimension")
        if arr.size > ENUMERATION_CEILING:
            raise EnumerationTooLargeError(
                f"{arr.size} joint states exceed the {ENUMERATION_CEILING} ceiling")
        self.table = _check_pmf(arr, "joint")

    def axis(self, name: str) -> int:
        try:
            return self.axes.index(name)
        except ValueError:
            raise InvalidArgumentError(f"no axis named {name!r}") from None

    def marginal(self, name: str) -> FinitePMF:
        return FinitePMF(self._marginal_table((name,)))

    def _marginal_table(self, keep) -> np.ndarray:
        """The marginal over the axes `keep`, in that order, as an array."""
        kept = [self.axis(name) for name in keep]
        reduced = self.table.sum(
            axis=tuple(i for i in range(self.table.ndim) if i not in kept))
        order = sorted(kept)
        return np.transpose(reduced, [order.index(i) for i in kept])


def _channel_rows(channel) -> np.ndarray:
    """The channel's row-stochastic table P(output | input), checked."""
    return _check_pmf(channel, "channel row", axis=1, ndim=2)


def entropy(p) -> float:
    """Shannon entropy in nats with the 0 log 0 = 0 convention."""
    arr = _as_prob_array(p)
    pos = arr[arr > 0]
    return float(-(pos * np.log(pos)).sum())


def kl(p, q) -> float:
    """KL divergence in nats; support violations return +inf, never raise."""
    pa, qa = _as_prob_array(p), _as_prob_array(q)
    if pa.shape != qa.shape:
        raise InvalidArgumentError("kl needs a common support")
    mask = pa > 0
    if np.any(qa[mask] == 0):
        return math.inf
    return float((pa[mask] * np.log(pa[mask] / qa[mask])).sum())


def tv(p, q) -> float:
    """Total variation distance, in [0, 1]."""
    pa, qa = _as_prob_array(p), _as_prob_array(q)
    if pa.shape != qa.shape:
        raise InvalidArgumentError("tv needs a common support")
    return float(0.5 * np.abs(pa - qa).sum())


def _mi_from_table(joint: np.ndarray) -> float:
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)
    prod = np.outer(pa, pb)
    mask = joint > 0
    return float((joint[mask] * np.log(joint[mask] / prod[mask])).sum())


def mutual_information(j: JointPMF, axis_a: str, axis_b: str) -> float:
    """I(A; B) in nats after marginalizing every other axis."""
    return _mi_from_table(j._marginal_table((axis_a, axis_b)))


def hamming_neighborhood_size(d: int, t: float) -> int:
    """Vertices of {-1, 1}^d within Hamming distance t of any fixed vertex."""
    if not (d >= 1 and 0 <= t < math.inf):
        raise InvalidArgumentError("need d >= 1 and a finite t >= 0")
    radius = min(int(math.floor(t)), d)
    return sum(math.comb(d, k) for k in range(radius + 1))


def fano_variant_lower(d: int, t: float, info_nats: float) -> float:
    """Neighborhood Fano bound max{0, 1 - (I + ln 2) / ln(2^d / N_t)}."""
    if not 0 <= info_nats < math.inf:
        raise InvalidArgumentError("info_nats must be finite and >= 0")
    size = hamming_neighborhood_size(d, t)
    total = 2 ** d
    if total <= size:
        raise InvalidArgumentError("need 2^d > N_t for a nontrivial bound")
    return max(0.0, 1.0 - (info_nats + math.log(2.0)) / math.log(total / size))


def estimation_to_testing_lower(delta: float, t: float, test_error_prob: float) -> float:
    """Risk lower bound delta^2 (floor(t) + 1) P(test error)."""
    for name, value in (("delta", delta), ("t", t)):
        if not 0 <= value < math.inf:
            raise InvalidArgumentError(f"{name} must be finite and >= 0")
    if not 0 <= test_error_prob <= 1:
        raise InvalidArgumentError("test_error_prob must be a probability")
    return delta ** 2 * (math.floor(t) + 1) * test_error_prob


def lecam_testing_error(p1, p2) -> float:
    """Bayes error of the uniform-prior binary test: 1/2 - tv/2."""
    return 0.5 - 0.5 * tv(p1, p2)


def check_likelihood_ratio(channel) -> float:
    """Log of the worst output-wise max/min row ratio.

    A zero entry in an otherwise reachable output yields +inf (an infinite
    ratio signal) rather than an exception.
    """
    return _max_log_ratio(_channel_rows(channel))


def _max_log_ratio(rows: np.ndarray) -> float:
    lo = rows.min(axis=0)
    hi = rows.max(axis=0)
    if np.any((lo == 0) & (hi > 0)):
        return math.inf
    live = hi > 0
    if not np.any(live):
        return 0.0
    return float(np.log((hi[live] / lo[live]).max()))


def check_pinsker_consequence(pair) -> dict:
    """tv(P_{Y|V=0}, P_{Y|V=1})^2 <= 2 I(V; Y) for uniform binary V, on the
    (V, Y) joint table `pair`."""
    pair = _check_pmf(pair, "(V, Y) joint", ndim=2)
    pv = pair.sum(axis=1)
    if pv.size != 2:
        raise InvalidArgumentError("V must be binary")
    if np.abs(pv - 0.5).max() > 1e-9:
        raise InvalidArgumentError("the Pinsker consequence is stated for uniform V")
    cond = pair / pv[:, None]
    lhs = tv(cond[0], cond[1]) ** 2
    rhs = 2.0 * _mi_from_table(pair)
    return {"lhs": lhs, "rhs": rhs, "holds": lhs <= rhs + SLACK}


# ---------------------------------------------------------------------------
# enumerated Markov chains V -> X -> Y

def _quantizer_matrix(quantizer, k_in: int) -> np.ndarray:
    """Accept a deterministic map (length-k_in ints) or a stochastic table."""
    arr = np.asarray(quantizer)
    if arr.ndim == 1:
        if arr.size != k_in:
            raise InvalidArgumentError("deterministic quantizer needs one output per input")
        out = arr.astype(int)
        if np.any(out < 0) or np.any(out != arr):
            raise InvalidArgumentError("deterministic quantizer outputs are indices >= 0")
        q = np.zeros((k_in, int(out.max()) + 1))
        q[np.arange(k_in), out] = 1.0
        return q
    if arr.ndim == 2:
        if arr.shape[0] != k_in:
            raise InvalidArgumentError("stochastic quantizer needs one row per input")
        return _check_pmf(arr, "quantizer row", axis=1)
    raise InvalidArgumentError("quantizer must be a map or a stochastic table")


def base_k_digits(k: int, width: int) -> np.ndarray:
    """(k**width, width) int table: row x holds x in base k, most significant first."""
    n = k ** width
    digits = np.empty((n, width), dtype=int)
    idx = np.arange(n)
    for c in range(width - 1, -1, -1):
        digits[:, c] = idx % k
        idx //= k
    return digits


def _product_channel(rows: np.ndarray, v_dim: int, machines: int = 1):
    """P(x | v) over the product alphabet, from the checked channel `rows`.

    v ranges over 2**v_dim sign patterns (bit b of the index = coordinate b,
    bit 0 most significant, 0 -> row 0, 1 -> row 1); x ranges over
    k**(machines * v_dim) tuples, machine-major. Machine i's coordinate j
    depends on v_j only, conditionally independent across (i, j).
    """
    if rows.shape[0] != 2:
        raise InvalidArgumentError("per-coordinate channels take the binary input {-1, +1}")
    if v_dim < 1 or machines < 1:
        raise InvalidArgumentError("need v_dim >= 1 and machines >= 1")
    k = rows.shape[1]
    n_coords = machines * v_dim
    n_x = k ** n_coords
    if 2 ** v_dim * n_x > ENUMERATION_CEILING:
        raise EnumerationTooLargeError("product alphabet exceeds the enumeration ceiling")
    digits = base_k_digits(k, n_coords)
    vbits = base_k_digits(2, v_dim)
    out = np.ones((2 ** v_dim, n_x))
    for c in range(n_coords):
        # coordinate c of x belongs to v-coordinate c % v_dim (machine-major order)
        out *= rows[vbits[:, c % v_dim, None], digits[None, :, c]]
    return out, digits


def _vxy_joint(v_dim: int, rows: np.ndarray, quantizer, machines: int = 1):
    """The (V, X, Y) joint table of V -> X -> Y = quantizer(X), and the digits
    of the X alphabet."""
    p_xv, digits = _product_channel(rows, v_dim, machines)
    q = _quantizer_matrix(quantizer, p_xv.shape[1])
    if p_xv.size * q.shape[1] > ENUMERATION_CEILING:
        raise EnumerationTooLargeError(
            f"{p_xv.size * q.shape[1]} joint states exceed the {ENUMERATION_CEILING} ceiling")
    return (p_xv[:, :, None] * q[None, :, :]) / p_xv.shape[0], digits


def check_dpi_independent(v_dim: int, channel, quantizer) -> dict:
    """Verify I(V; Y) <= 2 (e^{2 alpha} - 1)^2 I(X; Y) by exact enumeration.

    V is uniform on {-1, 1}^v_dim, coordinate j of X depends on V_j through
    `channel`, and Y = quantizer(X).
    """
    rows = _channel_rows(channel)
    joint, _ = _vxy_joint(v_dim, rows, quantizer)
    alpha = _max_log_ratio(rows)
    i_vy = _mi_from_table(joint.sum(axis=1))
    i_xy = _mi_from_table(joint.sum(axis=0))
    i_vx = _mi_from_table(joint.sum(axis=2))
    bound = 2.0 * (math.exp(2.0 * alpha) - 1.0) ** 2 * i_xy
    return {"I_VY": i_vy, "I_XY": i_xy, "I_VX": i_vx, "alpha": alpha,
            "bound": bound, "holds": i_vy <= bound + SLACK}


def check_dpi_truncated(v_dim: int, channel, quantizer, truncation,
                        machines: int = 1) -> dict:
    """Truncated-set variant: I(V; Y) <= 2 (e^{4a} - 1)^2 I(X; Y) + H(E) + P(E=0).

    `truncation` is one boolean mask over the per-coordinate X alphabet, the
    retained set of every coordinate of every machine; the likelihood-ratio
    bound alpha is measured on the retained symbols only, and E indicates
    that every coordinate of every machine landed inside the retained set.
    """
    rows = _channel_rows(channel)
    joint, digits = _vxy_joint(v_dim, rows, quantizer, machines)
    keep = np.asarray(truncation, dtype=bool)
    if keep.shape != (rows.shape[1],):
        raise InvalidArgumentError("need one truncation flag per X symbol")
    if not keep.any():
        raise InvalidArgumentError("the truncation set must be nonempty")
    alpha = _max_log_ratio(rows[:, keep])
    in_set = keep[digits].all(axis=1)
    p_e1 = float(joint.sum(axis=(0, 2))[in_set].sum())
    h_e = entropy(np.array([p_e1, 1.0 - p_e1]))
    i_vy = _mi_from_table(joint.sum(axis=1))
    i_xy = _mi_from_table(joint.sum(axis=0))
    bound = 2.0 * (math.exp(4.0 * alpha) - 1.0) ** 2 * i_xy + h_e + (1.0 - p_e1)
    return {"I_VY": i_vy, "I_XY": i_xy, "alpha": alpha, "H_E": h_e,
            "P_E0": 1.0 - p_e1, "bound": bound, "holds": i_vy <= bound + SLACK}


def check_tensorization(v_dim: int, channels, quantizers) -> dict:
    """I(V; Y_{1:m}) <= sum_i I(V; Y_i) when Y_i depends only on machine i."""
    m = len(channels)
    if m < 1 or len(quantizers) != m:
        raise InvalidArgumentError("need at least one machine and one quantizer per machine")
    kernels = []
    for channel, quantizer in zip(channels, quantizers):
        p_xv, _ = _product_channel(_channel_rows(channel), v_dim)
        q = _quantizer_matrix(quantizer, p_xv.shape[1])
        kernels.append(p_xv @ q)          # (2**v_dim, ny_i)
    nv = 2 ** v_dim
    sizes = [k.shape[1] for k in kernels]
    if nv * int(np.prod(sizes)) > ENUMERATION_CEILING:
        raise EnumerationTooLargeError("joint message alphabet exceeds the ceiling")
    joint_given_v = np.ones((nv, 1))
    for k in kernels:
        joint_given_v = (joint_given_v[:, :, None] * k[:, None, :]).reshape(nv, -1)
    table = joint_given_v / nv
    i_joint = _mi_from_table(table)
    sum_i = sum(_mi_from_table(k / nv) for k in kernels)
    return {"I_joint": i_joint, "sum_I": sum_i,
            "holds": i_joint <= sum_i + SLACK}


def check_information_chaining(model) -> dict:
    """Lemma-style conditional-probability contraction on the (A, B, C, D)
    joint table `model`.

    Verifies the preconditions numerically (D independent of A given (B, C);
    each C slice of P(C | A, B) rank-1; alpha measured from P(B | A)), then
    checks for every (a, c, d) slice with positive probability that

        |P(a | c, d) - P(a | c)| <=
            2 (e^{2 alpha} - 1) min{P(a | c), P(a | c, d)}
                                 tv(P_B(. | c, d), P_B(. | c)) + slack.

    Zero-probability conditioning slices are skipped and counted.
    """
    t = _check_pmf(model, "(A, B, C, D) joint", ndim=4)
    ka = t.shape[0]

    p_abc = t.sum(axis=3)
    p_ab = p_abc.sum(axis=2)
    p_a = p_ab.sum(axis=1)
    if np.any(p_a <= 0):
        raise InvalidArgumentError("every A value needs positive probability")

    # Markov condition: D independent of A given (B, C), on every (a, b, c)
    # with positive probability (so that P(b, c) > 0 too)
    p_bcd = t.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        cond = t / p_abc[..., None]
        ref = p_bcd / p_abc.sum(axis=0)[..., None]
    if np.any(np.abs(cond - ref).max(axis=3)[p_abc > 0] > 1e-8):
        raise InvalidArgumentError("model violates D _|_ A | (B, C)")

    # factorization: each C slice of P(C | A, B) is rank one, so every 2 x 2
    # minor s[a1, b1] s[a2, b2] - s[a1, b2] s[a2, b1] vanishes
    with np.errstate(invalid="ignore", divide="ignore"):
        p_c_given_ab = np.where(p_ab[:, :, None] > 0, p_abc / p_ab[:, :, None], 0.0)
    outer = p_c_given_ab[:, None, :, None] * p_c_given_ab[None, :, None, :]
    if np.any(np.abs(outer - outer.swapaxes(2, 3)) > 1e-8):
        raise InvalidArgumentError(
            "P(C | A, B) does not factor as phi1(A, C) phi2(B, C)")

    alpha = _max_log_ratio(p_ab / p_a[:, None])

    # every (c, d, a) at once, C-ordered so that sums over B run along a
    # contiguous last axis and argmax picks the first worst slice
    p_cd = t.sum(axis=(0, 1))
    p_c = p_cd.sum(axis=1)
    p_acd = t.sum(axis=1)
    live = p_cd > 0                  # P(c) > 0 wherever P(c, d) > 0
    with np.errstate(invalid="ignore", divide="ignore"):
        pb_c = np.ascontiguousarray(p_bcd.sum(axis=2).T) / p_c[:, None]    # (c, b)
        pa_c = np.ascontiguousarray(p_acd.sum(axis=2).T) / p_c[:, None]    # (c, a)
        pb_cd = np.ascontiguousarray(p_bcd.transpose(1, 2, 0)) / p_cd[..., None]
        pa_cd = np.ascontiguousarray(p_acd.transpose(1, 2, 0)) / p_cd[..., None]
    tv_b = 0.5 * np.abs(pb_cd - pb_c[:, None, :]).sum(axis=2)              # (c, d)
    factor = 2.0 * (math.exp(2.0 * alpha) - 1.0)
    lhs = np.abs(pa_cd - pa_c[:, None, :])
    rhs = factor * np.minimum(pa_c[:, None, :], pa_cd) * tv_b[..., None]
    gap = lhs - rhs                  # NaN (an infinite alpha times 0) never counts
    gap = np.where(live[..., None] & (gap > -math.inf), gap, -math.inf)
    at = np.unravel_index(np.argmax(gap), gap.shape)
    max_violation = float(gap[at])
    worst = None
    if max_violation > -math.inf:
        c, dv, a = (int(i) for i in at)
        worst = {"lhs": float(lhs[at]), "rhs": float(rhs[at]), "a": a, "c": c, "d": dv}
    return {"max_violation": max_violation, "worst": worst, "alpha": alpha,
            "skipped": ka * int(np.count_nonzero(~live)),
            "holds": max_violation <= SLACK}


# ---------------------------------------------------------------------------
# one-dimensional Gaussian specialization

@lru_cache(maxsize=None)
def _gh_nodes(order: int):
    from scipy.special import roots_hermite
    return roots_hermite(order)


def _gh_estimate(delta: float, sigma: float, order: int) -> float:
    """Gauss-Hermite estimate of I(V; X) for X | V ~ N(delta V, sigma^2)."""
    nodes, weights = _gh_nodes(order)
    x = delta + math.sqrt(2.0) * sigma * nodes
    integrand = math.log(2.0) - np.logaddexp(0.0, -2.0 * delta * x / sigma**2)
    return float((weights * integrand).sum() / math.sqrt(math.pi))


def binary_gaussian_mi(delta: float, sigma: float, tol: float = 1e-9) -> float:
    """I(V; X) for V uniform on {-1, 1} and X | V ~ N(delta V, sigma^2).

    Adaptive Gauss-Hermite quadrature, doubling the order until two
    consecutive estimates agree within tol. The value is guaranteed at most
    delta^2 / sigma^2.
    """
    if not 0 <= delta < math.inf:
        raise InvalidArgumentError("delta must be finite and >= 0")
    if not 0 < sigma < math.inf:
        raise InvalidArgumentError("sigma must be positive and finite")
    prev = _gh_estimate(delta, sigma, 32)
    order = 64
    while order <= 8192:
        cur = _gh_estimate(delta, sigma, order)
        if abs(cur - prev) < tol:
            return max(0.0, cur)
        prev = cur
        order *= 2
    raise QuadratureError("Gauss-Hermite order cap reached without convergence")
