"""Exact finite-alphabet information quantities and enumeration-based
verification of the quantitative data-processing inequalities.

All joint distributions here are explicit tables, so every reported quantity
is exact up to float rounding; checks therefore use a 1e-10 slack. Requests
whose joint state space would exceed 2**20 cells raise instead of
approximating.
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


@dataclass(eq=False)
class FinitePMF:
    """A probability vector over a finite alphabet."""

    p: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.p, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise InvalidArgumentError("a pmf is a nonempty 1-d vector")
        if np.any(arr < 0):
            raise InvalidArgumentError("pmf entries must be nonnegative")
        if abs(arr.sum() - 1.0) > _NORM_TOL:
            raise InvalidArgumentError(f"pmf sums to {arr.sum()!r}, not 1")
        self.p = arr

    @property
    def k(self) -> int:
        return self.p.size


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
        if np.any(arr < 0):
            raise InvalidArgumentError("joint probabilities must be nonnegative")
        if abs(arr.sum() - 1.0) > _NORM_TOL:
            raise InvalidArgumentError(f"joint sums to {arr.sum()!r}, not 1")
        self.table = arr

    def axis(self, name: str) -> int:
        try:
            return self.axes.index(name)
        except ValueError:
            raise InvalidArgumentError(f"no axis named {name!r}") from None

    def marginal(self, name: str) -> FinitePMF:
        others = tuple(i for i in range(self.table.ndim) if i != self.axis(name))
        return FinitePMF(self.table.sum(axis=others))

    def marginalize(self, keep) -> "JointPMF":
        keep = tuple(keep)
        drop = tuple(i for i, name in enumerate(self.axes) if name not in keep)
        reduced = self.table.sum(axis=drop)
        order = [name for name in self.axes if name in keep]
        perm = [order.index(name) for name in keep]
        return JointPMF(keep, np.transpose(reduced, perm))


@dataclass(eq=False)
class ChannelSpec:
    """Row-stochastic conditional table P(output | input)."""

    rows: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.rows, dtype=float)
        if arr.ndim != 2:
            raise InvalidArgumentError("channel rows form a 2-d table")
        for row in arr:
            FinitePMF(row)
        self.rows = arr

    @property
    def k_in(self) -> int:
        return self.rows.shape[0]

    @property
    def k_out(self) -> int:
        return self.rows.shape[1]


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
    pair = j.marginalize((axis_a, axis_b))
    return _mi_from_table(pair.table)


def hamming_neighborhood_size(d: int, t: float) -> int:
    """Vertices of {-1, 1}^d within Hamming distance t of any fixed vertex."""
    if d < 1 or t < 0:
        raise InvalidArgumentError("need d >= 1 and t >= 0")
    radius = min(int(math.floor(t)), d)
    return sum(math.comb(d, k) for k in range(radius + 1))


def fano_variant_lower(d: int, t: float, info_nats: float) -> float:
    """Neighborhood Fano bound max{0, 1 - (I + ln 2) / ln(2^d / N_t)}."""
    if info_nats < 0:
        raise InvalidArgumentError("mutual information is nonnegative")
    size = hamming_neighborhood_size(d, t)
    total = 2 ** d
    if total <= size:
        raise InvalidArgumentError("need 2^d > N_t for a nontrivial bound")
    return max(0.0, 1.0 - (info_nats + math.log(2.0)) / math.log(total / size))


def estimation_to_testing_lower(delta: float, t: float, test_error_prob: float) -> float:
    """Risk lower bound delta^2 (floor(t) + 1) P(test error)."""
    if delta < 0 or t < 0 or not 0 <= test_error_prob <= 1:
        raise InvalidArgumentError("need delta, t >= 0 and a probability")
    return delta ** 2 * (math.floor(t) + 1) * test_error_prob


def lecam_testing_error(p1, p2) -> float:
    """Bayes error of the uniform-prior binary test: 1/2 - tv/2."""
    return 0.5 - 0.5 * tv(p1, p2)


def check_likelihood_ratio(channel: ChannelSpec, columns=None) -> float:
    """Log of the worst output-wise max/min row ratio.

    A zero entry in an otherwise reachable output yields +inf (an infinite
    ratio signal) rather than an exception. `columns` restricts the outputs
    considered, for truncated-set variants.
    """
    rows = channel.rows if columns is None else channel.rows[:, columns]
    lo = rows.min(axis=0)
    hi = rows.max(axis=0)
    if np.any((lo == 0) & (hi > 0)):
        return math.inf
    live = hi > 0
    if not np.any(live):
        return 0.0
    return float(np.log((hi[live] / lo[live]).max()))


def check_pinsker_consequence(j: JointPMF) -> dict:
    """tv(P_{Y|V=0}, P_{Y|V=1})^2 <= 2 I(V; Y) for uniform binary V."""
    pair = j.marginalize(("V", "Y"))
    pv = pair.table.sum(axis=1)
    if pv.size != 2:
        raise InvalidArgumentError("V must be binary")
    if np.abs(pv - 0.5).max() > 1e-9:
        raise InvalidArgumentError("the Pinsker consequence is stated for uniform V")
    cond = pair.table / pv[:, None]
    lhs = tv(cond[0], cond[1]) ** 2
    rhs = 2.0 * _mi_from_table(pair.table)
    return {"lhs": lhs, "rhs": rhs, "holds": lhs <= rhs + SLACK}


# ---------------------------------------------------------------------------
# enumerated Markov chains V -> X -> Y

def _quantizer_matrix(quantizer, k_in: int) -> np.ndarray:
    """Accept a deterministic map (length-k_in ints) or a stochastic table."""
    arr = np.asarray(quantizer)
    if arr.ndim == 1:
        if arr.size != k_in:
            raise InvalidArgumentError("deterministic quantizer needs one output per input")
        n_out = int(arr.max()) + 1
        q = np.zeros((k_in, n_out))
        q[np.arange(k_in), arr.astype(int)] = 1.0
        return q
    if arr.ndim == 2:
        if arr.shape[0] != k_in:
            raise InvalidArgumentError("stochastic quantizer needs one row per input")
        for row in arr:
            FinitePMF(row)
        return arr.astype(float)
    raise InvalidArgumentError("quantizer must be a map or a stochastic table")


def _product_channel(channel: ChannelSpec, v_dim: int, machines: int = 1):
    """P(x | v) over the product alphabet.

    v ranges over 2**v_dim sign patterns (bit b of the index = coordinate b,
    bit 0 most significant, 0 -> row 0, 1 -> row 1); x ranges over
    k**(machines * v_dim) tuples, machine-major. Machine i's coordinate j
    depends on v_j only, conditionally independent across (i, j).
    """
    if channel.k_in != 2:
        raise InvalidArgumentError("per-coordinate channels take the binary input {-1, +1}")
    k = channel.k_out
    n_coords = machines * v_dim
    n_x = k ** n_coords
    if 2 ** v_dim * n_x > ENUMERATION_CEILING:
        raise EnumerationTooLargeError("product alphabet exceeds the enumeration ceiling")
    digits = np.empty((n_x, n_coords), dtype=int)
    idx = np.arange(n_x)
    for c in range(n_coords - 1, -1, -1):
        digits[:, c] = idx % k
        idx //= k
    # coordinate c of x belongs to v-coordinate c % v_dim (machine-major order)
    vcoord = np.array([c % v_dim for c in range(n_coords)])
    out = np.empty((2 ** v_dim, n_x))
    for v in range(2 ** v_dim):
        vbits = [(v >> (v_dim - 1 - j)) & 1 for j in range(v_dim)]
        p = np.ones(n_x)
        for c in range(n_coords):
            p *= channel.rows[vbits[vcoord[c]], digits[:, c]]
        out[v] = p
    return out, digits


def _vxy_joint(p_x_given_v: np.ndarray, q: np.ndarray) -> JointPMF:
    nv = p_x_given_v.shape[0]
    joint = (p_x_given_v[:, :, None] * q[None, :, :]) / nv
    return JointPMF(("V", "X", "Y"), joint)


def check_dpi_independent(v_dim: int, channel: ChannelSpec, quantizer) -> dict:
    """Verify I(V; Y) <= 2 (e^{2 alpha} - 1)^2 I(X; Y) by exact enumeration.

    V is uniform on {-1, 1}^v_dim, coordinate j of X depends on V_j through
    `channel`, and Y = quantizer(X).
    """
    p_xv, _ = _product_channel(channel, v_dim)
    q = _quantizer_matrix(quantizer, p_xv.shape[1])
    joint = _vxy_joint(p_xv, q)
    alpha = check_likelihood_ratio(channel)
    i_vy = mutual_information(joint, "V", "Y")
    i_xy = mutual_information(joint, "X", "Y")
    i_vx = mutual_information(joint, "V", "X")
    bound = 2.0 * (math.exp(2.0 * alpha) - 1.0) ** 2 * i_xy
    return {"I_VY": i_vy, "I_XY": i_xy, "I_VX": i_vx, "alpha": alpha,
            "bound": bound, "holds": i_vy <= bound + SLACK}


def check_dpi_truncated(v_dim: int, channel: ChannelSpec, quantizer,
                        truncation, machines: int = 1) -> dict:
    """Truncated-set variant: I(V; Y) <= 2 (e^{4a} - 1)^2 I(X; Y) + H(E) + P(E=0).

    `truncation` is a boolean mask over the per-coordinate X alphabet (or a
    list of masks, one per V coordinate); the likelihood-ratio bound alpha is
    measured on the retained symbols only, and E indicates that every
    coordinate of every machine landed inside its retained set.
    """
    k = channel.k_out
    masks = np.asarray(truncation, dtype=bool)
    if masks.ndim == 1:
        masks = np.tile(masks, (v_dim, 1))
    if masks.shape != (v_dim, k):
        raise InvalidArgumentError("need one truncation mask per V coordinate")
    if not masks.any(axis=1).all():
        raise InvalidArgumentError("truncation sets must be nonempty")
    p_xv, digits = _product_channel(channel, v_dim, machines)
    q = _quantizer_matrix(quantizer, p_xv.shape[1])
    joint = _vxy_joint(p_xv, q)
    alpha = max(check_likelihood_ratio(channel, columns=np.nonzero(masks[j])[0])
                for j in range(v_dim))
    n_coords = machines * v_dim
    in_set = np.ones(p_xv.shape[1], dtype=bool)
    for c in range(n_coords):
        in_set &= masks[c % v_dim][digits[:, c]]
    p_x = joint.marginal("X").p
    p_e1 = float(p_x[in_set].sum())
    h_e = entropy(np.array([p_e1, 1.0 - p_e1]))
    i_vy = mutual_information(joint, "V", "Y")
    i_xy = mutual_information(joint, "X", "Y")
    bound = 2.0 * (math.exp(4.0 * alpha) - 1.0) ** 2 * i_xy + h_e + (1.0 - p_e1)
    return {"I_VY": i_vy, "I_XY": i_xy, "alpha": alpha, "H_E": h_e,
            "P_E0": 1.0 - p_e1, "bound": bound, "holds": i_vy <= bound + SLACK}


def check_tensorization(v_dim: int, channels, quantizers) -> dict:
    """I(V; Y_{1:m}) <= sum_i I(V; Y_i) when Y_i depends only on machine i."""
    m = len(channels)
    if len(quantizers) != m:
        raise InvalidArgumentError("need one quantizer per machine")
    kernels = []
    for channel, quantizer in zip(channels, quantizers):
        p_xv, _ = _product_channel(channel, v_dim)
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


def check_information_chaining(model: JointPMF) -> dict:
    """Lemma-style conditional-probability contraction on a (A, B, C, D) chain.

    Verifies the preconditions numerically (D independent of A given (B, C);
    each C slice of P(C | A, B) rank-1; alpha measured from P(B | A)), then
    checks for every (a, c, d) slice with positive probability that

        |P(a | c, d) - P(a | c)| <=
            2 (e^{2 alpha} - 1) min{P(a | c), P(a | c, d)}
                                 tv(P_B(. | c, d), P_B(. | c)) + slack.

    Zero-probability conditioning slices are skipped and counted.
    """
    if tuple(model.axes) != ("A", "B", "C", "D"):
        raise InvalidArgumentError("model axes must be (A, B, C, D)")
    t = model.table
    ka, kb, kc, kd = t.shape

    p_abc = t.sum(axis=3)
    p_ab = p_abc.sum(axis=2)
    p_a = p_ab.sum(axis=1)
    if np.any(p_a <= 0):
        raise InvalidArgumentError("every A value needs positive probability")

    # Markov condition: D independent of A given (B, C)
    p_bc = p_abc.sum(axis=0)
    p_bcd = t.sum(axis=0)
    for b in range(kb):
        for c in range(kc):
            if p_bc[b, c] <= 0:
                continue
            ref = p_bcd[b, c] / p_bc[b, c]
            for a in range(ka):
                if p_abc[a, b, c] <= 0:
                    continue
                cond = t[a, b, c] / p_abc[a, b, c]
                if np.abs(cond - ref).max() > 1e-8:
                    raise InvalidArgumentError("model violates D _|_ A | (B, C)")

    # factorization: each C slice of P(C | A, B) is rank one
    with np.errstate(invalid="ignore", divide="ignore"):
        p_c_given_ab = np.where(p_ab[:, :, None] > 0, p_abc / p_ab[:, :, None], 0.0)
    for c in range(kc):
        slab = p_c_given_ab[:, :, c]
        for a1 in range(ka):
            for a2 in range(a1 + 1, ka):
                for b1 in range(kb):
                    for b2 in range(b1 + 1, kb):
                        minor = slab[a1, b1] * slab[a2, b2] - slab[a1, b2] * slab[a2, b1]
                        if abs(minor) > 1e-8:
                            raise InvalidArgumentError(
                                "P(C | A, B) does not factor as phi1(A, C) phi2(B, C)")

    p_b_given_a = p_ab / p_a[:, None]
    alpha = check_likelihood_ratio(ChannelSpec(p_b_given_a))

    p_cd = t.sum(axis=(0, 1))
    p_c = p_cd.sum(axis=1)
    p_acd = t.sum(axis=1)
    p_ac = p_acd.sum(axis=2)
    p_bcd_full = t.sum(axis=0)
    p_bc_full = p_bcd_full.sum(axis=2)

    factor = 2.0 * (math.exp(2.0 * alpha) - 1.0)
    max_violation = -math.inf
    worst = None
    skipped = 0
    for c in range(kc):
        if p_c[c] <= 0:
            skipped += kd * ka
            continue
        pb_c = p_bc_full[:, c] / p_c[c]
        pa_c = p_ac[:, c] / p_c[c]
        for dv in range(kd):
            if p_cd[c, dv] <= 0:
                skipped += ka
                continue
            pb_cd = p_bcd_full[:, c, dv] / p_cd[c, dv]
            pa_cd = p_acd[:, c, dv] / p_cd[c, dv]
            tv_b = 0.5 * np.abs(pb_cd - pb_c).sum()
            for a in range(ka):
                lhs = abs(pa_cd[a] - pa_c[a])
                rhs = factor * min(pa_c[a], pa_cd[a]) * tv_b
                if lhs - rhs > max_violation:
                    max_violation = lhs - rhs
                    worst = {"lhs": lhs, "rhs": rhs, "a": a, "c": c, "d": dv}
    return {"max_violation": max_violation, "worst": worst, "alpha": alpha,
            "skipped": skipped, "holds": max_violation <= SLACK}


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
    if delta < 0 or sigma <= 0:
        raise InvalidArgumentError("need delta >= 0 and sigma > 0")
    prev = _gh_estimate(delta, sigma, 32)
    order = 64
    while order <= 8192:
        cur = _gh_estimate(delta, sigma, order)
        if abs(cur - prev) < tol:
            return max(0.0, cur)
        prev = cur
        order *= 2
    raise QuadratureError("Gauss-Hermite order cap reached without convergence")
