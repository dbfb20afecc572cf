"""Exact finite-alphabet information quantities and enumeration-based
verification of the quantitative data-processing inequalities.

Every joint is an explicit table, so each quantity is exact up to float
rounding and the checks allow SLACK; a joint over ENUMERATION_CEILING cells
raises instead. Every pmf is a plain array: a channel is its rows P(x | v),
a quantizer its (k_in, n_out) table P(y | x), a deterministic map q the 0/1
table np.eye(q.max() + 1)[q], and the Pinsker and chaining joints are
(V, Y) and (A, B, C, D) tables.

Inside this module a table is a stack of tables along axis 0: a public
entry passes a stack of one, `sweeps` every drawn instance of one shape.
`_check_pmf` checks a stack once, where it enters. An instance gets the
same floats in a stack as alone: reductions run over a table's own axes, a
masked sum compacts each instance's cells (`_masked_sums`), and each
closing formula runs on Python floats.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import EnumerationTooLargeError, InvalidArgumentError, is_integer

ENUMERATION_CEILING = 1 << 20
SLACK = 1e-10
_NORM_TOL = 1e-12


def _check_pmf(tables, what: str, ndim=None, axis=None) -> np.ndarray:
    """The stack `tables` as a float array, after checking that each table
    has `ndim` axes (any number when None), that the stack is nonempty and
    that its entries are nonnegative and sum to 1 over `axis` (over all of a
    table's axes when None)."""
    arr = np.asarray(tables, dtype=float)
    if ndim is not None and arr.ndim != ndim + 1:
        raise InvalidArgumentError(f"{what} needs a {ndim}-d table")
    if arr.size == 0:
        raise InvalidArgumentError(f"{what} is empty")
    # array methods, not np.any / np.all: this runs on every table that enters
    if (arr < 0).any():
        raise InvalidArgumentError(f"{what} entries must be nonnegative")
    total = arr.sum(axis=tuple(range(1, arr.ndim)) if axis is None else axis)
    if not (abs(total - 1.0) <= _NORM_TOL).all():
        raise InvalidArgumentError(f"{what} sums to {total!r}, not 1")
    return arr


def _check_cells(cells: int, what: str) -> None:
    """Raise when `cells` (a Python int: products cannot wrap) states of one
    `what` table exceed the ceiling; a huge count would not print."""
    if cells > ENUMERATION_CEILING:
        raise EnumerationTooLargeError(
            f"{what} states exceed the {ENUMERATION_CEILING} ceiling")


def _masked_sums(mask: np.ndarray, term, *tables) -> np.ndarray:
    """For each row r of the leading axis, term(*cells).sum() over the
    entries of each table's row r where mask[r] holds, bit for bit the 1-d
    sum of row r alone: rows are grouped by their count of cells, each group
    one C-ordered (rows, count) block. Zero padding would shift numpy's
    pairwise grouping."""
    n = len(mask)
    flat = mask.reshape(n, -1)
    tables = [t.reshape(n, -1) for t in tables]
    if flat.all():
        return term(*tables).sum(axis=1)
    counts = flat.sum(axis=1)
    out = np.empty(n)
    for c in set(counts.tolist()):
        sel = counts == c
        rows = flat[sel]
        cells = [t[sel][rows].reshape(len(rows), c) for t in tables]
        out[sel] = term(*cells).sum(axis=1)
    return out


def _entropy_rows(p: np.ndarray) -> np.ndarray:
    """Entropy in nats of each row of `p`, with 0 log 0 = 0."""
    # 0.0 - sum, not -sum: a point mass has entropy +0.0, not -0.0
    return 0.0 - _masked_sums(p > 0, lambda q: q * np.log(q), p)


def entropy(p) -> float:
    """Shannon entropy in nats of the pmf `p`, with 0 log 0 = 0."""
    return float(_entropy_rows(_check_pmf(np.asarray(p)[None], "pmf", 1))[0])


def _mi_from_table(joints: np.ndarray) -> np.ndarray:
    """I(A; B) of each (A, B) table of the stack `joints`."""
    a, b = joints.sum(axis=2)[:, :, None], joints.sum(axis=1)[:, None, :]
    prod = a * b
    live = joints > 0
    if not (live & (prod == 0)).any():
        return _masked_sums(live, lambda j, p: j * np.log(j / p), joints, prod)
    # a * b underflowed to 0 beside a live cell: there, and only there, take
    # the log of each factor
    def term(j, p, pa, pb):
        tiny = p == 0
        out = j * np.log(j / np.where(tiny, 1.0, p))
        out[tiny] = j[tiny] * (np.log(j[tiny]) - np.log(pa[tiny]) - np.log(pb[tiny]))
        return out
    return _masked_sums(live, term, joints, prod, *np.broadcast_arrays(a, b))


def mutual_information(joint, axis_a: int, axis_b: int) -> float:
    """I(A; B) in nats between the distinct integer axes `axis_a` and
    `axis_b` of the joint table `joint`, after summing out every other axis."""
    tables = np.asarray(joint)[None]
    _check_cells(tables.size, "joint")
    tables = _check_pmf(tables, "joint")
    ndim = tables.ndim - 1
    if not (is_integer(axis_a) and is_integer(axis_b)
            and axis_a != axis_b and {axis_a, axis_b} <= set(range(ndim))):
        raise InvalidArgumentError(f"need two distinct axes of a {ndim}-d joint")
    reduced = tables.sum(
        axis=tuple(i + 1 for i in range(ndim) if i not in (axis_a, axis_b)))
    return float(_mi_from_table(reduced.swapaxes(1, 2) if axis_a > axis_b else reduced)[0])


def _check_hamming(d: int, t: float) -> None:
    """Raise unless d is an integer >= 1 and the radius t is finite and >= 0."""
    if not (is_integer(d) and d >= 1 and 0 <= t < math.inf):
        raise InvalidArgumentError("need an integer d >= 1 and a finite t >= 0")


def hamming_neighborhood_size(d: int, t: float) -> int:
    """Vertices of {-1, 1}^d within Hamming distance t of any fixed vertex."""
    _check_hamming(d, t)
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
    try:
        log_ratio = math.log(total / size)
    except OverflowError:     # 2^d / N_t is past the float range (d near 1024)
        log_ratio = math.log(total) - math.log(size)
    return max(0.0, 1.0 - (info_nats + math.log(2.0)) / log_ratio)


def estimation_to_testing_lower(delta: float, t: float, test_error_prob: float) -> float:
    """Risk lower bound delta^2 (floor(t) + 1) P(test error)."""
    for name, value in (("delta", delta), ("t", t)):
        if not 0 <= value < math.inf:
            raise InvalidArgumentError(f"{name} must be finite and >= 0")
    if not 0 <= test_error_prob <= 1:
        raise InvalidArgumentError("test_error_prob must be a probability")
    return delta ** 2 * (math.floor(t) + 1) * test_error_prob


def _max_log_ratio(rows: np.ndarray, keep=None) -> np.ndarray:
    """Per table of the stack `rows`, the log of the worst max/min ratio over
    the row axis (-2), taken over the output columns where `keep` holds
    (every column when None); 0 when none of those columns is reachable."""
    lo = rows.min(axis=-2)
    hi = rows.max(axis=-2)
    live = hi > 0 if keep is None else (hi > 0) & keep
    ratio = np.divide(hi, lo, out=np.ones_like(hi), where=live & (lo > 0))
    ratio[live & (lo == 0)] = math.inf
    return np.log(ratio.max(axis=-1))


def check_pinsker_consequence(pair) -> dict:
    """TV(P_{Y|V=0}, P_{Y|V=1})^2 <= 2 I(V; Y) for uniform binary V, on the
    (V, Y) joint table `pair`."""
    return _pinsker_consequence(np.asarray(pair)[None])[0]


def _pinsker_consequence(pairs) -> list:
    """The Pinsker report of each table of the stack `pairs`."""
    pair = _check_pmf(pairs, "(V, Y) joint", 2)
    pv = pair.sum(axis=2)
    if pv.shape[1] != 2:
        raise InvalidArgumentError("V must be binary")
    if np.abs(pv - 0.5).max() > 1e-9:
        raise InvalidArgumentError("the Pinsker consequence is stated for uniform V")
    cond = pair / pv[..., None]
    tvs = 0.5 * np.abs(cond[:, 0] - cond[:, 1]).sum(axis=1)
    reports = []
    for dist, info in zip(tvs.tolist(), _mi_from_table(pair).tolist()):
        lhs, rhs = dist ** 2, 2.0 * info
        reports.append({"lhs": lhs, "rhs": rhs, "holds": lhs <= rhs + SLACK})
    return reports


# ---------------------------------------------------------------------------
# enumerated Markov chains V -> X -> Y

def _quantizer_matrix(quantizers, k_in: int) -> np.ndarray:
    """The stack `quantizers` of (k_in, n_out) tables P(y | x), checked."""
    q = _check_pmf(quantizers, "quantizer row", 2, axis=-1)
    if q.shape[1] != k_in:
        raise InvalidArgumentError("quantizer needs one row per input")
    return q


@lru_cache(maxsize=None)
def base_k_digits(k: int, width: int) -> np.ndarray:
    """(k**width, width) int table: row x holds x in base k, most significant
    first. Built once per (k, width) and shared, so it is read-only."""
    n = k ** width
    digits = np.empty((n, width), dtype=int)
    idx = np.arange(n)
    for c in range(width - 1, -1, -1):
        digits[:, c] = idx % k
        idx //= k
    digits.setflags(write=False)
    return digits


def _product_channel(rows: np.ndarray, v_dim: int, machines: int = 1):
    """P(x | v) over the product alphabet for each (2, k) table of the
    checked stack `rows`, and the digits of the x alphabet. v ranges over
    2**v_dim sign patterns (bit b of the index is coordinate b, bit 0 most
    significant, 0 -> row 0); x over k**(machines * v_dim) tuples,
    machine-major, machine i's coordinate j depending on v_j alone."""
    if rows.shape[1] != 2:
        raise InvalidArgumentError("per-coordinate channels take the binary input {-1, +1}")
    if not all(is_integer(s) and s >= 1 for s in (v_dim, machines)):
        raise InvalidArgumentError("need integers v_dim >= 1 and machines >= 1")
    k = rows.shape[2]
    n_coords = int(machines) * int(v_dim)
    # the count is at least 2**floor_bits: checking that bound first (capped
    # once it passes the ceiling) rejects a huge v_dim before its count is built
    floor_bits = int(v_dim) + n_coords * (k.bit_length() - 1)
    _check_cells(2 ** min(floor_bits, ENUMERATION_CEILING.bit_length()), "product alphabet")
    n_x = k ** n_coords
    _check_cells(2 ** v_dim * n_x, "product alphabet")
    digits = base_k_digits(k, n_coords)
    vbits = base_k_digits(2, v_dim)
    out = np.ones((len(rows), 2 ** v_dim, n_x))
    for c in range(n_coords):
        # coordinate c of x belongs to v-coordinate c % v_dim (machine-major order)
        out *= rows[:, vbits[:, c % v_dim, None], digits[None, :, c]]
    return out, digits


def product_channel(channel, v_dim: int) -> np.ndarray:
    """The (2**v_dim, k**v_dim) table P(x | v) of v_dim independent uses of
    the binary-input channel `channel`, a (2, k) table of rows; v and x are
    ordered as in `_product_channel`."""
    rows = _check_pmf(np.asarray(channel)[None], "channel row", 2, axis=-1)
    return _product_channel(rows, v_dim)[0][0]


def _vxy_joint(v_dim: int, rows: np.ndarray, quantizers, machines: int = 1):
    """The (V, X, Y) joint table of V -> X -> Y, Y drawn from row X of the
    quantizer, for each channel and quantizer of the stacks `rows` and
    `quantizers`, and the digits of the X alphabet."""
    p_xv, digits = _product_channel(rows, v_dim, machines)
    q = _quantizer_matrix(quantizers, p_xv.shape[2])
    _check_cells(p_xv[0].size * q.shape[2], "joint")
    joint = p_xv[:, :, :, None] * q[:, None, :, :]
    joint /= p_xv.shape[1]
    return joint, digits


def check_dpi_independent(v_dim: int, channel, quantizer) -> dict:
    """Verify I(V; Y) <= 2 (e^{2 alpha} - 1)^2 I(X; Y) by exact enumeration.

    V is uniform on {-1, 1}^v_dim, coordinate j of X depends on V_j through
    `channel`, and Y is drawn from row X of `quantizer`, the (k**v_dim, n_out)
    table P(y | x)."""
    return _dpi_independent(v_dim, np.asarray(channel)[None], np.asarray(quantizer)[None])[0]


def _dpi_independent(v_dim: int, channels, quantizers) -> list:
    """The report of check_dpi_independent for each instance of the stacks
    `channels` and `quantizers`."""
    rows = _check_pmf(channels, "channel row", 2, axis=-1)
    joint, _ = _vxy_joint(v_dim, rows, quantizers)
    stats = zip(_max_log_ratio(rows).tolist(),
                _mi_from_table(joint.sum(axis=2)).tolist(),
                _mi_from_table(joint.sum(axis=1)).tolist(),
                _mi_from_table(joint.sum(axis=3)).tolist())
    reports = []
    for alpha, i_vy, i_xy, i_vx in stats:
        bound = 2.0 * (math.exp(2.0 * alpha) - 1.0) ** 2 * i_xy
        reports.append({"I_VY": i_vy, "I_XY": i_xy, "I_VX": i_vx, "alpha": alpha,
                        "bound": bound, "holds": i_vy <= bound + SLACK})
    return reports


def check_dpi_truncated(v_dim: int, channel, quantizer, truncation,
                        machines: int = 1) -> dict:
    """Truncated-set variant: I(V; Y) <= 2 (e^{4a} - 1)^2 I(X; Y) + H(E) + P(E=0).
    `truncation` is one boolean mask over the per-coordinate X alphabet, the
    retained set of every coordinate of every machine; alpha is measured on
    the retained symbols, and E is that every coordinate landed in the set.
    """
    return _dpi_truncated(v_dim, np.asarray(channel)[None], np.asarray(quantizer)[None],
                          np.asarray(truncation)[None], machines)[0]


def _dpi_truncated(v_dim: int, channels, quantizers, truncations,
                   machines: int = 1) -> list:
    """The report of check_dpi_truncated for each instance of the stacks
    `channels`, `quantizers` and `truncations`."""
    rows = _check_pmf(channels, "channel row", 2, axis=-1)
    joint, digits = _vxy_joint(v_dim, rows, quantizers, machines)
    keep = np.asarray(truncations)
    if keep.dtype != bool:
        raise InvalidArgumentError("the truncation must be a boolean mask")
    if keep.shape != (len(rows), rows.shape[2]):
        raise InvalidArgumentError("need one truncation flag per X symbol")
    if not keep.any(axis=1).all():
        raise InvalidArgumentError("the truncation set must be nonempty")
    in_set = keep[:, digits].all(axis=2)
    p_e1 = _masked_sums(in_set, lambda p: p, joint.sum(axis=(1, 3)))
    stats = zip(_max_log_ratio(rows, keep).tolist(),
                _mi_from_table(joint.sum(axis=2)).tolist(),
                _mi_from_table(joint.sum(axis=1)).tolist(), p_e1.tolist(),
                _entropy_rows(np.stack([p_e1, 1.0 - p_e1], axis=1)).tolist())
    reports = []
    for alpha, i_vy, i_xy, p_in, h_e in stats:
        bound = 2.0 * (math.exp(4.0 * alpha) - 1.0) ** 2 * i_xy + h_e + (1.0 - p_in)
        reports.append({"I_VY": i_vy, "I_XY": i_xy, "alpha": alpha, "H_E": h_e,
                        "P_E0": 1.0 - p_in, "bound": bound,
                        "holds": i_vy <= bound + SLACK})
    return reports


def check_tensorization(v_dim: int, channels, quantizers) -> dict:
    """I(V; Y_{1:m}) <= sum_i I(V; Y_i) when Y_i depends only on machine i."""
    return _tensorization(v_dim, [np.asarray(c)[None] for c in channels],
                          [np.asarray(q)[None] for q in quantizers])[0]


def _tensorization(v_dim: int, channels, quantizers) -> list:
    """The report of check_tensorization for each instance, where each
    machine's channel and quantizer are stacks."""
    m = len(channels)
    if m < 1 or len(quantizers) != m:
        raise InvalidArgumentError("need at least one machine and one quantizer per machine")
    kernels = []
    for channel, quantizer in zip(channels, quantizers):
        p_xv, _ = _product_channel(_check_pmf(channel, "channel row", 2, axis=-1), v_dim)
        q = _quantizer_matrix(quantizer, p_xv.shape[2])
        kernels.append(p_xv @ q)          # (instances, 2**v_dim, ny_i)
    n, nv = kernels[0].shape[:2]
    _check_cells(nv * math.prod(k.shape[2] for k in kernels), "joint message")
    joint_given_v = np.ones((n, nv, 1))
    for k in kernels:
        joint_given_v = (joint_given_v[..., None] * k[:, :, None, :]).reshape(n, nv, -1)
    i_joint = _mi_from_table(joint_given_v / nv)
    sum_i = sum(_mi_from_table(k / nv) for k in kernels)
    return [{"I_joint": ij, "sum_I": si, "holds": ij <= si + SLACK}
            for ij, si in zip(i_joint.tolist(), sum_i.tolist())]


def check_information_chaining(model) -> dict:
    """Lemma-style conditional-probability contraction on the (A, B, C, D)
    joint table `model`. Raises InvalidArgumentError unless D is independent
    of A given (B, C) and each C slice of P(C | A, B) is rank one; alpha is
    measured from P(B | A). Checks, on every (a, c, d) of positive
    probability (the others are skipped and counted), that

        |P(a | c, d) - P(a | c)| <= 2 (e^{2 alpha} - 1)
            min{P(a | c), P(a | c, d)} TV(P_B(. | c, d), P_B(. | c)) + SLACK.
    """
    return _information_chaining(np.asarray(model)[None])[0]


def _information_chaining(models) -> list:
    """The report of check_information_chaining for each table of the stack
    `models`. Axis 0 of every array below indexes the stack."""
    t = _check_pmf(models, "(A, B, C, D) joint", 4)
    n, ka = t.shape[:2]
    # one errstate for the stack: empty conditioning slices divide by zero,
    # and an infinite alpha times a zero tv is NaN
    with np.errstate(invalid="ignore", divide="ignore"):
        p_abc = t.sum(axis=4)
        p_ab = p_abc.sum(axis=3)
        p_a = p_ab.sum(axis=2)
        if np.any(p_a <= 0):
            raise InvalidArgumentError("every A value needs positive probability")

        # Markov condition: D independent of A given (B, C), on every (a, b, c)
        # with positive probability (so that P(b, c) > 0 too)
        p_bcd = t.sum(axis=1)
        cond = t / p_abc[..., None]
        ref = p_bcd / p_abc.sum(axis=1)[..., None]
        if np.any(np.abs(cond - ref[:, None]).max(axis=4)[p_abc > 0] > 1e-8):
            raise InvalidArgumentError("model violates D _|_ A | (B, C)")

        # factorization: each C slice of P(C | A, B) is rank one, so every 2 x 2
        # minor s[a1, b1] s[a2, b2] - s[a1, b2] s[a2, b1] vanishes
        p_c_given_ab = np.where(p_ab[..., None] > 0, p_abc / p_ab[..., None], 0.0)
        outer = p_c_given_ab[:, :, None, :, None] * p_c_given_ab[:, None, :, None, :]
        if np.any(np.abs(outer - outer.swapaxes(3, 4)) > 1e-8):
            raise InvalidArgumentError(
                "P(C | A, B) does not factor as phi1(A, C) phi2(B, C)")

        alphas = _max_log_ratio(p_ab / p_a[..., None]).tolist()

        # every (c, d, a) at once, C-ordered so that sums over B run along a
        # contiguous last axis and argmax picks the first worst slice
        p_cd = t.sum(axis=(1, 2))
        p_c = p_cd.sum(axis=2)
        p_acd = t.sum(axis=2)
        live = p_cd > 0              # P(c) > 0 wherever P(c, d) > 0
        pb_c = np.ascontiguousarray(p_bcd.sum(axis=3).swapaxes(1, 2)) / p_c[..., None]
        pa_c = np.ascontiguousarray(p_acd.sum(axis=3).swapaxes(1, 2)) / p_c[..., None]
        pb_cd = np.ascontiguousarray(p_bcd.transpose(0, 2, 3, 1)) / p_cd[..., None]
        pa_cd = np.ascontiguousarray(p_acd.transpose(0, 2, 3, 1)) / p_cd[..., None]
        tv_b = 0.5 * np.abs(pb_cd - pb_c[:, :, None, :]).sum(axis=3)       # (c, d)
        factor = np.array([2.0 * (math.exp(2.0 * a) - 1.0) for a in alphas])
        lhs = np.abs(pa_cd - pa_c[:, :, None, :])
        rhs = (factor[:, None, None, None] * np.minimum(pa_c[:, :, None, :], pa_cd)
               * tv_b[..., None])
        gap = lhs - rhs              # NaN (an infinite alpha times 0) never counts
    gap = np.where(live[..., None] & (gap > -math.inf), gap, -math.inf).reshape(n, -1)
    at = gap.argmax(axis=1)
    first = np.arange(n)
    worst = zip(gap[first, at].tolist(), lhs.reshape(n, -1)[first, at].tolist(),
                rhs.reshape(n, -1)[first, at].tolist(),
                *(i.tolist() for i in np.unravel_index(at, lhs.shape[1:])))
    skipped = (ka * np.count_nonzero(~live, axis=(1, 2))).tolist()
    reports = []
    for (max_violation, w_lhs, w_rhs, c, dv, a), alpha, skip in zip(worst, alphas, skipped):
        reports.append({"max_violation": max_violation, "alpha": alpha, "skipped": skip,
                        "worst": ({"lhs": w_lhs, "rhs": w_rhs, "a": a, "c": c, "d": dv}
                                  if max_violation > -math.inf else None),
                        "holds": max_violation <= SLACK})
    return reports
