"""Randomized instance constructors and named verification suites.

Each suite draws seeded random finite instances, runs the matching
enumeration check from infotheory, and yields one row per instance:
(suite, instance_seed, lhs, rhs, slack, holds) with slack = rhs - lhs.
Constructors build strictly positive tables, so preconditions (normalization,
measured likelihood-ratio bounds, factorizations) hold exactly rather than by
rejection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import infotheory as it
from .errors import InvalidArgumentError

@dataclass(frozen=True)
class SuiteRow:
    suite: str
    seed: int
    lhs: float
    rhs: float
    holds: bool

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    def csv_row(self) -> str:
        return (f"{self.suite},{self.seed},{self.lhs!r},{self.rhs!r},"
                f"{self.slack!r},{int(self.holds)}")


SUITE_CSV_HEADER = "suite,seed,lhs,rhs,slack,holds"


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(int(seed)))


def _stochastic(rng, shape) -> np.ndarray:
    """Strictly positive row-stochastic table over the last axis."""
    raw = rng.uniform(0.1, 1.0, size=shape)
    return raw / raw.sum(axis=-1, keepdims=True)


def two_point_channel(delta: float) -> it.ChannelSpec:
    """The -1/+1 symmetric channel with P(X = V) = (1 + delta) / 2."""
    return it.ChannelSpec(np.array([[(1 + delta) / 2, (1 - delta) / 2],
                                    [(1 - delta) / 2, (1 + delta) / 2]]))


def random_bounded_channel(rng, k_out: int, delta: float) -> it.ChannelSpec:
    """Binary-input channel built as bounded multiplicative tilts of a base
    row, so the max likelihood ratio stays below (1 + delta) / (1 - delta)."""
    base = _stochastic(rng, k_out)
    tilt = rng.uniform(-1.0, 1.0, size=(2, k_out))
    rows = base * (1.0 + delta * tilt)
    return it.ChannelSpec(rows / rows.sum(axis=1, keepdims=True))


def random_quantizer(rng, k_in: int, n_out: int, stochastic: bool):
    if stochastic:
        return _stochastic(rng, (k_in, n_out))
    det = rng.integers(0, n_out, size=k_in)
    det[rng.integers(0, k_in)] = n_out - 1  # keep the full output range live
    return det


def random_pinsker_joint(rng) -> it.JointPMF:
    ky = int(rng.integers(2, 5))
    cond = _stochastic(rng, (2, ky))
    return it.JointPMF(("V", "Y"), 0.5 * cond)


def random_chain_model(rng) -> it.JointPMF:
    """(A, B, C, D) model satisfying the chain preconditions by construction.

    C = (C1, C2) is produced sequentially: C1 from B, C2 from (A, C1); this
    yields the exact factorization P(C | A, B) = phi1(A, C) phi2(B, C). D then
    depends on (B, C) only.
    """
    ka, kb, kc1, kc2, kd = 2, 2, 2, 2, 2
    pa = _stochastic(rng, ka)
    delta = float(rng.uniform(0.05, 0.5))
    p_b_a = random_bounded_channel(rng, kb, delta).rows
    p_c1_b = _stochastic(rng, (kb, kc1))
    p_c2_ac1 = _stochastic(rng, (ka, kc1, kc2))
    p_d_bc = _stochastic(rng, (kb, kc1, kc2, kd))
    table = np.einsum("a,ab,bx,axy,bxyd->abxyd", pa, p_b_a, p_c1_b,
                      p_c2_ac1, p_d_bc)
    return it.JointPMF(("A", "B", "C", "D"),
                       table.reshape(ka, kb, kc1 * kc2, kd))


def _sequential_message_kernel(rng, k: int, machines: int):
    """Interactive quantizer: message t is a stochastic function of machine
    t's symbol and all previous messages, flattened to one kernel (k^m, ny)."""
    sizes = [int(rng.integers(2, 4)) for _ in range(machines)]
    kernels = [_stochastic(rng, (k,) + tuple(sizes[:t]) + (sizes[t],))
               for t in range(machines)]
    digits = it.base_k_digits(k, machines)
    out = np.zeros((len(digits), int(np.prod(sizes))))
    for x, symbols in enumerate(digits):
        probs = np.ones(1)
        for t in range(machines):
            kern = kernels[t][symbols[t]]            # (*prev_sizes, sizes[t])
            probs = (probs[:, None] * kern.reshape(len(probs), sizes[t])).ravel()
        out[x] = probs
    return out


def _pack_report(suite, seed, lhs, rhs, holds) -> SuiteRow:
    return SuiteRow(suite, seed, float(lhs), float(rhs), bool(holds))


def _run_dpi3(seed: int) -> SuiteRow:
    rng = _rng(seed)
    v_dim = int(rng.integers(1, 3))
    delta = float(rng.choice([0.1, 0.2]))
    channel = random_bounded_channel(rng, int(rng.integers(2, 4)), delta)
    n_out = int(rng.integers(1, 5))
    quantizer = random_quantizer(rng, channel.k_out ** v_dim, n_out,
                                 stochastic=bool(rng.integers(0, 2)))
    rep = it.check_dpi_independent(v_dim, channel, quantizer)
    holds = rep["holds"] and rep["I_VY"] <= rep["I_VX"] + it.SLACK
    return _pack_report("dpi3", seed, rep["I_VY"], rep["bound"], holds)


def _run_dpi5(seed: int) -> SuiteRow:
    rng = _rng(seed)
    k = 3
    delta = float(rng.choice([0.1, 0.2]))
    channel = random_bounded_channel(rng, k, delta)
    keep = np.ones(k, dtype=bool)
    if rng.integers(0, 2):
        keep[rng.integers(0, k)] = False
    quantizer = random_quantizer(rng, k, int(rng.integers(1, 5)),
                                 stochastic=bool(rng.integers(0, 2)))
    rep = it.check_dpi_truncated(1, channel, quantizer, keep)
    return _pack_report("dpi5", seed, rep["I_VY"], rep["bound"], rep["holds"])


def _run_dpi7(seed: int) -> SuiteRow:
    rng = _rng(seed)
    machines = int(rng.integers(2, 4))
    k = int(rng.integers(2, 4))
    delta = float(rng.choice([0.1, 0.2]))
    channel = random_bounded_channel(rng, k, delta)
    keep = np.ones(k, dtype=bool)
    if k > 2 and rng.integers(0, 2):
        keep[rng.integers(0, k)] = False
    quantizer = _sequential_message_kernel(rng, k, machines)
    rep = it.check_dpi_truncated(1, channel, quantizer, keep, machines=machines)
    return _pack_report("dpi7", seed, rep["I_VY"], rep["bound"], rep["holds"])


def _run_chain(seed: int) -> SuiteRow:
    rng = _rng(seed)
    rep = it.check_information_chaining(random_chain_model(rng))
    worst = rep["worst"] or {"lhs": 0.0, "rhs": 0.0}
    return _pack_report("chain", seed, worst["lhs"], worst["rhs"], rep["holds"])


def _run_tensor(seed: int) -> SuiteRow:
    rng = _rng(seed)
    v_dim = int(rng.integers(1, 3))
    m = int(rng.integers(2, 4))
    channels = [random_bounded_channel(rng, 2, float(rng.choice([0.1, 0.2])))
                for _ in range(m)]
    quantizers = [random_quantizer(rng, 2 ** v_dim, int(rng.integers(1, 3)),
                                   stochastic=bool(rng.integers(0, 2)))
                  for _ in range(m)]
    rep = it.check_tensorization(v_dim, channels, quantizers)
    return _pack_report("tensor", seed, rep["I_joint"], rep["sum_I"], rep["holds"])


def _run_pinsker(seed: int) -> SuiteRow:
    rng = _rng(seed)
    rep = it.check_pinsker_consequence(random_pinsker_joint(rng))
    return _pack_report("pinsker", seed, rep["lhs"], rep["rhs"], rep["holds"])


def exact_min_hamming_test_error(p_vx: np.ndarray, d: int, t: float) -> float:
    """Bayes-optimal error of locating V within Hamming radius t from X.

    p_vx is the exact joint over (2**d sign patterns, X alphabet); the optimal
    rule picks the center whose radius-t ball has maximal posterior mass.
    """
    nv = 2 ** d
    radius = int(math.floor(t))
    ball = np.zeros((nv, nv), dtype=bool)
    for v in range(nv):
        for w in range(nv):
            ball[v, w] = bin(v ^ w).count("1") <= radius
    covered = 0.0
    for x in range(p_vx.shape[1]):
        col = p_vx[:, x]
        covered += max(float(col[ball[c]].sum()) for c in range(nv))
    return 1.0 - covered


def _run_fano(seed: int) -> SuiteRow:
    rng = _rng(seed)
    d = int(rng.integers(2, 4))
    t = int(rng.integers(0, 2))
    delta = float(rng.uniform(0.05, 0.6))
    channel = random_bounded_channel(rng, int(rng.integers(2, 4)), delta)
    p_xv, _ = it._product_channel(channel, d)
    joint = p_xv / 2 ** d
    info = it._mi_from_table(joint)
    bound = it.fano_variant_lower(d, t, info)
    err = exact_min_hamming_test_error(joint, d, t)
    return _pack_report("fano", seed, bound, err, bound <= err + it.SLACK)


_RUNNERS = {"dpi3": _run_dpi3, "dpi5": _run_dpi5, "dpi7": _run_dpi7,
            "chain": _run_chain, "tensor": _run_tensor,
            "pinsker": _run_pinsker, "fano": _run_fano}
SUITE_NAMES = tuple(_RUNNERS)


def run_suite(name: str, count: int, seed: int):
    """Run `count` seeded instances of a named suite; yields SuiteRow."""
    if name not in _RUNNERS:
        raise InvalidArgumentError(f"unknown suite {name!r}; choices: {SUITE_NAMES}")
    if count < 1:
        raise InvalidArgumentError("instance count must be >= 1")
    if seed < 0:
        raise InvalidArgumentError("seed must be >= 0")
    runner = _RUNNERS[name]
    base = int(np.random.SeedSequence(int(seed)).generate_state(1)[0])
    return [runner((base + 977 * i) % 2**63) for i in range(count)]
