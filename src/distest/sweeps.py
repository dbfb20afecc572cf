"""Randomized instance constructors and named verification suites.

Each suite draws seeded random finite instances, runs the matching
enumeration check from infotheory, and gives one row per instance:
(suite, instance_seed, lhs, rhs, slack, holds) with slack = rhs - lhs.
A suite's runner draws one instance from the generator it is handed and
returns (lhs, rhs, holds); run_suite seeds the generators and builds the rows.
Constructors return plain arrays, the tables the checks take, and build them
strictly positive, so preconditions (normalization, measured likelihood-ratio
bounds, factorizations) hold exactly rather than by rejection.
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


def _stochastic(rng, shape) -> np.ndarray:
    """Strictly positive row-stochastic table over the last axis."""
    raw = rng.uniform(0.1, 1.0, size=shape)
    return raw / raw.sum(axis=-1, keepdims=True)


def two_point_channel(delta: float) -> np.ndarray:
    """The -1/+1 symmetric channel with P(X = V) = (1 + delta) / 2."""
    return np.array([[(1 + delta) / 2, (1 - delta) / 2],
                     [(1 - delta) / 2, (1 + delta) / 2]])


def random_bounded_channel(rng, k_out: int, delta: float) -> np.ndarray:
    """Binary-input channel built as bounded multiplicative tilts of a base
    row, so the max likelihood ratio stays below (1 + delta) / (1 - delta)."""
    base = _stochastic(rng, k_out)
    tilt = rng.uniform(-1.0, 1.0, size=(2, k_out))
    rows = base * (1.0 + delta * tilt)
    return rows / rows.sum(axis=1, keepdims=True)


def random_quantizer(rng, k_in: int, n_out: int, stochastic: bool):
    if stochastic:
        return _stochastic(rng, (k_in, n_out))
    det = rng.integers(0, n_out, size=k_in)
    det[rng.integers(0, k_in)] = n_out - 1  # keep the full output range live
    return det


def random_pinsker_joint(rng) -> np.ndarray:
    """(V, Y) joint table with V uniform on two values."""
    return 0.5 * _stochastic(rng, (2, int(rng.integers(2, 5))))


def random_chain_model(rng) -> np.ndarray:
    """(A, B, C, D) joint table satisfying the chain preconditions by construction.

    C = (C1, C2) is produced sequentially: C1 from B, C2 from (A, C1); this
    yields the exact factorization P(C | A, B) = phi1(A, C) phi2(B, C). D then
    depends on (B, C) only.
    """
    ka, kb, kc1, kc2, kd = 2, 2, 2, 2, 2
    pa = _stochastic(rng, ka)
    delta = float(rng.uniform(0.05, 0.5))
    p_b_a = random_bounded_channel(rng, kb, delta)
    p_c1_b = _stochastic(rng, (kb, kc1))
    p_c2_ac1 = _stochastic(rng, (ka, kc1, kc2))
    p_d_bc = _stochastic(rng, (kb, kc1, kc2, kd))
    table = np.einsum("a,ab,bx,axy,bxyd->abxyd", pa, p_b_a, p_c1_b,
                      p_c2_ac1, p_d_bc)
    return table.reshape(ka, kb, kc1 * kc2, kd)


def _sequential_message_kernel(rng, k: int, machines: int):
    """Interactive quantizer: message t is a stochastic function of machine
    t's symbol and all previous messages, flattened to one kernel (k^m, ny)."""
    sizes = [int(rng.integers(2, 4)) for _ in range(machines)]
    kernels = [_stochastic(rng, (k,) + tuple(sizes[:t]) + (sizes[t],))
               for t in range(machines)]
    digits = it.base_k_digits(k, machines)
    probs = np.ones((len(digits), 1))        # (x, previous messages)
    for t in range(machines):
        kern = kernels[t][digits[:, t]].reshape(probs.shape + (sizes[t],))
        probs = (probs[:, :, None] * kern).reshape(len(digits), -1)
    return probs


def _run_dpi3(rng):
    v_dim = int(rng.integers(1, 3))
    delta = (0.1, 0.2)[rng.integers(0, 2)]
    channel = random_bounded_channel(rng, int(rng.integers(2, 4)), delta)
    n_out = int(rng.integers(1, 5))
    quantizer = random_quantizer(rng, channel.shape[1] ** v_dim, n_out,
                                 stochastic=bool(rng.integers(0, 2)))
    rep = it.check_dpi_independent(v_dim, channel, quantizer)
    return rep["I_VY"], rep["bound"], rep["holds"] and rep["I_VY"] <= rep["I_VX"] + it.SLACK


def _run_dpi5(rng):
    k = 3
    delta = (0.1, 0.2)[rng.integers(0, 2)]
    channel = random_bounded_channel(rng, k, delta)
    keep = np.ones(k, dtype=bool)
    if rng.integers(0, 2):
        keep[rng.integers(0, k)] = False
    quantizer = random_quantizer(rng, k, int(rng.integers(1, 5)),
                                 stochastic=bool(rng.integers(0, 2)))
    rep = it.check_dpi_truncated(1, channel, quantizer, keep)
    return rep["I_VY"], rep["bound"], rep["holds"]


def _run_dpi7(rng):
    machines = int(rng.integers(2, 4))
    k = int(rng.integers(2, 4))
    delta = (0.1, 0.2)[rng.integers(0, 2)]
    channel = random_bounded_channel(rng, k, delta)
    keep = np.ones(k, dtype=bool)
    if k > 2 and rng.integers(0, 2):
        keep[rng.integers(0, k)] = False
    quantizer = _sequential_message_kernel(rng, k, machines)
    rep = it.check_dpi_truncated(1, channel, quantizer, keep, machines=machines)
    return rep["I_VY"], rep["bound"], rep["holds"]


def _run_chain(rng):
    rep = it.check_information_chaining(random_chain_model(rng))
    worst = rep["worst"] or {"lhs": 0.0, "rhs": 0.0}
    return worst["lhs"], worst["rhs"], rep["holds"]


def _run_tensor(rng):
    v_dim = int(rng.integers(1, 3))
    m = int(rng.integers(2, 4))
    channels = [random_bounded_channel(rng, 2, (0.1, 0.2)[rng.integers(0, 2)])
                for _ in range(m)]
    quantizers = [random_quantizer(rng, 2 ** v_dim, int(rng.integers(1, 3)),
                                   stochastic=bool(rng.integers(0, 2)))
                  for _ in range(m)]
    rep = it.check_tensorization(v_dim, channels, quantizers)
    return rep["I_joint"], rep["sum_I"], rep["holds"]


def _run_pinsker(rng):
    rep = it.check_pinsker_consequence(random_pinsker_joint(rng))
    return rep["lhs"], rep["rhs"], rep["holds"]


def exact_min_hamming_test_error(p_vx: np.ndarray, d: int, t: float) -> float:
    """Bayes-optimal error of locating V within Hamming radius t from X.

    p_vx is the exact joint over (2**d sign patterns, X alphabet); the optimal
    rule picks the center whose radius-t ball has maximal posterior mass.
    """
    v = np.arange(2 ** d)
    if p_vx.shape[0] != v.size:
        raise InvalidArgumentError("p_vx needs one row per sign pattern")
    weight = it.base_k_digits(2, d).sum(axis=1)        # Hamming weight of v
    # members[c] lists, in increasing order, the N_t patterns of c's ball
    members = np.nonzero(weight[v[:, None] ^ v] <= math.floor(t))[1].reshape(v.size, -1)
    mass = np.ascontiguousarray(p_vx.T[:, members]).sum(axis=2)   # (x, center)
    # summed over x one term at a time, left to right, not pairwise
    covered = np.cumsum(np.append(0.0, mass.max(axis=1)))[-1]
    return 1.0 - float(covered)


def _run_fano(rng):
    d = int(rng.integers(2, 4))
    t = int(rng.integers(0, 2))
    delta = float(rng.uniform(0.05, 0.6))
    channel = random_bounded_channel(rng, int(rng.integers(2, 4)), delta)
    p_xv, _ = it._product_channel(channel, d)
    joint = p_xv / 2 ** d
    info = it._mi_from_table(joint)
    bound = it.fano_variant_lower(d, t, info)
    err = exact_min_hamming_test_error(joint, d, t)
    return bound, err, bound <= err + it.SLACK


_RUNNERS = {"dpi3": _run_dpi3, "dpi5": _run_dpi5, "dpi7": _run_dpi7,
            "chain": _run_chain, "tensor": _run_tensor,
            "pinsker": _run_pinsker, "fano": _run_fano}
SUITE_NAMES = tuple(_RUNNERS)


def run_suite(name: str, count: int, seed: int):
    """Run `count` seeded instances of a named suite; returns their SuiteRows
    in instance order."""
    if name not in _RUNNERS:
        raise InvalidArgumentError(f"unknown suite {name!r}; choices: {SUITE_NAMES}")
    if count < 1:
        raise InvalidArgumentError("instance count must be >= 1")
    if seed < 0:
        raise InvalidArgumentError("seed must be >= 0")
    runner = _RUNNERS[name]
    base = int(np.random.SeedSequence(int(seed)).generate_state(1)[0])
    rows = []
    for i in range(count):
        instance_seed = (base + 977 * i) % 2**63
        lhs, rhs, holds = runner(np.random.default_rng(instance_seed))
        rows.append(SuiteRow(name, instance_seed, float(lhs), float(rhs), bool(holds)))
    return rows
