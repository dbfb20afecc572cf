"""Randomized instance constructors and named verification suites.

Each suite draws seeded random finite instances, runs the matching
enumeration check from infotheory, and gives one row per instance:
(suite, instance_seed, lhs, rhs, slack, holds) with slack = rhs - lhs.
run_suite draws every instance from its own generator, then checks together
the instances that share their params and table shapes: each infotheory body
takes a stack of tables along axis 0, which a public `check_*` (and
`exact_min_hamming_test_error` here) builds as a stack of one, and a suite
as the stack of every instance of one shape. A row's bytes do not depend on
which instances share its stack.
Constructors return plain arrays, the tables the checks take; a quantizer is
its (k_in, n_out) table P(y | x). Every table is strictly positive but a
deterministic quantizer's 0/1 table, so preconditions (normalization,
measured likelihood-ratio bounds, factorizations) hold exactly rather than
by rejection.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

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


def random_quantizer(rng, k_in: int, n_out: int, stochastic: bool) -> np.ndarray:
    """(k_in, n_out) quantizer table P(y | x): strictly positive rows, or
    the 0/1 table of a deterministic map."""
    if stochastic:
        return _stochastic(rng, (k_in, n_out))
    det = rng.integers(0, n_out, size=k_in)
    det[rng.integers(0, k_in)] = n_out - 1  # keep the full output range live
    return np.eye(n_out)[det]


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


# A suite is a draw and a check. draw(rng) takes one instance from its own
# generator and gives its params, the scalars its check needs, and its
# tables; check(params, *stacks) takes the tables of every instance with those
# params and table shapes, each stacked along axis 0, and gives one
# (lhs, rhs, holds) per instance, in stack order.

def _draw_dpi3(rng):
    v_dim = int(rng.integers(1, 3))
    delta = (0.1, 0.2)[rng.integers(0, 2)]
    channel = random_bounded_channel(rng, int(rng.integers(2, 4)), delta)
    n_out = int(rng.integers(1, 5))
    quantizer = random_quantizer(rng, channel.shape[1] ** v_dim, n_out,
                                 stochastic=bool(rng.integers(0, 2)))
    return (v_dim,), (channel, quantizer)


def _check_dpi3(params, channels, quantizers):
    reps = it._dpi_independent(params[0], channels, quantizers)
    return [(r["I_VY"], r["bound"], r["holds"] and r["I_VY"] <= r["I_VX"] + it.SLACK)
            for r in reps]


def _draw_dpi5(rng):
    k = 3
    delta = (0.1, 0.2)[rng.integers(0, 2)]
    channel = random_bounded_channel(rng, k, delta)
    keep = np.ones(k, dtype=bool)
    if rng.integers(0, 2):
        keep[rng.integers(0, k)] = False
    n_out = int(rng.integers(1, 5))
    quantizer = random_quantizer(rng, k, n_out, stochastic=bool(rng.integers(0, 2)))
    return (1,), (channel, quantizer, keep)


def _draw_dpi7(rng):
    machines = int(rng.integers(2, 4))
    k = int(rng.integers(2, 4))
    delta = (0.1, 0.2)[rng.integers(0, 2)]
    channel = random_bounded_channel(rng, k, delta)
    keep = np.ones(k, dtype=bool)
    if k > 2 and rng.integers(0, 2):
        keep[rng.integers(0, k)] = False
    quantizer = _sequential_message_kernel(rng, k, machines)
    return (machines,), (channel, quantizer, keep)


def _check_truncated(params, channels, quantizers, keeps):
    """dpi5 and dpi7: params[0] is the number of machines."""
    reps = it._dpi_truncated(1, channels, quantizers, keeps, params[0])
    return [(r["I_VY"], r["bound"], r["holds"]) for r in reps]


def _draw_chain(rng):
    return (), (random_chain_model(rng),)


def _check_chain(params, models):
    out = []
    for rep in it._information_chaining(models):
        worst = rep["worst"] or {"lhs": 0.0, "rhs": 0.0}
        out.append((worst["lhs"], worst["rhs"], rep["holds"]))
    return out


def _draw_tensor(rng):
    v_dim = int(rng.integers(1, 3))
    m = int(rng.integers(2, 4))
    channels = [random_bounded_channel(rng, 2, (0.1, 0.2)[rng.integers(0, 2)])
                for _ in range(m)]
    quantizers = [random_quantizer(rng, 2 ** v_dim, int(rng.integers(1, 3)),
                                   stochastic=bool(rng.integers(0, 2)))
                  for _ in range(m)]
    return (v_dim,), (*channels, *quantizers)


def _check_tensor(params, *stacks):
    m = len(stacks) // 2
    reps = it._tensorization(params[0], stacks[:m], stacks[m:])
    return [(r["I_joint"], r["sum_I"], r["holds"]) for r in reps]


def _draw_pinsker(rng):
    return (), (random_pinsker_joint(rng),)


def _check_pinsker(params, pairs):
    return [(r["lhs"], r["rhs"], r["holds"])
            for r in it._pinsker_consequence(pairs)]


@lru_cache(maxsize=None)
def _hamming_ball(d: int, radius: int) -> np.ndarray:
    """(2**d, N_t) read-only table: row c lists, in increasing order, the
    sign patterns within Hamming distance `radius` of pattern c, each c XOR
    one of the N_t offsets of Hamming weight <= radius."""
    offsets = [sum(1 << b for b in bits) for w in range(min(radius, d) + 1)
               for bits in itertools.combinations(range(d), w)]
    members = np.sort(np.arange(2 ** d)[:, None] ^ np.array(offsets), axis=1)
    members.setflags(write=False)
    return members


def _hamming_test_errors(p_vx: np.ndarray, d: int, t: float) -> np.ndarray:
    """exact_min_hamming_test_error of each joint of the stack p_vx."""
    it._check_cells(2 ** d * it.hamming_neighborhood_size(d, t) * p_vx.shape[2],
                    "Hamming ball")
    members = _hamming_ball(d, math.floor(t))
    # (instance, x, center): each ball's mass, summed along a contiguous axis
    mass = np.ascontiguousarray(p_vx.transpose(0, 2, 1)[:, :, members]).sum(axis=3)
    # summed over x one term at a time, left to right, not pairwise
    covered = np.cumsum(mass.max(axis=2), axis=1)[:, -1]
    return 1.0 - covered


def exact_min_hamming_test_error(p_vx: np.ndarray, d: int, t: float) -> float:
    """Bayes-optimal error of locating V within Hamming radius t from X.

    p_vx is the exact joint over (2**d sign patterns, X alphabet); the optimal
    rule picks the center whose radius-t ball has maximal posterior mass.
    """
    it._check_hamming(d, t)
    p_vx = it._check_pmf(np.asarray(p_vx)[None], "(V, X) joint", 2)
    if p_vx.shape[1] != 2 ** d:
        raise InvalidArgumentError("p_vx needs one row per sign pattern")
    return float(_hamming_test_errors(p_vx, d, t)[0])


def _draw_fano(rng):
    d = int(rng.integers(2, 4))
    t = int(rng.integers(0, 2))
    delta = float(rng.uniform(0.05, 0.6))
    channel = random_bounded_channel(rng, int(rng.integers(2, 4)), delta)
    return (d, t), (channel,)


def _check_fano(params, channels):
    d, t = params
    p_xv, _ = it._product_channel(it._check_pmf(channels, "channel row", 2, axis=-1), d)
    joint = p_xv / 2 ** d
    out = []
    for info, err in zip(it._mi_from_table(joint).tolist(),
                         _hamming_test_errors(joint, d, t).tolist()):
        bound = it.fano_variant_lower(d, t, info)
        out.append((bound, err, bound <= err + it.SLACK))
    return out


_SUITES = {"dpi3": (_draw_dpi3, _check_dpi3),
           "dpi5": (_draw_dpi5, _check_truncated),
           "dpi7": (_draw_dpi7, _check_truncated),
           "chain": (_draw_chain, _check_chain),
           "tensor": (_draw_tensor, _check_tensor),
           "pinsker": (_draw_pinsker, _check_pinsker),
           "fano": (_draw_fano, _check_fano)}
SUITE_NAMES = tuple(_SUITES)

# Instances are drawn BLOCK at a time; the instances of one block that share
# their params and table shapes are checked as one stack. A row's bytes
# depend on neither. The block bounds the tables and stacks held at once: on
# the benchmark's verify_suites workload a block of 128 raised peak RSS by
# about 1 MB over checking one instance at a time and 256 by about 3 MB, and
# 128 took about 20 % more time than 1024.
BLOCK = 128
# run_suite returns every row of a suite, and `verify` holds every suite's
# rows before it writes any, about 0.5 KB per instance: at this count one
# suite peaks near 90 MB of RSS.
MAX_COUNT = 100_000


def run_suite(name: str, count: int, seed: int):
    """Run `count` seeded instances of a named suite; returns their SuiteRows
    in instance order. Instance i is drawn from its own generator, seeded
    (base + 977 i) mod 2**63."""
    if name not in _SUITES:
        raise InvalidArgumentError(f"unknown suite {name!r}; choices: {SUITE_NAMES}")
    if not 1 <= count <= MAX_COUNT:
        raise InvalidArgumentError(f"instance count must be in [1, {MAX_COUNT}]")
    if seed < 0:
        raise InvalidArgumentError("seed must be >= 0")
    draw, check = _SUITES[name]
    base = int(np.random.SeedSequence(int(seed)).generate_state(1)[0])
    rows = []
    for start in range(0, count, BLOCK):
        block = [(base + 977 * i) % 2**63 for i in range(start, min(start + BLOCK, count))]
        buckets = {}
        for i, instance_seed in enumerate(block):
            params, tables = draw(np.random.default_rng(instance_seed))
            key = (params, tuple(t.shape for t in tables))
            buckets.setdefault(key, []).append((i, tables))
        results = [None] * len(block)
        for (params, _), members in buckets.items():
            stacks = [np.stack(column) for column in zip(*(t for _, t in members))]
            for (i, _), result in zip(members, check(params, *stacks)):
                results[i] = result
        rows += [SuiteRow(name, s, float(lhs), float(rhs), bool(holds))
                 for s, (lhs, rhs, holds) in zip(block, results)]
    return rows
