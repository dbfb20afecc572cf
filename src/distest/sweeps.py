"""Randomized instance constructors and named verification suites.

Each suite draws seeded random finite instances, checks each with the
matching infotheory enumeration, and gives one SuiteRow per instance. A draw
makes only its rng calls and keeps its tables raw; `_finish` does the
arithmetic once per stack of a block's raw tables of one kind, and run_suite
checks a block's instances of one params and table shape as one stack. No
byte depends on which instances share a stack. Every table is strictly
positive but a deterministic quantizer's, so the checks' preconditions hold
exactly rather than by rejection.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import infotheory as it
from .errors import InvalidArgumentError, check_integer, check_seed

@dataclass(frozen=True)
class SuiteRow:
    """One checked instance: its suite, instance seed, lhs, rhs and whether
    lhs <= rhs held; slack is rhs - lhs."""

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


def _finish(instances):
    """Each instance's list of tables, raw tables finished. A raw table is a
    tuple (finish, key, *parts): finish takes each part stacked over the raw
    tables of one (finish, key), across instances, and gives their tables."""
    tables = [list(t) for t in instances]
    groups = {}
    for row in tables:
        for j, raw in enumerate(row):
            if isinstance(raw, tuple):
                groups.setdefault(raw[:2], []).append((row, j))
    for (finish, _), members in groups.items():
        stack = finish(*map(np.array, zip(*(row[j][2:] for row, j in members))))
        for (row, j), table in zip(members, stack):
            row[j] = table
    return tables


def _table(raw: tuple) -> np.ndarray:
    """One raw table finished as a stack of one."""
    return _finish([[raw]])[0][0]


def _normalized(raw: np.ndarray) -> np.ndarray:
    """Row-stochastic over the last axis, and strictly positive: raw entries
    are uniform on [0.1, 1)."""
    return raw / raw.sum(axis=-1, keepdims=True)


def _uniforms(rng, shape) -> np.ndarray:
    return rng.uniform(0.1, 1.0, size=shape)


def two_point_channel(delta: float) -> np.ndarray:
    """The -1/+1 symmetric channel with P(X = V) = (1 + delta) / 2."""
    return np.array([[(1 + delta) / 2, (1 - delta) / 2],
                     [(1 - delta) / 2, (1 + delta) / 2]])


def _tilted(base, delta, tilt) -> np.ndarray:
    rows = _normalized(base)[:, None] * (1.0 + delta[:, None, None] * tilt)
    return _normalized(rows)


def _raw_channel(rng, k_out: int, delta: float) -> tuple:
    base = _uniforms(rng, k_out)
    return _tilted, (k_out,), base, delta, rng.uniform(-1.0, 1.0, size=(2, k_out))


def random_bounded_channel(rng, k_out: int, delta: float) -> np.ndarray:
    """Binary-input channel built as bounded multiplicative tilts of a base
    row, so the max likelihood ratio stays below (1 + delta) / (1 - delta)."""
    return _table(_raw_channel(rng, k_out, delta))


def _one_hot(maps) -> np.ndarray:
    """0/1 tables of the maps x -> y; each map reaches its last output."""
    return np.eye(int(maps.max()) + 1)[maps]


def _raw_quantizer(rng, k_in: int, n_out: int, stochastic: bool) -> tuple:
    if stochastic:
        return _normalized, (k_in, n_out), _uniforms(rng, (k_in, n_out))
    det = rng.integers(0, n_out, size=k_in)
    det[rng.integers(0, k_in)] = n_out - 1  # keep the full output range live
    return _one_hot, (k_in, n_out), det


def random_quantizer(rng, k_in: int, n_out: int, stochastic: bool) -> np.ndarray:
    """(k_in, n_out) quantizer table P(y | x): strictly positive rows, or
    the 0/1 table of a deterministic map."""
    return _table(_raw_quantizer(rng, k_in, n_out, stochastic))


def _pinsker_joints(raw) -> np.ndarray:
    return 0.5 * _normalized(raw)


def random_pinsker_joint(rng) -> np.ndarray:
    """(V, Y) joint table with V uniform on two values."""
    return _table(_draw_pinsker(rng)[1][0])


def _chain_models(pa, base, delta, tilt, p_c1_b, p_c2_ac1, p_d_bc) -> np.ndarray:
    table = np.einsum("na,nab,nbx,naxy,nbxyd->nabxyd", _normalized(pa),
                      _tilted(base, delta, tilt), _normalized(p_c1_b),
                      _normalized(p_c2_ac1), _normalized(p_d_bc))
    return table.reshape(len(pa), 2, 2, 4, 2)


def random_chain_model(rng) -> np.ndarray:
    """(A, B, C, D) joint table meeting the chain preconditions by
    construction: C = (C1, C2) with C1 drawn from B and C2 from (A, C1), so
    P(C | A, B) = phi1(A, C) phi2(B, C) exactly, and D depends on (B, C)."""
    return _table(_draw_chain(rng)[1][0])


def _message_kernels(*kernels) -> np.ndarray:
    """Interactive quantizer: message t is a stochastic function of machine
    t's symbol and all previous messages, flattened to one kernel (k^m, ny).
    kernels[t] stacks the raw (k, sizes[0], ..., sizes[t]) tables of message t."""
    n, k = kernels[0].shape[:2]
    digits = it.base_k_digits(k, len(kernels))
    probs = np.ones((n, len(digits), 1))        # (x, previous messages)
    for t, kern in enumerate(kernels):
        kern = _normalized(kern)[:, digits[:, t]].reshape(probs.shape + kern.shape[-1:])
        probs = (probs[..., None] * kern).reshape(n, len(digits), -1)
    return probs


# A suite is a draw and a check. draw(rng) makes one instance's rng calls and
# gives its params, the scalars its check needs, and its tables, raw or final;
# check(params, *stacks) takes the finished tables of the instances with those
# params and table shapes, stacked, and gives each one's (lhs, rhs, holds).

def _draw_dpi3(rng):
    v_dim = int(rng.integers(1, 3))
    delta = (0.1, 0.2)[rng.integers(0, 2)]
    k = int(rng.integers(2, 4))
    channel = _raw_channel(rng, k, delta)
    n_out = int(rng.integers(1, 5))
    quantizer = _raw_quantizer(rng, k ** v_dim, n_out, stochastic=bool(rng.integers(0, 2)))
    return (v_dim,), (channel, quantizer)


def _check_dpi3(params, channels, quantizers):
    reps = it._dpi_independent(params[0], channels, quantizers)
    return [(r["I_VY"], r["bound"], r["holds"] and r["I_VY"] <= r["I_VX"] + it.SLACK)
            for r in reps]


def _channel_and_keep(rng, k: int):
    """A truncated instance's channel and the inputs it keeps."""
    channel = _raw_channel(rng, k, (0.1, 0.2)[rng.integers(0, 2)])
    keep = np.ones(k, dtype=bool)
    if k > 2 and rng.integers(0, 2):
        keep[rng.integers(0, k)] = False
    return channel, keep


def _draw_dpi5(rng):
    channel, keep = _channel_and_keep(rng, 3)
    n_out = int(rng.integers(1, 5))
    quantizer = _raw_quantizer(rng, 3, n_out, stochastic=bool(rng.integers(0, 2)))
    return (1,), (channel, quantizer, keep)


def _draw_dpi7(rng):
    machines = int(rng.integers(2, 4))
    k = int(rng.integers(2, 4))
    channel, keep = _channel_and_keep(rng, k)
    sizes = tuple(int(rng.integers(2, 4)) for _ in range(machines))
    kernels = tuple(_uniforms(rng, (k,) + sizes[:t + 1]) for t in range(machines))
    return (machines,), (channel, (_message_kernels, (k,) + sizes, *kernels), keep)


def _check_truncated(params, channels, quantizers, keeps):
    """dpi5 and dpi7: params[0] is the number of machines."""
    reps = it._dpi_truncated(1, channels, quantizers, keeps, params[0])
    return [(r["I_VY"], r["bound"], r["holds"]) for r in reps]


def _draw_chain(rng):
    pa = _uniforms(rng, 2)
    p_b_a = _raw_channel(rng, 2, float(rng.uniform(0.05, 0.5)))[2:]
    return (), ((_chain_models, (), pa, *p_b_a, _uniforms(rng, (2, 2)),
                 _uniforms(rng, (2, 2, 2)), _uniforms(rng, (2, 2, 2, 2))),)


def _check_chain(params, models):
    out = []
    for rep in it._information_chaining(models):
        worst = rep["worst"] or {"lhs": 0.0, "rhs": 0.0}
        out.append((worst["lhs"], worst["rhs"], rep["holds"]))
    return out


def _draw_tensor(rng):
    v_dim = int(rng.integers(1, 3))
    m = int(rng.integers(2, 4))
    channels = [_raw_channel(rng, 2, (0.1, 0.2)[rng.integers(0, 2)]) for _ in range(m)]
    quantizers = [_raw_quantizer(rng, 2 ** v_dim, int(rng.integers(1, 3)),
                                 stochastic=bool(rng.integers(0, 2)))
                  for _ in range(m)]
    return (v_dim,), (*channels, *quantizers)


def _check_tensor(params, *stacks):
    m = len(stacks) // 2
    reps = it._tensorization(params[0], stacks[:m], stacks[m:])
    return [(r["I_joint"], r["sum_I"], r["holds"]) for r in reps]


def _draw_pinsker(rng):
    k = int(rng.integers(2, 5))
    return (), ((_pinsker_joints, (k,), _uniforms(rng, (2, k))),)


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
    """Bayes-optimal error of locating V within Hamming radius t from X,
    p_vx the joint over (2**d sign patterns, X alphabet): the optimal rule
    picks the center whose radius-t ball has maximal posterior mass."""
    it._check_hamming(d, t)
    p_vx = it._check_pmf(np.asarray(p_vx)[None], "(V, X) joint", 2)
    if p_vx.shape[1] != 2 ** d:
        raise InvalidArgumentError("p_vx needs one row per sign pattern")
    return float(_hamming_test_errors(p_vx, d, t)[0])


def _draw_fano(rng):
    d = int(rng.integers(2, 4))
    t = int(rng.integers(0, 2))
    delta = float(rng.uniform(0.05, 0.6))
    channel = _raw_channel(rng, int(rng.integers(2, 4)), delta)
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

# Instances drawn, finished and checked at a time. It bounds what is held at
# once: on all seven suites at count 3000, a block of 128 peaked about 1.5 MB
# of RSS above a block of one and 256 about 2.5 MB, and 128 took about 15 %
# more time than 1024 and a block of one about four times as long.
BLOCK = 128
# `verify` holds every suite's rows before it writes any, about 0.5 KB per
# instance: at this count one suite peaks near 90 MB of RSS.
MAX_COUNT = 100_000


def check_suite(name: str) -> None:
    """Raise InvalidArgumentError unless name is one of SUITE_NAMES."""
    if name not in _SUITES:
        raise InvalidArgumentError(f"unknown suite {name!r}; choices: {', '.join(SUITE_NAMES)}")


def run_suite(name: str, count: int, seed: int):
    """Run `count` seeded instances of a named suite; returns their SuiteRows
    in instance order. Instance i is drawn from its own generator, seeded
    (base + 977 i) mod 2**63."""
    check_suite(name)
    check_integer(count, "instance count")
    if not 1 <= count <= MAX_COUNT:
        raise InvalidArgumentError(f"instance count must be in [1, {MAX_COUNT}]")
    check_seed(seed)
    draw, check = _SUITES[name]
    base = int(np.random.SeedSequence(int(seed)).generate_state(1)[0])
    rows = []
    for start in range(0, count, BLOCK):
        block = [(base + 977 * i) % 2**63 for i in range(start, min(start + BLOCK, count))]
        drawn = [draw(np.random.default_rng(instance_seed)) for instance_seed in block]
        buckets = {}
        for i, ((params, _), tables) in enumerate(zip(drawn, _finish([t for _, t in drawn]))):
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
