"""Distribution families, deterministic seeded sampling, and the two
mean-to-regression / regression-to-probit reductions.

A sample is a plain array of the machines' blocks: (m, d, n) for a mean
family and (m, n) responses for a design family. Each spec class holds its
family's rules: fill(i, gen, row) fills machine i's row of a run of trials
in place, in its formula's order of operations, and pooled(x) is the
centralized estimator on a (k, m, *row) stack of whole samples, giving
theta_hat (k, d) and flagged (k,). A mean family's fill is draw(gen, row),
its one rng call, then finish(row), its in-place map of the draw onto the
law, and finished_min(raw) the minima of the finished row, taken from the
draw. BLOCK_VALUES is the block size of the blocked passes over a row.
run_shape is the one rule for a run's (m, n).

Seeding contract
----------------
All randomness flows from one master seed. The stream for machine ``i`` under
purpose tag ``tag`` is::

    numpy.random.default_rng(numpy.random.SeedSequence(seed, spawn_key=(tag, i)))

Trial t of a Monte Carlo run consumes the t-th block of that stream, so a
machine's data never depends on how many machines participate, and repeated
runs with the same seed are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateDesignError, InvalidArgumentError,
                     ReductionInfeasibleError, check_integer, check_seed)

TAG_DATA = 0
TAG_PROTOCOL = 1

_PSD_TOL = 1e-9


def machine_streams(seed: int, m: int, tag: int = TAG_DATA):
    """Generators of machines 0..m-1 under tag; see the seeding contract.
    Raises InvalidArgumentError unless seed is an integer >= 0."""
    check_seed(seed)
    return [np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=(int(tag), i)))
            for i in range(m)]


def _as_theta(theta, d=None) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(theta, dtype=float))
    if arr.ndim != 1:
        raise InvalidArgumentError("theta must be a scalar or 1-d vector")
    if d is not None and arr.size == 1 and d > 1:
        arr = np.full(d, arr[0])
    if not np.all(np.abs(arr) <= 1 + 1e-12):     # NaN fails this too
        raise InvalidArgumentError("every |theta_j| must be <= 1")
    # on [-1, 1] exactly: a uniform_interval width 1 - |theta_j| is never negative
    return np.clip(arr, -1.0, 1.0)


@dataclass(frozen=True, eq=False)
class MeanSpec:
    """Base of the location families: samples are (m, d, n) blocks around
    theta in [-1, 1]^d."""

    theta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "theta", _as_theta(self.theta))

    @property
    def d(self) -> int:
        return self.theta.size

    def fill(self, i: int, gen, row) -> None:
        self.draw(gen, row)
        self.finish(row)

    def draw(self, gen, row) -> None:
        gen.random(out=row)

    def finished_min(self, raw):
        """min_last_axis of the finished row, from raw, a (..., n) row of
        draw's values, which it may write: the map of the raw minima, as
        each family's map is nondecreasing and rounds monotonically."""
        low = min_last_axis(raw)[..., None]
        self.finish(low)
        return low[..., 0]

    def pooled(self, x):
        return x.mean(axis=(1, 3)), np.zeros(len(x), dtype=bool)


@dataclass(frozen=True, eq=False)
class GaussianLocationSpec(MeanSpec):
    """N(theta, sigma^2 I) with theta in [-1, 1]^d."""

    sigma: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if not 0 < self.sigma < math.inf:
            raise InvalidArgumentError("sigma must be positive and finite")

    def draw(self, gen, row) -> None:
        gen.standard_normal(out=row)

    def finish(self, row) -> None:
        # theta + sigma * z as row *= sigma; row += theta: the same bytes in IEEE
        row *= self.sigma
        row += self.theta[:, None]


TWO_POINT = "two_point"
UNIFORM_INTERVAL = "uniform_interval"


@dataclass(frozen=True, eq=False)
class BoundedProductSpec(MeanSpec):
    """Product distribution on [-1, 1]^d with coordinate means theta:
    two_point puts mass (1 +/- theta_j)/2 on +/-1, and uniform_interval is
    uniform on [theta_j - w_j, theta_j + w_j] with w_j = 1 - |theta_j|."""

    law: str = TWO_POINT

    def __post_init__(self):
        super().__post_init__()
        if self.law not in (TWO_POINT, UNIFORM_INTERVAL):
            raise InvalidArgumentError(f"unknown bounded law {self.law!r}")

    def finish(self, row) -> None:
        theta = self.theta[:, None]
        if self.law == TWO_POINT:
            # [u < p] as 1.0 / 0.0, then 2 z - 1: the +/-1 of np.where
            np.less(row, (1.0 + theta) / 2.0, out=row)
            row *= 2.0
            row -= 1.0
        else:
            row *= 2.0
            row -= 1.0
            row *= 1.0 - np.abs(theta)
            row += theta

    def finished_min(self, raw):
        if self.law != TWO_POINT:
            return super().finished_min(raw)
        # two-point's map decreases: the row is finished, then reduced
        self.finish(raw)
        return min_last_axis(raw)


@dataclass(frozen=True, eq=False)
class UniformLocationSpec(MeanSpec):
    """Coordinate j uniform on [theta_j - 1, theta_j + 1]."""

    def finish(self, row) -> None:
        row *= 2.0
        row -= 1.0
        row += self.theta[:, None]

    def pooled(self, x):
        return min_last_axis(x).min(axis=1) + 1.0, np.zeros(len(x), dtype=bool)


# Values per block of the blocked passes over a row: min_last_axis and the
# one-bit threshold comparison of protocols. A block's fold temporaries are
# at most 3/4 of it (384 KB of float64) however long the array, and a pass
# stays in cache. On a 2-vCPU x86-64 host, against 2^17: the fold of a
# (20000, 3, 16) row took 0.6 of the time, a (5000, 3, 16) row the same, and
# a 32 MB row 0.74 of one allocating fold over the row at either size (an
# in-place fold, which would write the caller's array, took 1.7-2.2 times
# as long as the allocating one); the comparison on a 20000 x 8 row took
# 0.6-0.7 of its time, and as long as at 2^15.
BLOCK_VALUES = 1 << 16


def min_last_axis(x):
    """x.min(axis=-1), up to the sign of a zero tie; NaN propagates. x is
    not written. numpy's reduce pays a fixed cost per row, so rows of 1 to
    64 values are reduced in long passes, BLOCK_VALUES at a time: while
    the row length is even, adjacent pairs of the flat block fold into one,
    then the odd remainder is taken column by column. On a 2-vCPU x86-64
    host that took 0.03-0.9 of numpy's time at n <= 48 and at n = 64 (1.3
    at worst, odd n in 49-63 on small arrays), and up to 9 times as long on
    longer rows, which go to numpy's reduce.
    """
    n = x.shape[-1]
    if not 0 < n <= 64:
        return x.min(axis=-1)
    flat = x.reshape(-1, n)
    out = np.empty(len(flat), x.dtype)
    step = max(1, BLOCK_VALUES // n)
    for s in range(0, len(flat), step):
        a, h = flat[s:s + step].reshape(-1), n
        while h % 2 == 0:
            a = np.minimum(a[0::2], a[1::2])
            h //= 2
        a = a.reshape(-1, h)
        o = out[s:s + step]
        o[...] = a[:, 0]
        for c in range(1, h):
            np.minimum(o, a[:, c], out=o)
    return out.reshape(x.shape[:-1])


@dataclass(frozen=True, eq=False)
class DesignSpec:
    """Base of the fixed-design families: machine i holds the n rows of
    designs[i], and its samples are (m, n) responses."""

    designs: tuple
    theta: np.ndarray

    def __post_init__(self):
        designs = tuple(np.asarray(a, dtype=float) for a in self.designs)
        if not designs:
            raise InvalidArgumentError("need at least one design matrix")
        if designs[0].ndim != 2 or any(a.shape != designs[0].shape for a in designs):
            raise InvalidArgumentError("all designs must share one (n, d) shape")
        n, d = designs[0].shape
        if n < d:
            raise DegenerateDesignError("designs need n >= d for full column rank")
        object.__setattr__(self, "designs", designs)
        object.__setattr__(self, "theta", _as_theta(self.theta, d))
        if self.theta.size != d:
            raise InvalidArgumentError("theta length must match design columns")
        design_eigenbounds(designs)  # raises on rank deficiency

    @property
    def m(self) -> int:
        return len(self.designs)

    @property
    def n(self) -> int:
        return self.designs[0].shape[0]

    @property
    def d(self) -> int:
        return self.designs[0].shape[1]


@dataclass(frozen=True, eq=False)
class RegressionSpec(DesignSpec):
    """Fixed-design linear model y = A theta + noise, noise ~ N(0, sigma^2 I);
    sigma = 0 gives the noiseless model."""

    sigma: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if not 0 <= self.sigma < math.inf:
            raise InvalidArgumentError("sigma must be finite and >= 0")

    def fill(self, i: int, gen, row) -> None:
        if self.sigma == 0:
            # the noiseless model draws nothing; + 0.0 turns a -0.0 mean into +0.0
            row[...] = self.designs[i] @ self.theta + 0.0
        else:
            gen.standard_normal(out=row)
            row *= self.sigma
            row += self.designs[i] @ self.theta

    def pooled(self, y):
        # one lstsq per trial: a stacked right-hand side rounds differently
        design = np.vstack(self.designs)
        theta = np.stack([np.linalg.lstsq(design, t.ravel(), rcond=None)[0] for t in y])
        return theta, np.zeros(len(y), dtype=bool)


@dataclass(frozen=True, eq=False)
class ProbitSpec(DesignSpec):
    """Binary responses with P(Z=1 | a, theta) = Phi(a . theta)."""

    def fill(self, i: int, gen, row) -> None:
        gen.standard_normal(out=row)
        row += self.designs[i] @ self.theta
        np.greater_equal(row, 0, out=row)

    def pooled(self, z):
        # imported on first use: protocols imports this module
        from .protocols import probit_mle_batched
        return probit_mle_batched(np.vstack(self.designs), z.reshape(len(z), -1))


def row_shape(spec, n: int) -> tuple:
    """Shape of one machine's draw in one trial: (d, n) for a mean family,
    (n,) responses for a design family. Any other object raises."""
    if isinstance(spec, DesignSpec):
        return (spec.n,)
    if not isinstance(spec, MeanSpec):
        raise InvalidArgumentError(f"not a family spec: {type(spec).__name__}")
    return (spec.d, n)


def draw_trials(spec, gens, n: int, trials: int) -> np.ndarray:
    """(trials, m, *row_shape) i.i.d. trials, machine i's rows from gens[i]:
    trial 0 is sample()'s, and draws in chunks equal one draw. It is the
    transposed view of a machine-major buffer, so a float reduction over
    machines must copy it to C order first, or its rounding depends on it."""
    buf = np.empty((len(gens), trials, *row_shape(spec, n)))
    for i, (gen, row) in enumerate(zip(gens, buf)):
        spec.fill(i, gen, row)
    return buf.swapaxes(0, 1)


def run_shape(spec, m: int = None, n: int = None):
    """(m, n) of a run on spec. A design family fixes its own, and a given m
    or n must match it; a mean family needs both, each at least 1. A given m
    or n must be an integer."""
    for what, value in (("m", m), ("n", n)):
        if value is not None:
            check_integer(value, what)
    if isinstance(spec, DesignSpec):
        if m is not None and m != spec.m:
            raise InvalidArgumentError("m must match the number of designs")
        if n is not None and n != spec.n:
            raise InvalidArgumentError("n must match the design row count")
        return spec.m, spec.n
    row_shape(spec, n)  # raises on an object that is not a family spec
    if m is None or n is None:
        raise InvalidArgumentError("mean families need explicit m and n")
    if m < 1 or n < 1:
        raise InvalidArgumentError("need m >= 1 and n >= 1")
    return m, n


def sample(spec, m: int = None, n: int = None, seed: int = 0) -> np.ndarray:
    """One i.i.d. sample, draw_trials(...)[0]; deterministic given
    (spec, m, n, seed)."""
    m, n = run_shape(spec, m, n)
    return draw_trials(spec, machine_streams(seed, m, TAG_DATA), n, 1)[0]


def design_eigenbounds(designs):
    """(lambda_max^2, lambda_min^2) of the rescaled Grams A^T A / n."""
    designs = tuple(np.asarray(a, dtype=float) for a in designs)
    if not designs:
        raise InvalidArgumentError("need at least one design matrix")
    if not all(np.isfinite(a).all() for a in designs):
        raise InvalidArgumentError("design entries must be finite")
    lmax2 = -np.inf
    lmin2 = np.inf
    for a in designs:
        with np.errstate(over="ignore"):
            gram = a.T @ a / a.shape[0]
        if not np.isfinite(gram).all():
            raise InvalidArgumentError("design Gram A^T A / n overflows")
        eig = np.linalg.eigvalsh(gram)
        lmax2 = max(lmax2, float(eig[-1]))
        lmin2 = min(lmin2, float(eig[0]))
    if lmin2 <= 1e-12 * max(1.0, lmax2):
        raise DegenerateDesignError(
            f"rank-deficient design: lambda_min^2 = {lmin2:.3e}")
    return lmax2, lmin2


def reduce_mean_to_regression(x_mean, design, sigma: float, lambda_max2: float, rng):
    """Responses y = A x_mean + z, z ~ N(0, sigma^2 I - sigma^2/(lmax^2 n) A A^T)
    drawn from the Generator rng, for a (d,) x_mean or a (k, d) batch. When
    x_mean ~ N(theta, sigma^2/(lambda_max2 n) I), y is N(A theta, sigma^2 I)."""
    a = np.asarray(design, dtype=float)
    n = a.shape[0]
    x = np.asarray(x_mean, dtype=float)
    if not lambda_max2 > 0:
        raise InvalidArgumentError("lambda_max2 must be positive")
    cov = sigma**2 * np.eye(n) - (sigma**2 / (lambda_max2 * n)) * (a @ a.T)
    w, u = np.linalg.eigh(cov)
    if w.min() < -_PSD_TOL * max(sigma**2, 1e-300):
        raise ReductionInfeasibleError(
            f"noise covariance not PSD: min eigenvalue {w.min():.3e}")
    w = np.clip(w, 0.0, None)
    factor = (u * np.sqrt(w)) @ u.T  # symmetric square root
    if x.ndim == 1:
        return a @ x + factor @ rng.standard_normal(n)
    return x @ a.T + rng.standard_normal((x.shape[0], n)) @ factor


def reduce_regression_to_probit(y) -> np.ndarray:
    """Bits Z_k = 1{y_k >= 0}; the boundary y = 0 lands in the 1-branch."""
    return (np.asarray(y, dtype=float) >= 0).astype(np.int64)

