"""Distribution families, deterministic seeded sampling, and the two
mean-to-regression / regression-to-probit reductions.

A sample is a plain array, the machines' local blocks: (m, d, n) for a mean
family and (m, n) responses for a design family. sample() returns one, and
draw_trials stacks one per trial, so blocks[t] of a draw is what the
protocols' reference functions take. Each spec class holds its family's
rules: fill(i, gen, row) fills machine i's block of a run of trials in place,
in its formula's order of operations, and pooled(x) is the estimator on a
(k, m, *row) stack of whole samples, giving theta_hat (k, d) and flagged
(k,). draw_trials returns a transposed view of a machine-major buffer, not a
C-contiguous array: a float reduction over machines on it must copy it to C
order first, or its rounding depends on the layout.

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
                     ReductionInfeasibleError)

TAG_DATA = 0
TAG_PROTOCOL = 1

_PSD_TOL = 1e-9


def machine_streams(seed: int, m: int, tag: int = TAG_DATA):
    """Derived generators of machines 0..m-1; see the module seeding contract."""
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
    return arr


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

    def fill(self, i: int, gen, row) -> None:
        # theta + sigma * z as row *= sigma; row += theta: the same bytes in IEEE
        gen.standard_normal(out=row)
        row *= self.sigma
        row += self.theta[:, None]


TWO_POINT = "two_point"
UNIFORM_INTERVAL = "uniform_interval"


@dataclass(frozen=True, eq=False)
class BoundedProductSpec(MeanSpec):
    """Product distribution on [-1, 1]^d with coordinate means theta.

    two_point puts mass (1 +/- theta_j)/2 on +/-1; uniform_interval is uniform
    on [theta_j - w_j, theta_j + w_j] with w_j = 1 - |theta_j|, so the mean is
    theta_j and the support stays in [-1, 1].
    """

    law: str = TWO_POINT

    def __post_init__(self):
        super().__post_init__()
        if self.law not in (TWO_POINT, UNIFORM_INTERVAL):
            raise InvalidArgumentError(f"unknown bounded law {self.law!r}")

    def fill(self, i: int, gen, row) -> None:
        theta = self.theta[:, None]
        gen.random(out=row)
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


@dataclass(frozen=True, eq=False)
class UniformLocationSpec(MeanSpec):
    """Coordinate j uniform on [theta_j - 1, theta_j + 1]."""

    def fill(self, i: int, gen, row) -> None:
        gen.random(out=row)
        row *= 2.0
        row -= 1.0
        row += self.theta[:, None]

    def pooled(self, x):
        return x.min(axis=(1, 3)) + 1.0, np.zeros(len(x), dtype=bool)


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
    """Fixed-design linear model y = A theta + noise, noise ~ N(0, sigma^2 I).

    sigma = 0 is allowed and gives the noiseless (deterministic) model.
    """

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
        # the pooled MLE, flagged as the solver flags it; protocols imports
        # this module, so the solver is imported on first use
        from .protocols import probit_mle_batched
        return probit_mle_batched(np.vstack(self.designs), z.reshape(len(z), -1))


def row_shape(spec, n: int) -> tuple:
    """Shape of one machine's draw in one trial: (d, n) for a mean family,
    (n,) responses for a design family."""
    return (spec.n,) if isinstance(spec, DesignSpec) else (spec.d, n)


def draw_trials(spec, gens, n: int, trials: int) -> np.ndarray:
    """Batch of i.i.d. trials, one stream per machine.

    Returns shape (trials, m, d, n) for mean families and (trials, m, n) for
    regression / probit responses: the transposed view of one machine-major
    buffer whose row i is machine i's spec.fill. Trial 0 reproduces sample()
    bit for bit, and drawing in chunks from the same generators is equivalent
    to drawing all trials at once.
    """
    buf = np.empty((len(gens), trials, *row_shape(spec, n)))
    for i, (gen, row) in enumerate(zip(gens, buf)):
        spec.fill(i, gen, row)
    return buf.swapaxes(0, 1)


def run_shape(spec, m: int = None, n: int = None):
    """(m, n) of a run on spec. A design family fixes its own, and a given m
    or n must match it; a mean family needs both, each at least 1."""
    if isinstance(spec, DesignSpec):
        if m is not None and m != spec.m:
            raise InvalidArgumentError("m must match the number of designs")
        if n is not None and n != spec.n:
            raise InvalidArgumentError("n must match the design row count")
        return spec.m, spec.n
    if not isinstance(spec, MeanSpec):
        raise InvalidArgumentError(f"not a family spec: {type(spec).__name__}")
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
    """Responses y = A x_mean + z with z ~ N(0, sigma^2 I - sigma^2/(lmax^2 n) A A^T).

    When x_mean ~ N(theta, sigma^2/(lambda_max2 * n) I) the output is
    marginally N(A theta, sigma^2 I). x_mean may be a (d,) vector or a
    (k, d) batch; the return shape follows. z is drawn from the Generator `rng`.
    """
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

