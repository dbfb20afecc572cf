"""Reproducible standard design matrices, which the design families take as
inputs."""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError, check_integer, check_seed

DESIGN_KINDS = ("identity", "orthogonal")


def scaled_identity_design(n: int, d: int) -> np.ndarray:
    """sqrt(n) times the first d columns of I_n, so A^T A = n I exactly."""
    if n < d:
        raise InvalidArgumentError("need n >= d")
    return np.sqrt(n) * np.eye(n, d)


def orthogonal_columns_design(n: int, d: int, gen: np.random.Generator) -> np.ndarray:
    """Random design with exactly orthogonal columns of squared norm n."""
    if n < d:
        raise InvalidArgumentError("need n >= d")
    q, _ = np.linalg.qr(gen.standard_normal((n, d)))
    return np.sqrt(n) * q


def build_designs(kind: str, m: int, n: int, d: int, seed: int):
    """m design matrices of a named kind, one of DESIGN_KINDS. Raises
    InvalidArgumentError unless m, n and d are integers and seed is an
    integer >= 0."""
    for what, value in (("m", m), ("n", n), ("d", d)):
        check_integer(value, what)
    check_seed(seed)
    if kind == "identity":
        return tuple(scaled_identity_design(n, d) for _ in range(m))
    if kind == "orthogonal":
        gen = np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=(17,)))
        return tuple(orthogonal_columns_design(n, d, gen) for _ in range(m))
    raise InvalidArgumentError(f"unknown design kind {kind!r}; choices: {DESIGN_KINDS}")
