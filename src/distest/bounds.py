"""Closed-form minimax rate calculators.

Every calculator returns a RateResult whose value recombines exactly from its
terms dict, so downstream consumers can audit each min/max branch. Universal
constants default to 1 and are shape-only: nothing here claims them as ground
truth. "log m" inside the rate formulas is the natural log; where the source
expressions mix bases, both readings appear in terms.

Conventions for total extensions:
  * zero-budget branches that would divide by zero evaluate as +inf so the
    remaining branches govern;
  * at m = 1 the log-m branches collapse (the clamped branch becomes 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import InvalidArgumentError

@dataclass(eq=False)
class RateQuery:
    """Inputs for the rate formulas; supply only what the formula needs."""

    d: int = 1
    m: int = 1
    n: int = 1
    sigma2: float = 1.0
    budget_total: float = None
    budgets_per_machine: tuple = None
    lambda_max2: float = None
    lambda_min2: float = None
    constants: dict = field(default_factory=dict)

    def __post_init__(self):
        if min(self.d, self.m, self.n) < 1:
            raise InvalidArgumentError("d, m, n must be positive integers")
        if self.sigma2 is not None and not self.sigma2 > 0:
            raise InvalidArgumentError("sigma2 must be positive")
        if self.budgets_per_machine is not None:
            budgets = tuple(float(b) for b in self.budgets_per_machine)
            if len(budgets) != self.m or any(b < 0 for b in budgets):
                raise InvalidArgumentError("need m nonnegative per-machine budgets")
            object.__setattr__(self, "budgets_per_machine", budgets)
        if self.budget_total is not None and self.budget_total < 0:
            raise InvalidArgumentError("budget_total must be >= 0")

    def const(self, name: str) -> float:
        return float(self.constants.get(name, 1.0))

    def need_total(self) -> float:
        if self.budget_total is None:
            raise InvalidArgumentError("this formula needs budget_total")
        return float(self.budget_total)

    def need_per_machine(self) -> tuple:
        if self.budgets_per_machine is None:
            raise InvalidArgumentError("this formula needs budgets_per_machine")
        return self.budgets_per_machine


@dataclass(eq=False)
class RateResult:
    value: float
    formula_id: str
    terms: dict

    def __post_init__(self):
        if not self.value >= 0:
            raise InvalidArgumentError("rate values are nonnegative")


def packing_entropy_hypercube_lower(d: int, delta: float) -> RateResult:
    """Volume-argument packing entropy of [-1, 1]^d at separation 2*delta.

    Value is the base-2 count d * log2(1/(2 delta)); the natural-log reading
    sits in terms. Returns 0 once delta >= 1/2.
    """
    if not 0 < delta:
        raise InvalidArgumentError("delta must be positive")
    if delta >= 0.5:
        return RateResult(0.0, "packing_entropy", {"log2_bits": 0.0, "ln_nats": 0.0})
    log2_bits = d * math.log2(1.0 / (2.0 * delta))
    ln_nats = d * math.log(1.0 / (2.0 * delta))
    return RateResult(log2_bits, "packing_entropy",
                      {"log2_bits": log2_bits, "ln_nats": ln_nats})


def unit_interval_entropy_inverse(bits: float) -> float:
    """Inverse packing entropy of [0, 1] under M(delta) >= log2(1/delta)."""
    return 2.0 ** (-bits)


def prop1_lower(budget: float, entropy_inverse) -> RateResult:
    """Metric-entropy lower bound (1/8) * entropy_inverse(2B + 2)^2."""
    if budget < 0:
        raise InvalidArgumentError("budget must be >= 0")
    sep = float(entropy_inverse(2.0 * budget + 2.0))
    value = 0.125 * sep ** 2
    return RateResult(value, "prop1", {"separation": sep, "prefactor": 0.125})


def _budget_fraction_sum(budgets, d: int) -> float:
    return float(sum(min(1.0, b / d) for b in budgets))


def theorem1_lower(q: RateQuery) -> RateResult:
    """Independent-protocol Gaussian lower bound with per-machine budgets."""
    budgets = q.need_per_machine()
    d, m, n, s2 = q.d, q.m, q.n, q.sigma2
    prefactor = q.const("c") * s2 * d / (m * n)
    branch_raw = m * n / s2
    if m == 1:
        branch_logm = math.inf
        branch_budget = 1.0
    else:
        logm = math.log(m)
        branch_logm = m / logm
        frac = _budget_fraction_sum(budgets, d)
        branch_budget = max(m / (frac * logm), 1.0) if frac > 0 else math.inf
    value = prefactor * min(branch_raw, branch_logm, branch_budget)
    return RateResult(value, "thm1", {
        "prefactor": prefactor, "branch_raw": branch_raw,
        "branch_logm": branch_logm, "branch_budget": branch_budget})


def prop2_lower(q: RateQuery) -> RateResult:
    """Bounded-family (n = 1) independent lower bound."""
    budgets = q.need_per_machine()
    d, m = q.d, q.m
    prefactor = q.const("c") * d / m
    frac = _budget_fraction_sum(budgets, d)
    branch_budget = m / frac if frac > 0 else math.inf
    value = prefactor * min(float(m), branch_budget)
    return RateResult(value, "prop2", {
        "prefactor": prefactor, "branch_m": float(m), "branch_budget": branch_budget})


def prop3_lower(q: RateQuery) -> RateResult:
    """Interactive uniform-location lower bound c1 * max{exp(-c2 B/d), d/(mn)^2}."""
    budget = q.need_total()
    d, m, n = q.d, q.m, q.n
    exp_term = math.exp(-q.const("c2") * budget / d)
    centralized_term = d / (m * n) ** 2
    value = q.const("c1") * max(exp_term, centralized_term)
    return RateResult(value, "prop3_lower", {
        "c1": q.const("c1"), "exp_term": exp_term,
        "centralized_term": centralized_term})


def prop3_budget(d: int, m: int, n: int) -> RateResult:
    """Budget sufficient for the interactive minimum protocol.

    Value uses the natural-log reading of the machine count factor,
    d * [2 log2(2mn) + ln(m) (ceil(log2 d) + 2 log2(2mn))]; the all-log2
    reading is in terms.
    """
    if min(d, m, n) < 1:
        raise InvalidArgumentError("d, m, n must be positive")
    base = 2.0 * math.log2(2 * m * n)
    idx_bits = math.ceil(math.log2(d)) if d > 1 else 0
    ln_reading = d * (base + math.log(m) * (idx_bits + base))
    log2_reading = d * (base + math.log2(m) * (idx_bits + base))
    return RateResult(ln_reading, "prop3_budget", {
        "ln_reading": ln_reading, "log2_reading": log2_reading,
        "per_coordinate_base": base, "index_bits": float(idx_bits)})


def _interactive_lower(q: RateQuery, sigma2: float, lambda2, formula: str) -> RateResult:
    """sigma2 d/(lambda2 m n) * min{lambda2 m n/sigma2, max(m/((B/d + 1) log m), 1)}.

    Theorem 2 is the lambda2 = 1 case; Corollaries 1 and 2 carry the design's
    lambda_max2, and Corollary 2 is Corollary 1 at sigma2 = 1. Callers pass
    those units as the int 1, so products with m and n stay exact integers.
    """
    budget = q.need_total()
    if lambda2 is None or not lambda2 > 0:
        raise InvalidArgumentError("need lambda_max2 > 0")
    d, m, n = q.d, q.m, q.n
    prefactor = q.const("c") * sigma2 * d / (lambda2 * m * n)
    branch_raw = lambda2 * m * n / sigma2
    if m == 1:
        branch_budget = 1.0
    else:
        branch_budget = max(m / ((budget / d + 1.0) * math.log(m)), 1.0)
    value = prefactor * min(branch_raw, branch_budget)
    return RateResult(value, formula, {
        "prefactor": prefactor, "branch_raw": branch_raw,
        "branch_budget": branch_budget})


def theorem2_lower(q: RateQuery) -> RateResult:
    """Interactive Gaussian lower bound with one total budget."""
    return _interactive_lower(q, q.sigma2, 1, "thm2")


def _regression_rates(q: RateQuery, sigma2, prefix: str):
    if q.lambda_min2 is None or not q.lambda_min2 > 0:
        raise InvalidArgumentError("need lambda_min2 > 0")
    lower = _interactive_lower(q, sigma2, q.lambda_max2, f"{prefix}_lower")
    upper_value = q.const("c") * sigma2 * q.d / (q.lambda_min2 * q.m * q.n)
    upper = RateResult(upper_value, f"{prefix}_upper", {
        "c_over_lambda_min2": q.const("c") / q.lambda_min2,
        "centralized": sigma2 * q.d / (q.m * q.n)})
    return lower, upper


def cor1_rates(q: RateQuery):
    """(lower, upper) rates for fixed-design linear regression."""
    return _regression_rates(q, q.sigma2, "cor1")


def cor2_rates(q: RateQuery):
    """(lower, upper) rates for probit regression: the sigma2 = 1 shapes."""
    return _regression_rates(q, 1, "cor2")


def centralized_rate(family: str, d: int, m: int, n: int, sigma2: float = 1.0) -> float:
    """Classical (unconstrained) minimax rate for the named family.

    bounded follows the single-observation (n = 1) convention d/m.
    """
    if min(d, m, n) < 1:
        raise InvalidArgumentError("d, m, n must be positive")
    if family in ("gaussian", "regression"):
        return sigma2 * d / (m * n)
    if family == "bounded":
        return d / m
    if family == "uniform":
        return d / (m * n) ** 2
    raise InvalidArgumentError(f"unknown family id {family!r}")


def tail_pstar(a: float, delta: float, n: int, sigma: float) -> float:
    """Gaussian truncation tail min{2 exp(-(a - sqrt(n) delta)^2 / (2 sigma^2)), 1/2}."""
    if sigma <= 0:
        raise InvalidArgumentError("sigma must be positive")
    if delta < 0 or a < math.sqrt(n) * delta:
        raise InvalidArgumentError("need a >= sqrt(n) * delta >= 0")
    gap = a - math.sqrt(n) * delta
    return min(2.0 * math.exp(-gap * gap / (2.0 * sigma**2)), 0.5)


def recombine(result: RateResult) -> float:
    """Recompute a RateResult value from its terms; exact by construction."""
    t = result.terms
    fid = result.formula_id
    if fid == "thm1":
        return t["prefactor"] * min(t["branch_raw"], t["branch_logm"], t["branch_budget"])
    if fid in ("thm2", "cor1_lower", "cor2_lower"):
        return t["prefactor"] * min(t["branch_raw"], t["branch_budget"])
    if fid == "prop2":
        return t["prefactor"] * min(t["branch_m"], t["branch_budget"])
    if fid == "prop3_lower":
        return t["c1"] * max(t["exp_term"], t["centralized_term"])
    if fid == "prop3_budget":
        return t["ln_reading"]
    if fid == "prop1":
        return t["prefactor"] * t["separation"] ** 2
    if fid in ("cor1_upper", "cor2_upper"):
        return t["c_over_lambda_min2"] * t["centralized"]
    if fid == "packing_entropy":
        return t["log2_bits"]
    raise InvalidArgumentError(f"cannot recombine formula {fid!r}")
