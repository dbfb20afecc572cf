import math

import numpy as np
import pytest

from distest.bounds import (RateQuery, RateResult, centralized_rate,
                            cor1_rates, cor2_rates,
                            packing_entropy_hypercube_lower, prop1_lower,
                            prop2_lower, prop3_budget, prop3_lower,
                            tail_pstar, theorem1_lower, theorem2_lower,
                            unit_interval_entropy_inverse)
from distest.errors import InvalidArgumentError


def recombine(result: RateResult) -> float:
    """Recompute a RateResult value from its terms, by the min/max each
    calculator takes over its branches."""
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


def grid_queries():
    """Deterministic 200-point (d, m, n, B) grid shared by the monotonicity
    and consistency checks."""
    points = []
    for d in (1, 2, 4, 8, 16):
        for m in (2, 5, 16, 64):
            for n in (1, 8, 32, 256, 1024):
                for budget in (0.0, d / 2):
                    points.append((d, m, n, budget))
    assert len(points) == 200
    return points


class TestPackingEntropy:
    def test_one_bit(self):
        assert packing_entropy_hypercube_lower(1, 0.25).value == pytest.approx(1.0)

    def test_hypercube_example(self):
        assert packing_entropy_hypercube_lower(8, 1 / 32).value == pytest.approx(32.0)

    def test_large_delta_zero(self):
        assert packing_entropy_hypercube_lower(3, 0.6).value == 0.0

    def test_grid_packing_achieves_bound(self):
        # constructive oracle: an axis-aligned grid with spacing 2*delta is
        # 2*delta-separated, and its size meets 2**bound
        d, delta = 2, 1 / 8
        bound_points = 2 ** packing_entropy_hypercube_lower(d, delta).value
        per_axis = len(np.arange(-1.0, 1.0 + 1e-12, 2 * delta))
        assert per_axis ** d >= bound_points == 16


class TestProp1:
    def test_interval_family_formula(self):
        budget = 3.0
        res = prop1_lower(budget, unit_interval_entropy_inverse)
        assert res.value == pytest.approx(0.125 * 2.0 ** (-2 * (2 * budget + 2)))

    def test_quarter_log_n(self):
        n = 1024
        res = prop1_lower(0.25 * math.log2(n), unit_interval_entropy_inverse)
        assert res.value == pytest.approx(1.0 / (128 * n))

    def test_constant_inverse(self):
        res = prop1_lower(50.0, lambda bits: 0.3)
        assert res.value == pytest.approx(0.125 * 0.09)


class TestTheorem1:
    def test_worked_example(self):
        q = RateQuery(d=4, m=16, n=64, sigma2=1.0, budgets_per_machine=(4.0,) * 16)
        assert theorem1_lower(q).value == 0.00390625

    def test_zero_budgets_pick_logm_branch(self):
        q = RateQuery(d=4, m=16, n=64, sigma2=1.0, budgets_per_machine=(0.0,) * 16)
        res = theorem1_lower(q)
        assert res.terms["branch_budget"] == math.inf
        expected = (4.0 / 1024) * (16 / math.log(16))
        assert res.value == pytest.approx(expected)

    def test_huge_sigma_limit(self):
        q = RateQuery(d=4, m=16, n=64, sigma2=1e12, budgets_per_machine=(4.0,) * 16)
        res = theorem1_lower(q)
        assert res.terms["branch_raw"] == pytest.approx(1024 / 1e12)
        assert res.value == pytest.approx(4e12 / 1024 * 1024 / 1e12)

    def test_m1_convention(self):
        q = RateQuery(d=3, m=1, n=10, sigma2=2.0, budgets_per_machine=(1.0,))
        assert theorem1_lower(q).value == pytest.approx(min(2.0 * 3 / 10, 3.0))


class TestProp2:
    def test_full_budgets(self):
        q = RateQuery(d=8, m=100, n=1, budgets_per_machine=(8.0,) * 100)
        assert prop2_lower(q).value == pytest.approx(0.08)

    def test_zero_budgets(self):
        q = RateQuery(d=8, m=100, n=1, budgets_per_machine=(0.0,) * 100)
        assert prop2_lower(q).value == pytest.approx(8.0)

    def test_half_budgets(self):
        q = RateQuery(d=8, m=100, n=1, budgets_per_machine=(4.0,) * 100)
        assert prop2_lower(q).value == pytest.approx(2 * 8.0 / 100)


class TestProp3:
    def test_budget_infinite_limit(self):
        q = RateQuery(d=3, m=8, n=16, budget_total=1e9)
        assert prop3_lower(q).value == pytest.approx(3.0 / 128**2)

    def test_budget_zero(self):
        q = RateQuery(d=3, m=8, n=16, budget_total=0.0)
        assert prop3_lower(q).value == pytest.approx(1.0)

    def test_budget_formula_both_readings(self):
        res = prop3_budget(2, 4, 8)
        assert res.value == pytest.approx(60.0436533891, abs=1e-9)
        assert res.terms["log2_reading"] == pytest.approx(2 * (12 + 2 * 13))


class TestTheorem2:
    def test_worked_example(self):
        q = RateQuery(d=4, m=16, n=64, sigma2=1.0, budget_total=16.0)
        assert theorem2_lower(q).value == pytest.approx(0.004508, abs=1e-6)

    def test_zero_budget_reads_logm(self):
        q = RateQuery(d=4, m=16, n=64, sigma2=1.0, budget_total=0.0)
        expected = (4.0 / 1024) * min(1024.0, 16 / math.log(16))
        assert theorem2_lower(q).value == pytest.approx(expected)

    def test_infinite_budget_centralized(self):
        q = RateQuery(d=4, m=16, n=64, sigma2=1.0, budget_total=1e12)
        assert theorem2_lower(q).value == pytest.approx(4.0 / 1024)


class TestCorollaries:
    def test_reduces_to_thm2(self):
        q = RateQuery(d=4, m=16, n=64, sigma2=1.0, budget_total=16.0,
                      lambda_max2=1.0, lambda_min2=1.0)
        lower, upper = cor1_rates(q)
        assert lower.value == theorem2_lower(q).value
        assert upper.value == pytest.approx(4.0 / 1024)

    def test_upper_worked_example(self):
        q = RateQuery(d=3, m=10, n=30, sigma2=1.0, budget_total=10.0,
                      lambda_max2=1.0, lambda_min2=0.5)
        _, upper = cor1_rates(q)
        assert upper.value == pytest.approx(0.02)

    def test_doubling_lambda_max_halves_clamped_lower(self):
        base = dict(d=3, m=10, n=30, sigma2=1.0, budget_total=1e9,
                    lambda_min2=1.0)
        lo1, _ = cor1_rates(RateQuery(lambda_max2=1.0, **base))
        lo2, _ = cor1_rates(RateQuery(lambda_max2=2.0, **base))
        assert lo2.value == pytest.approx(lo1.value / 2)

    def test_cor2_is_sigma1_shape(self):
        q = RateQuery(d=3, m=10, n=30, sigma2=7.0, budget_total=5.0,
                      lambda_max2=1.5, lambda_min2=0.5)
        q1 = RateQuery(d=3, m=10, n=30, sigma2=1.0, budget_total=5.0,
                       lambda_max2=1.5, lambda_min2=0.5)
        lo2, up2 = cor2_rates(q)
        lo1, up1 = cor1_rates(q1)
        assert lo2.value == lo1.value
        assert up2.value == up1.value

    def test_lambda_validation(self):
        with pytest.raises(InvalidArgumentError):
            cor1_rates(RateQuery(d=1, m=2, n=2, budget_total=1.0,
                                 lambda_max2=1.0, lambda_min2=-1.0))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0])
def test_non_finite_lambda_constant_and_pstar_input_rejected(value):
    base = dict(d=3, m=10, n=30, budget_total=90.0, lambda_max2=1.5, lambda_min2=0.5)
    if not math.isfinite(value):    # a finite negative lambda is left to the formulas
        for name in ("lambda_max2", "lambda_min2"):
            with pytest.raises(InvalidArgumentError, match=name):
                RateQuery(**{**base, name: value})
    for name in ("c", "c1", "c2"):
        with pytest.raises(InvalidArgumentError, match=f"constant {name}"):
            RateQuery(**base, constants={name: value})
    if not math.isfinite(value):
        with pytest.raises(InvalidArgumentError, match="a must"):
            tail_pstar(value, 0.1, 4, 1.0)
        with pytest.raises(InvalidArgumentError, match="delta must"):
            tail_pstar(4.0, value, 4, 1.0)


class TestCentralizedRate:
    def test_gaussian(self):
        assert centralized_rate("gaussian", 4, 16, 64, 1.0) == pytest.approx(1 / 256)

    def test_uniform(self):
        assert centralized_rate("uniform", 3, 8, 16, 1.0) == pytest.approx(3 / 16384)

    def test_bounded(self):
        assert centralized_rate("bounded", 8, 100, 1) == pytest.approx(0.08)

    def test_unknown_family(self):
        with pytest.raises(InvalidArgumentError):
            centralized_rate("cauchy", 1, 1, 1)

    @pytest.mark.parametrize("family", ["gaussian", "regression"])
    def test_overflowing_rate_is_rejected(self, family):
        # sigma2 is finite, but sigma2 * d is not
        with pytest.raises(InvalidArgumentError, match="overflows"):
            centralized_rate(family, 2, 1, 1, 1.7e308)


class TestPstar:
    def test_zero_gap(self):
        assert tail_pstar(2.0, 2.0, 1, 1.0) == 0.5

    def test_worked_value(self):
        m = 16
        a = 4 * math.sqrt(math.log(m))
        assert tail_pstar(a, 0.0, 1, 1.0) == pytest.approx(2 * 16.0**-8)

    def test_monotone_in_a(self):
        values = [tail_pstar(a, 0.1, 4, 1.0) for a in np.linspace(0.2, 6.0, 40)]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))

    def test_precondition(self):
        with pytest.raises(InvalidArgumentError):
            tail_pstar(0.1, 1.0, 4, 1.0)


class TestInvariantsOnGrid:
    def test_values_recombine_from_terms(self):
        for d, m, n, budget in grid_queries():
            q_tot = RateQuery(d=d, m=m, n=n, sigma2=1.0, budget_total=budget,
                              lambda_max2=1.3, lambda_min2=0.5)
            q_per = RateQuery(d=d, m=m, n=n, sigma2=1.0,
                              budgets_per_machine=(budget / m,) * m)
            lo, up = cor1_rates(q_tot)
            for res in (theorem1_lower(q_per), prop2_lower(q_per),
                        theorem2_lower(q_tot), prop3_lower(q_tot), lo, up):
                assert recombine(res) == res.value
                assert res.value >= 0

    def test_thm1_dominates_thm2_at_matched_budget(self):
        # interactive bound never exceeds the independent one, constants equal
        for d, m, n, budget in grid_queries():
            q_per = RateQuery(d=d, m=m, n=n, sigma2=1.0,
                              budgets_per_machine=(budget / m,) * m)
            q_tot = RateQuery(d=d, m=m, n=n, sigma2=1.0, budget_total=budget)
            assert theorem1_lower(q_per).value >= theorem2_lower(q_tot).value - 1e-15

    def test_monotone_nonincreasing_in_budget(self):
        budgets = [0.0, 0.5, 1.0, 2.0, 4.0, 16.0, 64.0, 1e6]
        for d, m, n, _ in grid_queries()[::4]:
            prev = {"thm1": math.inf, "thm2": math.inf, "prop2": math.inf,
                    "prop3": math.inf, "cor1": math.inf}
            for budget in budgets:
                q_per = RateQuery(d=d, m=m, n=n, sigma2=1.0,
                                  budgets_per_machine=(budget / m,) * m)
                q_tot = RateQuery(d=d, m=m, n=n, sigma2=1.0, budget_total=budget,
                                  lambda_max2=1.0, lambda_min2=1.0)
                now = {"thm1": theorem1_lower(q_per).value,
                       "thm2": theorem2_lower(q_tot).value,
                       "prop2": prop2_lower(q_per).value,
                       "prop3": prop3_lower(q_tot).value,
                       "cor1": cor1_rates(q_tot)[0].value}
                for key, value in now.items():
                    assert value <= prev[key] + 1e-15
                prev = now

    def test_large_budget_limit_matches_centralized_scaling(self):
        # log-log slopes of the saturated lower bounds against m, n, d agree
        # with the centralized rates within 0.05
        def slope(xs, ys):
            return np.polyfit(np.log(xs), np.log(ys), 1)[0]

        ms = [4, 8, 16, 32, 64]
        thm2_m = [theorem2_lower(RateQuery(d=4, m=m, n=32, sigma2=1.0,
                                           budget_total=1e12)).value for m in ms]
        cent_m = [centralized_rate("gaussian", 4, m, 32, 1.0) for m in ms]
        assert abs(slope(ms, thm2_m) - slope(ms, cent_m)) <= 0.05

        ns = [8, 16, 32, 64, 128]
        prop3_n = [prop3_lower(RateQuery(d=4, m=8, n=n, budget_total=1e12)).value
                   for n in ns]
        cent_n = [centralized_rate("uniform", 4, 8, n) for n in ns]
        assert abs(slope(ns, prop3_n) - slope(ns, cent_n)) <= 0.05

        ds = [1, 2, 4, 8, 16]
        prop2_d = [prop2_lower(RateQuery(d=d, m=64, n=1,
                                         budgets_per_machine=(float(d),) * 64)).value
                   for d in ds]
        cent_d = [centralized_rate("bounded", d, 64, 1) for d in ds]
        assert abs(slope(ds, prop2_d) - slope(ds, cent_d)) <= 0.05
