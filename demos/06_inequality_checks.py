"""Exact verification of the quantitative data-processing inequalities.

Everything here is computed by enumerating small joint distributions, so each
inequality is checked to float precision on thousands of random instances.
Every table a check takes is a plain array (a channel is its rows P(x | v),
a quantizer its rows P(y | x)), checked to be a pmf where it enters. One
worked instance of each check is shown, then the randomized suites run.
"""

import numpy as np

from distest import infotheory as it
from distest import sweeps

# worked instance: two-point channel, identity quantizer (the table np.eye(2))
ch = sweeps.two_point_channel(0.2)
rep = it.check_dpi_independent(1, ch, np.eye(2))
print("independent DPI, delta = 0.2, Y = X:")
print(f"  I(V;Y) = {rep['I_VY']:.6f} nats, alpha = {rep['alpha']:.6f}, "
      f"bound = 2(e^2a - 1)^2 I(X;Y) = {rep['bound']:.6f} -> holds: {rep['holds']}")

# truncating one symbol of a three-letter alphabet costs H(E) + P(E=0)
rows = np.array([[0.5, 0.3, 0.2], [0.3, 0.5, 0.2]])
trep = it.check_dpi_truncated(1, rows, np.eye(3), np.array([True, True, False]))
print("\ntruncated DPI, S drops the third symbol:")
print(f"  I(V;Y) = {trep['I_VY']:.6f}, H(E) = {trep['H_E']:.6f}, "
      f"P(E=0) = {trep['P_E0']:.3f}, bound = {trep['bound']:.6f} "
      f"-> holds: {trep['holds']}")

# the neighborhood Fano bound against the exact optimal test
rng = np.random.default_rng(1)
channel = sweeps.random_bounded_channel(rng, 3, 0.4)
joint = it.product_channel(channel, 3) / 8
info = it.mutual_information(joint, 0, 1)
bound = it.fano_variant_lower(3, 1, info)
exact = sweeps.exact_min_hamming_test_error(joint, 3, 1)
print(f"\nFano with Hamming-1 neighborhoods, d = 3: bound {bound:.4f} <= "
      f"exact optimal error {exact:.4f}")
# the estimation-to-testing reduction turns either error into a risk bound:
# packing vertices delta * v, risk >= delta^2 (floor(t) + 1) P(test error)
delta = 0.1
print(f"  risk >= delta^2 (floor(t) + 1) P(error) at delta = {delta}: "
      f"{it.estimation_to_testing_lower(delta, 1, bound):.6f} from Fano, "
      f"{it.estimation_to_testing_lower(delta, 1, exact):.6f} from the exact test")

print("\nrandomized suites (500 instances each):")
for name in sweeps.SUITE_NAMES:
    results = sweeps.run_suite(name, 500, seed=7)
    bad = sum(not row.holds for row in results)
    worst = min(row.slack for row in results)
    print(f"  {name:<8} violations: {bad}, smallest slack: {worst:.3e}")
