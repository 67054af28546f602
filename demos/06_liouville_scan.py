"""The polynomial Liouville theorem as a scale scan.

Harmonic fields with polynomial growth tags have derivative energies that
decay down the Caccioppoli chain and vanish identically beyond their
degree; e^x sin(y) passes the harmonicity gate at every scale yet defeats
every polynomial growth tag once the scale ladder reaches far enough.
"""

import numpy as np

from schauderlab import GrowthFamily, derivative_energy_scan, polynomial_degree_detect, verify_growth
from schauderlab.liouville_lab import DISCRIMINATION_SCALES, counterexample_generator

print("== degree-2 harmonic polynomial x^2 - y^2 (tag gamma = 2) ==")
fam = GrowthFamily(lambda x, y: x**2 - y**2, gamma=2.0, m=129)
print("harmonic gate passed:", fam.harmonic_gate())
scan = derivative_energy_scan(fam, 1)
print("first-derivative energies over B(R/2):")
for scale, energy in zip(scan.scales, scan.energies):
    print(f"  R={scale:4.1f}  energy {energy:12.5f}   (2 pi (R/2)^4 = {2 * np.pi * (scale / 2) ** 4:.5f})")
print(f"fitted slope {scan.slope:.4f}  (theory: 2(deg - k) + n = 4)")
print("third derivatives at machine floor:", derivative_energy_scan(fam, 3).at_floor)
print("detected degree:", polynomial_degree_detect(fam), " growth tag verified:",
      verify_growth(fam)["verified"])

print("\n== superpolynomial counterexample e^x sin(y) ==")
exp_fam = GrowthFamily(counterexample_generator((1, 0), (0, 1)), gamma=10.0,
                       scales=DISCRIMINATION_SCALES, m=129)
print("harmonic gate passed:", exp_fam.harmonic_gate())
scan = derivative_energy_scan(exp_fam, 1)
print("window slopes grow without bound:", np.array2string(scan.window_slopes, precision=2))
for gamma in (2.0, 5.0, 10.0):
    exp_fam.gamma = gamma
    print(f"  growth tag gamma = {gamma:4.1f}: verified = {verify_growth(exp_fam)['verified']}")
