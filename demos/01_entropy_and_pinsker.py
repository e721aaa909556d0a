"""Relative entropy on finite alphabets: nonnegativity, the
Csiszar-Kullback-Pinsker bound, and what maps do to information.

Run:  python3 demos/01_entropy_and_pinsker.py
"""

import numpy as np

from gradflow import DiscreteMeasure, push_forward, relative_entropy, total_variation

rng = np.random.default_rng(1)
atoms = np.arange(5)[:, None].astype(float)


def random_law():
    w = rng.random(5) + 1e-3
    return DiscreteMeasure(atoms, w / w.sum())


mu, nu = random_law(), random_law()
h = relative_entropy(mu, nu)
tv = total_variation(mu, nu)

print("two random laws on a 5-letter alphabet")
print(f"  H(mu|nu)        = {h:.6f}   (>= 0, zero only for mu = nu)")
print(f"  TV(mu, nu)      = {tv:.6f}")
print(f"  Pinsker bound   : 2 TV^2 = {2 * tv**2:.6f}  <=  H = {h:.6f}")

# relabelling the alphabet through an injective map changes nothing
shift = lambda x: 3.0 * x + 7.0
h_mapped = relative_entropy(push_forward(mu, shift), push_forward(nu, shift))
print(f"\ninjective relabelling: H unchanged exactly ({h_mapped == h})")

# merging letters (a non-injective map) can only destroy information
merge = lambda x: x[:, 0] % 2
h_merged = relative_entropy(push_forward(mu, merge), push_forward(nu, merge))
print(f"merging to 2 letters: H drops from {h:.6f} to {h_merged:.6f}")

# a law that puts mass where the reference has none is infinitely far away
point = DiscreteMeasure(atoms, np.array([1.0, 0.0, 0.0, 0.0, 0.0]))
hole = DiscreteMeasure(atoms, np.array([0.0, 0.25, 0.25, 0.25, 0.25]))
print(f"\nH(delta | law-with-a-hole) = {relative_entropy(point, hole)}")
