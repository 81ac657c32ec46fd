#!/usr/bin/env python3
"""Fusion, induction, and duality on both sides of the free-field extension.

Run:  python demos/fusion_and_induction.py
"""

from fractions import Fraction as F

from sl2wt import OMEGA, admissible_level, wt
from sl2wt import weight_cat as wc
from sl2wt import local_cat as lc
from sl2wt import functors as fn
from sl2wt import fusion as fu

lv = admissible_level(5, 3)

# --- canonical labels -------------------------------------------------------
# Every simple weight module is a spectral flow of D+(r,s) or E(lam;r,s);
# other presentations canonicalize on construction.
print("L(1,0)      ->", wc.lr0(lv, 1))
print("D-(1,1)     ->", wc.dminus(lv, 1, 1))
print("E at (4,2)  ->", wc.typical(lv, 4, 2, wt(F(1, 5), 1)), "(Kac label lex-minimized)")
print()

# --- the catalogued fusion products ----------------------------------------
for r, s in [(1, 1), (2, 1), (1, 2)]:
    print(f"D+(1,1) x D-({r},{s}) =", fu.fuse_D11plus_Dminus(lv, r, s))
print("sigma(D+(1,1))^2     =", fu.fuse_sigmaD11_selfsquare(lv))
print()

# --- the Grothendieck solver ------------------------------------------------
# Products of arbitrary effective classes are solved through induction: the
# induced product is computed in the extended fusion ring and the unique
# effective preimage is peeled off it term by term, lowest flow first, since
# the top of F(z) is tau(z) and its lower factors sit at higher flows.
x = wc.GrothC.of(wc.typical(lv, 1, 2, OMEGA))
y = wc.GrothC.of(wc.atypical(lv, 2, 1, -1))
print(f"[{list(x.support())[0]}] x [{list(y.support())[0]}] =")
print("   ", fu.groth_fuse_C(lv, x, y))
print()

# --- induction and restriction ----------------------------------------------
# Typicals induce to the projective covers R with their diamond Loewy
# diagram; atypicals induce to the length-2 modules M.
for label in [wc.typical(lv, 1, 2, OMEGA), wc.atypical(lv, 1, 1), wc.atypical(lv, 1, 2)]:
    obj = fn.induce_simple(lv, label)
    print(f"F({label}):")
    for line in lc.loewy_lines(obj):
        print("   ", line)
print()

y = lc.simple_a(lv, 1, 1, 0, wt(0))
print(f"G({y}) =", fn.restrict_simple(lv, y), " with factors",
      wc.comp_factors(lv, fn.restrict_simple(lv, y)))
print()

# --- duals and twist data ----------------------------------------------------
rt = lc.build_R(lv, 1, 2, OMEGA, 0)
print(f"{rt}* =", lc.rigid_dual(lv, rt), "  (lam -> t-lam, flow -> -flow-2)")
a = lc.unit_a(lv)
print("gv dual of the unit:", lc.gv_dual(lv, a))
z = lc.simple_a(lv, 1, 2, 1, -lv.t / 2)
print(f"twist exponent of {z}:", lc.twist_exponent(lv, z))
print("monodromy exponent of Pi(1;0) with Pi(0;1/2):",
      lc.monodromy_exponent(lv, 1, wt(0), 0, wt(F(1, 2))))
