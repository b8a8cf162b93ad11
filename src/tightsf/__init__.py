"""Exact arithmetic for slope calculus on small Seifert fibered spaces.

The package computes, with arbitrary-precision rational arithmetic
throughout, the convex-surface slope bookkeeping and counting formulas that
determine the number of tight contact structures on Seifert fibered spaces
over S^2 with three singular fibers and twisted Euler number -2, together
with fillability information and certificates.
"""

__version__ = "0.1.0"
