"""Plane-field invariant c1^2 - 3*sigma - 2*chi from a framed link description.

The 4-manifold is a handlebody on the 4-ball with one 2-handle per link
component, so chi = 1 + m.  The linking matrix L (framings on the diagonal)
presents the intersection form; a rotation vector rot represents the first
Chern class, and c1^2 = rot^T L^{-1} rot whenever rot lies in the rational
column span of L (the value does not depend on the chosen solution).

Both sigma and c1^2 come from one exact congruence diagonalization
C^T L C = D, never from numerical eigenvalues, and one pass of it yields
both.  The elimination is sparse: each row keeps only its nonzero entries
and a pivot updates only its neighbours.  Pivots are taken from the last
index down, so on a plumbing tree numbered from its centre outwards (as
`seifert.linking_matrix` numbers it) every pivot is a leaf and nothing
fills in: the work is linear in the number of vertices.  The same column
operations carry y = C^T rot, and each pivot d_k != 0 adds

    sign(d_k) to sigma    and    y_k^2 / d_k to c1^2.

What is left at the end is a block of zeros, and rot lies in the span of L
exactly when y_k = 0 on that block.

The elimination runs in integers, with Bareiss's fraction-free pivots
(Bareiss, Math. Comp. 22, 1968).  Let D_s be the determinant of the
principal block of the first s pivots, D_0 = 1.  After s pivots every
stored entry is D_s times its Schur-complement entry, so the stored pivot
is D_{s+1} = D_s d_k, and sigma adds sign(D_{s+1}) sign(D_s).  A pivot on k
turns each pair of k's neighbours into

    x_ij  <-  (D_{s+1} x_ij - x_ik x_kj) / D_s,

an exact division by Sylvester's identity, and every division is checked.
An entry that k does not touch only takes the factor D_{s+1} / D_s, and
that rescale is lazy: each row records the D_t it is stored at and is
brought up to date when it is next read, so a leaf pivot still touches
only its neighbour.  A row-and-column addition is a unimodular congruence
of the pending block and keeps the invariant on up-to-date rows.  rot is a
bordered row and column: y_i updates as an entry, and the corner
z = D_s (c1^2 of the pivots so far), minus the determinant of the bordered
block and so an integer, starts at 0 and becomes (D_{s+1} z + y_k^2) / D_s.
c1^2 = z / D_last is the one `Fraction` the elimination builds.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import compress
from typing import NamedTuple


def _int_list(xs) -> bool:
    return isinstance(xs, (list, tuple)) and set(map(type, xs)) <= {int}


class SurgeryDiagram(NamedTuple("SurgeryDiagram", [("linking", tuple[tuple[int, ...], ...]),
                                                   ("rot", tuple[int, ...])])):
    """A framed link's linking matrix and rotation vector, from lists (such as
    parsed JSON) or tuples.  The one check of a diagram: every entry an int,
    the matrix square and symmetric, rot as long; it is kept as tuples.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so that _replace runs the check too

    def __new__(cls, linking, rot) -> "SurgeryDiagram":
        if not isinstance(linking, (list, tuple)) or not all(map(_int_list, linking)):
            raise ValueError("linking matrix must be a list of integer lists")
        if not _int_list(rot):
            raise ValueError("rotation vector must be a list of integers")
        rows = tuple(map(tuple, linking))
        m = len(rows)
        if any(len(row) != m for row in rows):
            raise ValueError("linking matrix must be square")
        if rows != tuple(zip(*rows)):
            raise ValueError("linking matrix must be symmetric")
        if len(rot) != m:
            raise ValueError("rotation vector length must match the matrix")
        return tuple.__new__(cls, (rows, tuple(rot)))


def _exact(n: int, d: int) -> int:
    """n / d, which Sylvester's identity makes an integer; raises otherwise."""
    q, r = divmod(n, d)
    if r:
        raise ArithmeticError("inexact fraction-free division")
    return q


def congruence(diagram: SurgeryDiagram) -> tuple[int, Fraction]:
    """(sigma, c1^2) from one congruence elimination C^T L C = D, y = C^T rot."""
    rows = [{j: row[j] for j in compress(range(len(row)), row)} for row in diagram.linking]
    y = list(diagram.rot)
    scale = [1] * len(rows)  # row i and y[i] hold scale[i] times their Schur entries
    pending = list(range(len(rows)))  # rows hold entries in pending columns only
    sigma, d, z = 0, 1, 0  # d = D_s; z = D_s c1^2 of the pivots so far

    def fresh(i):
        """Row i, rescaled from scale[i] to d."""
        ri, s = rows[i], scale[i]
        if s != d:
            for c, x in ri.items():
                ri[c] = _exact(x * d, s)
            y[i] = _exact(y[i] * d, s)
            scale[i] = d
        return ri

    while pending:
        if pending[-1] not in rows[pending[-1]]:
            q = next((q for q in reversed(range(len(pending))) if pending[q] in rows[pending[q]]), None)
            if q is not None:
                # symmetric swap: pivot on the next nonzero diagonal entry instead
                pending[q], pending[-1] = pending[-1], pending[q]
            else:
                i = next((i for i in pending if rows[i]), None)
                if i is None:  # a zero block is left
                    if any(y[i] for i in pending):
                        raise ValueError("c1 not liftable")
                    break
                # every diagonal entry is zero: adding row and column j to i
                # makes the diagonal entry 2 L[i][j] != 0
                ri = fresh(i)
                j = next(iter(ri))
                for c, v in fresh(j).items():
                    if c != i:
                        rc = fresh(c)
                        x = ri.get(c, 0) + v
                        if x:
                            ri[c] = rc[i] = x
                        else:
                            del ri[c], rc[i]
                ri[i] = 2 * ri[j]
                y[i] += y[j]
                continue
        k = pending.pop()
        row = fresh(k)
        p = row.pop(k)  # D_{s+1}
        sigma += 1 if (p > 0) == (d > 0) else -1
        yk = y[k]
        z = _exact(p * z + yk * yk, d)
        for i, v in row.items():
            ri = fresh(i)
            del ri[k]
            for c in ri.keys() | row.keys():
                x = _exact(p * ri.get(c, 0) - v * row.get(c, 0), d)
                if x:
                    ri[c] = x
                else:
                    ri.pop(c, None)
            y[i] = _exact(p * y[i] - v * yk, d)
            scale[i] = p
        d = p
    return sigma, Fraction(z, d)


def signature(linking) -> int:
    """Signature of a symmetric matrix: the sign count of its congruence pivots."""
    return congruence(SurgeryDiagram(linking, (0,) * len(linking)))[0]


def c1_squared(diagram: SurgeryDiagram) -> Fraction:
    """rot^T L^{-1} rot, well-defined whenever rot lies in the span of L."""
    return congruence(diagram)[1]


class ThetaParts(NamedTuple):
    c1sq: Fraction
    sigma: int
    chi: int
    theta: Fraction


def theta_parts(diagram: SurgeryDiagram) -> ThetaParts:
    """c1^2, sigma, chi = 1 + (number of link components) and
    theta = c1^2 - 3*sigma - 2*chi, from one congruence elimination."""
    sigma, c1sq = congruence(diagram)
    chi = 1 + len(diagram.linking)
    return ThetaParts(c1sq, sigma, chi, c1sq - 3 * sigma - 2 * chi)


def theta(diagram: SurgeryDiagram) -> Fraction:
    """c1^2 - 3*sigma - 2*chi with chi = 1 + (number of link components)."""
    return theta_parts(diagram).theta
