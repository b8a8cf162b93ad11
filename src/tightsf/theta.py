"""Plane-field invariant c1^2 - 3*sigma - 2*chi from a framed link description.

The 4-manifold is a handlebody on the 4-ball with one 2-handle per link
component, so chi = 1 + m.  The linking matrix L (framings on the diagonal)
presents the intersection form; a rotation vector rot represents the first
Chern class, and c1^2 = rot^T L^{-1} rot whenever rot lies in the rational
column span of L (the value does not depend on the chosen solution).

Both sigma and c1^2 come from one exact congruence diagonalization
C^T L C = D over the rationals, never from numerical eigenvalues, and one
pass of it yields both.  The elimination is sparse: each row keeps only its
nonzero entries and a pivot updates only its neighbours.  Pivots are taken
from the last index down, so on a plumbing tree numbered from its centre
outwards (as `seifert.linking_matrix` numbers it) every pivot is a leaf and
nothing fills in: the work is linear in the number of vertices.  The same
column operations carry y = C^T rot, and each pivot d_k != 0 adds

    sign(d_k) to sigma    and    y_k^2 / d_k to c1^2.

What is left at the end is a block of zeros, and rot lies in the span of L
exactly when y_k = 0 on that block.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress


def _int_list(xs) -> bool:
    return isinstance(xs, (list, tuple)) and set(map(type, xs)) <= {int}


@dataclass(frozen=True)
class SurgeryDiagram:
    linking: tuple[tuple[int, ...], ...]
    rot: tuple[int, ...]

    def __post_init__(self):
        m = len(self.linking)
        if any(len(row) != m for row in self.linking):
            raise ValueError("linking matrix must be square")
        if list(map(tuple, self.linking)) != list(zip(*self.linking)):
            raise ValueError("linking matrix must be symmetric")
        if len(self.rot) != m:
            raise ValueError("rotation vector length must match the matrix")

    @classmethod
    def from_lists(cls, linking, rot) -> "SurgeryDiagram":
        """Diagram from nested lists such as parsed JSON; every entry must be an int."""
        if not isinstance(linking, (list, tuple)) or not all(map(_int_list, linking)):
            raise ValueError("linking matrix must be a list of integer lists")
        if not _int_list(rot):
            raise ValueError("rotation vector must be a list of integers")
        return cls(tuple(map(tuple, linking)), tuple(rot))


def congruence(diagram: SurgeryDiagram) -> tuple[int, Fraction]:
    """(sigma, c1^2) from one congruence elimination C^T L C = D, y = C^T rot."""
    rows = [{j: Fraction(row[j]) for j in compress(range(len(row)), row)} for row in diagram.linking]
    y = [Fraction(x) for x in diagram.rot]
    pending = list(range(len(rows)))  # rows hold entries in pending columns only
    sigma, c1sq = 0, Fraction(0)
    while pending:
        if pending[-1] not in rows[pending[-1]]:
            p = next((p for p in reversed(range(len(pending))) if pending[p] in rows[pending[p]]), None)
            if p is not None:
                # symmetric swap: pivot on the next nonzero diagonal entry instead
                pending[p], pending[-1] = pending[-1], pending[p]
            else:
                i = next((i for i in pending if rows[i]), None)
                if i is None:  # a zero block is left
                    if any(y[i] for i in pending):
                        raise ValueError("c1 not liftable")
                    break
                # every diagonal entry is zero: adding row and column j to i
                # makes the diagonal entry 2 L[i][j] != 0
                ri = rows[i]
                j = next(iter(ri))
                for c, v in rows[j].items():
                    if c != i:
                        x = ri.get(c, 0) + v
                        if x:
                            ri[c] = rows[c][i] = x
                        else:
                            del ri[c], rows[c][i]
                ri[i] = 2 * ri[j]
                y[i] += y[j]
                continue
        k = pending.pop()
        row = rows[k]
        d = row.pop(k)
        sigma += 1 if d > 0 else -1
        if y[k]:
            c1sq += y[k] * y[k] / d
        for i, v in row.items():
            f = v / d
            ri = rows[i]
            del ri[k]
            for j, w in row.items():
                x = ri.get(j, 0) - f * w
                if x:
                    ri[j] = x
                else:
                    ri.pop(j, None)
            if y[k]:
                y[i] -= f * y[k]
    return sigma, c1sq


def signature(linking) -> int:
    """Signature of a symmetric matrix: the sign count of its congruence pivots."""
    return congruence(SurgeryDiagram(tuple(map(tuple, linking)), (0,) * len(linking)))[0]


def c1_squared(diagram: SurgeryDiagram) -> Fraction:
    """rot^T L^{-1} rot, well-defined whenever rot lies in the span of L."""
    return congruence(diagram)[1]


@dataclass(frozen=True)
class ThetaParts:
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
