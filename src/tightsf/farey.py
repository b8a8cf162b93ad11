"""The Farey tessellation on Q u {inf} and the bypass slope update.

Two slopes are joined by an edge exactly when their line vectors form an
integral basis of Z^2.  The boundary circle is ordered counterclockwise as the
increasing cyclic order on R u {inf}: ..., -1, 0, 1, ..., inf, ..., -2, -1, ...
A bypass attached along a ruling curve of slope r to a convex torus with
dividing slope s moves the dividing slope to the point of the arc ([r, s] for
a front attachment, [s, r] for a back attachment) closest to r among slopes
with an edge to s; when r itself has an edge to s the result is r.

Whether this "front" agrees with any particular picture's front is a global
orientation choice; swapping the orientation of the circle swaps front and
back.  Every downstream count is insensitive to the choice.
"""
from __future__ import annotations

from .slopes import Slope

FRONT = "front"
BACK = "back"

# bypass_oracle walks once over at most den(dividing) / 2 + 1 denominators,
# then scans about 2 bound / den(dividing) Farey neighbours per doubling of its
# bound (2 bound for an integer or infinite dividing slope).  Its starting
# bound, den(dividing) + den(ruling), is refused above this before any scan.
MAX_ORACLE_DEN = 10**6


def bypass_attach(dividing: Slope, ruling: Slope, side: str = FRONT) -> Slope:
    """Dividing slope after a bypass attachment along a ruling curve.

    Conjugates by the orientation-preserving unimodular matrix
    [[ys, -xs], [alpha, beta]], which sends the dividing slope ys/xs to
    infinity, where the neighbors are the integers and "closest to the ruling
    inside the arc" is a ceiling (front) or floor (back), then conjugates the
    integer k back to (ys k - alpha)/(xs k + beta).  Any alpha, beta with
    alpha xs + beta ys = 1 will do: another pair shifts k and the pair by the
    same multiple of (ys, xs), which the conjugation undoes.
    """
    if side not in (FRONT, BACK):
        raise ValueError(f"unknown side {side!r}")
    if dividing == ruling:
        raise ValueError("dividing and ruling slopes must differ")
    xs, ys = dividing.vec()
    if xs:
        beta = pow(ys, -1, xs)
        alpha = (1 - beta * ys) // xs
    else:  # the infinite slope (0, 1)
        alpha, beta = 0, 1
    rx, ry = ruling.vec()
    ix = ys * rx - xs * ry
    iy = alpha * rx + beta * ry
    if ix == 0:  # only the dividing slope maps to inf
        raise ArithmeticError(f"ruling {ruling} maps to inf but differs from the dividing slope")
    k = -(-iy // ix) if side == FRONT else iy // ix  # ceil or floor of iy/ix
    return Slope(ys * k - alpha, xs * k + beta)


def bypass_oracle(dividing: Slope, ruling: Slope, side: str = FRONT) -> Slope:
    """Brute-force bypass computation, independent of bypass_attach.

    Enumerates all Farey neighbors of the dividing slope with denominator at
    most a bound, keeps those inside the attachment arc, ranks them by arc
    position, and doubles the bound until the winner survives one further
    doubling.  The starting bound, den(dividing) + den(ruling), may be at most
    MAX_ORACLE_DEN.

    Enumeration: a neighbor c = (b, a) of d = (xs, ys) has cross(c, d) =
    b ys - a xs = eps with eps = +-1, so a = (b ys - eps) / xs and b ys = eps
    (mod xs).  The denominators of each sign thus form one residue class mod
    xs, and as b ys = eps gives (xs - b) ys = -eps, the class of the other
    sign is that of -b (the same class when xs <= 2).  A walk over b = 1, 2,
    ... meets the first neighbor within xs / 2 + 1 steps; each pass then
    steps through both classes by xs, meeting exactly the neighbors that
    testing every b would meet.  den 0 lies in a class only when xs = 1, where it
    gives inf, the neighbor of every integer.  The neighbors of inf are the
    integers (1, a), all of sign 1, bounded by |a - center| instead of by b.

    Ranking: c lies strictly inside the arc when cross(r, c) cross(c, d)
    cross(d, r) is negative (front) or positive (back): the triple (r, c, d)
    or (d, c, r) is strictly counterclockwise.  The map c -> cross(d, c) /
    cross(r, c) is projective with its pole at r and its zero at d, so on the
    open arc between them it is monotone and of one sign, and its absolute
    value falls from infinity at r to 0 at d.  On a neighbor that value is
    1 / |cross(r, c)|, so the in-arc neighbor closest to r is the one with the
    least |cross(r, c)|, and no two in-arc neighbors tie.  The order being
    strict, the best up to 2 bound is the better of the best up to bound and
    the best in (bound, 2 bound], so each doubling scans only the new range.
    A ruling that is itself a neighbor (|cross(d, r)| = 1) ends the arc and
    wins at every bound.
    """
    if side not in (FRONT, BACK):
        raise ValueError(f"unknown side {side!r}")
    if dividing == ruling:
        raise ValueError("dividing and ruling slopes must differ")
    xs, ys = dividing.vec()
    rx, ry = ruling.vec()
    bound = max(1, xs + rx)
    if bound > MAX_ORACLE_DEN:
        raise ValueError(f"oracle bound {bound} is more than the limit {MAX_ORACLE_DEN}")
    turn = xs * ry - rx * ys  # cross(d, r)
    if turn in (1, -1):
        return ruling
    # rank of a neighbor c of sign eps: cross(r, c) eps orient, which is
    # |cross(r, c)| inside the arc and negative outside it
    orient = 1 if (turn > 0) == (side == BACK) else -1

    if xs:
        plus, minus = 1 % xs, -1 % xs  # b ys mod xs on the neighbors of sign +1 and -1
        for b in range(1, xs + 1):
            m = b * ys % xs
            if m == plus or m == minus:
                break
        sign = 1 if m == plus else -1
        classes = {b: (1, -1)} if plus == minus else {b: (sign,), xs - b: (-sign,)}

        def scan(lo: int, hi: int, best: tuple[int, int, int] | None) -> tuple[int, int, int] | None:
            """Best (rank, num, den) of best and the in-arc neighbors with lo <= den <= hi."""
            for first, signs in classes.items():
                for b in range(lo + (first - lo) % xs, hi + 1, xs):
                    for eps in signs:
                        a = (b * ys - eps) // xs
                        y = (rx * a - ry * b) * eps * orient
                        if y > 0 and (best is None or y < best[0]):
                            best = (y, a, b)
            return best
    else:
        center = ry // rx

        def scan(lo: int, hi: int, best: tuple[int, int, int] | None) -> tuple[int, int, int] | None:
            """Best (rank, num, den) of best and the in-arc integers a, lo <= |a - center| <= hi."""
            flanks = ((range(center - hi, center + hi + 1),) if lo == 0 else
                      (range(center - hi, center - lo + 1), range(center + lo, center + hi + 1)))
            for values in flanks:
                for a in values:
                    y = (rx * a - ry) * orient
                    if y > 0 and (best is None or y < best[0]):
                        best = (y, a, 1)
            return best

    best = scan(0, bound, None)
    for _ in range(40):
        cur = scan(bound + 1, 2 * bound, best)
        bound *= 2
        if cur is not None and cur is best:
            return Slope(cur[1], cur[2])
        best = cur
    raise ArithmeticError("bypass oracle failed to stabilize")
