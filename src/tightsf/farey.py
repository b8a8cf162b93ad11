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

# bypass_oracle scans about dividing.den + ruling.den neighbours per doubling
# of its bound, so a larger starting bound is refused before any is scanned.
MAX_ORACLE_DEN = 10**6


def _cross(p: tuple[int, int], q: tuple[int, int]) -> int:
    return p[0] * q[1] - q[0] * p[1]


def _ccw(a: tuple[int, int], b: tuple[int, int], c: tuple[int, int]) -> bool:
    # Strictly counterclockwise triple: starting at a and moving in the
    # increasing direction we meet b before c.  Vectors are (den, num) with
    # den >= 0, so the sign test below realizes the stated cyclic order.
    return _cross(a, b) * _cross(b, c) * _cross(c, a) < 0


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
    """
    if side not in (FRONT, BACK):
        raise ValueError(f"unknown side {side!r}")
    if dividing == ruling:
        raise ValueError("dividing and ruling slopes must differ")
    xs, ys = dividing.vec()
    rvec = ruling.vec()
    dvec = (xs, ys)

    def in_arc(c: tuple[int, int]) -> bool:
        if c == rvec:
            return True
        if side == FRONT:
            return _ccw(rvec, c, dvec)
        return _ccw(dvec, c, rvec)

    def better(c: tuple[int, int], best: tuple[int, int] | None) -> bool:
        if best is None:
            return True
        if side == FRONT:
            return _ccw(rvec, c, best)
        return _ccw(best, c, rvec)

    def best_upto(bound: int) -> tuple[int, int] | None:
        best = None
        if xs == 1:
            # the infinite slope is a neighbor of any integer slope
            c = (0, 1)
            if in_arc(c) and better(c, best):
                best = c
        if xs == 0:
            # neighbors of inf are the integers; scan those near the ruling
            center = rvec[1] // rvec[0] if rvec[0] else 0
            for a in range(center - bound, center + bound + 1):
                c = (1, a)
                if c == rvec:
                    return c
                if in_arc(c) and better(c, best):
                    best = c
            return best
        for b in range(1, bound + 1):
            base = b * ys
            for eps in (1, -1):
                t = base - eps
                if t % xs == 0:
                    c = (b, t // xs)
                    if c == rvec:
                        return c
                    if in_arc(c) and better(c, best):
                        best = c
        return best

    bound = max(1, dividing.den + ruling.den)
    if bound > MAX_ORACLE_DEN:
        raise ValueError(f"oracle bound {bound} is more than the limit {MAX_ORACLE_DEN}")
    prev = best_upto(bound)
    for _ in range(40):
        bound *= 2
        cur = best_upto(bound)
        if cur is not None and cur == prev:
            return Slope(cur[1], cur[0])
        prev = cur
    raise ArithmeticError("bypass oracle failed to stabilize")
