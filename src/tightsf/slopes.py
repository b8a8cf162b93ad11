"""Exact slopes on a torus.

A slope is an isotopy class of essential curves on a torus: a point of the
projective line over Z, written p/q with gcd(|p|, q) = 1 and q >= 0, or the
infinite slope 1/0.  The slope p/q is the line through the column vector
(q, p); a matrix [[a, b], [c, d]] acts on column vectors (selftest.apply), so
it sends p/q to the slope (c*q + d*p) / (a*q + b*p).  Lines are unoriented,
so negating a vector gives the same slope.

Everything here is arbitrary-precision integer arithmetic; no floats.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd

# An input integer is read from a text of at most this many characters.  int()
# takes time quadratic in the length of the text, and outside theta every
# integer tightsf prints is a polynomial of fixed degree in the input integers,
# so this cap also bounds the printing that the CLI does past the interpreter's
# own int/str limit.
MAX_INPUT_DIGITS = 4000


def parse_int(text: str) -> int:
    """int(text), refused with ValueError if text is longer than MAX_INPUT_DIGITS."""
    if len(text) > MAX_INPUT_DIGITS:
        raise ValueError(f"an input integer of {len(text)} characters is more than the limit {MAX_INPUT_DIGITS}")
    return int(text)


class Slope:
    """Reduced rational slope num/den with den >= 0; den == 0 encodes infinity."""

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int = 1):
        if den == 0:
            if num == 0:
                raise ValueError("slope 0/0 is undefined")
            num = 1
        else:
            if den < 0:
                num, den = -num, -den
            g = gcd(num, den)
            num //= g
            den //= g
        _set_num(self, num)  # through the slots, past __setattr__
        _set_den(self, den)

    def __setattr__(self, name, value):
        raise AttributeError("Slope is immutable")

    def vec(self) -> tuple[int, int]:
        """The line vector (den, num); (0, 1) for the infinite slope."""
        return (self.den, self.num)

    def as_fraction(self) -> Fraction:
        if self.den == 0:
            raise ValueError("infinite slope has no rational value")
        return Fraction(self.num, self.den)

    @classmethod
    def parse(cls, text: str) -> "Slope":
        """Parse 'p/q', a bare integer, or 'inf'."""
        t = text.strip()
        if t in ("inf", "Inf", "INF", "1/0"):
            return INF
        if "/" in t:
            p, q = t.split("/", 1)
            return cls(parse_int(p), parse_int(q))
        return cls(parse_int(t))

    def __neg__(self) -> "Slope":
        return Slope(-self.num, self.den) if self.den else self

    def __eq__(self, other) -> bool:
        if isinstance(other, Slope):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return self.den != 0 and self.as_fraction() == other
        return NotImplemented

    def __hash__(self):
        # a finite slope hashes as the int or Fraction it equals; inf keeps a hash of its own
        return hash(Fraction(self.num, self.den)) if self.den else hash((1, 0))

    def __str__(self) -> str:
        if self.den == 0:
            return "inf"
        if self.den == 1:
            return str(self.num)
        return f"{self.num}/{self.den}"

    def __repr__(self) -> str:
        return f"Slope({self.num}, {self.den})"


_set_num, _set_den = Slope.num.__set__, Slope.den.__set__
INF = Slope(1, 0)
