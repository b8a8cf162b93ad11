"""Dispatch of the counting results, with machine-checkable certificates.

Given normalized Seifert data with integer Euler number -2, the count of
isotopy classes of tight contact structures is:

  * infinite for the three torus-bundle triples (1/2, 3/4, 3/4),
    (1/2, 2/3, 5/6), (2/3, 2/3, 2/3), distinguished by torsion, with at most
    one Stein fillable representative;
  * n(n+1)/2 on (1/2, 2/3, (5n+1)/(6n+1)): all strongly fillable, at least n
    Stein fillable, and at least floor(n/2) not Stein fillable;
  * the product tight_count(r1) tight_count(r2) tight_count(r3), all Stein
    fillable, when the invariant sum is below 2 or at least 9/4, and likewise
    on (1/2, 2/3, k/(k+1)) for k >= 6 where the product is 1;
  * unknown in the remaining gap, and for the higher-genus surface bundles
    with invariant sum exactly 2.

Certificates carry the intermediate exact data (per-fiber counts, rounding
coefficients, limits, per-k tables) that the dispatch rests on.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import Any

from . import seifert as sf
from .contfrac import expand, shifted_product, solid_torus_count
from .convex import max_twist_table, slope_coeffs, v3_slope_limit
from .seifert import SeifertData
from .slopes import Slope

EXACT = "exact"
INFINITE = "infinite"
UNKNOWN = "unknown"

ALL_STEIN = "all_stein"
MIXED = "mixed"
TORSION = "torsion"
NOT_APPLICABLE = "not_applicable"


@dataclass(frozen=True)
class Fillability:
    kind: str
    stein_lower: int | None = None
    non_stein_lower: int | None = None
    all_strong: bool | None = None
    note: str | None = None


@dataclass(frozen=True)
class Certificate:
    case: str
    data: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class ClassificationResult:
    manifold: SeifertData
    status: str
    count: int | None
    fillability: Fillability
    certificate: Certificate

    @property
    def reason(self) -> str | None:
        return self.certificate.data.get("reason")


def _fiber_certificate(sd: SeifertData) -> dict[str, Any]:
    """Per-fiber counts plus the solid-torus shortcut data.

    Each leg is expanded once.  The boundary slope ncf_eval(reverse_shift(entries))
    equals (p - q)/(v - u) from the convergents stored in sd.
    """
    t_values = []
    shortcut = []
    for r, (p, q, u, v) in zip(sd.r, sd.conv):
        entries = expand(-1 / r)
        slope = Slope(p - q, v - u)
        t_values.append(shifted_product(entries))
        shortcut.append(
            {"r": r, "entries": entries, "boundary": slope, "count": solid_torus_count(slope)}
        )
    return {"t_values": tuple(t_values), "shortcut": tuple(shortcut)}


def classify(sd: SeifertData) -> ClassificationResult:
    family = sf.detect_family(sd)
    if family.kind == sf.WRONG_E0:
        return ClassificationResult(
            sd, UNKNOWN, None, Fillability(NOT_APPLICABLE),
            Certificate(family.kind, {"reason": "only the twisted Euler number -2 is handled"}),
        )
    if family.kind == sf.TORUS_BUNDLE:
        note = ("infinitely many tight structures distinguished by torsion; the torsion-zero "
                "one is Stein fillable, all others are not strongly fillable")
        return ClassificationResult(
            sd, INFINITE, None,
            Fillability(TORSION, stein_lower=1, note=note),
            Certificate(family.kind, {"triple": sd.r}),
        )
    if family.kind == sf.SPHERE_FAMILY:
        n = family.n
        table = max_twist_table(n)
        count = n * (n + 1) // 2
        if table.total != count:
            raise ArithmeticError(f"max_twist_table rows sum to {table.total}, not n(n+1)/2 = {count}")
        data: dict[str, Any] = {"n": n, "per_k": table.rows}
        if n == 1:
            data["also_k_over_k_plus_1"] = 6
            fill = Fillability(ALL_STEIN, stein_lower=1, non_stein_lower=0, all_strong=True)
        else:
            fill = Fillability(MIXED, stein_lower=n, non_stein_lower=n // 2, all_strong=True)
        return ClassificationResult(sd, EXACT, count, fill, Certificate(family.kind, data))
    if family.kind == sf.K_OVER_K1:
        data = _fiber_certificate(sd)
        data["k"] = family.k
        count = prod(data["t_values"])
        if count != 1:
            raise ArithmeticError(f"product of T values is {count}, not 1 on (1/2, 2/3, k/(k+1))")
        fill = Fillability(ALL_STEIN, stein_lower=count, non_stein_lower=0, all_strong=True)
        return ClassificationResult(sd, EXACT, count, fill, Certificate(family.kind, data))
    if family.kind in (sf.SUM_GE_9_4, sf.SUM_LT_2):
        data = _fiber_certificate(sd)
        count = prod(data["t_values"])
        coeffs = slope_coeffs(sd)
        data["coeffs"] = coeffs
        data["limit"] = v3_slope_limit(sd, coeffs)
        q1, q2, v1 = sd.conv[0].q, sd.conv[1].q, sd.conv[0].v
        n1 = -q2 - 1
        data["imbalance"] = {
            "n1": n1,
            "lhs": abs(q1 * n1 + v1),
            "rhs": q1 * q2,
            "ok": abs(q1 * n1 + v1) > q1 * q2,
        }
        fill = Fillability(ALL_STEIN, stein_lower=count, non_stein_lower=0, all_strong=True)
        return ClassificationResult(sd, EXACT, count, fill, Certificate(family.kind, data))
    if family.kind == sf.DEGENERATE_SUM_2:
        reason = "higher genus periodic surface bundle; no counting technique applies"
        return ClassificationResult(
            sd, UNKNOWN, None, Fillability(NOT_APPLICABLE),
            Certificate(family.kind, {"reason": reason}),
        )
    reason = "invariant sum in the open gap (2, 9/4) outside the known families"
    return ClassificationResult(
        sd, UNKNOWN, None, Fillability(NOT_APPLICABLE),
        Certificate(sf.GAP_OTHER, {"reason": reason, "sum": sd.invariant_sum}),
    )
