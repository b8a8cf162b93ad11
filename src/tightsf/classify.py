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

A certificate is the dict a report prints: the regime's case, then the
intermediate exact data (per-fiber counts, rounding coefficients, limits,
per-k tables) that the dispatch rests on.
"""
from __future__ import annotations

from math import prod
from typing import Any, NamedTuple

from . import seifert as sf
from .contfrac import Convergents, Expansion, capped_count, shifted_product
from .convex import max_twist_table, slope_coeffs, v3_slope_limit
from .seifert import SeifertData

EXACT = "exact"
INFINITE = "infinite"
UNKNOWN = "unknown"

ALL_STEIN = "all_stein"
MIXED = "mixed"
TORSION = "torsion"
NOT_APPLICABLE = "not_applicable"


class Fillability(NamedTuple):
    kind: str
    stein_lower: int | None = None
    non_stein_lower: int | None = None
    all_strong: bool | None = None
    note: str | None = None


class ClassificationResult(NamedTuple):
    manifold: SeifertData
    status: str
    count: int | None
    fillability: Fillability
    certificate: dict[str, Any]


# The regimes where no count is known, each with the reason a report gives.
_UNKNOWN_REASONS = {
    sf.WRONG_E0: "only the twisted Euler number -2 is handled",
    sf.DEGENERATE_SUM_2: "higher genus periodic surface bundle; no counting technique applies",
    sf.GAP_OTHER: "invariant sum in the open gap (2, 9/4) outside the known families",
}
# The regimes whose count is the product of the T values of the three legs.
_PRODUCT_KINDS = (sf.K_OVER_K1, sf.SUM_GE_9_4, sf.SUM_LT_2)


# A leg's solid-torus shortcut in a product certificate: its convergents
# (p, q, u, v), its expansion and its count T.
Shortcut = NamedTuple("Shortcut", [("conv", Convergents), ("entries", Expansion), ("count", int)])


def _fiber_certificate(sd: SeifertData, case: str) -> dict[str, Any]:
    """The certificate of a product regime: its case, the per-fiber counts and
    the solid-torus shortcut of each leg.

    Each leg's expansion is the runs stored in sd at parse: its entry count
    is checked against MAX_EXPANSION, since the certificate prints every
    entry, and its T is taken once, from the run heads.  The boundary slope
    selftest.ncf_eval(reverse_shift(leg).entries()) equals (p - q)/(v - u)
    from the convergents stored in sd, and its solid-torus count is T:
    reverse_shift keeps the shifted factors a_k + 1, and the head a_0 + 1
    becomes the unshifted last factor (checked by
    selftest.check_contfrac_identities).
    """
    t_values = []
    shortcut = []
    for conv, leg in zip(sd.conv, sd.legs):
        capped_count(leg)
        t = shifted_product(leg)
        t_values.append(t)
        shortcut.append(Shortcut(conv, leg, t))
    return {"case": case, "t_values": t_values, "shortcut": shortcut}


def classify(sd: SeifertData) -> ClassificationResult:
    family = sf.detect_family(sd)
    if family.kind == sf.TORUS_BUNDLE:
        note = ("infinitely many tight structures distinguished by torsion; the torsion-zero "
                "one is Stein fillable, all others are not strongly fillable")
        return ClassificationResult(
            sd, INFINITE, None,
            Fillability(TORSION, stein_lower=1, note=note),
            {"case": family.kind, "triple": sd.r},
        )
    if family.kind == sf.SPHERE_FAMILY:
        n = family.n
        data: dict[str, Any] = {"case": family.kind, "n": n, "per_k": max_twist_table(sd, n)}
        if n == 1:  # also (1/2, 2/3, k/(k+1)) at k = 6, where the one structure is Stein
            data["also_k_over_k_plus_1"] = 6
        kind = ALL_STEIN if n == 1 else MIXED
        fill = Fillability(kind, stein_lower=n, non_stein_lower=n // 2, all_strong=True)
        # the count is the sum of the rows n-k, k < n, that max_twist_table proves
        return ClassificationResult(sd, EXACT, n * (n + 1) // 2, fill, data)
    if family.kind in _PRODUCT_KINDS:
        data = _fiber_certificate(sd, family.kind)
        count = prod(data["t_values"])
        if family.kind == sf.K_OVER_K1:
            data["k"] = family.k
            if count != 1:
                raise ArithmeticError(f"product of T values is {count}, not 1 on (1/2, 2/3, k/(k+1))")
        else:
            coeffs = slope_coeffs(sd)
            data["coeffs"] = coeffs
            data["limit"] = v3_slope_limit(sd, coeffs)
            q1, q2, v1 = sd.conv[0].q, sd.conv[1].q, sd.conv[0].v
            n1 = -q2 - 1
            lhs = abs(q1 * n1 + v1)
            data["imbalance"] = {"n1": n1, "lhs": lhs, "rhs": q1 * q2, "ok": lhs > q1 * q2}
        fill = Fillability(ALL_STEIN, stein_lower=count, non_stein_lower=0, all_strong=True)
        return ClassificationResult(sd, EXACT, count, fill, data)
    data = {"case": family.kind, "reason": _UNKNOWN_REASONS[family.kind]}
    if family.kind == sf.GAP_OTHER:
        data["sum"] = sd.invariant_sum
    return ClassificationResult(sd, UNKNOWN, None, Fillability(NOT_APPLICABLE), data)
