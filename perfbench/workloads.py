"""Inputs, rounds and independent oracles of the four benchmark workloads.

This module never imports tightsf: the parent process builds inputs and checks
outputs with it, and only the worker processes load the library.

Every workload is a list of passes.  A pass is a list of rounds and a round is a
list of items ``(item_id, kind, args)``.  Within one pass no item repeats, and a
worker process runs at most one pass, so no timed input is processed twice in
one process.  The seed fixes the order of each pass; the set of items each
workload draws from is fixed, so that every JSON report has a digest recorded
from the reference program in ``expected/``.
"""
from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path
from time import perf_counter_ns

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected"

WORKLOADS = ("sweep_q12", "deep_legs", "sphere_family", "cli_cold")

# Highest tail percentile with at least ten samples beyond it in a 30-second
# run of the reference program, fixed per workload so that the tail metric
# means the same thing on every run.  Two exceptions.  sweep_q12 uses p99 and
# not p99.9: a burst of host contention shorter than a round slows a few dozen
# of its 0.4 ms ops, and that moved p99.9 by up to 2.4x between runs.
# sphere_family uses p95 and not p98: above p95 sit a few ops of any n slowed
# by pauses (46 ms at n = 694 beside 39 ms at n = 790), and p98 spread by 10%.
TAIL_PERCENTILE = {"sweep_q12": 99.0, "deep_legs": 98.0, "sphere_family": 95.0, "cli_cold": 90.0}

SWEEP_ROUND = 345  # 16215 = 47 rounds of 345
THETA_MAX_VERTICES = 32  # theta cost grows about cubically: ~2 s at 103 vertices
FLOER_MAX_N = 30
BYPASSES_PER_OP = 4
SPHERE_MAX_N = 800
SPHERE_BLOCKS = 10
DEEP_POOL = 48
CLI_POOL = 24


# Layers timed by the traced run, named module.function after src/tightsf.
STAGES = (
    "seifert.parse_manifold", "seifert.detect_family", "seifert.linking_matrix",
    "contfrac.expand", "contfrac.convergents", "contfrac.tight_count", "contfrac.solid_torus_count",
    "convex.slope_coeffs", "convex.v3_slope_limit", "convex.max_twist_table",
    "floer.index_set", "floer.expansion", "floer.laurent_image", "floer.stein_obstructed",
    "floer.pairwise_distinct", "farey.bypass_attach", "farey.bypass_oracle",
    "classify.classify", "report.classification_json", "report.report",
    "theta.theta", "theta.signature", "theta.c1_squared", "cli.main",
)


# The calibration job's time on an idle 2-vCPU Intel Xeon virtual machine with Python
# 3.11, timed in the parent process (run.py), which never imports tightsf.
# Timings are scaled by CAL_REF_NS / (calibration time around them).
CAL_REF_NS = 7_000_000
_CAL_LEGS = [Fraction(p, q) for q in range(2, 40) for p in range(1, q, 2)]


def calibration_ns() -> int:
    """Time of a fixed pure-Python job shaped like the library's work.

    Exact rationals, small dicts and JSON text, without tightsf; its time
    moves only with the speed of the machine at that moment.
    """
    start = perf_counter_ns()
    acc, docs = Fraction(0), []
    for r in _CAL_LEGS:
        acc += r * r - Fraction(1, 3)
        length, t = hj_profile(1 - r / 2)
        docs.append({"r": {"num": r.numerator, "den": r.denominator}, "len": length, "t": t, "acc": str(acc)})
    json.dumps(docs, indent=2)
    return perf_counter_ns() - start


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def frac_text(r: Fraction) -> str:
    return f"{r.numerator}/{r.denominator}"


def manifold_text(legs) -> str:
    return "-2;" + ",".join(frac_text(r) for r in legs)


def leg_fractions(lo: int, hi: int) -> list[Fraction]:
    """Reduced p/q in (0, 1) with lo <= q <= hi, ascending."""
    return sorted({Fraction(p, q) for q in range(lo, hi + 1) for p in range(1, q) if Fraction(p, q).denominator == q})


def sorted_triples(fracs) -> list[tuple[Fraction, Fraction, Fraction]]:
    return [(a, b, c) for i, a in enumerate(fracs) for j, b in enumerate(fracs[i:], i) for c in fracs[j:]]


# ---------------------------------------------------------------- oracles


def hj_profile(r: Fraction) -> tuple[int, int]:
    """(length, T) of the Hirzebruch-Jung expansion q/p = b1 - 1/(b2 - ...).

    T = prod (b_i - 1) is the per-fiber count; runs of b = 2 contribute 1 and
    are skipped in one step, so near-1 legs cost O(number of runs).
    """
    n, d = r.denominator, r.numerator
    length, t = 0, 1
    while d:
        e = n - d
        if 0 < e <= d:  # a run of d // e entries equal to 2
            run = d // e
            length += run
            n, d = d - (run - 1) * e, d - run * e
            continue
        b = -(-n // d)
        length += 1
        t *= b - 1
        n, d = d, b * d - n
    return length, t


TORUS_TRIPLES = {
    (Fraction(1, 2), Fraction(3, 4), Fraction(3, 4)),
    (Fraction(1, 2), Fraction(2, 3), Fraction(5, 6)),
    (Fraction(2, 3), Fraction(2, 3), Fraction(2, 3)),
}


def expected_count(legs) -> tuple[str, int | None]:
    """(status, count) from the paper's dispatch rules, independent of tightsf."""
    r = tuple(sorted(legs))
    if r in TORUS_TRIPLES:
        return "infinite", None
    if r[0] == Fraction(1, 2) and r[1] == Fraction(2, 3):
        p, q = r[2].numerator, r[2].denominator
        if q % 6 == 1 and q >= 7 and p == 5 * (q // 6) + 1:
            n = q // 6
            return "exact", n * (n + 1) // 2
        if q == p + 1 and p >= 6:
            return "exact", 1
    total = sum(r)
    if total < 2 or total >= Fraction(9, 4):
        count = 1
        for x in r:
            count *= hj_profile(x)[1]
        return "exact", count
    return "unknown", None


def check_classify_doc(doc: dict, legs) -> str | None:
    """Failure reason, or None when the report agrees with the oracle."""
    status, count = expected_count(legs)
    res = doc["result"]
    if res["status"] != status or res.get("count") != count:
        return f"oracle {status}/{count} but report {res['status']}/{res.get('count')}"
    case = res["certificate"]["case"]
    if case == "sphere_family":
        n = res["certificate"]["n"]
        fill = res["fillability"]
        if n >= 2 and (fill["stein_lower"] != n or fill["non_stein_lower"] != n // 2):
            return "sphere family fillability bounds differ from n and floor(n/2)"
        if len(res["certificate"]["per_k"]) != n:
            return "sphere family table does not have n rows"
    return None


# ---------------------------------------------------------------- sweep_q12


def sweep_triples():
    return sorted_triples(leg_fractions(2, 12))


def sweep_rounds(seed: int, pass_index: int):
    triples = sweep_triples()
    order = list(range(len(triples)))
    random.Random(f"sweep:{seed}:{pass_index}").shuffle(order)
    items = [(str(i), "classify", (manifold_text(triples[i]),)) for i in order]
    return [items[k:k + SWEEP_ROUND] for k in range(0, len(items), SWEEP_ROUND)]


def sweep_warmup(seed: int):
    # every leg has q in 13..20, so neither triples nor legs meet the timed set
    triples = sorted_triples(leg_fractions(13, 20))
    rng = random.Random(f"sweep-warm:{seed}")
    return [("warm", "classify", (manifold_text(t),)) for t in rng.sample(triples, 300)]


# ---------------------------------------------------------------- deep_legs


def _fib(k: int) -> int:
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def _rand_leg(rng: random.Random, bits: int) -> Fraction:
    # A uniform numerator is sometimes within 2**-20 of q, and its expansion
    # then has millions of entries; such legs are redrawn so the cost of a
    # stratum stays steady.  The near1 strata measure long expansions on purpose.
    while True:
        q = rng.getrandbits(bits) | (1 << (bits - 1))
        r = Fraction(rng.randrange(1, q), q)
        if hj_profile(r)[0] <= 6 * bits:
            return r


def _small_leg(rng: random.Random, lo: float, hi: float) -> Fraction:
    while True:
        q = rng.getrandbits(20) | (1 << 19)
        r = Fraction(rng.randrange(int(q * lo), int(q * hi)), q)
        if hj_profile(r)[0] <= 60:
            return r


def _deep_near1(k: int):
    step = max(2, 10 ** k // 240)  # distinct q per pool index, q in [10^k, 1.2 * 10^k)

    def make(rng: random.Random, index: int):
        q = 10 ** k + step * index
        return (_small_leg(rng, 0.1, 0.4), _small_leg(rng, 0.1, 0.4), Fraction(q - 1, q))
    return make


def _deep_random(bits: int):
    def make(rng: random.Random, index: int):
        return tuple(_rand_leg(rng, bits) for _ in range(3))
    return make


def _deep_fib(lo: int, step: int):
    # k values at least 3 apart, so no two ops share a Fibonacci leg
    def make(rng: random.Random, index: int):
        k = lo + step * index
        return (Fraction(_fib(k - 1), _fib(k)), Fraction(_fib(k - 2), _fib(k)), Fraction(_fib(k), _fib(k + 2)))
    return make


def _deep_theta(rng: random.Random, index: int = 0):
    # short legs, so the plumbing stays within THETA_MAX_VERTICES
    while True:
        legs = (_small_leg(rng, 0.15, 0.45), _small_leg(rng, 0.15, 0.45), _small_leg(rng, 0.5, 0.9))
        if plumbing_vertices(legs) <= THETA_MAX_VERTICES:
            return legs


DEEP_STRATA = {
    "near1_e2": _deep_near1(2),
    "near1_e3": _deep_near1(3),
    "near1_e4": _deep_near1(4),
    "near1_e5": _deep_near1(5),
    "rand_64": _deep_random(64),
    "rand_128": _deep_random(128),
    "rand_256": _deep_random(256),
    "rand_512": _deep_random(512),
    "rand_1024": _deep_random(1024),
    "fib_short": _deep_fib(60, 3),
    "fib_mid": _deep_fib(400, 9),
    "fib_long": _deep_fib(1200, 9),
    "theta_small": _deep_theta,
}


def plumbing_vertices(legs) -> int:
    return 1 + sum(hj_profile(r)[0] for r in legs)


def deep_item(item_id: str):
    stratum, index = item_id.rsplit(":", 1)
    legs = DEEP_STRATA[stratum](random.Random(f"deep:{stratum}:{index}"), int(index))
    return (item_id, "deep", (manifold_text(legs), plumbing_vertices(legs) <= THETA_MAX_VERTICES))


def deep_pool_ids():
    return [f"{s}:{i}" for s in DEEP_STRATA for i in range(DEEP_POOL)]


def deep_rounds(seed: int, pass_index: int):
    perms = {}
    for s in DEEP_STRATA:
        perms[s] = list(range(DEEP_POOL))
        random.Random(f"deep:{seed}:{pass_index}:{s}").shuffle(perms[s])
    rounds = []
    for j in range(DEEP_POOL):
        rnd = [deep_item(f"{s}:{perms[s][j]}") for s in DEEP_STRATA]
        random.Random(f"deep-order:{seed}:{pass_index}:{j}").shuffle(rnd)
        rounds.append(rnd)
    return rounds


def deep_warmup(seed: int):
    rng = random.Random(f"deep-warm:{seed}")
    out = []
    for legs in (
        (_small_leg(rng, 0.1, 0.4), _small_leg(rng, 0.1, 0.4), Fraction(499, 500)),
        tuple(_rand_leg(rng, 96) for _ in range(3)),
        (Fraction(_fib(39), _fib(40)), Fraction(_fib(38), _fib(40)), Fraction(_fib(40), _fib(42))),
    ):
        out.append(("warm", "deep", (manifold_text(legs), plumbing_vertices(legs) <= THETA_MAX_VERTICES)))
    legs = _deep_theta(rng)
    out.append(("warm", "deep", (manifold_text(legs), plumbing_vertices(legs) <= THETA_MAX_VERTICES)))
    return out


# ---------------------------------------------------------------- sphere_family


def sphere_legs(n: int):
    return (Fraction(1, 2), Fraction(2, 3), Fraction(5 * n + 1, 6 * n + 1))


def _bypasses(rng: random.Random, n: int):
    """Seeded bypass cases on the family's slopes: rounded -k/(6k+1), boundary -n+k."""
    out = []
    for _ in range(BYPASSES_PER_OP):
        k = rng.randrange(min(n, FLOER_MAX_N))
        dividing = (-k, 6 * k + 1) if rng.random() < 0.5 else (-n + k, 1)
        while True:
            q = rng.randrange(1, 31)
            ruling = (rng.randrange(-3 * q, 3 * q + 1), q)
            if Fraction(*ruling) != Fraction(*dividing):
                break
        out.append((dividing, ruling, "front" if rng.random() < 0.5 else "back"))
    return tuple(out)


def sphere_rounds(seed: int, pass_index: int):
    """A round holds one n <= FLOER_MAX_N (the ops with a floer table) and one
    n from each of SPHERE_BLOCKS blocks of the rest, so rounds cost alike."""
    small = list(range(1, FLOER_MAX_N + 1))
    random.Random(f"sphere:{seed}:{pass_index}:small").shuffle(small)
    size = -(-(SPHERE_MAX_N - FLOER_MAX_N) // SPHERE_BLOCKS)
    blocks = []
    for start in range(FLOER_MAX_N + 1, SPHERE_MAX_N + 1, size):
        b = list(range(start, min(start + size, SPHERE_MAX_N + 1)))
        random.Random(f"sphere:{seed}:{pass_index}:{start}").shuffle(b)
        blocks.append(b)
    rng = random.Random(f"sphere-bypass:{seed}:{pass_index}")
    return [[(str(n), "sphere", (n, _bypasses(rng, n))) for n in [small[j]] + [b[j] for b in blocks]]
            for j in range(len(small))]


def sphere_warmup(seed: int):
    rng = random.Random(f"sphere-warm:{seed}")
    items = [("warm", "sphere", (n, _bypasses(rng, n))) for n in (801, 802, 803)]
    items.append(("warm", "floer", (FLOER_MAX_N + 1,)))
    return items


# ---------------------------------------------------------------- cli_cold

# Malformed inputs.  The contract for each is exit 1 with a one-line error and
# no output.  The ones marked as seed defects break that contract in the
# reference program; they stay in the mix and count as failed ops.
MALFORMED = {
    "bad:two_legs": (("classify", "-2;1/2,2/3", "--json"), None),
    "bad:cf_text": (("cf", "abc", "--json"), None),
    "bad:cf_range": (("cf", "-1/2", "--json"), None),
    "bad:integral_leg": (("seifert", "1/2,1/3,2", "--json"), None),
    "bad:same_slopes": (("bypass", "--dividing", "1/2", "--ruling", "1/2", "--json"), None),
    "bad:floer_index": (("floer", "--n", "3", "--index", "0", "--json"), None),
    "bad:zero_den": (("classify", "-2;1/0,1/2,1/3", "--json"), "ZeroDivisionError traceback instead of a one-line error"),
    "bad:floer_n0": (("floer", "--n", "0", "--json"), "exit 0 with an empty table for n = 0"),
    "bad:floer_neg": (("floer", "--n", "-3", "--json"), "exit 0 with an empty table for n = -3"),
    "bad:theta_shape": (("theta", "--diagram", "{work}/bad_shape.json", "--json"), "TypeError traceback on a non-list matrix"),
}
KNOWN_SEED_DEFECTS = {k: why for k, (_, why) in MALFORMED.items() if why}

CLI_TEMPLATE = (
    "classify_lt2", "classify_lt2", "classify_ge94", "classify_gap", "classify_degenerate",
    "classify_sphere", "classify_special", "cf", "cf", "seifert", "seifert", "slopes",
    "bypass", "floer", "theta", "bad",
)


def cli_pools():
    """{kind: [(item_id, argv, legs)]}; argv may hold '{work}' for the work directory.

    legs are the manifold's invariants (for theta, of its plumbing diagram),
    or None for commands that take no manifold.
    """
    rng = random.Random("cli-pool")
    triples = sweep_triples()
    by_case = {"lt2": [], "ge94": [], "gap": [], "degenerate": []}
    for t in triples:
        s = sum(t)
        key = "lt2" if s < 2 else "ge94" if s >= Fraction(9, 4) else "degenerate" if s == 2 else "gap"
        if expected_count(t)[0] == ("unknown" if key in ("gap", "degenerate") else "exact"):
            by_case[key].append(t)
    pools = {}
    for key, cands in by_case.items():
        chosen = rng.sample(cands, CLI_POOL)
        pools[f"classify_{key}"] = [
            (f"classify_{key}:{i}", ("classify", manifold_text(t), "--json"), t) for i, t in enumerate(chosen)
        ]
    ns = rng.sample(range(2, 200), CLI_POOL)
    pools["classify_sphere"] = [
        (f"classify_sphere:{i}", ("classify", manifold_text(sphere_legs(n)), "--json"), sphere_legs(n))
        for i, n in enumerate(ns)
    ]
    special = sorted(TORUS_TRIPLES) + [sphere_legs(1)] + [
        (Fraction(1, 2), Fraction(2, 3), Fraction(k, k + 1)) for k in range(7, 7 + CLI_POOL - 4)
    ]
    pools["classify_special"] = [
        (f"classify_special:{i}", ("classify", manifold_text(t), "--json"), t) for i, t in enumerate(special)
    ]
    cf = []
    while len(cf) < CLI_POOL:
        q = rng.randrange(3, 10 ** 6)
        x = Fraction(-q, rng.randrange(1, q))
        if x < -1 and x.denominator > 1 and frac_text(x) not in {a[1] for _, a, _ in cf}:
            cf.append((f"cf:{len(cf)}", ("cf", frac_text(x), "--json"), None))
    pools["cf"] = cf
    picks = rng.sample(triples, CLI_POOL)
    pools["seifert"] = [(f"seifert:{i}", ("seifert", manifold_text(t), "--json"), t) for i, t in enumerate(picks)]
    picks = rng.sample([t for t in triples if sum(t) < 2], CLI_POOL)
    pools["slopes"] = [
        (f"slopes:{i}", ("slopes", manifold_text(t), "--n1", str(-rng.randrange(2, 50)), "--json"), t)
        for i, t in enumerate(picks)
    ]
    byp = []
    for i in range(CLI_POOL):
        d = Fraction(rng.randrange(-40, 40), rng.randrange(1, 20))
        while True:
            r = Fraction(rng.randrange(-40, 40), rng.randrange(1, 20))
            if r != d:
                break
        side = rng.choice(("front", "back"))
        byp.append((f"bypass:{i}", ("bypass", "--dividing", frac_text(d), "--ruling", frac_text(r),
                                    "--side", side, "--oracle", "--json"), None))
    pools["bypass"] = byp
    pools["floer"] = [(f"floer:{i}", ("floer", "--n", str(1 + i % 10), "--json"), None) for i in range(CLI_POOL)]
    thetas = []
    small = [t for t in triples if plumbing_vertices(t) <= 12]
    for i, t in enumerate(rng.sample(small, CLI_POOL)):
        thetas.append((f"theta:{i}", ("theta", "--diagram", f"{{work}}/theta_{i}.json", "--json"), t))
    pools["theta"] = thetas
    pools["bad"] = [(k, argv, None) for k, (argv, _) in MALFORMED.items()]
    return pools


def star_diagram(legs) -> dict:
    """Star plumbing of M(-2; legs) with rot_i = a_i + 2, computed without tightsf."""
    entries = []
    for r in legs:
        n, d = r.denominator, r.numerator
        leg = []
        while d:
            b = -(-n // d)
            leg.append(-b)
            n, d = d, b * d - n
        entries.append(leg)
    size = 1 + sum(len(x) for x in entries)
    m = [[0] * size for _ in range(size)]
    m[0][0] = -2
    idx = 1
    for leg in entries:
        prev = 0
        for a in leg:
            m[idx][idx] = a
            m[idx][prev] = m[prev][idx] = 1
            prev, idx = idx, idx + 1
    return {"L": m, "rot": [m[i][i] + 2 for i in range(size)]}


def write_diagrams(work: Path) -> None:
    work.mkdir(parents=True, exist_ok=True)
    for item_id, _, legs in cli_pools()["theta"]:
        i = item_id.split(":")[1]
        (work / f"theta_{i}.json").write_text(json.dumps(star_diagram(legs)), encoding="utf-8")
    (work / "bad_shape.json").write_text('{"L": 5, "rot": [1]}', encoding="utf-8")


def cli_rounds(seed: int, pass_index: int):
    pools = cli_pools()
    perms = {}
    for kind, pool in pools.items():
        perms[kind] = list(range(len(pool)))
        random.Random(f"cli:{seed}:{pass_index}:{kind}").shuffle(perms[kind])
    used = {kind: 0 for kind in pools}
    rounds = []
    while True:
        rnd = []
        for kind in CLI_TEMPLATE:
            if used[kind] == len(pools[kind]):
                return rounds
            item_id, argv, legs = pools[kind][perms[kind][used[kind]]]
            used[kind] += 1
            rnd.append((item_id, "cli", (argv, legs)))
        random.Random(f"cli-order:{seed}:{pass_index}:{len(rounds)}").shuffle(rnd)
        rounds.append(rnd)


def cli_warmup(seed: int):
    legs = sorted_triples(leg_fractions(13, 15))[seed % 100]
    return [("warm", "cli", (("classify", manifold_text(legs), "--json"), legs)),
            ("warm", "cli", (("cf", "-23/17", "--json"), None))]


ROUNDS = {"sweep_q12": sweep_rounds, "deep_legs": deep_rounds, "sphere_family": sphere_rounds, "cli_cold": cli_rounds}
WARMUP = {"sweep_q12": sweep_warmup, "deep_legs": deep_warmup, "sphere_family": sphere_warmup, "cli_cold": cli_warmup}


def check_cli(item_id: str, code, out: str, err: str, expected: dict) -> str | None:
    """Failure reason for one CLI call, or None; code is the exit code."""
    if item_id in MALFORMED:
        lines = err.splitlines()
        if code != 1 or out or len(lines) != 1 or not lines[0].startswith("error: "):
            return f"malformed input gave exit {code} with {len(lines)} stderr lines"
        return None
    want_code, want_digest = expected[item_id]
    if str(code) != want_code or digest(out) != want_digest:
        return f"exit {code} or stdout differs from the recorded one"
    return None


def load_expected(workload: str) -> dict[str, tuple[str, ...]]:
    """{item_id: recorded fields}; lines are 'item_id field...'."""
    out = {}
    with open(EXPECTED / f"{workload}.txt", encoding="utf-8") as fh:
        for line in fh:
            item_id, *fields = line.split()
            out[item_id] = tuple(fields)
    return out
