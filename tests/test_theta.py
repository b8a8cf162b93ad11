import json
import random
from collections import Counter
from fractions import Fraction

import pytest

import tightsf.theta as theta_module
from tightsf import cli
from tightsf.seifert import linking_matrix, parse_manifold
from tightsf.theta import SurgeryDiagram, c1_squared, signature, theta

E8 = (
    (-2, 1, 1, 1, 0, 0, 0, 0),
    (1, -2, 0, 0, 0, 0, 0, 0),
    (1, 0, -2, 0, 1, 0, 0, 0),
    (1, 0, 0, -2, 0, 1, 0, 0),
    (0, 0, 1, 0, -2, 0, 0, 0),
    (0, 0, 0, 1, 0, -2, 1, 0),
    (0, 0, 0, 0, 0, 1, -2, 1),
    (0, 0, 0, 0, 0, 0, 1, -2),
)


def test_signature_examples():
    assert signature(()) == 0
    assert signature(((-1,),)) == -1
    assert signature(E8) == -8
    assert signature(((0, 1), (1, 0))) == 0


def test_e8_is_the_245_plumbing():
    # the linking matrix of M(-2; 1/2, 2/3, 4/5) is the same star-shaped tree
    m = linking_matrix(parse_manifold("-2;1/2,2/3,4/5"))
    assert signature(m) == -8
    assert theta(SurgeryDiagram.from_lists(m, [0] * 8)) == 6


def test_c1_squared_examples():
    assert c1_squared(SurgeryDiagram((), ())) == 0
    assert c1_squared(SurgeryDiagram(((-2,),), (2,))) == -2
    assert c1_squared(SurgeryDiagram.from_lists(E8, [0] * 8)) == 0


def test_c1_not_liftable():
    with pytest.raises(ValueError):
        c1_squared(SurgeryDiagram(((0,),), (1,)))


def test_theta_examples():
    assert theta(SurgeryDiagram((), ())) == -2
    assert theta(SurgeryDiagram.from_lists(E8, [0] * 8)) == 6
    assert theta(SurgeryDiagram(((-2,),), (0,))) == -1


def _random_symmetric(rng, m, bound=4):
    a = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            a[i][j] = a[j][i] = rng.randint(-bound, bound)
    return tuple(tuple(row) for row in a)


def _random_unimodular(rng, m):
    # product of random elementary shears and transpositions
    p = [[int(i == j) for j in range(m)] for i in range(m)]
    for _ in range(3 * m):
        i, j = rng.randrange(m), rng.randrange(m)
        if i == j:
            continue
        if rng.random() < 0.5:
            k = rng.randint(-2, 2)
            for col in range(m):
                p[i][col] += k * p[j][col]
        else:
            p[i], p[j] = p[j], p[i]
    return p


def test_signature_congruence_invariance():
    rng = random.Random(17)
    for _ in range(100):
        m = rng.randint(1, 6)
        a = _random_symmetric(rng, m)
        p = _random_unimodular(rng, m)
        conj = [
            [sum(p[k][i] * a[k][l] * p[l][j] for k in range(m) for l in range(m))
             for j in range(m)]
            for i in range(m)
        ]
        assert signature(conj) == signature(a)


def test_theta_block_additivity():
    rng = random.Random(23)
    for _ in range(50):
        m1, m2 = rng.randint(1, 4), rng.randint(1, 4)
        a = _random_symmetric(rng, m1)
        b = _random_symmetric(rng, m2)
        rot_a = [2 * rng.randint(-2, 2) for _ in range(m1)]
        rot_b = [2 * rng.randint(-2, 2) for _ in range(m2)]
        try:
            ta = theta(SurgeryDiagram.from_lists(a, rot_a))
            tb = theta(SurgeryDiagram.from_lists(b, rot_b))
        except ValueError:
            continue  # rot outside the span, no filling to compare
        block = [list(row) + [0] * m2 for row in a] + [[0] * m1 + list(row) for row in b]
        t_both = theta(SurgeryDiagram.from_lists(block, rot_a + rot_b))
        assert t_both == ta + tb + 2


def test_c1_squared_solution_independent():
    # singular but consistent: value must not depend on the solver's choices
    rng = random.Random(31)
    for _ in range(60):
        m = rng.randint(2, 5)
        base = _random_symmetric(rng, m - 1)
        # duplicate the last row/column to force a 1-dimensional kernel
        a = [list(row) + [row[-1]] for row in base]
        a.append(list(a[-1]))
        a = tuple(tuple(row) for row in a)
        x = [rng.randint(-3, 3) for _ in range(m)]
        rot = [sum(a[i][j] * x[j] for j in range(m)) for i in range(m)]
        direct = sum(rot[i] * x[i] for i in range(m))
        assert c1_squared(SurgeryDiagram.from_lists(a, rot)) == Fraction(direct)


def test_diagram_validation():
    with pytest.raises(ValueError):
        SurgeryDiagram(((0, 1), (2, 0)), (0, 0))
    with pytest.raises(ValueError):
        SurgeryDiagram(((0,),), (0, 0))


# ---------------------------------------------------------------- dense oracles
# Dense Gauss-Jordan references for the sparse congruence elimination in
# tightsf.theta: they share no code with it and fill in freely.


def dense_signature(linking) -> int:
    """Signature by dense congruence reduction over Fraction."""
    a = [[Fraction(x) for x in row] for row in linking]
    m = len(a)
    sig = 0
    k = 0
    while k < m:
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, m) if a[i][i] != 0), None)
            if pivot is not None:
                a[k], a[pivot] = a[pivot], a[k]
                for row in a:
                    row[k], row[pivot] = row[pivot], row[k]
            else:
                off = next(
                    ((i, j) for i in range(k, m) for j in range(i + 1, m) if a[i][j] != 0),
                    None,
                )
                if off is None:
                    break
                i, j = off
                for col in range(m):
                    a[i][col] += a[j][col]
                for row in a:
                    row[i] += row[j]
                continue
        piv = a[k][k]
        sig += 1 if piv > 0 else -1
        for i in range(k + 1, m):
            f = a[i][k] / piv
            if f:
                for j in range(k, m):
                    a[i][j] -= f * a[k][j]
        for j in range(k + 1, m):
            a[k][j] = Fraction(0)
            a[j][k] = Fraction(0)
        k += 1
    return sig


def dense_solve(linking, rhs) -> list[Fraction]:
    """One rational solution of L x = rhs by Gauss-Jordan; raises outside the span."""
    m = len(linking)
    aug = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(linking)]
    pivots = []
    row = 0
    for col in range(m):
        pivot = next((r for r in range(row, m) if aug[r][col] != 0), None)
        if pivot is None:
            continue
        aug[row], aug[pivot] = aug[pivot], aug[row]
        pv = aug[row][col]
        aug[row] = [x / pv for x in aug[row]]
        for r in range(m):
            if r != row and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
    for r in range(row, m):
        if aug[r][m] != 0:
            raise ValueError("c1 not liftable")
    x = [Fraction(0)] * m
    for r, col in enumerate(pivots):
        x[col] = aug[r][m]
    return x


def dense_c1_squared(linking, rot) -> Fraction:
    return sum((Fraction(r) * xi for r, xi in zip(rot, dense_solve(linking, rot))), Fraction(0))


def _c1_or_none(c1, linking, rot):
    try:
        return c1(linking, rot)
    except ValueError as exc:
        assert str(exc) == "c1 not liftable"
        return None


def _sparse_c1_squared(linking, rot):
    return c1_squared(SurgeryDiagram.from_lists(linking, rot))


def assert_matches_dense(linking, rot):
    assert signature(linking) == dense_signature(linking)
    assert _c1_or_none(_sparse_c1_squared, linking, rot) == _c1_or_none(dense_c1_squared, linking, rot)


def _awkward_symmetric(rng, m):
    """Random symmetric matrix, often with a kernel, a zero diagonal or a zero block."""
    a = [list(row) for row in _random_symmetric(rng, m, rng.choice((1, 2, 4)))]
    shape = rng.randrange(5)
    if shape == 1:  # zero diagonal: only the row/column addition finds a pivot
        for i in range(m):
            a[i][i] = 0
    elif shape == 2 and m >= 2:  # an all-zero diagonal block
        k = rng.randint(2, m)
        for i in range(k):
            for j in range(k):
                a[i][j] = 0
    elif shape == 3 and m >= 2:  # a repeated row and column: a forced kernel
        i, j = rng.sample(range(m), 2)
        a[j] = list(a[i])
        for row in a:
            row[j] = row[i]
    elif shape == 4:  # a sprinkled zero diagonal with an isolated zero vertex
        for i in range(m):
            if rng.random() < 0.5:
                a[i][i] = 0
        k = rng.randrange(m)
        for j in range(m):
            a[k][j] = a[j][k] = 0
    return a


def test_congruence_matches_dense_on_random_matrices():
    rng = random.Random(41)
    not_liftable = 0
    for _ in range(1000):
        m = rng.randint(1, 7)
        a = _awkward_symmetric(rng, m)
        if rng.random() < 0.5:
            rot = [rng.randint(-3, 3) for _ in range(m)]  # often outside the span
        else:
            x = [rng.randint(-2, 2) for _ in range(m)]
            rot = [sum(a[i][j] * x[j] for j in range(m)) for i in range(m)]
        not_liftable += _c1_or_none(dense_c1_squared, a, rot) is None
        assert_matches_dense(a, rot)
    assert not_liftable > 150


def _star_plumbing(manifold, rot_shift=2):
    matrix = linking_matrix(parse_manifold(manifold))
    return matrix, [matrix[i][i] + rot_shift for i in range(len(matrix))]


def _sweep_q12():
    fracs = sorted({Fraction(p, q) for q in range(2, 13) for p in range(1, q)})
    return [(a, b, c) for i, a in enumerate(fracs) for j, b in enumerate(fracs[i:], i)
            for c in fracs[j:]]


def test_congruence_matches_dense_on_sweep_sample():
    # a fixed sample of the 16,215 star plumbings with q_i <= 12, largest included
    triples = _sweep_q12()
    assert len(triples) == 16215
    sample = random.Random(43).sample(triples, 40) + triples[-3:]
    for i, t in enumerate(sample):
        manifold = "-2;" + ",".join(f"{r.numerator}/{r.denominator}" for r in t)
        assert_matches_dense(*_star_plumbing(manifold, 2 if i % 2 else 0))


def test_congruence_matches_dense_on_large_plumbings():
    rng = random.Random(47)
    for manifold, relabel in (("-2;19/20,19/20,19/20", False), ("-2;7/9,13/14,24/25", False),
                              ("-2;1/2,2/3,40/41", True)):
        matrix, rot = _star_plumbing(manifold)
        assert 33 <= len(matrix) <= 60
        if relabel:
            # pivots are no longer leaves, so entries fill in
            perm = list(range(len(matrix)))
            rng.shuffle(perm)
            matrix = [[matrix[i][j] for j in perm] for i in perm]
            rot = [rot[i] for i in perm]
        assert_matches_dense(matrix, rot)


def test_congruence_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(53)
    inverted = pivoted = 0
    while inverted < 25 or pivoted < 25:
        m = rng.randint(1, 6)
        a = _random_symmetric(rng, m)
        rot = [rng.randint(-4, 4) for _ in range(m)]
        mat = sympy.Matrix(a)
        if mat.det() != 0:
            v = sympy.Matrix(rot)
            want = (v.T * mat.inv() * v)[0, 0]
            assert c1_squared(SurgeryDiagram.from_lists(a, rot)) == Fraction(int(want.p), int(want.q))
            inverted += 1
        _, d = mat.LDLdecomposition(hermitian=False)
        pivots = [d[i, i] for i in range(m)]
        if all(p.is_finite and p != 0 for p in pivots):
            assert signature(a) == sum(1 if p > 0 else -1 for p in pivots)
            pivoted += 1


def test_signature_rejects_asymmetric_matrix():
    with pytest.raises(ValueError):
        signature(((0, 1), (2, 0)))
    with pytest.raises(ValueError):
        signature(((0, 1),))


def test_from_lists_rejects_malformed_input():
    for linking, rot in ((5, [1]), ([[1.5]], [0]), ([["1"]], [0]), ([[-2]], 0), ([[-2]], [True]),
                         ([5], [1]), (None, [])):
        with pytest.raises(ValueError):
            SurgeryDiagram.from_lists(linking, rot)


# ------------------------------------------------------------- computed once


@pytest.fixture
def counted(monkeypatch):
    """Counts eliminations and square/symmetric checks from here on."""
    calls = Counter()
    eliminate, check = theta_module.congruence, SurgeryDiagram.__post_init__

    def counted_congruence(diagram):
        calls["elimination"] += 1
        return eliminate(diagram)

    def counted_check(self):
        calls["check"] += 1
        check(self)

    monkeypatch.setattr(theta_module, "congruence", counted_congruence)
    monkeypatch.setattr(SurgeryDiagram, "__post_init__", counted_check)
    return calls


def test_each_call_eliminates_once_and_checks_once(counted):
    m = linking_matrix(parse_manifold("-2;1/2,2/3,40/41"))
    diagram = SurgeryDiagram.from_lists(m, [m[i][i] + 2 for i in range(len(m))])
    assert (counted["elimination"], counted["check"]) == (0, 1)
    for fn, arg, checks in ((theta, diagram, 0), (c1_squared, diagram, 0), (signature, m, 1)):
        counted.clear()
        fn(arg)
        assert (counted["elimination"], counted["check"]) == (1, checks)


def test_theta_cli_eliminates_once_and_checks_once(counted, tmp_path, capsys):
    path = tmp_path / "e8.json"
    path.write_text(json.dumps({"L": E8, "rot": [2] * 8}))
    assert cli.main(["theta", "--diagram", str(path), "--json"]) == 0
    assert (counted["elimination"], counted["check"]) == (1, 1)
    result = json.loads(capsys.readouterr().out)["result"]
    c1sq = dense_c1_squared(E8, [2] * 8)
    assert result["c1sq"] == {"num": c1sq.numerator, "den": c1sq.denominator}
    assert (result["sigma"], result["chi"]) == (-8, 9)
