"""Acceptance suite: one test per criterion, exact arithmetic, zero tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
"""
import random
from fractions import Fraction

from tightsf.classify import EXACT, INFINITE, classify
from tightsf.contfrac import expand, ncf_eval, reverse_shift, solid_torus_count, tight_count
from tightsf.floer import expansion, grid, index_set, laurent_image, stein_obstructed
from tightsf.seifert import linking_matrix, normalize, parse_manifold, h1_order
from tightsf.selftest import (
    check_bypass_oracle,
    check_closed_form,
    check_contfrac_identities,
    check_max_twist_chain,
)
from tightsf.theta import SurgeryDiagram, signature, theta
from test_floer import laurent_text, product_image
from triples import sorted_triples


def test_criterion_1_sphere_family_counts():
    for n in range(1, 21):
        res = classify(parse_manifold(f"-2;1/2,2/3,{5 * n + 1}/{6 * n + 1}"))
        assert res.status == EXACT
        assert res.count == n * (n + 1) // 2
        assert res.fillability.stein_lower == n
        assert res.fillability.non_stein_lower == n // 2
        assert res.fillability.all_strong
    print("PASS criterion 1: sphere family counts n(n+1)/2 with fillability bounds, n <= 20")


def test_criterion_2_product_counts():
    checked = 0
    for r1, r2, r3 in sorted_triples(12):
        total = r1 + r2 + r3
        if not (total < 2 or total >= Fraction(9, 4)):
            continue
        sd = normalize([r1, r2, r3], -2)
        res = classify(sd)
        assert res.status == EXACT
        product = tight_count(r1) * tight_count(r2) * tight_count(r3)
        assert res.count == product
        shortcut = 1
        for r in sd.r:
            shortcut *= solid_torus_count(ncf_eval(reverse_shift(expand(-1 / r)).entries()))
        assert shortcut == product
        checked += 1
    assert checked > 10000
    print(f"PASS criterion 2: {checked} product-regime triples (q_i <= 12) match both assemblies")


def test_criterion_3_spot_values():
    assert classify(parse_manifold("-2;1/2,2/3,6/7")).count == 1
    assert classify(parse_manifold("-2;1/2,2/3,9/11")).count == 2
    for triple in ("1/2,3/4,3/4", "1/2,2/3,5/6", "2/3,2/3,2/3"):
        assert classify(parse_manifold(f"-2;{triple}")).status == INFINITE
    print("PASS criterion 3: spot values 1, 2 and the three infinite torus bundles")


def test_criterion_4_slope_calculus_consistency():
    print("PASS criterion 4: " + check_closed_form(samples=500, min_n1=-50))


def test_criterion_5_max_twist_machinery():
    print("PASS criterion 5: " + check_max_twist_chain(list(range(1, 301)) + [1000, 5000]))


def test_criterion_6_number_theory_suites():
    print("PASS criterion 6: " + check_contfrac_identities(max_q=200))


def test_criterion_7_bypass_oracle_equivalence():
    print("PASS criterion 7: " + check_bypass_oracle(max_den=30, samples=2000))


def test_criterion_8_contact_class_model():
    for n in range(1, 31):
        for idx in index_set(n):
            image = product_image(idx)
            vec = expansion(idx)
            assert image == {jp: c for jp, c in zip(grid(n), vec.coeffs) if c}
            assert laurent_image(idx) == laurent_text(image)
        assert sum(stein_obstructed(idx) for idx in index_set(n)) == n // 2
    print("PASS criterion 8: Laurent product matches expansions and the laurent_image text (n <= 30), "
          "floor(n/2) obstructed")


def test_criterion_9_theta_calculator():
    assert theta(SurgeryDiagram((), ())) == -2
    e8 = linking_matrix(parse_manifold("-2;1/2,2/3,4/5"))
    assert theta(SurgeryDiagram.from_lists(e8, [0] * 8)) == 6
    rng = random.Random(7)
    for _ in range(100):
        m = rng.randint(1, 6)
        a = [[0] * m for _ in range(m)]
        for i in range(m):
            for j in range(i, m):
                a[i][j] = a[j][i] = rng.randint(-4, 4)
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
        conj = [
            [sum(p[x][i] * a[x][y] * p[y][j] for x in range(m) for y in range(m))
             for j in range(m)]
            for i in range(m)
        ]
        assert signature(conj) == signature(a)
    print("PASS criterion 9: empty diagram -2, E8 value 6, signature congruence invariance x100")


def tree_det(matrix):
    """Exact determinant of a star-shaped matrix by leaf-first elimination."""
    a = [[Fraction(x) for x in row] for row in matrix]
    m = len(a)
    det = Fraction(1)
    for i in range(m - 1, 0, -1):
        parent = next(j for j in range(i) if a[i][j] != 0)
        assert a[i][i] != 0
        a[parent][parent] -= a[i][parent] * a[parent][i] / a[i][i]
        det *= a[i][i]
    return det * a[0][0]


def test_criterion_10_homology():
    for r1, r2, r3 in sorted_triples(12):
        sd = normalize([r1, r2, r3], -2)
        assert h1_order(sd) == abs(tree_det(linking_matrix(sd)))
    for n in range(1, 21):
        assert h1_order(parse_manifold(f"-2;1/2,2/3,{5 * n + 1}/{6 * n + 1}")) == 1
    for triple in ("1/2,3/4,3/4", "1/2,2/3,5/6", "2/3,2/3,2/3", "2/5,4/5,4/5"):
        assert h1_order(parse_manifold(f"-2;{triple}")) == 0
    print("PASS criterion 10: |H_1| = |det| for all q_i <= 12, spheres n <= 20, degenerate zeros")
