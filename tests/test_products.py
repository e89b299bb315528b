import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from catalog import (
    _s3_sign_values,
    assemble,
    bihom_from_characters,
    cyclic_bihom,
    dihedral,
    product_triples,
    random_coboundary,
    restriction,
    symmetric,
    trivial_bihom,
)
from reference import regularity_identity_check, two_of_three_loop

import twistk as tk
from twistk.groups import cyclic, direct_product
from twistk.multipliers import DomainMismatch, TableMultiplier, coboundary_twist, trivial_multiplier, validate
from twistk.products import (
    Bihomomorphism,
    DegeneracyReport,
    InvalidBihomomorphism,
    ProductMultiplier,
    f_degeneracy,
    two_of_three,
)
from twistk.regularity import condition_k, is_regular_element
from twistk.torus import ZERO, rot


def test_cyclic_bihom_valid():
    f = cyclic_bihom(4, 6, 1)
    assert f.value(1, 1) == rot("1/2")
    assert f.value(2, 1) == ZERO
    assert f.value(0, 5) == ZERO


def test_bihom_rejects_broken_table():
    g2 = cyclic(2)
    table = [[ZERO, ZERO], [ZERO, rot("1/3")]]
    with pytest.raises(InvalidBihomomorphism):
        Bihomomorphism(g2, g2, table)


def test_bihom_rejects_a_table_of_the_wrong_shape():
    with pytest.raises(InvalidBihomomorphism, match="shape"):
        Bihomomorphism(cyclic(2), cyclic(3), [[ZERO, ZERO], [ZERO, ZERO]])


def test_factors_must_match_the_bihom_groups():
    s1, s2 = trivial_multiplier(cyclic(2)), trivial_multiplier(cyclic(3))
    f = trivial_bihom(cyclic(2), cyclic(4))
    with pytest.raises(DomainMismatch, match="bihomomorphism groups"):
        ProductMultiplier(s1, s2, f)
    with pytest.raises(DomainMismatch, match="bihomomorphism groups"):
        f_degeneracy(s1, s2, f)


def test_assemble_sum_of_components_when_f_trivial():
    s1 = tk.klein(2, 1)
    s2 = trivial_multiplier(cyclic(3))
    sigma = assemble(s1, s2, trivial_bihom(s1.group, s2.group))
    n2 = 3
    for a in sigma.group.elements():
        for b in sigma.group.elements():
            a1, a2 = divmod(a, n2)
            b1, b2 = divmod(b, n2)
            assert sigma.value(a, b) == s1.value(a1, b1) + s2.value(a2, b2)


@pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (4, 1), (4, 2)])
def test_assemble_reproduces_klein(n, k):
    z = trivial_multiplier(cyclic(n))
    f = cyclic_bihom(n, n, k)
    sigma = assemble(z, z, f)
    reference = tk.klein(n, k)
    assert sigma.group.table == reference.group.table
    for a in sigma.group.elements():
        for b in sigma.group.elements():
            assert sigma.value(a, b) == reference.value(a, b)


def test_assemble_validates():
    for name, s1, s2, f in product_triples()[:10]:
        assert validate(assemble(s1, s2, f)).ok, name


def test_restriction_recovers_factors():
    s1 = tk.klein(2, 1)
    s2 = trivial_multiplier(cyclic(3))
    sigma = assemble(s1, s2, trivial_bihom(s1.group, s2.group))
    r1 = restriction(sigma, 1)
    assert all(
        r1[a][b] == s1.value(a, b) for a in s1.group.elements() for b in s1.group.elements()
    )
    r2 = restriction(sigma, 2)
    assert all(
        r2[a][b] == s2.value(a, b) for a in s2.group.elements() for b in s2.group.elements()
    )


def test_product_classes_are_products_of_classes():
    g1 = symmetric(3)
    g2 = cyclic(4)
    g = direct_product(g1, g2)
    product_classes = {
        frozenset(c1 * g2.order + c2 for c1 in cls1.members for c2 in cls2.members)
        for cls1 in g1.conjugacy_classes()
        for cls2 in g2.conjugacy_classes()
    }
    assert {frozenset(c.members) for c in g.conjugacy_classes()} == product_classes


def test_regularity_identity_trivial_cases():
    s1 = tk.klein(2, 1)
    s2 = trivial_multiplier(cyclic(2))
    f = trivial_bihom(s1.group, s2.group)
    sigma = assemble(s1, s2, f)
    for a in sigma.group.elements():
        assert regularity_identity_check(sigma, a, a)


def test_regularity_identity_exhaustive_sample():
    for name, s1, s2, f in product_triples()[:8]:
        sigma = assemble(s1, s2, f)
        g = sigma.group
        for a in g.elements():
            for b in g.elements():
                assert regularity_identity_check(sigma, a, b), (name, a, b)


def test_f_degeneracy_slawny_case():
    z = trivial_multiplier(cyclic(5))
    report = f_degeneracy(z, z, cyclic_bihom(5, 5, 2))  # gcd(2,5)=1: nondegenerate
    assert report.nondegenerate


def test_f_degeneracy_trivial_f_abelian():
    z2 = trivial_multiplier(cyclic(2))
    z3 = trivial_multiplier(cyclic(3))
    report = f_degeneracy(z2, z3, trivial_bihom(z2.group, z3.group))
    assert not report.nondegenerate
    assert report.witness_class is not None


def test_f_degeneracy_matches_condition_k_sample():
    for name, s1, s2, f in product_triples()[:12]:
        sigma = assemble(s1, s2, f)
        assert f_degeneracy(s1, s2, f).nondegenerate == condition_k(sigma), name


def _f_degeneracy_reference(sigma1, sigma2, f):
    """The criterion scanned over the assembled product group's own classes
    and elements, as a reference for the factor-wise f_degeneracy."""
    sigma = ProductMultiplier(sigma1, sigma2, f)
    g = sigma.group
    g1, g2 = sigma1.group, sigma2.group
    for cls in g.conjugacy_classes():
        if len(cls) == 1 and cls.representative == g.identity:
            continue
        found = False
        for a in cls.members:
            a1, a2 = sigma.split(a)
            for b in g.elements():
                b1, b2 = sigma.split(b)
                if g1.mul(a1, b1) == g1.mul(b1, a1) and f.value(b1, a2) != sigma1.value(b1, a1) - sigma1.value(a1, b1):
                    found = True
                    break
                if g2.mul(a2, b2) == g2.mul(b2, a2) and f.value(a1, b2) != sigma2.value(a2, b2) - sigma2.value(b2, a2):
                    found = True
                    break
            if found:
                break
        if not found:
            return DegeneracyReport(False, cls.members)
    return DegeneracyReport(True, None)


def test_f_degeneracy_matches_product_group_reference():
    cyclic_cases = [
        (f"Z{n1}xZ{n2},f={m}", trivial_multiplier(cyclic(n1)), trivial_multiplier(cyclic(n2)), cyclic_bihom(n1, n2, m))
        for n1, n2 in ((2, 4), (4, 4), (3, 6), (6, 9), (5, 5), (8, 4))
        for m in range(math.gcd(n1, n2))
    ]
    for name, s1, s2, f in product_triples() + cyclic_cases:
        assert f_degeneracy(s1, s2, f) == _f_degeneracy_reference(s1, s2, f), name
    assert {f_degeneracy(s1, s2, f).nondegenerate for _, s1, s2, f in cyclic_cases} == {True, False}


def _f_degeneracy_loop(sigma1, sigma2, f):
    """The per-pair RotationNumber loops that f_degeneracy ran before it
    read compiled arrays, kept as its reference."""
    g1, g2 = sigma1.group, sigma2.group

    def admits_b(a1: int, a2: int) -> bool:
        return any(
            g1.mul(a1, b1) == g1.mul(b1, a1) and f.value(b1, a2) != sigma1.value(b1, a1) - sigma1.value(a1, b1)
            for b1 in g1.elements()
        ) or any(
            g2.mul(a2, b2) == g2.mul(b2, a2) and f.value(a1, b2) != sigma2.value(a2, b2) - sigma2.value(b2, a2)
            for b2 in g2.elements()
        )

    trivial = ((g1.identity,), (g2.identity,))
    for c1 in g1.conjugacy_classes():
        for c2 in g2.conjugacy_classes():
            members = [(a1, a2) for a1 in c1.members for a2 in c2.members]
            if (c1.members, c2.members) != trivial and not any(admits_b(a1, a2) for a1, a2 in members):
                return DegeneracyReport(False, tuple(a1 * g2.order + a2 for a1, a2 in members))
    return DegeneracyReport(True, None)


def _characters(name, g, rng):
    """Homomorphisms G -> Z_d as (value table, d) on the named group: the
    zero character; a -> k a on Z_n; (a1, a2) -> k1 a1 + k2 a2 over
    d = lcm(n1, n2) on Z_n1 x Z_n2 (index a1 n2 + a2); the sign on S3; the
    reflection sign on D4 (index s 4 + i)."""
    n = g.order
    chars = [([0] * n, rng.choice((2, 3, 4)))]
    if name == "S3":
        chars.append((_s3_sign_values(), 2))
    elif name == "D4":
        chars.append(([a // 4 for a in range(8)], 2))
    elif "x" in name:
        n1, n2 = (int(part[1:]) for part in name.split("x"))
        d = math.lcm(n1, n2)
        k1, k2 = rng.randrange(n1), rng.randrange(n2)
        chars.append(([(k1 * (a // n2) * (d // n1) + k2 * (a % n2) * (d // n2)) % d for a in range(n)], d))
    else:
        k = rng.randrange(n)
        chars.append(([k * a % n for a in range(n)], n))
    return chars


def _random_character_products(count: int, seed: int):
    """(name, sigma1, sigma2, f) with f from random characters and sigma_i
    random coboundary twists (or Klein tables) on small groups."""
    rng = random.Random(seed)
    groups = [(f"Z{n}", cyclic(n)) for n in (2, 3, 4, 6)] + [("S3", symmetric(3)), ("D4", dihedral(4))]
    groups += [(f"Z{n1}xZ{n2}", direct_product(cyclic(n1), cyclic(n2))) for n1, n2 in ((2, 2), (2, 4), (3, 3), (2, 6))]
    klein_on = {"Z2xZ2": tk.klein(2, 1), "Z3xZ3": tk.klein(3, 1)}
    out = []
    while len(out) < count:
        (name1, g1), (name2, g2) = rng.choice(groups), rng.choice(groups)
        chi1, d1 = rng.choice(_characters(name1, g1, rng))
        chi2, d2 = rng.choice(_characters(name2, g2, rng))
        f = bihom_from_characters(g1, chi1, d1, g2, chi2, d2)
        factors = []
        for name, g in ((name1, g1), (name2, g2)):
            base = klein_on.get(name) or trivial_multiplier(g)
            factors.append(base if rng.random() < 0.3 else coboundary_twist(base, random_coboundary(g, rng)))
        out.append((f"{name1}x{name2}#{len(out)}", factors[0], factors[1], f))
    return out


def test_f_degeneracy_matches_the_loop_on_catalog_products():
    cyclic_cases = [
        (f"Z{n1}xZ{n2},f={m}", trivial_multiplier(cyclic(n1)), trivial_multiplier(cyclic(n2)), cyclic_bihom(n1, n2, m))
        for n1, n2 in ((2, 4), (4, 4), (3, 6), (6, 9), (5, 5), (8, 4), (1, 3), (3, 1))
        for m in range(math.gcd(n1, n2))
    ]
    klein_cases = [
        (f"klein({n},{k})xZ2", tk.klein(n, k), trivial_multiplier(cyclic(2)), trivial_bihom(tk.klein(n, k).group, cyclic(2)))
        for n, k in ((2, 1), (3, 1), (4, 2))
    ]
    for name, s1, s2, f in product_triples() + cyclic_cases + klein_cases:
        assert f_degeneracy(s1, s2, f) == _f_degeneracy_loop(s1, s2, f), name


def test_f_degeneracy_matches_the_loop_on_random_characters():
    verdicts = set()
    for seed in (1, 2, 3):
        for name, s1, s2, f in _random_character_products(40, seed):
            report = f_degeneracy(s1, s2, f)
            assert report == _f_degeneracy_loop(s1, s2, f), (seed, name)
            verdicts.add(report.nondegenerate)
    assert verdicts == {True, False}


def test_f_degeneracy_matches_the_loop_against_klein_asymmetry():
    # on Z3 x Z3 with klein(3, 1) and f(b, a2) = chi(b) a2 / 3, the class of
    # ((k2 a2, -k1 a2), a2) has f equal to the asymmetry of sigma1, not to
    # its negative: the witness depends on the sign of that comparison
    # (and the mirror image, klein(3, 1) on the second factor)
    k3, z3 = tk.klein(3, 1), trivial_multiplier(cyclic(3))
    for side in (1, 2):
        witnesses = set()
        for k1 in range(3):
            for k2 in range(3):
                chi = [(k1 * (b // 3) + k2 * (b % 3)) % 3 for b in range(9)]
                if side == 1:
                    s1, s2, f = k3, z3, bihom_from_characters(k3.group, chi, 3, z3.group, [0, 1, 2], 3)
                else:
                    s1, s2, f = z3, k3, bihom_from_characters(z3.group, [0, 1, 2], 3, k3.group, chi, 3)
                report = f_degeneracy(s1, s2, f)
                assert report == _f_degeneracy_loop(s1, s2, f), (side, k1, k2)
                witnesses.add(report.witness_class)
        assert len(witnesses) > 2, side


def test_f_degeneracy_matches_the_loop_with_symbols_and_wide_ints():
    # symbols in sigma1, a denominator above 2^64 (the object path) in sigma2,
    # and tables that are not cocycles: the criterion is read off as given
    rng = random.Random(9)
    s3, z4 = symmetric(3), cyclic(4)
    symbolic = coboundary_twist(trivial_multiplier(s3), [rot(0)] + [rot(Fraction(a, 5), {"t": a - 2}) for a in range(1, 6)])
    p = 2**64 + 13
    wide = coboundary_twist(trivial_multiplier(z4), [rot(0)] + [rot(Fraction(rng.randrange(p), p)) for _ in range(3)])
    assert wide.exponents().array.dtype == object
    values = [list(row) for row in wide.values]
    values[1][2] = values[1][2] + rot("1/3")
    broken = TableMultiplier(z4, values)
    for chi1, d1 in ((_s3_sign_values(), 2), ([0] * 6, 2)):
        for chi2, d2 in (([a % 2 for a in range(4)], 2), ([a for a in range(4)], 4)):
            f = bihom_from_characters(s3, chi1, d1, z4, chi2, d2)
            for s2 in (wide, broken, trivial_multiplier(z4)):
                assert f_degeneracy(symbolic, s2, f) == _f_degeneracy_loop(symbolic, s2, f)


def test_f_degeneracy_matches_the_loop_on_broken_nonabelian_tables():
    # tables that are not cocycles need not be constant on classes, so the
    # reduction over the members of a class is exercised both ways
    rng = random.Random(4)
    s3, d4, z2 = symmetric(3), dihedral(4), cyclic(2)
    sign3, sign4 = _s3_sign_values(), [a // 4 for a in range(8)]
    verdicts = set()
    for _ in range(30):
        g, sign = rng.choice(((s3, sign3), (d4, sign4)))
        values = [list(row) for row in trivial_multiplier(g).values]
        for _ in range(rng.randint(1, 4)):
            values[rng.randrange(g.order)][rng.randrange(g.order)] = rot(Fraction(rng.randrange(1, 4), 4))
        broken = TableMultiplier(g, values)
        z = trivial_multiplier(z2)
        for s1, s2, f in (
            (broken, z, bihom_from_characters(g, sign, 2, z2, [0, 1], 2)),
            (z, broken, bihom_from_characters(z2, [0, 1], 2, g, sign, 2)),
            (broken, z, trivial_bihom(g, z2)),
        ):
            report = f_degeneracy(s1, s2, f)
            assert report == _f_degeneracy_loop(s1, s2, f)
            verdicts.add(report.nondegenerate)
    assert verdicts == {True, False}


def test_two_of_three_identity_element():
    s1 = tk.klein(2, 1)
    s2 = trivial_multiplier(cyclic(3))
    f = trivial_bihom(s1.group, s2.group)
    report = two_of_three(assemble(s1, s2, f), 0)
    assert (report.sigma_regular, report.factor_regular, report.f_symmetric, report.f_trivial) == (True, True, True, True)


def test_two_of_three_trivial_f_links_conditions():
    s1 = tk.klein(4, 2)
    s2 = trivial_multiplier(cyclic(2))
    f = trivial_bihom(s1.group, s2.group)
    sigma = assemble(s1, s2, f)
    for a in sigma.group.elements():
        report = two_of_three(sigma, a)
        assert report.f_symmetric  # f = 1 makes (iii) vacuous
        assert report.sigma_regular == report.factor_regular


def test_two_of_three_no_violation_sample():
    for name, s1, s2, f in product_triples()[:12]:
        sigma = assemble(s1, s2, f)
        for a in sigma.group.elements():
            two_of_three(sigma, a)  # raises LemmaViolation on failure


def test_two_of_three_matches_centralizer_loop():
    # product_triples, and Klein factors paired by random characters
    seen = set()
    rng = random.Random(41)
    triples = [(s1, s2, f) for _, s1, s2, f in product_triples()]
    for n1, n in ((2, 2), (4, 2), (3, 3), (6, 2), (2, 4)):
        g1, k = cyclic(n1), tk.klein(n, 1)
        c = [rng.randrange(1, n + 1) for _ in range(3)]
        chi1 = [c[0] * x % n1 for x in range(n1)]
        chi2 = [(c[1] * (x // n) + c[2] * (x % n)) % n for x in range(n * n)]
        triples.append((trivial_multiplier(g1), k, bihom_from_characters(g1, chi1, n1, k.group, chi2, n)))
    for s1, s2, f in triples:
        sigma = assemble(s1, s2, f)
        for a in sigma.group.elements():
            report = two_of_three(sigma, a)
            assert (report.f_symmetric, report.f_trivial) == two_of_three_loop(sigma, a)
            seen.add(report.f_symmetric)
    assert seen == {True, False}


def test_f_conjugacy_class_corollary_direction():
    # under the hypothesis (some a in C with f(a1,.) = f(.,a2) on the
    # centralizer), regularity of C matches componentwise regularity
    for name, s1, s2, f in product_triples()[:12]:
        sigma = assemble(s1, s2, f)
        g = sigma.group
        g1, g2 = s1.group, s2.group
        for cls in g.conjugacy_classes():
            hits = [
                a
                for a in cls.members
                if all(
                    f.value(divmod(a, g2.order)[0], divmod(b, g2.order)[1])
                    == f.value(divmod(b, g2.order)[0], divmod(a, g2.order)[1])
                    for b in g.centralizer(a)
                )
            ]
            if not hits:
                continue
            a = hits[0]
            a1, a2 = divmod(a, g2.order)
            nontrivial = len(cls) > 1 or cls.representative != g.identity
            lhs = is_regular_element(sigma, a) and nontrivial
            comp = is_regular_element(s1, a1) and is_regular_element(s2, a2)
            comp_nontrivial = a1 != g1.identity or a2 != g2.identity or len(cls) > 1
            assert lhs == (comp and nontrivial and comp_nontrivial), (name, cls)
