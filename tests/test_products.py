import math
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from catalog import product_triples

import twistk as tk
from twistk.groups import cyclic, direct_product, symmetric
from twistk.multipliers import trivial_multiplier, validate
from twistk.products import (
    Bihomomorphism,
    DegeneracyReport,
    InvalidBihomomorphism,
    ProductMultiplier,
    assemble,
    cyclic_bihom,
    f_degeneracy,
    regularity_identity_check,
    restriction,
    trivial_bihom,
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
                if g1.commutes(a1, b1) and f.value(b1, a2) != sigma1.value(b1, a1) - sigma1.value(a1, b1):
                    found = True
                    break
                if g2.commutes(a2, b2) and f.value(a1, b2) != sigma2.value(a2, b2) - sigma2.value(b2, a2):
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


def test_two_of_three_identity_element():
    s1 = tk.klein(2, 1)
    s2 = trivial_multiplier(cyclic(3))
    f = trivial_bihom(s1.group, s2.group)
    report = two_of_three(assemble(s1, s2, f), 0)
    assert report.truth_vector() == (True, True, True, True)


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
