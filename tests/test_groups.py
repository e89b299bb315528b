import random
import sys
from itertools import combinations_with_replacement, permutations
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from catalog import abelian_group, dihedral, product_triples, quaternion, symmetric, trivial
from reference import class_of, conj

from twistk.groups import (
    FiniteGroup,
    NoIdentity,
    NoInverse,
    NotAssociative,
    build,
    cyclic,
    direct_product,
)
from twistk.io import decode_group
from twistk.multipliers import klein
from twistk.products import ProductMultiplier


def test_build_z2():
    g = build([[0, 1], [1, 0]])
    assert g.order == 2 and g.identity == 0 and g.inv(1) == 1


def test_build_rejects_no_inverse():
    with pytest.raises(NoInverse):
        build([[0, 1], [1, 1]])


def test_build_rejects_no_identity():
    with pytest.raises(NoIdentity):
        build([[1, 1], [1, 1]])


def test_build_rejects_nonassociative():
    # a loop of order 5 (Latin square with identity and two-sided
    # inverses) that is not associative
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(NotAssociative):
        build(table)


def test_cyclic():
    g = cyclic(4)
    assert g.order == 4
    assert all(len(c) == 1 for c in g.conjugacy_classes())
    assert g.inv(1) == 3
    with pytest.raises(ValueError):
        cyclic(0)


def test_z3_classes_singletons():
    g = build([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    assert len(g.conjugacy_classes()) == 3


def test_direct_product_klein_four():
    v4 = direct_product(cyclic(2), cyclic(2))
    assert v4.order == 4 and v4.is_abelian()
    assert all(v4.mul(a, a) == v4.identity for a in v4.elements())


def test_direct_product_with_trivial():
    g = symmetric(3)
    p = direct_product(g, trivial())
    assert p.table == g.table  # row-major packing with |G2| = 1 is the identity map


def test_direct_product_packing():
    g = direct_product(cyclic(2), cyclic(3))
    # (i1, i2) -> i1 * 3 + i2
    assert g.mul(1 * 3 + 2, 0 * 3 + 2) == 1 * 3 + (2 + 2) % 3


def _brute_force_classes(table):
    n = len(table)
    g = FiniteGroup(table)
    classes = set()
    for a in range(n):
        orbit = frozenset(conj(g, c, a) for c in range(n))
        classes.add(orbit)
    return sorted(sorted(c) for c in classes)


def test_s3_classes_against_independent_table():
    # independent construction: permutation composition via itertools
    elems = sorted(permutations(range(3)))
    compose = lambda p, q: tuple(p[q[i]] for i in range(3))
    table = [[elems.index(compose(p, q)) for q in elems] for p in elems]
    g = build(table)
    sizes = sorted(len(c) for c in g.conjugacy_classes())
    assert sizes == [1, 2, 3]
    assert [list(c.members) for c in g.conjugacy_classes()] == _brute_force_classes(table)
    assert symmetric(3).table == tuple(tuple(r) for r in table)


def test_class_partition_and_identity_class():
    for g in (symmetric(3), dihedral(4), quaternion(), cyclic(12)):
        classes = g.conjugacy_classes()
        assert sum(len(c) for c in classes) == g.order
        assert sorted(x for c in classes for x in c.members) == list(range(g.order))
        assert class_of(g, g.identity).members == (g.identity,)


def test_centralizer_properties():
    rng = random.Random(0)
    for g in (symmetric(3), dihedral(6), quaternion()):
        assert g.centralizer(g.identity) == tuple(g.elements())
        for _ in range(20):
            a = rng.randrange(g.order)
            b = rng.randrange(g.order)
            z = g.centralizer(a)
            assert a in z
            assert (b in z) == (a in g.centralizer(b))
            # subgroup: closed under products and inverses
            for x in z:
                assert g.inv(x) in z
                assert all(g.mul(x, y) in z for y in z)


def test_known_class_counts():
    assert len(symmetric(3).conjugacy_classes()) == 3
    assert len(dihedral(4).conjugacy_classes()) == 5
    assert len(quaternion().conjugacy_classes()) == 5
    assert len(symmetric(4).conjugacy_classes()) == 5


def test_names_and_json():
    g = dihedral(3)
    assert g.names[g.identity] == "r0"
    data = g.to_json()
    g2 = decode_group(data)
    assert g2.table == g.table and g2.names == g.names


def test_library_constructors_are_groups():
    # construction does not scan associativity, so the tables the library
    # builds itself are proven here, through the same build that proves
    # decoded tables
    bases = [cyclic(n) for n in range(1, 13)] + [dihedral(n) for n in range(1, 11)]
    bases += [symmetric(n) for n in range(1, 5)] + [quaternion(), trivial()]
    groups = bases + [
        direct_product(g1, g2)
        for g1, g2 in combinations_with_replacement(bases, 2)
        if g1.order * g2.order <= 64
    ]
    groups += [klein(n, k).group for n in range(2, 7) for k in range(n)]
    groups.append(abelian_group((2, 4, 3)))
    groups += [ProductMultiplier(s1, s2, f).group for _, s1, s2, f in product_triples()]
    for g in groups:
        proven = build(g.table, g.names)
        assert (proven.identity, proven.names) == (g.identity, g.names)
        assert [proven.inv(a) for a in proven.elements()] == [g.inv(a) for a in g.elements()]
