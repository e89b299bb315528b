"""Every class of H^2(G, Z_2) on D4 and Q8 as a finite oracle.

``catalog.schur_classes_mod_p`` solves the cocycle equations mod 2 for the
normalized 2-cocycles with values in (1/2)Z and takes a complement of the
coboundaries.  Since both Schur multipliers are elementary abelian 2-groups
(Z_2 for D4, trivial for Q8), every class of H^2(G, T) has such a
representative.  The counts, with 5 conjugacy classes on each group:

    group  dim Z^2  dim B^2  dim H^2(G, Z_2)  regular classes per basis representative
    D4     8        5        3                2, 2, 2
    Q8     7        5        2                5, 5

Every combination of the basis representatives (8 on D4, 4 on Q8), as it
is and twisted by a seeded random coboundary and relabelled, must pass
``validate``.  Its regular classes must agree with
``center_dimension_numeric``, and condition K must hold exactly when only
the identity class is regular.  The regular classes must not change under
``normalize``, and every ``center_basis`` element must commute exactly
with each lambda(a) under ``convolve``.  On D4, four combinations have
only 2 regular classes and four have all 5; on Q8, whose Schur multiplier
is trivial, every class of every combination is regular.

Beyond D4 and Q8, the same oracles run on D6 and S4 at p = 2 and on the
Heisenberg group Heis(3) at p = 3 (``catalog.heisenberg``).  There Z^2
is solved from Light's equations alone (the triples (a, s, c) with s in
``generators()``, and the identity row and column), the proof
``validate`` relies on; on D4, Q8 and D6 its bases equal those of the
full |G|^3 system.  The counts:

    group    p  dim Z^2  dim B^2  dim H^2(G, Z_p)  classes  regular classes per basis representative
    D6       2  12       9        3                6        3, 6, 6
    S4       2  24       22       2                5        5, 3
    Heis(3)  3  28       24       4                11       11, 3, 3, 11

D6 runs every combination of its representatives (8) and S4 every one
(4); Heis(3) runs its 4 representatives and 8 seeded combinations.  Each
also runs twisted by a seeded random coboundary and relabelled, and
``center_basis`` must commute with lambda(s) for s in ``generators()``,
which generate the twisted group algebra.  Each Schur multiplier here has
one regular-class count for all its nontrivial classes: a combination has
all classes regular exactly when it uses only the representatives that
do, and otherwise the smaller count (4 of 8 on D6, 2 of 4 on S4).
"""

import functools
import itertools
import random
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
from catalog import cocycle_mod_p, dihedral, heisenberg, quaternion, random_coboundary, relabelled, schur_classes_mod_p, symmetric

from twistk.algebra import AlgebraElement, center_dimension_numeric, convolve
from twistk.multipliers import coboundary_twist, normalize, validate
from twistk.regularity import center_basis, condition_k, regular_classes

# group, dim Z^2, dim B^2, regular classes of each basis representative
GROUPS = {"D4": (dihedral(4), 8, 5, [2, 2, 2]), "Q8": (quaternion(), 7, 5, [5, 5])}


def _regular_count(sigma) -> int:
    return int(regular_classes(sigma).flags.sum())


@pytest.mark.parametrize("name", GROUPS)
def test_dimensions_and_representatives(name):
    group, dim_z, dim_b, counts = GROUPS[name]
    cocycles, coboundaries, classes = schur_classes_mod_p(group, 2)
    assert (len(cocycles), len(coboundaries), len(classes)) == (dim_z, dim_b, dim_z - dim_b)
    assert all(validate(cocycle_mod_p(group, z, 2)).ok for z in np.vstack([cocycles, coboundaries]))
    assert len(group.conjugacy_classes()) == 5
    assert [_regular_count(cocycle_mod_p(group, h, 2)) for h in classes] == counts


@pytest.mark.parametrize("name", GROUPS)
def test_every_combination_answers_alike(name):
    group, _, _, _ = GROUPS[name]
    classes = schur_classes_mod_p(group, 2)[2]
    rng = random.Random(16)
    counts = []
    for bits in itertools.product((0, 1), repeat=len(classes)):
        sigma = cocycle_mod_p(group, np.array(bits) @ classes, 2)
        twisted = relabelled(coboundary_twist(sigma, random_coboundary(group, rng)), rng)
        count = _regular_count(sigma)
        for s in (sigma, twisted):
            g = s.group
            assert validate(s).ok, bits
            assert _regular_count(s) == count == center_dimension_numeric(s), bits
            assert condition_k(s) == (count == 1), bits
            assert _regular_count(normalize(s)[0]) == count, bits
            for elem in center_basis(s):
                for a in g.elements():
                    delta = AlgebraElement.delta(g, a)
                    assert convolve(s, delta, elem) == convolve(s, elem, delta), (bits, a)
        counts.append(count)
    # H^2(D4, Z_2) maps onto H^2(D4, T) = Z_2, so half the combinations are its nontrivial class
    assert sorted(counts) == ([2] * 4 + [5] * 4 if name == "D4" else [5] * 4)


# group, p, dim Z^2, dim B^2, number of classes, regular classes of each basis representative
LARGER = {
    "D6": (dihedral(6), 2, 12, 9, 6, [3, 6, 6]),
    "S4": (symmetric(4), 2, 24, 22, 5, [5, 3]),
    "Heis(3)": (heisenberg(3), 3, 28, 24, 11, [11, 3, 3, 11]),
}


@functools.cache
def _larger_classes(name: str):
    group, p = LARGER[name][:2]
    return schur_classes_mod_p(group, p)


@pytest.mark.parametrize("name", ["D4", "Q8", "D6"])
def test_light_equations_span_the_full_system(name):
    group, p = (GROUPS[name][0], 2) if name in GROUPS else LARGER[name][:2]
    light, full = schur_classes_mod_p(group, p), schur_classes_mod_p(group, p, group.elements())
    assert all(np.array_equal(x, y) for x, y in zip(light, full))


@pytest.mark.parametrize("name", LARGER)
def test_larger_dimensions_and_representatives(name):
    group, p, dim_z, dim_b, classes, counts = LARGER[name]
    cocycles, coboundaries, reps = _larger_classes(name)
    assert (len(cocycles), len(coboundaries), len(reps)) == (dim_z, dim_b, dim_z - dim_b)
    assert all(validate(cocycle_mod_p(group, z, p)).ok for z in np.vstack([cocycles, coboundaries]))
    assert len(group.conjugacy_classes()) == classes
    assert [_regular_count(cocycle_mod_p(group, h, p)) for h in reps] == counts


@pytest.mark.parametrize("name", LARGER)
def test_larger_combinations_answer_alike(name):
    group, p, _, _, classes, counts = LARGER[name]
    reps = _larger_classes(name)[2]
    rng = random.Random(33)
    if name == "Heis(3)":
        combinations = [tuple(int(i == j) for j in range(len(reps))) for i in range(len(reps))]
        combinations += rng.sample(list(itertools.product(range(p), repeat=len(reps))), 8)
    else:
        combinations = list(itertools.product(range(p), repeat=len(reps)))
    found = []
    for coefficients in combinations:
        sigma = cocycle_mod_p(group, np.array(coefficients) @ reps, p)
        twisted = relabelled(coboundary_twist(sigma, random_coboundary(group, rng)), rng)
        count = _regular_count(sigma)
        nontrivial = any(c and n < classes for c, n in zip(coefficients, counts))
        assert count == (min(counts) if nontrivial else classes), coefficients
        for s in (sigma, twisted):
            g = s.group
            assert validate(s).ok, coefficients
            assert _regular_count(s) == count == center_dimension_numeric(s), coefficients
            assert condition_k(s) == (count == 1), coefficients
            assert _regular_count(normalize(s)[0]) == count, coefficients
            for elem in center_basis(s):
                for a in g.generators():
                    delta = AlgebraElement.delta(g, a)
                    assert convolve(s, delta, elem) == convolve(s, elem, delta), (coefficients, a)
        found.append(count)
    if name != "Heis(3)":
        assert sorted(found) == sorted([min(counts)] * (len(found) // 2) + [classes] * (len(found) // 2))
