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
"""

import itertools
import random
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
from catalog import cocycle_mod_p, dihedral, quaternion, random_coboundary, relabelled, schur_classes_mod_p

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
