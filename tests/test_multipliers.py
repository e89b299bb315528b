import random
from fractions import Fraction

import numpy as np
import pytest
from catalog import (
    assemble,
    bilinear_multiplier,
    dihedral,
    finite_catalog,
    product_triples,
    random_coboundary,
    symmetric,
)
from reference import halve, is_similar, normalize_ref

from twistk.cli import _same_values
from twistk.freeprod import FreeProductMultiplier
from twistk.groups import cyclic
from twistk.multipliers import (
    DomainMismatch,
    Exponents,
    TableMultiplier,
    coboundary_twist,
    compile_grid,
    klein,
    normalize,
    one_frame,
    trivial_multiplier,
    validate,
)
from twistk.products import f_degeneracy
from twistk.regularity import is_regular_element
from twistk.torus import ZERO, rot


def test_klein_values():
    s = klein(2, 1)
    # packing: (a1, a2) -> a1 * n + a2
    assert s.value(0 * 2 + 1, 1 * 2 + 0) == rot("1/2")
    assert s.value(1 * 2 + 1, 1 * 2 + 1) == rot("1/2")
    s42 = klein(4, 2)
    assert s42.value(0 * 4 + 1, 1 * 4 + 0) == rot("1/2")
    assert s42.value(0 * 4 + 1, 2 * 4 + 0) == ZERO
    s32 = klein(3, 2)
    assert s32.value(0 * 3 + 2, 2 * 3 + 0) == rot("2/3")


def test_identity_rows_all_families():
    for s in (klein(3, 2), trivial_multiplier(symmetric(3))):
        e = s.group.identity
        for b in s.group.elements():
            assert s.value(e, b).is_integral()
            assert s.value(b, e).is_integral()


def test_klein_bad_range():
    with pytest.raises(ValueError):
        klein(1, 0)
    with pytest.raises(ValueError):
        klein(4, 4)
    with pytest.raises(ValueError):
        klein(4, -1)


def test_klein_zero_is_trivial():
    s = klein(2, 0)
    assert all(s.value(a, b).is_integral() for a in s.group.elements() for b in s.group.elements())


@pytest.mark.parametrize("n", range(2, 7))
def test_validate_klein_exhaustive(n):
    for k in range(n):
        report = validate(klein(n, k))
        assert report.ok and report.mode == "exhaustive"
        assert report.checked == n**6


def test_validate_reports_perturbation_witness():
    s = klein(2, 1).to_table()
    values = [list(row) for row in s.values]
    values[3][3] = values[3][3] + rot("1/3")
    broken = TableMultiplier(s.group, values)
    report = validate(broken)
    assert not report.ok
    assert report.witness is not None
    a, b, c = report.witness
    lhs = broken.value(a, b) + broken.value(broken.group.mul(a, b), c)
    rhs = broken.value(a, broken.group.mul(b, c)) + broken.value(b, c)
    assert lhs != rhs


def test_validate_trivial_passes():
    assert validate(trivial_multiplier(symmetric(3))).ok


def test_table_shape_mismatch():
    with pytest.raises(DomainMismatch):
        TableMultiplier(cyclic(3), [[ZERO] * 2 for _ in range(2)])


def test_is_similar_identity_witness():
    s = klein(2, 1)
    assert is_similar(s, s, lambda a: ZERO)


def test_is_similar_wrong_beta():
    s = klein(2, 1)
    beta = [ZERO, rot("1/2"), ZERO, ZERO]
    assert not is_similar(s, s, beta.__getitem__)


def test_coboundary_twist_is_similar_and_valid():
    rng = random.Random(11)
    for base in (klein(3, 1), trivial_multiplier(symmetric(3))):
        beta = random_coboundary(base.group, rng)
        tau = coboundary_twist(base, beta)
        assert validate(tau).ok
        assert is_similar(base, tau, beta.__getitem__)


def test_coboundary_twist_refuses_a_bad_beta():
    base = klein(2, 1)
    with pytest.raises(DomainMismatch, match="beta length"):
        coboundary_twist(base, [ZERO] * 3)
    with pytest.raises(ValueError, match=r"beta\(e\) must be 1"):
        coboundary_twist(base, [rot("1/2"), ZERO, ZERO, ZERO])


def test_normalize_already_normalized_is_stable():
    s, _ = normalize(klein(4, 2))
    again, witness = normalize(s)
    assert again.values == s.values
    assert all(witness[a].is_integral() for a in s.group.elements())


@pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (4, 2), (5, 3), (6, 4)])
def test_normalize_klein(n, k):
    s = klein(n, k)
    normalized, witness = normalize(s)
    g = s.group
    for a in g.elements():
        assert normalized.value(a, g.inv(a)).is_integral()
    assert validate(normalized).ok
    assert is_similar(s, normalized, witness.__getitem__)


def test_normalize_z2_halving_example():
    g = cyclic(2)
    s = TableMultiplier(g, [[ZERO, ZERO], [ZERO, rot("1/2")]])
    assert validate(s).ok
    normalized, witness = normalize(s)
    assert witness[1] == -halve(rot("1/2")) == rot("3/4")
    assert normalized.value(1, 1).is_integral()


def _normalize_cases():
    """Every finite_catalog() entry; coboundary twists with two symbols, on
    groups with involutions and with pairs {a, a^-1}; and twists over a
    prime D at the int64 edge of ``exact_dtype`` and one past it."""
    rng = random.Random(28)
    cases = [sigma for _, sigma in finite_catalog()]
    for base in (trivial_multiplier(symmetric(3)), trivial_multiplier(dihedral(4)), klein(3, 1), klein(4, 1)):
        symbols = [{"t": rng.randint(-3, 3), "u": Fraction(rng.randint(-4, 4), 5)} for _ in range(base.group.order - 1)]
        beta = [ZERO] + [rot(Fraction(rng.randrange(12), 12), irr) for irr in symbols]
        cases.append(coboundary_twist(base, beta))
    for p in (2**61 - 1, 2**64 + 13):
        beta = [ZERO] + [rot(Fraction(rng.randrange(p), p)) for _ in range(7)]
        cases.append(coboundary_twist(trivial_multiplier(dihedral(4)), beta))
    return cases


def test_normalize_matches_the_element_loop():
    cases = _normalize_cases()
    frames = [sigma.exponents() for sigma in cases]
    assert any(ex.labels for ex in frames)
    assert any(ex.array.dtype == np.int64 and 4 * ex.D > 2**62 for ex in frames)
    assert any(ex.array.dtype == object and 4 * ex.D > 2**63 for ex in frames)
    for sigma in cases:
        table, beta = normalize(sigma)
        ref_table, ref_beta = normalize_ref(sigma)
        assert beta == ref_beta
        got, want = table.exponents(), ref_table.exponents()
        assert (got.D, got.labels, got.array.dtype) == (want.D, want.labels, want.array.dtype)
        assert np.array_equal(got.array, want.array)
        assert table.is_normalized()


def test_coboundary_twist_matches_the_rotation_sums():
    """The stored array of ``coboundary_twist`` is beta(a) + beta(b) -
    beta(ab) + sigma(a, b), summed as RotationNumbers and compiled by
    ``compile_grid``, recast to the twist's frame: on every finite_catalog()
    entry under ``random_coboundary``, and for beta over the primes
    2^61 - 1 and 2^64 + 13 of ``_normalize_cases()`` on trivial D4 and on
    its six cases off the catalog (four with symbols, two already twisted
    over those primes), so int64 and object arrays both occur."""
    rng = random.Random(33)
    cases = [(sigma, random_coboundary(sigma.group, rng)) for _, sigma in finite_catalog()]
    for p in (2**61 - 1, 2**64 + 13):
        for base in (trivial_multiplier(dihedral(4)), *_normalize_cases()[-6:]):
            cases.append((base, [ZERO] + [rot(Fraction(rng.randrange(p), p)) for _ in range(base.group.order - 1)]))
    dtypes = set()
    for sigma, beta in cases:
        g = sigma.group
        sums = [[beta[a] + beta[b] - beta[int(g.array[a, b])] + sigma.value(a, b) for b in g.elements()] for a in g.elements()]
        got = coboundary_twist(sigma, beta).exponents()
        D, labels, (x, y) = one_frame((got, compile_grid(sums)))
        assert (D, labels) == (got.D, got.labels)
        assert np.array_equal(x, y)
        dtypes.add((got.array.dtype, 4 * got.D > 2**62, 4 * got.D > 2**63))
    assert {(np.dtype(np.int64), True, False), (np.dtype(object), True, True)} <= dtypes


def test_similarity_preserves_regularity():
    rng = random.Random(13)
    for base in (klein(4, 2), klein(6, 3), trivial_multiplier(symmetric(3))):
        tau = coboundary_twist(base, random_coboundary(base.group, rng))
        for a in base.group.elements():
            assert is_regular_element(base, a) == is_regular_element(tau, a)


def test_bilinear_multiplier():
    s = bilinear_multiplier([2, 2], [[Fraction(0), Fraction(0)], [Fraction(1, 2), Fraction(0)]])
    k = klein(2, 1)
    assert s.values == k.to_table().values
    with pytest.raises(ValueError):
        bilinear_multiplier([2, 3], [[Fraction(1, 2), Fraction(1, 2)], [Fraction(0), Fraction(0)]])


def test_to_table_round_trip():
    s = klein(3, 2)
    t = s.to_table()
    assert all(
        t.value(a, b) == s.value(a, b) for a in s.group.elements() for b in s.group.elements()
    )


def test_is_normalized_flags():
    assert not klein(2, 1).is_normalized()
    assert trivial_multiplier(cyclic(5)).is_normalized()


def test_one_frame_hands_parts_in_the_frame_through_and_callers_copy():
    """A part already in the common frame (its D, labels and dtype) comes
    back as its own array, so no caller of ``one_frame`` may write to what
    it receives: the product table, ``f_degeneracy``, ``coboundary_twist``,
    ``cli._same_values`` and the free product leave every input array as
    it was."""
    rng = random.Random(29)
    passed = 0
    for _, s1, s2, f in product_triples():
        parts = (s1.exponents(), s2.exponents(), f.exponents)
        D, labels, arrays = one_frame(parts)
        passed += sum(out is p.array for out, p in zip(arrays, parts))
        for out, p in zip(arrays, parts):
            assert (out is p.array) == (p.D == D and p.labels == labels and p.array.dtype == out.dtype)
        before = [p.array.copy() for p in parts]
        product = assemble(s1, s2, f)
        table = product.exponents().array.copy()
        f_degeneracy(s1, s2, f)
        twisted = coboundary_twist(product, random_coboundary(product.group, rng))
        twisted_table = twisted.exponents().array.copy()
        assert _same_values(product, product) and _same_values(twisted, twisted)
        _same_values(product, twisted)
        for p, old in zip(parts, before):
            assert p.array.dtype == old.dtype and np.array_equal(p.array, old)
        assert np.array_equal(product.exponents().array, table)
        assert np.array_equal(twisted.exponents().array, twisted_table)
        normal = normalize(s1)[0]
        normal_table = normal.exponents().array.copy()
        FreeProductMultiplier(normal, normal)
        assert np.array_equal(normal.exponents().array, normal_table)
    assert passed > 20
    # two int64 parts whose sum needs exact ints are recast, not handed through
    half = Exponents(2**60 + 1, (), np.array([[[0], [2**60]], [[2**60], [0]]], dtype=np.int64))
    D, labels, arrays = one_frame((half, half))
    assert D == half.D and all(out.dtype == object and out is not half.array for out in arrays)
