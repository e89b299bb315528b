import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from catalog import symmetric
from reference import check_sigma_tilde

import twistk as tk
from twistk.algebra import AlgebraElement, convolve
from twistk.groups import cyclic
from twistk.multipliers import TableMultiplier, klein, trivial_multiplier
from twistk.regularity import (
    ClassInconsistency,
    center_basis,
    condition_k,
    is_regular_element,
    regular_classes,
)
from twistk.torus import rot


def test_identity_always_regular():
    for s in (klein(4, 2), trivial_multiplier(symmetric(3))):
        assert is_regular_element(s, s.group.identity)


@pytest.mark.parametrize("n", range(2, 7))
def test_klein_regularity_criterion(n):
    # independent oracle: a = (a1, a2) is regular iff k a1 = k a2 = 0 mod n
    for k in range(n):
        s = klein(n, k)
        for a in s.group.elements():
            a1, a2 = divmod(a, n)
            expected = (k * a1) % n == 0 and (k * a2) % n == 0
            assert is_regular_element(s, a) == expected


def test_klein_4_2_regular_set():
    s = klein(4, 2)
    regular = {a for a in s.group.elements() if is_regular_element(s, a)}
    assert regular == {a1 * 4 + a2 for a1 in (0, 2) for a2 in (0, 2)}


def test_klein_6_2_report():
    s = klein(6, 2)
    report = regular_classes(s)
    regular = {c.representative for c, flag in report.classes if flag}
    assert regular == {a1 * 6 + a2 for a1 in (0, 3) for a2 in (0, 3)}
    assert all(len(c) == 1 for c, flag in report.classes if flag)
    assert not report.condition_k
    assert report.regular_element_count == 4


def test_trivial_sigma_all_classes_regular():
    s = trivial_multiplier(symmetric(3))
    report = regular_classes(s)
    assert all(flag for _, flag in report.classes)
    assert not report.condition_k  # finite nontrivial group is never icc


def test_condition_k_examples():
    assert condition_k(klein(5, 2))
    assert not condition_k(klein(4, 2))
    assert condition_k(trivial_multiplier(cyclic(1)))


def test_report_json():
    data = regular_classes(klein(2, 1)).to_json()
    assert data["condition_k"] is True
    assert {c["rep"] for c in data["classes"] if c["regular"]} == {0}
    assert all(c["size"] == 1 for c in data["classes"])


def test_center_basis_matrix_algebra_case():
    s = klein(3, 1)
    basis = center_basis(s)
    assert len(basis) == 1
    assert basis[0] == AlgebraElement.delta(s.group, s.group.identity)


def test_center_basis_trivial_abelian():
    s = trivial_multiplier(cyclic(5))
    basis = center_basis(s)
    assert len(basis) == 5
    assert all(list(b.coeffs) == [a] for a, b in zip(range(5), basis))


def test_center_basis_klein_4_2_commutes_exactly():
    s = klein(4, 2)
    basis = center_basis(s)
    assert len(basis) == 4
    g = s.group
    for elem in basis:
        for a in g.elements():
            delta = AlgebraElement.delta(g, a)
            assert convolve(s, delta, elem) == convolve(s, elem, delta)


def test_class_inconsistency_on_broken_multiplier():
    g = symmetric(3)
    s = trivial_multiplier(g)
    values = [list(row) for row in s.values]
    rep = next(c for c in g.conjugacy_classes() if len(c) == 3).representative
    values[rep][g.identity] = rot("1/2")
    with pytest.raises(ClassInconsistency):
        regular_classes(TableMultiplier(g, values))


def test_sigma_tilde_holds_on_valid_multipliers():
    for s in (klein(2, 1), klein(4, 2), klein(6, 5), trivial_multiplier(symmetric(3))):
        assert check_sigma_tilde(s) is None


def test_sigma_tilde_detects_broken_table():
    k = tk.klein(2, 1).to_table()
    values = [list(r) for r in k.values]
    values[0][1] = values[0][1] + rot("1/3")
    assert check_sigma_tilde(TableMultiplier(k.group, values)) is not None
