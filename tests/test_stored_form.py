"""A finite table or bihomomorphism keeps only its compiled array.

``center_basis`` reads the compiled table, against the per-conjugator
RotationNumber loop it replaced (``reference.class_function_ref``);
``value`` makes one RotationNumber per distinct compiled entry;
``f_degeneracy`` finds the identity's class wherever the identity is; and
the ``f-degeneracy`` command refuses when its two routes disagree.
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
from catalog import finite_catalog, product_triples, symmetric
from reference import class_function_ref

import twistk.cli
import twistk.regularity
from twistk.algebra import PhaseSum
from twistk.cli import main
from twistk.freeprod import _restriction_table, free_product_multiplier
from twistk.groups import FiniteGroup, cyclic
from twistk.io import decode_multiplier, encode_multiplier
from twistk.multipliers import Exponents, FiniteMultiplier, TableMultiplier, klein, normalize, trivial_multiplier
from twistk.products import Bihomomorphism, DegeneracyReport, ProductMultiplier, f_degeneracy
from twistk.regularity import ClassInconsistency, RegularityReport, center_basis, regular_classes
from twistk.torus import rot


def _multipliers() -> list[tuple[str, FiniteMultiplier]]:
    products = [(f"product:{name}", ProductMultiplier(s1, s2, f)) for name, s1, s2, f in product_triples()]
    return finite_catalog() + products


def test_center_basis_matches_the_class_function_loop():
    for name, sigma in _multipliers():
        basis = center_basis(sigma)
        regular = [c for c, f in regular_classes(sigma).classes if f]
        assert len(basis) == len(regular), name
        for element, cls in zip(basis, regular):
            ref = class_function_ref(sigma, cls)
            assert sorted(ref) == list(element.coeffs) == list(cls.members), name
            assert [element.coeff(c) for c in cls.members] == [PhaseSum.phase(ref[c]) for c in cls.members], name


def test_center_basis_refuses_a_class_flagged_regular_wrongly(monkeypatch):
    sigma = klein(2, 1)
    report = regular_classes(sigma)
    target = 0 * 2 + 1  # (0, 1) is not regular for k = 1
    assert [flag for cls, flag in report.classes if target in cls.members] == [False]
    flags = np.array([flag or target in cls.members for cls, flag in report.classes])
    forged = RegularityReport(sigma.group, flags)
    monkeypatch.setattr(twistk.regularity, "regular_classes", lambda s: forged)
    with pytest.raises(ClassInconsistency):
        center_basis(sigma)


def _shared(sigma: FiniteMultiplier) -> None:
    """Equal compiled entries give one value object, equal to the entry's
    ``Exponents.rotation``."""
    ex = sigma.exponents()
    n = sigma.group.order
    seen = {}
    for a in range(n):
        for b in range(n):
            entry = tuple(ex.array[a, b].tolist())
            v = sigma.value(a, b)
            assert v == ex.rotation(entry)
            assert seen.setdefault(entry, v) is v
    assert len(seen) < n * n


def test_equal_entries_share_one_value():
    table = TableMultiplier(symmetric(3), [[rot(Fraction(a * b % 3, 3)) for b in range(6)] for a in range(6)])
    # f((a1, a2), b) = a1 b / 2 on (Z2 x Z2) x Z4
    grid = [[rot(Fraction(a // 2 * b, 2)) for b in range(4)] for a in range(4)]
    f = Bihomomorphism(klein(2, 1).group, cyclic(4), grid)
    product = ProductMultiplier(klein(2, 1), trivial_multiplier(cyclic(4)), f)
    decoded = decode_multiplier(encode_multiplier(klein(4, 1).to_table()))
    fp = free_product_multiplier(normalize(klein(2, 1))[0], normalize(klein(3, 1))[0])
    restrictions = [_restriction_table(fp, fp.fp.g1, 1), _restriction_table(fp, fp.fp.g2, 2)]
    for sigma in [klein(4, 1), klein(6, 2), product, table, decoded, *restrictions]:
        _shared(sigma)


def _relabelled(g, sigma, perm):
    """g and sigma with element a renamed perm[a]."""
    t = np.empty_like(g.array)
    t[np.ix_(perm, perm)] = perm[g.array]
    ex, back = sigma.exponents(), np.argsort(perm)
    h = FiniteGroup(t)
    return h, TableMultiplier.from_exponents(h, Exponents(ex.D, ex.labels, ex.array[np.ix_(back, back)]))


def test_f_degeneracy_on_factors_whose_identity_is_not_0():
    for name, s1, s2, f in product_triples():
        p1, p2 = np.arange(s1.group.order)[::-1].copy(), np.roll(np.arange(s2.group.order), 1)
        (g1, t1), (g2, t2) = _relabelled(s1.group, s1, p1), _relabelled(s2.group, s2, p2)
        assert g1.identity != 0 and g2.identity != 0, name
        F = f.exponents
        F = Exponents(F.D, F.labels, F.array[np.ix_(np.argsort(p1), np.argsort(p2))])
        h = Bihomomorphism.from_exponents(g1, g2, F)
        report = f_degeneracy(t1, t2, h)
        witness = regular_classes(ProductMultiplier(t1, t2, h)).witness
        assert report.nondegenerate == (witness is None) == f_degeneracy(s1, s2, f).nondegenerate, name
        assert report.witness_class == (witness.members if witness else None), name


def _f_degeneracy_job(capsys):
    z5 = {"type": "trivial", "group": cyclic(5).to_json()}
    f_table = [[{"rat": f"{(2 * x * y) % 5}/5"} for y in range(5)] for x in range(5)]
    data = {"type": "direct_product", "sigma1": z5, "sigma2": z5, "f": {"table": f_table}}
    code = main(["f-degeneracy", "--inline", json.dumps(data)])
    out = capsys.readouterr()
    return code, json.loads(out.out), out.err


def test_f_degeneracy_refuses_when_its_routes_disagree(capsys, monkeypatch):
    code, report, _ = _f_degeneracy_job(capsys)
    assert code == 0 and report["f_degeneracy"] is True and report["condition_k"] is True
    assert "error" not in report
    f_degeneracy = twistk.cli.f_degeneracy

    def flipped(*args):
        return DegeneracyReport(not f_degeneracy(*args).nondegenerate, (0,))

    monkeypatch.setattr(twistk.cli, "f_degeneracy", flipped)
    code, report, err = _f_degeneracy_job(capsys)
    assert code == 1 and len(err.splitlines()) == 1
    assert report["error"] == "f-degeneracy routes disagree"
    assert report["f_degeneracy"] is False and report["condition_k"] is True and report["witness_class"] == [0]
