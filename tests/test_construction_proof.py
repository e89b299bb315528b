"""``validate`` proves Klein multipliers, all-zero tables and direct
products of proven factors by construction, and scans every other finite
multiplier.  The oracle is the dense scan (``_unit_failure`` and
``_cocycle_failure``, the proof ``validate`` runs otherwise) and the
generating-set reference ``_light_validate_ref``: the report (ok,
checked, witness, reason) must equal both, and on a product with a broken
factor the witness is the one the scan of the product table finds."""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from catalog import (
    _s3_sign_values,
    bihom_from_characters,
    dihedral,
    product_triples,
    random_coboundary,
    random_normalized_tables,
    small_groups,
    symmetric,
    trivial_bihom,
)
from reference import _light_validate_ref

import twistk.multipliers as multipliers
from twistk.cli import main
from twistk.groups import cyclic
from twistk.io import decode_multiplier
from twistk.multipliers import (
    FiniteMultiplier,
    TableMultiplier,
    _cocycle_failure,
    _unit_failure,
    coboundary_twist,
    klein,
    require_multiplier,
    trivial_multiplier,
    validate,
)
from twistk.products import ProductMultiplier
from twistk.torus import ZERO, rot


def _scan(sigma):
    """(ok, checked, witness, reason) of the dense scan of sigma's table."""
    g = sigma.group
    n, e = g.order, g.identity
    ex = sigma.exponents()
    a = _unit_failure(ex, e)
    if a is not None:
        return False, n, (a, e, None), "identity row/column"
    failure = _cocycle_failure(ex, g)
    if failure is not None:
        return False, failure[0], failure[1], "cocycle identity"
    return True, n**3, None, None


def _report(sigma):
    report = validate(sigma)
    assert report.mode == "exhaustive"
    return report.ok, report.checked, report.witness, report.reason


def _agrees(sigma, reference=True):
    """validate's report equals the scan's, and the reference's when asked."""
    got = _report(sigma)
    assert got == _scan(sigma)
    if reference:
        assert got == _light_validate_ref(sigma)
    return got


def _broken(group, rng):
    """The trivial table on group with one to four entries set to a nonzero
    value, drawn again until it is not a multiplier."""
    while True:
        values = [list(row) for row in trivial_multiplier(group).values]
        for _ in range(rng.randint(1, 4)):
            values[rng.randrange(group.order)][rng.randrange(group.order)] = rot(Fraction(rng.randrange(1, 4), 4))
        sigma = TableMultiplier(group, values)
        if not _scan(sigma)[0]:
            return sigma


def _constant(group, c):
    return TableMultiplier(group, [[c] * group.order for _ in range(group.order)])


@pytest.mark.parametrize("n", range(2, 17))
def test_klein_proof_matches_the_scan(n):
    # the pure-Python reference costs about 5 s per multiplier at n = 16,
    # so it runs on n <= 8; the scan covers every n
    for k in range(n):
        sigma = klein(n, k)
        assert sigma.proven_by_construction()
        assert _agrees(sigma, reference=n <= 8) == (True, n**6, None, None)


# spellings of 0 mod 1: a symbol with coefficient 0 gets no slot
ZEROS = ({"rat": "0"}, {"rat": "2"}, {"rat": -1}, {"rat": "0", "irr": {"t": "0"}})


def test_zero_tables_are_proven():
    for name, g in small_groups():
        values = [[ZEROS[(a + 2 * b) % len(ZEROS)] for b in range(g.order)] for a in range(g.order)]
        spec = {"type": "table", "group": g.to_json(), "values": values}
        zeros = TableMultiplier(g, [[ZERO] * g.order] * g.order)
        for sigma in (trivial_multiplier(g), zeros, decode_multiplier(spec)):
            assert sigma.proven_by_construction(), name
            assert _agrees(sigma) == (True, g.order**3, None, None), name


def test_tables_are_proven_only_when_zero():
    rng = random.Random(16)
    tables = [sigma for _, sigma in random_normalized_tables()]
    tables += [_broken(g, rng) for _, g in small_groups() for _ in range(3)]
    tables.append(_constant(cyclic(3), rot(0, {"t": 1})))
    verdicts, scanned = [], 0
    for sigma in tables:
        zero = all(v == ZERO for row in sigma.values for v in row)
        assert sigma.proven_by_construction() == zero
        scanned += not zero
        verdicts.append(_agrees(sigma)[0])
    assert verdicts.count(False) == 31 and scanned > 40


class _Family(FiniteMultiplier):
    """A finite family that states no proof of its own: a table's compiled array."""

    def __init__(self, table):
        self.group, self._table = table.group, table

    def _compile(self):
        return self._table.exponents()


def test_a_family_without_a_proof_is_scanned():
    rng = random.Random(2)
    family = [_Family(trivial_multiplier(cyclic(4))), _Family(_broken(symmetric(3), rng))]
    assert [_agrees(sigma)[0] for sigma in family if not sigma.proven_by_construction()] == [True, False]


def test_product_triples_are_proven():
    for name, s1, s2, f in product_triples():
        sigma = ProductMultiplier(s1, s2, f)
        assert sigma.proven_by_construction(), name
        assert _agrees(sigma) == (True, sigma.group.order**3, None, None), name


def test_products_with_a_broken_factor_keep_the_scan_witness():
    rng = random.Random(5)
    s3, d4, z2 = symmetric(3), dihedral(4), cyclic(2)
    signs = {s3.order: _s3_sign_values(), d4.order: [a // 4 for a in range(8)]}
    reasons = set()
    for _ in range(24):
        g = rng.choice((s3, d4))
        broken, z = _broken(g, rng), rng.choice((trivial_multiplier(z2), klein(2, 1)))
        chi = signs[g.order]
        for s1, s2, f in (
            (broken, z, bihom_from_characters(g, chi, 2, z.group, [a % 2 for a in range(z.group.order)], 2)),
            (z, broken, bihom_from_characters(z.group, [a % 2 for a in range(z.group.order)], 2, g, chi, 2)),
            (broken, z, trivial_bihom(g, z.group)),
            (z, broken, trivial_bihom(z.group, g)),
        ):
            sigma = ProductMultiplier(s1, s2, f)
            assert not sigma.proven_by_construction()
            ok, _, _, reason = _agrees(sigma)
            assert not ok
            reasons.add(reason)
    assert reasons == {"identity row/column", "cocycle identity"}


def test_nested_products_recurse():
    rng = random.Random(9)
    z2, z3, s3 = cyclic(2), cyclic(3), symmetric(3)
    inner = ProductMultiplier(klein(2, 1), trivial_multiplier(z3), trivial_bihom(klein(2, 1).group, z3))
    valid = ProductMultiplier(inner, trivial_multiplier(z2), trivial_bihom(inner.group, z2))
    assert valid.proven_by_construction()
    assert _agrees(valid) == (True, 24**3, None, None)
    twisted = coboundary_twist(trivial_multiplier(s3), random_coboundary(s3, rng))
    inner = ProductMultiplier(twisted, _broken(z2, rng), trivial_bihom(s3, z2))
    nested = ProductMultiplier(klein(2, 1), inner, trivial_bihom(klein(2, 1).group, inner.group))
    assert not inner.proven_by_construction() and not nested.proven_by_construction()
    assert not _agrees(nested)[0]


@pytest.mark.parametrize("c", [rot("1/3"), rot("1/2"), rot(0, {"t": 1}), rot("1/5", {"t": "-1/2", "u": 3})])
def test_opposite_constant_factors_fall_back_to_the_scan(c):
    # sigma1 = c and sigma2 = -c are not normalized, so neither factor
    # passes validate, yet the product sigma1(a1,b1) + sigma2(a2,b2) + f(b1,a2)
    # is f, a multiplier: the scan of the product table proves it
    s3, z4 = symmetric(3), cyclic(4)
    s1, s2 = _constant(s3, c), _constant(z4, -c)
    for f in (trivial_bihom(s3, z4), bihom_from_characters(s3, _s3_sign_values(), 2, z4, [0, 1, 0, 1], 2)):
        sigma = ProductMultiplier(s1, s2, f)
        assert not validate(s1) and not validate(s2)
        assert not sigma.proven_by_construction()
        assert _agrees(sigma) == (True, 24**3, None, None)
        require_multiplier(sigma)


def _no_scan(*args):
    raise AssertionError("the dense scan ran")


def _valid_1024_product():
    s1, s2 = klein(4, 1), klein(8, 1)
    f = bihom_from_characters(s1.group, [a // 4 for a in range(16)], 4, s2.group, [a // 8 for a in range(64)], 8)
    return ProductMultiplier(s1, s2, f)


def test_the_scan_never_runs_on_proven_inputs_at_the_cap(monkeypatch, capsys):
    d512 = {"type": "trivial", "group": {"table": dihedral(512).array.tolist()}}
    monkeypatch.setattr(multipliers, "_unit_failure", _no_scan)
    monkeypatch.setattr(multipliers, "_cocycle_failure", _no_scan)
    product = _valid_1024_product()
    for sigma in (klein(32, 1), decode_multiplier(d512), product):
        assert sigma.group.order == 1024
        assert _report(sigma) == (True, 1024**3, None, None)
        require_multiplier(sigma)
    # the table of a construction that proves itself is not compiled
    assert product._exponents is None and product.sigma1._exponents is None and product.sigma2._exponents is None
    spec = json.dumps(d512)
    for argv in (["validate", "--inline", '{"type":"klein","n":32,"k":1}'], ["condition-k", "--inline", spec]):
        assert main(argv) == 0
    capsys.readouterr()


def test_a_broken_factor_at_the_cap_is_scanned(monkeypatch):
    product = _valid_1024_product()
    values = [list(row) for row in trivial_multiplier(product.sigma2.group).values]
    values[3][5] = rot("1/4")
    sigma = ProductMultiplier(product.sigma1, TableMultiplier(product.sigma2.group, values), product.f)
    expected = _scan(sigma)
    assert not expected[0]
    assert _report(sigma) == expected
    monkeypatch.setattr(multipliers, "_cocycle_failure", _no_scan)
    with pytest.raises(AssertionError, match="the dense scan ran"):
        validate(sigma)
