"""Condition K decided on arrays, against the paths it replaced (``reference``):

- ``class_layout`` against the conjugation gather, on every abelian group
  (and on the others, where the gather still runs);
- the cached commutation mask against ``array == array.T``;
- the identity and inverses that ``cyclic`` and ``direct_product`` know,
  against the search that ``FiniteGroup(table)`` runs;
- the compiled Klein table against its closed form, entry by entry;
- ``regular_elements`` by equality of stored entries against ``is_zero``
  of their differences, on int64, object-dtype and symbolic tables;
- the array report of ``regular_classes`` against the report of one
  ``ConjugacyClass`` per class, and the ``f_degeneracy`` witness against
  the class it names.

The equality compare rests on one invariant, checked last: slot 0 of
every stored ``Exponents`` array lies in [0, D).
"""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
from catalog import (
    abelian_group,
    cyclic_bihom,
    dihedral,
    finite_catalog,
    product_triples,
    random_coboundary,
    small_groups,
    symmetric,
    trivial,
)
from reference import (
    class_layout_ref,
    class_of,
    klein_exponents_ref,
    regular_classes_loop,
    regular_elements_ref,
)

from twistk.freeprod import FreeProductMultiplier, _restriction_table
from twistk.groups import FiniteGroup, build, cyclic, direct_product
from twistk.io import decode_multiplier, encode_multiplier
from twistk.multipliers import (
    Exponents,
    KleinMultiplier,
    TableMultiplier,
    coboundary_twist,
    klein,
    normalize,
    one_frame,
    trivial_multiplier,
)
from twistk.products import ProductMultiplier, f_degeneracy
from twistk.regularity import ClassInconsistency, regular_classes, regular_elements
from twistk.torus import rot


def _relabelled(g: FiniteGroup, rng: random.Random) -> FiniteGroup:
    """g with its elements renamed by a random permutation, so that the
    identity is seldom 0; the identity and inverses are searched."""
    perm = np.array(rng.sample(range(g.order), g.order), dtype=np.intp)
    t = np.empty_like(g.array)
    t[np.ix_(perm, perm)] = perm[g.array]
    return FiniteGroup(t)


def _abelian_groups(count: int = 30, seed: int = 19) -> list[tuple[str, FiniteGroup]]:
    """Random products of cyclic groups of order at most 240, some factors
    renamed."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        orders = [rng.randint(1, 8) for _ in range(rng.randint(1, 3))]
        if np.prod(orders) > 240:
            continue
        factors = [cyclic(n) if rng.random() < 0.6 else _relabelled(cyclic(n), rng) for n in orders]
        g = factors[0]
        for h in factors[1:]:
            g = direct_product(g, h)
        out.append((f"Z{orders}#{len(out)}", g))
    out.append(("Z2xZ3xZ4 (catalog)", abelian_group([2, 3, 4])))
    return out


def _factor_pairs(seed: int = 23) -> list[tuple[str, FiniteGroup, FiniteGroup]]:
    rng = random.Random(seed)
    groups = small_groups() + [("1", trivial()), ("S4", symmetric(4)), ("D5", dihedral(5))]
    groups += [(f"{name}~", _relabelled(g, rng)) for name, g in groups]
    return [(f"{n1} x {n2}", g1, g2) for n1, g1 in groups for n2, g2 in rng.sample(groups, 4)]


def _groups() -> list[tuple[str, FiniteGroup]]:
    catalog = [(name, sigma.group) for name, sigma in finite_catalog()]
    products = [(name, direct_product(g1, g2)) for name, g1, g2 in _factor_pairs()[::3]]
    return catalog + small_groups() + _abelian_groups() + products


def test_class_layout_matches_the_conjugation_gather():
    kinds = set()
    for name, g in _groups():
        order, starts = g.class_layout()
        ref_order, ref_starts = class_layout_ref(g)
        assert np.array_equal(order, ref_order) and np.array_equal(starts, ref_starts), name
        kinds.add(g.is_abelian())
        if g.is_abelian():
            assert np.array_equal(order, np.arange(g.order)) and np.array_equal(starts, np.arange(g.order)), name
    assert kinds == {True, False}


def test_abelian_layout_gathers_no_conjugates(monkeypatch):
    g = direct_product(cyclic(12), cyclic(16))
    monkeypatch.setattr(np, "argsort", lambda *args, **kwargs: pytest.fail("the gather ran on an abelian group"))
    order, starts = g.class_layout()
    assert len(g.conjugacy_classes()) == g.order == len(starts)


def test_commutation_mask_is_the_table_against_its_transpose():
    groups = [(name, sigma.group) for name, sigma in finite_catalog()]
    for name, s1, s2, f in product_triples():
        groups += [(name, s1.group), (name, s2.group), (name, ProductMultiplier(s1, s2, f).group)]
    for name, g in groups:
        mask = g.commuting()
        assert np.array_equal(mask, g.array == g.array.T) and g.commuting() is mask, name
        assert g.is_abelian() == bool(mask.all()), name
        assert g.centralizer(g.order - 1) == tuple(b for b in g.elements() if g.mul(g.order - 1, b) == g.mul(b, g.order - 1)), name
    # a fresh nonabelian product keeps the one mask that its regularity scan
    # built; an abelian product, known abelian from its factors, builds none
    triples = {name: (s1, s2, f) for name, s1, s2, f in product_triples()}
    sigma = ProductMultiplier(*triples["S3xZ6,sign-pairing"])
    regular_classes(sigma)
    assert sigma.group._commuting is not None and sigma.group.commuting() is sigma.group._commuting
    sigma = ProductMultiplier(*triples["V4xV4,cross"])
    regular_classes(sigma)
    assert sigma.group._commuting is None and sigma.group.is_abelian()


def test_direct_product_units_match_the_search():
    for name, g1, g2 in _factor_pairs():
        h = direct_product(g1, g2)
        ref = FiniteGroup(h.array)
        assert type(h.identity) is int and h.identity == ref.identity, name
        assert h.inverses.dtype == ref.inverses.dtype == np.intp and np.array_equal(h.inverses, ref.inverses), name
        assert h.names == tuple(f"({x},{y})" for x in g1.names for y in g2.names), name
        assert h.array.dtype == np.intp and h.array.flags.c_contiguous, name
    for name, g in _abelian_groups():
        ref = FiniteGroup(g.array)
        assert g.identity == ref.identity and np.array_equal(g.inverses, ref.inverses), name


def test_cyclic_units_match_the_search():
    for n in range(1, 40):
        g = cyclic(n)
        ref = FiniteGroup(g.array)
        assert type(g.identity) is int and g.identity == ref.identity == 0, n
        assert g.inverses.dtype == np.intp and np.array_equal(g.inverses, ref.inverses), n
        assert g.names == ref.names == tuple(str(a) for a in range(n)), n
    for g in (cyclic(7), direct_product(cyclic(4), cyclic(6)), direct_product(_relabelled(dihedral(4), random.Random(2)), cyclic(3))):
        build(g.array)  # the product tables are groups


def test_klein_table_matches_the_closed_form_loop():
    rng = random.Random(16)
    for n in range(2, 17):
        ks = range(n) if n <= 8 else sorted({0, 1, n - 1, rng.randrange(n)})
        for k in ks:
            ex = KleinMultiplier(n, k).exponents()
            assert (ex.D, ex.labels, ex.array.dtype, ex.array.shape) == (n, (), np.int64, (n * n, n * n, 1)), (n, k)
            assert ex.array[..., 0].tolist() == klein_exponents_ref(n, k), (n, k)


def _as_object(sigma):
    ex = sigma.exponents()
    return TableMultiplier.from_exponents(sigma.group, Exponents(ex.D, ex.labels, ex.array.astype(object)))


def _symbolic_tables(seed: int = 31) -> list[tuple[str, TableMultiplier]]:
    """Coboundary twists with a symbol, one of them past int64, each also
    with one entry moved by a symbolic or a rational amount."""
    rng = random.Random(seed)
    out = []
    for g in (symmetric(3), dihedral(4), cyclic(6), direct_product(cyclic(2), cyclic(4))):
        beta = [rot(0)] + [rot(Fraction(rng.randrange(12), 12), {"t": rng.randint(-3, 3)}) for _ in range(g.order - 1)]
        sigma = coboundary_twist(trivial_multiplier(g), beta)
        out.append((f"symbolic {g.order}", sigma))
        for move in (rot(0, {"t": Fraction(1, 2)}), rot(Fraction(1, 3))):
            values = [list(row) for row in sigma.values]
            a, b = rng.randrange(1, g.order), rng.randrange(1, g.order)
            values[a][b] = values[a][b] + move
            out.append((f"symbolic {g.order} moved {move}", TableMultiplier(g, values)))
    p = 2**64 + 13
    beta = [rot(0)] + [rot(Fraction(rng.randrange(p), p), {"t": 10**30 * rng.randint(-2, 2)}) for _ in range(7)]
    big = coboundary_twist(trivial_multiplier(dihedral(4)), beta)
    assert big.exponents().array.dtype == object
    out.append(("past int64", big))
    return out


def _moved(sigma, a, b, c, d):
    """The table of sigma with the entry at (a, b) copied to (c, d)."""
    values = [list(row) for row in sigma.to_table().values]
    values[c][d] = values[a][b]
    return TableMultiplier(sigma.group, values)


def _multipliers():
    rng = random.Random(41)
    catalog = finite_catalog()
    products = [(f"product:{name}", ProductMultiplier(s1, s2, f)) for name, s1, s2, f in product_triples()]
    moved = [
        (f"{name} moved {a},{b} to {c},{d}", _moved(sigma, a % n, b % n, c % n, d % n))
        for name, sigma in catalog[::3]
        for n in [sigma.group.order]
        for a, b, c, d in ((1, 2, 2, 1), (n - 1, 1, 1, n - 1), (1, 1, n - 1, n - 2), (2, n - 1, 0, 1))
    ]
    on_abelian = [
        (f"twisted {name}", coboundary_twist(trivial_multiplier(g), random_coboundary(g, rng)))
        for name, g in _abelian_groups(8)
    ]
    return catalog + products + moved + on_abelian + _symbolic_tables()


def test_regular_elements_match_the_differences():
    dtypes = set()
    for name, sigma in _multipliers():
        for s in (sigma, _as_object(sigma)):
            regular = regular_elements(s)
            dtypes.add(s.exponents().array.dtype)
            assert regular.dtype == bool and np.array_equal(regular, regular_elements_ref(s)), name
    assert dtypes == {np.dtype(np.int64), np.dtype(object)}


def test_equal_matches_is_zero_of_differences():
    rng = np.random.default_rng(5)
    for name, sigma in _multipliers()[::5]:
        ex = sigma.exponents()
        entries = ex.array.reshape(-1, ex.array.shape[-1])
        i, j = rng.integers(len(entries), size=(2, 400))
        x, y = entries[i], entries[j]
        assert np.array_equal(ex.equal(x, y), ex.is_zero(x - y)), name
        assert ex.equal(x, x).all(), name


def _report(fn, sigma):
    try:
        report = fn(sigma)
    except ClassInconsistency as exc:
        return "inconsistent", str(exc)
    return (
        report.to_json(),
        report.witness,
        report.condition_k,
        report.regular_element_count,
        report.classes,
        [c for c, f in report.classes if f],
    )


def test_array_report_matches_the_class_report():
    outcomes = set()
    for name, sigma in _multipliers():
        expected = _report(regular_classes_loop, sigma)
        outcomes.add(expected[0] if isinstance(expected[0], str) else expected[2])
        assert _report(regular_classes, sigma) == expected, name
        if not isinstance(expected[0], str):
            report = regular_classes(sigma)
            assert json.dumps(report.to_json()) == json.dumps(expected[0]), name  # the same bytes, key order included
            assert report.flags.dtype == bool and report.sizes.sum() == sigma.group.order, name
    assert outcomes == {"inconsistent", True, False}


def test_f_degeneracy_witness_is_the_failing_class():
    failed = 0
    triples = product_triples() + [("Z8xZ8", trivial_multiplier(cyclic(8)), trivial_multiplier(cyclic(8)), cyclic_bihom(8, 8, 4))]
    for name, s1, s2, f in triples:
        report = f_degeneracy(s1, s2, f)
        sigma = ProductMultiplier(s1, s2, f)
        assert report.nondegenerate == regular_classes(sigma).condition_k, name
        if not report.nondegenerate:
            failed += 1
            witness = report.witness_class
            assert all(type(a) is int for a in witness), name
            assert witness == class_of(sigma.group, witness[0]).members, name
            assert witness != (sigma.group.identity,), name
    assert failed


# -- the invariant -------------------------------------------------------------------


def _stored(seed: int = 53) -> list[tuple[str, Exponents]]:
    """Every kind of stored array: the catalog (compiled families and
    tables), decoded tables (object dtype too, and entries outside [0, 1)),
    coboundary twists, product frames, bihomomorphisms and free-product
    parameters and restriction tables."""
    rng = random.Random(seed)
    out = [(name, sigma.exponents()) for name, sigma in finite_catalog()]
    out += [(name, sigma.exponents()) for name, sigma in _symbolic_tables()]
    for name, sigma in finite_catalog()[::6] + _symbolic_tables()[::3]:
        out.append((f"decoded {name}", decode_multiplier(encode_multiplier(sigma)).exponents()))
    g = symmetric(3)
    spec = {
        "type": "table",
        "group": g.to_json(),
        "values": [[{"rat": f"{rng.randint(-20, 20)}/{rng.choice((1, 2, 3, 6))}"} for _ in range(6)] for _ in range(6)],
    }
    out.append(("decoded out-of-range rats", decode_multiplier(spec).exponents()))
    spec["values"][1][2] = {"rat": f"-{2**70}/{2**64 + 13}", "irr": {"t": "-5/2"}}
    decoded = decode_multiplier(spec).exponents()
    assert decoded.array.dtype == object
    out.append(("decoded object dtype", decoded))
    for name, sigma in finite_catalog()[::5]:
        beta = random_coboundary(sigma.group, rng)
        beta = [x + rot(0, {"t": rng.randint(-3, 3)}) if x else x for x in beta]
        out.append((f"twisted {name}", coboundary_twist(sigma, beta).exponents()))
    for name, s1, s2, f in product_triples():
        out.append((f"product {name}", ProductMultiplier(s1, s2, f).exponents()))
        out.append((f"bihomomorphism {name}", f.exponents))
        D, labels, arrays = one_frame((s1.exponents(), s2.exponents(), f.exponents))
        out += [(f"frame {name}", Exponents(D, labels, a)) for a in arrays]
    tables = [normalize(sigma)[0] for _, sigma in _symbolic_tables()[::3]] + [normalize(klein(3, 1))[0], trivial_multiplier(cyclic(4))]
    for s1, s2 in zip(tables, tables[1:]):
        fp = FreeProductMultiplier(s1, s2)
        out.append(("free product parameters", fp.exponents()))
        out += [("restriction", _restriction_table(fp, g, i).exponents()) for i, g in ((1, fp.fp.g1), (2, fp.fp.g2))]
    return out


def test_stored_slot_zero_lies_in_zero_to_D():
    dtypes = set()
    for name, ex in _stored():
        slot = ex.array[..., 0]
        dtypes.add(ex.array.dtype)
        assert bool((slot >= 0).all()) and bool((slot < ex.D).all()), name
    assert dtypes == {np.dtype(np.int64), np.dtype(object)}
