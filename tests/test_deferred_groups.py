"""Groups built by ``cyclic`` and ``direct_product`` against the full search.

These constructors make their table and names on first read and know
whether the group is abelian, so ``is_abelian``, ``commuting`` and
``class_layout`` read no table there.  Every view of such a group must
equal that of ``FiniteGroup(g.array, g.names)``, which searches the
identity and inverses and compares the table with its transpose: on
cyclic groups, on Klein groups, and on direct products of catalog and
product-triple factors, nonabelian and relabelled ones among them.
``condition-k`` and ``regular-classes`` on Klein and Z_a x Z_b inputs
never make the table or the names of the product.  A direct_product
input whose second factor repeats the first factor's table and names
proves that table once; any other second factor is decoded on its own.
"""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
from catalog import dihedral, finite_catalog, product_triples, symmetric

from twistk.cli import main
from twistk.groups import FiniteGroup, cyclic, direct_product
from twistk.io import SchemaError, decode_multiplier, encode_multiplier
from twistk.multipliers import klein, trivial_multiplier


def _relabelled(g: FiniteGroup, rng: random.Random) -> FiniteGroup:
    """g with its elements renamed by a random permutation: a table from
    outside, whose identity and inverses are searched."""
    perm = np.array(rng.sample(range(g.order), g.order), dtype=np.intp)
    t = np.empty_like(g.array)
    t[np.ix_(perm, perm)] = perm[g.array]
    return FiniteGroup(t)


def _same_as_the_search(name: str, g: FiniteGroup) -> None:
    """The views that read no table are taken first, while the table and
    the names of a deferred group are still unmade."""
    abelian, mask, (order, starts) = g.is_abelian(), g.commuting(), g.class_layout()
    ref = FiniteGroup(g.array, g.names)
    assert type(g.identity) is int and g.identity == ref.identity, name
    assert g.inverses.dtype == np.intp and np.array_equal(g.inverses, ref.inverses), name
    assert g.array.dtype == np.intp and np.array_equal(g.array, ref.array) and g.names == ref.names, name
    assert abelian == ref.is_abelian() == bool((g.array == g.array.T).all()), name
    assert np.array_equal(mask, ref.commuting()) and np.array_equal(mask, g.array == g.array.T), name
    ref_order, ref_starts = ref.class_layout()
    assert np.array_equal(order, ref_order) and np.array_equal(starts, ref_starts), name
    assert g.array is g.array and g.names is g.names, name  # made once


def test_cyclic_groups_match_the_search():
    for n in range(1, 41):
        g = cyclic(n)
        assert callable(g._array) and callable(g._names) and g._abelian, n
        _same_as_the_search(f"Z{n}", g)


def test_klein_groups_match_the_search():
    for n in range(2, 17):
        for k in range(n):
            _same_as_the_search(f"klein({n},{k})", klein(n, k).group)


def _factors(seed: int = 41) -> list[tuple[str, FiniteGroup]]:
    """The distinct groups of the catalog and of the product triples, a few
    nonabelian ones more, and relabelled copies of some of each."""
    rng = random.Random(seed)
    found = [(name, sigma.group) for name, sigma in finite_catalog()]
    for name, s1, s2, _ in product_triples():
        found += [(f"{name}/1", s1.group), (f"{name}/2", s2.group)]
    found += [("S3", symmetric(3)), ("D4", dihedral(4)), ("D5", dihedral(5))]
    distinct: dict[bytes, tuple[str, FiniteGroup]] = {}
    for name, g in found:
        distinct.setdefault(g.array.tobytes() + bytes([g.order]), (name, g))
    groups = [pair for pair in distinct.values() if pair[1].order <= 16]
    groups += [(f"{name}~", _relabelled(g, rng)) for name, g in rng.sample(groups, 8)]
    return groups


def test_direct_products_match_the_search():
    rng = random.Random(43)
    factors = _factors()
    kinds = set()
    for n1, g1 in factors:
        for n2, g2 in rng.sample(factors, 3):
            h = direct_product(g1, g2)
            assert callable(h._array) and callable(h._names), (n1, n2)
            _same_as_the_search(f"{n1} x {n2}", h)
            kinds.add(h.is_abelian())
        n3, g3 = rng.choice(factors)  # a product with a deferred factor
        _same_as_the_search(f"({n1} x {n3}) x Z3", direct_product(direct_product(g1, g3), cyclic(3)))
    assert kinds == {True, False}


def _cyclic_product(a: int, b: int, num: int) -> dict:
    """Z_a x Z_b as a direct_product input: trivial multipliers on the
    cyclic tables and f(x, y) = num x y / gcd(a, b)."""
    g = np.gcd(a, b)
    f = [[{"rat": str(Fraction(num * x * y, g) % 1)} for y in range(b)] for x in range(a)]
    factors = [encode_multiplier(trivial_multiplier(cyclic(n))) for n in (a, b)]
    return {"type": "direct_product", "sigma1": factors[0], "sigma2": factors[1], "f": {"table": f}}


@pytest.mark.parametrize("spec", [klein(16, 1), klein(16, 4), _cyclic_product(10, 10, 2), _cyclic_product(12, 16, 3)],
                         ids=["klein(16,1)", "klein(16,4)", "Z10xZ10", "Z12xZ16"])
def test_decisions_make_no_table_or_names(spec, monkeypatch, capsys):
    spec = spec if isinstance(spec, dict) else encode_multiplier(spec)
    known = FiniteGroup._known.__func__

    def refused(what):
        return lambda: pytest.fail(f"the {what} of a constructed group was made")

    def watched(cls, order, array, identity, inverses, names, abelian):
        return known(cls, order, refused("table"), identity, inverses, refused("names"), abelian)

    monkeypatch.setattr(FiniteGroup, "_known", classmethod(watched))
    for command in ("condition-k", "regular-classes"):
        assert main([command, "--inline", json.dumps(spec)]) == 0, command
    capsys.readouterr()


def test_a_repeated_factor_table_is_proven_once():
    spec = _cyclic_product(6, 6, 1)
    sigma = decode_multiplier(spec)
    assert sigma.sigma2.group is sigma.sigma1.group
    renamed = json.loads(json.dumps(spec))
    renamed["sigma2"]["group"]["names"] = [f"x{a}" for a in range(6)]
    unnamed = json.loads(json.dumps(spec))  # names given to the first factor only
    unnamed["sigma1"]["group"]["names"] = [f"x{a}" for a in range(6)]
    del unnamed["sigma2"]["group"]["names"]
    for other in (renamed, unnamed):
        sigma = decode_multiplier(other)
        assert sigma.sigma2.group is not sigma.sigma1.group
        assert sigma.sigma2.group.names == tuple(other["sigma2"]["group"].get("names", map(str, range(6))))
    # the second factor's entries and names are checked as if it stood alone
    for path, bad in ((("table", 1), [1, True, 3, 4, 5, 0]), (("table", 2), [2.0, 3, 4, 5, 0, 1]), (("names",), [])):
        broken = json.loads(json.dumps(spec))
        group = broken["sigma2"]["group"]
        for key in path[:-1]:
            group = group[key]
        group[path[-1]] = bad
        with pytest.raises(SchemaError):
            decode_multiplier(broken)
