"""``FiniteGroup`` holds only its ``intp`` array until a single lookup is
asked for: the generating set against the numpy search it replaced, the
tuple views built on first use and left unbuilt by the finite decisions,
and the identity and inverse scans on tables that are not groups."""

import gc
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
from catalog import dihedral, finite_catalog, product_triples, quaternion, small_groups, symmetric
from reference import generators_ref

from twistk import cli
from twistk.groups import FiniteGroup, GroupTableError, NoIdentity, cyclic, direct_product
from twistk.io import decode_group, decode_multiplier, encode_multiplier
from twistk.multipliers import klein
from twistk.products import ProductMultiplier


def _relabelled(g: FiniteGroup, rng: random.Random) -> FiniteGroup:
    """The same group with its elements renamed by a random permutation p,
    p(a) p(b) = p(ab), so that the greedy generators differ."""
    p = np.array(rng.sample(range(g.order), g.order))
    table = np.empty_like(g.array)
    table[p[:, None], p[None, :]] = p[g.array]
    return FiniteGroup(table)


def _groups():
    yield from small_groups()
    for name, sigma in finite_catalog():
        yield name, sigma.group
    for name, s1, s2, _ in product_triples():
        yield f"{name} product", direct_product(s1.group, s2.group)
    for n in (2, 3, 5, 8, 16, 32):
        yield f"klein({n},1)", klein(n, 1).group
    yield "D4xQ8", direct_product(dihedral(4), quaternion())
    yield "S4xZ3", direct_product(symmetric(4), cyclic(3))
    yield "Z32xZ32", direct_product(cyclic(32), cyclic(32))
    # the longest breadth-first searches at the size cap, as table inputs
    yield "Z1024 table", decode_group(cyclic(1024).to_json())
    yield "D512 table", decode_group(dihedral(512).to_json())


def test_generators_match_numpy_search():
    rng = random.Random(15)
    count = 0
    for name, g in _groups():
        assert FiniteGroup(g.array).generators() == generators_ref(g), name
        if g.order <= 256:
            h = _relabelled(g, rng)
            assert h.generators() == generators_ref(h), f"{name} relabelled"
        count += 1
    assert count >= 100


def _rat(x: Fraction) -> dict:
    return {"rat": str(x), "irr": {}}


def _specs() -> dict:
    # f pairs the first Z4 coordinates of klein(4,1) x klein(4,1):
    # f((x1, x2), (y1, y2)) = x1 y1 / 4, a bihomomorphism
    pairing = [[_rat(Fraction((a // 4) * (b // 4), 4) % 1) for b in range(16)] for a in range(16)]
    return {
        "klein(16,1)": {"type": "klein", "n": 16, "k": 1},
        "256-element table": encode_multiplier(klein(16, 1).to_table()),
        "256-element product": {
            "type": "direct_product",
            "sigma1": {"type": "klein", "n": 4, "k": 1},
            "sigma2": {"type": "klein", "n": 4, "k": 1},
            "f": {"table": pairing},
        },
    }


SPECS = _specs()
DECISIONS = [
    (command, name)
    for name in SPECS
    for command in ("condition-k", "regular-classes", "f-degeneracy")
    if (command == "f-degeneracy") == (name == "256-element product")
]


def _groups_of(sigma):
    if isinstance(sigma, ProductMultiplier):
        return [sigma.group, sigma.sigma1.group, sigma.sigma2.group]
    return [sigma.group]


@pytest.mark.parametrize("command,name", DECISIONS)
def test_finite_decisions_leave_tuple_views_unbuilt(command, name):
    args = cli._PARSER.parse_args([command, "--inline", "{}"])
    sigma = decode_multiplier(json.loads(json.dumps(SPECS[name])))
    code, report = cli.run(args, sigma)
    assert code == 0 and report["command"] == command
    groups = _groups_of(sigma)
    assert max(g.order for g in groups) == 256 or name == "klein(16,1)"
    for g in groups:
        assert g._table == () and g._inverses == (), (command, name)
    for g in groups:
        t, inverses = g.array.tolist(), g.inverses.tolist()
        n = g.order
        assert [[g.mul(a, b) for b in range(n)] for a in range(n)] == t
        assert [g.inv(a) for a in range(n)] == inverses
        assert all(t[a][inverses[a]] == g.identity == t[inverses[a]][a] for a in range(n))
        assert len(g._table) == len(g._inverses) == n
        assert g.table == tuple(map(tuple, t))


@pytest.mark.parametrize(
    "table",
    [
        [[0, -1], [1, 0]],
        np.array([[0, 1], [1, -2]], dtype=np.intp),
        [[0, 2], [1, 0]],
        [[0, 1], [1]],
        [[0, 2**70], [1, 0]],
        [[0, 1], [1, 0], [0, 1]],
    ],
    ids=["-1", "-2 in an intp array", "n", "ragged", "beyond intp", "not square"],
)
def test_entries_outside_0_to_n_are_refused_before_the_identity_search(table):
    with pytest.raises(GroupTableError, match="not square") as info:
        FiniteGroup(table)
    assert not isinstance(info.value, NoIdentity)


def test_construction_holds_only_the_array():
    g = FiniteGroup([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    assert g._table == () and g._inverses == ()
    assert g.array.dtype == np.intp and g.is_abelian()
    assert g.generators() == (1,) and g._table == ()
    assert not symmetric(3).is_abelian()
    # whichever single lookup comes first builds both views
    s3 = symmetric(3).array
    t = s3.tolist()
    for first in ("mul", "inv", "table"):
        g = FiniteGroup(s3)
        value = {"mul": lambda: g.mul(1, 2), "inv": lambda: g.inv(1), "table": lambda: g.table}[first]()
        assert value == {"mul": t[1][2], "inv": 1, "table": tuple(map(tuple, t))}[first], first
        assert len(g._table) == len(g._inverses) == 6, first


def test_construction_makes_no_object_per_entry():
    # |G| = 1024: the table view's rows are 1024 new tuples, which the
    # collector tracks until a collection finds them holding only ints
    array = dihedral(512).array
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        g = FiniteGroup(array)
        built = len(gc.get_objects()) - before
        assert g._table == ()
        _ = g.table
        viewed = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert built < 64 and viewed >= 1024, (built, viewed)
