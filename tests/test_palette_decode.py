"""Differential tests of the input boundary: finite inputs decoded straight
into palette + index + compiled array, against the RotationNumber grid
(``reference._rotations``) and its compile (``reference.compile_values``)
that they replaced; group tables built from arrays against tables built
from lists; compiled-array comparisons (``is_normalized``, the
restriction match of ``decompose``) against RotationNumber loops; and
the cyclic collector left as ``cli.main`` found it on every exit.
"""

import copy
import gc
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
from catalog import finite_catalog, random_coboundary, random_normalized_tables, small_groups, symmetric, trivial_bihom
from reference import _rotations, compile_values

import twistk.cli
import twistk.io
from twistk.cli import _same_values, main
from twistk.freeprod import free_product_multiplier
from twistk.groups import FiniteGroup, GroupTableError, cyclic, direct_product
from twistk.io import SchemaError, decode_multiplier, encode_multiplier
from twistk.multipliers import (
    KleinMultiplier,
    TableMultiplier,
    coboundary_twist,
    klein,
    normalize,
    trivial_multiplier,
)
from twistk.products import ProductMultiplier
from twistk.torus import ZERO, rot


def _same_compiled(ex, ref, what):
    assert (ex.D, ex.labels, ex.array.dtype) == (ref.D, ref.labels, ref.array.dtype), what
    assert np.array_equal(ex.array, ref.array), what


def _same_table(decoded, rows, what):
    """The decoded table against the reference decode of the same grid."""
    ref_rows = _rotations(rows)
    _same_compiled(decoded.exponents(), compile_values(ref_rows), what)
    n = decoded.group.order
    assert [[decoded.value(a, b) for b in range(n)] for a in range(n)] == ref_rows, what


def _check_decode(spec, what):
    sigma = decode_multiplier(spec)
    if spec["type"] == "table":
        _same_table(sigma, spec["values"], what)
    elif spec["type"] == "direct_product":
        f_ref = _rotations(spec["f"]["table"])
        _same_compiled(sigma.f.exponents, compile_values(f_ref), what)
        assert [list(row) for row in sigma.f.table] == f_ref, what
        for factor, key in ((sigma.sigma1, "sigma1"), (sigma.sigma2, "sigma2")):
            if spec[key]["type"] == "table":
                _same_table(factor, spec[key]["values"], what)
    return sigma


def _table_spec(sigma):
    """``encode_multiplier`` of sigma, a Klein multiplier as its table."""
    return encode_multiplier(sigma.to_table() if isinstance(sigma, KleinMultiplier) else sigma)


def test_catalog_tables_decode_like_the_reference():
    for name, sigma in finite_catalog():
        _check_decode(_table_spec(sigma), name)


def _symbol_tables():
    rng = random.Random(11)
    s3 = symmetric(3)
    out = [
        coboundary_twist(trivial_multiplier(s3), [rot(0)] + [rot(Fraction(a, 7), {"t": a}) for a in range(1, 6)]),
        coboundary_twist(klein(3, 1), [rot(0)] + [rot(0, {"t": rng.randint(-3, 3), "u": Fraction(1, 2)}) for _ in range(8)]),
    ]
    p = 2**64 + 13  # the object path
    out.append(coboundary_twist(trivial_multiplier(cyclic(5)), [rot(0)] + [rot(Fraction(rng.randrange(p), p)) for _ in range(4)]))
    for _, group in small_groups():
        out.append(coboundary_twist(trivial_multiplier(group), random_coboundary(group, rng)))
    return out


def test_symbol_and_coboundary_tables_decode_like_the_reference():
    tables = _symbol_tables()
    assert any(t.exponents().labels for t in tables) and any(t.exponents().array.dtype == object for t in tables)
    for i, sigma in enumerate(tables):
        _check_decode(_table_spec(sigma), i)


def _grids(spec):
    """The entry grids of a table or direct_product spec, its factors' too."""
    if spec["type"] == "table":
        yield spec["values"]
    elif spec["type"] == "direct_product":
        yield spec["f"]["table"]
        yield from _grids(spec["sigma1"])
        yield from _grids(spec["sigma2"])


def _respell(spec, rng):
    """The same values spelled in every accepted way: an integer "rat"
    for a whole number, "rat" or "irr" left out when zero or empty, an
    integer symbol coefficient, entries in either key order."""
    out = copy.deepcopy(spec)
    for row in (row for grid in _grids(out) for row in grid):
        for j, entry in enumerate(row):
            entry = dict(entry)
            if entry.get("rat") == "0" and rng.random() < 0.5:
                entry["rat"] = 0
            if entry.get("rat") in ("0", 0) and rng.random() < 0.3:
                del entry["rat"]
            if entry.get("irr") == {} and rng.random() < 0.5:
                del entry["irr"]
            elif entry.get("irr"):
                entry["irr"] = {k: int(c) if Fraction(c).denominator == 1 and rng.random() < 0.5 else c
                                for k, c in entry["irr"].items()}
            if rng.random() < 0.5:
                entry = dict(reversed(list(entry.items())))
            row[j] = entry
    return out


def test_respelled_tables_decode_like_the_reference():
    # mixed integer and string "rat", missing keys: the typed key where the
    # "rat"-only key does not apply, and both decodes agree entry by entry
    rng = random.Random(5)
    cases = [_table_spec(sigma) for _, sigma in finite_catalog()[::7]] + [_table_spec(t) for t in _symbol_tables()]
    for i, spec in enumerate(cases):
        for _ in range(3):
            _check_decode(_respell(spec, rng), i)


def _parsed(monkeypatch):
    """The entries ``io`` passes to ``parse_exponent`` from now on."""
    parsed = []
    parse = twistk.io.parse_exponent
    monkeypatch.setattr(twistk.io, "parse_exponent", lambda entry: parsed.append(entry) or parse(entry))
    return parsed


def test_palette_is_one_entry_per_distinct_content(monkeypatch):
    spec = _table_spec(klein(16, 1))
    parsed = _parsed(monkeypatch)
    sigma = decode_multiplier(spec)
    assert len(parsed) == 16
    assert sigma.exponents().array.shape == (256, 256, 1)


def test_integer_and_string_rat_do_not_share_a_palette_entry(monkeypatch):
    values = [[{"rat": 0}, {"rat": "0"}], [{"rat": "0", "irr": {}}, {"rat": 1, "irr": {}}]]
    parsed = _parsed(monkeypatch)
    sigma = decode_multiplier({"type": "table", "group": cyclic(2).to_json(), "values": values})
    # keys 0, "0" and 1: three palette entries, all the value 1
    assert len(parsed) == 3 and all(sigma.value(a, b) == ZERO for a in range(2) for b in range(2))


@pytest.mark.parametrize("bad", [{"rat": 1.0}, {"rat": True}, {"rat": 1, "irr": {"t": 1.0}}, {"rat": 1, "irr": None}])
@pytest.mark.parametrize("where", [0, 1, 3])
def test_inexact_entry_before_or_among_equal_integers_refused(bad, where):
    # 1.0 and true hash like 1: whichever entry of a key the palette keeps,
    # every entry is checked
    values = [{"rat": 1}] * 4
    values[where] = bad
    with pytest.raises(SchemaError, match="exact number|bad multiplier spec"):
        decode_multiplier({"type": "table", "group": cyclic(2).to_json(), "values": [values[:2], values[2:]]})


@pytest.mark.parametrize("values", [
    [[{"rat": "0"}, {"rat": "0"}]],                            # one row
    [[{"rat": "0"}], [{"rat": "0"}]],                          # one column
    [[{"rat": "0"}, {"rat": "0"}], [{"rat": "0"}]],            # ragged
    [[{"rat": "0"}, {"rat": "0"}], [{"rat": "0"}, [0, 1]]],    # an entry that is not an object
    {"a": 1, "b": 2},
    "ab",
])
def test_misshapen_grids_refused(values):
    with pytest.raises(SchemaError):
        decode_multiplier({"type": "table", "group": cyclic(2).to_json(), "values": values})


def test_trivial_multiplier_is_an_array_of_zeros():
    g = symmetric(3)
    sigma = trivial_multiplier(g)
    ex = sigma.exponents()
    assert (ex.D, ex.labels, ex.array.shape) == (1, (), (6, 6, 1)) and not ex.array.any()
    assert sigma.values == tuple((ZERO,) * 6 for _ in range(6))


# -- groups from arrays ---------------------------------------------------------


def _groups():
    out = [(name, g) for name, g in small_groups()]
    out += [(name, sigma.group) for name, sigma in finite_catalog()[::5]]
    out += [("Z1", cyclic(1)), ("Z16xZ16", direct_product(cyclic(16), cyclic(16)))]
    return out


def test_group_from_array_matches_group_from_lists():
    for name, g in _groups():
        rows = [list(row) for row in g.table]
        from_lists, from_array = FiniteGroup(rows, g.names), FiniteGroup(np.array(rows, dtype=np.intp), g.names)
        for h in (from_lists, from_array):
            assert h.array.dtype == np.intp and np.array_equal(h.array, from_lists.array), name
            assert h.table == tuple(map(tuple, rows)) and all(type(x) is int for x in h.table[-1]), name
            assert h.identity == from_lists.identity, name
            assert [h.inv(a) for a in h.elements()] == [from_lists.inv(a) for a in h.elements()], name
            assert np.array_equal(h.inverses, from_lists.inverses), name
            assert h.conjugacy_classes() == from_lists.conjugacy_classes(), name
            assert h.generators() == from_lists.generators(), name


def test_constructed_groups_match_their_list_tables():
    for n in (1, 2, 5, 12):
        g = cyclic(n)
        assert g.table == tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    g1, g2 = symmetric(3), cyclic(4)
    p = direct_product(g1, g2)
    expected = [[g1.mul(a // 4, b // 4) * 4 + g2.mul(a % 4, b % 4) for b in range(24)] for a in range(24)]
    assert p.table == tuple(map(tuple, expected)) and p.array.dtype == np.intp


@pytest.mark.parametrize("table", [
    [[0, 1], [1]],
    [[0, 1], [1, 0, 1]],
    [[0, 1], [1, 2]],
    [[0, -1], [1, 0]],
    [[0, 2**64], [1, 0]],
    [[0, 2**63], [1, 0]],
    [[0, -(2**64)], [1, 0]],
    np.zeros((2, 3), dtype=np.intp),
    np.zeros((2, 2, 1), dtype=np.intp),
    np.array([[0, 5], [1, 0]], dtype=np.intp),
])
def test_misshapen_group_tables_refused(table):
    with pytest.raises(GroupTableError, match="not square"):
        FiniteGroup(table)


# -- comparisons on compiled arrays -------------------------------------------------


def _is_normalized_loop(sigma):
    g = sigma.group
    return all(sigma.value(a, g.inv(a)).is_integral() for a in g.elements())


def test_is_normalized_matches_the_value_loop():
    cases = finite_catalog() + [(str(i), t) for i, t in enumerate(_symbol_tables())]
    cases += [(f"normalized {name}", normalize(sigma)[0]) for name, sigma in finite_catalog()[::4]]
    verdicts = set()
    for name, sigma in cases:
        verdicts.add(sigma.is_normalized())
        assert sigma.is_normalized() == _is_normalized_loop(sigma), name
    assert verdicts == {True, False}


def test_same_values_matches_rotation_number_equality():
    tables = [sigma for _, sigma in random_normalized_tables(8)] + _symbol_tables()
    rng = random.Random(3)
    pairs = []
    for sigma in tables:
        g = sigma.group
        pairs.append((sigma, sigma.to_table()))
        pairs.append((sigma, TableMultiplier(g, [list(row) for row in sigma.to_table().values])))
        pairs.append((sigma, coboundary_twist(sigma, random_coboundary(g, rng))))
        pairs.append((sigma, trivial_multiplier(g)))
        beta = [ZERO] * g.order
        beta[-1] = rot(0, {"t": 1})  # equal rational parts, a symbol apart
        pairs.append((sigma, coboundary_twist(sigma, beta)))
    pairs += [(klein(n, k), klein(n, k).to_table()) for n, k in ((2, 1), (4, 2), (6, 5))]
    pairs += [(klein(4, 2), klein(4, 1)), (klein(4, 1), klein(4, 3))]
    verdicts = set()
    for s, t in pairs:
        expected = s.to_table().values == t.to_table().values
        verdicts.add(expected)
        assert _same_values(s, t) == expected
        assert _same_values(t, s) == expected
    assert verdicts == {True, False}


def test_decompose_restrictions_match_on_factor_tables(capsys):
    for name, sigma in random_normalized_tables(6)[:3]:
        other = random_normalized_tables(6)[3][1]
        fp = free_product_multiplier(sigma, other)
        spec = encode_multiplier(fp)
        assert main(["decompose", "--inline", json.dumps(spec), "--fuzz", "50", "--seed", "2"]) == 0, name
        assert json.loads(capsys.readouterr().out)["restrictions_match"] is True, name


# -- the collector pause ------------------------------------------------------------------

_Z2_TABLE = {"type": "table", "group": cyclic(2).to_json(), "values": [[{"rat": "0"}] * 2, [{"rat": "0"}, {"rat": "1/2"}]]}
_BROKEN = {"type": "table", "group": cyclic(2).to_json(), "values": [[{"rat": "0"}] * 2, [{"rat": "1/3"}, {"rat": "0"}]]}


def _exits(tmp_path):
    """(argv, expected exit code): 0, 1, the input errors and the job errors."""
    missing = str(tmp_path / "missing.json")
    return [
        (["validate", "--inline", json.dumps(_Z2_TABLE)], 0),
        (["validate", "--inline", json.dumps(_BROKEN)], 1),
        (["validate", "--inline", "{not json"], 2),
        (["validate", "--input", missing], 2),
        (["validate", "--inline", json.dumps({"type": "nope"})], 2),
        (["validate", "--inline", json.dumps(_Z2_TABLE), "--tol", "0"], 2),
        (["center", "--inline", json.dumps({"type": "torus", "n": 2, "theta": {}, "basis": []})], 2),
    ]


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_it_found_it(enabled, capsys, monkeypatch, tmp_path):
    was = gc.isenabled()
    try:
        for argv, code in _exits(tmp_path):
            gc.enable() if enabled else gc.disable()
            assert main(argv) == code, argv
            assert gc.isenabled() is enabled, argv
            capsys.readouterr()

        def raising(data):
            raise RuntimeError("decode failed")

        monkeypatch.setattr(twistk.cli, "decode_multiplier", raising)
        gc.enable() if enabled else gc.disable()
        with pytest.raises(RuntimeError, match="decode failed"):
            main(["validate", "--inline", json.dumps(_Z2_TABLE)])
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()


def test_collector_is_paused_while_decoding(capsys, monkeypatch):
    seen = []
    decode = twistk.cli.decode_multiplier

    def spying(data):
        seen.append(gc.isenabled())
        return decode(data)

    monkeypatch.setattr(twistk.cli, "decode_multiplier", spying)
    assert gc.isenabled()
    assert main(["validate", "--inline", json.dumps(_Z2_TABLE)]) == 0
    assert seen == [False] and gc.isenabled()
    capsys.readouterr()


def test_one_decode_per_job_through_the_module_global(capsys, monkeypatch):
    # the traced benchmark run swaps twistk.cli.decode_multiplier to time
    # the decode; main must reach it through the module, once per job
    calls = []
    decode = twistk.cli.decode_multiplier

    def counting(data):
        calls.append(data)
        return decode(data)

    monkeypatch.setattr(twistk.cli, "decode_multiplier", counting)
    z2, k2 = trivial_multiplier(cyclic(2)), klein(2, 1)
    product = ProductMultiplier(z2, k2, trivial_bihom(z2.group, k2.group))
    jobs = [
        ("validate", _Z2_TABLE),
        ("condition-k", _Z2_TABLE),
        ("regular-classes", encode_multiplier(klein(3, 1))),
        ("center", encode_multiplier(klein(2, 1))),
        ("f-degeneracy", encode_multiplier(product)),
        ("decompose", encode_multiplier(free_product_multiplier(trivial_multiplier(cyclic(2)), trivial_multiplier(cyclic(3))))),
    ]
    for command, spec in jobs:
        before = len(calls)
        assert main([command, "--inline", json.dumps(spec), "--fuzz", "20"]) in (0, 1), command
        assert len(calls) == before + 1, command
        capsys.readouterr()
