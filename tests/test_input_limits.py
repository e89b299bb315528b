"""Numbers that are short to spell but out of reach: a --tol whose float
is zero or infinite, a decimal exponent whose power of ten is longer
than ``int()`` reads, and a free product's word length --box above
``io.MAX_ORDER``; and input that cannot be read: bytes that are not
UTF-8, JSON nested deeper than the parser recurses, and products nested
deeper than ``io.MAX_DEPTH``.  Each exits 2 with one stderr line, at
once."""

import json
import sys
import time

import pytest

from twistk.cli import main
from twistk.groups import cyclic
from twistk.io import MAX_DEPTH, MAX_ORDER, SchemaError, encode_multiplier, parse_fraction
from twistk.multipliers import trivial_multiplier
from twistk.torus import _exponent_limit, _ratio

LIMIT = _exponent_limit()


def _exits_2_quickly(argv, capsys, name):
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert code == 2 and out == "", (argv, err)
    assert len(err.splitlines()) == 1 and name in err, err
    assert elapsed < 0.5, elapsed


@pytest.mark.parametrize("tol", ["1e400", "1e-400", "10" + "0" * 400, "1/1" + "0" * 400])
def test_tol_outside_float_range_exits_2(tol, capsys):
    klein = json.dumps({"type": "klein", "n": 2, "k": 1})
    _exits_2_quickly(["center", "--inline", klein, "--tol", tol], capsys, "--tol")


def test_tol_in_float_range_still_runs(capsys):
    klein = json.dumps({"type": "klein", "n": 2, "k": 1})
    assert main(["center", "--inline", klein, "--tol", "1e-300"]) == 0
    assert main(["center", "--inline", klein, "--tol", "1e300"]) in (0, 1)
    capsys.readouterr()


def _table(rat):
    zero = {"rat": "0", "irr": {}}
    return {"type": "table", "group": cyclic(2).to_json(), "values": [[zero, zero], [zero, {"rat": rat, "irr": {}}]]}


def _torus_rat(rat):
    return {"type": "torus", "n": 2, "theta": {"1,2": {"rat": rat}}}


def _torus_irr(c):
    return {"type": "torus", "n": 2, "theta": {"1,2": {"rat": "0", "irr": {"t": c}}}, "basis": ["t"]}


EXPONENTS = ["1e10000000", "1E-10000000", "7.5e+1_0000000", f"1e{LIMIT}", "1e١٠٠٠٠٠"]


@pytest.mark.parametrize("spelling", EXPONENTS)
@pytest.mark.parametrize("where", [_table, _torus_rat, _torus_irr], ids=["table rat", "torus rat", "irr coefficient"])
def test_long_exponents_exit_2(where, spelling, capsys):
    _exits_2_quickly(["condition-k", "--inline", json.dumps(where(spelling))], capsys, "decimal exponent")


def test_exponent_limit_is_the_int_digit_limit():
    assert _ratio(f"1e{LIMIT - 1}") == (10 ** (LIMIT - 1), 1)
    assert _ratio(f"3e-{LIMIT - 1}") == (3, 10 ** (LIMIT - 1))
    assert _ratio("2.5e" + "0" * 40 + "1") == (25, 1)
    assert _ratio(" 1E+0_2 ") == (100, 1)
    for spelling in (f"1e{LIMIT}", f"1e-{LIMIT}", f"0.1e{10 * LIMIT}"):
        with pytest.raises(ValueError, match="decimal exponent"):
            _ratio(spelling)
    with pytest.raises(ValueError, match="decimal exponent"):
        _ratio("1e" + "1" * (LIMIT + 1))


@pytest.mark.parametrize("limit", [0, 5000])
def test_exponent_limit_holds_when_int_limit_is_off_or_raised(limit, monkeypatch):
    # with int()'s digit limit switched off, 4300 still bounds the exponent
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: limit)
    bound = limit or 4300
    assert _exponent_limit() == bound
    assert _ratio(f"1e-{bound - 1}") == (1, 10 ** (bound - 1))
    start = time.perf_counter()
    for spelling in (f"1e{bound}", "1e10000000", "1e" + "0" * (bound + 1)):
        with pytest.raises(ValueError, match="decimal exponent"):
            _ratio(spelling)
    assert time.perf_counter() - start < 0.5


def test_exponent_limit_without_int_limit(monkeypatch):
    # interpreters before Python 3.10.7 have no digit limit to read
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    assert _exponent_limit() == 4300
    assert _ratio("0.5") == (1, 2) and _ratio("1e-8") == (1, 10**8)
    with pytest.raises(ValueError, match="decimal exponent"):
        _ratio("1e10000000")


def test_option_rationals_share_the_limit():
    assert parse_fraction("1e-8") == parse_fraction("1/100000000")
    start = time.perf_counter()
    with pytest.raises(SchemaError, match="decimal exponent"):
        parse_fraction("1e10000000")
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("command", ["validate", "decompose"])
def test_free_product_box_above_max_order_exits_2(command, capsys):
    # Z2 * Z3 with trivial sigma: words, time and memory grow with --box
    factors = {f"sigma{i}": encode_multiplier(trivial_multiplier(cyclic(n))) for i, n in ((1, 2), (2, 3))}
    free = json.dumps({"type": "free_product", **factors})
    _exits_2_quickly([command, "--inline", free, "--box", str(MAX_ORDER + 1)], capsys, "--box")
    assert main([command, "--inline", free, "--box", str(MAX_ORDER), "--fuzz", "1"]) == 0
    capsys.readouterr()


KLEIN = b'{"type": "klein", "n": 2, "k": 1, "note": "\xff"}'


def _nested_products(depth):
    """A direct_product nested ``depth`` deep on trivial factors of order 1,
    which pass every size cap."""
    one = encode_multiplier(trivial_multiplier(cyclic(1)))
    spec = one
    for _ in range(depth):
        spec = {"type": "direct_product", "sigma1": spec, "sigma2": one, "f": {"table": [[{"rat": "0"}]]}}
    return json.dumps(spec).encode()


UNREADABLE = {
    "not UTF-8": (KLEIN, "utf-8"),
    "deep JSON": (b"[" * 200_000, "recursion"),
    "deep products": (_nested_products(700), "MAX_DEPTH"),
    "UTF-8 BOM": (b"\xef\xbb\xbf" + KLEIN.replace(b"\xff", b"x"), "BOM"),
}


@pytest.mark.parametrize("route", ["--input", "--inline"])
@pytest.mark.parametrize("name", UNREADABLE)
def test_unreadable_input_exits_2(name, route, tmp_path, capsys):
    raw, message = UNREADABLE[name]
    if route == "--input":
        path = tmp_path / "input.json"
        path.write_bytes(raw)
        source = str(path)
    else:
        source = raw.decode("utf-8", "surrogateescape")  # as argv delivers bytes
    _exits_2_quickly(["regular-classes", route, source], capsys, message)


def test_products_nested_max_depth_deep_still_run(capsys):
    nested = _nested_products(MAX_DEPTH).decode()
    for command in ("validate", "regular-classes", "condition-k", "f-degeneracy", "center"):
        assert main([command, "--inline", nested]) == 0, command
    capsys.readouterr()
