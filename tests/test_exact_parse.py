"""The integer parser of exact JSON numbers against ``fractions.Fraction``;
decoding a table without a RotationNumber; conjugacy classes and
``regular_classes`` against the per-class references in ``reference.py``.
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from catalog import cyclic_bihom, finite_catalog, random_normalized_tables, small_groups, symmetric
from reference import _rotations, classes_by_split, compile_values, regular_classes_loop

from twistk.cli import main
from twistk.groups import cyclic, direct_product
from twistk.io import decode_multiplier, encode_multiplier
from twistk.multipliers import TableMultiplier
from twistk.products import ProductMultiplier
from twistk.regularity import ClassInconsistency, regular_classes
from twistk.torus import RotationNumber, _ratio, rot

INPUTS = [
    "1/3", "-2/4", "00/007", "-0", " 1/3", "+1/3", "1_0/3", "0.5", "1e-3", "1/-3", "1/0", "1/00",
    "١/٢", "", "/", "1/", "-", "12345678901234567890123456789012345678901/3", "-" + "7" * 5000,
    "2/" + "3" * 5000, "1/2/3", "1 / 3", "--1", 0.5, True, None, 7, -12, 0,
]


def _fraction(value) -> Fraction:
    """The exact number as the Fraction path read it: a float or a bool
    refused, anything else given to Fraction()."""
    if type(value) in (float, bool):
        raise ValueError(f"exact number must be a string \"p/q\" or an integer, got {value!r}")
    return Fraction(value)


def _outcome(fn, value):
    try:
        return "ok", fn(value)
    except Exception as exc:  # the type and text of a refusal are compared
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("value", INPUTS, ids=repr)
def test_ratio_matches_fraction(value):
    expected = _outcome(_fraction, value)
    got = _outcome(_ratio, value)
    if expected[0] == "ok":
        x = expected[1]
        assert got == ("ok", (x.numerator, x.denominator))
        assert type(got[1][0]) is int and type(got[1][1]) is int
    else:
        assert got == expected


@pytest.mark.parametrize("value", INPUTS, ids=repr)
def test_from_json_matches_fraction(value):
    for data, build in (
        ({"rat": value}, lambda x: RotationNumber(x)),
        ({"rat": "1/5", "irr": {"t": value}}, lambda x: RotationNumber(Fraction(1, 5), {"t": x})),
    ):
        expected = _outcome(_fraction, value)
        got = _outcome(RotationNumber.from_json, data)
        assert got == (("ok", build(expected[1])) if expected[0] == "ok" else expected), data


def _z2_table(entry) -> dict:
    return {"type": "table", "group": cyclic(2).to_json(), "values": [[{"rat": "0"}] * 2, [{"rat": "0"}, entry]]}


def _torus(entry) -> dict:
    return {"type": "torus", "n": 2, "theta": {"1,2": entry}, "basis": ["t"]}


def _run(capsys, spec):
    code = main(["validate", "--inline", json.dumps(spec), "--fuzz", "20", "--box", "2"])
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("value", [v for v in INPUTS if not (type(v) is str and len(v) > 100)], ids=repr)
def test_cli_reads_each_spelling_like_fraction(value, capsys):
    # an accepted spelling answers as its canonical "p/q" does; a refused
    # one exits 2 with the line of the Fraction path's refusal
    expected = _outcome(_fraction, value)
    for wrap in (_z2_table, _torus):
        for entry, canonical in (
            ({"rat": value}, lambda x: {"rat": str(x)}),
            ({"rat": "1/5", "irr": {"t": value}}, lambda x: {"rat": "1/5", "irr": {"t": str(x)}}),
        ):
            got = _run(capsys, wrap(entry))
            if expected[0] == "ok":
                assert got == _run(capsys, wrap(canonical(expected[1]))), entry
            else:
                assert got == (2, "", f"bad job: bad multiplier spec: {expected[0]}: {expected[1]}\n"), entry


# -- decoding makes no RotationNumber ----------------------------------------------


def _specs():
    s3 = symmetric(3)
    values = [[rot(Fraction(a * b, 7), {"t": a - b} if (a + b) % 3 else {}) for b in range(6)] for a in range(6)]
    z2 = TableMultiplier(cyclic(2), [[rot(0), rot(0)], [rot(0), rot("1/2")]])
    z6 = TableMultiplier(cyclic(6), [[rot(0)] * 6 for _ in range(6)])
    return [
        encode_multiplier(TableMultiplier(s3, values)),
        encode_multiplier(ProductMultiplier(z2, z6, cyclic_bihom(2, 6, 1))),
        encode_multiplier(random_normalized_tables(3)[2][1]),
    ]


def _same_grid(tabulated, grid, rows):
    ref = _rotations(rows)
    assert [[tabulated.value(a, b) for b in range(len(ref[0]))] for a in range(len(ref))] == ref
    assert [list(row) for row in grid] == ref


def test_decoding_makes_no_rotation_number(monkeypatch):
    specs = _specs()
    made = []
    post_init = RotationNumber.__post_init__

    def counting(self):
        made.append(1)
        post_init(self)

    monkeypatch.setattr(RotationNumber, "__post_init__", counting)
    decoded = [decode_multiplier(spec) for spec in specs]
    assert made == []
    monkeypatch.undo()
    for spec, sigma in zip(specs, decoded):
        if spec["type"] == "table":
            _same_grid(sigma, sigma.values, spec["values"])
        else:
            _same_grid(sigma.f, sigma.f.table, spec["f"]["table"])
            _same_grid(sigma.sigma1, sigma.sigma1.values, spec["sigma1"]["values"])


def test_unreduced_spellings_compile_like_the_reference():
    # rational parts outside [0, 1) and zero symbol coefficients: slot 0
    # is reduced mod D, and a symbol that is 0 everywhere gets no slot
    grid = [
        [{"rat": "-1/3"}, {"rat": "4/3"}, {"rat": 5}],
        [{"rat": "0", "irr": {"t": "0"}}, {"rat": "2/6", "irr": {"u": "-3/6", "t": 0}}, {"rat": "-7"}],
        [{"rat": "1/3"}, {"irr": {"t": "00/5"}}, {"rat": "-0", "irr": {"u": "4/2"}}],
    ]
    sigma = decode_multiplier({"type": "table", "group": cyclic(3).to_json(), "values": grid})
    ex, ref = sigma.exponents(), compile_values(_rotations(grid))
    assert (ex.D, ex.labels, ex.array.dtype) == (ref.D, ref.labels, ref.array.dtype)
    assert (ex.D, ex.labels) == (6, ("u",))
    assert (ex.array == ref.array).all() and ex.array[..., 0].min() >= 0
    _same_grid(sigma, sigma.values, grid)


# -- conjugacy classes and regular classes --------------------------------------------


def test_classes_match_the_split_reference():
    groups = [g for _, g in small_groups()] + [sigma.group for _, sigma in finite_catalog()]
    groups += [cyclic(1), direct_product(symmetric(3), cyclic(4))]
    for g in groups:
        assert g.conjugacy_classes() == classes_by_split(g)


def _decision(fn, sigma):
    try:
        report = fn(sigma)
    except ClassInconsistency as exc:
        return "inconsistent", str(exc)
    return (report.classes, report.witness, report.regular_element_count), report.to_json(), [c for c, f in report.classes if f]


def _moved(sigma, a, b, c, d):
    """The table of sigma with the entry at (a, b) moved to (c, d)."""
    values = [list(row) for row in sigma.to_table().values]
    values[c][d] = values[a][b]
    return TableMultiplier(sigma.group, values)


def test_regular_classes_match_the_loop():
    for name, sigma in finite_catalog():
        assert _decision(regular_classes, sigma) == _decision(regular_classes_loop, sigma), name


def test_regular_classes_match_the_loop_on_moved_entries():
    verdicts = set()
    for name, sigma in finite_catalog()[::3]:
        n = sigma.group.order
        for a, b, c, d in ((1, 2, 2, 1), (n - 1, 1, 1, n - 1), (1, 1, n - 1, n - 2), (2, n - 1, 0, 1)):
            moved = _moved(sigma, a % n, b % n, c % n, d % n)
            expected = _decision(regular_classes_loop, moved)
            verdicts.add(expected[0] == "inconsistent")
            assert _decision(regular_classes, moved) == expected, (name, a, b, c, d)
    assert verdicts == {True, False}
