"""Torus and g3 parameters decoded straight to compiled rows, against the
``RotationNumber.from_json`` decode in ``reference.py``; decoding and a
whole ``decompose`` job without a RotationNumber; canonical parameter
keys and finite hints in an object at the input boundary, hints that
change no report and no encoding; ``one_frame``; and
``decompose`` in the frame of the multiplier it is given.
"""

import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
from reference import decode_params_ref
from test_golden_reports import JOBS

from twistk.cli import _same_values, main
from twistk.freeprod import decompose, free_product_multiplier
from twistk.groups import cyclic
from twistk.io import SchemaError, decode_multiplier, encode_multiplier
from twistk.lattices import (
    G3Multiplier,
    LatticeMultiplier,
    MuMatrix,
    Theta,
    condition_k_lattice,
    g3_condition_k,
    qtheta_dimension,
)
from twistk.multipliers import (
    Exponents,
    coboundary_twist,
    klein,
    normalize,
    one_frame,
    trivial_multiplier,
    validate,
)
from twistk.torus import RotationNumber, rot


def _golden_specs() -> list[dict]:
    specs = [json.loads(argv[2]) for argv in JOBS.values()]
    return [spec for spec in specs if spec["type"] in ("torus", "g3")]


def _rank32_theta() -> dict:
    rng = random.Random(32)
    theta = {}
    for i in range(1, 33):
        for j in range(i + 1, 33):
            irr = {label: f"{rng.randint(-4, 4)}/{rng.randint(1, 6)}" for label in rng.sample(("t", "u", "v"), 2)}
            theta[f"{i},{j}"] = {"rat": f"{rng.randint(-9, 9)}/{rng.randint(1, 12)}", "irr": irr}
    return {"type": "torus", "n": 32, "theta": theta, "basis": ["v", "t", "u"]}


# integral entries, unreduced spellings, zero coefficients (one of a label
# outside the basis), an unsorted basis with an unused label, hints
SPECS = [
    *_golden_specs(),
    _rank32_theta(),
    {"type": "torus", "n": 1, "theta": {}, "basis": []},
    {"type": "torus", "n": 3, "theta": {"1,2": {"rat": 2}, "2,3": {"rat": "4/2", "irr": {"t": "0"}}}, "basis": ["t"]},
    {
        "type": "torus",
        "n": 3,
        "theta": {
            "2,3": {"rat": "-1/3", "irr": {"t": "2/4"}},
            "1,2": {"rat": "7/3", "irr": {"zz": 0, "u": "-6/4"}},
            "1,3": {"rat": "00/007", "irr": {"t": "-0", "u": 5}},
        },
        "basis": ["u", "w", "t"],
        "hints": {"t": 0.3, "u": 1},
    },
    {"type": "torus", "n": 3, "theta": {"1,3": {"rat": "5/6"}, "1,2": {"rat": -7}, "2,3": {"rat": "2/9"}}, "basis": []},
    {"type": "torus", "n": 3, "theta": {"1,2": {"irr": {"t": 1}}, "1,3": {"irr": {"t": 2}}, "2,3": {"rat": "1/2", "irr": {"t": "-3"}}}, "basis": ["t"]},
    {
        "type": "torus",
        "n": 5,
        "theta": {"4,5": {"rat": "3/4"}, "1,2": {"rat": "-5/10", "irr": {"s": "2/6"}}, "2,4": {"rat": 1, "irr": {"s": 0}}},
        "basis": ["s", "t"],
    },
    {"type": "g3", "mu": {}, "basis": []},
    {
        "type": "g3",
        "mu": {
            "33": {"rat": "-1/4", "irr": {"s": "2/4"}},
            "11": {"rat": 3},
            "22": {"rat": "10/4", "irr": {"t": "0", "s": "-1"}},
            "13": {"rat": "1/6", "irr": {"zz": "0/5"}},
            "21": {"rat": "-0"},
            "32": {"rat": "2/3", "irr": {"t": -2}},
            "12": {"rat": "3/3"},
            "23": {"irr": {"s": "7/5", "t": "1/5"}},
        },
        "basis": ["t", "s", "w"],
        "hints": {"s": 0.5},
    },
    {"type": "g3", "mu": {"22": {"rat": "1/2"}, "13": {"rat": "1/2"}, "11": {"rat": 4}}, "basis": []},
]


def _count_rotation_numbers(monkeypatch) -> list:
    made = []
    post_init = RotationNumber.__post_init__

    def counting(self):
        made.append(1)
        post_init(self)

    monkeypatch.setattr(RotationNumber, "__post_init__", counting)
    return made


def test_decoding_torus_and_g3_makes_no_rotation_number(monkeypatch):
    assert len(_golden_specs()) == 5
    made = _count_rotation_numbers(monkeypatch)
    decoded = [decode_multiplier(spec) for spec in SPECS]
    assert made == []
    monkeypatch.undo()
    assert [type(sigma) for sigma in decoded] == [LatticeMultiplier if s["type"] == "torus" else G3Multiplier for s in SPECS]


def test_decompose_job_makes_no_rotation_number(monkeypatch, capsys):
    z3t = coboundary_twist(trivial_multiplier(cyclic(3)), [rot(0), rot(0, {"t": 1}), rot(0, {"t": -1})])
    symbolic = encode_multiplier(free_product_multiplier(z3t, normalize(klein(2, 1))[0]))
    jobs = [JOBS["decompose-free-product"], ["decompose", "--inline", json.dumps(symbolic), "--fuzz", "60"]]
    made = _count_rotation_numbers(monkeypatch)
    codes = [main(argv) for argv in jobs]
    assert made == []
    monkeypatch.undo()
    assert codes == [0, 0]
    for line in capsys.readouterr().out.splitlines():
        report = json.loads(line)
        assert report["similar"] and report["restrictions_match"]


def _report(argv: list[str], capsys) -> dict:
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, argv
    return json.loads(out)


@pytest.mark.parametrize("index", range(len(SPECS)))
def test_decode_matches_from_json_reference(index, capsys):
    spec = SPECS[index]
    sigma = decode_multiplier(spec)
    ref = decode_params_ref(spec)
    assert encode_multiplier(sigma) == ref.to_json()
    if spec["type"] == "torus":
        rebuilt = LatticeMultiplier(Theta(ref.n, ref.entries, ref.basis))
        if ref.n == 3:
            assert qtheta_dimension(sigma.theta) == ref.qtheta_dimension()
    else:
        rebuilt = G3Multiplier(MuMatrix(ref.mu, ref.basis))
        assert sigma.mu.row_matrix() == ref.row_matrix()
    text = json.dumps(spec)
    if spec["type"] == "torus":
        expected = condition_k_lattice(rebuilt.theta).to_json()
    else:
        expected = g3_condition_k(rebuilt.mu).to_json()
    assert _report(["condition-k", "--inline", text], capsys) == {"command": "condition-k", "seed": 0, **expected}
    report = validate(rebuilt, rng=random.Random(4), triples=60, box=3)
    assert report.ok
    got = _report(["validate", "--inline", text, "--fuzz", "60", "--box", "3", "--seed", "4"], capsys)
    assert got == {"command": "validate", "seed": 4, "ok": True, "checked": 60, "mode": "fuzz", "reason": None, "witness": None}


def _t(rat="1/3", **irr):
    return {"rat": rat, "irr": irr}


# each fails the reference decode; which refusal wins depends on the order
ERRORS = [
    {"type": "torus", "n": 3, "theta": {"1,2": _t(zz="1"), "3,2": _t()}, "basis": []},
    {"type": "torus", "n": 3, "theta": {"3,2": _t(), "1,2": _t(zz="1")}, "basis": []},
    {"type": "torus", "n": 3, "theta": {"1,2": _t(), "3,2": _t(zz="1")}, "basis": []},
    {"type": "torus", "n": 3, "theta": {"1,2": _t(zz="1", aa="2", t="1")}, "basis": ["t"]},
    {"type": "torus", "n": 3, "theta": {"1,4": _t(), "1,2": {"rat": "x"}}, "basis": []},
    {"type": "torus", "n": 3, "theta": {"2,2": _t("1")}, "basis": []},
    {"type": "torus", "n": 0, "theta": {"1,2": _t()}, "basis": []},
    {"type": "torus", "n": 2, "theta": {"1,2": _t(t="1")}, "basis": ["t", "t"]},
    {"type": "g3", "mu": {"44": _t(), "31": _t()}, "basis": []},
    {"type": "g3", "mu": {"11": _t(zz="1"), "44": _t()}, "basis": []},
    {"type": "g3", "mu": {"33": _t(yy="1"), "11": _t(zz="1")}, "basis": []},
    {"type": "g3", "mu": {"00": _t()}, "basis": []},
    {"type": "g3", "mu": {"12": _t(t="0", s="1")}, "basis": ["t"]},
]


@pytest.mark.parametrize("index", range(len(ERRORS)))
def test_decode_errors_match_reference(index):
    spec = ERRORS[index]
    with pytest.raises(ValueError) as ref:
        decode_params_ref(spec)
    with pytest.raises(SchemaError) as got:
        decode_multiplier(spec)
    assert str(got.value) == f"bad multiplier spec: {type(ref.value).__name__}: {ref.value}"


THETA_KEYS = ["01,2", "1,02", "1_0,2", " 1 ,2", "1 ,2", "+1,2", "1,2 ", "1,2\n", "0,1", "1,2,3", "1;2", "١,٢", "1,", ",2",
              "", "1.0,2", "-1,2", "12"]
MU_KEYS = ["١٢", "1", "123", "1_2", " 12", "12 ", "+1", "1a", "12\n", "٠١", "1,2", ""]


def _exits_2(spec, capsys, expected: str) -> None:
    for command in ("validate", "condition-k"):
        assert main([command, "--inline", json.dumps(spec)]) == 2
        err = capsys.readouterr().err
        assert err == f"bad job: {expected}\n"


@pytest.mark.parametrize("key", THETA_KEYS, ids=repr)
def test_noncanonical_theta_key_refused(key, capsys):
    spec = {"type": "torus", "n": 12, "theta": {"1,2": _t(), key: _t("1/5")}, "basis": []}
    _exits_2(spec, capsys, f"bad theta key {key!r}; expected 'i,j'")


@pytest.mark.parametrize("key", MU_KEYS, ids=repr)
def test_noncanonical_mu_key_refused(key, capsys):
    spec = {"type": "g3", "mu": {"12": _t(), key: _t("1/5")}, "basis": []}
    _exits_2(spec, capsys, f"bad mu key {key!r}; expected 'ij'")


def test_canonical_keys_accepted():
    sigma = decode_multiplier({"type": "torus", "n": 12, "theta": {"10,12": _t(), "9,10": _t("1/5")}, "basis": []})
    assert sigma.theta.pairs == ((9, 11), (8, 9))
    mu = decode_multiplier({"type": "g3", "mu": {"32": _t(), "13": _t("1/5")}, "basis": []}).mu
    assert mu.row_matrix()[2][1] == rot("1/3") and mu.row_matrix()[0][2] == rot("1/5")


# JSON texts of hint values; NaN and Infinity are what Python's json reads
BAD_HINTS = ["true", "false", '"nan"', '"0.5"', "null", "[]", "{}", "NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400]
GOOD_HINTS = ["0", "-2", "0.25", "1e300", "1" + "0" * 300]


def _hinted(kind: str, value_text: str) -> str:
    base = {"type": "torus", "n": 2, "theta": {"1,2": _t(t="1")}} if kind == "torus" else {"type": "g3", "mu": {"11": _t(t="1")}}
    return json.dumps({**base, "basis": ["t"], "hints": {"t": "@"}}).replace('"@"', value_text)


@pytest.mark.parametrize("kind", ["torus", "g3"])
@pytest.mark.parametrize("value", BAD_HINTS, ids=lambda v: v[:12])
def test_bad_hint_refused(kind, value, capsys):
    for command in ("validate", "condition-k"):
        assert main([command, "--inline", _hinted(kind, value), "--fuzz", "20"]) == 2
        assert capsys.readouterr().err == "bad job: hint 't' must be a finite number\n"


@pytest.mark.parametrize("kind", ["torus", "g3"])
@pytest.mark.parametrize("value", GOOD_HINTS, ids=lambda v: v[:12])
def test_finite_hint_accepted(kind, value, capsys):
    assert main(["condition-k", "--inline", _hinted(kind, value)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("kind", ["torus", "g3"])
@pytest.mark.parametrize("hints", [[1], [], "t", "", 1, 0.5, None], ids=repr)
def test_hints_not_an_object_refused(kind, hints, capsys):
    text = json.dumps({**json.loads(_hinted(kind, "0")), "hints": hints})
    for command in ("validate", "condition-k"):
        assert main([command, "--inline", text, "--fuzz", "20"]) == 2
        assert capsys.readouterr().err == "bad job: hints must be an object\n"


@pytest.mark.parametrize("index", range(len(SPECS)))
def test_hints_change_no_answer(index, capsys):
    """A spec without hints, with none and with some gives the same report
    bytes and the same encoding, which carries no hints."""
    bare = {key: value for key, value in SPECS[index].items() if key != "hints"}
    spec = encode_multiplier(decode_multiplier(bare))
    assert "hints" not in spec and encode_multiplier(decode_multiplier(spec)) == spec
    hinted = {label: 0.5 + i for i, label in enumerate(bare["basis"])}
    variants = [bare, {**bare, "hints": {}}, {**bare, "hints": hinted}, {**spec, "hints": hinted}]
    assert all(encode_multiplier(decode_multiplier(data)) == spec for data in variants)
    for options in (["condition-k"], ["validate", "--fuzz", "60", "--box", "3", "--seed", "4"]):
        reports = []
        for data in variants:
            assert main([options[0], "--inline", json.dumps(data), *options[1:]]) == 0
            reports.append(capsys.readouterr().out)
        assert len(set(reports)) == 1, options


def _exponents(rng: random.Random, dtype) -> Exponents:
    labels = tuple(sorted(rng.sample(("r", "s", "t", "u"), rng.randint(0, 3))))
    D = rng.choice((1, 2, 6, 35, 2**40))
    big = rng.random() < 0.3  # symbol coefficients that overflow int64 once scaled
    coefficient = (lambda: rng.randint(-2**58, 2**58)) if big else (lambda: rng.randint(-D, D))
    array = np.array([[rng.randrange(D)] + [coefficient() for _ in labels] for _ in range(6)], dtype=dtype)
    return Exponents(D, labels, array.reshape(2, 3, 1 + len(labels)))


def test_one_frame_against_fractions():
    rng = random.Random(3)
    for trial in range(200):
        parts = [_exponents(rng, object if trial % 3 == 0 else np.int64) for _ in range(rng.randint(1, 3))]
        D, labels, arrays = one_frame(parts)
        assert D == math.lcm(*(p.D for p in parts)) and list(labels) == sorted(set().union(*(p.labels for p in parts)))
        bound = sum(int(abs(x).max()) for x in arrays)
        assert len({x.dtype for x in arrays}) == 1
        assert (arrays[0].dtype == object) == (4 * max(D, bound) >= 2**63)
        for part, array in zip(parts, arrays):
            assert array.shape == part.array.shape[:-1] + (1 + len(labels),)
            for x, y in zip(part.array.reshape(-1, 1 + len(part.labels)).tolist(), array.reshape(-1, 1 + len(labels)).tolist()):
                coeffs = dict(zip(part.labels, x[1:]))
                assert Fraction(y[0], D) == Fraction(x[0], part.D)
                assert [Fraction(c, D) for c in y[1:]] == [Fraction(coeffs.get(label, 0), part.D) for label in labels]


def test_decompose_runs_in_the_given_frame():
    z3t = coboundary_twist(trivial_multiplier(cyclic(3)), [rot(0), rot("1/4", {"t": "1/2"}), rot("-1/4", {"t": "-1/2"})])
    for s1, s2 in ((z3t, normalize(klein(2, 1))[0]), (normalize(klein(3, 1))[0], trivial_multiplier(cyclic(2)))):
        sigma = free_product_multiplier(s1, s2)
        result = decompose(sigma, sigma.fp.g1, sigma.fp.g2, max_len=4, pairs=50, rng=random.Random(1))
        frame = (sigma.exponents().D, sigma.exponents().labels)
        for compiled in (result.sigma1.exponents(), result.sigma2.exponents(), result.candidate.exponents()):
            assert (compiled.D, compiled.labels) == frame
        assert _same_values(result.sigma1, s1) and _same_values(result.sigma2, s2)
        assert result.sigma1.values == s1.to_table().values
