"""Mutation test of the decode boundary.

Small valid specs of every multiplier type are mutated deterministically:
every key at every depth is dropped, every value is swapped for a bad one,
and whole specs are replaced by scalars.  Each case runs through cli.main;
the outcome must be an exit code in {0, 1, 2} with exactly one stderr line
and no exception escaping.  Deterministic cases pin exit 2 for numbers
that are not JSON integers, for exact numbers given as JSON floats or
bools, for ``names`` and ``basis`` that are not lists of strings, for
non-associative tables in every slot where a group table enters, for
out-of-range --tol / --fuzz / --box, and for specs above the size cap
io.MAX_ORDER.
"""

import copy
import json
import time

import pytest

from twistk.cli import COMMANDS, main
from twistk.groups import cyclic, direct_product
from twistk.io import MAX_ORDER

BAD_VALUES = (None, "x", [], {}, -1, "1/0")


def _rot(rat="0", **irr):
    return {"rat": rat, "irr": irr}


def _z2_trivial():
    return {"type": "trivial", "group": cyclic(2).to_json()}


SPECS = {
    "klein": {"type": "klein", "n": 2, "k": 1},
    "table": {
        "type": "table",
        "group": cyclic(2).to_json(),
        "values": [[_rot(), _rot()], [_rot(), _rot("1/2")]],
    },
    "trivial": {"type": "trivial", "group": direct_product(cyclic(2), cyclic(2)).to_json()},
    "direct_product": {
        "type": "direct_product",
        "sigma1": _z2_trivial(),
        "sigma2": _z2_trivial(),
        "f": {"table": [[_rot(), _rot()], [_rot(), _rot("1/2")]]},
    },
    "torus": {
        "type": "torus",
        "n": 2,
        "theta": {"1,2": _rot("1/3", t="1")},
        "basis": ["t"],
        "hints": {"t": 0.25},
    },
    "g3": {"type": "g3", "mu": {"11": _rot("1/2"), "13": _rot(s="1")}, "basis": ["s"]},
    "free_product": {"type": "free_product", "sigma1": _z2_trivial(), "sigma2": _z2_trivial()},
}


def _paths(node, prefix=()):
    """Every (container path, key) pair below node, dict keys and list indices alike."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix, key
        yield from _paths(child, prefix + (key,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


def mutations(spec):
    for path, key in _paths(spec):
        if isinstance(_at(spec, path), dict):
            dropped = copy.deepcopy(spec)
            del _at(dropped, path)[key]
            yield dropped
        for bad in BAD_VALUES:
            swapped = copy.deepcopy(spec)
            _at(swapped, path)[key] = bad
            yield swapped
    yield from (5, "x", None, [], 1.5)


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_mutated_specs_exit_cleanly(kind, capsys):
    for i, data in enumerate(mutations(SPECS[kind])):
        command = COMMANDS[i % len(COMMANDS)]
        argv = [command, "--inline", json.dumps(data), "--fuzz", "20", "--box", "2"]
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2), argv
        assert len(err.splitlines()) == 1, (argv, err)


def test_valid_specs_decode(capsys):
    for kind, data in SPECS.items():
        assert main(["validate", "--inline", json.dumps(data), "--fuzz", "20", "--box", "2"]) == 0, kind
        capsys.readouterr()


def _exits_2_naming(argv, capsys, name):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and out == "", argv
    assert len(err.splitlines()) == 1 and name in err, (argv, err)


def _z2_table(a, b, c, d):
    return {"type": "trivial", "group": {"table": [[a, b], [c, d]]}}


NON_INTEGER = {
    "table entry float": _z2_table(0, 1.9, 1.2, 0),
    "table entry integral float": _z2_table(0, 1.0, 1, 0),
    "table entry bool": _z2_table(False, True, True, False),
    "table entry string": _z2_table(0, "1", 1, 0),
    "klein n float": {"type": "klein", "n": 3.9, "k": 1},
    "klein k float": {"type": "klein", "n": 3, "k": 1.0},
    "klein n bool": {"type": "klein", "n": True, "k": 0},
    "klein k string": {"type": "klein", "n": 3, "k": "1"},
    "torus n float": {"type": "torus", "n": 2.7, "theta": {"1,2": _rot("1/3")}, "basis": []},
    "torus n bool": {"type": "torus", "n": True, "theta": {}, "basis": []},
}


@pytest.mark.parametrize("case", sorted(NON_INTEGER))
def test_non_integer_numbers_refused(case, capsys):
    # int() would read 1.9 as 1, 3.9 as 3 and True as 1
    for command in COMMANDS:
        argv = [command, "--inline", json.dumps(NON_INTEGER[case]), "--fuzz", "20", "--box", "2"]
        _exits_2_naming(argv, capsys, "integer")


def test_table_entry_beyond_int64_refused(capsys):
    # a group table is held as an intp array; an entry outside its range is
    # a bad table, not an escaped OverflowError
    for entry in (2**64, -(2**64)):
        for command in COMMANDS:
            argv = [command, "--inline", json.dumps(_z2_table(0, entry, 1, 0)), "--fuzz", "20", "--box", "2"]
            _exits_2_naming(argv, capsys, "not square")


def _z2_values(*entries):
    return {"type": "table", "group": cyclic(2).to_json(), "values": [list(entries[:2]), list(entries[2:])]}


ONE = {"rat": 1}  # the JSON integer 1, the circle value 1

# Fraction() reads 0.1 as 3602879701896397/2^55 and true as 1; the dedupe of
# equal table entries must not let 1.0 or true share the entry of a 1
INEXACT = {
    "table rat float": _z2_values(_rot(), _rot(), _rot(), {"rat": 0.1}),
    "table rat bool": _z2_values(_rot(), _rot(), _rot(), {"rat": True}),
    "table irr float": _z2_values(_rot(), _rot(), _rot(), {"rat": "1/2", "irr": {"t": 0.5}}),
    "table 1.0 after 1": _z2_values(ONE, ONE, ONE, {"rat": 1.0}),
    "table true after 1": _z2_values(ONE, ONE, ONE, {"rat": True}),
    "table irr 1.0 after 1": _z2_values({"rat": 0, "irr": {"t": 1}}, _rot(), _rot(), {"rat": 0, "irr": {"t": 1.0}}),
    "f rat float": {**SPECS["direct_product"], "f": {"table": [[_rot(), _rot()], [_rot(), {"rat": 0.5}]]}},
    "torus theta float": {**SPECS["torus"], "theta": {"1,2": {"rat": 0.25}}},
    "torus theta irr bool": {**SPECS["torus"], "theta": {"1,2": {"rat": "1/3", "irr": {"t": True}}}},
    "g3 mu float": {**SPECS["g3"], "mu": {"11": {"rat": 0.5}}},
    "g3 mu irr float": {**SPECS["g3"], "mu": {"13": {"rat": "0", "irr": {"s": 1.5}}}},
}


@pytest.mark.parametrize("case", sorted(INEXACT))
def test_inexact_numbers_refused(case, capsys):
    for command in COMMANDS:
        argv = [command, "--inline", json.dumps(INEXACT[case]), "--fuzz", "20", "--box", "2"]
        _exits_2_naming(argv, capsys, "exact number")


def test_integer_exact_numbers_accepted(capsys):
    assert main(["validate", "--inline", json.dumps(_z2_values(ONE, ONE, ONE, ONE))]) == 0
    assert main(["validate", "--inline", json.dumps(_z2_values(_rot(), _rot(), _rot(), {"rat": 1, "irr": {"t": 2}}))]) == 0
    capsys.readouterr()


def test_malformed_entry_after_an_equal_valid_one_refused(capsys):
    # a cached {"irr": {}} must not stand in for {"irr": null} with the same rat
    data = _z2_values({"rat": "0", "irr": {}}, _rot(), _rot(), {"rat": "0", "irr": None})
    for command in COMMANDS:
        _exits_2_naming([command, "--inline", json.dumps(data), "--fuzz", "20", "--box", "2"], capsys, "bad multiplier spec")


@pytest.mark.parametrize("names", ["ab", {"a": 0, "b": 1}, ["a", 1], 5, None])
def test_names_not_a_list_of_strings_refused(names, capsys):
    # a string or a dict would be iterated into names, 1 turned into "1"
    data = {"type": "trivial", "group": {"table": [[0, 1], [1, 0]], "names": names}}
    for command in COMMANDS:
        _exits_2_naming([command, "--inline", json.dumps(data), "--fuzz", "20", "--box", "2"], capsys, "names")


@pytest.mark.parametrize("basis", ["tu", {"t": 1, "u": 2}, ["t", 1], 5, None])
@pytest.mark.parametrize("kind", ["torus", "g3"])
def test_basis_not_a_list_of_strings_refused(kind, basis, capsys):
    # a string or a dict would be iterated into labels: "tu" into t and u,
    # a dict into its keys
    data = dict(SPECS[kind], basis=basis)
    if kind == "g3":
        data["mu"] = {"11": _rot("1/2"), "13": _rot(t="1")}
    for command in COMMANDS:
        _exits_2_naming([command, "--inline", json.dumps(data), "--fuzz", "20", "--box", "2"], capsys, "basis")


# the order-5 loop of test_build_rejects_nonassociative: a Latin square with
# an identity and two-sided inverses that is not associative
LOOP = {"table": [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]}


def _outside_loop_specs():
    loop_trivial = {"type": "trivial", "group": LOOP}
    yield {"type": "table", "group": LOOP, "values": [[_rot()] * 5 for _ in range(5)]}
    yield loop_trivial
    zeros = [[_rot()] * 2 for _ in range(5)]
    yield {"type": "direct_product", "sigma1": loop_trivial, "sigma2": _z2_trivial(), "f": {"table": zeros}}
    yield {"type": "direct_product", "sigma1": _z2_trivial(), "sigma2": loop_trivial,
           "f": {"table": [list(row) for row in zip(*zeros)]}}
    yield {"type": "free_product", "sigma1": loop_trivial, "sigma2": _z2_trivial()}
    yield {"type": "free_product", "sigma1": _z2_trivial(), "sigma2": loop_trivial}


def test_every_outside_table_is_proven(capsys):
    for data in _outside_loop_specs():
        for command in COMMANDS:
            argv = [command, "--inline", json.dumps(data), "--fuzz", "20", "--box", "2"]
            _exits_2_naming(argv, capsys, "NotAssociative")


# unchecked, these answer "yes" without evidence (--fuzz 0), refuse as
# ill-conditioned (--tol 0) or raise ValueError from randrange (--box -1)
OUT_OF_RANGE = {
    "box -1 torus": ("validate", "torus", ["--box", "-1"]),
    "box -1 g3": ("validate", "g3", ["--box", "-1"]),
    "box -1 free product": ("validate", "free_product", ["--box", "-1"]),
    "box 0 torus": ("validate", "torus", ["--box", "0"]),
    "fuzz 0 validate": ("validate", "torus", ["--fuzz", "0"]),
    "fuzz -5 validate": ("validate", "g3", ["--fuzz", "-5"]),
    "fuzz 0 decompose": ("decompose", "free_product", ["--fuzz", "0"]),
    "tol 0": ("center", "klein", ["--tol", "0"]),
    "tol -1/2": ("center", "klein", ["--tol=-1/2"]),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
def test_out_of_range_options_refused(case, capsys):
    command, kind, options = OUT_OF_RANGE[case]
    option = options[0].split("=")[0]
    _exits_2_naming([command, "--inline", json.dumps(SPECS[kind]), *options], capsys, option)


def _zero_table(rows, cols):
    return [[_rot()] * cols for _ in range(rows)]


# tiny specs that ask for a table or matrix just above MAX_ORDER on a side
# (klein 1089^2 table, 1025 x 1025 torus matrix, 1296^2 product table);
# small enough that a decoder without the cap answers them in seconds
OVERSIZED = {
    "klein n=33": ("condition-k", {"type": "klein", "n": 33, "k": 1}),
    "torus n=1025": ("condition-k", {"type": "torus", "n": 1025, "theta": {}, "basis": []}),
    "direct product 36x36": (
        "f-degeneracy",
        {
            "type": "direct_product",
            "sigma1": {"type": "klein", "n": 6, "k": 1},
            "sigma2": {"type": "klein", "n": 6, "k": 1},
            "f": {"table": _zero_table(36, 36)},
        },
    ),
}


@pytest.mark.parametrize("case", sorted(OVERSIZED))
def test_oversized_specs_refused(case, capsys):
    command, data = OVERSIZED[case]
    _exits_2_naming([command, "--inline", json.dumps(data)], capsys, "MAX_ORDER")


def test_largest_klein_still_answered(capsys):
    assert 32 * 32 == MAX_ORDER
    assert main(["condition-k", "--inline", json.dumps({"type": "klein", "n": 32, "k": 1})]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["condition_k"] is True and len(err.splitlines()) == 1


def test_largest_klein_validated_promptly(capsys):
    # the generating-set proof covers all 1024^3 triples; the exhaustive
    # scan it replaced took about 20 s on a 2-vCPU host
    start = time.perf_counter()
    assert main(["validate", "--inline", json.dumps({"type": "klein", "n": 32, "k": 1})]) == 0
    assert time.perf_counter() - start < 5
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert (report["ok"], report["checked"], report["mode"]) == (True, MAX_ORDER**3, "exhaustive")
    assert len(err.splitlines()) == 1


def test_largest_table_group_decodes(capsys):
    # Z32 x Z32 as a JSON table, |G| = MAX_ORDER: the exhaustive |G|^3
    # associativity scan took about 9 s on a 2-vCPU host, Light's test on
    # the two generators takes well under a second
    group = direct_product(cyclic(32), cyclic(32))
    assert group.order == MAX_ORDER
    spec = json.dumps({"type": "trivial", "group": group.to_json()})
    start = time.perf_counter()
    assert main(["condition-k", "--inline", spec]) == 0
    assert time.perf_counter() - start < 5
    out, err = capsys.readouterr()
    # sigma = 1 makes every class regular, so condition K fails
    assert json.loads(out)["condition_k"] is False and len(err.splitlines()) == 1
