"""Mutation test of the decode boundary.

Small valid specs of every multiplier type are mutated deterministically:
every key at every depth is dropped, every value is swapped for a bad one,
and whole specs are replaced by scalars.  Each case runs through cli.main;
the outcome must be an exit code in {0, 1, 2} with exactly one stderr line
and no exception escaping.
"""

import copy
import json

import pytest

from twistk.cli import COMMANDS, main
from twistk.groups import cyclic, direct_product

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
