"""Report bytes pinned as a differential test against the older code path.

One CLI job per command on inputs from tests/catalog.py, plus the
lattice condition-K jobs whose witness comes from the integer kernel (one
with an unsorted basis and a declared label that no entry uses) and the
fuzz validation of the torus, g3 and free-product families.
GOLDEN holds each job's exit code and the SHA-256 of its stdout as the
code gave them before the Gauss-Jordan helpers, the second
regular-representation builder and the per-field decode handlers were
removed (the last four entries: before the infinite families were
compiled to integer exponent vectors); the current code must reproduce
them byte for byte.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from catalog import klein_catalog, product_triples, random_normalized_tables

from twistk.cli import main
from twistk.io import encode_multiplier
from twistk.products import ProductMultiplier

GOLDEN = {
    "validate-table": (0, "92dcd94d0b382b449728aee8ab0fa3e6e7d8b1d2cc37aa1769cc82041b3efde9"),
    "condition-k-product": (0, "c683bb868fa51d88f08616cd1ed0dcd2443681f80d3aa246a8323ae985b9c646"),
    "center-klein": (0, "eff57aecc52d096ed4d40aacafd128391ea9fcb369ffd3075ee382f05e0f0dd1"),
    "center-table": (0, "122d3b8856cd2999eedfbd4c49d8fba9ecd7863ec235ba0f88d42c1dcc39ba03"),
    "regular-classes-table": (0, "3c5c325ac5fad81c8d8dcbc8185be5bbe4bb4634a8f3e99f752f30b53e671f3e"),
    "f-degeneracy-product": (0, "c75119952cde0e55624d004be1630f68cbcbc68a53b347cb4656f57d9a264c91"),
    "decompose-free-product": (0, "3ce8c74846190353ac77d16044b49cd623f4c2b0e381b9b610b4cecb06923c09"),
    "condition-k-torus": (0, "ff5d4af542fd0a45fa9c4991b8882b19f4ba25fd5b8256aecb4cc9f5e8cf0753"),
    "condition-k-g3": (0, "c3ba8cd5dc9cb72aae6accbf8d8b7169297d0886bc426e00a60c47e82535f6af"),
    # recorded before the torus, g3 and free-product multipliers were compiled
    # to integer exponent vectors
    "validate-torus": (0, "4bc004ea189865313ad8cec0f0b23521937a09fafc72c5e096734700bad0b9f9"),
    "validate-g3": (0, "4bc004ea189865313ad8cec0f0b23521937a09fafc72c5e096734700bad0b9f9"),
    "validate-free-product": (0, "349fdaf3d6a27c5493b0e990c95586490378a9333f89cfc09f16d92e3c80f237"),
    "condition-k-torus-unsorted-basis": (0, "45a84a86257d68e466f735807958c358e989653ae4aa53bdbb139daf37becbf5"),
}


def _jobs() -> dict[str, list[str]]:
    kleins = dict(klein_catalog())
    tables = random_normalized_tables()
    _, s1, s2, f = product_triples()[7]
    product = encode_multiplier(ProductMultiplier(s1, s2, f))
    free = {"type": "free_product", "sigma1": encode_multiplier(tables[0][1]), "sigma2": encode_multiplier(tables[1][1])}
    torus = {
        "type": "torus",
        "n": 4,
        "theta": {"1,2": {"rat": "1/3", "irr": {"t": "1"}}, "1,3": {"rat": "2/5", "irr": {"t": "1"}}, "2,4": {"rat": "1/2", "irr": {}}},
        "basis": ["t"],
    }
    g3 = {"type": "g3", "mu": {"11": {"rat": "1/4", "irr": {}}, "13": {"rat": "1/6", "irr": {"s": "1"}}, "22": {"rat": "0", "irr": {"s": "1"}}}, "basis": ["s"]}
    torus8 = {
        "type": "torus",
        "n": 8,
        "theta": {f"{i},{j}": {"rat": f"{i}/{j + 2}", "irr": {"t": str(j - i)}} for i in range(1, 9) for j in range(i + 1, 9) if (i + j) % 3 == 0},
        "basis": ["t"],
    }
    torus_ut = {
        "type": "torus",
        "n": 5,
        "theta": {
            "1,2": {"rat": "1/3", "irr": {"u": "1"}},
            "1,3": {"rat": "2/5", "irr": {"u": "1"}},
            "2,4": {"rat": "1/2", "irr": {"t": "1"}},
            "3,4": {"rat": "3/7", "irr": {"t": "1"}},
            "4,5": {"rat": "1/4", "irr": {}},
        },
        "basis": ["u", "t", "w"],
    }
    jobs = {
        "validate-table": ("validate", encode_multiplier(tables[2][1]), []),
        "condition-k-product": ("condition-k", product, []),
        "center-klein": ("center", encode_multiplier(kleins["klein(4,2)"]), []),
        "center-table": ("center", encode_multiplier(tables[3][1]), []),
        "regular-classes-table": ("regular-classes", encode_multiplier(tables[4][1]), []),
        "f-degeneracy-product": ("f-degeneracy", product, []),
        "decompose-free-product": ("decompose", free, ["--fuzz", "40", "--box", "4", "--seed", "3"]),
        "condition-k-torus": ("condition-k", torus, []),
        "condition-k-g3": ("condition-k", g3, []),
        "validate-torus": ("validate", torus8, ["--fuzz", "300", "--seed", "2"]),
        "validate-g3": ("validate", g3, ["--fuzz", "300", "--box", "4", "--seed", "2"]),
        "validate-free-product": ("validate", free, ["--fuzz", "200", "--box", "5", "--seed", "2"]),
        "condition-k-torus-unsorted-basis": ("condition-k", torus_ut, []),
    }
    return {key: [cmd, "--inline", json.dumps(data, sort_keys=True), *opts] for key, (cmd, data, opts) in jobs.items()}


JOBS = _jobs()


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_report_bytes_match_golden(key, capsys):
    code = main(JOBS[key])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN[key]
