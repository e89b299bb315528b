"""The traced benchmark run (bench/spans.py) swaps names that one twistk
module imports from another, and replays a few public entry points.  A
refactor that deletes or moves one of them must fail here, not silently
drop that layer's spans from the traced run."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"

REPLAY_TARGETS = (
    ("twistk.lattices", "torus_value"),
    ("twistk.lattices", "g3_value"),
    ("twistk.freeprod", "rewrite_to_X"),
    ("twistk.freeprod", "FreeProduct.random_word"),
    ("twistk.freeprod", "FreeProduct.random_kernel_word"),
    ("twistk.groups", "build"),
    ("twistk.groups", "cyclic"),
    ("twistk.groups", "direct_product"),
    ("twistk.io", "decode_multiplier"),
    ("twistk.algebra", "center_dimension_numeric"),
    ("twistk.cli", "main"),
    ("twistk.cli", "decode_multiplier"),
    ("twistk.torus", "RotationNumber.from_json"),
)


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module_name: str, dotted: str):
    obj = importlib.import_module(module_name)
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def test_patch_targets_resolve():
    spans = _spans()
    assert spans.PATCHES
    for module_name, attr, span_name in spans.PATCHES:
        assert callable(_resolve(module_name, attr)), f"{module_name}.{attr}"
        assert span_name.split(".")[0] in spans.LAYERS


def test_replay_entry_points_resolve():
    for module_name, dotted in REPLAY_TARGETS:
        assert callable(_resolve(module_name, dotted)), f"{module_name}.{dotted}"


def test_decoded_parameters_replay():
    # the traced run replays torus_value and g3_value on the .theta and .mu
    # of decoded specs, and RotationNumber arithmetic on from_json values
    from twistk.io import decode_multiplier
    from twistk.lattices import g3_value, torus_value
    from twistk.torus import RotationNumber

    entry = {"rat": "1/3", "irr": {"t": "2"}}
    torus = decode_multiplier({"type": "torus", "n": 3, "theta": {"1,2": entry, "2,3": {"rat": "1/4"}}, "basis": ["t"]})
    g3 = decode_multiplier({"type": "g3", "mu": {"11": entry, "32": {"rat": "1/5"}}, "basis": ["t"]})
    a, b = (1, 2, -1), (3, -1, 2)
    assert torus_value(torus.theta, a, b) == torus.value(a, b) == RotationNumber.from_json({"rat": "-1/3", "irr": {"t": "-2"}})
    x, y = (2, -1, 1, 0, 3, 1), (1, 2, -2, 1, 0, 4)
    assert g3_value(g3.mu, x, y) == g3.value(x, y)
    assert RotationNumber.from_json(entry) + RotationNumber.from_json(entry) == RotationNumber.from_json({"rat": "2/3", "irr": {"t": "4"}})
