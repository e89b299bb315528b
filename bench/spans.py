"""The traced run: spans around the calls into each twistk layer.

The program is not changed.  For the traced passes the benchmark swaps
the names that one layer imported from another (``twistk.cli.validate``,
``twistk.lattices.integer_kernel``, ...) for wrappers that record a span
(name, start, end, parent span, job) and put the originals back after.
Spans stay in memory; metrics are computed once at the end.  A layer's
busy time is the self time of its spans: duration minus the time of the
child spans inside it.  One process and one client means no layer waits
on another, so there are no wait metrics.

Calls that run thousands of times per job (exponent addition, cocycle
values, word rewriting) are not wrapped: their rates are replayed after
the passes on the workload's own inputs.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import random
import statistics
import time
import tracemalloc
from collections import Counter
from pathlib import Path

LAYERS = ("cli", "io", "groups", "torus", "multipliers", "regularity", "products", "algebra", "lattices", "intlinalg", "freeprod")

# (module, imported name, span name); a span name starts with its layer.  A
# name that a module no longer imports stops the traced run: its layer's
# spans would otherwise vanish and read as a gain.
PATCHES = (
    ("twistk.cli", "encode_witness_element", "io.encode_witness_element"),
    ("twistk.cli", "parse_fraction", "io.parse_fraction"),
    ("twistk.cli", "validate", "multipliers.validate"),
    ("twistk.cli", "regular_classes", "regularity.regular_classes"),
    ("twistk.regularity", "regular_classes", "regularity.regular_classes"),
    ("twistk.cli", "center_dimension_numeric", "algebra.center_dimension_numeric"),
    ("twistk.algebra", "center_dimension_numeric", "algebra.center_dimension_numeric"),
    ("twistk.cli", "identify_matrix_algebra", "algebra.identify_matrix_algebra"),
    ("twistk.cli", "f_degeneracy", "products.f_degeneracy"),
    ("twistk.cli", "condition_k_lattice", "lattices.condition_k_lattice"),
    ("twistk.cli", "g3_condition_k", "lattices.g3_condition_k"),
    ("twistk.lattices", "clear_denominators", "intlinalg.clear_denominators"),
    ("twistk.lattices", "integer_kernel", "intlinalg.integer_kernel"),
    ("twistk.intlinalg", "hermite_normal_form", "intlinalg.hermite_normal_form"),
    ("twistk.cli", "decompose", "freeprod.decompose"),
)

# Layers with spans of their own; torus is only reached from inside them.
TRACED = ("cli", "io", "groups") + tuple(dict.fromkeys(name.split(".")[0] for _, _, name in PATCHES))

NAME, START, END, PARENT, JOB, INFO = range(6)


def _result_info(name: str, result):
    """Counts read off a call's return value."""
    if name == "multipliers.validate":
        return {"checked": result.checked, "mode": result.mode}
    if name == "freeprod.decompose":
        return {"pairs": result.pairs_checked}
    if name == "intlinalg.hermite_normal_form":
        return {"bits": max((abs(x).bit_length() for m in result for row in m for x in row), default=0)}
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = -1
        self.errors: Counter = Counter()
        self._seen: list[BaseException] = []

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            record = [name, 0, 0, self.stack[-1] if self.stack else None, self.job, None]
            self.stack.append(len(self.spans))
            self.spans.append(record)
            record[START] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._count(exc)
                raise
            finally:
                record[END] = time.perf_counter_ns()
                self.stack.pop()
            record[INFO] = _result_info(name, result)
            return result

        return traced

    def _count(self, exc: BaseException) -> None:
        """Charge an exception once, to the layer of the innermost twistk frame it passed."""
        if any(exc is seen for seen in self._seen):
            return
        self._seen.append(exc)
        layer, tb = "cli", exc.__traceback__
        while tb is not None:
            path = Path(tb.tb_frame.f_code.co_filename)
            if path.parent.name == "twistk" and path.stem in LAYERS:
                layer = path.stem
            tb = tb.tb_next
        self.errors[layer] += 1

    @contextlib.contextmanager
    def installed(self):
        """Swap in the wrappers; conjugacy classes are built right after decoding,
        so the regularity spans find them cached."""
        targets = [(importlib.import_module(module_name), attr, name) for module_name, attr, name in PATCHES]
        missing = [f"{module.__name__}.{attr}" for module, attr, _ in targets if not hasattr(module, attr)]
        if missing:
            raise LookupError(f"trace targets not found: {', '.join(missing)}; update spans.PATCHES")
        saved = []
        for module, attr, name in targets:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, self.wrap(name, getattr(module, attr)))
        cli = importlib.import_module("twistk.cli")
        decode = self.wrap("io.decode_multiplier", cli.decode_multiplier)
        classes = self.wrap("groups.conjugacy_classes", lambda group: group.conjugacy_classes())

        def decode_then_classes(data):
            sigma = decode(data)
            if getattr(sigma, "group", None) is not None:
                classes(sigma.group)
            return sigma

        saved.append((cli, "decode_multiplier", cli.decode_multiplier))
        cli.decode_multiplier = decode_then_classes
        try:
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self) -> list[int]:
        own = [span[END] - span[START] for span in self.spans]
        for span in self.spans:
            if span[PARENT] is not None:
                own[span[PARENT]] -= span[END] - span[START]
        return own


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _ms(span) -> float:
    return (span[END] - span[START]) / 1e6


def span_metrics(tracer: Tracer, info: list[dict], passes: int) -> dict:
    spans = tracer.spans
    jobs = sum(1 for span in spans if span[NAME] == "cli.main")
    named = lambda name: [span for span in spans if span[NAME] == name]
    out = {}
    own = tracer.self_times()
    for layer in LAYERS:
        if layer in TRACED:
            busy = sum(t for span, t in zip(spans, own) if span[NAME].split(".")[0] == layer)
            out[f"{layer}.self_ms"] = busy / 1e6 / max(jobs, 1)
        out[f"{layer}.errors"] = tracer.errors[layer] / max(passes, 1)

    validate = named("multipliers.validate")
    for mode, prefix in (("exhaustive", "multipliers."), ("fuzz", "multipliers.fuzz_")):
        done = [s for s in validate if s[INFO] and s[INFO]["mode"] == mode]
        checked = sum(s[INFO]["checked"] for s in done)
        seconds = sum(_ms(s) for s in done) / 1e3
        out[f"{prefix}triples_per_s"] = checked / seconds if seconds else 0.0
        if mode == "exhaustive":
            out["multipliers.validate_ms"] = _mean(_ms(s) for s in done)
            out["multipliers.triples_checked"] = checked / len(done) if done else 0.0

    center = named("algebra.center_dimension_numeric")
    out["algebra.center_numeric_ms"] = _mean(_ms(s) for s in center)
    out["algebra.identify_ms"] = _mean(_ms(s) for s in named("algebra.identify_matrix_algebra"))
    out["algebra.svd_rows"] = _mean(info[s[JOB]]["order"] ** 3 for s in center)

    out["groups.classes_ms"] = _mean(_ms(s) for s in named("groups.conjugacy_classes"))
    regular = named("regularity.regular_classes")
    out["regularity.regular_classes_ms"] = _mean(_ms(s) for s in regular)
    out["regularity.centralizer_pairs"] = _mean(info[s[JOB]]["pairs"] for s in regular)
    seconds = sum(_ms(s) for s in regular) / 1e3
    out["regularity.pairs_per_s"] = sum(info[s[JOB]]["pairs"] for s in regular) / seconds if seconds else 0.0
    out["products.f_degeneracy_ms"] = _mean(_ms(s) for s in named("products.f_degeneracy"))
    out["io.decode_ms"] = _mean(_ms(s) for s in named("io.decode_multiplier"))
    out["lattices.condition_k_ms"] = _mean(
        _ms(s) for s in spans if s[NAME] in ("lattices.condition_k_lattice", "lattices.g3_condition_k")
    )
    out["intlinalg.kernel_ms"] = _mean(_ms(s) for s in named("intlinalg.integer_kernel"))
    out["intlinalg.hnf_max_bits"] = max((s[INFO]["bits"] for s in named("intlinalg.hermite_normal_form") if s[INFO]), default=0)
    decompose = named("freeprod.decompose")
    out["freeprod.decompose_ms"] = _mean(_ms(s) for s in decompose)
    out["freeprod.pairs_checked"] = _mean(s[INFO]["pairs"] for s in decompose if s[INFO])
    return out


def _per_call(fn, args: list, unit: float, repeats: int = 5) -> float:
    """Median over repeats of the mean time of fn(*a) for a in args, in ``unit`` seconds."""
    if not args:
        return 0.0
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for a in args:
            fn(*a)
        times.append((time.perf_counter() - start) / len(args))
    return statistics.median(times) / unit


def _exponents(spec, found: list) -> None:
    """Every exponent object ({"rat": ..., "irr": ...}) inside an input spec."""
    if isinstance(spec, dict):
        if "rat" in spec:
            found.append(spec)
        else:
            for value in spec.values():
                _exponents(value, found)
    elif isinstance(spec, list):
        for value in spec:
            _exponents(value, found)


def _build_group(groups, spec) -> list:
    """The public constructor calls that rebuild an input's groups, apart from decoding."""
    kind = spec["type"]
    if kind == "klein":
        return [lambda: groups.direct_product(groups.cyclic(spec["n"]), groups.cyclic(spec["n"]))]
    if kind in ("trivial", "table"):
        group = spec["group"]
        return [lambda: groups.build(group["table"], group.get("names"))]
    if kind == "direct_product":
        factors = _build_group(groups, spec["sigma1"]) + _build_group(groups, spec["sigma2"])
        return [lambda: groups.direct_product(factors[0](), factors[1]())]
    if kind == "free_product":
        return _build_group(groups, spec["sigma1"]) + _build_group(groups, spec["sigma2"])
    return []


def replays(replay: dict) -> dict:
    """Per-call rates of the hot inner functions, on the workload's own values."""
    from twistk import freeprod, groups, lattices
    from twistk.algebra import center_dimension_numeric
    from twistk.io import decode_multiplier
    from twistk.torus import RotationNumber

    specs = [json.loads(Path(path).read_text()) for path in replay["inputs"]]
    out = {}

    builds = [build for spec in specs for build in _build_group(groups, spec)]
    times, triples = [], 0
    for build in builds:
        start = time.perf_counter()
        group = build()
        times.append(time.perf_counter() - start)
        triples += group.order**3
    out["groups.build_ms"] = _mean(times) * 1e3
    out["groups.assoc_triples"] = triples / len(builds) if builds else 0.0

    found: list = []
    for spec in specs:
        _exponents(spec, found)
    step = max(1, len(found) // 512)
    values = [RotationNumber.from_json(v) for v in found[::step]]
    twins = [RotationNumber.from_json(v) for v in found[::step]]
    m = len(values)
    add_pairs = [(values[i], values[(7 * i + 1) % m]) for i in range(m)]
    eq_pairs = [(values[i], twins[i] if i % 2 else values[(7 * i + 1) % m]) for i in range(m)]
    out["torus.add_ns"] = _per_call(lambda x, y: x + y, add_pairs * 20, 1e-9)
    out["torus.eq_ns"] = _per_call(lambda x, y: x == y, eq_pairs * 20, 1e-9)

    rng = random.Random(0)
    torus_args, g3_args, value_args, rewrite_args = [], [], [], []
    for spec in specs:
        if spec["type"] == "torus":
            theta = decode_multiplier(spec).theta
            vec = lambda: tuple(rng.randint(-3, 3) for _ in range(theta.n))
            torus_args += [(theta, vec(), vec()) for _ in range(30)]
        elif spec["type"] == "g3":
            mu = decode_multiplier(spec).mu
            vec = lambda: tuple(rng.randint(-3, 3) for _ in range(6))
            g3_args += [(mu, vec(), vec()) for _ in range(100)]
        elif spec["type"] == "free_product":
            sigma = decode_multiplier(spec)
            value_args += [(sigma.fp.random_word(rng, replay["fp_box"]), sigma.fp.random_word(rng, replay["fp_box"]), sigma)
                           for _ in range(50)]
            rewrite_args += [(sigma.fp, sigma.fp.random_kernel_word(rng, 2 * replay["fp_box"])) for _ in range(50)]
    out["lattices.torus_value_us"] = _per_call(lattices.torus_value, torus_args, 1e-6)
    out["lattices.g3_value_us"] = _per_call(lattices.g3_value, g3_args, 1e-6)
    out["freeprod.value_us"] = _per_call(lambda x, y, sigma: sigma.value(x, y), value_args, 1e-6, repeats=3)
    out["freeprod.rewrite_us"] = _per_call(freeprod.rewrite_to_X, rewrite_args, 1e-6)

    out["algebra.center_peak_mb"] = 0.0
    if replay["center_peak"]:
        sigma = decode_multiplier(json.loads(Path(replay["center_peak"]).read_text()))
        tracemalloc.start()
        try:
            center_dimension_numeric(sigma)
            out["algebra.center_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    return out


def traced_run(cli, jobs: list, manifest: dict, recorder) -> dict:
    """Passes in which each job runs once untraced and once traced, in
    alternating order, until the run's seconds are spent; interleaving
    keeps slow drifts of the machine out of the overhead."""
    tracer = Tracer()
    main = tracer.wrap("cli.main", cli.main)
    untraced = traced = 0.0
    passes = 0
    start = time.perf_counter()
    while True:
        for job, argv in enumerate(jobs):
            first_traced = job % 2 == 1
            for traced_turn in (first_traced, not first_traced):
                if not traced_turn:
                    untraced += recorder.run(cli.main, job, argv)
                    continue
                tracer.job = job
                with tracer.installed():
                    traced += recorder.run(main, job, argv)
        passes += 1
        if time.perf_counter() - start >= manifest["seconds"]:
            break
    wall = time.perf_counter() - start
    layers = span_metrics(tracer, manifest["info"], passes)
    layers.update(replays(manifest["replay"]))
    layers["trace.overhead_frac"] = traced / untraced - 1
    roots = sum(_ms(s) for s in tracer.spans if s[NAME] == "cli.main")
    return {
        "wall": wall,
        "passes": 2 * passes,
        "layers": layers,
        "trace_check": {
            "untraced_ms": untraced * 1e3,
            "traced_ms": traced * 1e3,
            "span_self_ms": sum(tracer.self_times()) / 1e6,
            "root_span_ms": roots,
            "spans": len(tracer.spans),
        },
    }
