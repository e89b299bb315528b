"""Batch command line: load a (group, multiplier) description, run one
decision or validation, emit a JSON report on stdout and a one-line
human summary on stderr.

Exit codes: 0 when the decision was computed (whatever the boolean came
out to be); 1 when a validation failed (the report carries the witness)
or a decision refused (the report carries an "error" field): the input
is no multiplier (regularity varies on a class, or the two center
dimensions disagree) or the numeric oracle is ill-conditioned; 2 on
malformed input or an unsupported command/input combination.
Reports are byte-identical for identical job specs: all randomness is
seeded, keys are sorted, and exact numbers are strings.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

from .algebra import IllConditioned, center_dimension_numeric, identify_matrix_algebra
from .freeprod import FreeProductMultiplier, SimilarityFailure, decompose
from .io import (
    SchemaError,
    decode_multiplier,
    encode_witness_element,
    parse_fraction,
)
from .lattices import G3Multiplier, LatticeMultiplier, g3_condition_k, condition_k_lattice
from .multipliers import FiniteMultiplier, validate
from .products import ProductMultiplier, f_degeneracy
from .regularity import ClassInconsistency, regular_classes
from .torus import MissingHint

COMMANDS = ("validate", "condition-k", "center", "regular-classes", "f-degeneracy", "decompose")


@dataclass
class JobSpec:
    command: str
    data: dict
    tol: Fraction = Fraction(1, 100000000)
    fuzz: int = 10000
    box: int = 3
    seed: int = 0
    pretty: bool = False


class JobError(ValueError):
    """Malformed job: wrong schema or unsupported command/input pairing."""


def _report_base(spec: JobSpec) -> dict:
    return {"command": spec.command, "seed": spec.seed}


def _run_validate(spec: JobSpec, sigma) -> tuple[int, dict]:
    rng = random.Random(spec.seed)
    report = validate(sigma, rng=rng, triples=spec.fuzz, box=spec.box)
    out = _report_base(spec)
    out.update(
        {
            "ok": report.ok,
            "checked": report.checked,
            "mode": report.mode,
            "reason": report.reason,
            "witness": [encode_witness_element(sigma, w) for w in report.witness if w is not None]
            if report.witness
            else None,
        }
    )
    return (0 if report.ok else 1), out


def _run_condition_k(spec: JobSpec, sigma) -> tuple[int, dict]:
    out = _report_base(spec)
    if isinstance(sigma, LatticeMultiplier):
        decision = condition_k_lattice(sigma.theta)
        out.update(decision.to_json())
        return 0, out
    if isinstance(sigma, G3Multiplier):
        decision = g3_condition_k(sigma.mu)
        out.update(decision.to_json())
        return 0, out
    if isinstance(sigma, FiniteMultiplier):
        report = regular_classes(sigma)
        witness = next(
            (
                cls
                for cls, flag in report.classes
                if flag and (len(cls) > 1 or cls.representative != sigma.group.identity)
            ),
            None,
        )
        out.update(
            {
                "condition_k": report.condition_k,
                "witness_class": {"rep": witness.representative, "members": list(witness.members)}
                if witness
                else None,
            }
        )
        return 0, out
    raise JobError("condition-k is not defined for this input type")


def _run_center(spec: JobSpec, sigma) -> tuple[int, dict]:
    if not isinstance(sigma, FiniteMultiplier):
        raise JobError("center requires a finite multiplier")
    report = regular_classes(sigma)
    combinatorial = sum(1 for _, flag in report.classes if flag)
    numeric = center_dimension_numeric(sigma, tol=float(spec.tol))
    out = _report_base(spec)
    out.update({"combinatorial": combinatorial, "numeric": numeric})
    if combinatorial != numeric:
        out.update({"error": "center routes disagree", "matrix_algebra": None})
        return 1, out
    out["matrix_algebra"] = identify_matrix_algebra(sigma.group.order, combinatorial)
    return 0, out


def _run_regular_classes(spec: JobSpec, sigma) -> tuple[int, dict]:
    if not isinstance(sigma, FiniteMultiplier):
        raise JobError("regular-classes requires a finite multiplier")
    out = _report_base(spec)
    out.update(regular_classes(sigma).to_json())
    return 0, out


def _run_f_degeneracy(spec: JobSpec, sigma) -> tuple[int, dict]:
    if not isinstance(sigma, ProductMultiplier):
        raise JobError("f-degeneracy requires a direct_product input")
    report = f_degeneracy(sigma.sigma1, sigma.sigma2, sigma.f)
    out = _report_base(spec)
    out.update(report.to_json())
    out["condition_k"] = regular_classes(sigma).condition_k
    return 0, out


def _run_decompose(spec: JobSpec, sigma) -> tuple[int, dict]:
    if not isinstance(sigma, FreeProductMultiplier):
        raise JobError("decompose requires a free_product input")
    rng = random.Random(spec.seed)
    out = _report_base(spec)
    try:
        result = decompose(
            sigma.value,
            sigma.fp.g1,
            sigma.fp.g2,
            max_len=max(spec.box, 2),
            pairs=spec.fuzz,
            rng=rng,
        )
    except SimilarityFailure as exc:
        x, y = exc.pair
        out.update(
            {
                "similar": False,
                "counterexample": [
                    encode_witness_element(sigma, x),
                    encode_witness_element(sigma, y),
                ],
            }
        )
        return 1, out
    restrictions_match = all(
        result.sigma1.value(a, b) == sigma.sigma1.value(a, b)
        for a in sigma.fp.g1.elements()
        for b in sigma.fp.g1.elements()
    ) and all(
        result.sigma2.value(a, b) == sigma.sigma2.value(a, b)
        for a in sigma.fp.g2.elements()
        for b in sigma.fp.g2.elements()
    )
    out.update(
        {
            "similar": True,
            "pairs_checked": result.pairs_checked,
            "restrictions_match": restrictions_match,
        }
    )
    return 0, out


_RUNNERS = {
    "validate": _run_validate,
    "condition-k": _run_condition_k,
    "center": _run_center,
    "regular-classes": _run_regular_classes,
    "f-degeneracy": _run_f_degeneracy,
    "decompose": _run_decompose,
}


def run(spec: JobSpec) -> tuple[int, dict]:
    """Execute one job; returns (exit code, report dict)."""
    sigma = decode_multiplier(spec.data)
    try:
        return _RUNNERS[spec.command](spec, sigma)
    except (IllConditioned, ClassInconsistency) as exc:
        error = "ill-conditioned" if isinstance(exc, IllConditioned) else "not a multiplier"
        out = _report_base(spec)
        out.update({"error": error, "detail": str(exc)})
        return 1, out
    except MissingHint as exc:
        raise JobError(f"{spec.command} needs a float hint for symbol {exc.args[0]!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistk",
        description="Exact decisions for twisted group algebras: validation, "
        "condition K, centers, product degeneracy, free product decomposition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--input", help="path to a multiplier description (JSON)")
        src.add_argument("--inline", help="multiplier description as an inline JSON string")
        p.add_argument("--tol", default="1/100000000", help="tolerance as a rational string")
        p.add_argument("--fuzz", type=int, default=10000, help="random triples / sampled pairs")
        p.add_argument("--box", type=int, default=3, help="coordinate box (or word length) bound")
        p.add_argument("--seed", type=int, default=0, help="RNG seed (reports are reproducible)")
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", action="store_true", help="compact JSON (default)")
        fmt.add_argument("--pretty", action="store_true", help="indented JSON")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.input is not None:
            with open(args.input) as fh:
                data = json.load(fh)
        else:
            data = json.loads(args.inline)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    try:
        tol = parse_fraction(args.tol)
    except SchemaError as exc:
        print(f"bad job: {exc}", file=sys.stderr)
        return 2
    spec = JobSpec(
        command=args.command,
        data=data,
        tol=tol,
        fuzz=args.fuzz,
        box=args.box,
        seed=args.seed,
        pretty=args.pretty,
    )
    try:
        code, report = run(spec)
    except (SchemaError, JobError) as exc:
        print(f"bad job: {exc}", file=sys.stderr)
        return 2
    if spec.pretty:
        text = json.dumps(report, sort_keys=True, indent=2)
    else:
        text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    print(text)
    summary = {0: "ok", 1: "FAILED"}.get(code, "error")
    print(f"{spec.command}: {summary} (seed={spec.seed})", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
