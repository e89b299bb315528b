"""Batch command line: load a (group, multiplier) description, run one
decision or validation, emit a JSON report on stdout and a one-line
human summary on stderr.

Exit codes:

- 0 when the decision was computed, whatever the boolean came out to be.
- 1 when a validation failed (the report carries the witness) or a
  decision refused (the report carries an "error" field):
  - "not a multiplier": before condition-k, regular-classes, center or
    f-degeneracy, a finite input is proven a multiplier through the
    generating set of its group, the proof ``validate`` runs
    (``multipliers.require_multiplier``); a table that fails is refused
    with the violating ``witness`` triple (a, s, c), or identity pair
    (a, e), and the failed ``reason`` (regularity that varies on a class,
    impossible after that proof, is refused with the same error and a
    "detail");
  - "center routes disagree": the combinatorial and numeric center
    dimensions differ;
  - "ill-conditioned": the numeric oracle found no clean spectral gap.
- 2 on malformed input or an unsupported command/input combination.

Exit 2 also refuses numbers out of range, before the input is decoded:
--tol must be a positive rational, --fuzz and --box at least 1.  It
refuses specs too large for a dense table, before any table is built:
klein n*n, torus n, or |G1|*|G2| of a direct_product above
io.MAX_ORDER (1024).

The parser is built once, at import; its parsed arguments are the job.
Reports are byte-identical for identical jobs: all randomness is
seeded, keys are sorted, and exact numbers are strings.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .algebra import IllConditioned, center_dimension_numeric, identify_matrix_algebra
from .freeprod import FreeProductMultiplier, SimilarityFailure, decompose
from .io import (
    SchemaError,
    decode_multiplier,
    encode_witness_element,
    parse_fraction,
)
from .lattices import G3Multiplier, LatticeMultiplier, g3_condition_k, condition_k_lattice
from .multipliers import FiniteMultiplier, NotAMultiplier, require_multiplier, validate
from .products import ProductMultiplier, f_degeneracy
from .regularity import ClassInconsistency, regular_classes
from .torus import MissingHint

COMMANDS = ("validate", "condition-k", "center", "regular-classes", "f-degeneracy", "decompose")


class JobError(ValueError):
    """Malformed job: wrong schema or unsupported command/input pairing."""


def _report_base(args: argparse.Namespace) -> dict:
    return {"command": args.command, "seed": args.seed}


def _run_validate(args: argparse.Namespace, sigma) -> tuple[int, dict]:
    rng = random.Random(args.seed)
    report = validate(sigma, rng=rng, triples=args.fuzz, box=args.box)
    out = _report_base(args)
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


def _run_condition_k(args: argparse.Namespace, sigma) -> tuple[int, dict]:
    out = _report_base(args)
    if isinstance(sigma, LatticeMultiplier):
        decision = condition_k_lattice(sigma.theta)
        out.update(decision.to_json())
        return 0, out
    if isinstance(sigma, G3Multiplier):
        decision = g3_condition_k(sigma.mu)
        out.update(decision.to_json())
        return 0, out
    if isinstance(sigma, FiniteMultiplier):
        require_multiplier(sigma)
        witness = regular_classes(sigma).witness
        out.update(
            {
                "condition_k": witness is None,
                "witness_class": None
                if witness is None
                else {"rep": witness.representative, "members": list(witness.members)},
            }
        )
        return 0, out
    raise JobError("condition-k is not defined for this input type")


def _run_center(args: argparse.Namespace, sigma) -> tuple[int, dict]:
    if not isinstance(sigma, FiniteMultiplier):
        raise JobError("center requires a finite multiplier")
    require_multiplier(sigma)
    report = regular_classes(sigma)
    combinatorial = sum(1 for _, flag in report.classes if flag)
    numeric = center_dimension_numeric(sigma, tol=float(args.tol))
    out = _report_base(args)
    out.update({"combinatorial": combinatorial, "numeric": numeric})
    if combinatorial != numeric:
        out.update({"error": "center routes disagree", "matrix_algebra": None})
        return 1, out
    out["matrix_algebra"] = identify_matrix_algebra(sigma.group.order, combinatorial)
    return 0, out


def _run_regular_classes(args: argparse.Namespace, sigma) -> tuple[int, dict]:
    if not isinstance(sigma, FiniteMultiplier):
        raise JobError("regular-classes requires a finite multiplier")
    require_multiplier(sigma)
    out = _report_base(args)
    out.update(regular_classes(sigma).to_json())
    return 0, out


def _run_f_degeneracy(args: argparse.Namespace, sigma) -> tuple[int, dict]:
    if not isinstance(sigma, ProductMultiplier):
        raise JobError("f-degeneracy requires a direct_product input")
    require_multiplier(sigma)
    report = f_degeneracy(sigma.sigma1, sigma.sigma2, sigma.f)
    out = _report_base(args)
    out.update(report.to_json())
    out["condition_k"] = regular_classes(sigma).condition_k
    return 0, out


def _run_decompose(args: argparse.Namespace, sigma) -> tuple[int, dict]:
    if not isinstance(sigma, FreeProductMultiplier):
        raise JobError("decompose requires a free_product input")
    rng = random.Random(args.seed)
    out = _report_base(args)
    try:
        result = decompose(
            sigma.value,
            sigma.fp.g1,
            sigma.fp.g2,
            max_len=max(args.box, 2),
            pairs=args.fuzz,
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
    restrictions_match = (
        result.sigma1.values == sigma.sigma1.to_table().values
        and result.sigma2.values == sigma.sigma2.to_table().values
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


def run(args: argparse.Namespace, data) -> tuple[int, dict]:
    """Execute one job; returns (exit code, report dict)."""
    sigma = decode_multiplier(data)
    try:
        return _RUNNERS[args.command](args, sigma)
    except NotAMultiplier as exc:
        out = _report_base(args)
        out.update({"error": "not a multiplier", "reason": exc.reason, "witness": list(exc.witness)})
        return 1, out
    except (IllConditioned, ClassInconsistency) as exc:
        error = "ill-conditioned" if isinstance(exc, IllConditioned) else "not a multiplier"
        out = _report_base(args)
        out.update({"error": error, "detail": str(exc)})
        return 1, out
    except MissingHint as exc:
        raise JobError(f"{args.command} needs a float hint for symbol {exc.args[0]!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistk",
        description="Exact decisions for twisted group algebras: validation, "
        "condition K, centers, product degeneracy, free product decomposition.",
    )
    parser.add_argument("command", choices=COMMANDS, help="the decision or validation to run")
    src = parser.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="path to a multiplier description (JSON)")
    src.add_argument("--inline", help="multiplier description as an inline JSON string")
    parser.add_argument("--tol", default="1/100000000", help="positive tolerance as a rational string")
    parser.add_argument("--fuzz", type=int, default=10000, help="random triples / sampled pairs, at least 1")
    parser.add_argument("--box", type=int, default=3, help="coordinate box (or word length) bound, at least 1")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (reports are reproducible)")
    parser.add_argument("--pretty", action="store_true", help="indented JSON instead of compact")
    return parser


_PARSER = _build_parser()


def _check_ranges(args: argparse.Namespace) -> None:
    if args.tol <= 0:
        raise JobError(f"--tol must be positive, got {args.tol}")
    for name in ("fuzz", "box"):
        if getattr(args, name) < 1:
            raise JobError(f"--{name} must be at least 1, got {getattr(args, name)}")


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
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
        args.tol = parse_fraction(args.tol)
        _check_ranges(args)
        code, report = run(args, data)
    except (SchemaError, JobError) as exc:
        print(f"bad job: {exc}", file=sys.stderr)
        return 2
    if args.pretty:
        text = json.dumps(report, sort_keys=True, indent=2)
    else:
        text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    print(text)
    summary = {0: "ok", 1: "FAILED"}.get(code, "error")
    print(f"{args.command}: {summary} (seed={args.seed})", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
