"""Batch command line: load a (group, multiplier) description, run one
decision or validation, emit a JSON report on stdout and a one-line
human summary on stderr.

Exit codes:

- 0 when the decision was computed, whatever the boolean came out to be.
- 1 when a validation failed (the report carries the witness) or a
  decision refused (the report carries an "error" field):
  - "not a multiplier": before condition-k, regular-classes, center or
    f-degeneracy, a finite input is proven a multiplier, by the proof
    ``validate`` runs (``multipliers.require_multiplier``).  A klein
    input, a table or trivial input whose entries are all 0, and a
    direct_product whose two factors are proven are multipliers by
    construction (its f is proven a bihomomorphism when it is decoded).
    Any other input, such as a nonzero table, is proven through the
    generating set of its group; one that fails is refused with the
    violating ``witness`` triple (a, s, c), or identity pair (a, e), and
    the failed ``reason`` (regularity that varies on a class, impossible
    after that proof, is refused with the same error and a "detail").
    Before validate or decompose on a free_product, each factor table is
    proven the same way, and a factor that fails is refused with the
    same fields plus ``"factor": 1 | 2`` (the witness indexes that
    factor's group);
  - "center routes disagree": the combinatorial and numeric center
    dimensions differ;
  - "f-degeneracy routes disagree": f-degeneracy and condition K of the
    product, equivalent by the product lemma, came out different;
  - "ill-conditioned": the numeric oracle found no clean spectral gap.
- 2 on malformed input or an unsupported command/input combination.

Exit 2 also refuses numbers out of range, before the input is decoded:
--tol must be a positive rational whose float is positive and finite,
--fuzz and --box at least 1.  It refuses specs too large for a dense
table, before any table is built: klein n*n, torus n, or |G1|*|G2| of a
direct_product above io.MAX_ORDER (1024), products nested deeper than
io.MAX_DEPTH (32), input that is not UTF-8 or JSON nested past the
parser's recursion limit.  On a free_product, where
--box bounds the word length and so the time and memory, validate and
decompose refuse a --box above io.MAX_ORDER before any word is drawn.

The parser is built once, at import; its parsed arguments are the job.
Every report, refusals included, holds the job's "command" and "seed",
which ``run`` adds.  Reports are byte-identical for identical jobs: all
randomness is seeded, keys are sorted, and exact numbers are strings.
A report holds no reference cycle, so ``json`` skips its cycle check.

``main`` pauses Python's cyclic garbage collector while it reads and
decodes the input (when it was on), and the JSON tree is dropped before
it resumes: the tree and the decoded arrays hold no reference cycles, so
reference counting frees them, and the collector does not rescan the
live heap while the parser makes one dict per table entry.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import sys

from .algebra import IllConditioned, center_dimension_numeric, identify_matrix_algebra
from .freeprod import FreeProductMultiplier, SimilarityFailure, decompose
from .io import (
    MAX_ORDER,
    SchemaError,
    decode_multiplier,
    encode_witness_element,
    parse_fraction,
)
from .lattices import G3Multiplier, LatticeMultiplier, g3_condition_k, condition_k_lattice
from .multipliers import Exponents, FiniteMultiplier, NotAMultiplier, one_frame, require_multiplier, validate
from .products import ProductMultiplier, f_degeneracy
from .regularity import ClassInconsistency, regular_classes
from .torus import MissingHint

COMMANDS = ("validate", "condition-k", "center", "regular-classes", "f-degeneracy", "decompose")


class JobError(ValueError):
    """Malformed job: wrong schema or unsupported command/input pairing."""


def _check_free_product(args: argparse.Namespace, sigma: FreeProductMultiplier) -> None:
    """Refuse a word length bound --box above MAX_ORDER, then prove both
    factor tables of a free product multiplier; a failure raises
    NotAMultiplier with the ``factor`` (1 or 2) that failed."""
    if args.box > MAX_ORDER:
        raise JobError(f"--box (word length) on a free_product is at most MAX_ORDER = {MAX_ORDER}, got {args.box}")
    for factor, s in ((1, sigma.sigma1), (2, sigma.sigma2)):
        try:
            require_multiplier(s)
        except NotAMultiplier as exc:
            exc.factor = factor
            raise


def _run_validate(args: argparse.Namespace, sigma) -> tuple[int, dict]:
    if isinstance(sigma, FreeProductMultiplier):
        _check_free_product(args, sigma)
    rng = random.Random(args.seed)
    report = validate(sigma, rng=rng, triples=args.fuzz, box=args.box)
    return (0 if report.ok else 1), {
        "ok": report.ok,
        "checked": report.checked,
        "mode": report.mode,
        "reason": report.reason,
        "witness": [encode_witness_element(sigma, w) for w in report.witness if w is not None]
        if report.witness
        else None,
    }


def _run_condition_k(args: argparse.Namespace, sigma) -> tuple[int, dict]:
    if isinstance(sigma, LatticeMultiplier):
        return 0, condition_k_lattice(sigma.theta).to_json()
    if isinstance(sigma, G3Multiplier):
        return 0, g3_condition_k(sigma.mu).to_json()
    if isinstance(sigma, FiniteMultiplier):
        require_multiplier(sigma)
        witness = regular_classes(sigma).witness
        return 0, {
            "condition_k": witness is None,
            "witness_class": None
            if witness is None
            else {"rep": witness.representative, "members": list(witness.members)},
        }
    raise JobError("condition-k is not defined for this input type")


def _run_center(args: argparse.Namespace, sigma) -> tuple[int, dict]:
    if not isinstance(sigma, FiniteMultiplier):
        raise JobError("center requires a finite multiplier")
    require_multiplier(sigma)
    report = regular_classes(sigma)
    combinatorial = int(report.flags.sum())
    numeric = center_dimension_numeric(sigma, tol=float(args.tol))
    fields = {"combinatorial": combinatorial, "numeric": numeric}
    if combinatorial != numeric:
        return 1, {**fields, "error": "center routes disagree", "matrix_algebra": None}
    return 0, {**fields, "matrix_algebra": identify_matrix_algebra(sigma.group.order, combinatorial)}


def _run_regular_classes(args: argparse.Namespace, sigma) -> tuple[int, dict]:
    if not isinstance(sigma, FiniteMultiplier):
        raise JobError("regular-classes requires a finite multiplier")
    require_multiplier(sigma)
    return 0, regular_classes(sigma).to_json()


def _run_f_degeneracy(args: argparse.Namespace, sigma) -> tuple[int, dict]:
    if not isinstance(sigma, ProductMultiplier):
        raise JobError("f-degeneracy requires a direct_product input")
    require_multiplier(sigma)
    report = f_degeneracy(sigma.sigma1, sigma.sigma2, sigma.f)
    fields = {**report.to_json(), "condition_k": regular_classes(sigma).condition_k}
    if fields["condition_k"] != report.nondegenerate:
        return 1, {**fields, "error": "f-degeneracy routes disagree"}
    return 0, fields


def _run_decompose(args: argparse.Namespace, sigma) -> tuple[int, dict]:
    if not isinstance(sigma, FreeProductMultiplier):
        raise JobError("decompose requires a free_product input")
    _check_free_product(args, sigma)
    rng = random.Random(args.seed)
    try:
        result = decompose(
            sigma,
            sigma.fp.g1,
            sigma.fp.g2,
            max_len=max(args.box, 2),
            pairs=args.fuzz,
            rng=rng,
        )
    except SimilarityFailure as exc:
        x, y = exc.pair
        return 1, {
            "similar": False,
            "counterexample": [
                encode_witness_element(sigma, x),
                encode_witness_element(sigma, y),
            ],
        }
    restrictions_match = _same_values(result.sigma1, sigma.sigma1) and _same_values(result.sigma2, sigma.sigma2)
    return 0, {
        "similar": True,
        "pairs_checked": result.pairs_checked,
        "restrictions_match": restrictions_match,
    }


def _same_values(s: FiniteMultiplier, t: FiniteMultiplier) -> bool:
    """Whether two multipliers on one group have equal values, compared on
    their compiled arrays recast to one frame."""
    D, labels, (x, y) = one_frame((s.exponents(), t.exponents()))
    return bool(Exponents(D, labels, x).is_zero(x - y).all())


_RUNNERS = {
    "validate": _run_validate,
    "condition-k": _run_condition_k,
    "center": _run_center,
    "regular-classes": _run_regular_classes,
    "f-degeneracy": _run_f_degeneracy,
    "decompose": _run_decompose,
}


def run(args: argparse.Namespace, sigma) -> tuple[int, dict]:
    """Execute one job on a decoded multiplier; returns (exit code, report
    dict).  The report is the job's ``command`` and ``seed`` and the fields
    of the refusal or of its runner, which reads the decisions it calls
    from this module's globals, so a name swapped on the module runs."""
    try:
        code, fields = _RUNNERS[args.command](args, sigma)
    except NotAMultiplier as exc:
        code, fields = 1, {"error": "not a multiplier", "reason": exc.reason, "witness": list(exc.witness)}
        if exc.factor is not None:
            fields["factor"] = exc.factor
    except (IllConditioned, ClassInconsistency) as exc:
        error = "ill-conditioned" if isinstance(exc, IllConditioned) else "not a multiplier"
        code, fields = 1, {"error": error, "detail": str(exc)}
    except MissingHint as exc:
        raise JobError(f"the numeric center needs a table without symbols, and this table has symbol {exc.args[0]!r}") from None
    return code, {"command": args.command, "seed": args.seed, **fields}


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
    try:
        tol = float(args.tol)
    except OverflowError:
        tol = math.inf
    if not 0 < tol < math.inf:
        raise JobError("--tol must lie between the least and the largest positive float")
    for name in ("fuzz", "box"):
        if getattr(args, name) < 1:
            raise JobError(f"--{name} must be at least 1, got {getattr(args, name)}")


def _load(args: argparse.Namespace):
    """Read the input, check the option ranges, decode; the JSON tree is
    dropped when this returns."""
    if args.input is not None:
        with open(args.input, encoding="utf-8") as fh:
            data = json.load(fh)
    else:
        args.inline.encode()  # argv bytes that are not UTF-8 arrive as lone surrogates
        data = json.loads(args.inline)
    args.tol = parse_fraction(args.tol)
    _check_ranges(args)
    return decode_multiplier(data)


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        sigma = _load(args)
    except (OSError, UnicodeError, RecursionError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (SchemaError, JobError) as exc:
        print(f"bad job: {exc}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()
    try:
        code, report = run(args, sigma)
    except (SchemaError, JobError) as exc:
        print(f"bad job: {exc}", file=sys.stderr)
        return 2
    if args.pretty:
        text = json.dumps(report, sort_keys=True, indent=2, check_circular=False)
    else:
        text = json.dumps(report, sort_keys=True, separators=(",", ":"), check_circular=False)
    print(text)
    summary = {0: "ok", 1: "FAILED"}.get(code, "error")
    print(f"{args.command}: {summary} (seed={args.seed})", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
