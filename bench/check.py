"""Judge one CLI outcome against the job's expected outcome.

Witnesses are re-checked with the exponent arithmetic of ``gen``, never
with twistk.  A verdict is one of:

- ``ok``: the outcome is the expected one;
- ``fail``: a wrong exit code, a missed refusal or an exception that
  escaped ``main``;
- ``wrong``: an exact answer was reported and it is false, or a witness
  does not re-check.  This is the only verdict that makes a run incorrect.
"""

from __future__ import annotations

import json

from gen import G3, ZERO, Finite, Job, Torus, add, is_zero, scale, sub


def _is_regular(sigma: Finite, a: int) -> bool:
    g = sigma.group
    return all(is_zero(sub(sigma.val(a, b), sigma.val(b, a))) for b in range(g.order) if g.commutes(a, b))


def _violates(sigma: Finite, witness) -> bool:
    """True iff the reported triple (or identity pair) really breaks the cocycle identities."""
    t, val, e = sigma.group.table, sigma.val, sigma.group.identity
    if len(witness) == 3:
        a, b, c = witness
        return add(val(a, b), val(t[a][b], c)) != add(val(a, t[b][c]), val(b, c))
    if len(witness) == 2:
        a, unit = witness
        return unit == e and not (is_zero(val(a, e)) and is_zero(val(e, a)))
    return False


def _regular_class(sigma: Finite, members) -> str | None:
    """None iff ``members`` is a nontrivial conjugacy class of regular elements."""
    g = sigma.group
    members = sorted(members)
    if not members or members != g.conj_class(members[0]):
        return f"witness {members} is not a conjugacy class"
    if members == [g.identity]:
        return "witness is the identity class"
    if not _is_regular(sigma, members[0]):
        return f"witness class of {members[0]} is not regular"
    return None


def _lattice_witness(rows, witness, n: int) -> str | None:
    """None iff the vector is nonzero and every row pairing is an integer."""
    if not isinstance(witness, list) or len(witness) != n or not any(witness):
        return f"bad witness vector {witness!r}"
    for row in rows:
        acc = ZERO
        for x, k in zip(row, witness):
            if k:
                acc = add(acc, scale(x, int(k)))
        if not is_zero(acc):
            return f"witness {witness} is not regular"
    return None


def _expect_equal(report: dict, **fields) -> str | None:
    for key, want in fields.items():
        if report.get(key) != want:
            return f"{key}={report.get(key)!r}, expected {want!r}"
    return None


def _answer(job: Job, code: int, report: dict) -> str | None:
    """None iff the report is the expected exact answer."""
    m, cmd = job.model, job.command
    if cmd == "validate":
        if isinstance(m, Finite) and not m.valid:
            if code != 1 or report.get("ok") is not False:
                return f"exit {code}, ok={report.get('ok')!r} on a broken table"
            witness = report.get("witness") or []
            return None if _violates(m, witness) else f"witness {witness} does not break the identity"
        if isinstance(m, Finite):
            want = dict(ok=True, checked=m.group.order ** 3, mode="exhaustive", witness=None)
        else:
            want = dict(ok=True, checked=int(job.options[job.options.index("--fuzz") + 1]), mode="fuzz", witness=None)
        return _expect_equal(report, **want) if code == 0 else f"exit {code}"
    if code != 0:
        return f"exit {code}"
    if cmd == "center":
        return _expect_equal(report, combinatorial=m.regular, numeric=m.regular, matrix_algebra=m.matrix_n)
    if cmd == "decompose":
        pairs = int(job.options[job.options.index("--fuzz") + 1])
        return _expect_equal(report, similar=True, restrictions_match=True, pairs_checked=pairs)
    if cmd == "condition-k" and isinstance(m, (Torus, G3)):
        bad = _expect_equal(report, condition_k=m.condition_k)
        if bad or m.condition_k:
            return bad or _expect_equal(report, witness=None)
        if isinstance(m, Torus):
            columns = [[m.m[i][j] for i in range(m.n)] for j in range(m.n)]
            return _lattice_witness(columns, report.get("witness"), m.n)
        return _lattice_witness(m.rows, report.get("witness"), 3)
    bad = _expect_equal(report, condition_k=m.condition_k)
    if bad:
        return bad
    if cmd == "condition-k":
        witness = report.get("witness_class")
        if m.condition_k:
            return None if witness is None else "witness class under condition K"
        return _regular_class(m, witness["members"]) if witness else "no witness class"
    if cmd == "regular-classes":
        classes = report.get("classes") or []
        if len(classes) != m.classes or sum(c["size"] for c in classes) != m.group.order:
            return f"{len(classes)} classes, expected {m.classes}"
        flagged = [c["rep"] for c in classes if c["regular"]]
        if len(flagged) != m.regular:
            return f"{len(flagged)} regular classes, expected {m.regular}"
        bad_rep = next((rep for rep in flagged if not _is_regular(m, rep)), None)
        return None if bad_rep is None else f"class of {bad_rep} flagged regular"
    if cmd == "f-degeneracy":
        bad = _expect_equal(report, f_degeneracy=m.condition_k)
        witness = report.get("witness_class")
        if bad or m.condition_k:
            return bad or (None if witness is None else "witness class for a nondegenerate f")
        return _regular_class(m, witness) if witness else "no witness class"
    return f"no check for {cmd}"


def verdict(job: Job, code, stdout: str, stderr: str, exc: str | None) -> tuple[str, str]:
    """(``ok`` | ``fail`` | ``wrong``, reason) for one outcome of ``job``."""
    if exc is not None:
        return "fail", f"{exc} escaped main"
    refused = code in (1, 2) and stderr.count("\n") == 1 and "Traceback" not in stderr
    if job.expect == "malformed":
        return ("ok", "") if code == 2 and refused else ("fail", f"exit {code} on a malformed spec")
    if job.expect in ("refuse", "answer_or_refuse") and refused:
        if code == 1 and isinstance(job.model, Finite) and not job.model.valid:
            try:
                witness = json.loads(stdout).get("witness")
            except (json.JSONDecodeError, AttributeError):
                witness = None
            if isinstance(witness, list) and len(witness) in (2, 3) and not _violates(job.model, witness):
                return "wrong", f"refusal witness {witness} does not break the identity"
        return "ok", ""
    if job.expect == "refuse":
        return "fail", f"exit {code}: answered a non-multiplier"
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return "fail", f"exit {code} without a JSON report"
    problem = _answer(job, code, report)
    if problem is None:
        return "ok", ""
    return ("fail", problem) if code != 0 and job.command != "validate" else ("wrong", problem)
