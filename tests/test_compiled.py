"""Differential tests: the scans on compiled integer exponents against the
Fraction loops they replaced.

The ``_*_ref`` functions below are those loops, kept as references.  Each
test asserts equal results (report, ``checked``, witness, class order,
exception message) on ``finite_catalog()``, on random one-entry-broken
tables and on non-associative tables.  The generating-set proof of
``validate`` and ``require_multiplier`` must refuse exactly what the
exhaustive |G|^3 Fraction loop refuses, naming the first failure in the
order of the generating set, a triple that really fails.  Likewise
Light's associativity test in ``groups.build`` must refuse exactly the
tables the exhaustive |G|^3 scan refuses.
"""

import json
import math
import random
import re
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
from catalog import dihedral, finite_catalog, product_triples, random_coboundary, small_groups, symmetric
from reference import _light_validate_ref, compile_values, conj, lambda_exact

from twistk.algebra import _commutator_system, center_dimension_numeric
from twistk.cli import main
from twistk.groups import (
    FiniteGroup,
    NoInverse,
    NotAssociative,
    build,
    cyclic,
    direct_product,
)
from twistk.io import encode_multiplier
from twistk.multipliers import (
    NotAMultiplier,
    TableMultiplier,
    coboundary_twist,
    klein,
    require_multiplier,
    trivial_multiplier,
    validate,
)
from twistk.products import Bihomomorphism, InvalidBihomomorphism, ProductMultiplier
from twistk.regularity import ClassInconsistency, is_regular_element, regular_classes
from twistk.torus import MissingHint, rot


# -- the replaced Fraction loops ------------------------------------------------


def _validate_ref(sigma):
    """Whether sigma is a multiplier, by the identity row and column and the
    cocycle identity on all |G|^3 triples."""
    g = sigma.group
    n = g.order
    e = g.identity
    val = sigma.value
    if not all(val(a, e).is_integral() and val(e, a).is_integral() for a in range(n)):
        return False
    table = [[val(a, b) for b in range(n)] for a in range(n)]
    mul = g.table
    for a in range(n):
        for b in range(n):
            ab = mul[a][b]
            s_ab = table[a][b]
            row_b = mul[b]
            for c in range(n):
                if s_ab + table[ab][c] != table[a][row_b[c]] + table[b][c]:
                    return False
    return True


def _conjugacy_classes_ref(g):
    seen = [False] * g.order
    classes = []
    for a in range(g.order):
        if seen[a]:
            continue
        orbit = sorted({conj(g, c, a) for c in range(g.order)})
        for x in orbit:
            seen[x] = True
        classes.append((tuple(orbit), min(orbit)))
    return classes


def _is_regular_ref(sigma, a):
    g = sigma.group
    val = sigma.value
    centralizer = [b for b in range(g.order) if g.table[a][b] == g.table[b][a]]
    return all(val(a, b) == val(b, a) for b in centralizer)


def _regular_classes_ref(sigma):
    """(classes as (members, rep, flag), witness members, regular count), or the
    ClassInconsistency message."""
    g = sigma.group
    flagged = []
    regular_count = 0
    witness = None
    for members, rep in _conjugacy_classes_ref(g):
        flags = {m: _is_regular_ref(sigma, m) for m in members}
        values = set(flags.values())
        if len(values) > 1:
            return f"class of {rep} mixes regular and non-regular members: {flags}"
        flag = values.pop()
        flagged.append((members, rep, flag))
        if flag:
            regular_count += len(members)
            if witness is None and (len(members) > 1 or rep != g.identity):
                witness = members
    return tuple(flagged), witness, regular_count


def _check_associativity_ref(table):
    """The NotAssociative message of the first failing triple, or None."""
    rng = range(len(table))
    for a in rng:
        ta = table[a]
        for b in rng:
            ab = ta[b]
            tab_ab = table[ab]
            tb = table[b]
            for c in rng:
                if tab_ab[c] != ta[tb[c]]:
                    return f"({a}*{b})*{c} != {a}*({b}*{c})"
    return None


def _light_failure_ref(table, gens):
    """The NotAssociative message of Light's test: the first (s, x, y), s in
    the order of gens, then x, then y, with (x*s)*y != x*(s*y), or None."""
    rng = range(len(table))
    for s in gens:
        for x in rng:
            xs = table[table[x][s]]
            for y in rng:
                if xs[y] != table[x][table[s][y]]:
                    return f"({x}*{s})*{y} != {x}*({s}*{y})"
    return None


def _identity_and_inverses_ref(table):
    n = len(table)
    e = next((e for e in range(n) if all(table[e][x] == x and table[x][e] == x for x in range(n))), None)
    if e is None:
        return None
    inv = []
    for a in range(n):
        b = next((b for b in range(n) if table[a][b] == e and table[b][a] == e), None)
        if b is None:
            return e, f"element {a} has no two-sided inverse"
        inv.append(b)
    return e, tuple(inv)


def _bihom_validate_ref(g1, g2, t):
    """The InvalidBihomomorphism message of the first failure, or None."""
    for a1 in g1.elements():
        for b1 in g1.elements():
            prod = g1.mul(a1, b1)
            for a2 in g2.elements():
                if t[prod][a2] != t[a1][a2] + t[b1][a2]:
                    return f"not multiplicative in slot 1 at ({a1},{b1};{a2})"
    for a2 in g2.elements():
        for b2 in g2.elements():
            prod = g2.mul(a2, b2)
            for a1 in g1.elements():
                if t[a1][prod] != t[a1][a2] + t[a1][b2]:
                    return f"not multiplicative in slot 2 at ({a1};{a2},{b2})"
    return None


def _lambda_stack_ref(sigma):
    return np.stack([lambda_exact(sigma, a).to_array() for a in sigma.group.elements()])


# -- inputs -------------------------------------------------------------------------


def _broken_tables(count_per_group: int = 30, seed: int = 6):
    """Random coboundary twists of the trivial multiplier on S3, D4 and D5,
    each with one entry moved by a random rational or symbolic amount."""
    rng = random.Random(seed)
    out = []
    for g in (symmetric(3), dihedral(4), dihedral(5)):
        base = trivial_multiplier(g)
        for i in range(count_per_group):
            beta = random_coboundary(g, rng)
            if i % 3 == 0:
                beta = [x + rot(0, {"t": rng.randint(-3, 3)}) if x else x for x in beta]
            values = [list(row) for row in coboundary_twist(base, beta).values]
            a, b = rng.randrange(g.order), rng.randrange(g.order)
            move = rot(Fraction(1, rng.choice((2, 3, 5, 7)))) if i % 4 else rot(0, {"t": Fraction(1, 2)})
            values[a][b] = values[a][b] + move
            out.append((f"{g.order}:{i}:({a},{b})", TableMultiplier(g, values)))
    return out


def _loops(seed: int = 9):
    """Latin squares with a two-sided identity made from group tables by one
    intercalate swap away from the identity row and column: most are not
    associative."""
    rng = random.Random(seed)
    out = []
    for name, g in small_groups():
        t = [list(row) for row in g.table]
        n, e = g.order, g.identity
        cells = [
            (a1, a2, b1, b2)
            for a1 in range(n) for a2 in range(a1 + 1, n) for b1 in range(n) for b2 in range(b1 + 1, n)
            if e not in (a1, a2, b1, b2) and t[a1][b1] == t[a2][b2] and t[a1][b2] == t[a2][b1]
        ]
        for a1, a2, b1, b2 in rng.sample(cells, min(4, len(cells))):
            loop = [row[:] for row in t]
            loop[a1][b1], loop[a1][b2] = loop[a1][b2], loop[a1][b1]
            loop[a2][b1], loop[a2][b2] = loop[a2][b2], loop[a2][b1]
            out.append((f"{name}:{a1},{a2};{b1},{b2}", loop))
    return out


def _random_loop(n, rng):
    """A random Latin square on 0..n-1 with identity 0 and two-sided
    inverses paired by a random involution, the other cells filled by
    backtracking with the fewest candidates first; None if the search
    passes 20 n^2 steps."""
    t = [[None] * n for _ in range(n)]
    inverse = list(range(n))
    others = rng.sample(range(1, n), n - 1)
    for a, b in zip(others[: rng.randrange(n // 2 + 1) * 2 : 2], others[1::2]):
        inverse[a], inverse[b] = b, a
    for a in range(n):
        t[0][a] = t[a][0] = a
        t[a][inverse[a]] = 0
    full = (1 << n) - 1
    free_row = [full & ~sum(1 << v for v in set(row) - {None}) for row in t]
    free_col = [full & ~sum(1 << t[a][b] for a in range(n) if t[a][b] is not None) for b in range(n)]
    empty = {(a, b) for a in range(n) for b in range(n) if t[a][b] is None}
    steps = 20 * n * n

    def fill():
        nonlocal steps
        if not empty:
            return True
        steps -= 1
        if steps < 0:
            return False
        a, b = min(empty, key=lambda cell: (free_row[cell[0]] & free_col[cell[1]]).bit_count())
        free = free_row[a] & free_col[b]
        options = [v for v in range(n) if free >> v & 1]
        rng.shuffle(options)
        empty.remove((a, b))
        for v in options:
            t[a][b] = v
            free_row[a] ^= 1 << v
            free_col[b] ^= 1 << v
            if fill():
                return True
            free_row[a] ^= 1 << v
            free_col[b] ^= 1 << v
        t[a][b] = None
        empty.add((a, b))
        return False

    return t if fill() else None


def _random_loops(count=200, seed=11):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randrange(5, 17)
        loop = _random_loop(n, rng)
        if loop is not None:
            out.append((f"loop {len(out)} of order {n}", loop))
    return out


BROKEN = _broken_tables()
CATALOG = finite_catalog()


def _same_regularity(sigma):
    expected = _regular_classes_ref(sigma)
    if isinstance(expected, str):
        with pytest.raises(ClassInconsistency) as info:
            regular_classes(sigma)
        assert str(info.value) == expected
        return
    report = regular_classes(sigma)
    classes = tuple((cls.members, cls.representative, flag) for cls, flag in report.classes)
    witness = report.witness.members if report.witness else None
    assert (classes, witness, report.regular_element_count) == expected
    assert [is_regular_element(sigma, a) for a in sigma.group.elements()] == [
        _is_regular_ref(sigma, a) for a in sigma.group.elements()
    ]


def _violates(sigma, witness) -> bool:
    g, val = sigma.group, sigma.value
    if len(witness) == 2:
        a, e = witness
        return e == g.identity and bool(val(a, e) or val(e, a))
    a, b, c = witness
    return val(a, b) + val(g.mul(a, b), c) != val(a, g.mul(b, c)) + val(b, c)


def _same_validation(sigma):
    """validate's verdict is the exhaustive one, its report that of the
    generating-set reference, and a witness it names really fails."""
    report = validate(sigma)
    assert report.mode == "exhaustive"
    assert report.ok == _validate_ref(sigma)
    assert (report.ok, report.checked, report.witness, report.reason) == _light_validate_ref(sigma)
    if not report.ok:
        assert _violates(sigma, tuple(w for w in report.witness if w is not None))
    return report


# -- differential tests ---------------------------------------------------------------


def test_validate_and_regularity_match_reference_on_catalog():
    for name, sigma in CATALOG:
        assert _same_validation(sigma).ok, name
        _same_regularity(sigma)
        require_multiplier(sigma)


def test_validate_and_regularity_match_reference_on_broken_tables():
    assert len(BROKEN) == 90
    for name, sigma in BROKEN:
        report = _same_validation(sigma)
        assert not report.ok, name
        _same_regularity(sigma)


def test_generating_set_proof_refuses_exactly_what_validate_refuses():
    # the exhaustive Fraction loop is the oracle: validate runs this same proof
    for name, sigma in CATALOG + BROKEN:
        ok = _validate_ref(sigma)
        try:
            require_multiplier(sigma)
        except NotAMultiplier as exc:
            assert not ok and _violates(sigma, exc.witness), name
        else:
            assert ok, name


def test_generators_generate_greedily():
    groups = [g for _, g in small_groups()] + [direct_product(cyclic(16), cyclic(16)), symmetric(5), dihedral(64)]
    for g in groups:
        gens = g.generators()
        assert gens == g.generators()
        reached = {g.identity}
        for i, s in enumerate(gens):
            assert s == min(set(g.elements()) - reached)
            frontier = set(reached)
            while frontier:
                frontier = {g.mul(y, x) for y in frontier for x in gens[: i + 1]} - reached
                reached |= frontier
        assert reached == set(g.elements())
    assert [len(g.generators()) for g in groups[-3:]] == [2, 4, 2]


def _build_matches_reference(table, name):
    """Whether build accepts table, asserting that it refuses exactly when
    the exhaustive scan finds a failing triple and then names the first
    failure of Light's test, a triple that really fails."""
    g = FiniteGroup(table)
    if _check_associativity_ref(table) is None:
        build(table)
        return True
    with pytest.raises(NotAssociative) as info:
        build(table)
    assert str(info.value) == _light_failure_ref(table, g.generators()), name
    x, s, y = map(int, re.fullmatch(r"\((\d+)\*(\d+)\)\*(\d+) != .*", str(info.value)).groups())
    assert table[table[x][s]][y] != table[x][table[s][y]], name
    return False


def test_group_scans_match_reference():
    tables = [(name, [list(row) for row in g.table]) for name, g in small_groups()]
    tables += [(name, [list(row) for row in sigma.group.table]) for name, sigma in CATALOG[:40:4]]
    loops = _loops()
    assert sum(_check_associativity_ref(t) is not None for _, t in loops) >= 20
    for name, table in tables + loops:
        expected = _identity_and_inverses_ref(table)
        if isinstance(expected[1], str):
            with pytest.raises(NoInverse) as info:
                FiniteGroup(table)
            assert str(info.value) == expected[1], name
            continue
        g = FiniteGroup(table)
        assert (g.identity, tuple(g.inv(a) for a in g.elements())) == expected, name
        if _build_matches_reference(table, name):  # conjugacy classes partition only a group
            assert [(c.members, c.representative) for c in g.conjugacy_classes()] == _conjugacy_classes_ref(g), name


def test_light_test_refuses_exactly_the_nonassociative_loops():
    # Light's test on the generating set against the exhaustive |G|^3 scan,
    # on random loops of orders 5..16 and on the intercalate loops
    loops = [(name, t) for name, t in _random_loops() + _loops() if not isinstance(_identity_and_inverses_ref(t)[1], str)]
    associative = [_build_matches_reference(table, name) for name, table in loops]
    assert len(loops) >= 220 and associative.count(True) >= 1 and associative.count(False) >= 200


def test_bihomomorphism_validation_matches_reference():
    rng = random.Random(4)
    cases = []
    for _, s1, s2, f in product_triples():
        cases.append((s1.group, s2.group, f.table))
        table = [list(row) for row in f.table]
        a1, a2 = rng.randrange(len(table)), rng.randrange(len(table[0]))
        table[a1][a2] = table[a1][a2] + rot(Fraction(1, rng.choice((2, 3, 5))))
        cases.append((s1.group, s2.group, table))
    for g1, g2, table in cases:
        expected = _bihom_validate_ref(g1, g2, table)
        if expected is None:
            Bihomomorphism(g1, g2, table)
        else:
            with pytest.raises(InvalidBihomomorphism) as info:
                Bihomomorphism(g1, g2, table)
            assert str(info.value) == expected


def _product_value_ref(sigma, a, b):
    """sigma1(a1,b1) + sigma2(a2,b2) + f(b1,a2) on G1 x G2."""
    (a1, a2), (b1, b2) = sigma.split(a), sigma.split(b)
    return sigma.sigma1.value(a1, b1) + sigma.sigma2.value(a2, b2) + sigma.f.value(b1, a2)


def _klein_value_ref(sigma, a, b):
    """k a2 b1 / n on Z_n x Z_n, with a = a1 n + a2."""
    return rot(Fraction(sigma.k * (a % sigma.n) * (b // sigma.n), sigma.n))


def test_product_exponents_match_values():
    # each closed form, compiled and read back by value, against its formula
    s3 = symmetric(3)
    symbolic = coboundary_twist(trivial_multiplier(s3), [rot(0)] + [rot(Fraction(a, 7), {"t": a}) for a in range(1, 6)])
    products = [ProductMultiplier(s1, s2, f) for _, s1, s2, f in product_triples()[::5]]
    products.append(ProductMultiplier(symbolic, klein(2, 1), Bihomomorphism(s3, klein(2, 1).group, [[rot(0)] * 4] * 6)))
    cases = [(sigma, _product_value_ref) for sigma in products]
    cases += [(klein(n, k), _klein_value_ref) for n, k in ((2, 1), (4, 2), (6, 5), (7, 0), (9, 4))]
    for sigma, formula in cases:
        elements = sigma.group.elements()
        values = [[formula(sigma, a, b) for b in elements] for a in elements]
        assert [[sigma.value(a, b) for b in elements] for a in elements] == values
        ex, ref = sigma.exponents(), compile_values(values)
        assert ex.labels == ref.labels
        lcm = math.lcm(ex.D, ref.D)
        diff = ex.array * (lcm // ex.D) - ref.array * (lcm // ref.D)
        assert (diff[..., 0] % lcm == 0).all() and (diff[..., 1:] == 0).all()


def test_commutator_system_matches_reference():
    # block s, column c: (lambda(s) lambda(c) - lambda(c) lambda(s)) delta_e;
    # the trivial group has no generators and one zero block, at s = e, and
    # on a table with sigma(a, e) != 1 the system still follows lambda
    values = [list(row) for row in klein(2, 1).to_table().values]
    values[1][0] = values[3][0] = rot(Fraction(1, 3))
    extra = [
        ("trivial", trivial_multiplier(cyclic(1))),
        ("sigma(a, e) = 1/3", TableMultiplier(klein(2, 1).group, values)),
    ]
    for name, sigma in CATALOG[::3] + extra:
        g = sigma.group
        lam = [lambda_exact(sigma, a) for a in g.elements()]
        gens = g.generators() or (g.identity,)
        system = _commutator_system(sigma)
        assert system.shape == (len(gens) * g.order, g.order), name
        for s, block in zip(gens, np.split(system, len(gens))):
            for c in g.elements():
                ref = ((lam[s] @ lam[c]).to_array() - (lam[c] @ lam[s]).to_array())[:, g.identity]
                assert np.max(np.abs(block[:, c] - ref)) < 1e-12, (name, s, c)


def test_lambda_stack_names_the_first_symbol():
    g = symmetric(3)
    values = [[rot(0)] * 6 for _ in range(6)]
    values[2][4] = rot("1/3", {"u": 1, "s": 2})
    values[1][5] = rot(0, {"t": -1})
    sigma = TableMultiplier(g, values)
    with pytest.raises(MissingHint) as ref:
        _lambda_stack_ref(sigma)
    with pytest.raises(MissingHint) as info:
        center_dimension_numeric(sigma)
    assert info.value.args == ref.value.args == ("t",)


def test_exact_past_int64():
    """A denominator above 2^64 and a symbolic coefficient of size 10^30
    compile to exact Python ints; validation and regularity agree with the
    Fraction loops on the valid table and on a broken one."""
    rng = random.Random(64)
    p = 2**64 + 13
    g = dihedral(4)
    beta = [rot(0)] + [rot(Fraction(rng.randrange(p), p), {"t": 10**30 * rng.randint(-2, 2)}) for _ in range(7)]
    sigma = coboundary_twist(trivial_multiplier(g), beta)
    assert sigma.exponents().array.dtype == object and sigma.exponents().D >= p
    assert _same_validation(sigma).ok
    _same_regularity(sigma)
    require_multiplier(sigma)
    values = [list(row) for row in sigma.values]
    values[3][5] = values[3][5] + rot(Fraction(1, p))
    broken = TableMultiplier(g, values)
    assert not _same_validation(broken).ok
    _same_regularity(broken)
    with pytest.raises(NotAMultiplier):
        require_multiplier(broken)


def _primes_above(start: int, count: int) -> list[int]:
    primes, p = [], start
    while len(primes) < count:
        p += 1
        if all(p % q for q in range(2, math.isqrt(p) + 1)):
            primes.append(p)
    return primes


def test_validate_blocks_of_wide_ints_stay_small():
    """63 distinct primes near 10^6 as denominators give a D of 1256 bits and
    the object path; its blocks are sized in words, not entries, so the
    traced peak stays far below the 27 MiB of blocks counted in entries."""
    g = dihedral(32)
    rng = random.Random(5)
    beta = [rot(0)] + [rot(Fraction(rng.randrange(1, p), p)) for p in _primes_above(10**6, g.order - 1)]
    sigma = coboundary_twist(trivial_multiplier(g), beta)
    tracemalloc.start()
    try:
        report = validate(sigma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sigma.exponents().array.dtype == object and sigma.exponents().D.bit_length() > 1200
    assert (report.ok, report.checked, report.mode, report.witness, report.reason) == (True, 64**3, "exhaustive", None, None)
    assert peak < 4 * 2**20
    values = [list(row) for row in sigma.values]
    values[1][2] = values[1][2] + rot(Fraction(1, 3))
    assert not _same_validation(TableMultiplier(g, values)).ok


@pytest.mark.parametrize("scan", ["validate", "build", "regular_classes"])
def test_scans_stay_within_16_mib(scan):
    # a full |G|^3 int64 cube at |G| = 256 would be 128 MiB
    sigma = klein(16, 1)
    table = sigma.group.table
    run = {
        "validate": lambda: validate(sigma).ok,
        "build": lambda: build(table).order == 256,
        "regular_classes": lambda: regular_classes(sigma).condition_k,
    }[scan]
    tracemalloc.start()
    try:
        assert run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


# -- the refusal before decisions -------------------------------------------------------


@pytest.mark.parametrize("command", ["condition-k", "regular-classes", "center", "f-degeneracy"])
def test_cli_refuses_non_multiplier_before_deciding(command, capsys):
    name, broken = BROKEN[7]
    if command == "f-degeneracy":
        z2 = trivial_multiplier(cyclic(2))
        trivial_f = Bihomomorphism(broken.group, z2.group, [[rot(0)] * 2 for _ in broken.group.elements()])
        broken = ProductMultiplier(broken, z2, trivial_f)
    assert not validate(broken).ok
    code = main([command, "--inline", json.dumps(encode_multiplier(broken))])
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert code == 1 and len(captured.err.splitlines()) == 1
    assert report["error"] == "not a multiplier" and report["reason"] in ("cocycle identity", "identity row/column")
    assert _violates(broken, report["witness"]), name
