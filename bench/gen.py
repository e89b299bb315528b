"""Seeded inputs for the twistk benchmark, each job with an expected outcome.

Nothing here imports twistk.  Groups are plain multiplication tables and
circle values are exponents ``(rat, irr)``: a Fraction in [0, 1) plus a
sorted tuple of ``(symbol, Fraction)`` coefficients.  Every input is built
from a construction whose answers are known in closed form (the Klein
law, coboundary invariance, class counts of dihedral and symmetric
groups, the cyclic-product formula, free-product decomposition), so the
checker never needs the program to tell it what is right.

A workload is one *pass*: a fixed list of jobs whose inputs vary with the
seed.  The timed phase repeats the pass, so every run measures the same
job mix in the same order.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Callable

# -- exponents ----------------------------------------------------------------

ZERO = (Fraction(0), ())


def ex(rat=0, irr=()) -> tuple:
    """Canonical exponent: rational part mod 1, symbols sorted, zeros dropped."""
    acc: dict[str, Fraction] = {}
    for label, c in irr.items() if isinstance(irr, dict) else irr:
        acc[label] = acc.get(label, Fraction(0)) + Fraction(c)
    return (Fraction(rat) % 1, tuple((label, acc[label]) for label in sorted(acc) if acc[label]))


def add(x, y):
    if not x[1] and not y[1]:
        return ((x[0] + y[0]) % 1, ())
    return ex(x[0] + y[0], x[1] + y[1])


def neg(x):
    return ex(-x[0], tuple((label, -c) for label, c in x[1]))


def sub(x, y):
    return add(x, neg(y))


def scale(x, k: int):
    return ex(x[0] * k, tuple((label, c * k) for label, c in x[1]))


def is_zero(x) -> bool:
    return x[0] == 0 and not x[1]


def exp_json(x) -> dict:
    return {"rat": str(x[0]), "irr": {label: str(c) for label, c in x[1]}}


# -- groups -------------------------------------------------------------------


class Group:
    """A finite group given by its full multiplication table."""

    def __init__(self, table: list[list[int]], names: list[str]):
        n = len(table)
        self.table = table
        self.names = names
        self.order = n
        self.identity = next(e for e in range(n) if all(table[e][x] == x for x in range(n)))
        self.inv = [table[a].index(self.identity) for a in range(n)]

    def conj_class(self, x: int) -> list[int]:
        t, inv = self.table, self.inv
        return sorted({t[t[g][x]][inv[g]] for g in range(self.order)})

    def commutes(self, a: int, b: int) -> bool:
        return self.table[a][b] == self.table[b][a]

    def to_json(self) -> dict:
        return {"order": self.order, "table": self.table, "names": self.names}


def from_op(elems: list, op: Callable, names: list[str]) -> Group:
    index = {e: i for i, e in enumerate(elems)}
    return Group([[index[op(a, b)] for b in elems] for a in elems], names)


def cyclic(n: int) -> Group:
    return Group([[(i + j) % n for j in range(n)] for i in range(n)], [str(i) for i in range(n)])


def direct_product(g1: Group, g2: Group) -> Group:
    """Row-major packing (a1, a2) -> a1 * |G2| + a2, as the CLI documents."""
    n2 = g2.order
    table = [
        [g1.table[a1][b1] * n2 + g2.table[a2][b2] for b1 in range(g1.order) for b2 in range(n2)]
        for a1 in range(g1.order)
        for a2 in range(n2)
    ]
    names = [f"({x},{y})" for x in g1.names for y in g2.names]
    return Group(table, names)


def dihedral(m: int) -> Group:
    """D_m of order 2m: (i, s)(j, t) = (i + (-1)^s j, s + t)."""
    elems = [(i, s) for s in (0, 1) for i in range(m)]
    names = [f"r{i}" if s == 0 else f"sr{i}" for i, s in elems]
    return from_op(elems, lambda a, b: ((a[0] + (b[0] if a[1] == 0 else -b[0])) % m, (a[1] + b[1]) % 2), names)


def symmetric(n: int) -> tuple[Group, list[int]]:
    """S_n on sorted permutation tuples, with the sign (0 even, 1 odd) of each."""
    elems = sorted(permutations(range(n)))
    group = from_op(elems, lambda p, q: tuple(p[q[x]] for x in range(n)), ["".join(map(str, p)) for p in elems])
    sign = [sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n)) % 2 for p in elems]
    return group, sign


def dihedral_classes(m: int) -> int:
    return m // 2 + 3 if m % 2 == 0 else (m + 3) // 2


# -- finite multipliers ----------------------------------------------------------


@dataclass
class Finite:
    """A finite multiplier as sent (``spec``) and as the checker evaluates it.

    ``classes`` is the number of conjugacy classes and ``regular`` the
    number of sigma-regular classes (the center dimension); ``valid`` is
    False for a deliberately broken table.
    """

    spec: dict
    group: Group
    val: Callable[[int, int], tuple]
    classes: int
    regular: int
    valid: bool = True
    symbolic: bool = False

    @property
    def condition_k(self) -> bool:
        return self.regular == 1

    @property
    def matrix_n(self) -> int | None:
        root = math.isqrt(self.group.order)
        return root if self.regular == 1 and root * root == self.group.order else None

    def table(self) -> list[list[tuple]]:
        n = self.group.order
        return [[self.val(a, b) for b in range(n)] for a in range(n)]


def klein(n: int, k: int) -> Finite:
    """sigma_k((a1,a2),(b1,b2)) = k a2 b1 / n on Z_n x Z_n: gcd(n,k)^2 regular classes."""
    g = math.gcd(n, k)
    return Finite(
        {"type": "klein", "n": n, "k": k},
        direct_product(cyclic(n), cyclic(n)),
        lambda a, b: (Fraction(k * (a % n) * (b // n), n) % 1, ()),
        n * n,
        g * g,
    )


def trivial(group: Group, classes: int) -> Finite:
    """Every class of the trivial multiplier is regular."""
    return Finite({"type": "trivial", "group": group.to_json()}, group, lambda a, b: ZERO, classes, classes)


def table_of(sigma: Finite, values: list[list[tuple]], **changes) -> Finite:
    values = [list(row) for row in values]
    spec = {
        "type": "table",
        "group": sigma.group.to_json(),
        "values": [[exp_json(v) for v in row] for row in values],
    }
    fields = dict(spec=spec, group=sigma.group, val=lambda a, b: values[a][b],
                  classes=sigma.classes, regular=sigma.regular, valid=sigma.valid)
    fields.update(changes)
    return Finite(**fields)


def coboundary(sigma: Finite, beta: list[tuple], **changes) -> Finite:
    """The similar multiplier beta(a) + beta(b) - beta(ab) + sigma(a, b): every answer is kept."""
    t, n = sigma.group.table, sigma.group.order
    values = [[add(add(beta[a], beta[b]), sub(sigma.val(a, b), beta[t[a][b]])) for b in range(n)] for a in range(n)]
    return table_of(sigma, values, **changes)


def twist(sigma: Finite, rng: random.Random, symbolic: bool = False) -> Finite:
    """A coboundary twist by a random beta with beta(e) = 0, rational or with symbol t."""
    g = sigma.group
    beta = []
    for a in range(g.order):
        if a == g.identity:
            beta.append(ZERO)
            continue
        q = rng.choice((2, 3, 4, 5, 6, 8, 12))
        irr = {"t": Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))} if symbolic else {}
        beta.append(ex(Fraction(rng.randrange(q), q), irr))
    return coboundary(sigma, beta, symbolic=symbolic or sigma.symbolic)


def broken(sigma: Finite, rng: random.Random) -> Finite:
    """One entry sigma(i, j), with i, j not the identity, moved by 1/p.

    For any a outside {e, i} the cocycle identity at (a, i, j) then fails
    by exactly 1/p, so the table is not a multiplier.
    """
    g = sigma.group
    values = sigma.table()
    others = [x for x in range(g.order) if x != g.identity]
    i, j = rng.choice(others), rng.choice(others)
    values[i][j] = add(values[i][j], (Fraction(1, rng.choice((3, 5, 7))), ()))
    return table_of(sigma, values, valid=False)


def product(s1: Finite, s2: Finite, f: list[list[tuple]], regular: int) -> Finite:
    """sigma((a1,a2),(b1,b2)) = sigma1(a1,b1) + sigma2(a2,b2) + f(b1,a2) on G1 x G2."""
    n2 = s2.group.order

    def val(a, b):
        a1, a2 = divmod(a, n2)
        b1, b2 = divmod(b, n2)
        return add(add(s1.val(a1, b1), s2.val(a2, b2)), f[b1][a2])

    spec = {"type": "direct_product", "sigma1": s1.spec, "sigma2": s2.spec,
            "f": {"table": [[exp_json(v) for v in row] for row in f]}}
    return Finite(spec, direct_product(s1.group, s2.group), val, s1.classes * s2.classes, regular,
                  valid=s1.valid and s2.valid)


def cyclic_product(a: int, b: int, num: int) -> Finite:
    """Z_a x Z_b with f(x, y) = num x y / gcd(a, b): with d = gcd(a,b) / gcd(num, gcd(a,b)),
    exactly the (x1, x2) with d | x1 and d | x2 are regular."""
    g = math.gcd(a, b)
    d = g // math.gcd(num, g)
    f = [[(Fraction(num * x * y, g) % 1, ()) for y in range(b)] for x in range(a)]
    return product(trivial(cyclic(a), a), trivial(cyclic(b), b), f, (a // d) * (b // d))


def s3_z6_sign() -> Finite:
    """S3 x Z6 with f(x, y) = sign(x) y / 2.

    (x, y) is regular iff x is even and y is even or x has no odd
    element in its centralizer: (e, 0|2|4) and the 3-cycles with any y,
    which make 3 + 6 = 9 regular classes out of 18.
    """
    s3, sign = symmetric(3)
    f = [[(Fraction(sign[x] * y, 2) % 1, ()) for y in range(6)] for x in range(6)]
    return product(trivial(s3, 3), trivial(cyclic(6), 6), f, 9)


def with_cyclic_factor(sigma1: Finite, n2: int) -> Finite:
    """sigma1 x (trivial on Z_n2) with f = 0; carries a broken factor to f-degeneracy."""
    f = [[ZERO] * n2 for _ in range(sigma1.group.order)]
    return product(sigma1, trivial(cyclic(n2), n2), f, sigma1.regular * n2)


def normalized(sigma: Finite) -> Finite:
    """A similar multiplier with sigma(a, a^-1) = 0 (pairwise beta, as in the paper)."""
    g = sigma.group
    beta: list = [None] * g.order
    for a in range(g.order):
        if beta[a] is not None:
            continue
        ai = g.inv[a]
        if a == ai:
            r = sigma.val(a, a)
            beta[a] = neg(ex(r[0] / 2, tuple((label, c / 2) for label, c in r[1])))
        else:
            beta[a], beta[ai] = ZERO, neg(sigma.val(a, ai))
    beta[g.identity] = ZERO
    out = coboundary(sigma, beta)
    if not all(is_zero(out.val(a, g.inv[a])) for a in range(g.order)):
        raise RuntimeError("normalization left some sigma(a, a^-1) nonzero")
    return out


# -- infinite families ------------------------------------------------------------


def _antisym(n: int) -> list[list[Fraction]]:
    return [[Fraction(0)] * n for _ in range(n)]


def _pair(m, i, j, c) -> None:
    m[i][j] += c
    m[j][i] -= c


def _unimodular(n: int, rng: random.Random) -> list[list[int]]:
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(n):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((-1, 1))
        u[i] = [x + s * y for x, y in zip(u[i], u[j])]
    return u


def _congruent(m, u):
    """U^T M U: the same condition-K answer in another lattice basis."""
    n = len(m)
    mu = [[sum(m[i][k] * u[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[sum(u[k][i] * mu[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _nonzero(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((1, 2, 3, -1, -2)), rng.choice((1, 2, 3, 5)))


@dataclass
class Torus:
    """sigma(a, b) = sum_{i<j} a_i t_ij b_j on Z^n; ``m`` is the antisymmetric matrix."""

    spec: dict
    n: int
    m: list[list[tuple]]
    condition_k: bool


def torus(n: int, holds: bool, rng: random.Random) -> Torus:
    """Symbol t pairs coordinates (0,1), (2,3), ...; the kernel of the symbol
    parts is trivial (condition K holds) when the pairs cover every
    coordinate, with symbol u closing an odd rank, and nontrivial when the
    last two or three coordinates are left free.  A random unimodular
    change of basis hides the block structure."""
    comps = {"": _antisym(n), "t": _antisym(n), "u": _antisym(n)}
    for i in range(n):
        for j in range(i + 1, n):
            q = rng.choice((2, 3, 4, 5, 7))
            _pair(comps[""], i, j, Fraction(rng.randrange(q), q))
    pairs = n // 2 if holds else n // 2 - 1
    for p in range(pairs):
        _pair(comps["t"], 2 * p, 2 * p + 1, _nonzero(rng))
    if holds and n % 2:
        _pair(comps["u"], n - 2, n - 1, _nonzero(rng))
    u = _unimodular(n, rng)
    comps = {label: _congruent(m, u) for label, m in comps.items()}
    m = [[ex(comps[""][i][j], {"t": comps["t"][i][j], "u": comps["u"][i][j]}) for j in range(n)] for i in range(n)]
    theta = {f"{i + 1},{j + 1}": exp_json(m[i][j]) for i in range(n) for j in range(i + 1, n) if not is_zero(m[i][j])}
    spec = {"type": "torus", "n": n, "theta": theta, "basis": ["t", "u"], "hints": {}}
    return Torus(spec, n, m, holds)


MU_KEYS = ("11", "12", "13", "21", "22", "23", "32", "33")


@dataclass
class G3:
    """The rank-3 free nilpotent family; ``rows`` is the criterion matrix
    with the derived entry mu_31 = mu_22 - mu_13."""

    spec: dict
    rows: list[list[tuple]]
    condition_k: bool


def g3(holds: bool, rng: random.Random) -> G3:
    """Central c is regular iff rows @ c is integral; with one symbol t this has
    a nonzero solution iff the t-part of ``rows`` is singular.  For a failing
    instance a kernel vector v is planted by solving for mu_13, mu_23, mu_33."""
    while True:
        t = {key: _nonzero(rng) for key in MU_KEYS}
        if not holds:
            v = [rng.randint(-2, 2), rng.randint(-2, 2), rng.choice((1, 2, -1))]
            t["13"] = -(t["11"] * v[0] + t["12"] * v[1]) / v[2]
            t["23"] = -(t["21"] * v[0] + t["22"] * v[1]) / v[2]
            t["33"] = -((t["22"] - t["13"]) * v[0] + t["32"] * v[1]) / v[2]
        tm = [[t["11"], t["12"], t["13"]], [t["21"], t["22"], t["23"]], [t["22"] - t["13"], t["32"], t["33"]]]
        det = (tm[0][0] * (tm[1][1] * tm[2][2] - tm[1][2] * tm[2][1])
               - tm[0][1] * (tm[1][0] * tm[2][2] - tm[1][2] * tm[2][0])
               + tm[0][2] * (tm[1][0] * tm[2][1] - tm[1][1] * tm[2][0]))
        if (det != 0) == holds:
            break
    mu = {}
    for key in MU_KEYS:
        q = rng.choice((2, 3, 5, 7))
        mu[key] = ex(Fraction(rng.randrange(q), q), {"t": t[key]})
    rows = [[mu["11"], mu["12"], mu["13"]], [mu["21"], mu["22"], mu["23"]], [sub(mu["22"], mu["13"]), mu["32"], mu["33"]]]
    spec = {"type": "g3", "mu": {key: exp_json(v) for key, v in mu.items()}, "basis": ["t"], "hints": {}}
    return G3(spec, rows, holds)


@dataclass
class FreeProduct:
    """sigma1 * sigma2 of two normalized factors: always decomposes."""

    spec: dict


def free_product(s1: Finite, s2: Finite) -> FreeProduct:
    return FreeProduct({"type": "free_product", "sigma1": s1.spec, "sigma2": s2.spec})


# -- jobs and workloads --------------------------------------------------------------


@dataclass
class Malformed:
    """A spec the CLI must refuse with exit 2."""

    spec: object


@dataclass
class Job:
    """One CLI call.  ``expect`` is "answer", "refuse" (broken multiplier:
    exit 1 or 2), "malformed" (exit 2) or "answer_or_refuse" (a valid
    table with symbols: the center needs float hints a table cannot carry)."""

    command: str
    input: str
    expect: str
    model: object
    options: list[str]

    def argv(self, path: str) -> list[str]:
        return [self.command, "--input", path, *self.options]


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    inputs: dict[str, object]
    warmup: list[Job]
    warmup_inputs: dict[str, object]


def _expect(cmd: str, model) -> str:
    if isinstance(model, Malformed):
        return "malformed"
    if isinstance(model, Finite) and not model.valid and cmd != "validate":
        return "refuse"
    if isinstance(model, Finite) and model.symbolic and cmd == "center":
        return "answer_or_refuse"
    return "answer"


def _k_with_gcd(n: int, g: int, rng: random.Random) -> int:
    return rng.choice([k for k in range(n) if math.gcd(n, k) == g])


Item = tuple[str, object, tuple[str, ...], list[str]]  # input name, model, commands, CLI options


def finite_validate_center(rng: random.Random) -> tuple[list[Item], list[Item]]:
    """Orders 16..49; the |G|^3 cocycle scan and the |G|^4 center oracle do the work.

    Orders 20..28 (d10 to z3xz9) put validate and center jobs of 70 to 100 ms
    around the median, which a gap between job types would make jump."""
    s4, _ = symmetric(4)
    s3, _ = symmetric(3)
    s3z6 = direct_product(s3, cyclic(6))
    k = lambda n, g: klein(n, _k_with_gcd(n, g, rng))
    items = [
        ("klein4", k(4, 1)),
        ("klein4_rat", twist(k(4, 2), rng)),
        ("klein4_sym", twist(k(4, 1), rng, symbolic=True)),
        ("klein4_broken", broken(twist(k(4, 2), rng), rng)),
        ("d8", trivial(dihedral(8), dihedral_classes(8))),
        ("d8_rat", twist(trivial(dihedral(8), dihedral_classes(8)), rng)),
        ("z4xz4", cyclic_product(4, 4, rng.choice((1, 3)))),
        ("z2xz8", cyclic_product(2, 8, 1)),
        ("d9", trivial(dihedral(9), dihedral_classes(9))),
        ("z3xz6", cyclic_product(3, 6, rng.choice((1, 2)))),
        ("d10", trivial(dihedral(10), dihedral_classes(10))),
        ("d10_rat", twist(trivial(dihedral(10), dihedral_classes(10)), rng)),
        ("z4xz5", cyclic_product(4, 5, 1)),
        ("z2xz10", cyclic_product(2, 10, 1)),
        ("z3xz7", cyclic_product(3, 7, 1)),
        ("d11", trivial(dihedral(11), dihedral_classes(11))),
        ("d11_broken", broken(twist(trivial(dihedral(11), dihedral_classes(11)), rng), rng)),
        ("s4", trivial(s4, 5)),
        ("s4_rat", twist(trivial(s4, 5), rng)),
        ("s4_broken", broken(twist(trivial(s4, 5), rng), rng)),
        ("d12", trivial(dihedral(12), dihedral_classes(12))),
        ("z4xz6", cyclic_product(4, 6, 1)),
        ("klein5", k(5, 1)),
        ("klein5_rat", twist(k(5, 5), rng)),
        ("klein5_sym", twist(k(5, 1), rng, symbolic=True)),
        ("z5xz5", cyclic_product(5, 5, rng.randrange(1, 5))),
        ("klein5_broken", broken(twist(k(5, 1), rng), rng)),
        ("z3xz9", cyclic_product(3, 9, rng.choice((1, 2)))),
        ("d14", trivial(dihedral(14), dihedral_classes(14))),
        ("d14_rat", twist(trivial(dihedral(14), dihedral_classes(14)), rng)),
        ("d15", trivial(dihedral(15), dihedral_classes(15))),
        ("d16", trivial(dihedral(16), dihedral_classes(16))),
        ("z4xz8", cyclic_product(4, 8, rng.choice((1, 3)))),
        ("d16_broken", broken(trivial(dihedral(16), dihedral_classes(16)), rng)),
        ("klein6", k(6, 2)),
        ("klein6_rat", twist(k(6, 1), rng)),
        ("s3xz6", trivial(s3z6, 18)),
        ("s3xz6_sign", s3_z6_sign()),
        ("klein7", k(7, 1)),
    ]
    warm = [("warm_klein4", klein(4, 1), ("validate", "center"), [])]
    return [(name, sigma, ("validate", "center"), []) for name, sigma in items], warm


MALFORMED = {
    "malformed_rank": {"type": "torus", "n": "x", "theta": {}, "basis": []},
    "malformed_top": 5,
    "malformed_zero_den": {"type": "torus", "n": 2, "theta": {"1,2": {"rat": "1/0", "irr": {}}}, "basis": []},
}


def finite_decide_large(rng: random.Random) -> tuple[list[Item], list[Item]]:
    """Orders 64..256 without validate or SVD: group construction,
    conjugacy classes, the regularity scan and f-degeneracy do the work."""
    ck, rc, fd = "condition-k", "regular-classes", "f-degeneracy"
    # Quantiles that fall between two job types with far apart times jump from
    # run to run: the cheap jobs (orders 64..120) put the median inside a dense
    # band of times (d52..d60, z9xz9 and klein9_rat fill 45..70 ms), and
    # orders 192 to 225 the band around the 90th percentile (380..460 ms).
    gcds = [(8, 1), (8, 2), (8, 4), (8, 8), (9, 3), (9, 1), (10, 2), (10, 5), (11, 1), (11, 11), (12, 1), (13, 1),
            (14, 2), (14, 7), (15, 1), (15, 3), (15, 5), (16, 1)]
    items = [(f"klein{n}_g{g}", klein(n, _k_with_gcd(n, g, rng)), (ck, rc)) for n, g in gcds]
    s5, _ = symmetric(5)
    d32 = trivial(dihedral(32), dihedral_classes(32))
    d64 = trivial(dihedral(64), dihedral_classes(64))
    tw8 = twist(klein(8, _k_with_gcd(8, 2, rng)), rng)
    items += [
        ("klein8_rat", tw8, (ck, rc)),
        ("klein9_rat", twist(klein(9, _k_with_gcd(9, 3, rng)), rng), (ck, rc)),
        ("klein12_rat", twist(klein(12, _k_with_gcd(12, 3, rng)), rng), (ck,)),
        ("klein16_rat", twist(klein(16, _k_with_gcd(16, 1, rng)), rng), (rc,)),
        ("d32", d32, (ck, rc)),
        ("d32_rat", twist(d32, rng), (ck, rc)),
        ("d40", trivial(dihedral(40), dihedral_classes(40)), (ck, rc)),
        ("d48", trivial(dihedral(48), dihedral_classes(48)), (ck, rc)),
        ("d52", trivial(dihedral(52), dihedral_classes(52)), (ck, rc)),
        ("d56", trivial(dihedral(56), dihedral_classes(56)), (ck, rc)),
        ("d60", trivial(dihedral(60), dihedral_classes(60)), (ck, rc)),
        ("d64", d64, (ck, rc)),
        ("d64_rat", twist(d64, rng), (ck,)),
        ("s5", trivial(s5, 7), (ck, rc)),
        ("s5_rat", twist(trivial(s5, 7), rng), (rc,)),
        ("z8xz8", cyclic_product(8, 8, rng.choice((1, 3, 5, 7))), (fd, ck, rc)),
        ("z9xz9", cyclic_product(9, 9, rng.choice((1, 2, 3, 4))), (fd, ck, rc)),
        ("z8xz16", cyclic_product(8, 16, rng.choice((2, 6))), (fd,)),
        ("z10xz10", cyclic_product(10, 10, rng.choice((2, 4, 6, 8))), (fd, ck, rc)),
        ("z12xz12", cyclic_product(12, 12, rng.choice((1, 5, 7, 11))), (fd, ck)),
        ("z12xz16", cyclic_product(12, 16, rng.choice((1, 2, 3))), (ck, rc)),
        ("z16xz8", cyclic_product(16, 8, rng.choice((1, 3))), (fd, rc)),
        ("z16xz16", cyclic_product(16, 16, rng.choice((4, 12))), (fd,)),
        ("klein8_broken", broken(tw8, rng), (ck,)),
        ("d32_broken", broken(twist(d32, rng), rng), (rc,)),
        ("s5_broken", broken(trivial(s5, 7), rng), (ck,)),
        ("z8_broken_x_z8", with_cyclic_factor(broken(twist(trivial(cyclic(8), 8), rng), rng), 8), (fd,)),
    ]
    items += [(key, Malformed(spec), (ck,)) for key, spec in MALFORMED.items()]
    warm = [("warm_klein8", klein(8, 1), (ck, rc), []), ("warm_z4xz4", cyclic_product(4, 4, 1), (fd,), [])]
    return [(key, model, cmds, []) for key, model, cmds in items], warm


def _small_normalized(rng: random.Random) -> list[Finite]:
    s3, _ = symmetric(3)
    return [
        trivial(cyclic(2), 2),
        trivial(cyclic(3), 3),
        normalized(twist(trivial(cyclic(4), 4), rng)),
        trivial(s3, 3),
        normalized(klein(2, 1)),
        normalized(klein(3, rng.choice((1, 2)))),
    ]


TORUS_FUZZ = 18
G3_FUZZ = 40
FP_FUZZ = 60
FP_BOX = 4


def infinite_fuzz(rng: random.Random) -> tuple[list[Item], list[Item]]:
    """Torus, g3 and free-product families; no finite table is scanned."""
    items = []
    for n in (4, 5, 6, 7, 8):
        opts = ["--fuzz", str(TORUS_FUZZ), "--box", "3", "--seed", str(rng.randrange(1 << 30))]
        t = torus(n, n % 2 == 0, rng)
        items.append((f"torus{n}", t, ("validate",), opts))
        items.append((f"torus{n}", t, ("condition-k",), []))
    for n in (12, 16, 20, 24, 28, 32):
        items.append((f"torus{n}", torus(n, n % 8 == 0, rng), ("condition-k",), []))
    for i in range(6):
        opts = ["--fuzz", str(G3_FUZZ), "--box", "3", "--seed", str(rng.randrange(1 << 30))]
        g = g3(i % 2 == 0, rng)
        items.append((f"g3_{i}", g, ("validate",), opts))
        items.append((f"g3_{i}", g, ("condition-k",), []))
    factors = _small_normalized(rng)
    for i, (a, b) in enumerate(((0, 1), (4, 1), (3, 2), (5, 0), (4, 3), (2, 5))):
        fp = free_product(factors[a], factors[b])
        for cmd in ("validate", "decompose"):
            opts = ["--fuzz", str(FP_FUZZ), "--box", str(FP_BOX), "--seed", str(rng.randrange(1 << 30))]
            items.append((f"fp{i}", fp, (cmd,), opts))
    small = ["--fuzz", "4", "--box", "2"]
    warm_torus = torus(4, True, random.Random(0))
    warm = [
        ("warm_torus", warm_torus, ("validate",), small),
        ("warm_torus", warm_torus, ("condition-k",), []),
        ("warm_fp", free_product(trivial(cyclic(2), 2), trivial(cyclic(3), 3)), ("decompose",), small),
    ]
    return items, warm


WORKLOADS = {
    "finite-validate-center": finite_validate_center,
    "finite-decide-large": finite_decide_large,
    "infinite-fuzz": infinite_fuzz,
}


def _jobs(items: list[Item]) -> tuple[dict[str, object], list[Job]]:
    inputs, jobs = {}, []
    for key, model, cmds, options in items:
        inputs[key] = model.spec
        jobs += [Job(cmd, key, _expect(cmd, model), model, options) for cmd in cmds]
    return inputs, jobs


def build(name: str, seed: int) -> Workload:
    """The workload's pass and warm-up jobs; the same seed gives the same jobs."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    items, warm = WORKLOADS[name](random.Random(f"{name}:{seed}"))
    inputs, jobs = _jobs(items)
    warmup_inputs, warmup = _jobs(warm)
    return Workload(name, jobs, inputs, warmup, warmup_inputs)


def dump(spec) -> bytes:
    """Input bytes: sorted keys, no whitespace, so a seed maps to identical files."""
    return json.dumps(spec, sort_keys=True, separators=(",", ":")).encode()
