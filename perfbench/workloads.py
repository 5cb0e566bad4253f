"""Seeded inputs for the benchmark workloads.

Every case is plain ``.scn`` text plus the probe seed passed to
``run_report(..., seed_override=seed)``; the program under test sees nothing
else.  The same workload seed always gives the same cases, and every
random choice comes from ``random.Random(f"{seed}:{label}")`` streams, which
hash their string seed with a fixed algorithm.

Three workloads load three different layers of anticanon:

``bundled``  the five scenarios shipped with the package, full ``analyze``.
             Numeric probes (flow, completeness, ricci) dominate.
``ladder``   generated bases on C^n, ``analyses divisor kahler``.  The exact
             kernel (``poly_gcd`` under ``RatFunc``) dominates.
``lattice``  generated Gaussian-rational lattices, ``analyses cone``.  Exact
             scalar elimination (``linsolve``) dominates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("bundled", "ladder", "lattice")

# p2_pencil is degenerate on purpose: raising DegenerateBasis is its correct
# outcome (the CLI exits 2), not a failure.
BUNDLED_EXPECTED_ERRORS = {"p2_pencil": "DegenerateBasis"}

# Ladder rungs are C^2 degree 1, C^2 degree 2 and C^3 degree 1.  Each has
# random, non-commuting bases (non-Kahler verdict) and shear-conjugated torus
# bases (Kahler verdict), so both branches of the Kahler decision run.  The
# random bases on C^2 use fixed sparse supports with seeded Gaussian-integer
# coefficients: the cost of the exact kernel depends mostly on the support,
# so fixing it keeps the per-seed cost steady.  Exponents are listed per
# (field, component).
LADDER_SUPPORTS = {
    "C2d1-sparseA": (2, (((1, 0), (0, 0)), ((0, 1),)), (((0, 1),), ((1, 0), (0, 0)))),
    "C2d1-sparseB": (2, (((1, 0), (0, 1)), ((0, 0),)), (((0, 0), (1, 0)), ((0, 1),))),
    "C2d2-sparseA": (2, (((2, 0), (0, 0)), ((0, 1),)), (((1, 0),), ((0, 2), (0, 0)))),
    "C2d2-sparseB": (2, (((1, 0), (0, 0)), ((2, 0),)), (((0, 0),), ((0, 1), (1, 0)))),
}
# Random bases per round for each support.  With these counts the median
# report falls among the C2d1-sparseB and C2d2-sparseB cases, which cost
# about the same, and the 75th percentile inside the C2d2-sparseA ones:
# never on the edge between two kinds of case with different costs.
LADDER_RANDOM_PER_ROUND = {"C2d1-sparseA": 1, "C2d1-sparseB": 1,
                           "C2d2-sparseA": 3, "C2d2-sparseB": 1}
LADDER_SHEARS = ((2, 1), (2, 2), (3, 1))
# The random C^3 linear basis is the frontier case: on the exact pipeline of
# the first benchmarked version its Kahler defect does not finish within a
# minute.  It is not part of the timed rounds, where it could only fail; the
# traced run attempts it once under the per-operation deadline and reports
# whether it finished (see ``frontier_case``), so that a faster exact layer
# shows up there.
FRONTIER = (3, 1)
LADDER_TERMS = 3

# Lattice shapes as (n, number of generators).  Fewer than n generators give
# a residual block (m > 0); n to 2n generators give a semi-torus (m = 0).
# C^6 stops at 10 generators (about 1 s): 12 took 1.4-2.2 s and made one
# case half of every round.  C4g8 appears three times, so that the median
# report is the middle of many cases of one kind, and the 75th percentile
# falls among the C5g10 ones.
LATTICE_SHAPES = ((4, 3), (4, 5), (4, 8), (4, 8), (4, 8), (5, 4), (5, 7),
                  (5, 10), (6, 3), (6, 8), (6, 10))

# In the first round of a run every case runs twice in a row with the same
# seed so that the two serializations can be compared.
REPEAT = 2


@dataclass(frozen=True)
class Case:
    """One unit of work: a scenario text analysed under a fixed probe seed."""

    name: str
    text: str
    seed: int
    kind: str                          # "bundled", "random", "shear", "lattice"
    expect_error: "str | None" = None  # exception class name that is correct
    repeat: int = REPEAT


def _rng(seed: int, label: str) -> random.Random:
    return random.Random(f"{seed}:{label}")


def _probe_seed(seed: int, label: str) -> int:
    return _rng(seed, f"probe:{label}").randrange(1, 2**31)


# ---------------------------------------------------------------------------
# writing generated fields as scenario text
# ---------------------------------------------------------------------------
# A polynomial is a dict {exponent tuple: complex}.  Coefficients are
# Gaussian integers, so complex arithmetic on them is exact at these sizes.


def _monomials(n: int, degree: int) -> list[tuple[int, ...]]:
    out = [()]
    for _ in range(n):
        out = [e + (k,) for e in out for k in range(degree + 1)]
    return sorted((e for e in out if sum(e) <= degree), key=lambda e: (sum(e), e))


def _add(p: dict, q: dict, scale: complex = 1) -> dict:
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + scale * c
        if out[e] == 0:
            del out[e]
    return out


def _scale(p: dict, c: complex) -> dict:
    return {e: c * v for e, v in p.items()} if c else {}


def _var(n: int, j: int) -> dict:
    return {tuple(1 if k == j else 0 for k in range(n)): 1}


def _poly_text(p: dict) -> str:
    """Terms like ``2*z1^2 - i*z2 + 3``: no nested parentheses."""
    pieces = []
    for e in sorted(p, key=lambda e: (-sum(e), e)):
        mono = "*".join(f"z{j + 1}" if k == 1 else f"z{j + 1}^{k}"
                        for j, k in enumerate(e) if k)
        for part, unit in ((int(p[e].real), ""), (int(p[e].imag), "i")):
            if part == 0:
                continue
            factors = [f for f in (str(abs(part)) if abs(part) != 1 else "",
                                   unit, mono) if f]
            pieces.append(("-" if part < 0 else "+", "*".join(factors) or "1"))
    text = "".join(f" {sign} {body}" for sign, body in pieces)
    return text[3:] if text.startswith(" + ") else "-" + text[3:]


def _gaussian_int(rng: random.Random) -> complex:
    while True:
        c = complex(rng.randint(-2, 2), rng.randint(-1, 1))
        if c:
            return c


def _det_at(rows: list[list[dict]], point: list[int]) -> complex:
    """Determinant of the component matrix at an integer point (n <= 3)."""
    m = [[sum(c * _mono_value(e, point) for e, c in p.items()) for p in row]
         for row in rows]
    if len(m) == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def _mono_value(e: tuple[int, ...], point: list[int]) -> int:
    out = 1
    for x, k in zip(point, e):
        out *= x ** k
    return out


def _nondegenerate(rows: list[list[dict]], rng: random.Random) -> bool:
    n = len(rows)
    return any(_det_at(rows, [rng.randint(-3, 3) for _ in range(n)]) != 0
               for _ in range(4))


def scenario_text(n: int, rows: list[list[dict]], analyses: str,
                  comment: str) -> str:
    lines = [f"# {comment}", f"ambient C{n}"]
    for idx, row in enumerate(rows, start=1):
        terms = [f"({_poly_text(p)}) d{k + 1}" for k, p in enumerate(row) if p]
        lines.append(f"field s{idx} = " + " + ".join(terms))
    lines.append(f"analyses {analyses}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# ladder bases
# ---------------------------------------------------------------------------


def support_basis(rng: random.Random, support) -> list[list[dict]]:
    """Random Gaussian-integer coefficients on a fixed monomial support,
    redrawn until the determinant is visibly nonzero."""
    while True:
        rows = [[{e: _gaussian_int(rng) for e in comp} for comp in field]
                for field in support]
        if _nondegenerate(rows, rng):
            return rows


def random_basis(rng: random.Random, n: int, degree: int,
                 terms: int = LADDER_TERMS) -> list[list[dict]]:
    """n random fields with ``terms`` monomials per component, each component
    having one of top degree; never degenerate."""
    monos = _monomials(n, degree)
    top = [e for e in monos if sum(e) == degree]
    while True:
        support = []
        for _ in range(n):
            field = []
            for _ in range(n):
                chosen = {rng.choice(top)}
                while len(chosen) < terms:
                    chosen.add(rng.choice(monos))
                field.append(sorted(chosen))
            support.append(field)
        rows = [[{e: _gaussian_int(rng) for e in comp} for comp in field]
                for field in support]
        if _nondegenerate(rows, rng):
            return rows


def shear_basis(rng: random.Random, n: int, degree: int) -> list[list[dict]]:
    """Diagonal torus fields ``a_k z_k d_k`` pushed forward by a shear.

    Degree 1 uses a unipotent lower-triangular ``L``: field k becomes
    ``a_k (L^-1 z)_k L e_k``.  Degree 2 (on C^2) uses the shear
    ``(z1, z2) -> (z1, z2 + c z1^2 + e z1)``, which turns ``z1 d1`` into
    ``z1 d1 + (2c z1^2 + e z1) d2`` and ``z2 d2`` into
    ``(z2 - c z1^2 - e z1) d2``.  Push-forwards of commuting fields by a
    polynomial automorphism commute, so these bases are abelian and their
    metrics Kahler.
    """
    weights = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(n)]
    if degree == 1:
        lower = [[1 if j == k else (rng.randint(-2, 2) if j > k else 0)
                  for k in range(n)] for j in range(n)]
        inverse = _unipotent_inverse(lower)
        rows = []
        for k in range(n):
            form: dict = {}
            for j in range(n):
                form = _add(form, _var(n, j), inverse[k][j])
            rows.append([_scale(form, weights[k] * lower[j][k]) for j in range(n)])
        return rows
    if (n, degree) == (2, 2):
        c, e = rng.choice((-2, -1, 1, 2)), rng.randint(-2, 2)
        z1, z2, z1sq = _var(2, 0), _var(2, 1), {(2, 0): 1}
        first = [_scale(z1, weights[0]),
                 _scale(_add(_scale(z1sq, 2 * c), z1, e), weights[0])]
        second = [{}, _scale(_add(_add(z2, z1sq, -c), z1, -e), weights[1])]
        return [first, second]
    raise ValueError(f"no shear family for C^{n} degree {degree}")


def _unipotent_inverse(lower: list[list[int]]) -> list[list[int]]:
    """Exact inverse of a unit lower-triangular integer matrix."""
    n = len(lower)
    inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            inv[i][j] = -sum(lower[i][k] * inv[k][j] for k in range(j, i))
    return inv


def ladder_round(seed: int, index: int) -> list[Case]:
    cases = []

    def add(name: str, kind: str, n: int, rows, comment: str):
        label = f"ladder:{index}:{name}"
        cases.append(Case(name, scenario_text(n, rows, "divisor kahler", comment),
                          _probe_seed(seed, label), kind))

    for support_name, count in LADDER_RANDOM_PER_ROUND.items():
        n, *support = LADDER_SUPPORTS[support_name]
        for k in range(count):
            name = f"{support_name}#{k}" if count > 1 else support_name
            rows = support_basis(_rng(seed, f"ladder:{index}:{name}"), support)
            add(name, "random", n, rows, f"random sparse basis {support_name}")
    for n, d in LADDER_SHEARS:
        name = f"C{n}d{d}-shear"
        rows = shear_basis(_rng(seed, f"ladder:{index}:{name}"), n, d)
        add(name, "shear", n, rows, f"shear-conjugated torus basis on C{n}, degree {d}")
    return cases


def frontier_case(seed: int) -> Case:
    """The random C^3 linear basis of a workload seed, analysed like the
    ladder's cases.  It is drawn under the label the first round's cases use,
    so each seed keeps the basis it had when the case was part of round 0."""
    n, d = FRONTIER
    name = f"C{n}d{d}-random"
    label = f"ladder:0:{name}"
    rows = random_basis(_rng(seed, label), n, d)
    return Case(name, scenario_text(n, rows, "divisor kahler",
                                    f"random basis on C{n}, degree {d} (frontier)"),
                _probe_seed(seed, label), "random", repeat=1)


# ---------------------------------------------------------------------------
# lattices
# ---------------------------------------------------------------------------


def _scalar_text(rng: random.Random) -> str:
    re = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    im = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return f"{re}{'-' if im < 0 else '+'}{abs(im)}*i"


def lattice_text(rng: random.Random, n: int, count: int) -> str:
    gens = ["(" + ", ".join(_scalar_text(rng) for _ in range(n)) + ")"
            for _ in range(count)]
    fields = [f"field e{k} = d{k}" for k in range(1, n + 1)]
    return "\n".join([f"# random lattice with {count} generators in C{n}",
                      f"ambient C{n}", *fields,
                      "lattice " + ", ".join(gens),
                      "analyses cone"]) + "\n"


def lattice_round(seed: int, index: int) -> list[Case]:
    cases = []
    for n, count in LATTICE_SHAPES:
        name = f"C{n}g{count}"
        if LATTICE_SHAPES.count((n, count)) > 1:
            name += f"#{sum(c.name.startswith(name) for c in cases)}"
        label = f"lattice:{index}:{name}"
        cases.append(Case(name, lattice_text(_rng(seed, label), n, count),
                          _probe_seed(seed, label), "lattice"))
    return cases


# ---------------------------------------------------------------------------
# bundled scenarios
# ---------------------------------------------------------------------------


def bundled_round(seed: int, index: int, scenario_dir: Path) -> list[Case]:
    files = sorted(Path(scenario_dir).glob("*.scn"))
    if not files:
        raise FileNotFoundError(f"no bundled scenarios under {scenario_dir}")
    return [Case(p.stem, p.read_text(), _probe_seed(seed, f"bundled:{index}:{p.stem}"),
                 "bundled", BUNDLED_EXPECTED_ERRORS.get(p.stem))
            for p in files]


def round_cases(workload: str, seed: int, index: int,
                scenario_dir: "Path | str") -> list[Case]:
    """The cases of round ``index`` of a workload under a workload seed.

    Rounds share their mix of case kinds and differ only in the random
    draws, so a run of whole rounds has the same mix whatever its length.
    """
    if workload == "bundled":
        return bundled_round(seed, index, Path(scenario_dir))
    if workload == "ladder":
        return ladder_round(seed, index)
    if workload == "lattice":
        return lattice_round(seed, index)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
