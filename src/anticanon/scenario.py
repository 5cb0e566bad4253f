"""Plain-text scenario files describing a model to analyze.

Format, one directive per line (``#`` starts a comment)::

    ambient P2                     # or C2, C3, P3, ...
    field s1 = z2 d0               # sum of <poly> d<k> terms
    field s2 = z2 d1 + z1 d0
    lattice (i, 0), (0, i)         # or: lattice none
    seed 1234                      # optional probe configuration
    h 1e-4
    depth 14
    steps 1000
    tmax 1.0
    points 5
    analyses divisor kahler        # optional subset of analyses

On ``C<n>`` the fields use variables ``z1..zn`` and ``d<k>`` means
``d/dz_k``.  On ``P<n>`` the fields are written in homogeneous coordinates
``z0..zn`` with linear-form coefficients, and ``d<k>`` means ``d/dz_k`` on
any lift; analysis localizes them to charts as needed.

``depth``, ``steps`` and ``points`` are integers of at least 1; ``h`` and
``tmax`` are finite positive numbers.  Anything else is a :class:`ParseError`
naming the directive.

Lattice entries are exact scalars.  Plain Gaussian rationals ``a``, ``b*i``,
``bi``, ``i`` and ``a±b*i`` (``a`` and ``b`` integers or ``p/q``, signs
optional, e.g. ``-1/2``, ``3-2i``, ``1/2 + 3/4*i``) are read directly; any
other constant expression (``(1+i)/2``, ``2^3``) goes through the polynomial
grammar.  Floats are rejected, keeping the lattice layer exact.

Parsing loads only the exact kernel and the parser; the lattice layer
(:mod:`anticanon.cone`) loads when a ``lattice`` line is read, and the field
layer when a basis is built.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

from .errors import ParseError
from .exact import Poly
from .polyparse import Token, tokenize, _Parser, parse_scalar

ALL_ANALYSES = ("divisor", "kahler", "completeness", "ricci", "flow", "cone")

_D_TOKEN = re.compile(r"^d(\d+)$")


@dataclass
class ProbeConfig:
    """Numeric-probe configuration with scenario-file overrides."""

    seed: "int | None" = None          # None: the environment or the default decides
    h: float = 1e-4
    depth: int = 14
    steps: int = 1000
    t_max: float = 1.0
    n_points: int = 5


@dataclass
class Scenario:
    name: str
    ambient: str                    # "C" or "P"
    n: int
    field_names: list[str]
    field_exprs: list[str]
    field_terms: list[list[tuple[int, Poly]]]   # (component index, coefficient)
    lattice: "LatticeData | None"
    config: ProbeConfig
    analyses: "tuple[str, ...] | None" = None

    @property
    def ambient_label(self) -> str:
        return f"{self.ambient}{self.n}"

    def projective_basis(self) -> ProjectiveBasis:
        from .fields import ProjectiveBasis, ProjectiveField

        if self.ambient != "P":
            raise ValueError("not a projective scenario")
        fields = []
        for terms in self.field_terms:
            forms = [Poly.zero() for _ in range(self.n + 1)]
            for k, coeff in terms:
                forms[k] = forms[k] + coeff
            fields.append(ProjectiveField(self.n, tuple(forms)))
        return ProjectiveBasis(fields)

    def affine_basis(self) -> FieldBasis:
        from .fields import Chart, FieldBasis, VectorField

        if self.ambient != "C":
            raise ValueError("not an affine scenario")
        chart = Chart.affine(self.n)
        fields = []
        for terms in self.field_terms:
            comps = [Poly.zero() for _ in range(self.n)]
            for k, coeff in terms:
                comps[k - 1] = comps[k - 1] + coeff
            fields.append(VectorField(chart, tuple(comps)))
        return FieldBasis(fields)


def _split_terms(tokens: list[Token]) -> list[tuple[int, list[Token]]]:
    """Split an expression at top-level ``+``/``-`` into signed chunks."""
    chunks: list[tuple[int, list[Token]]] = []
    sign, current = 1, []
    depth = 0
    for tok in tokens:
        if tok.kind == "op" and tok.text == "(":
            depth += 1
        elif tok.kind == "op" and tok.text == ")":
            depth -= 1
        if depth == 0 and tok.kind == "op" and tok.text in "+-":
            if current:
                chunks.append((sign, current))
                current = []
                sign = 1 if tok.text == "+" else -1
                continue
            if not chunks and not current:
                sign = sign if tok.text == "+" else -sign
                continue
        if tok.kind != "end":
            current.append(tok)
    if current:
        chunks.append((sign, current))
    return chunks


def _parse_field_expr(expr: str, ambient: str, n: int, line: int
                      ) -> list[tuple[int, Poly]]:
    """Parse a sum of ``<coefficient> d<k>`` terms."""
    if ambient == "P":
        allowed = {f"z{j}" for j in range(n + 1)}
        valid_k = range(n + 1)
    else:
        allowed = {f"z{j}" for j in range(1, n + 1)}
        valid_k = range(1, n + 1)
    try:
        tokens = tokenize(expr)
    except ParseError as err:
        raise ParseError(str(err), line=line) from None
    out: list[tuple[int, Poly]] = []
    for sign, chunk in _split_terms(tokens):
        if not chunk:
            raise ParseError("empty term in field expression", line=line)
        last = chunk[-1]
        match = _D_TOKEN.match(last.text) if last.kind == "ident" else None
        if not match:
            raise ParseError("each field term must end in d<k> "
                             f"(got {last.text!r})", line=line)
        k = int(match.group(1))
        if k not in valid_k:
            raise ParseError(f"component d{k} out of range for "
                             f"{ambient}{n}", line=line)
        coeff_tokens = chunk[:-1]
        if coeff_tokens:
            parser = _Parser(coeff_tokens + [Token("end", "", last.pos)], allowed)
            try:
                coeff = parser.expr()
            except ParseError as err:
                raise ParseError(str(err), line=line) from None
            if parser.peek().kind != "end":
                raise ParseError("trailing input in field coefficient", line=line)
        else:
            coeff = Poly.one()
        if sign < 0:
            coeff = -coeff
        out.append((k, coeff))
    if not out:
        raise ParseError("field expression has no terms", line=line)
    return out


def _parse_lattice(expr: str, n: int, line: int) -> LatticeData:
    from .cone import LatticeData

    expr = expr.strip()
    if expr == "none":
        return LatticeData.trivial(n)
    generators = []
    depth = 0
    current = ""
    for ch in expr:
        if ch == "(":
            if depth == 0:
                current = ""
                depth += 1
                continue
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                entries = [e.strip() for e in current.split(",")]
                try:
                    generators.append([parse_scalar(e) for e in entries])
                except ParseError as err:
                    raise ParseError(f"bad lattice entry: {err}", line=line)
                continue
        elif depth == 0:
            if ch not in ", \t":
                raise ParseError(f"unexpected character {ch!r} in lattice",
                                 line=line)
            continue
        current += ch
    if depth != 0:
        raise ParseError("unbalanced parentheses in lattice", line=line)
    if not generators:
        raise ParseError("lattice directive needs generators or 'none'", line=line)
    try:
        return LatticeData.make(n, generators)
    except ValueError as err:
        raise ParseError(str(err), line=line)


_AMBIENT = re.compile(r"^([CP])(\d+)$")


def parse_scenario(text: str, name: str = "scenario") -> Scenario:
    ambient: "str | None" = None
    n = 0
    field_names: list[str] = []
    field_exprs: list[str] = []
    field_terms: list[list[tuple[int, Poly]]] = []
    lattice: "LatticeData | None" = None
    config = ProbeConfig()
    analyses: "tuple[str, ...] | None" = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.endswith(";"):
            line = line[:-1].rstrip()
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        if key == "ambient":
            match = _AMBIENT.match(rest)
            if not match:
                raise ParseError(f"unknown ambient {rest!r} (use C<n> or P<n>)",
                                 line=lineno)
            ambient, n = match.group(1), int(match.group(2))
            if n < 1:
                raise ParseError("ambient dimension must be positive", line=lineno)
        elif key == "field":
            if ambient is None:
                raise ParseError("field before ambient declaration", line=lineno)
            fname, eq, expr = rest.partition("=")
            if not eq:
                raise ParseError("field directive needs '=': "
                                 "field <name> = <expr>", line=lineno)
            fname = fname.strip()
            expr = expr.strip()
            if not fname.isidentifier():
                raise ParseError(f"bad field name {fname!r}", line=lineno)
            field_names.append(fname)
            field_exprs.append(expr)
            field_terms.append(_parse_field_expr(expr, ambient, n, lineno))
        elif key == "lattice":
            if ambient is None:
                raise ParseError("lattice before ambient declaration", line=lineno)
            lattice = _parse_lattice(rest, n, lineno)
        elif key == "seed":
            config.seed = _int_of(rest, "seed", lineno)
        elif key == "depth":
            config.depth = _count_of(rest, "depth", lineno)
        elif key == "steps":
            config.steps = _count_of(rest, "steps", lineno)
        elif key == "points":
            config.n_points = _count_of(rest, "points", lineno)
        elif key == "h":
            config.h = _positive_of(rest, "h", lineno)
        elif key == "tmax":
            config.t_max = _positive_of(rest, "tmax", lineno)
        elif key == "analyses":
            chosen = tuple(rest.split())
            unknown = [a for a in chosen if a not in ALL_ANALYSES]
            if unknown:
                raise ParseError(f"unknown analyses {unknown}; valid: "
                                 f"{', '.join(ALL_ANALYSES)}", line=lineno)
            analyses = chosen
        else:
            raise ParseError(f"unknown directive {key!r}", line=lineno)

    if ambient is None:
        raise ParseError("scenario must declare an ambient space")
    if not field_names:
        raise ParseError("scenario must declare at least one field")
    return Scenario(name, ambient, n, field_names, field_exprs, field_terms,
                    lattice, config, analyses)


def _int_of(text: str, what: str, line: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"{what} must be an integer (got {text!r})", line=line)


def _count_of(text: str, what: str, line: int) -> int:
    value = _int_of(text, what, line)
    if value < 1:
        raise ParseError(f"{what} must be at least 1 (got {value})", line=line)
    return value


def _positive_of(text: str, what: str, line: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"{what} must be a number (got {text!r})", line=line)
    if not (0 < value < math.inf):
        raise ParseError(f"{what} must be finite and positive (got {text!r})",
                         line=line)
    return value


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------


def bundled_scenario_names() -> list[str]:
    from importlib.resources import files
    folder = files("anticanon") / "scenarios"
    return sorted(p.name[:-4] for p in folder.iterdir() if p.name.endswith(".scn"))


def load_scenario(name_or_path: str) -> Scenario:
    """Load a scenario from a path, or by bundled name (e.g. ``p2_toric``)."""
    path = Path(name_or_path)
    if path.suffix == ".scn" or path.exists():
        if not path.exists():
            raise ParseError(f"scenario file not found: {name_or_path}")
        return parse_scenario(path.read_text(), name=path.stem)
    from importlib.resources import files
    resource = files("anticanon") / "scenarios" / f"{name_or_path}.scn"
    if not resource.is_file():
        known = ", ".join(bundled_scenario_names())
        raise ParseError(
            f"unknown scenario {name_or_path!r}; bundled scenarios: {known}")
    return parse_scenario(resource.read_text(), name=name_or_path)
