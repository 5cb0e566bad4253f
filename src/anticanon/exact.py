"""Exact arithmetic kernel: Gaussian rationals, multivariate polynomials, rational functions.

Everything in this module is exact.  Scalars are ``a + b*i`` with
:class:`fractions.Fraction` parts; polynomials are dictionaries mapping
exponent tuples to scalars.  Polynomial matrices go through one
fraction-free (Bareiss) elimination, ``_echelon``: its forward pass gives
the determinant and the rank, and with its ``reduce`` flag it also clears
the rows above each pivot, which gives the adjugate.  Rational functions
are display-only: a reduced numerator/denominator pair with a monic
denominator that is printed or evaluated, with no arithmetic of its own.

Canonical form conventions (relied on throughout the package):

* polynomial variables are stored as a naturally-sorted tuple (``z2`` before
  ``z10``) and unused variables are dropped, so equal polynomials compare and
  hash equal regardless of how they were built;
* the monomial order is graded lexicographic (total degree first, then
  exponent tuple) with respect to the stored variable order;
* "monic" always means leading coefficient one in that order;
* printing lists terms leading-first and round-trips through the parser.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import SingularMatrix

# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


class ExactScalar:
    """A Gaussian rational ``re + im*i`` with exact rational parts.

    Floats are rejected on construction: every scalar entering the symbolic
    layer must be exact.  Use :meth:`to_complex` at the numeric boundary.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("ExactScalar is immutable")

    # -- constructors -------------------------------------------------------
    @staticmethod
    def zero() -> "ExactScalar":
        return _SC_ZERO

    @staticmethod
    def one() -> "ExactScalar":
        return _SC_ONE

    @staticmethod
    def i() -> "ExactScalar":
        return _SC_I

    # -- predicates ---------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.re and not self.im

    def is_real(self) -> bool:
        return not self.im

    def is_one(self) -> bool:
        return self.re == 1 and not self.im

    # -- arithmetic ---------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, ExactScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return ExactScalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExactScalar(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return ExactScalar(-self.re, -self.im)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExactScalar(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExactScalar(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExactScalar(self.re * o.re - self.im * o.im,
                           self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def inverse(self) -> "ExactScalar":
        n = self.re * self.re + self.im * self.im
        if not n:
            raise ZeroDivisionError("inverse of zero scalar")
        return ExactScalar(self.re / n, -self.im / n)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def conjugate(self) -> "ExactScalar":
        return ExactScalar(self.re, -self.im)

    # -- conversions --------------------------------------------------------
    def to_complex(self) -> complex:
        return complex(self.re) + 1j * float(self.im)

    def __complex__(self) -> complex:
        return self.to_complex()

    # -- comparison / hashing ----------------------------------------------
    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"ExactScalar({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_scalar(self)


_SC_ZERO = ExactScalar(0)
_SC_ONE = ExactScalar(1)
_SC_I = ExactScalar(0, 1)


def as_scalar(x) -> ExactScalar:
    """Coerce an int/Fraction/ExactScalar to :class:`ExactScalar`."""
    if isinstance(x, ExactScalar):
        return x
    return ExactScalar(_as_fraction(x))


def format_scalar(c: ExactScalar) -> str:
    """Canonical text for a scalar; parses back to the same value."""
    if c.is_zero():
        return "0"
    parts = []
    if c.re:
        parts.append(str(c.re))
    if c.im:
        if c.im == 1:
            im = "i"
        elif c.im == -1:
            im = "-i"
        else:
            im = f"{c.im}*i"
        if parts and not im.startswith("-"):
            parts.append("+" + im)
        else:
            parts.append(im)
    return "".join(parts)


# ---------------------------------------------------------------------------
# variable-name ordering
# ---------------------------------------------------------------------------

_CHUNK = _re.compile(r"(\d+)")


def _nat_key(name: str):
    """Natural sort key: ``z2`` sorts before ``z10``."""
    parts = []
    for piece in _CHUNK.split(name):
        if not piece:
            continue
        if piece.isdigit():
            parts.append((1, int(piece)))
        else:
            parts.append((0, piece))
    return tuple(parts)


def _merge_vars(a: tuple[str, ...], b: tuple[str, ...]) -> tuple[str, ...]:
    if a == b:
        return a
    return tuple(sorted(set(a) | set(b), key=_nat_key))


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


def grlex_key(exponents: tuple[int, ...]):
    """Sort key implementing the graded lexicographic order."""
    return (sum(exponents), exponents)


class Poly:
    """Multivariate polynomial over the Gaussian rationals in canonical form."""

    __slots__ = ("vars", "terms", "_hash")

    def __init__(self, terms: Mapping[tuple[int, ...], ExactScalar],
                 variables: Sequence[str] = ()):
        variables = tuple(variables)
        clean: dict[tuple[int, ...], ExactScalar] = {}
        for exp, coeff in terms.items():
            exp = tuple(exp)
            if len(exp) != len(variables):
                raise ValueError("exponent arity does not match variable list")
            coeff = as_scalar(coeff)
            if not coeff.is_zero():
                clean[exp] = coeff
        # drop unused variables, then sort the remainder naturally
        if variables:
            used = [k for k in range(len(variables))
                    if any(e[k] for e in clean)]
            order = sorted(used, key=lambda k: _nat_key(variables[k]))
            if order != list(range(len(variables))):
                variables = tuple(variables[k] for k in order)
                clean = {tuple(e[k] for k in order): c for e, c in clean.items()}
        object.__setattr__(self, "vars", variables)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------------
    @staticmethod
    def zero() -> "Poly":
        return _P_ZERO

    @staticmethod
    def const(c) -> "Poly":
        c = as_scalar(c)
        if c.is_zero():
            return _P_ZERO
        return Poly({(): c}, ())

    @staticmethod
    def one() -> "Poly":
        return _P_ONE

    @staticmethod
    def var(name: str) -> "Poly":
        return Poly({(1,): _SC_ONE}, (name,))

    # -- predicates ---------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.vars

    def constant_value(self) -> ExactScalar:
        """The value of a constant polynomial (zero allowed)."""
        if self.vars:
            raise ValueError("polynomial is not constant")
        return self.terms.get((), _SC_ZERO)

    def total_degree(self) -> int:
        """Maximal total degree of a term; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def degree_in(self, name: str) -> int:
        if name not in self.vars:
            return 0 if self.terms else -1
        k = self.vars.index(name)
        return max((e[k] for e in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    # -- leading data (graded lexicographic) --------------------------------
    def leading_exponent(self) -> tuple[int, ...]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return max(self.terms, key=grlex_key)

    def leading_coeff(self) -> ExactScalar:
        return self.terms[self.leading_exponent()]

    def monic(self) -> "Poly":
        """Divide by the leading coefficient; zero stays zero."""
        if self.is_zero():
            return self
        lc = self.leading_coeff()
        if lc.is_one():
            return self
        return self.scale(lc.inverse())

    # -- alignment ----------------------------------------------------------
    def _reindexed(self, variables: tuple[str, ...]) -> dict:
        """Terms of ``self`` written against a superset variable tuple."""
        if variables == self.vars:
            return dict(self.terms)
        pos = [variables.index(v) for v in self.vars]
        width = len(variables)
        out = {}
        for exp, c in self.terms.items():
            full = [0] * width
            for p, e in zip(pos, exp):
                full[p] = e
            out[tuple(full)] = c
        return out

    # -- arithmetic ---------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction, ExactScalar)):
            return Poly.const(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        variables = _merge_vars(self.vars, o.vars)
        terms = self._reindexed(variables)
        for exp, c in o._reindexed(variables).items():
            acc = terms.get(exp)
            terms[exp] = c if acc is None else acc + c
        return Poly(terms, variables)

    __radd__ = __add__

    def __neg__(self):
        return Poly({e: -c for e, c in self.terms.items()}, self.vars)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, ExactScalar)):
            return self.scale(as_scalar(other))
        if not isinstance(other, Poly):
            return NotImplemented
        variables = _merge_vars(self.vars, other.vars)
        a = self._reindexed(variables)
        b = other._reindexed(variables)
        terms: dict[tuple[int, ...], ExactScalar] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                exp = tuple(x + y for x, y in zip(ea, eb))
                c = ca * cb
                acc = terms.get(exp)
                terms[exp] = c if acc is None else acc + c
        return Poly(terms, variables)

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        c = as_scalar(c)
        if c.is_zero():
            return _P_ZERO
        return Poly({e: k * c for e, k in self.terms.items()}, self.vars)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, ExactScalar)):
            return self.scale(as_scalar(other).inverse())
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        out = _P_ONE
        base = self
        k = n
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- calculus -----------------------------------------------------------
    def derivative(self, name: str) -> "Poly":
        if name not in self.vars:
            return _P_ZERO
        k = self.vars.index(name)
        terms: dict[tuple[int, ...], ExactScalar] = {}
        for exp, c in self.terms.items():
            e = exp[k]
            if not e:
                continue
            new = list(exp)
            new[k] = e - 1
            terms[tuple(new)] = c * e
        return Poly(terms, self.vars)

    # -- evaluation / substitution ------------------------------------------
    def eval_exact(self, point: Mapping[str, ExactScalar]) -> ExactScalar:
        missing = [v for v in self.vars if v not in point]
        if missing:
            raise ValueError(f"missing values for {missing}")
        total = _SC_ZERO
        for exp, c in self.terms.items():
            term = c
            for v, e in zip(self.vars, exp):
                if e:
                    val = as_scalar(point[v])
                    for _ in range(e):
                        term = term * val
            total = total + term
        return total

    def eval_complex(self, point: Mapping[str, complex]) -> complex:
        missing = [v for v in self.vars if v not in point]
        if missing:
            raise ValueError(f"missing values for {missing}")
        total = 0j
        for exp, c in self.terms.items():
            term = c.to_complex()
            for v, e in zip(self.vars, exp):
                if e:
                    term *= complex(point[v]) ** e
            total += term
        return total

    def substitute(self, mapping: Mapping[str, "Poly | ExactScalar | int | Fraction"]) -> "Poly":
        """Replace some variables by polynomials or scalars.

        Variables absent from ``mapping`` are kept.
        """
        out = _P_ZERO
        for exp, c in self.terms.items():
            term = Poly.const(c)
            for v, e in zip(self.vars, exp):
                if not e:
                    continue
                if v in mapping:
                    repl = mapping[v]
                    base = repl if isinstance(repl, Poly) else Poly.const(repl)
                else:
                    base = Poly.var(v)
                term = term * base ** e
            out = out + term
        return out

    # -- comparison / hashing ----------------------------------------------
    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.vars == o.vars and self.terms == o.terms

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.vars, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    # -- printing -----------------------------------------------------------
    def sorted_terms(self) -> list[tuple[tuple[int, ...], ExactScalar]]:
        """Terms sorted leading-first in the graded lexicographic order."""
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]),
                      reverse=True)

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"<Poly {self}>"


_P_ZERO = Poly({}, ())
_P_ONE = Poly({(): _SC_ONE}, ())


def as_poly(x) -> Poly:
    if isinstance(x, Poly):
        return x
    return Poly.const(as_scalar(x))


def _format_monomial(variables: tuple[str, ...], exp: tuple[int, ...]) -> str:
    pieces = []
    for v, e in zip(variables, exp):
        if e == 0:
            continue
        pieces.append(v if e == 1 else f"{v}^{e}")
    return "*".join(pieces)


def format_poly(p: Poly) -> str:
    """Canonical text form; ``parse_poly(format_poly(p)) == p``."""
    if p.is_zero():
        return "0"
    chunks: list[tuple[str, str]] = []
    for exp, c in p.sorted_terms():
        mono = _format_monomial(p.vars, exp)
        if not mono:
            body = format_scalar(c)
            sign = "-" if body.startswith("-") else "+"
            if sign == "-":
                body = body[1:]
            # a complex constant with both parts needs parentheses when it
            # follows another term ("a + (1+i)" rather than "a + 1+i")
            if "+" in body or "-" in body[1:]:
                body, sign = f"({format_scalar(c)})", "+"
        elif c.is_one():
            body, sign = mono, "+"
        elif c == ExactScalar(-1):
            body, sign = mono, "-"
        elif c.is_real():
            sign = "-" if c.re < 0 else "+"
            mag = c if c.re > 0 else -c
            body = f"{format_scalar(mag)}*{mono}"
        elif not c.re:  # purely imaginary
            sign = "-" if c.im < 0 else "+"
            mag = c if c.im > 0 else -c
            prefix = "i" if mag.im == 1 else f"{mag.im}*i"
            body = f"{prefix}*{mono}"
        else:
            body, sign = f"({format_scalar(c)})*{mono}", "+"
        chunks.append((sign, body))
    first_sign, first_body = chunks[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in chunks[1:]:
        out += f" {sign} {body}"
    return out


# ---------------------------------------------------------------------------
# exact division
# ---------------------------------------------------------------------------


def _exp_divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def poly_divmod(p: Poly, d: Poly) -> tuple[Poly, Poly]:
    """Single-divisor multivariate division: ``p = q*d + r``.

    Terms whose leading monomial the divisor's leading monomial does not
    divide are moved to the remainder.  ``r`` is zero exactly when ``d``
    divides ``p``.
    """
    if d.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    variables = _merge_vars(p.vars, d.vars)
    work = dict(p._reindexed(variables))
    dterms = d._reindexed(variables)
    dlead = max(dterms, key=grlex_key)
    dlc = dterms[dlead]
    quot: dict[tuple[int, ...], ExactScalar] = {}
    rem: dict[tuple[int, ...], ExactScalar] = {}
    while work:
        lead = max(work, key=grlex_key)
        lc = work.pop(lead)
        if _exp_divides(dlead, lead):
            shift = tuple(a - b for a, b in zip(lead, dlead))
            factor = lc / dlc
            quot[shift] = quot.get(shift, _SC_ZERO) + factor
            for exp, c in dterms.items():
                if exp == dlead:
                    continue
                tgt = tuple(a + b for a, b in zip(exp, shift))
                acc = work.get(tgt, _SC_ZERO) - factor * c
                if acc.is_zero():
                    work.pop(tgt, None)
                else:
                    work[tgt] = acc
        else:
            rem[lead] = lc
    return Poly(quot, variables), Poly(rem, variables)


def exact_divide(p: Poly, d: Poly) -> Poly | None:
    """Return ``p / d`` when the division is exact, else ``None``."""
    q, r = poly_divmod(p, d)
    return q if r.is_zero() else None


def divides(d: Poly, p: Poly) -> bool:
    """True when ``d`` divides ``p`` exactly (zero divides only zero)."""
    if d.is_zero():
        return p.is_zero()
    if p.is_zero():
        return True
    return exact_divide(p, d) is not None


# ---------------------------------------------------------------------------
# gcd and squarefree decomposition
# ---------------------------------------------------------------------------

# The gcd works recursively: view both inputs as univariate in the first
# shared material variable, run a primitive-remainder sequence there, and
# recurse into the coefficient ring for contents.  Characteristic zero and
# exact coefficients make this straightforward if not the fastest known way.


def _univ(p: Poly, name: str) -> dict[int, Poly]:
    """Split ``p`` as a univariate polynomial in ``name`` with Poly coefficients."""
    if name not in p.vars:
        return {0: p} if not p.is_zero() else {}
    k = p.vars.index(name)
    rest = p.vars[:k] + p.vars[k + 1:]
    buckets: dict[int, dict[tuple[int, ...], ExactScalar]] = {}
    for exp, c in p.terms.items():
        deg = exp[k]
        red = exp[:k] + exp[k + 1:]
        buckets.setdefault(deg, {})[red] = c
    return {d: Poly(t, rest) for d, t in buckets.items()}


def _univ_to_poly(u: Mapping[int, Poly], name: str) -> Poly:
    x = Poly.var(name)
    total = _P_ZERO
    for d, coeff in u.items():
        total = total + coeff * x ** d
    return total


def _univ_degree(u: Mapping[int, Poly]) -> int:
    return max(u, default=-1)


def _univ_scale(u: Mapping[int, Poly], f: Poly) -> dict[int, Poly]:
    return {d: c * f for d, c in u.items()}


def _univ_sub(a: Mapping[int, Poly], b: Mapping[int, Poly]) -> dict[int, Poly]:
    out = dict(a)
    for d, c in b.items():
        acc = out.get(d, _P_ZERO) - c
        if acc.is_zero():
            out.pop(d, None)
        else:
            out[d] = acc
    return out


def _univ_shift(u: Mapping[int, Poly], k: int) -> dict[int, Poly]:
    return {d + k: c for d, c in u.items()}


def poly_gcd_list(polys: Iterable[Poly]) -> Poly:
    """Monic gcd of a family; zero entries are skipped."""
    g = _P_ZERO
    for p in polys:
        if p.is_zero():
            continue
        g = p.monic() if g.is_zero() else poly_gcd(g, p)
        if g == _P_ONE:
            return g
    return g


def _content(u: Mapping[int, Poly]) -> Poly:
    return poly_gcd_list(u.values())


def _primitive(u: Mapping[int, Poly]) -> dict[int, Poly]:
    """Primitive part up to units: divide out the content *and* rescale so
    the leading coefficient's leading scalar is 1.  Without the scalar
    normalization the pseudo-remainder sequence accumulates unit factors
    multiplicatively and coefficient sizes explode exponentially."""
    if not u:
        return {}
    cont = _content(u)
    if cont == _P_ONE:
        out = dict(u)
    else:
        out = {}
        for d, c in u.items():
            q = exact_divide(c, cont)
            assert q is not None, "content must divide every coefficient"
            out[d] = q
    lead_scalar = out[max(out)].leading_coeff()
    if lead_scalar != _SC_ONE:
        inv = lead_scalar.inverse()
        out = {d: c.scale(inv) for d, c in out.items()}
    return out


def _prem(a: dict[int, Poly], b: dict[int, Poly]) -> dict[int, Poly]:
    """Pseudo-remainder of univariate-with-Poly-coefficient polynomials."""
    db = _univ_degree(b)
    lcb = b[db]
    r = dict(a)
    while r and _univ_degree(r) >= db:
        dr = _univ_degree(r)
        lcr = r[dr]
        r = _univ_sub(_univ_scale(r, lcb), _univ_shift(_univ_scale(b, lcr), dr - db))
    return r


def _scalar_image(u: Mapping[int, Poly], name: str,
                  point: Mapping[str, ExactScalar]) -> Poly:
    """Evaluate the Poly coefficients at ``point``, keeping ``name`` symbolic."""
    terms: dict[tuple[int, ...], ExactScalar] = {}
    for d, c in u.items():
        val = c.eval_exact(point)
        if not val.is_zero():
            terms[(d,)] = val
    return Poly(terms, (name,))


def _gcd_free_of_main(ua: Mapping[int, Poly], ub: Mapping[int, Poly],
                      name: str, rest: Sequence[str]) -> bool:
    """Decide whether the gcd has degree zero in ``name`` via evaluation.

    Substituting small integers for the other variables is a ring map, so the
    gcd maps onto a common divisor of the two univariate images; as long as
    neither leading coefficient vanishes at the point, the image of the gcd
    keeps its full degree in ``name``.  A constant image gcd therefore proves
    the gcd is free of ``name``.  The check is deterministic (fixed point
    sequence) and one-sided: False only means the screen was inconclusive.
    """
    da, db = _univ_degree(ua), _univ_degree(ub)
    lca, lcb = ua[da], ub[db]
    inconclusive = 0
    for trial in range(6):
        point = {v: ExactScalar(trial + 1 + 2 * k) for k, v in enumerate(rest)}
        if lca.eval_exact(point).is_zero() or lcb.eval_exact(point).is_zero():
            continue
        fa = _scalar_image(ua, name, point)
        fb = _scalar_image(ub, name, point)
        if poly_gcd(fa, fb).is_constant():
            return True
        inconclusive += 1
        if inconclusive >= 2:
            return False
    return False


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd of two polynomials, not both zero."""
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    if a.is_zero():
        return b.monic()
    if b.is_zero():
        return a.monic()
    if a.is_constant() or b.is_constant():
        return _P_ONE
    # Cheap screen: one exact division settles the frequent case where one
    # argument divides the other (e.g. reducing p*q / q).
    small, large = (a, b) if a.total_degree() <= b.total_degree() else (b, a)
    if exact_divide(large, small) is not None:
        return small.monic()
    merged = _merge_vars(a.vars, b.vars)
    if len(merged) >= 2:
        # Eliminate variables the gcd provably does not involve before falling
        # back to a pseudo-remainder sequence: if the gcd is free of a
        # variable it divides both contents with respect to it, and the
        # content gcd in turn divides both inputs, so they agree.  This keeps
        # dense many-variable reductions from feeding the remainder sequence,
        # whose coefficients otherwise swell exponentially.
        for name in merged:
            ua, ub = _univ(a, name), _univ(b, name)
            rest = [v for v in merged if v != name]
            if (_univ_degree(ua) == 0 or _univ_degree(ub) == 0
                    or _gcd_free_of_main(ua, ub, name, rest)):
                return poly_gcd(_content(ua), _content(ub))
    name = merged[0]
    ua, ub = _univ(a, name), _univ(b, name)
    cont = poly_gcd(_content(ua), _content(ub))
    pa, pb = _primitive(ua), _primitive(ub)
    if _univ_degree(pa) < _univ_degree(pb):
        pa, pb = pb, pa
    while pb:
        r = _prem(pa, pb)
        pa, pb = pb, _primitive(r) if r else {}
    return (cont * _univ_to_poly(pa, name)).monic()


def squarefree_decompose(p: Poly) -> tuple[ExactScalar, tuple[tuple[Poly, int], ...]]:
    """Write ``p = scale * prod(f_k ** m_k)`` with monic squarefree coprime ``f_k``.

    Uses the characteristic-zero identity that gcd(p, all partials of p)
    collects every factor with multiplicity one less.  Factors are returned
    sorted by multiplicity, then by leading monomial.
    """
    if p.is_zero():
        raise ValueError("cannot decompose the zero polynomial")
    scale = p.leading_coeff()
    phat = p.monic()
    if phat.is_constant():
        return scale, ()

    def _reduced(q: Poly) -> Poly:
        parts = [q] + [q.derivative(v) for v in q.vars]
        return poly_gcd_list(parts)

    # chain[j] = product of factors with multiplicity > j, starting at phat
    chain = [phat]
    while not chain[-1].is_constant():
        chain.append(_reduced(chain[-1]))
    # levels[k] = product of factors with multiplicity >= k+1, squarefree'd:
    # C_{k+1} = chain[k] / chain[k+1]
    levels = []
    for j in range(len(chain) - 1):
        q = exact_divide(chain[j], chain[j + 1])
        assert q is not None
        levels.append(q)
    factors = []
    for k in range(1, len(levels) + 1):
        if k < len(levels):
            f = exact_divide(levels[k - 1], levels[k])
            assert f is not None
        else:
            f = levels[k - 1]
        if not f.is_constant():
            factors.append((f.monic(), k))
    factors.sort(key=lambda fm: (fm[1], grlex_key(fm[0].leading_exponent())))
    return scale, tuple(factors)


# ---------------------------------------------------------------------------
# determinants
# ---------------------------------------------------------------------------


def _echelon(rows: Sequence[Sequence[Poly]], reduce: bool = False
             ) -> tuple[list[list[Poly]], list[int], int, Poly]:
    """Fraction-free (Bareiss) elimination of a polynomial matrix.

    After the step that takes the pivot ``p`` at ``(r, c)``, every other row
    ``k`` it touches becomes ``(p*row_k - row_k[c]*row_r) / q`` right of
    column ``c``, with ``q`` the previous pivot, and zero in column ``c``.
    Its entries are then minors of the input (Sylvester's identity), so each
    division is exact and the work stays in the polynomial ring.  A row
    whose entry in column ``c`` is zero while ``p == q`` is skipped, since
    the update would leave it unchanged.  Columns without a pivot are
    skipped too.

    Without ``reduce`` only the rows below each pivot are eliminated, which
    is enough for the rank and the determinant.  With ``reduce`` the rows
    above are cleared too (fraction-free Gauss-Jordan).  Only the columns
    right of each pivot are updated, so the entries left of the last pivot
    are stale, and the columns after it hold ``last`` times the reduced
    row-echelon form.

    Returns the matrix, the pivot columns, the sign of the row permutation
    and the last pivot ``last``.
    """
    m = [[as_poly(e) for e in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    sign, prev = 1, _P_ONE
    for col in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        pivot = next((k for k in range(r, nrows) if not m[k][col].is_zero()), None)
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            sign = -sign
        top = m[r]
        for k in range(0 if reduce else r + 1, nrows):
            row = m[k]
            if k == r or (row[col].is_zero() and top[col] == prev):
                continue   # the pivot row, or a row the update leaves unchanged
            for j in range(col + 1, ncols):
                q = exact_divide(top[col] * row[j] - row[col] * top[j], prev)
                assert q is not None, "Bareiss division must be exact"
                row[j] = q
            row[col] = _P_ZERO
        pivots.append(col)
        prev = top[col]
    return m, pivots, sign, prev


def poly_det(rows: Sequence[Sequence[Poly]]) -> Poly:
    """Determinant of a square polynomial matrix by fraction-free elimination."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    _m, pivots, sign, pivot = _echelon(rows)
    if len(pivots) < n:
        return _P_ZERO
    return -pivot if sign < 0 else pivot


def poly_rank(rows: Sequence[Sequence[Poly]]) -> int:
    """Rank of a polynomial matrix over the rational-function field."""
    return len(_echelon(rows)[1])


def poly_adjugate(rows: Sequence[Sequence[Poly]]) -> tuple[list[list[Poly]], Poly]:
    """``(adj S, det S)`` of a nonsingular square polynomial matrix ``S``.

    :func:`_echelon` with ``reduce`` on ``[S | I]``: when the pivots are the
    columns of ``S``, the right block ends as ``d * S^-1``, where ``d`` is
    the determinant of the row-permuted matrix.  No rational function is
    ever formed.  Raises :class:`SingularMatrix` when ``det S`` vanishes.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    m, pivots, sign, prev = _echelon(
        [list(row) + [_P_ONE if j == i else _P_ZERO for j in range(n)]
         for i, row in enumerate(rows)], reduce=True)
    if pivots != list(range(n)):
        raise SingularMatrix("matrix has no inverse over the function field")
    adj = [row[n:] for row in m]
    if sign < 0:
        return [[-e for e in row] for row in adj], -prev
    return adj, prev


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------


class RatFunc:
    """A reduced fraction of polynomials with a monic denominator, for display.

    The constructor divides out the gcd; the fraction is then printed or
    evaluated, never computed with.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = _P_ONE):
        num = as_poly(num)
        den = as_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            num, den = _P_ZERO, _P_ONE
        else:
            g = poly_gcd(num, den)
            if g != _P_ONE:
                num = exact_divide(num, g)
                den = exact_divide(den, g)
            lc = den.leading_coeff()
            if not lc.is_one():
                inv = lc.inverse()
                num = num.scale(inv)
                den = den.scale(inv)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("RatFunc is immutable")

    def eval_exact(self, point: Mapping[str, ExactScalar]) -> ExactScalar:
        dv = self.den.eval_exact(point)
        if dv.is_zero():
            raise ZeroDivisionError("evaluation at a pole")
        return self.num.eval_exact(point) / dv

    def eval_complex(self, point: Mapping[str, complex]) -> complex:
        return self.num.eval_complex(point) / self.den.eval_complex(point)

    def __str__(self):
        if self.den == _P_ONE:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"<RatFunc {self}>"
