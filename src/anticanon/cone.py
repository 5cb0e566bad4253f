"""Lattice normal forms, period constraints, quadratic potentials, and the
dimension of the cone of invariant classes.

A lattice of translation periods ``Lambda`` in C^n (exact Gaussian-rational
generators) splits the coordinates, after an exact linear change ``T``, into

* ``k`` directions whose real span is complex (the maximal complex subspace
  ``W`` of the real span of ``Lambda``),
* ``l`` directions meeting the real span in a real line,
* ``m = n - k - l`` leftover directions.

The group generated by the corresponding translations is a semi-torus
exactly when ``m = 0``.

A constant hermitian form ``omega`` descends from a potential on the quotient
iff its periods vanish: ``Im(lambda_a^T omega conj(lambda_b)) = 0`` for all
generator pairs.  In adapted coordinates that solution space is exactly the
forms with vanishing ``k x k`` and ``k x l`` blocks and real ``l x l`` block;
for a semi-torus these are the forms with trivial class, so

    dim(cone of invariant classes) = n^2 - l(l+1)/2.

For ``m > 0`` the toolkit reports the period-constraint solution dimension as
a diagnostic but does not assert a cone dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ._numpy import np
from .errors import NotSemiTorus, PatternViolation
from .exact import ExactScalar, as_scalar
from .linsolve import (
    clear_row,
    in_row_space,
    integer_rank,
    intersect_row_spaces,
    matrix_inverse,
    matrix_rank,
    row_space_basis,
)

ExactVector = list[ExactScalar]
ExactMatrix = list[list[ExactScalar]]


# ---------------------------------------------------------------------------
# lattice data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LatticeData:
    """Exact lattice generators in C^n.  Floats are rejected on construction."""

    n: int
    generators: tuple[tuple[ExactScalar, ...], ...]

    @staticmethod
    def make(n: int, generators: Sequence[Sequence]) -> "LatticeData":
        rows = []
        for g in generators:
            if len(g) != n:
                raise ValueError("generator dimension mismatch")
            rows.append(tuple(as_scalar(e) for e in g))
        return LatticeData(n, tuple(rows))

    @staticmethod
    def trivial(n: int) -> "LatticeData":
        return LatticeData(n, ())


# ---------------------------------------------------------------------------
# real model of C^n
# ---------------------------------------------------------------------------


def _realize(v: Sequence[ExactScalar]) -> ExactVector:
    """C^n -> R^2n as (real parts, imaginary parts), kept exact."""
    re = [ExactScalar(e.re) for e in v]
    im = [ExactScalar(e.im) for e in v]
    return re + im


def _complexify(r: Sequence[ExactScalar], n: int) -> ExactVector:
    """Inverse of :func:`_realize` (entries of ``r`` are real)."""
    return [ExactScalar(r[j].re, r[n + j].re) for j in range(n)]


def _times_i(r: Sequence[ExactScalar], n: int) -> ExactVector:
    """The real model of multiplication by i: (x, y) -> (-y, x)."""
    return [-e for e in r[n:]] + list(r[:n])


# ---------------------------------------------------------------------------
# normal form
# ---------------------------------------------------------------------------


@dataclass
class NormalForm:
    """Adapted coordinates for a lattice: the split (k, l, m) and the map T."""

    n: int
    k: int
    l: int
    m: int
    T: ExactMatrix                      # adapted = T . original
    P: ExactMatrix                      # original = P . adapted (P = T^-1)
    lattice: LatticeData
    adapted_generators: tuple[tuple[ExactScalar, ...], ...]

    @property
    def k_range(self) -> range:
        return range(0, self.k)

    @property
    def l_range(self) -> range:
        return range(self.k, self.k + self.l)

    @property
    def m_range(self) -> range:
        return range(self.k + self.l, self.n)

    def is_semi_torus(self) -> bool:
        return self.m == 0

    def P_float(self) -> np.ndarray:
        return np.array([[e.to_complex() for e in row] for row in self.P])


def _apply(cleared: list[tuple[list[int], list[int], int]],
           vec: Sequence[ExactScalar]) -> ExactVector:
    """``matrix . vec`` from the rows of ``matrix`` cleared by ``clear_row``.

    Each entry is one Gaussian-integer dot product over the two scales.
    """
    vr, vi, vs = clear_row(vec)
    out = []
    for rr, ri, rs in cleared:
        terms = list(zip(rr, ri, vr, vi))
        out.append(ExactScalar(
            Fraction(sum(a * c - b * d for a, b, c, d in terms), rs * vs),
            Fraction(sum(a * d + b * c for a, b, c, d in terms), rs * vs)))
    return out


def normal_form(lattice: LatticeData) -> NormalForm:
    """Exact adapted coordinates for the lattice.

    Works in the real model R^2n: the real span of the generators and its
    intersection with i times itself give the complex block; generators
    independent of that block give the real block; standard basis vectors
    complete the coordinate system.
    """
    n = lattice.n
    real_rows = [_realize(g) for g in lattice.generators]
    span = row_space_basis(real_rows) if real_rows else []
    d = len(span)

    i_span = row_space_basis([_times_i(r, n) for r in span]) if span else []
    w_real = intersect_row_spaces(span, i_span) if span else []
    if len(w_real) % 2:
        raise AssertionError("complex block must have even real dimension")
    k = len(w_real) // 2
    l = d - 2 * k
    m = n - k - l

    # complex basis u_1..u_k of W from its real basis
    u_cols: list[ExactVector] = []
    for r in w_real:
        cand = _complexify(r, n)
        stack = [row for row in u_cols] + [cand]
        if matrix_rank(stack) == len(stack):
            u_cols.append(cand)
        if len(u_cols) == k:
            break
    if len(u_cols) != k:
        raise AssertionError("failed to extract a complex basis of the complex block")

    # real directions v_1..v_l independent of W over R
    v_cols: list[ExactVector] = []
    real_so_far = list(w_real)
    for r in span:
        if len(v_cols) == l:
            break
        if not in_row_space(real_so_far, r):
            real_so_far.append(r)
            v_cols.append(_complexify(r, n))

    # completion w_1..w_m by standard basis vectors, complex-independent
    cols = u_cols + v_cols
    for p in range(n):
        if len(cols) == n:
            break
        cand = [ExactScalar(1 if j == p else 0) for j in range(n)]
        stack = cols + [cand]
        if matrix_rank(stack) == len(stack):
            cols.append(cand)
    if len(cols) != n:
        raise AssertionError("failed to complete the adapted basis")

    P = [[cols[c][r] for c in range(n)] for r in range(n)]  # columns -> matrix
    T = matrix_inverse(P)
    cleared = [clear_row(row) for row in T]
    adapted = tuple(tuple(_apply(cleared, g)) for g in lattice.generators)
    nf = NormalForm(n, k, l, m, T, P, lattice, adapted)
    _check_normal_form(nf)
    return nf


def _check_normal_form(nf: NormalForm):
    """Adapted generators must live in C^k x R^l x {0}."""
    for g in nf.adapted_generators:
        for j in nf.l_range:
            if g[j].im:
                raise AssertionError("adapted generator has complex entry in "
                                     "the real block")
        for j in nf.m_range:
            if not g[j].is_zero():
                raise AssertionError("adapted generator has nonzero entry in "
                                     "the residual block")


# ---------------------------------------------------------------------------
# hermitian parameter coordinates
# ---------------------------------------------------------------------------


def hermitian_param_labels(n: int) -> list[str]:
    """Order of the ``n^2`` real parameters of a hermitian matrix."""
    labels = [f"a{p}" for p in range(n)]
    labels += [f"x{p}{q}" for p in range(n) for q in range(p + 1, n)]
    labels += [f"y{p}{q}" for p in range(n) for q in range(p + 1, n)]
    return labels


def hermitian_from_params(params: Sequence, n: int) -> np.ndarray:
    """Assemble a hermitian matrix from the canonical real parameter vector."""
    vals = [float(p) for p in params]
    H = np.zeros((n, n), dtype=complex)
    pos = 0
    for p in range(n):
        H[p, p] = vals[pos]
        pos += 1
    pairs = [(p, q) for p in range(n) for q in range(p + 1, n)]
    half = len(pairs)
    for t, (p, q) in enumerate(pairs):
        x = vals[pos + t]
        y = vals[pos + half + t]
        H[p, q] = x + 1j * y
        H[q, p] = x - 1j * y
    return H


# ---------------------------------------------------------------------------
# period (Stokes-type) constraints
# ---------------------------------------------------------------------------


@dataclass
class StokesSystem:
    """Exact linear constraints ``Im(lambda^T omega conj(mu)) = 0``.

    Each row is the period row of one generator pair times the positive
    integer ``L_a * L_b`` that clears both generators, so it has integer
    entries and the same rank and nullspace as the period rows.
    """

    n: int
    rows: list[list[int]]           # integer rows over the n^2 parameters
    labels: list[str]
    rank: int

    @property
    def solution_dim(self) -> int:
        return self.n * self.n - self.rank


def stokes_constraints(lattice: LatticeData) -> StokesSystem:
    """One integer constraint row per unordered generator pair.

    With ``omega_pq = x_pq + i y_pq`` (p < q) and real diagonal ``a_p``, the
    period of the pair ``(lam, mu)`` expands to rational coefficients:

    * ``a_p``: ``Im(lam_p conj(mu_p))``
    * ``x_pq``: ``Im(lam_p conj(mu_q)) + Im(lam_q conj(mu_p))``
    * ``y_pq``: ``Re(lam_p conj(mu_q)) - Re(lam_q conj(mu_p))``

    Each generator is cleared once to Gaussian integers, ``lam = (lr + i li)
    / L_a`` and ``mu = (mr + i mi) / L_b``, so that ``L_a L_b lam_p
    conj(mu_q) = (lr_p mr_q + li_p mi_q) + i (li_p mr_q - lr_p mi_q)`` and
    every coefficient times ``L_a L_b`` is an int.

    Diagonal pairs are identically zero for hermitian ``omega`` and are
    omitted.
    """
    n = lattice.n
    labels = hermitian_param_labels(n)
    pairs = [(p, q) for p in range(n) for q in range(p + 1, n)]
    rows: list[list[int]] = []
    gens = [clear_row(g) for g in lattice.generators]
    for a in range(len(gens)):
        lr, li, _ = gens[a]
        for b in range(a + 1, len(gens)):
            mr, mi, _ = gens[b]
            row = [li[p] * mr[p] - lr[p] * mi[p] for p in range(n)]
            row += [li[p] * mr[q] - lr[p] * mi[q] + li[q] * mr[p] - lr[q] * mi[p]
                    for p, q in pairs]
            row += [lr[p] * mr[q] + li[p] * mi[q] - lr[q] * mr[p] - li[q] * mi[p]
                    for p, q in pairs]
            rows.append(row)
    return StokesSystem(n, rows, labels, integer_rank(rows))


def pattern_dimension(nf: NormalForm) -> int:
    """Dimension of {hermitian: k x k and k x l blocks zero, l x l real}.

    In adapted coordinates this is the period-constraint solution space.
    """
    n, k, l = nf.n, nf.k, nf.l
    return n * n - (k * k + 2 * k * l + l * (l - 1) // 2)


# ---------------------------------------------------------------------------
# cone dimension
# ---------------------------------------------------------------------------


@dataclass
class ConeDimension:
    """Cone dimension when asserted, with the diagnostic data either way."""

    n: int
    k: int
    l: int
    m: int
    value: "int | None"               # None when not asserted (m > 0)
    stokes_solution_dim: int

    @property
    def asserted(self) -> bool:
        return self.value is not None


def cone_dimension(nf: NormalForm, stokes: "StokesSystem | None" = None) -> ConeDimension:
    """``n^2 - l(l+1)/2`` for a semi-torus; diagnostic only otherwise."""
    if stokes is None:
        stokes = stokes_constraints(nf.lattice)
    value = None
    if nf.m == 0:
        value = nf.n * nf.n - nf.l * (nf.l + 1) // 2
    return ConeDimension(nf.n, nf.k, nf.l, nf.m, value, stokes.solution_dim)


# ---------------------------------------------------------------------------
# block views and the exactness pattern
# ---------------------------------------------------------------------------


def _blocks(omega: np.ndarray, nf: NormalForm):
    k, l = nf.k, nf.l
    kk = omega[:k, :k]
    kl = omega[:k, k:k + l]
    km = omega[:k, k + l:]
    ll = omega[k:k + l, k:k + l]
    lm = omega[k:k + l, k + l:]
    mm = omega[k + l:, k + l:]
    return kk, kl, km, ll, lm, mm


def _as_array(omega) -> np.ndarray:
    from .metric import HermitianMatrix

    if isinstance(omega, HermitianMatrix):
        return omega.data.copy()
    arr = np.array(omega, dtype=complex)
    dev = float(np.linalg.norm(arr - arr.conj().T))
    if dev > 1e-12 * max(1.0, float(np.linalg.norm(arr))):
        raise PatternViolation("form is not hermitian")
    return arr


def exactness_defect(omega, nf: NormalForm) -> float:
    """How far the form is from the trivial-class pattern (adapted coords)."""
    arr = _as_array(omega)
    kk, kl, _km, ll, _lm, _mm = _blocks(arr, nf)
    return float(np.linalg.norm(kk) + np.linalg.norm(kl)
                 + np.linalg.norm(ll.imag))


def is_exact_form(omega, nf: NormalForm, tol: float = 1e-12) -> bool:
    """Trivial-class test in adapted coordinates (semi-torus only)."""
    if nf.m != 0:
        raise NotSemiTorus("class arithmetic needs a semi-torus lattice")
    arr = _as_array(omega)
    scale = max(1.0, float(np.linalg.norm(arr)))
    return exactness_defect(arr, nf) <= tol * scale


def class_project(omega, nf: NormalForm) -> np.ndarray:
    """Canonical representative of the class of ``omega`` (adapted coords).

    Subtracts the trivial-class component: the real symmetric part of the
    ``l x l`` block.  Two forms define the same invariant class exactly when
    their projections agree.
    """
    if nf.m != 0:
        raise NotSemiTorus("class arithmetic needs a semi-torus lattice")
    arr = _as_array(omega)
    k, l = nf.k, nf.l
    ll = arr[k:k + l, k:k + l]
    arr[k:k + l, k:k + l] = 1j * ll.imag
    return arr


def class_equal(a, b, nf: NormalForm, tol: float = 1e-9) -> bool:
    """Same invariant class: the difference has the trivial-class pattern."""
    pa = class_project(a, nf)
    pb = class_project(b, nf)
    scale = max(1.0, float(np.linalg.norm(pa)), float(np.linalg.norm(pb)))
    return float(np.linalg.norm(pa - pb)) <= tol * scale


def to_adapted(omega, nf: NormalForm) -> np.ndarray:
    """Rewrite a hermitian form in the adapted coordinates.

    With ``z = P zeta`` the pairing ``lam^T omega conj(mu)`` becomes
    ``(P lam')^T omega conj(P mu')``, so the adapted matrix is
    ``P^T omega conj(P)``.
    """
    arr = _as_array(omega)
    P = nf.P_float()
    return P.T @ arr @ np.conj(P)


# ---------------------------------------------------------------------------
# quadratic potentials
# ---------------------------------------------------------------------------


@dataclass
class QuadPotential:
    """Real quadratic potential ``phi(z) = x^T Q x`` with x = (Re z, Im z)."""

    n: int
    Q: np.ndarray            # (2n, 2n) real symmetric

    def evaluate(self, z: Sequence[complex]) -> float:
        x = np.concatenate([np.real(z), np.imag(z)])
        return float(x @ self.Q @ x)

    def hessian(self) -> np.ndarray:
        """Wirtinger mixed Hessian d^2 phi / dz_p dconj(z_q) as a matrix."""
        n = self.n
        Qaa = self.Q[:n, :n]
        Qbb = self.Q[n:, n:]
        Qab = self.Q[:n, n:]
        Qba = self.Q[n:, :n]
        return 0.5 * (Qaa + Qbb + 1j * (Qab - Qba))


def build_potential(omega, nf: NormalForm,
                    tol: float = 1e-12) -> tuple[QuadPotential, np.ndarray]:
    """Quadratic potential for a pattern-compatible hermitian form.

    The potential must be invariant under the lattice translations, so it
    cannot depend on the complex-block coordinates at all and can depend on
    a real-block coordinate only through its imaginary part.  Inputs with a
    nonzero ``k x k`` or ``k x l`` block, or a non-real ``l x l`` block,
    admit no such potential and raise :class:`PatternViolation`.

    Returns the potential and the residual ``omega - hessian(phi)``; the
    residual vanishes off the ``k x m`` corner blocks, and vanishes entirely
    for a semi-torus.
    """
    arr = _as_array(omega)
    n, k, l = nf.n, nf.k, nf.l
    scale = max(1.0, float(np.linalg.norm(arr)))
    kk, kl, _km, ll, lm, mm = _blocks(arr, nf)
    if float(np.linalg.norm(kk)) > tol * scale:
        raise PatternViolation("complex-block diagonal (k x k) must vanish")
    if float(np.linalg.norm(kl)) > tol * scale:
        raise PatternViolation("complex-to-real (k x l) block must vanish")
    if float(np.linalg.norm(ll.imag)) > tol * scale:
        raise PatternViolation("real-block (l x l) part must be real symmetric")

    Q = np.zeros((2 * n, 2 * n))
    a = lambda p: p          # index of Re z_p in x
    b = lambda p: n + p      # index of Im z_p in x

    lr = list(nf.l_range)
    mr = list(nf.m_range)
    # real block: phi depends on Im z only
    for si, i in enumerate(lr):
        Q[b(i), b(i)] += 2.0 * ll[si, si].real
        for sj in range(si + 1, len(lr)):
            j = lr[sj]
            w = ll[si, sj].real
            Q[b(i), b(j)] += 2.0 * w
            Q[b(j), b(i)] += 2.0 * w
    # real-to-residual coupling
    for si, i in enumerate(lr):
        for sj, j in enumerate(mr):
            w = lm[si, sj]
            Q[b(i), b(j)] += 2.0 * w.real
            Q[b(j), b(i)] += 2.0 * w.real
            Q[b(i), a(j)] += -2.0 * w.imag
            Q[a(j), b(i)] += -2.0 * w.imag
    # residual block: full |z|^2-type dependence
    for si, i in enumerate(mr):
        Q[a(i), a(i)] += mm[si, si].real
        Q[b(i), b(i)] += mm[si, si].real
        for sj in range(si + 1, len(mr)):
            j = mr[sj]
            w = mm[si, sj]
            Q[a(i), a(j)] += w.real
            Q[a(j), a(i)] += w.real
            Q[b(i), b(j)] += w.real
            Q[b(j), b(i)] += w.real
            Q[b(i), a(j)] += -w.imag
            Q[a(j), b(i)] += -w.imag
            Q[a(i), b(j)] += w.imag
            Q[b(j), a(i)] += w.imag

    potential = QuadPotential(n, Q)
    residual = arr - potential.hessian()
    return potential, residual
