"""Exact integer-lattice linear algebra.

Hermite and Smith normal forms with transformation matrices, sublattice
saturation, indices, basis completion, and congruence systems over the
rational torus.  Every elimination is over arbitrary-precision integers,
through the Hermite or Smith form; `fractions.Fraction` appears only for
torus values (`pairing`, `solve_torsion_system`, `rational_coords`).  No
floating point.

Conventions: matrices are tuples of row tuples.  The Hermite normal form
is row-style with positive pivots and entries above each pivot reduced
into ``[0, pivot)``, so a sublattice has a unique canonical basis and
lattice equality is plain matrix equality.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, prod

from .errors import NotContained, NotSaturated, NotUnimodular, ZeroVector

Vector = tuple[int, ...]
Matrix = tuple[Vector, ...]


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def mat_mul(a, b) -> Matrix:
    bt = list(zip(*b)) if b else []
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def vec_mat(v, a):
    cols = list(zip(*a)) if a else []
    return tuple(sum(x * y for x, y in zip(v, col)) for col in cols)


def hermite_normal_form(mat: Matrix) -> tuple[Matrix, Matrix]:
    """Row-style HNF.  Returns (H, U) with U @ mat == H and U unimodular.

    H keeps the shape of `mat`; zero rows are collected at the bottom.
    """
    m = len(mat)
    n = len(mat[0]) if m else 0
    rows = [list(r) for r in mat]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    r = 0
    for c in range(n):
        while True:
            nz = [i for i in range(r, m) if rows[i][c] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda i: abs(rows[i][c]))
            i0 = nz[0]
            for i in nz[1:]:
                q = rows[i][c] // rows[i0][c]
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[i0])]
                u[i] = [x - q * y for x, y in zip(u[i], u[i0])]
        nz = [i for i in range(r, m) if rows[i][c] != 0]
        if not nz:
            continue
        i0 = nz[0]
        rows[r], rows[i0] = rows[i0], rows[r]
        u[r], u[i0] = u[i0], u[r]
        if rows[r][c] < 0:
            rows[r] = [-x for x in rows[r]]
            u[r] = [-x for x in u[r]]
        for i in range(r):
            q = rows[i][c] // rows[r][c]
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
                u[i] = [x - q * y for x, y in zip(u[i], u[r])]
        r += 1
    return tuple(tuple(x) for x in rows), tuple(tuple(x) for x in u)


def hermite_basis(rows) -> Matrix:
    """Nonzero rows of the HNF of `rows`."""
    if not rows:
        return ()
    h, _ = hermite_normal_form(tuple(tuple(r) for r in rows))
    return tuple(r for r in h if any(r))


def invert_unimodular(mat: Matrix) -> Matrix:
    """Exact inverse of an integer matrix with determinant +-1.

    A unimodular matrix has the identity as its Hermite form, so the
    transform U with U @ mat == I is the inverse.
    """
    h, u = hermite_normal_form(mat)
    if h != identity_matrix(len(mat)):
        raise NotUnimodular(f"matrix {mat} is not unimodular")
    return u


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ M @ V == D with D diagonal, d1 | d2 | ..., U and V unimodular."""

    diagonal: Matrix
    left: Matrix
    right: Matrix

    @property
    def elementary_divisors(self) -> tuple[int, ...]:
        out = []
        for i, row in enumerate(self.diagonal):
            if i < len(row) and row[i] != 0:
                out.append(row[i])
        return tuple(out)

    @property
    def rank(self) -> int:
        return len(self.elementary_divisors)

    @property
    def row_saturation(self) -> Sublattice:
        """The saturation of M's row lattice: the rows of M span the rows of
        D V^-1, so the first rank rows of V^-1 span it."""
        vinv = invert_unimodular(self.right)
        return Sublattice.from_rows(len(self.right), vinv[: self.rank])


def smith_normal_form(mat: Matrix) -> SmithDecomposition:
    m = len(mat)
    n = len(mat[0]) if m else 0
    a = [list(r) for r in mat]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_row(i, j, q):
        a[i] = [x + q * y for x, y in zip(a[i], a[j])]
        u[i] = [x + q * y for x, y in zip(u[i], u[j])]

    def add_col(i, j, q):
        for r in a:
            r[i] += q * r[j]
        for r in v:
            r[i] += q * r[j]

    t = 0
    while True:
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    add_row(i, t, -q)
                    if a[i][t]:
                        swap_rows(t, i)
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    add_col(j, t, -q)
                    if a[t][j]:
                        swap_cols(t, j)
            if any(a[i][t] for i in range(t + 1, m)):
                continue
            if any(a[t][j] for j in range(t + 1, n)):
                continue
            bad = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if a[i][j] % a[t][t] != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            add_row(t, bad, 1)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return SmithDecomposition(
        tuple(tuple(r) for r in a),
        tuple(tuple(r) for r in u),
        tuple(tuple(r) for r in v),
    )


class _Infinite:
    """Distinct return value for an infinite lattice index."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "infinite"


INFINITE = _Infinite()


@dataclass(frozen=True)
class Sublattice:
    """A sublattice of Z^n given by its canonical HNF row basis.

    Two sublattices are equal iff their canonical bases are identical.
    """

    ambient_rank: int
    basis: Matrix

    @classmethod
    def from_rows(cls, ambient_rank: int, rows) -> "Sublattice":
        return cls(ambient_rank, hermite_basis(rows))

    @classmethod
    def zero(cls, ambient_rank: int) -> "Sublattice":
        return cls(ambient_rank, ())

    @classmethod
    def full(cls, ambient_rank: int) -> "Sublattice":
        return cls(ambient_rank, identity_matrix(ambient_rank))

    @property
    def rank(self) -> int:
        return len(self.basis)

    def _pivots(self):
        return [next(j for j, x in enumerate(row) if x) for row in self.basis]

    def reduce(self, vector) -> tuple[tuple[int, ...], Vector]:
        """Floor-divide `vector` down the pivots: (quotients, remainder).

        The remainder is the canonical representative of `vector` modulo
        the lattice; it is zero iff `vector` lies in the lattice, and then
        the quotients are its coordinates.
        """
        v = list(vector)
        out = []
        for row, p in zip(self.basis, self._pivots()):
            q = v[p] // row[p]
            if q:
                v = [x - q * y for x, y in zip(v, row)]
            out.append(q)
        return tuple(out), tuple(v)

    def coords(self, vector) -> tuple[int, ...] | None:
        """Integer coordinates of `vector` in the basis, or None."""
        out, rest = self.reduce(vector)
        return None if any(rest) else out

    def rational_coords(self, vector) -> tuple[Fraction, ...] | None:
        """Coordinates of `vector` in the rational span, or None."""
        v = [Fraction(x) for x in vector]
        out = []
        for row, p in zip(self.basis, self._pivots()):
            q = v[p] / row[p]
            v = [x - q * y for x, y in zip(v, row)]
            out.append(q)
        if any(v):
            return None
        return tuple(out)

    def __contains__(self, vector) -> bool:
        return self.coords(vector) is not None

    def spans_rationally(self, vector) -> bool:
        return self.rational_coords(vector) is not None


def saturate(lattice: Sublattice) -> Sublattice:
    """All ambient vectors in the rational span of `lattice`."""
    if lattice.rank == 0:
        return lattice
    return smith_normal_form(lattice.basis).row_saturation


def is_saturated(lattice: Sublattice) -> bool:
    return saturate(lattice) == lattice


def lattice_index(inner: Sublattice, outer: Sublattice):
    """[outer : inner] as a positive int, or INFINITE on a rank drop."""
    if inner.ambient_rank != outer.ambient_rank:
        raise NotContained("ambient ranks differ")
    coords = []
    for row in inner.basis:
        c = outer.coords(row)
        if c is None:
            raise NotContained(f"{row} is not in the outer lattice")
        coords.append(c)
    if inner.rank < outer.rank:
        return INFINITE
    # the coordinates are square and of full rank, so their Hermite basis is
    # upper triangular with the index as the product of its diagonal
    return prod(row[i] for i, row in enumerate(hermite_basis(coords)))


def complete_to_basis(lattice: Sublattice) -> Matrix:
    """An n x n unimodular matrix whose first rank rows are a basis of `lattice`."""
    n = lattice.ambient_rank
    if lattice.rank == 0:
        return identity_matrix(n)
    # U B = D V^{-1}: the first r rows of V^{-1} span the saturation, and the
    # whole of V^{-1} completes them.
    vinv = invert_unimodular(smith_normal_form(lattice.basis).right)
    if Sublattice.from_rows(n, vinv[: lattice.rank]) != lattice:
        raise NotSaturated(f"lattice {lattice.basis} is not saturated")
    return vinv


def is_primitive(vector) -> bool:
    if not any(vector):
        raise ZeroVector("the zero vector has no primitivity")
    g = 0
    for x in vector:
        g = gcd(g, x)
    return g == 1


def intersect(a: Sublattice, b: Sublattice) -> Sublattice:
    """Intersection of two sublattices of the same ambient lattice."""
    if a.rank == 0 or b.rank == 0:
        return Sublattice.zero(a.ambient_rank)
    stacked = tuple(a.basis) + tuple(tuple(-x for x in row) for row in b.basis)
    h, u = hermite_normal_form(stacked)
    rows = []
    for hrow, urow in zip(h, u):
        if not any(hrow):
            x = urow[: a.rank]
            rows.append(vec_mat(x, a.basis))
    return Sublattice.from_rows(a.ambient_rank, rows)


def express_in_rows(rows: Matrix, target) -> tuple[int, ...] | None:
    """Integer x with x @ rows == target, or None."""
    if not rows:
        return None if any(target) else ()
    h, u = hermite_normal_form(rows)
    lat = Sublattice(len(rows[0]), tuple(r for r in h if any(r)))
    c = lat.coords(target)
    if c is None:
        return None
    x = [0] * len(rows)
    for coeff, urow in zip(c, u):
        x = [a + coeff * b for a, b in zip(x, urow)]
    return tuple(x)


def mod1(q: Fraction) -> Fraction:
    return Fraction(q) % 1


def pairing(vector, phi) -> Fraction:
    """The value mod 1 of the integer character `vector` at the torus point `phi`."""
    return mod1(sum(x * q for x, q in zip(vector, phi) if x))


@dataclass(frozen=True)
class TorsionSolution:
    """Solutions of M phi = r (mod Z) on the rational torus.

    `representatives` is one torsion point per connected component of the
    solution set, lexicographically sorted; `kernel` is the sublattice of
    integer directions annihilated by M (the common continuous part),
    read off M's Smith form `smith` on first use.
    """

    representatives: tuple[tuple[Fraction, ...], ...]
    smith: SmithDecomposition = field(repr=False, compare=False)

    @cached_property
    def kernel(self) -> Sublattice:
        columns = list(zip(*self.smith.right))
        return Sublattice.from_rows(len(columns), columns[self.smith.rank :])


def solve_torsion_system(mat: Matrix, rhs) -> TorsionSolution | None:
    """Solve M phi = r (mod Z) for phi in (R/Z)^n; None if inconsistent."""
    snf = smith_normal_form(mat)
    # D psi = U r (mod Z) with phi = V psi; each s[i] is taken mod 1, which
    # only permutes the d_i solutions (s[i] + j) / d_i of its row
    s = [pairing(row, rhs) for row in snf.left]
    divisors = snf.elementary_divisors
    if any(s[len(divisors) :]):
        return None
    reps = []
    for combo in itertools.product(*(range(d) for d in divisors)):
        # psi is zero past the rank, where V's columns span the kernel
        psi = [(s[i] + j) / d for i, (d, j) in enumerate(zip(divisors, combo))]
        reps.append(tuple(pairing(row, psi) for row in snf.right))
    return TorsionSolution(tuple(sorted(set(reps))), snf)
