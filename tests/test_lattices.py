import random
from fractions import Fraction

import pytest

from toricwonder import (
    NotContained,
    NotSaturated,
    Sublattice,
    ZeroVector,
    complete_to_basis,
    hermite_normal_form,
    intersect,
    is_primitive,
    is_saturated,
    lattice_index,
    saturate,
    smith_normal_form,
    solve_torsion_system,
)
from toricwonder.errors import NotUnimodular
from toricwonder.lattices import (
    INFINITE,
    identity_matrix,
    invert_unimodular,
    mat_mul,
    mod1,
    vec_mat,
)
from oracles import oracle_determinant as determinant, oracle_inverse


def random_matrix(rng, rows, cols, bound):
    return tuple(
        tuple(rng.randint(-bound, bound) for _ in range(cols)) for _ in range(rows)
    )


def random_unimodular(rng, n):
    """A product of random elementary row operations on the identity."""
    m = [list(r) for r in identity_matrix(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            m[i] = [-x for x in m[i]]
        else:
            q = rng.randint(-2, 2)
            m[i] = [x + q * y for x, y in zip(m[i], m[j])]
        m[i], m[j] = m[j], m[i]
    return tuple(tuple(r) for r in m)


class TestHermite:
    def test_identity(self):
        h, u = hermite_normal_form(identity_matrix(2))
        assert h == identity_matrix(2)
        assert u == identity_matrix(2)

    def test_already_hnf(self):
        m = ((2, 0), (0, 2))
        h, u = hermite_normal_form(m)
        assert h == m
        assert u == identity_matrix(2)

    def test_hand_reduction(self):
        h, _ = hermite_normal_form(((1, 1), (1, -1)))
        assert h == ((1, 1), (0, 2))

    def test_transform_exact(self):
        rng = random.Random(7)
        for _ in range(100):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            m = tuple(
                tuple(rng.randint(-5, 5) for _ in range(cols))
                for _ in range(rows)
            )
            h, u = hermite_normal_form(m)
            assert mat_mul(u, m) == h
            assert abs(determinant(u)) == 1
            # idempotence on the nonzero rows
            nz = tuple(r for r in h if any(r))
            if nz:
                h2, _ = hermite_normal_form(nz)
                assert tuple(r for r in h2 if any(r)) == nz


class TestSmith:
    def test_identity(self):
        s = smith_normal_form(identity_matrix(3))
        assert s.diagonal == identity_matrix(3)

    def test_index_two(self):
        s = smith_normal_form(((1, 1), (1, -1)))
        assert s.elementary_divisors == (1, 2)

    def test_already_diagonal(self):
        s = smith_normal_form(((2, 0), (0, 2)))
        assert s.elementary_divisors == (2, 2)

    def test_transforms_and_divisibility(self):
        rng = random.Random(11)
        for _ in range(100):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            m = tuple(
                tuple(rng.randint(-6, 6) for _ in range(cols))
                for _ in range(rows)
            )
            s = smith_normal_form(m)
            assert mat_mul(mat_mul(s.left, m), s.right) == s.diagonal
            divs = s.elementary_divisors
            assert all(a >= 0 for a in divs)
            for a, b in zip(divs, divs[1:]):
                if a and b:
                    assert b % a == 0
                if a == 0:
                    assert b == 0


class TestSaturation:
    def test_full(self):
        l = saturate(Sublattice.from_rows(2, [(1, 1), (1, -1)]))
        assert l == Sublattice(2, identity_matrix(2))

    def test_gcd_division(self):
        l = saturate(Sublattice.from_rows(2, [(2, 0)]))
        assert l.basis == ((1, 0),)

    def test_already_saturated(self):
        l = Sublattice.from_rows(2, [(1, 0)])
        assert saturate(l) == l
        assert is_saturated(l)

    def test_idempotent_random(self):
        rng = random.Random(3)
        for _ in range(100):
            n = rng.randint(1, 4)
            rows = [
                tuple(rng.randint(-4, 4) for _ in range(n))
                for _ in range(rng.randint(1, n))
            ]
            l = Sublattice.from_rows(n, rows)
            s = saturate(l)
            assert s.rank == l.rank
            assert saturate(s) == s
            assert all(row in s for row in l.basis)


class TestIndex:
    def test_index_two(self):
        sub = Sublattice.from_rows(2, [(1, 1), (1, -1)])
        assert lattice_index(sub, Sublattice(2, identity_matrix(2))) == 2

    def test_self_index(self):
        l = Sublattice.from_rows(2, [(1, 1)])
        assert lattice_index(l, l) == 1

    def test_infinite(self):
        sub = Sublattice.from_rows(2, [(1, 0)])
        assert lattice_index(sub, Sublattice(2, identity_matrix(2))) is INFINITE

    def test_not_contained(self):
        a = Sublattice.from_rows(2, [(1, 0)])
        b = Sublattice.from_rows(2, [(0, 1)])
        with pytest.raises(NotContained):
            lattice_index(b, a)

    def test_matches_oracle_determinant(self):
        # inner = C @ outer has index |det C| in outer, INFINITE if C is singular
        rng = random.Random(17)
        full = 0
        for _ in range(150):
            n = rng.randint(1, 4)
            outer = saturate(Sublattice.from_rows(n, random_matrix(rng, n, n, 3)))
            c = random_matrix(rng, outer.rank, outer.rank, 3)
            inner = Sublattice.from_rows(n, mat_mul(c, outer.basis))
            det = determinant(c)
            if det == 0:
                assert lattice_index(inner, outer) is INFINITE
            else:
                full += 1
                assert lattice_index(inner, outer) == abs(det)
        assert full > 100


class TestCompleteToBasis:
    def test_line(self):
        l = Sublattice.from_rows(2, [(1, 1)])
        basis = complete_to_basis(l)
        assert basis[: l.rank] and abs(determinant(basis)) == 1
        assert Sublattice.from_rows(2, basis[: l.rank]) == l

    def test_full(self):
        l = Sublattice(2, identity_matrix(2))
        basis = complete_to_basis(l)
        assert abs(determinant(basis)) == 1

    def test_not_saturated(self):
        with pytest.raises(NotSaturated):
            complete_to_basis(Sublattice.from_rows(2, [(2, 0)]))


class TestPrimitive:
    def test_unit_entry(self):
        assert is_primitive((1, -1))

    def test_doubled(self):
        assert not is_primitive((2, 0))

    def test_coprime_triple(self):
        assert is_primitive((6, 10, 15))

    def test_zero(self):
        with pytest.raises(ZeroVector):
            is_primitive((0, 0))


class TestTorsionSystems:
    def test_two_points(self):
        sol = solve_torsion_system(
            ((1, 1), (1, -1)), (Fraction(0), Fraction(0))
        )
        assert sol is not None
        assert set(sol.representatives) == {
            (Fraction(0), Fraction(0)),
            (Fraction(1, 2), Fraction(1, 2)),
        }
        assert sol.kernel.rank == 0

    def test_identity(self):
        sol = solve_torsion_system(identity_matrix(2), (Fraction(0), Fraction(0)))
        assert sol.representatives == ((Fraction(0), Fraction(0)),)

    def test_doubling_with_kernel(self):
        sol = solve_torsion_system(((2, 0),), (Fraction(0),))
        firsts = sorted(phi[0] for phi in sol.representatives)
        assert firsts == [Fraction(0), Fraction(1, 2)]
        assert sol.kernel.rank == 1
        assert sol.kernel.basis[0][0] == 0 and sol.kernel.basis[0][1] != 0

    def test_inconsistent(self):
        # 0*phi = 1/2 has no solution: encode via dependent rows
        sol = solve_torsion_system(
            ((1, 0), (1, 0)), (Fraction(0), Fraction(1, 3))
        )
        assert sol is None

    def test_solutions_satisfy_system(self):
        rng = random.Random(5)
        for _ in range(80):
            n = rng.randint(1, 3)
            rows = tuple(
                tuple(rng.randint(-3, 3) for _ in range(n))
                for _ in range(rng.randint(1, 3))
            )
            q = rng.randint(1, 4)
            rhs = tuple(
                Fraction(rng.randrange(q), q) for _ in range(len(rows))
            )
            sol = solve_torsion_system(rows, rhs)
            if sol is None:
                continue
            for phi in sol.representatives:
                for row, r in zip(rows, rhs):
                    assert mod1(sum(Fraction(x) * p for x, p in zip(row, phi))) == r

    def test_saturation_and_kernel_from_smith_form(self):
        rng = random.Random(6)
        for _ in range(80):
            n = rng.randint(1, 3)
            rows = tuple(
                tuple(rng.randint(-3, 3) for _ in range(n))
                for _ in range(rng.randint(1, 3))
            )
            sol = solve_torsion_system(rows, (Fraction(0),) * len(rows))
            saturation = sol.smith.row_saturation
            assert saturation == saturate(Sublattice.from_rows(n, rows))
            assert sol.kernel.rank == n - saturation.rank
            for v in sol.kernel.basis:
                assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in rows)


class TestIntersect:
    def test_transverse_lines(self):
        a = Sublattice.from_rows(2, [(1, 0)])
        b = Sublattice.from_rows(2, [(0, 1)])
        assert intersect(a, b).rank == 0

    def test_skew(self):
        a = Sublattice.from_rows(2, [(1, 1)])
        b = Sublattice(2, identity_matrix(2))
        got = intersect(a, b)
        assert got == a

    def test_random_membership(self):
        rng = random.Random(9)
        for _ in range(60):
            n = rng.randint(1, 4)
            mk = lambda: Sublattice.from_rows(
                n,
                [
                    tuple(rng.randint(-3, 3) for _ in range(n))
                    for _ in range(rng.randint(1, n))
                ],
            )
            a, b = mk(), mk()
            c = intersect(a, b)
            for row in c.basis:
                assert row in a and row in b


def test_invert_unimodular_roundtrip():
    rng = random.Random(13)
    for _ in range(50):
        n = rng.randint(1, 4)
        m = tuple(
            tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n)
        )
        if abs(determinant(m)) != 1:
            with pytest.raises(NotUnimodular):
                invert_unimodular(m)
            continue
        inv = invert_unimodular(m)
        assert mat_mul(m, inv) == identity_matrix(n)
        assert inv == oracle_inverse(m)
    for _ in range(100):
        m = random_unimodular(rng, rng.randint(1, 5))
        assert invert_unimodular(m) == oracle_inverse(m)
    assert invert_unimodular(()) == ()


class TestSympyOracle:
    """Cross-checks against sympy's exact normal forms, where it is installed."""

    @pytest.fixture
    def sympy(self):
        return pytest.importorskip("sympy")

    def test_elementary_divisors(self, sympy):
        from sympy.matrices.normalforms import invariant_factors

        rng = random.Random(19)
        for _ in range(100):
            m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), 6)
            factors = invariant_factors(sympy.Matrix(m), domain=sympy.ZZ)
            assert smith_normal_form(m).elementary_divisors == tuple(
                int(d) for d in factors if d
            )

    def test_inverse(self, sympy):
        rng = random.Random(23)
        for _ in range(100):
            m = random_unimodular(rng, rng.randint(1, 5))
            inv = sympy.Matrix(m).inv()
            assert invert_unimodular(m) == tuple(
                tuple(int(x) for x in row) for row in inv.tolist()
            )

    def test_index(self, sympy):
        rng = random.Random(29)
        for _ in range(100):
            n = rng.randint(1, 4)
            c = random_matrix(rng, n, n, 4)
            det = abs(sympy.Matrix(c).det())
            inner = Sublattice.from_rows(n, c)
            want = INFINITE if det == 0 else int(det)
            assert lattice_index(inner, Sublattice.full(n)) == want
