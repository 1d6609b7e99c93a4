"""Property tests of the integer lattice algebra in `lattices`.

hypothesis draws small integer matrices.  The examples are derandomized
and bounded in number, so the tests are deterministic and quick; they are
skipped where hypothesis is not installed.
"""

from math import gcd

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from toricwonder import NotPrimitive
from toricwonder.lattices import (
    Sublattice,
    column_reduction,
    hermite_normal_form,
    identity_matrix,
    intersect,
    invert_unimodular,
    mat_mul,
    saturate,
    smith_normal_form,
    vec_mat,
)

BOUNDED = settings(derandomize=True, max_examples=150, deadline=None)


def rows_of(cols, max_rows=4, bound=6):
    """Lists of 0 to `max_rows` integer rows of length `cols`."""
    row = st.tuples(*[st.integers(-bound, bound)] * cols)
    return st.lists(row, max_size=max_rows).map(tuple)


def matrices(max_cols=4):
    """Non-empty integer matrices with 1 to `max_cols` columns."""
    return st.integers(1, max_cols).flatmap(
        lambda n: st.lists(st.tuples(*[st.integers(-6, 6)] * n), min_size=1, max_size=4)
    ).map(tuple)


def vectors(max_len=5, bound=40):
    """Non-zero integer vectors of length 1 to `max_len`."""
    return st.integers(1, max_len).flatmap(
        lambda k: st.tuples(*[st.integers(-bound, bound)] * k)
    ).filter(any)


def lattice_pairs(max_cols=4):
    """Two sublattices of the same Z^n."""
    return st.integers(1, max_cols).flatmap(
        lambda n: st.tuples(rows_of(n), rows_of(n)).map(
            lambda ab: tuple(Sublattice.from_rows(n, rows) for rows in ab)
        )
    )


class TestHermiteProperties:
    @BOUNDED
    @given(matrices())
    def test_transform_gives_the_form(self, mat):
        h, u = hermite_normal_form(mat)
        assert mat_mul(u, mat) == h

    @BOUNDED
    @given(matrices())
    def test_transform_is_unimodular(self, mat):
        _, u = hermite_normal_form(mat)
        inverse = invert_unimodular(u)
        assert mat_mul(inverse, u) == identity_matrix(len(u))
        assert invert_unimodular(inverse) == u

    @BOUNDED
    @given(matrices())
    def test_form_is_canonical(self, mat):
        """Zero rows last, positive pivots moving right, and the entries
        above each pivot reduced into [0, pivot)."""
        h, _ = hermite_normal_form(mat)
        nonzero = [row for row in h if any(row)]
        assert all(not any(row) for row in h[len(nonzero) :])
        pivots = [next(j for j, x in enumerate(row) if x) for row in nonzero]
        assert pivots == sorted(set(pivots))
        for i, p in enumerate(pivots):
            assert nonzero[i][p] > 0
            assert all(0 <= nonzero[k][p] < nonzero[i][p] for k in range(i))


class TestSmithProperties:
    @BOUNDED
    @given(matrices())
    def test_divisor_chain(self, mat):
        snf = smith_normal_form(mat)
        assert mat_mul(mat_mul(snf.left, mat), snf.right) == snf.diagonal
        divisors = snf.elementary_divisors
        assert all(d > 0 for d in divisors)
        assert all(b % a == 0 for a, b in zip(divisors, divisors[1:]))


class TestSaturationProperties:
    @BOUNDED
    @given(lattice_pairs())
    def test_idempotent(self, pair):
        for lattice in pair:
            sat = saturate(lattice)
            assert saturate(sat) == sat
            assert sat.rank == lattice.rank
            assert all(row in sat for row in lattice.basis)


class TestIntersectProperties:
    @BOUNDED
    @given(lattice_pairs())
    def test_rows_lie_in_both(self, pair):
        a, b = pair
        meet = intersect(a, b)
        assert all(row in a and row in b for row in meet.basis)


class TestColumnReductionProperties:
    @BOUNDED
    @given(vectors().filter(lambda a: gcd(*a) == 1))
    def test_primitive_to_first_unit(self, a):
        v, w = column_reduction(a)
        k = len(a)
        assert vec_mat(a, v) == identity_matrix(k)[0]
        assert mat_mul(w, v) == identity_matrix(k)
        assert w[0] == a

    @BOUNDED
    @given(vectors(bound=10), st.integers(2, 6))
    def test_rejects_non_primitive(self, a, d):
        with pytest.raises(NotPrimitive):
            column_reduction(tuple(d * x for x in a))
        with pytest.raises(NotPrimitive):
            column_reduction((0,) * len(a))
