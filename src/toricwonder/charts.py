"""Chart atlas of the wonderful model.

Every maximal nested set S with center p carries a coordinate chart: an
adapted integral basis indexed by the members of S, a polynomial map from
chart coordinates to the torus (each basis character equals its constant
plus a product of coordinates over the members below it), the inverse by
successor ratios, and for every character through p a unit function whose
product with the corresponding coordinate monomial recovers the character
minus its constant.  Boundary data (divisor intersections, curve limits)
is read off the same coordinates.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import lcm
from operator import add, mul, truediv

from .errors import (
    InvalidGerm,
    NotAdapted,
    NotAPoint,
    NotExpandable,
    NotInBuildingSet,
    NotInOverlap,
    NotNested,
    NotUnimodular,
    OnDivisor,
    OutsideDomain,
)
from .arrangement import Layer, LayerPoset
from .decomposition import BuildingSet, factors
from .lattices import (
    Sublattice,
    Vector,
    express_in_rows,
    hermite_basis,
    identity_matrix,
    intersect,
    invert_unimodular,
    mod1,
    pairing,
    smith_normal_form,
    vec_mat,
)
from .nested import NestedSet, enumerate_all_maximal, is_nested

DEFAULT_TOL = 1e-9


def unit_root(angle: Fraction) -> complex:
    return cmath.exp(2j * cmath.pi * float(angle))


def adapted_basis_rows(members) -> list[Vector]:
    """An integral basis adapted to a nested set, by peeling minimal members.

    Returns a basis of the sum of the members' saturated lattices, or
    raises NotAdapted, as for some families that are not nested; for a
    maximal nested set that sum is the whole of Z^n.  The members are
    peeled in `_peel_order`; each step's rows depend only on the peeled
    member's lattice and on the lattice spanned by the rows of the members
    peeled after it (`_peel_step`), so that pair keys the step in a memo.
    Here the memo is fresh; `build_chart` shares one per poset.
    """
    order = _peel_order(members, Layer.contains)
    rows = _peel(order, {})
    total = [r for m in order for r in m.lattice.basis]
    if hermite_basis(rows) != hermite_basis(total):
        raise NotAdapted("the rows do not span the sum of the members' lattices")
    return rows


def _peel_order(members, contains) -> list[Layer]:
    """The members in peeling order: the first, in `Layer.key` order, that
    contains no other member left, then the same among the rest."""
    left = sorted(members, key=Layer.key)
    order = []
    while left:
        c = next(
            m for m in left if not any(o is not m and contains(m, o) for o in left)
        )
        order.append(c)
        left = [m for m in left if m is not c]
    return order


def _peel(order, memo) -> list[Vector]:
    """The basis rows of the members in peeling order: the last member's
    rows first, then each earlier member's step on the span of the rows
    so far, looked up in `memo` by (member lattice, span)."""
    rows: list[Vector] = []
    if not order:
        return rows
    span = Sublattice.zero(order[0].lattice.ambient_rank)
    for c in reversed(order):
        key = (c.lattice, span)
        if key not in memo:
            memo[key] = _peel_step(c.lattice, span)
        new_rows, span = memo[key]
        rows += new_rows
    return rows


def _peel_step(lattice: Sublattice, rest: Sublattice):
    """(rows, span): the rows that extend a basis of `rest` by a member of
    lattice `lattice`, and the span of that basis with them.

    The rows are quotient generators of (rest + lattice) / rest, lifted
    into `lattice` and canonically reduced; none when the rank does not
    grow.
    """
    n = lattice.ambient_rank
    lat_all = Sublattice.from_rows(n, list(rest.basis) + list(lattice.basis))
    if lat_all.rank == rest.rank:
        return (), rest
    gens = identity_matrix(lat_all.rank)
    if rest.rank:
        coords = tuple(lat_all.coords(row) for row in rest.basis)
        gens = invert_unimodular(smith_normal_form(coords).right)[rest.rank :]
    new_rows = []
    stacked = tuple(lattice.basis) + tuple(rest.basis)
    overlap = intersect(rest, lattice)
    for g in gens:
        ambient = vec_mat(g, lat_all.basis)
        combo = express_in_rows(stacked, ambient)
        if combo is None:
            raise NotAdapted("a quotient generator does not lift to the member")
        lift = vec_mat(combo[: lattice.rank], lattice.basis)
        new_rows.append(overlap.reduce(lift)[1])
    # the span is lat_all only when `rest` is saturated in it
    return tuple(new_rows), Sublattice.from_rows(n, list(rest.basis) + new_rows)


@dataclass(frozen=True, slots=True)
class BetaTerm:
    """One summand of the unit-function expansion of a character.

    Evaluates to sign * e^{2 pi i angle} * prod member-values^exponent *
    prod (member-value - e^{2 pi i root angle}).
    """

    member: int
    sign: int
    angle: Fraction
    monomial: tuple[tuple[int, int], ...]
    linear: tuple[tuple[int, Fraction], ...]


class ChartFunction:
    """The unit factor of (character - constant) in chart coordinates.

    On the dense open part of the chart it equals
    (character - constant) / prod of the coordinates below `base_member`;
    it extends regularly over the divisor and is nonzero at 0.

    `_flat` has, per term: scale, monomial, (index, root) of each linear
    factor and the coordinates below its member but not below base_member.
    It is made from `terms`, or given with no `terms`, which `Chart._expand`
    then makes when they are first read.
    """

    __slots__ = ("chart", "vector", "value", "base_member", "_terms", "_flat")

    def __init__(self, chart, vector, value, base_member, terms=None, flat=None):
        self.chart, self.vector, self.value = chart, vector, value
        self.base_member, self._terms = base_member, terms
        if flat is None:
            flat = tuple(
                (
                    term.sign * unit_root(term.angle),
                    term.monomial,
                    tuple((idx, unit_root(a)) for idx, a in term.linear),
                    chart._extra(term.member, base_member),
                )
                for term in terms
            )
        self._flat = flat

    @property
    def terms(self) -> tuple[BetaTerm, ...]:
        if self._terms is None:
            self._terms = self.chart._beta_terms(self.vector)
        return self._terms

    def __call__(self, z) -> complex:
        return _unit_column(self._flat, _column(z), self.chart._point(z)[1], 1)[0]


def _chain_top(members, indices) -> int | None:
    """The index among `indices` of the largest of `members`, all through
    one point, or None; raises NotNested, like `top_member`, unless they
    form a chain: through a point, c contains d iff supp c <= supp d."""
    if not indices:
        return None
    top = max(indices, key=lambda i: members[i].dim)
    if any(members[top].mask & ~members[i].mask for i in indices):
        raise NotNested(
            f"the layers {[members[i] for i in indices]} do not form a chain"
        )
    return top


@dataclass(eq=False)
class Chart:
    """A chart of the model attached to a maximal nested set."""

    poset: LayerPoset
    nested_set: NestedSet
    members: tuple[Layer, ...]
    basis: tuple[Vector, ...]  # basis[i] is the character assigned to members[i]
    tolerance: float = DEFAULT_TOL
    constants: tuple[Fraction, ...] = field(init=False)
    below: tuple[tuple[int, ...], ...] = field(init=False)
    succ: tuple[int | None, ...] = field(init=False)
    _roots: tuple[complex, ...] = field(init=False)  # unit_root of each constant
    _above: tuple[int, ...] = field(init=False)  # bit j: member j contains member i
    # row j of the inverse basis as (member, exponent) pairs: the exponents of
    # the member character values in torus coordinate j
    _basis_inv: tuple[tuple[tuple[int, int], ...], ...] = field(init=False)
    _basis_sparse: tuple[tuple[tuple[int, int], ...], ...] = field(init=False)
    _angles: tuple[int, tuple[int, ...]] = field(init=False)  # constants over one den
    _functions: dict = field(init=False, default_factory=dict)
    _units: tuple | None = field(init=False, default=None)
    _peels: dict = field(init=False, repr=False)  # `_expand`'s steps by support mask
    _root_table: dict = field(init=False, repr=False, default_factory=dict)  # by (k, d)

    def __post_init__(self):
        # first, so that a basis that is not unimodular fails before any other check
        self._basis_inv = tuple(map(_sparse, invert_unimodular(self.basis)))
        self._basis_sparse = tuple(map(_sparse, self.basis))
        phi = self.point_coordinates
        self.constants = tuple(pairing(row, phi) for row in self.basis)
        self._roots = tuple(unit_root(a) for a in self.constants)
        den = lcm(*(a.denominator for a in self.constants))
        self._angles = den, tuple(a.numerator * (den // a.denominator) for a in self.constants)
        # all members pass through the center, where c contains d iff supp c <= supp d
        masks = [m.mask for m in self.members]
        self.below = tuple(
            tuple(j for j, d in enumerate(masks) if not c & ~d) for c in masks
        )
        self._above = tuple(
            sum(1 << j for j, inside in enumerate(self.below) if i in inside)
            for i in range(self.rank)
        )
        self.succ = tuple(
            _chain_top(self.members, [j for j in inside if j != i])
            for i, inside in enumerate(self.below)
        )
        # `_peel_steps` reads only `_above`, so the charts with the same one
        # share one table of them, kept beside `build_chart`'s peel steps
        self._peels = self.poset._peels.setdefault(self._above, {})

    @property
    def center(self) -> Layer:
        return self.nested_set.center

    @property
    def point_coordinates(self) -> tuple[Fraction, ...]:
        return self.center.coordinates

    @property
    def rank(self) -> int:
        return len(self.members)

    # -- coordinate maps ------------------------------------------------

    def _sized(self, entries, what: str):
        """`entries` if it has one entry per coordinate, else OutsideDomain."""
        if len(entries) != self.rank:
            raise OutsideDomain(f"{what} {tuple(entries)} does not have length {self.rank}")
        return entries

    def _point(self, z):
        """(monomial columns, value columns) of `_values` at the point z."""
        return self._values(_column(self._sized(z, "chart point")), 1)

    def member_character_values(self, z) -> list[complex]:
        """The value of each basis character at the image torus point."""
        return list(_entry(self._point(z)[1]))

    def in_coordinate_domain(self, z) -> bool:
        return _kept(1, self._point(z)[1], self.tolerance)[0] == 1

    def chart_to_torus(self, z) -> tuple[complex, ...]:
        values = self._point(z)[1]
        if not _kept(1, values, self.tolerance)[0]:
            raise OutsideDomain("a torus coordinate would vanish")
        return _entry(self._torus(values, 1))

    def character_value(self, t, vector) -> complex:
        row = _sparse(self._sized(vector, "character"))
        return _power_products(_column(self._sized(t, "torus point")), 1, (row,))[0][0]

    def torus_to_chart(self, t) -> tuple[complex, ...]:
        n, z = self._to_chart(_column(self._sized(t, "torus point")), 1)
        if not n:
            raise OnDivisor("a successor character sits on its divisor")
        return _entry(z)

    def _values(self, z, n: int):
        """The columns (entry s at point s) of each member's coordinate
        monomial and of its character's value, at the n points z."""
        monos = [_product_column(n, 1 + 0j, map(z.__getitem__, c)) for c in self.below]
        return monos, [[m + root for m in col] for col, root in zip(monos, self._roots)]

    def _torus(self, values, n: int) -> list[list[complex]]:
        """The columns of the torus points whose member values are `values`."""
        return _power_products(values, n, self._basis_inv)

    def _to_chart(self, t, n: int, *groups):
        """(count, z, *groups) over those of the n torus points t on no
        successor character's divisor, z their successor-ratio coordinates."""
        nums = _numerators(t, n, self._basis_sparse, self._roots)
        successors = [nums[j] for j in self.succ if j is not None]
        n, nums, *groups = _kept(n, successors, self.tolerance, nums, *groups)
        z = [xs if j is None else list(map(truediv, xs, nums[j])) for xs, j in zip(nums, self.succ)]
        return (n, z, *groups)

    def _inside(self, z, n: int, *groups):
        """(count, *groups) over those of the n points z in the open chart
        domain: in the coordinate domain, on no layer missing the center,
        and where no unit function of a character through it vanishes."""
        tol = self.tolerance
        values = self._values(z, n)[1]
        n, z, values, *groups = _kept(n, values, tol, z, values, *groups)
        if n:
            t = self._torus(values, n)
            # a point is on a layer iff all of the layer's numerators vanish
            rows, roots, layers = self._far_layers
            dist = [list(map(abs, col)) for col in _numerators(t, n, rows, roots)]
            far = [[max(xs) for xs in zip(*(dist[k] for k in ks))] for ks in layers]
            n, z, values, *groups = _kept(n, far, tol, z, values, *groups)
        if n:
            units = [_unit_column(f._flat, z, values, n) for f, _, _ in self._support_units()]
            n, *groups = _kept(n, units, tol, *groups)
        return (n, *groups)

    # -- the unit functions --------------------------------------------

    def _coefficients(self, vector) -> list[int]:
        """The coefficients of a character in the chart basis."""
        coeffs = [0] * self.rank
        for x, row in zip(vector, self._basis_inv):
            if x:
                for i, e in row:
                    coeffs[i] += x * e
        return coeffs

    def constant_member(self, vector) -> Layer | None:
        """The largest member on which the character matches its value at p."""
        coeffs = self._coefficients(self._sized(vector, "character"))
        c = self._top_constant(_support_mask(coeffs))
        return None if c is None else self.members[c]

    def _top_constant(self, mask: int) -> int | None:
        """The largest member on which a character whose chart-basis
        coefficients have support `mask` is constant.  Adaptedness makes each
        member's lattice the span of the basis vectors of the members
        containing it, so these are the members whose `_above` covers `mask`;
        all of them hold the center, so the constant is the value at p."""
        inside = [i for i, up in enumerate(self._above) if not mask & ~up]
        return _chain_top(self.members, inside)

    def character_unit(self, vector, value: Fraction) -> ChartFunction:
        vector = tuple(self._sized(vector, "character"))
        if not (isinstance(value, Fraction) and 0 <= value.numerator < value.denominator):
            value = mod1(value)  # the arrangement's values are reduced already
        key = (vector, value.numerator, value.denominator)
        f = self._functions.get(key)
        if f is None:
            f = self._functions[key] = self._expand(vector, value)
        return f

    def _expand(self, vector, value) -> ChartFunction:
        """Telescope character - constant over the chart basis.

        With coefficients m_c in the chart basis the character is the
        product of the basis characters x_c^{m_c}.  Peeling one member at a
        time, largest constant member first, writes character - constant as
        a sum of terms: a constant, times x_c^{m_c} - zeta_c^{m_c}, times
        the factors not yet peeled.  That difference is x_c - zeta_c, the
        coordinate monomial of member c, times the linear factors of
        `BetaTerm`.  The base member, the first peeled, is the largest
        constant member of the character, so every member with a non-zero
        coefficient contains it; dividing each term by the base's monomial
        leaves the coordinates below the term's member but not below the
        base, which `ChartFunction._flat` keeps per term.

        Exact certificate: each term but the base's has its own member's
        coordinate among those, so the unit's value at the chart origin is
        the base term alone, sign * zeta^angle * prod zeta_j^{m_j} *
        prod (zeta_b - zeta_b omega^j) over the k-th roots omega^j != 1,
        k = |m_b|.  It is non-zero iff the base coefficient m_b is, which
        is checked here exactly.

        No `Fraction` is made here: the angles are integer numerators over
        the constants' common denominator, with roots from `_root`.  The
        members each step peels depend only on which coefficients are
        non-zero, so `_peels` keeps them by that mask (`_peel_steps`).
        """
        den, nums = self._angles
        coeffs = self._coefficients(vector)
        at_p = sum(map(mul, coeffs, nums))
        if (at_p * value.denominator - value.numerator * den) % (den * value.denominator):
            raise OutsideDomain("the character does not pass through the chart center")
        mask = _support_mask(coeffs)
        peel = self._peels.get(mask)
        if peel is None:
            peel = self._peels[mask] = self._peel_steps(mask, vector)
        base, steps = peel
        root = self._root
        flat = tuple(
            (sign * root(angle, den), monomial, _linear(c, nums[c], den, k, root), extra)
            for c, sign, angle, monomial, k, extra in self._term_forms(coeffs, steps)
        )
        return ChartFunction(self, vector, value, base, flat=flat)

    def _peel_steps(self, mask: int, vector):
        """(base, steps) of `_expand` for the coefficient support `mask`: per
        step, the member peeled, its monomial's members and `_extra`."""
        if not mask:
            raise NotExpandable("the trivial character has no unit function")
        base = c = self._top_constant(mask)
        if base is None:
            raise NotExpandable(
                f"character {list(vector)} is constant on no member of the chart"
            )
        if not mask >> base & 1:
            raise NotExpandable(
                f"character {list(vector)} has no component on the basis "
                f"vector of member {base}, its largest constant member"
            )
        steps = []
        while mask:
            if steps:
                c = self._top_constant(mask)
                if not mask >> c & 1:
                    # the first member left: all of them contain the base
                    c = (mask & -mask).bit_length() - 1
            mask &= ~(1 << c)
            mono = tuple(j for j in range(self.rank) if mask >> j & 1)
            steps.append((c, mono, self._extra(c, base)))
        return base, tuple(steps)

    def _term_forms(self, coeffs, steps):
        """Per peel step of `_expand`: member c, sign, angle numerator over
        `_angles`' den, monomial, k = |m_c| and `_extra`."""
        den, nums = self._angles
        pref = 0
        for c, mono, extra in steps:
            m_c = coeffs[c]
            monomial = tuple((j, coeffs[j]) for j in mono)
            sign, angle, k = 1, pref, abs(m_c)
            if m_c < 0:
                sign, angle = -1, angle + m_c * nums[c]
                monomial += ((c, m_c),)
            pref += m_c * nums[c]
            yield c, sign, angle % den, monomial, k, extra

    def _beta_terms(self, vector) -> tuple[BetaTerm, ...]:
        """The terms of `_expand` as `BetaTerm`s, with `Fraction` angles."""
        den, nums = self._angles
        coeffs = self._coefficients(vector)
        _, steps = self._peels[_support_mask(coeffs)]
        return tuple(
            BetaTerm(c, sign, Fraction(angle, den), monomial, _linear(c, nums[c], den, k, Fraction))
            for c, sign, angle, monomial, k, _ in self._term_forms(coeffs, steps)
        )

    def _extra(self, member: int, base: int) -> tuple[int, ...]:
        """The coordinates below `member` but not below `base`."""
        return tuple(e for e in self.below[member] if e not in self.below[base])

    def _root(self, k: int, d: int) -> complex:
        """unit_root(Fraction(k, d)), from the chart's table (int / int is
        correctly rounded, so k / d is float(Fraction(k, d)))."""
        if (root := self._root_table.get((k, d))) is None:
            root = self._root_table[k, d] = cmath.exp(2j * cmath.pi * (k / d))
        return root

    def _support_units(self):
        """(unit function, sparse row, root of its constant) of each character
        through the center, in support order; made on the first call, with
        the rows and values from the poset's table (`LayerPoset._characters`)."""
        if self._units is None:
            chars, table = self.poset.arrangement.characters, self.poset._characters
            units = []
            for i in self.point_support():
                row, k, d = table[i]
                f = self.character_unit(chars[i].vector, chars[i].value)
                units.append((f, row, self._root(k, d)))
            self._units = tuple(units)
        return self._units

    def below_inverse(self, i) -> tuple[int, ...]:
        """Indices of members containing member i (including itself)."""
        return tuple(j for j in range(self.rank) if self._above[i] >> j & 1)

    # -- membership -----------------------------------------------------

    def point_support(self) -> tuple[int, ...]:
        return self.center.support

    def in_chart(self, z) -> bool:
        """True iff z lies in the open chart domain of the model."""
        return self._inside(_column(self._sized(z, "chart point")), 1)[0] == 1

    @cached_property
    def _far_layers(self):
        """(rows, roots, layers): the distinct pairs of a basis row, as
        (index, exponent) pairs, and the root of its value, over the layers
        missing the center, and per such layer the indices of its pairs in
        basis order.  A layer holds the center iff it passes through it,
        which the center's flat table records by mask."""
        through = self.poset.flats_at(self.center)
        index, layers = {}, []
        for layer in self.poset.layers:
            if through.get(layer.mask) is not layer:
                pairs = zip(layer.lattice.basis, layer.values)
                layers.append(tuple(index.setdefault(pair, len(index)) for pair in pairs))
        rows = tuple(_sparse(row) for row, _ in index)
        return rows, tuple(unit_root(v) for _, v in index), tuple(layers)

    def coordinate_monomial(self, z, base_member: int) -> complex:
        return self._point(z)[0][base_member][0]


# -- flat evaluation ----------------------------------------------------
# Every float path of a chart goes through these.  They evaluate at n
# points at once, over one list per quantity (a column, entry s at point
# s); one point is n = 1.  Each product starts at its scale, or at 1 + 0j,
# and multiplies in index order, as when the sweep pins were made: another
# order changes the last bits.


def _support_mask(row) -> int:
    """The indices of the non-zero entries of an integer row, as a bitmask."""
    return sum(1 << i for i, x in enumerate(row) if x)


def _sparse(row) -> tuple[tuple[int, int], ...]:
    """The non-zero entries of an integer row as (index, entry) pairs."""
    return tuple((i, x) for i, x in enumerate(row) if x)


def _product_column(n: int, start: complex, factors) -> list[complex]:
    """start times each column of `factors` in turn, entry by entry."""
    col = [start] * n
    for f in factors:
        col = list(map(mul, col, f))
    return col


def _power_columns(cols, row):
    """The column of cols[i] ** e for each (index, exponent) pair of `row`."""
    return (cols[i] if e == 1 else [x**e for x in cols[i]] for i, e in row)


def _column(point) -> list[list]:
    """A point as columns of length one."""
    return [[x] for x in point]


def _entry(cols) -> tuple:
    """The point of columns of length one."""
    return tuple(col[0] for col in cols)


def _power_products(cols, n: int, rows) -> list[list[complex]]:
    """For each row of (index, exponent) pairs, the column of the products
    of cols[i] ** e (cols[i] itself for e == 1, which has the same bits)."""
    return [_product_column(n, 1 + 0j, _power_columns(cols, row)) for row in rows]


def _unit_column(flat, z, values, n: int) -> list[complex]:
    """A unit function at n points from its `ChartFunction._flat` terms,
    given the columns of the coordinates and member character values."""
    total = [0j] * n
    for scale, monomial, roots, extra in flat:
        diffs = ([x - root for x in values[i]] for i, root in roots)
        parts = chain(_power_columns(values, monomial), diffs, map(z.__getitem__, extra))
        total = list(map(add, total, _product_column(n, scale, parts)))
    return total


def _linear(c: int, num: int, den: int, k: int, make) -> tuple:
    """(c, make(a, b)) for the angle a / b of each root zeta omega^j != zeta
    of x^k - zeta^k, where zeta has angle num / den and omega^k = 1."""
    if k == 1:
        return ()
    return tuple((c, make((num * k + j * den) % (den * k), den * k)) for j in range(1, k))


def _numerators(t, n: int, rows, roots) -> list[list[complex]]:
    """The column of each character, a row of (index, exponent) pairs, at
    the n torus points t, minus the root of its constant."""
    return [[x - root for x in col] for col, root in zip(_power_products(t, n, rows), roots)]


def build_chart(
    poset: LayerPoset,
    nested_set: NestedSet,
    basis_rows=None,
    tolerance: float = DEFAULT_TOL,
) -> Chart:
    """Build the chart of a maximal nested set, checking adaptedness.

    `basis_rows` may supply an explicit adapted basis (any order); by
    default one is constructed.
    """
    # the poset's own members, whose supports the checks below read
    members = tuple(sorted(map(poset._own, nested_set.members), key=Layer.key))
    if nested_set.center.dim != 0:
        raise NotAPoint("charts exist only for maximal nested sets")
    through = poset.flats_at(nested_set.center)
    for m in members:
        if through.get(m.mask) != m:
            raise NotNested(f"{m} misses the center {nested_set.center}")
    # every member passes through the center, where c contains d iff
    # supp c <= supp d, and a character is constant on c with its value at
    # the center iff it lies in c's lattice
    if basis_rows is None:
        order = _peel_order(members, lambda c, d: not c.mask & ~d.mask)
        basis_rows = _peel(order, poset._peels)
    assignment: dict[int, Vector] = {}
    for row in basis_rows:
        hits = [i for i, m in enumerate(members) if row in m.lattice]
        if not hits:
            raise NotAdapted(f"basis vector {list(row)} is constant on no member")
        idx = _chain_top(members, hits)
        if idx in assignment:
            raise NotAdapted(f"two basis vectors are assigned to member {members[idx]}")
        assignment[idx] = tuple(row)
    if len(assignment) != len(members):
        raise NotAdapted(
            f"{len(assignment)} basis vectors for {len(members)} members"
        )
    basis = tuple(assignment[i] for i in range(len(members)))
    try:
        chart = Chart(poset, nested_set, members, basis, tolerance)
    except NotUnimodular as exc:
        raise NotAdapted("the basis is not a basis of the character lattice") from exc
    # the rows of the members containing a member lie in its lattice and, as
    # rows of a basis, span a saturated lattice: its own iff the ranks agree
    for i, member in enumerate(members):
        if len(chart.below_inverse(i)) != member.lattice.rank:
            raise NotAdapted(f"the basis is not adapted to member {member}")
    return chart


def atlas(
    poset: LayerPoset, building: BuildingSet, tolerance: float = DEFAULT_TOL
) -> list[Chart]:
    return [
        build_chart(poset, s, tolerance=tolerance)
        for s in enumerate_all_maximal(poset, building)
    ]


# -- chart transitions --------------------------------------------------


@dataclass(frozen=True)
class TransitionReport:
    """Per-member record of which overlap clause applies and its witness."""

    entries: tuple[tuple[Layer, str, float], ...]


def transition(source: Chart, target: Chart, z) -> tuple[tuple[complex, ...], TransitionReport]:
    """Coordinates of the same model point in the target chart."""
    if not source.in_chart(z):
        raise NotInOverlap("the point is not in the source chart")
    z_target = _target_coordinates(source, target, z, source.chart_to_torus(z))
    if not target.in_chart(z_target):
        raise NotInOverlap("the image is not in the target chart")
    entries = []
    for i, c in enumerate(source.members):
        if c in target.members:
            j = target.members.index(c)
            mag = abs(z[i] / z_target[j]) if abs(z_target[j]) > 0 else float("inf")
            entries.append((c, "shared-ratio", mag))
        else:
            entries.append((c, "invertible", abs(z[i])))
    return z_target, TransitionReport(tuple(entries))


def _target_coordinates(source, target, z, t):
    """The target's successor ratios at the torus point t, each one whose
    denominator vanishes computed through the source chart's unit functions."""
    phi = source.point_coordinates
    nums = _entry(_numerators(_column(t), 1, target._basis_sparse, target._roots))
    out = []
    for i, j in enumerate(target.succ):
        if j is None:
            out.append(nums[i])
            continue
        if abs(nums[j]) > target.tolerance:
            out.append(nums[i] / nums[j])
            continue
        # both characters vanish towards the divisor: factor through the
        # source chart and cancel common coordinate monomials exactly
        pair = [(target.basis[k], target.constants[k]) for k in (i, j)]
        if any(pairing(vec, phi) != val for vec, val in pair):
            raise NotInOverlap(
                "a vanishing target character misses the source center"
            )
        fnum, fden = (source.character_unit(vec, val) for vec, val in pair)
        below_num = set(source.below[fnum.base_member])
        below_den = set(source.below[fden.base_member])
        if not below_den <= below_num:
            raise NotInOverlap("the successor ratio is singular at this point")
        ratio = fnum(z)
        dval = fden(z)
        if abs(dval) <= source.tolerance:
            raise NotInOverlap("unit function of the denominator vanishes")
        ratio /= dval
        for e in below_num - below_den:
            ratio *= z[e]
        out.append(ratio)
    return tuple(out)


# -- divisor combinatorics ----------------------------------------------


def divisor_dim(poset: LayerPoset, building: BuildingSet, members) -> int | None:
    """Dimension of the divisor intersection indexed by `members`.

    None means the intersection is empty (the family is not nested).
    """
    members = list(members)
    for m in members:
        if m not in building:
            raise NotInBuildingSet(f"{m} is not in the building set")
    ok, _ = is_nested(members, building, poset)
    if not ok:
        return None
    # a repeated member is one divisor, as `is_nested` counts it
    return poset.arrangement.rank - len(set(members))


# -- curve limits -------------------------------------------------------


@dataclass(frozen=True)
class CurveGerm:
    """A polynomial logarithmic germ phi_p + sum s^j v_j based at a point.

    The jets are also kept as integer numerators over one denominator
    (`_den`, `_nums`), so orders and pairings are integer dot products, and
    each vector's order is computed once per germ (`_orders`).
    """

    point: Layer
    jets: tuple[tuple[Fraction, ...], ...]
    _den: int = field(init=False, repr=False, compare=False)
    _nums: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    _orders: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        if self.point.dim != 0:
            raise NotAPoint("curve germs are based at point layers")
        jets = tuple(tuple(Fraction(x) for x in v) for v in self.jets)
        object.__setattr__(self, "jets", jets)
        rank = self.point.lattice.ambient_rank
        for j, v in enumerate(jets, 1):
            # the entries are not shown: str() refuses ints past 4300 digits
            if len(v) != rank:
                raise InvalidGerm(f"jet {j} does not have length {rank}")
        den = lcm(*(x.denominator for v in jets for x in v))
        nums = tuple(tuple(x.numerator * (den // x.denominator) for x in v) for v in jets)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_nums", nums)

    def order(self, vector):
        """1-based order of vanishing of the character along the germ."""
        vector = tuple(vector)
        if vector not in self._orders:
            jets = range(1, len(self._nums) + 1)
            self._orders[vector] = next((j for j in jets if self._dot(vector, j)), None)
        return self._orders[vector]

    def pairing(self, vector, j) -> Fraction:
        return Fraction(self._dot(vector, j), self._den)

    def _dot(self, vector, j) -> int:
        """The pairing with jet j times `_den`."""
        return sum(map(mul, vector, self._nums[j - 1]))


def chart_for_curve(
    poset: LayerPoset,
    building: BuildingSet,
    germ: CurveGerm,
    tolerance: float = DEFAULT_TOL,
) -> tuple[Chart, tuple[complex, ...]]:
    """The chart in which the germ has a limit, and the limit coordinates."""
    arr = poset.arrangement
    p = poset._own(germ.point)
    support = p.support
    orders = {}
    for i in support:
        n = germ.order(arr.characters[i].vector)
        if n is None:
            raise InvalidGerm(
                f"the germ stays inside the hypersurface of character {i}"
            )
        orders[i] = n
    # flag of completions by vanishing order, factored into the building set
    collected: list[Layer] = []
    for h in range(1, max(orders.values(), default=0) + 1):
        # the characters vanishing to order >= h along the germ form a flat
        level = sum(1 << i for i in support if orders[i] >= h)
        if not level:
            break
        layer = poset.flats_at(p)[level]
        for f in factors(poset, layer, building):
            if f not in collected:
                collected.append(f)
    candidates = sorted(building._at(poset, p).members.values(), key=Layer.key)
    n = arr.rank
    for cand in candidates:
        if len(collected) == n:
            break
        if cand in collected:
            continue
        # every member collected or offered passes through p
        if is_nested(collected + [cand], building, poset)[0]:
            collected.append(cand)
    if len(collected) != n:
        raise InvalidGerm("the germ's flag does not complete to a maximal nested set")
    nested_set = NestedSet(tuple(collected), p)
    chart = build_chart(poset, nested_set, tolerance=tolerance)
    chart = _fit_basis_to_germ(poset, chart, germ)
    z_limit = _limit_coordinates(chart, germ)
    if not chart.in_chart(z_limit):
        raise InvalidGerm("the curve limit lies outside its chart")
    return chart, z_limit


def _fit_basis_to_germ(poset, chart: Chart, germ: CurveGerm) -> Chart:
    """Adjust the adapted basis so each assigned character vanishes at the
    minimal order available on its member (required for finite limits)."""
    chars = poset.arrangement.characters
    rows = list(chart.basis)
    order = sorted(
        range(chart.rank), key=lambda i: chart.members[i].lattice.rank
    )
    for i in order:
        h = min(germ.order(chars[k].vector) for k in chart.members[i].support)
        nval = germ.order(rows[i])
        if nval is not None and nval <= h:
            continue
        donor = next(
            (j for j in chart.below_inverse(i) if j != i and germ.order(rows[j]) == h),
            None,
        )
        if donor is None:
            raise NotAdapted(
                f"no member containing member {i} has a basis vector of order {h}"
            )
        rows[i] = tuple(x + y for x, y in zip(rows[i], rows[donor]))
    if rows == list(chart.basis):
        return chart
    return build_chart(
        poset, chart.nested_set, basis_rows=rows, tolerance=chart.tolerance
    )


def _limit_coordinates(chart: Chart, germ: CurveGerm) -> tuple[complex, ...]:
    out = []
    for i in range(chart.rank):
        j = chart.succ[i]
        if j is None:
            out.append(0j)
            continue
        ni = germ.order(chart.basis[i])
        nj = germ.order(chart.basis[j])
        if nj is None:
            raise InvalidGerm("a successor character stays on its hypersurface")
        if ni is None or ni > nj:
            out.append(0j)
        elif ni == nj:
            out.append(_limit_ratio(chart, germ, i, j, ni))
        else:
            raise InvalidGerm("the germ has no limit in the selected chart")
    return tuple(out)


def _limit_ratio(chart: Chart, germ: CurveGerm, i: int, j: int, h: int) -> complex:
    """zeta_i p_i / (zeta_j p_j), p_k the pairing of basis row k with jet h,
    or InvalidGerm if it does not fit in a float.

    Both pairings are scaled by the power of two that brings p_j near 1
    before they are rounded to floats.  Where they are normal floats that
    changes no bit of the quotient, and it keeps a huge or tiny common
    scale of the jet from overflowing or vanishing on the way."""
    den = germ._den
    a, b = germ._dot(chart.basis[i], h), germ._dot(chart.basis[j], h)
    k = abs(b).bit_length() - den.bit_length()
    up, down = (1 << -k, den) if k < 0 else (1, den << k)
    try:
        x = a * up / down
        z = chart._roots[i] * complex(x) / (chart._roots[j] * complex(b * up / down))
        if x and cmath.isfinite(z):
            return z
    except OverflowError:
        pass
    raise InvalidGerm(f"limit coordinate {i} of the germ does not fit in a float")


# -- verification sweeps ------------------------------------------------


def _sample_columns(rng, rank: int, samples: int) -> list[list[complex]]:
    """Coordinate k of `samples` random chart points, for each k < rank:
    modulus 0.1 + 0.4 u and angle 2 pi u', with u and then u' drawn from
    `rng`, coordinate by coordinate and point by point."""
    rnd, rect, two_pi = rng.random, cmath.rect, 2 * cmath.pi
    u = [rnd() for _ in range(2 * rank * samples)]
    # rect(r, x) has the bits of r * exp(1j * x): both are r cos x + i r sin x
    z = [rect(0.1 + 0.4 * r, two_pi * a) for r, a in zip(u[::2], u[1::2])]
    return [z[k::rank] for k in range(rank)]


def _sample_point(rng, rank: int) -> tuple[complex, ...]:
    """A random chart point, drawn as by `_sample_columns`."""
    return _entry(_sample_columns(rng, rank, 1))


def _kept(n: int, tested, tol: float, *groups):
    """(count, *groups) over the n samples at which no column of `tested`
    has modulus <= tol."""
    if not n or all(min(map(abs, col)) > tol for col in tested):
        return (n, *groups)
    keep = [
        s for s, xs in enumerate(zip(*tested)) if not any(abs(x) <= tol for x in xs)
    ]
    return (len(keep), *([[col[s] for s in keep] for col in g] for g in groups))


def _domain_columns(chart: Chart, rng, samples: int):
    """(count, z, member monomial, member value, torus point) columns over
    those of `samples` random chart points whose torus coordinates do not
    vanish, or None when there is none."""
    if samples <= 0:
        return None
    z = _sample_columns(rng, chart.rank, samples)
    monos, values = chart._values(z, samples)
    n, z, monos, values = _kept(samples, values, chart.tolerance, z, monos, values)
    if not n:
        return None
    return n, z, monos, values, chart._torus(values, n)


def residual_sweep(chart: Chart, rng, samples: int = 100) -> float:
    """Max relative defect of unit * monomial == character - constant; the
    unit functions are expanded only when some sample is in the domain."""
    return _residual(chart, rng, samples)[0]


def _residual(chart: Chart, rng, samples: int) -> tuple[float, int]:
    """(the `residual_sweep` defect, the number of samples it checked)."""
    cols = _domain_columns(chart, rng, samples)
    if cols is None:
        return 0.0, 0
    n, z, monos, values, t = cols
    rels = []
    for f, row, root in chart._support_units():
        unit = _unit_column(f._flat, z, values, n)
        value = _power_products(t, n, (row,))[0]
        mono = monos[f.base_member]
        rels += [
            abs(u * m - (v - root)) / (1 + abs(v)) for u, m, v in zip(unit, mono, value)
        ]
    return max([0.0, *rels]), n


def roundtrip_sweep(chart: Chart, rng, samples: int = 100) -> float:
    """Max relative error of chart -> torus -> chart; samples whose torus
    point sits on a successor's divisor are skipped."""
    return _roundtrip(chart, rng, samples)[0]


def _roundtrip(chart: Chart, rng, samples: int) -> tuple[float, int]:
    """(the `roundtrip_sweep` error, the number of samples it checked)."""
    cols = _domain_columns(chart, rng, samples)
    if cols is None:
        return 0.0, 0
    n, z, _, _, t = cols
    n, back, z = chart._to_chart(t, n, z)
    errs = []
    for za, xs in zip(z, back):
        errs += [abs(a - x) / (1 + abs(a)) for a, x in zip(za, xs)]
    return max([0.0, *errs]), n


def overlap_sweep(
    source: Chart, target: Chart, rng, samples: int = 20, max_tries: int = 2000
):
    """Magnitudes witnessing chart-overlap invertibility.

    Returns a list of per-sample lists of (layer, clause, magnitude);
    empty when the charts do not visibly overlap among the tried samples.
    """
    reports = []
    tries = 0
    while len(reports) < samples and tries < max_tries:
        tries += 1
        z = _sample_point(rng, source.rank)
        try:
            _, report = transition(source, target, z)
        except (NotInOverlap, OutsideDomain, OnDivisor):
            continue
        reports.append(report.entries)
    return reports


def cover_sweep(charts, rng, samples: int = 500, tolerance: float = 1e-6) -> int:
    """How many random complement points land in some chart; resamples
    points that fall numerically close to a hypersurface.  The points are
    drawn first, in the order of a point at a time; then each chart tests,
    as columns, those that no chart before it covered."""
    if not charts:
        return 0
    arr = charts[0].poset.arrangement
    rows = [_sparse(v) for v in arr.vectors]
    roots = [unit_root(ch.value) for ch in arr.characters]
    rank, t, drawn = arr.rank, [[] for _ in range(arr.rank)], 0
    while (k := samples - drawn) > 0:
        # a batch of the points still missing never draws past the last one kept
        phi = [rng.random() for _ in range(rank * k)]
        new = [[cmath.exp(2j * cmath.pi * x) for x in phi[i::rank]] for i in range(rank)]
        near = _numerators(new, k, rows, roots)
        keep = [s for s in range(k) if all(abs(col[s]) >= tolerance for col in near)]
        for col, kept in zip(t, new):
            col += [kept[s] for s in keep]
        drawn += len(keep)
    left = drawn
    for chart in charts:
        if not left:
            break
        n, z, ids = chart._to_chart(t, left, [list(range(left))])
        n, z, ids = _kept(n, z, chart.tolerance, z, ids)
        covered = set(chart._inside(z, n, ids)[1][0])
        rest = [s for s in range(left) if s not in covered]
        t, left = [[col[s] for s in rest] for col in t], len(rest)
    return drawn - left
