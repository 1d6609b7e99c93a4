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
from .arrangement import Layer, LayerPoset, layer_from_complete_set, top_member
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
from .nested import (
    NestedSet,
    enumerate_all_maximal,
    intersection_components,
    is_nested,
)

DEFAULT_TOL = 1e-9


def unit_root(angle: Fraction) -> complex:
    return cmath.exp(2j * cmath.pi * float(angle))


def maximal_constant_member(members, phi, vector) -> Layer | None:
    """The largest member on which `vector` is constant with its value at p.

    Returns None when the character is not constant on any member.
    """
    target = pairing(vector, phi)
    hits = [m for m in members if m.value_of(vector) == target]
    return top_member(hits) if hits else None


def adapted_basis_rows(members) -> list[Vector]:
    """An integral basis adapted to a nested set, by peeling minimal members.

    Returns a basis of the sum of the members' saturated lattices; for a
    maximal nested set that sum is the whole of Z^n.
    """
    members = sorted(members, key=Layer.key)
    if not members:
        return []
    # a minimal member, canonically chosen
    c = next(
        m
        for m in members
        if not any(o is not m and m.contains(o) for o in members)
    )
    rest = [m for m in members if m is not c]
    rows_rest = adapted_basis_rows(rest)
    n = c.lattice.ambient_rank
    lat_rest = Sublattice.from_rows(n, rows_rest)
    lat_all = Sublattice.from_rows(
        n, list(lat_rest.basis) + list(c.lattice.basis)
    )
    if lat_all.rank == lat_rest.rank:
        return rows_rest
    # quotient generators of lat_all / lat_rest, lifted into the minimal
    # member's lattice and canonically reduced
    gens = identity_matrix(lat_all.rank)
    if lat_rest.rank:
        coords = tuple(lat_all.coords(row) for row in lat_rest.basis)
        gens = invert_unimodular(smith_normal_form(coords).right)[lat_rest.rank :]
    new_rows = []
    stacked = tuple(c.lattice.basis) + tuple(lat_rest.basis)
    overlap = intersect(lat_rest, c.lattice)
    for g in gens:
        ambient = vec_mat(g, lat_all.basis)
        combo = express_in_rows(stacked, ambient)
        if combo is None:
            raise NotAdapted("a quotient generator does not lift to the member")
        lift = vec_mat(combo[: c.lattice.rank], c.lattice.basis)
        new_rows.append(overlap.reduce(lift)[1])
    return rows_rest + new_rows


@dataclass(frozen=True)
class BetaTerm:
    """One summand of the unit-function expansion of a character.

    Evaluates to sign * e^{2 pi i angle} * prod member-values^exponent *
    prod (member-value - root of unity).  The roots of unity are computed
    once, when the term is made.
    """

    member: int
    sign: int
    angle: Fraction
    monomial: tuple[tuple[int, int], ...]
    linear: tuple[tuple[int, Fraction], ...]
    _scale: complex = field(init=False, repr=False, compare=False)
    _roots: tuple[tuple[int, complex], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_scale", self.sign * unit_root(self.angle))
        object.__setattr__(
            self, "_roots", tuple((idx, unit_root(a)) for idx, a in self.linear)
        )

    def eval(self, values) -> complex:
        out = self._scale
        for idx, e in self.monomial:
            out *= values[idx] ** e
        for idx, root in self._roots:
            out *= values[idx] - root
        return out


@dataclass(frozen=True)
class ChartFunction:
    """The unit factor of (character - constant) in chart coordinates.

    On the dense open part of the chart it equals
    (character - constant) / prod of the coordinates below `base_member`;
    it extends regularly over the divisor and is nonzero at 0.
    """

    chart: "Chart"
    vector: Vector
    value: Fraction
    base_member: int
    terms: tuple[BetaTerm, ...]
    # per term, the coordinates below its member but not below base_member
    _extra: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        below = self.chart.below
        base_below = set(below[self.base_member])
        object.__setattr__(
            self,
            "_extra",
            tuple(
                tuple(e for e in below[term.member] if e not in base_below)
                for term in self.terms
            ),
        )

    def __call__(self, z) -> complex:
        return self._at(z, self.chart.member_character_values(z))

    def _at(self, z, values) -> complex:
        """The value at z, given the chart's member character values at z."""
        total = 0j
        for term, extra in zip(self.terms, self._extra):
            contrib = term.eval(values)
            for e in extra:
                contrib *= z[e]
            total += contrib
        return total


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
    _above: tuple[tuple[int, ...], ...] = field(init=False)
    _basis_inv: tuple = field(init=False)
    _functions: dict = field(init=False, default_factory=dict)
    _units: tuple | None = field(init=False, default=None)

    def __post_init__(self):
        # first, so that a basis that is not unimodular fails before any other check
        self._basis_inv = invert_unimodular(self.basis)
        phi = self.point_coordinates
        self.constants = tuple(pairing(row, phi) for row in self.basis)
        self._roots = tuple(unit_root(a) for a in self.constants)
        members = self.members
        self.below = tuple(
            tuple(j for j, d in enumerate(members) if c.contains(d)) for c in members
        )
        self._above = tuple(
            tuple(j for j, inside in enumerate(self.below) if i in inside)
            for i in range(self.rank)
        )
        self.succ = tuple(
            self._top([j for j in inside if j != i])
            for i, inside in enumerate(self.below)
        )

    def _top(self, indices) -> int | None:
        """The member of largest dimension among `indices`, None if there are
        none; like `top_member`, raises NotNested unless they form a chain."""
        if not indices:
            return None
        top = max(indices, key=lambda i: self.members[i].dim)
        if not set(indices).issubset(self.below[top]):
            raise NotNested(
                f"the layers {[self.members[i] for i in indices]} do not form a chain"
            )
        return top

    @property
    def center(self) -> Layer:
        return self.nested_set.center

    @property
    def point_coordinates(self) -> tuple[Fraction, ...]:
        return self.center.coordinates

    @property
    def rank(self) -> int:
        return len(self.members)

    def index_of(self, member: Layer) -> int:
        return self.members.index(member)

    # -- coordinate maps ------------------------------------------------

    def member_character_values(self, z) -> list[complex]:
        """The value of each basis character at the image torus point."""
        return [
            self.coordinate_monomial(z, i) + root for i, root in enumerate(self._roots)
        ]

    def in_coordinate_domain(self, z) -> bool:
        return self._in_domain(self.member_character_values(z))

    def _in_domain(self, values) -> bool:
        return all(abs(v) > self.tolerance for v in values)

    def chart_to_torus(self, z) -> tuple[complex, ...]:
        values = self.member_character_values(z)
        if any(abs(v) <= self.tolerance for v in values):
            raise OutsideDomain("a torus coordinate would vanish")
        return self._to_torus(values)

    def _to_torus(self, values) -> tuple[complex, ...]:
        """The torus point whose member character values are `values`."""
        return tuple(
            _int_power_product(values, self._basis_inv[j])
            for j in range(self.rank)
        )

    def character_value(self, t, vector) -> complex:
        return _int_power_product(t, vector)

    def torus_to_chart(self, t) -> tuple[complex, ...]:
        nums = list(_numerators(t, self.basis, self._roots))
        for i, j in enumerate(self.succ):
            if j is not None and abs(nums[j]) <= self.tolerance:
                raise OnDivisor(
                    f"coordinate {i}: successor character sits on its divisor"
                )
        return tuple(x if j is None else x / nums[j] for x, j in zip(nums, self.succ))

    # -- the unit functions --------------------------------------------

    def constant_member(self, vector) -> Layer | None:
        """The largest member on which the character matches its value at p."""
        c = self._top_constant(vec_mat(vector, self._basis_inv))
        return None if c is None else self.members[c]

    def _top_constant(self, coeffs) -> int | None:
        """The largest member on which the character with these chart-basis
        coefficients is constant.  Adaptedness makes each member's lattice the
        span of the basis vectors of the members containing it, so these are
        the members whose `_above` covers the coefficient support; all of
        them hold the center, so the constant is the value at p."""
        support = {j for j, x in enumerate(coeffs) if x}
        return self._top(
            [i for i, up in enumerate(self._above) if support.issubset(up)]
        )

    def character_unit(self, vector, value: Fraction) -> ChartFunction:
        key = (tuple(vector), mod1(Fraction(value)))
        if key not in self._functions:
            self._functions[key] = self._expand(*key)
        return self._functions[key]

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
        leaves the coordinates in `ChartFunction._extra`.

        Exact certificate: each term but the base's has its own member's
        coordinate among those, so the unit's value at the chart origin is
        the base term alone, sign * zeta^angle * prod zeta_j^{m_j} *
        prod (zeta_b - zeta_b omega^j) over the k-th roots omega^j != 1,
        k = |m_b|.  It is non-zero iff the base coefficient m_b is, which
        is checked here exactly.
        """
        if pairing(vector, self.point_coordinates) != value:
            raise OutsideDomain(
                "the character does not pass through the chart center"
            )
        coeffs = list(vec_mat(vector, self._basis_inv))
        terms = []
        pref = Fraction(0)
        base = None
        while any(coeffs):
            c = self._top_constant(coeffs)
            if c is None:
                raise NotExpandable(
                    f"character {list(vector)} is constant on no member of the chart"
                )
            if base is None:
                base = c
            elif coeffs[c] == 0:
                # any member left with a non-zero coefficient contains the base
                c = next(j for j in self._above[base] if coeffs[j])
            m_c = coeffs[c]
            if m_c == 0:
                raise NotExpandable(
                    f"character {list(vector)} has no component on the basis "
                    f"vector of member {c}, its largest constant member"
                )
            monomial = [
                (j, coeffs[j]) for j in self._above[base] if j != c and coeffs[j]
            ]
            sign = 1
            angle = pref
            k = abs(m_c)
            if m_c < 0:
                sign = -1
                monomial.append((c, m_c))
                angle += m_c * self.constants[c]
            linear = tuple(
                (c, mod1(self.constants[c] + Fraction(j, k)))
                for j in range(1, k)
            )
            terms.append(BetaTerm(c, sign, mod1(angle), tuple(monomial), linear))
            pref += m_c * self.constants[c]
            coeffs[c] = 0
        if base is None:
            raise NotExpandable("the trivial character has no unit function")
        return ChartFunction(self, tuple(vector), value, base, tuple(terms))

    def _support_units(self):
        """(unit function, vector, root of its constant) for each character
        through the center, in support order; made on the first call."""
        if self._units is None:
            chars = self.poset.arrangement.characters
            self._units = tuple(
                (self.character_unit(c.vector, c.value), c.vector, unit_root(c.value))
                for c in (chars[i] for i in self.point_support())
            )
        return self._units

    def below_inverse(self, i) -> tuple[int, ...]:
        """Indices of members containing member i (including itself)."""
        return self._above[i]

    # -- membership -----------------------------------------------------

    def point_support(self) -> tuple[int, ...]:
        return self.center.support

    def in_chart(self, z) -> bool:
        """True iff z lies in the open chart domain of the model."""
        values = self.member_character_values(z)
        if any(abs(v) <= self.tolerance for v in values):
            return False
        t = self._to_torus(values)
        for rows, roots in self._far_layers:
            if all(abs(x) <= self.tolerance for x in _numerators(t, rows, roots)):
                return False
        return all(
            abs(f._at(z, values)) > self.tolerance for f, _, _ in self._support_units()
        )

    @cached_property
    def _far_layers(self):
        """(basis rows, roots of their values) of each layer missing the center."""
        return tuple(
            (layer.lattice.basis, tuple(unit_root(v) for v in layer.values))
            for layer in self.poset.layers
            if not layer.contains(self.center)
        )

    def coordinate_monomial(self, z, base_member: int) -> complex:
        prod = 1 + 0j
        for e in self.below[base_member]:
            prod *= z[e]
        return prod


def _int_power_product(values, exponents) -> complex:
    out = 1 + 0j
    for v, e in zip(values, exponents):
        if e:
            out *= v ** e
    return out


def _numerators(t, rows, roots):
    """Each character's value at t minus the root of its constant, lazily."""
    return (_int_power_product(t, row) - root for row, root in zip(rows, roots))


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
    members = nested_set.members
    if nested_set.center.dim != 0:
        raise NotAPoint("charts exist only for maximal nested sets")
    if basis_rows is None:
        basis_rows = adapted_basis_rows(members)
    phi = nested_set.center.coordinates
    assignment: dict[int, Vector] = {}
    for row in basis_rows:
        layer = maximal_constant_member(members, phi, row)
        if layer is None:
            raise NotAdapted(f"basis vector {list(row)} is constant on no member")
        idx = members.index(layer)
        if idx in assignment:
            raise NotAdapted(f"two basis vectors are assigned to member {layer}")
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
    _check_adapted(chart)
    return chart


def _check_adapted(chart: Chart):
    for i, member in enumerate(chart.members):
        rows = [chart.basis[j] for j in chart.below_inverse(i)]
        if hermite_basis(rows) != member.lattice.basis:
            raise NotAdapted(f"the basis is not adapted to member {member}")


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
    t = source.chart_to_torus(z)
    try:
        z_target = target.torus_to_chart(t)
    except OnDivisor:
        z_target = _transition_on_divisor(source, target, z, t)
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


def _transition_on_divisor(source, target, z, t):
    """Successor ratios computed through the source chart's unit functions."""
    phi = source.point_coordinates
    nums = list(_numerators(t, target.basis, target._roots))
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
    return poset.arrangement.rank - len(members)


# -- curve limits -------------------------------------------------------


@dataclass(frozen=True)
class CurveGerm:
    """A polynomial logarithmic germ phi_p + sum s^j v_j based at a point."""

    point: Layer
    jets: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if self.point.dim != 0:
            raise NotAPoint("curve germs are based at point layers")
        object.__setattr__(
            self,
            "jets",
            tuple(tuple(Fraction(x) for x in v) for v in self.jets),
        )
        rank = self.point.lattice.ambient_rank
        for v in self.jets:
            if len(v) != rank:
                raise InvalidGerm(
                    f"jet ({', '.join(map(str, v))}) does not have length {rank}"
                )

    def order(self, vector):
        """1-based order of vanishing of the character along the germ."""
        jets = range(1, len(self.jets) + 1)
        return next((j for j in jets if self.pairing(vector, j) != 0), None)

    def pairing(self, vector, j) -> Fraction:
        return sum(Fraction(x) * y for x, y in zip(vector, self.jets[j - 1]))


def chart_for_curve(
    poset: LayerPoset,
    building: BuildingSet,
    germ: CurveGerm,
    tolerance: float = DEFAULT_TOL,
) -> tuple[Chart, tuple[complex, ...]]:
    """The chart in which the germ has a limit, and the limit coordinates."""
    arr = poset.arrangement
    p = germ.point
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
    for h in range(1, max(orders.values()) + 1):
        level = tuple(sorted(i for i in support if orders[i] >= h))
        if not level:
            break
        layer = layer_from_complete_set(arr, p, level)
        for f in factors(poset, layer, building):
            if f not in collected:
                collected.append(f)
    candidates = sorted(building.members_through(p), key=Layer.key)
    n = arr.rank
    for cand in candidates:
        if len(collected) == n:
            break
        if cand in collected:
            continue
        ok, _ = is_nested(collected + [cand], building, poset)
        if ok:
            comps = intersection_components(arr, collected + [cand])
            if any(c.contains(p) for c in comps):
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
            num = chart._roots[i] * germ.pairing(chart.basis[i], ni)
            den = chart._roots[j] * germ.pairing(chart.basis[j], nj)
            out.append(num / den)
        else:
            raise InvalidGerm("the germ has no limit in the selected chart")
    return tuple(out)


# -- verification sweeps ------------------------------------------------


def _sample_coordinate(rng) -> complex:
    r = 0.1 + 0.4 * rng.random()
    theta = 2 * cmath.pi * rng.random()
    return r * cmath.exp(1j * theta)


def _domain_samples(chart: Chart, rng, samples: int):
    """(z, member character values, torus point) of each of `samples` random
    chart points whose torus coordinates do not vanish."""
    for _ in range(samples):
        z = tuple(_sample_coordinate(rng) for _ in range(chart.rank))
        values = chart.member_character_values(z)
        if chart._in_domain(values):
            yield z, values, chart._to_torus(values)


def residual_sweep(chart: Chart, rng, samples: int = 100) -> float:
    """Max relative defect of unit * monomial == character - constant.

    The unit functions are expanded at the first sample in the domain.
    """
    worst = 0.0
    for z, values, t in _domain_samples(chart, rng, samples):
        for f, vector, root in chart._support_units():
            lhs = f._at(z, values) * chart.coordinate_monomial(z, f.base_member)
            value = chart.character_value(t, vector)
            rel = abs(lhs - (value - root)) / (1 + abs(value))
            worst = max(worst, rel)
    return worst


def roundtrip_sweep(chart: Chart, rng, samples: int = 100) -> float:
    worst = 0.0
    for z, _, t in _domain_samples(chart, rng, samples):
        try:
            z_back = chart.torus_to_chart(t)
        except OnDivisor:
            continue
        err = max(
            abs(a - b) / (1 + abs(a)) for a, b in zip(z, z_back)
        )
        worst = max(worst, err)
    return worst


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
        z = tuple(_sample_coordinate(rng) for _ in range(source.rank))
        try:
            if not source.in_chart(z):
                continue
            _, report = transition(source, target, z)
        except (NotInOverlap, OutsideDomain, OnDivisor):
            continue
        reports.append(report.entries)
    return reports


def cover_sweep(charts, rng, samples: int = 500, tolerance: float = 1e-6) -> int:
    """How many random complement points land in some chart; resamples
    points that fall numerically close to a hypersurface."""
    if not charts:
        return 0
    arr = charts[0].poset.arrangement
    roots = [unit_root(ch.value) for ch in arr.characters]
    covered = 0
    done = 0
    while done < samples:
        phi = [rng.random() for _ in range(arr.rank)]
        t = tuple(cmath.exp(2j * cmath.pi * x) for x in phi)
        if any(abs(x) < tolerance for x in _numerators(t, arr.vectors, roots)):
            continue
        done += 1
        for chart in charts:
            try:
                z = chart.torus_to_chart(t)
            except OnDivisor:
                continue
            if all(abs(x) > chart.tolerance for x in z) and chart.in_chart(z):
                covered += 1
                break
    return covered
