import cmath
import hashlib
import itertools
import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from toricwonder import (
    Chart,
    CurveGerm,
    InvalidGerm,
    Layer,
    NestedSet,
    NotAdapted,
    NotInBuildingSet,
    NotInOverlap,
    NotNested,
    OnDivisor,
    OutsideDomain,
    ToricError,
    adapted_basis_rows,
    atlas,
    build_chart,
    build_poset,
    chart_for_curve,
    cover_sweep,
    divisor_dim,
    enumerate_maximal,
    irreducible_layers,
    overlap_sweep,
    point_layer,
    residual_sweep,
    roundtrip_sweep,
    saturate,
    transition,
)
from toricwonder import charts
from toricwonder.cli import main, parse_file
from toricwonder.lattices import (
    Sublattice,
    hermite_basis,
    invert_unimodular,
    lattice_index,
)
from oracles import (
    ARR_FILES,
    oracle_adapted_basis_rows,
    oracle_chart_basis,
    oracle_chart_to_torus,
    oracle_check_adapted,
    oracle_cover_sweep,
    oracle_domain_samples,
    oracle_expand,
    oracle_in_chart,
    oracle_maximal_constant_member,
    oracle_member_values,
    oracle_peel_expand,
    oracle_point_to_chart,
    oracle_residual_sweep,
    oracle_roundtrip_sweep,
    oracle_sample_point,
    oracle_torus_to_chart,
    oracle_unit_at,
    oracle_unit_terms,
    oracle_unit_value,
    random_arrangement,
    random_vectors,
    root_system,
)
from oracles import oracle_determinant as determinant

F = Fraction

FAMILIES = Path(__file__).resolve().parent.parent / "perfbench" / "families"

# sha256 of every A3, B3 and C3 sweep result below.  Re-recorded once every
# chart expanded: the sweeps of a family share one random stream, and the
# charts that used to stop at their first sample now draw all of theirs,
# which moves the samples of the charts after them.
# TestEveryChartExpands checks those charts against the old expansion with
# one stream per chart.
SWEEP_PIN = "e8cf4fe234dee585932a6601d39156e7a175d3758dbc1c7a81c190d1e0675ac3"

# sha256 of the member keys and basis of every chart of the A4, B4 and A5
# atlases, recorded before build_chart shared its peel steps across charts
BASIS_PIN = "1b13f5bf7e8e1bdbe0220ca09f53d8a9a1d3cad52b6bccb5d9656dc498f8c4bb"

# sha256 of the overlap_sweep reports of TestOverlapPin
OVERLAP_PIN = "ac2c4b63813ca08922e96b7086d229d49f085269c1715fe5d3d7445375239a3f"


def chart_with(poset, building, point, member_basis, explicit=None):
    sets = enumerate_maximal(poset, point, building)
    s = next(
        x
        for x in sets
        if any(m.lattice.basis == member_basis for m in x.members)
    )
    return build_chart(poset, s, basis_rows=explicit)


@pytest.fixture(scope="module")
def bench_atlases():
    """(arrangement, atlas) of each bench family and example file, by name."""
    out = {}
    for path in ARR_FILES:
        arr, _ = parse_file(str(path))
        poset = build_poset(arr)
        out[path.stem] = (arr, atlas(poset, irreducible_layers(poset)))
    return out


@pytest.fixture(scope="module")
def a4_atlas():
    poset = build_poset(root_system("A", 4))
    return atlas(poset, irreducible_layers(poset))


@pytest.fixture(scope="module")
def root_atlases(a4_atlas):
    """The atlas of each of A4, B4, C4 and A5, by name."""
    out = {"A4": a4_atlas}
    for kind, n in (("B", 4), ("C", 4), ("A", 5)):
        poset = build_poset(root_system(kind, n))
        out[f"{kind}{n}"] = atlas(poset, irreducible_layers(poset))
    return out


@pytest.fixture(scope="module")
def family_atlases(bench_atlases):
    """The atlas of each of A3, B3 and C3, read from the bench families."""
    return {fam: bench_atlases[fam][1] for fam in ("A3", "B3", "C3")}


def count_calls(monkeypatch, cls, names) -> Counter:
    """Count the calls of the named methods of `cls` from now on."""
    calls = Counter()
    for name in names:

        def wrapper(*args, _fn=getattr(cls, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)
    return calls


@pytest.fixture(scope="module")
def std_chart(two_lines):
    """S = {p1, H_ts} with the explicit adapted basis (1,1), (1,0)."""
    arr, poset, building = two_lines
    p1 = point_layer(arr, (0, 0))
    return chart_with(poset, building, p1, ((1, 1),), [(1, 1), (1, 0)])


def z_by_member(chart, assignments):
    """Chart coordinates given per-member 1-dim lattice basis markers."""
    out = [0j] * chart.rank
    for key, val in assignments.items():
        idx = next(
            i
            for i, m in enumerate(chart.members)
            if (m.dim == 0 and key == "p") or m.lattice.basis == key
        )
        out[idx] = val
    return tuple(out)


class TestAdaptedBasis:
    def test_two_lines_chart(self, std_chart):
        chart = std_chart
        # assignment: the hypersurface member carries (1,1)
        h_idx = next(i for i, m in enumerate(chart.members) if m.dim == 1)
        assert chart.basis[h_idx] == (1, 1)
        assert abs(determinant(chart.basis)) == 1

    def test_generated_basis_adapted(self, two_lines, doubled_square):
        for arr, poset, building in (two_lines, doubled_square):
            for chart in atlas(poset, building):
                for i, m in enumerate(chart.members):
                    rows = [
                        chart.basis[j] for j in chart.below_inverse(i)
                    ]
                    assert hermite_basis(rows) == m.lattice.basis

    def test_transverse_pair_doubled_square(self, doubled_square):
        arr, poset, building = doubled_square
        p3 = point_layer(arr, (0, F(1, 2)))
        sets = enumerate_maximal(poset, p3, building)
        chart = build_chart(poset, sets[0])
        assert set(chart.basis) == {(1, 0), (0, 1)}

    @pytest.mark.parametrize(
        "rows",
        [
            [(1, 0), (0, 1)],  # both vectors belong to the point member
            [(1, 1), (2, 0)],  # determinant -2
            [(1, 1)],  # too few vectors
        ],
    )
    def test_rejects_unadapted_basis(self, two_lines, rows):
        arr, poset, building = two_lines
        with pytest.raises(NotAdapted):
            chart_with(poset, building, point_layer(arr, (0, 0)), ((1, 1),), rows)

    def test_exact_checks_make_no_fraction(self, monkeypatch, two_lines):
        """The inverse, the index and build_chart's basis check stay in integers."""
        made = [0]
        new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            made[0] += 1
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
        assert invert_unimodular(((2, 1), (1, 1))) == ((1, -1), (-1, 2))
        outer = Sublattice.from_rows(3, [(1, 1, 0), (0, 1, 1)])
        inner = Sublattice.from_rows(3, [(1, 3, 2), (2, 0, -2)])
        assert lattice_index(inner, outer) == 6
        assert made == [0]
        checks = []

        def spy(mat):
            before = made[0]
            try:
                return invert_unimodular(mat)
            finally:
                checks.append((set(mat), made[0] - before))

        monkeypatch.setattr(charts, "invert_unimodular", spy)
        arr, poset, building = two_lines
        p1 = point_layer(arr, (0, 0))
        with pytest.raises(NotAdapted):
            chart_with(poset, building, p1, ((1, 1),), [(1, 1), (2, 0)])
        assert checks == [({(1, 1), (2, 0)}, 0)]

    def test_rejects_vector_constant_on_no_member(self, doubled_square):
        arr, poset, building = doubled_square
        s = enumerate_maximal(poset, point_layer(arr, (0, F(1, 2))), building)[0]
        with pytest.raises(NotAdapted):
            build_chart(poset, s, basis_rows=[(1, 0), (1, 1)])

    def test_rank_one(self):
        from toricwonder import normalize

        arr = normalize(1, [((1,), F(0))])
        poset = build_poset(arr)
        building = irreducible_layers(poset)
        p = point_layer(arr, (0,))
        chart = build_chart(poset, enumerate_maximal(poset, p, building)[0])
        assert chart.basis in (((1,),), ((-1,),))


class TestPeelOracle:
    """The peel steps shared through the poset against the recursive peel
    and the exact constant-member scan they replaced."""

    def test_sub_families(self, bench_atlases, a4_atlas):
        """Every non-empty sub-family of every maximal nested set."""
        families = set()
        for fam_atlas in [a for _, a in bench_atlases.values()] + [a4_atlas]:
            for chart in fam_atlas:
                for size in range(1, chart.rank + 1):
                    families.update(
                        map(frozenset, itertools.combinations(chart.members, size))
                    )
        assert len(families) > 1000
        for family in families:
            assert adapted_basis_rows(family) == oracle_adapted_basis_rows(family)

    def test_chart_bases(self, bench_atlases, root_atlases):
        charts_seen = 0
        for fam_atlas in [a for _, a in bench_atlases.values()] + list(
            root_atlases.values()
        ):
            for chart in fam_atlas:
                want = oracle_chart_basis(chart.members, chart.point_coordinates)
                assert chart.basis == want
                charts_seen += 1
        assert charts_seen == 407 + 105 + 672 + 1008 + 945

    def test_arbitrary_families(self):
        """Families of layers through the origin with random saturated
        lattices, whose sums need not be saturated, each peeled with a fresh
        memo and with one memo shared by all of them.  The public function
        returns the oracle's rows where they span the sum of the lattices
        and raises NotAdapted where they do not; both kinds occur."""
        rng = random.Random(0)
        memo, unsaturated, spanning, short = {}, 0, 0, 0
        for _ in range(300):
            n = rng.randint(2, 3)
            family = set()
            for _ in range(rng.randint(1, 4)):
                rows = random_vectors(rng, n, rng.randint(1, n))
                lattice = saturate(Sublattice.from_rows(n, rows))
                family.add(Layer(lattice, (0,) * lattice.rank))
            want = oracle_adapted_basis_rows(family)
            assert charts._peel(charts._peel_order(family, Layer.contains), memo) == want
            total = Sublattice.from_rows(n, [r for m in family for r in m.lattice.basis])
            unsaturated += saturate(total) != total
            if Sublattice.from_rows(n, want) == total:
                spanning += 1
                assert adapted_basis_rows(family) == want
            else:
                short += 1
                with pytest.raises(NotAdapted):
                    adapted_basis_rows(family)
        assert unsaturated > 0 and spanning > 0 and short > 0

    def test_rows_short_of_the_sum(self):
        """Through the origin, span{(2, -2, -1)}, Z^3 and span{(1, 2, 1)} sum
        to Z^3, but their peel gives rows of index 3 in it: no basis."""
        family = [
            Layer(lattice, (0,) * lattice.rank)
            for lattice in (
                Sublattice.from_rows(3, [(2, -2, -1)]),
                Sublattice.full(3),
                Sublattice.from_rows(3, [(1, 2, 1)]),
            )
        ]
        rows = oracle_adapted_basis_rows(family)
        assert rows == [(2, -2, -1), (1, 2, 1), (0, 1, 0)]
        assert abs(determinant(rows)) == 3
        with pytest.raises(NotAdapted, match="do not span"):
            adapted_basis_rows(family)

    def test_steps_shared_by_the_poset(self, bench_atlases, monkeypatch):
        """Rebuilding a family's charts takes every peel step from the
        poset's memo, which holds fewer steps than the charts peel."""
        fam_atlas = bench_atlases["B3"][1]
        poset = fam_atlas[0].poset
        assert 0 < len(poset._peels) < sum(chart.rank for chart in fam_atlas)
        calls = count_calls(monkeypatch, charts, ["_peel_step"])
        for chart in fam_atlas:
            again = build_chart(poset, chart.nested_set)
            assert (again.members, again.basis) == (chart.members, chart.basis)
        assert not calls


def _assigned_chart(poset, nested_set, rows):
    """The chart `build_chart` makes from explicit rows before it checks
    adaptedness: each row goes to the largest member whose lattice holds it."""
    members = nested_set.members
    basis = [None] * len(members)
    for row in rows:
        hits = [i for i, m in enumerate(members) if row in m.lattice]
        basis[charts._chain_top(members, hits)] = tuple(row)
    return Chart(poset, nested_set, members, tuple(basis))


class TestAdaptedOracle:
    """`build_chart`'s rank count against the per-member Hermite check it
    replaced."""

    def test_every_chart(self, bench_atlases, root_atlases):
        seen = 0
        for fam_atlas in [a for _, a in bench_atlases.values()] + [
            root_atlases["A4"],
            root_atlases["B4"],
        ]:
            for chart in fam_atlas:
                assert oracle_check_adapted(chart) is None
                seen += 1
        assert seen == 407 + 105 + 672

    def test_explicit_bases(self, bench_atlases):
        """Sets of n members through a point, nested or not, with the peel
        rows and with one row sheared by another.  Where a basis reaches the
        adaptedness check, both checks name the same member, or neither."""
        rng = random.Random(3)
        outcomes = Counter()
        for arr, _ in bench_atlases.values():
            poset = build_poset(arr)
            building = irreducible_layers(poset)
            for p in poset.points:
                combos = list(itertools.combinations(building.members_through(p), arr.rank))
                for combo in rng.sample(combos, min(len(combos), 12)):
                    try:
                        rows = adapted_basis_rows(combo)
                    except NotAdapted:
                        continue
                    i, j = rng.sample(range(len(rows)), 2)
                    sheared = list(rows)
                    sheared[i] = tuple(x + y for x, y in zip(rows[i], rows[j]))
                    for basis in (rows, sheared):
                        outcomes[self._compare(poset, NestedSet(combo, p), basis)] += 1
        assert outcomes["adapted"] > 0 and outcomes["not adapted"] > 0

    @staticmethod
    def _compare(poset, nested_set, rows):
        try:
            chart = build_chart(poset, nested_set, basis_rows=rows)
        except NotAdapted as exc:
            if "adapted to member" not in str(exc):
                return "rejected earlier"
            assert str(exc) == oracle_check_adapted(
                _assigned_chart(poset, nested_set, rows)
            )
            return "not adapted"
        except NotNested:
            return "rejected earlier"
        assert oracle_check_adapted(chart) is None
        return "adapted"

    @pytest.mark.parametrize(
        "rows", [[(1, 1), (1, 0)], [(1, 1), (0, 1)], [(1, 1), (2, 1)], [(1, 0), (1, 1)]]
    )
    def test_two_lines_bases(self, two_lines, rows):
        arr, poset, building = two_lines
        sets = enumerate_maximal(poset, point_layer(arr, (0, 0)), building)
        for s in sets:
            self._compare(poset, s, rows)


class TestBasisPin:
    def test_rank_four_and_five_bases(self, root_atlases):
        """Every chart basis of A4, B4 and A5 is unchanged."""
        digest = hashlib.sha256()
        for fam in ("A4", "B4", "A5"):
            for chart in root_atlases[fam]:
                keys = [m.key() for m in chart.members]
                digest.update(f"{keys!r} {chart.basis!r}\n".encode())
        assert digest.hexdigest() == BASIS_PIN


class TestMembersWithoutSupport:
    def test_c4_charts(self, root_atlases):
        """A maximal nested set of layers built without `support` gets the
        chart of the poset's own layers, and keeps its nested set."""
        fam_atlas = root_atlases["C4"]
        assert len(fam_atlas) == 1008
        poset = fam_atlas[0].poset
        for chart in fam_atlas:
            members = tuple(Layer(m.lattice, m.values) for m in chart.members)
            bare = NestedSet(members, chart.center)
            got = build_chart(poset, bare)
            assert got.nested_set is bare
            assert [m.key() for m in got.members] == [m.key() for m in chart.members]
            assert got.basis == chart.basis and got.constants == chart.constants


class TestConstantMember:
    def test_on_hypersurface(self, std_chart):
        got = std_chart.constant_member((1, 1))
        assert got is not None and got.dim == 1

    def test_point_only(self, std_chart):
        assert std_chart.constant_member((1, 0)).dim == 0

    def test_value_mismatch_falls_to_point(self, std_chart):
        # ts^{-1} is 1 at p1 but non-constant on H_ts
        assert std_chart.constant_member((1, -1)).dim == 0


class TestChartTables:
    """Exact questions answered from a chart's index tables."""

    def test_constant_member_matches_exact_scan(self, bench_atlases):
        def outcome(fn, *args):
            try:
                return fn(*args)
            except NotNested:
                return NotNested

        rng = random.Random(3)
        seen = Counter()
        for arr, fam_atlas in bench_atlases.values():
            for chart in fam_atlas:
                vectors = [*arr.vectors, *chart.basis, (0,) * arr.rank]
                vectors += [
                    tuple(rng.randint(-2, 2) for _ in range(arr.rank)) for _ in range(5)
                ]
                phi = chart.point_coordinates
                for v in vectors:
                    want = outcome(oracle_maximal_constant_member, chart.members, phi, v)
                    assert outcome(chart.constant_member, v) == want
                    seen[want if want in (None, NotNested) else Layer] += 1
        assert sum(len(a) for _, a in bench_atlases.values()) == 407
        assert seen[Layer] > 0 and seen[NotNested] > 0

    def test_character_unit_on_fresh_chart(self, doubled_square, monkeypatch):
        arr, poset, building = doubled_square
        fresh = atlas(poset, building)
        calls = count_calls(monkeypatch, Layer, ["value_of", "contains"])
        for chart in fresh:
            for i in chart.point_support():
                ch = arr.characters[i]
                chart.character_unit(ch.vector, ch.value)
            for row, value in zip(chart.basis, chart.constants):
                chart.character_unit(row, value)
        assert not calls

    def test_first_in_chart(self, doubled_square, monkeypatch):
        """The layers missing the center come from the center's flat table."""
        arr, poset, building = doubled_square
        fresh = atlas(poset, building)
        calls = count_calls(monkeypatch, Layer, ["value_of", "contains"])
        for chart in fresh:
            assert chart.in_chart((0j,) * chart.rank)
        assert not calls
        for chart in fresh:
            far = [l for l in poset.layers if not l.contains(chart.center)]
            assert len(chart._far_layers) == len(far)

    def test_second_in_chart(self, doubled_square, monkeypatch):
        arr, poset, building = doubled_square
        fresh = atlas(poset, building)
        for chart in fresh:
            assert chart.in_chart((0j,) * chart.rank)
        calls = count_calls(monkeypatch, Layer, ["value_of", "contains"])
        rng = random.Random(4)
        for chart in fresh:
            for _ in range(20):
                z = charts._sample_point(rng, chart.rank)
                chart.in_chart(z)
        assert not calls


class TestChartToTorus:
    def test_zero_maps_to_center(self, std_chart):
        t = std_chart.chart_to_torus((0j, 0j))
        assert abs(t[0] - 1) < 1e-12 and abs(t[1] - 1) < 1e-12

    def test_worked_value(self, std_chart):
        t = std_chart.chart_to_torus(z_by_member(std_chart, {"p": 1, ((1, 1),): 1}))
        assert abs(t[0] - 2) < 1e-12
        assert abs(t[1] - 1) < 1e-12

    def test_outside_domain(self, std_chart):
        with pytest.raises(OutsideDomain):
            std_chart.chart_to_torus(z_by_member(std_chart, {"p": -1}))


class TestTorusToChart:
    def test_worked_inverse(self, std_chart):
        z = std_chart.torus_to_chart((2, 1))
        expect = z_by_member(std_chart, {"p": 1, ((1, 1),): 1})
        assert max(abs(a - b) for a, b in zip(z, expect)) < 1e-12

    def test_roundtrip_random(self, two_lines, doubled_square):
        rng = random.Random(77)
        for arr, poset, building in (two_lines, doubled_square):
            chart = atlas(poset, building)[0]
            for _ in range(20):
                t = tuple(
                    cmath.exp(2j * cmath.pi * rng.random()) * (1 + rng.random())
                    for _ in range(arr.rank)
                )
                try:
                    z = chart.torus_to_chart(t)
                except OnDivisor:
                    continue
                if not chart.in_coordinate_domain(z):
                    continue
                back = chart.chart_to_torus(z)
                assert max(
                    abs(a - b) / (1 + abs(a)) for a, b in zip(t, back)
                ) < 1e-9

    def test_center_on_divisor(self, std_chart):
        with pytest.raises(OnDivisor):
            std_chart.torus_to_chart((1, 1))


class TestCharacterUnit:
    def test_worked_values(self, std_chart):
        f = std_chart.character_unit((1, -1), F(0))
        assert abs(f((0j, 0j)) - 2) < 1e-12
        z = z_by_member(std_chart, {((1, 1),): 2})
        assert abs(f(z)) < 1e-12

    def test_rational_form(self, std_chart):
        # against the closed form (2 + z_p - z_H)/(1 + z_p z_H)
        rng = random.Random(5)
        f = std_chart.character_unit((1, -1), F(0))
        h = next(i for i, m in enumerate(std_chart.members) if m.dim == 1)
        p = 1 - h
        for _ in range(50):
            z = [0j, 0j]
            z[h] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            z[p] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            want = (2 + z[p] - z[h]) / (1 + z[p] * z[h])
            assert abs(f(tuple(z)) - want) < 1e-9

    def test_basis_characters_unit_one(self, two_lines, doubled_square):
        rng = random.Random(6)
        for arr, poset, building in (two_lines, doubled_square):
            for chart in atlas(poset, building):
                for i in range(chart.rank):
                    f = chart.character_unit(
                        chart.basis[i], chart.constants[i]
                    )
                    z = tuple(
                        complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
                        for _ in range(chart.rank)
                    )
                    assert abs(f(z) - 1) < 1e-12

    def test_missing_center_rejected(self, std_chart):
        with pytest.raises(OutsideDomain):
            std_chart.character_unit((1, 1), F(1, 3))


class TestInChart:
    def test_origin(self, two_lines, doubled_square):
        for arr, poset, building in (two_lines, doubled_square):
            for chart in atlas(poset, building):
                assert chart.in_chart((0j,) * chart.rank)

    def test_unit_zero_excluded(self, std_chart):
        z = z_by_member(std_chart, {((1, 1),): 2})
        assert not std_chart.in_chart(z)

    def test_domain_violation(self, std_chart):
        assert not std_chart.in_chart(z_by_member(std_chart, {"p": -1}))


class TestInputLength:
    """A point or character of the wrong length is OutsideDomain, not an
    IndexError or an answer from its first entries."""

    @pytest.mark.parametrize("entries", [(1,), (1, 1, 1)])
    def test_every_entry_point(self, std_chart, entries):
        calls = [
            lambda: std_chart.character_unit(entries, 0),
            lambda: std_chart.constant_member(entries),
            lambda: std_chart.chart_to_torus(entries),
            lambda: std_chart.torus_to_chart(entries),
            lambda: std_chart.in_chart(entries),
            lambda: std_chart.in_coordinate_domain(entries),
            lambda: std_chart.member_character_values(entries),
            lambda: std_chart.coordinate_monomial(entries, 0),
            lambda: std_chart.character_value(entries, (1, 0)),
            lambda: std_chart.character_value((1, 1), entries),
        ]
        for call in calls:
            with pytest.raises(OutsideDomain, match="does not have length 2"):
                call()


class TestTransition:
    def test_shared_coordinate_ratio_one(self, two_lines):
        arr, poset, building = two_lines
        p1 = point_layer(arr, (0, 0))
        s = chart_with(poset, building, p1, ((1, 1),), [(1, 1), (1, 0)])
        q = chart_with(poset, building, p1, ((1, -1),), [(1, -1), (1, 0)])
        rng = random.Random(8)
        seen = 0
        while seen < 10:
            z = tuple(
                0.3 * cmath.exp(2j * cmath.pi * rng.random()) for _ in range(2)
            )
            if not s.in_chart(z):
                continue
            try:
                z_q, report = transition(s, q, z)
            except Exception:
                continue
            seen += 1
            for layer, clause, mag in report.entries:
                if layer.dim == 0:
                    assert clause == "shared-ratio"
                    assert abs(mag - 1) < 1e-9
                else:
                    assert clause == "invertible"
                    assert 1e-9 < mag < 1e9
            # roundtrip through the other chart
            back, _ = transition(q, s, z_q)
            assert max(abs(a - b) for a, b in zip(z, back)) < 1e-9
        assert seen == 10


class TestDivisorDim:
    def test_pair_empty(self, two_lines):
        _, poset, building = two_lines
        hs = [l for l in poset.layers if l.dim == 1]
        assert divisor_dim(poset, building, hs) is None

    def test_nested_pair_dim_zero(self, two_lines):
        arr, poset, building = two_lines
        p1 = point_layer(arr, (0, 0))
        h = next(l for l in poset.layers if l.lattice.basis == ((1, 1),))
        assert divisor_dim(poset, building, [p1, h]) == 0

    def test_single_dim(self, two_lines):
        _, poset, building = two_lines
        h = next(l for l in poset.layers if l.dim == 1)
        assert divisor_dim(poset, building, [h]) == 1

    def test_repeated_member_counted_once(self, two_lines):
        arr, poset, building = two_lines
        h = next(l for l in poset.layers if l.dim == 1)
        p1 = point_layer(arr, (0, 0))
        assert divisor_dim(poset, building, [h, h, h]) == 1
        assert divisor_dim(poset, building, [p1, h, p1]) == 0

    def test_foreign_rejected(self, doubled_square):
        _, poset, building = doubled_square
        outsider = next(l for l in poset.layers if l not in building)
        with pytest.raises(NotInBuildingSet):
            divisor_dim(poset, building, [outsider])


class TestCurveLifting:
    def test_worked_germ_two_jets(self, two_lines):
        arr, poset, building = two_lines
        p1 = point_layer(arr, (0, 0))
        germ = CurveGerm(p1, ((F(1), F(1)), (F(1), F(0))))
        chart, z_limit = chart_for_curve(poset, building, germ)
        h = next(m for m in chart.members if m.dim == 1)
        assert h.lattice.basis == ((1, -1),)
        assert max(abs(z) for z in z_limit) < 1e-12

    def test_worked_germ_one_jet(self, two_lines):
        arr, poset, building = two_lines
        p1 = point_layer(arr, (0, 0))
        germ = CurveGerm(p1, ((F(1), F(0)),))
        chart, z_limit = chart_for_curve(poset, building, germ)
        limits = dict(zip(chart.members, z_limit))
        h = next(m for m in chart.members if m.dim == 1)
        assert h.lattice.basis == ((1, 1),)
        assert abs(limits[p1]) < 1e-12
        assert abs(limits[h] - 1) < 1e-12
        # the skew character has unit value 1 at the limit
        f = chart.character_unit((1, -1), F(0))
        assert abs(f(z_limit) - 1) < 1e-9

    def test_generic_jet(self, doubled_square):
        arr, poset, building = doubled_square
        p1 = point_layer(arr, (0, 0))
        germ = CurveGerm(p1, ((F(1), F(2)),))
        chart, z_limit = chart_for_curve(poset, building, germ)
        assert chart.in_chart(z_limit)
        assert all(abs(z) < 1e12 for z in z_limit)

    def test_degenerate_germ_rejected(self, two_lines):
        arr, poset, building = two_lines
        p1 = point_layer(arr, (0, 0))
        with pytest.raises(InvalidGerm):
            chart_for_curve(poset, building, CurveGerm(p1, ((F(1), F(1)),)))

    def test_point_without_support(self, two_lines):
        """A germ based at a layer equal to the point but built without its
        support gets the point's chart."""
        arr, poset, building = two_lines
        p1 = point_layer(arr, (0, 0))
        jets = ((F(1), F(1)), (F(1), F(0)))
        chart, z_limit = chart_for_curve(poset, building, CurveGerm(p1, jets))
        bare = Layer(p1.lattice, p1.values)
        again, z_again = chart_for_curve(poset, building, CurveGerm(bare, jets))
        assert (again.members, again.basis, z_again) == (chart.members, chart.basis, z_limit)
        assert again.center.support == p1.support

    def test_point_on_no_hypersurface(self, two_lines):
        arr, poset, building = two_lines
        q = point_layer(arr, (F(1, 3), F(1, 5)))
        with pytest.raises(InvalidGerm, match="does not complete"):
            chart_for_curve(poset, building, CurveGerm(q, ((F(1), F(0)),)))

    @pytest.mark.parametrize("jets", [((F(1),),), ((F(1), F(1)), (F(1), F(0), F(2)))])
    def test_jet_length_must_be_rank(self, two_lines, jets):
        arr, _, _ = two_lines
        with pytest.raises(InvalidGerm):
            CurveGerm(point_layer(arr, (0, 0)), jets)

    def test_random_germs_land_in_chart(self, two_lines, doubled_square):
        rng = random.Random(31)
        for arr, poset, building in (two_lines, doubled_square):
            done = 0
            while done < 10:
                p = rng.choice(build_poset(arr).points)
                jets = tuple(
                    tuple(F(rng.randint(-2, 2)) for _ in range(arr.rank))
                    for _ in range(rng.randint(1, 2))
                )
                try:
                    chart, z_limit = chart_for_curve(
                        poset, building, CurveGerm(p, jets)
                    )
                except InvalidGerm:
                    continue
                assert chart.in_chart(z_limit)
                done += 1


def outcome(f, *args):
    """`f(*args)` with each float written by `float.hex`, or the type of
    the error it raises."""
    try:
        out = f(*args)
    except Exception as exc:
        return type(exc)
    if isinstance(out, bool):
        return out
    return [(x.real.hex(), x.imag.hex()) for x in (out if isinstance(out, tuple) else (out,))]


class TestOneEvaluator:
    """The column evaluator at single points and in `cover_sweep`, against
    the per-point scalar path it replaced."""

    @pytest.fixture(scope="class")
    def cover_cases(self, bench_atlases, a4_atlas):
        """(charts, samples) of every bench and example atlas and A4, of
        their charts of one center and of every other chart, each also
        with chart tolerance 0.2, which leaves points uncovered; then 0 and
        1 samples and no chart."""
        atlases = [fam_atlas for _, (_, fam_atlas) in sorted(bench_atlases.items())]
        for arr, _ in (bench_atlases[name] for name in ("B3", "G2_tors", "two_lines")):
            poset = build_poset(arr)
            atlases.append(atlas(poset, irreducible_layers(poset), tolerance=0.2))
        cases = []
        for full in atlases + [a4_atlas]:
            one_center = [c for c in full if c.center == full[0].center]
            cases += [(full, 100), (one_center, 100), (full[::2], 100)]
        return cases + [(atlases[0], 0), (atlases[0], 1), ([], 100)]

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("tolerance", [1e-6, 0.05])
    def test_cover_sweep(self, cover_cases, seed, tolerance):
        """The count and the random state left agree with the per-point
        oracle; tolerance 0.05 resamples some points near a hypersurface."""
        below = 0
        for chart_list, samples in cover_cases:
            rng, ref = random.Random(f"cover:{seed}"), random.Random(f"cover:{seed}")
            got = cover_sweep(chart_list, rng, samples, tolerance)
            assert got == oracle_cover_sweep(chart_list, ref, samples, tolerance)
            assert rng.getstate() == ref.getstate()
            below += got < samples
        assert below >= 9

    def test_single_points(self, bench_atlases):
        """`in_chart`, `chart_to_torus`, `torus_to_chart` and the unit
        functions at one point have the oracle's bits, or raise its error,
        at sampled, near-divisor, on-divisor and out-of-domain points."""
        rng = random.Random(28)
        seen = Counter()
        for _, (_, fam_atlas) in sorted(bench_atlases.items()):
            for chart in fam_atlas:
                rank = chart.rank
                points = [(0j,) * rank, tuple(-r for r in chart._roots)]
                points += [charts._sample_point(rng, rank) for _ in range(3)]
                points += [tuple(near_divisor(rng) for _ in range(rank)) for _ in range(2)]
                points += [tuple(x * (rng.random() < 0.5) for x in charts._sample_point(rng, rank))]
                tori = [tuple(cmath.exp(2j * cmath.pi * rng.random()) for _ in range(rank))]
                for z in points:
                    inside = chart.in_chart(z)
                    assert inside == oracle_in_chart(chart, z)
                    t = outcome(chart.chart_to_torus, z)
                    assert t == outcome(oracle_chart_to_torus, chart, z)
                    if not isinstance(t, type):
                        tori.append(chart.chart_to_torus(z))
                    for f, _, _ in chart._support_units():
                        assert outcome(f, z) == outcome(oracle_unit_at, f, z)
                    seen[inside, t if isinstance(t, type) else "torus"] += 1
                for t in tori:
                    z = outcome(chart.torus_to_chart, t)
                    assert z == outcome(oracle_point_to_chart, chart, t)
                    seen[z if isinstance(z, type) else "chart"] += 1
        assert seen[True, "torus"] and seen[False, OutsideDomain]
        assert seen["chart"] and seen[OnDivisor]


class TestOverlapPin:
    def test_reports_bit_identical(self, bench_atlases):
        """The `overlap_sweep` reports between consecutive charts with one
        center, on every bench family and example, to the last bit; recorded
        while `transition` still tried `torus_to_chart` first."""
        digest, reports = hashlib.sha256(), 0
        for name, (_, fam_atlas) in sorted(bench_atlases.items()):
            rng = random.Random(f"overlap:{name}")
            for source, target in zip(fam_atlas, fam_atlas[1:]):
                if source.center != target.center:
                    continue
                for entries in overlap_sweep(source, target, rng, 3, 100):
                    reports += 1
                    keyed = [(c.key(), clause, mag) for c, clause, mag in entries]
                    digest.update(repr(keyed).encode())
        assert (reports, digest.hexdigest()) == (981, OVERLAP_PIN)

    def test_transition_off_the_divisor(self, bench_atlases):
        """Where no successor vanishes, `transition` gives exactly
        `torus_to_chart` of the torus point."""
        rng = random.Random(12)
        checked = 0
        for _, fam_atlas in bench_atlases.values():
            for source, target in zip(fam_atlas, fam_atlas[1:]):
                if source.center != target.center:
                    continue
                z = charts._sample_point(rng, source.rank)
                if not source.in_chart(z):
                    continue
                try:
                    want = target.torus_to_chart(source.chart_to_torus(z))
                    got, _ = transition(source, target, z)
                except (OnDivisor, NotInOverlap):
                    continue
                assert got == want
                checked += 1
        assert checked > 50


class TestSweepPin:
    def test_sweeps_bit_identical(self, family_atlases):
        """Every float the sweeps return is unchanged to the last bit; a
        chart whose unit functions cannot be expanded counts only as an
        error, whatever its type."""
        digest = hashlib.sha256()
        for fam, fam_atlas in family_atlases.items():
            rng = random.Random(f"atlas:1:{fam}")
            for chart in fam_atlas:
                for sweep in (residual_sweep, roundtrip_sweep):
                    try:
                        out = repr(sweep(chart, rng, 100))
                    except ToricError:
                        out = "error"
                    digest.update(f"{out}\n".encode())
        assert digest.hexdigest() == SWEEP_PIN


SWEEPS = [(residual_sweep, oracle_residual_sweep), (roundtrip_sweep, oracle_roundtrip_sweep)]


def assert_sweeps_match(fam_atlas, stream, samples):
    """Both sweeps of every chart, on one shared random stream, return the
    oracle's floats to the last bit and draw the same numbers."""
    rng, ref = random.Random(stream), random.Random(stream)
    for chart in fam_atlas:
        for sweep, oracle in SWEEPS:
            assert repr(sweep(chart, rng, samples)) == repr(oracle(chart, ref, samples))
    assert rng.getstate() == ref.getstate()


class TestSweepOracle:
    """The sweeps over flat chart data against the per-sample path they
    replaced: dense rows and one call per sample, unit and term."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("samples", [1, 7, 100])
    def test_bench_and_example_charts(self, bench_atlases, seed, samples):
        for name, (_, fam_atlas) in bench_atlases.items():
            assert_sweeps_match(fam_atlas, f"{seed}:{name}", samples)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_a4(self, a4_atlas, seed):
        for samples in (1, 7, 100):
            assert_sweeps_match(a4_atlas, f"{seed}:A4", samples)

    @pytest.mark.parametrize("tolerance, skip", [(0.2, "divisor"), (0.9, "domain")])
    def test_skipped_samples(self, family_atlases, tolerance, skip):
        """A large tolerance puts some samples outside the coordinate domain
        (0.9) or some roundtrip points on a divisor (0.2); both skips match."""
        fam_atlas = [
            build_chart(c.poset, c.nested_set, tolerance=tolerance)
            for c in family_atlases["B3"][:10]
        ]
        kept, on_divisor = 0, 0
        for chart in fam_atlas:
            points = list(oracle_domain_samples(chart, random.Random(1), 100))
            kept += len(points)
            on_divisor += sum(oracle_torus_to_chart(chart, t) is None for *_, t in points)
        # some samples skipped, not all of those that reach the check
        skipped, reached = {"domain": (1000 - kept, 1000), "divisor": (on_divisor, kept)}[skip]
        assert 0 < skipped < reached
        for samples in (1, 7, 100):
            assert_sweeps_match(fam_atlas, f"skip:{tolerance}", samples)

    @pytest.mark.parametrize("samples", [0, -3])
    def test_no_samples(self, bench_atlases, samples):
        """Without samples each sweep returns 0.0 and draws nothing."""
        for name, (_, fam_atlas) in bench_atlases.items():
            rng = random.Random(name)
            state = rng.getstate()
            for chart in fam_atlas:
                for sweep, oracle in SWEEPS:
                    assert sweep(chart, rng, samples) == 0.0
                    assert oracle(chart, rng, samples) == 0.0
            assert rng.getstate() == state

    @pytest.mark.parametrize("tolerance", [0.2, 0.9])
    def test_checked_counts(self, family_atlases, tolerance):
        """The residual sweep checks the samples in the domain, and the
        roundtrip sweep those of them off every successor's divisor."""
        for c in family_atlases["B3"][:10]:
            chart = build_chart(c.poset, c.nested_set, tolerance=tolerance)
            points = list(oracle_domain_samples(chart, random.Random(1), 100))
            off = sum(oracle_torus_to_chart(chart, t) is not None for *_, t in points)
            assert charts._residual(chart, random.Random(1), 100)[1] == len(points)
            assert charts._roundtrip(chart, random.Random(1), 100)[1] == off

    def test_no_sample_in_domain(self, family_atlases, monkeypatch):
        """A tolerance above every |member character value| puts each
        sample outside the domain: the sweeps return 0.0 without
        expanding a unit function, having drawn what the oracle draws."""
        fam_atlas = [
            build_chart(c.poset, c.nested_set, tolerance=10.0)
            for c in family_atlases["B3"][:10]
        ]
        for chart in fam_atlas:
            assert list(oracle_domain_samples(chart, random.Random(1), 100)) == []
        calls = Counter()
        unit = Chart.character_unit

        def counted(*args):
            calls["character_unit"] += 1
            return unit(*args)

        monkeypatch.setattr(Chart, "character_unit", counted)
        for samples in (1, 7, 100):
            rng, ref = random.Random(samples), random.Random(samples)
            for chart in fam_atlas:
                for sweep, oracle in SWEEPS:
                    assert sweep(chart, rng, samples) == oracle(chart, ref, samples) == 0.0
            assert rng.getstate() == ref.getstate()
        assert calls["character_unit"] == 0


class TestSampleDraw:
    @pytest.mark.parametrize("rank", range(1, 7))
    @pytest.mark.parametrize("samples", [1, 7, 100])
    def test_columns_are_successive_points(self, rank, samples):
        """The batched draw gives, column by column, the points that
        successive `_sample_point` calls give, and those of the oracle's
        one-coordinate-at-a-time draw, leaving the same RNG state."""
        seed = f"draw:{rank}:{samples}"
        rng = random.Random(seed)
        points = list(zip(*charts._sample_columns(rng, rank, samples)))
        one, ref = random.Random(seed), random.Random(seed)
        assert points == [charts._sample_point(one, rank) for _ in range(samples)]
        assert points == [oracle_sample_point(ref, rank) for _ in range(samples)]
        assert rng.getstate() == one.getstate() == ref.getstate()


class TestSweepScale:
    """A warm chart's sweep does no exact arithmetic per sample."""

    @pytest.mark.parametrize("samples", [50, 400])
    def test_second_residual_sweep(self, family_atlases, monkeypatch, samples):
        # the first C3 chart whose unit functions expand, after its warm-up
        for chart in family_atlases["C3"]:
            try:
                assert residual_sweep(chart, random.Random(0), 100) <= 1e-9
                break
            except ToricError:
                continue
        else:
            pytest.fail("no C3 chart expands its unit functions")
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(charts, "unit_root", counted("unit_root", charts.unit_root))
        monkeypatch.setattr(
            Chart, "character_unit", counted("character_unit", Chart.character_unit)
        )
        assert residual_sweep(chart, random.Random(1), samples) <= 1e-9
        assert calls["unit_root"] == 0
        assert calls["character_unit"] <= len(chart.point_support())


def support_characters(chart):
    chars = chart.poset.arrangement.characters
    return [chars[i] for i in chart.point_support()]


def near_divisor(rng) -> complex:
    """A chart coordinate of modulus in [0.01, 0.1), log-uniformly."""
    return cmath.rect(10 ** rng.uniform(-2, -1), 2 * cmath.pi * rng.random())


def germ_point(germ, s):
    """The torus point exp(2 pi i (phi_p + sum_j s^j v_j)) of the germ."""
    log = list(germ.point.coordinates)
    for j, v in enumerate(germ.jets, start=1):
        log = [x + s**j * y for x, y in zip(log, v)]
    return tuple(cmath.exp(2j * cmath.pi * x) for x in log)


class TestEveryChartExpands:
    """Every character through a chart's center is a unit times the
    coordinate monomial of its base member."""

    def test_bench_and_example_charts(self, bench_atlases):
        """With one RNG per chart, the charts the original expansion could
        expand get unit functions with the same terms, and so sweep to the
        same bits; every other chart expands too."""
        old_ok = 0
        for name, (arr, fam_atlas) in bench_atlases.items():
            for k, chart in enumerate(fam_atlas):
                seed = f"{name}:{k}"
                assert residual_sweep(chart, random.Random(seed)) <= 1e-9
                ref = build_chart(chart.poset, chart.nested_set)
                old = [
                    oracle_expand(ref, ch.vector, ch.value)
                    for ch in support_characters(ref)
                ]
                if None in old:
                    continue
                old_ok += 1
                for f in old:
                    ref._functions[f.vector, f.value.numerator, f.value.denominator] = f
                    assert chart.character_unit(f.vector, f.value).terms == f.terms
                assert repr(residual_sweep(ref, random.Random(seed))) == repr(
                    residual_sweep(chart, random.Random(seed))
                )
        assert old_ok == 359

    def test_a4(self):
        arr = root_system("A", 4)
        poset = build_poset(arr)
        fam_atlas = atlas(poset, irreducible_layers(poset))
        assert len(fam_atlas) == 105
        for k, chart in enumerate(fam_atlas):
            assert residual_sweep(chart, random.Random(k), 20) <= 1e-9

    def test_integer_angles(self, bench_atlases, root_atlases):
        """The expansion in integers gives the base, terms and `_flat` bits
        of the `Fraction` peel, and of the original expansion where it
        expands, on the bench and example files, A4, B4 and C4."""
        atlases = [fam_atlas for _, fam_atlas in bench_atlases.values()]
        atlases += [root_atlases[name] for name in ("A4", "B4", "C4")]
        assert sum(map(len, atlases)) == 407 + 105 + 672 + 1008
        assert sum(map(assert_expansions_match, atlases)) == 25_950

    def test_zero_character_has_no_unit(self, std_chart):
        with pytest.raises(charts.NotExpandable):
            std_chart.character_unit((0, 0), F(0))

    def test_near_divisor(self, bench_atlases):
        """The expansion holds at points with every |z_i| < 0.1, which the
        sweeps never sample, and its value at the origin is the base term."""
        rng = random.Random(10)
        for arr, fam_atlas in bench_atlases.values():
            for chart in fam_atlas:
                origin = (0j,) * chart.rank
                at_origin = chart.member_character_values(origin)
                for f, _, _ in chart._support_units():
                    assert f.terms[0].member == f.base_member
                    base_term = oracle_unit_terms(chart, f)[:1]
                    assert f(origin) == oracle_unit_value(base_term, origin, at_origin)
                    assert abs(f(origin)) > 1e-3
                for _ in range(20):
                    z = tuple(near_divisor(rng) for _ in range(chart.rank))
                    t = chart.chart_to_torus(z)
                    for f, _, root in chart._support_units():
                        mono = chart.coordinate_monomial(z, f.base_member)
                        lhs = f(z) * mono
                        rhs = chart.character_value(t, f.vector) - root
                        assert abs(lhs - rhs) <= 1e-9 * (1 + abs(rhs + root))
                        assert abs(lhs - rhs) <= 1e-6 * abs(rhs)


def flat_bits(flat):
    """`ChartFunction._flat` with each float written by `float.hex`."""

    def bits(z):
        return z.real.hex(), z.imag.hex()

    return [
        (bits(scale), monomial, [(i, bits(r)) for i, r in roots], extra)
        for scale, monomial, roots, extra in flat
    ]


def assert_expansions_match(fam_atlas) -> int:
    """Each support character's unit function has the base, terms and
    `_flat` bits of `oracle_peel_expand`, and those of `oracle_expand`
    where that expands; returns how many functions were compared."""
    compared = 0
    for chart in fam_atlas:
        for f, _, _ in chart._support_units():
            want = (f.base_member, f.terms, flat_bits(f._flat))
            peel = oracle_peel_expand(chart, f.vector, f.value)
            assert want == (peel.base_member, peel.terms, flat_bits(peel._flat))
            old = oracle_expand(chart, f.vector, f.value)
            if old is not None:
                assert want == (old.base_member, old.terms, flat_bits(old._flat))
            compared += 1
    return compared


class TestIntegerExpansion:
    """The unit functions, expanded in integers, against the `Fraction`
    expansions they replaced."""

    def test_random_arrangements(self):
        """`test_integer_angles` on 100 seeded random arrangements."""
        compared = 0
        for seed in range(100):
            poset = build_poset(random_arrangement(random.Random(f"units:{seed}")))
            compared += assert_expansions_match(atlas(poset, irreducible_layers(poset)))
        assert compared == 10_871

    def test_peel_steps_per_mask(self, monkeypatch):
        """A chart computes at most one peel sequence per coefficient
        support mask of its characters, and the charts with the same
        containments among their members share them."""
        arr, _ = parse_file(str(FAMILIES / "B3.arr"))
        poset = build_poset(arr)
        fresh = atlas(poset, irreducible_layers(poset))
        computed = Counter()
        peel_steps = Chart._peel_steps

        def counted(chart, *args):
            computed[chart] += 1
            return peel_steps(chart, *args)

        monkeypatch.setattr(Chart, "_peel_steps", counted)
        shapes, units = {}, 0
        for chart in fresh:
            masks = {
                charts._support_mask(chart._coefficients(f.vector))
                for f, _, _ in chart._support_units()
            }
            assert computed[chart] <= len(masks)
            shapes.setdefault(chart._above, set()).update(masks)
            units += len(chart.point_support())
        assert sum(computed.values()) == sum(map(len, shapes.values())) < units

    def test_no_fraction_until_terms_are_read(self, monkeypatch):
        """Expanding a fresh chart's unit functions makes no `Fraction` and
        no `BetaTerm`; reading `terms` makes the `BetaTerm`s."""
        made = Counter()
        new, beta_term = Fraction.__new__, charts.BetaTerm

        def counting_new(cls, *args, **kwargs):
            made["Fraction"] += 1
            return new(cls, *args, **kwargs)

        def counting_term(*args):
            made["BetaTerm"] += 1
            return beta_term(*args)

        for name in ("A3_tors", "G2_tors"):
            arr, _ = parse_file(str(FAMILIES / f"{name}.arr"))
            poset = build_poset(arr)
            fresh = atlas(poset, irreducible_layers(poset))
            monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
            monkeypatch.setattr(charts, "BetaTerm", counting_term)
            units = [f for chart in fresh for f, _, _ in chart._support_units()]
            assert not made
            terms = [f.terms for f in units]
            assert made["BetaTerm"] == sum(map(len, terms)) > len(units)
            monkeypatch.undo()
            made.clear()

    def test_one_point_path(self, family_atlases):
        """A unit function at one point has the bits of the per-term oracle."""
        rng = random.Random(11)
        for chart in family_atlases["B3"]:
            for _ in range(5):
                z = charts._sample_point(rng, chart.rank)
                values = oracle_member_values(chart, z)
                for f, _, _ in chart._support_units():
                    want = oracle_unit_value(oracle_unit_terms(chart, f), z, values)
                    got = f(z)
                    assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


def a3_former_crash_germs():
    """The A3 curve germs of the bench query pool that crashed in the
    expansion when the pool was pinned."""
    expected = json.loads((FAMILIES.parent / "expected.json").read_text())
    return [g for g in expected["curve_pool"]["A3"] if "crash" in g["expect"]]


class TestFormerCrashGerms:
    def test_limits(self):
        germs = a3_former_crash_germs()
        assert len(germs) == 22
        arr, _ = parse_file(str(FAMILIES / "A3.arr"))
        poset = build_poset(arr)
        building = irreducible_layers(poset)
        for g in germs:
            p = poset.layers[int(g["point"][1:])]
            jets = [v.split(",") for v in g["jets"].split(";")]
            germ = CurveGerm(p, tuple(tuple(F(x) for x in v) for v in jets))
            chart, z_limit = chart_for_curve(poset, building, germ)
            # the germ's torus point converges to the limit at rate O(s)
            errors = []
            for s in (1e-3, 1e-4):
                z = chart.torus_to_chart(germ_point(germ, s))
                errors.append(max(abs(a - b) for a, b in zip(z, z_limit)))
            assert errors[0] < 1e-1
            assert errors[1] <= errors[0] / 5

    def test_cli_exit_zero(self, capsys):
        for g in a3_former_crash_germs():
            path = str(FAMILIES / "A3.arr")
            assert main(["curve", path, "--point", g["point"], f"--jets={g['jets']}"]) == 0
            assert "limit chart" in capsys.readouterr().out
