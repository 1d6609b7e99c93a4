import cmath
import hashlib
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
    NotAdapted,
    NotInBuildingSet,
    NotNested,
    OnDivisor,
    OutsideDomain,
    ToricError,
    adapted_basis_rows,
    atlas,
    build_chart,
    build_poset,
    chart_for_curve,
    divisor_dim,
    enumerate_maximal,
    irreducible_layers,
    point_layer,
    residual_sweep,
    roundtrip_sweep,
    transition,
)
from toricwonder import charts
from toricwonder.charts import maximal_constant_member
from toricwonder.cli import main, parse_file
from toricwonder.lattices import (
    Sublattice,
    hermite_basis,
    invert_unimodular,
    lattice_index,
)
from oracles import ARR_FILES, oracle_expand, random_arrangement, root_system
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
                    want = outcome(maximal_constant_member, chart.members, phi, v)
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

    def test_second_in_chart(self, doubled_square, monkeypatch):
        arr, poset, building = doubled_square
        fresh = atlas(poset, building)
        for chart in fresh:
            assert chart.in_chart((0j,) * chart.rank)
        calls = count_calls(monkeypatch, Layer, ["value_of", "contains"])
        rng = random.Random(4)
        for chart in fresh:
            for _ in range(20):
                z = tuple(charts._sample_coordinate(rng) for _ in range(chart.rank))
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
                    ref._functions[(f.vector, f.value)] = f
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
                    assert f(origin) == f.terms[0].eval(at_origin)
                    assert abs(f(origin)) > 1e-3
                for _ in range(20):
                    z = tuple(near_divisor(rng) for _ in range(chart.rank))
                    values = chart.member_character_values(z)
                    t = chart._to_torus(values)
                    for f, vector, root in chart._support_units():
                        mono = chart.coordinate_monomial(z, f.base_member)
                        lhs = f._at(z, values) * mono
                        rhs = chart.character_value(t, vector) - root
                        assert abs(lhs - rhs) <= 1e-9 * (1 + abs(rhs + root))
                        assert abs(lhs - rhs) <= 1e-6 * abs(rhs)


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
