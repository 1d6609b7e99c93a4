import contextlib
import functools
import itertools
import operator
import random
import signal
from fractions import Fraction

import pytest

from toricwonder import (
    Flag,
    IsMinimal,
    Layer,
    NestedSet,
    NotAPoint,
    NotContained,
    NotInBuildingSet,
    NotNested,
    BuildingSet,
    build_poset,
    center,
    core,
    custom_building_set,
    divisor_dim,
    enumerate_all_maximal,
    enumerate_maximal,
    factors,
    irreducible_layers,
    is_nested,
    point_layer,
    successor,
)
from toricwonder import arrangement, lattices, nested
from toricwonder.arrangement import top_member
from toricwonder.nested import _all_nested, _nested_sets
from oracles import (
    ARR_FILES,
    ORACLE_CASES,
    RANK_FOUR_CASES,
    case_arrangement,
    oracle_all_nested,
    oracle_center,
    oracle_connected_maximal,
    oracle_enumerate_maximal,
    oracle_is_nested,
    oracle_maximal_nested,
    oracle_nested_family,
    random_arrangement,
    root_system,
)

F = Fraction

FILE_CASES = [pytest.param(p, id=p.stem) for p in ARR_FILES]


def hypersurface(poset, basis_row, value=F(0)):
    return next(
        l
        for l in poset.layers
        if l.lattice.basis == (basis_row,) and l.values == (value,)
    )


class TestIsNested:
    def test_two_hypersurfaces_not_nested(self, two_lines):
        _, poset, building = two_lines
        hs = [l for l in poset.layers if l.dim == 1]
        ok, witness = is_nested(hs, building, poset)
        assert not ok and witness is None

    def test_chain_nested(self, two_lines):
        arr, poset, building = two_lines
        p1 = point_layer(arr, (0, 0))
        h = hypersurface(poset, (1, 1))
        ok, witness = is_nested([p1, h], building, poset)
        assert ok
        assert witness.chain == (p1, h)

    def test_singleton(self, two_lines):
        _, poset, building = two_lines
        for m in building.members:
            ok, _ = is_nested([m], building, poset)
            assert ok

    def test_foreign_member_rejected(self, doubled_square):
        _, poset, building = doubled_square
        outsider = next(l for l in poset.layers if l not in building)
        with pytest.raises(NotInBuildingSet):
            is_nested([outsider], building, poset)

    def test_oracle_bundled_examples(self, two_lines, doubled_square):
        for _, poset, building in (two_lines, doubled_square):
            fam = oracle_nested_family(poset, building)
            for size in range(1, 5):
                for combo in itertools.combinations(building.members, size):
                    ok, _ = is_nested(combo, building, poset)
                    assert ok == (frozenset(combo) in fam), combo


class TestCenter:
    def test_chain_min(self, two_lines):
        arr, poset, building = two_lines
        p1 = point_layer(arr, (0, 0))
        h = hypersurface(poset, (1, 1))
        assert center([p1, h], building, poset) == p1

    def test_transverse_pair(self, doubled_square):
        arr, poset, building = doubled_square
        h1 = hypersurface(poset, (1, 0), F(0))
        h2 = hypersurface(poset, (0, 1), F(1, 2))
        assert center([h1, h2], building, poset) == point_layer(arr, (0, F(1, 2)))

    def test_singleton(self, two_lines):
        _, poset, building = two_lines
        for m in building.members:
            assert center([m], building, poset) == m

    def test_not_nested(self, two_lines):
        _, poset, building = two_lines
        hs = [l for l in poset.layers if l.dim == 1]
        with pytest.raises(NotNested):
            center(hs, building, poset)

    def test_disconnected(self, two_lines):
        # without the points as members the two lines are nested at each
        # point, but they meet in two points
        _, poset, _ = two_lines
        hs = [l for l in poset.layers if l.dim == 1]
        with pytest.raises(NotNested, match="not connected"):
            center(hs, BuildingSet(tuple(hs), "custom"), poset)


class TestFlag:
    def test_not_increasing(self, two_lines):
        arr, poset, _ = two_lines
        p1 = point_layer(arr, (0, 0))
        h = hypersurface(poset, (1, 1))
        assert Flag((p1, h)).chain == (p1, h)
        for chain in ((h, p1), (p1, p1)):
            with pytest.raises(NotNested):
                Flag(chain)


class TestEnumerateMaximal:
    def test_two_lines_origin(self, two_lines):
        arr, poset, building = two_lines
        p1 = point_layer(arr, (0, 0))
        sets = enumerate_maximal(poset, p1, building)
        assert len(sets) == 2
        for s in sets:
            assert len(s.members) == 2
            assert p1 in s.members
            assert s.center == p1

    def test_doubled_square_p3_single(self, doubled_square):
        arr, poset, building = doubled_square
        p3 = point_layer(arr, (0, F(1, 2)))
        sets = enumerate_maximal(poset, p3, building)
        assert len(sets) == 1
        assert all(m.dim == 1 for m in sets[0].members)

    def test_doubled_square_p1_four(self, doubled_square):
        arr, poset, building = doubled_square
        p1 = point_layer(arr, (0, 0))
        sets = enumerate_maximal(poset, p1, building)
        assert len(sets) == 4
        for s in sets:
            assert p1 in s.members
            assert sum(m.dim == 1 for m in s.members) == 1

    def test_disconnected_skipped(self, two_lines):
        # nested at the origin, but the two lines also meet at (1/2, 1/2)
        arr, poset, _ = two_lines
        lines = tuple(l for l in poset.layers if l.dim == 1)
        building = BuildingSet(lines, "custom")
        p1 = point_layer(arr, (0, 0))
        assert is_nested(lines, building, poset)[0]
        assert enumerate_maximal(poset, p1, building) == []

    def test_requires_point(self, two_lines):
        _, poset, building = two_lines
        h = next(l for l in poset.layers if l.dim == 1)
        with pytest.raises(NotAPoint):
            enumerate_maximal(poset, h, building)

    def test_counts_all(self, two_lines, doubled_square):
        _, poset32, b32 = two_lines
        assert len(enumerate_all_maximal(poset32, b32)) == 4
        _, poset23, b23 = doubled_square
        assert len(enumerate_all_maximal(poset23, b23)) == 10


class TestCoreSuccessor:
    def test_core(self, two_lines):
        arr, poset, building = two_lines
        p1 = point_layer(arr, (0, 0))
        h_ts = hypersurface(poset, (1, 1))
        h_inv = hypersurface(poset, (1, -1))
        s = enumerate_maximal(poset, p1, building)
        chart_set = next(x for x in s if h_ts in x.members)
        assert core(chart_set, h_inv) == p1
        assert core(chart_set, h_ts) == h_ts
        assert core(chart_set, p1) == p1
        with pytest.raises(NotContained):
            core(chart_set, point_layer(arr, (F(1, 2), F(1, 2))))

    def test_top_member_needs_chain(self, two_lines):
        arr, poset, _ = two_lines
        p1 = point_layer(arr, (0, 0))
        h_ts = hypersurface(poset, (1, 1))
        h_inv = hypersurface(poset, (1, -1))
        assert top_member([p1, h_ts]) == h_ts
        with pytest.raises(NotNested):
            top_member([p1, h_ts, h_inv])

    def test_successor_chain(self, two_lines):
        arr, poset, building = two_lines
        p1 = point_layer(arr, (0, 0))
        h_ts = hypersurface(poset, (1, 1))
        s = enumerate_maximal(poset, p1, building)
        chart_set = next(x for x in s if h_ts in x.members)
        assert successor(chart_set, h_ts) == p1
        with pytest.raises(IsMinimal):
            successor(chart_set, p1)

    def test_three_chain(self, chain3):
        arr, poset, building = chain3
        p = point_layer(arr, (0, 0, 0))
        middle = next(
            m for m in building.members if m.dim == 1 and m.contains(p)
        )
        h_ts = hypersurface(poset, (1, 1, 0))
        sets = enumerate_maximal(poset, p, building)
        s = next(
            x for x in sets if middle in x.members and h_ts in x.members
        )
        assert successor(s, h_ts) == middle
        with pytest.raises(IsMinimal):
            successor(s, middle)


class TestOracleRandom:
    def test_random_arrangements(self):
        rng = random.Random(2024)
        for _ in range(8):
            arr = random_arrangement(rng)
            poset = build_poset(arr)
            building = irreducible_layers(poset)
            fam = oracle_nested_family(poset, building)
            members = building.members
            for size in range(1, min(4, len(members)) + 1):
                for combo in itertools.combinations(members, size):
                    ok, witness = is_nested(combo, building, poset)
                    assert ok == (frozenset(combo) in fam)
                    if ok:
                        assert witness is not None


def _shape(sets):
    """Members, center, witness flag and order, with supports."""
    return [
        (
            tuple(m.key() for m in s.members),
            s.center.key(),
            tuple(l.key() for l in s.witness.chain),
        )
        for s in sets
    ]


def _keys(family):
    return [tuple(m.key() for m in combo) for combo in family]


class TestNestedOracle:
    """The backtracking search against the subset scans it replaced."""

    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_matches_subset_scans(self, case):
        poset = build_poset(case_arrangement(case))
        building = irreducible_layers(poset)
        for p in poset.points:
            expected = oracle_maximal_nested(poset, p, building)
            assert _shape(enumerate_maximal(poset, p, building)) == _shape(expected)
            through = building.members_through(p)
            assert through == [m for m in building.members if m.contains(p)]
            if len(through) <= 6:
                found = _all_nested(poset, building, through)
                assert _keys(found) == _keys(oracle_all_nested(poset, building, through))
        if len(building.members) <= 11:
            found = _all_nested(poset, building, building.members)
            expected = oracle_all_nested(poset, building, building.members)
            assert _keys(found) == _keys(expected)
            if len(poset.layers) <= 14:
                fam = oracle_nested_family(poset, building)
                assert {frozenset(combo) for combo in found} == fam

    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_is_nested_matches(self, case):
        poset = build_poset(case_arrangement(case))
        building = irreducible_layers(poset)
        members = building.members
        rng = random.Random(len(members))
        for _ in range(60):
            combo = rng.sample(members, rng.randint(1, min(4, len(members))))
            ok, witness = is_nested(combo, building, poset)
            expected, expected_witness = oracle_is_nested(combo, building, poset)
            assert ok == expected
            if ok:
                assert [l.key() for l in witness.chain] == [
                    l.key() for l in expected_witness.chain
                ]

    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_mask_containment(self, case):
        # through a common point, a contains b iff supp a is inside supp b
        poset = build_poset(case_arrangement(case))
        for p in poset.points:
            through = [l for l in poset.layers if l.contains(p)]
            for a in through:
                for b in through:
                    assert a.contains(b) == (not a.mask & ~b.mask)


class TestIntersectionPath:
    """Centers and witness flags read from the poset's flat table against
    the components of each intersection, which they replaced."""

    @pytest.mark.parametrize("case", ORACLE_CASES + RANK_FOUR_CASES)
    def test_enumeration_matches(self, case):
        poset = build_poset(case_arrangement(case))
        building = irreducible_layers(poset)
        for p in poset.points:
            expected = oracle_enumerate_maximal(poset, p, building)
            found = enumerate_maximal(poset, p, building)
            assert _shape(found) == _shape(expected)
            # the union of a nested family's supports is a flat at p, which
            # the center check and the witness read from the flat table
            table, local = poset.flats_at(p), building._at(poset, p)
            for chosen in _nested_sets(local, list(local.members)):
                assert functools.reduce(operator.or_, chosen, 0) in table
            for ns in found:
                union = functools.reduce(operator.or_, (m.mask for m in ns.members))
                assert union in table
                assert ns.witness.chain[0] is table[union]

    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_center_and_witness_match(self, case):
        poset = build_poset(case_arrangement(case))
        n = poset.arrangement.rank
        # the hypersurfaces alone, unvalidated, leave some nested families
        # with a disconnected intersection
        walls = tuple(l for l in poset.layers if l.dim == n - 1)
        for building in (irreducible_layers(poset), BuildingSet(walls, "custom")):
            members = building.members
            rng = random.Random(len(members))
            for _ in range(40):
                combo = rng.sample(members, rng.randint(1, min(n + 1, len(members))))
                expected, reason = oracle_center(combo, building, poset)
                if expected is None:
                    with pytest.raises(NotNested, match=reason):
                        center(combo, building, poset)
                else:
                    assert center(combo, building, poset).key() == expected.key()
                ok, witness = is_nested(combo, building, poset)
                expected_ok, expected_witness = oracle_is_nested(combo, building, poset)
                assert ok == expected_ok
                if ok:
                    assert [l.key() for l in witness.chain] == [
                        l.key() for l in expected_witness.chain
                    ]


class TestConnectivityOnce:
    """`enumerate_maximal` tests connectivity once per point, on the
    decomposition of the point's support, against the per-set test it
    replaced."""

    @staticmethod
    def _check(poset, building):
        found = 0
        for p in poset.points:
            got = enumerate_maximal(poset, p, building)
            want = oracle_connected_maximal(poset, p, building)
            assert [(s.key(), s.center.key()) for s in got] == [
                (s.key(), s.center.key()) for s in want
            ]
            found += len(got)
        return found

    @pytest.mark.parametrize(
        "case", FILE_CASES + RANK_FOUR_CASES + [pytest.param(("A", 5), id="A5")]
    )
    def test_matches_per_set_check(self, case):
        poset = build_poset(case_arrangement(case))
        assert self._check(poset, irreducible_layers(poset)) > 0

    def test_random_arrangements(self):
        empty = 0
        for seed in range(100):
            poset = build_poset(random_arrangement(random.Random(1000 + seed)))
            empty += self._check(poset, irreducible_layers(poset)) == 0
        assert empty < 100

    def test_unvalidated_lines(self, two_lines):
        """The two lines are nested at each of their two common points, but
        their intersection is both points: no maximal nested set."""
        _, poset, _ = two_lines
        lines = tuple(l for l in poset.layers if l.dim == 1)
        building = BuildingSet(lines, "custom")
        assert len(poset.points) == 2
        for p in poset.points:
            assert oracle_connected_maximal(poset, p, building) == []
            assert enumerate_maximal(poset, p, building) == []

    def test_point_outside_the_poset(self):
        poset = build_poset(root_system("B", 3))
        q = point_layer(poset.arrangement, (F(1, 7), F(2, 7), F(3, 7)))
        assert q not in poset
        assert enumerate_maximal(poset, q, irreducible_layers(poset)) == []

    def test_b4_connected_calls(self, monkeypatch):
        poset = build_poset(root_system("B", 4))
        building = irreducible_layers(poset)
        calls = []
        connected = nested._connected

        def counted(members, component):
            calls.append(component)
            return connected(members, component)

        monkeypatch.setattr(nested, "_connected", counted)
        assert len(enumerate_all_maximal(poset, building)) == 672
        # one per point; a test per maximal nested set made 672
        assert len(calls) == len(poset.points) == 12


class TestLayerWithoutSupport:
    """A layer equal to a poset point but built without `support`: equality
    ignores the support, and the per-point caches must not mix the two."""

    @staticmethod
    def _fresh():
        poset = build_poset(root_system("B", 3))
        p = poset.points[0]
        return poset, irreducible_layers(poset), p, Layer(p.lattice, p.values)

    @staticmethod
    def _shape(sets):
        return [(s.key(), tuple(l.key() for l in s.witness.chain)) for s in sets]

    def test_enumeration_in_either_order(self):
        poset, building, p, bare = self._fresh()
        want = self._shape(enumerate_maximal(poset, p, building))
        assert len(want) == 30
        assert self._shape(enumerate_maximal(poset, bare, building)) == want
        poset, building, p, bare = self._fresh()
        assert self._shape(enumerate_maximal(poset, bare, building)) == want
        assert self._shape(enumerate_maximal(poset, p, building)) == want

    def test_flat_table_first(self):
        poset, building, p, bare = self._fresh()
        table = poset.flats_at(bare)
        assert len(enumerate_maximal(poset, p, building)) == 30
        assert poset.flats_at(p) is table and table[p.mask] is p

    def test_local_view_first(self):
        poset, building, p, bare = self._fresh()
        want = irreducible_layers(poset).members_through(p)
        building._at(poset, bare)
        assert building.members_through(p) == want and want
        assert len(enumerate_maximal(poset, p, building)) == 30

    def test_factors_and_custom_members(self):
        poset, building, p, bare = self._fresh()
        want = factors(poset, p, irreducible_layers(poset))
        assert factors(poset, bare, building) == want and want
        assert factors(poset, p, building) == want
        bare_members = [Layer(m.lattice, m.values) for m in building.members]
        custom = custom_building_set(poset, bare_members)
        assert [m.key() for m in custom.members] == [m.key() for m in building.members]
        assert self._shape(enumerate_maximal(poset, p, custom)) == self._shape(
            enumerate_maximal(poset, p, building)
        )

    @staticmethod
    @contextlib.contextmanager
    def _deadline(seconds=10):
        """Fail the block, instead of hanging, once it runs for `seconds`."""

        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def test_bare_members(self):
        """`is_nested`, `center` and `divisor_dim` answer for members without
        support as for the poset's own, nested or not."""
        poset, building, _, _ = self._fresh()
        rng = random.Random(5)
        combos = [s.members for s in enumerate_all_maximal(poset, building)[::6]]
        combos += [rng.sample(building.members, rng.randint(2, 4)) for _ in range(30)]
        outcomes = set()
        for combo in combos:
            bare = [Layer(m.lattice, m.values) for m in combo]
            with self._deadline():
                ok, witness = is_nested(combo, building, poset)
                bare_ok, bare_witness = is_nested(bare, building, poset)
                assert bare_ok == ok
                if ok:
                    keys = [l.key() for l in witness.chain]
                    assert [l.key() for l in bare_witness.chain] == keys
                    want = center(combo, building, poset).key()
                    assert center(bare, building, poset).key() == want
                assert divisor_dim(poset, building, bare) == divisor_dim(
                    poset, building, combo
                )
            outcomes.add(ok)
        assert outcomes == {True, False}

    def test_members_through_bare_point(self):
        poset, building, p, bare = self._fresh()
        want = [m for m in building.members if m.contains(p)]
        assert len(want) == 17
        assert building.members_through(bare) == want
        assert building.members_through(p) == want
        assert list(building._at(poset, bare).members.values()) == want
        poset, building, p, bare = self._fresh()
        assert building.members_through(p) == want
        assert building.members_through(bare) == want
        assert list(building._at(poset, p).members.values()) == want
        assert building._at(poset, bare) is building._at(poset, p)

    def test_nested_set_equality_ignores_support(self):
        poset, building, _, _ = self._fresh()
        sets = enumerate_all_maximal(poset, building)
        assert len(sets) == 54
        for s in sets:
            bare = NestedSet(tuple(Layer(m.lattice, m.values) for m in s.members), s.center)
            assert bare == s and hash(bare) == hash(s)
        assert len(set(sets)) == 54


def _mobius_from_bottom(flats):
    """mu(0, f) on the lattice of flats, given as bitmasks."""
    mu = {}
    for f in sorted(flats, key=lambda f: bin(f).count("1")):
        mu[f] = 1 if f == 0 else -sum(v for g, v in mu.items() if not g & ~f)
    return mu


def _check_mobius_at_points(poset, building):
    """At each point p with k factors: the sum of (-1)^(|S|-1) over the sets
    S nested at p among the members through p other than its factors, the
    empty set included, is (-1)^(k-1) mu(0, supp p) over the flats at p."""
    for p in poset.points:
        local = building._at(poset, p)
        own = set(factors(poset, p, building))
        candidates = [s for s, m in local.members.items() if m not in own]
        total = -sum((-1) ** len(chosen) for chosen in _nested_sets(local, candidates))
        mu = _mobius_from_bottom(poset.flats_at(p))
        assert total == (-1) ** (len(own) - 1) * mu[p.mask], p


class TestMobiusInvariant:
    """An identity of the nested-set complex at each point (Feichtner and
    Mueller, On the topology of nested set complexes, 2005), read from the
    flat table alone, so it tests the table-driven flat test."""

    @pytest.mark.parametrize("case", FILE_CASES + RANK_FOUR_CASES[:2])
    def test_irreducible(self, case):
        poset = build_poset(case_arrangement(case))
        _check_mobius_at_points(poset, irreducible_layers(poset))

    @pytest.mark.parametrize("case", FILE_CASES + RANK_FOUR_CASES[:1])
    def test_maximal_building_set(self, case):
        poset = build_poset(case_arrangement(case))
        _check_mobius_at_points(poset, custom_building_set(poset, poset.layers))


class TestNestedScale:
    def test_c3_contains_calls(self, monkeypatch):
        poset = build_poset(root_system("C", 3))
        building = irreducible_layers(poset)
        calls = []
        contains = arrangement.Layer.contains

        def counted(self, other):
            calls.append(other)
            return contains(self, other)

        monkeypatch.setattr(arrangement.Layer, "contains", counted)
        sets = enumerate_all_maximal(poset, building)
        assert len(sets) == 84
        # the n-subset scan made 32,310 containment tests here
        assert len(calls) <= 3231

    def test_a4_count(self):
        poset = build_poset(root_system("A", 4))
        assert len(poset.arrangement.characters) == 10
        sets = enumerate_all_maximal(poset, irreducible_layers(poset))
        assert len(sets) == 105

    @pytest.mark.parametrize(
        "kind, rank, count",
        # 9!! = 945 for A5 (De Concini and Procesi, 1995)
        [("B", 4, 672), ("C", 4, 1008), ("A", 5, 945)],
    )
    def test_rank_four_and_five_counts(self, kind, rank, count):
        poset = build_poset(root_system(kind, rank))
        assert len(enumerate_all_maximal(poset, irreducible_layers(poset))) == count

    def test_b5_count(self):
        poset = build_poset(root_system("B", 5))
        assert len(enumerate_all_maximal(poset, irreducible_layers(poset))) == 10800

    def test_b4_no_torsion_solve(self, monkeypatch):
        poset = build_poset(root_system("B", 4))
        building = irreducible_layers(poset)
        calls = []
        solve = lattices.solve_torsion_system

        def counted(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(lattices, "solve_torsion_system", counted)
        sets = enumerate_all_maximal(poset, building)
        assert len(sets) == 672
        for s in sets[::24]:
            assert center(s.members, building, poset) == s.center
        assert calls == []
        # the intersection path reads the arrangement's poset too
        assert nested.intersection_components(poset.arrangement, sets[0].members) == [
            sets[0].center
        ]
        assert len(calls) == 0
