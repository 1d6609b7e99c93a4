import random
from collections import Counter
from fractions import Fraction

import pytest

from toricwonder import (
    InvalidBuildingSet,
    InvalidPartition,
    NotInPoset,
    build_poset,
    connected_components,
    custom_building_set,
    factors,
    finest_integral_decomposition,
    irreducible_layers,
    is_c_irreducible,
    is_complex_decomposition,
    is_integral_decomposition,
    is_z_irreducible,
    point_layer,
)
from toricwonder import decomposition, lattices
from oracles import (
    ARR_FILES,
    ORACLE_CASES,
    RANK_FOUR_CASES,
    case_arrangement,
    oracle_building_set_error,
    oracle_coarsening_finest,
    oracle_connected_components,
    oracle_finest,
    oracle_irreducible_layers,
    oracle_is_integral_decomposition,
    random_vectors,
    root_system,
)

F = Fraction


class TestPredicates:
    def test_index_two_not_integral(self):
        assert not is_integral_decomposition(
            [(1, 1), (1, -1)], (((0,), (1,)))
        )

    def test_standard_basis_integral(self):
        assert is_integral_decomposition([(1, 0), (0, 1)], ((0,), (1,)))

    def test_trivial_partition(self):
        assert is_integral_decomposition([(1, 1), (1, -1)], ((0, 1),))
        assert is_complex_decomposition([(1, 1), (1, -1)], ((0, 1),))

    def test_complex_splits_index_two(self):
        assert is_complex_decomposition([(1, 1), (1, -1)], ((0,), (1,)))

    def test_connected_triple_no_split(self):
        vecs = [(1, 0), (0, 1), (1, 1)]
        for blocks in (((0,), (1, 2)), ((1,), (0, 2)), ((2,), (0, 1))):
            assert not is_complex_decomposition(vecs, blocks)

    def test_bad_partition(self):
        with pytest.raises(InvalidPartition):
            is_integral_decomposition([(1, 0), (0, 1)], ((0,),))

    @pytest.mark.parametrize(
        "call",
        [
            connected_components,
            finest_integral_decomposition,
            is_z_irreducible,
            is_c_irreducible,
            lambda v: is_integral_decomposition(v, ((0,), (1,))),
            lambda v: is_complex_decomposition(v, ((0, 1),)),
        ],
        ids=["components", "finest", "z", "c", "integral", "complex"],
    )
    @pytest.mark.parametrize(
        "vectors", [[(1, 0), (1,)], [(1,), (1, 0)]], ids=["long-short", "short-long"]
    )
    def test_ragged_vectors_rejected(self, call, vectors):
        with pytest.raises(InvalidPartition):
            call(vectors)


class TestIntegralOracle:
    """Primitive stacked saturations against the comparison with the
    saturation of the whole that they replaced."""

    def test_random_partitions(self):
        rng = random.Random(707)
        cases = [
            ([(1, 1), (1, -1)], ((0,), (1,))),
            ([(1, 1, 0), (1, -1, 0), (0, 0, 1)], ((0,), (1,), (2,))),
            ([(1, 1, 0), (1, -1, 0), (0, 0, 1)], ((0, 1), (2,))),
            ([(2, 1), (0, 1)], ((0,), (1,))),
            ([(0, 0), (1, 0)], ((0,), (1,))),
        ]
        for _ in range(600):
            vectors = random_vectors(rng)
            if rng.random() < 0.2:
                vectors.insert(rng.randint(0, len(vectors)), (0,) * len(vectors[0]))
            labels = [rng.randrange(len(vectors)) for _ in vectors]
            blocks = [[i for i, x in enumerate(labels) if x == k] for k in set(labels)]
            cases.append((vectors, blocks))
        outcomes = {True: 0, False: 0}
        index_above_one = 0
        for vectors, blocks in cases:
            got = is_integral_decomposition(vectors, blocks)
            assert got == oracle_is_integral_decomposition(vectors, blocks)
            outcomes[got] += 1
            index_above_one += not got and is_complex_decomposition(vectors, blocks)
        assert min(outcomes.values()) > 100
        # ranks add up, yet the block saturations miss part of the whole's
        assert index_above_one > 20


class TestConnectedComponents:
    def test_index_two_pair_disconnected(self):
        # independent vectors share no circuit, despite Z-irreducibility
        assert connected_components([(1, 1), (1, -1)]) == ((0,), (1,))

    def test_orthogonal_split(self):
        assert connected_components([(1, 0), (0, 1)]) == ((0,), (1,))

    def test_triple_connected(self):
        assert connected_components([(1, 0), (0, 1), (1, 1)]) == ((0, 1, 2),)


class TestComponentsOracle:
    """Fundamental-circuit components against the subset scan they replaced."""

    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_every_layer_support(self, case):
        poset = build_poset(case_arrangement(case))
        chars = poset.arrangement.characters
        for layer in poset.layers:
            vectors = [chars[i].vector for i in layer.support]
            assert connected_components(vectors) == oracle_connected_components(
                vectors
            )

    def test_random_vector_sets(self):
        rng = random.Random(606)
        cases = [[], [(0, 0)], [(1, 0), (1, 0)], [(0, 0), (1, 0), (0, 0), (2, 0)]]
        for _ in range(400):
            rank = rng.randint(1, 3)
            vectors = [
                tuple(rng.randint(-2, 2) for _ in range(rank))
                for _ in range(rng.randint(0, 6))
            ]
            if vectors and rng.random() < 0.5:
                vectors.insert(rng.randrange(len(vectors)), rng.choice(vectors))
            if rng.random() < 0.3:
                vectors.insert(rng.randint(0, len(vectors)), (0,) * rank)
            cases.append(vectors)
        assert sum(len(set(v)) < len(v) for v in cases) > 100
        assert sum(any(not any(x) for x in v) for v in cases) > 100
        for vectors in cases:
            assert connected_components(vectors) == oracle_connected_components(
                vectors
            )


class TestBuildingSetScale:
    def test_b4_members_and_elimination_cost(self, monkeypatch):
        poset = build_poset(root_system("B", 4))
        hermite = lattices.hermite_normal_form
        components = decomposition.connected_components
        integral = decomposition._sums_to_saturation
        saturate = lattices.saturate
        hermite_calls, component_counts, integral_calls = [], [], []
        saturate_calls = []

        def counted_hermite(mat):
            hermite_calls.append(len(mat))
            return hermite(mat)

        def counted_components(vectors):
            before = len(hermite_calls)
            out = components(vectors)
            # one fraction-free elimination, no Hermite form or Sublattice
            assert len(hermite_calls) == before
            component_counts.append(len(out))
            return out

        def counted_integral(sats, rank):
            # always a split into two groups
            assert len(sats) == 2
            integral_calls.append(component_counts[-1])
            return integral(sats, rank)

        def counted_saturate(lattice):
            saturate_calls.append(lattice)
            return saturate(lattice)

        monkeypatch.setattr(lattices, "hermite_normal_form", counted_hermite)
        monkeypatch.setattr(decomposition, "connected_components", counted_components)
        monkeypatch.setattr(decomposition, "_sums_to_saturation", counted_integral)
        monkeypatch.setattr(decomposition, "saturate", counted_saturate)
        monkeypatch.setattr(lattices, "saturate", counted_saturate)
        building = irreducible_layers(poset)
        assert len(building.members) == 62
        assert len(component_counts) == len(poset.layers) == 160
        # one component is irreducible untested; with more, only splits of
        # the components into two groups are tested, each group's lattice
        # read off the poset, up to the first integral split
        assert sum(c >= 2 for c in component_counts) == 104
        assert saturate_calls == []
        assert len(integral_calls) == 110
        assert all(c >= 2 for c in integral_calls)
        assert len(integral_calls) <= sum(2 ** (c - 1) - 1 for c in component_counts)

    @pytest.mark.parametrize("kind, members", [("B", 62), ("C", 66)])
    def test_each_block_saturated_once(self, kind, members, monkeypatch):
        """`finest_integral_decomposition` on each layer's support: within
        one search, the splits and the recursion into their groups share
        their blocks, and each distinct block (a union of components) is
        saturated only once."""
        poset = build_poset(root_system(kind, 4))
        chars = poset.arrangement.characters
        saturate = decomposition.saturate
        seen = []

        def counted_saturate(lattice):
            seen.append(lattice.basis)
            return saturate(lattice)

        monkeypatch.setattr(decomposition, "saturate", counted_saturate)
        irreducible = saturated = 0
        for layer in poset.layers:
            vectors = [chars[i].vector for i in layer.support]
            seen.clear()
            finest = finest_integral_decomposition(vectors)
            k = len(connected_components(vectors))
            # at most the proper non-empty unions of the k components
            assert len(seen) <= max(2**k - 2, 0)
            assert len(set(seen)) == len(seen)
            irreducible += len(finest) == 1
            saturated += len(seen)
        assert irreducible == members
        assert saturated > 0

    def test_c4_members(self):
        poset = build_poset(root_system("C", 4))
        assert len(poset.arrangement.characters) == 20
        assert len(irreducible_layers(poset).members) == 66

    @pytest.mark.parametrize("kind, members", [("B", 173), ("C", 178)])
    def test_rank_five_members(self, kind, members):
        poset = build_poset(root_system(kind, 5))
        assert len(irreducible_layers(poset).members) == members


class TestIrreducibleOracle:
    """The building set against the circuit-rank-test components and the
    integrality comparison that the integer elimination replaced."""

    @pytest.mark.parametrize("case", ORACLE_CASES + RANK_FOUR_CASES)
    def test_same_members(self, case):
        poset = build_poset(case_arrangement(case))
        members = oracle_irreducible_layers(poset)
        assert irreducible_layers(poset).members == tuple(members)


class TestFinest:
    def test_index_two_block(self):
        assert finest_integral_decomposition([(1, 1), (1, -1)]) == ((0, 1),)

    def test_orthogonal(self):
        assert finest_integral_decomposition([(1, 0), (0, 1)]) == (
            (0,),
            (1,),
        )

    def test_empty_rejected(self):
        with pytest.raises(InvalidPartition):
            finest_integral_decomposition([])

    def test_oracle_small_sweep(self):
        rng = random.Random(101)
        for _ in range(60):
            vecs = random_vectors(rng)
            got = finest_integral_decomposition(vecs)
            want, unique = oracle_finest(vecs)
            assert got == want
            assert unique


    @pytest.mark.parametrize("case", RANK_FOUR_CASES)
    def test_layer_supports_match_coarsening_search(self, case):
        """The first-split recursion against the search over every
        coarsening of the components that it replaced."""
        poset = build_poset(case_arrangement(case))
        chars = poset.arrangement.characters
        reducible = 0
        for layer in poset.layers:
            vectors = [chars[i].vector for i in layer.support]
            want = oracle_coarsening_finest(vectors)
            assert finest_integral_decomposition(vectors) == want
            assert is_z_irreducible(vectors) == (len(want) == 1)
            reducible += len(want) > 1
        assert reducible > 0

    def test_random_sets_match_coarsening_search(self):
        rng = random.Random(303)
        cases = [random_vectors(rng) for _ in range(300)]
        cases += [random_vectors(rng, rank=4, count=7) for _ in range(60)]
        # direct sums of random sets in disjoint coordinates, shuffled, so
        # that the recursion goes past the first split
        for _ in range(200):
            parts = [random_vectors(rng, rank=rng.randint(1, 2)) for _ in range(3)]
            width = sum(len(part[0]) for part in parts)
            vectors, offset = [], 0
            for part in parts:
                pad = width - offset - len(part[0])
                vectors += [(0,) * offset + v + (0,) * pad for v in part]
                offset += len(part[0])
            rng.shuffle(vectors)
            cases.append(vectors)
        blocks = Counter()
        for vectors in cases:
            want = oracle_coarsening_finest(vectors)
            assert finest_integral_decomposition(vectors) == want
            blocks[min(len(want), 3)] += 1
        assert min(blocks.values()) > 30

    @staticmethod
    def _index_two_pairs(k):
        """k pairs (e_2i + e_2i+1, e_2i - e_2i+1): 2k independent vectors,
        so 2k matroid components, and each pair one block of index two."""
        unit = [tuple(int(j == i) for j in range(2 * k)) for i in range(2 * k)]
        return [
            tuple(a + s * b for a, b in zip(unit[2 * i], unit[2 * i + 1]))
            for i in range(k)
            for s in (1, -1)
        ]

    def test_index_two_pairs_cost(self, monkeypatch):
        """Each split tests two lattices, and the recursion stops at the
        first integral split of each group: 10 tests for 4 pairs, where
        the search over all 4,140 coarsenings of the 8 components made
        1,443, with up to 8 lattices each."""
        integral = decomposition._sums_to_saturation
        sizes = []

        def counted(sats, rank):
            sizes.append(len(sats))
            return integral(sats, rank)

        three = self._index_two_pairs(3)
        assert finest_integral_decomposition(three) == oracle_finest(three)[0]
        assert len(connected_components(three)) == 6
        monkeypatch.setattr(decomposition, "_sums_to_saturation", counted)
        four = self._index_two_pairs(4)
        assert finest_integral_decomposition(four) == ((0, 1), (2, 3), (4, 5), (6, 7))
        assert set(sizes) == {2}
        assert len(sizes) <= 10


class TestIrreducibility:
    def test_index_two_pair(self):
        assert is_z_irreducible([(1, 1), (1, -1)])
        assert not is_c_irreducible([(1, 1), (1, -1)])

    def test_single_vector(self):
        assert is_z_irreducible([(1, 1)])
        assert is_c_irreducible([(1, 1)])

    def test_orthogonal_both_reducible(self):
        assert not is_z_irreducible([(1, 0), (0, 1)])
        assert not is_c_irreducible([(1, 0), (0, 1)])

    def test_two_block_splits_match_finest(self, monkeypatch):
        """Testing only splits into two groups decides irreducibility as the
        exhaustive scan over all partitions does."""
        integral = decomposition._sums_to_saturation
        sizes = []

        def counted(sats, rank):
            sizes.append(len(sats))
            return integral(sats, rank)

        monkeypatch.setattr(decomposition, "_sums_to_saturation", counted)
        rng = random.Random(202)
        cases = [random_vectors(rng) for _ in range(150)]
        cases += [random_vectors(rng, rank=4, count=5) for _ in range(30)]
        cases += [[(1, 0), (0, 0)], [(0, 0, 1), (1, 1, 0), (1, -1, 0), (0, 0, 0)]]
        reducible = 0
        for vecs in cases:
            want = len(oracle_finest(vecs)[0]) == 1
            assert is_z_irreducible(vecs) == want
            reducible += not want
        assert 0 < reducible < len(cases)
        assert set(sizes) == {2}
        with pytest.raises(InvalidPartition):
            is_z_irreducible([])


class TestBuildingSets:
    def test_two_lines_members(self, two_lines):
        _, poset, building = two_lines
        assert len(building.members) == 4
        dims = sorted(m.dim for m in building.members)
        assert dims == [0, 0, 1, 1]

    def test_doubled_square_members(self, doubled_square):
        arr, poset, building = doubled_square
        assert len(building.members) == 8
        point_members = [m for m in building.members if m.dim == 0]
        coords = {m.coordinates for m in point_members}
        assert coords == {(F(0), F(0)), (F(1, 2), F(1, 2))}

    def test_hypersurfaces_always_members(self, doubled_square):
        _, poset, building = doubled_square
        for layer in poset.layers:
            if layer.dim == poset.arrangement.rank - 1:
                assert layer in building

    def test_custom_full_poset_valid(self, two_lines):
        _, poset, _ = two_lines
        bs = custom_building_set(poset, poset.layers)
        assert set(bs.members) == set(poset.layers)

    def test_custom_missing_hypersurface_invalid(self, two_lines):
        _, poset, building = two_lines
        smaller = [m for m in building.members if m.dim == 0]
        with pytest.raises(InvalidBuildingSet):
            custom_building_set(poset, smaller)

    def test_custom_rejects_foreign_layer(self, two_lines, doubled_square):
        _, poset32, _ = two_lines
        _, poset23, _ = doubled_square
        foreign = next(l for l in poset23.layers if l not in poset32)
        with pytest.raises(NotInPoset):
            custom_building_set(poset32, [foreign])


class TestCustomBuildingSetOracle:
    """`custom_building_set`, which checks masks and member lattices,
    against the support tuples and block saturations of the oracle."""

    def _check(self, poset, family):
        expected = oracle_building_set_error(poset, family)
        if expected is None:
            custom_building_set(poset, family)
            return "accepted"
        with pytest.raises(InvalidBuildingSet) as exc:
            custom_building_set(poset, family)
        assert str(exc.value) == expected
        return expected.rsplit(" is ", 1)[1]

    def test_two_lines(self, two_lines):
        _, poset, _ = two_lines
        lines = [l for l in poset.layers if l.dim == 1]
        points = [l for l in poset.layers if l.dim == 0]
        # the lines meet with index 2 at each of the two points
        assert self._check(poset, lines) == "not decomposed"
        assert self._check(poset, points) == "not covered"
        assert self._check(poset, lines + points) == "accepted"

    def test_seeded_families(self):
        """Irreducible building sets with members dropped and other layers
        added at random, on the bench and example files and A4."""
        outcomes = Counter()
        for k, arr in enumerate(
            [case_arrangement(path) for path in ARR_FILES] + [root_system("A", 4)]
        ):
            poset = build_poset(arr)
            building = irreducible_layers(poset).members
            others = [l for l in poset.layers if l not in building]
            rng = random.Random(k)
            for _ in range(40):
                drop, add = rng.choice((0, 0.1, 0.3)), rng.choice((0, 0.05, 0.2))
                family = [m for m in building if rng.random() >= drop]
                family += [l for l in others if rng.random() < add]
                outcomes[self._check(poset, family)] += 1
        assert set(outcomes) == {"accepted", "not covered", "not decomposed"}


class TestFactors:
    def test_p3_splits(self, doubled_square):
        arr, poset, building = doubled_square
        p3 = point_layer(arr, (0, F(1, 2)))
        fs = factors(poset, p3, building)
        assert len(fs) == 2
        got = {
            (arr.characters[m.support[0]].vector, arr.characters[m.support[0]].value)
            for m in fs
        }
        assert got == {((1, 0), F(0)), ((0, 1), F(1, 2))}

    def test_member_is_own_factor(self, two_lines):
        _, poset, building = two_lines
        for m in building.members:
            assert factors(poset, m, building) == [m]

    def test_p1_irreducible_two_lines(self, two_lines):
        arr, poset, building = two_lines
        p1 = point_layer(arr, (0, 0))
        assert factors(poset, p1, building) == [p1]

    def test_intersection_recovers_layer(self, doubled_square):
        from toricwonder import intersection_components

        arr, poset, building = doubled_square
        for layer in poset.layers:
            fs = factors(poset, layer, building)
            comps = intersection_components(arr, fs)
            assert layer in comps
