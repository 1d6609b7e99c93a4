import itertools
import random
from fractions import Fraction
from math import lcm

import pytest

from toricwonder import (
    Arrangement,
    EmptySubset,
    InfiniteIndex,
    Layer,
    NotAPoint,
    NotComplete,
    NotContained,
    NotInPoset,
    NotPrimitive,
    Sublattice,
    WeightedCharacter,
    ZeroVector,
    build_poset,
    complete_subsets,
    intersection_components,
    is_complete,
    layer_components,
    layer_from_complete_set,
    localized,
    normalize,
    point_layer,
    points,
)
from toricwonder import arrangement, lattices
from oracles import (
    ARR_FILES,
    ORACLE_CASES,
    RANK_FOUR_CASES,
    case_arrangement,
    oracle_bitset_hasse_edges,
    oracle_closure,
    oracle_characteristic_polynomial,
    oracle_complete_subsets,
    oracle_frame_walk,
    oracle_grown_flats,
    oracle_hasse_edges,
    oracle_intersection_components,
    oracle_is_complete,
    oracle_layer_components,
    oracle_layer_from_flat,
    oracle_layers,
    random_arrangement,
    root_system,
)

F = Fraction


class TestNormalize:
    def test_doubled_square(self, doubled_square):
        arr, _, _ = doubled_square
        got = {(ch.vector, ch.value) for ch in arr.characters}
        assert got == {
            ((1, 0), F(0)),
            ((1, 0), F(1, 2)),
            ((0, 1), F(0)),
            ((0, 1), F(1, 2)),
            ((1, 1), F(0)),
            ((1, -1), F(0)),
        }
        assert len(arr.characters) == 6

    def test_primitive_unchanged(self):
        raw = [((1, 1), F(0)), ((1, -1), F(1, 2))]
        arr = normalize(2, raw)
        assert [(c.vector, c.value) for c in arr.characters] == raw

    def test_triple_split(self):
        arr = normalize(1, [((3,), F(0))])
        assert {(c.vector, c.value) for c in arr.characters} == {
            ((1,), F(0)),
            ((1,), F(1, 3)),
            ((1,), F(2, 3)),
        }

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            normalize(2, [((0, 0), F(0))])

    def test_validation(self):
        with pytest.raises(NotPrimitive):
            Arrangement(2, (WeightedCharacter((2, 0), F(0)),))
        with pytest.raises(InfiniteIndex):
            Arrangement(2, (WeightedCharacter((1, 0), F(0)),))


class TestLayerComponents:
    def test_two_points(self, two_lines):
        arr, _, _ = two_lines
        comps = layer_components(arr, (0, 1))
        assert len(comps) == 2
        coords = {c.coordinates for c in comps}
        assert coords == {(F(0), F(0)), (F(1, 2), F(1, 2))}

    def test_single_character(self, two_lines):
        arr, _, _ = two_lines
        comps = layer_components(arr, (0,))
        assert len(comps) == 1 and comps[0].dim == 1

    def test_point_p3(self, doubled_square):
        arr, _, _ = doubled_square
        idx_a = next(
            i for i, c in enumerate(arr.characters)
            if c.vector == (1, 0) and c.value == 0
        )
        idx_b = next(
            i for i, c in enumerate(arr.characters)
            if c.vector == (0, 1) and c.value == F(1, 2)
        )
        comps = layer_components(arr, (idx_a, idx_b))
        assert len(comps) == 1
        assert comps[0].coordinates == (F(0), F(1, 2))

    def test_empty_subset(self, two_lines):
        arr, _, _ = two_lines
        with pytest.raises(EmptySubset):
            layer_components(arr, ())

    @pytest.mark.parametrize("subset", [(99,), (-1,), (0, 2)])
    def test_index_out_of_range(self, two_lines, subset):
        # a negative index would otherwise name a character from the end
        arr, _, _ = two_lines
        with pytest.raises(NotContained, match=r"not all in 0\.\.1"):
            layer_components(arr, subset)


class TestPointLayer:
    @pytest.mark.parametrize("coordinates", [(0,), (0, 0, 0), ()])
    def test_wrong_length(self, two_lines, coordinates):
        arr, _, _ = two_lines
        with pytest.raises(NotAPoint, match="has 2 coordinates"):
            point_layer(arr, coordinates)


class TestPoset:
    def test_two_lines_layers(self, two_lines):
        _, poset, _ = two_lines
        dims = sorted(l.dim for l in poset.layers)
        assert dims == [0, 0, 1, 1]

    def test_doubled_square_layers(self, doubled_square):
        _, poset, _ = doubled_square
        dims = sorted(l.dim for l in poset.layers)
        assert dims == [0] * 4 + [1] * 6

    def test_rank_one(self):
        arr = normalize(1, [((1,), F(0))])
        assert len(build_poset(arr).layers) == 1

    def test_points_canonical_order(self, doubled_square):
        _, poset, _ = doubled_square
        coords = [p.coordinates for p in poset.points]
        assert coords == sorted(coords)
        assert set(coords) == {
            (F(0), F(0)),
            (F(1, 2), F(1, 2)),
            (F(0), F(1, 2)),
            (F(1, 2), F(0)),
        }

    def test_two_lines_points(self, two_lines):
        _, poset, _ = two_lines
        assert [p.coordinates for p in poset.points] == [
            (F(0), F(0)),
            (F(1, 2), F(1, 2)),
        ]

    def test_hasse_edges(self, two_lines):
        _, poset, _ = two_lines
        edges = poset.hasse_edges()
        # each point sits below both hypersurfaces
        assert len(edges) == 4
        assert all(a.dim == 0 and b.dim == 1 for a, b in edges)


class TestPosetOracle:
    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_matches_brute_force(self, case):
        poset = build_poset(case_arrangement(case))
        expected = oracle_layers(poset.arrangement)
        assert [l.key() for l in poset.layers] == [l.key() for l in expected]
        assert poset.hasse_edges() == oracle_hasse_edges(poset)

    @pytest.mark.parametrize("case", RANK_FOUR_CASES)
    def test_covers_match_bitset_reduction(self, case):
        """Covers as containments of codimension one, against the transitive
        reduction of every containment that they replaced: the same list in
        the same order."""
        poset = build_poset(case_arrangement(case))
        edges = poset.hasse_edges()
        assert edges == oracle_bitset_hasse_edges(poset)
        assert all(a.dim + 1 == b.dim for a, b in edges)

    def test_a4_matches_brute_force(self):
        """All 1,023 character subsets of A4; those of B4 and C4 (2^16 and
        2^20) are left to the frame walk below."""
        poset = build_poset(root_system("A", 4))
        expected = oracle_layers(poset.arrangement)
        assert [l.key() for l in poset.layers] == [l.key() for l in expected]

    @pytest.mark.parametrize("case", ORACLE_CASES + RANK_FOUR_CASES)
    def test_matches_frame_walk(self, case):
        """The carried frames against one Smith form per layer: the same
        layers, supports and order (`Layer.key` holds the support)."""
        poset = build_poset(case_arrangement(case))
        expected = oracle_frame_walk(poset.arrangement)
        assert [l.key() for l in poset.layers] == [l.key() for l in expected]

    def test_random_match_frame_walk(self):
        """150 seeded random arrangements of ranks 1-4, entries in -3..3 and
        constants with denominators up to 6: the canonical-parent walk
        makes the layers of the walk that dedupes every layer it reaches."""
        rng = random.Random(22)
        split = 0
        for k in range(150):
            rank = 1 + k % 4
            count = rng.randint(rank, rank + 2)
            arr = random_arrangement(rng, rank, count, entry=3, denominator=6)
            # `normalize` splits a non-primitive character into components
            split += len(arr.characters) > count
            got = [l.key() for l in build_poset(arr).layers]
            assert got == [l.key() for l in oracle_frame_walk(arr)], k
        assert split >= 40

    def test_a5_layer_count(self):
        poset = build_poset(root_system("A", 5))
        assert len(poset.arrangement.characters) == 15
        assert len(poset.layers) == 202
        assert len(poset.points) == 1


def counted_poset(monkeypatch, arr):
    """`build_poset(arr)` and its calls of four lattice routines."""
    calls = {"smith": 0, "express": 0, "hermite": 0, "reduction": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    # `arrangement` holds its own references to the functions it imports
    for name, attr in [
        ("smith", "smith_normal_form"),
        ("express", "express_in_rows"),
        ("hermite", "hermite_normal_form"),
        ("reduction", "column_reduction"),
    ]:
        wrapped = counted(name, getattr(lattices, attr))
        monkeypatch.setattr(lattices, attr, wrapped)
        monkeypatch.setattr(arrangement, attr, wrapped, raising=False)
    return build_poset(arr), calls


class TestPosetScale:
    @pytest.mark.parametrize(
        "kind, rank, count, cuts",
        [("C", 3, 48, 35), ("B", 4, 160, 160)],
        ids=["C3", "B4"],
    )
    def test_no_smith_form(self, monkeypatch, kind, rank, count, cuts):
        poset, calls = counted_poset(monkeypatch, root_system(kind, rank))
        assert len(poset.layers) == count
        # each layer carries its frame from its parent: no Smith form and no
        # unimodular solve; one column reduction and one Hermite form (the
        # canonical basis of the new lattice) per cut with a canonical child
        assert calls["smith"] == calls["express"] == 0
        assert calls["hermite"] == calls["reduction"] == cuts

    @pytest.mark.parametrize("case", ORACLE_CASES + RANK_FOUR_CASES)
    def test_cuts_within_layers(self, monkeypatch, case):
        """Each layer is made once, from its canonical parent, and a cut is
        paid for only if it makes a layer: no more cuts than layers."""
        poset, calls = counted_poset(monkeypatch, case_arrangement(case))
        assert calls["hermite"] == calls["reduction"] <= len(poset.layers)

    def test_b4_layer_count(self):
        poset = build_poset(root_system("B", 4))
        assert len(poset.arrangement.characters) == 16
        assert len(poset.layers) == 160
        assert len(poset.points) == 12

    def test_complete_subsets_walk_once(self, monkeypatch):
        """The flats at every point of a fresh arrangement cost one walk of
        its poset: as many Hermite forms as `build_poset` makes once."""
        _, calls = counted_poset(monkeypatch, root_system("C", 4))
        walk = dict(calls)
        # `normalize` takes a Hermite form of the characters' span
        arr = root_system("C", 4)
        calls.update(dict.fromkeys(calls, 0))
        for p in points(arr):
            assert len(complete_subsets(arr, p)) > 1
        assert calls == walk and walk["hermite"] > 0


def characteristic_polynomial(poset):
    """Sum of mu(T, W) q^dim W over the torus T and the layers W, as
    coefficients from q^n down, with the Moebius function of the poset."""
    n = poset.arrangement.rank
    mu = {}
    coeffs = [1] + [0] * n
    # canonical order lists every layer after the layers of lower rank
    for w in poset.layers:
        mu[w] = -1 - sum(
            m for v, m in mu.items() if v.dim > w.dim and v.contains(w)
        )
        coeffs[n - w.dim] += mu[w]
    return coeffs


# measured by the subset sum; A3 is (q-1)(q-2)(q-3) and B3 (q-2)(q-3)(q-4)
CHARACTERISTIC = {
    "A3": [1, -6, 11, -6],
    "B3": [1, -9, 26, -24],
    "C3": [1, -12, 44, -48],
    "A3_tors": [1, -12, 48, -63],
    "G2_tors": [1, -12, 57],
    "B2": [1, -4, 4],
    "C2": [1, -6, 8],
    "doubled_square": [1, -6, 8],
    "two_lines": [1, -2, 2],
}


class TestCharacteristicPolynomial:
    """The poset's Moebius sum against the subset sum (Ehrenborg, Readdy and
    Slone, 2009), whose components come from one torsion solve per subset
    and not from `build_poset`."""

    @pytest.mark.parametrize("path", ARR_FILES, ids=lambda p: p.stem)
    def test_mobius_sum_is_subset_sum(self, path):
        poset = build_poset(case_arrangement(path))
        coeffs = characteristic_polynomial(poset)
        assert coeffs == oracle_characteristic_polynomial(poset.arrangement)
        assert coeffs == CHARACTERISTIC[path.stem]


def _off_hypersurfaces(arr, modulus):
    """The x in (Z/M)^n whose point exp(2 pi i x / M) lies on no hypersurface:
    a x = M c mod M puts it on {chi_a = exp(2 pi i c)}."""
    chars = [
        (ch.vector, ch.value.numerator * (modulus // ch.value.denominator))
        for ch in arr.characters
    ]
    return sum(
        all((sum(a * b for a, b in zip(v, x)) - c) % modulus for v, c in chars)
        for x in itertools.product(range(modulus), repeat=arr.rank)
    )


def _value_lcm(poset):
    """N, the lcm of the denominators of every layer's values."""
    return lcm(*(v.denominator for l in poset.layers for v in l.values))


class TestPointCount:
    """For every multiple M of N (`_value_lcm`), chi(M) counts the points of
    order dividing M off the hypersurfaces (Ehrenborg, Readdy and Slone, 2009;
    Moci, 2012): the poset, which gives every layer and the Moebius function,
    checked against a count that makes no layer at all."""

    @pytest.mark.parametrize(
        "kind, coeffs, modulus",
        # (M-2)(M-4)^2(M-6) and (M-2)(M-4)(M-6)(M-8), above their largest roots
        [("B", [1, -16, 92, -224, 192], 8), ("C", [1, -20, 140, -400, 384], 10)],
        ids=["B4", "C4"],
    )
    def test_rank_four(self, kind, coeffs, modulus):
        poset = build_poset(root_system(kind, 4))
        assert characteristic_polynomial(poset) == coeffs
        assert modulus % _value_lcm(poset) == 0
        chi = sum(c * modulus ** (4 - k) for k, c in enumerate(coeffs))
        assert _off_hypersurfaces(poset.arrangement, modulus) == chi > 0

    @pytest.mark.parametrize("path", ARR_FILES, ids=lambda p: p.stem)
    def test_bench_families(self, path):
        poset = build_poset(case_arrangement(path))
        n, coeffs = poset.arrangement.rank, CHARACTERISTIC[path.stem]
        step = _value_lcm(poset)
        # the first two multiples of N above the number of characters, where
        # chi is positive: at a root both counts would be 0
        first = (len(poset.arrangement.characters) // step + 1) * step
        for modulus in (first, first + step):
            chi = sum(c * modulus ** (n - k) for k, c in enumerate(coeffs))
            assert _off_hypersurfaces(poset.arrangement, modulus) == chi > 0, modulus


class TestComponentCounts:
    """For a centred arrangement, the characters S cut out as many components
    as the index of the lattice they span in its saturation (Moci, "A Tutte
    polynomial for toric arrangements", 2012); the index makes no torsion
    solve."""

    @staticmethod
    def check(arr, subsets):
        """The number of subsets that cut out more than one component."""
        assert all(ch.value == 0 for ch in arr.characters)
        split = 0
        for subset in subsets:
            span = Sublattice.from_rows(
                arr.rank, [arr.characters[i].vector for i in subset]
            )
            count = len(layer_components(arr, subset))
            assert count == lattices.lattice_index(span, lattices.saturate(span))
            split += count > 1
        return split

    # C3 is left out: its non-primitive characters split into translates.
    # Type A is unimodular, so every A3 subset cuts out one component.
    @pytest.mark.parametrize("name, split", [("A3", 0), ("B3", 44), ("two_lines", 1)])
    def test_every_subset(self, name, split):
        arr = case_arrangement(next(p for p in ARR_FILES if p.stem == name))
        m = len(arr.characters)
        subsets = [
            [i for i in range(m) if mask >> i & 1] for mask in range(1, 1 << m)
        ]
        assert self.check(arr, subsets) == split

    def test_a4_sampled_subsets(self):
        arr = root_system("A", 4)
        rng = random.Random(47)
        m = len(arr.characters)
        subsets = [rng.sample(range(m), rng.randint(1, m)) for _ in range(200)]
        self.check(arr, subsets)


class TestLocalized:
    def test_p1_doubled_square(self, doubled_square):
        arr, _, _ = doubled_square
        p1 = point_layer(arr, (0, 0))
        vecs = {arr.characters[i].vector for i in localized(arr, p1)}
        assert vecs == {(1, 0), (0, 1), (1, 1), (1, -1)}
        assert len(localized(arr, p1)) == 4

    def test_p3_doubled_square(self, doubled_square):
        arr, _, _ = doubled_square
        p3 = point_layer(arr, (0, F(1, 2)))
        got = {
            (arr.characters[i].vector, arr.characters[i].value)
            for i in localized(arr, p3)
        }
        assert got == {((1, 0), F(0)), ((0, 1), F(1, 2))}

    def test_all_through_origin_two_lines(self, two_lines):
        arr, _, _ = two_lines
        p1 = point_layer(arr, (0, 0))
        assert localized(arr, p1) == (0, 1)


class TestFlats:
    def test_two_lines_flats(self, two_lines):
        arr, _, _ = two_lines
        p1 = point_layer(arr, (0, 0))
        flats = complete_subsets(arr, p1)
        assert flats == [(), (0,), (1,), (0, 1)]

    def test_single_vector(self):
        arr = normalize(1, [((1,), F(0))])
        p = point_layer(arr, (0,))
        assert complete_subsets(arr, p) == [(), (0,)]

    def test_doubled_square_p1_six_flats(self, doubled_square):
        arr, _, _ = doubled_square
        p1 = point_layer(arr, (0, 0))
        flats = complete_subsets(arr, p1)
        assert len(flats) == 6
        sizes = sorted(len(f) for f in flats)
        assert sizes == [0, 1, 1, 1, 1, 4]

    def test_is_complete(self, two_lines):
        arr, _, _ = two_lines
        p1 = point_layer(arr, (0, 0))
        assert is_complete(arr, p1, (0,))
        assert is_complete(arr, p1, (0, 1))
        assert not is_complete(arr, p1, (2,))


class TestFlatsOracle:
    """Closure-grown flats against the subset scan they replaced."""

    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_matches_subset_scan(self, case):
        poset = build_poset(case_arrangement(case))
        arr = poset.arrangement
        for p in poset.points:
            flats = complete_subsets(arr, p)
            assert flats == oracle_complete_subsets(arr, p)
            # independent of both: the non-empty flats at p are exactly the
            # supports of the layers through p
            through = [l.support for l in poset.layers if l.contains(p)]
            assert flats[0] == () and sorted(flats[1:]) == sorted(through)


def _mask(subset):
    return sum(1 << i for i in subset)


class TestFlatTable:
    """`LayerPoset.flats_at`, which `complete_subsets` reads, against the
    flats grown by closure, the subset scan and the layer built from each
    flat."""

    @pytest.mark.parametrize("case", ORACLE_CASES + RANK_FOUR_CASES)
    def test_matches_flats_and_layers(self, case):
        poset = build_poset(case_arrangement(case))
        arr = poset.arrangement
        for p in poset.points:
            table = poset.flats_at(p)
            flats = oracle_grown_flats(arr, p)
            assert set(table) == {_mask(f) for f in flats}
            assert table[0] == Layer(Sublattice.zero(arr.rank), ())
            for flat in flats[1:]:
                layer = table[_mask(flat)]
                assert layer.key() == layer_from_complete_set(arr, p, flat).key()
                assert layer is poset.layers[poset.ids[layer]]
            assert poset.flats_at(p) is table
            # the subset scan is 2^k closures; B4 and C4 have 16 characters
            # through the origin, where it is left out
            if len(localized(arr, p)) > 12:
                continue
            assert set(table) == {_mask(f) for f in oracle_complete_subsets(arr, p)}

    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_points_off_the_vertices(self, case):
        """Points of the poset, lattice points on some or no hypersurfaces,
        and each of them as a layer built without its support."""
        arr = case_arrangement(case)
        rng = random.Random(arr.rank)
        points = list(build_poset(arr).points) + [
            point_layer(arr, [F(rng.randrange(4), 4) for _ in range(arr.rank)])
            for _ in range(4)
        ]
        for p in points:
            flats = complete_subsets(arr, p)
            assert flats == oracle_grown_flats(arr, p)
            assert complete_subsets(arr, Layer(p.lattice, p.values)) == flats

    def test_points_off_the_poset_keep_no_table(self):
        """`is_complete` at torsion points outside the poset agrees with the
        closure oracle, and their tables are not kept: asking about them
        does not grow the poset's cache."""
        arr = root_system("B", 3)
        poset, rng = arr._poset, random.Random(97)
        for p in poset.points:
            poset.flats_at(p)
        kept, off = len(poset._flats), 0
        for _ in range(200):
            coords = [rng.choice((F(0), F(rng.randrange(97), 97))) for _ in range(arr.rank)]
            p = point_layer(arr, coords)
            off += p not in poset
            ground = localized(arr, p)
            subsets = [(), ground, tuple(rng.sample(range(len(arr.characters)), 2))]
            subsets += [tuple(sorted(rng.sample(ground, k))) for k in range(1, len(ground))]
            for subset in subsets:
                assert is_complete(arr, p, subset) == oracle_is_complete(arr, p, subset)
        assert off > 100
        assert len(poset._flats) == kept

    def test_table_of_a_layer_without_support(self):
        """An equal layer built without `support` gets the point's table, in
        either order, and leaves the point's own table as it was."""
        arr = root_system("B", 3)
        for bare_first in (False, True):
            poset = build_poset(arr)
            p = poset.points[0]
            bare = Layer(p.lattice, p.values)
            first, second = (bare, p) if bare_first else (p, bare)
            table = poset.flats_at(first)
            assert poset.flats_at(second) is table
            assert set(table) == {_mask(f) for f in oracle_grown_flats(arr, p)}


class TestLayerFromCompleteSet:
    def test_hypersurface(self, two_lines):
        arr, poset, _ = two_lines
        p1 = point_layer(arr, (0, 0))
        layer = layer_from_complete_set(arr, p1, (0,))
        assert layer.lattice.basis == ((1, 1),)
        assert layer.values == (F(0),)
        assert layer in poset

    def test_empty_rejected(self, two_lines):
        arr, _, _ = two_lines
        p1 = point_layer(arr, (0, 0))
        with pytest.raises(NotComplete):
            layer_from_complete_set(arr, p1, ())

    def test_full_flat_is_point(self, two_lines):
        arr, _, _ = two_lines
        p1 = point_layer(arr, (0, 0))
        assert layer_from_complete_set(arr, p1, (0, 1)) == p1


class TestEdgeInputs:
    """Bad indices and members keep the answers and typed errors they had
    before the functions read the poset."""

    @pytest.mark.parametrize(
        "subset", [(-1,), (0, -1), (2,), (0, 99), (0, 0), (1, 0, 1)]
    )
    def test_no_flat(self, two_lines, subset):
        arr, _, _ = two_lines
        p1 = point_layer(arr, (0, 0))
        assert is_complete(arr, p1, subset) is False
        assert oracle_is_complete(arr, p1, subset) is False
        with pytest.raises(NotComplete, match="is not a nonempty flat at"):
            layer_from_complete_set(arr, p1, subset)

    def test_not_a_point(self, two_lines):
        arr, poset, _ = two_lines
        line = next(l for l in poset.layers if l.dim == 1)
        for case in (
            lambda: complete_subsets(arr, line),
            lambda: is_complete(arr, line, (0,)),
            lambda: layer_from_complete_set(arr, line, (0,)),
        ):
            with pytest.raises(NotAPoint, match="0-dimensional"):
                case()

    def test_no_members(self, two_lines):
        """No member leaves the ambient torus, of dimension n; the torsion
        solve of no rows could not see n and gave the torus of Z^0."""
        arr, _, _ = two_lines
        got = intersection_components(arr, [])
        assert got == [Layer(Sublattice.zero(arr.rank), ())] and got[0].dim == 2

    def test_member_off_the_poset(self, two_lines):
        """The one narrowed input: a subtorus that is not a layer, such as a
        point off the hypersurfaces or the ambient torus."""
        arr, poset, _ = two_lines
        off = point_layer(arr, (F(1, 3), F(1, 5)))
        for member in (off, Layer(Sublattice.zero(arr.rank), ())):
            with pytest.raises(NotInPoset, match="is not a layer of the arrangement"):
                intersection_components(arr, [poset.layers[0], member])


def check_poset_route(arr, rng, pairs, triples, sizes):
    """`layer_components` on every subset of up to 3 characters,
    `intersection_components` on `pairs` layer pairs (all of them if there
    are fewer) and `triples` random triples, and `is_complete` and
    `layer_from_complete_set` on the localized subsets of the given sizes,
    the empty one and the whole: equal as sets to the torsion-solve and
    span-closure oracles, each layer the poset's own, in `Layer.key` order."""
    poset = arr._poset

    def same(got, want):
        assert set(got) == set(want) and len(got) == len(want)
        assert all(l is poset.layers[poset.ids[l]] for l in got)
        assert [l.key() for l in got] == sorted(l.key() for l in got)

    m = len(arr.characters)
    for size in (1, 2, 3):
        for subset in itertools.combinations(range(m), size):
            same(layer_components(arr, subset), oracle_layer_components(arr, subset))
    layers = poset.layers
    every_pair = list(itertools.combinations(layers, 2))
    families = rng.sample(every_pair, min(len(every_pair), pairs))
    if len(layers) >= 3:
        families += [tuple(rng.sample(layers, 3)) for _ in range(triples)]
    for members in families:
        same(
            intersection_components(arr, members),
            oracle_intersection_components(arr, members),
        )
    for p in poset.points:
        ground = localized(arr, p)
        subsets = [s for k in sizes for s in itertools.combinations(ground, k)]
        for subset in [(), ground, *subsets]:
            flat = oracle_closure(arr, ground, subset) == subset
            assert is_complete(arr, p, subset) == flat
            if flat and subset:
                got = layer_from_complete_set(arr, p, subset)
                assert got.key() == oracle_layer_from_flat(arr, p, subset).key()
                assert got is poset.layers[poset.ids[got]]


class TestPosetRoute:
    """The arrangement-level functions read one poset; the oracles solve
    each intersection and close each flat on their own."""

    @pytest.mark.parametrize("case", ORACLE_CASES + RANK_FOUR_CASES)
    def test_oracle_cases(self, case):
        check_poset_route(case_arrangement(case), random.Random(7), 150, 100, (1, 2))

    def test_random_arrangements(self):
        rng = random.Random(2027)
        for _ in range(150):
            check_poset_route(random_arrangement(rng), rng, 10, 3, ())


class TestLayerBasics:
    def test_equality_ignores_support(self, two_lines):
        arr, poset, _ = two_lines
        a = poset.layers[0]
        b = Layer(a.lattice, a.values, ())
        assert a == b and hash(a) == hash(b)

    def test_separately_built_layers_hash_equal(self):
        arr = random_arrangement(random.Random(5))
        first, second = build_poset(arr), build_poset(arr)
        assert len(first.layers) == len(second.layers) > 1
        for a, b in zip(first.layers, second.layers):
            assert a == b and a is not b and hash(a) == hash(b)
            # a layer made from fresh lattice and Fraction objects
            c = Layer(
                Sublattice(b.lattice.ambient_rank, tuple(map(tuple, b.lattice.basis))),
                tuple(F(v.numerator, v.denominator) for v in b.values),
            )
            assert hash(c) == hash(a) and c == a
        assert len({*first.layers, *second.layers}) == len(first.layers)

    def test_value_of(self, two_lines):
        _, poset, _ = two_lines
        h = next(l for l in poset.layers if l.lattice.basis == ((1, 1),))
        assert h.value_of((1, 1)) == 0
        assert h.value_of((2, 2)) == 0
        assert h.value_of((1, 0)) is None

    def test_containment_random(self):
        rng = random.Random(21)
        for _ in range(15):
            arr = random_arrangement(rng)
            poset = build_poset(arr)
            for a in poset.layers:
                assert a.contains(a)
            for p in poset.points:
                for l in poset.layers:
                    if l.contains(p):
                        assert set(l.support) <= set(p.support)
