"""Integral and complex decompositions of character sets.

A partition of a vector set is a complex decomposition when block ranks
add up, and an integral decomposition when additionally the direct sum of
the block saturations is the saturation of the whole set (index one).
The finest integral decomposition exists and is unique; its blocks are
the irreducible pieces underlying the building set of layers.  Both it
and irreducibility come from one search: the first integral split of the
matroid components into two groups, recursed into each group.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from math import gcd

from .errors import InvalidBuildingSet, InvalidPartition, NotInPoset
from .arrangement import Layer, LayerPoset
from .lattices import Sublattice, saturate, smith_normal_form

Partition = tuple[tuple[int, ...], ...]


def _canonical_partition(blocks) -> Partition:
    blocks = tuple(tuple(sorted(b)) for b in blocks)
    return tuple(sorted(blocks, key=lambda b: b[0]))


def _check_vectors(vectors):
    if len({len(v) for v in vectors}) > 1:
        raise InvalidPartition(f"{vectors} mixes vector lengths")


def _check_partition(vectors, blocks: Partition):
    _check_vectors(vectors)
    flat = [i for b in blocks for i in b]
    if sorted(flat) != list(range(len(vectors))) or any(not b for b in blocks):
        raise InvalidPartition(f"{blocks} is not a partition of 0..{len(vectors) - 1}")


def _rank(vectors) -> int:
    if not vectors:
        return 0
    return Sublattice.from_rows(len(vectors[0]), vectors).rank


def is_complex_decomposition(vectors, blocks) -> bool:
    """True iff the block spans are rationally independent."""
    blocks = _canonical_partition(blocks)
    _check_partition(vectors, blocks)
    total = sum(_rank([vectors[i] for i in b]) for b in blocks)
    return total == _rank(vectors)


def is_integral_decomposition(vectors, blocks) -> bool:
    """True iff the block saturations direct-sum to the saturation of the whole."""
    blocks = _canonical_partition(blocks)
    _check_partition(vectors, blocks)
    n = len(vectors[0])
    sats = [saturate(Sublattice.from_rows(n, [vectors[i] for i in b])) for b in blocks]
    return _sums_to_saturation(sats, _rank(vectors))


def _sums_to_saturation(sats, rank: int) -> bool:
    """True iff `sats`, the saturated spans of the blocks of a vector set of
    the given `rank`, direct-sum to the saturation of the whole set."""
    if sum(s.rank for s in sats) != rank:
        return False
    # independent rows of full rank in the whole's saturation span it iff primitive
    stacked = tuple(row for s in sats for row in s.basis)
    return all(d == 1 for d in smith_normal_form(stacked).elementary_divisors)


def connected_components(vectors) -> Partition:
    """Components of the linear matroid, the classes its circuits join.

    Each vector, with its unit row appended, is reduced fraction-free against
    the rows kept so far, a greedy basis B; one that reduces to zero has its
    relation to B in the tail, whose support is its fundamental circuit.
    These circuits join every component (Oxley, Matroid Theory, ch. 4).
    """
    _check_vectors(vectors)
    rows: list[tuple[int, list[int]]] = []  # (pivot, vector part + combination)
    blocks = [{i} for i in range(len(vectors))]
    for e, v in enumerate(vectors):
        w = list(v) + [int(i == e) for i in range(len(vectors))]
        for p, row in rows:
            if w[p]:
                a, b = row[p], w[p]
                w = [a * x - b * y for x, y in zip(w, row)]
        if any(w[: len(v)]):
            g = gcd(*w)
            rows.append((next(j for j, x in enumerate(w) if x), [x // g for x in w]))
            continue
        circuit = {i for i, x in enumerate(w[len(v) :]) if x}
        joined = set().union(*(s for s in blocks if s & circuit))
        blocks = [s for s in blocks if not s & circuit] + [joined]
    return _canonical_partition(blocks)


def _integral_split(comps, lattice_of, rank: int) -> tuple[int, int] | None:
    """The first split (group, rest) of the components, disjoint bitmasks of
    a set whose span has the given `rank`, into two groups whose lattices
    (`lattice_of` the union mask of a group) direct-sum to the saturation of
    the whole; None if there is none.

    Grouping the blocks of an integral decomposition keeps it integral, so
    a set is Z-irreducible iff no such split exists.  The first component
    stays in the first group: 2^(c-1) - 1 splits of c components.
    """
    head, rest = comps[0], comps[1:]
    whole = functools.reduce(operator.or_, comps)
    for pick in range(2 ** len(rest) - 1):
        group = head
        for j, comp in enumerate(rest):
            if pick >> j & 1:
                group |= comp
        if _sums_to_saturation([lattice_of(group), lattice_of(whole & ~group)], rank):
            return group, whole & ~group
    return None


def finest_integral_decomposition(vectors) -> Partition:
    """The unique finest partition into irreducible blocks.

    The common refinement of two integral decompositions is integral, so
    the finest one refines every integral split of the matroid components
    into two groups.  A group of such a split is a union of components, and
    it splits integrally exactly as the finest blocks inside it do.  So a
    set with no split is one block, and otherwise its blocks are the finest
    blocks of each group of the first split found.  Each group is saturated
    once, when a split first tests it.
    """
    if not vectors:
        raise InvalidPartition("cannot decompose an empty set")
    n = len(vectors[0])

    @functools.cache
    def saturated(mask):
        rows = [v for i, v in enumerate(vectors) if mask >> i & 1]
        return saturate(Sublattice.from_rows(n, rows))

    def blocks(comps, rank):
        split = _integral_split(comps, saturated, rank)
        if split is None:
            return [functools.reduce(operator.or_, comps)]
        return [
            block
            for group in split
            for block in blocks([c for c in comps if c & group], saturated(group).rank)
        ]

    comps = [sum(1 << i for i in c) for c in connected_components(vectors)]
    return _canonical_partition(
        [i for i in range(len(vectors)) if mask >> i & 1]
        for mask in blocks(comps, _rank(vectors))
    )


def is_z_irreducible(vectors) -> bool:
    """True iff the finest integral decomposition is the whole set."""
    return len(finest_integral_decomposition(vectors)) == 1


def is_c_irreducible(vectors) -> bool:
    if not vectors:
        raise InvalidPartition("cannot decompose an empty set")
    return len(connected_components(vectors)) == 1


class _Local:
    """A building set seen from one layer p, usually a point.

    Among layers through p, containment is reverse inclusion of supports:
    a layer through p is the component through p of the intersection of
    its support's hypersurfaces, and those components are disjoint.  So
    the layers through p are told apart, and compared, by their support
    bitmasks alone, and every such support lies inside p's support.  The
    poset's table of the layers through p (`LayerPoset.flats_at`) is kept
    as `flats`, and a member passes through p iff the table holds it under
    its mask: `members` maps those masks to them, in building-set order.
    """

    def __init__(self, members, poset: LayerPoset, p: Layer):
        self.point = poset._own(p)
        self.flats = poset.flats_at(self.point)
        self.members = {m.mask: m for m in members if self.flats.get(m.mask) == m}
        self._parts: dict[int, frozenset[int]] = {}

    def decomposition(self, flat: int) -> frozenset[int]:
        """Masks of the maximal members whose support lies in the flat."""
        if flat not in self._parts:
            inside = [s for s in self.members if not s & ~flat]
            self._parts[flat] = frozenset(
                s for s in inside if not any(s != t and not s & ~t for t in inside)
            )
        return self._parts[flat]


@dataclass(frozen=True)
class BuildingSet:
    """A family of layers decomposing every localized flat."""

    members: tuple[Layer, ...]
    flavor: str  # "irreducible" | "custom"
    _locals: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def _at(self, poset: LayerPoset, p: Layer) -> _Local:
        """The building set seen from `p`, made once per layer.  A building
        set's views come from the poset it is used with; layers equal to p
        but without its support share p's view, made from the poset's p."""
        if p not in self._locals:
            self._locals[p] = _Local(self.members, poset, p)
        return self._locals[p]

    def members_through(self, p: Layer) -> list[Layer]:
        return [m for m in self.members if m.contains(p)]

    def __contains__(self, layer: Layer) -> bool:
        return layer in self.members


def irreducible_layers(poset: LayerPoset) -> BuildingSet:
    """All layers whose localized character set is Z-irreducible.

    A union B of matroid components of a layer L's support is closed in
    it, so B is a flat at L: the component of X_B through L is a layer
    with support B, and every layer with support B has the lattice
    sat(span B).  So each group's lattice is read off one table of the
    poset's layers by support mask, and no block is saturated again.
    """
    chars = poset.arrangement.characters
    lattices = {layer.mask: layer.lattice for layer in poset.layers}
    members = []
    for layer in poset.layers:
        comps = connected_components([chars[i].vector for i in layer.support])
        masks = [sum(1 << layer.support[k] for k in c) for c in comps]
        if _integral_split(masks, lattices.__getitem__, layer.lattice.rank) is None:
            members.append(layer)
    return BuildingSet(tuple(members), "irreducible")


def custom_building_set(poset: LayerPoset, members) -> BuildingSet:
    """A user-chosen building set; the defining property is validated: at
    each point, the parts of each flat partition it, and the parts' lattices,
    the saturated spans of their supports, direct-sum to the flat's."""
    members = tuple(sorted({poset._own(m) for m in members}, key=Layer.key))
    for m in members:
        if m not in poset:
            raise NotInPoset(f"{m} is not a layer of the arrangement")
    bs = BuildingSet(members, "custom")
    for p in poset.points:
        local = bs._at(poset, p)
        table = local.flats
        for mask, layer in table.items():
            if not mask:
                continue
            parts = local.decomposition(mask)
            # masks are disjoint iff their sum is their union
            if not sum(parts) == functools.reduce(operator.or_, parts, 0) == mask:
                raise InvalidBuildingSet(
                    f"flat {layer.support} at point {p.values} is not covered"
                )
            sats = [table[s].lattice for s in parts]
            if not _sums_to_saturation(sats, layer.lattice.rank):
                raise InvalidBuildingSet(
                    f"flat {layer.support} at point {p.values} is not decomposed"
                )
    return bs


def factors(poset: LayerPoset, layer: Layer, building: BuildingSet) -> list[Layer]:
    """The building-set factors of a layer; their intersection is the layer."""
    if layer not in poset:
        raise NotInPoset(f"{layer} is not a layer of the arrangement")
    # factors are the minimal members above the layer, i.e. the ones with
    # maximal support inside the layer's support
    local = building._at(poset, layer)
    parts = local.decomposition(local.point.mask)
    return sorted((local.members[s] for s in parts), key=Layer.key)
