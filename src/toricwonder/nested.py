"""Nested sets of layers: membership, centers, maximal enumeration.

Nestedness is decided by the incomparable-union criterion localized at a
common point: every antichain of members must have a complete union of
localized supports whose building-set decomposition is exactly the
antichain.  A witnessing flag is reconstructed afterwards by peeling
minimal members off; each intersection of what remains is read, through
the common point, from the poset's table of the layers through it.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

from .errors import IsMinimal, NotAPoint, NotContained, NotInBuildingSet, NotInPoset, NotNested
from .arrangement import Arrangement, Layer, LayerPoset, layer_components, top_member
from .decomposition import BuildingSet
from .lattices import hermite_basis


@dataclass(frozen=True)
class Flag:
    """A strictly increasing chain of layers."""

    chain: tuple[Layer, ...]

    def __post_init__(self):
        for small, big in zip(self.chain, self.chain[1:]):
            if big == small or not big.contains(small):
                raise NotNested(f"{self.chain} is not strictly increasing")


@dataclass(frozen=True, eq=False)
class NestedSet:
    members: tuple[Layer, ...]
    center: Layer
    witness: Flag | None = None

    def __post_init__(self):
        object.__setattr__(
            self, "members", tuple(sorted(set(self.members), key=Layer.key))
        )

    # the member order reads `support`, which layer equality ignores
    def __eq__(self, other):
        if not isinstance(other, NestedSet):
            return NotImplemented
        return set(self.members) == set(other.members)

    def __hash__(self):
        return hash(frozenset(self.members))

    def key(self):
        return tuple(m.key() for m in self.members)


def intersection_components(arr: Arrangement, members) -> list[Layer]:
    """The components of the intersection of the given layers of `arr`, in
    `Layer.key` order, and [torus] for none: the components cut out by the
    members' supports that lie in every member, as each lies in it or misses it."""
    poset = arr._poset
    own = [poset._own(m) for m in members]
    for m in own:
        if m not in poset:
            raise NotInPoset(f"{m} is not a layer of the arrangement")
    union = {i for m in own for i in m.support}
    comps = layer_components(arr, union) if union else [poset.torus]
    return [c for c in comps if all(m.contains(c) for m in own)]


def is_nested(members, building: BuildingSet, poset: LayerPoset):
    """Decide nestedness; returns (bool, witness Flag or None)."""
    members = tuple(sorted(set(members), key=Layer.key))
    for m in members:
        if m not in building:
            raise NotInBuildingSet(f"{m} is not in the building set")
    if len(members) <= 1:
        return True, Flag(members)
    masks = [poset._own(m).mask for m in members]
    union = functools.reduce(operator.or_, masks)
    for p in poset.points:
        # a member through p has its support inside p's
        if union & ~p.mask:
            continue
        local = building._at(poset, p)
        if all(local.members.get(s) == m for s, m in zip(masks, members)) and all(
            _extends(local, masks[:k], masks[k]) for k in range(1, len(masks))
        ):
            return True, _witness_flag(local, masks)
    return False, None


def _extends(local, chosen, x) -> bool:
    """Whether the members `chosen` at a point, by mask, stay nested there
    with the member of mask `x` added.

    A set is nested at p iff every antichain of two or more members has a
    flat union of supports whose decomposition is the antichain itself.
    `chosen` is nested already, so only the antichains through x remain.
    """
    # supports of members through one point are comparable iff the members are
    others = [c for c in chosen if x & ~c and c & ~x]
    for size in range(1, len(others) + 1):
        for combo in itertools.combinations(others, size):
            if all(a & ~b and b & ~a for a, b in itertools.combinations(combo, 2)):
                union = functools.reduce(operator.or_, combo, x)
                parts = {x, *combo}
                if union not in local.flats or local.decomposition(union) != parts:
                    return False
    return True


def _nested_sets(local, candidates, size=None):
    """The nested sets at a point among `candidates` (masks of its
    members), in lexicographic order, none larger than `size`.

    Subsets of a nested set are nested, so a failing prefix is pruned.
    """

    def grow(chosen, start):
        yield chosen
        if len(chosen) == size:
            return
        for k in range(start, len(candidates)):
            if _extends(local, chosen, candidates[k]):
                yield from grow(chosen + (candidates[k],), k + 1)

    return grow((), 0)


def _all_nested(
    poset: LayerPoset, building: BuildingSet, within
) -> list[tuple[Layer, ...]]:
    """Every nested set of members from `within`, by size, then by position.

    Two or more members are nested when they are nested at a common point,
    so the family is the union of the points' complexes.  It holds every
    singleton too: the characters span the lattice, so every layer
    passes through a point.
    """
    position = {m: k for k, m in enumerate(within)}
    found = set()
    for p in poset.points:
        local = building._at(poset, p)
        candidates = [s for s, m in local.members.items() if m in position]
        for chosen in _nested_sets(local, candidates):
            found.add(tuple(local.members[s] for s in chosen))
    found.discard(())
    return sorted(found, key=lambda s: (len(s), [position[m] for m in s]))


def _connected(members, component: Layer) -> bool:
    """Whether the intersection of members is its `component`: it has one
    component per coset of their lattices' sum in its saturation."""
    rows = [r for m in members for r in m.lattice.basis]
    return hermite_basis(rows) == component.lattice.basis


def _witness_flag(local, chosen) -> Flag:
    """The components through the view's point p, maybe one of several, of
    the intersections left as minimal members are peeled off a family nested
    at p, given by masks.  Each union of supports is an antichain's or one
    member's, a flat at p (`_extends`)."""
    remaining = list(chosen)
    chain = []
    while remaining:
        layer = local.flats[functools.reduce(operator.or_, remaining)]
        if not chain or chain[-1] != layer:
            chain.append(layer)
        # keep the members holding another: through p, t lies in s iff s <= t
        remaining = [
            s for s in remaining if any(t != s and not s & ~t for t in remaining)
        ]
    return Flag(tuple(chain))


def center(members, building: BuildingSet, poset: LayerPoset) -> Layer:
    """The intersection of a nested set, guaranteed connected."""
    ok, witness = is_nested(members, building, poset)
    if not ok:
        raise NotNested(f"{members} is not nested")
    # the witness starts at the component through a common point; [] gives the torus
    bottom = witness.chain[0] if witness.chain else poset.torus
    if not _connected(members, bottom):
        raise NotNested(f"the intersection of {members} is not connected")
    return bottom


def enumerate_maximal(
    poset: LayerPoset, p: Layer, building: BuildingSet
) -> list[NestedSet]:
    """All maximal nested sets with center `p`; each has n members."""
    if p.dim != 0:
        raise NotAPoint("maximal nested sets are enumerated per point")
    n = poset.arrangement.rank
    local = building._at(poset, p)
    p = local.point
    # center p iff the lattices sum to a saturated one; every covering set
    # sums as its minimal members, p or p's parts (`_extends`): test once
    parts = local.decomposition(p.mask)
    if not _connected([local.members[s] for s in parts], p):
        return []
    out = []
    for chosen in _nested_sets(local, list(local.members), n):
        # the center is p iff the flat of the supports is p's
        if len(chosen) < n or functools.reduce(operator.or_, chosen) != p.mask:
            continue
        members = tuple(local.members[s] for s in chosen)
        out.append(NestedSet(members, p, _witness_flag(local, chosen)))
    return sorted(out, key=NestedSet.key)


def enumerate_all_maximal(poset: LayerPoset, building: BuildingSet) -> list[NestedSet]:
    out = []
    for p in poset.points:
        out.extend(enumerate_maximal(poset, p, building))
    return out


def core(nested_set: NestedSet, layer: Layer) -> Layer:
    """The maximum member contained in `layer`; exists when the center is."""
    inside = [m for m in nested_set.members if layer.contains(m)]
    if not inside:
        raise NotContained(f"no member of the nested set lies inside {layer}")
    return top_member(inside)


def successor(nested_set: NestedSet, layer: Layer) -> Layer:
    """The maximum member properly contained in a non-minimal member."""
    inside = [
        m for m in nested_set.members if layer.contains(m) and m != layer
    ]
    if not inside:
        raise IsMinimal(f"{layer} is minimal in the nested set")
    return top_member(inside)
