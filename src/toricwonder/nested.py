"""Nested sets of layers: membership, centers, maximal enumeration.

Nestedness is decided by the incomparable-union criterion localized at a
common point: every antichain of members must have a complete union of
localized supports whose building-set decomposition is exactly the
antichain.  A witnessing flag is reconstructed afterwards by peeling
minimal members off and intersecting what remains.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import IsMinimal, NotAPoint, NotContained, NotInBuildingSet, NotNested
from .arrangement import (
    Arrangement,
    Layer,
    LayerPoset,
    components,
    is_complete,
    top_member,
)
from .decomposition import BuildingSet


@dataclass(frozen=True)
class Flag:
    """A strictly increasing chain of layers."""

    chain: tuple[Layer, ...]

    def __post_init__(self):
        for small, big in zip(self.chain, self.chain[1:]):
            assert big.contains(small) and big != small


@dataclass(frozen=True, eq=False)
class NestedSet:
    members: tuple[Layer, ...]
    center: Layer
    witness: Flag | None = None

    def __post_init__(self):
        object.__setattr__(
            self, "members", tuple(sorted(set(self.members), key=Layer.key))
        )

    def __eq__(self, other):
        if not isinstance(other, NestedSet):
            return NotImplemented
        return self.members == other.members

    def __hash__(self):
        return hash(self.members)

    def key(self):
        return tuple(m.key() for m in self.members)


def intersection_components(arr: Arrangement, members) -> list[Layer]:
    """Connected components of the intersection of the given layers."""
    return components(
        arr,
        [row for m in members for row in m.lattice.basis],
        [v for m in members for v in m.values],
    )


def is_nested(members, building: BuildingSet, poset: LayerPoset):
    """Decide nestedness; returns (bool, witness Flag or None)."""
    members = tuple(sorted(set(members), key=Layer.key))
    for m in members:
        if m not in building:
            raise NotInBuildingSet(f"{m} is not in the building set")
    if len(members) <= 1:
        return True, Flag(members)
    common = [
        p for p in poset.points if all(m.contains(p) for m in members)
    ]
    arr = poset.arrangement
    for p in common:
        if _nested_at_point(members, building, arr, p):
            return True, _witness_flag(members, arr, p)
    return False, None


def _nested_at_point(members, building, arr, p) -> bool:
    if len(set(tuple(m.support) for m in members)) != len(members):
        return False
    for size in range(2, len(members) + 1):
        for combo in itertools.combinations(members, size):
            if any(
                a.contains(b) or b.contains(a)
                for a, b in itertools.combinations(combo, 2)
            ):
                continue
            union = set().union(*(set(m.support) for m in combo))
            if not is_complete(arr, p, union):
                return False
            # the combo's supports cover `union`, so equality checks the cover too
            if building.decomposition_of(p, union) != {
                tuple(sorted(m.support)) for m in combo
            }:
                return False
    return True


def _witness_flag(members, arr, p) -> Flag:
    remaining = list(members)
    chain = []
    while remaining:
        comps = intersection_components(arr, remaining)
        # the intersection may be disconnected; keep the component through p
        layer = next(c for c in comps if c.contains(p))
        if not chain or chain[-1] != layer:
            chain.append(layer)
        minimal = [
            m
            for m in remaining
            if not any(o is not m and m.contains(o) for o in remaining)
        ]
        remaining = [m for m in remaining if m not in minimal]
    return Flag(tuple(chain))


def center(members, building: BuildingSet, poset: LayerPoset) -> Layer:
    """The intersection of a nested set, guaranteed connected."""
    ok, _ = is_nested(members, building, poset)
    if not ok:
        raise NotNested(f"{members} is not nested")
    comps = intersection_components(poset.arrangement, members)
    assert len(comps) == 1, "nested intersection must be connected"
    return comps[0]


def enumerate_maximal(
    poset: LayerPoset, p: Layer, building: BuildingSet
) -> list[NestedSet]:
    """All maximal nested sets with center `p`; each has n members."""
    if p.dim != 0:
        raise NotAPoint("maximal nested sets are enumerated per point")
    n = poset.arrangement.rank
    candidates = [m for m in building.members if m.contains(p)]
    out = []
    for combo in itertools.combinations(candidates, n):
        ok, witness = is_nested(combo, building, poset)
        if not ok:
            continue
        comps = intersection_components(poset.arrangement, combo)
        if len(comps) != 1 or comps[0] != p:
            continue
        out.append(NestedSet(tuple(combo), comps[0], witness))
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
