"""Independent brute-force oracles and random instance generators.

These deliberately avoid the library's own search strategies: the layer
oracle solves the torsion system of every character subset, the Hasse
oracle tests every triple of layers, the decomposition oracle scans every
set partition, and the nestedness oracle enumerates every flag of layers
and collects the factor sets.
"""

import itertools
import random
from fractions import Fraction
from math import gcd

from toricwonder import (
    Arrangement,
    Layer,
    WeightedCharacter,
    build_poset,
    factors,
    is_integral_decomposition,
    layer_components,
    normalize,
)


def oracle_layers(arr):
    """Every layer, in canonical order, from all 2^m - 1 character subsets."""
    found = {}
    m = len(arr.characters)
    for size in range(1, m + 1):
        for subset in itertools.combinations(range(m), size):
            for layer in layer_components(arr, subset):
                found.setdefault(layer, layer)
    return sorted(found, key=Layer.key)


def oracle_hasse_edges(poset):
    """Covering pairs by definition: a < b and no layer c with a < c < b."""

    def below(a, b):
        return a is not b and b.contains(a)

    layers = poset.layers
    return [
        (a, b)
        for a, b in itertools.permutations(layers, 2)
        if below(a, b) and not any(below(a, c) and below(c, b) for c in layers)
    ]


def set_partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [head]] + part[i + 1 :]
        yield [[head]] + part


def oracle_finest(vectors):
    """(finest integral partition, uniqueness flag) by exhaustive scan."""
    best = []
    best_count = 0
    for part in set_partitions(range(len(vectors))):
        blocks = tuple(sorted(tuple(sorted(b)) for b in part))
        if not is_integral_decomposition(vectors, blocks):
            continue
        if len(blocks) > best_count:
            best_count = len(blocks)
            best = [blocks]
        elif len(blocks) == best_count:
            best.append(blocks)
    assert best, "the trivial partition is always integral"
    return best[0], len(best) == 1


def all_flags(poset):
    """Every chain of layers, as tuples ordered small to large."""
    layers = poset.layers
    chains = [(l,) for l in layers]
    out = list(chains)
    while chains:
        extended = []
        for chain in chains:
            top = chain[-1]
            for l in layers:
                if l != top and l.contains(top):
                    extended.append(chain + (l,))
        out.extend(extended)
        chains = extended
    return out


def oracle_nested_family(poset, building):
    """All nested sets, as the factor sets of all flags (frozensets)."""
    fam = set()
    for flag in all_flags(poset):
        members = set()
        for layer in flag:
            members.update(factors(poset, layer, building))
        fam.add(frozenset(members))
    return fam


def random_vectors(rng: random.Random, rank=None, count=None):
    rank = rank or rng.randint(1, 3)
    count = count or rng.randint(1, 6)
    out = []
    while len(out) < count:
        v = tuple(rng.randint(-2, 2) for _ in range(rank))
        if any(v):
            out.append(v)
    return out


def random_arrangement(rng: random.Random, rank=None, count=None) -> Arrangement:
    rank = rank or rng.randint(1, 3)
    count = count or rng.randint(rank, 5)
    while True:
        raw = []
        for _ in range(count):
            v = tuple(rng.randint(-2, 2) for _ in range(rank))
            if not any(v):
                v = tuple(int(i == 0) for i in range(rank))
            q = rng.randint(1, 4)
            raw.append((v, Fraction(rng.randrange(q), q)))
        try:
            return normalize(rank, raw)
        except Exception:
            continue
