"""Independent brute-force oracles and random instance generators.

These deliberately avoid the library's own search strategies: the layer
oracle solves the torsion system of every character subset, the Hasse
oracle tests every triple of layers, the matroid-component oracle tests
every vector subset for a circuit, the flat oracle closes every subset
of the localized characters, the decomposition oracle scans every set
partition, and the nestedness oracle enumerates every flag of layers
and collects the factor sets.  The nested-set scans decide every subset
of building-set members on its own, with `Layer.contains` and
`is_complete` at each common point, and keep the ones that pass.  The
expansion oracle is the original residual-vector expansion of a character
in a chart: it finds each member by an exact `Layer.value_of` scan and
stops where a residual has no component on its largest constant member.
The inverse and determinant oracles are `Fraction` Gauss-Jordan and Gauss
eliminations, independent of the library's integer Hermite form.
"""

import itertools
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from toricwonder import (
    Arrangement,
    Flag,
    Layer,
    NestedSet,
    NotUnimodular,
    Sublattice,
    WeightedCharacter,
    build_poset,
    factors,
    intersection_components,
    is_complete,
    is_integral_decomposition,
    layer_components,
    localized,
    normalize,
)
from toricwonder.arrangement import _closure
from toricwonder.charts import BetaTerm, ChartFunction, maximal_constant_member
from toricwonder.cli import parse_file
from toricwonder.lattices import mod1, vec_mat

ROOT = Path(__file__).resolve().parent.parent
ARR_FILES = sorted((ROOT / "perfbench" / "families").glob("*.arr")) + sorted(
    (ROOT / "examples_data").glob("*.arr")
)
# every bench family (read only), both examples and 30 seeded random ones
ORACLE_CASES = [pytest.param(p, id=p.stem) for p in ARR_FILES] + [
    pytest.param(seed, id=f"random-{seed}") for seed in range(30)
]


def case_arrangement(case):
    if isinstance(case, int):
        return random_arrangement(random.Random(case))
    return parse_file(str(case))[0]


def oracle_inverse(mat):
    """Exact inverse of a unimodular matrix by `Fraction` Gauss-Jordan."""
    n = len(mat)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise NotUnimodular(f"matrix {mat} is singular")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    if any(x.denominator != 1 for row in a for x in row[n:]):
        raise NotUnimodular(f"matrix {mat} is not unimodular")
    return tuple(tuple(int(x) for x in row[n:]) for row in a)


def oracle_determinant(mat) -> Fraction:
    """Determinant of a square integer matrix by `Fraction` Gauss elimination."""
    n = len(mat)
    a = [[Fraction(x) for x in row] for row in mat]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                f = a[r][col] * inv
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


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


def oracle_connected_components(vectors):
    """Matroid components from every subset: each circuit joins its members."""

    def rank(rows):
        return Sublattice.from_rows(len(rows[0]), rows).rank if rows else 0

    n = len(vectors)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    independent = {(): True}
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            independent[subset] = rank([vectors[i] for i in subset]) == size
            # a circuit is dependent with every maximal proper subset independent
            if not independent[subset] and all(
                independent[subset[:k] + subset[k + 1 :]] for k in range(size)
            ):
                for i in subset[1:]:
                    parent[find(i)] = find(subset[0])
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return tuple(sorted(tuple(g) for g in groups.values()))


def oracle_complete_subsets(arr, p):
    """Every flat at the point `p`: the closure of each localized subset."""
    ground = localized(arr, p)
    flats = {
        _closure(arr, ground, subset)
        for size in range(len(ground) + 1)
        for subset in itertools.combinations(ground, size)
    }
    return sorted(flats, key=lambda f: (len(f), f))


def root_system(kind, n):
    """A_n in simple-root coordinates, B_n or C_n in the e-basis; every
    root with the constant 0."""
    if kind == "A":
        roots = [
            tuple(int(i <= k <= j) for k in range(n))
            for i in range(n)
            for j in range(i, n)
        ]
    else:
        unit = [tuple(int(k == i) for k in range(n)) for i in range(n)]
        scale = {"B": 1, "C": 2}[kind]
        roots = [tuple(scale * x for x in e) for e in unit] + [
            tuple(a + s * b for a, b in zip(unit[i], unit[j]))
            for i in range(n)
            for j in range(i + 1, n)
            for s in (1, -1)
        ]
    return normalize(n, [(v, 0) for v in roots])


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


class _Memo:
    """Containment and completeness answers for one scan, which asks each
    many times.  Keys are object ids: every layer asked about is held by
    the poset, the building set or the caller until the scan returns."""

    def __init__(self, arr):
        self.arr = arr
        self._contains = {}
        self._complete = {}
        self._through = {}

    def contains(self, a, b):
        key = (id(a), id(b))
        if key not in self._contains:
            self._contains[key] = a.contains(b)
        return self._contains[key]

    def through(self, building, p):
        """Supports of the building-set members that contain `p`."""
        if id(p) not in self._through:
            self._through[id(p)] = [
                set(m.support) for m in building.members if self.contains(m, p)
            ]
        return self._through[id(p)]

    def complete(self, p, union):
        key = (id(p), union)
        if key not in self._complete:
            self._complete[key] = is_complete(self.arr, p, union)
        return self._complete[key]


def _nested_at_point(members, building, memo, p):
    """Every antichain has a flat union of supports decomposed into itself."""
    if len(set(m.support for m in members)) != len(members):
        return False
    through = memo.through(building, p)
    for size in range(2, len(members) + 1):
        for combo in itertools.combinations(members, size):
            if any(
                memo.contains(a, b) or memo.contains(b, a)
                for a, b in itertools.combinations(combo, 2)
            ):
                continue
            union = frozenset().union(*(m.support for m in combo))
            if not memo.complete(p, union):
                return False
            inside = [s for s in through if s <= union]
            maximal = {frozenset(s) for s in inside if not any(s < t for t in inside)}
            if maximal != {frozenset(m.support) for m in combo}:
                return False
    return True


def _witness_flag(members, memo, p):
    remaining = list(members)
    chain = []
    while remaining:
        comps = intersection_components(memo.arr, remaining)
        layer = next(c for c in comps if c.contains(p))
        if not chain or chain[-1] != layer:
            chain.append(layer)
        remaining = [
            m
            for m in remaining
            if any(o is not m and memo.contains(m, o) for o in remaining)
        ]
    return Flag(tuple(chain))


def _is_nested(members, building, poset, memo):
    members = tuple(sorted(set(members), key=Layer.key))
    if len(members) <= 1:
        return True, Flag(members)
    for p in poset.points:
        if all(memo.contains(m, p) for m in members) and _nested_at_point(
            members, building, memo, p
        ):
            return True, _witness_flag(members, memo, p)
    return False, None


def oracle_is_nested(members, building, poset):
    """(nested, witness Flag or None), trying each common point in turn."""
    return _is_nested(members, building, poset, _Memo(poset.arrangement))


def oracle_maximal_nested(poset, p, building):
    """Maximal nested sets centred at the point `p`, from every n-subset."""
    memo = _Memo(poset.arrangement)
    candidates = [m for m in building.members if memo.contains(m, p)]
    out = []
    for combo in itertools.combinations(candidates, memo.arr.rank):
        ok, witness = _is_nested(combo, building, poset, memo)
        if not ok:
            continue
        comps = intersection_components(memo.arr, combo)
        if len(comps) == 1 and comps[0] == p:
            out.append(NestedSet(combo, comps[0], witness))
    return sorted(out, key=NestedSet.key)


def oracle_all_nested(poset, building, within):
    """Every nested subset of `within`, by size, from all 2^k subsets."""
    memo = _Memo(poset.arrangement)
    return [
        combo
        for size in range(1, len(within) + 1)
        for combo in itertools.combinations(within, size)
        if _is_nested(combo, building, poset, memo)[0]
    ]


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


def oracle_expand(chart, vector, value):
    """The unit function of a character through the chart center, peeling
    the residual character's largest constant member, found by an exact
    scan of every member, until nothing is left; None where a residual has
    no component on that member."""
    terms, pref, cur, base = [], Fraction(0), tuple(vector), None
    while any(cur):
        layer = maximal_constant_member(chart.members, chart.point_coordinates, cur)
        c = chart.members.index(layer)
        base = c if base is None else base
        coeffs = vec_mat(cur, chart._basis_inv)
        m = coeffs[c]
        if m == 0:
            return None
        above = chart.below_inverse(c)
        monomial = [(j, coeffs[j]) for j in above if j != c and coeffs[j] != 0]
        sign, angle, k = 1, pref, abs(m)
        if m < 0:
            sign = -1
            monomial.append((c, m))
            angle += m * chart.constants[c]
        linear = tuple(
            (c, mod1(chart.constants[c] + Fraction(j, k))) for j in range(1, k)
        )
        terms.append(BetaTerm(c, sign, mod1(angle), tuple(monomial), linear))
        pref += m * chart.constants[c]
        cur = tuple(x - m * y for x, y in zip(cur, chart.basis[c]))
    return ChartFunction(chart, tuple(vector), value, base, tuple(terms))
