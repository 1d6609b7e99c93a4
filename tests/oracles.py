"""Independent brute-force oracles and random instance generators.

These deliberately avoid the library's own search strategies: the layer
oracle solves the torsion system of every character subset, the Hasse
oracle tests every triple of layers, the matroid-component oracles test
every vector subset for a circuit or rank-test each fundamental circuit
of a greedy basis, the integrality oracle compares the Hermite basis of
the block saturations with the saturation of the whole, the flat oracle
closes every subset of the localized characters, the decomposition
oracles scan every set partition, or every coarsening of the circuit
components, and the nestedness oracle enumerates every flag of layers
and collects the factor sets.  The nested-set scans decide every subset
of building-set members on its own, with `Layer.contains` and a
span-closure flat test at each common point, and keep the ones that
pass.  The intersection-path oracles keep the library's backtracking
search but take each center and witness flag from the components of an
intersection, each solved as one torsion system.  The adapted-basis
oracle is the original recursive peel with no memo, and the
constant-member oracle finds a character's largest constant member by an
exact `Layer.value_of` scan.  The expansion oracle is the original
residual-vector expansion of a character in a chart: it finds each member
by that scan and stops where a residual has no component on its largest
constant member.
The peel-expansion oracle is the library's expansion with its angles as
`Fraction` sums.  The sweep oracles evaluate the charts one sample, one
unit function and one term at a time, from the dense inverse basis and
fresh roots of unity, as the library's sweeps once did.
The inverse and determinant oracles are `Fraction` Gauss-Jordan and Gauss
eliminations, independent of the library's integer Hermite form.  The
pairing oracle sums `Fraction` products, independent of the library's
integer numerators.  The characteristic-polynomial oracle is the subset
sum over all 2^m character subsets, each solved as one torsion system.
The frame-walk oracle is the layer walk that recomputes each layer's
frame from its lattice by a Smith form and carries its points as
`Fraction`s, as `build_poset` once did.
The building-set oracle checks each flat at each point on the support
tuples of its maximal members with `is_integral_decomposition`, which
saturates every block again.
The bitset Hasse oracle takes the transitive reduction of every
containment over bitsets, and the coarsening oracle tests every
coarsening of the matroid components with the library's Smith-form
test, as `hasse_edges` and `finest_integral_decomposition` once did.
The components oracle solves one torsion system by a Smith form and the
closure oracle closes a character set by span, as `layer_components`,
`intersection_components` and `is_complete` once did; the oracles above
that name components, closures or flats use these two and never the
library's poset.
The grown-flat oracle closes flats one character at a time by span
tests, the adaptedness oracle checks each chart member with a Hermite
form, and the connected-maximal oracle tests each maximal nested set's
intersection for connectivity on its own, as `complete_subsets`,
`build_chart` and `enumerate_maximal` once did.
The per-point oracles evaluate a chart at one point on scalars, with the
products in the order of the library's columns, and the cover oracle
tests each of its points chart by chart in turn, as `in_chart`,
`chart_to_torus`, `torus_to_chart`, unit functions and `cover_sweep` once
did.
"""

import cmath
import functools
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
    NotAdapted,
    NotUnimodular,
    OnDivisor,
    OutsideDomain,
    Sublattice,
    WeightedCharacter,
    build_poset,
    connected_components,
    factors,
    is_integral_decomposition,
    localized,
    normalize,
    saturate,
)
from toricwonder.decomposition import _sums_to_saturation
from toricwonder.nested import _connected, _nested_sets
from toricwonder.arrangement import make_layer, top_member
from toricwonder.charts import BetaTerm, ChartFunction, _sparse, unit_root
from toricwonder.cli import parse_file
from toricwonder.lattices import (
    express_in_rows,
    hermite_basis,
    identity_matrix,
    intersect,
    invert_unimodular,
    mod1,
    pairing,
    smith_normal_form,
    solve_torsion_system,
    vec_mat,
)

ROOT = Path(__file__).resolve().parent.parent
ARR_FILES = sorted((ROOT / "perfbench" / "families").glob("*.arr")) + sorted(
    (ROOT / "examples_data").glob("*.arr")
)
# every bench family (read only), both examples and 30 seeded random ones
ORACLE_CASES = [pytest.param(p, id=p.stem) for p in ARR_FILES] + [
    pytest.param(seed, id=f"random-{seed}") for seed in range(30)
]
# the rank-4 root systems, as (kind, rank) for `root_system`
RANK_FOUR_CASES = [pytest.param((kind, 4), id=f"{kind}4") for kind in "ABC"]


def case_arrangement(case):
    if isinstance(case, int):
        return random_arrangement(random.Random(case))
    if isinstance(case, tuple):
        return root_system(*case)
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


@functools.lru_cache(maxsize=4096)
def _chart_inverse(basis):
    """`oracle_inverse` of a chart basis, computed once per basis."""
    return oracle_inverse(basis)


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


def oracle_pairing(vector, phi) -> Fraction:
    """The value mod 1 of `vector` at `phi`, summed as `Fraction` products."""
    return Fraction(sum(Fraction(x) * q for x, q in zip(vector, phi) if x)) % 1


def oracle_components(arr, rows, values):
    """The connected components of {t : t^row = exp(2 pi i value)}."""
    sol = solve_torsion_system(rows, values)
    if sol is None:
        return []
    lattice = sol.smith.row_saturation
    return [
        make_layer(arr, lattice, tuple(pairing(row, phi) for row in lattice.basis))
        for phi in sol.representatives
    ]


def oracle_closure(arr, ground, subset):
    """The characters of `ground` in the rational span of `subset`: an
    integer vector is in that span iff it is in the span's saturation."""
    span = Sublattice.from_rows(arr.rank, [arr.characters[i].vector for i in subset])
    sat = saturate(span)
    return tuple(i for i in ground if arr.characters[i].vector in sat)


def oracle_layer_components(arr, subset):
    """The components cut out by the characters of `subset`, solved as one
    torsion system."""
    chars = [arr.characters[i] for i in subset]
    return oracle_components(arr, [ch.vector for ch in chars], [ch.value for ch in chars])


def oracle_intersection_components(arr, members):
    """The components of the intersection of the layers `members`, solved
    as one torsion system."""
    return oracle_components(
        arr,
        [row for m in members for row in m.lattice.basis],
        [v for m in members for v in m.values],
    )


def oracle_is_complete(arr, p, subset):
    """Whether `subset` is a flat at the point `p`: its closure by span
    among the localized characters is itself."""
    ground = localized(arr, p)
    subset = tuple(sorted(subset))
    if any(i not in ground for i in subset):
        return False
    return oracle_closure(arr, ground, subset) == subset


def oracle_layer_from_flat(arr, p, subset):
    """The layer through the point `p` whose lattice is the saturated span
    of the flat `subset`, with its values read at p."""
    lattice = saturate(
        Sublattice.from_rows(arr.rank, [arr.characters[i].vector for i in subset])
    )
    return make_layer(arr, lattice, [pairing(row, p.coordinates) for row in lattice.basis])


def oracle_characteristic_polynomial(arr):
    """Sum over all character subsets S of (-1)^|S| q^dim C over the
    components C of X_S (X_{} is the torus), as coefficients from q^n down."""
    coeffs = [0] * (arr.rank + 1)
    coeffs[0] = 1
    m = len(arr.characters)
    for size in range(1, m + 1):
        for subset in itertools.combinations(range(m), size):
            for layer in oracle_layer_components(arr, subset):
                coeffs[arr.rank - layer.dim] += (-1) ** size
    return coeffs


def oracle_layers(arr):
    """Every layer, in canonical order, from all 2^m - 1 character subsets."""
    found = {}
    m = len(arr.characters)
    for size in range(1, m + 1):
        for subset in itertools.combinations(range(m), size):
            for layer in oracle_layer_components(arr, subset):
                found.setdefault(layer, layer)
    return sorted(found, key=Layer.key)


def _oracle_frame(lattice):
    """(K, C) for a saturated lattice of rank r: one Smith form U B V = D of
    its basis B, K the columns of V past r and C the rows of V^-1 past r."""
    if lattice.rank == 0:
        eye = identity_matrix(lattice.ambient_rank)
        return eye, eye
    right = smith_normal_form(lattice.basis).right
    kernel = tuple(zip(*right))[lattice.rank :]
    return kernel, invert_unimodular(right)[lattice.rank :]


def oracle_frame_walk(arr):
    """Every layer, in canonical order, by the walk that recomputes each
    layer's frame from its lattice (one Smith form and one unimodular
    inverse per layer) and carries its point as `Fraction`s: each cut
    direction a' gets an integer u with a' u = 1 from a Hermite form."""
    n = arr.rank
    found = set()
    work = [(Layer(Sublattice.zero(n), ()), (Fraction(0),) * n)]
    while work:
        layer, phi = work.pop()
        if layer.dim == 0:
            continue
        kernel, complement = _oracle_frame(layer.lattice)
        cuts = {}
        for i, ch in enumerate(arr.characters):
            a = tuple(sum(x * y for x, y in zip(ch.vector, k)) for k in kernel)
            if any(a):
                g = gcd(*a) if next(x for x in a if x) > 0 else -gcd(*a)
                cuts.setdefault(tuple(x // g for x in a), []).append((ch, g, i))
        for prim, members in cuts.items():
            translates = {}
            for ch, g, i in members:
                base = ch.value - pairing(ch.vector, phi)
                for j in range(abs(g)):
                    translates.setdefault(mod1((base + j) / g), []).append(i)
            lattice = Sublattice.from_rows(
                n, layer.lattice.basis + (vec_mat(prim, complement),)
            )
            u = express_in_rows(tuple((x,) for x in prim), (1,))
            step = vec_mat(u, kernel)
            for shift, on in translates.items():
                point = tuple(
                    mod1(p + shift * s) if s else p for p, s in zip(phi, step)
                )
                values = tuple(pairing(row, point) for row in lattice.basis)
                if Layer(lattice, values) not in found:
                    support = tuple(sorted(layer.support + tuple(on)))
                    new = Layer(lattice, values, support)
                    found.add(new)
                    work.append((new, point))
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


def oracle_bitset_hasse_edges(poset):
    """Covering pairs as the transitive reduction of every containment
    a < b with nested support masks and a smaller dimension, read off
    bitsets of the layers below and above each layer."""
    layers = poset.layers
    less = [
        (a, b)
        for a, b in itertools.product(range(len(layers)), repeat=2)
        if not layers[b].mask & ~layers[a].mask
        and layers[a].dim < layers[b].dim
        and layers[b].contains(layers[a])
    ]
    below, above = [0] * len(layers), [0] * len(layers)
    for a, b in less:
        below[b] |= 1 << a
        above[a] |= 1 << b
    return [(layers[a], layers[b]) for a, b in less if above[a] & below[b] == 0]


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


def oracle_is_integral_decomposition(vectors, blocks):
    """Integrality by definition: the Hermite basis of the stacked block
    saturations is the saturation of the whole (`blocks` is a partition)."""
    n = len(vectors[0])
    sats = [saturate(Sublattice.from_rows(n, [vectors[i] for i in b])) for b in blocks]
    whole = Sublattice.from_rows(n, vectors)
    if sum(s.rank for s in sats) != whole.rank:
        return False
    joint = Sublattice.from_rows(n, [row for s in sats for row in s.basis])
    return joint == saturate(whole)


def oracle_finest(vectors):
    """(finest integral partition, uniqueness flag) by exhaustive scan."""
    best = []
    best_count = 0
    for part in set_partitions(range(len(vectors))):
        blocks = tuple(sorted(tuple(sorted(b)) for b in part))
        if not oracle_is_integral_decomposition(vectors, blocks):
            continue
        if len(blocks) > best_count:
            best_count = len(blocks)
            best = [blocks]
        elif len(blocks) == best_count:
            best.append(blocks)
    assert best, "the trivial partition is always integral"
    return best[0], len(best) == 1


def oracle_coarsening_finest(vectors):
    """The finest integral partition as the coarsening of the matroid
    components into the most blocks that passes `_sums_to_saturation`,
    each distinct block saturated once."""
    comps = connected_components(vectors)
    best = (tuple(range(len(vectors))),)
    n = len(vectors[0])
    rank = Sublattice.from_rows(n, vectors).rank
    sats = {}
    for grouping in set_partitions(range(len(comps))):
        if len(grouping) <= len(best):
            continue
        blocks = []
        for group in map(frozenset, grouping):
            if group not in sats:
                rows = [vectors[i] for i in sorted(i for c in group for i in comps[c])]
                sats[group] = saturate(Sublattice.from_rows(n, rows))
            blocks.append(sats[group])
        if _sums_to_saturation(blocks, rank):
            blocks = [sorted(i for c in group for i in comps[c]) for group in grouping]
            best = tuple(sorted(map(tuple, blocks), key=lambda b: b[0]))
    return best


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


def oracle_circuit_components(vectors):
    """Matroid components from the fundamental circuits of a greedy basis B:
    the circuit of another vector e is e and each b in B with B - b + e a
    basis, found by one Hermite-form rank test per pair."""

    def rank(rows):
        return Sublattice.from_rows(len(rows[0]), rows).rank if rows else 0

    basis = []
    for i, v in enumerate(vectors):
        if rank([vectors[b] for b in basis] + [v]) > len(basis):
            basis.append(i)
    blocks = [{i} for i in range(len(vectors))]
    for e, v in enumerate(vectors):
        if e in basis:
            continue
        circuit = {e}.union(
            b
            for b in basis
            if rank([vectors[c] for c in basis if c != b] + [v]) == len(basis)
        )
        joined = set().union(*(s for s in blocks if s & circuit))
        blocks = [s for s in blocks if not s & circuit] + [joined]
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


def oracle_irreducible_layers(poset):
    """The layers whose support has a one-block finest integral partition,
    searched over every coarsening of the circuit components (the trivial
    one included) with `oracle_is_integral_decomposition`."""
    chars = poset.arrangement.characters
    members = []
    for layer in poset.layers:
        vectors = [chars[i].vector for i in layer.support]
        comps = oracle_circuit_components(vectors)
        finest = []
        for grouping in set_partitions(range(len(comps))):
            blocks = [[i for c in g for i in comps[c]] for g in grouping]
            if len(blocks) > len(finest) and oracle_is_integral_decomposition(
                vectors, blocks
            ):
                finest = blocks
        if len(finest) == 1:
            members.append(layer)
    return members


def oracle_building_set_error(poset, members):
    """The message `custom_building_set` raises for `members`, or None.

    At each point p, in poset order, each layer through p gives a flat, its
    support.  The supports of the maximal members through p inside it, as
    character tuples, must cover it without overlap and be an integral
    decomposition of its vectors (`is_integral_decomposition`).
    """
    chars = poset.arrangement.characters
    for p in poset.points:
        through = [m.support for m in members if m.contains(p)]
        for flat in (l.support for l in poset.layers if l.contains(p)):
            inside = [s for s in through if set(s) <= set(flat)]
            blocks = {s for s in inside if not any(set(s) < set(t) for t in inside)}
            if sorted(i for b in blocks for i in b) != sorted(flat):
                return f"flat {flat} at point {p.values} is not covered"
            pos = {i: k for k, i in enumerate(flat)}
            vectors = [chars[i].vector for i in flat]
            if not is_integral_decomposition(
                vectors, [[pos[i] for i in b] for b in blocks]
            ):
                return f"flat {flat} at point {p.values} is not decomposed"
    return None


def oracle_complete_subsets(arr, p):
    """Every flat at the point `p`: the closure of each localized subset."""
    ground = localized(arr, p)
    flats = {
        oracle_closure(arr, ground, subset)
        for size in range(len(ground) + 1)
        for subset in itertools.combinations(ground, size)
    }
    return sorted(flats, key=lambda f: (len(f), f))


def oracle_grown_flats(arr, p):
    """Every flat at the point `p`, grown from the empty flat by adding one
    localized character at a time and closing, as `complete_subsets` once
    did."""
    ground = localized(arr, p)
    flats, work = {()}, [()]
    while work:
        flat = work.pop()
        grown = {oracle_closure(arr, ground, flat + (i,)) for i in ground if i not in flat}
        work.extend(grown - flats)
        flats |= grown
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
            self._complete[key] = oracle_is_complete(self.arr, p, union)
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
        comps = oracle_intersection_components(memo.arr, remaining)
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
        comps = oracle_intersection_components(memo.arr, combo)
        if len(comps) == 1 and comps[0] == p:
            out.append(NestedSet(combo, comps[0], witness))
    return sorted(out, key=NestedSet.key)


def oracle_center_check(arr, members, p):
    """Whether the members' intersection is the point `p` alone, from the
    components of the intersection, each solved as one torsion system."""
    comps = oracle_intersection_components(arr, members)
    return len(comps) == 1 and comps[0] == p


def oracle_enumerate_maximal(poset, p, building):
    """Maximal nested sets centred at `p` from the library's backtracking
    search, with the center check and the witness flag taken from the
    components of each intersection instead of the poset's flat table."""
    memo = _Memo(poset.arrangement)
    local = building._at(poset, p)
    n = poset.arrangement.rank
    out = []
    for chosen in _nested_sets(local, list(local.members), n):
        combo = [local.members[s] for s in chosen]
        if len(chosen) == n and oracle_center_check(memo.arr, combo, p):
            members = tuple(sorted(combo, key=Layer.key))
            out.append(NestedSet(members, p, _witness_flag(members, memo, p)))
    return sorted(out, key=NestedSet.key)


def oracle_connected_maximal(poset, p, building):
    """Maximal nested sets centred at `p`, without witnesses, from the
    library's search, each tested on its own for a union of supports that
    is p's and a connected intersection (`_connected`), as
    `enumerate_maximal` once did."""
    local = building._at(poset, p)
    n = poset.arrangement.rank
    out = []
    for chosen in _nested_sets(local, list(local.members), n):
        if len(chosen) < n:
            continue
        union = 0
        for s in chosen:
            union |= s
        combo = [local.members[s] for s in chosen]
        if union == p.mask and _connected(combo, p):
            out.append(NestedSet(tuple(combo), p))
    return sorted(out, key=NestedSet.key)


def oracle_center(members, building, poset):
    """The intersection of a nested family, by its components: (center,
    None), or (None, reason) where the library raises NotNested."""
    if not oracle_is_nested(members, building, poset)[0]:
        return None, "not nested"
    comps = oracle_intersection_components(poset.arrangement, members)
    return (comps[0], None) if len(comps) == 1 else (None, "not connected")


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


def random_arrangement(
    rng: random.Random, rank=None, count=None, entry=2, denominator=4
) -> Arrangement:
    """`count` characters with entries in -entry..entry and constants with
    denominators up to `denominator`; `normalize` splits the non-primitive
    ones, and a draw whose characters do not span is drawn again."""
    rank = rank or rng.randint(1, 3)
    count = count or rng.randint(rank, 5)
    while True:
        raw = []
        for _ in range(count):
            v = tuple(rng.randint(-entry, entry) for _ in range(rank))
            if not any(v):
                v = tuple(int(i == 0) for i in range(rank))
            q = rng.randint(1, denominator)
            raw.append((v, Fraction(rng.randrange(q), q)))
        try:
            return normalize(rank, raw)
        except Exception:
            continue


def oracle_maximal_constant_member(members, phi, vector):
    """The largest member on which `vector` is constant with its value at
    p, by an exact `Layer.value_of` scan of every member; None when there
    is none, NotNested when those members do not form a chain."""
    target = pairing(vector, phi)
    hits = tuple(m for m in members if _value_of(m, tuple(vector)) == target)
    return _top_member(hits) if hits else None


# `Layer.value_of` and `top_member`, computed once per argument
_value_of = functools.lru_cache(maxsize=1 << 16)(Layer.value_of)
_top_member = functools.lru_cache(maxsize=1 << 16)(top_member)


def oracle_adapted_basis_rows(members):
    """The adapted basis as the library first built it, recursively and
    with no memo: peel the first member, in `Layer.key` order, that
    contains no other (by `Layer.contains`), take the basis of the rest,
    then lift quotient generators of the sum of the rest's span and the
    member's lattice over that span into the member's lattice, each reduced
    modulo the overlap."""
    members = sorted(members, key=Layer.key)
    if not members:
        return []
    c = next(
        m
        for m in members
        if not any(o is not m and m.contains(o) for o in members)
    )
    rest = [m for m in members if m is not c]
    rows_rest = oracle_adapted_basis_rows(rest)
    n = c.lattice.ambient_rank
    lat_rest = Sublattice.from_rows(n, rows_rest)
    lat_all = Sublattice.from_rows(n, list(lat_rest.basis) + list(c.lattice.basis))
    if lat_all.rank == lat_rest.rank:
        return rows_rest
    gens = identity_matrix(lat_all.rank)
    if lat_rest.rank:
        coords = tuple(lat_all.coords(row) for row in lat_rest.basis)
        gens = invert_unimodular(smith_normal_form(coords).right)[lat_rest.rank :]
    new_rows = []
    stacked = tuple(c.lattice.basis) + tuple(lat_rest.basis)
    overlap = intersect(lat_rest, c.lattice)
    for g in gens:
        ambient = vec_mat(g, lat_all.basis)
        combo = express_in_rows(stacked, ambient)
        if combo is None:
            raise NotAdapted("a quotient generator does not lift to the member")
        lift = vec_mat(combo[: c.lattice.rank], c.lattice.basis)
        new_rows.append(overlap.reduce(lift)[1])
    return rows_rest + new_rows


def oracle_check_adapted(chart):
    """The message `build_chart` raises for a chart whose basis is not
    adapted, from one Hermite form per member, as it once did: the first
    member whose lattice is not spanned by the basis vectors of the members
    containing it.  None for an adapted basis."""
    for i, member in enumerate(chart.members):
        rows = [chart.basis[j] for j in chart.below_inverse(i)]
        if hermite_basis(rows) != member.lattice.basis:
            return f"the basis is not adapted to member {member}"
    return None


def oracle_chart_basis(members, phi):
    """`oracle_adapted_basis_rows`, each row assigned to its
    `oracle_maximal_constant_member`, in member order."""
    basis = {}
    for row in oracle_adapted_basis_rows(members):
        basis[members.index(oracle_maximal_constant_member(members, phi, row))] = row
    return tuple(basis[i] for i in range(len(members)))


def oracle_expand(chart, vector, value):
    """The unit function of a character through the chart center, peeling
    the residual character's largest constant member, found by an exact
    scan of every member, until nothing is left; None where a residual has
    no component on that member."""
    terms, pref, cur, base = [], Fraction(0), tuple(vector), None
    inverse = _chart_inverse(chart.basis)
    while any(cur):
        layer = oracle_maximal_constant_member(chart.members, chart.point_coordinates, cur)
        c = chart.members.index(layer)
        base = c if base is None else base
        coeffs = vec_mat(cur, inverse)
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


def oracle_peel_expand(chart, vector, value):
    """The library's expansion as it was before its angles were summed in
    integer numerators: the same peeling order, taken from the chart's
    index tables, with every angle and root a `Fraction` sum reduced mod 1."""
    coeffs = list(vec_mat(vector, _chart_inverse(chart.basis)))
    terms, pref, base = [], Fraction(0), None
    while any(coeffs):
        c = chart._top_constant(sum(1 << j for j, x in enumerate(coeffs) if x))
        if base is None:
            base = c
        elif coeffs[c] == 0:
            c = next(j for j in chart.below_inverse(base) if coeffs[j])
        m_c = coeffs[c]
        monomial = [
            (j, coeffs[j]) for j in chart.below_inverse(base) if j != c and coeffs[j]
        ]
        sign, angle, k = 1, pref, abs(m_c)
        if m_c < 0:
            sign = -1
            monomial.append((c, m_c))
            angle += m_c * chart.constants[c]
        linear = tuple(
            (c, mod1(chart.constants[c] + Fraction(j, k))) for j in range(1, k)
        )
        terms.append(BetaTerm(c, sign, mod1(angle), tuple(monomial), linear))
        pref += m_c * chart.constants[c]
        coeffs[c] = 0
    return ChartFunction(chart, tuple(vector), value, base, tuple(terms))


# -- the per-sample sweep path: dense rows, one evaluation per term --------


def _dense_power_product(values, exponents) -> complex:
    out = 1 + 0j
    for v, e in zip(values, exponents):
        if e:
            out *= v ** e
    return out


def _oracle_monomial(chart, z, member) -> complex:
    prod = 1 + 0j
    for e in chart.below[member]:
        prod *= z[e]
    return prod


def oracle_unit_terms(chart, f):
    """(scale, monomial, roots of the linear factors, extra coordinates)
    of each term of a unit function, read off its `BetaTerm`s."""
    base_below = set(chart.below[f.base_member])
    return [
        (
            term.sign * unit_root(term.angle),
            term.monomial,
            [(idx, unit_root(a)) for idx, a in term.linear],
            [e for e in chart.below[term.member] if e not in base_below],
        )
        for term in f.terms
    ]


def oracle_unit_value(terms, z, values) -> complex:
    total = 0j
    for scale, monomial, roots, extra in terms:
        out = scale
        for idx, e in monomial:
            out *= values[idx] ** e
        for idx, root in roots:
            out *= values[idx] - root
        for e in extra:
            out *= z[e]
        total += out
    return total


def _oracle_sample_coordinate(rng) -> complex:
    r = 0.1 + 0.4 * rng.random()
    theta = 2 * cmath.pi * rng.random()
    return r * cmath.exp(1j * theta)


def oracle_sample_point(rng, rank):
    """A random chart point, one coordinate at a time."""
    return tuple(_oracle_sample_coordinate(rng) for _ in range(rank))


def oracle_domain_samples(chart, rng, samples):
    """(z, member character values, torus point) of each of `samples`
    random chart points whose torus coordinates do not vanish; the torus
    point comes from the dense inverse of the basis."""
    inverse = oracle_inverse(chart.basis)
    roots = [unit_root(a) for a in chart.constants]
    for _ in range(samples):
        z = tuple(_oracle_sample_coordinate(rng) for _ in range(chart.rank))
        values = [_oracle_monomial(chart, z, i) + root for i, root in enumerate(roots)]
        if all(abs(v) > chart.tolerance for v in values):
            yield z, values, tuple(_dense_power_product(values, row) for row in inverse)


def oracle_torus_to_chart(chart, t):
    """Successor ratios of the dense basis numerators; None on a divisor."""
    roots = [unit_root(a) for a in chart.constants]
    nums = [_dense_power_product(t, row) - root for row, root in zip(chart.basis, roots)]
    if any(j is not None and abs(nums[j]) <= chart.tolerance for j in chart.succ):
        return None
    return tuple(x if j is None else x / nums[j] for x, j in zip(nums, chart.succ))


def oracle_residual_sweep(chart, rng, samples=100) -> float:
    """`residual_sweep` one sample, unit and term at a time."""
    worst, units = 0.0, None
    for z, values, t in oracle_domain_samples(chart, rng, samples):
        if units is None:
            units = [
                (oracle_unit_terms(chart, f), f.base_member, f.vector, root)
                for f, _, root in chart._support_units()
            ]
        for terms, base, vector, root in units:
            lhs = oracle_unit_value(terms, z, values) * _oracle_monomial(chart, z, base)
            value = _dense_power_product(t, vector)
            rel = abs(lhs - (value - root)) / (1 + abs(value))
            worst = max(worst, rel)
    return worst


def oracle_roundtrip_sweep(chart, rng, samples=100) -> float:
    """`roundtrip_sweep` one sample at a time."""
    worst = 0.0
    for z, _, t in oracle_domain_samples(chart, rng, samples):
        z_back = oracle_torus_to_chart(chart, t)
        if z_back is None:
            continue
        err = max(abs(a - b) / (1 + abs(a)) for a, b in zip(z, z_back))
        worst = max(worst, err)
    return worst


# -- the per-point path: one point at a time, on scalars --------------------


def _monomials(z, below) -> list[complex]:
    """For each index tuple in `below`, the product of those coordinates of z."""
    out = []
    for inside in below:
        prod = 1 + 0j
        for e in inside:
            prod *= z[e]
        out.append(prod)
    return out


def _power_products(values, rows) -> list[complex]:
    """For each row of (index, exponent) pairs, the product of values[i] ** e
    (values[i] itself for e == 1, which has the same bits)."""
    out = []
    for row in rows:
        prod = 1 + 0j
        for i, e in row:
            prod *= values[i] if e == 1 else values[i] ** e
        out.append(prod)
    return out


def _unit_at(flat, z, values) -> complex:
    """`_unit_column` at one point: the same products in the same order, on
    scalars, so with the same bits."""
    total = 0j
    for scale, monomial, roots, extra in flat:
        prod = scale
        for i, e in monomial:
            prod *= values[i] if e == 1 else values[i] ** e
        for i, root in roots:
            prod *= values[i] - root
        for e in extra:
            prod *= z[e]
        total += prod
    return total


def _numerators(t, rows, roots) -> list[complex]:
    """Each character's value at t minus the root of its constant, given the
    characters as rows of (index, exponent) pairs."""
    return [x - root for x, root in zip(_power_products(t, rows), roots)]


def _to_chart(t, rows, roots, succ, tolerance) -> tuple[complex, ...]:
    """Chart coordinates of the torus point t by successor ratios, given the
    basis rows as (index, exponent) pairs and the roots of their constants."""
    nums = _numerators(t, rows, roots)
    for i, j in enumerate(succ):
        if j is not None and abs(nums[j]) <= tolerance:
            raise OnDivisor(f"coordinate {i}: successor character sits on its divisor")
    return tuple(x if j is None else x / nums[j] for x, j in zip(nums, succ))


def oracle_member_values(chart, z) -> list[complex]:
    """`Chart.member_character_values` at one point."""
    below = _monomials(z, chart.below)
    return [m + root for m, root in zip(below, chart._roots)]


def oracle_chart_to_torus(chart, z) -> tuple[complex, ...]:
    """`Chart.chart_to_torus` at one point."""
    values = oracle_member_values(chart, z)
    if not all(abs(v) > chart.tolerance for v in values):
        raise OutsideDomain("a torus coordinate would vanish")
    return tuple(_power_products(values, chart._basis_inv))


def oracle_point_to_chart(chart, t) -> tuple[complex, ...]:
    """`Chart.torus_to_chart` at one point; raises OnDivisor."""
    return _to_chart(t, chart._basis_sparse, chart._roots, chart.succ, chart.tolerance)


def oracle_unit_at(f, z) -> complex:
    """The unit function `f` at the point z."""
    return _unit_at(f._flat, z, oracle_member_values(f.chart, z))


@functools.lru_cache(maxsize=None)
def _oracle_far_layers(chart):
    """(basis rows as (index, exponent) pairs, roots of their values) of
    each layer that does not contain the chart's center."""
    return [
        ([_sparse(row) for row in layer.lattice.basis], [unit_root(v) for v in layer.values])
        for layer in chart.poset.layers
        if not layer.contains(chart.center)
    ]


def oracle_in_chart(chart, z) -> bool:
    """`Chart.in_chart` at one point: the member values, then the layers
    missing the center, then the unit functions."""
    values = oracle_member_values(chart, z)
    if not all(abs(v) > chart.tolerance for v in values):
        return False
    t = tuple(_power_products(values, chart._basis_inv))
    for rows, roots in _oracle_far_layers(chart):
        if all(abs(x) <= chart.tolerance for x in _numerators(t, rows, roots)):
            return False
    return all(
        abs(_unit_at(f._flat, z, values)) > chart.tolerance
        for f, _, _ in chart._support_units()
    )


def oracle_cover_sweep(charts, rng, samples=500, tolerance=1e-6) -> int:
    """`cover_sweep` one point at a time, each tested chart by chart until
    one covers it."""
    if not charts:
        return 0
    arr = charts[0].poset.arrangement
    rows = [_sparse(v) for v in arr.vectors]
    roots = [unit_root(ch.value) for ch in arr.characters]
    covered = 0
    done = 0
    while done < samples:
        phi = [rng.random() for _ in range(arr.rank)]
        t = tuple(cmath.exp(2j * cmath.pi * x) for x in phi)
        if any(abs(x) < tolerance for x in _numerators(t, rows, roots)):
            continue
        done += 1
        for chart in charts:
            try:
                z = oracle_point_to_chart(chart, t)
            except OnDivisor:
                continue
            if all(abs(x) > chart.tolerance for x in z) and oracle_in_chart(chart, z):
                covered += 1
                break
    return covered


def oracle_flats_at(poset, p):
    """`LayerPoset.flats_at` by an exact `Layer.contains` scan: the layers
    holding p, by support mask, with the ambient torus under 0."""
    p = poset._own(p)
    table = {0: poset.torus}
    for layer in poset.layers:
        if not layer.mask & ~p.mask and layer.contains(p):
            table[layer.mask] = layer
    return table


def oracle_germ_pairing(germ, vector, j) -> Fraction:
    """The pairing of the character with jet j of the germ, in `Fraction`s."""
    return sum(Fraction(x) * y for x, y in zip(vector, germ.jets[j - 1]))


def oracle_germ_order(germ, vector):
    """1-based order of vanishing of the character along the germ, or None,
    from `oracle_germ_pairing`."""
    jets = range(1, len(germ.jets) + 1)
    return next((j for j in jets if oracle_germ_pairing(germ, vector, j) != 0), None)
