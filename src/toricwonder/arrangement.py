"""Toric arrangements with torsion constants and their layer posets.

A hypersurface is a pair (lambda, r): a primitive integer character and a
fraction r in [0,1) standing for the constant exp(2*pi*i*r).  A layer is
a connected component of an intersection of hypersurfaces, encoded by a
saturated sublattice together with the torsion values the lattice basis
takes on it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul

from .errors import (
    EmptySubset,
    InfiniteIndex,
    NotAPoint,
    NotComplete,
    NotContained,
    NotNested,
    NotPrimitive,
    ParseError,
    ZeroVector,
)
from .lattices import (
    Matrix,
    Sublattice,
    Vector,
    column_reduction,
    identity_matrix,
    is_primitive,
    mat_mul,
    mod1,
    pairing,
    vec_mat,
)


@dataclass(frozen=True)
class WeightedCharacter:
    """A primitive character with a root-of-unity constant exp(2*pi*i*value)."""

    vector: Vector
    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "vector", tuple(int(x) for x in self.vector))
        object.__setattr__(self, "value", mod1(Fraction(self.value)))


@dataclass(frozen=True)
class Arrangement:
    rank: int
    characters: tuple[WeightedCharacter, ...]

    def __post_init__(self):
        seen = set()
        for ch in self.characters:
            if len(ch.vector) != self.rank:
                raise ZeroVector(
                    f"character {ch.vector} does not have length {self.rank}"
                )
            if not any(ch.vector):
                raise ZeroVector("zero character is not allowed")
            if not is_primitive(ch.vector):
                raise NotPrimitive(f"character {ch.vector} is not primitive")
            if ch in seen:
                raise ParseError(
                    f"duplicate character {list(ch.vector)} ; {ch.value}"
                )
            seen.add(ch)
        span = Sublattice.from_rows(self.rank, [ch.vector for ch in self.characters])
        if span.rank < self.rank:
            raise InfiniteIndex(
                "the characters span a rank-%d sublattice of Z^%d; restrict the "
                "ambient lattice to the intersection with their rational span "
                "and re-submit" % (span.rank, self.rank)
            )

    @property
    def vectors(self) -> Matrix:
        return tuple(ch.vector for ch in self.characters)

    @cached_property
    def _poset(self) -> "LayerPoset":
        """The poset the arrangement-level functions read; `build_poset` walks anew."""
        return build_poset(self)


def normalize(rank: int, raw) -> Arrangement:
    """Split non-primitive characters into their primitive components.

    A pair (v, r) with gcd d > 1 becomes the d pairs (v/d, (r+i)/d), i.e.
    the connected components of the original hypersurface.  Duplicates are
    merged, keeping first-occurrence order.
    """
    out: list[WeightedCharacter] = []
    seen = set()
    for vec, r in raw:
        vec = tuple(int(x) for x in vec)
        if not any(vec):
            raise ZeroVector("zero character is not allowed")
        d = 0
        for x in vec:
            d = gcd(d, x)
        prim = tuple(x // d for x in vec)
        r = mod1(Fraction(r))
        for i in range(d):
            ch = WeightedCharacter(prim, (r + i) / d)
            if ch not in seen:
                seen.add(ch)
                out.append(ch)
    return Arrangement(rank, tuple(out))


@dataclass(frozen=True, eq=False)
class Layer:
    """A layer: saturated sublattice plus torsion values on its HNF basis.

    `support` lists the arrangement characters whose hypersurface contains
    the layer; it is derived data and excluded from equality.
    """

    lattice: Sublattice
    values: tuple[Fraction, ...]
    support: tuple[int, ...] = ()

    def __eq__(self, other):
        if not isinstance(other, Layer):
            return NotImplemented
        return self.lattice == other.lattice and self.values == other.values

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # layers key dicts and sets throughout; hashing every Fraction on
        # each lookup would dominate those scans
        return hash((self.lattice, self.values))

    @property
    def dim(self) -> int:
        return self.lattice.ambient_rank - self.lattice.rank

    @cached_property
    def mask(self) -> int:
        """`support` as a bitmask over the character indices."""
        return sum(1 << i for i in self.support)

    def value_of(self, vector) -> Fraction | None:
        """The constant the character takes on this layer, if any."""
        c = self.lattice.coords(vector)
        if c is None:
            return None
        return pairing(c, self.values)

    def contains(self, other: "Layer") -> bool:
        """True iff `other` is a subvariety of `self`."""
        for row, val in zip(self.lattice.basis, self.values):
            if other.value_of(row) != val:
                return False
        return True

    @property
    def coordinates(self) -> tuple[Fraction, ...]:
        """Torsion coordinates of a 0-dimensional layer."""
        if self.dim != 0:
            raise NotAPoint("only 0-dimensional layers have coordinates")
        # a saturated full-rank sublattice is Z^n with the identity basis
        return self.values

    def key(self):
        return (self.lattice.rank, self.support, self.lattice.basis, self.values)

    def __repr__(self):
        return f"Layer(basis={self.lattice.basis}, values={self.values})"


def top_member(chain) -> Layer:
    """The member of a chain of layers that contains all the others.

    Layers are connected, so strict containment lowers the dimension and
    the top of a chain is its member of largest dimension.
    """
    top = max(chain, key=lambda m: m.dim)
    if not all(top.contains(m) for m in chain):
        raise NotNested(f"the layers {list(chain)} do not form a chain")
    return top


def _support(arr: Arrangement, lattice: Sublattice, values) -> tuple[int, ...]:
    probe = Layer(lattice, tuple(values))
    return tuple(
        i
        for i, ch in enumerate(arr.characters)
        if probe.value_of(ch.vector) == ch.value
    )


def make_layer(arr: Arrangement, lattice: Sublattice, values) -> Layer:
    values = tuple(mod1(v) for v in values)
    return Layer(lattice, values, _support(arr, lattice, values))


def layer_components(arr: Arrangement, subset) -> list[Layer]:
    """The components of the intersection of the hypersurfaces of `subset`,
    a nonempty set of character indices, in `Layer.key` order: the layers on
    all of them whose lattice has the least rank (Moci, Trans. AMS 2012)."""
    subset = sorted(set(subset))
    if not subset:
        raise EmptySubset("a nonempty character subset is required")
    if subset[0] < 0 or subset[-1] >= len(arr.characters):
        raise NotContained(
            f"character indices {subset} are not all in 0..{len(arr.characters) - 1}"
        )
    mask = sum(1 << i for i in subset)
    over = [l for l in arr._poset.layers if not mask & ~l.mask]
    least = min((l.lattice.rank for l in over), default=0)
    return [l for l in over if l.lattice.rank == least]


@dataclass(frozen=True)
class LayerPoset:
    """The layers in canonical order (`Layer.key`); `ids` maps each to its index."""

    arrangement: Arrangement
    layers: tuple[Layer, ...]
    ids: dict = field(init=False, repr=False, compare=False)
    _flats: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # the adapted-basis peel steps of `charts.build_chart`, shared by every chart
    _peels: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "ids", {l: i for i, l in enumerate(self.layers)})

    def _own(self, layer: Layer) -> Layer:
        """The poset's layer equal to `layer`, else `layer` with its support."""
        if layer in self.ids:
            return self.layers[self.ids[layer]]
        return make_layer(self.arrangement, layer.lattice, layer.values)

    def flats_at(self, p: Layer) -> dict[int, Layer]:
        """The layers through `p` by support mask, in `Layer.key` order: the
        masks are the flats of the characters through p (`_Local`), and the
        empty flat maps to the ambient torus, which is not a layer.  Only
        the poset's own layers keep their tables.

        A layer through p has its support inside p's, and such a layer l
        holds p iff it holds one point x of p: p is connected and lies in
        X_{supp p}, inside X_{supp l}, whose component through x is l.  So
        x is written as integer numerators over one denominator d, and l
        holds it iff each basis row's pairing with them, mod d, over d,
        equals l's value on that row, as `Layer.contains` compares them.
        """
        try:
            return self._flats[p]
        except KeyError:
            own, p = p in self.ids, self._own(p)
            nums, den = _point_numerators(p)
            table = {0: self.torus}
            for l, rows in zip(self.layers, self._integer_values):
                if not l.mask & ~p.mask and all(
                    sum(map(mul, row, nums)) % den * b == a * den for row, a, b in rows
                ):
                    table[l.mask] = l
            return self._flats.setdefault(p, table) if own else table

    @cached_property
    def _integer_values(self) -> tuple:
        """Per layer, (basis row, numerator, denominator of its value) of
        each basis row, as `flats_at` reads them."""
        return tuple(
            tuple((row, *v.as_integer_ratio()) for row, v in zip(l.lattice.basis, l.values))
            for l in self.layers
        )

    @cached_property
    def _characters(self) -> tuple:
        """Each character as (its non-zero entries as (index, entry) pairs,
        the numerator and the denominator of its value), made once per
        poset for the charts, which read them for every chart."""
        return tuple(
            (tuple((i, x) for i, x in enumerate(c.vector) if x), *c.value.as_integer_ratio())
            for c in self.arrangement.characters
        )

    @cached_property
    def torus(self) -> Layer:
        """The ambient torus: the empty intersection, not itself a layer."""
        return Layer(Sublattice.zero(self.arrangement.rank), ())

    @cached_property
    def points(self) -> tuple[Layer, ...]:
        pts = [l for l in self.layers if l.dim == 0]
        return tuple(sorted(pts, key=lambda l: l.values))

    def hasse_edges(self) -> list[tuple[Layer, Layer]]:
        """Covering pairs (a, b): a < b with no layer strictly between.

        These are exactly the containments a < b with dim a + 1 = dim b.
        Layers are connected, so strict containment drops the dimension
        and a layer strictly between would drop it twice.  Conversely, if
        a < b, pick a character i in supp a but not in supp b; i is not
        constant on b, so the component of b cap H_i holding a is a layer
        of codimension one in b, and a lies in it below b.  For a cover it
        is a.  Nested supports are necessary for containment, and the
        cheapest test, but under torsion not sufficient.
        """
        return [
            (a, b)
            for a, b in itertools.product(self.layers, repeat=2)
            if not b.mask & ~a.mask and a.dim + 1 == b.dim and b.contains(a)
        ]

    def __contains__(self, layer: Layer) -> bool:
        return layer in self.ids


def _point_numerators(layer: Layer) -> tuple[tuple[int, ...], int]:
    """A point of the layer as integer numerators over one denominator: a
    point's own coordinates, else the solution of basis . x = values that
    is 0 off the pivots, by back-substitution up the echelon basis."""
    x = list(layer.values)
    if layer.dim:
        x = [Fraction(0)] * layer.lattice.ambient_rank
        for row, v in zip(reversed(layer.lattice.basis), reversed(layer.values)):
            c = next(j for j, a in enumerate(row) if a)
            x[c] = (v - sum(map(mul, row[c + 1 :], x[c + 1 :]))) / row[c]
    den = lcm(*(y.denominator for y in x))
    return tuple(y.numerator * (den // y.denominator) for y in x), den


def build_poset(arr: Arrangement) -> LayerPoset:
    """All layers, each made once: the ambient torus closed under
    intersection with the hypersurfaces, by reverse search (Avis and
    Fukuda, Discrete Appl. Math. 65, 1996) from canonical parents.

    With each layer L the walk carries last(L), the least index k such
    that the characters of supp L with index <= k span L's lattice
    rationally; it is -1 on the ambient torus (lattice 0), where the walk
    starts, which is not a layer.  A translate X of a cut of L lies on
    the characters of supp L and on those of its list `on`, in index
    order; it is kept only if on[0] > last(L), and then last(X) = on[0].
    This makes each layer exactly once.  Let b_1 < ... < b_r be the greedy
    basis of S = supp X in index order and G = sat(span(b_1 .. b_{r-1})).
    The component P of X_{S cap G} through X is a layer, and S cap G,
    which spans G, is its support; P reaches X through the class of
    b_r = min(S - G) > last(P), so X is kept from P.  An upper cover Y
    that keeps X holds every character of S below last(X) = min(S - supp Y),
    and they span Y's lattice, so Y's lattice is G and Y = P; in P, X is
    one translate of one cut.  A cut with no kept translate is skipped
    before its column reduction and Hermite form.

    Each layer L of rank r comes with one of its points phi (integer
    numerators over one denominator), a frame (K, C) and every chi in A
    restricted to a = chi K^T.  The n - r rows of K are a basis of the
    integer vectors orthogonal to L's lattice, so t -> phi + t K
    parametrizes L, and C K^T = I.

    - On L, chi takes the value chi(phi) + a t.  If a = 0, chi is constant
      on L, and H_i = {chi = c} contains L or misses it.
    - Otherwise let g = +-gcd(a), signed so that the first non-zero entry
      of the primitive a' = a / g is positive.  L cap H_i is the |g|
      disjoint translates a' t = (c - chi(phi) + j) / g, j = 0 .. |g| - 1,
      of the subtorus a' t = 0, connected as a' is primitive.  The
      characters whose a' agree up to sign cut L along the same subtori.
    - `column_reduction` gives V unimodular with a' V = e_1, and W = V^-1,
      whose first row is a'.  With u = V[:, 0], a' u = 1, so the j-th
      translate holds the point phi + ((c - chi(phi) + j) / g) u K.
    - A character mu is constant on a translate iff mu K^T lies in Z a'.
      Then (mu - k a' C) K^T = 0, so mu - k a' C lies in L's lattice,
      which is saturated.  So the new lattice is L's lattice plus
      Z a' C = Z W[0] C, saturated with no further work; one Hermite form
      per cut makes its canonical basis.
    - The t with a' t = 0 are spanned by V[:, 1:], so the new layers of
      one cut share the frame K' = V[:, 1:]^T K and C' = W[1:] C, for
      C' K'^T = W[1:] V[:, 1:] = I, and the restricted characters
      a_chi V[:, 1:].
    """
    n = arr.rank
    eye = identity_matrix(n)
    layers = []
    # (layer, last, point numerators, their denominator, K, C, a_chi per chi)
    work = [(Layer(Sublattice.zero(n), ()), -1, (0,) * n, 1, eye, eye, arr.vectors)]
    while work:
        layer, last, num, den, kernel, complement, restricted = work.pop()
        cuts = {}
        for i, a in enumerate(restricted):
            if any(a):
                g = gcd(*a) if next(x for x in a if x) > 0 else -gcd(*a)
                cuts.setdefault(tuple(x // g for x in a), []).append((i, g))
        for prim, members in cuts.items():
            # a translate is one value of a' t mod 1, as a reduced fraction;
            # it lies on the H_i of the members that reach it
            translates = {}
            for i, g in members:
                c = arr.characters[i].value
                scale = c.denominator * den
                base = c.numerator * den - c.denominator * sum(
                    x * y for x, y in zip(arr.characters[i].vector, num)
                )
                s_den = abs(g) * scale
                for j in range(abs(g)):
                    s = (base + j * scale) * (1 if g > 0 else -1) % s_den
                    r = gcd(s, s_den)
                    translates.setdefault((s // r, s_den // r), []).append(i)
            kept = [(shift, on) for shift, on in translates.items() if on[0] > last]
            if not kept:
                continue
            v, w = column_reduction(prim)
            lattice = Sublattice.from_rows(
                n, layer.lattice.basis + (vec_mat(prim, complement),)
            )
            step = vec_mat([row[0] for row in v], kernel)
            if layer.dim > 1:
                # the children have dimension layer.dim - 1 and share a frame
                rest = tuple(row[1:] for row in v)
                frame = (
                    mat_mul(tuple(zip(*rest)), kernel),
                    mat_mul(w[1:], complement),
                    mat_mul(restricted, rest),
                )
            for (s, s_den), on in kept:
                # the point phi + (s / s_den) u K, over one denominator
                new_den = lcm(den, s_den)
                up, shift = new_den // den, s * (new_den // s_den)
                point = [(p * up + shift * t) % new_den for p, t in zip(num, step)]
                r = gcd(new_den, *point)
                point, new_den = tuple(p // r for p in point), new_den // r
                values = tuple(
                    Fraction(sum(x * y for x, y in zip(row, point)) % new_den, new_den)
                    for row in lattice.basis
                )
                new = Layer(lattice, values, tuple(sorted(layer.support + tuple(on))))
                layers.append(new)
                if new.dim:
                    work.append((new, on[0], point, new_den, *frame))
    return LayerPoset(arr, tuple(sorted(layers, key=Layer.key)))


def points(arr: Arrangement) -> list[Layer]:
    return list(arr._poset.points)


def localized(arr: Arrangement, p: Layer) -> tuple[int, ...]:
    """Indices of the characters whose hypersurface passes through `p`."""
    if p.dim != 0:
        raise NotAPoint("localization requires a 0-dimensional layer")
    return _support(arr, p.lattice, p.values)


def complete_subsets(arr: Arrangement, p: Layer) -> list[tuple[int, ...]]:
    """All flats of the localized character set at the point `p`, the empty
    and the full one included: the supports of the layers through p, read
    from the poset's flat table."""
    localized(arr, p)  # raises NotAPoint unless p is a point
    table = arr._poset.flats_at(p)
    return sorted((l.support for l in table.values()), key=lambda f: (len(f), f))


def is_complete(arr: Arrangement, p: Layer, subset) -> bool:
    if p.dim != 0:
        raise NotAPoint("localization requires a 0-dimensional layer")
    subset, valid = tuple(sorted(subset)), range(len(arr.characters))
    # a flat's support differs from a subset with an index repeated or invalid
    flat = arr._poset.flats_at(p).get(sum(1 << i for i in subset if i in valid))
    return flat is not None and flat.support == subset


def layer_from_complete_set(arr: Arrangement, p: Layer, subset) -> Layer:
    """The poset's layer through `p` whose support is the given flat."""
    subset = tuple(sorted(subset))
    if not subset or not is_complete(arr, p, subset):
        raise NotComplete(f"{subset} is not a nonempty flat at {p}")
    return arr._poset.flats_at(p)[sum(1 << i for i in subset)]


def point_layer(arr: Arrangement, coordinates) -> Layer:
    """The 0-dimensional layer at the given torsion coordinates."""
    coordinates = tuple(coordinates)
    if len(coordinates) != arr.rank:
        raise NotAPoint(
            f"a point of the rank-{arr.rank} torus has {arr.rank} coordinates, "
            f"not {len(coordinates)}"
        )
    lattice = Sublattice(arr.rank, identity_matrix(arr.rank))
    return make_layer(arr, lattice, tuple(mod1(Fraction(c)) for c in coordinates))
