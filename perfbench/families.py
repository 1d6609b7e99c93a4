"""Benchmark arrangement families, written as `.arr` files from their definitions.

    python3 perfbench/families.py     # rewrite perfbench/families/*.arr

A_n uses simple-root coordinates (the positive roots are the interval
sums a_i + ... + a_j); B_n and C_n use the e-basis.  C_n's long roots
2e_i are non-primitive, so normalisation splits each into the constants
0 and 1/2.  The torsion families take every G2 or A3 root once with the
constant 0 and once with 1/3, giving m = 12 characters each.  The two
`examples_data/*.arr` files are read as they are and are not generated.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

FAMILY_DIR = Path(__file__).resolve().parent / "families"
EXAMPLE_DIR = FAMILY_DIR.parent.parent / "examples_data"
EXAMPLES = ("two_lines", "doubled_square")

# G2 positive roots in simple-root coordinates
G2_ROOTS = ((1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2))


def _unit(n, i):
    return tuple(int(k == i) for k in range(n))


def roots_a(n):
    return [
        tuple(int(i <= k <= j) for k in range(n))
        for i in range(n)
        for j in range(i, n)
    ]


def _pairs(n):
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            ei, ej = _unit(n, i), _unit(n, j)
            out.append(tuple(a + b for a, b in zip(ei, ej)))
            out.append(tuple(a - b for a, b in zip(ei, ej)))
    return out


def roots_b(n):
    return [_unit(n, i) for i in range(n)] + _pairs(n)


def roots_c(n):
    return [tuple(2 * x for x in _unit(n, i)) for i in range(n)] + _pairs(n)


def _with_constants(roots, constants):
    return [(v, c) for v in roots for c in constants]


TORSION = (Fraction(0), Fraction(1, 3))

# name -> (title, rank, [(vector, constant)])
DEFINITIONS = {
    "A3": ("A3", 3, _with_constants(roots_a(3), (0,))),
    "B2": ("B2", 2, _with_constants(roots_b(2), (0,))),
    "B3": ("B3", 3, _with_constants(roots_b(3), (0,))),
    "C2": ("C2", 2, _with_constants(roots_c(2), (0,))),
    "C3": ("C3", 3, _with_constants(roots_c(3), (0,))),
    "A3_tors": ("A3 x {0, 1/3}", 3, _with_constants(roots_a(3), TORSION)),
    "G2_tors": ("G2 x {0, 1/3}", 2, _with_constants(G2_ROOTS, TORSION)),
}


def render(name: str) -> str:
    """The `.arr` text of a generated family."""
    title, rank, chars = DEFINITIONS[name]
    lines = [
        "# generated by perfbench/families.py; do not edit",
        f"name = {title}",
        f"rank = {rank}",
    ]
    for vec, c in chars:
        lines.append(f"char = [{', '.join(str(x) for x in vec)}] ; {Fraction(c)}")
    return "\n".join(lines) + "\n"


def path_of(name: str) -> Path:
    """Where the family's `.arr` file lives."""
    return (EXAMPLE_DIR if name in EXAMPLES else FAMILY_DIR) / f"{name}.arr"


def main() -> int:
    FAMILY_DIR.mkdir(exist_ok=True)
    for name in DEFINITIONS:
        (FAMILY_DIR / f"{name}.arr").write_text(render(name))
    return 0


if __name__ == "__main__":
    sys.exit(main())
