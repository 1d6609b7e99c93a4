"""Behaviour must not depend on `assert`, which `python -O` strips."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# each case prints the name of the ToricError it raises
CASES = """
from fractions import Fraction
from toricwonder import (
    BuildingSet, CurveGerm, Flag, NestedSet, ToricError, atlas, build_chart,
    build_poset, center, chart_for_curve, core, decomposition,
    enumerate_maximal, irreducible_layers, layer_components, normalize,
    point_layer,
)
from toricwonder.lattices import column_reduction, invert_unimodular

arr = normalize(2, [((1, 1), 0), ((1, -1), 0)])
poset = build_poset(arr)
building = irreducible_layers(poset)
sets = enumerate_maximal(poset, point_layer(arr, (0, 0)), building)
s = next(x for x in sets if any(m.dim == 1 for m in x.members))
elsewhere = point_layer(arr, (Fraction(1, 2), Fraction(1, 2)))
lines = tuple(l for l in poset.layers if l.dim == 1)
chart = atlas(poset, building)[0]
elsewhere_generic = point_layer(arr, (Fraction(1, 3), Fraction(1, 5)))


for case in (
    lambda: build_chart(poset, s, basis_rows=[(1, 0), (0, 1)]),
    lambda: core(s, elsewhere),
    lambda: invert_unimodular(((1, 1), (1, 1))),
    lambda: invert_unimodular(((2, 0), (0, 1))),
    lambda: Flag((lines[0], point_layer(arr, (0, 0)))),
    # the two lines meet in two points, so they have no center
    lambda: center(lines, BuildingSet(lines, "custom"), poset),
    # vectors of different lengths
    lambda: decomposition.finest_integral_decomposition([(1, 0), (1,)]),
    # a chart member that misses the center
    lambda: build_chart(poset, NestedSet((lines[0], elsewhere), point_layer(arr, (0, 0)))),
    # a cut direction of the poset walk must be primitive
    lambda: column_reduction((2, -4, 6)),
    # character indices out of range, from either end
    lambda: layer_components(arr, [99]),
    lambda: layer_components(arr, [-1]),
    # a point of the rank-2 torus needs two coordinates
    lambda: point_layer(arr, (0,)),
    # a chart's characters and points need one entry per coordinate
    lambda: chart.character_unit((1,), 0),
    lambda: chart.chart_to_torus((0.1,)),
    lambda: chart.torus_to_chart((1,)),
    # a germ at a point on no hypersurface
    lambda: chart_for_curve(poset, building, CurveGerm(elsewhere_generic, ((1, 0),))),
):
    try:
        case()
    except ToricError as exc:
        print(type(exc).__name__)
"""


def run(*args, optimize, timeout=120):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    flags = ["-O"] if optimize else []
    return subprocess.run(
        [sys.executable, *flags, *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
        timeout=timeout,
    )


@pytest.mark.parametrize("optimize", [False, True])
def test_typed_errors(optimize):
    proc = run("-c", CASES, optimize=optimize)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "NotAdapted", "NotContained", "NotUnimodular", "NotUnimodular",
        "NotNested", "NotNested", "InvalidPartition", "NotNested", "NotPrimitive",
        "NotContained", "NotContained", "NotAPoint",
        "OutsideDomain", "OutsideDomain", "OutsideDomain", "InvalidGerm",
    ]


def test_charts_verify_same_stdout():
    argv = ("-m", "toricwonder.cli", "charts", "examples_data/two_lines.arr", "--verify", "--seed", "42")
    plain = run(*argv, optimize=False)
    stripped = run(*argv, optimize=True)
    assert plain.returncode == stripped.returncode == 0, stripped.stderr
    assert "PASS" in plain.stdout
    assert stripped.stdout == plain.stdout


@pytest.mark.parametrize("optimize", [False, True])
@pytest.mark.parametrize("samples", ["0", "-3"])
def test_charts_verify_needs_samples(optimize, samples):
    argv = ("charts", "examples_data/two_lines.arr", "--verify", "--samples", samples)
    proc = run("-m", "toricwonder.cli", *argv, optimize=optimize)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"error: --samples must be at least 1, not {samples}\n"


@pytest.mark.parametrize("optimize", [False, True])
def test_charts_verify_checked_nothing(optimize):
    # no sample of any chart lies in the domain at tolerance 10
    argv = ("charts", "examples_data/two_lines.arr", "--verify", "--tolerance", "10")
    proc = run("-m", "toricwonder.cli", *argv, optimize=optimize)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout.rstrip().endswith("-> FAIL (a sweep checked no sample)")


@pytest.mark.parametrize("optimize", [False, True])
@pytest.mark.parametrize("tolerance", ["inf", "nan", "-1"])
def test_tolerance_finite_positive(optimize, tolerance):
    for argv in (
        ("charts", "examples_data/two_lines.arr", "--verify"),
        ("curve", "examples_data/two_lines.arr", "--point", "L2", "--jets", "1,1;1,0"),
    ):
        argv += ("--tolerance", tolerance)
        proc = run("-m", "toricwonder.cli", *argv, optimize=optimize)
        assert proc.returncode == 1
        assert proc.stdout == ""
        shown = float(tolerance)
        assert proc.stderr == f"error: --tolerance must be finite and > 0, not {shown}\n"


@pytest.mark.parametrize("optimize", [False, True])
def test_limit_past_float_range(optimize):
    # the jets' common scale cancels; the limit coordinate itself is 1e400 / 2
    argv = ("curve", "perfbench/families/A3.arr", "--point", "L13", "--jets=1e400,2,3")
    proc = run("-m", "toricwonder.cli", *argv, optimize=optimize)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: limit coordinate 0 of the germ does not fit in a float\n"


@pytest.mark.parametrize("optimize", [False, True])
def test_not_utf8(optimize, tmp_path):
    path = tmp_path / "bad.arr"
    path.write_bytes(b"rank = 1\nchar = [1] ; 0 # \xff\n")
    proc = run("-m", "toricwonder.cli", "points", str(path), optimize=optimize)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: cannot read {path}: 'utf-8' codec")
    assert "Traceback" not in proc.stderr


# bad character indices and members of the arrangement-level functions,
# which look them up in the poset
LOOKUP_CASES = """
from fractions import Fraction
from toricwonder import (
    ToricError, build_poset, intersection_components, is_complete,
    layer_components, layer_from_complete_set, normalize, point_layer,
)

arr = normalize(2, [((1, 1), 0), ((1, -1), 0)])
p = point_layer(arr, (0, 0))
line = build_poset(arr).layers[0]
off = point_layer(arr, (Fraction(1, 3), Fraction(1, 5)))

for case in (
    lambda: is_complete(arr, p, (-1,)),
    lambda: is_complete(arr, p, (0, 99)),
    lambda: is_complete(arr, p, (0, 0)),
    lambda: layer_from_complete_set(arr, p, (-1,)),
    lambda: layer_from_complete_set(arr, p, (1, 1)),
    lambda: [l.dim for l in intersection_components(arr, [])],
    lambda: intersection_components(arr, [line, off]),
    lambda: layer_components(arr, [2]),
    lambda: is_complete(arr, line, (0,)),
):
    try:
        print(case())
    except ToricError as exc:
        print(f"{type(exc).__name__}: {exc}")
"""


@pytest.mark.parametrize("optimize", [False, True])
def test_lookup_edges(optimize):
    proc = run("-c", LOOKUP_CASES, optimize=optimize)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:6] == [
        "False", "False", "False",
        "NotComplete: (-1,) is not a nonempty flat at "
        "Layer(basis=((1, 0), (0, 1)), values=(Fraction(0, 1), Fraction(0, 1)))",
        "NotComplete: (1, 1) is not a nonempty flat at "
        "Layer(basis=((1, 0), (0, 1)), values=(Fraction(0, 1), Fraction(0, 1)))",
        "[2]",
    ]
    assert lines[6].startswith("NotInPoset: Layer(basis=((1, 0), (0, 1))")
    assert lines[6].endswith("is not a layer of the arrangement")
    assert lines[7:] == [
        "NotContained: character indices [2] are not all in 0..1",
        "NotAPoint: localization requires a 0-dimensional layer",
    ]


# chart cases that end in a typed error; the building sets are made
# without validation, as a caller may make them
CHART_CASES = """
from toricwonder import (
    BuildingSet, CurveGerm, ToricError, atlas, build_poset, chart_for_curve,
    irreducible_layers, normalize, point_layer,
)

arr = normalize(2, [((1, 1), 0), ((1, -1), 0)])
poset = build_poset(arr)
p = point_layer(arr, (0, 0))
line = next(l for l in poset.layers if l.dim == 1)
chart = atlas(poset, irreducible_layers(poset))[0]

for case in (
    # the zero character passes through every center but has no unit
    lambda: chart.character_unit((0, 0), 0),
    # one line alone completes to no maximal nested set at p
    lambda: chart_for_curve(
        poset, BuildingSet((line,), "custom"), CurveGerm(p, ((1, 0),))
    ),
    # without the other line, the limit of this germ leaves its chart
    lambda: chart_for_curve(
        poset, BuildingSet((line, p), "custom"), CurveGerm(p, ((1, 1), (1, 0)))
    ),
):
    try:
        case()
        print("returned")
    except ToricError as exc:
        print(f"{type(exc).__name__}: {exc}")
"""


@pytest.mark.parametrize("optimize", [False, True])
def test_chart_errors(optimize):
    proc = run("-c", CHART_CASES, optimize=optimize)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "NotExpandable: the trivial character has no unit function",
        "InvalidGerm: the germ's flag does not complete to a maximal nested set",
        "InvalidGerm: the curve limit lies outside its chart",
    ]


@pytest.mark.parametrize("optimize", [False, True])
def test_a3_charts_verify_passes(optimize):
    # every A3 chart expands the unit functions of its characters
    argv = ("charts", "perfbench/families/A3.arr", "--verify", "--seed", "42")
    proc = run("-m", "toricwonder.cli", *argv, optimize=optimize, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.rstrip().endswith("-> PASS")
