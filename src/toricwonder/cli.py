"""Command-line interface: parse arrangement files, emit deterministic reports.

File format (one declaration per line, '#' starts a comment):

    name = optional title
    rank = 2
    char = [2, 0] ; 0
    char = [1, 1] ; 1/2

Each character line pairs an integer vector with a torsion constant p/q
standing for exp(2*pi*i*p/q).  Layers are referred to by stable IDs
L0, L1, ... assigned in canonical report order and repeated in every
report header.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from .errors import ParseError, ToricError
from .arrangement import (
    Arrangement,
    WeightedCharacter,
    build_poset,
    normalize,
)
from .decomposition import irreducible_layers, is_c_irreducible
from .nested import NestedSet, _all_nested, enumerate_maximal
from .charts import (
    DEFAULT_TOL,
    CurveGerm,
    _residual,
    _roundtrip,
    atlas,
    chart_for_curve,
    divisor_dim,
)
from .lattices import is_primitive

COMMANDS = ("layers", "points", "irreducible", "nested", "charts", "divisor", "curve")


def parse_fraction(text: str, where: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"{where}: bad fraction {text!r}") from exc


def parse_file(path: str, no_normalize: bool = False) -> tuple[Arrangement, str]:
    rank = None
    name = ""
    raw = []
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "name":
            name = value
        elif key == "rank":
            try:
                rank = int(value)
            except ValueError as exc:
                raise ParseError(f"line {lineno}: bad rank {value!r}") from exc
            if rank <= 0:
                raise ParseError(f"line {lineno}: rank must be positive")
        elif key == "char":
            if ";" not in value:
                raise ParseError(f"line {lineno}: missing '; p/q' constant")
            vec_text, _, frac_text = value.partition(";")
            vec_text = vec_text.strip()
            if not (vec_text.startswith("[") and vec_text.endswith("]")):
                raise ParseError(f"line {lineno}: vector must be bracketed")
            try:
                vec = tuple(int(x) for x in vec_text[1:-1].split(","))
            except ValueError as exc:
                raise ParseError(f"line {lineno}: bad vector {vec_text!r}") from exc
            raw.append((lineno, vec, parse_fraction(frac_text, f"line {lineno}")))
        else:
            raise ParseError(f"line {lineno}: unknown key {key!r}")
    if rank is None:
        raise ParseError("missing 'rank = n' declaration")
    if not raw:
        raise ParseError("no character declarations")
    for lineno, vec, _ in raw:
        if len(vec) != rank:
            raise ParseError(f"line {lineno}: vector length != rank {rank}")
    if no_normalize:
        chars = []
        for lineno, vec, r in raw:
            if not any(vec):
                raise ParseError(f"line {lineno}: zero character {list(vec)}")
            if not is_primitive(vec):
                raise ParseError(
                    f"line {lineno}: character {list(vec)} is not primitive "
                    "(--no-normalize given)"
                )
            ch = WeightedCharacter(vec, r)
            if ch in chars:
                raise ParseError(
                    f"line {lineno}: duplicate character {list(vec)} ; {ch.value} "
                    "(--no-normalize given)"
                )
            chars.append(ch)
        arr = Arrangement(rank, tuple(chars))
    else:
        arr = normalize(rank, [(v, r) for _, v, r in raw])
    return arr, name


# -- formatting ---------------------------------------------------------


def fmt_vec(v) -> str:
    return "[" + ", ".join(str(x) for x in v) + "]"


def fmt_complex(z: complex) -> str:
    return f"{z.real:.12g}{z.imag:+.12g}j"


def layer_text(layer) -> str:
    rows = "; ".join(fmt_vec(r) for r in layer.lattice.basis)
    vals = ", ".join(map(str, layer.values))
    supp = ", ".join(str(i) for i in layer.support)
    return f"(rows=[{rows}]; values=[{vals}]; dim={layer.dim}; support=[{supp}])"


def layer_json(layer) -> dict:
    return {
        "rows": [list(r) for r in layer.lattice.basis],
        "values": [str(v) for v in layer.values],
        "dim": layer.dim,
        "support": list(layer.support),
    }


def header(arr: Arrangement, name: str, poset) -> tuple[list[str], dict]:
    lines = []
    if name:
        lines.append(f"arrangement: {name}")
    lines.append(f"rank: {arr.rank}")
    lines.append(f"characters ({len(arr.characters)}):")
    for i, ch in enumerate(arr.characters):
        lines.append(f"  X{i}: {fmt_vec(ch.vector)} ; {ch.value}")
    lines.append(f"layer IDs (canonical order, {len(poset.layers)} layers):")
    for i, layer in enumerate(poset.layers):
        lines.append(f"  L{i}: {layer_text(layer)}")
    doc = {
        "name": name,
        "rank": arr.rank,
        "characters": [
            {"vector": list(ch.vector), "value": str(ch.value)}
            for ch in arr.characters
        ],
        "layers": [layer_json(l) for l in poset.layers],
    }
    return lines, doc


def _lid(poset, layer) -> str:
    try:
        return f"L{poset.ids[layer]}"
    except KeyError:
        raise ToricError(f"layer {layer} not in poset") from None


def _layer_by_id(poset, text: str):
    text = text.strip()
    if not text.startswith("L"):
        raise ToricError(f"expected a layer ID like L0, got {text!r}")
    digits = text[1:]
    # int() alone would also take a sign, underscores and non-ASCII digits;
    # it raises ValueError past its digit limit
    if digits.isascii() and digits.isdigit():
        try:
            return poset.layers[int(digits)]
        except (ValueError, IndexError):
            pass
    raise ToricError(f"unknown layer ID {text!r}")


# -- commands -----------------------------------------------------------


def cmd_layers(poset, args):
    edges = poset.hasse_edges()
    lines = [f"hasse edges ({len(edges)}):"]
    doc_edges = []
    for a, b in sorted(edges, key=lambda e: (e[0].key(), e[1].key())):
        lines.append(f"  {_lid(poset, a)} < {_lid(poset, b)}")
        doc_edges.append([_lid(poset, a), _lid(poset, b)])
    return lines, {"hasse_edges": doc_edges}, 0


def cmd_points(poset, args):
    pts = poset.points
    lines = [f"points ({len(pts)}):"]
    doc = []
    for p in pts:
        coords = ", ".join(map(str, p.coordinates))
        lines.append(f"  {_lid(poset, p)}: ({coords}) support={list(p.support)}")
        doc.append(
            {
                "id": _lid(poset, p),
                "coordinates": [str(v) for v in p.coordinates],
                "support": list(p.support),
            }
        )
    return lines, {"points": doc}, 0


def cmd_irreducible(poset, args):
    arr = poset.arrangement
    building = irreducible_layers(poset)
    lines = [f"building set ({len(building.members)} members):"]
    doc = []
    for layer in poset.layers:
        zirr = layer in building
        cirr = is_c_irreducible([arr.characters[i].vector for i in layer.support])
        mark = "member" if zirr else "-"
        lines.append(
            f"  {_lid(poset, layer)}: Z-irreducible={zirr} "
            f"C-irreducible={cirr} [{mark}]"
        )
        doc.append(
            {
                "id": _lid(poset, layer),
                "z_irreducible": zirr,
                "c_irreducible": cirr,
                "member": zirr,
            }
        )
    return lines, {"building_set": doc}, 0


def _nested_doc(poset, ns: NestedSet) -> dict:
    return {
        "members": [_lid(poset, m) for m in ns.members],
        "center": _lid(poset, ns.center),
    }


def cmd_nested(poset, args):
    building = irreducible_layers(poset)
    restrict = _layer_by_id(poset, args.point) if args.point else None
    lines = []
    doc: dict = {}
    if args.max:
        points = poset.points if restrict is None else (restrict,)
        total = 0
        doc["maximal"] = []
        for p in points:
            for ns in enumerate_maximal(poset, p, building):
                total += 1
                entry = _nested_doc(poset, ns)
                ids = ", ".join(entry["members"])
                lines.append(f"  {{{ids}}} center={entry['center']}")
                doc["maximal"].append(entry)
        lines.insert(0, f"maximal nested sets ({total}):")
    else:
        members = building.members
        if restrict is not None:
            members = building._at(poset, restrict).members.values()
        found = _all_nested(poset, building, members)
        lines.append(f"nested sets ({len(found)}):")
        doc["nested"] = []
        for combo in found:
            ids = ", ".join(_lid(poset, m) for m in combo)
            lines.append(f"  {{{ids}}}")
            doc["nested"].append([_lid(poset, m) for m in combo])
    return lines, doc, 0


def cmd_charts(poset, args):
    if args.verify and args.samples < 1:
        raise ToricError(f"--samples must be at least 1, not {args.samples}")
    building = irreducible_layers(poset)
    charts = atlas(poset, building, tolerance=args.tolerance)
    lines = [f"atlas ({len(charts)} charts):"]
    doc = []
    for k, chart in enumerate(charts):
        entry = {
            **_nested_doc(poset, chart.nested_set),
            "basis": [list(r) for r in chart.basis],
            "constants": [str(a) for a in chart.constants],
        }
        doc.append(entry)
        ids = ", ".join(entry["members"])
        lines.append(f"  chart {k}: members={{{ids}}} center={entry['center']}")
        for lid, row, a in zip(entry["members"], chart.basis, chart.constants):
            lines.append(f"    {lid}: basis={fmt_vec(row)} constant={a}")
    out = {"charts": doc}
    if not args.verify:
        return lines, out, 0
    rng = random.Random(args.seed)
    worst, checked = [0.0, 0.0], [0, 0]
    for chart in charts:
        for k, sweep in enumerate((_residual, _roundtrip)):
            err, n = sweep(chart, rng, args.samples)
            worst[k], checked[k] = max(worst[k], err), checked[k] + n
    worst_res, worst_rt = worst
    # a sweep that kept no sample checked nothing, so it cannot pass
    ok = all(checked) and worst_res <= args.tolerance and worst_rt <= args.tolerance
    lines.append(
        f"verification: max residual {worst_res:.3e}, "
        f"max roundtrip {worst_rt:.3e}, tolerance {args.tolerance:.1e} -> "
        + ("PASS" if ok else "FAIL" if all(checked) else "FAIL (a sweep checked no sample)")
    )
    out["verification"] = {
        "max_residual": worst_res,
        "max_roundtrip": worst_rt,
        "tolerance": args.tolerance,
        "pass": ok,
    }
    return lines, out, 0 if ok else 2


def cmd_divisor(poset, args):
    if not args.set:
        raise ToricError("divisor requires --set L<i>,L<j>,...")
    building = irreducible_layers(poset)
    members = [_layer_by_id(poset, t) for t in args.set.split(",")]
    dim = divisor_dim(poset, building, members)
    ids = ", ".join(args.set.split(","))
    if dim is None:
        lines = [f"divisor {{{ids}}}: EMPTY (not nested)"]
        doc = {"set": args.set.split(","), "dim": None, "empty": True}
    else:
        lines = [f"divisor {{{ids}}}: dim {dim}"]
        doc = {"set": args.set.split(","), "dim": dim, "empty": False}
    return lines, doc, 0


def cmd_curve(poset, args):
    if not args.point or not args.jets:
        raise ToricError("curve requires --point L<i> and --jets v1;v2;...")
    p = _layer_by_id(poset, args.point)
    jets = []
    for part in args.jets.split(";"):
        jets.append(tuple(parse_fraction(x, "--jets") for x in part.split(",")))
    germ = CurveGerm(p, tuple(jets))
    building = irreducible_layers(poset)
    chart, z_limit = chart_for_curve(poset, building, germ, tolerance=args.tolerance)
    doc = {
        **_nested_doc(poset, chart.nested_set),
        "basis": [list(r) for r in chart.basis],
        "z_limit": [[z.real, z.imag] for z in z_limit],
    }
    ids = ", ".join(doc["members"])
    lines = [f"limit chart: members={{{ids}}} center={doc['center']}"]
    for lid, row, z in zip(doc["members"], chart.basis, z_limit):
        lines.append(f"  {lid}: basis={fmt_vec(row)} z_limit={fmt_complex(z)}")
    return lines, doc, 0


DISPATCH = {
    "layers": cmd_layers,
    "points": cmd_points,
    "irreducible": cmd_irreducible,
    "nested": cmd_nested,
    "charts": cmd_charts,
    "divisor": cmd_divisor,
    "curve": cmd_curve,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricwonder",
        description="Wonderful-model data of toric arrangements.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("file", help="arrangement file")
    parser.add_argument("--no-normalize", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--samples", type=int, default=100)
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOL)
    parser.add_argument("--json", action="store_true")
    parser.add_argument("--point", default=None, help="layer ID of a point")
    parser.add_argument("--max", action="store_true", help="maximal nested sets only")
    parser.add_argument("--verify", action="store_true", help="run chart sweeps")
    parser.add_argument("--set", default=None, help="comma-separated layer IDs")
    parser.add_argument("--jets", default=None, help="semicolon-separated jet vectors")
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] not in COMMANDS and not argv[0].startswith("-"):
        print(f"error: unknown command {argv[0]!r}", file=sys.stderr)
        return 1
    args = build_parser().parse_args(argv)
    try:
        # nan fails both comparisons; inf would pass a sweep that checked nothing
        if args.command in ("charts", "curve") and not 0 < args.tolerance < float("inf"):
            raise ToricError(f"--tolerance must be finite and > 0, not {args.tolerance}")
        arr, name = parse_file(args.file, no_normalize=args.no_normalize)
        poset = build_poset(arr)
        head_lines, head_doc = header(arr, name, poset)
        body_lines, body_doc, status = DISPATCH[args.command](poset, args)
    except ToricError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        doc = {"header": head_doc, "command": args.command, **body_doc}
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for line in head_lines + body_lines:
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())
