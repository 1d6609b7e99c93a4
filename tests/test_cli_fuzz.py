"""A bounded, seeded fuzz of the `curve` and `divisor` commands.

Each call runs in process on a bench or example file and must end with
exit 0, 1 or 2 and no traceback: a failure a user can reach is a typed
`ToricError`, reported on one stderr line.  CI also runs this file under
`python -O`.
"""

import contextlib
import io
import random
import traceback

import pytest

from toricwonder import build_poset
from toricwonder.cli import main, parse_file

from oracles import ARR_FILES

A3 = next(p for p in ARR_FILES if p.stem == "A3")


def run_cli(argv):
    """(exit code, stdout, stderr) of the CLI, or the traceback of an
    exception that escaped it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse
            code = exc.code
        except Exception:
            return None, out.getvalue(), traceback.format_exc()
    return code, out.getvalue(), err.getvalue()


def check(argv):
    code, out, err = run_cli(argv)
    assert code in (0, 1, 2), (argv, err)
    assert "Traceback" not in err, argv
    if code == 1:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    return code


def entry(rng) -> str:
    """A jet entry: a small integer or fraction, or a power of ten past
    the float range either way, some past 4300 digits."""
    k = rng.random()
    if k < 0.3:
        return str(rng.randint(-3, 3))
    if k < 0.45:
        return f"{rng.randint(-3, 3)}/{rng.randint(1, 9)}"
    exponent = rng.randint(280, 420) if k < 0.85 else rng.randint(4000, 5000)
    return f"{rng.choice((1, -1, 3))}e{rng.choice((-1, 1)) * exponent}"


def jets(rng, rank: int) -> str:
    out = []
    for _ in range(rng.randint(1, 3)):
        n = rank if rng.random() < 0.85 else rng.choice((rank - 1, rank + 1))
        if rng.random() < 0.1:
            out.append(",".join("0" * max(n, 1)))
        else:
            out.append(",".join(entry(rng) for _ in range(max(n, 1))))
    return ";".join(out)


@pytest.mark.parametrize(
    "jet, code",
    [
        ("1e400,2,3", 1),  # a limit coordinate past the float range
        ("1e-400,2,3;1,1,1", 1),  # one that rounds to 0
        ("1e5000,1", 1),  # a wrong length with an entry past 4300 digits
        ("0,0,0", 1),
    ],
)
def test_extreme_germs(jet, code):
    assert check(["curve", str(A3), "--point", "L13", f"--jets={jet}"]) == code


@pytest.mark.parametrize("scale", ["1e-400", "1e400"])
def test_common_scale_cancels(scale):
    """Jets scaled by a power of ten outside the float range have the
    limit chart and coordinates of the unscaled jets."""
    for jets in ("1,1,1", "-1,1,1;0,2,1;0,1,-2"):
        plain = run_cli(["curve", str(A3), "--point", "L13", f"--jets={jets}"])
        scaled = ";".join(
            ",".join(f"{x}{scale[1:]}" if x != "0" else x for x in jet.split(","))
            for jet in jets.split(";")
        )
        assert plain[0] == 0
        assert run_cli(["curve", str(A3), "--point", "L13", f"--jets={scaled}"]) == plain


def test_random_curve_and_divisor_calls():
    rng = random.Random(2035)
    files = []
    for path in ARR_FILES:
        arr, _ = parse_file(str(path))
        poset = build_poset(arr)
        points = [i for i, l in enumerate(poset.layers) if l.dim == 0]
        files.append((str(path), arr.rank, points, len(poset.layers)))
    codes = []
    for _ in range(30):
        for path, rank, points, count in files:
            if rng.random() < 0.7:
                p = rng.choice(points) if rng.random() < 0.9 else rng.randrange(count)
                argv = ["curve", path, "--point", f"L{p}", f"--jets={jets(rng, rank)}"]
            else:
                ids = [f"L{rng.randrange(count)}" for _ in range(rng.randint(1, rank + 1))]
                argv = ["divisor", path, "--set", ",".join(ids)]
            codes.append(check(argv + ["--json"] * (rng.random() < 0.3)))
    # both answers and typed refusals are reached
    assert codes.count(0) > 30 and codes.count(1) > 30
