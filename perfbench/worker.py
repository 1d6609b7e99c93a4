"""One benchmark pass in a fresh, single-threaded process.

    python3 perfbench/worker.py WORKLOAD SEED [--trace PATH] [--setup-only]

Set-up is the package import, reading the pinned answers and the
workload's input files, and drawing the job list from the seed.  The
worker then prints `READY`, runs the job list once, checks every answer
and prints one JSON line with the per-operation records and the problems
found.  Every operation's time, and on `atlas` the time of each stage
from parsing to the last chart, is scaled to the reference host speed
(calib.py); `raw_wall_s` is the unscaled time of the whole pass.  run.py
starts it; it is not meant to be run by hand except for debugging.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import sys
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import families  # noqa: E402
from calib import HostClock, calibrate  # noqa: E402

WORKLOADS = ("atlas", "poset", "query")
ATLAS_FAMILIES = ("A3", "B3", "C3", "two_lines", "doubled_square")
POSET_FAMILIES = ("C3", "A3_tors", "G2_tors")
POSET_COMMANDS = ("layers", "points", "irreducible")
# family -> jobs per pass: (curve, divisor, nested --max --point, nested --point).
# Curve germs are drawn without replacement from the family's pinned pool,
# so the share of germs that crash today swings little with the seed.
QUERY_MIX = {
    "two_lines": (10, 10, 2, 2),
    "doubled_square": (10, 10, 2, 2),
    "B2": (10, 10, 2, 2),
    "C2": (10, 10, 2, 2),
    "A3": (32, 12, 2, 1),
    "B3": (3, 3, 0, 0),
}
SAMPLES = 100
TOLERANCE = 1e-9


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def origin(exc: BaseException) -> str:
    """`Type in module.function` of the frame that raised `exc`."""
    tb = exc.__traceback__
    while tb is not None and tb.tb_next is not None:
        tb = tb.tb_next
    if tb is None:
        return type(exc).__name__
    code = tb.tb_frame.f_code
    return f"{type(exc).__name__} in {Path(code.co_filename).stem}.{code.co_name}"


@dataclass
class Op:
    """One timed operation: one chart's sweeps, or one CLI invocation."""

    id: str
    seconds: float = 0.0  # scaled, once the pass is over
    status: str = "ok"  # ok | wrong | crash | refused
    detail: str = ""
    interval: tuple | None = None  # from HostClock.stop


@dataclass
class CliJob:
    id: str
    argv: list[str]
    family: str
    expect: dict | None  # pinned outcome; None for divisor (oracle-checked)
    result: tuple = ()  # ("exit", code, stdout, stderr) or ("crash", origin)
    op: Op = field(init=False)

    def __post_init__(self):
        self.op = Op(self.id)


def load_toricwonder():
    """Import the package from the checkout's `src`, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "toricwonder" / "__init__.py").is_file():
        raise SystemExit(f"error: no toricwonder sources under {src}")
    sys.path.insert(0, str(src))
    import toricwonder
    import toricwonder.cli

    if Path(toricwonder.__file__).resolve().parent != src / "toricwonder":
        raise SystemExit(f"error: imported toricwonder from {toricwonder.__file__}")
    return toricwonder


# -- job lists ------------------------------------------------------------


def family_path(name: str) -> str:
    return str(families.path_of(name).relative_to(ROOT))


def poset_jobs(expected) -> list[CliJob]:
    pins = expected["poset"]
    return [
        CliJob(
            f"poset/{fam}/{cmd}",
            [cmd, family_path(fam)],
            fam,
            pins[f"{fam}/{cmd}"],
        )
        for fam in POSET_FAMILIES
        for cmd in POSET_COMMANDS
    ]


def query_jobs(expected, seed: int) -> list[CliJob]:
    rng = random.Random(f"query:{seed}")
    jobs = []
    for fam, (n_curve, n_divisor, n_max, n_all) in QUERY_MIX.items():
        info = expected["families"][fam]
        path = family_path(fam)
        pool = expected["curve_pool"][fam]
        for g in rng.sample(range(len(pool)), n_curve):
            germ = pool[g]
            argv = ["curve", path, "--point", germ["point"], f"--jets={germ['jets']}"]
            jobs.append(CliJob(f"query/{fam}/curve/{g}", argv, fam, germ["expect"]))
        for _ in range(n_divisor):
            ids = rng.sample(info["building"], rng.randint(1, info["rank"]))
            argv = ["divisor", path, "--set", ",".join(ids)]
            jobs.append(CliJob(f"query/{fam}/divisor/{','.join(ids)}", argv, fam, None))
        for mode, count in (("max", n_max), ("all", n_all)):
            for _ in range(count):
                p = rng.choice(info["points"])
                argv = ["nested", path, "--point", p] + (["--max"] if mode == "max" else [])
                pin = expected["nested"][fam][p][mode]
                jobs.append(CliJob(f"query/{fam}/nested-{mode}/{p}", argv, fam, pin))
    rng.shuffle(jobs)
    return jobs


# -- running --------------------------------------------------------------


def run_cli(tw, job: CliJob, host: HostClock):
    out, err = io.StringIO(), io.StringIO()
    mark = host.start()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = tw.cli.main(list(job.argv))
        job.result = ("exit", code, out.getvalue(), err.getvalue())
    except (Exception, SystemExit) as exc:
        job.result = ("crash", origin(exc))
    job.op.interval = host.stop(mark)


SWEEPS = ("residual", "roundtrip")


def run_atlas_family(tw, fam: str, seed: int, expected, signatures: dict, host: HostClock, stages: dict) -> list[Op]:
    """parse -> poset -> building set -> maximal nested sets -> charts -> sweeps.

    The order and the single shared sample stream follow `charts --verify`.
    One operation is one chart's residual and roundtrip sweeps; a failed
    residual sweep does not stop the roundtrip sweep.  A crash before the
    sweeps fails every chart the family should have had.  Each stage before
    the sweeps is timed on its own, into `stages["<fam>/<stage>"]`.
    """
    charts = tw.charts

    def stage(name, fn, *args):
        mark = host.start()
        try:
            return fn(*args)
        finally:
            stages[f"{fam}/{name}"] = host.stop(mark)

    try:
        arr, _ = stage("parse_file", tw.cli.parse_file, family_path(fam))
        poset = stage("build_poset", tw.arrangement.build_poset, arr)
        building = stage("irreducible_layers", tw.decomposition.irreducible_layers, poset)
        sets = stage("enumerate_all_maximal", tw.nested.enumerate_all_maximal, poset, building)
        atlas = stage("build_chart", lambda: [charts.build_chart(poset, s) for s in sets])
    except Exception as exc:
        signatures[fam] = origin(exc)
        pinned = expected["families"][fam]["signature"]["maximal"]
        return [Op(f"atlas/{fam}/{k}", 0.0, "crash", origin(exc)) for k in range(pinned)]
    signatures[fam] = {
        "layers": len(poset.layers),
        "points": len(poset.points),
        "building": len(building.members),
        "maximal": len(sets),
    }
    rng = random.Random(f"atlas:{seed}:{fam}")
    ops = []
    for k, chart in enumerate(atlas):
        op = Op(f"atlas/{fam}/{k}")
        mark = host.start()
        for kind in SWEEPS:
            status, detail = "ok", ""
            try:
                value = getattr(charts, f"{kind}_sweep")(chart, rng, SAMPLES)
                if not value <= TOLERANCE:
                    status, detail = "wrong", f"{value!r} > {TOLERANCE}"
            except tw.ToricError as exc:
                status, detail = "refused", origin(exc)
            except Exception as exc:
                status, detail = "crash", origin(exc)
            if op.status == "ok" and status != "ok":
                op.status, op.detail = status, f"{kind} sweep: {detail}"
        op.interval = host.stop(mark)
        ops.append(op)
    return ops


# -- checking -------------------------------------------------------------


class Checker:
    """Decides each CLI job's status from pins and the nested-set oracle."""

    def __init__(self, tw, expected):
        self.tw = tw
        self.expected = expected
        self._oracles: dict = {}

    def nested_family(self, fam: str):
        """(layer IDs, oracle nested family) from `tests/oracles.py`."""
        if fam not in self._oracles:
            sys.path.insert(0, str(ROOT / "tests"))
            from oracles import oracle_nested_family

            arr, _ = self.tw.cli.parse_file(family_path(fam))
            poset = self.tw.arrangement.build_poset(arr)
            building = self.tw.decomposition.irreducible_layers(poset)
            self._oracles[fam] = (poset.layers, oracle_nested_family(poset, building))
        return self._oracles[fam]

    def divisor_line(self, fam: str, ids: list[str]) -> str:
        layers, nested = self.nested_family(fam)
        members = frozenset(layers[int(i[1:])] for i in ids)
        shown = ", ".join(ids)
        if members in nested:
            rank = self.expected["families"][fam]["rank"]
            return f"divisor {{{shown}}}: dim {rank - len(ids)}"
        return f"divisor {{{shown}}}: EMPTY (not nested)"

    def check(self, job: CliJob):
        op = job.op
        if job.result[0] == "crash":
            op.status, op.detail = "crash", job.result[1]
            return
        _, code, out, err = job.result
        pin = job.expect
        if pin is not None and "crash" not in pin:
            if (code, sha256(out), sha256(err)) != (pin["exit"], pin["stdout"], pin["stderr"]):
                op.status, op.detail = "wrong", f"exit {code}, output differs from the pin"
            return
        # divisor, or a job that crashed when pinned: check what can be checked
        fam_pin = self.expected["families"][job.family]
        lines = out.splitlines(keepends=True)
        head = "".join(lines[: fam_pin["header_lines"]])
        if code == 1 and pin is not None and not out:
            return  # a typed refusal where the pinned code crashed
        if code != 0 or sha256(head) != fam_pin["header"]:
            op.status, op.detail = "wrong", f"exit {code} or header differs from the pin"
            return
        if pin is None:
            body = "".join(lines[fam_pin["header_lines"]:]).rstrip("\n")
            want = self.divisor_line(job.family, job.argv[3].split(","))
            if body != want:
                op.status, op.detail = "wrong", f"{body!r}, oracle says {want!r}"


def known_failures(expected, workload: str) -> set[str]:
    """Operations pinned as failing at the seed commit."""
    if workload == "atlas":
        return set(expected["atlas_failures"])
    if workload == "query":
        return {
            f"query/{fam}/curve/{g}"
            for fam, pool in expected["curve_pool"].items()
            for g, germ in enumerate(pool)
            if "crash" in germ["expect"]
        }
    return set()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("seed", type=int)
    parser.add_argument("--trace", default=None, help="write spans to this file")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    os.chdir(ROOT)  # family paths are relative, as a user would type them
    tw = load_toricwonder()
    expected = json.loads((BENCH / "expected.json").read_text())
    if args.workload == "atlas":
        inputs = {fam: families.path_of(fam).read_text() for fam in ATLAS_FAMILIES}
        jobs: list[CliJob] = []
    else:
        jobs = poset_jobs(expected) if args.workload == "poset" else query_jobs(expected, args.seed)
        inputs = {job.family: families.path_of(job.family).read_text() for job in jobs}
    print("READY", flush=True)
    if args.setup_only:
        print(json.dumps({"calibration": calibrate()}), flush=True)
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    signatures: dict = {}
    stages: dict = {}
    calibration = calibrate()
    try:
        with HostClock() as host:
            mark = host.start()
            if args.workload == "atlas":
                ops = []
                for fam in ATLAS_FAMILIES:
                    ops.extend(run_atlas_family(tw, fam, args.seed, expected, signatures, host, stages))
            else:
                for job in jobs:
                    run_cli(tw, job, host)
                ops = [job.op for job in jobs]
            wall = host.stop(mark)[2]
    finally:
        if tracer is not None:
            tracer.restore()
    for op in ops:
        if op.interval is not None:
            op.seconds = host.scaled(op.interval)
    stages = {name: host.scaled(interval) for name, interval in stages.items()}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = [
        f"{fam}: file differs from its definition in families.py"
        for fam, text in inputs.items()
        if fam in families.DEFINITIONS and text != families.render(fam)
    ]
    for fam, sig in signatures.items():
        want = expected["families"][fam]["signature"]
        if sig != want:
            problems.append(f"{fam}: signature {sig}, pinned {want}")
    checker = Checker(tw, expected)
    for job in jobs:
        checker.check(job)
    known = known_failures(expected, args.workload)
    for op in ops:
        if op.status == "wrong" or (op.status != "ok" and op.id not in known):
            problems.append(f"{op.id}: {op.status} ({op.detail})")

    result = {
        "raw_wall_s": wall,
        "calibration": calibration,
        "scale": host.scale(),
        "stages": stages,
        "peak_rss_mb": peak_rss_mb,
        "ops": [[op.id, op.seconds, op.status, op.detail] for op in ops],
        "problems": problems,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write(Path(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
