"""The toricwonder benchmark.

    python3 perfbench/run.py --workload atlas --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/NOTES.md for why each was chosen):
  atlas  full-atlas pipeline through the library API on A3, B3, C3 and
         both examples_data files, with 100-sample residual and roundtrip
         sweeps per chart
  poset  in-process `toricwonder layers|points|irreducible` on the m = 12
         families C3, A3 x {0, 1/3} and G2 x {0, 1/3}
  query  149 seed-drawn one-shot `divisor`, `curve` and `nested`
         invocations on small and medium families

Each pass runs in a fresh single-threaded worker process (worker.py).
With --trace 0 the run makes two passes, and more while the next is
expected to end within --seconds, and prints the end-to-end metrics.
With --trace 1 it runs one untraced and one traced pass and prints the
per-layer metrics.  Every time reported is scaled to a reference host
speed (calib.py), so that the host's drift does not show as a change of
the program.  `attempted` counts the operations of the job list, which
depends only on the workload and the seed; `failed` counts those that
failed in any pass.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calib import REFERENCE_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("atlas", "poset", "query")
SETUP_SAMPLES = 15  # set-up is measured at least this often per run
# A run makes at least MIN_PASSES passes, so every latency is a median
# of two or more.
MIN_PASSES = 2
DEADLINE_S = 170  # a run must end within 180 s


def spawn(workload: str, seed: int, deadline: float, extra=()) -> tuple[float, dict]:
    """Run one worker; return (scaled set-up seconds, its result).

    Set-up runs from process start to the worker's READY line.  It is
    scaled by the worker's calibration just after READY; one taken here,
    in a process that was idle, ran up to 1.8x slower.  The worker is
    killed and the run aborted if it outlives `deadline`.
    """
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, str(BENCH / "worker.py"), workload, str(seed), *extra]
    clock = time.perf_counter
    t0 = clock()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE)
    ready_at = None
    buf = b""
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            while True:
                left = deadline - clock()
                if left <= 0:
                    raise TimeoutError(f"worker {workload} ran past the deadline")
                if not sel.select(left):
                    continue
                chunk = os.read(proc.stdout.fileno(), 1 << 16)
                if not chunk:
                    break
                buf += chunk
                if ready_at is None and b"\n" in buf:
                    ready_at = clock()
        code = proc.wait(timeout=max(deadline - clock(), 1))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    lines = buf.decode().splitlines()
    if code != 0 or len(lines) != 2 or lines[0] != "READY":
        raise RuntimeError(f"worker {workload} exited with {code}")
    result = json.loads(lines[1])
    return (ready_at - t0) * REFERENCE_S / result["calibration"], result


def percentile(values, q: int) -> float:
    """The q-th percentile, interpolated between the closest ranks."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def failed_ops(result) -> list:
    return [op for op in result["ops"] if op[2] != "ok"]


def counts(results) -> tuple[int, int]:
    """(operations in the job list, those that failed in any pass)."""
    ids = [op[0] for op in results[0]["ops"]]
    if any([op[0] for op in r["ops"]] != ids for r in results):
        raise RuntimeError("passes ran different job lists")
    return len(ids), len({op[0] for r in results for op in failed_ops(r)})


def wall(result) -> float:
    """Scaled time of one pass: its operations plus the atlas stages."""
    return sum(result["stages"].values()) + sum(op[1] for op in result["ops"])


def end_to_end(workload, seed, seconds, deadline):
    setups, results, pass_s = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        setup, result = spawn(workload, seed, deadline)
        pass_s.append(time.perf_counter() - t0)
        setups.append(setup)
        results.append(result)
        elapsed = time.perf_counter() - start
        if len(results) >= MIN_PASSES and elapsed + statistics.median(pass_s) > seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, seed, deadline, ["--setup-only"])[0])
    # every pass runs the same job list; each operation's and each stage's
    # time is its median over the passes, and the pass time is the sum of
    # those medians
    latencies = [statistics.median(op[1] for op in ops) for ops in zip(*(r["ops"] for r in results))]
    names = sorted({k for r in results for k in r["stages"]})
    stages = [statistics.median(r["stages"][k] for r in results if k in r["stages"]) for k in names]
    attempted, failed = counts(results)
    print(
        f"{workload}: {len(results)} pass(es) of {attempted} operations, "
        f"{failed} failed, {len(setups)} set-up samples, "
        f"unscaled pass times {[round(r['raw_wall_s'], 3) for r in results]} s, "
        f"scale factors {[round(r['scale'], 4) for r in results]}, "
        f"stages {sum(stages):.4f} s + operations {sum(latencies):.4f} s"
    )
    metrics = {
        "wall_s": (sum(stages) + sum(latencies), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "latency_p50_ms": (1000 * percentile(latencies, 50), "ms"),
        "latency_p90_ms": (1000 * percentile(latencies, 90), "ms"),
        "ok_share": ((attempted - failed) / attempted, "share"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in results), "MB"),
    }
    return results, attempted, failed, metrics


# per-layer metric -> span name
CALLS = {
    "lattices.solve_torsion_system.calls": "lattices.solve_torsion_system",
    "lattices.smith_normal_form.calls": "lattices.smith_normal_form",
    "lattices.hermite_normal_form.calls": "lattices.hermite_normal_form",
    "arrangement.layer_components.calls": "arrangement.layer_components",
    "arrangement.Layer.contains.calls": "arrangement.Layer.contains",
    "arrangement.is_complete.calls": "arrangement.is_complete",
    "decomposition.finest_integral_decomposition.calls": "decomposition.finest_integral_decomposition",
    "nested.is_nested.calls": "nested.is_nested",
    "charts.character_unit.calls": "charts.character_unit",
}
INCLUSIVE = {
    "arrangement.build_poset.s": "arrangement.build_poset",
    "arrangement.hasse_edges.s": "arrangement.hasse_edges",
    "decomposition.irreducible_layers.s": "decomposition.irreducible_layers",
    "nested.enumerate_maximal.s": "nested.enumerate_maximal",
    "charts.build_chart.s": "charts.build_chart",
    "charts.residual_sweep.s": "charts.residual_sweep",
    "charts.roundtrip_sweep.s": "charts.roundtrip_sweep",
    "charts.chart_for_curve.s": "charts.chart_for_curve",
    "cli.parse_file.s": "cli.parse_file",
}
MODULES = ("lattices", "arrangement", "decomposition", "nested", "charts", "cli")


def ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer(workload, seed, deadline):
    _, plain = spawn(workload, seed, deadline)
    trace_file = ROOT / ".bench_out" / f"{workload}-seed{seed}.spans.tsv.gz"
    _, traced = spawn(workload, seed, deadline, ["--trace", str(trace_file)])
    t = traced["trace"]
    calls, sizes = t["calls"], t["result_sizes"]
    scale = traced["scale"]
    inclusive = {k: v * scale for k, v in t["inclusive_s"].items()}
    self_s = {k: v * scale for k, v in t["self_s"].items()}
    metrics = {name: (calls.get(span, 0), "count") for name, span in CALLS.items()}
    metrics.update({name: (inclusive.get(span, 0.0), "s") for name, span in INCLUSIVE.items()})
    for module in MODULES:
        metrics[f"{module}.self_s"] = (
            sum((v for k, v in self_s.items() if k.startswith(module + ".")), 0.0),
            "s",
        )
    metrics["lattices.solve_torsion_system.self_s"] = (self_s.get("lattices.solve_torsion_system", 0.0), "s")
    metrics["arrangement.layer_yield"] = (
        ratio(sizes.get("arrangement.build_poset", 0), sizes.get("arrangement.layer_components", 0)),
        "ratio",
    )
    metrics["nested.is_nested.yield"] = (
        ratio(sizes.get("nested.enumerate_maximal", 0), calls.get("nested.is_nested", 0)),
        "ratio",
    )
    metrics["charts.failed_ops"] = (
        sum(" in charts." in op[3] for op in failed_ops(traced)),
        "count",
    )
    metrics["trace.spans"] = (t["spans"], "count")
    metrics["trace.overhead_s"] = (wall(traced) - wall(plain), "s")
    print(f"{workload}: spans written to {trace_file.relative_to(ROOT)}")
    results = [plain, traced]
    attempted, failed = counts(results)
    return results, attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="toricwonder benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S
    try:
        if args.trace:
            results, attempted, failed, metrics = per_layer(args.workload, args.seed, deadline)
        else:
            results, attempted, failed, metrics = end_to_end(
                args.workload, args.seed, args.seconds, deadline
            )
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if names != set(metrics):
        print(f"error: metrics differ from BENCHMARK.json: {sorted(names ^ set(metrics))}", file=sys.stderr)
        return 1
    problems = sorted({p for r in results for p in r["problems"]})
    for p in problems:
        print(f"problem: {p}")
    failures = sorted({(op[0], op[2], op[3]) for r in results for op in failed_ops(r)})
    print(f"{len(failures)} distinct failing operations")
    for op_id, status, detail in failures:
        print(f"  {op_id}: {status} ({detail})")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
