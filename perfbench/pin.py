"""Record the answers the benchmark checks against, from the current code.

    python3 perfbench/pin.py      # rewrite perfbench/expected.json

Run it only when an output is meant to change.  It records, per family,
the signature (layers / points / building-set members / maximal nested
sets), the report header and the layer IDs of points and building-set
members; the sha256 of every pinned CLI stdout and stderr; the fixed
pool of curve germs the query workload draws from, with each germ's
outcome; and the atlas sweeps that fail, with the samples each skips.
"""

from __future__ import annotations

import json
import os
import random
import sys

import worker
from worker import (
    ATLAS_FAMILIES,
    BENCH,
    ROOT,
    POSET_COMMANDS,
    POSET_FAMILIES,
    QUERY_MIX,
    SAMPLES,
    SWEEPS,
    CliJob,
    family_path,
    origin,
    run_cli,
    sha256,
)

CURVE_POOL = {"A3": 48}  # germs per family; the others get 16
PIN_SEED = 0


class CountingRandom(random.Random):
    """A Random that counts `random()` draws, to locate a crash in a sweep."""

    draws = 0

    def random(self):
        self.draws += 1
        return super().random()


def outcome(tw, argv) -> dict:
    job = CliJob("pin", argv, "", None)
    run_cli(tw, job)
    if job.result[0] == "crash":
        return {"crash": job.result[1]}
    _, code, out, err = job.result
    return {"exit": code, "stdout": sha256(out), "stderr": sha256(err)}


def family_info(tw, fam: str) -> dict:
    arr, name = tw.cli.parse_file(family_path(fam))
    poset = tw.build_poset(arr)
    building = tw.irreducible_layers(poset)
    lid = {id(layer): f"L{i}" for i, layer in enumerate(poset.layers)}
    head, _ = tw.cli.header(arr, name, poset)
    return {
        "rank": arr.rank,
        "signature": {
            "layers": len(poset.layers),
            "points": len(poset.points),
            "building": len(building.members),
            "maximal": len(tw.enumerate_all_maximal(poset, building)),
        },
        "header": sha256("".join(line + "\n" for line in head)),
        "header_lines": len(head),
        "points": [lid[id(p)] for p in poset.points],
        "building": [lid[id(m)] for m in building.members],
    }


def curve_pool(tw, fam: str, info: dict) -> list[dict]:
    rng = random.Random(f"curve-pool:{fam}")
    pool = []
    for _ in range(CURVE_POOL.get(fam, 16)):
        point = rng.choice(info["points"])
        jets = []
        for _ in range(rng.randint(1, info["rank"])):
            jet = [0] * info["rank"]
            while not any(jet):
                jet = [rng.randint(-2, 2) for _ in range(info["rank"])]
            jets.append(",".join(str(x) for x in jet))
        jets = ";".join(jets)
        argv = ["curve", family_path(fam), "--point", point, f"--jets={jets}"]
        pool.append({"point": point, "jets": jets, "expect": outcome(tw, argv)})
    return pool


def atlas_failures(tw, fam: str) -> dict:
    """Charts whose sweeps fail at PIN_SEED, with the samples left unchecked."""
    arr, _ = tw.cli.parse_file(family_path(fam))
    poset = tw.build_poset(arr)
    charts = tw.atlas(poset, tw.irreducible_layers(poset))
    rng = CountingRandom(f"atlas:{PIN_SEED}:{fam}")
    out = {}
    for k, chart in enumerate(charts):
        for kind in SWEEPS:
            before = rng.draws
            try:
                getattr(tw.charts, f"{kind}_sweep")(chart, rng, SAMPLES)
            except Exception as exc:
                # each sample draws two numbers per coordinate; the last
                # sample drawn is the one that failed
                done = (rng.draws - before) // (2 * chart.rank) - 1
                out[f"atlas/{fam}/{k}"] = {
                    "error": f"{kind} sweep: {origin(exc)}",
                    "skipped_samples": SAMPLES - done,
                }
    return out


def main() -> int:
    os.chdir(ROOT)
    tw = worker.load_toricwonder()
    used = dict.fromkeys(ATLAS_FAMILIES + POSET_FAMILIES + tuple(QUERY_MIX))
    expected = {"families": {fam: family_info(tw, fam) for fam in used}}
    expected["poset"] = {
        f"{fam}/{cmd}": outcome(tw, [cmd, family_path(fam)])
        for fam in POSET_FAMILIES
        for cmd in POSET_COMMANDS
    }
    expected["curve_pool"] = {
        fam: curve_pool(tw, fam, expected["families"][fam]) for fam in QUERY_MIX
    }
    expected["nested"] = {}
    for fam, (_, _, n_max, n_all) in QUERY_MIX.items():
        if not (n_max or n_all):
            continue
        expected["nested"][fam] = {
            p: {
                "max": outcome(tw, ["nested", family_path(fam), "--point", p, "--max"]),
                "all": outcome(tw, ["nested", family_path(fam), "--point", p]),
            }
            for p in expected["families"][fam]["points"]
        }
    expected["atlas_failures"] = {}
    for fam in ATLAS_FAMILIES:
        expected["atlas_failures"].update(atlas_failures(tw, fam))
    (BENCH / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
