#!/usr/bin/env python3
"""Bench regression gate.

Compares fresh bench runs against the committed reference medians and
fails (exit 1) when the measurements show a regression the host's noise
cannot explain.

    bench_gate.py <committed.json> <fresh.json>... [threshold]

`committed.json` is the repo's `BENCH_summary.json`; its `baseline`
section holds the reference medians (per-id minima over many runs, i.e.
each id's fast layout). Each `fresh.json` is a scratch summary produced
by running the benches with `BENCH_SUMMARY_PATH` pointing at it; its
`current` section holds that run's medians.

What the gate is up against: on shared hosts each *process* lands every
hot loop in a fast or a slow placement (physical-page / SMT aliasing
that survives disabling ASLR), so an individual id legitimately swings
~2x between runs — stable within a process, random across processes,
uncorrelated between ids. Per-id thresholds at the interesting 30%
level would flake constantly. The gate therefore layers three checks,
each robust to per-id mode flips:

* **batch median** — the median fresh/baseline ratio across all gated
  ids must stay under `1 + threshold`. Independent per-id mode flips
  leave the median near the typical mode, so a broad real regression
  (every id drifting together) is caught at full 30% sensitivity.
* **per-id hard cap** — each id's ratio, normalized by the batch
  median, must stay under `MODE_STEP * (1 + threshold)`. One mode step
  is environmental; beyond a mode step plus the threshold is a real
  per-id regression (the accidental-clone / lost-cache class).
* **serve cache contract** — within at least one fresh file (so both
  sides share a process), `serve/cold_pipe` must be `SERVE_FLOORS[id]`x
  slower than each hit row: 30x for `serve/warm_hit`, the engine's
  content-hash hit, and 10x for `serve/wire_hit`, the same hit through
  the request decoder, the engine's wire path and the client's envelope
  decoder. This pins both hit paths absolutely: in practice the ratios
  are 50-130x and 20-40x, and no combination of mode flips drags a
  working cache or a linear codec below its floor.

The per-id table still marks ids beyond the 30% threshold (`warn`) so
a human can watch for creep; only the three checks above fail the run.
Ids without a committed baseline are reported but never fail the gate.
`threshold` is the allowed relative regression (default 0.30); a
trailing numeric argument is parsed as the threshold, everything before
it as fresh files.
"""

import json
import statistics
import sys

GATED_PREFIXES = (
    "verify/",
    "fig2/",
    "estimation/",
    "analyze/",
    "compile/",
    "serve/",
    "federated/",
)

# One fast->slow placement step observed on shared hosts (measured
# 2.05-2.2x across layouts); regressions are only attributed to code
# once they exceed a full step plus the threshold.
MODE_STEP = 2.0

# Minimum within-process ratio of `serve/cold_pipe` to each serve hit row.
SERVE_FLOORS = {"serve/warm_hit": 30.0, "serve/wire_hit": 10.0}


def main() -> int:
    if len(sys.argv) < 3:
        print(__doc__)
        return 2
    args = sys.argv[1:]
    threshold = 0.30
    try:
        threshold = float(args[-1])
        args = args[:-1]
    except ValueError:
        pass
    if len(args) < 2:
        print(__doc__)
        return 2
    committed = json.load(open(args[0]))
    runs = [json.load(open(path)).get("current", {}) for path in args[1:]]

    reference = committed.get("baseline", {})
    measured = {}
    for run in runs:
        for bench_id, ns in run.items():
            if bench_id not in measured or ns < measured[bench_id]:
                measured[bench_id] = ns

    gated = {
        bench_id: ns
        for bench_id, ns in measured.items()
        if bench_id.startswith(GATED_PREFIXES)
    }
    skipped = sorted(set(gated) - set(reference))
    ratios = {
        bench_id: ns / reference[bench_id]
        for bench_id, ns in gated.items()
        if bench_id in reference
    }
    if not ratios:
        print("bench gate: no gated ids with a committed baseline")
        return 0
    batch = statistics.median(ratios.values())
    cap = MODE_STEP * (1.0 + threshold)

    failures = []
    label = "fresh" if len(runs) == 1 else f"min of {len(runs)}"
    print(f"{'id':<44} {'baseline':>12} {label:>12} {'delta':>8} {'norm':>8}")
    for bench_id in sorted(ratios):
        normalized = ratios[bench_id] / batch
        if normalized > cap:
            flag = " FAIL"
            failures.append(
                f"{bench_id}: {normalized:.2f}x normalized exceeds the "
                f"{cap:.2f}x per-id cap (a mode step cannot explain it)"
            )
        elif normalized - 1.0 > threshold:
            flag = " warn"
        else:
            flag = ""
        print(
            f"{bench_id:<44} {reference[bench_id]:>12.0f} {gated[bench_id]:>12.0f}"
            f" {ratios[bench_id] - 1.0:>+7.1%} {normalized - 1.0:>+7.1%}{flag}"
        )
    for bench_id in skipped:
        print(f"{bench_id:<44} {'(no baseline — skipped)':>34}")
    print(f"\nbatch median fresh/baseline ratio: {batch:.3f} (normalizer)")

    if batch - 1.0 > threshold:
        failures.append(
            f"batch median ratio {batch:.3f} exceeds 1 + {threshold:.0%}: "
            "the whole suite regressed together"
        )

    for hit_id, floor in SERVE_FLOORS.items():
        cache_ratios = [
            run["serve/cold_pipe"] / run[hit_id]
            for run in runs
            if run.get(hit_id) and run.get("serve/cold_pipe")
        ]
        if not cache_ratios:
            continue
        best = max(cache_ratios)
        print(f"serve cache contract: best within-run serve/cold_pipe / {hit_id} ratio {best:.1f}x")
        if best < floor:
            failures.append(
                f"serve/cold_pipe is only {best:.1f}x {hit_id} "
                f"(floor {floor:.0f}x): the hit path lost its advantage"
            )

    if failures:
        for failure in failures:
            print(f"bench gate: {failure}")
        print(f"bench gate: {len(failures)} failure(s)")
        return 1
    floors = ", ".join(f"{hit_id} {floor:.0f}x" for hit_id, floor in SERVE_FLOORS.items())
    print(
        f"bench gate: ok (batch {threshold:.0%}, per-id cap {cap:.2f}x, "
        f"serve floors {floors})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
