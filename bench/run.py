"""limitseries benchmark: seeded workloads, one item at a time, every
result checked.

    python3 bench/run.py --workload {oracle,chains,limit,all} --seed N \
        --seconds S --trace {0,1}

Each workload runs single-threaded in its own process as a closed loop:
the next item starts when the previous one is checked.  Passes over the
items repeat for S seconds: at least MIN_PASSES run, and after those no
pass starts that would end late if it took as long as the slowest one.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json.
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics; the spans of the last traced pass go to
.bench_out/trace-<workload>-seed<N>.json.

A summary comes first; the last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("oracle", "chains", "limit")

MIN_PASSES = 3
# item_tail_ms is the highest percentile with TAIL_BEYOND item runs beyond
# it in MIN_PASSES passes; fixing it by the minimum keeps it comparable
# between runs that fit a different number of passes
TAIL_BEYOND = 10
SETUP_REPEATS = 15
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import limitseries; "
                "print(time.perf_counter() - t)")

# per-layer counts that come straight from the tracer's counters
LAYER_COUNTS = (
    "interp.conditions_matrix.entries",
    "linalg.rank_mod_p.entries",
    "linalg.kernel_over_fpt.entries",
    "linalg.kernel_over_fpt.max_tdeg_out",
    "localring.TModule.from_rows.rows_in",
    "localring.TModule.from_rows.rows_out",
    "localring.flat_limit.vectors_in",
    "localring.flat_limit.dim_out",
)


def import_library():
    """Put the checkout's src/ first on the path and import limitseries
    from there; exit non-zero when the sources are missing."""
    package = SRC / "limitseries"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no limitseries sources in {package}")
    sys.path.insert(0, str(SRC))
    import limitseries
    if Path(limitseries.__file__).resolve().parent != package:
        sys.exit(f"error: limitseries imported from {limitseries.__file__}")


def measure_setup(workload, seed):
    """Median import time (fresh interpreters) plus median generation time."""
    imports = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, check=True, timeout=120)
        imports.append(float(out.stdout))
    gens = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        items = workload.generate(seed)
        gens.append(time.perf_counter() - start)
    return statistics.median(imports) + statistics.median(gens), items


def run_pass(workload, items, tracer=None):
    """One pass over the items: (wall seconds, per-item seconds, failures)."""
    gc.collect()
    times = []
    failed = 0
    start = time.perf_counter()
    for item in items:
        if tracer is not None:
            tracer.item = item.id
        t = time.perf_counter()
        try:
            ok, _result = workload.run(item)
        except Exception:
            ok = False
            print(f"item {item.id} raised:", file=sys.stderr)
            traceback.print_exc()
        else:
            if not ok:
                print(f"item {item.id} failed its check", file=sys.stderr)
        times.append(time.perf_counter() - t)
        failed += not ok
    return time.perf_counter() - start, times, failed


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(workload, items, seconds, setup_s):
    passes = []
    deadline = time.perf_counter() + seconds
    # no pass starts that the slowest pass so far says would end late
    while (len(passes) < MIN_PASSES
           or time.perf_counter() + max(p[0] for p in passes) < deadline):
        passes.append(run_pass(workload, items))
    attempted = len(items) * len(passes)
    failed = sum(p[2] for p in passes)
    # each item's fastest run: on a shared host the slower runs of an item
    # time its neighbours, not the program
    per_item = [min(p[1][i] for p in passes) for i in range(len(items))]
    q = 1 - TAIL_BEYOND / (len(items) * MIN_PASSES)
    values = {
        "wall_s": sum(per_item),
        "item_p50_ms": statistics.median(per_item) * 1e3,
        "item_tail_ms": nearest_rank(per_item, q) * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "wall_s": f"sum of per-item fastest times over {len(passes)} passes",
        "item_p50_ms": f"median of {len(items)} per-item fastest times",
        "item_tail_ms": f"p{100 * q:.2f}, {attempted} item runs",
        "setup_s": f"median import of {SETUP_REPEATS} + median generation",
        "peak_rss_mb": "whole process",
    }
    return values, notes, attempted, failed, True


def traced(workload, items, seconds, trace_path):
    from spans import TRACED, Tracer

    plain, runs = [], []
    deadline = time.perf_counter() + seconds
    longest = 0.0  # the slowest plain and traced pair of passes so far
    while not runs or time.perf_counter() + longest < deadline:
        pair_start = time.perf_counter()
        plain.append(run_pass(workload, items))
        with Tracer() as tracer:
            wall, _times, failed = run_pass(workload, items, tracer)
        runs.append((wall, failed, dict(tracer.counts),
                     tracer.self_seconds(), wall - tracer.covered_seconds()))
        longest = max(longest, time.perf_counter() - pair_start)
    counts = runs[0][2]
    steady = all(run[2] == counts for run in runs)
    if not steady:
        print("error: traced passes disagree on work counts", file=sys.stderr)

    def med(key):
        return statistics.median(run[3].get(key, 0.0) for run in runs)

    values = {}
    for name in TRACED:
        values[name + ".calls"] = counts.get(name + ".calls", 0)
        values[name + ".self_s"] = med(name)
    for key in LAYER_COUNTS:
        values[key] = counts.get(key, 0)
    nonzero = counts.get("linalg.rank_mod_p.nonzero_rows", 0)
    values["linalg.rank_mod_p.rank_per_row"] = (
        counts.get("linalg.rank_mod_p.rank", 0) / nonzero if nonzero else 0.0)
    values["trace.overhead_s"] = (statistics.median(run[0] for run in runs)
                                  - statistics.median(p[0] for p in plain))
    values["trace.uncovered_s"] = statistics.median(run[4] for run in runs)

    TRACE_DIR.mkdir(exist_ok=True)
    with open(trace_path, "w") as fh:
        json.dump(tracer.to_json(), fh, separators=(",", ":"))  # last pass
    attempted = len(items) * (len(plain) + len(runs))
    failed = sum(p[2] for p in plain) + sum(run[1] for run in runs)
    notes = {"trace.overhead_s": f"{len(runs)} traced vs {len(plain)} plain passes"}
    return values, notes, attempted, failed, steady


def run_workload(args):
    import_library()
    import workloads

    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    workload = workloads.WORKLOADS[args.workload]
    if args.trace:
        items = workload.generate(args.seed)
    else:
        setup_s, items = measure_setup(workload, args.seed)
    print(f"limitseries benchmark: workload {args.workload}, seed {args.seed}, "
          f"{len(items)} items, tracing {'on' if args.trace else 'off'}")
    if args.trace:
        path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        result = traced(workload, items, args.seconds, path)
        wanted = spec["per_layer"]
    else:
        result = end_to_end(workload, items, args.seconds, setup_s)
        wanted = spec["end_to_end"]
    values, notes, attempted, failed, steady = result
    metrics = {}
    for m in wanted:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<40} {value:<12.6g} {m['unit']:<6} "
              f"{notes.get(m['name'], '')}".rstrip())
    print(f"  {'failed_ratio':<40} {failed / attempted:<12.6g} ratio  "
          f"{failed} of {attempted} item runs")
    if args.trace:
        print(f"  spans of the last traced pass: {path.relative_to(ROOT)}")
    return {"correct": failed == 0 and steady, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def run_all(args):
    """Each workload in its own process; metrics are prefixed by workload."""
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        out["correct"] = out["correct"] and result["correct"]
        out["attempted"] += result["attempted"]
        out["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            out["metrics"][f"{name}.{key}"] = metric
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
