#!/usr/bin/env python3
"""Run one catgram benchmark workload and print its metrics.

    python3 perfbench/run.py --workload parse --seed 1 --seconds 36 --trace 0

Run from the root of a catgram checkout; the library is imported from
``src/``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A
summary (passes, the tail percentile and its sample count, failed ops) goes
to standard error, and the spans of a traced run to
``perfbench/out/trace-<workload>-<seed>.json``.

A run sets the workload up ``SETUP_REPEATS`` times (each re-imports
catgram) and reports the median set-up time, then repeats whole passes over
the workload's fixed op list, made by the last set-up, for about
``--seconds``.  Throughputs are medians over the untraced passes;
latency percentiles are taken over the ops, each op's latency being its
median over those passes.  A traced run alternates untraced and traced
passes and reports per-layer self times, counters and the tracing overhead.

Set-up, op and pass times are calibrated seconds (see ``harness``): wall
time scaled by how fast the machine ran a fixed calibration kernel just
before and after.  The summary on standard error gives the raw wall-time
figures too.  Per-layer self times are raw wall seconds.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time

import harness
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 9

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "tokens_per_s": "gens/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

LAYER_TIMES = (
    "parser.chart", "parser.forest", "parser.count", "parser.enumerate",
    "product.pullback", "product.trim", "automaton.membership", "grammar.image",
    "grammar.check_equiv", "oracle.enumerate", "contour.decompose", "contour.cs_check",
    "contour.word", "contour.dyck_encode", "contour.dyck_decode", "species.trees",
    "jsonio.load", "jsonio.dump",
)
LAYER_COUNTS = (
    "parser.items", "parser.forest_items", "parser.alternatives", "parser.trees",
    "product.nodes_raw", "product.nodes_trimmed", "oracle.words", "contour.letters",
    "species.trees", "grammar.check_equiv_words",
)
PER_LAYER = {
    **{name + "_s": "s" for name in LAYER_TIMES},
    **{name: "count" for name in LAYER_COUNTS},
    "parser.items_per_s": "1/s",
    "parser.useful_items_ratio": "ratio",
    "product.useful_nodes_ratio": "ratio",
    "cli.import_ms": "ms",
    "trace.overhead_s": "s",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "catgram", "__init__.py")):
        print(f"error: no catgram sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        result = run_workload(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_workload(args: argparse.Namespace, workdir: str) -> dict:
    setup = workloads.WORKLOADS[args.workload]
    setup_times = []
    setup_walls = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        before = harness.calibrate()
        t0 = time.perf_counter()
        ops = setup(workloads.import_catgram(), args.seed, workdir)
        wall = time.perf_counter() - t0
        setup_times.append(harness.calibrated(wall, before, harness.calibrate()))
        setup_walls.append(wall)

    tracer = harness.Tracer()
    pass_selfs: list[dict[str, float]] = []
    setup_self: dict[str, float] = {}
    if args.trace:
        # the measured ops come from one more set-up, traced, so the jsonio
        # work of a set-up shows in the layer times
        mods = workloads.import_catgram()
        targets = workloads.trace_targets(mods)
        with harness.instrumented(tracer, targets), tracer.span("setup"):
            ops = setup(mods, args.seed, workdir)
        setup_self = tracer.self_times()

        def traced_pass(start: int) -> harness.PassResult:
            first = len(tracer.spans)
            with harness.instrumented(tracer, targets):
                result = harness.run_pass(ops, tracer, start)
            pass_selfs.append(tracer.self_times(first))
            return result

        plain, traced = harness.measure(ops, args.seconds, traced_pass)
    else:
        plain, traced = harness.measure(ops, args.seconds)

    passes = plain + traced
    attempted = sum(len(p.results) for p in passes)
    failed = sum(p.failed for p in passes)
    counters = passes[0].counters()
    problems = [f"op {r.op_id} {r.name}: {r.error}" for p in passes for r in p.results if not r.ok]
    if any(p.counters() != counters for p in passes):
        problems.append("counters differ between passes of the same seed")
    if args.trace:
        for op in ops:
            for key, value in (op.extra() if op.extra else {}).items():
                counters[key] = counters.get(key, 0) + value
    problems += check_repeatable(args, counters)

    tail = harness.tail_percentile(len(ops))
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "ops_per_pass": len(ops),
        "untraced_passes": len(plain),
        "traced_passes": len(traced),
        "pass_seconds": [round(p.seconds, 4) for p in passes],
        "pass_wall_seconds": [round(p.op_wall, 4) for p in passes],
        "wall": {
            "setup_s": statistics.median(setup_walls),
            "ops_per_s": statistics.median(len(ops) / p.op_wall for p in plain),
        },
        "tail_percentile": tail,
        "tail_samples": len(ops),
        "fail_ratio": harness.fail_ratio(attempted, failed),
        "counters": counters,
        "problems": problems[:20],
    }
    print(json.dumps(summary, indent=1), file=sys.stderr)

    if args.trace:
        metrics = layer_metrics(args, counters, setup_self, pass_selfs, plain, traced)
        with open(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json"), "w") as fh:
            json.dump({"summary": summary, "spans": tracer.to_json()}, fh)
    else:
        metrics = end_to_end_metrics(ops, setup_times, plain, tail, args.workload == "cli")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def end_to_end_metrics(ops, setup_times, plain, tail, children: bool) -> dict:
    median = statistics.median
    rusage = resource.getrusage(resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF)
    # each op's latency is its median over the passes, so one slow moment
    # of the machine does not move an op across the percentile's rank; the
    # percentiles are Harrell-Davis estimates, which do not jump across the
    # gaps between the op latencies next to the rank
    op_latencies = [median(p.latencies[i] for p in plain) for i in range(len(ops))]
    values = {
        "setup_s": median(setup_times),
        "ops_per_s": median(len(ops) / p.seconds for p in plain),
        "tokens_per_s": median(p.tokens / p.seconds for p in plain),
        "latency_p50_ms": 1000 * harness.hd_quantile(op_latencies, 0.5),
        "latency_tail_ms": 1000 * harness.hd_quantile(op_latencies, tail / 100),
        "peak_rss_mb": rusage.ru_maxrss / 1024,  # kilobytes on Linux
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def layer_metrics(args, counters, setup_self, pass_selfs, plain, traced) -> dict:
    """Self time per layer (raw wall seconds) over one traced set-up plus the
    median traced pass; counters per pass; the calibrated tracing overhead
    per pass."""
    median = statistics.median
    values: dict[str, float] = {}
    for name in LAYER_TIMES:
        values[name + "_s"] = setup_self.get(name, 0.0) + median(s.get(name, 0.0) for s in pass_selfs)
    for name in LAYER_COUNTS:
        values[name] = counters.get(name, 0)
    chart = values["parser.chart_s"]
    values["parser.items_per_s"] = counters.get("parser.items", 0) / chart if chart else 0.0
    values["parser.useful_items_ratio"] = _ratio(counters, "parser.forest_items", "parser.items")
    values["product.useful_nodes_ratio"] = _ratio(counters, "product.nodes_trimmed", "product.nodes_raw")
    values["cli.import_ms"] = workloads.cli_import_ms() if args.workload == "cli" else 0.0
    values["trace.overhead_s"] = median(p.seconds for p in traced) - median(p.seconds for p in plain)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def _ratio(counters: dict, part: str, whole: str) -> float:
    return counters[part] / counters[whole] if counters.get(whole) else 0.0


def check_repeatable(args: argparse.Namespace, counters: dict) -> list[str]:
    """Compare the counters with those an earlier run of the same workload,
    seed and sources recorded, and record them if none did."""
    digest = hashlib.sha256()
    for directory in (os.path.join(ROOT, "src", "catgram"), HERE):
        for name in sorted(os.listdir(directory)):
            if name.endswith(".py"):
                with open(os.path.join(directory, name), "rb") as fh:
                    digest.update(name.encode() + b"\0" + fh.read())
    key = f"{args.workload}-{args.seed}-{args.trace}-{digest.hexdigest()[:16]}"
    path = os.path.join(OUT, "counters", key + ".json")
    if os.path.exists(path):
        with open(path) as fh:
            earlier = json.load(fh)
        if earlier != counters:
            return [f"counters differ from an earlier run of the same seed ({path})"]
        return []
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(counters, fh, sort_keys=True)
    return []


if __name__ == "__main__":
    sys.exit(main())
