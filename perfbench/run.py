"""End-to-end benchmark of the coloring pipelines, with a separate traced run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ff-er-100k --seed 42 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one table
    python3 perfbench/run.py --smoke             # the benchmark's own test

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs the workload once untraced and once traced, and reports
the per-layer metrics (see ``README.md``).  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Set-ups per run, at least: ``setup_s`` is their median.
MIN_SETUPS = 3
#: The traced run skips its serial pass if that could take it past this.
TRACE_BUDGET_S = 150.0
#: Environment variables that change what the scoring pool does.
FORBIDDEN_ENV_PREFIXES = ("REPRO_PARALLEL_", "REPRO_FAULT_PLAN")


def _fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def _bootstrap() -> None:
    """Import the library from this checkout's ``src/``, nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        _fail(f"no library sources at {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH", "")) if p
    )
    forbidden = sorted(
        k for k in os.environ if k.startswith(FORBIDDEN_ENV_PREFIXES)
    )
    if forbidden:
        _fail(f"refusing to run with {', '.join(forbidden)} set: they change the pool")


def _load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def environment() -> Dict[str, object]:
    import numpy

    from repro.parallel.executor import effective_cpu_count

    return {
        "cpus": effective_cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


# ----------------------------------------------------------------------------
# one op
# ----------------------------------------------------------------------------
@dataclass
class OpOutcome:
    label: str
    seconds: float
    nodes: int
    #: Finished and passed every check.
    completed: bool
    #: Output-level defect: invalid coloring, digest/rounds mismatch.
    incorrect: bool
    #: Deterministic identity of the outcome (counts + digest, or the error).
    fingerprint: tuple
    message: str = ""
    result: object = None


def model_counts(result) -> Dict[str, int]:
    """Exact counts of a result, read off its ledger and recursion tree."""
    nodes, bad, candidates, stack = 0, 0, 0, [result.recursion_root]
    while stack:
        node = stack.pop()
        nodes += 1
        bad += getattr(node, "num_bad_nodes", 0) + getattr(node, "violating_nodes", 0)
        candidates += getattr(node, "selection_evaluations", 0)
        stack.extend(node.children)
    return {
        "rounds": result.rounds,
        "recursion_nodes": nodes,
        "max_depth": result.max_recursion_depth,
        "bad_nodes": bad,
        "candidates": candidates,
    }


def run_op(workload, instance, workers: int, expected, tracer=None) -> OpOutcome:
    """Color one instance (the timed call), then check it (untimed)."""
    from checks import check_coloring, coloring_digest, pool_leftovers

    root = tracer.root("core.driver_self", "color") if tracer else nullcontext()
    error = None
    started = time.perf_counter()
    with root:
        try:
            result = workload.color(instance, workers)
        except Exception as exc:  # a failed op is counted, the run goes on
            result = None
            error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - started
    leftovers = pool_leftovers() if workers > 1 else []
    if result is None:
        return OpOutcome(instance.label, seconds, 0, False, False, ("error", error), error)
    defect = check_coloring(
        instance.graph, instance.palettes, result.coloring, instance.implicit
    )
    digest = coloring_digest(result.coloring)
    counts = model_counts(result)
    fingerprint = (digest,) + tuple(sorted(counts.items()))
    want = expected.get(instance.label) if expected is not None else None
    if defect is None and want is not None and want != (digest, result.rounds):
        defect = f"digest/rounds {digest[:12]}/{result.rounds} != recorded {want[0][:12]}/{want[1]}"
    if defect is None and leftovers:
        message = "pool left behind: " + ", ".join(leftovers)
        return OpOutcome(instance.label, seconds, 0, False, False, fingerprint, message, result)
    ok = defect is None
    return OpOutcome(
        instance.label,
        seconds,
        instance.graph.num_nodes if ok else 0,
        ok,
        not ok,
        fingerprint,
        defect or "",
        result,
    )


def run_pass(workload, num_nodes, seed, workers, expected, tracer=None, probe=None):
    """Build the inputs once and color each; returns (setup_s, outcomes).

    ``probe`` (a :class:`hostspeed.HostProbe`) runs before the set-up and
    after it and each op, outside every timed interval.
    """
    if probe:
        probe()
    started = time.perf_counter()
    with tracer.root("setup", "setup") if tracer else nullcontext():
        instances = workload.build(num_nodes, seed)
    setup_s = time.perf_counter() - started
    outcomes = []
    for inst in instances:
        if probe:
            probe()
        outcomes.append(run_op(workload, inst, workers, expected, tracer))
    if probe:
        probe()
    if tracer is None:
        for outcome in outcomes:
            outcome.result = None  # only the traced pass reads results later
    del instances
    gc.collect()
    return setup_s, outcomes


# ----------------------------------------------------------------------------
# timed run (--trace 0)
# ----------------------------------------------------------------------------
def timed_run(workload, seed: int, seconds: float, scale: str) -> dict:
    """Samples until the budget is spent; timings scaled to the reference
    host speed (see hostspeed.py)."""
    from checks import WorkerMemory, own_peak_rss_mib
    from hostspeed import HostProbe

    num_nodes = workload.sizes[scale]
    expected = workload.expected if (scale == "full" and seed == workload.default_seed) else None
    probe = HostProbe()
    started = time.perf_counter()
    setups: List[float] = []
    rates: List[float] = []
    seen: Dict[str, tuple] = {}
    attempted = failed = 0
    correct = True
    memory = WorkerMemory() if workload.workers > 1 else nullcontext()
    with memory:
        while True:
            sample_started = time.perf_counter()
            setup_s, outcomes = run_pass(
                workload, num_nodes, seed, workload.workers, expected, probe=probe
            )
            setups.append(setup_s)
            rates.append(sum(o.nodes for o in outcomes) / sum(o.seconds for o in outcomes))
            for outcome in outcomes:
                attempted += 1
                failed += not outcome.completed
                correct = correct and not outcome.incorrect
                if seen.setdefault(outcome.label, outcome.fingerprint) != outcome.fingerprint:
                    correct = False
                    print(f"# nondeterministic outcome: {outcome.label}", file=sys.stderr)
                if outcome.message:
                    print(f"# {outcome.label}: {outcome.message}")
            sample_s = time.perf_counter() - sample_started
            if time.perf_counter() - started + sample_s > seconds:
                break
        while len(setups) < MIN_SETUPS:
            t0 = time.perf_counter()
            workload.build(num_nodes, seed)
            setups.append(time.perf_counter() - t0)
            gc.collect()
            probe()
    speed = probe.speed()
    own_mib = own_peak_rss_mib()
    workers_mib = memory.peak_kib / 1024.0 if workload.workers > 1 else 0.0
    peak = own_mib + workers_mib
    raw_rate, raw_setup = statistics.median(rates), statistics.median(setups)
    print(f"# samples={len(rates)} setups={len(setups)} probes={len(probe.times)} "
          f"speed={speed:.4f} raw_rate={raw_rate:.6g} raw_setup_s={raw_setup:.6g} "
          f"rss_mib=own {own_mib:.1f} + workers {workers_mib:.1f}")
    return {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "colored_nodes_per_s": {"value": raw_rate / speed, "unit": "nodes/s"},
            "setup_s": {"value": raw_setup * speed, "unit": "s"},
            "peak_rss_mb": {"value": peak, "unit": "MiB"},
            "completed_frac": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        },
    }


# ----------------------------------------------------------------------------
# traced run (--trace 1)
# ----------------------------------------------------------------------------
_EVALUATIONS = re.compile(r"among (\d+) candidates")


def _observe_select(tracer, args, result, exc) -> None:
    from repro.errors import DerandomizationError

    if isinstance(exc, DerandomizationError):
        tracer.events["derand.failures"] += 1
        found = _EVALUATIONS.search(str(exc))
        tracer.events["derand.candidates_evaluated"] += int(found.group(1)) if found else 0
    elif result is not None:
        tracer.events["derand.selections"] += 1
        tracer.events["derand.candidates_evaluated"] += result.evaluations
        tracer.events["derand.ce_fallbacks"] += bool(result.fallback_used)


def _observe_many(tracer, args, result, exc) -> None:
    tracer.events["hashing.pairs_scored"] += len(args[1])


def install_tracing(tracer) -> None:
    """Wrap every traced layer's public callables (see README.md)."""
    import repro.core.color_reduce as cr_module
    import repro.core.low_space.color_reduce as ls_module
    from repro.core.classification import PartitionCostEvaluator
    from repro.core.color_reduce import ColorReduce
    from repro.core.low_space.color_reduce import LowSpaceColorReduce
    from repro.core.low_space.machine_sets import LowSpaceCostEvaluator
    from repro.core.low_space.partition import LowSpacePartition
    from repro.core.partition import Partition
    from repro.derand.conditional_expectation import HashPairSelector
    from repro.graph import Graph, PaletteAssignment, generators
    from repro.hashing.batch import BatchCostEvaluatorBase
    from repro.parallel.executor import ParallelSlabScorer, SlabExecutor

    wraps = [
        # set-up
        (generators, "erdos_renyi", "graph.generate"),
        (generators, "power_law", "graph.generate"),
        (generators, "random_bipartite", "graph.generate"),
        (PaletteAssignment, "delta_plus_one", "graph.palettes_build"),
        (PaletteAssignment, "degree_plus_one", "graph.palettes_build"),
        (generators, "shared_universe_palettes", "graph.palettes_build"),
        # drivers and partitions
        (ColorReduce, "run", "core.driver_self"),
        (LowSpaceColorReduce, "run", "core.driver_self"),
        (Partition, "run", "core.partition_self"),
        (LowSpacePartition, "run", "low_space.partition_self"),
        # derandomized selection and its scoring
        (HashPairSelector, "select", "derand.select", _observe_select),
        (PartitionCostEvaluator, "__call__", "derand.head_probe"),
        (LowSpaceCostEvaluator, "__call__", "derand.head_probe"),
        (BatchCostEvaluatorBase, "many", "hashing.batch_score", _observe_many),
        (PartitionCostEvaluator, "classify_selected", "core.classify"),
        (LowSpaceCostEvaluator, "outcome_selected", "low_space.outcome"),
        # graph and palettes
        (Graph, "csr", "graph.csr"),
        (Graph, "induced_subgraphs", "graph.extract"),
        (PaletteAssignment, "copy", "graph.palette_copy"),
        (PaletteAssignment, "store", "graph.palette_store"),
        (PaletteAssignment, "validate_for_graph", "graph.palette_validate"),
        (PaletteAssignment, "remove_colors_used_by_neighbors_batch", "graph.palette_update"),
        (PaletteAssignment, "subset_updated", "graph.palette_update"),
        # names the drivers call
        (cr_module, "greedy_list_coloring", "core.greedy"),
        (cr_module, "prefetch_partition_level", "core.level_prefetch"),
        (ls_module, "prefetch_low_space_level", "core.level_prefetch"),
        (ls_module, "color_via_mis", "low_space.mis"),
        (cr_module, "assert_valid_list_coloring", "graph.validate"),
        (ls_module, "assert_valid_list_coloring", "graph.validate"),
        # the scoring pool
        (SlabExecutor, "__init__", "parallel.pool_start"),
        (SlabExecutor, "score_slab", "parallel.score_slab"),
        (SlabExecutor, "run_phase", "parallel.run_phase"),
        (ParallelSlabScorer, "__call__", "parallel.scorer_self"),
    ]
    for owner, attr, name, *observe in wraps:
        tracer.wrap(owner, attr, name, *observe)


#: Span names whose summed self time is reported as ``<name>_s``.
SELF_TIME_METRICS = [
    "core.driver_self", "core.partition_self", "low_space.partition_self",
    "derand.select", "derand.head_probe", "hashing.batch_score", "core.classify",
    "low_space.outcome", "graph.csr", "graph.extract", "graph.palette_copy",
    "graph.palette_store", "graph.palette_validate", "graph.palette_update",
    "core.greedy", "core.level_prefetch", "low_space.mis", "graph.validate",
    "parallel.pool_start", "parallel.score_slab", "parallel.run_phase",
    "parallel.scorer_self",
]
#: Call-count metrics: metric -> span name.
CALL_METRICS = {
    "graph.csr_calls": "graph.csr",
    "derand.head_probe_calls": "derand.head_probe",
    "hashing.batch_calls": "hashing.batch_score",
    "core.classify_calls": "core.classify",
    "core.level_prefetch_calls": "core.level_prefetch",
    "graph.palette_update_calls": "graph.palette_update",
    "core.greedy_calls": "core.greedy",
    "low_space.partitions": "low_space.partition_self",
    "parallel.slabs_pooled": "parallel.score_slab",
}
#: Counts that must not move with tracing, worker count or repetition.
DETERMINISTIC = (
    "model.rounds", "model.recursion_nodes", "model.max_depth", "model.bad_nodes",
    "derand.candidates_evaluated", "hashing.pairs_scored", "parallel.slabs_pooled",
)


def _coloring_seconds(outcomes) -> float:
    return sum(o.seconds for o in outcomes)


def traced_run(workload, seed: int, scale: str, units: Dict[str, str]) -> dict:
    from tracing import Tracer

    num_nodes = workload.sizes[scale]
    expected = workload.expected if (scale == "full" and seed == workload.default_seed) else None
    workers = workload.workers

    started = time.perf_counter()
    _, untraced = run_pass(workload, num_nodes, seed, workers, expected)
    tracer = Tracer()
    install_tracing(tracer)
    try:
        _, traced = run_pass(workload, num_nodes, seed, workers, expected, tracer)
    finally:
        tracer.unwrap_all()
    passes = [untraced, traced]
    untraced_s = _coloring_seconds(untraced)
    # With one worker the workload is its own serial run.
    speedup = 1.0
    if workers > 1:
        # The serial pass takes about twice the untraced one; on a host too
        # slow to fit it, the speed-up is reported as 0 (not measured).
        if time.perf_counter() - started + 2.0 * untraced_s > TRACE_BUDGET_S:
            speedup = 0.0
            print("# serial pass skipped: no time left for it", file=sys.stderr)
        else:
            _, serial = run_pass(workload, num_nodes, seed, 1, expected)
            passes.append(serial)
            speedup = _coloring_seconds(serial) / untraced_s

    correct = all(not o.incorrect for p in passes for o in p)
    for other in passes[1:]:
        for a, b in zip(untraced, other):
            if a.fingerprint != b.fingerprint:
                correct = False
                print(f"# outcome changed between passes: {a.label}", file=sys.stderr)
    for outcome in traced:
        if outcome.message:
            print(f"# {outcome.label}: {outcome.message}")

    total, self_s, calls = tracer.subtree_stats("color")
    metrics: Dict[str, float] = {f"{name}_s": self_s.get(name, 0.0) for name in SELF_TIME_METRICS}
    if abs(sum(metrics.values()) - total) > 1e-6 * max(total, 1.0):
        correct = False
        print("# self times do not add up to the traced coloring time", file=sys.stderr)
    metrics.update({metric: calls.get(name, 0) for metric, name in CALL_METRICS.items()})
    events = tracer.events
    for name in ("derand.selections", "derand.candidates_evaluated", "derand.failures",
                 "derand.ce_fallbacks", "hashing.pairs_scored"):
        metrics[name] = int(events.get(name, 0))
    metrics["derand.useful_frac"] = (
        metrics["derand.selections"] / metrics["derand.candidates_evaluated"]
        if metrics["derand.candidates_evaluated"] else 0.0
    )
    metrics["graph.generate_s"] = tracer.inclusive("setup", {"graph.generate"})
    metrics["graph.palettes_build_s"] = tracer.inclusive("setup", {"graph.palettes_build"})

    scorer_calls = calls.get("parallel.scorer_self", 0)
    pooled = metrics["parallel.slabs_pooled"]
    metrics["parallel.slabs_in_process"] = scorer_calls - pooled
    metrics["parallel.engaged_frac"] = pooled / scorer_calls if scorer_calls else 0.0
    done = [o for o in traced if o.completed]
    metrics["parallel.bytes_shipped"] = sum(
        o.result.pool_health.bytes_shipped + o.result.pool_health.bytes_shared for o in done
    )
    metrics["parallel.recoveries"] = sum(o.result.pool_health.total_events for o in done)
    metrics["parallel.speedup_vs_serial"] = speedup

    counts = [model_counts(o.result) for o in done]
    metrics["model.rounds"] = sum(c["rounds"] for c in counts)
    metrics["model.recursion_nodes"] = sum(c["recursion_nodes"] for c in counts)
    metrics["model.max_depth"] = max((c["max_depth"] for c in counts), default=0)
    metrics["model.bad_nodes"] = sum(c["bad_nodes"] for c in counts)
    tree_candidates = sum(c["candidates"] for c in counts)
    if (
        len(done) == len(traced)
        and tree_candidates
        and tree_candidates != metrics["derand.candidates_evaluated"]
    ):
        correct = False
        print("# candidates counted by spans differ from the recursion tree", file=sys.stderr)

    metrics["trace.coloring_s"] = total
    metrics["trace.overhead_frac"] = total / untraced_s - 1.0

    trace_path = os.path.join(HERE, "traces", f"{workload.name}_seed{seed}_{scale}.json")
    tracer.dump(trace_path, {"workload": workload.name, "seed": seed, "scale": scale,
                             "env": environment(), "metrics": metrics})
    print(f"# spans={len(tracer.spans)} written to {os.path.relpath(trace_path, ROOT)}")
    attempted = len(traced)
    return {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": sum(not o.completed for o in traced),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


# ----------------------------------------------------------------------------
# smoke self-test and the all-workloads table
# ----------------------------------------------------------------------------
def _invoke(args: List[str]) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__)] + args,
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SystemExit(f"perfbench {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def smoke(spec: dict) -> int:
    """Run every workload tiny, traced and untraced, and check the output
    shape against BENCHMARK.json plus the determinism of the exact counts."""
    from workloads import WORKLOADS

    problems: List[str] = []
    for kind, key in (("end_to_end", "0"), ("per_layer", "1")):
        want = {m["name"]: m["unit"] for m in spec[kind]}
        for name in WORKLOADS:
            before = len(problems)
            runs = [
                _invoke(["--workload", name, "--seconds", "1", "--trace", key, "--scale", "smoke"])
                for _ in range(2 if key == "1" else 1)
            ]
            for result in runs:
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"{name}: result keys {sorted(result)}")
                got = {m: v["unit"] for m, v in result["metrics"].items()}
                if got != want:
                    problems.append(f"{name} trace={key}: metrics/units differ: {sorted(set(got) ^ set(want))}")
                if not result["correct"] or result["attempted"] < 1:
                    problems.append(f"{name} trace={key}: correct={result['correct']}")
            if key == "1":
                a, b = (r["metrics"] for r in runs)
                moved = [m for m in DETERMINISTIC if a[m]["value"] != b[m]["value"]]
                if moved:
                    problems.append(f"{name}: counts moved between traced runs: {moved}")
            print(f"smoke {name} trace={key}: {'ok' if len(problems) == before else 'FAIL'}")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


def all_workloads(seconds: int) -> int:
    from workloads import WORKLOADS

    table = {}
    for name in WORKLOADS:
        result = _invoke(["--workload", name, "--seconds", str(seconds), "--trace", "0"])
        table[name] = result
        cells = "  ".join(
            f"{metric}={m['value']:.4g} {m['unit']}" for metric, m in result["metrics"].items()
        )
        print(f"{name:18s} correct={result['correct']} failed={result['failed']}/{result['attempted']}  {cells}")
    print(json.dumps({
        "correct": all(r["correct"] for r in table.values()),
        "attempted": sum(r["attempted"] for r in table.values()),
        "failed": sum(r["failed"] for r in table.values()),
        "metrics": {
            f"{name}.{metric}": m for name, r in table.items() for metric, m in r["metrics"].items()
        },
    }))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=None, help="input seed (default per workload)")
    parser.add_argument("--seconds", type=float, default=40.0, help="measuring budget per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--smoke", action="store_true", help="run the self-test")
    args = parser.parse_args(argv)

    _bootstrap()
    sys.path.insert(0, HERE)
    spec = _load_spec()
    if args.smoke:
        return smoke(spec)
    if args.workload == "all":
        return all_workloads(int(args.seconds))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)} or 'all'")
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    print(f"# env {json.dumps(environment())}")
    print(f"# workload {workload.name} seed={seed} scale={args.scale} trace={args.trace}")
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        result = traced_run(workload, seed, args.scale, units)
    else:
        result = timed_run(workload, seed, args.seconds, args.scale)
    if workload.workers > 1:
        _stop_resource_tracker()
    for name, metric in result["metrics"].items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


def _stop_resource_tracker() -> None:
    """Stop and wait for the helper process multiprocessing starts to track
    the pool's shared-memory segments (it would otherwise outlive us)."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    sys.exit(main())
