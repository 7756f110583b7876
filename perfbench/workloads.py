"""The benchmark's workloads: inputs built from a seed, and one coloring op each.

Every input is built through the library's public generators and palette
constructors, and every op is one public ``run`` call with
``validate=True`` (the library's own validation stays inside the timed
call, because CLI users pay for it).  See ``README.md`` for why each
workload was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro.core.color_reduce import ColorReduce
from repro.core.low_space.color_reduce import LowSpaceColorReduce
from repro.core.low_space.params import LowSpaceParameters
from repro.core.params import ColorReduceParameters
from repro.derand.conditional_expectation import SelectionStrategy
from repro.experiments.workloads import build_workload
from repro.graph import PaletteAssignment, generators


@dataclass
class Instance:
    """One op's input: a graph and its palettes."""

    label: str
    graph: object
    palettes: PaletteAssignment
    #: The palettes are the trivial {0..Δ} sets of plain (Δ+1)-coloring.
    implicit: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    #: Node count per scale ("full" is the benchmark, "smoke" the self-test).
    sizes: Dict[str, int]
    #: ``build(num_nodes, seed) -> instances``: the set-up that ``setup_s`` times.
    build: Callable[[int, int], List[Instance]]
    #: ``color(instance, workers) -> result``: one op, the timed call.
    color: Callable[[Instance, int], object]
    workers: int
    #: label -> (coloring digest, rounds) at full scale and the default seed,
    #: for the ops that complete there.
    expected: Dict[str, Tuple[str, int]] = field(default_factory=dict)


# -- ff-er-100k ----------------------------------------------------------------
def _build_er(num_nodes: int, seed: int) -> List[Instance]:
    graph = generators.erdos_renyi(num_nodes, 16.0 / num_nodes, seed=seed)
    palettes = PaletteAssignment.delta_plus_one(graph)
    return [Instance(f"G(n,16/n) seed={seed}", graph, palettes, implicit=True)]


def _color_er(instance: Instance, workers: int):
    # The bench_p8 smoke configuration: depth 3, 10 Partition calls.
    params = ColorReduceParameters.scaled(
        num_bins=4,
        collect_factor=0.25,
        selection_strategy=SelectionStrategy.FIRST_FEASIBLE,
        parallel_workers=workers,
    )
    return ColorReduce(params, validate=True).run(
        instance.graph, instance.palettes, palettes_are_implicit=True
    )


# -- ce-lists-2k ---------------------------------------------------------------
def _build_dense_lists(num_nodes: int, seed: int) -> List[Instance]:
    graph, palettes, _ = build_workload("dense-random-lists", num_nodes, seed=seed)
    return [Instance(f"dense-random-lists seed={seed}", graph, palettes)]


def _color_ce(instance: Instance, workers: int):
    params = ColorReduceParameters(
        selection_strategy=SelectionStrategy.CONDITIONAL_EXPECTATION,
        parallel_workers=workers,
    )
    return ColorReduce(params, validate=True).run(instance.graph, instance.palettes)


# -- lowspace-lists-5k ---------------------------------------------------------
LOWSPACE_FAMILIES = ("dense-random-lists", "social-power-law", "bipartite-schedule")


def _build_lowspace(num_nodes: int, seed: int) -> List[Instance]:
    instances = []
    for family_seed in (seed, seed + 1):
        for family in LOWSPACE_FAMILIES:
            graph, palettes, _ = build_workload(family, num_nodes, seed=family_seed)
            instances.append(Instance(f"{family} seed={family_seed}", graph, palettes))
    return instances


def _color_lowspace(instance: Instance, workers: int):
    # Default LowSpaceParameters: the CLI and service path.
    params = LowSpaceParameters(parallel_workers=workers)
    return LowSpaceColorReduce(params, validate=True).run(instance.graph, instance.palettes)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="ff-er-100k",
            default_seed=42,
            sizes={"full": 100_000, "smoke": 3_000},
            build=_build_er,
            color=_color_er,
            workers=1,
            expected={
                "G(n,16/n) seed=42": (
                    "6b0fb6f665e5f5e76c572aca5124323e53f27990b1c317425501da750a9f1ce5", 86
                ),
            },
        ),
        Workload(
            name="ce-lists-2k",
            default_seed=1,
            sizes={"full": 2_000, "smoke": 300},
            build=_build_dense_lists,
            color=_color_ce,
            workers=2,
            expected={
                "dense-random-lists seed=1": (
                    "6a005d943253646d6694e36674f1e1e4cf406fab6e3e3a3e3493b5af55aa826e", 221
                ),
            },
        ),
        Workload(
            name="lowspace-lists-5k",
            default_seed=1,
            sizes={"full": 5_000, "smoke": 2_000},
            build=_build_lowspace,
            color=_color_lowspace,
            workers=1,
            # The other four ops raise DerandomizationError today (README.md).
            expected={
                "dense-random-lists seed=1": (
                    "a730cba624e29ce3cd205e707a771233d747a85a48509e44cb3878fc8a65b17e", 1292
                ),
                "dense-random-lists seed=2": (
                    "104183d4ece5642392b7605df5dba4a25fb5c5933c7fd78b1347ce3afa305b3e", 1314
                ),
            },
        ),
    )
}
