"""Pinned output digests of the three drivers on registered workloads.

Each case runs one driver on one registered workload and compares sha256
digests of its three observable outputs (the ``run_digests`` fixture in
``conftest.py``) against recorded values:

* the coloring, as sorted ``(node, color)`` int64 pairs;
* the recursion-tree signature, every statistics field of every tree node;
* the ``CostLedger.snapshot()``, per-phase ``(rounds, message_words)``.

The values were recorded while the scalar reference route could still be
selected per run, and both routes produced them.  A refactor of the hot stages (selection scoring, classification, palette
restriction, bin extraction, palette updates, base-case coloring) must
leave all three bit-identical, so these digests are the end-to-end guard
behind the per-kernel differential tests.  A deliberate change of the
algorithm's output re-records them from the assertion's observed values.
"""

from __future__ import annotations

import pytest

from repro.core.color_reduce import ColorReduce
from repro.core.low_space.color_reduce import LowSpaceColorReduce
from repro.core.low_space.params import LowSpaceParameters
from repro.core.params import ColorReduceParameters
from repro.derand.conditional_expectation import SelectionStrategy
from repro.experiments.workloads import build_workload


def _first_feasible():
    return ColorReduceParameters.scaled(num_bins=3, collect_factor=0.25)


def _conditional_expectation():
    return ColorReduceParameters.scaled(
        num_bins=3,
        collect_factor=1.5,
        selection_strategy=SelectionStrategy.CONDITIONAL_EXPECTATION,
    )


def _low_space():
    return LowSpaceParameters.scaled(num_bins=3, low_degree_threshold=6, machine_chunk=8)


_DRIVERS = {
    "first-feasible": (ColorReduce, _first_feasible),
    "conditional-expectation": (ColorReduce, _conditional_expectation),
    "low-space": (LowSpaceColorReduce, _low_space),
}

#: (driver, workload, nodes) -> (coloring, tree, ledger) digests.
PINNED = {
    ("first-feasible", "dense-random", 2000): (
        "fbdf99199560f7380c82d62f675f01aa9700061beb35a5f6bc7c93e669bcff4e",
        "6941472f44c7354f8723365d0b146427cff8bb4b22f9ade02e83a4b6d2f35875",
        "438da51dfe59c5dd5a3d956584cb7b396282d222cc93fed9a7f548ccf1da06b2",
    ),
    ("first-feasible", "adversarial-lists", 2000): (
        "b52a3d51e6e29eb4f8d69d61db3329af697f7c683a50f03da168f9b84c751e46",
        "d8b21ff343281bb7e3ec00ad774b59d08cf07a22df8699e0484b9533420bd45a",
        "21a866e5b19627ce890d51f8655acf09570a9d8155466c5c5a6c94d44988f6d2",
    ),
    ("first-feasible", "interference-ring", 2000): (
        "07851efb9578e5a3b7996b315fd46d814a1b5d7745caf7aabed4f4a1c6176687",
        "b598913bf4c72dc2084afc35cf346073b4fcf0f59f74ea41f7902dadb650cc48",
        "24fa6aa74355a31f88d6fdbfd3f9f8210609accf6d22fbaa91eca5f86b7897a9",
    ),
    ("conditional-expectation", "dense-random-lists", 500): (
        "ba26dda1d99a05627463c5d71ad47fdedea2f1d8a5c2e91b973ddccecf428ed2",
        "681bda6663ed11e6c07d8173ced4b278121b23e0b06f10b24e654bed6532bddf",
        "645544dc92f56e7829464a115387a779cdc53472a0b8db85d092503c464b4670",
    ),
    ("conditional-expectation", "interference-ring", 300): (
        "23c40ca05c6d7fee3a1425f163664f8ebdaa2117b9e1b79bc7dd58667880e63b",
        "04d8b5aba4f9011098dc2f00cca474fc3487cdffbce60fcd473ae6c0e36696a4",
        "fba4a40be0d392d6e584072a681af8a6cdb34019d6969f800040a9c927f4b1ab",
    ),
    ("low-space", "social-power-law", 2000): (
        "b6614301e2a53679f059d5dae1be740687ac584104a825d7366bda5d1c33ee57",
        "75107c8359f8a0ccb30c295b01e7d59c1022a8f429d623b584aeb8313f7f392a",
        "c39de0c10edb69e07c91b8d6027dba51bae597f78cb47ae52c607e340a843b27",
    ),
    ("low-space", "dense-random-lists", 2000): (
        "4febb7acce6dd0482686f281a6ad0f4155f4a971d9dead790e97b3d284f9946c",
        "ca786d5e7b8152e5b82947d43963a8213a763752ebcdb5540cb2234634bdcd3d",
        "b4e371bcb505675af353289500a73786e052bac1a253eec4453b39d54a9597e2",
    ),
    ("low-space", "near-regular", 1500): (
        "05f21b0be43a7899c95e86e5a2031a423d5ca20e9bb2c4272d2c2056bb9c0b58",
        "3fa94525fcb5cdc4c57d19c26f86f3d8890bae08de6b78e4128657e04c269b0d",
        "4a9ea2c5b3c71b21025362e6552c7970d17bce0dd6d0dfeb8c1965caf671159e",
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED), ids=lambda case: "-".join(map(str, case)))
def test_outputs_match_pinned_digests(case, run_digests):
    driver_name, workload, num_nodes = case
    driver, make_params = _DRIVERS[driver_name]
    graph, palettes, _ = build_workload(workload, num_nodes, seed=1)
    observed = run_digests(driver(make_params()).run(graph, palettes))
    assert observed == PINNED[case]
