"""Scale determinism (nightly): flags and worker counts never change results.

The fast suites verify bit-identity of individual kernels on laptop-size
instances; these tests assert the end-to-end contract at the scales where
the optimized paths actually engage (the segmented cross-bin prefetch has
a ``LEVEL_PREFETCH_MIN_SIZE`` engagement floor of tens of thousands of
nodes, so small-instance runs exercise only its gating, not its kernels).

Marked ``slow`` — the default run deselects them (``addopts`` in
``pyproject.toml``); the nightly CI job runs ``pytest -m slow tests``.
"""

from __future__ import annotations

import pytest

from repro.core.color_reduce import ColorReduce
from repro.core.params import ColorReduceParameters
from repro.graph.generators import erdos_renyi


def _tree_signature(node):
    return (
        node.depth,
        node.num_nodes,
        node.num_edges,
        node.num_bins,
        node.num_bad_nodes,
        node.invariant_violations,
        tuple(_tree_signature(child) for child in node.children),
    )


def _fingerprint(result):
    return (
        result.coloring,
        result.rounds,
        result.ledger.snapshot(),
        _tree_signature(result.recursion_root),
    )


@pytest.mark.slow
def test_level_flag_and_workers_deterministic_at_1e5():
    """n = 10^5: segmented prefetch on/off and 1 vs 2 workers all agree.

    The baseline configuration engages the cross-bin prefetch
    (``level_use_batch`` on, one worker); the variants disable it two different ways — by the
    ``level_use_batch`` flag and by the ``parallel_workers > 1`` gate —
    and every run must produce the identical coloring, recursion tree,
    round count and per-phase ledger.
    """
    graph = erdos_renyi(100_000, 16 / 100_000, seed=42)
    configurations = {
        "prefetch-on": dict(),
        "prefetch-off": dict(level_use_batch=False),
        "two-workers": dict(parallel_workers=2),
    }
    fingerprints = {}
    for label, overrides in configurations.items():
        params = ColorReduceParameters.scaled(
            num_bins=4, collect_factor=0.25, **overrides
        )
        fingerprints[label] = _fingerprint(ColorReduce(params).run(graph))
        assert len(fingerprints[label][0]) == graph.num_nodes
    baseline = fingerprints["prefetch-on"]
    for label, fingerprint in fingerprints.items():
        assert fingerprint == baseline, (
            f"configuration {label!r} diverged from the baseline run"
        )


@pytest.mark.slow
def test_outputs_pinned_at_1e4(run_digests):
    """n = 10^4: the array kernels keep the recorded outputs.

    The digests were recorded while the scalar reference route could
    still be selected per run; both routes produced them.
    """
    graph = erdos_renyi(10_000, 12 / 10_000, seed=7)
    params = ColorReduceParameters.scaled(num_bins=3, collect_factor=0.25)
    assert run_digests(ColorReduce(params).run(graph)) == (
        "358a57827ced1772e29397a2d469debe697362743ac5de46aa6dcaa948a9e77b",
        "65bdb0953206c133df57694e1fc3ea923efcd3bf09d724d12f8c2ec916d73430",
        "362e8774779ff738586d87d3aa87e557d8de80f511fc5458365cc9fc99333723",
    )
