"""Shared fixtures for the test suite."""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.graph import Graph, PaletteAssignment
from repro.graph import generators


@pytest.fixture
def triangle() -> Graph:
    """The 3-cycle: the smallest graph needing 3 colors."""
    return Graph(edges=[(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def path_graph() -> Graph:
    """A 5-node path."""
    return Graph(edges=[(0, 1), (1, 2), (2, 3), (3, 4)])


@pytest.fixture
def petersen() -> Graph:
    """The Petersen graph (3-regular, chromatic number 3)."""
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph(edges=outer + inner + spokes)


@pytest.fixture
def dense_random() -> Graph:
    """A moderately dense 150-node random graph (Δ around 45)."""
    return generators.erdos_renyi(150, 0.3, seed=7)


@pytest.fixture
def sparse_random() -> Graph:
    """A sparse 200-node random graph."""
    return generators.erdos_renyi(200, 0.03, seed=11)


@pytest.fixture
def dense_palettes(dense_random: Graph) -> PaletteAssignment:
    """(Δ+1)-list palettes with a shared universe for the dense graph."""
    return generators.shared_universe_palettes(dense_random, seed=5)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_digests(result):
    pairs = np.array(sorted(result.coloring.items()), dtype=np.int64).reshape(-1, 2)
    tree = dataclasses.astuple(result.recursion_root)
    ledger = (result.rounds, list(result.ledger.snapshot().items()))
    return (
        _sha256(pairs.tobytes()),
        _sha256(repr(tree).encode()),
        _sha256(repr(ledger).encode()),
    )


@pytest.fixture
def run_digests():
    """sha256 digests ``(coloring, recursion tree, ledger)`` of a driver result.

    The coloring is hashed as sorted ``(node, color)`` int64 pairs, the
    recursion tree as every statistics field of every tree node, and the
    ledger as the round total plus ``CostLedger.snapshot()`` in phase order.
    Works for ``ColorReduceResult`` and ``LowSpaceResult`` alike.
    """
    return _run_digests
