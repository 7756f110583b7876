"""Validation of colorings produced by the algorithms.

Every experiment and every test validates its output with these helpers; the
library never reports success on an improper coloring.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ColoringError
from repro.graph.graph import Graph
from repro.graph.palettes import PaletteAssignment, store_rows
from repro.types import ColoringMap, NodeId


def find_coloring_violation(
    graph: Graph, coloring: ColoringMap
) -> Optional[Tuple[NodeId, NodeId]]:
    """Return a monochromatic edge if one exists, otherwise ``None``.

    A node missing from ``coloring`` counts as a violation and is reported as
    the pseudo-edge ``(node, node)``.
    """
    for node in graph.nodes():
        if node not in coloring:
            return (node, node)
    for u, v in graph.edges():
        if coloring[u] == coloring[v]:
            return (u, v)
    return None


def is_proper_coloring(graph: Graph, coloring: ColoringMap) -> bool:
    """Whether ``coloring`` assigns every node a color and no edge is
    monochromatic."""
    return find_coloring_violation(graph, coloring) is None


def assert_proper_coloring(graph: Graph, coloring: ColoringMap) -> None:
    """Raise :class:`ColoringError` unless the coloring is proper and total."""
    violation = find_coloring_violation(graph, coloring)
    if violation is None:
        return
    u, v = violation
    if u == v:
        raise ColoringError(f"node {u} is uncolored")
    raise ColoringError(
        f"edge ({u}, {v}) is monochromatic: both endpoints have color {coloring[u]}"
    )


def find_palette_violations(
    palettes: PaletteAssignment, coloring: ColoringMap
) -> List[NodeId]:
    """Nodes whose assigned color is not in their palette."""
    return [
        node
        for node, color in coloring.items()
        if node in palettes and not palettes.contains_color(node, color)
    ]


def is_valid_list_coloring(
    graph: Graph, palettes: PaletteAssignment, coloring: ColoringMap
) -> bool:
    """Whether ``coloring`` is proper *and* respects every node's palette."""
    if not is_proper_coloring(graph, coloring):
        return False
    return not find_palette_violations(palettes, coloring)


def list_coloring_verdict(
    graph: Graph, palettes: PaletteAssignment, coloring: ColoringMap
) -> Optional[bool]:
    """One vectorized pass deciding whether a list coloring is valid.

    Reads the graph's CSR view and the palette store: every node colored,
    no edge between equal colors, and every node's color in its palette —
    the flat store is matched against each entry's owner color and the
    hits are counted per row with one ``bincount``.  Returns ``True``
    (valid), ``False`` (some defect) or ``None`` when the inputs cannot be
    represented as int64 arrays (colors beyond int64 or not integers,
    palettes without a store) or the coloring also colors nodes outside
    the graph; the scalar checks then decide.
    """
    csr = graph.csr()
    node_ids = csr.node_ids
    try:
        colors = [coloring[node] for node in node_ids]
    except KeyError:
        return False
    if len(coloring) != len(node_ids):
        return None
    if not colors:
        return True
    # NumPy infers the element type: only all-integer colors within int64
    # come out as a signed integer array (no silent float/str conversion).
    colors = np.array(colors)
    if colors.dtype.kind != "i":
        return None
    if bool((colors[csr.edge_sources] == colors[csr.indices]).any()):
        return False
    store = palettes.store()
    if store is None:
        return None
    # Graph nodes without a palette are not checked (as in the scalar path).
    rows = store_rows(store, node_ids)
    present = rows >= 0
    rows = rows[present]
    row_colors = np.zeros(len(store.nodes), dtype=np.int64)
    row_colors[rows] = colors[present]
    entry_rows = store.entry_rows()
    hits = entry_rows[store.flat == row_colors[entry_rows]]
    return bool(
        (np.bincount(hits, minlength=len(store.nodes))[rows] > 0).all()
    )


def assert_valid_list_coloring(
    graph: Graph, palettes: PaletteAssignment, coloring: ColoringMap
) -> None:
    """Raise :class:`ColoringError` unless the list coloring is valid.

    "Valid" means: every node of the graph is colored, no edge is
    monochromatic, and every node's color comes from its own palette — the
    definition of (Δ+1)-list / (deg+1)-list coloring in Section 1 of the
    paper.  A valid coloring is accepted by :func:`list_coloring_verdict`
    alone; a defect, or inputs it cannot represent, go through the scalar
    reference :func:`assert_valid_list_coloring_scalar`, which names the
    offending node or edge.
    """
    if list_coloring_verdict(graph, palettes, coloring):
        return
    assert_valid_list_coloring_scalar(graph, palettes, coloring)


def assert_valid_list_coloring_scalar(
    graph: Graph, palettes: PaletteAssignment, coloring: ColoringMap
) -> None:
    """Per-node reference of :func:`assert_valid_list_coloring`."""
    assert_proper_coloring(graph, coloring)
    offenders = find_palette_violations(palettes, coloring)
    if offenders:
        node = offenders[0]
        raise ColoringError(
            f"node {node} was assigned color {coloring[node]}, "
            f"which is not in its palette"
        )


def count_colors_used(coloring: ColoringMap) -> int:
    """Number of distinct colors used by a coloring."""
    return len(set(coloring.values()))
