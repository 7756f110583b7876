"""Unit tests for coloring validation helpers."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.local_coloring import greedy_list_coloring
from repro.errors import ColoringError
from repro.graph import Graph, PaletteAssignment
from repro.graph.validation import (
    assert_proper_coloring,
    assert_valid_list_coloring,
    assert_valid_list_coloring_scalar,
    count_colors_used,
    find_coloring_violation,
    find_palette_violations,
    is_proper_coloring,
    is_valid_list_coloring,
    list_coloring_verdict,
)


class TestProperColoring:
    def test_valid_coloring_accepted(self, triangle):
        coloring = {0: 0, 1: 1, 2: 2}
        assert is_proper_coloring(triangle, coloring)
        assert_proper_coloring(triangle, coloring)

    def test_monochromatic_edge_detected(self, triangle):
        coloring = {0: 0, 1: 0, 2: 2}
        assert not is_proper_coloring(triangle, coloring)
        violation = find_coloring_violation(triangle, coloring)
        assert violation in {(0, 1), (1, 0)}
        with pytest.raises(ColoringError, match="monochromatic"):
            assert_proper_coloring(triangle, coloring)

    def test_missing_node_detected(self, triangle):
        coloring = {0: 0, 1: 1}
        assert not is_proper_coloring(triangle, coloring)
        with pytest.raises(ColoringError, match="uncolored"):
            assert_proper_coloring(triangle, coloring)

    def test_empty_graph_trivially_proper(self):
        assert is_proper_coloring(Graph(), {})


class TestListColoring:
    def test_palette_respecting_coloring(self, triangle):
        palettes = PaletteAssignment.from_lists({0: [0, 5], 1: [1, 5], 2: [2, 5]})
        coloring = {0: 0, 1: 1, 2: 2}
        assert is_valid_list_coloring(triangle, palettes, coloring)
        assert_valid_list_coloring(triangle, palettes, coloring)

    def test_color_outside_palette_rejected(self, triangle):
        palettes = PaletteAssignment.from_lists({0: [0], 1: [1], 2: [2]})
        coloring = {0: 9, 1: 1, 2: 2}
        assert not is_valid_list_coloring(triangle, palettes, coloring)
        assert find_palette_violations(palettes, coloring) == [0]
        with pytest.raises(ColoringError, match="not in its palette"):
            assert_valid_list_coloring(triangle, palettes, coloring)

    def test_improper_coloring_rejected_even_if_in_palette(self, triangle):
        palettes = PaletteAssignment.delta_plus_one(triangle)
        coloring = {0: 1, 1: 1, 2: 2}
        assert not is_valid_list_coloring(triangle, palettes, coloring)


class TestHelpers:
    def test_count_colors_used(self):
        assert count_colors_used({0: 3, 1: 3, 2: 5}) == 2
        assert count_colors_used({}) == 0


#: Defects injected into an otherwise valid list coloring, one at a time.
DEFECTS = ("none", "uncolored", "monochromatic", "outside-palette", "non-integer-palette")
#: Shift moving every color to at least 2**63 (beyond int64).
HUGE = 1 << 63


@st.composite
def list_colorings(draw):
    """A graph, list palettes and a coloring with at most one defect.

    Node ids are ``0..n-1`` or a shuffled, non-contiguous relabelling; the
    palettes are ``deg(v) + 1 + extra`` random colors, either set-backed or
    (for the (Δ+1) shape) array-born; the coloring is a greedy one with
    the drawn defect injected, and optionally every color shifted beyond
    int64.  The ``non-integer-palette`` defect swaps one node's color in
    its palette for a float or a string that an int64 cast would turn back
    into that color (``c + 0.5`` truncates to ``c``, ``str(c)`` parses to
    ``c``).  Returns the defect actually injected, suffixed ``+huge`` when
    the colors were shifted.
    """
    n = draw(st.integers(min_value=0, max_value=25))
    rng = draw(st.randoms(use_true_random=False))
    density = draw(st.floats(min_value=0.0, max_value=0.6))
    labels = list(range(n))
    if draw(st.booleans()):
        labels = [3 * node + 7 for node in labels]
        rng.shuffle(labels)
    edges = [
        (labels[u], labels[v])
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < density
    ]
    graph = Graph(nodes=labels, edges=edges)
    if draw(st.booleans()):
        palettes = PaletteAssignment.delta_plus_one(graph)
    else:
        extra = draw(st.integers(min_value=0, max_value=3))
        universe = list(range(2 * (graph.max_degree() + 1) + extra + 1))
        palettes = PaletteAssignment.from_lists(
            {
                node: rng.sample(universe, graph.degree(node) + 1 + extra)
                for node in graph.nodes()
            }
        )
    coloring = greedy_list_coloring(graph, palettes)
    defect = draw(st.sampled_from(DEFECTS))
    nodes = graph.nodes()
    if defect == "uncolored" and nodes:
        del coloring[rng.choice(nodes)]
    elif defect == "monochromatic" and edges:
        u, v = rng.choice(edges)
        coloring[v] = coloring[u]
    elif defect == "outside-palette" and nodes:
        coloring[rng.choice(nodes)] = 10**6
    elif defect == "non-integer-palette" and nodes:
        node = rng.choice(nodes)
        color = coloring[node]
        lookalike = draw(st.sampled_from((color + 0.5, str(color))))
        lists = {other: set(palettes.palette(other)) for other in nodes}
        lists[node] = (lists[node] - {color}) | {lookalike}
        palettes = PaletteAssignment.from_lists(lists)
        return graph, palettes, coloring, defect
    else:
        defect = "none"
    if draw(st.booleans()):
        palettes = PaletteAssignment.from_lists(
            {node: [HUGE + c for c in palettes.palette(node)] for node in nodes}
        )
        coloring = {node: HUGE + color for node, color in coloring.items()}
        defect += "+huge"
    return graph, palettes, coloring, defect


def _error_text(check, graph, palettes, coloring):
    try:
        check(graph, palettes, coloring)
    except ColoringError as exc:
        return str(exc)
    return None


class TestVectorizedListColoringCheck:
    """The vectorized check agrees with the scalar reference on every input."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(list_colorings())
    def test_differential_against_scalar_reference(self, instance):
        graph, palettes, coloring, defect = instance
        expected = _error_text(assert_valid_list_coloring_scalar, graph, palettes, coloring)
        verdict = list_coloring_verdict(graph, palettes, coloring)
        if defect.endswith("+huge") and coloring and defect != "uncolored+huge":
            assert verdict is None  # beyond int64: the scalar path decides
        elif defect == "non-integer-palette":
            assert verdict is None  # no int64 store: the scalar path decides
        else:
            assert verdict is (expected is None)
        assert (expected is None) is (defect in ("none", "none+huge"))
        assert _error_text(assert_valid_list_coloring, graph, palettes, coloring) == expected

    def test_each_defect_raises_the_scalar_message(self, triangle):
        palettes = PaletteAssignment.from_lists({0: [0, 1], 1: [1, 2], 2: [2, 3]})
        cases = {
            "node 2 is uncolored": {0: 0, 1: 1},
            "edge (1, 2) is monochromatic: both endpoints have color 2": {
                0: 0, 1: 2, 2: 2,
            },
            "node 0 was assigned color 3, which is not in its palette": {
                0: 3, 1: 1, 2: 2,
            },
        }
        for message, coloring in cases.items():
            assert list_coloring_verdict(triangle, palettes, coloring) is False
            with pytest.raises(ColoringError) as info:
                assert_valid_list_coloring(triangle, palettes, coloring)
            assert str(info.value) == message

    def test_extra_colored_nodes_go_to_the_scalar_path(self, triangle):
        palettes = PaletteAssignment.from_lists({0: [0], 1: [1], 2: [2], 9: [4]})
        coloring = {0: 0, 1: 1, 2: 2, 9: 5}
        assert list_coloring_verdict(triangle, palettes, coloring) is None
        with pytest.raises(ColoringError, match="node 9 was assigned color 5"):
            assert_valid_list_coloring(triangle, palettes, coloring)
