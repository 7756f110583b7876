"""Unit tests for PaletteAssignment."""

from __future__ import annotations

import pytest

from repro.errors import PaletteError
from repro.graph import Graph, PaletteAssignment


class TestConstructors:
    def test_delta_plus_one(self, triangle):
        palettes = PaletteAssignment.delta_plus_one(triangle)
        for node in triangle.nodes():
            assert palettes.palette(node) == {0, 1, 2}

    def test_delta_plus_one_explicit_delta(self, triangle):
        palettes = PaletteAssignment.delta_plus_one(triangle, delta=5)
        assert palettes.palette_size(0) == 6

    def test_degree_plus_one(self, path_graph):
        palettes = PaletteAssignment.degree_plus_one(path_graph)
        assert palettes.palette_size(0) == 2
        assert palettes.palette_size(2) == 3

    def test_from_lists(self):
        palettes = PaletteAssignment.from_lists({0: [5, 7], 1: [7, 9]})
        assert palettes.palette(0) == {5, 7}
        assert palettes.palette(1) == {7, 9}

    def test_copy_is_deep(self):
        palettes = PaletteAssignment.from_lists({0: [1, 2]})
        clone = palettes.copy()
        clone.remove_color(0, 1)
        assert palettes.palette(0) == {1, 2}
        assert clone.palette(0) == {2}


def _set_built_delta_plus_one(graph, delta=None):
    """The set-built ``{0..Δ}`` palettes the array constructor replaced."""
    max_degree = graph.max_degree() if delta is None else delta
    return PaletteAssignment({node: range(max_degree + 1) for node in graph.nodes()})


def _set_built_degree_plus_one(graph, delta=None):
    """The set-built ``{0..deg(v)}`` palettes the array constructor replaced."""
    assert delta is None
    return PaletteAssignment(
        {node: range(graph.degree(node) + 1) for node in graph.nodes()}
    )


def _assert_same_palettes(built, reference):
    assert built.nodes() == reference.nodes()
    for node in reference.nodes():
        assert built.palette(node) == reference.palette(node)
        assert built.palette_size(node) == reference.palette_size(node)
    assert built.color_universe() == reference.color_universe()
    assert built.total_size() == reference.total_size()


class TestArrayBornConstructors:
    """The array-built (Δ+1) / (deg+1) palettes equal the set-built ones."""

    CONSTRUCTORS = [
        pytest.param(
            PaletteAssignment.delta_plus_one, _set_built_delta_plus_one, None,
            id="delta_plus_one",
        ),
        pytest.param(
            PaletteAssignment.delta_plus_one, _set_built_delta_plus_one, 5,
            id="delta_plus_one-explicit-delta",
        ),
        pytest.param(
            PaletteAssignment.delta_plus_one, _set_built_delta_plus_one, 0,
            id="delta_plus_one-delta-0",
        ),
        pytest.param(
            lambda graph: PaletteAssignment.degree_plus_one(graph),
            _set_built_degree_plus_one, None,
            id="degree_plus_one",
        ),
    ]
    GRAPHS = [
        pytest.param(Graph(), id="empty"),
        pytest.param(Graph.empty(4), id="isolated"),
        pytest.param(
            Graph(nodes=[9, 2, 40], edges=[(2, 7), (7, 40), (2, 40), (11, 3)]),
            id="mixed",
        ),
    ]

    @pytest.mark.parametrize("build, reference_build, delta", CONSTRUCTORS)
    @pytest.mark.parametrize("graph", GRAPHS)
    def test_equal_to_set_built(self, graph, build, reference_build, delta):
        built = build(graph) if delta is None else build(graph, delta=delta)
        reference = reference_build(graph, delta)
        _assert_same_palettes(built, reference)
        assert built.store() is not None
        if reference.store() is not None:
            assert built.store().flat.tolist() == reference.store().flat.tolist()
            assert built.store().offsets.tolist() == reference.store().offsets.tolist()
        for node in graph.nodes()[:2]:
            built.remove_color(node, 0)
            reference.remove_color(node, 0)
        _assert_same_palettes(built, reference)

    def test_copies_share_the_store_but_not_mutations(self, path_graph):
        palettes = PaletteAssignment.delta_plus_one(path_graph)
        clone = palettes.copy()
        assert clone.store() is palettes.store()
        clone.remove_color(0, 1)
        assert palettes.palette(0) == {0, 1, 2}
        assert clone.palette(0) == {0, 2}


class TestQueries:
    def test_missing_node_raises(self):
        palettes = PaletteAssignment.from_lists({0: [1]})
        with pytest.raises(PaletteError):
            palettes.palette(3)
        with pytest.raises(PaletteError):
            palettes.palette_size(3)

    def test_total_size(self):
        palettes = PaletteAssignment.from_lists({0: [1, 2], 1: [3]})
        assert palettes.total_size() == 3

    def test_color_universe(self):
        palettes = PaletteAssignment.from_lists({0: [1, 2], 1: [2, 5]})
        assert palettes.color_universe() == {1, 2, 5}

    def test_contains_color(self):
        palettes = PaletteAssignment.from_lists({0: [1, 2]})
        assert palettes.contains_color(0, 1)
        assert not palettes.contains_color(0, 9)
        assert not palettes.contains_color(7, 1)

    def test_len_and_contains(self):
        palettes = PaletteAssignment.from_lists({0: [1], 4: [2]})
        assert len(palettes) == 2
        assert 4 in palettes
        assert 1 not in palettes


class TestOperations:
    def test_restricted_to_filters_colors(self):
        palettes = PaletteAssignment.from_lists({0: [1, 2, 3, 4], 1: [2, 4, 6]})
        restricted = palettes.restricted_to([0, 1], keep_color=lambda c: c % 2 == 0)
        assert restricted.palette(0) == {2, 4}
        assert restricted.palette(1) == {2, 4, 6}

    def test_restricted_to_unknown_node_raises(self):
        palettes = PaletteAssignment.from_lists({0: [1]})
        with pytest.raises(PaletteError):
            palettes.restricted_to([0, 9])

    def test_subset_keeps_palettes(self):
        palettes = PaletteAssignment.from_lists({0: [1, 2], 1: [3]})
        subset = palettes.subset([0])
        assert subset.nodes() == [0]
        assert subset.palette(0) == {1, 2}

    def test_remove_colors_used_by_neighbors(self, triangle):
        palettes = PaletteAssignment.delta_plus_one(triangle)
        removed = palettes.remove_colors_used_by_neighbors(triangle, {0: 1})
        # Both neighbors of node 0 lose color 1.
        assert removed == 2
        assert palettes.palette(1) == {0, 2}
        assert palettes.palette(2) == {0, 2}
        assert palettes.palette(0) == {0, 1, 2}

    def test_remove_colors_restricted_to_nodes(self, triangle):
        palettes = PaletteAssignment.delta_plus_one(triangle)
        removed = palettes.remove_colors_used_by_neighbors(triangle, {0: 1}, nodes=[2])
        assert removed == 1
        assert palettes.palette(1) == {0, 1, 2}
        assert palettes.palette(2) == {0, 2}

    def test_remove_color_noop_when_absent(self):
        palettes = PaletteAssignment.from_lists({0: [1]})
        palettes.remove_color(0, 9)
        assert palettes.palette(0) == {1}


class TestValidation:
    def test_validate_for_graph_passes(self, triangle):
        palettes = PaletteAssignment.delta_plus_one(triangle)
        palettes.validate_for_graph(triangle)

    def test_validate_for_graph_missing_node(self, triangle):
        palettes = PaletteAssignment.from_lists({0: [0, 1, 2], 1: [0, 1, 2]})
        with pytest.raises(PaletteError):
            palettes.validate_for_graph(triangle)

    def test_validate_for_graph_too_small(self, triangle):
        palettes = PaletteAssignment.from_lists({0: [0, 1], 1: [0, 1, 2], 2: [0, 1, 2]})
        with pytest.raises(PaletteError):
            palettes.validate_for_graph(triangle)

    def test_min_slack(self, path_graph):
        palettes = PaletteAssignment.degree_plus_one(path_graph)
        assert palettes.min_slack(path_graph) == 1

    def test_min_slack_empty(self):
        assert PaletteAssignment({}).min_slack(Graph()) == 0
