"""The recursion driver shared by Algorithm 1 and Algorithm 3.

``ColorReduce`` and ``LowSpaceColorReduce`` walk the same recursion:
partition ``G``; recurse on the color bins in parallel; update the
leftover bin's palettes and recurse on it; update ``G_0``'s palettes and
finish ``G_0`` without recursion.  :class:`RecursionDriver` owns that walk
and what surrounds it — the durability wrapper of every call, the run's
pool-health delta, the positional child salts and the level-prefetch
gate.  A pipeline supplies only its level step (the hooks listed on the
class).  The calls the benchmark's tracer wraps by module-level name
(validation, greedy coloring, MIS reduction, level prefetch) stay in the
pipeline modules, so this module imports none of them.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.accounting import CostLedger, PoolHealth, RunDurability
from repro.core.level import LEVEL_PREFETCH_MIN_SIZE, child_salt
from repro.derand.conditional_expectation import SelectionStrategy
from repro.graph.graph import Graph
from repro.graph.palettes import PaletteAssignment
from repro.types import Color, NodeId

Coloring = Dict[NodeId, Color]


@dataclass
class RunState:
    """Mutable bookkeeping threaded through one driver run."""

    global_nodes: int
    #: ``ColorReduce``'s execution context (``None`` for low-space).
    context: Optional[Any] = None
    #: ``LowSpaceColorReduce``'s MPC simulator (``None`` for ``ColorReduce``).
    simulator: Optional[Any] = None
    palettes_are_implicit: bool = False
    total_bad_nodes: int = 0
    total_invariant_violations: int = 0
    #: The run's :class:`repro.runtime.durability.DurableRun`, or ``None``
    #: when no durability knob is set.
    durable: Optional[Any] = None


class RecursionDriver:
    """The shared recursion; a subclass supplies its level step.

    Hooks (``ell`` is Algorithm 1's degree parameter ``l``; the low-space
    pipeline has none and threads ``None``):

    * ``_tree_node(graph, ell, depth)`` — a fresh recursion-tree node;
    * ``_base_case(graph, palettes, depth, state, ledger, node)`` —
      the coloring of an instance that does not partition, else ``None``;
    * ``_partition(graph, palettes, ell, state, ledger, node, salt,
      prefetched)`` — the partition call, its statistics and charges;
    * ``_next_ell(ell)`` — the children's ``l`` (default ``None``);
    * ``_g0(partition)`` — the ``G_0`` that is finished without recursion;
    * ``_recurses(graph, child_graph)`` — whether a bin recurses (default
      always);
    * ``_finish(graph, palettes, node, state)`` — ``(coloring, ledger)`` of
      ``G_0`` or of a bin that does not recurse;
    * ``_charge_palette_update(ledger, removed, state)``;
    * ``_will_partition(graph, palettes, depth, state)`` and
      ``_prefetch_level(eligible, next_ell, state)`` — the level
      prefetch's prediction of a child's partition call, and its kernel.
    """

    params: Any

    # ------------------------------------------------------------------
    # the run
    # ------------------------------------------------------------------
    def _drive(
        self, algorithm: str, graph: Graph, palettes: PaletteAssignment, ell, state: RunState
    ) -> Tuple[Coloring, CostLedger, Any, PoolHealth, RunDurability]:
        """Walk the recursion from the root under the run's durability.

        Returns the coloring, ledger and recursion tree, the pool-health
        delta of this run (all zero for ``parallel_workers == 1``) and the
        durability telemetry.
        """
        durable = None
        if self.params.durability_enabled():
            from repro.runtime.durability import DurableRun

            durable = DurableRun.from_params(
                self.params, algorithm, graph, palettes, state.global_nodes
            )
        state.durable = durable
        health_baseline = None
        if self.params.parallel_workers > 1:
            from repro.parallel.executor import pool_health

            health_baseline = pool_health()
        with durable.active() if durable is not None else contextlib.nullcontext():
            coloring, ledger, tree = self._recurse(
                graph, palettes.copy(), ell, depth=0, state=state, salt=1
            )
        run_health = PoolHealth()
        if health_baseline is not None:
            run_health = pool_health().delta(health_baseline)
        telemetry = durable.telemetry if durable is not None else RunDurability()
        return coloring, ledger, tree, run_health, telemetry

    def _recurse(
        self, graph: Graph, palettes, ell, depth: int, state: RunState, salt=1, prefetched=None
    ) -> Tuple[Coloring, CostLedger, Any]:
        """One node of the recursion, through the durability layer.

        Without durability knobs this is a passthrough.  With them, every
        entry polls the guardrails and signal flag, a checkpointed salt is
        *restored* (its recorded coloring, ledger copy and tree node;
        deterministic replay makes this bit-identical), and every completed
        shallow subtree is *recorded* into the checkpoint frontier.
        """
        durable = state.durable
        if durable is None:
            return self._recursion_node(graph, palettes, ell, depth, state, salt, prefetched)
        durable.poll()
        entry = durable.restored(salt)
        if entry is not None:
            state.total_bad_nodes += entry["bad_nodes"]
            state.total_invariant_violations += entry["violations"]
            return dict(entry["coloring"]), entry["ledger"].copy(), entry["tree"]
        before_bad = state.total_bad_nodes
        before_violations = state.total_invariant_violations
        durable.enter(salt)
        try:
            coloring, ledger, node = self._recursion_node(
                graph, palettes, ell, depth, state, salt, prefetched
            )
        finally:
            durable.exit(salt)
        durable.completed(
            salt,
            depth,
            lambda: {
                "coloring": dict(coloring),
                "ledger": ledger.copy(),
                "tree": node,
                "bad_nodes": state.total_bad_nodes - before_bad,
                "violations": state.total_invariant_violations - before_violations,
            },
        )
        return coloring, ledger, node

    def _recursion_node(
        self, graph: Graph, palettes, ell, depth: int, state: RunState, salt=1, prefetched=None
    ) -> Tuple[Coloring, CostLedger, Any]:
        """One node of the recursion.

        ``salt`` is the call's *positional* identity (root 1, children via
        :func:`repro.core.level.child_salt` on their bin index), which lets
        the parent prefetch a whole level's head-batch scores in one
        segmented pass; ``prefetched`` then carries this instance's
        :class:`~repro.core.level.CachedPairCost`.
        """
        ledger = CostLedger()
        node = self._tree_node(graph, ell, depth)
        coloring = self._base_case(graph, palettes, depth, state, ledger, node)
        if coloring is not None:
            return coloring, ledger, node

        partition = self._partition(graph, palettes, ell, state, ledger, node, salt, prefetched)
        next_ell = self._next_ell(ell)
        coloring = {}
        prefetched_costs = self._prefetch(graph, partition, next_ell, depth, state, salt)

        # --- color bins recurse in parallel ---------------------------------
        parallel_ledger: Optional[CostLedger] = None
        for bin_instance in partition.color_bins:
            if bin_instance.is_empty:
                continue
            bin_cost = prefetched_costs.get(bin_instance.bin_index)
            child_coloring, child_ledger = self._child(
                graph, bin_instance, next_ell, depth, state, node, salt, bin_cost
            )
            coloring.update(child_coloring)
            if parallel_ledger is None:
                parallel_ledger = child_ledger
            else:
                parallel_ledger.merge_parallel(child_ledger)
        if parallel_ledger is not None:
            ledger.merge_sequential(parallel_ledger)

        # --- leftover bin: update palettes, then recurse ---------------------
        leftover = partition.leftover
        if not leftover.is_empty:
            removed = leftover.palettes.remove_colors_used_by_neighbors_batch(graph, coloring)
            self._charge_palette_update(ledger, removed, state)
            child_coloring, child_ledger = self._child(
                graph, leftover, next_ell, depth, state, node, salt
            )
            coloring.update(child_coloring)
            ledger.merge_sequential(child_ledger)

        # --- G_0: update palettes, finish without recursion ------------------
        g0 = self._g0(partition)
        if g0.num_nodes > 0:
            g0_palettes, removed = palettes.subset_updated(g0.nodes(), graph, coloring)
            self._charge_palette_update(ledger, removed, state)
            g0_coloring, g0_ledger = self._finish(g0, g0_palettes, node, state)
            ledger.merge_sequential(g0_ledger)
            coloring.update(g0_coloring)

        return coloring, ledger, node

    def _child(
        self, graph, bin_instance, next_ell, depth, state, node, salt, prefetched=None
    ) -> Tuple[Coloring, CostLedger]:
        """Recurse on one bin of ``graph``, or finish it when it may not.

        The child's salt is ``child_salt(salt, bin_index)``; the leftover
        bin is bin ``num_bins - 1``.
        """
        if not self._recurses(graph, bin_instance.graph):
            return self._finish(bin_instance.graph, bin_instance.palettes, node, state)
        coloring, ledger, child_node = self._recurse(
            bin_instance.graph,
            bin_instance.palettes,
            next_ell,
            depth + 1,
            state,
            salt=child_salt(salt, bin_instance.bin_index),
            prefetched=prefetched,
        )
        node.children.append(child_node)
        return coloring, ledger

    def _next_ell(self, ell: Optional[float]) -> Optional[float]:
        return None

    def _recurses(self, graph: Graph, child_graph: Graph) -> bool:
        return True

    # ------------------------------------------------------------------
    # segmented cross-bin prefetch (repro.core.level)
    # ------------------------------------------------------------------
    def _prefetch(
        self, graph: Graph, partition, next_ell, depth: int, state: RunState, salt: int
    ) -> Dict[int, object]:
        """Score every recursing color bin's head batch in one pass.

        The gate: the segmented pass reproduces exactly the head-batch
        probes of the single-process ``FIRST_FEASIBLE`` selection (the
        low-space pipeline's only strategy; it has no strategy field), so
        any other configuration keeps the per-bin route.  Best-effort: on
        a failure (or a mispredicted bin) the child's partition call
        scores its own head, with identical selections.
        """
        params = self.params
        strategy = getattr(params, "selection_strategy", SelectionStrategy.FIRST_FEASIBLE)
        durable = state.durable
        if not (
            params.level_use_batch
            and params.parallel_workers == 1
            and strategy == SelectionStrategy.FIRST_FEASIBLE
            and (durable is None or durable.prefetch_allowed)
        ):
            return {}
        eligible = [
            (
                bin_instance.bin_index,
                child_salt(salt, bin_instance.bin_index),
                bin_instance.graph,
                bin_instance.palettes,
            )
            for bin_instance in partition.color_bins
            if bin_instance.graph.size() >= LEVEL_PREFETCH_MIN_SIZE
            and self._recurses(graph, bin_instance.graph)
            and self._will_partition(
                bin_instance.graph, bin_instance.palettes, depth + 1, state
            )
            # A bin whose subtree will be restored from the checkpoint
            # never reaches its partition call — don't score it.
            and (durable is None or not durable.has(child_salt(salt, bin_instance.bin_index)))
        ]
        if not eligible:
            return {}
        try:
            return self._prefetch_level(eligible, next_ell, state)
        except Exception:  # pragma: no cover - prefetch is best-effort
            return {}
