"""Unit tests for the derandomization machinery (hash-pair selection)."""

from __future__ import annotations

import pytest

from repro.core.level import child_salt
from repro.derand.conditional_expectation import (
    HashPairSelector,
    SelectionStrategy,
    _mix64,
)
from repro.derand.cost import empirical_expected_cost, is_feasible
from repro.errors import ConfigurationError, DerandomizationError
from repro.hashing.family import KWiseIndependentFamily


def small_families():
    family1 = KWiseIndependentFamily(domain_size=64, range_size=4, independence=4)
    family2 = KWiseIndependentFamily(domain_size=256, range_size=3, independence=4)
    return family1, family2


def balance_cost(h1, h2):
    """A simple decomposable cost: imbalance of h1 over [64] plus h2 over [128]."""
    counts1 = [0, 0, 0, 0]
    for x in range(64):
        counts1[h1(x)] += 1
    counts2 = [0, 0, 0]
    for x in range(128):
        counts2[h2(x)] += 1
    return (max(counts1) - min(counts1)) + (max(counts2) - min(counts2))


class TestMix64:
    def test_deterministic_and_spread(self):
        values = [_mix64(i) for i in range(100)]
        assert values == [_mix64(i) for i in range(100)]
        assert len(set(values)) == 100


def _recursion_salts(count):
    """The first ``count`` salts of a 4-bin recursion tree, root salt 1."""
    salts = [1]
    for parent in salts:
        if len(salts) >= count:
            break
        salts.extend(child_salt(parent, ordinal) for ordinal in range(4))
    return salts[:count]


class TestChildSalt:
    """``child_salt`` names every Partition call of the recursion; the
    selector's candidate sequence depends on it alone."""

    def test_deterministic(self):
        parents = _recursion_salts(200)
        assert [child_salt(s, 2) for s in parents] == [child_salt(s, 2) for s in parents]
        # Pinned: the same across processes and interpreter runs.
        assert child_salt(1, 0) == 4294279809680864835
        assert child_salt(1, 3) == 9016151524459764997

    def test_parent_salt_changes_result(self):
        parents = _recursion_salts(200)
        for ordinal in range(4):
            values = [child_salt(s, ordinal) for s in parents]
            assert len(set(values)) == len(parents)

    def test_ordinal_changes_result(self):
        for parent in _recursion_salts(200):
            values = [child_salt(parent, ordinal) for ordinal in range(16)]
            assert len(set(values)) == 16

    @pytest.mark.parametrize("modulus", [2, 3, 8])
    def test_residues_all_reachable(self, modulus):
        parents = _recursion_salts(200)
        for ordinal in range(4):
            seen = {child_salt(s, ordinal) % modulus for s in parents}
            assert seen == set(range(modulus))


class TestSelectorConfiguration:
    def test_invalid_parameters(self):
        family1, family2 = small_families()
        with pytest.raises(ConfigurationError):
            HashPairSelector(family1, family2, chunk_bits=0)
        with pytest.raises(ConfigurationError):
            HashPairSelector(family1, family2, batch_size=0)
        with pytest.raises(ConfigurationError):
            HashPairSelector(family1, family2, max_candidates=0)
        with pytest.raises(ConfigurationError):
            HashPairSelector(family1, family2, completion_samples=0)


class TestFirstFeasible:
    def test_meets_bound(self):
        family1, family2 = small_families()
        selector = HashPairSelector(family1, family2)
        expected = empirical_expected_cost(balance_cost, family1, family2, num_samples=16)
        outcome = selector.select(balance_cost, target_bound=expected * 1.5)
        assert outcome.cost <= expected * 1.5
        assert outcome.evaluations >= 1
        assert outcome.strategy is SelectionStrategy.FIRST_FEASIBLE

    def test_unreachable_bound_raises(self):
        family1, family2 = small_families()
        selector = HashPairSelector(family1, family2, max_candidates=32)
        with pytest.raises(DerandomizationError):
            selector.select(balance_cost, target_bound=-1.0)

    def test_no_bound_returns_first_candidate(self):
        family1, family2 = small_families()
        selector = HashPairSelector(family1, family2)
        outcome = selector.select(balance_cost, target_bound=None)
        assert outcome.evaluations == 1

    def test_deterministic(self):
        family1, family2 = small_families()
        a = HashPairSelector(family1, family2).select(balance_cost, target_bound=100.0)
        b = HashPairSelector(family1, family2).select(balance_cost, target_bound=100.0)
        assert a.h1.seed == b.h1.seed
        assert a.h2.seed == b.h2.seed

    def test_candidate_salt_changes_sequence(self):
        family1, family2 = small_families()
        a = HashPairSelector(family1, family2, candidate_salt=0).select(
            balance_cost, target_bound=None
        )
        b = HashPairSelector(family1, family2, candidate_salt=5).select(
            balance_cost, target_bound=None
        )
        assert a.h1.seed != b.h1.seed

    def test_charge_callback_invoked(self):
        family1, family2 = small_families()
        charges = []
        selector = HashPairSelector(family1, family2)
        selector.select(
            balance_cost, target_bound=1000.0, charge=lambda label, rounds: charges.append(rounds)
        )
        assert charges and all(rounds > 0 for rounds in charges)


class TestExhaustive:
    def test_returns_minimum_over_candidates(self):
        family1, family2 = small_families()
        selector = HashPairSelector(
            family1, family2, strategy=SelectionStrategy.EXHAUSTIVE, max_candidates=24
        )
        outcome = selector.select(balance_cost)
        scan = HashPairSelector(
            family1, family2, strategy=SelectionStrategy.EXHAUSTIVE, max_candidates=24
        )
        # Re-running gives the same minimum (deterministic candidate set).
        assert scan.select(balance_cost).cost == outcome.cost
        assert outcome.evaluations == 24


class TestRandom:
    def test_reproducible_given_seed(self):
        family1, family2 = small_families()
        a = HashPairSelector(
            family1, family2, strategy=SelectionStrategy.RANDOM, rng_seed=3
        ).select(balance_cost)
        b = HashPairSelector(
            family1, family2, strategy=SelectionStrategy.RANDOM, rng_seed=3
        ).select(balance_cost)
        assert a.h1.seed == b.h1.seed
        assert a.cost == b.cost

    def test_different_seeds_differ(self):
        family1, family2 = small_families()
        a = HashPairSelector(
            family1, family2, strategy=SelectionStrategy.RANDOM, rng_seed=3
        ).select(balance_cost)
        b = HashPairSelector(
            family1, family2, strategy=SelectionStrategy.RANDOM, rng_seed=4
        ).select(balance_cost)
        assert a.h1.seed != b.h1.seed


class TestConditionalExpectation:
    def test_meets_bound_or_falls_back(self):
        family1, family2 = small_families()
        expected = empirical_expected_cost(balance_cost, family1, family2, num_samples=16)
        selector = HashPairSelector(
            family1,
            family2,
            strategy=SelectionStrategy.CONDITIONAL_EXPECTATION,
            chunk_bits=8,
            completion_samples=2,
        )
        outcome = selector.select(balance_cost, target_bound=expected * 1.5)
        assert outcome.cost <= expected * 1.5

    def test_without_bound_returns_fixed_seed(self):
        family1, family2 = small_families()
        selector = HashPairSelector(
            family1,
            family2,
            strategy=SelectionStrategy.CONDITIONAL_EXPECTATION,
            chunk_bits=8,
        )
        a = selector.select(balance_cost)
        b = selector.select(balance_cost)
        assert a.h1.seed == b.h1.seed
        assert not a.fallback_used


class TestCostHelpers:
    def test_empirical_expected_cost_positive(self):
        family1, family2 = small_families()
        value = empirical_expected_cost(balance_cost, family1, family2, num_samples=8)
        assert value > 0

    def test_empirical_expected_cost_invalid_samples(self):
        family1, family2 = small_families()
        with pytest.raises(ConfigurationError):
            empirical_expected_cost(balance_cost, family1, family2, num_samples=0)

    def test_is_feasible(self):
        family1, family2 = small_families()
        h1 = family1.from_seed_int(0)
        h2 = family2.from_seed_int(0)
        assert is_feasible(balance_cost, h1, h2, None)
        assert not is_feasible(lambda a, b: 10.0, h1, h2, 5.0)


class TestFirstFeasibleHeadScoring:
    """The batched FIRST_FEASIBLE scan never calls the scalar evaluator."""

    @staticmethod
    def _setup():
        from repro.core.classification import partition_cost_function
        from repro.core.params import ColorReduceParameters
        from repro.core.partition import Partition
        from repro.graph import PaletteAssignment
        from repro.graph.generators import erdos_renyi

        graph = erdos_renyi(200, 0.2, seed=11)
        palettes = PaletteAssignment.delta_plus_one(graph)
        params = ColorReduceParameters.scaled(num_bins=8)
        ell = max(float(graph.max_degree()), 2.0)
        families = Partition(params).build_families(
            graph, palettes, ell, graph.num_nodes
        )

        def make_cost():
            return partition_cost_function(graph, palettes, params, ell, graph.num_nodes)

        return families, make_cost

    @staticmethod
    def _select(families, cost, bound, batch_size):
        selector = HashPairSelector(*families, batch_size=batch_size, max_candidates=64)
        try:
            outcome = selector.select(cost, target_bound=bound)
        except DerandomizationError as exc:
            return str(exc)
        return (
            outcome.h1.seed,
            outcome.h2.seed,
            outcome.cost,
            outcome.evaluations,
            outcome.rounds_charged,
            outcome.strategy,
            outcome.fallback_used,
        )

    @pytest.mark.parametrize("batch_size", [1, 8])
    def test_batch_path_skips_scalar_call_and_matches_scalar_path(
        self, monkeypatch, batch_size
    ):
        from repro.core.classification import PartitionCostEvaluator
        from repro.core.level import head_pairs

        families, make_cost = self._setup()
        values = make_cost().many(head_pairs(*families, 0, 64))
        best = min(values)
        # No bound, a feasible head, a bound the head misses but a later
        # candidate meets, and an unreachable bound (same error text).
        assert values[0] > best
        bounds = [None, values[0], best, best - 1]

        # A plain callable has no ``many``, so it takes the scalar scan.
        reference = []
        for bound in bounds:
            cost = make_cost()
            reference.append(
                self._select(families, lambda h1, h2: cost(h1, h2), bound, batch_size)
            )
        scalar_calls = []
        original = PartitionCostEvaluator.__call__

        def spy(self, h1, h2):
            scalar_calls.append((h1, h2))
            return original(self, h1, h2)

        monkeypatch.setattr(PartitionCostEvaluator, "__call__", spy)
        batched = [
            self._select(families, make_cost(), bound, batch_size)
            for bound in bounds
        ]
        assert scalar_calls == []
        assert batched == reference
        assert batched[1][3] == 1
        assert batched[2][3] == values.index(best) + 1
        assert isinstance(batched[3], str)
