"""Unit tests for the CONGESTED CLIQUE and MPC simulators and accounting."""

from __future__ import annotations

import pytest

from repro.accounting import CostLedger, PoolHealth, RunDurability, ServiceTelemetry
from repro.congested_clique import CongestedCliqueSimulator, LenzenRouter, RoutingRequest
from repro.congested_clique.router import LENZEN_ROUTING_ROUNDS
from repro.errors import (
    BandwidthExceededError,
    ConfigurationError,
    SpaceLimitExceededError,
)
from repro.mpc import MPCSimulator, Machine, linear_space_regime, low_space_regime
from repro.mpc.primitives import concurrent_group_count, sort_rounds


class TestCostLedger:
    def test_charge_accumulates(self):
        ledger = CostLedger()
        ledger.charge("a", 3, 10)
        ledger.charge("a", 2, 5)
        ledger.charge("b", 1)
        assert ledger.rounds == 6
        assert ledger.message_words == 15
        assert ledger.phase("a").rounds == 5
        assert ledger.phase("missing").rounds == 0

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            CostLedger().charge("a", -1)

    def test_merge_parallel_takes_max_rounds(self):
        left = CostLedger()
        left.charge("work", 5, 100)
        right = CostLedger()
        right.charge("work", 3, 50)
        left.merge_parallel(right)
        assert left.rounds == 5
        assert left.message_words == 150

    def test_merge_sequential_adds_rounds(self):
        left = CostLedger()
        left.charge("work", 5, 100)
        right = CostLedger()
        right.charge("work", 3, 50)
        left.merge_sequential(right)
        assert left.rounds == 8
        assert left.message_words == 150

    def test_snapshot(self):
        ledger = CostLedger()
        ledger.charge("x", 2, 7)
        assert ledger.snapshot() == {"x": (2, 7)}


#: Every counter of each record, in field order: the CLI, ``/v1/healthz``
#: and the logs render them in exactly this order.
_COUNTER_FIELDS = {
    PoolHealth: (
        "shard_retries shard_timeouts worker_deaths worker_respawns "
        "error_replies integrity_failures in_process_rescues breaker_trips "
        "breaker_skipped_slabs bytes_shipped bytes_shared orphan_segments_swept"
    ),
    ServiceTelemetry: (
        "jobs_submitted jobs_rejected jobs_computed jobs_failed jobs_cancelled "
        "jobs_resumed cache_hits cache_misses cache_stores"
    ),
    RunDurability: (
        "checkpoints_written checkpoint_bytes subtrees_recorded "
        "subtrees_restored nodes_restored guard_polls rss_peak_mb "
        "prefetch_disabled buffer_shrinks"
    ),
}


@pytest.mark.parametrize("record_type", list(_COUNTER_FIELDS), ids=lambda t: t.__name__)
def test_counter_record_rendering(record_type):
    names = _COUNTER_FIELDS[record_type].split()
    record = record_type()
    for value, name in enumerate(names, start=1):
        record.bump(name, value)
    assert record.as_dict() == {name: value for value, name in enumerate(names, start=1)}
    assert list(record.as_dict()) == names
    assert record.summary() == " ".join(
        f"{name}={value}" for value, name in enumerate(names, start=1)
    )
    record.bump(names[0])
    assert record.as_dict()[names[0]] == 2
    with pytest.raises(AttributeError):
        record.bump("no_such_counter")


class TestLenzenRouter:
    def test_within_capacity(self):
        router = LenzenRouter(num_nodes=10, capacity_factor=2.0)
        stats = router.check([RoutingRequest(0, 1, 5), RoutingRequest(1, 0, 5)])
        assert stats["total_words"] == 10
        assert stats["max_send_load"] == 5

    def test_send_overload_detected(self):
        router = LenzenRouter(num_nodes=10, capacity_factor=1.0)
        with pytest.raises(BandwidthExceededError, match="send"):
            router.check([RoutingRequest(0, 1, 11)])

    def test_receive_overload_detected(self):
        router = LenzenRouter(num_nodes=10, capacity_factor=1.0)
        requests = [RoutingRequest(i, 9, 2) for i in range(9)]
        with pytest.raises(BandwidthExceededError, match="receive"):
            router.check(requests)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            LenzenRouter(0)
        with pytest.raises(ConfigurationError):
            RoutingRequest(0, 1, -1)


class TestCongestedCliqueSimulator:
    def test_all_to_all_rounds_is_max_pair_load(self):
        sim = CongestedCliqueSimulator(5)
        rounds = sim.all_to_all_round({(0, 1): 3, (2, 3): 1})
        assert rounds == 3
        assert sim.rounds == 3
        assert sim.message_words == 4

    def test_all_to_all_empty(self):
        sim = CongestedCliqueSimulator(5)
        assert sim.all_to_all_round({}) == 0

    def test_broadcast_and_aggregate(self):
        sim = CongestedCliqueSimulator(8)
        assert sim.broadcast(0, words=2) == 2
        assert sim.aggregate() == 2
        assert sim.rounds == 4

    def test_collect_within_capacity(self):
        sim = CongestedCliqueSimulator(100, capacity_factor=1.0)
        rounds = sim.collect_onto_node(0, total_words=90)
        assert rounds == LENZEN_ROUTING_ROUNDS

    def test_collect_over_capacity(self):
        sim = CongestedCliqueSimulator(100, capacity_factor=1.0)
        with pytest.raises(BandwidthExceededError):
            sim.collect_onto_node(0, total_words=150)

    def test_lenzen_route_charges_constant_rounds(self):
        sim = CongestedCliqueSimulator(10)
        sim.lenzen_route([RoutingRequest(0, 1, 4)])
        assert sim.rounds == LENZEN_ROUTING_ROUNDS

    def test_unknown_node_rejected(self):
        sim = CongestedCliqueSimulator(4)
        with pytest.raises(ConfigurationError):
            sim.broadcast(9)

    def test_word_bits_default_logarithmic(self):
        sim = CongestedCliqueSimulator(1024)
        assert sim.word_bits == 11


class TestMPCRegimes:
    def test_linear_space_list_coloring_total_is_n_delta(self):
        regime = linear_space_regime(num_nodes=100, max_degree=20)
        assert regime.local_space_words >= 100
        assert regime.total_space_words >= 100 * 20

    def test_linear_space_m_plus_n_requires_edges(self):
        with pytest.raises(ConfigurationError):
            linear_space_regime(num_nodes=10, max_degree=3, list_coloring=False)
        regime = linear_space_regime(
            num_nodes=10, max_degree=3, list_coloring=False, num_edges=15
        )
        assert regime.total_space_words >= 25

    def test_low_space_local_is_sublinear(self):
        regime = low_space_regime(num_nodes=10000, num_edges=50000, epsilon=0.5)
        assert regime.local_space_words < 10000

    def test_low_space_invalid_epsilon(self):
        with pytest.raises(ConfigurationError):
            low_space_regime(10, 10, epsilon=0.0)

    def test_num_machines(self):
        regime = linear_space_regime(num_nodes=100, max_degree=10)
        assert regime.num_machines >= 1


class TestMachine:
    def test_store_and_release(self):
        machine = Machine(0, capacity_words=10)
        machine.store(6)
        machine.store(3)
        assert machine.used_words == 9
        assert machine.peak_words == 9
        machine.release(4)
        assert machine.used_words == 5
        machine.release_all()
        assert machine.used_words == 0
        assert machine.peak_words == 9

    def test_overflow_raises(self):
        machine = Machine(0, capacity_words=5)
        with pytest.raises(SpaceLimitExceededError):
            machine.store(6)

    def test_release_too_much(self):
        machine = Machine(0, capacity_words=5)
        machine.store(2)
        with pytest.raises(ConfigurationError):
            machine.release(3)


class TestMPCSimulator:
    def make(self) -> MPCSimulator:
        return MPCSimulator(linear_space_regime(num_nodes=100, max_degree=10))

    def test_sort_and_prefix_sum_charge_constant_rounds(self):
        sim = self.make()
        sort = sim.sort(500)
        prefix = sim.prefix_sum(500)
        assert sort >= 1 and prefix >= 1
        assert sim.rounds == sort + prefix

    def test_sort_over_total_space(self):
        sim = self.make()
        with pytest.raises(SpaceLimitExceededError):
            sim.sort(10**9)

    def test_broadcast_over_local_space(self):
        sim = self.make()
        with pytest.raises(SpaceLimitExceededError):
            sim.broadcast(10**7)

    def test_collect_onto_machine_respects_local_space(self):
        sim = self.make()
        sim.collect_onto_machine(sim.regime.local_space_words)
        with pytest.raises(SpaceLimitExceededError):
            sim.collect_onto_machine(sim.regime.local_space_words + 1)

    def test_space_peaks_tracked(self):
        sim = self.make()
        sim.record_space_usage(1000, max_local_words=50)
        sim.record_space_usage(500, max_local_words=80)
        report = sim.space_report()
        assert report["peak_total_words"] == 1000
        assert report["peak_local_words"] == 80

    def test_space_violations_raise(self):
        sim = self.make()
        with pytest.raises(SpaceLimitExceededError):
            sim.record_space_usage(sim.regime.total_space_words + 1)
        with pytest.raises(SpaceLimitExceededError):
            sim.record_space_usage(10, max_local_words=sim.regime.local_space_words + 1)

    def test_concurrent_group_count(self):
        regime = linear_space_regime(num_nodes=100, max_degree=10)
        assert concurrent_group_count(regime, 100) >= 1
        with pytest.raises(ConfigurationError):
            concurrent_group_count(regime, 0)

    def test_sort_rounds_validates_volume(self):
        regime = linear_space_regime(num_nodes=10, max_degree=2)
        with pytest.raises(SpaceLimitExceededError):
            sort_rounds(regime, regime.total_space_words + 1)
