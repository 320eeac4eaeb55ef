"""Tests for the asynchronous engine and the α-synchronizer."""

import numpy as np
import pytest

from repro.distsim import Node, SyncEngine
from repro.distsim.async_engine import (
    AlphaSynchronizer,
    AsyncEngine,
    AsyncNode,
    run_synchronous_over_async,
)


class PingNode(AsyncNode):
    """Natively-async node: replies 'pong' to every 'ping'."""

    def __init__(self, node_id):
        super().__init__(node_id)
        self.log = []

    def on_start(self):
        if self.id == 0:
            self.broadcast("ping")

    def on_message(self, sender, payload, now):
        self.log.append((sender, payload, now))
        if payload == "ping":
            self.send(sender, "pong")


def path_adjacency(n):
    return [[j for j in (i - 1, i + 1) if 0 <= j < n] for i in range(n)]


class TestAsyncEngine:
    def test_delivery_with_delay(self):
        nodes = [PingNode(i) for i in range(3)]
        engine = AsyncEngine(path_adjacency(3), nodes, seed=0)
        engine.run()
        assert nodes[1].log[0][1] == "ping"
        assert any(p == "pong" for _, p, _ in nodes[0].log)
        # delays respected
        assert all(t >= engine.min_delay for _, _, t in nodes[1].log)

    def test_deterministic_given_seed(self):
        def run(seed):
            nodes = [PingNode(i) for i in range(4)]
            engine = AsyncEngine(path_adjacency(4), nodes, seed=seed)
            engine.run()
            return [n.log for n in nodes]

        assert run(7) == run(7)

    def test_non_neighbor_send_rejected(self):
        class Bad(AsyncNode):
            def on_start(self):
                self.send(2, "x")

            def on_message(self, sender, payload, now):
                pass

        nodes = [Bad(0), PingNode(1), PingNode(2)]
        engine = AsyncEngine(path_adjacency(3), nodes, seed=0)
        with pytest.raises(ValueError, match="non-neighbor"):
            engine.run()

    def test_delay_validation(self):
        with pytest.raises(ValueError):
            AsyncEngine([[]], [PingNode(0)], min_delay=0.0)
        with pytest.raises(ValueError):
            AsyncEngine([[]], [PingNode(0)], min_delay=2.0, max_delay=1.0)

    def test_until_limits_simulated_time(self):
        nodes = [PingNode(i) for i in range(5)]
        engine = AsyncEngine(path_adjacency(5), nodes, seed=0)
        engine.run(until=0.1)
        # with min_delay 0.5 nothing can have been delivered yet
        assert all(not n.log for n in nodes[1:])
        assert engine.pending > 0


class CountingSyncNode(Node):
    """Synchronous node: floods a counter; final state = everything heard."""

    def __init__(self, node_id):
        super().__init__(node_id)
        self.heard = []

    def on_start(self):
        self.broadcast(("hello", self.id))

    def on_round(self, round_no, inbox):
        for msg in inbox:
            self.heard.append((round_no, msg.sender, msg.payload))
            kind, origin = msg.payload
            if kind == "hello" and origin != self.id:
                # echo each hello exactly once per (origin)
                key = ("echo", origin)
                if key not in [p for _, _, p in self.heard if p[0] == "echo"]:
                    self.broadcast(key)

    def is_idle(self):
        return True


class TestAlphaSynchronizer:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equivalence_with_sync_engine(self, seed):
        """The same deterministic protocol must reach identical final state
        under the sync engine and under async + synchronizer, regardless of
        delay randomness."""
        n = 5
        adj = path_adjacency(n)

        sync_nodes = [CountingSyncNode(i) for i in range(n)]
        sync_engine = SyncEngine(adj, sync_nodes)
        sync_engine.run(max_rounds=12)

        async_inner = [CountingSyncNode(i) for i in range(n)]
        run_synchronous_over_async(
            adj, async_inner, rounds=12, seed=seed, min_delay=0.3, max_delay=2.7
        )

        for s_node, a_node in zip(sync_nodes, async_inner):
            assert sorted(s_node.heard) == sorted(a_node.heard), s_node.id

    def test_algorithm3_over_async_matches_sync(self):
        """Algorithm 3's scheduler nodes, unmodified, produce the same Red
        set over the asynchronous network."""
        from repro.core.distributed import RED, SchedulerNode, run_distributed_protocol
        from repro.model import adjacency_lists
        from tests.conftest import make_random_system

        system = make_random_system(14, 120, 40, 10, 5, seed=4)
        sync_outcome = run_distributed_protocol(system, rho=1.3, c=2)

        masks = system.packed_coverage.masks
        adj = [a.tolist() for a in adjacency_lists(system)]
        inner = [
            SchedulerNode(i, masks[i], rho=1.3, c=2)
            for i in range(system.num_readers)
        ]
        run_synchronous_over_async(
            adj, inner, rounds=sync_outcome.rounds + 5, seed=9
        )
        red = sorted(node.id for node in inner if node.state == RED)
        assert red == sorted(sync_outcome.result.active.tolist())

    def test_inner_id_mismatch_rejected(self):
        with pytest.raises(ValueError):
            AlphaSynchronizer(0, CountingSyncNode(1))

    def test_synchronizer_message_overhead(self):
        """Pulses cost extra messages — the price of simulated synchrony."""
        n = 4
        adj = path_adjacency(n)
        sync_nodes = [CountingSyncNode(i) for i in range(n)]
        engine = SyncEngine(adj, sync_nodes)
        engine.run(max_rounds=8)

        inner = [CountingSyncNode(i) for i in range(n)]
        _, stats = run_synchronous_over_async(adj, inner, rounds=8, seed=0)
        assert stats.messages > engine.stats.messages


class ChatterNode(AsyncNode):
    """Broadcasts a burst of messages at start; logs whatever arrives."""

    def __init__(self, node_id):
        super().__init__(node_id)
        self.log = []

    def on_start(self):
        for k in range(10):
            self.broadcast(("chatter", k))

    def on_message(self, sender, payload, now):
        self.log.append((sender, payload, now))


class TestAsyncMessageLoss:
    def test_loss_rate_validation(self):
        nodes = [PingNode(i) for i in range(2)]
        with pytest.raises(ValueError):
            AsyncEngine(path_adjacency(2), nodes, loss_rate=1.0)
        with pytest.raises(ValueError):
            AsyncEngine(path_adjacency(2), nodes, loss_rate=-0.1)

    def test_default_has_no_loss_and_unchanged_stream(self):
        def run(loss_kwargs):
            nodes = [PingNode(i) for i in range(4)]
            engine = AsyncEngine(path_adjacency(4), nodes, seed=5, **loss_kwargs)
            engine.run()
            return [n.log for n in nodes], engine.stats

        logs_default, stats_default = run({})
        logs_zero, stats_zero = run({"loss_rate": 0.0})
        # loss_rate=0 adds no RNG draws: identical delivery order and times
        assert logs_default == logs_zero
        assert stats_default.dropped == stats_zero.dropped == 0

    def test_drops_are_counted_and_deterministic(self):
        def run():
            nodes = [ChatterNode(i) for i in range(6)]
            engine = AsyncEngine(
                path_adjacency(6), nodes, seed=9, loss_rate=0.5
            )
            engine.run()
            return [n.log for n in nodes], engine.stats

        logs_a, stats_a = run()
        logs_b, stats_b = run()
        assert logs_a == logs_b
        assert (stats_a.messages, stats_a.dropped) == (
            stats_b.messages, stats_b.dropped
        )
        assert stats_a.dropped > 0
        # dropped messages are still accounted in the posted total
        delivered = sum(len(log) for log in logs_a)
        assert delivered + stats_a.dropped == stats_a.messages

    def test_heavy_loss_still_terminates(self):
        nodes = [PingNode(i) for i in range(3)]
        engine = AsyncEngine(path_adjacency(3), nodes, seed=1, loss_rate=0.99)
        stats = engine.run()
        assert engine.pending == 0
        assert stats.dropped <= stats.messages
