"""Tests for Algorithm 3 — the distributed protocol."""

import numpy as np
import pytest

from repro.core import centralized_location_free, distributed_mwfs, exact_mwfs
from repro.core.distributed import (
    BLACK,
    RED,
    WHITE,
    run_distributed_protocol,
)
from repro.model import adjacency_lists, hop_distances
from tests.conftest import make_random_system


class TestProtocolOutcome:
    def test_all_nodes_colored(self, small_system):
        outcome = run_distributed_protocol(small_system, rho=1.3, c=2)
        assert outcome.uncolored == ()

    def test_result_is_red_nodes_and_feasible(self, small_system):
        outcome = run_distributed_protocol(small_system, rho=1.3, c=2)
        assert outcome.result.feasible
        assert small_system.is_feasible(outcome.result.active)

    def test_deterministic(self, small_system):
        a = run_distributed_protocol(small_system, rho=1.3, c=2)
        b = run_distributed_protocol(small_system, rho=1.3, c=2)
        np.testing.assert_array_equal(a.result.active, b.result.active)
        assert a.rounds == b.rounds
        assert a.messages == b.messages

    def test_metrics_positive(self, small_system):
        outcome = run_distributed_protocol(small_system, rho=1.3, c=2)
        assert outcome.rounds >= 2 * 2 + 2  # at least the gather phase
        assert outcome.messages > 0
        assert len(outcome.coordinators) >= 1

    def test_meta_carries_metrics(self, small_system):
        res = distributed_mwfs(small_system, rho=1.3, c=2)
        assert res.meta["rounds"] > 0
        assert res.meta["messages"] > 0
        assert res.meta["solver"] == "distributed"

    def test_validation(self, small_system):
        with pytest.raises(ValueError):
            distributed_mwfs(small_system, rho=1.0)
        with pytest.raises(ValueError):
            distributed_mwfs(small_system, c=-1)

    def test_empty_system(self):
        from repro.model import RFIDSystem

        outcome = run_distributed_protocol(RFIDSystem([], []))
        assert outcome.result.size == 0
        assert outcome.coordinators == ()


class TestSeparationInvariant:
    """Simultaneous coordinators must be > 2c+2 hops apart (Section V-B);
    we check the weaker but sufficient post-hoc property: committed local
    solutions are mutually non-adjacent, i.e. the union is feasible."""

    @pytest.mark.parametrize("seed", range(5))
    def test_committed_gammas_mutually_independent(self, seed):
        system = make_random_system(20, 150, 45, 10, 5, seed=seed)
        outcome = run_distributed_protocol(system, rho=1.3, c=2)
        assert system.is_feasible(outcome.result.active)
        assert outcome.uncolored == ()

    @pytest.mark.parametrize("c", [0, 1, 3])
    def test_any_c_yields_feasible_complete_coloring(self, c, small_system):
        outcome = run_distributed_protocol(small_system, rho=1.2, c=c)
        assert outcome.uncolored == ()
        assert outcome.result.feasible


class TestQualityVsCentralized:
    @pytest.mark.parametrize("seed", range(4))
    def test_close_to_exact_on_sparse_graphs(self, seed):
        system = make_random_system(16, 140, 45, 9, 5, seed=seed, beta_cap=0.5)
        opt = exact_mwfs(system).weight
        res = distributed_mwfs(system, rho=1.3, c=3)
        # Theorem 6 under the beta <= 1/2 additivity premise (c large enough
        # that the cap never binds on these sparse instances).
        assert res.weight >= opt / 1.3 - 1e-9

    def test_weight_zero_unread(self, small_system):
        unread = np.zeros(small_system.num_tags, dtype=bool)
        res = distributed_mwfs(small_system, unread=unread, rho=1.3, c=2)
        assert res.weight == 0
        # the protocol still colours everyone (termination regardless of work)
        outcome = run_distributed_protocol(
            small_system, unread=unread, rho=1.3, c=2
        )
        assert outcome.uncolored == ()


class TestCoordinatorElection:
    def test_isolated_nodes_all_coordinate(self):
        # no interference at all: every reader is its own (2c+2)-ball and
        # has one private tag to serve
        from repro.model import build_system

        positions = [[100.0 * i, 0.0] for i in range(6)]
        system = build_system(
            np.array(positions),
            np.full(6, 5.0),
            np.full(6, 5.0),
            np.array([[100.0 * i, 1.0] for i in range(6)]),
        )
        assert not system.conflict.any()
        outcome = run_distributed_protocol(system, rho=1.3, c=2)
        assert len(outcome.coordinators) == 6
        assert outcome.result.size == 6  # all activate (all Red)
        assert outcome.result.weight == 6

    def test_zero_weight_readers_stay_dark(self):
        # readers that cover nothing are coloured Black, not activated
        from repro.model import build_system

        system = build_system(
            np.array([[0.0, 0.0], [50.0, 0.0]]),
            np.full(2, 5.0),
            np.full(2, 2.0),
            np.array([[25.0, 25.0]]),  # out of everyone's range
        )
        outcome = run_distributed_protocol(system, rho=1.3, c=1)
        assert outcome.uncolored == ()
        assert outcome.result.size == 0

    def test_clique_elects_single_winner_per_wave(self):
        system = make_random_system(8, 80, 10, 30, 8, seed=0)
        assert system.conflict[np.triu_indices(8, 1)].all()
        outcome = run_distributed_protocol(system, rho=1.3, c=1)
        # in a clique, exactly one reader can be active
        assert outcome.result.size == 1
        best_solo = max(system.weight([i]) for i in range(8))
        assert outcome.result.weight == best_solo


class TestLossyLinks:
    """The paper assumes reliable links; the library handles loss via
    per-hop-acked flooding plus gather slack (auto-enabled)."""

    @pytest.mark.parametrize("seed", range(3))
    def test_reliable_mode_survives_loss(self, seed):
        system = make_random_system(16, 120, 45, 10, 5, seed=seed)
        clean = run_distributed_protocol(system, rho=1.3, c=2)
        lossy = run_distributed_protocol(
            system, rho=1.3, c=2, loss_rate=0.3, seed=seed
        )
        assert lossy.uncolored == ()
        assert lossy.result.feasible
        # same deterministic decisions as the loss-free run: reliable
        # flooding delivers exactly the same information, just later
        np.testing.assert_array_equal(lossy.result.active, clean.result.active)

    def test_loss_increases_cost(self, small_system):
        clean = run_distributed_protocol(small_system, rho=1.3, c=2)
        lossy = run_distributed_protocol(
            small_system, rho=1.3, c=2, loss_rate=0.3, seed=0
        )
        assert lossy.messages > clean.messages
        assert lossy.rounds >= clean.rounds

    def test_unreliable_on_lossy_links_degrades(self, small_system):
        """Forcing fire-and-forget floods over heavy loss shows why the
        acked variant exists: a node that defers to a higher-weight peer
        whose RESULT flood gets dropped waits forever — on this seed the
        run strands White nodes that the reliable variant colours."""
        degraded = run_distributed_protocol(
            small_system,
            rho=1.3,
            c=2,
            loss_rate=0.6,
            reliable=False,
            gather_slack=0,
            seed=1,
            max_rounds=300,
        )
        assert len(degraded.uncolored) > 0
        healed = run_distributed_protocol(
            small_system, rho=1.3, c=2, loss_rate=0.6, seed=1, max_rounds=3000
        )
        assert healed.uncolored == ()
        assert healed.result.feasible

    def test_loss_rate_validation(self, small_system):
        with pytest.raises(ValueError):
            run_distributed_protocol(small_system, loss_rate=1.0)


class TestGatherPhase:
    def test_view_covers_ball(self, small_system):
        """After the protocol, each coordinator must have known its full
        (2c+2)-hop ball — verify against ground-truth BFS."""
        c = 2
        outcome = run_distributed_protocol(small_system, rho=1.3, c=c)
        # reconstruct what the nodes saw by re-running with node access
        from repro.core.distributed import SchedulerNode
        from repro.distsim.engine import SyncEngine
        masks = small_system.packed_coverage.masks
        adj = adjacency_lists(small_system)
        nodes = [
            SchedulerNode(i, masks[i], rho=1.3, c=c)
            for i in range(small_system.num_readers)
        ]
        engine = SyncEngine([a.tolist() for a in adj], nodes)
        engine.run()
        for i, node in enumerate(nodes):
            ball = set(hop_distances(adj, i, max_hops=2 * c + 2))
            assert ball <= set(node.view_neighbors), f"node {i} missed ball members"
