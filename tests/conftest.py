"""Shared fixtures and strategies for the test suite."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.deployment import Scenario
from repro.model import build_system


# ---------------------------------------------------------------------------
# deterministic hand-built systems
# ---------------------------------------------------------------------------
@pytest.fixture
def line_system():
    """Three readers on a line; A and B conflict, C is independent of both.

    Layout (interference radius 4 each, interrogation 2):
        A at x=0, B at x=3 (inside each other's disks), C at x=20.
    Tags: t0 near A only, t1 near B only, t2 near C only, t3 covered by
    nobody.
    """
    return build_system(
        reader_positions=[[0.0, 0.0], [3.0, 0.0], [20.0, 0.0]],
        interference_radii=[4.0, 4.0, 4.0],
        interrogation_radii=[2.0, 2.0, 2.0],
        tag_positions=[[0.0, 1.0], [3.0, 1.0], [20.0, 1.0], [10.0, 10.0]],
    )


@pytest.fixture
def figure2_system():
    """The paper's Figure 2: three pairwise-independent readers A, B, C where
    activating {A, C} serves more tags than {A, B, C}.

    B's interrogation region overlaps A's and C's; tags 2 and 3 sit in the
    overlaps, so activating B blanks them via RRc:
        w({A,B,C}) = 3  (tags 1, 4, 5 — the overlap tags 2, 3 blocked)
        w({A,C})   = 4  (tags 1, 2, 3, 4 — tag 5 is B-only)
    """
    return build_system(
        # A, B, C on a line, 10 apart; interference radius 4 (independent),
        # interrogation radius 3 except B which reaches 8 to overlap both.
        reader_positions=[[0.0, 0.0], [10.0, 0.0], [20.0, 0.0]],
        interference_radii=[4.0, 9.0, 4.0],
        interrogation_radii=[3.0, 8.0, 3.0],
        tag_positions=[
            [-2.0, 0.0],  # tag1: A only
            [2.5, 0.0],   # tag2: A and B overlap
            [17.5, 0.0],  # tag3: C and B overlap
            [22.0, 0.0],  # tag4: C only
            [10.0, 0.0],  # tag5: B only
        ],
    )


@pytest.fixture
def small_system():
    """Random 12-reader instance small enough for exact search in tests."""
    return Scenario(
        num_readers=12,
        num_tags=150,
        side=40,
        lambda_interference=8,
        lambda_interrogation=5,
        seed=3,
    ).build()


@pytest.fixture(scope="session")
def paper_system():
    """The Section-VI workload (session-scoped: it is immutable)."""
    return Scenario(seed=7).build()


def make_random_system(
    num_readers: int,
    num_tags: int,
    side: float,
    lambda_interference: float,
    lambda_interrogation: float,
    seed: int,
    beta_cap: float = None,
):
    """Non-fixture constructor for parametrised and property-based tests.

    ``beta_cap`` optionally clamps every interrogation radius to
    ``beta_cap · R_i``.  With ``beta_cap ≤ 0.5``, overlapping interrogation
    regions imply interference-graph adjacency, which is the (implicit)
    additivity premise behind Theorems 4 and 6 — see
    ``test_core_neighborhood.TestTheoremGap``.
    """
    system = Scenario(
        num_readers=num_readers,
        num_tags=num_tags,
        side=side,
        lambda_interference=lambda_interference,
        lambda_interrogation=lambda_interrogation,
        seed=seed,
    ).build()
    if beta_cap is None:
        return system
    return build_system(
        system.reader_positions,
        system.interference_radii,
        np.minimum(system.interrogation_radii, beta_cap * system.interference_radii),
        system.tag_positions,
    )


def shrunken_chaos_shard():
    """A shrunken perfbench ``chaos_shard``: a 100-reader system and the
    keyword arguments of its faulted covering schedule (every reader
    flaky, five crashing for good at slot 3, 30% of reads missed, the
    tree-walking link layer), for ``greedy_covering_schedule(system,
    solver, shard=ShardSpec(cells=4), **kwargs)``."""
    from repro.faults import (
        FaultPlan, FaultPolicy, FlakyActivation, PermanentCrash,
    )

    system = Scenario(num_readers=100, num_tags=2400, side=141.0, seed=3).build()
    plan = FaultPlan(
        reader_faults=tuple(FlakyActivation(r, 0.1) for r in range(100))
        + tuple(PermanentCrash(r, 3) for r in range(0, 100, 20)),
        miss_rate=0.3,
        seed=99,
    )
    return system, dict(
        seed=3, linklayer="treewalk", faults=plan, policy=FaultPolicy(),
        max_stall_slots=8,
    )


# ---------------------------------------------------------------------------
# hypothesis strategies
# ---------------------------------------------------------------------------
@st.composite
def system_strategy(
    draw,
    max_readers: int = 10,
    max_tags: int = 40,
    side: float = 30.0,
):
    """A random small RFIDSystem with heterogeneous radii."""
    n = draw(st.integers(min_value=1, max_value=max_readers))
    m = draw(st.integers(min_value=0, max_value=max_tags))
    coord = st.floats(min_value=0.0, max_value=side, allow_nan=False)
    readers = np.array(
        [[draw(coord), draw(coord)] for _ in range(n)], dtype=float
    )
    tags = (
        np.array([[draw(coord), draw(coord)] for _ in range(m)], dtype=float)
        if m
        else np.empty((0, 2))
    )
    interference = np.array(
        [draw(st.floats(min_value=0.5, max_value=side / 2)) for _ in range(n)]
    )
    frac = np.array(
        [draw(st.floats(min_value=0.1, max_value=1.0)) for _ in range(n)]
    )
    interrogation = interference * frac
    return build_system(readers, interference, interrogation, tags)
