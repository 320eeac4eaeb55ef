"""RFID system model.

:class:`~repro.model.system.RFIDSystem` is the central object of the library:
it freezes a deployment (reader positions/radii + tag positions) and exposes
the coverage incidence, the interference graph, and the weight oracle
(Definition 3) that every scheduler consumes.  Read-state bookkeeping across
time-slots lives in :class:`~repro.model.state.ReadState`.
"""

from repro.model.collisions import (
    CollisionReport,
    classify_collisions,
    operational_mask,
    rrc_blocked_tags,
    rtc_victims,
)
from repro.model.interference import (
    adjacency_lists,
    growth_profile,
    hop_distances,
    interference_graph,
    r_hop_ball,
)
from repro.model.reader import Reader
from repro.model.state import ReadState
from repro.model.system import RFIDSystem, build_system
from repro.model.tag import Tag
from repro.model.weights import WeightedTagOracle

__all__ = [
    "Reader",
    "Tag",
    "RFIDSystem",
    "build_system",
    "ReadState",
    "WeightedTagOracle",
    "adjacency_lists",
    "growth_profile",
    "hop_distances",
    "interference_graph",
    "r_hop_ball",
    "CollisionReport",
    "classify_collisions",
    "operational_mask",
    "rrc_blocked_tags",
    "rtc_victims",
]
