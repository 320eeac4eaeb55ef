"""Scenario = layout + radii + seed, frozen into a reproducible config.

A :class:`Scenario` captures everything the experiment harness varies: the
counts, the region, and the two Poisson means.  ``PAPER_SCENARIO`` is the
Section-VI default (50 readers, 1200 tags, 100×100).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from repro.deployment.generators import uniform_deployment
from repro.deployment.radii import sample_radii
from repro.model.system import RFIDSystem, build_system
from repro.obs.spans import span
from repro.util.rng import RngLike, as_rng
from repro.util.validation import check_positive


@dataclass(frozen=True)
class Scenario:
    """A reproducible uniform-random workload definition."""

    num_readers: int = 50
    num_tags: int = 1200
    side: float = 100.0
    lambda_interference: float = 10.0
    lambda_interrogation: float = 5.0
    seed: Optional[int] = 0

    def __post_init__(self) -> None:
        if self.num_readers < 0 or self.num_tags < 0:
            raise ValueError("counts must be >= 0")
        check_positive("side", self.side)
        check_positive("lambda_interference", self.lambda_interference)
        check_positive("lambda_interrogation", self.lambda_interrogation)

    def with_(self, **changes) -> "Scenario":
        """Functional update — sweep helpers derive variants this way."""
        return dataclasses.replace(self, **changes)

    def build(self, seed: RngLike = None) -> RFIDSystem:
        """Materialise the scenario into an :class:`RFIDSystem`.

        An explicit *seed* overrides the scenario's stored seed; both the
        placement and the radii are drawn from the same generator so one
        integer pins the whole instance.
        """
        rng = as_rng(self.seed if seed is None else seed)
        with span("scenario.build", readers=self.num_readers, tags=self.num_tags):
            placement = uniform_deployment(
                self.num_readers, self.num_tags, self.side, seed=rng
            )
            interference, interrogation = sample_radii(
                self.num_readers,
                self.lambda_interference,
                self.lambda_interrogation,
                seed=rng,
            )
            return build_system(
                placement.reader_positions,
                interference,
                interrogation,
                placement.tag_positions,
            )


#: The paper's Section-VI workload.
PAPER_SCENARIO = Scenario()


def build_scenario_system(
    lambda_interference: float,
    lambda_interrogation: float,
    seed: Optional[int] = 0,
    num_readers: int = 50,
    num_tags: int = 1200,
    side: float = 100.0,
) -> RFIDSystem:
    """One-call constructor used by benchmarks: the paper workload with the
    given Poisson means."""
    return Scenario(
        num_readers=num_readers,
        num_tags=num_tags,
        side=side,
        lambda_interference=lambda_interference,
        lambda_interrogation=lambda_interrogation,
        seed=seed,
    ).build()
