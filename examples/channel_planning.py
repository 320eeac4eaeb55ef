#!/usr/bin/env python
"""Channel planning: how many RF channels does a deployment need?

The EPCGlobal Gen-2 dense reading mode removes reader-to-reader interference
between readers on different channels — but channels are scarce spectrum.
This example sizes the channel budget for a dense dock-door deployment:

* sweep the channel count and measure one-shot throughput and full-inventory
  slots;
* show the diminishing return once reader–reader collisions (RRc, which no
  channel plan can fix — tags are channel-agnostic) dominate.

Run:  python examples/channel_planning.py
"""

from repro.core import exact_mwfs
from repro.core.multichannel import (
    greedy_multichannel_assignment,
    multichannel_covering_schedule,
    multichannel_weight,
)
from repro.deployment import Scenario


def main() -> None:
    # dock doors: readers packed tightly -> dense interference graph
    system = Scenario(
        num_readers=30,
        num_tags=700,
        side=45.0,
        lambda_interference=16,
        lambda_interrogation=7,
        seed=8,
    ).build()
    edges = int(system.conflict.sum()) // 2
    print(
        f"dock area: {system.num_readers} readers in 45x45, "
        f"{edges} interference pairs, {system.num_tags} tags"
    )
    single_opt = exact_mwfs(system, max_nodes=300_000).weight
    print(f"single-channel optimum (paper model): {single_opt} tags/slot\n")

    print("channels | tags per slot | inventory slots | gain vs 1ch")
    base_slot = None
    for c in (1, 2, 3, 4, 6, 8):
        assignment = greedy_multichannel_assignment(system, c)
        w = multichannel_weight(system, assignment)
        schedule = multichannel_covering_schedule(system, c)
        if base_slot is None:
            base_slot = w
        print(
            f"{c:8d} | {w:13d} | {schedule.size:15d} | {w / base_slot:10.2f}x"
        )

    print(
        "\nthe curve flattens once every reader that could usefully transmit "
        "already has a clean channel — the residual loss is RRc in the "
        "overlap zones, which only *activation* scheduling (not channel "
        "assignment) can avoid."
    )


if __name__ == "__main__":
    main()
