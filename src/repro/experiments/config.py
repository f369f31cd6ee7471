"""Paper-default experiment parameters (§VI-A/§VI-C).

Every figure runner builds on these constants; each runner's ``GRIDS``
shrinks its sweep for the ``smoke`` and ``quick`` scales.
"""

from __future__ import annotations

from repro.core.spec import SwitchSpec
from repro.traffic.workload import WorkloadConfig

#: §VI-C: "8 stages and 20 memory blocks (each for an NF) in each stage, and
#: each block has 1000 entries of rules ... backplane speed 400 Gbps".
PAPER_SWITCH = SwitchSpec(
    stages=8,
    blocks_per_stage=20,
    block_bits=64_000,
    rule_bits=64,
    capacity_gbps=400.0,
)

#: §VI-A: 10 NF types, rules uniform in [100, 2100], long-tail bandwidth;
#: §VI-C default average chain length 5.
PAPER_WORKLOAD = WorkloadConfig(
    num_sfcs=25,
    num_types=10,
    avg_chain_length=5,
    chain_length_spread=2,
    rules_min=100,
    rules_max=2100,
)

#: The paper synthesizes five datasets per experiment.
PAPER_TRIALS = 5

#: Fig. 4/5 packet-size sweep.
PACKET_SIZES = (64, 128, 256, 512, 1024, 1500)

#: Offered load: the 100 Gbps sender.
OFFERED_GBPS = 100.0

