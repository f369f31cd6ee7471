#!/usr/bin/env python
"""Runtime update scenario: a day of tenant churn through the SFC controller.

20 tenants are admitted from a 50-candidate pool; over several epochs some
leave, new ones arrive, and one tenant modifies its chain in place.  The
controller screens every request (admission control), keeps survivors
untouched, installs each accepted chain on the behavioural data plane with
two-phase make-before-break updates, and a drift threshold triggers a full
reconfiguration when incremental churn wastes too much backplane bandwidth.
The script ends by checking the controller's incremental resource accounting
against a from-scratch recomputation — the churn invariant.

Run:  python examples/runtime_update_scenario.py
"""

import numpy as np

from repro.controller import SfcController
from repro.core.state import PipelineState
from repro.core.verify import check_placement
from repro.experiments.config import PAPER_SWITCH
from repro.traffic import WorkloadConfig, make_instance


def main() -> None:
    rng = np.random.default_rng(2022)
    config = WorkloadConfig(num_sfcs=50, num_types=10, avg_chain_length=5)
    instance = make_instance(config, switch=PAPER_SWITCH, max_recirculations=2, rng=rng)
    candidates = list(instance.sfcs)

    controller = SfcController.for_instance(instance, reconfigure_threshold=0.25)

    # Epoch 0: only the first 20 tenants exist yet.
    controller.admit_many(candidates[:20])
    controller.install_catalog()
    print(f"epoch 0: {len(controller.tenants)} tenants admitted, "
          f"objective {controller.placement.objective:.0f}")

    arrivals = iter(candidates[20:])
    for epoch in range(1, 6):
        # A few tenants leave...
        live = sorted(controller.tenants)
        leavers = [int(t) for t in rng.choice(live, size=min(3, len(live)), replace=False)]
        for t in leavers:
            controller.evict(t)
        # ...and a few new ones arrive (some may be refused admission).
        added = []
        for sfc in (next(arrivals) for _ in range(4)):
            result = controller.admit(sfc)
            if result.ok:
                added.append(result.tenant_id)
        reconfigured = controller.maybe_reconfigure()
        placement = controller.placement
        assert check_placement(placement, require_all_types=False) == []
        flag = " [full reconfiguration]" if reconfigured else ""
        print(
            f"epoch {epoch}: -{leavers} +{added} -> "
            f"{len(controller.tenants)} tenants, objective {placement.objective:.0f}, "
            f"backplane {placement.backplane_gbps:.0f}/{PAPER_SWITCH.capacity_gbps:.0f} Gbps{flag}"
        )

    # One tenant renegotiates its chain: a hitless make-before-break swap.
    victim = sorted(controller.tenants)[0]
    new_chain = controller.tenants[victim].sfc
    new_chain = type(new_chain)(
        name=f"{new_chain.name}-v2",
        nf_types=tuple(reversed(new_chain.nf_types)),
        rules=tuple(reversed(new_chain.rules)),
        bandwidth_gbps=new_chain.bandwidth_gbps,
        tenant_id=victim,
    )
    result = controller.modify(victim, new_chain)
    print(f"tenant {victim} modified its chain: ok={result.ok}, "
          f"hitless={result.hitless}, rules +{result.rules_added}/-{result.rules_deleted}")

    # The churn invariant: incremental accounting == from-scratch recompute.
    reference = PipelineState.from_placement(controller.placement)
    ok = (
        np.array_equal(controller.state.entries, reference.entries)
        and np.array_equal(controller.state.nf_blocks, reference.nf_blocks)
        and controller.state.backplane_gbps == reference.backplane_gbps
    )
    assert ok
    print(f"invariant {'OK' if ok else 'VIOLATED'}: incremental accounting "
          f"matches a from-scratch recomputation bit for bit")


if __name__ == "__main__":
    main()
