"""Controller high availability: WAL shipping, hot standby, lease failover.

The durability layer (:mod:`repro.durability`) makes one controller
survive its own crashes; this package makes the *service* survive them.
A primary fabric journals as usual, a :class:`~repro.ha.ship.WalShipper`
streams every committed record (plus checkpoints across compaction gaps)
to a :class:`~repro.ha.standby.StandbyReplica` that replays them through
the recovery machinery into a digest-verified shadow fabric, and a
:class:`~repro.ha.lease.LeaseCoordinator` elects the primary with
strictly monotonic fencing epochs.  When the primary dies, the standby
wins the lease, drains the surviving WAL tail, and promotes — holding
every acknowledged op, at the committed state digest, behind a fence that
makes the deposed primary unable to journal or acknowledge anything ever
again.  :class:`~repro.ha.cluster.HaCluster` wires the whole pair up in
one process for the failover drills, the kill-primary sweep, and
``BENCH_ha``.
"""

from repro.ha.cluster import FailoverReport, HaCluster, start_primary, take_over
from repro.ha.lease import LeaseCoordinator, LeaseState, LeaseStore
from repro.ha.ship import (
    InProcessSink,
    ReplicationListener,
    SocketSink,
    WalShipper,
    encode_frame,
    recv_frame,
)
from repro.ha.standby import StandbyReplica

__all__ = [
    "FailoverReport",
    "HaCluster",
    "LeaseCoordinator",
    "LeaseState",
    "LeaseStore",
    "InProcessSink",
    "ReplicationListener",
    "SocketSink",
    "WalShipper",
    "encode_frame",
    "recv_frame",
    "StandbyReplica",
    "start_primary",
    "take_over",
]
