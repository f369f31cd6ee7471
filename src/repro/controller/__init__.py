"""Tenant-facing SFC control-plane service (paper §V as a subsystem).

The package glues the placement core to the functional data plane behind a
single lifecycle facade:

* :mod:`~repro.controller.controller` — :class:`SfcController`
  (admit / evict / modify, drift-bounded reconfiguration);
* :mod:`~repro.controller.admission` — pre-solver admission screens;
* :mod:`~repro.controller.install` — two-phase hitless rule installation
  over the tenant-map wire-ID indirection;
* :mod:`~repro.controller.events` — churn synthesis, trace replay, reports.

The counters/gauges the benchmarks export live in
:mod:`repro.telemetry.metrics`; the registry types are re-exported here.
"""

from repro.controller.admission import (
    AdmissionDecision,
    check_admission,
)
from repro.controller.controller import (
    OpResult,
    SfcController,
    TenantRecord,
    default_rule_factory,
)
from repro.controller.events import (
    ChurnConfig,
    ChurnEngine,
    ChurnEvent,
    ChurnReport,
    EventKind,
    load_events,
    read_trace,
    save_events,
    synthesize_churn,
)
from repro.controller.install import (
    TENANT_MAP,
    WIRE_BASE,
    InstallOutcome,
    TransactionalInstaller,
)
from repro.telemetry.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)

__all__ = [
    "AdmissionDecision",
    "ChurnConfig",
    "ChurnEngine",
    "ChurnEvent",
    "ChurnReport",
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "EventKind",
    "Gauge",
    "Histogram",
    "InstallOutcome",
    "MetricsRegistry",
    "OpResult",
    "SfcController",
    "TENANT_MAP",
    "TenantRecord",
    "TransactionalInstaller",
    "WIRE_BASE",
    "check_admission",
    "default_rule_factory",
    "load_events",
    "read_trace",
    "save_events",
    "synthesize_churn",
]
