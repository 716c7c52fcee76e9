"""Cross-layer telemetry: metrics, tracing, causal context, attribution.

The observability substrate for the whole NoFTL stack.  One
:class:`MetricsRegistry` is threaded through a rig (flash array, FTL or
NoFTL storage manager, buffer pool, db-writers); one :class:`EventTrace`
carries spans for GC runs, wear-leveling migrations, flusher rounds and
transactions.  Every bench exports ``registry.snapshot()`` as JSON — the
machine-readable counterpart of the printed tables, and the source of the
Figure 3/4 quantities (see DESIGN.md, "Telemetry metric names").

On top of the counters, :class:`OpContext` carries each request's root
cause down to individual flash commands, and
:mod:`repro.telemetry.attribution` decomposes tail latency into media /
queueing-behind-GC / retry shares from the resulting trace events (the
``python -m repro.bench.observe tail`` dashboard).
:mod:`repro.telemetry.health` adds the opt-in device-health layer: the
write-amplification ledger, wear/endurance accounting, and the live
windowed load/saturation engine behind ``python -m repro.bench.observe
health``.
"""

from .attribution import (
    LiveBlame,
    blame_breakdown,
    credit_busy,
    host_ops,
    origin_mix,
    span_rollup,
    verify_origins,
    windowed_series,
)
from .context import (
    COST_BUCKETS,
    DATA_CLASSES,
    MAINTENANCE_ORIGINS,
    ORIGINS,
    OpContext,
    data_class_of,
)
from .health import (
    HealthMonitor,
    LoadWindowEngine,
    WriteAmplificationLedger,
    wear_report,
)
from .registry import (
    FLASH_OPS,
    Counter,
    CounterView,
    Gauge,
    Histogram,
    MetricsRegistry,
    sum_per_die,
)
from .trace import EventTrace, Span, TraceEvent, load_jsonl, trace_or_quiet

__all__ = [
    "FLASH_OPS",
    "Counter",
    "CounterView",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "sum_per_die",
    "EventTrace",
    "Span",
    "TraceEvent",
    "load_jsonl",
    "trace_or_quiet",
    "OpContext",
    "ORIGINS",
    "MAINTENANCE_ORIGINS",
    "COST_BUCKETS",
    "DATA_CLASSES",
    "data_class_of",
    "LiveBlame",
    "blame_breakdown",
    "credit_busy",
    "host_ops",
    "origin_mix",
    "span_rollup",
    "verify_origins",
    "windowed_series",
    "HealthMonitor",
    "LoadWindowEngine",
    "WriteAmplificationLedger",
    "wear_report",
]
