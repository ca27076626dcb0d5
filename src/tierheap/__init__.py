"""Object-level memory tiering runtime with a benchmark harness.

The package tracks per-object access through packed 64-bit guide words,
continuously reorganizes objects into NEW/HOT/COLD heap regions with an
optimistic two-CAS migration protocol guarded by epoch convergence, and
reports page-utilization and reclaimability metrics.
"""
from .cli import RunConfig, main, run_benchmark
from .collector import (Collector, ControllerState, WindowReport,
                        compute_promotion_rate, next_cold_threshold)
from .guideword import (GuideArena, GuideProtocolError, GuideWord, HeapId,
                        pack, unpack)
from .metrics import (AccessLog, UtilizationReport, page_utilization,
                      simulate_reclaim)
from .regions import (HeapRegion, HintEvent, HintKind, RegionExhausted,
                      RegionManager)
from .runtime import GuideRegistry, TierRuntime
from .scope import BaseDeltaSet, EpochState, ScopeManager, ThreadActivityIndex
from .store import GuideHashMap, GuideSkipList, PlainStore, make_store
from .workload import (OpStream, TraceParseError, TraceRecord, WorkloadSpec,
                       ZipfianGenerator, read_trace, replay_trace,
                       write_trace)

__version__ = "0.1.0"

__all__ = [
    "AccessLog", "BaseDeltaSet", "Collector", "ControllerState",
    "EpochState", "GuideArena", "GuideHashMap", "GuideProtocolError",
    "GuideRegistry", "GuideSkipList", "GuideWord", "HeapId", "HeapRegion",
    "HintEvent", "HintKind", "OpStream", "PlainStore", "RegionExhausted",
    "RegionManager", "RunConfig", "ScopeManager", "ThreadActivityIndex",
    "TierRuntime", "TraceParseError", "TraceRecord", "UtilizationReport",
    "WindowReport", "WorkloadSpec", "ZipfianGenerator",
    "compute_promotion_rate", "main", "make_store", "next_cold_threshold",
    "pack", "page_utilization", "read_trace", "replay_trace",
    "run_benchmark", "simulate_reclaim", "unpack", "write_trace",
]
