"""The Universal Data Store Manager (UDSM), paper Section II.A.

One registry of heterogeneous data stores, all behind the common key-value
interface, each automatically gaining:

* a **synchronous** interface (the store itself);
* an **asynchronous** interface -- every operation returns a
  :class:`~repro.udsm.futures.ListenableFuture` executed on a shared,
  configurable thread pool (the paper's ListenableFuture + thread-pool
  design), even for stores whose own clients are synchronous-only;
* **performance monitoring** -- per-store, per-operation latency summaries
  plus a bounded window of recent detailed measurements, persistable to any
  registered store;
* the **workload generator** -- size sweeps, hit-rate extrapolation, and
  codec overhead measurement for comparing stores (Section V's tooling);
* the **load generator** (:mod:`repro.udsm.loadgen`) -- a Zipf read/write
  mix planned once and replayed by one runner, either closed loop (each
  request after the last completes) or open loop (arrivals from a
  Poisson/normal population of active users), for throughput and
  throughput-vs-latency curves against stores and the serving plane.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .futures import FutureState, ListenableFuture
    from .pool import ThreadPool
    from .async_api import AsyncKeyValue
    from .monitoring import MonitoredStore, OperationStats, PerformanceMonitor, StoreHealth
    from .manager import UniversalDataStoreManager
    from .workload import (
        CachedReadSpec,
        CodecTiming,
        HitRateCurve,
        SweepPoint,
        SweepResult,
        WorkloadGenerator,
        compressible_payload,
        random_payload,
    )
    from .loadgen import (
        LoadGenerator,
        LoadResult,
        LoadSpec,
        Request,
        RVConfig,
    )

#: name -> defining module; resolved on first access (see ``repro._lazy``).
_EXPORTS = {
    "RVConfig": ".loadgen",
    "Request": ".loadgen",
    "LoadSpec": ".loadgen",
    "LoadGenerator": ".loadgen",
    "LoadResult": ".loadgen",
    "ListenableFuture": ".futures",
    "FutureState": ".futures",
    "ThreadPool": ".pool",
    "AsyncKeyValue": ".async_api",
    "PerformanceMonitor": ".monitoring",
    "MonitoredStore": ".monitoring",
    "OperationStats": ".monitoring",
    "StoreHealth": ".monitoring",
    "UniversalDataStoreManager": ".manager",
    "WorkloadGenerator": ".workload",
    "SweepPoint": ".workload",
    "SweepResult": ".workload",
    "HitRateCurve": ".workload",
    "CachedReadSpec": ".workload",
    "CodecTiming": ".workload",
    "random_payload": ".workload",
    "compressible_payload": ".workload",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
