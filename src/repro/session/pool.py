"""Process-pool plumbing: workers, transports, and the persistent pool.

Jobs carry a *spec* — ``(mode, version, payload, ship_bytes)`` — instead
of snapshot bytes: in "shm" mode the payload is an O(1)
:class:`~repro.topology.snapshot.SharedSnapshotDescriptor` and the worker
attaches the published segment zero-copy; in "init" (pickle-fallback)
mode the snapshot shipped once per worker through the executor
initializer and the payload is empty.  Either way a worker attaches
once per graph version — the attach cost (bytes, seconds, transport
mode) is observed *in the worker* and rides back to the parent in the
drained metrics/spans payload every job result carries, so the
ship-cost histograms count one observation per worker that actually
paid, not one per fan-out.  Workers never see the mutable graph.

:class:`_FanoutPool` is internally locked: the serving plane's
single-flight leaders publish and submit from several threads at once,
and republish/teardown must not race a concurrent ensure.

Workers are forked, and a forked child inherits every lock exactly as
its parent held it.  Creating or unlinking a shared-memory segment takes
:mod:`multiprocessing.resource_tracker`'s lock; a worker forked while
another thread held it would block for ever in its first attach.  So
every worker fork and every parent-side segment create/unlink runs under
one process-wide :data:`_FORK_LOCK`, and :meth:`_FanoutPool.ensure`
starts the workers itself instead of leaving the fork to the first
``executor.submit``.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from typing import Dict, List, Optional, Tuple

from array import array

from concurrent.futures import ProcessPoolExecutor

from .. import obs
from ..bgp import kernels
from ..bgp.route import Route, RouteClass
from ..errors import SessionError, UnknownASError
from ..obs import (
    DEFAULT_BYTE_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    get_logger,
    get_registry,
)
from ..topology.snapshot import (
    SharedSnapshot,
    SharedSnapshotDescriptor,
    TopologySnapshot,
    shared_memory_available,
)

_LOG = get_logger("session")

_FANOUTS_TOTAL = get_registry().counter(
    "repro_session_fanouts_total",
    "compute_many fan-outs, by dispatch mode",
    labels=("mode",),
)
_POOL_SHIP_BYTES = get_registry().histogram(
    "repro_session_pool_ship_bytes",
    "Snapshot payload bytes actually shipped per pool-worker attach "
    "(shared-memory descriptor, or pickled snapshot in fallback mode)",
    buckets=DEFAULT_BYTE_BUCKETS,
)
_POOL_SHIP_SECONDS = get_registry().histogram(
    "repro_session_pool_ship_seconds",
    "Wall-clock seconds publishing the snapshot payload per graph version",
)
_POOL_ATTACH_SECONDS = get_registry().histogram(
    "repro_session_pool_attach_seconds",
    "Worker-side seconds attaching and reconstructing the shipped snapshot",
)
_POOL_ATTACHES = get_registry().counter(
    "repro_session_pool_attaches_total",
    "Pool-worker snapshot attaches, by transport mode",
    labels=("mode",),
)
_POOL_SHARD_SIZE = get_registry().histogram(
    "repro_session_pool_shard_destinations",
    "Destinations per sharded pool job",
    buckets=DEFAULT_SIZE_BUCKETS,
)
_SHARED_SNAPSHOT_BYTES = get_registry().histogram(
    "repro_session_shared_snapshot_bytes",
    "Shared-memory segment bytes published per graph version",
    buckets=DEFAULT_BYTE_BUCKETS,
)

#: Default shard jobs submitted per worker per fan-out.  Several shards
#: per worker is what makes the executor's shared call queue behave as a
#: work-stealing scheduler: a worker that drains a cheap shard pulls the
#: next one instead of idling behind a straggler.
POOL_SHARD_FACTOR = 4


#: Serializes worker forks against shared-memory segment creates and
#: unlinks in this process (see the module docstring).  Process-wide
#: because every session's pool forks from the same process.
_FORK_LOCK = threading.Lock()


def _reset_fork_lock() -> None:
    """Give a forked child a fresh lock: it inherits this one held by the
    forking thread, and a pool finalizer run by the child's garbage
    collector would otherwise block on it for ever."""
    global _FORK_LOCK
    _FORK_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_reset_fork_lock)


def _shared_memory_available() -> bool:
    """:func:`shared_memory_available` with its probe segment under
    :data:`_FORK_LOCK`."""
    with _FORK_LOCK:
        return shared_memory_available()


def _pool_ready() -> None:
    """No-op job: its result proves the workers forked and initialized."""


#: Job spec: (transport mode, graph version, descriptor-or-None, ship bytes).
PoolSpec = Tuple[str, int, Optional[SharedSnapshotDescriptor], int]

# Per-worker-process state.  Under the default fork start method these
# globals are inherited from the parent, so the initializer resets them.
_WORKER_SNAPSHOTS: Dict[int, TopologySnapshot] = {}
_WORKER_SHARED: Dict[int, SharedSnapshot] = {}
_WORKER_OBS: Optional[Tuple[bool, float]] = None
_WORKER_INIT_SNAPSHOT: Optional[TopologySnapshot] = None
_WORKER_INIT_SHIP_BYTES: int = 0


def _pool_init(
    obs_state: Tuple[bool, float],
    snapshot: Optional[TopologySnapshot] = None,
    ship_bytes: int = 0,
) -> None:
    """Worker bootstrap: reset inherited state, adopt the parent's obs.

    ``snapshot`` is only passed in pickle-fallback mode, where the
    executor serializes it once per worker; shared-memory mode ships
    nothing here and workers attach lazily from the per-job descriptor.
    """
    global _WORKER_OBS, _WORKER_INIT_SNAPSHOT, _WORKER_INIT_SHIP_BYTES
    _WORKER_SNAPSHOTS.clear()
    _WORKER_SHARED.clear()
    _WORKER_INIT_SNAPSHOT = snapshot
    _WORKER_INIT_SHIP_BYTES = ship_bytes
    _WORKER_OBS = obs_state
    obs.configure_worker(obs_state)


def _worker_configure_obs(obs_state: Tuple[bool, float]) -> None:
    """Adopt a changed parent observability state (tracer toggled/reset)."""
    global _WORKER_OBS
    if obs_state != _WORKER_OBS:
        obs.configure_worker(obs_state)
        _WORKER_OBS = obs_state


def _worker_snapshot(spec: PoolSpec) -> TopologySnapshot:
    """The worker's snapshot for ``spec``'s graph version, attached once.

    The version-keyed cache is what makes ship cost O(1) per graph
    version: the first job naming a version pays the attach (and records
    it — bytes, seconds, transport mode — in the worker's metrics, which
    drain back to the parent); every later job on the same version finds
    the snapshot, and its lazy accessor caches, already warm.  Older
    versions are evicted on advance, releasing their shared mappings.
    """
    mode, version, descriptor, ship_bytes = spec
    snapshot = _WORKER_SNAPSHOTS.get(version)
    if snapshot is not None:
        return snapshot
    start = time.perf_counter()
    with obs.get_tracer().span("pool_attach", version=version, mode=mode):
        if mode == "shm":
            shared = SharedSnapshot.attach(descriptor)
            snapshot = shared.snapshot
            _WORKER_SHARED[version] = shared
        else:
            snapshot = _WORKER_INIT_SNAPSHOT
            if snapshot is None or snapshot.version != version:
                raise SessionError(
                    f"pool worker has no snapshot for version {version}"
                )
    for old in [v for v in _WORKER_SNAPSHOTS if v != version]:
        del _WORKER_SNAPSHOTS[old]
        shared = _WORKER_SHARED.pop(old, None)
        if shared is not None:
            shared.close()
    _WORKER_SNAPSHOTS[version] = snapshot
    _POOL_ATTACH_SECONDS.observe(time.perf_counter() - start)
    _POOL_ATTACHES.labels(mode="shm" if mode == "shm" else "pickle").inc()
    _POOL_SHIP_BYTES.observe(ship_bytes)
    return snapshot


# A shard's settled tables travel back to the parent as one packed
# int64 buffer: per table, ``asn, class, path_len, path...`` per route,
# in selection (insertion) order, plus a per-table offset index.  One
# bytes object pickles as a memcpy, so result-return cost stops scaling
# with per-route Python object overhead — at verify-500 scale, shipping
# the same tables as Route dicts costs ~100x more wall-clock in
# (un)pickling than the buffer does.  Decode back into Route objects is
# deferred (see RoutingTable's callable ``best``), so the parent pays it
# per table consumed, not per table computed.
PackedTables = Tuple[Tuple[int, ...], bytes]

_ROUTE_CLASSES = {route_class.value: route_class for route_class in RouteClass}


def _encode_shard(
    destinations: Tuple[int, ...], swept: Dict[int, Dict[int, Route]]
) -> PackedTables:
    """Pack settled tables for the wire; inverse of :func:`_decode_table`."""
    buf = array("q")
    offsets = [0]
    for destination in destinations:
        for asn, route in swept[destination].items():
            buf.append(asn)
            buf.append(route.route_class.value)
            buf.append(len(route.path))
            buf.extend(route.path)
        offsets.append(len(buf))
    return tuple(offsets), buf.tobytes()


def _decode_table(words: memoryview, lo: int, hi: int) -> Dict[int, Route]:
    """One table's ``{asn: Route}`` from its slice of a packed buffer.

    Reconstruction preserves the worker's selection order, so a decoded
    table is byte-equal (values *and* dict iteration order) to the one
    the serial path would have built.
    """
    best: Dict[int, Route] = {}
    i = lo
    while i < hi:
        asn = words[i]
        route_class = _ROUTE_CLASSES[words[i + 1]]
        length = words[i + 2]
        i += 3
        best[asn] = Route._trusted(tuple(words[i:i + length]), route_class)
        i += length
    return best


def _pool_settle_shard(
    job: Tuple[PoolSpec, Tuple[bool, float], str, Tuple[int, ...]],
) -> Tuple[Tuple[int, ...], Optional[PackedTables], Dict[str, object]]:
    """Settle one shard — a contiguous destination range — in a worker.

    The whole shard goes through :func:`repro.bgp.kernels.settle_many`,
    so the batched kernel amortizes its wave setup across the range
    exactly as it would in the parent's serial path (same call, same
    tables, byte for byte).
    """
    spec, obs_state, kernel, destinations = job
    _worker_configure_obs(obs_state)
    try:
        snapshot = _worker_snapshot(spec)
        swept = kernels.settle_many(snapshot, destinations, kernel=kernel)
        packed: Optional[PackedTables] = _encode_shard(destinations, swept)
    except UnknownASError:
        # a destination the parent will reject anyway: hand the shard
        # back for the parent's serial path, which raises the right error
        packed = None
    # ship only the packed selected-route buffer back; the parent re-wraps
    # it around its own graph object (no graph on this side at all)
    return destinations, packed, obs.drain_worker()


class _FanoutPool:
    """The session's persistent, version-keyed worker pool.

    Owns one :class:`~concurrent.futures.ProcessPoolExecutor` that
    survives across :meth:`SessionCore.compute_many` calls — the
    per-call spawn/teardown churn of the old design is gone — plus the
    currently published :class:`SharedSnapshot` segment, and the whole
    transport decision: :meth:`can_run` says whether any transport
    reaches the workers at all, and :meth:`ensure` picks one and
    republishes only when the graph version moves:

    * shared-memory mode — the snapshot is copied into a fresh segment,
      the previous segment is released (attached workers keep their
      mappings until they advance), and jobs carry the O(1) descriptor;
      the executor itself is reused untouched;
    * pickle-fallback mode — the executor is rebuilt so its initializer
      ships the new snapshot once per worker (the only per-version cost
      shared memory avoids).

    A broken executor (killed worker) is detected and rebuilt on the
    next ensure, so one fault does not wedge the session.  All lifecycle
    transitions run under the pool's own lock so concurrent single-flight
    leaders cannot race a republish against a teardown; the lock is
    never held while waiting on job results.
    """

    def __init__(
        self, max_workers: Optional[int] = None, shards: Optional[int] = None
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise SessionError(f"max_workers must be >= 1, got {max_workers}")
        if shards is not None and shards < 1:
            raise SessionError(f"shards must be >= 1, got {shards}")
        self.max_workers = max_workers
        self.shards = shards
        self._lock = threading.RLock()
        self._executor: Optional[ProcessPoolExecutor] = None
        self._mode: Optional[str] = None
        self._shared: Optional[SharedSnapshot] = None
        self._spec: Optional[PoolSpec] = None
        self._version: Optional[int] = None
        # (version, pickled bytes or None) — keyed on the version so a
        # graph that becomes (un)picklable after a mutation is re-probed
        # instead of keeping a stale verdict forever
        self._pickles: Optional[Tuple[int, Optional[int]]] = None

    @property
    def workers(self) -> int:
        return self.max_workers or os.cpu_count() or 1

    @property
    def mode(self) -> Optional[str]:
        """Transport of the current publication: shm, pickle, or None."""
        if self._mode is None:
            return None
        return "shm" if self._mode == "shm" else "pickle"

    @property
    def shared_bytes(self) -> Optional[int]:
        return self._shared.nbytes if self._shared is not None else None

    @property
    def ship_bytes(self) -> Optional[int]:
        return self._spec[3] if self._spec is not None else None

    def executor(self) -> Optional[ProcessPoolExecutor]:
        return self._executor

    def info(self) -> Dict[str, object]:
        """JSON-ready view of the pool's transport and lifecycle state."""
        return {
            "max_workers": self.workers,
            "shards": self.shards,
            "shard_factor": POOL_SHARD_FACTOR,
            "shared_memory": _shared_memory_available(),
            "mode": self.mode,
            "published_version": self._version,
            "shared_bytes": self.shared_bytes,
            "ship_bytes": self.ship_bytes,
            "alive": self._executor is not None
            and not getattr(self._executor, "_broken", False),
        }

    def _pickle_bytes(self, snapshot: TopologySnapshot) -> Optional[int]:
        """Pickled size of ``snapshot``, or None when it does not pickle.

        Memoized per graph version; only the pickle fallback pays it.
        """
        memo = self._pickles
        if memo is None or memo[0] != snapshot.version:
            try:
                memo = (snapshot.version, len(pickle.dumps(snapshot)))
            except Exception:
                memo = (snapshot.version, None)
            self._pickles = memo
        return memo[1]

    def can_run(self, snapshot: TopologySnapshot) -> bool:
        """True when some transport can ship ``snapshot`` to workers."""
        return (
            _shared_memory_available()
            or self._pickle_bytes(snapshot) is not None
        )

    def ensure(
        self, snapshot: TopologySnapshot
    ) -> Tuple[ProcessPoolExecutor, PoolSpec]:
        """Publish ``snapshot`` (if its version is new) and return the
        live executor plus the job spec workers attach from.

        Every worker process exists when this returns, so a later
        ``submit`` never forks.  Raises :class:`SessionError` when shared
        memory is unavailable and the snapshot does not pickle — no
        transport reaches the workers.
        """
        with self._lock:
            return self._ensure_locked(snapshot)

    def _ensure_locked(
        self, snapshot: TopologySnapshot
    ) -> Tuple[ProcessPoolExecutor, PoolSpec]:
        if self._executor is not None and getattr(
            self._executor, "_broken", False
        ):
            _LOG.warning("pool_broken_rebuild")
            self._shutdown_executor()
        if (
            self._spec is not None
            and self._version == snapshot.version
            and self._executor is not None
        ):
            return self._executor, self._spec
        start = time.perf_counter()
        previous = self._executor
        with _FORK_LOCK:
            spec = self._publish(snapshot)
            _POOL_SHIP_SECONDS.observe(time.perf_counter() - start)
            if self._executor is not previous:
                # fork every worker of the new executor now, under the
                # lock: its first submit would otherwise fork them
                self._executor.submit(_pool_ready).result()
        self._spec = spec
        self._version = snapshot.version
        return self._executor, spec

    def _publish(self, snapshot: TopologySnapshot) -> PoolSpec:
        """Publish ``snapshot`` on the best transport and return its spec,
        (re)building the executor when the transport needs a new one.

        Caller holds :data:`_FORK_LOCK`.
        """
        shared: Optional[SharedSnapshot] = None
        if shared_memory_available():
            try:
                shared = SharedSnapshot.publish(snapshot)
            except Exception:
                shared = None
        if shared is not None:
            self._release_shared()
            self._shared = shared
            descriptor = shared.descriptor()
            ship_bytes = len(pickle.dumps(descriptor))
            spec: PoolSpec = (
                "shm", snapshot.version, descriptor, ship_bytes
            )
            _SHARED_SNAPSHOT_BYTES.observe(shared.nbytes)
            if self._executor is None or self._mode != "shm":
                self._shutdown_executor()
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers,
                    initializer=_pool_init,
                    initargs=(obs.worker_state(),),
                )
            self._mode = "shm"
        else:
            ship_bytes_opt = self._pickle_bytes(snapshot)
            if ship_bytes_opt is None:
                raise SessionError(
                    "topology snapshot is not picklable and shared memory "
                    "is unavailable; no transport can reach pool workers"
                )
            self._release_shared()
            self._shutdown_executor()
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_pool_init,
                initargs=(obs.worker_state(), snapshot, ship_bytes_opt),
            )
            spec = ("init", snapshot.version, None, ship_bytes_opt)
            self._mode = "init"
        return spec

    def shard(self, misses: List[int]) -> List[Tuple[int, ...]]:
        """Split ``misses`` into contiguous destination ranges.

        Range count is the explicit ``shards`` override, else
        :data:`POOL_SHARD_FACTOR` per worker, never more than the miss
        count — each range becomes one work-queue job.
        """
        count = self.shards or self.workers * POOL_SHARD_FACTOR
        count = max(1, min(count, len(misses)))
        size, extra = divmod(len(misses), count)
        out: List[Tuple[int, ...]] = []
        lo = 0
        for i in range(count):
            hi = lo + size + (1 if i < extra else 0)
            out.append(tuple(misses[lo:hi]))
            lo = hi
        return out

    def _shutdown_executor(self, wait: bool = False) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=wait, cancel_futures=True)
            self._executor = None
        self._mode = None

    def _release_shared(self) -> None:
        if self._shared is not None:
            self._shared.close()
            self._shared = None

    def close(self, wait: bool = False) -> None:
        """Shut the executor down and release the published segment.

        The pool is reusable afterwards — the next :meth:`ensure`
        republishes and respawns — so closing between workloads only
        costs the warm state.
        """
        with self._lock:
            self._shutdown_executor(wait=wait)
            with _FORK_LOCK:
                self._release_shared()
            self._spec = None
            self._version = None
