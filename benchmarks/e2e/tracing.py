"""Spans recorded from outside the program, around its public interfaces.

Nothing here reaches into ``src/repro``: each timed wrapper implements one
of the paper's public interfaces (``Cache``, ``KeyValueStore``,
``Serializer``, ``Compressor``, ``Encryptor``), times the call and
delegates.  Spans inside the program are a later issue; until then the
part of ``kv.remote`` that no wrapper can see is reported as
``kv.remote.unattributed_share``.

Two sinks take the timings.  A :class:`Recorder` belongs to one load
thread and keeps whole request trees (name, start, end, parent; the
request's ordinal is its id) so a layer's *self* time -- its span minus
what its children cover -- adds up to the root by construction.
:class:`CallTotals` is the lock-guarded per-name total the server child
uses, where no request id crosses the wire to hang a tree on.
"""

from __future__ import annotations

import random
import threading
from time import perf_counter_ns
from typing import Any, Callable, Iterator

from repro.caching.interface import Cache
from repro.compression.interface import Compressor
from repro.kv.interface import KeyValueStore
from repro.security.interface import Encryptor
from repro.serialization import Serializer

RESERVOIR_SIZE = 1000

# Span fields, by position (a list per span keeps recording cheap).
NAME, START, END, PARENT, CHILD_NS = range(5)


class Recorder:
    """Span recorder owned by one thread (no locking)."""

    def __init__(self, label: str, seed: str) -> None:
        self.label = label
        self.totals: dict[str, list[int]] = {}  # name -> [count, total_ns, self_ns]
        self.requests = 0
        self.reservoir: list[list[list]] = []
        self._rng = random.Random(seed)
        self._spans: list[list] = []  # spans of the request in flight
        self._open: list[int] = []  # indices into _spans, innermost last

    def reset(self) -> None:
        """Forget everything recorded so far (set-up traffic)."""
        self.totals.clear()
        self.reservoir.clear()
        self.requests = 0

    def begin(self, name: str) -> None:
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self._spans))
        self._spans.append([name, perf_counter_ns(), 0, parent, 0])

    def end(self) -> None:
        now = perf_counter_ns()
        span = self._spans[self._open.pop()]
        span[END] = now
        duration = now - span[START]
        total = self.totals.get(span[NAME])
        if total is None:
            total = self.totals[span[NAME]] = [0, 0, 0]
        total[0] += 1
        total[1] += duration
        total[2] += duration - span[CHILD_NS]
        if self._open:
            self._spans[self._open[-1]][CHILD_NS] += duration
            return
        # Root closed: the request tree is whole.  Algorithm R keeps a
        # uniform sample of RESERVOIR_SIZE trees however many requests run.
        self.requests += 1
        if len(self.reservoir) < RESERVOIR_SIZE:
            self.reservoir.append(self._spans)
        else:
            slot = self._rng.randrange(self.requests)
            if slot < RESERVOIR_SIZE:
                self.reservoir[slot] = self._spans
        self._spans = []

    def call(self, name: str, function: Callable[..., Any], *args: Any) -> Any:
        self.begin(name)
        try:
            return function(*args)
        finally:
            self.end()


class CallTotals:
    """Thread-safe per-name call count and total time (no trees)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._totals: dict[str, list[int]] = {}

    def call(self, name: str, function: Callable[..., Any], *args: Any) -> Any:
        start = perf_counter_ns()
        try:
            return function(*args)
        finally:
            elapsed = perf_counter_ns() - start
            with self._lock:
                total = self._totals.setdefault(name, [0, 0])
                total[0] += 1
                total[1] += elapsed

    def snapshot(self) -> dict[str, list[int]]:
        with self._lock:
            return {name: list(total) for name, total in self._totals.items()}


def self_times(spans: list[list]) -> list[int]:
    """Self time of every span of one request tree, in span order."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def merge_recorders(recorders: list[Recorder]) -> dict[str, Any]:
    """Aggregates per span name plus the sampled request trees."""
    aggregates: dict[str, dict[str, float]] = {}
    for recorder in recorders:
        for name, (count, total_ns, self_ns) in recorder.totals.items():
            entry = aggregates.setdefault(name, {"count": 0, "total_ns": 0, "self_ns": 0})
            entry["count"] += count
            entry["total_ns"] += total_ns
            entry["self_ns"] += self_ns
    trees = [
        {
            "id": f"{recorder.label}-{number}",
            "spans": [
                {"name": s[NAME], "start_ns": s[START], "end_ns": s[END], "parent": s[PARENT]}
                for s in spans
            ],
        }
        for recorder in recorders
        for number, spans in enumerate(recorder.reservoir)
    ]
    return {
        "requests": sum(recorder.requests for recorder in recorders),
        "spans": aggregates,
        "trees": trees[:RESERVOIR_SIZE],
    }


# ----------------------------------------------------------------------
# Timed wrappers: one public interface each
# ----------------------------------------------------------------------
class TimedStore(KeyValueStore):
    """``KeyValueStore`` that times point and batch operations of *inner*.

    ``put_bytes`` adds up the values handed to ``put``: on the client that
    is what the value pipeline emitted, so ``put_bytes`` over the user's
    bytes is the pipeline's size ratio.
    """

    def __init__(self, inner: KeyValueStore, sink: Any, layer: str) -> None:
        self.name = inner.name
        self.put_bytes = 0
        self._inner = inner
        self._sink = sink
        self._get = layer + ".get"
        self._put = layer + ".put"
        self._get_many = layer + ".get_many"
        self._put_many = layer + ".put_many"

    def get(self, key: str) -> Any:
        return self._sink.call(self._get, self._inner.get, key)

    def get_or_default(self, key: str, default: Any = None) -> Any:
        return self._sink.call(self._get, self._inner.get_or_default, key, default)

    def get_with_version(self, key: str) -> tuple[Any, str]:
        return self._sink.call(self._get, self._inner.get_with_version, key)

    def get_if_modified(self, key: str, version: str) -> Any:
        return self._sink.call(self._get, self._inner.get_if_modified, key, version)

    def put(self, key: str, value: Any) -> None:
        self.put_bytes += len(value)
        self._sink.call(self._put, self._inner.put, key, value)

    def put_with_version(self, key: str, value: Any) -> str | None:
        self.put_bytes += len(value)
        return self._sink.call(self._put, self._inner.put_with_version, key, value)

    def get_many(self, keys: Any) -> dict[str, Any]:
        return self._sink.call(self._get_many, self._inner.get_many, keys)

    def put_many(self, items: Any) -> None:
        self._sink.call(self._put_many, self._inner.put_many, items)

    def delete(self, key: str) -> bool:
        return self._inner.delete(key)

    def delete_many(self, keys: Any) -> int:
        return self._inner.delete_many(keys)

    def contains(self, key: str) -> bool:
        return self._inner.contains(key)

    def keys(self) -> Iterator[str]:
        return self._inner.keys()

    def size(self) -> int:
        return self._inner.size()

    def clear(self) -> int:
        return self._inner.clear()

    def native(self) -> Any:
        return self._inner.native()

    def close(self) -> None:
        self._inner.close()


class TimedCache(Cache):
    """``Cache`` that times ``get`` and ``put`` of *inner*; shares its stats."""

    def __init__(self, inner: Cache, sink: Any, layer: str = "caching.inprocess") -> None:
        self.name = inner.name
        self.stats = inner.stats
        self._inner = inner
        self._sink = sink
        self._get = layer + ".get"
        self._put = layer + ".put"

    def get(self, key: str) -> Any:
        return self._sink.call(self._get, self._inner.get, key)

    def put(self, key: str, value: Any) -> None:
        self._sink.call(self._put, self._inner.put, key, value)

    def get_quiet(self, key: str) -> Any:
        return self._inner.get_quiet(key)

    def delete(self, key: str) -> bool:
        return self._inner.delete(key)

    def clear(self) -> int:
        return self._inner.clear()

    def size(self) -> int:
        return self._inner.size()

    def keys(self) -> Iterator[str]:
        return self._inner.keys()

    def close(self) -> None:
        self._inner.close()


class TimedSerializer(Serializer):
    def __init__(self, inner: Serializer, sink: Any, layer: str = "core.pipeline") -> None:
        self.name = inner.name
        self._inner = inner
        self._sink = sink
        self._dumps = layer + ".serialize"
        self._loads = layer + ".deserialize"

    def dumps(self, value: Any) -> bytes:
        return self._sink.call(self._dumps, self._inner.dumps, value)

    def loads(self, payload: bytes) -> Any:
        return self._sink.call(self._loads, self._inner.loads, payload)


class TimedCompressor(Compressor):
    def __init__(self, inner: Compressor, sink: Any, layer: str = "core.pipeline") -> None:
        self.name = inner.name
        self._inner = inner
        self._sink = sink
        self._compress = layer + ".compress"
        self._decompress = layer + ".decompress"

    def compress(self, data: bytes) -> bytes:
        return self._sink.call(self._compress, self._inner.compress, data)

    def decompress(self, data: bytes) -> bytes:
        return self._sink.call(self._decompress, self._inner.decompress, data)


class TimedEncryptor(Encryptor):
    def __init__(self, inner: Encryptor, sink: Any, layer: str = "core.pipeline") -> None:
        self.name = inner.name
        self._inner = inner
        self._sink = sink
        self._encrypt = layer + ".encrypt"
        self._decrypt = layer + ".decrypt"

    def encrypt(self, plaintext: bytes) -> bytes:
        return self._sink.call(self._encrypt, self._inner.encrypt, plaintext)

    def decrypt(self, ciphertext: bytes) -> bytes:
        return self._sink.call(self._decrypt, self._inner.decrypt, ciphertext)
