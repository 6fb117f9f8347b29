"""The stack under test: a server child process and per-thread client stacks.

    load thread -> EnhancedDataStoreClient -> InProcessCache
                -> ValuePipeline (bytes | gzip | aes-gcm)
                -> RemoteKeyValueStore -> CacheClient -> loopback TCP
                -> child: StoreServer | AsyncStoreServer -> LSMStore

Every object is built from the repo's public constructors.  Each load
thread owns one :class:`ClientStack` (own cache, own socket), so there are
never more connections than threads.
"""

from __future__ import annotations

import json
import os
import select
import shutil
import signal
import subprocess
import sys
from functools import partial
from pathlib import Path
from typing import Any

from repro.caching.inprocess import InProcessCache
from repro.compression.codecs import GzipCompressor
from repro.core.enhanced import EnhancedDataStoreClient
from repro.kv.remote import RemoteKeyValueStore
from repro.net.client import CacheClient
from repro.obs import Observability
from repro.security.aes import AesGcmEncryptor
from repro.serialization import BytesSerializer

from spec import Workload
from tracing import (
    Recorder,
    TimedCache,
    TimedCompressor,
    TimedEncryptor,
    TimedSerializer,
    TimedStore,
)

HERE = Path(__file__).resolve().parent
DATA_ROOT = HERE / "out" / "data"
OPERATION_TIMEOUT = 5.0  # a timed-out op is a failure, not a stall
STARTUP_TIMEOUT = 20.0
AES_KEY = bytes(range(32))  # fixed: the key is not an input that matters
#: One malloc arena: with glibc's default the threaded engine's RSS lands on
#: 61 or 73 MiB at random (whether its connection threads happen to share an
#: arena), a coin flip six times the size of server_rss_mb's bound.
CHILD_ENVIRONMENT = {"MALLOC_ARENA_MAX": "1"}
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class Child:
    """One server child in its own process group, over one data directory."""

    def __init__(self, workload: Workload, root: Path, *, traced: bool = False) -> None:
        self.root = root
        command = [
            sys.executable, str(HERE / "serve_child.py"),
            "--root", str(root),
            "--engine", workload.engine,
            "--fsync", str(int(workload.fsync)),
        ]
        if traced:
            command.append("--traced")
        self.process = subprocess.Popen(
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            start_new_session=True,
            env=os.environ | CHILD_ENVIRONMENT,
        )
        try:
            line = self._read_line(STARTUP_TIMEOUT)
            token, self.host, port = line.split()
            if token != "LISTENING":
                raise RuntimeError(f"server child said {line!r} instead of LISTENING")
            self.port = int(port)
        except BaseException:
            self.kill()
            raise

    def _read_line(self, timeout: float) -> str:
        """One stdout line from the child, or RuntimeError on silence/exit."""
        assert self.process.stdout is not None
        ready, _, _ = select.select([self.process.stdout], [], [], timeout)
        line = self.process.stdout.readline() if ready else b""
        if not line:
            raise RuntimeError(
                f"server child gave no answer within {timeout:.0f}s "
                f"(exit code {self.process.poll()})"
            )
        return line.decode("ascii").strip()

    @property
    def pid(self) -> int:
        return self.process.pid

    def dump(self) -> dict[str, Any]:
        """Ask a traced child for its registry/stats/events/call totals."""
        assert self.process.stdin is not None
        self.process.stdin.write(b"dump\n")
        self.process.stdin.flush()
        return json.loads(self._read_line(OPERATION_TIMEOUT))

    def cpu_seconds(self) -> float:
        """utime + stime of the child so far (``/proc/<pid>/stat``)."""
        stat = Path(f"/proc/{self.pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()  # comm may hold spaces
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def peak_rss_mib(self) -> float:
        """``VmHWM`` of the child: the most memory it ever held."""
        for line in Path(f"/proc/{self.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def kill(self) -> None:
        """SIGKILL the child's whole process group and reap it.  Idempotent."""
        if self.process.poll() is None:
            try:
                os.killpg(self.process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.process.wait()
        for stream in (self.process.stdin, self.process.stdout):
            if stream is not None:
                stream.close()


class ClientStack:
    """One load thread's client: enhanced client over its own connection."""

    def __init__(
        self,
        workload: Workload,
        child: Child,
        *,
        client_obs: bool,
        recorder: Recorder | None = None,
    ) -> None:
        self.recorder = recorder
        self.connection = CacheClient(
            child.host, child.port, operation_timeout=OPERATION_TIMEOUT
        )
        store: Any = RemoteKeyValueStore(
            child.host, child.port, serializer=BytesSerializer(), client=self.connection
        )
        self.cache: Any = InProcessCache(max_entries=workload.cache_entries)
        serializer: Any = BytesSerializer()
        compressor: Any = GzipCompressor() if workload.pipeline else None
        encryptor: Any = AesGcmEncryptor(AES_KEY) if workload.pipeline else None
        self.remote: TimedStore | None = None
        if recorder is not None:
            store = self.remote = TimedStore(store, recorder, "kv.remote")
            cache = TimedCache(self.cache, recorder)
            serializer = TimedSerializer(serializer, recorder)
            if workload.pipeline:
                compressor = TimedCompressor(compressor, recorder)
                encryptor = TimedEncryptor(encryptor, recorder)
        else:
            cache = self.cache
        self.client = EnhancedDataStoreClient(
            store,
            cache=cache,
            serializer=serializer,
            compressor=compressor,
            encryptor=encryptor,
            obs=Observability() if client_obs else None,
        )
        # What a load thread calls.  Traced, each call is the root span of
        # its request; core.enhanced's self time is that root minus children.
        self.get = self.client.get
        self.put = self.client.put
        if recorder is not None:
            self.get = partial(recorder.call, "core.enhanced.get", self.client.get)
            self.put = partial(recorder.call, "core.enhanced.put", self.client.put)

    def close(self) -> None:
        self.client.close()
        self.connection.close()


def data_directory(label: str) -> Path:
    """A fresh, empty data directory inside the checkout."""
    root = DATA_ROOT / f"{label}-{os.getpid()}"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    return root


def directory_bytes(root: Path) -> int:
    total = 0
    for path in root.iterdir():
        try:
            total += path.stat().st_size
        except FileNotFoundError:  # a compaction retired it meanwhile
            pass
    return total
