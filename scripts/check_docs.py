#!/usr/bin/env python
"""Smoke-execute the fenced python blocks in the documentation.

Documentation code rots silently: APIs move on, imports change, and the
first person to notice is a user pasting a dead example.  This script makes
the docs part of the test surface:

* every ````` ```python ````` block in ``docs/*.md`` (and any files given on
  the command line) is extracted and executed;
* blocks in one file run **cumulatively in a shared namespace**, top to
  bottom, so later blocks may use names defined by earlier ones -- exactly
  how a reader works through a guide;
* a block fenced as ````` ```python no-run ````` is syntax-checked but not
  executed (use this for snippets that need a live server or are
  intentionally illustrative);
* each file executes in its own temporary working directory, so examples
  may create files without polluting the repository.

It also holds ``docs/protocol.md`` to the server's command table: the set of
command names in that file's command tables must equal the keys of
``repro.net.server.COMMANDS``, in both directions.  And it holds the "Name
reference" table of ``docs/observability.md`` to what a scripted run
actually records (:func:`scripted_names`): every metric and journal name
needs a row, and every row must match a recorded name.

Run it directly or via ``make check-docs``.  Exit status is non-zero if any
block fails, with the offending file, block number, and source line printed.
"""

from __future__ import annotations

import io
import itertools
import re
import sys
import tempfile
import time
import traceback
from contextlib import chdir, redirect_stdout
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS_DIR = REPO_ROOT / "docs"

def _display(path: Path) -> str:
    """Repo-relative when possible; files given from elsewhere keep their path."""
    try:
        return str(path.relative_to(REPO_ROOT))
    except ValueError:
        return str(path)


_FENCE = re.compile(
    r"^```python[ \t]*(?P<tag>no-run)?[ \t]*\n(?P<body>.*?)^```[ \t]*$",
    re.MULTILINE | re.DOTALL,
)


def extract_blocks(text: str) -> list[tuple[int, bool, str]]:
    """``(start_line, runnable, source)`` for every python fence in *text*."""
    blocks = []
    for match in _FENCE.finditer(text):
        line = text.count("\n", 0, match.start()) + 2  # code starts after fence
        blocks.append((line, match.group("tag") is None, match.group("body")))
    return blocks


def check_file(path: Path) -> list[str]:
    """Execute *path*'s blocks; returns a list of failure descriptions."""
    failures: list[str] = []
    blocks = extract_blocks(path.read_text(encoding="utf-8"))
    if not blocks:
        return failures
    namespace: dict[str, object] = {"__name__": "__docs__"}
    with tempfile.TemporaryDirectory(prefix="check-docs-") as workdir:
        with chdir(workdir):
            for index, (line, runnable, source) in enumerate(blocks, start=1):
                label = f"{_display(path)} block {index} (line {line})"
                try:
                    code = compile(source, f"<{label}>", "exec")
                except SyntaxError:
                    failures.append(f"{label}: syntax error\n{traceback.format_exc()}")
                    continue
                if not runnable:
                    continue
                output = io.StringIO()
                try:
                    with redirect_stdout(output):
                        exec(code, namespace)
                except Exception:
                    printed = output.getvalue()
                    shown = f"--- output ---\n{printed}" if printed else ""
                    failures.append(
                        f"{label}: raised\n{shown}{traceback.format_exc()}"
                    )
    return failures


_COMMAND_ROW = re.compile(r"^\| `(?P<name>[A-Z]+)[ `]", re.MULTILINE)


def check_command_tables(path: Path) -> list[str]:
    """The command tables of *path* (``docs/protocol.md``) vs ``COMMANDS``."""
    from repro.net.server import COMMANDS

    text = path.read_text(encoding="utf-8")
    section = text[text.index("\n## Commands"):text.index("\n## Pipelining")]
    documented = set(_COMMAND_ROW.findall(section))
    served = {name.decode("ascii") for name in COMMANDS}
    failures = []
    if served - documented:
        failures.append(f"{_display(path)}: no table row for {sorted(served - documented)}")
    if documented - served:
        failures.append(f"{_display(path)}: documents {sorted(documented - served)}, "
                        "which the server's command table does not have")
    return failures


def scripted_names() -> set[str]:
    """Every registry and journal name one scripted run records.

    The run: the enhanced-client and ``MonitoredStore`` drivers of
    ``make check-obs`` (``scripts/check_instrumentation.py``) over a gzip +
    AES-GCM client with a slow-op journal and a two-trace ring; one
    resilience cycle on an injected clock (a retry and an exhausted ladder,
    a breaker opening, rejecting one call, half-opening and closing, a
    deadline expiry, a serve-stale client's revalidation and stale serve); an
    ``LSMStore`` through flush, compaction, a failed flush, recovery and a
    poisoned WAL; a threaded server over that store answering ``STATS``,
    an unknown command and a refused connection, through an observed
    ``CacheClient``; an observed ``ClusterStoreClient`` over two in-thread
    members through one ``-MOVED`` and the topology refresh it triggers; and
    an ``AnomalyEngine`` on an injected clock through one detect -> engage ->
    clear -> revert cycle over the SSTable gauge.
    """
    import check_instrumentation as checked

    from repro import EnhancedDataStoreClient, InMemoryStore, LSMStore
    from repro.cluster import ClusterCoordinator, ClusterStoreClient
    from repro.compression import GzipCompressor
    from repro.errors import CircuitOpenError, DataStoreError, DeadlineExceededError
    from repro.kv import CircuitBreakerStore, FlakyStore, RetryingStore, deadline_scope
    from repro.lsm import ManualScheduler
    from repro.lsm import wal as wal_module
    from repro.net.client import CacheClient
    from repro.net.latency import VirtualClock
    from repro.net.protocol import WireError
    from repro.net.server import build_server
    from repro.obs import EventLog, Observability
    from repro.obs.anomaly import AnomalyEngine, CallbackAction, ThresholdRule
    from repro.security import AesGcmEncryptor

    obs = Observability(events=EventLog(), slow_op_threshold=0.0, max_traces=2)
    client = EnhancedDataStoreClient(
        InMemoryStore(),
        compressor=GzipCompressor(),
        encryptor=AesGcmEncryptor(bytes(32)),
        obs=obs,
    )
    for drive in checked.CLIENT_DRIVERS.values():
        client.put("seed-1", {"v": 1})
        client.put("seed-2", {"v": 2})
        drive(client)
    client.invalidate("seed-2")
    client.get("seed-2")  # a miss: fetch and decode
    for drive in checked.DRIVERS.values():
        inner = InMemoryStore()
        inner.put_many({"seed-1": b"value-1", "seed-2": b"value-2"})
        drive(checked.INTERCEPTORS["MonitoredStore"](inner, obs.registry))

    # The resilience cycle: a serve-stale client over a retry ladder over a
    # breaker over a fault injector, on an injected clock (zero sleeps).
    clock = VirtualClock()
    flaky = FlakyStore(InMemoryStore(), failure_rate=0.0)
    breaker = CircuitBreakerStore(
        flaky, failure_threshold=2, recovery_timeout=30.0, clock=clock.time, obs=obs
    )
    retrying = RetryingStore(breaker, max_attempts=2, sleep=clock.advance, obs=obs)
    pending: list = []
    stale = EnhancedDataStoreClient(
        retrying, default_ttl=60.0, serve_stale=True,
        stale_revalidator=pending.append, obs=obs,
    )

    def expire(key: str) -> None:
        stale.dscl.cache_lookup(key).entry.expires_at = time.time() - 1.0

    stale.put("k", 1)
    flaky.fail_next(1)
    retrying.get("k")  # one retry, then success
    expire("k")
    stale.get("k")  # a revalidation: not modified
    expire("k")
    flaky.fail_next(2)
    stale.get("k")  # the ladder is exhausted, the breaker opens: served stale
    try:
        breaker.get("k")  # rejected while open
    except CircuitOpenError:
        pass
    clock.advance(30.0)
    pending.pop()()  # the queued revalidation half-opens and closes the breaker
    with deadline_scope(1.0, clock=clock.time):
        clock.advance(2.0)
        try:
            retrying.get("k")
        except DeadlineExceededError:
            pass

    with tempfile.TemporaryDirectory(prefix="check-docs-names-") as workdir:
        root = Path(workdir) / "db"
        scheduler = ManualScheduler()
        store = LSMStore(root, scheduler=scheduler, auto_compact=False, obs=obs)
        for round_ in range(2):
            for index in range(8):
                store.put(f"k{index}", "v" * 100 + str(round_))
            store.flush()
            store.get("k0")  # sealed, not yet flushed: the immutable level
            scheduler.run_pending()
        for index in range(8):  # SSTable reads
            store.get(f"k{index}")
        store.contains("absent")
        store.put("m", 1)
        store.get("m")
        store.compact()
        scheduler.run_pending()
        # A flush whose SSTable path is taken by a directory fails; its
        # WAL segment stays behind for the next open to replay.
        store.put("stranded", 1)
        segment = store.stats()["wal_segment"]  # wal-NNNNNN.log -> NNNNNN-000.sst
        squatter = root / f"{segment[len('wal-'):-len('.log')]}-000.sst"
        squatter.mkdir()
        store.flush()
        try:
            scheduler.run_pending()
        except OSError:
            pass
        store.close()
        squatter.rmdir()

        store = LSMStore(root, fsync=True, obs=obs)  # replays the stranded segment
        server = build_server("threaded", store, max_clients=1, obs=obs)
        host, port = server.start()
        remote = CacheClient(host, port, obs=obs)
        try:
            remote.set(b"wire", b"1")
            remote.get(b"wire")
            remote.stats()
            remote.call([b"NOSUCHCOMMAND"])
            refused = CacheClient(host, port, obs=obs)
            try:
                refused.ping()
            except WireError:
                pass
            refused.close()
        finally:
            remote.close()
            server.stop()

        def failing_fsync(fd: int) -> None:
            raise OSError("injected fsync failure")

        saved_fsync, wal_module._fsync = wal_module._fsync, failing_fsync
        try:
            store.put("poisoned", 1)
        except DataStoreError:
            pass
        finally:
            wal_module._fsync = saved_fsync
        store.close()

    # Bootstrapped on member "a", the client reads a key that "b" took
    # over: "a" answers -MOVED and the client refreshes its topology.
    with ClusterCoordinator() as coordinator:
        coordinator.add_shard("a", InMemoryStore())
        routed = ClusterStoreClient(coordinator.seeds, obs=obs)
        routed.put_many({f"c{index}": index for index in range(20)})
        before = coordinator.topology
        coordinator.add_shard("b", InMemoryStore())
        moved = next(
            key for key in (f"c{index}" for index in range(20))
            if coordinator.topology.owner(key) != before.owner(key)
        )
        routed.get(moved)
        routed.close()

    # Manual polls; each reads the next tick of the injected clock.
    engine = AnomalyEngine(obs, clock=itertools.count(1.0).__next__)
    engine.add_rule(
        ThresholdRule(
            "sstables", "lsm.sstables", limit=1000.0, trigger_after=1, clear_after=1
        ),
        actions=[CallbackAction("page", on_engage=dict, on_revert=dict)],
    )
    sstables = obs.registry.gauge("lsm.sstables")
    level = sstables.value  # the closed store's count, far below the limit
    for value in (level, 1000.0, level):  # prime, detect + engage, clear + revert
        sstables.set(value)
        engine.poll()
    return set(obs.registry.names()) | {record["kind"] for record in obs.events.tail()}


_NAME_ROW = re.compile(r"^\| `(?P<name>[^`]+)` \|", re.MULTILINE)


def check_name_reference(path: Path) -> list[str]:
    """``docs/observability.md``'s name reference vs :func:`scripted_names`,
    both directions: every recorded name needs a row, every row must match
    a recorded name.  A ``<placeholder>`` segment matches any one segment."""
    text = path.read_text(encoding="utf-8")
    start = text.index("\n## Name reference")
    section = text[start:text.index("\n## ", start + 1)]
    rows = _NAME_ROW.findall(section)
    patterns = {
        row: re.compile(
            "".join(
                "[^.]+" if part.startswith("<") else re.escape(part)
                for part in re.split(r"(<[^>]+>)", row)
            )
        )
        for row in rows
    }
    names = scripted_names()
    failures = []
    undocumented = sorted(
        name for name in names if not any(p.fullmatch(name) for p in patterns.values())
    )
    if undocumented:
        failures.append(f"{_display(path)}: no name-reference row for {undocumented}")
    unmatched = [
        row for row, p in patterns.items() if not any(p.fullmatch(name) for name in names)
    ]
    if unmatched:
        failures.append(
            f"{_display(path)}: name-reference rows nothing records: {unmatched}"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    sys.path.insert(0, str(REPO_ROOT / "src"))
    sys.path.insert(0, str(REPO_ROOT / "scripts"))
    paths = [Path(arg).resolve() for arg in args] or sorted(DOCS_DIR.glob("*.md"))
    all_failures: list[str] = []
    for path in paths:
        failures = check_file(path)
        if path == DOCS_DIR / "protocol.md":
            failures += check_command_tables(path)
        if path == DOCS_DIR / "observability.md":
            failures += check_name_reference(path)
        status = "FAIL" if failures else "ok"
        count = len(extract_blocks(path.read_text(encoding="utf-8")))
        print(f"{status:4}  {_display(path)}  ({count} python blocks)")
        all_failures.extend(failures)
    if all_failures:
        print(f"\n{len(all_failures)} failure(s):", file=sys.stderr)
        for failure in all_failures:
            print(f"\n{failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
