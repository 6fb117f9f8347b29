"""The traced run: per-layer metrics of one workload, taken from outside.

End-to-end metrics never come from here.  The traced run sets the stack
up twice -- once exactly as the untraced benchmark does (for the baseline,
the client-obs on/off pair and the empty-target replay), once with the
timed wrappers installed and ``serve_child.py --traced`` -- and turns
spans, public counters, ``STATS`` and the child's dump into the
``per_layer`` metrics of ``BENCHMARK.json``.  They are reported as the clock
read them (no reference-speed scaling); a metric whose layer the workload
does not exercise reads 0.
"""

from __future__ import annotations

import gc
import io
import statistics
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Any, Callable

from repro.net import protocol

from loadloop import RoundResult
from session import WARMUP_SECONDS, Session, settle_heap
from spec import VALUE_BYTES, Workload, make_value, percentile
from tracing import merge_recorders

PING_COUNT = 3000
PROTOCOL_REPS = 10_000
ROUND_SHARE = 5  # each of the run's rounds gets 1/ROUND_SHARE of --seconds


def protocol_costs() -> tuple[float, float]:
    """(encode, parse) microseconds per frame on canned 1 KiB GET/SET traffic.

    Encode is ``encode_command`` over the two requests; parse is the
    server's ``try_parse_command`` over the same two plus the client's
    ``FrameReader.read_frame`` over their replies.
    """
    key, value = b"key:000001", make_value(0, 1, 0)
    requests = [[b"GET", key], [b"SET", key, value]]
    start = perf_counter_ns()
    for _ in range(PROTOCOL_REPS):
        for request in requests:
            protocol.encode_command(request)
    encode_us = (perf_counter_ns() - start) / (PROTOCOL_REPS * len(requests)) / 1e3

    frames = [protocol.encode_command(request) for request in requests]
    replies = protocol.encode_bulk(value) + protocol.encode_simple("OK")
    reader = protocol.FrameReader(io.BytesIO(replies * PROTOCOL_REPS))
    start = perf_counter_ns()
    for _ in range(PROTOCOL_REPS):
        for frame in frames:
            protocol.try_parse_command(frame)
        reader.read_frame()
        reader.read_frame()
    parse_us = (perf_counter_ns() - start) / (PROTOCOL_REPS * 4) / 1e3
    return encode_us, parse_us


@dataclass
class _Untraced:
    """Rounds on the stack exactly as the untraced benchmark builds it."""

    base: RoundResult  # the workload's own configuration
    flipped: RoundResult  # the same plan with client obs the other way round
    replay: RoundResult  # the same plan against an empty target


@dataclass
class _Traced:
    """One round with the wrappers installed, and what was read around it."""

    round: RoundResult
    trace: dict[str, Any]  # merge_recorders(): span aggregates + sampled trees
    stats_before: dict[str, str]  # STATS
    stats_after: dict[str, str]
    dump_before: dict[str, Any]  # the traced child's registry/stats/events/calls
    dump_after: dict[str, Any]
    client_before: list[dict[str, int]]
    client_after: list[dict[str, int]]
    ping_us: float
    reconnects: int
    put_bytes: int


def _run_untraced(workload: Workload, seed: int, seconds: float, progress: Callable) -> _Untraced:
    session = Session(workload, seed)
    try:
        progress(f"{workload.name}: traced run, set-up of the untraced stack")
        session.setup()
        plan = session.plan(0, seconds)
        session.run_round(session.plan(-1, WARMUP_SECONDS))
        settle_heap()
        base = session.run_round(plan)
        session.connect(client_obs=not workload.client_obs)
        flipped = session.run_round(plan)
        replay = session.run_round(plan, null_target=True)
        return _Untraced(base, flipped, replay)
    finally:
        session.teardown()
        gc.unfreeze()


def _client_counts(stack: Any) -> dict[str, int]:
    counters, cache = stack.client.counters, stack.cache.stats.snapshot()
    return {"hits": counters.cache_hits, "misses": counters.cache_misses,
            "evictions": cache.evictions}


def _run_traced(workload: Workload, seed: int, seconds: float, progress: Callable) -> _Traced:
    session = Session(workload, seed, traced=True)
    try:
        progress(f"{workload.name}: traced run, set-up of the traced stack")
        session.setup()
        assert session.child is not None
        session.run_round(session.plan(-1, WARMUP_SECONDS))
        settle_heap()
        for recorder in session.recorders:
            recorder.reset()
        wire = session.stacks[0].connection
        # STATS counts the store's keys by scanning every SSTable through the
        # block cache, so both STATS calls stay outside the two dumps.
        stats_before, dump_before = wire.stats(), session.child.dump()
        client_before = [_client_counts(stack) for stack in session.stacks]
        put_bytes_before = sum(stack.remote.put_bytes for stack in session.stacks)
        result = session.run_round(session.plan(0, seconds))
        dump_after, stats_after = session.child.dump(), wire.stats()
        client_after = [_client_counts(stack) for stack in session.stacks]
        ping_ns = []
        for _ in range(PING_COUNT):
            start = perf_counter_ns()
            wire.ping()
            ping_ns.append(perf_counter_ns() - start)
        return _Traced(
            round=result,
            trace=merge_recorders(session.recorders),
            stats_before=stats_before, stats_after=stats_after,
            dump_before=dump_before, dump_after=dump_after,
            client_before=client_before, client_after=client_after,
            ping_us=statistics.median(ping_ns) / 1e3,
            reconnects=sum(stack.connection.reconnects for stack in session.stacks),
            put_bytes=sum(stack.remote.put_bytes for stack in session.stacks) - put_bytes_before,
        )
    finally:
        session.teardown()
        gc.unfreeze()


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _per_call_us(totals: dict[str, Any], name: str, field: str = "total_ns") -> float:
    entry = totals.get(name)
    return entry[field] / entry["count"] / 1e3 if entry and entry["count"] else 0.0


def _p99_ms(samples: list[int]) -> float:
    return percentile(samples, 0.99) / 1e6 if samples else 0.0


def traced_run(
    workload: Workload, seed: int, seconds: float, progress: Callable[[str], None]
) -> tuple[dict[str, float], dict[str, Any], int, int]:
    """Run *workload* traced for about *seconds*.

    Returns (per-layer metrics in BENCHMARK.json's order, the trace to be
    written out, operations attempted, operations failed).
    """
    untraced = _run_untraced(workload, seed, seconds / ROUND_SHARE, progress)
    traced = _run_traced(workload, seed, seconds / ROUND_SHARE, progress)
    base, run, spans = untraced.base, traced.round, traced.trace["spans"]
    obs_on, obs_off = (
        (base, untraced.flipped) if workload.client_obs else (untraced.flipped, base)
    )
    user_bytes = len(run.put_ns) * VALUE_BYTES
    encode_us, parse_us = protocol_costs()

    def stat(name: str) -> float:
        return float(traced.stats_after.get(name, 0))

    def stat_delta(name: str) -> float:
        return stat(name) - float(traced.stats_before.get(name, 0))

    def dumped(*path: str) -> float:
        """Growth of one number of the child's dump over the traced round."""
        after: Any = traced.dump_after
        before: Any = traced.dump_before
        for step in path:
            after = after.get(step, {}) if isinstance(after, dict) else {}
            before = before.get(step, {}) if isinstance(before, dict) else {}
        return float(after or 0) - float(before or 0)

    def counted(name: str) -> float:
        return dumped("registry", "counters", name)

    def client_delta(name: str) -> int:
        return sum(a[name] - b[name] for a, b in zip(traced.client_after, traced.client_before))

    # kv.remote time that neither the wire floor (a PING round trip) nor the
    # server's own dispatch figure explains: what only in-program spans can split.
    remote = [spans[name] for name in ("kv.remote.get", "kv.remote.put") if name in spans]
    remote_us = sum(entry["total_ns"] for entry in remote) / 1e3
    explained_us = sum(entry["count"] for entry in remote) * traced.ping_us + sum(
        spans[span]["count"] * stat(f"cmd.{command}.mean_ms") * 1e3
        for span, command in (("kv.remote.get", "get"), ("kv.remote.put", "set"))
        if span in spans
    )

    events = traced.dump_after["events"][len(traced.dump_before["events"]):]
    flushed_bytes = sum(e["bytes"] for e in events if e["kind"] == "lsm_flush")
    compacted_bytes = sum(e["input_bytes"] for e in events if e["kind"] == "lsm_compact")
    level_hits = {
        level: counted(f"lsm.read.level_hits.{level}")
        for level in ("memtable", "immutable", "sstable")
    }
    server_calls = {
        name: {"count": count - traced.dump_before["calls"].get(name, [0, 0])[0],
               "total_ns": total_ns - traced.dump_before["calls"].get(name, [0, 0])[1]}
        for name, (count, total_ns) in traced.dump_after["calls"].items()
    }
    hits, misses = client_delta("hits"), client_delta("misses")
    block_hits, block_misses = (dumped("stats", "block_cache", key) for key in ("hits", "misses"))
    rounds = [base, untraced.flipped, untraced.replay, run]

    metrics = {
        "harness.loop_ns_per_op":
            untraced.replay.wall_s * 1e9 * untraced.replay.threads / untraced.replay.attempted,
        "harness.late_p50_ms": percentile(run.late_ns, 0.5) / 1e6 if run.late_ns else 0.0,
        "harness.late_p99_ms": _p99_ms(run.late_ns),
        "harness.trace_overhead_ratio": _ratio(base.mean_service_us, run.mean_service_us),
        "harness.calib_ms": statistics.median(r.calib_ms for r in rounds),
        "core.enhanced.get_self_us": _per_call_us(spans, "core.enhanced.get", "self_ns"),
        "core.enhanced.put_self_us": _per_call_us(spans, "core.enhanced.put", "self_ns"),
        "core.enhanced.calls": traced.trace["requests"],
        "caching.inprocess.get_us": _per_call_us(spans, "caching.inprocess.get"),
        "caching.inprocess.put_us": _per_call_us(spans, "caching.inprocess.put"),
        "caching.inprocess.hit_ratio": _ratio(hits, hits + misses),
        "caching.inprocess.evictions": client_delta("evictions"),
        "obs.client_tax_ratio": _ratio(obs_on.mean_service_us, obs_off.mean_service_us),
        "core.pipeline.serialize_us": _per_call_us(spans, "core.pipeline.serialize"),
        "core.pipeline.compress_us": _per_call_us(spans, "core.pipeline.compress"),
        "core.pipeline.encrypt_us": _per_call_us(spans, "core.pipeline.encrypt"),
        "core.pipeline.decrypt_us": _per_call_us(spans, "core.pipeline.decrypt"),
        "core.pipeline.decompress_us": _per_call_us(spans, "core.pipeline.decompress"),
        "core.pipeline.deserialize_us": _per_call_us(spans, "core.pipeline.deserialize"),
        "core.pipeline.bytes_out_per_byte_in": _ratio(traced.put_bytes, user_bytes),
        "kv.remote.get_us": _per_call_us(spans, "kv.remote.get"),
        "kv.remote.put_us": _per_call_us(spans, "kv.remote.put"),
        "kv.remote.unattributed_share":
            max(0.0, 1.0 - explained_us / remote_us) if remote_us else 0.0,
        "net.protocol.encode_us": encode_us,
        "net.protocol.parse_us": parse_us,
        "net.client.ping_rtt_us": traced.ping_us,
        "net.client.cpu_us_per_op": run.client_cpu_s * 1e6 / run.attempted,
        "net.client.reconnects": traced.reconnects,
        "net.engine.cpu_us_per_op": run.child_cpu_s * 1e6 / run.attempted,
        "net.engine.cmd_get_mean_us": stat("cmd.get.mean_ms") * 1e3,
        "net.engine.cmd_set_mean_us": stat("cmd.set.mean_ms") * 1e3,
        "net.engine.cmd_get_p99_us": stat("cmd.get.p99_ms") * 1e3,
        # The closing STATS call counts itself; the round's commands are the rest.
        "net.engine.commands_served": stat_delta("server.commands_served") - 1,
        "net.engine.errors": stat_delta("server.errors"),
        "lsm.store.get_us": _per_call_us(server_calls, "lsm.store.get"),
        "lsm.store.put_us": _per_call_us(server_calls, "lsm.store.put"),
        "lsm.store.sstable_hit_share": _ratio(level_hits["sstable"], sum(level_hits.values())),
        "lsm.store.flushes": counted("lsm.memtable.flushes"),
        "lsm.store.compactions": counted("lsm.compactions"),
        "lsm.store.flush_busy_s": dumped("registry", "histograms", "lsm.flush.seconds", "sum"),
        "lsm.store.compaction_busy_s":
            dumped("registry", "histograms", "lsm.compaction.seconds", "sum"),
        "lsm.store.sstables_end": traced.dump_after["stats"]["sstables"],
        "lsm.store.write_amp":
            _ratio(counted("lsm.wal.bytes") + flushed_bytes + compacted_bytes, user_bytes),
        "lsm.wal.group_commits": counted("lsm.wal.group_commits"),
        "lsm.wal.records_per_commit":
            _ratio(counted("lsm.wal.appends"), counted("lsm.wal.group_commits")),
        "lsm.wal.bytes_per_user_byte": _ratio(counted("lsm.wal.bytes"), user_bytes),
        "lsm.wal.sync_failures": counted("lsm.wal.sync_failures"),
        "lsm.blockcache.hit_ratio": _ratio(block_hits, block_hits + block_misses),
        "lsm.blockcache.evictions": dumped("stats", "block_cache", "evictions"),
        # The tail percentiles the sandbox is too noisy to gate (see README):
        # reported from the untraced baseline round, as the clock read them.
        "get_p99_ms": _p99_ms(base.get_ns),
        "put_p99_ms": _p99_ms(base.put_ns),
    }
    roots = sum(entry["total_ns"] for name, entry in spans.items()
                if name.startswith("core.enhanced."))
    trace = traced.trace | {
        "workload": workload.name,
        "seed": seed,
        "gets": len(run.get_ns),
        "puts": len(run.put_ns),
        # |sum of every span's self time - sum of the root spans| / roots: 0 by construction.
        "root_self_check":
            abs(sum(entry["self_ns"] for entry in spans.values()) - roots) / roots if roots else 0.0,
        "server_calls": server_calls,
    }
    measured = [base, untraced.flipped, run]
    return (
        {name: float(value) for name, value in metrics.items()},
        trace,
        sum(r.attempted for r in measured),
        sum(r.failed for r in measured),
    )
