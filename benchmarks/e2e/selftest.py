#!/usr/bin/env python3
"""Self-test of the benchmark's own parts (plain asserts, no server child).

    python3 benchmarks/e2e/selftest.py

Not collected by pytest on purpose: the benchmark package stands apart from
the repo's test suite.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(REPO / "src"))

from loadloop import NullTarget, drive  # noqa: E402
from spec import WORKLOADS, Round, key_name, make_value, percentile, plan_round  # noqa: E402
from tracing import END, START, Recorder, merge_recorders, self_times  # noqa: E402


def check_generators_are_deterministic_per_seed() -> None:
    for workload in WORKLOADS.values():
        first = plan_round(workload, 7, 0, 0.5)
        again = plan_round(workload, 7, 0, 0.5)
        assert (first.ops, first.due) == (again.ops, again.due), workload.name
        other_seed = plan_round(workload, 8, 0, 0.5)
        other_round = plan_round(workload, 7, 1, 0.5)
        assert first.ops != other_seed.ops and first.ops != other_round.ops, workload.name
    assert make_value(7, 3, 1) == make_value(7, 3, 1)
    assert make_value(7, 3, 1) != make_value(7, 3, 2) != make_value(8, 3, 2)
    assert len(make_value(7, 3, 1)) == 1024


def check_cold_read_schedules_are_identical() -> None:
    threaded = plan_round(WORKLOADS["cold_read_threaded"], 11, 2, 1.0)
    asynchronous = plan_round(WORKLOADS["cold_read_async"], 11, 2, 1.0)
    as_bytes = [json.dumps([plan.ops, plan.due]).encode() for plan in (threaded, asynchronous)]
    assert as_bytes[0] == as_bytes[1]
    assert threaded.due == sorted(threaded.due) and len(threaded.due) == 1000


def check_closed_loop_threads_own_disjoint_keys() -> None:
    plan = plan_round(WORKLOADS["write_mixed"], 5, 0, 1.0)
    for thread, ops in enumerate(plan.ops):
        assert all(index % len(plan.ops) == thread for _is_put, index in ops)
    puts = sum(is_put for ops in plan.ops for is_put, _index in ops)
    assert 0.45 < puts / plan.size < 0.55


class _CorruptingTarget(NullTarget):
    """Flips one bit of every tenth value read."""

    reads = 0

    def get(self, key: str) -> bytes:
        value = super().get(key)
        self.reads += 1
        return bytes([value[0] ^ 1]) + value[1:] if self.reads % 10 == 0 else value


def check_a_corrupted_byte_is_a_failed_operation() -> None:
    workload, seed = WORKLOADS["write_mixed"], 9
    plan = plan_round(workload, seed, 0, 0.1)
    names = [key_name(index) for index in range(workload.keys)]
    values = {index: make_value(seed, index, 0) for index in range(workload.keys)}

    def replay(target_class: type) -> tuple[int, int]:
        result = drive(
            Round(ops=plan.ops, due=[]),
            [target_class(values) for _ in plan.ops],
            [dict(values) for _ in plan.ops],
            [dict.fromkeys(values, 0) for _ in plan.ops],
            names,
            seed,
        )
        assert result.attempted == plan.size
        return result.failed, len(result.get_ns)

    assert replay(NullTarget)[0] == 0
    failed, reads = replay(_CorruptingTarget)
    # run.py exits non-zero whenever ``failed`` is not 0.
    assert failed == sum(r // 10 for r in _thread_reads(plan)) > 0 and reads > failed


def _thread_reads(plan: Round) -> list[int]:
    return [sum(not is_put for is_put, _index in ops) for ops in plan.ops]


def check_span_self_times_sum_to_the_root() -> None:
    recorder = Recorder("t0", "selftest")

    def leaf() -> int:
        return sum(range(200))

    def middle() -> None:
        recorder.call("kv.remote.get", leaf)
        recorder.call("core.pipeline.decrypt", leaf)

    def root() -> None:
        recorder.call("caching.inprocess.get", leaf)
        recorder.call("store", middle)

    for _ in range(50):
        recorder.call("core.enhanced.get", root)
    assert recorder.requests == 50 and len(recorder.reservoir) == 50
    for spans in recorder.reservoir:
        assert len(spans) == 5 and spans[0][3] == -1
        assert sum(self_times(spans)) == spans[0][END] - spans[0][START]
        assert all(own >= 0 for own in self_times(spans))
    merged = merge_recorders([recorder])
    roots = merged["spans"]["core.enhanced.get"]["total_ns"]
    assert sum(entry["self_ns"] for entry in merged["spans"].values()) == roots


def check_percentile_is_nearest_rank() -> None:
    values = [float(v) for v in range(1, 101)]  # 1..100
    assert percentile(values, 0.5) == 50
    assert percentile(values, 0.99) == 99
    assert percentile(values, 0.999) == 100
    assert percentile(values, 1.0) == 100
    assert percentile([15.0, 20.0, 35.0, 40.0, 50.0], 0.3) == 20  # the textbook example
    assert percentile([15.0, 20.0, 35.0, 40.0, 50.0], 0.4) == 20
    assert percentile([7.0], 0.99) == 7


def check_benchmark_json_names_the_same_things() -> None:
    import run

    benchmark = run.BENCHMARK
    assert [w["name"] for w in benchmark["workloads"]] == list(WORKLOADS)
    assert benchmark["paths"] == ["benchmarks/e2e"]
    fake = {"median": 1.0}
    summary = {"figures": {"ops_s": fake, "p50_ms": fake},
               "setups": [{"at_reference": 1.0}],
               "disk_bytes_per_user_byte": 1.0, "server_rss_mb": 1.0}
    line = json.loads(run.result_line("end_to_end", 1, 0, run.end_to_end(summary)))
    assert list(line["metrics"]) == [m["name"] for m in benchmark["end_to_end"]]
    assert len(benchmark["per_layer"]) == 51  # the issue's 49 + the two ungated p99s
    try:
        run.result_line("per_layer", 1, 0, {"harness.calib_ms": 1.0})
    except ValueError:
        pass  # a result that does not carry every metric of its section is refused
    else:
        raise AssertionError("an incomplete per_layer result was accepted")


def main() -> int:
    tests = [value for name, value in globals().items() if name.startswith("check_")]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
    print(f"{len(tests)} self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
