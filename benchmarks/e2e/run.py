#!/usr/bin/env python3
"""End-to-end benchmark of the shipped stack (see README.md beside this file).

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
        one workload, the way BENCHMARK.json's driver calls it; the last
        line of stdout is the result object.
    python3 benchmarks/e2e/run.py --seed N
        all five workloads with their rounds interleaved, then a traced run
        of each; prints every metric, writes out/result.json and
        out/trace_<workload>.json.
    ... --smoke           one short round per workload and the crash check, no traced run
    ... --check-repeat    the untraced part twice, compared by compare.py

Exits non-zero when any value read back is wrong, any operation fails or
any acknowledged write is missing after the crash check.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
if not (REPO / "src" / "repro").is_dir():
    sys.exit(f"{REPO} holds no src/repro: there is no program here to benchmark")
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(REPO / "src"))

import compare  # noqa: E402
from layers import traced_run  # noqa: E402
from loadloop import summarize  # noqa: E402
from probe import CALIB_REFERENCE_MS, at_reference_speed, calibrate  # noqa: E402
from session import WARMUP_SECONDS, Session, settle_heap  # noqa: E402
from spec import THREADS, WORKLOADS  # noqa: E402
from stack import DATA_ROOT  # noqa: E402

OUT = HERE / "out"
ROUNDS = 20
SETUPS = 3  # set-ups per run; setup_s is their median
FULL_SECONDS = 25.0  # measured seconds per workload when all five run together
SMOKE_SECONDS = 1.0  # set-up dominates a smoke run; one short round keeps it near 30 s

BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}

def progress(message: str) -> None:
    """One line on stderr per step: the last one names the workload and round
    that was running if the run dies."""
    print(f"# {message}", file=sys.stderr, flush=True)


def _refuse_leftovers() -> None:
    """Refuse to start beside a live benchmark process's children; clear what
    a dead one left behind (its children exited when its stdin pipes closed)."""
    for directory in DATA_ROOT.glob("*-*") if DATA_ROOT.is_dir() else ():
        pid = directory.name.rsplit("-", 1)[-1]
        try:
            owner = Path(f"/proc/{pid}/cmdline").read_bytes()
        except OSError:
            owner = b""
        if b"run.py" in owner and int(pid) != os.getpid():
            raise SystemExit(
                f"refusing to start: benchmark process {pid} still owns {directory}; "
                "stop it (its server children exit with it) and retry"
            )
        shutil.rmtree(directory, ignore_errors=True)


# ----------------------------------------------------------------------
# The untraced benchmark: end-to-end metrics
# ----------------------------------------------------------------------
def untraced_run(
    names: list[str], seed: int, seconds: float, rounds: int, setups: int
) -> dict[str, dict[str, Any]]:
    """Set every workload up, interleave their rounds, check, tear down."""
    sessions = {name: Session(WORKLOADS[name], seed) for name in names}
    try:
        return _measure(sessions, seconds, rounds, setups)
    finally:
        for session in sessions.values():
            session.teardown()
        gc.unfreeze()


def _measure(
    sessions: dict[str, Session], seconds: float, rounds: int, setups: int
) -> dict[str, dict[str, Any]]:
    setup_s: dict[str, list[dict[str, float]]] = {name: [] for name in sessions}
    for name, session in sessions.items():
        for attempt in range(setups):
            progress(f"{name}: set-up {attempt + 1}/{setups}")
            session.teardown()
            before = calibrate()
            raw = session.setup()
            calib = (before + calibrate()) / 2
            setup_s[name].append({"raw": raw, "calib_ms": calib,
                                  "at_reference": at_reference_speed(raw, calib)})
    for name, session in sessions.items():
        progress(f"{name}: warm-up round")
        session.run_round(session.plan(-1, WARMUP_SECONDS))
    settle_heap()
    results: dict[str, list] = {name: [] for name in sessions}
    for number in range(rounds):
        # Round-robin, so a slow phase of the machine lands on every workload.
        for name, session in sessions.items():
            progress(f"{name}: round {number + 1}/{rounds}")
            results[name].append(session.run_round(session.plan(number, seconds / rounds)))
    report: dict[str, dict[str, Any]] = {}
    for name, session in sessions.items():
        summary = summarize(results[name], session.workload)
        summary["disk_bytes_per_user_byte"], summary["server_rss_mb"] = session.footprint()
        summary["setups"] = setup_s[name]
        if session.workload.crash_check:
            progress(f"{name}: crash check")
            read, lost = session.crash_check()
            summary["crash_check"] = {"read": read, "lost": lost}
            summary["attempted"] += read
            summary["failed"] += lost
        report[name] = summary
    return report


def end_to_end(summary: dict[str, Any]) -> dict[str, float]:
    """The gated metrics of one workload, by their BENCHMARK.json names."""
    figures = summary["figures"]
    return {
        "ops_s": figures["ops_s"]["median"],
        "p50_ms": figures["p50_ms"]["median"],
        "setup_s": statistics.median(s["at_reference"] for s in summary["setups"]),
        "disk_bytes_per_user_byte": summary["disk_bytes_per_user_byte"],
        "server_rss_mb": summary["server_rss_mb"],
    }


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def environment(seed: int, seconds: float, rounds: int) -> dict[str, Any]:
    def read(command: list[str]) -> str:
        try:
            return subprocess.run(
                command, capture_output=True, text=True, timeout=10, cwd=REPO
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return ""

    cpu = next(
        (line.split(":", 1)[1].strip()
         for line in Path("/proc/cpuinfo").read_text().splitlines()
         if line.startswith("model name")),
        "unknown",
    )
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "kernel": platform.release(),
        "data_filesystem": read(["stat", "-f", "-c", "%T", str(OUT)]) or "unknown",
        "link": "loopback",
        "reads": "served from the OS page cache (the data set is written moments "
                 "before it is read); latencies are the sandbox's, not a device's",
        "git_commit": read(["git", "rev-parse", "HEAD"]) or "unknown",
        "seed": seed,
        "seconds": seconds,
        "rounds": rounds,
        "threads": THREADS,
    }


def print_end_to_end(report: dict[str, dict[str, Any]]) -> None:
    print("\nEnd-to-end metrics: median [min .. max] over rounds at reference speed, "
          "(raw median as the clock read it), n = samples per round")
    for name, summary in report.items():
        workload = WORKLOADS[name]
        print(f"\n  {name}  ({summary['rounds']} rounds, {workload.loop} loop, "
              f"unprefixed latencies are of: {workload.gated})")
        for metric, figure in summary["figures"].items():
            if metric.startswith(workload.gated + "_"):
                continue  # the unprefixed rows already are this operation's
            unit = "ops/s" if metric == "ops_s" else "ms"
            gated = metric in ("ops_s", "p50_ms")
            count = f"  n={figure['samples_per_round']}" if figure["samples_per_round"] else ""
            print(f"    {metric:26} {figure['median']:12.4f} [{figure['min']:.4f} .. {figure['max']:.4f}] "
                  f"(raw {figure['raw_median']:.4f}) {unit}{count}{'' if gated else '  diagnostic'}")
        setups = summary["setups"]
        print(f"    {'setup_s':26} {end_to_end(summary)['setup_s']:12.4f} "
              f"(raw {statistics.median(s['raw'] for s in setups):.4f}) s  median of {len(setups)} set-ups")
        print(f"    {'disk_bytes_per_user_byte':26} {summary['disk_bytes_per_user_byte']:12.4f} ratio")
        print(f"    {'server_rss_mb':26} {summary['server_rss_mb']:12.2f} MiB")
        print(f"    {'fail_ratio':26} {summary['failed'] / summary['attempted']:12.6f} "
              f"({summary['failed']} of {summary['attempted']})")
        if "crash_check" in summary:
            check = summary["crash_check"]
            print(f"    crash check: {check['read']} acknowledged values read back after SIGKILL, "
                  f"{check['lost']} lost")
        calib = summary["calib_ms"]
        print(f"    {'calib_ms':26} {calib['median']:12.2f} [{calib['min']:.2f} .. {calib['max']:.2f}] ms  "
              f"machine-speed probe (reference {CALIB_REFERENCE_MS})")
        if summary["first_error"]:
            print(f"    first error: {summary['first_error']}")


def print_layers(layers: dict[str, dict[str, float]]) -> None:
    print("\nPer-layer metrics (traced run)")
    names = list(next(iter(layers.values())))
    print(f"  {'metric':38}" + "".join(f"{w[:18]:>20}" for w in layers))
    for metric in names:
        row = "".join(f"{layers[w][metric]:20.4f}" for w in layers)
        print(f"  {metric:38}{row}  {UNITS[metric]}")


def result_line(section: str, attempted: int, failed: int, metrics: dict[str, float]) -> str:
    """The driver's result object; *metrics* must be exactly BENCHMARK.json's *section*."""
    declared = [metric["name"] for metric in BENCHMARK[section]]
    if list(metrics) != declared:
        raise ValueError(f"{section} metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(declared))}")
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()
        },
    })


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------
def driver_mode(options: argparse.Namespace) -> int:
    """One workload for BENCHMARK.json's driver; last stdout line is the result."""
    name = options.workload
    if options.trace:
        metrics, trace, attempted, failed = traced_run(
            WORKLOADS[name], options.seed, options.seconds, progress
        )
        _write_trace(name, trace)
    else:
        summary = untraced_run([name], options.seed, options.seconds, ROUNDS, SETUPS)[name]
        print_end_to_end({name: summary})
        metrics = end_to_end(summary)
        attempted, failed = summary["attempted"], summary["failed"]
    print(result_line("per_layer" if options.trace else "end_to_end", attempted, failed, metrics))
    return 0 if failed == 0 else 1


def _write_trace(name: str, trace: dict[str, Any]) -> None:
    (OUT / f"trace_{name}.json").write_text(json.dumps(trace))


def full_mode(options: argparse.Namespace) -> int:
    """All five workloads interleaved, then one traced run of each."""
    names = list(WORKLOADS)
    seconds = SMOKE_SECONDS if options.smoke else FULL_SECONDS
    rounds = 1 if options.smoke else ROUNDS
    config = environment(options.seed, seconds, rounds)
    print("config: " + json.dumps(config))
    setups = 1 if options.smoke else SETUPS
    report = untraced_run(names, options.seed, seconds, rounds, setups)
    print_end_to_end(report)
    failed = sum(summary["failed"] for summary in report.values())
    result: dict[str, Any] = {
        "config": config,
        "end_to_end": {name: end_to_end(summary) for name, summary in report.items()},
        "detail": report,
    }
    exceeded = 0
    if options.check_repeat:
        progress("check-repeat: second untraced run")
        again = untraced_run(names, options.seed, seconds, rounds, setups)
        failed += sum(summary["failed"] for summary in again.values())
        result["repeat"] = {name: end_to_end(summary) for name, summary in again.items()}
        exceeded = compare.report(result["end_to_end"], result["repeat"], BENCHMARK)
    elif not options.smoke:
        layers: dict[str, dict[str, float]] = {}
        for name in names:
            layers[name], trace, _attempted, traced_failed = traced_run(
                WORKLOADS[name], options.seed, BENCHMARK["run_seconds"], progress
            )
            failed += traced_failed
            _write_trace(name, trace)
        print_layers(layers)
        result["per_layer"] = layers
    (OUT / "result.json").write_text(json.dumps(result, indent=1))
    print(f"\nwrote {OUT / 'result.json'}")
    if failed:
        print(f"FAILED: {failed} operations failed or read a wrong value")
    return 1 if failed or exceeded else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="run this one workload (the driver's form); default: all five")
    parser.add_argument("--seed", type=int, default=20170419)
    parser.add_argument("--seconds", type=float, default=float(BENCHMARK["run_seconds"]),
                        help="with --workload: nominal seconds to measure for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 0 = end-to-end metrics, 1 = per-layer metrics")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--check-repeat", action="store_true")
    options = parser.parse_args()
    _refuse_leftovers()
    # SIGTERM becomes SystemExit, so the ``finally`` blocks still kill the children.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    OUT.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    code = driver_mode(options) if options.workload else full_mode(options)
    progress(f"done in {time.perf_counter() - started:.1f}s")
    return code


if __name__ == "__main__":
    sys.exit(main())
