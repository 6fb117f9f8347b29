"""One workload against one server child: set-up, rounds, checks.

A :class:`Session` owns a child process, a data directory and one client
stack per load thread.  It keeps a model of what every key must hold (the
value of its last acknowledged write), so every value read during a round,
and every acknowledged write after the crash check's ``SIGKILL``, is
compared with what was written.
"""

from __future__ import annotations

import gc
import shutil
import threading
import time
from functools import partial
from time import perf_counter
from typing import Any, Callable

from loadloop import NullTarget, RoundResult, drive
from probe import calibrate
from spec import THREADS, VALUE_BYTES, Round, Workload, key_name, make_value, plan_round
from stack import Child, ClientStack, data_directory, directory_bytes
from tracing import Recorder

LOAD_BATCH = 500  # keys per MSET / MGET while loading and reading back
#: Nominal seconds of the unmeasured round before the first measured one:
#: enough to warm the block cache's share and keep round 0's tail like the rest.
WARMUP_SECONDS = 1.0


def run_threads(functions: list[Callable[[], None]]) -> None:
    """Run *functions* on one thread each; re-raise the first exception."""
    errors: list[BaseException] = []

    def guarded(function: Callable[[], None]) -> None:
        try:
            function()
        except BaseException as exc:  # noqa: BLE001 - re-raised by the caller below
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(f,), daemon=True) for f in functions]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


class Session:
    """One workload, one child, ``THREADS`` client stacks."""

    def __init__(self, workload: Workload, seed: int, *, traced: bool = False) -> None:
        self.workload = workload
        self.seed = seed
        self.traced = traced
        self.child: Child | None = None
        self.stacks: list[ClientStack] = []
        self.recorders: list[Recorder] = []
        self.names = [key_name(index) for index in range(workload.keys)]
        # Inputs are made before any set-up is timed.
        self.initial: list[dict[int, bytes]] = [
            {
                index: make_value(seed, index, 0)
                for index in range(thread, workload.keys, THREADS)
            }
            if workload.preload
            else {}
            for thread in range(THREADS)
        ]
        self.expected: list[dict[int, bytes]] = []
        self.versions: list[dict[int, int]] = []

    # ------------------------------------------------------------------
    # Set-up and teardown
    # ------------------------------------------------------------------
    def setup(self) -> float:
        """Spawn the child, connect, load the data set, pre-warm the caches.

        Returns the seconds it took: everything between "nothing exists"
        and "the first measured operation could be sent".
        """
        start = perf_counter()
        root = data_directory(self.workload.name + ("-traced" if self.traced else ""))
        self.child = Child(self.workload, root, traced=self.traced)
        self.expected = [dict(values) for values in self.initial]
        self.versions = [dict.fromkeys(values, 0) for values in self.initial]
        self.connect(client_obs=self.workload.client_obs, load=True)
        return perf_counter() - start

    def connect(self, *, client_obs: bool, load: bool = False) -> None:
        """(Re)build the client stacks; optionally load the server first."""
        assert self.child is not None
        self.disconnect()
        self.recorders = [
            Recorder(f"t{thread}", f"{self.seed}/{self.workload.name}/trace/{thread}")
            for thread in range(THREADS if self.traced else 0)
        ]
        self.stacks = [
            ClientStack(self.workload, self.child, client_obs=client_obs, recorder=recorder)
            for recorder in self.recorders or [None] * THREADS
        ]
        run_threads([partial(self._fill, thread, load) for thread in range(THREADS)])
        for recorder in self.recorders:
            recorder.reset()  # the load is not part of any traced round

    def _fill(self, thread: int, load: bool) -> None:
        """Thread *thread* loads and pre-warms its own half of the keys."""
        client = self.stacks[thread].client
        values = self.expected[thread]
        if load:
            indices = list(values)
            for offset in range(0, len(indices), LOAD_BATCH):
                batch = indices[offset:offset + LOAD_BATCH]
                # TransformingStore.put_many would send one SET per key; the
                # explicit DSCL encode + origin MSET is the batched load.
                client.origin.put_many(
                    {self.names[i]: client.dscl.encode_value(values[i]) for i in batch}
                )
        if self.workload.cache_entries >= len(values):
            for index, value in values.items():
                client.dscl.cache_put(self.names[index], value)

    def disconnect(self) -> None:
        for stack in self.stacks:
            stack.close()
        self.stacks = []

    def teardown(self) -> None:
        """Close clients, kill the child, remove its data.  Idempotent."""
        try:
            self.disconnect()
        finally:
            if self.child is not None:
                self.child.kill()
                shutil.rmtree(self.child.root, ignore_errors=True)
                self.child = None

    # ------------------------------------------------------------------
    # Rounds
    # ------------------------------------------------------------------
    def plan(self, number: int, seconds: float) -> Round:
        return plan_round(self.workload, self.seed, number, seconds)

    def run_round(self, plan: Round, *, null_target: bool = False) -> RoundResult:
        """Drive *plan* through the client stacks (or an empty target)."""
        assert self.child is not None
        if null_target:
            # The replay's threads share nothing with the session: each gets
            # the whole key space, and the plan's pacing is dropped.
            values = {i: v for part in self.expected for i, v in part.items()}
            numbers = {i: n for part in self.versions for i, n in part.items()}
            targets: list[Any] = [NullTarget(values) for _ in plan.ops]
            expected = [dict(values) for _ in plan.ops]
            versions = [dict(numbers) for _ in plan.ops]
            plan = Round(ops=plan.ops, due=[])
        else:
            targets = list(self.stacks)
            expected, versions = self.expected, self.versions
        calib_before = calibrate()
        child_cpu, client_cpu = self.child.cpu_seconds(), time.process_time()
        result = drive(plan, targets, expected, versions, self.names, self.seed)
        result.client_cpu_s = time.process_time() - client_cpu
        result.child_cpu_s = self.child.cpu_seconds() - child_cpu
        result.calib_ms = (calib_before + calibrate()) / 2  # the probe brackets the round
        return result

    # ------------------------------------------------------------------
    # After the rounds
    # ------------------------------------------------------------------
    def footprint(self) -> tuple[float, float]:
        """(disk bytes per live user byte, child peak RSS in MiB)."""
        assert self.child is not None
        live = sum(len(values) for values in self.expected)
        disk = directory_bytes(self.child.root) / (live * VALUE_BYTES)
        return disk, self.child.peak_rss_mib()

    def crash_check(self) -> tuple[int, int]:
        """SIGKILL the child, restart it on the same directory and read every
        key's last acknowledged value back through the client.

        Returns (values read, values missing or wrong).  A process crash
        must lose nothing even with ``fsync=False`` (docs/lsm.md).
        """
        assert self.child is not None
        root = self.child.root
        self.disconnect()
        self.child.kill()
        self.child = Child(self.workload, root, traced=self.traced)
        self.stacks = [
            ClientStack(self.workload, self.child, client_obs=False) for _ in range(THREADS)
        ]
        wrong = [0] * THREADS

        def read_back(thread: int) -> None:
            client, values = self.stacks[thread].client, self.expected[thread]
            indices = list(values)
            for offset in range(0, len(indices), LOAD_BATCH):
                batch = indices[offset:offset + LOAD_BATCH]
                got = client.origin.get_many([self.names[i] for i in batch])
                for i in batch:
                    payload = got.get(self.names[i])
                    if payload is None or client.dscl.decode_value(payload) != values[i]:
                        wrong[thread] += 1

        run_threads([partial(read_back, thread) for thread in range(THREADS)])
        return sum(len(values) for values in self.expected), sum(wrong)


def settle_heap() -> None:
    """Collect now and exempt what is left (plans, expected values, the probe
    table) from later collections, so that no round is stalled by a full
    garbage collection over the benchmark's own half-million objects."""
    gc.collect()
    gc.freeze()
