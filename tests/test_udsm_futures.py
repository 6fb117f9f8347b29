"""ListenableFuture: blocking retrieval, listeners, chaining, cancellation,
and the ``gather`` helper."""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import FutureCancelledError, FutureTimeoutError
from repro.udsm.futures import (
    FutureState,
    ListenableFuture,
    completed_future,
    failed_future,
    gather,
)
from repro.udsm.pool import ThreadPool


class TestBasicCompletion:
    def test_result_after_set(self):
        future = ListenableFuture()
        future.set_result(42)
        assert future.result() == 42
        assert future.done()
        assert future.state is FutureState.COMPLETED

    def test_result_blocks_until_set(self):
        future = ListenableFuture()

        def complete_later():
            time.sleep(0.02)
            future.set_result("late")

        threading.Thread(target=complete_later).start()
        assert future.result(timeout=2) == "late"

    def test_timeout_raises(self):
        future = ListenableFuture()
        with pytest.raises(FutureTimeoutError):
            future.result(timeout=0.01)

    def test_exception_propagates(self):
        future = ListenableFuture()
        future.set_exception(ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            future.result()
        assert isinstance(future.exception(), ValueError)

    def test_exception_is_none_on_success(self):
        assert completed_future(1).exception() is None

    def test_none_is_a_valid_result(self):
        assert completed_future(None).result() is None

    def test_wait(self):
        future = ListenableFuture()
        assert not future.wait(timeout=0.01)
        future.set_result(1)
        assert future.wait(timeout=0.01)

    def test_first_outcome_wins(self):
        future = ListenableFuture()
        future.set_result("first")
        future.set_result("second")
        future.set_exception(RuntimeError("too late"))
        assert future.result() == "first"


class TestListeners:
    def test_listener_called_on_completion(self):
        future = ListenableFuture()
        seen = []
        future.add_listener(lambda f: seen.append(f.result()))
        future.set_result("value")
        assert seen == ["value"]

    def test_listener_added_after_completion_fires_immediately(self):
        future = completed_future("done")
        seen = []
        future.add_listener(lambda f: seen.append(f.result()))
        assert seen == ["done"]

    def test_listeners_fire_in_registration_order(self):
        future = ListenableFuture()
        order = []
        for i in range(5):
            future.add_listener(lambda _f, i=i: order.append(i))
        future.set_result(None)
        assert order == [0, 1, 2, 3, 4]

    def test_listener_exception_does_not_break_future(self):
        future = ListenableFuture()
        seen = []
        future.add_listener(lambda f: 1 / 0)
        future.add_listener(lambda f: seen.append(True))
        future.set_result("ok")
        assert seen == [True]
        assert future.result() == "ok"
        assert len(future.listener_errors) == 1

    def test_listener_called_on_failure_too(self):
        future = ListenableFuture()
        states = []
        future.add_listener(lambda f: states.append(f.state))
        future.set_exception(RuntimeError())
        assert states == [FutureState.FAILED]


class TestCancellation:
    def test_cancel_pending(self):
        future = ListenableFuture()
        assert future.cancel()
        assert future.cancelled()
        with pytest.raises(FutureCancelledError):
            future.result()

    def test_cancel_completed_fails(self):
        future = completed_future(1)
        assert not future.cancel()
        assert future.result() == 1

    def test_cancel_fires_listeners(self):
        future = ListenableFuture()
        seen = []
        future.add_listener(lambda f: seen.append(f.cancelled()))
        future.cancel()
        assert seen == [True]

    def test_exception_of_cancelled(self):
        future = ListenableFuture()
        future.cancel()
        assert isinstance(future.exception(), FutureCancelledError)


class TestDerivedFutures:
    def test_transform_success(self):
        assert completed_future(5).transform(lambda x: x * 2).result() == 10

    def test_transform_chains(self):
        future = completed_future("a").transform(str.upper).transform(lambda s: s + "!")
        assert future.result() == "A!"

    def test_transform_propagates_failure(self):
        derived = failed_future(ValueError("bad")).transform(lambda x: x)
        with pytest.raises(ValueError):
            derived.result()

    def test_transform_function_failure_captured(self):
        derived = completed_future(0).transform(lambda x: 1 / x)
        with pytest.raises(ZeroDivisionError):
            derived.result()

    def test_transform_before_completion(self):
        source = ListenableFuture()
        derived = source.transform(lambda x: x + 1)
        assert not derived.done()
        source.set_result(41)
        assert derived.result(timeout=1) == 42

    def test_catching_recovers(self):
        derived = failed_future(ValueError("bad")).catching(lambda exc: "recovered")
        assert derived.result() == "recovered"

    def test_catching_passes_success_through(self):
        assert completed_future("fine").catching(lambda exc: "never").result() == "fine"

    def test_catching_recovery_failure(self):
        derived = failed_future(ValueError()).catching(lambda exc: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            derived.result()


class TestGather:
    def test_collects_in_order(self):
        with ThreadPool(4) as pool:
            futures = [pool.submit(lambda i=i: i * 10) for i in range(10)]
            assert gather(futures, timeout=5) == [i * 10 for i in range(10)]

    def test_first_failure_raises(self):
        futures = [completed_future(1)]
        failing: ListenableFuture = ListenableFuture()
        failing.set_exception(ValueError("boom"))
        futures.append(failing)
        with pytest.raises(ValueError):
            gather(futures, timeout=1)

    def test_timeout_is_total(self):
        never: ListenableFuture = ListenableFuture()
        with pytest.raises(FutureTimeoutError):
            gather([completed_future(1), never], timeout=0.05)

    def test_empty(self):
        assert gather([], timeout=1) == []
