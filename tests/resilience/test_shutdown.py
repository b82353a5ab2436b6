"""Graceful-shutdown tests: signal mapping and pool draining."""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.parallel import iter_tasks
from repro.resilience import (
    EXIT_INTERRUPTED,
    ShutdownRequested,
    SupervisionLog,
    SupervisorPolicy,
    graceful_shutdown,
)

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()

fork_only = pytest.mark.skipif(
    not HAVE_FORK, reason="drain test needs the fork start method"
)


def _sleepy(x):
    time.sleep(1.0)
    return x * x


class TestGracefulShutdown:
    def test_exit_code_constant(self):
        assert EXIT_INTERRUPTED == 130  # 128 + SIGINT, the shell convention

    def test_subclasses_keyboard_interrupt(self):
        exc = ShutdownRequested(signal.SIGTERM)
        assert isinstance(exc, KeyboardInterrupt)
        assert exc.signal_name == "SIGTERM"
        assert ShutdownRequested(signal.SIGINT).signal_name == "SIGINT"

    def test_sigterm_raises_inside_block(self):
        with pytest.raises(ShutdownRequested) as exc_info:
            with graceful_shutdown():
                os.kill(os.getpid(), signal.SIGTERM)
                time.sleep(5)  # pragma: no cover - signal preempts
        assert exc_info.value.signum == signal.SIGTERM

    def test_handlers_restored_after_block(self):
        before = signal.getsignal(signal.SIGTERM)
        with graceful_shutdown():
            assert signal.getsignal(signal.SIGTERM) is not before
        assert signal.getsignal(signal.SIGTERM) is before

    def test_handlers_restored_after_signal(self):
        before = signal.getsignal(signal.SIGTERM)
        with pytest.raises(ShutdownRequested):
            with graceful_shutdown():
                os.kill(os.getpid(), signal.SIGTERM)
        assert signal.getsignal(signal.SIGTERM) is before

    def test_noop_outside_main_thread(self):
        outcome: list[object] = []

        def body():
            before = signal.getsignal(signal.SIGTERM)
            try:
                with graceful_shutdown():
                    outcome.append(signal.getsignal(signal.SIGTERM) is before)
            except Exception as exc:  # pragma: no cover - the failure mode
                outcome.append(exc)

        t = threading.Thread(target=body)
        t.start()
        t.join()
        assert outcome == [True]  # ran unprotected, no handler touched


@fork_only
class TestPoolDrain:
    def test_sigterm_drains_in_flight_then_reraises(self):
        """SIGTERM mid-run: in-flight tasks finish, prefix is yielded,
        pending tasks are abandoned, and the signal re-raises."""
        log = SupervisionLog()
        pol = SupervisorPolicy(backoff_base=0.001, drain_grace=30.0)
        timer = threading.Timer(
            0.4, os.kill, args=(os.getpid(), signal.SIGTERM)
        )
        got: list[tuple[int, int]] = []
        with graceful_shutdown():
            timer.start()
            try:
                with pytest.raises(ShutdownRequested):
                    for item in iter_tasks(
                        _sleepy,
                        list(range(6)),
                        workers=2,
                        policy=pol,
                        supervision=log,
                    ):
                        got.append(item)
            finally:
                timer.cancel()
        # The drained prefix is in-order, correct, and strictly partial.
        assert got == [(i, i * i) for i in range(len(got))]
        assert 0 < len(got) < 6
