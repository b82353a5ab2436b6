"""The warm pool (a kept repro.resilience.SupervisedPool) and its scoring.

The pool exists to amortize per-chunk model pickling in the serve replay
loop, so the tests pin the two things that matter: reuse (one install,
many runs) and byte-identity with the per-call path (pooled scoring can
never change the scores).  It is the same supervised engine as every
one-shot ``iter_tasks`` call, so its retries and circuit breaker are
pinned here too.
"""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.parallel import WorkerCrash
from repro.resilience import (
    ENV_CHAOS,
    SupervisedPool,
    SupervisionLog,
    SupervisorPolicy,
)

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()

fork_only = pytest.mark.skipif(
    not HAVE_FORK, reason="warm pool workers ride the fork start method"
)


# ---------------------------------------------------------------- worker fns

_installed = {"token": None}


def _install(token):
    _installed["token"] = token


def _echo_token(x):
    return (_installed["token"], x)


def _double(x):
    return 2 * x


def _boom(x):
    raise ValueError(f"bad task {x}")


# ---------------------------------------------------------------- pool tests


class TestPersistentPool:
    def test_results_in_task_order(self):
        with SupervisedPool(workers=2) as pool:
            assert pool.run(_double, list(range(10))) == [
                2 * x for x in range(10)
            ]

    def test_initializer_state_reused_across_runs(self):
        with SupervisedPool(
            workers=2, initializer=_install, initargs=("warm",)
        ) as pool:
            first = pool.run(_echo_token, [1, 2, 3, 4])
            second = pool.run(_echo_token, [5, 6])
        # Every task saw the installed state, on both calls — the state
        # survived between run() calls without re-shipping.
        assert first == [("warm", x) for x in (1, 2, 3, 4)]
        assert second == [("warm", x) for x in (5, 6)]

    def test_serial_fallback_matches(self):
        with SupervisedPool(
            workers=1, initializer=_install, initargs=("solo",)
        ) as pool:
            assert not pool.parallel
            assert pool.run(_echo_token, [7]) == [("solo", 7)]

    def test_unpicklable_initializer_falls_back_serial(self):
        token = lambda: None  # unpicklable initargs force the serial path

        with SupervisedPool(
            workers=2, initializer=_install, initargs=(token,)
        ) as pool:
            out = pool.run(_echo_token, [1])
            assert not pool.parallel
        assert out == [(token, 1)]

    def test_task_error_surfaces_as_worker_crash(self):
        with SupervisedPool(workers=2) as pool:
            with pytest.raises(WorkerCrash, match="bad task"):
                pool.run(_boom, [0])

    def test_use_after_close_raises(self):
        pool = SupervisedPool(workers=2)
        pool.close()
        with pytest.raises(WorkerCrash, match="close"):
            pool.run(_double, [1])

    def test_close_is_idempotent(self):
        pool = SupervisedPool(workers=2)
        pool.run(_double, [1])
        pool.close()
        pool.close()

    def test_empty_task_list(self):
        with SupervisedPool(workers=2) as pool:
            assert pool.run(_double, []) == []

    @fork_only
    def test_crashes_retry_then_breaker_keeps_pool_serial(self, monkeypatch):
        monkeypatch.setenv(ENV_CHAOS, "crash=1.0")
        log = SupervisionLog()
        policy = SupervisorPolicy(max_retries=1, backoff_base=0.001)
        with SupervisedPool(
            workers=2,
            policy=policy,
            initializer=_install,
            initargs=("warm",),
            supervision=log,
        ) as pool:
            # Every first attempt kills its worker; the retries (and,
            # once the breaker trips, the in-process runs) are clean.
            assert pool.run(_echo_token, [1, 2, 3, 4]) == [
                ("warm", x) for x in (1, 2, 3, 4)
            ]
            assert log.crashes >= policy.pool_crash_threshold
            assert log.breaker_tripped
            assert pool.run(_echo_token, [5, 6]) == [("warm", 5), ("warm", 6)]
            assert pool.parallel is False


# ------------------------------------------------------- scoring integration


class TestScoringPool:
    def test_pooled_scoring_is_byte_identical(self, serve_predictor, bench_xy):
        X, ages = bench_xy
        baseline = serve_predictor.predict_proba_matrix(X, ages, workers=1)
        with serve_predictor.scoring_pool(workers=2) as pool:
            pooled_a = serve_predictor.predict_proba_matrix(X, ages, pool=pool)
            pooled_b = serve_predictor.predict_proba_matrix(X, ages, pool=pool)
        assert np.array_equal(pooled_a, baseline)
        assert np.array_equal(pooled_b, baseline)

    def test_engine_replay_with_warm_pool_matches(self, serve_predictor, bench_trace):
        from repro.serve import ScoringEngine

        offline = serve_predictor.predict_proba_records(bench_trace.records)
        engine = ScoringEngine(serve_predictor, workers=2)
        try:
            result = engine.replay(bench_trace.records, chunk_rows=512)
        finally:
            engine.close()
        assert engine._scoring_pool is None  # close() reaped it
        assert np.array_equal(result.probability, offline)


@pytest.fixture(scope="module")
def bench_trace():
    from repro.simulator import FleetConfig, simulate_fleet

    return simulate_fleet(
        FleetConfig(
            n_drives_per_model=8,
            horizon_days=200,
            deploy_spread_days=100,
            seed=21,
        )
    )


@pytest.fixture(scope="module")
def serve_predictor(bench_trace):
    from repro.core import FailurePredictor

    return FailurePredictor(lookahead=7, seed=3).fit(bench_trace)


@pytest.fixture(scope="module")
def bench_xy(bench_trace, serve_predictor):
    from repro.core import build_prediction_dataset

    dataset = build_prediction_dataset(bench_trace, lookahead=7)
    return dataset.X, dataset.age_days


_ORPHAN_SCRIPT = """
import time
from repro.resilience import SupervisedPool

pool = SupervisedPool(workers=2)
pool.run(abs, [-1, -2, -3, -4])
print(" ".join(str(h.process.pid) for h in pool._handles), flush=True)
time.sleep(120)
"""


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live (not zombie) process."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@fork_only
@pytest.mark.skipif(
    not os.path.isdir("/proc/self"), reason="reads process state from /proc"
)
def test_workers_exit_when_parent_is_sigkilled():
    # A warm pool's idle workers block waiting for tasks; a parent killed
    # outright must not leave them behind as orphans holding the model.
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.Popen(
        [sys.executable, "-c", _ORPHAN_SCRIPT],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        pids = [int(p) for p in proc.stdout.readline().split()]
        assert len(pids) == 2 and all(_running(p) for p in pids)
    finally:
        proc.kill()
        proc.wait(timeout=30)
    deadline = time.monotonic() + 10
    while any(_running(p) for p in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(_running(p) for p in pids)
