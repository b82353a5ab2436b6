"""The execution core: one supervised process pool for every fan-out.

:class:`SupervisedPool` maps a module-level ``fn`` over a task list and
yields ``(index, result)`` strictly in task order.  It is the only
engine behind :func:`repro.parallel.iter_tasks` (a one-shot pool per
call) and behind the warm scoring pool that keeps its workers, and the
model installed in them, between calls
(:meth:`repro.core.FailurePredictor.scoring_pool`).  Under its
:class:`SupervisorPolicy` it adds:

- **deadlines** — a parent-side watchdog polls every in-flight task;
  one that outlives ``policy.task_timeout`` gets its worker SIGKILLed
  and is recorded as a ``timeout`` failure instead of hanging the run;
- **deterministic retries** — a failed attempt re-dispatches the exact
  same payload after a capped exponential backoff.  Payloads carry
  their pre-spawned :class:`~numpy.random.SeedSequence` work (see
  DESIGN.md §11), so a task retried five times returns byte-identical
  results to one that succeeded first try;
- **poison handling** — a task that exhausts ``max_retries`` becomes a
  structured :class:`FailureReport`.  Under ``on_poison="quarantine"``
  the call completes every healthy task and the report lands in the
  :class:`SupervisionLog` (and from there in the run manifest); under
  ``on_poison="fail"`` the healthy prefix is yielded and
  :class:`PoisonTask`/:class:`TaskTimeout` is raised when the in-order
  stream reaches the poisoned slot, so the task named is always the
  first poisoned one in task order, whatever the timing;
- **circuit breaker** — ``pool_crash_threshold`` worker deaths (OOM
  kills, fork failures, hard crashes) trip the pool to serial
  in-process execution for the rest of its life, preserving per-task
  attempt budgets;
- **graceful shutdown** — a :class:`ShutdownRequested`/Ctrl-C caught
  while supervising stops dispatch, drains in-flight tasks, yields the
  completed in-order prefix (so the caller can checkpoint it), then
  re-raises for the CLI to exit 130.

Serial execution (one worker, unpicklable work, no pool available, a
tripped breaker) is the same loop with the tasks run in-process: the
same retry and poison bookkeeping, minus deadlines and chaos.  Without a
policy the pool runs :data:`FAIL_FAST` — no retries, first poison
raises — and an in-process task's own exception propagates unchanged.  Every retry/timeout/crash/quarantine event increments the
counters named in :data:`repro.obs.metrics.RESILIENCE_COUNTERS` and is
tallied in the pool's :class:`SupervisionLog`.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
import traceback
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field, replace
from multiprocessing import connection as mp_connection
from typing import Any

from ..obs import metrics, tracing
from ..obs.metrics import RESILIENCE_COUNTERS
from ..parallel import pool as _pool
from ..parallel.obsmerge import capture_obs, merge_obs
from . import chaos
from .shutdown import ShutdownRequested

__all__ = [
    "FAIL_FAST",
    "SupervisorPolicy",
    "SupervisedPool",
    "TaskFailure",
    "FailureReport",
    "SupervisionLog",
    "TaskTimeout",
    "PoisonTask",
    "QuarantinedRunError",
]

#: Failure kinds recorded per attempt (also the manifest schema enum).
FAILURE_KINDS = ("error", "timeout", "crash")


class PoisonTask(_pool.WorkerCrash):
    """A task exhausted its retry budget (``on_poison="fail"``)."""

    def __init__(self, message: str, report: "FailureReport"):
        super().__init__(
            message,
            task_index=report.task_index,
            worker_traceback=report.last_traceback(),
        )
        self.report = report


class TaskTimeout(PoisonTask):
    """A task exceeded its deadline on every allowed attempt."""


class QuarantinedRunError(RuntimeError):
    """A quarantine-mode run finished, but some tasks were poison.

    Raised by callers that cannot hand back a partial result (the
    chunked runner): every healthy chunk has been completed and
    checkpointed, the poisoned ones are described by ``log.quarantined``,
    and the CLI maps this to its distinct quarantine exit code.
    """

    def __init__(self, message: str, log: "SupervisionLog", completed: int, total: int):
        super().__init__(message)
        self.log = log
        self.completed = completed
        self.total = total


@dataclass(frozen=True)
class SupervisorPolicy:
    """Knobs of the supervision layer (see DESIGN.md §12 for tuning).

    Attributes
    ----------
    task_timeout:
        Per-attempt deadline in seconds; ``None`` disables the watchdog.
        Deadlines are enforced only on pooled execution — a serial
        in-process task cannot be killed from within.
    max_retries:
        Re-dispatches allowed after the first failed attempt (so a task
        runs at most ``max_retries + 1`` times).
    backoff_base, backoff_cap:
        Delay before retry ``k`` is ``min(base * 2**(k-1), cap)`` —
        deterministic on purpose: jitter here would not desynchronize
        anything (one parent schedules all retries) but would make run
        timings irreproducible.
    on_poison:
        ``"fail"`` raises :class:`PoisonTask`/:class:`TaskTimeout` for
        the first exhausted task in task order, once every task before it
        has been yielded; ``"quarantine"`` records a
        :class:`FailureReport`, skips the task's slot, and lets every
        healthy task finish.
    pool_crash_threshold:
        Worker deaths (crashes, OOM kills, failed spawns) tolerated
        before the circuit breaker trips the pool to serial in-process
        execution for the rest of its life.
    poll_interval:
        Parent watchdog heartbeat: upper bound on how long a result,
        death, deadline, or shutdown request can go unnoticed.
    drain_grace:
        On shutdown with no ``task_timeout``, how long to wait for
        in-flight tasks before abandoning them.
    """

    task_timeout: float | None = None
    max_retries: int = 2
    backoff_base: float = 0.1
    backoff_cap: float = 2.0
    on_poison: str = "fail"
    pool_crash_threshold: int = 3
    poll_interval: float = 0.05
    drain_grace: float = 10.0

    def __post_init__(self) -> None:
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError(f"task_timeout must be > 0, got {self.task_timeout}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.on_poison not in ("fail", "quarantine"):
            raise ValueError(
                f"on_poison must be 'fail' or 'quarantine', got {self.on_poison!r}"
            )
        if self.pool_crash_threshold < 1:
            raise ValueError("pool_crash_threshold must be >= 1")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff_base/backoff_cap must be >= 0")

    def backoff(self, retry_number: int) -> float:
        """Deterministic delay before the ``retry_number``-th retry (1-based)."""
        return min(self.backoff_base * (2.0 ** (retry_number - 1)), self.backoff_cap)


@dataclass
class TaskFailure:
    """One failed attempt of one task."""

    attempt: int
    kind: str  # "error" | "timeout" | "crash"
    message: str
    traceback: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {
            "attempt": self.attempt,
            "kind": self.kind,
            "message": self.message,
            "traceback": self.traceback,
        }


@dataclass
class FailureReport:
    """Everything known about a task that exhausted its retry budget."""

    task_index: int
    label: str
    attempts: int
    quarantined: bool
    errors: list[TaskFailure] = field(default_factory=list)

    def last_traceback(self) -> str | None:
        for failure in reversed(self.errors):
            if failure.traceback:
                return failure.traceback
        return None

    def to_dict(self) -> dict[str, Any]:
        return {
            "task_index": self.task_index,
            "label": self.label,
            "attempts": self.attempts,
            "quarantined": self.quarantined,
            "errors": [f.to_dict() for f in self.errors],
        }


@dataclass
class SupervisionLog:
    """Caller-visible tally of everything the supervisor had to absorb."""

    retries: int = 0
    timeouts: int = 0
    crashes: int = 0
    breaker_tripped: bool = False
    quarantined: list[FailureReport] = field(default_factory=list)

    @property
    def events(self) -> bool:
        """True when any retry/timeout/crash/quarantine/breaker event fired."""
        return bool(
            self.retries
            or self.timeouts
            or self.crashes
            or self.breaker_tripped
            or self.quarantined
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "retries": self.retries,
            "timeouts": self.timeouts,
            "crashes": self.crashes,
            "breaker_tripped": self.breaker_tripped,
            "quarantined": [r.to_dict() for r in self.quarantined],
        }

    def summary(self) -> str:
        parts = [
            f"{self.retries} retr{'y' if self.retries == 1 else 'ies'}",
            f"{self.timeouts} timeout(s)",
            f"{self.crashes} worker crash(es)",
            f"{len(self.quarantined)} quarantined task(s)",
        ]
        if self.breaker_tripped:
            parts.append("circuit breaker tripped to serial")
        return "supervision: " + ", ".join(parts)


#: The policy of a pool given none: no deadline, no retries, and the
#: first poisoned task (in task order) raises — a plain fail-fast map.
FAIL_FAST = SupervisorPolicy(max_retries=0)

# --------------------------------------------------------------------------
# internal task/worker bookkeeping
# --------------------------------------------------------------------------

#: Slot marker for a quarantined task (never yielded to the caller).
_QUARANTINED = object()


class _TaskState:
    __slots__ = ("index", "payload", "attempts", "failures", "not_before")

    def __init__(self, index: int, payload: Any):
        self.index = index
        self.payload = payload
        self.attempts = 0
        self.failures: list[TaskFailure] = []
        self.not_before = 0.0  # monotonic time before which no re-dispatch


def _inc(name: str) -> None:
    metrics.inc(name, help=RESILIENCE_COUNTERS[name])


def _worker_main(
    conn: Any, initializer: Callable[..., None] | None, initargs: tuple
) -> None:
    """Worker loop: receive ``(index, attempt, fn, task, want_obs)``, reply.

    ``fn`` and ``want_obs`` travel with every task because a kept pool
    serves many calls.  The reply is the ``(status, value, traceback,
    obs delta)`` outcome; exceptions travel back as data (the
    :func:`~repro.parallel.pool._call_task` protocol); chaos faults
    injected here are indistinguishable from real worker failures, which
    is exactly what the drill wants.
    """
    _pool._mark_worker(initializer, initargs)
    # Fork copies this pipe's parent end into this worker (and into
    # siblings forked later), so the pipe never reports EOF when the
    # parent is SIGKILLed: watch the parent itself too, or an orphaned
    # worker would block in recv() forever.
    parent = multiprocessing.parent_process()
    watched = [conn] if parent is None else [conn, parent.sentinel]
    while True:
        if conn not in mp_connection.wait(watched):
            break  # parent gone
        try:
            item = conn.recv()
        except (EOFError, OSError):
            break
        if item is None:
            break
        index, attempt, fn, task, want_obs = item
        try:
            chaos.maybe_inject(index, attempt)
            out = _pool._call_task((fn, task, want_obs))
        except chaos.ChaosError as exc:
            out = ("error", f"ChaosError: {exc}", traceback.format_exc(), None)
        try:
            conn.send(out)
        except Exception:
            # Unpicklable/unsendable result: report the failure instead of
            # dying silently (a silent death would read as a pool crash).
            try:
                conn.send(
                    (
                        "error",
                        "task result could not be sent back to the parent",
                        traceback.format_exc(),
                        None,
                    )
                )
            except Exception:  # pragma: no cover - pipe gone entirely
                break


class _WorkerHandle:
    """One worker process plus its dedicated message pipe."""

    __slots__ = ("conn", "process", "state", "deadline")

    def __init__(
        self,
        ctx: multiprocessing.context.BaseContext,
        initializer: Callable[..., None] | None,
        initargs: tuple,
    ):
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.conn = parent_conn
        self.process = ctx.Process(
            target=_worker_main,
            args=(child_conn, initializer, initargs),
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self.state: _TaskState | None = None
        self.deadline: float | None = None

    def assign(
        self,
        state: _TaskState,
        fn: Callable[[Any], Any],
        want_obs: bool,
        policy: SupervisorPolicy,
    ) -> None:
        self.conn.send((state.index, state.attempts, fn, state.payload, want_obs))
        self.state = state
        self.deadline = (
            time.monotonic() + policy.task_timeout
            if policy.task_timeout is not None
            else None
        )

    def release(self) -> _TaskState | None:
        state, self.state, self.deadline = self.state, None, None
        return state

    def stop(self, kill: bool = False) -> None:
        """Shut the worker down; ``kill=True`` skips the polite attempt."""
        if not kill and self.process.is_alive():
            try:
                self.conn.send(None)
            except (OSError, ValueError, BrokenPipeError):
                pass
            self.process.join(timeout=0.5)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=5.0)
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass


# --------------------------------------------------------------------------
# failure handling shared by the pooled and serial paths
# --------------------------------------------------------------------------


def _schedule_retry(
    state: _TaskState, policy: SupervisorPolicy, log: SupervisionLog
) -> bool:
    """Arm the next attempt; ``False`` when the retry budget is exhausted."""
    if state.attempts > policy.max_retries:
        return False
    log.retries += 1
    _inc("repro_task_retries_total")
    state.not_before = time.monotonic() + policy.backoff(state.attempts)
    return True


def _poison(
    state: _TaskState, policy: SupervisorPolicy, log: SupervisionLog, label: str
) -> object:
    """An out-of-retries task's slot: quarantined, or the error to raise."""
    report = FailureReport(
        task_index=state.index,
        label=label,
        attempts=state.attempts,
        quarantined=policy.on_poison == "quarantine",
        errors=list(state.failures),
    )
    if report.quarantined:
        log.quarantined.append(report)
        _inc("repro_tasks_quarantined_total")
        return _QUARANTINED
    kinds = {f.kind for f in report.errors}
    if kinds == {"timeout"}:
        return TaskTimeout(
            f"{label}: task {state.index} exceeded its "
            f"{policy.task_timeout}s deadline on all {report.attempts} attempt(s)",
            report,
        )
    last = report.errors[-1].message if report.errors else "unknown failure"
    return PoisonTask(
        f"{label}: task {state.index} is poison after "
        f"{report.attempts} attempt(s); last failure: {last}",
        report,
    )


def _merge_success(delta: Any, attempts: int) -> None:
    """Fold the winning attempt's obs delta into the parent collectors.

    Failed attempts' deltas are dropped (their spans would double-count
    stage aggregates); retried tasks are visible instead through the
    ``attempt`` attribute stamped on the surviving spans and through the
    resilience counters.
    """
    extra = {"attempt": attempts} if attempts > 1 else None
    merge_obs(delta, extra_attrs=extra)


def _pop_ready(
    pending: list[_TaskState], now: float, below: int
) -> _TaskState | None:
    """The first pending task due by ``now`` with an index under ``below``."""
    for i, state in enumerate(pending):
        if state.not_before <= now and state.index < below:
            return pending.pop(i)
    return None


def _next_wait(
    workers: list[_WorkerHandle],
    pending: list[_TaskState],
    policy: SupervisorPolicy,
    now: float,
) -> float:
    """How long the parent may sleep before the next scheduled event."""
    timeout = policy.poll_interval
    for handle in workers:
        if handle.deadline is not None:
            timeout = min(timeout, handle.deadline - now)
    for state in pending:
        if state.not_before > now:
            timeout = min(timeout, state.not_before - now)
    return max(timeout, 0.0)


# --------------------------------------------------------------------------
# the pool
# --------------------------------------------------------------------------


class SupervisedPool:
    """A supervised worker pool that keeps its workers between calls.

    Parameters
    ----------
    workers:
        Worker processes; ``None`` resolves via
        :func:`repro.parallel.resolve_workers`.  One worker means serial
        in-process execution.
    policy:
        The :class:`SupervisorPolicy`; ``None`` is :data:`FAIL_FAST`.
    initializer, initargs:
        Per-worker setup (e.g. installing a model bundle), run once per
        worker process — and once in-process before the first task the
        pool runs serially.
    label:
        Stage prefix used in error messages and failure reports.
    supervision:
        The :class:`SupervisionLog` every call tallies into (a fresh one
        when ``None``; readable as :attr:`log`).

    Workers spawn on demand and stay warm until :meth:`close` (or the
    end of a ``with`` block).  A call that ends early — poison,
    shutdown, or a consumer that stops iterating — kills only the
    workers still busy with its tasks, so no result outlives its call;
    idle workers stay warm.  A tripped breaker, an unpicklable
    initializer or a pool that cannot start leaves the pool serial for
    the rest of its life.
    """

    def __init__(
        self,
        workers: int | None = None,
        policy: SupervisorPolicy | None = None,
        initializer: Callable[..., None] | None = None,
        initargs: tuple = (),
        label: str = "repro.parallel",
        supervision: SupervisionLog | None = None,
    ):
        self.workers = _pool.resolve_workers(workers)
        self._bare = policy is None  # see _run_inline
        self.policy = policy if policy is not None else FAIL_FAST
        self.log = supervision if supervision is not None else SupervisionLog()
        self.label = label
        self._initializer = initializer
        self._initargs = initargs
        self._ctx = multiprocessing.get_context(_pool._START_METHOD)
        self._handles: list[_WorkerHandle] = []
        self._crashes = 0
        self._installed = False
        self._closed = False
        self._serial = self.workers <= 1
        if not self._serial:
            try:
                pickle.dumps((initializer, initargs))
            except Exception:
                self._serial = True  # e.g. a lambda model factory

    @property
    def parallel(self) -> bool:
        """Whether calls fan out to worker processes (not serial)."""
        return not self._serial and not self._closed

    # ------------------------------------------------------------------ calls
    def imap(
        self, fn: Callable[[Any], Any], tasks: Iterable[Any]
    ) -> Iterator[tuple[int, Any]]:
        """Map ``fn`` over ``tasks``; yield ``(index, result)`` in order.

        ``fn`` must be module-level (picklable) to fan out; otherwise the
        call runs serially.  Quarantined tasks' indices are skipped (the
        :attr:`log` names them).
        """
        if self._closed:
            raise _pool.WorkerCrash(f"{self.label}: pool used after close()")
        states = [_TaskState(i, task) for i, task in enumerate(tasks)]
        if not states:
            return
        want_obs = tracing.current() is not None or metrics.current() is not None
        pooled = not self._serial
        if pooled:
            try:
                pickle.dumps((fn, states[0].payload))
            except Exception:
                pooled = False
        yield from self._supervise(fn, states, want_obs, pooled)

    def run(self, fn: Callable[[Any], Any], tasks: Iterable[Any]) -> list[Any]:
        """Eager :meth:`imap`: the results as a list, in task order."""
        return [value for _, value in self.imap(fn, tasks)]

    # ------------------------------------------------------------------ workers
    def _spawn(self) -> bool:
        try:
            self._handles.append(
                _WorkerHandle(self._ctx, self._initializer, self._initargs)
            )
            return True
        except (OSError, ValueError):
            self._crash()
            return False

    def _crash(self) -> None:
        self._crashes += 1
        self.log.crashes += 1
        _inc("repro_pool_crashes_total")

    def _reap(self, handle: _WorkerHandle, kill: bool) -> None:
        handle.stop(kill=kill)
        self._handles.remove(handle)

    def _trip_breaker(self, pending: list[_TaskState]) -> None:
        """Repeated worker deaths: the machine, not a task, is the problem."""
        self._serial = True
        self.log.breaker_tripped = True
        _inc("repro_breaker_trips_total")
        for handle in list(self._handles):
            state = handle.release()
            if state is not None:
                pending.append(state)
            self._reap(handle, kill=True)

    def _run_inline(
        self, fn: Callable[[Any], Any], state: _TaskState, want_obs: bool
    ) -> tuple[str, Any, str | None, Any]:
        """One in-process attempt (no deadline, no chaos).

        Without a policy there is nothing to retry or report, so the
        task's own exception propagates unchanged — its type is part of
        library contracts (e.g. ``cross_validate_auc``'s ``ValueError``).
        """
        if not self._installed:
            if self._initializer is not None:
                self._initializer(*self._initargs)
            self._installed = True
        delay = state.not_before - time.monotonic()
        if delay > 0:
            time.sleep(delay)  # retry backoff
        state.attempts += 1
        if self._bare:
            with capture_obs(enabled=want_obs) as delta:
                value = fn(state.payload)
            return ("ok", value, None, delta)
        return _pool._call_task((fn, state.payload, want_obs))

    # ------------------------------------------------------------------ loop
    def _supervise(
        self,
        fn: Callable[[Any], Any],
        states: list[_TaskState],
        want_obs: bool,
        pooled: bool,
    ) -> Iterator[tuple[int, Any]]:
        policy, log, label = self.policy, self.log, self.label
        n_tasks = len(states)
        pending: list[_TaskState] = list(states)
        # index -> (value, delta, attempts) | _QUARANTINED | error to raise
        results: dict[int, Any] = {}
        next_yield = 0
        poison_at = n_tasks  # lowest poisoned slot; no dispatch at or past it
        draining = False
        drain_deadline = float("inf")
        shutdown_exc: BaseException | None = None

        def settle(state: _TaskState, outcome: tuple) -> None:
            """Record one finished attempt: a result, a retry, or poison."""
            nonlocal poison_at
            status, value, tb, delta = outcome
            if status == "ok":
                results[state.index] = (value, delta, state.attempts)
                return
            state.failures.append(
                TaskFailure(
                    attempt=state.attempts,
                    kind=status,
                    message=value,
                    traceback=tb or "",
                )
            )
            if draining:
                return  # no retries while shutting down; --resume redoes it
            if _schedule_retry(state, policy, log):
                pending.append(state)
                return
            slot = _poison(state, policy, log, label)
            results[state.index] = slot
            if slot is not _QUARANTINED:
                poison_at = min(poison_at, state.index)

        try:
            while True:
                try:
                    # Yield every result that extends the in-order prefix.
                    while next_yield in results:
                        slot = results.pop(next_yield)
                        if isinstance(slot, BaseException):
                            raise slot
                        if slot is not _QUARANTINED:
                            value, delta, attempts = slot
                            _merge_success(delta, attempts)
                            yield next_yield, value
                        next_yield += 1
                    if next_yield >= n_tasks:
                        return
                    busy = [h for h in self._handles if h.state is not None]
                    if draining and not busy:
                        raise shutdown_exc  # drained everything in flight

                    if pooled and self._crashes >= policy.pool_crash_threshold:
                        self._trip_breaker(pending)
                    pooled = pooled and not self._serial
                    if not pooled:
                        # Serial: the lowest pending index is always the
                        # next slot to yield.
                        state = min(pending, key=lambda s: s.index)
                        pending.remove(state)
                        settle(state, self._run_inline(fn, state, want_obs))
                        continue

                    now = time.monotonic()
                    # Keep the pool at strength and the idle workers busy.
                    if not draining:
                        ready = sum(1 for s in pending if s.index < poison_at)
                        while len(self._handles) < min(
                            self.workers, len(busy) + ready
                        ):
                            if not self._spawn():
                                break
                        if not self._handles:
                            self._serial = True  # no pool can start here
                            continue
                        for handle in self._handles:
                            if (
                                handle.state is not None
                                or not handle.process.is_alive()
                            ):
                                continue
                            state = _pop_ready(pending, now, poison_at)
                            if state is None:
                                break
                            state.attempts += 1
                            try:
                                handle.assign(state, fn, want_obs, policy)
                            except (OSError, ValueError, BrokenPipeError):
                                # Died between poll and send: crash-account it.
                                pending.append(state)
                                state.attempts -= 1
                                self._crash()
                                self._reap(handle, kill=True)
                                break

                    waitables: list[Any] = []
                    for handle in self._handles:
                        waitables.append(handle.conn)
                        waitables.append(handle.process.sentinel)
                    wait = _next_wait(self._handles, pending, policy, now)
                    if waitables:
                        mp_connection.wait(waitables, timeout=wait)
                    else:
                        time.sleep(wait)

                    now = time.monotonic()
                    if draining and now >= drain_deadline:
                        raise shutdown_exc  # in-flight work refused to finish

                    for handle in list(self._handles):
                        # 1. completed result (consume before declaring
                        #    death: a worker may finish, then die).
                        try:
                            has_data = handle.conn.poll()
                        except (OSError, EOFError):
                            has_data = False
                        if has_data:
                            try:
                                msg = handle.conn.recv()
                            except (EOFError, OSError):
                                msg = None
                            if msg is not None:
                                state = handle.release()
                                if state is not None:
                                    settle(state, msg)
                                continue
                        # 2. worker death (crash, OOM kill, chaos kill).
                        if not handle.process.is_alive():
                            state = handle.release()
                            self._crash()
                            self._reap(handle, kill=True)
                            if state is not None:
                                settle(
                                    state,
                                    (
                                        "crash",
                                        "worker process died while running "
                                        f"task {state.index} (exit code "
                                        f"{handle.process.exitcode})",
                                        None,
                                        None,
                                    ),
                                )
                            continue
                        # 3. deadline exceeded: the watchdog turns a
                        #    wedged worker into a recorded timeout.
                        if (
                            handle.state is not None
                            and handle.deadline is not None
                            and now >= handle.deadline
                        ):
                            state = handle.release()
                            log.timeouts += 1
                            _inc("repro_task_timeouts_total")
                            self._reap(handle, kill=True)
                            settle(
                                state,
                                (
                                    "timeout",
                                    f"task {state.index} exceeded the "
                                    f"{policy.task_timeout}s deadline",
                                    None,
                                    None,
                                ),
                            )
                except (ShutdownRequested, KeyboardInterrupt) as exc:
                    if draining:
                        raise  # second signal: stop waiting, abandon the drain
                    draining = True
                    shutdown_exc = exc
                    drain_deadline = time.monotonic() + (
                        policy.task_timeout
                        if policy.task_timeout is not None
                        else policy.drain_grace
                    )
        finally:
            # Workers still busy hold this call's tasks: kill them so no
            # result outlives the call.  Idle workers stay warm.
            for handle in list(self._handles):
                if handle.state is not None:
                    handle.release()
                    self._reap(handle, kill=True)

    # ------------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Reap the worker processes; the pool cannot be reused."""
        handles, self._handles = self._handles, []
        for handle in handles:
            handle.stop()
        self._closed = True

    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def force_fail(policy: SupervisorPolicy | None) -> SupervisorPolicy | None:
    """A copy of ``policy`` with ``on_poison="fail"``.

    For call sites that must hand back a *complete* result (fleet shards
    concatenated into one trace, scoring shards concatenated into one
    probability vector) — a quarantined hole there would silently corrupt
    the output, so poison must raise instead.
    """
    if policy is None or policy.on_poison == "fail":
        return policy
    return replace(policy, on_poison="fail")
