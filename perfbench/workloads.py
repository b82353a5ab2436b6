"""The three benchmark workloads, driven through the program's public API.

Every workload is a pair of phases run once per repetition: a timed main
phase and a timed recovery phase that rebuilds the run's output from what
the main phase left on disk.  Each repetition works in a fresh directory
and checks its outputs against references computed before timing; a
failed check is counted, never raised, so the run still reports.
Module-level functions are called through their modules so that the
traced run can time them.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.predictor import FailurePredictor
from repro.data.dataset import DriveDayDataset
from repro.data.io import iter_drive_days
from repro.data.store import save_dataset_store
from repro.fleet import (
    AuditJournal,
    FleetHealth,
    PolicyRunner,
    policy_from_spec,
    run_whatif,
)
from repro.fleet import audit as fleet_audit
from repro.resilience.chaos import chaos_telemetry_events
from repro.serve import (
    AdmissionGuard,
    BatchPolicy,
    DeadLetterQueue,
    EventJournal,
    FeatureStore,
    LoadProfile,
    RVConfig,
    ScoringEngine,
    ServeBreaker,
)
from repro.serve import dlq as serve_dlq
from repro.serve import shard as serve_shard
from repro.simulator import FleetConfig
from repro.simulator.fleet import simulate_fleet

#: Stream names for the seeds derived from the benchmark's ``--seed``.
SEED_STREAMS = {"simulator": 0, "chaos": 2, "loadgen": 3, "drives": 4}


def derive_seed(seed: int, stream: str) -> int:
    """A 31-bit seed for one input generator, derived from ``seed``."""
    ss = np.random.SeedSequence([int(seed), SEED_STREAMS[stream]])
    return int(ss.generate_state(1)[0] >> 1)


def durable_bytes(root: Path) -> int:
    """Bytes of every JSONL log and NPZ checkpoint under ``root``."""
    return sum(
        p.stat().st_size
        for p in root.rglob("*")
        if p.is_file() and p.suffix in (".jsonl", ".npz")
    )


def bytes_per_line(paths) -> float:
    """Mean bytes per line over the JSONL files ``paths``."""
    size = lines = 0
    for path in paths:
        size += path.stat().st_size
        with open(path, "rb") as fh:
            lines += sum(1 for _ in fh)
    return size / lines if lines else 0.0


def mismatches(got, want) -> int:
    """Scores that differ bit for bit (every row when the lengths differ)."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return max(len(got), len(want))
    return int(np.count_nonzero(got.view(np.uint64) != want.view(np.uint64)))


# --------------------------------------------------------------------------
# set-up: simulate, pack, fit, offline reference scores
# --------------------------------------------------------------------------

@dataclass
class Inputs:
    """Everything set-up produces; the timed phases only read it."""

    trace: object
    cst_path: Path
    predictor: FailurePredictor
    offline: np.ndarray
    timings: dict[str, float]


def _fleet_config(fleet: dict, seed: int) -> FleetConfig:
    return FleetConfig(
        n_drives_per_model=int(fleet["n_drives_per_model"]),
        horizon_days=int(fleet["horizon_days"]),
        deploy_spread_days=int(fleet["deploy_spread_days"]),
        seed=seed,
    )


def set_up(fleet: dict, seed: int, work: Path) -> Inputs:
    """One set-up pass; returns the inputs plus the time of each step.

    The served model is trained on a fleet simulated from the fixed
    ``model_seed``: it is the program's configuration, like an activated
    registry version, so ``seed`` varies the traffic and not the forest
    whose size sets the scoring cost.
    """
    t = {}
    t0 = time.perf_counter()
    history = simulate_fleet(_fleet_config(fleet, int(fleet["model_seed"])))
    trace = simulate_fleet(_fleet_config(fleet, derive_seed(seed, "simulator")))
    t1 = time.perf_counter()
    work.mkdir(parents=True, exist_ok=True)
    cst_path = work / "records.cst"
    save_dataset_store(trace.records, cst_path)
    t2 = time.perf_counter()
    predictor = FailurePredictor(
        lookahead=int(fleet["lookahead"]), seed=int(fleet["model_seed"])
    ).fit(history)
    t3 = time.perf_counter()
    offline = predictor.predict_proba_records(trace.records)
    t4 = time.perf_counter()
    t["simulator.simulate_fleet.s"] = t1 - t0
    t["data.store.save_dataset_store.s"] = t2 - t1
    t["core.predictor.fit.s"] = t3 - t2
    t["core.predictor.offline_scores.s"] = t4 - t3
    t["setup_s"] = t4 - t0
    return Inputs(trace, cst_path, predictor, offline, t)


# --------------------------------------------------------------------------
# one repetition's measurements
# --------------------------------------------------------------------------

@dataclass
class Rep:
    """What one repetition measured and checked."""

    events: int = 0  # events offered to the main phase
    main_s: float = 0.0
    recovery_events: int = 0
    recovery_s: float = 0.0
    latencies: list[float] = field(default_factory=list)
    #: (start, end) perf_counter stamps of the timed phases.
    windows: list[tuple[float, float]] = field(default_factory=list)
    durable_bytes: int = 0
    #: Mean host-kernel time around the repetition (untraced runs).
    host_s: float = 0.0
    #: The process's RSS high-water mark during the repetition, in MB.
    peak_rss_mb: float = 0.0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: Extra per-layer quantities the workload knows without tracing.
    layer: dict[str, float] = field(default_factory=dict)

    def timed(self, start: float, recovery: bool = False) -> None:
        """Close a timed phase that began at ``start``."""
        end = time.perf_counter()
        self.windows.append((start, end))
        if recovery:
            self.recovery_s = end - start
        else:
            self.main_s = end - start

    def check(self, ok: bool, what: str, weight: int = 1) -> None:
        if not ok:
            self.failed += max(int(weight), 1)
            self.problems.append(what)


class Workload:
    """Base: ``prepare`` once before timing, then ``run`` per repetition."""

    name = ""

    def __init__(self, spec: dict, policy_spec: dict, inputs: Inputs, seed: int):
        self.spec = spec
        self.policy = policy_from_spec(
            {k: v for k, v in policy_spec.items() if k != "source"})
        self.inputs = inputs
        self.seed = seed

    def prepare(self, work: Path) -> None:
        """Build the generated inputs and check references (untimed)."""

    def run(self, rep_dir: Path, corrupt: bool = False, **options) -> Rep:
        raise NotImplementedError


def _corrupted(probs: np.ndarray) -> np.ndarray:
    """A copy of ``probs`` with one score's lowest bit flipped."""
    out = np.array(probs, dtype=np.float64, copy=True)
    if out.size:
        bits = out.view(np.uint64)
        bits[out.size // 2] ^= np.uint64(1)
    return out


class ReplayScan(Workload):
    name = "replay-scan"

    def prepare(self, work: Path) -> None:
        records = self.inputs.trace.records
        rows = int(self.spec["arrival"]["rows"])
        n = len(records)
        # Deliveries are zero-copy row slices of the in-memory trace.
        self.deliveries = [
            DriveDayDataset(
                {k: v[lo : lo + rows] for k, v in records.items()},
                check_sorted=False,
            )
            for lo in range(0, n, rows)
        ]
        self.rows = rows
        _, ref = run_whatif(
            self.inputs.trace,
            self.policy,
            probs=self.inputs.offline,
            journal_path=work / "reference-audit.jsonl",
        )
        self.ref_state = ref.state.digest()
        self.ref_chain = ref.chain

    def run(self, rep_dir: Path, corrupt: bool = False, **options) -> Rep:
        rep = Rep()
        rep_dir.mkdir(parents=True, exist_ok=True)
        journal = AuditJournal(rep_dir / "audit.jsonl")
        try:
            runner = PolicyRunner(self.policy, journal=journal)
            engine = ScoringEngine(self.inputs.predictor, on_scored=runner.feed)
            parts = []
            lat = rep.latencies
            t0 = time.perf_counter()
            for delivery in self.deliveries:
                s = time.perf_counter()
                result = engine.replay(delivery, chunk_rows=self.rows)
                lat.append(time.perf_counter() - s)
                parts.append(result.probability)
            outcome = runner.finalize()
            snapshot = outcome.health.snapshot(rep_dir / "health.npz")
            rep.timed(t0)
        finally:
            journal.close()
        rep.events = len(self.inputs.offline)
        probs = np.concatenate(parts)
        if corrupt:
            probs = _corrupted(probs)
        bad = mismatches(probs, self.inputs.offline)
        rep.check(not bad, "replayed scores differ from predict_proba_records", bad)
        rep.check(
            outcome.state.digest() == self.ref_state,
            "fleet state digest differs from run_whatif(probs=offline)",
        )
        rep.check(
            outcome.chain == self.ref_chain,
            "audit chain differs from run_whatif(probs=offline)",
        )
        rep.check(outcome.n_events == rep.events, "fleet tap lost events",
                  weight=abs(rep.events - outcome.n_events))
        rep.layer["fleet.decide.days"] = outcome.n_days
        # Recovery: restore fleet health and rebuild the fleet state from
        # the audit journal (the `fleet audit --verify` path).
        t0 = time.perf_counter()
        health = FleetHealth.restore(snapshot)
        report = fleet_audit.verify_journal(rep_dir / "audit.jsonl")
        rep.timed(t0, recovery=True)
        rep.recovery_events = outcome.n_events
        rep.check(
            health.state_digest() == outcome.health.state_digest(),
            "restored fleet health differs from the live run",
        )
        rep.check(
            report.ok and report.state.digest() == outcome.state.digest(),
            "audit journal does not verify to the live fleet state",
        )
        rep.durable_bytes = durable_bytes(rep_dir)
        return rep


class DurablePlane(Workload):
    name = "durable-plane"

    def prepare(self, work: Path) -> None:
        arrival = self.spec["arrival"]
        # One burst schedule per seed, reused by every repetition, so the
        # inputs measured do not depend on how many repetitions fit.
        self.profile = LoadProfile(
            RVConfig(
                mean=float(arrival["mean"]),
                distribution=arrival["distribution"],
                variance=float(arrival["variance"]),
            ),
            seed=derive_seed(self.seed, "loadgen"),
        )

    def run(self, rep_dir: Path, corrupt: bool = False, workers: int | None = None,
            **options) -> Rep:
        rep = Rep()
        plane = rep_dir / "plane"
        workers = int(self.spec["workers"]) if workers is None else workers
        t0 = time.perf_counter()
        result = serve_shard.run_sharded_replay(
            self.inputs.predictor,
            self.inputs.cst_path,
            int(self.spec["shards"]),
            plane,
            chunk_rows=int(self.spec["chunk_rows"]),
            checkpoint_every=int(self.spec["checkpoint_every"]),
            workers=workers,
            load_profile=self.profile,
        )
        rep.timed(t0)
        offline = self.inputs.offline
        rep.events = len(offline)
        probs = _corrupted(result.probability) if corrupt else result.probability
        bad = mismatches(probs, offline)
        rep.check(
            not bad and np.array_equal(result.accepted_index, np.arange(len(offline))),
            "merged plane scores differ from predict_proba_records",
            bad,
        )
        rep.check(
            result.n_diverted == 0 and result.n_duplicates == 0,
            "clean trace had diverted or duplicate rows",
            weight=result.n_diverted + result.n_duplicates,
        )
        for shard in result.shards:
            rep.latencies.extend(shard.get("delivery_s", ()))
        rows = [s["rows_seen"] for s in result.shards]
        elapsed = [s["elapsed_seconds"] for s in result.shards]
        rep.layer["serve.partition.skew"] = max(rows) / (sum(rows) / len(rows))
        rep.layer["serve.shard.elapsed_max_s"] = max(elapsed)
        rep.layer["parallel.dispatch_s"] = rep.main_s - max(elapsed)
        t0 = time.perf_counter()
        disk_probs, disk_index = serve_shard.plane_scores(plane)
        rep.timed(t0, recovery=True)
        rep.recovery_events = len(disk_probs)
        rep.check(
            not mismatches(disk_probs, result.probability)
            and np.array_equal(disk_index, result.accepted_index),
            "plane_scores(plane) differs from the in-memory merge",
        )
        rep.layer["serve.dlq.journal_bytes_per_record"] = bytes_per_line(
            plane.glob("shard-*/journal.jsonl"))
        rep.layer["serve.shard.checkpoint.count"] = len(
            list(plane.glob("shard-*/checkpoint-*.npz"))
        )
        rep.layer["serve.guard.accept_ratio"] = result.n_events / result.n_rows
        rep.durable_bytes = durable_bytes(rep_dir)
        return rep


class SickStream(Workload):
    name = "sick-stream"

    def prepare(self, work: Path) -> None:
        records = self.inputs.trace.records
        ids = np.asarray(records["drive_id"])
        drives, counts = np.unique(ids, return_counts=True)
        # A seeded set of whole drive histories, at least target_events rows.
        order = np.random.default_rng(derive_seed(self.seed, "drives")).permutation(
            len(drives)
        )
        target = int(self.spec["arrival"]["target_events"])
        take = int(np.searchsorted(np.cumsum(counts[order]), target)) + 1
        chosen = np.sort(drives[order[:take]])
        mask = np.isin(ids, chosen)
        self.clean = records.select(mask)
        self.offline = self.inputs.offline[mask]
        self.refetch = {
            (int(r["drive_id"]), int(r["age_days"])): r
            for r in iter_drive_days(self.clean)
        }
        rates = {k: v for k, v in self.spec["chaos"].items() if k != "source"}
        self.events = list(
            chaos_telemetry_events(
                iter_drive_days(self.clean),
                [(mode, float(rates[mode])) for mode in sorted(rates)],
                derive_seed(self.seed, "chaos"),
            )
        )

    def run(self, rep_dir: Path, corrupt: bool = False, **options) -> Rep:
        rep = Rep()
        rep_dir.mkdir(parents=True, exist_ok=True)
        journal_path = rep_dir / "journal.jsonl"
        dlq_path = rep_dir / "dlq.jsonl"
        audit_path = rep_dir / "audit.jsonl"
        dlq = DeadLetterQueue(dlq_path)
        journal = EventJournal(journal_path)
        audit = AuditJournal(audit_path)
        try:
            store = FeatureStore()
            guard = AdmissionGuard(
                store, dlq=dlq, journal=journal, breaker=ServeBreaker()
            )
            runner = PolicyRunner(self.policy, journal=audit)
            engine = ScoringEngine(
                self.inputs.predictor,
                store=store,
                batch_policy=BatchPolicy(max_batch_size=1),
                guard=guard,
                on_scored=runner.feed,
            )
            lat = rep.latencies
            scored = 0
            t0 = time.perf_counter()
            for event in self.events:
                s = time.perf_counter()
                out = engine.submit(event)
                if out:
                    lat.append(time.perf_counter() - s)
                    scored += len(out)
            scored += len(engine.drain())
            rep.timed(t0)
            # The decision pass runs outside both timed phases.
            outcome = runner.finalize()
        finally:
            dlq.close()
            journal.close()
            audit.close()
        stats = guard.stats
        rep.events = len(self.events)
        accounted = stats.admitted + stats.dead_lettered + stats.duplicates_dropped
        rep.check(
            accounted == rep.events,
            f"{rep.events - accounted} emitted event(s) unaccounted by the guard",
            weight=abs(rep.events - accounted),
        )
        rep.check(scored == stats.admitted, "an admitted event produced no score",
                  weight=abs(stats.admitted - scored))
        rep.check(outcome.n_events == stats.admitted, "fleet tap lost events",
                  weight=abs(stats.admitted - outcome.n_events))
        rep.check(fleet_audit.verify_journal(audit_path).ok,
                  "audit journal does not verify")
        rep.layer["serve.guard.accept_ratio"] = stats.admitted / rep.events
        rep.layer["fleet.decide.days"] = outcome.n_days

        # Heal: journal + DLQ + refetch -> plan -> fresh guarded engine.
        t0 = time.perf_counter()
        journal_events = EventJournal.read(journal_path)
        entries = DeadLetterQueue.read(dlq_path)
        plan = serve_dlq.build_heal_plan(journal_events, entries, refetch=self.refetch)
        heal_store = FeatureStore()
        heal_guard = AdmissionGuard(heal_store, breaker=ServeBreaker())
        heal_engine = ScoringEngine(
            self.inputs.predictor, store=heal_store, guard=heal_guard
        )
        healed = np.asarray(
            [ev.probability for ev in heal_engine.score_stream(plan.events)],
            dtype=np.float64,
        )
        rep.timed(t0, recovery=True)
        rep.recovery_events = len(plan.events)
        if corrupt:
            healed = _corrupted(healed)
        rejected = heal_guard.stats.dead_lettered + heal_guard.stats.duplicates_dropped
        rep.check(not plan.unhealable,
                  f"{len(plan.unhealable)} dead letter(s) unhealable",
                  weight=len(plan.unhealable))
        rep.check(rejected == 0, f"{rejected} healed event(s) failed re-admission",
                  weight=rejected)
        bad = mismatches(healed, self.offline)
        rep.check(not bad, "healed scores differ from predict_proba_records", bad)
        rep.layer["serve.dlq.journal_bytes_per_record"] = bytes_per_line([journal_path])
        rep.durable_bytes = durable_bytes(rep_dir)
        return rep


WORKLOADS = {cls.name: cls for cls in (ReplayScan, DurablePlane, SickStream)}


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0
