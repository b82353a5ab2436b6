"""Repository benchmark: three workloads, end-to-end metrics, per-layer ledger.

Run from the repository root::

    python3 perfbench/run.py --workload replay-scan --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.  ``--trace
1`` alternates untraced and traced repetitions and reports per-layer self
time, counts and ratios, the unattributed remainder and the tracing
overhead.  Workload names, their reasons and the metric names and units
come from ``BENCHMARK.json``; workload parameters with their sources,
loop types, checks and the layer-to-metric predictions live in
``perfbench/workloads.json``.
Human-readable lines go to standard output first; the last line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 when every correctness check passed and 1 when one failed; a
missing program source tree exits 2 and an exception in the program exits
non-zero with its traceback, printing no result.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS_FILE = HERE / "workloads.json"
SPEC_FILE = ROOT / "BENCHMARK.json"

#: Layers timed from outside in the traced run: (module, class name or
#: None for a module-level function, attribute, layer).  The engine loop
#: methods share the layer ``serve.engine``, whose self time is the loop
#: residual.  Functions the benchmark calls itself are looked up through
#: their modules, so patching the module attribute reaches them.
TRACED_CALLS = [
    ("repro.core.predictor", "FailurePredictor", "predict_proba_matrix",
     "core.predictor.predict_proba_matrix"),
    ("repro.fleet.whatif", "PolicyRunner", "feed", "fleet.whatif.feed"),
    ("repro.fleet.whatif", "PolicyRunner", "finalize", "fleet.whatif.finalize"),
    ("repro.fleet.audit", "AuditJournal", "append", "fleet.audit.append"),
    ("repro.fleet.audit", None, "verify_journal", "fleet.audit.verify_journal"),
    ("repro.fleet.health", "FleetHealth", "snapshot", "fleet.health.snapshot"),
    ("repro.fleet.health", "FleetHealth", "restore", "fleet.health.restore"),
    ("repro.serve.dlq", "EventJournal", "record", "serve.dlq.journal_record"),
    ("repro.serve.dlq", "EventJournal", "read", "serve.dlq.journal_read"),
    ("repro.serve.dlq", "DeadLetterQueue", "divert", "serve.dlq.divert"),
    ("repro.serve.dlq", "DeadLetterQueue", "read", "serve.dlq.dlq_read"),
    ("repro.serve.dlq", None, "build_heal_plan", "serve.dlq.build_heal_plan"),
    ("repro.serve.guard", "AdmissionGuard", "admit_columns", "serve.guard.admit_columns"),
    ("repro.serve.guard", "AdmissionGuard", "admit", "serve.guard.admit"),
    ("repro.serve.feature_store", "FeatureStore", "ingest_columns",
     "serve.feature_store.ingest_columns"),
    ("repro.serve.feature_store", "FeatureStore", "ingest", "serve.feature_store.ingest"),
    ("repro.serve.partition", "PartitionMap", "shard_of_array",
     "serve.partition.shard_of_array"),
    ("repro.serve.shard", None, "run_sharded_replay", "serve.shard.run_sharded_replay"),
    ("repro.serve.shard", None, "write_rotated", "serve.shard.checkpoint"),
    ("repro.serve.shard", None, "plane_scores", "serve.shard.plane_scores"),
    ("repro.serve.loadgen", None, "burst_chunks", "serve.loadgen.burst_chunks"),
    ("repro.serve.engine", None, "iter_drive_day_chunks",
     "data.io.iter_drive_day_chunks"),
    ("repro.serve.shard", None, "iter_drive_day_chunks", "data.io.iter_drive_day_chunks"),
    ("repro.serve.engine", "ScoringEngine", "replay", "serve.engine"),
    ("repro.serve.engine", "ScoringEngine", "submit", "serve.engine"),
    ("repro.serve.engine", "ScoringEngine", "drain", "serve.engine"),
    ("repro.serve.shard", None, "run_shard_task", "serve.engine"),
]

#: Rows handed to a layer per call, for rows-per-call and ratio metrics.
ROWS = {
    "core.predictor.predict_proba_matrix": lambda args: int(args[1].shape[0]),
    "serve.guard.admit_columns": lambda args: len(args[1]["drive_id"]),
}

#: Layers whose self time and call count are reported.
TIMED_LAYERS = list(dict.fromkeys(
    layer for *_, layer in TRACED_CALLS if layer != "serve.engine"))


def metric_units(spec: dict, group: str) -> dict[str, str]:
    """Metric name -> unit for ``group`` of ``BENCHMARK.json``."""
    return {m["name"]: m["unit"] for m in spec[group]}


# --------------------------------------------------------------------------
# measurement helpers
# --------------------------------------------------------------------------

class HostKernel:
    """A fixed single-threaded kernel that measures the host's speed.

    One pass (~25 ms on a 2.1 GHz Xeon vCPU) mixes what the workloads
    spend their time on: a Python loop, dict updates, NumPy calls on
    256-row arrays, a 200k-element sort and JSON encoding of small dicts.
    It runs only the benchmark's own code, so a change to the program
    cannot move it.  It avoids BLAS, whose thread pool makes its timings
    bimodal on a two-core host.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(12345)
        self.big = rng.random(200_000)
        self.small = rng.random((256, 20))
        self.index = rng.integers(0, 256, 256)
        self.records = [{"drive": i, "score": i * 0.5, "model": f"m{i % 3}"}
                        for i in range(3000)]

    def seconds(self) -> float:
        """Wall time of one pass."""
        import numpy as np

        t0 = time.perf_counter()
        total = 0
        for i in range(150_000):
            total += i
        counts: dict[int, int] = {}
        for i in range(30_000):
            counts[i % 977] = counts.get(i % 977, 0) + 1
        for _ in range(300):
            m = self.small[self.index]
            np.where(m[:, 3] > 0.5, m[:, 1], m[:, 2]).sum()
        np.sort(self.big)
        np.sort(self.big)
        for record in self.records:
            json.dumps(record)
        return time.perf_counter() - t0

    def median_seconds(self, passes: int = 5) -> float:
        return float(sorted(self.seconds() for _ in range(passes))[passes // 2])

    def bracket(self, fn):
        """``fn()`` with the mean host-kernel time just before and after it."""
        before = self.seconds()
        out = fn()
        return out, (before + self.seconds()) / 2


def release_memory() -> None:
    """Collect garbage and hand the C heap's free pages back to the OS.

    Run once before measuring, so the RSS marks start from the memory
    the inputs hold and not from how much freed heap the set-ups left.
    """
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass


def clear_peak_rss() -> None:
    """Reset this process's RSS high-water mark to its current RSS (Linux)."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def own_peak_rss_mb() -> float:
    """This process's RSS high-water mark, in MB."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """The largest RSS high-water mark of the reaped children, in MB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.quantile(np.asarray(values, dtype=float), q)) if values else 0.0


def install_delivery_probe():
    """Time each arrival burst a plane shard works on; returns the undo.

    Wraps the load generator's ``burst_chunks`` so each burst is stamped
    when it is handed to the shard and again when the shard asks for the
    next one, and ``run_shard_task`` so each shard returns its samples as
    ``delivery_s`` in its result.  A burst counts only if the shard
    admitted rows from it.  Shard workers fork, so the patches carry into
    each worker and the samples travel back with the shard's result.
    """
    import repro.serve.guard as guard_mod
    import repro.serve.loadgen as loadgen_mod
    import repro.serve.shard as shard_mod

    burst_chunks = loadgen_mod.burst_chunks
    admit_columns = guard_mod.AdmissionGuard.admit_columns
    run_shard_task = shard_mod.run_shard_task
    state = {"busy": False, "samples": []}

    def timed_bursts(*args, **kwargs):
        for chunk in burst_chunks(*args, **kwargs):
            state["busy"] = False
            start = time.perf_counter()
            yield chunk
            if state["busy"]:
                state["samples"].append(time.perf_counter() - start)

    def flagged_admit(self, cols):
        state["busy"] = True
        return admit_columns(self, cols)

    def shard_task(*args, **kwargs):
        state["samples"] = []
        return dict(run_shard_task(*args, **kwargs), delivery_s=state["samples"])

    loadgen_mod.burst_chunks = timed_bursts
    guard_mod.AdmissionGuard.admit_columns = flagged_admit
    shard_mod.run_shard_task = shard_task

    def uninstall():
        loadgen_mod.burst_chunks = burst_chunks
        guard_mod.AdmissionGuard.admit_columns = admit_columns
        shard_mod.run_shard_task = run_shard_task

    return uninstall


def traced_layers():
    """Resolve :data:`TRACED_CALLS` to ``(owner, attr, layer, rows)``."""
    import importlib

    out = []
    for module, owner, attr, layer in TRACED_CALLS:
        mod = importlib.import_module(module)
        target = getattr(mod, owner) if owner else mod
        out.append((target, attr, layer, ROWS.get(layer)))
    return out


def layer_metrics(tracer, rep) -> dict[str, float]:
    """Per-layer quantities of one traced repetition's timed phases."""
    totals = tracer.layer_totals(rep.windows)
    out: dict[str, float] = {}
    for layer in TIMED_LAYERS:
        entry = totals.get(layer, {"self_s": 0.0, "calls": 0, "rows": 0})
        out[f"{layer}.self_s"] = entry["self_s"]
        out[f"{layer}.calls"] = entry["calls"]
    forest = totals.get("core.predictor.predict_proba_matrix")
    out["core.predictor.predict_proba_matrix.rows_per_call"] = (
        forest["rows"] / forest["calls"] if forest else 0.0
    )
    out["serve.engine.residual_s"] = totals.get("serve.engine", {}).get("self_s", 0.0)
    # Rows offered to the guard: column chunks plus single events not
    # nested in a chunk admission; the fast path is chunk rows minus the
    # rows a chunk admission handed to the per-event fallback.
    spans = [tracer.spans[i] for i in tracer.in_windows(rep.windows)]
    chunk_rows = sum(s[4] for s in spans if s[0] == "serve.guard.admit_columns")
    nested_admits = single_admits = 0
    for name, _, _, parent, _ in spans:
        if name == "serve.guard.admit":
            if parent >= 0 and tracer.spans[parent][0] == "serve.guard.admit_columns":
                nested_admits += 1
            else:
                single_admits += 1
    offered = chunk_rows + single_admits
    out["serve.guard.fastpath_ratio"] = (
        (chunk_rows - nested_admits) / offered if offered else 0.0
    )
    out["trace.spans"] = len(spans)
    wall = rep.main_s + rep.recovery_s
    out["trace.unattributed_s"] = wall - tracer.root_time(rep.windows)
    return out


# --------------------------------------------------------------------------
# the run
# --------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test knobs: the tiny preset of workloads.json, and a corrupted
    # score copy that the correctness checks must count.
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--corrupt-scores", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    bench = json.loads(SPEC_FILE.read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(names)}",
              file=sys.stderr)
        return 2
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"program sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # Keep every file the run writes inside the checkout, and keep setup
    # serial whatever the caller's environment says.
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir = ROOT / ".perfbench_out"
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(work / "tmp")
    os.environ.pop("REPRO_WORKERS", None)
    os.environ.pop("REPRO_CHAOS", None)
    try:
        return run(args, bench, work, out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, bench: dict, work: Path, out_dir: Path) -> int:
    import tempfile

    tempfile.tempdir = None  # re-read TMPDIR
    from workloads import WORKLOADS, median, set_up

    config = json.loads(WORKLOADS_FILE.read_text())
    fleet = dict(config["fleet"])
    spec = dict(config["workloads"][args.workload])
    if args.tiny:
        fleet.update(config["tiny"]["fleet"])
        if "target_events" in spec["arrival"]:
            spec["arrival"] = dict(spec["arrival"],
                                   target_events=config["tiny"]["target_events"])
    why = next(w["why"] for w in bench["workloads"] if w["name"] == args.workload)

    host = HostKernel()
    reference_s = float(config["host_reference"]["kernel_s"])
    calibration = host.median_seconds()
    # Only the last set-up's inputs stay alive, so the earlier ones do not
    # count in the memory the timed phases are measured against.
    timings = []
    setup_scaled = []
    for i in range(int(config["setup_reps"])):
        inputs, host_s = host.bracket(
            lambda: set_up(fleet, args.seed, work / f"setup-{i}"))
        timings.append(inputs.timings)
        setup_scaled.append(inputs.timings["setup_s"] * reference_s / host_s)
    setup_times = {key: median(t[key] for t in timings) for key in inputs.timings}
    workload = WORKLOADS[args.workload](spec, config["policy"], inputs, args.seed)
    workload.prepare(work / "prepare")

    release_memory()
    if args.trace:
        rounds = measure_traced(workload, work, args, int(config["min_reps"]))
        reps = [r for rnd in rounds for r in rnd["reps"]]
    else:
        reps = measure(workload, work, args, int(config["min_reps"]), host)

    attempted = sum(r.events for r in reps)
    failed = sum(r.failed for r in reps)
    problems = sorted({p for r in reps for p in r.problems})
    print(f"perfbench {args.workload}: seed {args.seed}, {len(reps)} repetition(s) in "
          f"{args.seconds:g} s, trace {args.trace}; fleet "
          f"{fleet['n_drives_per_model'] * 3} drives x {fleet['horizon_days']} days, "
          f"{reps[0].events} events per repetition")
    print(f"  why: {why}")
    print(f"  loop: {spec['loop']}; arrival: {spec['arrival']}; chaos: {spec['chaos']}")
    print(f"  host kernel: {calibration:.6f} s at start (reference host "
          f"{reference_s:g} s)")
    print("  set-up, measured (median of %d): " % len(timings) + ", ".join(
        f"{k} {v:.4f}" for k, v in setup_times.items()))
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.trace:
        units = metric_units(bench, "per_layer")
        values = per_layer_summary(rounds, setup_times, calibration, units)
        print_ledger(values, rounds, units)
        spans = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        rounds[-1]["tracer"].write(spans)
    else:
        # Only shard workers are reaped children, so their mark is the
        # largest shard's.
        rss = max(r.peak_rss_mb for r in reps) + children_peak_rss_mb()
        values, notes = end_to_end(reps, median(setup_scaled), rss, reference_s)
        measured, _ = end_to_end(reps, setup_times["setup_s"], rss, None)
        units = metric_units(bench, "end_to_end")
        print("  metric                     at reference host speed  "
              "(as measured on this host)")
        for name, unit in units.items():
            print(f"  {name:<26s} {values[name]:>16.6f} {unit} "
                  f"({measured[name]:.6f}){notes.get(name, '')}")
    print(f"  ops_failed_frac            {failed / max(attempted, 1):>16.6f}  "
          f"({failed} failed of {attempted} attempted)")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")

    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "calibration_s": calibration, "setup": setup_times,
        "host_reference_s": reference_s, "setup_s_at_reference": setup_scaled,
        "repetitions": [
            {"events": r.events, "main_s": r.main_s, "recovery_events": r.recovery_events,
             "recovery_s": r.recovery_s, "host_s": r.host_s,
             "durable_bytes": r.durable_bytes,
             "latency_samples": len(r.latencies),
             "latency_p50_us": percentile(r.latencies, 0.50) * 1e6,
             "latency_p99_us": percentile(r.latencies, 0.99) * 1e6}
            for r in reps
        ],
        "metrics": metrics, "problems": problems,
    }
    (out_dir / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(report, indent=1) + "\n")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))
    return 0 if correct else 1


def measure(workload, work: Path, args, min_reps: int, host: HostKernel) -> list:
    """Untraced repetitions until ``--seconds`` have passed.

    Each repetition is bracketed by the host kernel, whose mean time
    becomes the repetition's ``host_s``; the process's RSS high-water mark
    is reset just before the repetition and read just after it, so the
    kernel's own memory does not count.
    """

    def repetition(rep_dir: Path, corrupt: bool):
        clear_peak_rss()
        rep = workload.run(rep_dir, corrupt=corrupt)
        rep.peak_rss_mb = own_peak_rss_mb()
        return rep

    uninstall = install_delivery_probe() if workload.name == "durable-plane" else None
    reps = []
    deadline = time.perf_counter() + args.seconds
    try:
        while len(reps) < min_reps or time.perf_counter() < deadline:
            rep_dir = work / f"rep-{len(reps)}"
            corrupt = args.corrupt_scores and not reps
            rep, host_s = host.bracket(lambda: repetition(rep_dir, corrupt))
            rep.host_s = host_s
            reps.append(rep)
            shutil.rmtree(rep_dir, ignore_errors=True)
    finally:
        if uninstall:
            uninstall()
    return reps


def measure_traced(workload, work: Path, args, min_reps: int) -> list[dict]:
    """Rounds of an untraced and a traced twin until ``--seconds`` pass.

    Shard workers fork, so both twins run the shards in-process; on
    ``durable-plane`` each round also runs the 2-worker plane untraced,
    for the partition skew and the dispatch cost.
    """
    from tracer import Tracer

    plane = workload.name == "durable-plane"
    rounds: list[dict] = []
    deadline = time.perf_counter() + args.seconds
    while len(rounds) < min_reps or time.perf_counter() < deadline:
        rnd_dir = work / f"round-{len(rounds)}"
        corrupt = args.corrupt_scores and not rounds
        rnd: dict = {}
        if plane:
            rnd["plane"] = workload.run(rnd_dir / "plane", corrupt=corrupt)
            corrupt = False
        rnd["untraced"] = workload.run(rnd_dir / "untraced", corrupt=corrupt, workers=1)
        tracer = Tracer()
        with tracer.installed(traced_layers()):
            rnd["traced"] = workload.run(rnd_dir / "traced", workers=1)
        rnd["tracer"] = tracer
        rnd["reps"] = [rnd[k] for k in ("plane", "untraced", "traced") if k in rnd]
        layers = layer_metrics(tracer, rnd["traced"])
        layers.update(rnd["traced"].layer)
        if plane:
            for key in ("serve.partition.skew", "serve.shard.elapsed_max_s",
                        "parallel.dispatch_s"):
                layers[key] = rnd["plane"].layer[key]
            base = rnd["untraced"]
            layers["parallel.single_process_events_per_s"] = base.events / base.main_s
        rnd["layers"] = layers
        rounds.append(rnd)
        shutil.rmtree(rnd_dir, ignore_errors=True)
    return rounds


def end_to_end(reps, setup_s: float, rss: float,
               reference_s: float | None) -> tuple[dict, dict]:
    """The end-to-end metrics of untraced repetitions, with notes.

    Timed metrics are medians over every repetition: of the per-repetition
    rates, and of the per-repetition latency percentiles.  With
    ``reference_s``, each repetition's times are scaled by
    ``reference_s / host_s`` to the reference host's speed; with None they
    are reported as measured.
    """
    from workloads import median

    def scale(r) -> float:
        return reference_s / r.host_s if reference_s else 1.0

    n = len(reps)
    samples = [len(r.latencies) for r in reps]
    values = {
        "events_per_s": median(r.events / (r.main_s * scale(r)) for r in reps),
        "latency_p50_us": median(percentile(r.latencies, 0.50) * scale(r)
                                 for r in reps) * 1e6,
        "latency_p99_us": median(percentile(r.latencies, 0.99) * scale(r)
                                 for r in reps) * 1e6,
        "heal_events_per_s": median(r.recovery_events / (r.recovery_s * scale(r))
                                    for r in reps),
        "durable_bytes_per_event": median(r.durable_bytes / r.events for r in reps),
        "peak_rss_mb": rss,
        "setup_s": setup_s,
    }
    per_rep = min(samples)
    sampled = (f"  (median of {n} repetitions' percentiles, {per_rep}-{max(samples)} "
               f"samples each, {sum(samples)} in all")
    notes = {
        "events_per_s": f"  (median of {n} repetitions)",
        "heal_events_per_s": f"  (median of {n} repetitions)",
        "latency_p50_us": sampled + ")",
        "latency_p99_us": sampled + f"; {per_rep // 100} beyond p99 per repetition)",
    }
    return values, notes


def per_layer_summary(rounds, setup_times: dict, calibration: float,
                      units: dict) -> dict:
    """Per-layer metrics: medians over every traced round."""
    from workloads import median

    traced_wall = median(r["traced"].main_s + r["traced"].recovery_s for r in rounds)
    untraced_wall = median(r["untraced"].main_s + r["untraced"].recovery_s
                           for r in rounds)
    # A quantity a workload never produces (an idle layer) reports 0.
    values = {k: median(r["layers"].get(k, 0.0) for r in rounds) for k in units}
    values.update({k: v for k, v in setup_times.items() if k in units})
    values["trace.traced_wall_s"] = traced_wall
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["trace.main_s"] = median(r["traced"].main_s for r in rounds)
    values["host.calibration_s"] = calibration
    return values


def print_ledger(values: dict, rounds, units: dict) -> None:
    """Per-layer self time as a share of the traced timed phases."""
    wall = values["trace.traced_wall_s"]
    main = values["trace.main_s"]
    print(f"  per-layer ledger (medians of {len(rounds)} traced repetitions; "
          f"main phase {main:.4f} s + recovery {wall - main:.4f} s):")
    rows = [(k[: -len(".self_s")], v) for k, v in values.items() if k.endswith(".self_s")]
    rows.append(("serve.engine (loop residual)", values["serve.engine.residual_s"]))
    rows.append(("unattributed", values["trace.unattributed_s"]))
    for layer, self_s in sorted(rows, key=lambda r: -r[1]):
        calls = values.get(f"{layer}.calls")
        share = 100.0 * self_s / wall if wall else 0.0
        print(f"    {layer:<40s} {self_s:>10.4f} s {share:>6.1f}%"
              + (f"  {calls:.0f} calls" if calls is not None else ""))
    print(f"  tracing overhead: {values['trace.overhead_s']:.4f} s (traced "
          f"{wall:.4f} s - untraced {values['trace.untraced_wall_s']:.4f} s)")
    extras = [k for k in units if not k.endswith((".self_s", ".calls"))
              and not k.startswith("trace.")]
    print("  " + ", ".join(f"{k} {values[k]:.6g}" for k in extras))


if __name__ == "__main__":
    sys.exit(main())
