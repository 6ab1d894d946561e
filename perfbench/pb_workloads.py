"""The benchmark's three workloads and the per-layer metrics they yield.

Every workload has the same shape, driven by ``run.py``:

* ``setup()`` — untimed preparation, repeated ``setup_reps`` times and
  reported as the median (``setup_s``);
* ``run_pass()`` — one unit of timed work on fresh stores: the *answer*
  phase (cells answered through the runtime) and the *query* phase
  (warehouse refresh plus canned queries over what was answered). Passes
  repeat until the run's ``--seconds`` are used up, whole passes only;
* ``mechanism_step()`` — traced runs only: one stage-profiled apache cell
  per mechanism.

All load comes from this one process. Runtime options are always passed
explicitly (``bootstrap`` has cleared every ``REPRO_*`` variable), and the
timed calls go only through ``load_workload``, ``Simulator.run``,
``ExperimentRuntime.run_many``, ``SweepSpec.run`` and the warehouse
queries. The seed sets the order cells are submitted and looked up in,
and (``result-store``) which stats body each fixture record carries;
simulated outputs do not depend on it.
"""

from __future__ import annotations

import random
import shutil
import sqlite3
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from pb_common import (
    DENSE_REFERENCE_PATH,
    GOLDEN_PATH,
    load_json,
    median,
    relative_cpi_error,
    tail,
)
from pb_trace import Tracer

from repro import MECHANISMS, make_config
from repro.analytic import is_analytic, reported_bound
from repro.core.results import SimulationResult
from repro.core.profiling import StageProfiler, run_profiled_single
from repro.experiments.common import get_scale, workload_names
from repro.experiments.sweeps import SWEEPS, get_sweep
from repro.runtime import (
    BrokerBackend,
    BrokerQueue,
    ExperimentRuntime,
    ResultCache,
    SimJob,
    configure_runtime,
    get_runtime,
)
from repro.runtime import runner as runtime_runner
from repro.workloads.workload import (
    clear_workload_cache,
    configure_trace_store,
    load_workload,
)
import repro.analytic as analytic_pkg
from repro.analytic.store import AnalyticStore
from repro.warehouse import connect, lookup_cell, refresh_warehouse
from repro.warehouse.core import DB_NAME
from repro.warehouse.queries import render_contour, render_sensitivity

SCALE = get_scale("quick")

#: Query-phase repetitions per pass for the cold workloads, whose single
#: pass would otherwise give ``query_s`` one sample per run.
QUERY_REPS = 121

#: ``result-store``: answer and query repetitions per written store.
WARM_REPS = 6

#: The apache column of the dense grid (``dense-hybrid``).
DENSE_WORKLOAD = "apache"

#: Mechanism-step workload: one profiled cell per mechanism, same profile.
MECH_WORKLOAD = "apache"

#: Stage names the per-cell engine composes (``core.stage.*`` metrics).
STAGES = (
    "bpu", "bpu+miss-probe", "fetch", "fill", "fill+predecode",
    "prefetch:ftq-scan", "prefetch:stream", "decode", "retire", "squash",
)

#: Layers the traced run attributes self time to.
LAYERS = (
    "bench", "workloads", "runtime", "cache", "core",
    "broker", "analytic", "sweeps", "warehouse",
)


def stage_metric(stage: str) -> str:
    return "core.stage." + stage.replace("+", "_").replace(":", "_") + ".ns_per_tick"


def explicit_options(cache_dir: Path, backend: str, fidelity: str) -> dict:
    """Every runtime option, spelled out (no environment fallback)."""
    return {
        "jobs": 1,
        "cache_dir": str(cache_dir),
        "backend": backend,
        "batch": False,
        "batch_width": 16,
        "fidelity": fidelity,
        "anchors": "3x2",
        "max_rel_err": 0.10,
    }


def unique_jobs(jobs: list[SimJob]) -> list[SimJob]:
    seen: set = set()
    out = []
    for job in jobs:
        if job.key not in seen:
            seen.add(job.key)
            out.append(job)
    return out


def dense_column(workload: str = DENSE_WORKLOAD) -> list[SimJob]:
    """One workload's 120 unique cells of ``dense-latency-btb`` at quick scale."""
    jobs = get_sweep("dense-latency-btb").jobs(SCALE)
    return unique_jobs([job for job in jobs if job.workload == workload])


def missing_cells(table: str) -> int:
    """Table cells a warehouse query rendered as missing (``—``)."""
    return sum(
        1
        for line in table.splitlines() if line.startswith("|")
        for cell in line.split("|") if cell.strip() == "—"
    )


def remove_warehouse(cache_dir: Path) -> None:
    for suffix in ("", "-wal", "-shm", "-journal"):
        (cache_dir / (DB_NAME + suffix)).unlink(missing_ok=True)


def check_paper(answered: list[tuple[SimJob, SimulationResult]], golden: dict) -> list[str]:
    """One note per paper-grid cell whose stats differ from the golden file."""
    notes = []
    for job, result in answered:
        key = f"{job.workload}:{job.config.mechanism}"
        if job.config != make_config(job.config.mechanism) or result.raw != golden.get(key):
            notes.append(f"{key}: stats differ from golden_quick.json")
    return notes


def check_dense(
    answered: list[tuple[SimJob, SimulationResult]], reference: dict
) -> tuple[list[str], float]:
    """Failure notes and the largest estimate error for dense-grid cells.

    An exact cell fails unless its stats equal the reference bit for bit;
    an estimated cell fails when its CPI error against the reference
    exceeds the bound it reports itself.
    """
    notes: list[str] = []
    max_err = 0.0
    for job, result in answered:
        digest = job.key[2]
        truth = reference[digest]
        if is_analytic(result):
            err = relative_cpi_error(result.raw, truth)
            max_err = max(max_err, err)
            if err > reported_bound(result):
                notes.append(f"{digest[:12]}: estimate error {err:.4f} outside its bound")
        elif result.raw != truth:
            notes.append(f"{digest[:12]}: exact stats differ from reference")
    return notes, max_err


@dataclass
class PassResult:
    """One pass of timed work and what its checks found."""

    cells: int
    #: Host ``perf_counter`` intervals: each answer-phase and each
    #: query-phase repetition. ``run.py`` converts them to reference
    #: seconds (:class:`pb_common.ReferenceClock`) for the end-to-end metrics.
    answers: list[tuple[float, float]]
    queries: list[tuple[float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    executed: int = 0
    estimated: int = 0
    max_rel_err: float = 0.0
    put: tuple[float, float] = (0.0, 0.0)
    #: Host milliseconds per warehouse call (median over repetitions).
    warehouse_ms: dict[str, float] = field(default_factory=dict)
    warehouse_cells: int = 0
    #: Stats of every exact cell answered, and of every estimated cell.
    outputs: dict[str, dict] = field(default_factory=dict)
    estimates: dict[str, dict] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    @property
    def answer_s(self) -> list[float]:
        """Host seconds of each answer-phase repetition."""
        return [end - start for start, end in self.answers]


class BenchWorkload:
    """Common driver pieces; subclasses define setup, answer and query."""

    name = ""
    #: Profiles built in setup (cold workloads).
    profiles: tuple[str, ...] = ()
    #: Setup repetitions per run; ``setup_s`` is their median.
    setup_reps = 9

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.rng = random.Random(seed)
        self.scratch = scratch
        self.build_rates: list[float] = []
        self.load_ms: list[float] = []

    def fresh_dir(self, label: str) -> Path:
        path = self.scratch / label
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    # ----------------------------------------------------------------- setup

    def setup(self, tracer: Tracer, rep: int) -> None:
        """Build every profile into a fresh trace store, then load it back."""
        store = self.fresh_dir(f"traces-{rep}")
        configure_trace_store(store)
        clear_workload_cache()
        records = 0
        start = time.perf_counter()
        for profile in self.profiles:
            with tracer.span("workloads.build", "workloads", profile):
                records += load_workload(profile, scale=SCALE.workload_scale).trace.n_instrs
        built = time.perf_counter()
        clear_workload_cache()
        for profile in self.profiles:
            with tracer.span("workloads.load", "workloads", profile):
                load_workload(profile, scale=SCALE.workload_scale)
        loaded = time.perf_counter()
        self.build_rates.append(records / (built - start) / 1000.0)
        self.load_ms.append((loaded - built) * 1000.0)

    def run_pass(self, tracer: Tracer, index: int) -> PassResult:
        raise NotImplementedError

    def query_phase(
        self,
        tracer: Tracer,
        cache_dir: Path,
        out: PassResult,
        expected_cells: int,
        reps: int,
        queries: dict[str, Callable[[sqlite3.Connection], int]],
    ) -> None:
        """Refresh a fresh warehouse over ``cache_dir`` and run ``queries``.

        Repeated ``reps`` times; ``out.queries`` gets each repetition's
        refresh plus queries as a host interval. Each query returns how many
        cells it found missing or wrong; any, or a refresh that did not take
        in every cell, fails.
        """
        times: dict[str, list[float]] = {name: [] for name in ("refresh", *queries)}
        for _ in range(reps):
            remove_warehouse(cache_dir)
            with tracer.span("query", "bench"):
                start = time.perf_counter()
                with tracer.span("warehouse.refresh", "warehouse"):
                    stats = refresh_warehouse(cache_dir)
                times["refresh"].append(time.perf_counter() - start)
                wrong = 0
                conn = connect(cache_dir)
                try:
                    for name, query in queries.items():
                        began = time.perf_counter()
                        with tracer.span(f"warehouse.{name}", "warehouse"):
                            wrong += query(conn)
                        times[name].append(time.perf_counter() - began)
                finally:
                    conn.close()
                out.queries.append((start, time.perf_counter()))
            out.attempted += 1
            if wrong or stats.inserted != expected_cells:
                out.failed += 1
                out.notes.append(
                    f"warehouse: {wrong} cell(s) missing or wrong, "
                    f"{stats.inserted}/{expected_cells} refreshed"
                )
        out.warehouse_ms = {name: median(ts) * 1000.0 for name, ts in times.items()}
        out.warehouse_cells = stats.inserted

    # ------------------------------------------------------- mechanism step

    def mechanism_step(self, tracer: Tracer) -> dict[str, float]:
        """Per-stage ns per tick over one profiled apache cell per mechanism."""
        workload = load_workload(MECH_WORKLOAD, scale=SCALE.workload_scale)
        profiler = StageProfiler()
        for mechanism in MECHANISMS:
            with tracer.span("mech.profiled", "core", mechanism):
                run_profiled_single(workload, make_config(mechanism), profiler)
        return {
            stage_metric(stage): seconds / ticks * 1e9 if ticks else 0.0
            for stage, (ticks, seconds) in profiler.rows.items()
        }


# ---------------------------------------------------------------------------
# paper-grid: cold, exact, serial figure789-mechanisms at quick scale
# ---------------------------------------------------------------------------


class PaperGrid(BenchWorkload):
    """The Figs. 7-9 grid: 7 mechanisms x 6 paper profiles, cold, exact."""

    name = "paper-grid"
    #: Six trace builds per set-up: fewer repetitions keep a run short.
    setup_reps = 5
    sweep = "figure789-mechanisms"

    def __init__(self, seed: int, scratch: Path):
        super().__init__(seed, scratch)
        self.profiles = workload_names("paper")
        self.golden = load_json(GOLDEN_PATH)
        if self.golden["workload_scale"] != SCALE.workload_scale:
            raise ValueError("golden reference is not at quick scale")

    def run_pass(self, tracer: Tracer, index: int) -> PassResult:
        cache_dir = self.fresh_dir(f"pass-{index}")
        jobs = get_sweep(self.sweep).jobs(SCALE)
        self.rng.shuffle(jobs)
        runtime = ExperimentRuntime(**explicit_options(cache_dir, "serial", "exact"))
        with tracer.span("answer", "bench"):
            start = time.perf_counter()
            results = runtime.run_many(jobs)
            answer = (start, time.perf_counter())
        cells = unique_jobs(jobs)
        out = PassResult(cells=len(cells), answers=[answer], executed=runtime.executed)
        with tracer.span("verify", "bench"):
            by_key = {job.key: result for job, result in zip(jobs, results)}
            answered = [(job, by_key[job.key]) for job in cells]
            out.notes += check_paper(answered, self.golden["stats"])
            out.attempted += len(cells)
            out.failed += len(out.notes)
            out.outputs = {f"{j.workload}:{j.config.mechanism}": r.raw for j, r in answered}
        sweep = self.sweep
        self.query_phase(tracer, cache_dir, out, len(cells), QUERY_REPS, {
            "sensitivity": lambda conn: missing_cells(
                render_sensitivity(conn, sweep, scale=SCALE.name)),
        })
        shutil.rmtree(cache_dir, ignore_errors=True)
        return out


# ---------------------------------------------------------------------------
# dense-hybrid: apache column of dense-latency-btb, hybrid, broker backend
# ---------------------------------------------------------------------------


class DenseHybrid(BenchWorkload):
    """120 dense-grid cells under hybrid fidelity, brokered in-process."""

    name = "dense-hybrid"

    def __init__(self, seed: int, scratch: Path):
        super().__init__(seed, scratch)
        self.profiles = (DENSE_WORKLOAD,)
        self.reference = load_json(DENSE_REFERENCE_PATH)
        if self.reference["workload_scale"] != SCALE.workload_scale:
            raise ValueError("dense reference is not at quick scale")

    def run_pass(self, tracer: Tracer, index: int) -> PassResult:
        cache_dir = self.fresh_dir(f"pass-{index}")
        jobs = dense_column()
        self.rng.shuffle(jobs)
        runtime = ExperimentRuntime(**explicit_options(cache_dir, "broker", "hybrid"))
        with tracer.span("answer", "bench"):
            start = time.perf_counter()
            results = runtime.run_many(jobs)
            answer = (start, time.perf_counter())
        out = PassResult(cells=len(jobs), answers=[answer],
                         executed=runtime.executed, estimated=runtime.estimated)
        with tracer.span("verify", "bench"):
            notes, out.max_rel_err = check_dense(
                list(zip(jobs, results)), self.reference["cells"]
            )
            out.notes += notes
            out.attempted += len(jobs)
            out.failed += len(notes)
            for job, result in zip(jobs, results):
                tier = out.estimates if is_analytic(result) else out.outputs
                tier[job.key[2]] = result.raw

        def lookup(conn) -> int:
            """Cells missing from the warehouse or filed under the wrong tier."""
            views = [lookup_cell(conn, *job.key) for job in jobs]
            return sum(
                1 for view, result in zip(views, results)
                if view is None or (view.fidelity == "exact") == is_analytic(result)
            )

        self.query_phase(tracer, cache_dir, out, len(jobs), QUERY_REPS, {"lookup": lookup})
        shutil.rmtree(cache_dir, ignore_errors=True)
        return out


# ---------------------------------------------------------------------------
# result-store: a populated store, written then re-tabulated warm
# ---------------------------------------------------------------------------


class ResultStore(BenchWorkload):
    """Every unique quick cell of the registered sweeps, written then read."""

    name = "result-store"

    def __init__(self, seed: int, scratch: Path):
        super().__init__(seed, scratch)
        self.bodies = list(load_json(GOLDEN_PATH)["stats"].values())
        self.fixture: list[tuple[SimJob, dict]] = []

    def setup(self, tracer: Tracer, rep: int) -> None:
        """Fixture generation: every unique sweep cell, with a seeded body."""
        rng = random.Random(self.seed)
        with tracer.span("fixture", "bench"):
            cells: dict = {}
            for spec in SWEEPS.values():
                for job in spec.jobs(SCALE):
                    cells.setdefault(job.key, job)
            self.fixture = [(job, rng.choice(self.bodies)) for job in cells.values()]

    def run_pass(self, tracer: Tracer, index: int) -> PassResult:
        cache_dir = self.fresh_dir(f"pass-{index}")
        order = list(self.fixture)
        self.rng.shuffle(order)
        sweeps = list(SWEEPS)
        self.rng.shuffle(sweeps)
        cache = ResultCache(cache_dir)
        answered = sum(get_sweep(name).job_count(SCALE) for name in sweeps)
        # The writes are timed on their own: creating files on this kind of
        # host swings between two speeds about 4x apart from one moment to
        # the next, so only the warm re-tabulation counts as answering.
        with tracer.span("write", "bench"):
            start = time.perf_counter()
            for job, body in order:
                cache.put(*job.key, SimulationResult(
                    workload=job.workload, mechanism=job.config.mechanism, raw=body))
            put_done = time.perf_counter()
        out = PassResult(cells=answered, answers=[], put=(start, put_done))
        # Each repetition is a fresh runtime re-tabulating every sweep from
        # the store just written, as a warm ``sweeps run`` does.
        for _ in range(WARM_REPS):
            with tracer.span("answer", "bench"):
                began = time.perf_counter()
                get_runtime().clear_memo()
                runtime = configure_runtime(**explicit_options(cache_dir, "serial", "exact"))
                for name in sweeps:
                    get_sweep(name).run(SCALE.name)
                out.answers.append((began, time.perf_counter()))
            out.executed += runtime.executed
        out.attempted += len(order) + answered * WARM_REPS
        with tracer.span("verify", "bench"):
            if out.executed:
                out.failed += out.executed
                out.notes.append(f"{out.executed} cell(s) executed on a warm pass")
            results = runtime.run_many([job for job, _ in order])
            for (job, body), result in zip(order, results):
                if result.raw != body:
                    out.failed += 1
                    out.notes.append(f"{job.key[2][:12]}: warm read differs from write")
        self.query_phase(tracer, cache_dir, out, len(order), WARM_REPS, {
            "contour": lambda conn: missing_cells(
                render_contour(conn, "dense-latency-btb", scale=SCALE.name)),
            "sensitivity": lambda conn: missing_cells(
                render_sensitivity(conn, "ablation-matrix", scale=SCALE.name)),
        })
        shutil.rmtree(cache_dir, ignore_errors=True)
        return out


WORKLOADS: dict[str, type[BenchWorkload]] = {
    cls.name: cls for cls in (PaperGrid, DenseHybrid, ResultStore)
}


# ---------------------------------------------------------------------------
# Tracing: which program calls get spans, and the per-layer numbers
# ---------------------------------------------------------------------------


def _cell_tag(args: tuple, result: object) -> tuple:
    job = args[0]
    raw = result.raw
    return (
        job.config.mechanism,
        raw.get("cycles", 0) + raw.get("warmup_cycles", 0),
        raw.get("retired_instrs", 0) + raw.get("warmup_instrs", 0),
    )


def install_wrappers(tracer: Tracer) -> None:
    """Span every program boundary the per-layer metrics are taken at."""
    tracer.wrap(runtime_runner, "execute_job", "core", _cell_tag)
    tracer.wrap(ExperimentRuntime, "run_many", "runtime")
    tracer.wrap(type(get_sweep("smoke")), "run", "sweeps")
    tracer.wrap(ResultCache, "get", "cache", lambda a, r: r is not None)
    tracer.wrap(ResultCache, "put", "cache")
    tracer.wrap(AnalyticStore, "get", "cache", lambda a, r: r is not None)
    tracer.wrap(AnalyticStore, "put", "cache")
    tracer.wrap(BrokerBackend, "run_batch", "broker")
    tracer.wrap(BrokerQueue, "enqueue", "broker")
    tracer.wrap(BrokerQueue, "claim", "broker",
                lambda a, r: r.job_id if r is not None else None)
    tracer.wrap(BrokerQueue, "complete", "broker",
                lambda a, r: (r["job_id"], r["run_s"]))
    tracer.wrap(BrokerQueue, "read_done", "broker")
    tracer.wrap(BrokerQueue, "read_failed", "broker")
    tracer.wrap(BrokerQueue, "recover_expired", "broker")
    tracer.wrap(analytic_pkg, "plan_series", "analytic",
                lambda a, r: (sum(len(p.anchors) for p in r[0]), len(r[1])))
    tracer.wrap(analytic_pkg, "fit_series", "analytic", lambda a, r: r.rel_err_bound)


def _durations(spans: list[list]) -> list[float]:
    return [s[5] - s[4] for s in spans]


def _us(values: list[float]) -> list[float]:
    return [v * 1e6 for v in values]


def layer_metrics(
    tracer: Tracer, workload: BenchWorkload, traced: list[PassResult]
) -> dict[str, float]:
    """Per-layer numbers from the traced spans plus the traced passes.

    Totals "per pass" are the traced run's total over its pass count.
    """
    m: dict[str, float] = {}
    n_passes = len(traced)
    spans = tracer.spans

    # repro.workloads
    m["workloads.build_krecords_per_s"] = median(workload.build_rates)
    m["workloads.store_load_ms"] = median(workload.load_ms)

    # repro.core (cells executed by the runtime inside passes)
    cells = tracer.named("runner.execute_job")
    cell_s = _durations(cells)
    m["core.cell_s_p50"] = median(cell_s)
    m["core.cell_s_tail"] = tail(cell_s)
    for mechanism in MECHANISMS:  # 0 for a mechanism the workload never runs
        m[f"core.cell_s.{mechanism}"] = median(
            [s[5] - s[4] for s in cells if s[6][0] == mechanism]
        )
    engine_s = sum(cell_s)
    m["core.mcycles_per_s"] = (
        sum(s[6][1] for s in cells) / engine_s / 1e6 if engine_s else 0.0
    )
    answer_s = sum(sum(p.answer_s) for p in traced)
    m["core.sim_kips"] = sum(s[6][2] for s in cells) / answer_s / 1e3 if cells else 0.0

    # repro.runtime: runner and cache
    puts = [s for s in spans if s[2] == "ResultCache.put"]
    hits = [s for s in spans if s[2] == "ResultCache.get" and s[6]]
    m["runtime.put_us_p50"] = median(_us(_durations(puts)))
    m["runtime.put_us_tail"] = tail(_us(_durations(puts)))
    m["runtime.hit_us_p50"] = median(_us(_durations(hits)))
    m["runtime.hit_us_tail"] = tail(_us(_durations(hits)))
    m["runtime.put_per_s"] = len(puts) / sum(_durations(puts)) if puts else 0.0
    m["runtime.warm_cells_per_s"] = (
        median([p.cells / s for p in traced for s in p.answer_s])
        if isinstance(workload, ResultStore) else 0.0
    )
    answers = tracer.named("answer")
    runs = [  # the answer phases' run_many calls, not the checks after them
        r for r in tracer.named("ExperimentRuntime.run_many")
        if any(a[4] <= r[4] <= a[5] for a in answers)
    ]
    m["runtime.dispatch_ms"] = (
        1000.0 * (sum(_durations(runs)) - engine_s) / n_passes if runs else 0.0
    )
    m["runtime.executed"] = median([p.executed for p in traced])
    m["runtime.disk_hits"] = len(hits) / n_passes

    # repro.runtime.broker
    claims = [s for s in spans if s[2] == "BrokerQueue.claim" and s[6] is not None]
    completes = tracer.named("BrokerQueue.complete")
    m["broker.enqueue_us"] = median(_us(_durations(tracer.named("BrokerQueue.enqueue"))))
    m["broker.claim_us"] = median(_us(_durations(claims)))
    m["broker.complete_us"] = median(_us(_durations(completes)))
    # Claim -> done wall time minus the engine's run_s, pairing each
    # completion with the latest claim of the same job before it (passes
    # reuse job ids).
    claim_start: dict[str, float] = {}
    overhead = []
    for s in sorted(claims + completes, key=lambda s: s[4]):
        if s[2] == "BrokerQueue.claim":
            claim_start[s[6]] = s[4]
        elif s[6][0] in claim_start:
            start = claim_start.pop(s[6][0])
            overhead.append((s[5] - start - s[6][1]) * 1000.0)
    m["broker.overhead_ms_per_job"] = median(overhead)
    m["broker.read_done_calls"] = len(tracer.named("BrokerQueue.read_done")) / n_passes

    # repro.analytic
    plans = tracer.named("analytic.plan_series")
    fits = tracer.named("analytic.fit_series")
    m["analytic.exact_cells"] = median([p.executed for p in traced]) if plans else 0.0
    m["analytic.estimated_cells"] = median([p.estimated for p in traced])
    planned_exact = median([s[6][0] + s[6][1] for s in plans])
    m["analytic.escalated_cells"] = (
        m["analytic.exact_cells"] - planned_exact if plans else 0.0
    )
    m["analytic.plan_ms"] = median([d * 1000.0 for d in _durations(plans)])
    m["analytic.fit_ms"] = 1000.0 * sum(_durations(fits)) / n_passes
    m["analytic.bound_max"] = max((s[6] for s in fits), default=0.0)
    m["analytic.max_rel_err"] = max((p.max_rel_err for p in traced), default=0.0)

    # repro.experiments.sweeps: SweepSpec.run minus the runtime calls it makes
    own = tracer.self_durations()
    m["sweeps.tabulate_ms"] = 1000.0 * sum(
        own[s[0]] for s in tracer.named("SweepSpec.run")
    ) / n_passes

    # repro.warehouse
    for query in ("refresh", "contour", "sensitivity", "lookup"):
        m[f"warehouse.{query}_ms"] = median(
            [p.warehouse_ms[query] for p in traced if query in p.warehouse_ms]
        )
    m["warehouse.cells"] = median([p.warehouse_cells for p in traced])

    return m


def trace_summary(tracer: Tracer, root: list) -> dict[str, float]:
    """Self time per layer, and how much of the root span they account for."""
    wall = root[5] - root[4]
    selfs = tracer.self_times()
    m = {f"trace.self_s.{layer}": selfs.get(layer, 0.0) for layer in LAYERS}
    m["trace.wall_s"] = wall
    m["trace.accounted_frac"] = sum(selfs.values()) / wall if wall else 0.0
    return m

