"""One benchmark run: set up, drive the service closed-loop, check, report.

A run issues a fixed sequence of operations drawn from the seed.  One
client thread sends each operation after the previous one returned,
through the service's public entry points with the shipped default
options.  Output checks run between operations, outside the timed
intervals.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import os
import platform
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from perfbench import workloads as W
from perfbench.stats import percentile
from perfbench.tracing import (END, NAME, REQUEST, START, Recorder,
                               instrument, self_times)

NODES = 4
#: Every run issues at least this many reads, so p90 has ten samples
#: beyond it.  Read counts round up to whole mix blocks (10 dashboard
#: reads, 18 ad-hoc join sets); ETL runs whole cycles of 5 reads.
MIN_READS = 100
#: ETL issues one load per this many reads, all of one template, so each
#: load invalidates exactly one cached plan.
READS_PER_LOAD = 5
#: ETL grows orders by at most this share of the initial table.
ETL_GROWTH = 0.8


@dataclass(frozen=True)
class Workload:
    name: str
    scale: float
    #: Reads per second of ``--seconds``: a run's length comes from
    #: ``--seconds`` through this fixed rate, never from how fast the
    #: program answers.
    reads_per_second: int


#: A run must stay well under a minute even when the host runs 2x
#: slower, since comparing two versions repeats every workload some
#: twenty times within an hour.  Hence ETL at scale 0.005: its reads run on
#: tables that keep growing, so at 0.01 one run took a minute.
WORKLOADS: Dict[str, Workload] = {
    "dashboard": Workload("dashboard", 0.01, 5),
    "adhoc": Workload("adhoc", 0.001, 9),
    "etl": Workload("etl", 0.005, 5),
}

#: ``setup_s`` is the median of ``SETUPS`` set-ups at ``SETUP_SCALE``,
#: the same in every workload.  One set-up at scale 0.01 took 3.9-7.0 s,
#: so a run could afford only two, whose median is their mean.  Host speed
#: changes up to 2x for spells of 10-20 s, so the first set-up precedes
#: the timed phase and the rest are spread evenly through it, between
#: operations: their median samples the host over the whole run, as
#: ``qps`` does.
SETUPS = 5
SETUP_SCALE = 0.001


@dataclass(frozen=True)
class Dataset:
    """What load batches need to know about the loaded tables."""

    customers: int
    parts: int
    suppliers: int
    orders: int
    next_orderkey: int


def read_count(workload: str, seconds: int) -> int:
    return max(MIN_READS, seconds * WORKLOADS[workload].reads_per_second)


def build_ops(workload: str, seed: int, seconds: int,
              dataset: Dataset) -> List[W.Op]:
    """The run's operation sequence; a function of its arguments only."""
    rng = random.Random(f"{workload}:{seed}")
    reads = read_count(workload, seconds)
    if workload == "dashboard":
        return W.dashboard_reads(rng, reads)
    if workload == "adhoc":
        return W.adhoc_reads(rng, reads)
    loads = math.ceil(reads / READS_PER_LOAD)
    per_load = int(dataset.orders * ETL_GROWTH) // loads
    ops: List[W.Op] = []
    key = dataset.next_orderkey
    # Templates rotate in a fixed order, so each one meets the same table
    # sizes in every run: the tables grow all run long, and a shuffled
    # order moved read_p90_ms with the seed.
    for cycle in range(loads):
        template = W.DASHBOARD[cycle % len(W.DASHBOARD)]
        ops.append(W.load_batch(rng, key, per_load, dataset.customers,
                                dataset.parts, dataset.suppliers))
        key += per_load
        ops.extend(W.Op("read", template.name, sql=template.make_sql(rng))
                   for _ in range(READS_PER_LOAD))
    return ops


# -- set-up --------------------------------------------------------------------

def set_up(scale: float):
    """Build, load and analyse the appliance, start the service with its
    default options and run each dashboard template once."""
    from repro.service import PdwService
    from repro.workloads.tpch_datagen import build_tpch_appliance

    appliance, shell = build_tpch_appliance(scale=scale, node_count=NODES)
    service = PdwService(appliance=appliance, shell=shell)
    for op in W.warmup_reads():
        service.execute(op.sql)
    return service


def dataset_of(service) -> Dataset:
    catalog = service.appliance.catalog
    orders = service.appliance.table_rows_everywhere("orders")
    return Dataset(
        customers=catalog.table("customer").row_count,
        parts=catalog.table("part").row_count,
        suppliers=catalog.table("supplier").row_count,
        orders=catalog.table("orders").row_count,
        next_orderkey=max(row[0] for row in orders) + 1)


def probe_seconds() -> float:
    """A fixed pure-Python loop: a host-speed diagnostic, not a metric."""
    samples = []
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i % 7
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


# -- output checks -------------------------------------------------------------

def _plain(value):
    return value.item() if hasattr(value, "item") else value


def _sort_key(row) -> tuple:
    key = []
    for value in row:
        if value is None:
            key.append((0, ""))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            key.append((1, round(float(value), 6)))
        else:
            key.append((2, str(value)))
    return tuple(key)


def _same_value(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        if not all(isinstance(v, (int, float)) for v in (a, b)):
            return False
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
    return a == b


def _same_row(a, b) -> bool:
    return len(a) == len(b) and all(map(_same_value, a, b))


def rows_match(actual: Sequence[tuple], expected: Sequence[tuple]) -> bool:
    """Multiset equality of two row lists; floats compare to 1e-9
    relative, since backends sum in different orders."""
    if len(actual) != len(expected):
        return False
    actual = sorted((tuple(map(_plain, r)) for r in actual), key=_sort_key)
    expected = sorted((tuple(map(_plain, r)) for r in expected),
                      key=_sort_key)
    if all(map(_same_row, actual, expected)):
        return True
    # Rounding can order near-equal floats differently: match greedily.
    remaining = list(expected)
    for row in actual:
        for i, candidate in enumerate(remaining):
            if _same_row(row, candidate):
                del remaining[i]
                break
        else:
            return False
    return True


class Checker:
    """Compares each read with the single-system reference on the same
    data version (the numpy backend, so the check is independent of the
    backend under test)."""

    def __init__(self, appliance):
        self.appliance = appliance
        self._cache: Dict[Tuple[str, int], list] = {}

    def check(self, sql: str, rows) -> bool:
        from repro.appliance.runner import run_reference

        key = (sql, self.appliance.schema_version)
        expected = self._cache.get(key)
        if expected is None:
            expected = run_reference(self.appliance, sql,
                                     executor="numpy").rows
            self._cache[key] = expected
        return rows_match(rows, expected)


# -- the timed loop ------------------------------------------------------------

@dataclass
class PassResult:
    """What one pass over the operation sequence measured."""

    read_seconds: List[float] = field(default_factory=list)
    read_templates: List[str] = field(default_factory=list)
    load_seconds: List[float] = field(default_factory=list)
    rows_loaded: int = 0
    dms_sim_seconds: List[float] = field(default_factory=list)
    rows_moved: int = 0
    dms_bytes: int = 0
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    cache_before: Dict[str, int] = field(default_factory=dict)
    cache_after: Dict[str, int] = field(default_factory=dict)

    @property
    def timed_seconds(self) -> float:
        return sum(self.read_seconds) + sum(self.load_seconds)

    @property
    def completed(self) -> int:
        return len(self.read_seconds) + len(self.load_seconds)

    def cache_delta(self, name: str) -> int:
        return self.cache_after[name] - self.cache_before[name]

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)


def drive(service, ops: Sequence[W.Op], workload: str,
          recorder: Optional[Recorder] = None,
          between: Optional[Callable[[int], None]] = None) -> PassResult:
    """Send ``ops`` one after another; check each result outside the
    timed interval; then run the workload's whole-run checks.
    ``between(index)``, when given, runs before op ``index`` and outside
    its timed interval."""
    appliance = service.appliance
    checker = Checker(appliance)
    result = PassResult(cache_before=service.plan_cache.stats())
    orders_before = appliance.catalog.table("orders").row_count
    lineitems_before = appliance.catalog.table("lineitem").row_count
    orders_loaded = lineitems_loaded = loads = 0
    clock = time.perf_counter
    for index, op in enumerate(ops):
        if between is not None:
            between(index)
        result.attempted += 1
        if recorder is not None:
            recorder.begin_request(f"op{index}", f"op.{op.kind}")
            recorder.active = True
        try:
            started = clock()
            if op.kind == "read":
                answer = service.execute(op.sql)
            else:
                appliance.load_rows("orders", op.orders)
                appliance.load_rows("lineitem", op.lineitems)
            elapsed = clock() - started
        except Exception as exc:  # a failed operation is measured, not fatal
            result.fail(f"op {index} ({op.template}): "
                        f"{type(exc).__name__}: {exc}")
            continue
        finally:
            if recorder is not None:
                recorder.active = False
                recorder.end_request()
        if op.kind == "load":
            loads += 1
            orders_loaded += len(op.orders)
            lineitems_loaded += len(op.lineitems)
            result.load_seconds.append(elapsed)
            result.rows_loaded += op.rows
            continue
        result.read_seconds.append(elapsed)
        result.read_templates.append(op.template)
        result.dms_sim_seconds.append(answer.elapsed_seconds)
        for step in answer.step_stats:
            if step.operation is not None:
                result.rows_moved += step.rows_moved
                result.dms_bytes += step.total_bytes()
        if not checker.check(op.sql, answer.rows):
            result.fail(f"op {index} ({op.template}): rows differ from "
                        "the single-system reference")
    result.cache_after = service.plan_cache.stats()
    if workload == "adhoc" and result.cache_delta("hits"):
        result.fail(f"adhoc: {result.cache_delta('hits')} plan-cache hits, "
                    "expected every shape to be new")
    if workload == "etl":
        catalog = appliance.catalog
        for table, before, loaded in (
                ("orders", orders_before, orders_loaded),
                ("lineitem", lineitems_before, lineitems_loaded)):
            stored = len(appliance.table_rows_everywhere(table))
            if not catalog.table(table).row_count == stored == before + loaded:
                result.fail(f"etl: {table} holds {stored} rows "
                            f"(row_count {catalog.table(table).row_count}), "
                            f"expected {before} + {loaded}")
        if result.cache_delta("invalidations") != loads:
            result.fail(f"etl: {result.cache_delta('invalidations')} plan "
                        f"invalidations for {loads} loads")
    return result


# -- metrics -------------------------------------------------------------------

def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_metrics(run: PassResult,
                       setup_seconds: Sequence[float]) -> dict:
    reads = [s * 1000.0 for s in run.read_seconds]
    metrics = {
        "setup_s": metric(statistics.median(setup_seconds), "s"),
        "qps": metric(run.completed / run.timed_seconds, "1/s"),
        "read_p50_ms": metric(statistics.median(reads), "ms"),
        "read_p90_ms": metric(percentile(reads, 90), "ms"),
        "dms_sim_ms": metric(
            1000.0 * statistics.fmean(run.dms_sim_seconds), "ms"),
        "rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": metric(1.0 - run.failed / run.attempted, "ratio"),
    }
    return metrics


#: Layer metrics reported as self milliseconds per operation.
SELF_MS = (
    "sql.parse", "optimizer.bind", "optimizer.search", "optimizer.xml",
    "pdw.enumerate", "pdw.dsql", "service.execute", "service.parameterize",
    "service.instantiate", "service.queue", "appliance.run",
    "appliance.movement", "appliance.return", "appliance.node_sql",
    "appliance.step_bind", "appliance.route", "appliance.temp_ddl",
    "appliance.load", "obs.stamp", "obs.requests",
)
#: Counts reported per operation.
PER_OP_COUNTS = {
    "sql.parse_calls": "sql.parse.calls",
    "service.parameterize_calls": "service.parameterize.calls",
    "optimizer.memo_groups": "optimizer.memo_groups",
    "optimizer.xml_kb": "optimizer.xml_kb",
    "pdw.options_considered": "pdw.options_considered",
    "pdw.dsql_steps": "pdw.dsql_steps",
}
COMPILE_LAYERS = ("sql.", "optimizer.", "pdw.")


def layer_metrics(recorder: Recorder, run: PassResult,
                  untraced_qps: float) -> dict:
    spans = recorder.spans
    selfs = self_times(spans)
    in_ops = [(span, own) for span, own in zip(spans, selfs)
              if (span[REQUEST] or "").startswith("op")]
    in_setup = [(span, own) for span, own in zip(spans, selfs)
                if span[REQUEST] == "setup"]
    ops = run.attempted
    reads = max(1, len(run.read_seconds))
    own_ms: Dict[str, float] = {}
    for span, own in in_ops:
        own_ms[span[NAME]] = own_ms.get(span[NAME], 0.0) + own * 1000.0
    counts: Dict[str, float] = {}
    for (request, name), amount in recorder.counts.items():
        if request.startswith("op"):
            counts[name] = counts.get(name, 0.0) + amount

    metrics = {f"{name}_ms": metric(own_ms.get(name, 0.0) / ops, "ms")
               for name in SELF_MS}
    for metric_name, count_name in PER_OP_COUNTS.items():
        unit = "KiB" if metric_name.endswith("_kb") else "count"
        metrics[metric_name] = metric(counts.get(count_name, 0.0) / ops,
                                      unit)
    compile_seconds = [span[END] - span[START] for span, _own in in_ops
                       if span[NAME] == "service.compile"]
    metrics["service.compile_ms"] = metric(
        1000.0 * statistics.fmean(compile_seconds) if compile_seconds
        else 0.0, "ms")
    lookups = run.cache_delta("hits") + run.cache_delta("misses")
    metrics["service.cache_hit_ratio"] = metric(
        run.cache_delta("hits") / lookups if lookups else 0.0, "ratio")
    metrics["service.cache_evictions"] = metric(
        run.cache_delta("evictions"), "count")
    metrics["service.cache_invalidations"] = metric(
        run.cache_delta("invalidations"), "count")
    metrics["appliance.write_p50_ms"] = metric(
        1000.0 * statistics.median(run.load_seconds)
        if run.load_seconds else 0.0, "ms")
    metrics["appliance.load_krows_s"] = metric(
        run.rows_loaded / sum(run.load_seconds) / 1000.0
        if run.load_seconds else 0.0, "krows/s")
    metrics["appliance.rows_moved"] = metric(run.rows_moved / reads, "count")
    metrics["appliance.dms_mb"] = metric(run.dms_bytes / reads / 1e6, "MB")
    for name, metric_name in (("workloads.datagen", "workloads.datagen_s"),
                              ("catalog.stats", "catalog.stats_s")):
        metrics[metric_name] = metric(
            sum(own for span, own in in_setup if span[NAME] == name), "s")
    compile_ms = sum(ms for name, ms in own_ms.items()
                     if name.startswith(COMPILE_LAYERS))
    read_ms = 1000.0 * sum(run.read_seconds)
    metrics["trace.compile_pct"] = metric(
        100.0 * compile_ms / read_ms if read_ms else 0.0, "%")
    traced_qps = run.completed / run.timed_seconds
    metrics["trace.overhead_pct"] = metric(
        100.0 * (untraced_qps / traced_qps - 1.0), "%")
    return metrics


# -- runs ----------------------------------------------------------------------

def environment(workload: Workload, seed: int, service) -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "workload": workload.name,
        "scale": workload.scale,
        "nodes": NODES,
        "seed": seed,
        "options": dataclasses.asdict(service.options),
        "plan_cache_capacity": service.plan_cache.capacity,
    }


def timed_set_up(samples: List[float]):
    started = time.perf_counter()
    service = set_up(SETUP_SCALE)
    samples.append(time.perf_counter() - started)
    return service


def untraced_run(name: str, seed: int, seconds: int) -> dict:
    """Time one set-up, set up at the workload's scale (reusing the timed
    set-up when the scales agree), then one timed pass with the other
    timed set-ups spread through it."""
    import repro.service  # noqa: F401 -- imports stay out of set-up time
    import repro.workloads.tpch_datagen  # noqa: F401

    workload = WORKLOADS[name]
    probe_before = probe_seconds()
    setup_seconds: List[float] = []
    service = timed_set_up(setup_seconds)
    scale_setup_s = setup_seconds[0]
    if workload.scale != SETUP_SCALE:
        service.close()
        gc.collect()
        started = time.perf_counter()
        service = set_up(workload.scale)
        scale_setup_s = time.perf_counter() - started
    ops = build_ops(name, seed, seconds, dataset_of(service))
    setup_before = {len(ops) * k // SETUPS for k in range(1, SETUPS)}

    def between(index: int) -> None:
        if index in setup_before:
            gc.collect()
            timed_set_up(setup_seconds).close()
            gc.collect()

    gc.collect()
    run = drive(service, ops, name, between=between)
    metrics = end_to_end_metrics(run, setup_seconds)
    env = environment(workload, seed, service)
    service.close()
    env["probe_s"] = {"before": probe_before, "after": probe_seconds()}
    env["setup_scale"] = SETUP_SCALE
    env["setup_samples_s"] = setup_seconds
    env["workload_scale_setup_s"] = scale_setup_s
    return {"env": env, "run": run, "metrics": metrics}


def traced_run(name: str, seed: int, seconds: int,
               untraced_qps: float) -> dict:
    """One set-up and one timed pass with every layer wrapped."""
    workload = WORKLOADS[name]
    probe_before = probe_seconds()
    recorder = Recorder()
    restore = instrument(recorder)
    try:
        recorder.begin_request("setup", "setup")
        recorder.active = True
        try:
            service = set_up(workload.scale)
        finally:
            recorder.active = False
            recorder.end_request()
        ops = build_ops(name, seed, seconds, dataset_of(service))
        gc.collect()
        run = drive(service, ops, name, recorder)
    finally:
        restore()
    metrics = layer_metrics(recorder, run, untraced_qps)
    env = environment(workload, seed, service)
    service.close()
    env["probe_s"] = {"before": probe_before, "after": probe_seconds()}
    return {"env": env, "run": run, "metrics": metrics,
            "recorder": recorder}
