"""Span recording around the program's public entry points.

The program itself carries no benchmark tracing: :func:`instrument`
replaces entry points of each layer (classes and module-level functions)
with wrappers that record a span per call, and the function it returns
puts the originals back.  Spans live in memory until :meth:`write`.

A span is ``(name, start, end, parent, request, thread)``.  ``parent``
is the enclosing span on the same thread; a span opened on a worker
thread with nothing open there gets the in-flight request's root span
as parent, so a step run by the parallel runtime still belongs to the
request that caused it.  Self time is computed per thread: a span's
duration minus the part of it covered by its children *on the same
thread*.  A coordinating span therefore keeps the time it spends waiting
for workers on other threads.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# Indexes into a span record.
NAME, START, END, PARENT, REQUEST, THREAD = range(6)


class Recorder:
    """Collects spans and counts while :attr:`active`."""

    def __init__(self):
        self.spans: List[list] = []
        self.counts: Dict[Tuple[str, str], float] = defaultdict(float)
        self.active = False
        self.request: Optional[str] = None
        self.root: Optional[int] = None
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1][1] if stack else self.root
        record = [name, time.perf_counter(), None, parent, self.request,
                  threading.get_ident()]
        with self._lock:
            self.spans.append(record)
            index = len(self.spans) - 1
        stack.append((name, index))
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack().pop()

    def begin_request(self, request: str, name: str) -> None:
        """Open the root span of ``request`` on the calling thread."""
        self.request = request
        self.root = None
        self.root = self.open(name)

    def end_request(self) -> None:
        self.close(self.root)
        self.request = self.root = None

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[(self.request or "", name)] += amount

    def current(self) -> Optional[str]:
        stack = self._stack()
        return stack[-1][0] if stack else None

    def write(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as handle:
            for name, start, end, parent, request, thread in self.spans:
                handle.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "request": request,
                    "thread": thread}) + "\n")


def self_times(spans: Sequence[list]) -> List[float]:
    """Per-span self time: duration minus the union of the intervals of
    its same-thread children, clipped to the span."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        parent = span[PARENT]
        if parent is not None and spans[parent][THREAD] == span[THREAD]:
            children[parent].append((span[START], span[END]))
    result = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered, reach = 0.0, start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start, child_end = max(child_start, reach), min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                reach = child_end
        result.append(end - start - covered)
    return result


# -- instrumentation -------------------------------------------------------------

CountFn = Callable[[Recorder, object], None]


def _wrapper(recorder: Recorder, fn: Callable, name: str,
             count: Optional[CountFn], skip_under: frozenset) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not recorder.active or recorder.current() in skip_under:
            return fn(*args, **kwargs)
        index = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(index)
        recorder.count(name + ".calls")
        if count is not None:
            count(recorder, result)
        return result
    return traced


def _count(metric: str, measure: Callable[[object], float]) -> CountFn:
    return lambda recorder, result: recorder.count(metric, measure(result))


def instrument(recorder: Recorder) -> Callable[[], None]:
    """Wrap every layer's entry points; returns the function that
    restores the originals."""
    from repro.appliance import dms_runtime
    from repro.appliance.dms_runtime import DmsRuntime
    from repro.appliance.runner import DsqlRunner
    from repro.appliance.storage import Appliance
    from repro.obs.query_store import QueryStore
    from repro.obs.requests import RequestHandle, RequestRegistry
    from repro.optimizer.binder import Binder
    from repro.optimizer.search import SerialOptimizer
    from repro.pdw import engine
    from repro.pdw.dsql import DsqlGenerator
    from repro.pdw.enumerator import PdwOptimizer
    from repro.service import plan_cache, service
    from repro.service.admission import AdmissionController
    from repro.service.service import PdwService
    from repro.sql import parser
    from repro.workloads.tpch_datagen import TpchGenerator

    undo: List[Tuple[object, str, object]] = []

    def wrap(owner, attr: str, name: str, count: Optional[CountFn] = None,
             skip_under: Sequence[str] = ()) -> None:
        original = getattr(owner, attr)
        undo.append((owner, attr, original))
        setattr(owner, attr, _wrapper(recorder, original, name, count,
                                      frozenset(skip_under)))

    def wrap_function(original: Callable, name: str,
                      count: Optional[CountFn] = None) -> None:
        """Wrap ``original`` in every program module bound to it."""
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "repro" or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    wrap(module, attr, name, count)

    # sql: every parse, including the runtime's step-SQL parses.
    wrap_function(parser.parse_query, "sql.parse")
    # optimizer: binding for compilation (step binding belongs to the
    # appliance layer), the serial search, the MEMO XML round trip.
    wrap(Binder, "bind", "optimizer.bind",
         skip_under=("appliance.step_bind",))
    wrap(SerialOptimizer, "optimize_sql", "optimizer.search",
         _count("optimizer.memo_groups",
                lambda r: len(r.memo.canonical_groups())))
    wrap_function(engine.memo_to_xml, "optimizer.xml",
                  _count("optimizer.xml_kb", lambda r: len(r) / 1024.0))
    wrap_function(engine.memo_from_xml, "optimizer.xml")
    # pdw: enumeration and DSQL generation.
    wrap(PdwOptimizer, "optimize", "pdw.enumerate",
         _count("pdw.options_considered", lambda r: r.options_considered))
    wrap(DsqlGenerator, "generate", "pdw.dsql",
         _count("pdw.dsql_steps", lambda r: len(r.steps)))
    # service.
    wrap(PdwService, "execute", "service.execute")
    wrap(PdwService, "_compile", "service.compile")
    wrap(AdmissionController, "admit", "service.queue")
    wrap_function(plan_cache.parameterize, "service.parameterize")
    wrap_function(service.instantiate_plan, "service.instantiate")
    # appliance: the runner, each step kind, node-local SQL and its
    # binding, routing, temp-table DDL and base-table loads.
    wrap(DsqlRunner, "run", "appliance.run")
    wrap(DmsRuntime, "execute_movement", "appliance.movement")
    wrap(DmsRuntime, "execute_return", "appliance.return")
    wrap(DmsRuntime, "run_sql_on_node", "appliance.node_sql")
    wrap(DmsRuntime, "_bind_step", "appliance.step_bind")
    wrap(DmsRuntime, "_route_batch_reference", "appliance.route")
    for router in ("route_batch_fast", "route_batch_columnar",
                   "route_batch_numpy"):
        wrap(dms_runtime, router, "appliance.route")
    wrap(Appliance, "create_temp_table", "appliance.temp_ddl")
    wrap(Appliance, "drop_table", "appliance.temp_ddl")
    wrap(Appliance, "load_rows", "appliance.load")
    # set-up: data generation and the statistics pipeline.
    for attr in dir(TpchGenerator):
        if attr.endswith("_rows"):
            wrap(TpchGenerator, attr, "workloads.datagen")
    wrap(Appliance, "compute_shell_database", "catalog.stats")
    # observability.
    wrap(QueryStore, "stamp", "obs.stamp")
    wrap(RequestRegistry, "begin", "obs.requests")
    wrap(RequestHandle, "complete", "obs.requests")

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
        undo.clear()
    return restore
