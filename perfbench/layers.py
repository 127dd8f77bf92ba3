"""Per-layer host-clock tracing, installed from outside the program.

:func:`instrument` wraps functions at each ``repro`` layer boundary
(class attributes are replaced in this process only; nothing under
``src/`` changes).  A wrapped call, or one resume of a wrapped
generator, is one span: name, host start and end, parent span and the
request id when the call carries one.  Spans stay in memory and
:meth:`SpanTracer.write` saves them when the run ends.

Two kinds of boundary are wrapped:

* calls from one layer into another (:data:`TARGETS`), including the
  generator functions a caller drives with ``yield from``;
* every entry from the kernel's run loop into a component: each process
  handed to ``Environment.process`` or ``Component.spawn`` and each
  callback handed to ``Component.every`` or
  ``Environment.schedule_call`` becomes a span of the layer whose module
  defines it.  Entries into the kernel's own code (message delivery,
  the process guard) stay unwrapped: their time is ``sim`` either way.

Self time is a span's duration minus its children's.  The timed phase
is one root span per deployment, named ``sim``: host time in the
kernel's run loop outside every layer span is the simulator's own, so
the layers' self shares sum to 1.

Instrumenting mutates classes, so a traced unit runs in a process of
its own.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import time
import weakref
from array import array
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: the layers a self share is reported for, in report order.
LAYERS = ("sim", "workload", "core", "balance", "distillers", "transend",
          "cache", "tacc", "dstore", "recovery", "consensus", "degrade",
          "chaos", "analysis")

#: ``repro`` packages outside :data:`LAYERS` whose code runs on the
#: measured paths: the experiment harness's bench services run inside
#: the front end, so they count to ``core``.
PACKAGE_LAYER = {"experiments": "core"}

#: cross-layer calls: (layer, module, class, methods).  ``*Base`` means
#: Base and every subclass; ``None`` for methods wraps every plain
#: function the class defines (small classes off the request path);
#: class ``None`` wraps module functions.
TARGETS: Tuple[Tuple[str, str, Optional[str], Optional[Tuple[str, ...]]],
               ...] = (
    ("core", "repro.core.fabric", "SNSFabric", ("submit",)),
    ("core", "repro.core.frontend", "FrontEnd", ("submit",)),
    ("core", "repro.core.manager_stub", "ManagerStub",
     ("dispatch", "pick", "observe_beacon", "observe_worker_advert")),
    ("core", "repro.core.worker_stub", "WorkerStub",
     ("submit", "probe_reply")),
    ("core", "repro.core.manager", "Manager",
     ("accept_worker", "accept_frontend", "request_worker")),
    ("balance", "repro.balance.policies", "*RoutingPolicy",
     ("select", "on_submit", "on_reply", "on_timeout",
      "on_worker_removed")),
    ("distillers", "repro.distillers.base", "*Distiller",
     ("work_estimate", "work_sample", "simulate")),
    ("transend", "repro.transend.service", "TranSendLogic",
     ("handle", "set_preference")),
    ("transend", "repro.transend.cachesys", "CacheSubsystem",
     ("lookup", "store", "any_variant")),
    ("transend", "repro.transend.origin", "OriginServer", ("fetch",)),
    ("cache", "repro.cache.lru", "LRUCache", ("get", "put", "peek")),
    ("cache", "repro.cache.partition", "ModHashPartitioner", ("locate",)),
    ("cache", "repro.cache.partition", "ConsistentHashRing", ("locate",)),
    ("tacc", "repro.tacc.customization", "WriteThroughCache",
     ("get", "set", "delete")),
    ("tacc", "repro.tacc.customization", "ProfileStore",
     ("get", "set", "delete")),
    ("dstore", "repro.dstore.store", "ReplicatedProfileStore",
     ("get", "set", "delete", "verify_committed", "stats")),
    ("dstore", "repro.dstore.cluster", "BrickCluster",
     ("population", "stats")),
    ("recovery", "repro.recovery.supervisor", "Supervisor",
     ("note_rpc_timeout",)),
    ("recovery", "repro.recovery.ledger", "RecoveryLedger", None),
    ("consensus", "repro.consensus.replica", "ManagerReplica",
     ("accept_worker", "accept_frontend", "request_worker")),
    ("consensus", "repro.consensus.replica", "ReplicatedManagerGroup",
     None),
    ("degrade", "repro.degrade.controller", "DegradationController",
     ("summary",)),
    ("degrade", "repro.degrade.guards", "RetryBudget", None),
    ("degrade", "repro.degrade.guards", "CircuitBreaker", None),
    ("degrade", "repro.degrade.service", "DegradableBenchService",
     ("handle",)),
    ("chaos", "repro.chaos.invariants", "InvariantChecker", None),
    ("chaos", "repro.chaos.campaign", "CampaignRunner",
     ("_profile_results",)),
    ("chaos", "repro.chaos.campaign", None, ("build_report",)),
    ("analysis", "repro.analysis.metrics", "LatencyStats", None),
    ("analysis", "repro.chaos.report", None,
     ("harvest_yield_series", "yield_recovery_time")),
)

#: instances whose counters the per-layer metrics read at the end.
TRACKED = (
    ("repro.core.manager_stub", "ManagerStub"),
    ("repro.cache.lru", "LRUCache"),
    ("repro.tacc.customization", "WriteThroughCache"),
    ("repro.transend.cachesys", "CacheSubsystem"),
    ("repro.recovery.supervisor", "Supervisor"),
    ("repro.analysis.metrics", "LatencyStats"),
)


#: end-of-iteration marker for :meth:`SpanTracer.timed_iterator`.
_END = object()


def module_layer(module_name: Optional[str]) -> str:
    parts = (module_name or "").split(".")
    if len(parts) < 2 or parts[0] != "repro":
        return "sim"
    if parts[1] in LAYERS:
        return parts[1]
    return PACKAGE_LAYER.get(parts[1], "sim")


class SpanTracer:
    """Span store with online self-time accounting.

    A frame is ``[name_id, start_ns, child_ns, span_index, request_id]``;
    a closed span is the six integers ``span_index, name_id, start_ns,
    end_ns, parent_index, request_id`` in :attr:`spans` (``-1`` for no
    parent or no request id).
    """

    def __init__(self) -> None:
        self.clock = time.perf_counter_ns
        self.active = False
        self.names: List[str] = []
        self.layer_of: List[str] = []
        self._ids: Dict[str, int] = {}
        self.self_ns: List[int] = []
        self.total_ns: List[int] = []
        self.calls: List[int] = []
        self.created: Counter = Counter()
        self.counts: Counter = Counter()
        self.stack: List[list] = []
        self.spans = array("q")
        self.instances: Dict[str, list] = defaultdict(list)
        #: span name ids of run-loop entry callbacks, by function
        self.entry_ids: Dict[Any, int] = {}
        #: request id of the submit in progress, if any (set by the
        #: benchmark's client adapter)
        self.pending_rid: Optional[int] = None
        self._next = 0
        self.root_id = self.name_id("sim", "sim")

    def name_id(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
            self.self_ns.append(0)
            self.total_ns.append(0)
            self.calls.append(0)
        return nid

    # -- frames ------------------------------------------------------------

    def open(self, nid: int, rid: Optional[int]) -> list:
        parent = self.stack[-1]
        if rid is None:
            rid = parent[4] if parent[4] is not None else self.pending_rid
        index = self._next
        self._next = index + 1
        frame = [nid, 0, 0, index, rid]
        self.stack.append(frame)
        frame[1] = self.clock()
        return frame

    def close(self, frame: list) -> None:
        end = self.clock()
        stack = self.stack
        stack.pop()
        duration = end - frame[1]
        nid = frame[0]
        self.self_ns[nid] += duration - frame[2]
        self.total_ns[nid] += duration
        self.calls[nid] += 1
        parent = stack[-1]
        parent[2] += duration
        rid = frame[4]
        self.spans.extend((frame[3], nid, frame[1], end, parent[3],
                           -1 if rid is None else rid))

    def run(self, nid: int, rid: Optional[int], fn: Callable, *args,
            **kwargs) -> Any:
        """``fn(*args, **kwargs)``, as a span when the tracer is active."""
        if not self.active:
            return fn(*args, **kwargs)
        frame = self.open(nid, rid)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(frame)

    def current_rid(self) -> Optional[int]:
        if not self.active:
            return None
        rid = self.stack[-1][4]
        return rid if rid is not None else self.pending_rid

    def begin(self) -> None:
        """Open the root span of one deployment's timed phase."""
        if self.stack:
            raise RuntimeError("tracer root opened inside a span")
        index = self._next
        self._next = index + 1
        self.stack.append([self.root_id, self.clock(), 0, index, None])
        self.active = True

    def end(self) -> None:
        end = self.clock()
        if len(self.stack) != 1:
            raise RuntimeError(f"{len(self.stack) - 1} spans still open "
                               "at the end of the timed phase")
        frame = self.stack.pop()
        duration = end - frame[1]
        self.self_ns[self.root_id] += duration - frame[2]
        self.total_ns[self.root_id] += duration
        self.calls[self.root_id] += 1
        self.spans.extend((frame[3], self.root_id, frame[1], end, -1, -1))
        self.active = False

    def timed_iterator(self, records: Iterable[Any], name: str) -> Any:
        """Each pull from ``records`` becomes a span named ``name``."""
        nid = self.name_id(name, name.split(".", 1)[0])
        iterator = iter(records)
        while True:
            record = self.run(nid, None, next, iterator, _END)
            if record is _END:
                return
            yield record

    # -- aggregation ---------------------------------------------------------

    def by_name(self, name: str) -> Tuple[int, int, int]:
        """(self_ns, total_ns, calls) of one span name (zeros if never
        seen)."""
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0, 0
        return self.self_ns[nid], self.total_ns[nid], self.calls[nid]

    def self_shares(self) -> Dict[str, float]:
        total = self.total_ns[self.root_id]
        shares = {layer: 0 for layer in LAYERS}
        for nid, self_ns in enumerate(self.self_ns):
            shares[self.layer_of[nid]] += self_ns
        return {layer: ns / total if total else 0.0
                for layer, ns in shares.items()}

    def live(self, cls_name: str) -> List[Any]:
        return [obj for obj in (ref() for ref in self.instances[cls_name])
                if obj is not None]

    @property
    def span_count(self) -> int:
        return len(self.spans) // 6

    def write(self, path: str) -> None:
        """Save every span as gzipped tab-separated text, one a line."""
        names = self.names
        spans = self.spans
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tname\tstart_ns\tend_ns\tparent\trequest\n")
            for at in range(0, len(spans), 6):
                index, nid, start, end, parent, rid = spans[at:at + 6]
                out.write(f"{index}\t{names[nid]}\t{start}\t{end}\t"
                          f"{parent}\t{'' if rid < 0 else rid}\n")


# -- wrappers ----------------------------------------------------------------

class _GenProxy:
    """Stands in for a generator; each resume is one span."""

    __slots__ = ("_tracer", "_gen", "_nid", "_rid")

    def __init__(self, tracer: SpanTracer, gen: Any, nid: int,
                 rid: Optional[int]) -> None:
        self._tracer = tracer
        self._gen = gen
        self._nid = nid
        self._rid = rid

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value: Any) -> Any:
        return self._tracer.run(self._nid, self._rid, self._gen.send, value)

    def throw(self, *args: Any) -> Any:
        return self._tracer.run(self._nid, self._rid, self._gen.throw,
                                *args)

    def close(self) -> None:
        self._gen.close()


def _wrap(tracer: SpanTracer, fn: Callable, name: str,
          layer: str) -> Callable:
    nid = tracer.name_id(name, layer)
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def generator_wrapper(*args, **kwargs):
            if tracer.active:
                tracer.created[name] += 1
            return _GenProxy(tracer, fn(*args, **kwargs), nid,
                             tracer.current_rid())
        return generator_wrapper

    @functools.wraps(fn)
    def call_wrapper(*args, **kwargs):
        return tracer.run(nid, None, fn, *args, **kwargs)
    return call_wrapper


def _classes(module: Any, spec: str) -> List[type]:
    """``spec`` names one class, or ``*Base`` for Base and every
    subclass of it loaded so far."""
    if not spec.startswith("*"):
        return [getattr(module, spec)]
    base = getattr(module, spec[1:])
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        if cls not in found:
            found.append(cls)
            todo.extend(cls.__subclasses__())
    return found


def _own_functions(cls: type) -> List[str]:
    return [name for name, value in vars(cls).items()
            if inspect.isfunction(value)
            and not (name.startswith("__") and name.endswith("__"))]


def instrument(tracer: SpanTracer) -> None:
    """Install every wrapper in this process (call before building)."""
    # load every module first so ``*Base`` specs see all subclasses
    for _layer, module_name, _cls, _methods in TARGETS:
        importlib.import_module(module_name)
    wrapped = set()
    for layer, module_name, spec, methods in TARGETS:
        module = importlib.import_module(module_name)
        if spec is None:
            for name in methods:
                setattr(module, name, _wrap(tracer, getattr(module, name),
                                            name, layer))
            continue
        for cls in _classes(module, spec):
            names = methods if methods is not None else _own_functions(cls)
            for name in names:
                if name not in vars(cls) or (cls, name) in wrapped:
                    continue  # inherited: the defining class is wrapped
                wrapped.add((cls, name))
                setattr(cls, name, _wrap(tracer, vars(cls)[name],
                                         f"{cls.__name__}.{name}", layer))
    _wrap_checked_submit(tracer)
    _wrap_kernel_entries(tracer)
    _count_calls(tracer)
    _track_instances(tracer)


def _entry(tracer: SpanTracer, callback: Callable) -> Callable:
    """A run-loop callback as a span of the layer that defines it."""
    function = getattr(callback, "__func__", callback)
    nid = tracer.entry_ids.get(function)
    if nid is None:
        layer = module_layer(getattr(function, "__module__", None))
        if layer == "sim":
            nid = -1
        else:
            name = getattr(function, "__qualname__",
                           type(function).__name__)
            nid = tracer.name_id(name, layer)
        tracer.entry_ids[function] = nid
    if nid < 0:
        return callback

    def entry(*args):
        return tracer.run(nid, None, callback, *args)
    return entry


def _entry_generator(tracer: SpanTracer, generator: Any) -> Any:
    """A process body as a span per resume, named by its code."""
    if isinstance(generator, _GenProxy) or not inspect.isgenerator(
            generator):
        return generator
    frame = generator.gi_frame
    module = frame.f_globals.get("__name__") if frame is not None else None
    layer = module_layer(module)
    if layer == "sim" or generator.__qualname__ == "Component._guard":
        return generator  # the kernel's own, or a guard around a proxy
    nid = tracer.name_id(generator.__qualname__, layer)
    return _GenProxy(tracer, generator, nid, tracer.current_rid())


def _wrap_kernel_entries(tracer: SpanTracer) -> None:
    from repro.core.component import Component
    from repro.sim.kernel import Environment

    process = Environment.process
    schedule_call = Environment.schedule_call
    spawn = Component.spawn
    every = Component.every

    def traced_process(self, generator):
        return process(self, _entry_generator(tracer, generator))

    def traced_schedule_call(self, delay, callback, value=None):
        return schedule_call(self, delay, _entry(tracer, callback), value)

    def traced_spawn(self, generator):
        return spawn(self, _entry_generator(tracer, generator))

    def traced_every(self, period, callback, **kwargs):
        return every(self, period, _entry(tracer, callback), **kwargs)

    Environment.process = functools.wraps(process)(traced_process)
    Environment.schedule_call = functools.wraps(schedule_call)(
        traced_schedule_call)
    Component.spawn = functools.wraps(spawn)(traced_spawn)
    Component.every = functools.wraps(every)(traced_every)


def _wrap_checked_submit(tracer: SpanTracer) -> None:
    """The chaos checker audits submits through a closure it returns."""
    from repro.chaos.invariants import InvariantChecker
    checked_submit = InvariantChecker.checked_submit

    def traced_checked_submit(self, submit):
        return _entry(tracer, checked_submit(self, submit))
    InvariantChecker.checked_submit = functools.wraps(checked_submit)(
        traced_checked_submit)


def _count_calls(tracer: SpanTracer) -> None:
    """Counters that need no span: kernel factories and policy fan-in."""
    from repro.sim.kernel import Environment

    def counting(fn: Callable, key: str) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    Environment.timeout = counting(Environment.timeout, "sim.timeout")
    Environment.process = counting(Environment.process, "sim.process")

    from repro.balance import policies
    for cls in _classes(policies, "*RoutingPolicy"):
        # the ejection wrapper hands its filtered list to an inner
        # policy, whose select is the one counted
        if "select" not in vars(cls) or cls.__name__ == "OutlierEjector":
            continue
        select = vars(cls)["select"]

        def counted_select(self, candidates, *args, _select=select,
                           **kwargs):
            if tracer.active:
                tracer.counts["balance.selects"] += 1
                tracer.counts["balance.candidates"] += len(candidates)
            return _select(self, candidates, *args, **kwargs)
        cls.select = functools.wraps(select)(counted_select)


def _track_instances(tracer: SpanTracer) -> None:
    for module_name, cls_name in TRACKED:
        cls = getattr(importlib.import_module(module_name), cls_name)
        init = cls.__init__

        def tracking_init(self, *args, _init=init, _name=cls_name,
                          **kwargs):
            _init(self, *args, **kwargs)
            tracer.instances[_name].append(weakref.ref(self))
        cls.__init__ = functools.wraps(init)(tracking_init)


# -- metrics -----------------------------------------------------------------

def _us_per(ns: int, count: int) -> float:
    return ns / count / 1000.0 if count else 0.0


def layer_metrics(tracer: SpanTracer, session: Any,
                  outcome: Any) -> Dict[str, float]:
    """Every per-layer metric that host spans and counters give."""
    requests = session.requests
    per_req = (lambda value: value / requests) if requests else \
        (lambda value: 0.0)

    def self_of(*names: str) -> int:
        return sum(tracer.by_name(name)[0] for name in names)

    def total_and_calls(*names: str) -> Tuple[int, int]:
        total = calls = 0
        for name in names:
            _self, name_total, name_calls = tracer.by_name(name)
            total += name_total
            calls += name_calls
        return total, calls

    distiller_names = [name for name in tracer.names
                       if name.split(".")[-1] in ("work_estimate",
                                                  "work_sample",
                                                  "simulate")]
    select_names = [name for name in tracer.names
                    if name.endswith(".select")
                    and tracer.layer_of[tracer._ids[name]] == "balance"]
    dispatches = tracer.created["ManagerStub.dispatch"]
    stubs = tracer.live("ManagerStub")
    caches = tracer.live("CacheSubsystem")
    profile_caches = tracer.live("WriteThroughCache")
    profile_reads = sum(c.hits + c.misses for c in profile_caches)
    lookups = sum(c.hits + c.misses for c in caches)
    answered = outcome.answered
    transend_ran = tracer.by_name("TranSendLogic.handle")[2] > 0
    select_ns, select_calls = total_and_calls(*select_names)
    cache_ns, cache_calls = total_and_calls(
        "LRUCache.get", "LRUCache.put", "LRUCache.peek",
        "ModHashPartitioner.locate", "ConsistentHashRing.locate")
    read_ns, reads = total_and_calls("ReplicatedProfileStore.get")
    write_ns, writes = total_and_calls("ReplicatedProfileStore.set")
    add_ns, adds = total_and_calls("LatencyStats.add")

    metrics = {
        "sim.events_per_req": per_req(session.events),
        "sim.timeouts_per_req": per_req(tracer.counts["sim.timeout"]),
        "sim.processes_per_req": per_req(tracer.counts["sim.process"]),
        "sim.idle_events_per_sim_s": (
            session.idle_events / session.idle_sim_s
            if session.idle_sim_s else 0.0),
        "workload.record_us": _us_per(*total_and_calls("workload.record")),
        "workload.build_s": session.build_s,
        "core.ingress_us": per_req(self_of(
            "SNSFabric.submit", "FrontEnd.submit")) / 1000.0,
        "core.dispatch_us": per_req(self_of(
            "ManagerStub.dispatch", "ManagerStub.pick")) / 1000.0,
        "core.worker_us": per_req(self_of(
            "WorkerStub._service_loop", "WorkerStub._deliver",
            "WorkerStub.submit")) / 1000.0,
        "core.picks_per_dispatch": (
            tracer.by_name("ManagerStub.pick")[2] / dispatches
            if dispatches else 0.0),
        "core.retry_ratio": (sum(s.retries for s in stubs) / dispatches
                             if dispatches else 0.0),
        "core.timeout_ratio": (sum(s.timeouts for s in stubs) / dispatches
                               if dispatches else 0.0),
        "balance.select_us": _us_per(select_ns, select_calls),
        "balance.candidates_per_select": (
            tracer.counts["balance.candidates"]
            / tracer.counts["balance.selects"]
            if tracer.counts["balance.selects"] else 0.0),
        "distillers.cost_model_us": per_req(
            total_and_calls(*distiller_names)[0]) / 1000.0,
        "transend.handle_us": per_req(
            self_of("TranSendLogic.handle")) / 1000.0,
        "transend.cache_lookups_per_req": per_req(
            tracer.created["CacheSubsystem.lookup"]),
        "transend.cache_stores_per_req": per_req(
            tracer.by_name("CacheSubsystem.store")[2]),
        "transend.cache_hit_ratio": (
            sum(c.hits for c in caches) / lookups if lookups else 0.0),
        "cache.evictions_per_req": per_req(
            sum(c.evictions for c in tracer.live("LRUCache"))),
        "transend.origin_fetches_per_req": per_req(
            tracer.created["OriginServer.fetch"]),
        "transend.fallback_ratio": (
            outcome.statuses.get("fallback", 0) / answered
            if answered and transend_ran else 0.0),
        "cache.op_us": _us_per(cache_ns, cache_calls),
        "tacc.profile_miss_ratio": (
            sum(c.misses for c in profile_caches) / profile_reads
            if profile_reads else 0.0),
        "dstore.read_us": _us_per(read_ns, reads),
        "dstore.write_us": _us_per(write_ns, writes),
        "recovery.probes_per_sim_s": (
            sum(s.probes_sent for s in tracer.live("Supervisor"))
            / session.sim_s if session.sim_s else 0.0),
        "analysis.latency_add_us": _us_per(add_ns, adds),
        "analysis.samples_held": float(sum(
            len(s._samples) for s in tracer.live("LatencyStats"))),
    }
    for layer, share in tracer.self_shares().items():
        metrics[f"{layer}.self_share"] = share
    return metrics


#: obs span names whose simulated durations become per-request metrics.
OBS_HOPS = {
    "core.netstack_ms": "netstack",
    "core.thread_wait_ms": "thread-wait",
    "core.san_ms": "san-transfer",
    "core.worker_queue_ms": "worker-queue",
    "core.worker_service_ms": "worker-service",
    "transend.origin_fetch_ms": "origin-fetch",
    "transend.cache_lookup_ms": "cache-lookup",
}


def obs_metrics(tracers: List[Any]) -> Tuple[Dict[str, float], Any]:
    """Simulated ms per sampled request spent in each named hop, from
    the program's own span tracer (``repro.obs``), plus its category
    attribution report."""
    from repro.obs.attribution import build_attribution_report

    sums = {metric: 0.0 for metric in OBS_HOPS}
    wanted = {hop: metric for metric, hop in OBS_HOPS.items()}
    traces = 0
    for tracer in tracers:
        for spans in tracer.finished_traces().values():
            traces += 1
            for span in spans:
                metric = wanted.get(span.name)
                if metric is not None:
                    sums[metric] += span.duration
    metrics = {metric: (total / traces * 1000.0 if traces else 0.0)
               for metric, total in sums.items()}
    return metrics, build_attribution_report(tracers)
