"""Outside-in layer tracing: wrap public functions, record spans, restore.

The benchmark never edits ``src/``. A traced run instead replaces public
functions of each layer with timing wrappers, in every namespace where
callers look them up, and restores the originals afterwards. Names that
callers import with ``from module import name`` live in the caller's
module too, so :meth:`Tracer.patch_function` patches every loaded
``repro.*`` module that holds the same function object, not only the
defining module.

Spans record name, start, end, parent span (from a per-thread stack, so
spans opened on the server's worker threads nest correctly) and a request
id. Spans stay in memory; :meth:`Tracer.write` writes them out when the
run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

__all__ = ["Span", "Tracer", "import_layers", "instrument_layers", "layer_metrics", "self_times"]


class Span:
    """One timed call of a wrapped function."""

    __slots__ = ("index", "name", "start", "end", "parent", "request_id", "thread")

    def __init__(self, index: int, name: str, parent: int, request_id, thread: int):
        self.index = index
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.parent = parent
        self.request_id = request_id
        self.thread = thread

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {slot: getattr(self, slot) for slot in self.__slots__}


#: ``after(tracer, span, args, kwargs, result)`` — called once the wrapped
#: function returned normally; used to derive counts at the same boundary.
AfterHook = Callable[["Tracer", Span, tuple, dict, Any], None]
#: ``request_id(args, kwargs)`` — the request id a root span belongs to.
RequestIdHook = Callable[[tuple, dict], Optional[str]]


class Tracer:
    """Span recorder plus the patch/restore bookkeeping around it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.values: Dict[str, List[float]] = defaultdict(list)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[tuple] = []

    # ---------------------------------------------------------------- #
    # recording
    # ---------------------------------------------------------------- #

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += amount

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            self.values[name].append(float(value))

    def wrap(
        self,
        func: Callable,
        name: str,
        after: Optional[AfterHook] = None,
        request_id: Optional[RequestIdHook] = None,
        binds_thread: bool = False,
        carry: Optional[int] = None,
    ) -> Callable:
        """A timing wrapper around *func* that records one span per call.

        A span's request id comes from *request_id*, else from its parent
        span, else from the request its thread is bound to. A root span of
        a *binds_thread* function binds its thread to its request id until
        the next such span: a server worker runs one request at a time, and
        its later root spans (retry loop, kernel) belong to that request.

        ``carry`` names a positional callable argument that *func* may run
        on another thread (a retry policy with an attempt timeout does);
        spans it opens get this span as their parent wherever it runs.
        """
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            rid = request_id(args, kwargs) if request_id is not None else None
            if parent is None and binds_thread:
                tracer._local.request_id = rid
            if rid is None:
                rid = (
                    parent.request_id
                    if parent is not None
                    else getattr(tracer._local, "request_id", None)
                )
            with tracer._lock:
                span = Span(
                    len(tracer.spans),
                    name,
                    parent.index if parent is not None else -1,
                    rid,
                    threading.get_ident(),
                )
                tracer.spans.append(span)
            if carry is not None and len(args) > carry:
                args = args[:carry] + (tracer._carried(args[carry], span),) + args[carry + 1:]
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if after is not None:
                after(tracer, span, args, kwargs, result)
            return result

        traced.__wrapped__ = func
        return traced

    def _carried(self, callback: Callable, parent: Span) -> Callable:
        def run_under_parent(*args, **kwargs):
            stack = self._stack()
            stack.append(parent)
            try:
                return callback(*args, **kwargs)
            finally:
                stack.pop()

        return run_under_parent

    # ---------------------------------------------------------------- #
    # patching
    # ---------------------------------------------------------------- #

    def patch_attr(self, owner: Any, attr: str, name: str, **hooks: Any) -> None:
        """Wrap ``owner.attr`` (a class method or module function) in place.

        ``staticmethod``/``classmethod`` descriptors are unwrapped, traced
        and re-wrapped, so the patched attribute binds exactly like the
        original.
        """
        raw = inspect.getattr_static(owner, attr)
        own = attr in vars(owner)
        if isinstance(raw, (staticmethod, classmethod)):
            replacement: Any = type(raw)(self.wrap(raw.__func__, name, **hooks))
        else:
            replacement = self.wrap(raw, name, **hooks)
        self._patches.append((owner, attr, raw, own))
        setattr(owner, attr, replacement)

    def patch_function(self, module_name: str, attr: str, name: str, **hooks: Any) -> int:
        """Wrap a module-level function in every ``repro`` module holding it.

        Returns how many namespaces were patched (at least the defining
        module).
        """
        original = getattr(sys.modules[module_name], attr)
        wrapped = self.wrap(original, name, **hooks)
        patched = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            if vars(module).get(attr) is original:
                self._patches.append((module, attr, original, True))
                setattr(module, attr, wrapped)
                patched += 1
        return patched

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, raw, own = self._patches.pop()
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.restore()

    # ---------------------------------------------------------------- #
    # reporting
    # ---------------------------------------------------------------- #

    def totals(self, name: str) -> tuple:
        """``(calls, total_seconds)`` over the spans called *name*."""
        durations = [s.duration for s in self.spans if s.name == name]
        return len(durations), sum(durations)

    def write(self, path: str, summary: Dict[str, Any]) -> None:
        """Write every span and a per-name self-time summary as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"summary": summary, "spans": [s.to_dict() for s in self.spans]},
                handle,
            )


def self_times(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total and self seconds.

    Self time is a span's duration minus the part of it that its child
    spans cover (children on one thread never overlap each other).
    """
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    table: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for span in spans:
        covered = sum(child.duration for child in children.get(span.index, ()))
        row = table[span.name]
        row["calls"] += 1
        row["total_s"] += span.duration
        row["self_s"] += max(span.duration - covered, 0.0)
    return dict(table)


# -------------------------------------------------------------------- #
# the layers of repro, timed at their public calls
# -------------------------------------------------------------------- #


class _RequestJoin:
    """Carries a served request's id from the event loop to its worker.

    The client sends the id in the ``/solve`` body. On the loop thread
    ``SolveRequest.from_body`` yields it and ``parse_script`` runs next with
    no ``await`` in between, so the parsed assertion objects are keyed to
    the id. The worker thread receives those same objects, which is how
    its root span finds the id.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._by_assertion: Dict[int, str] = {}

    def after_from_body(self, tracer, span, args, kwargs, result) -> None:
        self._local.pending = result.request_id

    def parse_request_id(self, args, kwargs) -> Optional[str]:
        return getattr(self._local, "pending", None)

    def after_parse(self, tracer, span, args, kwargs, result) -> None:
        pending = getattr(self._local, "pending", None)
        if pending is not None and result.assertions:
            self._by_assertion[id(result.assertions[0])] = pending
        self._local.pending = None

    def worker_request_id(self, args, kwargs) -> Optional[str]:
        assertions = args[1] if len(args) > 1 else kwargs.get("assertions")
        if assertions:
            # Popped: each request hands its assertions to one worker call,
            # and a freed assertion's id may be reused by a later one.
            return self._by_assertion.pop(id(assertions[0]), None)
        return None


def _after_sample_model(tracer, span, args, kwargs, result) -> None:
    reads = int(result.num_occurrences.sum())
    sweeps = int(result.info.get("num_sweeps", 0))
    tracer.count("anneal.spin_updates", reads * sweeps * result.states.shape[1])


def _after_decode(tracer, span, args, kwargs, result) -> None:
    tracer.observe("success_rate", result.success_rate)


def _after_cache(tracer, span, args, kwargs, result) -> None:
    tracer.count("cache.hits", 1.0 if result[1] else 0.0)


def _after_optimize(tracer, span, args, kwargs, result) -> None:
    tracer.count("opt.restarts", result.restarts)


#: Every module whose names the tracer patches or whose callers it reaches.
LAYER_MODULES = (
    "repro.anneal.simulated",
    "repro.core.formulation",
    "repro.core.solver",
    "repro.opt.driver",
    "repro.server.app",
    "repro.server.client",
    "repro.server.protocol",
    "repro.server.workers",
    "repro.service.batch",
    "repro.service.cache",
    "repro.service.fused",
    "repro.service.policy",
    "repro.smt.compiler",
    "repro.smt.parser",
    "repro.smt.solver",
)


def import_layers() -> None:
    """Load every traced module, so patching reaches all their callers."""
    for name in LAYER_MODULES:
        importlib.import_module(name)


def instrument_layers(tracer: Tracer) -> None:
    """Wrap the public calls of every measured layer.

    Layers: ``repro.smt`` (parse, compile), ``repro.core`` (QUBO build,
    attempt driver, decode + verify), ``repro.anneal`` (solo and tiled
    kernels), ``repro.service`` (retry policy, compile cache),
    ``repro.opt`` (anytime optimizer) and ``repro.server`` (request
    framing, client round trip).
    """
    import_layers()
    simulated = sys.modules["repro.anneal.simulated"]
    formulation = sys.modules["repro.core.formulation"]
    core_solver = sys.modules["repro.core.solver"]
    opt_driver = sys.modules["repro.opt.driver"]
    client = sys.modules["repro.server.client"]
    protocol = sys.modules["repro.server.protocol"]
    cache = sys.modules["repro.service.cache"]
    policy = sys.modules["repro.service.policy"]

    join = _RequestJoin()
    built: Dict[int, Any] = {}

    def after_build_model(tracer, span, args, kwargs, result) -> None:
        # build_model memoizes; count each distinct QUBO once. Holding the
        # model keeps its id from being reused by a later one.
        if id(result) not in built:
            built[id(result)] = result
            tracer.observe("qubo_vars", result.num_variables)

    tracer.patch_function(
        "repro.smt.parser", "parse_script", "smt.parse",
        after=join.after_parse, request_id=join.parse_request_id,
    )
    tracer.patch_function("repro.smt.compiler", "compile_assertions", "smt.compile")
    tracer.patch_function(
        "repro.core.solver", "result_from_sampleset", "core.decode_verify",
        after=_after_decode,
    )
    tracer.patch_attr(
        formulation.StringFormulation, "build_model", "core.build_model",
        after=after_build_model,
    )
    tracer.patch_attr(core_solver.StringQuboSolver, "solve", "core.attempt")
    tracer.patch_attr(
        simulated.SimulatedAnnealingSampler, "sample_model", "anneal.sample_model",
        after=_after_sample_model,
    )
    tracer.patch_attr(
        simulated.SimulatedAnnealingSampler, "sample_tiled", "anneal.sample_tiled"
    )
    tracer.patch_attr(policy.RetryPolicy, "run", "service.retry", carry=1)
    tracer.patch_attr(
        cache.CompileCache, "get_or_compile", "service.cache",
        after=_after_cache, request_id=join.worker_request_id, binds_thread=True,
    )
    tracer.patch_attr(
        opt_driver.AnytimeOptimizer, "optimize", "opt.optimize",
        after=_after_optimize, request_id=join.worker_request_id, binds_thread=True,
    )
    tracer.patch_attr(
        protocol.SolveRequest, "from_body", "server.parse_request",
        after=join.after_from_body,
    )
    tracer.patch_attr(
        client.SolverClient, "solve", "server.client_roundtrip",
        request_id=lambda args, kwargs: kwargs.get("request_id"),
    )


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(
    tracer: Tracer,
    *,
    timed_wall_s: float,
    envelopes: Optional[List[Dict[str, Any]]] = None,
    report_counters: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """The per-layer metrics of one traced pass.

    ``envelopes`` are the served requests' ``(roundtrip_ms, queue_ms,
    solve_ms)`` records; ``report_counters`` the batch service's own
    counters (``fused.*``). Layers a workload never calls report 0.
    """
    sm_calls, sm_s = tracer.totals("anneal.sample_model")
    st_calls, st_s = tracer.totals("anneal.sample_tiled")
    attempts, _ = tracer.totals("core.attempt")
    solves, _ = tracer.totals("service.retry")
    cache_calls, _ = tracer.totals("service.cache")
    opt_calls, opt_s = tracer.totals("opt.optimize")
    spin = tracer.counts.get("anneal.spin_updates", 0.0)
    counters = report_counters or {}
    items = counters.get("batch.items", 0.0)
    tiles = counters.get("fused.tiles", 0.0)
    served = envelopes or []
    return {
        "anneal.sample_model.ms": sm_s * 1000.0,
        "anneal.sample_model.calls": float(sm_calls),
        "anneal.sample_model.wall_share": sm_s / timed_wall_s if timed_wall_s else 0.0,
        "anneal.spin_updates": spin,
        "anneal.spin_updates_per_s": spin / sm_s if sm_s else 0.0,
        "anneal.sample_tiled.ms": st_s * 1000.0,
        "anneal.sample_tiled.calls": float(st_calls),
        "anneal.read_success_rate": _mean(tracer.values.get("success_rate", [])),
        "service.retry.attempts_per_solve": attempts / solves if solves else 0.0,
        "service.fused.fallback_share": (
            counters.get("fused.fallbacks", 0.0) / items if items else 0.0
        ),
        "service.fused.blocks_per_tile": (
            counters.get("fused.blocks", 0.0) / tiles if tiles else 0.0
        ),
        "service.cache.hit_ratio": (
            tracer.counts.get("cache.hits", 0.0) / cache_calls if cache_calls else 0.0
        ),
        "smt.parse.ms": tracer.totals("smt.parse")[1] * 1000.0,
        "smt.compile.ms": tracer.totals("smt.compile")[1] * 1000.0,
        "core.build_model.ms": tracer.totals("core.build_model")[1] * 1000.0,
        "core.qubo_vars.mean": _mean(tracer.values.get("qubo_vars", [])),
        "core.decode_verify.ms": tracer.totals("core.decode_verify")[1] * 1000.0,
        "opt.optimize.ms": opt_s * 1000.0,
        "opt.optimize.calls": float(opt_calls),
        "opt.restarts": tracer.counts.get("opt.restarts", 0.0),
        "server.queue_ms.p50": _median([e["queue_ms"] for e in served]),
        "server.solve_ms.p50": _median([e["solve_ms"] for e in served]),
        "server.overhead_ms.p50": _median(
            [e["roundtrip_ms"] - e["queue_ms"] - e["solve_ms"] for e in served]
        ),
        "trace.spans": float(len(tracer.spans)),
    }


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0
