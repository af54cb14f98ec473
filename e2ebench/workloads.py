"""The three benchmark workloads, each a closed loop over public entry points.

Inputs come from :class:`repro.smt.generator.InstanceGenerator`, seeded
from the workload seed, so one seed always gives the same inputs in the
same order. Every generated instance is satisfiable by construction.
The generated instances are reordered into blocks with a fixed count per
stratum (witness length, and whether an op that makes instances slow is
present; see :func:`stratified`), so one run's inputs hold the same mix
as the next run's and a seed changes which instances, not how many hard
ones, a run answers.

* ``check-sat`` — a fresh ``QuantumSMTSolver.from_script_text(script,
  seed=...)`` and ``check_sat()`` per distinct ``ops="all"`` instance, at
  library defaults (64 reads, 256 sweeps, random-scan kernel). Covers the
  paper's whole §4 operator set on the solo path.
* ``batch-fused`` — ``BatchSolver(executor="fused")`` at defaults over
  batches of 32 distinct legacy ``InstanceGenerator()`` instances. Tiled
  colored ``sample_tiled`` and per-item scan fallbacks share its wall
  time, so a kernel change that helps one and costs the other shows.
  Every batch is one ``FUSED_BLOCK``: ``CONTAINS_PER_BATCH`` instances
  with a ``str.contains`` constraint, which cause almost all fallbacks,
  and fixed counts per witness length, so batches differ less in cost
  than a plain draw makes them.

  Both are measured by ``CALLER_PROCESSES`` caller processes, each a
  closed loop with one call (one batch) in flight; in-process passes
  (the traced run, the tests) use a single caller.
* ``serve`` — an in-process ``BackgroundServer`` (thread backend, 2
  workers, ``num_sweeps=64``) driven by 2 callers, each with one
  keep-alive ``SolverClient``. Closed loop, because SMT clients block on
  each check-sat. The traffic mix is fixed per block of 20 requests: 12
  fresh ``ops="all"`` scripts, 5 exact repeats of earlier scripts (compile
  cache hits) and 3 weighted ``soft=2`` scripts (the ``repro.opt`` path),
  in an order the seed shuffles.

``objective_sum`` is the audited objective summed over the seed's first
``OBJECTIVE_WINDOW`` weighted instances. In serve they are the first
weighted requests of the traffic; check-sat and batch-fused have no
weighted inputs, so after their timed pass :func:`objective_pass` solves
the same instances with ``AnytimeOptimizer`` at serve's budget, untimed.

A timed pass ends at the first input boundary after ``seconds`` once it
has answered at least ``MIN_CALLS`` inputs; given a ``limit`` it answers
exactly that many (the traced pass replays the untraced pass's inputs
that way).
"""

from __future__ import annotations

import base64
import os
import pickle
import random
import resource
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from checker import AnswerChecker

HERE = os.path.dirname(os.path.abspath(__file__))

__all__ = [
    "WORKLOADS",
    "PassResult",
    "batch_fused",
    "check_sat",
    "measure",
    "objective_pass",
    "serve",
    "serve_plan",
    "warm_up",
]

#: Witness lengths are 3-5 in every workload (the generator default is
#: 3-8): shorter instances let one run answer enough calls for a steady
#: p90 and a steady throughput across seeds.
MAX_LENGTH = 5
BATCH_SIZE = 32
SERVE_SWEEPS = 64
SERVE_CALLERS = 2
#: Requests per second the serve plan is sized for: several times what the
#: server answers on 2 cores (about 10/s), so a timed pass never runs out.
SERVE_PLAN_RATE = 40.0
#: Kinds of one block of serve traffic: 60% fresh, 25% repeat, 15% weighted.
SERVE_BLOCK = ("fresh",) * 12 + ("repeat",) * 5 + ("weighted",) * 3
#: A timed end-to-end pass answers at least this many inputs, so that at
#: least 10 latency samples lie beyond p90.
MIN_CALLS = 100
#: check-sat and batch-fused are measured by this many caller processes,
#: one per core, each its own closed loop. Two callers answer about 1.85x
#: the calls of one in the same time, which is what keeps their per-run
#: p90 and throughput steady across seeds.
CALLER_PROCESSES = 2
#: ``objective_sum`` covers the seed's first this-many weighted instances,
#: so it sums over the same inputs in every pass at one seed. Most of an
#: instance's objective is its optimum, which varies from one instance to
#: the next by about 60% of the mean; summed over 36 instances it spread
#: 15% across seeds 1-10 (quartile distance over median; 12 gave 23%).
OBJECTIVE_WINDOW = 36
#: Ops after which an ``ops="all"`` instance takes longest and most often
#: ends ``unknown``: over 440 check-sat instances, those with one took 2.2x
#: the mean of the rest and held 25 of the 28 ``unknown`` answers. About a
#: quarter of the instances have one.
SLOW_OPS = frozenset({"notequals", "contains"})
#: One block of check-sat inputs (and of serve's fresh scripts): per
#: witness length 3, 4 and 5, one instance with a slow op and three
#: without. Mean cost grows about 2x from length 3 to 5, and the slow
#: instances make the latency tail, so a plain draw lets one run's mix of
#: them move throughput and p90 by itself; fixed counts per block remove
#: that (bootstrapped p90 spread over 10 runs of 250 calls: 0.17 → 0.11).
ALL_OPS_BLOCK = {(length, slow): 1 if slow else 3 for length in (3, 4, 5) for slow in (True, False)}
#: One fused batch of legacy instances: 10 with a ``str.contains``
#: constraint and 22 without, lengths 3, 4, 5 as even as 32 allows. About
#: a third of the legacy instances have a ``str.contains`` constraint, and
#: about 17% of those fall back to the solo path (under 1% of the rest).
FUSED_BLOCK = {
    (3, True): 4, (4, True): 3, (5, True): 3,
    (3, False): 7, (4, False): 8, (5, False): 7,
}
CONTAINS_PER_BATCH = sum(n for (_, contains), n in FUSED_BLOCK.items() if contains)
#: Serve's weighted scripts: one per witness length in every block of 3.
WEIGHTED_BLOCK = {3: 1, 4: 1, 5: 1}


@dataclass
class PassResult:
    """What one timed pass of a workload measured."""

    calls: int = 0
    solved: int = 0
    errors: int = 0
    wall_s: float = 0.0
    #: Calls per second of the pass's own wall time; with several caller
    #: processes the sum of theirs, so the time one caller idles at the end
    #: waiting for the other's last call does not count.
    throughput_per_s: float = 0.0
    latencies_ms: List[float] = field(default_factory=list)
    #: serve only: per request ``roundtrip_ms``/``queue_ms``/``solve_ms``.
    envelopes: List[Dict[str, float]] = field(default_factory=list)
    #: serve only: answered requests per traffic kind.
    mix: Dict[str, int] = field(default_factory=dict)
    #: serve only: audited objective sum over the objective window.
    objective_sum: float = 0.0
    #: batch-fused only: the batch service's own counters.
    counters: Dict[str, float] = field(default_factory=dict)
    #: Largest peak RSS of the caller processes (0 for an in-process pass).
    peak_rss_mb: float = 0.0


def derive_seed(seed: int, stream: int) -> int:
    """Independent sub-seed *stream* of the workload seed."""
    return (seed * 1_000_003 + stream * 7_919) % (2**31 - 1)


def _taker(
    seconds: float,
    limit: Optional[int],
    unit: int = 1,
    at_least: int = MIN_CALLS,
) -> Callable[[], Optional[int]]:
    """Hands out the next unit of ``unit`` inputs until the pass is done.

    A timed pass is done at the first unit boundary after *seconds* once
    *at_least* inputs are out; a *limit* pass after exactly *limit*
    inputs. Callers (threads, or caller processes through the threads
    that serve them) together answer a gap-free prefix of the seed's
    inputs.
    """
    lock = threading.Lock()
    handed = 0
    start = time.perf_counter()

    def take() -> Optional[int]:
        nonlocal handed
        with lock:
            done = handed * unit
            if limit is not None:
                if done >= limit:
                    return None
            elif done >= at_least and time.perf_counter() - start >= seconds:
                return None
            handed += 1
            return handed - 1

    return take


def stratified(generator: Any, block: Dict[Any, int], stratum: Callable[[Any], Any]) -> Iterator[Any]:
    """The *generator*'s instances, reordered into blocks with
    ``block[k]`` instances of each stratum ``k``.

    Each block takes the next instances of every stratum, in generation
    order; instances a block has no room for wait for a later one, so
    none is dropped.
    """
    queues: Dict[Any, List[Tuple[int, Any]]] = {key: [] for key in block}
    drawn = 0
    while True:
        while any(len(queues[key]) < count for key, count in block.items()):
            instance = generator.generate()
            queues[stratum(instance)].append((drawn, instance))
            drawn += 1
        chosen = []
        for key, count in block.items():
            chosen += queues[key][:count]
            del queues[key][:count]
        for _, instance in sorted(chosen, key=lambda pair: pair[0]):
            yield instance


def _length(instance: Any) -> int:
    return len(instance.witness["x"])


def all_ops_instances(seed: int) -> Iterator[Any]:
    """The seed's ``ops="all"`` instances in blocks of ``ALL_OPS_BLOCK``."""
    from repro.smt.generator import InstanceGenerator

    generator = InstanceGenerator(ops="all", max_length=MAX_LENGTH, seed=derive_seed(seed, 1))
    return stratified(
        generator, ALL_OPS_BLOCK, lambda i: (_length(i), bool(SLOW_OPS & set(i.ops)))
    )


# -------------------------------------------------------------------- #
# check-sat
# -------------------------------------------------------------------- #


def check_sat(
    seed: int,
    seconds: float,
    checker: AnswerChecker,
    limit: Optional[int] = None,
    take: Optional[Callable[[], Optional[int]]] = None,
    min_calls: int = MIN_CALLS,
) -> PassResult:
    from repro.smt.solver import QuantumSMTSolver

    instances = all_ops_instances(seed)
    solver_seed = derive_seed(seed, 2)
    take = take or _taker(seconds, limit, at_least=min_calls)
    out = PassResult()
    generated = 0
    start = time.perf_counter()
    while (index := take()) is not None:
        while generated <= index:
            script = next(instances).script
            generated += 1
        began = time.perf_counter()
        try:
            result = QuantumSMTSolver.from_script_text(
                script, seed=solver_seed + index
            ).check_sat()
        except Exception as exc:  # noqa: BLE001 — a failed call is counted, not fatal
            checker.record_error(index, type(exc).__name__)
            out.errors += 1
        else:
            out.solved += checker.check_decision(index, script, result.status, result.model)
        out.latencies_ms.append((time.perf_counter() - began) * 1000.0)
        out.calls += 1
    out.wall_s = time.perf_counter() - start
    out.throughput_per_s = out.calls / out.wall_s
    return out


# -------------------------------------------------------------------- #
# batch-fused
# -------------------------------------------------------------------- #


def batch_fused(
    seed: int,
    seconds: float,
    checker: AnswerChecker,
    limit: Optional[int] = None,
    take: Optional[Callable[[], Optional[int]]] = None,
    min_calls: int = MIN_CALLS,
) -> PassResult:
    """Each item's latency runs from its batch's submission until its
    answer is checked: every item of a fused tile finishes with its tile."""
    from repro.service.batch import BatchSolver

    batches = fused_batches(seed)
    take = take or _taker(seconds, limit, unit=BATCH_SIZE, at_least=min_calls)
    out = PassResult()
    generated: List[List[str]] = []
    start = time.perf_counter()
    while (batch := take()) is not None:
        first = batch * BATCH_SIZE
        while len(generated) <= batch:
            generated.append(next(batches))
        scripts = generated[batch][: None if limit is None else limit - first]
        # A BatchSolver gives every item the same base seed, so one seed's
        # luck touches a whole batch; a seed per batch keeps a run from
        # riding on one seed.
        solver = BatchSolver(executor="fused", seed=derive_seed(seed, 100 + batch))
        began = time.perf_counter()
        report = solver.solve_scripts(scripts)
        for name, value in report.metrics["counters"].items():
            out.counters[name] = out.counters.get(name, 0) + value
        for offset, item in enumerate(report):
            if item.error:
                checker.record_error(first + offset, item.error_type)
                out.errors += 1
            else:
                out.solved += checker.check_decision(
                    first + offset, scripts[offset], item.status, item.model
                )
            out.latencies_ms.append((time.perf_counter() - began) * 1000.0)
        out.calls += len(scripts)
    out.wall_s = time.perf_counter() - start
    out.throughput_per_s = out.calls / out.wall_s
    return out


def fused_batches(seed: int) -> Iterator[List[str]]:
    """The seed's fused batches, in order, each one ``FUSED_BLOCK``."""
    from repro.smt.generator import InstanceGenerator

    generator = InstanceGenerator(max_length=MAX_LENGTH, seed=derive_seed(seed, 1))
    instances = stratified(generator, FUSED_BLOCK, lambda i: (_length(i), "contains" in i.ops))
    while True:
        yield [next(instances).script for _ in range(BATCH_SIZE)]


# -------------------------------------------------------------------- #
# serve
# -------------------------------------------------------------------- #


@dataclass
class Request:
    kind: str
    script: str


def warm_scripts(seed: int, count: int = 4) -> List[str]:
    """Scripts sent before timing starts; block 0's repeats draw on them."""
    from repro.smt.generator import InstanceGenerator

    generator = InstanceGenerator(ops="all", max_length=MAX_LENGTH, seed=derive_seed(seed, 5))
    return [generator.generate().script for _ in range(count)]


def serve_plan(seed: int, count: int) -> List[Request]:
    """The first *count* requests of the seed's traffic.

    Repeats copy a fresh script of an earlier block (or a warm-up script),
    so the server has compiled it before the repeat arrives.
    """
    rng = random.Random(derive_seed(seed, 3))
    fresh = all_ops_instances(seed)
    weighted = weighted_instances(seed)
    earlier = warm_scripts(seed)
    plan: List[Request] = []
    while len(plan) < count:
        kinds = list(SERVE_BLOCK)
        rng.shuffle(kinds)
        block_fresh = []
        for kind in kinds:
            if kind == "fresh":
                script = next(fresh).script
                block_fresh.append(script)
            elif kind == "repeat":
                script = rng.choice(earlier)
            else:
                script = next(weighted).script
            plan.append(Request(kind, script))
        earlier.extend(block_fresh)
    return plan[:count]


def serve(
    seed: int,
    seconds: float,
    checker: AnswerChecker,
    limit: Optional[int] = None,
    min_calls: int = MIN_CALLS,
) -> PassResult:
    """Serve the seed's traffic through HTTP from two caller threads."""
    from repro.server.app import BackgroundServer, ServerConfig
    from repro.server.client import ServerConnectionError, SolverClient

    count = limit if limit is not None else max(int(seconds * SERVE_PLAN_RATE), min_calls)
    plan = serve_plan(seed, count)
    weighted_at = [i for i, r in enumerate(plan) if r.kind == "weighted"]
    window = set(weighted_at[:OBJECTIVE_WINDOW])
    last_in_window = max(window) if window else -1
    config = ServerConfig(
        port=0, seed=derive_seed(seed, 2), sampler_params={"num_sweeps": SERVE_SWEEPS}
    )
    out = PassResult()
    lock = threading.Lock()
    objectives: Dict[int, float] = {}
    failures: List[BaseException] = []

    def answer(client: SolverClient, index: int) -> None:
        request = plan[index]
        began = time.perf_counter()
        try:
            reply = client.solve(request.script, request_id=f"r{index}")
        except ServerConnectionError:
            returned = time.perf_counter()
            checker.record_error(index, "connection")
            solved = False
            error = True
            envelope = None
        else:
            returned = time.perf_counter()
            envelope = reply.envelope
            error = not reply.ok or envelope.request_id != f"r{index}"
            solved = False
            if error:
                checker.record_error(index, reply.error_type or "misrouted")
            elif request.kind == "weighted":
                solved, cost = checker.check_weighted(
                    index, request.script, reply.status, reply.model, envelope.objective
                )
                if index in window:
                    objectives[index] = cost if solved else _total_soft_weight(request.script)
            else:
                solved = checker.check_decision(index, request.script, reply.status, reply.model)
        done = time.perf_counter()
        with lock:
            out.calls += 1
            out.solved += solved
            out.errors += error
            out.latencies_ms.append((done - began) * 1000.0)
            out.mix[request.kind] = out.mix.get(request.kind, 0) + 1
            if envelope is not None and not error:
                out.envelopes.append(
                    {
                        "roundtrip_ms": (returned - began) * 1000.0,
                        "queue_ms": envelope.queue_ms,
                        "solve_ms": envelope.solve_ms,
                    }
                )

    def caller(take: Callable[[], Optional[int]]) -> None:
        try:
            with SolverClient(server.host, server.port) as client:
                while (index := take()) is not None and index < len(plan):
                    answer(client, index)
        except BaseException as exc:  # surfaced after join
            failures.append(exc)
            raise

    with BackgroundServer(config) as server:
        with SolverClient(server.host, server.port) as client:
            for k, script in enumerate(warm_scripts(seed)):
                client.solve(script, request_id=f"warm{k}")
        start = time.perf_counter()
        # Past the time limit, an end-to-end pass keeps going until the
        # objective window has been sent, so objective_sum covers the same
        # inputs in every run; a traced run's passes (min_calls=0) do not.
        at_least = max(min_calls, last_in_window + 1) if min_calls else 0
        take = _taker(seconds, limit, at_least=at_least)
        threads = [
            threading.Thread(target=caller, args=(take,), name=f"bench-caller-{k}")
            for k in range(SERVE_CALLERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        out.wall_s = time.perf_counter() - start
    out.throughput_per_s = out.calls / out.wall_s
    if failures:
        raise RuntimeError("a serve caller failed") from failures[0]
    out.objective_sum = sum(objectives.values())
    return out


def weighted_instances(seed: int) -> Iterator[Any]:
    """The seed's weighted instances in blocks of ``WEIGHTED_BLOCK``,
    shared by serve and :func:`objective_pass`."""
    from repro.smt.generator import InstanceGenerator

    generator = InstanceGenerator(ops="all", soft=2, max_length=MAX_LENGTH, seed=derive_seed(seed, 4))
    return stratified(generator, WEIGHTED_BLOCK, _length)


def objective_pass(seed: int, checker: AnswerChecker) -> float:
    """Audited objective summed over the seed's first ``OBJECTIVE_WINDOW``
    weighted instances, solved one by one with ``AnytimeOptimizer`` as a
    serve worker solves them (same seed and sweeps), for the workloads
    whose own traffic has no weighted inputs."""
    from repro.opt import AnytimeOptimizer
    from repro.opt.result import solve_status_for

    instances = weighted_instances(seed)
    optimizer = AnytimeOptimizer(
        seed=derive_seed(seed, 2), sampler_params={"num_sweeps": SERVE_SWEEPS}
    )
    total = 0.0
    for index in range(OBJECTIVE_WINDOW):
        script = next(instances).script
        result = optimizer.optimize_script(script)
        solved, cost = checker.check_weighted(
            index, script, solve_status_for(result.status), result.model, result.objective
        )
        total += cost if solved else _total_soft_weight(script)
    return total


def _total_soft_weight(script: str) -> float:
    """The objective charged to a weighted request left without a model."""
    from checker import parse_script

    return float(sum(s.weight for s in parse_script(script).soft_assertions))


#: Workload name → pass function ``(seed, seconds, checker, limit)``.
WORKLOADS: Dict[str, Callable[..., PassResult]] = {
    "check-sat": check_sat,
    "batch-fused": batch_fused,
    "serve": serve,
}


def warm_up(workload: str) -> None:
    """Run the workload's path once on throwaway inputs before timing.

    Loads lazily imported modules and first-call paths; the inputs come
    from a seed no run uses, and their answers are not recorded.
    """
    if workload == "serve":
        return  # serve warms its own server with warm_scripts()
    WORKLOADS[workload](-1, 0.0, AnswerChecker(), limit=1)


def measure(workload: str, seed: int, seconds: float, checker: AnswerChecker) -> PassResult:
    """The timed end-to-end pass: serve in-process, the others in
    ``CALLER_PROCESSES`` caller processes (``caller.py``) to which this
    process hands out the inputs one by one.

    Plain child processes over pipes, not ``multiprocessing``: its shared
    counters start a resource-tracker process that outlives the run. Every
    caller is waited for, and killed first if it has not ended, on every
    way out of this function.
    """
    if workload == "serve":
        return serve(seed, seconds, checker)
    unit = BATCH_SIZE if workload == "batch-fused" else 1
    callers: List[subprocess.Popen] = []
    parts: List[Any] = [None] * CALLER_PROCESSES
    ready = threading.Barrier(CALLER_PROCESSES + 1, timeout=120.0)
    go = threading.Event()
    pass_state: Dict[str, Any] = {}

    def serve_caller(k: int, proc: subprocess.Popen) -> None:
        """Answer caller *k*'s requests for inputs until it reports."""
        try:
            if proc.stdout.readline() != b"ready\n":
                ready.abort()
                return
            ready.wait()
            go.wait()
            proc.stdin.write(b"go\n")
            proc.stdin.flush()
            while True:
                line = proc.stdout.readline()
                if line.startswith(b"done "):
                    parts[k] = pickle.loads(base64.b64decode(line[5:]))
                    return
                if line != b"next\n":
                    return  # the caller failed; its traceback is on stderr
                index = pass_state["take"]()
                proc.stdin.write(b"stop\n" if index is None else b"%d\n" % index)
                proc.stdin.flush()
        except (OSError, ValueError, threading.BrokenBarrierError):
            ready.abort()

    threads: List[threading.Thread] = []
    try:
        for k in range(CALLER_PROCESSES):
            callers.append(
                subprocess.Popen(
                    [sys.executable, os.path.join(HERE, "caller.py"), workload, str(seed), repr(seconds)],
                    stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE,
                )
            )
            threads.append(
                threading.Thread(target=serve_caller, args=(k, callers[-1]), daemon=True)
            )
        for thread in threads:
            thread.start()
        ready.wait()
        pass_state["take"] = _taker(seconds, None, unit)
        began = time.perf_counter()
        go.set()
        for thread in threads:
            thread.join(timeout=seconds + 120.0)
        wall = time.perf_counter() - began
    finally:
        go.set()
        for proc in callers:
            try:
                proc.stdin.close()
            except OSError:
                pass
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        for thread in threads:
            thread.join()
    if any(part is None for part in parts):
        raise RuntimeError(f"a {workload} caller process failed")
    merged = PassResult(wall_s=wall)
    for result, part in parts:
        merged.calls += result.calls
        merged.throughput_per_s += result.throughput_per_s
        merged.solved += result.solved
        merged.errors += result.errors
        merged.latencies_ms.extend(result.latencies_ms)
        for name, value in result.counters.items():
            merged.counters[name] = merged.counters.get(name, 0) + value
        merged.peak_rss_mb = max(merged.peak_rss_mb, result.peak_rss_mb)
        checker.merge(part)
    return merged


def caller_main(workload: str, seed: int, seconds: float) -> None:
    """One caller process of :func:`measure`; speaks over stdin/stdout.

    Says ``ready`` after its warm-up, starts on ``go``, asks ``next`` for
    each input (batch) and gets its index or ``stop``, and ends with one
    ``done <base64 pickle of (PassResult, AnswerChecker)>`` line.
    """
    protocol_out = os.fdopen(os.dup(sys.stdout.fileno()), "wb")
    protocol_in = sys.stdin.buffer
    sys.stdout = sys.stderr  # keep stray prints off the protocol

    def send(line: bytes) -> None:
        protocol_out.write(line + b"\n")
        protocol_out.flush()

    def take() -> Optional[int]:
        send(b"next")
        reply = protocol_in.readline().strip()
        if not reply or reply == b"stop":
            return None
        return int(reply)

    warm_up(workload)
    send(b"ready")
    if protocol_in.readline() != b"go\n":
        return
    checker = AnswerChecker()
    result = WORKLOADS[workload](seed, seconds, checker, take=take)
    result.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    send(b"done " + base64.b64encode(pickle.dumps((result, checker))))
