"""Load generator for the serving layer (``repro.server``).

Drives N concurrent clients over :class:`~repro.smt.generator.
InstanceGenerator` instances against an in-process
:class:`~repro.server.app.BackgroundServer` and reports throughput,
latency percentiles and the rejection/timeout mix, then cross-checks the
``/metrics`` accounting identity (``completed + rejected + timed out +
cancelled == submitted``).

This file runs two ways:

* as a script (``PYTHONPATH=src python benchmarks/bench_server.py
  [--clients 8 --requests 64]``) it prints the load report — the numbers
  referenced from EXPERIMENTS.md;
* with ``--smoke`` it is the CI ``server-smoke`` job: start the server,
  fire a 20-request mixed sat/unsat/parse-error burst through the client
  library, drive one sticky session (open → assert → push → check → pop
  → check → close) through :class:`SolverClient`, assert every envelope
  is well-formed, ``/healthz`` is green and the accounting identity
  covers the session requests too, exercise graceful shutdown, and exit
  non-zero on any violation — all inside a bounded wall-clock budget.

Scale-out flags: ``--backend process`` swaps the shard-local solve pool
for worker processes; ``--shards N`` stands up N shard servers behind a
:class:`~repro.server.router.ShardRouter` and drives the burst through
the router instead, reporting per-shard request counts and **cache-hit
concentration** (content-hash placement should keep repeat formulas on
one shard — visible as per-shard hit rates far above the uniform-spread
baseline). ``--repeat K`` re-fires the same burst K times so warm-cache
behaviour shows up in the report. The CI ``router-smoke`` job is
``--shards 2 --backend process --smoke``.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.server.app import BackgroundServer, ServerConfig
from repro.server.client import AsyncSolverClient, SolveReply, SolverClient
from repro.smt.generator import InstanceGenerator
from repro.utils.timing import Timer

SEED = 2025
DEFAULT_CLIENTS = 8
DEFAULT_REQUESTS = 64
SMOKE_REQUESTS = 20

#: Deliberately-malformed scripts mixed into every burst: the server must
#: answer them with located ``error: parse`` envelopes, not crash.
PARSE_ERROR_SCRIPTS = [
    '(assert (= x "unterminated',
    ")))) garbage ((((",
    "(declare-const x String)(assert (= y x))(check-sat)",
]


#: The base frame of the smoke run's sticky session.
SESSION_BASE = "(declare-const x String)(assert (= (str.len x) 2))"


def percentile(values: Sequence[float], p: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(p * (len(ordered) - 1)))))
    return ordered[rank]


@dataclass
class LoadReport:
    """Aggregate of one burst."""

    submitted: int = 0
    wall_time: float = 0.0
    latencies_ms: List[float] = field(default_factory=list)
    outcomes: Dict[str, int] = field(default_factory=dict)

    def record(self, reply: SolveReply, latency_ms: float) -> None:
        key = reply.status if reply.ok else f"error:{reply.error_type}"
        self.outcomes[key] = self.outcomes.get(key, 0) + 1
        self.latencies_ms.append(latency_ms)

    @property
    def throughput(self) -> float:
        return self.submitted / self.wall_time if self.wall_time else 0.0

    @property
    def rejection_rate(self) -> float:
        rejected = sum(
            count
            for key, count in self.outcomes.items()
            if key in ("error:overloaded", "error:too_large", "error:draining")
        )
        return rejected / self.submitted if self.submitted else 0.0

    def lines(self) -> List[str]:
        lat = self.latencies_ms
        return [
            f"requests submitted   : {self.submitted}",
            f"wall time            : {self.wall_time:.3f} s",
            f"throughput           : {self.throughput:.1f} req/s",
            f"latency p50/p95/p99  : {percentile(lat, 0.5):.1f} / "
            f"{percentile(lat, 0.95):.1f} / {percentile(lat, 0.99):.1f} ms",
            f"rejection rate       : {100.0 * self.rejection_rate:.1f} %",
            f"outcome mix          : "
            + ", ".join(f"{k}={v}" for k, v in sorted(self.outcomes.items())),
        ]


def make_scripts(total: int, seed: int = SEED, unsat_every: int = 5) -> List[str]:
    """A mixed burst: generated sat instances, unsat instances, parse errors."""
    generator = InstanceGenerator(seed=seed, ops="all", max_constraints=2)
    scripts: List[str] = []
    for index in range(total):
        if index % 7 == 3:
            scripts.append(PARSE_ERROR_SCRIPTS[index % len(PARSE_ERROR_SCRIPTS)])
        elif index % unsat_every == unsat_every - 1:
            scripts.append(generator.generate_unsat().script)
        else:
            scripts.append(generator.generate().script)
    return scripts


def run_burst(
    server: BackgroundServer,
    scripts: Sequence[str],
    clients: int,
    deadline_ms: Optional[float] = None,
) -> LoadReport:
    """Fan the scripts over *clients* concurrent async workers."""
    report = LoadReport(submitted=len(scripts))
    queue: "asyncio.Queue[str]" = asyncio.Queue()

    async def worker(client: AsyncSolverClient) -> None:
        while True:
            try:
                script = queue.get_nowait()
            except asyncio.QueueEmpty:
                return
            with Timer() as timer:
                reply = await client.solve(script, deadline_ms=deadline_ms)
            report.record(reply, timer.elapsed * 1000.0)

    async def drive() -> None:
        for script in scripts:
            queue.put_nowait(script)
        pool = [
            AsyncSolverClient(server.host, server.port, timeout=120.0)
            for _ in range(clients)
        ]
        await asyncio.gather(*(worker(client) for client in pool))

    with Timer() as timer:
        asyncio.run(drive())
    report.wall_time = timer.elapsed
    return report


def check_accounting(metrics: Dict) -> List[str]:
    """Violations of the request-accounting identity (empty = clean)."""
    counters = metrics.get("counters", {})
    submitted = counters.get("server.requests", 0)
    completed = counters.get("server.completed", 0)
    rejected = sum(
        value
        for name, value in counters.items()
        if name.startswith("server.rejected.")
    )
    timeouts = counters.get("server.timeout", 0)
    cancelled = counters.get("server.cancelled", 0)
    internal = counters.get("server.internal", 0)
    accounted = completed + rejected + timeouts + cancelled + internal
    if submitted != accounted:
        return [
            f"accounting identity violated: submitted={submitted} but "
            f"completed={completed} + rejected={rejected} + "
            f"timeouts={timeouts} + cancelled={cancelled} + "
            f"internal={internal} = {accounted}"
        ]
    return []


def run_session(target) -> List[str]:
    """Drive one sticky session through *target* (server or router):
    open → assert → push → check → pop → check → close. Returns the
    violations (empty = clean)."""
    with SolverClient(target.host, target.port, timeout=120.0) as client:
        opened = client.session_open()
        if not opened.ok:
            return [f"session open failed: {opened!r}"]
        sid = opened.envelope.request_id
        steps = [
            ("assert", lambda: client.session_assert(sid, SESSION_BASE)),
            ("push", lambda: client.session_push(sid)),
            ("check", lambda: client.session_check(sid)),
            ("pop", lambda: client.session_pop(sid)),
            ("check", lambda: client.session_check(sid)),
            ("close", lambda: client.session_close(sid)),
        ]
        failures = []
        for name, step in steps:
            reply = step()
            if not reply.ok:
                failures.append(f"session {name} failed: {reply!r}")
            elif name == "check" and reply.status not in ("sat", "unsat", "unknown"):
                failures.append(f"session check answered {reply.status!r}")
        return failures


def check_envelopes(report: LoadReport, expect_parse_errors: bool) -> List[str]:
    failures: List[str] = []
    if len(report.latencies_ms) != report.submitted:
        failures.append(
            f"only {len(report.latencies_ms)}/{report.submitted} requests "
            "produced a well-formed envelope"
        )
    good = sum(
        count
        for key, count in report.outcomes.items()
        if key in ("sat", "unsat", "unknown")
    )
    if good == 0:
        failures.append(f"no request solved at all: {report.outcomes}")
    if expect_parse_errors and report.outcomes.get("error:parse", 0) == 0:
        failures.append("parse-error scripts did not yield parse envelopes")
    return failures


# --------------------------------------------------------------------- #
# sharded mode
# --------------------------------------------------------------------- #


def shard_report_lines(metrics: Dict) -> List[str]:
    """Per-shard request counts and cache-hit concentration."""
    lines: List[str] = []
    shards = metrics.get("shards", {})
    for shard_id in sorted(shards):
        payload = shards[shard_id]
        if "error" in payload:
            lines.append(f"{shard_id:<10}: unreachable ({payload['error']})")
            continue
        counters = payload.get("counters", {})
        cache = payload.get("cache", {})
        hits = cache.get("hits", 0)
        lookups = hits + cache.get("misses", 0)
        rate = 100.0 * hits / lookups if lookups else 0.0
        lines.append(
            f"{shard_id:<10}: requests={counters.get('server.requests', 0):<4} "
            f"completed={counters.get('server.completed', 0):<4} "
            f"cache {hits}/{lookups} hits ({rate:.0f} %)"
        )
    rollup_cache = metrics.get("cache", {})
    total_hits = rollup_cache.get("hits", 0)
    total_lookups = total_hits + rollup_cache.get("misses", 0)
    if total_lookups:
        lines.append(
            f"{'fleet':<10}: cache {total_hits}/{total_lookups} hits "
            f"({100.0 * total_hits / total_lookups:.0f} %) — content-hash "
            "placement keeps repeats shard-local"
        )
    return lines


def run_sharded(args, requests: int, clients: int, scripts: List[str]):
    """The ``--shards N`` flavour: burst through a ShardRouter.

    Returns ``(reports, metrics, failures)`` — one LoadReport per repeat,
    the final aggregated router metrics, and any violations found.
    """
    from repro.server.router import BackgroundRouter, RouterConfig, ShardSpec

    failures: List[str] = []
    configs = [
        ServerConfig(
            port=0,
            workers=args.workers,
            backend=args.backend,
            batch_window_ms=args.batch_window_ms,
            batch_max=args.batch_max,
            queue_limit=args.queue_limit,
            deadline_ms=args.deadline_ms,
            drain_timeout=10.0,
            seed=args.seed,
            num_reads=args.num_reads,
            sampler_params={"num_sweeps": args.num_sweeps},
        )
        for _ in range(args.shards)
    ]
    servers = [BackgroundServer(config).start() for config in configs]
    router = BackgroundRouter(
        RouterConfig(
            port=0,
            shards=[ShardSpec("127.0.0.1", server.port) for server in servers],
            health_interval=0.25,
        )
    ).start()
    try:
        print(
            f"bench_server: {requests} requests × {args.repeat} over "
            f"{clients} clients → router {router.host}:{router.port} "
            f"({args.shards} shards, backend={args.backend}, "
            f"workers={args.workers}/shard)"
        )
        # run_burst only touches .host/.port, so the router passes as the
        # target transparently.
        reports = [run_burst(router, scripts, clients) for _ in range(args.repeat)]
        if args.smoke:
            failures += run_session(router)

        with SolverClient(router.host, router.port) as probe:
            health = probe.healthz()
            metrics = probe.metrics()
        if health.get("http_status") != 200 or health.get("status") != "ok":
            failures.append(f"router /healthz not green after the burst: {health}")
        if health.get("healthy_shards") != args.shards:
            failures.append(
                f"only {health.get('healthy_shards')}/{args.shards} shards "
                "healthy after the burst"
            )
        for report in reports:
            failures += check_envelopes(report, expect_parse_errors=True)
        # The identity must hold on the *aggregated* rollup, exactly as it
        # does per shard.
        failures += check_accounting(metrics)
    finally:
        router.stop()
        for server in servers:
            server.stop()
    return reports, metrics, failures


# --------------------------------------------------------------------- #
# entry point
# --------------------------------------------------------------------- #


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--clients", type=int, default=DEFAULT_CLIENTS)
    parser.add_argument("--requests", type=int, default=DEFAULT_REQUESTS)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--queue-limit", type=int, default=32)
    parser.add_argument("--deadline-ms", type=float, default=60000.0)
    parser.add_argument("--num-reads", type=int, default=32)
    parser.add_argument("--num-sweeps", type=int, default=200)
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument(
        "--backend",
        choices=("thread", "process"),
        default="thread",
        help="solve backend for the server(s): executor threads or "
        "long-lived worker processes",
    )
    parser.add_argument(
        "--batch-window-ms",
        type=float,
        default=0.0,
        help="micro-batching window for the thread backend: the server "
        "fuses concurrent requests into block-diagonal tiled kernel "
        "calls (0 = disabled)",
    )
    parser.add_argument(
        "--batch-max",
        type=int,
        default=8,
        help="max requests fused per micro-batch (with --batch-window-ms)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=0,
        help="route the burst through a ShardRouter over this many shard "
        "servers (0 = single server, the default)",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="fire the same burst this many times (repeats expose "
        "warm-cache concentration in sharded mode)",
    )
    parser.add_argument(
        "--overload",
        action="store_true",
        help="shrink the queue to force overload rejections during the burst",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI mode: 20-request mixed burst + healthz + graceful "
        "shutdown assertions, non-zero exit on any violation",
    )
    args = parser.parse_args(argv)

    requests = SMOKE_REQUESTS if args.smoke else args.requests
    clients = min(args.clients, requests)
    queue_limit = 2 if args.overload else args.queue_limit
    workers = 1 if args.overload else args.workers
    scripts = make_scripts(requests, seed=args.seed)

    if args.shards:
        started = time.monotonic()
        reports, metrics, failures = run_sharded(args, requests, clients, scripts)
        total_elapsed = time.monotonic() - started
        print()
        for index, report in enumerate(reports):
            label = f"burst {index + 1}/{len(reports)}"
            print(f"  -- {label} " + "-" * max(1, 40 - len(label)))
            for line in report.lines():
                print("  " + line)
        print("  -- per-shard " + "-" * 28)
        for line in shard_report_lines(metrics):
            print("  " + line)
        print(f"  shutdown             : graceful (total wall {total_elapsed:.1f} s)")
        if args.smoke and total_elapsed > 180.0:
            failures.append(
                f"smoke run exceeded its wall-clock budget: {total_elapsed:.1f} s"
            )
        if failures:
            print("\nFAILURES:")
            for failure in failures:
                print("  - " + failure)
            return 1
        print(
            "\nOK: envelopes well-formed, router /healthz green, aggregated "
            "accounting identity holds"
        )
        return 0

    config = ServerConfig(
        port=0,
        workers=workers,
        backend=args.backend,
        batch_window_ms=args.batch_window_ms,
        batch_max=args.batch_max,
        queue_limit=queue_limit,
        deadline_ms=args.deadline_ms,
        drain_timeout=10.0,
        seed=args.seed,
        num_reads=args.num_reads,
        sampler_params={"num_sweeps": args.num_sweeps},
    )

    failures: List[str] = []
    started = time.monotonic()
    with BackgroundServer(config) as server:
        print(
            f"bench_server: {requests} requests × {args.repeat} over "
            f"{clients} clients → {server.host}:{server.port} "
            f"(workers={workers}, backend={args.backend}, "
            f"queue_limit={queue_limit})"
        )
        reports = [run_burst(server, scripts, clients) for _ in range(args.repeat)]
        report = reports[-1]
        if args.smoke:
            failures += run_session(server)

        with SolverClient(server.host, server.port) as probe:
            health = probe.healthz()
            metrics = probe.metrics()
        if health.get("http_status") != 200 or health.get("status") != "ok":
            failures.append(f"/healthz not green after the burst: {health}")
        for burst_report in reports:
            failures += check_envelopes(burst_report, expect_parse_errors=True)
        failures += check_accounting(metrics)

    # Context exit exercised the graceful drain; the server must be gone.
    try:
        SolverClient(config.host, server.port, timeout=1.0).healthz()
        failures.append("server still answering after graceful shutdown")
    except Exception:
        pass
    total_elapsed = time.monotonic() - started

    print()
    for line in report.lines():
        print("  " + line)
    print(f"  shutdown             : graceful (total wall {total_elapsed:.1f} s)")

    if args.smoke and total_elapsed > 180.0:
        failures.append(f"smoke run exceeded its wall-clock budget: {total_elapsed:.1f} s")
    if failures:
        print("\nFAILURES:")
        for failure in failures:
            print("  - " + failure)
        return 1
    print("\nOK: envelopes well-formed, /healthz green, accounting identity holds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
