"""One fresh-interpreter start-up of a workload's set-up path.

Usage: ``python3 e2ebench/probe.py <workload>``. Imports the workload's
entry point, constructs it and (for ``serve``) waits until ``/healthz``
answers, then prints one JSON line ``{"import_s": ...}`` and tears down.
The parent process times from spawning this interpreter to reading that
line; see ``run.py``.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))


def main(workload: str) -> None:
    began = time.perf_counter()
    if workload == "check-sat":
        from repro.smt.solver import QuantumSMTSolver

        import_s = time.perf_counter() - began
        QuantumSMTSolver(seed=0)
        print(json.dumps({"import_s": import_s}), flush=True)
    elif workload == "batch-fused":
        from repro.service.batch import BatchSolver

        import_s = time.perf_counter() - began
        BatchSolver(executor="fused", seed=0)
        print(json.dumps({"import_s": import_s}), flush=True)
    elif workload == "serve":
        from repro.server.app import BackgroundServer, ServerConfig
        from repro.server.client import SolverClient

        import_s = time.perf_counter() - began
        with BackgroundServer(ServerConfig(port=0, seed=0)) as server:
            with SolverClient(server.host, server.port) as client:
                client.healthz()
            print(json.dumps({"import_s": import_s}), flush=True)
    else:
        raise SystemExit(f"unknown workload {workload!r}")


if __name__ == "__main__":
    main(sys.argv[1])
