"""Import surface: lazy package re-exports and per-entry-point import hygiene.

Package ``__init__``s re-export through :func:`repro.utils.lazy.lazy_exports`,
so a fresh process that imports one entry point loads only that entry
point's solve path. The public names stay where they were.
"""

from __future__ import annotations

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro

SRC = str(pathlib.Path(repro.__file__).resolve().parents[1])

LAZY_PACKAGES = [
    "repro",
    "repro.anneal",
    "repro.core",
    "repro.opt",
    "repro.qubo",
    "repro.server",
    "repro.service",
    "repro.smt",
    "repro.utils",
]

#: Modules no solve path needs: the hardware and verification stacks, the
#: perf harness, and the third-party packages that only they import at
#: module level (solve-path code imports them inside functions).
NEVER_ON_A_SOLVE_PATH = [
    "networkx",
    "scipy.sparse",
    "repro.hardware",
    "repro.verify",
    "repro.perf",
]

ENTRY_POINTS = [
    ("repro.smt.solver", "QuantumSMTSolver", ["repro.server"]),
    ("repro.service.batch", "BatchSolver", ["repro.server"]),
    ("repro.server.app", "BackgroundServer", []),
]


def _homes(package: str, name: str, value) -> list:
    """The loaded modules under *package* that bind *value* as *name* themselves."""
    return [
        module_name
        for module_name, module in list(sys.modules.items())
        if module is not None
        and module_name.startswith(package + ".")
        and vars(module).get(name) is value
    ]


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_package_keeps_its_public_api(package):
    pkg = importlib.import_module(package)
    exported = set(pkg.__all__)
    assert exported

    for name in exported - set(vars(pkg)):
        value = getattr(pkg, name)
        homes = _homes(package, name, value)
        assert homes, name
        defined_in = getattr(value, "__module__", None)
        if isinstance(defined_in, str) and defined_in.startswith(package + "."):
            assert defined_in in homes, name

    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    assert exported <= set(namespace)
    for name in pkg.__all__:
        assert namespace[name] is getattr(pkg, name)

    assert exported <= set(dir(pkg))

    with pytest.raises(AttributeError, match=package.replace(".", r"\.")):
        getattr(pkg, "no_such_name")

    # An export that shares a submodule's name is shadowed by that submodule
    # once it is imported, so the two name spaces must stay apart.
    submodules = {
        path.stem
        for path in pathlib.Path(pkg.__file__).parent.iterdir()
        if path.suffix == ".py" or (path / "__init__.py").exists()
    }
    assert not exported & submodules


def _run_fresh(code: str, *args: str) -> str:
    """Run *code* in a fresh interpreter importing this checkout; return stdout."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_submodules_stay_reachable_through_lazy_packages():
    # In a fresh interpreter no submodule is bound on its package yet, so
    # every lookup below goes through the lazy ``__getattr__``.
    out = _run_fresh(
        "import repro\n"
        "from repro.smt import ast\n"
        "from repro.server import httpio\n"
        "print(ast.__name__, httpio.__name__,"
        " repro.smt.solver.QuantumSMTSolver.__name__)\n"
    )
    assert out.split() == ["repro.smt.ast", "repro.server.httpio", "QuantumSMTSolver"]


_PROBE = """
import importlib, json, sys
module, attr = sys.argv[1], sys.argv[2]
getattr(importlib.import_module(module), attr)
print(json.dumps(sorted(sys.modules)))
"""


@pytest.mark.parametrize(
    "module, attr, also_absent", ENTRY_POINTS, ids=[e[0] for e in ENTRY_POINTS]
)
def test_entry_point_loads_only_its_own_solve_path(module, attr, also_absent):
    loaded = set(json.loads(_run_fresh(_PROBE, module, attr)))
    assert module in loaded
    assert sorted(loaded & set(NEVER_ON_A_SOLVE_PATH + also_absent)) == []
