"""Model serialization: JSON-compatible dicts and file round-trips.

Lets QUBOs produced by the string compiler be stored, diffed, and
shipped to other tools (or a real annealer's API, which accepts exactly
this shape of payload). The format is deliberately plain:

```json
{
  "format": "repro-qubo", "version": 1,
  "num_variables": 14, "offset": 0.0,
  "linear": {"0": -1.0, ...},
  "quadratic": [[0, 7, -2.0], ...]
}
```
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Union

from repro.qubo.model import QuboModel

__all__ = ["qubo_to_dict", "qubo_from_dict", "save_model", "load_model"]

_QUBO_FORMAT = "repro-qubo"
_VERSION = 1


def qubo_to_dict(model: QuboModel) -> Dict[str, Any]:
    """Serialize a :class:`QuboModel` to a JSON-compatible dict."""
    linear: Dict[str, float] = {}
    quadratic = []
    for i, j, value in model.iter_coefficients():
        if i == j:
            linear[str(i)] = value
        else:
            quadratic.append([i, j, value])
    return {
        "format": _QUBO_FORMAT,
        "version": _VERSION,
        "num_variables": model.num_variables,
        "offset": model.offset,
        "linear": linear,
        "quadratic": sorted(quadratic),
    }


def qubo_from_dict(payload: Dict[str, Any]) -> QuboModel:
    """Inverse of :func:`qubo_to_dict`."""
    _check_header(payload, _QUBO_FORMAT)
    model = QuboModel(int(payload["num_variables"]), offset=float(payload["offset"]))
    for key, value in payload["linear"].items():
        model.set_linear(int(key), float(value))
    for i, j, value in payload["quadratic"]:
        model.set_quadratic(int(i), int(j), float(value))
    return model


def save_model(model: QuboModel, path: Union[str, Path]) -> None:
    """Write a model to a JSON file."""
    if not isinstance(model, QuboModel):
        raise TypeError(f"cannot serialize {type(model).__name__}")
    Path(path).write_text(json.dumps(qubo_to_dict(model), indent=1, sort_keys=True))


def load_model(path: Union[str, Path]) -> QuboModel:
    """Read a model written by :func:`save_model`."""
    payload = json.loads(Path(path).read_text())
    if payload.get("format") != _QUBO_FORMAT:
        raise ValueError(f"unrecognized model format: {payload.get('format')!r}")
    return qubo_from_dict(payload)


def _check_header(payload: Dict[str, Any], expected: str) -> None:
    if payload.get("format") != expected:
        raise ValueError(
            f"expected format {expected!r}, got {payload.get('format')!r}"
        )
    if payload.get("version") != _VERSION:
        raise ValueError(f"unsupported version {payload.get('version')!r}")
