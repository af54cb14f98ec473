"""The Figure-1 driver: formulation → QUBO → annealer → decode → verify.

:class:`StringQuboSolver` owns a sampler (the paper uses D-Wave's simulated
annealer; any :class:`~repro.anneal.base.Sampler` plugs in, including the
simulated QPU behind an embedding composite) and runs one constraint at a
time, returning a :class:`SolveResult` with the decoded output, its
verification status, and sampling statistics.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

import numpy as np

from repro.anneal.base import Sampler
from repro.anneal.sampleset import SampleSet
from repro.anneal.simulated import SimulatedAnnealingSampler
from repro.core.formulation import StringFormulation
from repro.qubo.algebra import expand_states, fix_variables
from repro.utils.rng import SeedLike, spawn_rngs
from repro.utils.timing import Timer

__all__ = ["StringQuboSolver", "SolveResult", "result_from_sampleset"]


@dataclass
class SolveResult:
    """Outcome of solving one string constraint."""

    formulation: StringFormulation
    sampleset: SampleSet
    output: Any
    ok: bool
    energy: float
    ground_energy: Optional[float]
    success_rate: float
    wall_time: float
    info: Dict[str, Any] = field(default_factory=dict)

    @property
    def reached_ground(self) -> Optional[bool]:
        """Whether the best sample hit the known optimum (None if unknown)."""
        if self.ground_energy is None:
            return None
        return bool(self.energy <= self.ground_energy + 1e-9)

    def __repr__(self) -> str:
        return (
            f"SolveResult(output={self.output!r}, ok={self.ok}, "
            f"energy={self.energy:.6g}, success_rate={self.success_rate:.2f})"
        )


class StringQuboSolver:
    """Drive string formulations through a sampler.

    Parameters
    ----------
    sampler:
        Any :class:`~repro.anneal.base.Sampler`; default a fresh
        :class:`~repro.anneal.simulated.SimulatedAnnealingSampler`.
    num_reads:
        Default reads per solve (overridable per call).
    seed:
        Base seed; per-solve seeds are spawned from it so repeated solves
        differ but the whole sequence is reproducible.
    sampler_params:
        Extra fixed parameters forwarded to every ``sample_model`` call
        (e.g. ``num_sweeps``).
    metrics:
        Optional :class:`~repro.service.metrics.MetricsRegistry`; when
        given, ``build`` (QUBO construction), ``anneal`` (sampling) and
        ``decode`` (decode + verify) stage timings are recorded into it.
    """

    def __init__(
        self,
        sampler: Optional[Sampler] = None,
        num_reads: int = 64,
        seed: SeedLike = None,
        sampler_params: Optional[Dict[str, Any]] = None,
        metrics: Optional[Any] = None,
    ) -> None:
        if num_reads < 1:
            raise ValueError(f"num_reads must be >= 1, got {num_reads}")
        self.sampler = sampler if sampler is not None else SimulatedAnnealingSampler()
        self.num_reads = num_reads
        self.sampler_params = dict(sampler_params or {})
        self.metrics = metrics
        (self._rng,) = spawn_rngs(seed, 1)

    def _stage(self, name: str):
        """Timing context for one pipeline stage (no-op without metrics)."""
        if self.metrics is None:
            return contextlib.nullcontext()
        return self.metrics.time(name)

    def solve(
        self,
        formulation: StringFormulation,
        *,
        clamps: Optional[Mapping[int, int]] = None,
        **overrides: Any,
    ) -> SolveResult:
        """Build, sample, decode and verify one constraint.

        An ``initial_states`` warm vector is fitted to the model once:
        zero-padded when short, truncated when long.

        *clamps* (``{bit index: value}``, the refinement loop's implied
        bits) pins bits before sampling:
        :func:`~repro.qubo.algebra.fix_variables` folds them into a
        reduced QUBO, the warm vector keeps only the surviving bits, and
        the reduced samples are expanded back to full width before
        decoding. ``info["refine"]`` then records the clamped, reduced and
        full widths. Without *clamps* the full QUBO is sampled as built.

        A per-solve seed is drawn from the driver's stream only when
        neither *overrides* nor ``sampler_params`` supply one.
        """
        params = {**self.sampler_params, **overrides}
        params.setdefault("num_reads", self.num_reads)
        if "seed" not in params:
            params["seed"] = int(self._rng.integers(0, 2**63 - 1))

        with Timer() as timer:
            with self._stage("build"):
                model = formulation.build_model()
                full_width = model.num_variables
                if clamps is not None:
                    clamps = {i: b for i, b in clamps.items() if i < full_width}
                    if clamps:
                        model = fix_variables(model, clamps)[0]
            warm = params.get("initial_states")
            if warm is not None:
                # Lemma frames can widen the model with fresh aux bits: a
                # short warm state is zero-padded (the annealer re-derives
                # those bits), then only the surviving bits are kept.
                padded = np.zeros(full_width, dtype=np.int8)
                warm = np.asarray(warm, dtype=np.int8).ravel()[:full_width]
                padded[: len(warm)] = warm
                params["initial_states"] = np.delete(padded, list(clamps or ()))
            with self._stage("anneal"):
                sampleset = self.sampler.sample_model(model, **params)
        wall = timer.elapsed

        with self._stage("decode"):
            if clamps:
                sampleset = SampleSet(
                    expand_states(sampleset.states, clamps, full_width),
                    sampleset.energies,
                    num_occurrences=sampleset.num_occurrences,
                    info=sampleset.info,
                )
            result = result_from_sampleset(formulation, sampleset, wall_time=wall)
        if clamps is not None:
            result.info["refine"] = {
                "clamped_bits": len(clamps),
                "reduced_variables": model.num_variables,
                "full_variables": full_width,
            }
        return result


def result_from_sampleset(
    formulation: StringFormulation,
    sampleset: SampleSet,
    wall_time: float = 0.0,
) -> SolveResult:
    """Decode, verify and score a sample set into a :class:`SolveResult`.

    The back half of :meth:`StringQuboSolver.solve`, shared with the fused
    batch engine (:mod:`repro.service.fused`), which produces sample sets
    through tiled solves rather than per-formulation ``sample_model``
    calls but reports results in the identical shape.

    The reported read is the lowest-energy one whose decoding verifies —
    a verifying read just above the lowest energy (a non-member sharing
    the ground manifold of a linear class objective, say) is an answer,
    not a miss. Rows are sorted by energy, so when no read verifies this
    is ``first``. ``info["read_rank"]`` is the chosen row (0 = ``first``).
    """
    if len(sampleset) == 0:
        raise ValueError("sample set is empty")
    reads = _verified_reads(formulation, sampleset)
    rank = next((row for row, (_, ok) in enumerate(reads) if ok), 0)
    output, ok = reads[rank]
    return SolveResult(
        formulation=formulation,
        sampleset=sampleset,
        output=output,
        ok=ok,
        energy=float(sampleset.energies[rank]),
        ground_energy=formulation.ground_energy(),
        success_rate=_success_rate(sampleset, reads),
        wall_time=wall_time,
        info={**sampleset.info, "read_rank": rank},
    )


def _verified_reads(formulation: StringFormulation, sampleset: SampleSet) -> list:
    """``(output, verified)`` per row, in the sample set's energy order.

    Decodes straight off the ``(R, n)`` state matrix through the
    formulation's batched :meth:`~StringFormulation.decode_states`
    instead of materializing a per-row :class:`Sample` dict and
    re-decoding in a Python loop — the historical hot spot for large
    read counts. Reads that settle in the same state are decoded and
    verified once: decoding is a function of the row and verification
    of the output.
    """
    states = sampleset.states
    keys = [row.tobytes() for row in states]
    first_row: Dict[bytes, int] = {}
    for row, key in enumerate(keys):
        first_row.setdefault(key, row)
    outputs = formulation.decode_states(states[list(first_row.values())])
    verdicts = {
        key: (output, bool(formulation.verify(output)))
        for key, output in zip(first_row, outputs)
    }
    return [verdicts[key] for key in keys]


def _success_rate(sampleset: SampleSet, reads: list) -> float:
    """Occurrence-weighted fraction of reads whose decoding verifies."""
    total = int(sampleset.num_occurrences.sum())
    if not total:
        return 0.0
    good = sum(
        int(weight)
        for (_, ok), weight in zip(reads, sampleset.num_occurrences)
        if ok
    )
    return good / total
