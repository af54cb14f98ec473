"""Cross-cutting integration flows assembled from multiple subsystems."""

import numpy as np
import pytest

from repro.anneal import ReverseAnnealingSampler, SimulatedAnnealingSampler
from repro.core import (
    ConstraintPipeline,
    PipelineStage,
    StringEquality,
    StringNotEquals,
    StringQuboSolver,
    StringReplaceAll,
    StringReversal,
)
from repro.core.affixes import StringPrefixOf, StringSuffixOf
from repro.qubo import load_model, save_model


class TestRefinementFlow:
    def test_anneal_then_reverse_anneal_on_formulation(self):
        """Rough forward anneal + reverse-anneal refinement on a string QUBO."""
        f = StringEquality("refine me")
        model = f.build_model()
        rough = SimulatedAnnealingSampler().sample_model(
            model, num_reads=16, num_sweeps=4, seed=0
        )
        refined = ReverseAnnealingSampler().sample_model(
            model,
            initial_states=rough.states,
            num_reads=16,
            num_sweeps=300,
            seed=1,
        )
        assert refined.first.energy <= rough.first.energy + 1e-9
        decoded = f.decode(refined.first.state(refined.variables))
        assert decoded == "refine me"


class TestPersistenceFlow:
    def test_formulation_model_round_trips_through_disk(self, tmp_path):
        """Compile -> save -> load -> anneal: the hardware-submission shape."""
        f = StringPrefixOf(5, "ab", seed=3)
        path = tmp_path / "constraint.json"
        save_model(f.build_model(), path)
        restored = load_model(path)
        ss = SimulatedAnnealingSampler().sample_model(
            restored, num_reads=32, num_sweeps=300, seed=4
        )
        decoded = f.decode(ss.first.state(ss.variables))
        assert f.verify(decoded)

    def test_notequals_model_round_trips(self, tmp_path):
        f = StringNotEquals("xyz", seed=5)
        path = tmp_path / "neq.json"
        save_model(f.build_model(), path)
        restored = load_model(path)
        assert restored == f.build_model()


class TestAffixPipeline:
    def test_prefix_then_disequality(self, solver):
        """Generate a prefixed witness, then a *different* prefixed witness."""
        first = solver.solve(StringPrefixOf(5, "ab", seed=6))
        assert first.ok
        second = solver.solve(StringNotEquals(first.output, seed=7))
        assert second.ok
        assert second.output != first.output

    def test_suffix_feeds_reversal(self, solver):
        pipeline = ConstraintPipeline(
            [
                PipelineStage(
                    "suffix", lambda prev: StringSuffixOf(4, "ab", seed=8)
                ),
                PipelineStage("reverse", lambda prev: StringReversal(prev)),
            ]
        )
        result = pipeline.run(solver)
        assert result.ok
        assert result.output.startswith("ba")
