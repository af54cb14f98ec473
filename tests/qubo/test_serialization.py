import json

import numpy as np
import pytest

from repro.qubo.bqm import BinaryQuadraticModel
from repro.qubo.model import QuboModel
from repro.qubo.serialization import (
    bqm_from_dict,
    bqm_to_dict,
    load_model,
    qubo_from_dict,
    qubo_to_dict,
    save_model,
)


def _model():
    return QuboModel(4, {(0, 0): -1.0, (1, 3): 2.5, (2, 2): 0.75}, offset=1.25)


def _bqm():
    return BinaryQuadraticModel(
        {"a": 1.0, ("pair", 3): -2.0},
        {("a", ("pair", 3)): 0.5},
        offset=-0.25,
        vartype="SPIN",
    )


class TestQuboRoundTrip:
    def test_dict_round_trip(self):
        m = _model()
        assert qubo_from_dict(qubo_to_dict(m)) == m

    def test_payload_is_json_compatible(self):
        payload = qubo_to_dict(_model())
        json.dumps(payload)  # must not raise

    def test_empty_model(self):
        m = QuboModel(0, offset=3.0)
        restored = qubo_from_dict(qubo_to_dict(m))
        assert restored.num_variables == 0
        assert restored.offset == 3.0

    def test_energies_preserved(self):
        m = _model()
        restored = qubo_from_dict(qubo_to_dict(m))
        rng = np.random.default_rng(0)
        states = rng.integers(0, 2, size=(8, 4))
        np.testing.assert_allclose(m.energies(states), restored.energies(states))

    def test_bad_format_rejected(self):
        with pytest.raises(ValueError):
            qubo_from_dict({"format": "other", "version": 1})

    def test_bad_version_rejected(self):
        payload = qubo_to_dict(_model())
        payload["version"] = 99
        with pytest.raises(ValueError):
            qubo_from_dict(payload)


class TestBqmRoundTrip:
    def test_round_trip_with_tuple_labels(self):
        bqm = _bqm()
        restored = bqm_from_dict(bqm_to_dict(bqm))
        assert restored.vartype.name == "SPIN"
        assert restored.variables == bqm.variables
        assert restored.get_linear(("pair", 3)) == -2.0
        assert restored.get_quadratic("a", ("pair", 3)) == 0.5
        assert restored.offset == -0.25

    def test_energy_preserved(self):
        bqm = _bqm()
        restored = bqm_from_dict(bqm_to_dict(bqm))
        sample = {"a": 1, ("pair", 3): -1}
        assert restored.energy(sample) == pytest.approx(bqm.energy(sample))


class TestFileRoundTrip:
    def test_qubo_file(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(_model(), path)
        assert load_model(path) == _model()

    def test_bqm_file(self, tmp_path):
        path = tmp_path / "bqm.json"
        save_model(_bqm(), path)
        restored = load_model(path)
        assert isinstance(restored, BinaryQuadraticModel)
        assert restored.num_variables == 2

    def test_unknown_type_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            save_model("not a model", tmp_path / "x.json")

    def test_unknown_format_file(self, tmp_path):
        path = tmp_path / "weird.json"
        path.write_text('{"format": "mystery"}')
        with pytest.raises(ValueError):
            load_model(path)

    def test_formulation_model_survives(self, tmp_path):
        """The practical path: persist a compiled string constraint."""
        from repro.core import PalindromeGeneration

        model = PalindromeGeneration(4).build_model()
        path = tmp_path / "palindrome.json"
        save_model(model, path)
        assert load_model(path) == model


class TestNewerModelShapes:
    """Round-trips for the shapes later subsystems produce: CSR-coupled
    models, tiled/offset fused models, and weighted MaxSMT models — each
    with a byte-stable JSON pin (sorted-keys sha256)."""

    @staticmethod
    def _digest(payload) -> str:
        import hashlib

        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()
        ).hexdigest()

    def _tiled_fused(self):
        from repro.qubo.tile import TiledProblem

        a = QuboModel(2, {(0, 0): -1.0, (0, 1): 2.0}, offset=0.5)
        b = QuboModel(3, {(1, 1): 1.5, (0, 2): -0.25}, offset=-1.0)
        return TiledProblem([a, b]).fused_model

    def _weighted(self):
        from repro.opt.weighted import compile_weighted
        from repro.smt.parser import parse_script

        script = parse_script(
            "(declare-const x String)"
            "(assert (= (str.len x) 1))"
            '(assert-soft (= x "a") :weight 1)'
            '(assert-soft (= x "b") :weight 3)'
        )
        problem = compile_weighted(
            list(script.assertions), list(script.soft_assertions), seed=13
        )
        return problem.formulations["x"].build_model()

    def test_csr_coupling_survives_round_trip(self):
        m = QuboModel(
            6, {(0, 0): -1.0, (0, 5): 2.0, (1, 4): -0.5, (2, 3): 1.25}
        )
        restored = qubo_from_dict(qubo_to_dict(m))
        diag, coupling = m.sampler_form()
        rdiag, rcoupling = restored.sampler_form()
        np.testing.assert_array_equal(diag, rdiag)
        assert coupling == rcoupling
        assert coupling.nnz == rcoupling.nnz

    def test_tiled_fused_model_round_trip(self):
        fused = self._tiled_fused()
        restored = qubo_from_dict(qubo_to_dict(fused))
        assert restored == fused
        assert restored.offset == -0.5  # per-block offsets summed

    def test_tiled_fused_json_pin(self):
        assert self._digest(qubo_to_dict(self._tiled_fused())) == (
            "a117ffdcde7536f14ab0792bc311adc939eafd61b6284a4b3637c2cdbd5e7545"
        )

    def test_weighted_model_round_trip(self):
        model = self._weighted()
        restored = qubo_from_dict(qubo_to_dict(model))
        assert restored == model
        rng = np.random.default_rng(3)
        states = rng.integers(0, 2, size=(16, model.num_variables))
        np.testing.assert_allclose(
            model.energies(states), restored.energies(states)
        )

    def test_weighted_model_json_pin(self):
        # Guards both the serializer's byte stability and the weighted
        # compiler's RNG discipline at a fixed seed.
        assert self._digest(qubo_to_dict(self._weighted())) == (
            "c98487928b51efa26ae7129ff2b3dfd2d74013299973b193b77adcebaa094481"
        )

    def test_file_round_trip_of_weighted_model(self, tmp_path):
        model = self._weighted()
        path = tmp_path / "weighted.json"
        save_model(model, path)
        assert load_model(path) == model
