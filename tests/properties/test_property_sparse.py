"""Properties of the sparse (CSR) kernel path.

* **energies** — ``qubo_energies_csr`` agrees with the dense kernel to
  1e-9 on arbitrary random models (floating-point associativity is the
  only difference), and *exactly* on integer-coefficient string models;
* **sampling** — the colored and sequential sweeps both solve a string
  QUBO to its ground energy. The sampler kernels run only on CSR; their
  fixed-seed results are pinned by the digest suites.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.anneal.simulated import SimulatedAnnealingSampler
from repro.core import PalindromeGeneration
from repro.qubo.energy import qubo_energies
from repro.qubo.model import QuboModel
from repro.qubo.sparse import qubo_energies_csr, sparse_sampler_form


@st.composite
def coefficient_dicts(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    entries = draw(
        st.dictionaries(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            st.floats(-5, 5, allow_nan=False, allow_infinity=False),
            max_size=16,
        )
    )
    offset = draw(st.floats(-3, 3, allow_nan=False))
    return n, entries, offset


class TestEnergyEquivalence:
    @given(coefficient_dicts(), st.integers(0, 2**31 - 1))
    def test_sparse_matches_dense_energies(self, problem, state_seed):
        n, entries, offset = problem
        model = QuboModel(n, entries, offset=offset)
        diag, csr = sparse_sampler_form(model.to_dict(), n)
        states = np.random.default_rng(state_seed).integers(0, 2, size=(16, n))
        dense = qubo_energies(states, model.to_dense(), offset)
        sparse = qubo_energies_csr(states, diag, csr, offset)
        np.testing.assert_allclose(sparse, dense, atol=1e-9)

    @given(st.integers(2, 10), st.integers(0, 2**31 - 1))
    @settings(max_examples=25)
    def test_exact_on_integer_palindrome_models(self, length, state_seed):
        model = PalindromeGeneration(length).build_model()
        diag, csr = sparse_sampler_form(model.to_dict(), model.num_variables)
        states = np.random.default_rng(state_seed).integers(
            0, 2, size=(8, model.num_variables)
        )
        dense = qubo_energies(states, model.to_dense(), model.offset)
        sparse = qubo_energies_csr(states, diag, csr, model.offset)
        np.testing.assert_array_equal(sparse, dense)


class TestColoredVsSequential:
    def test_colored_solves_palindrome_like_sequential(self):
        # The two sweep orders draw different RNG streams, so the sample
        # sets differ — but both must land valid palindromes at the ground
        # energy of the mirrored-pair model.
        formulation = PalindromeGeneration(6)
        model = formulation.build_model()
        outcomes = {}
        for sweep_mode in ("sequential", "colored"):
            ss = SimulatedAnnealingSampler().sample_model(
                model,
                num_reads=32,
                num_sweeps=300,
                sweep_mode=sweep_mode,
                seed=33,
            )
            decoded = formulation.decode(ss.first.state(ss.variables))
            assert decoded == decoded[::-1], sweep_mode
            outcomes[sweep_mode] = ss.first.energy
        assert outcomes["colored"] == pytest.approx(
            outcomes["sequential"], abs=1e-9
        )
