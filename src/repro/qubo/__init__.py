"""QUBO substrate.

This subpackage is a from-scratch replacement for the parts of D-Wave's
``dimod`` package that the paper relies on, on one data model:

* :class:`~repro.qubo.model.QuboModel` — an index-based QUBO over variables
  ``0..n-1``, with dict storage, dense/sparse matrix views, and vectorized
  energy evaluation. Every formulation builds one and every sampler
  consumes one.
* :mod:`~repro.qubo.ising` — exact QUBO ↔ Ising transforms, including the
  Ising form of a ``QuboModel`` that the hardware emulation programs.
* :mod:`~repro.qubo.energy` — batched energy kernels (the hot path shared by
  every sampler).
* :mod:`~repro.qubo.sparse` — the CSR sampler form every sampler kernel
  runs on, and ``O(R · nnz)`` kernels for the bit-local string QUBOs.
* :mod:`~repro.qubo.algebra` — model composition: add, scale, shift, relabel,
  fix variables.
"""

from repro.utils.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.qubo.model": ("QuboModel",),
        "repro.qubo.ising": ("ising_to_qubo", "model_to_ising", "qubo_to_ising"),
        "repro.qubo.energy": (
            "qubo_energies",
            "qubo_energy",
            "ising_energies",
            "ising_energy",
        ),
        "repro.qubo.algebra": (
            "add_models",
            "fix_variables",
            "relabel_variables",
            "scale_model",
        ),
        "repro.qubo.matrix": (
            "dense_from_dict",
            "dict_from_dense",
            "to_symmetric",
            "to_upper_triangular",
        ),
        "repro.qubo.sparse": (
            "CsrMatrix",
            "SparseStats",
            "coupling_density",
            "csr_from_coefficients",
            "prefers_sparse",
            "qubo_energies_csr",
            "sparse_sampler_form",
            "sparse_stats",
        ),
        "repro.qubo.serialization": ("load_model", "save_model"),
        "repro.qubo.tile": ("TiledProblem", "model_content_hash", "tile_models"),
    },
)
