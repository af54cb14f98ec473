"""Block-diagonal batch tiling: fuse K independent QUBOs into one model.

The serving stack queues many *small* string QUBOs (a §4 word is `7 n`
variables), and each one pays its own kernel invocation — schedule
resolution, initial-state draw, sweep loop, energy pass. Hardware annealers
amortize exactly this overhead by *tiling*: placing many independent
embeddings on one chip and annealing them together (the
``DirectEmbeddingComposite`` idea). This module is the software analogue:

* :func:`tile_models` builds a :class:`TiledProblem` from K independent
  :class:`~repro.qubo.model.QuboModel`\\ s. The fused model is the
  block-diagonal direct sum — variable indices shifted by per-block
  offsets, constant offsets summed, and the CSR couplings composed by
  pure nnz concatenation (indptr segments shifted by the running nnz
  count, indices by the block's variable offset).
* :meth:`TiledProblem.split` turns a fused :class:`SampleSet` back into K
  per-block sample sets with per-block energies.
* :meth:`TiledProblem.block_rngs` derives one RNG stream per block, keyed
  by ``(base_seed, block content hash)``.

Batch-invariance contract
-------------------------
Blocks never interact (the fused coupling is exactly block-diagonal), and
every block consumes only its own RNG stream. The stream is seeded by the
block's *content* — ``SeedSequence([base_seed, *sha256(model)])`` — not by
its position in the tile, so a block's result is identical whether it is
solved alone (``sample_model(model, seed=tiled.block_rngs(seed)[k])``) or
fused with arbitrary neighbors, in any order, in any tile size. The fused
kernels in :mod:`repro.anneal` uphold this bit-for-bit for
integer-coefficient models (the PR 2 discipline; see DESIGN.md Appendix G
for the two documented caveats: FP associativity on non-integer models and
equal-energy row order under :meth:`TiledProblem.split`).

Two identical models in one tile hash identically and therefore return
identical results — the batch analogue of solving the same problem twice
at the same seed.
"""

from __future__ import annotations

import hashlib
import struct
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.qubo.model import QuboModel
from repro.qubo.sparse import CsrMatrix

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (anneal -> qubo)
    from repro.anneal.sampleset import SampleSet

__all__ = ["TiledProblem", "model_content_hash", "tile_models"]

SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]

#: Version tag mixed into every content hash so a future change to the
#: canonical form cannot silently collide with streams from older releases.
_HASH_DOMAIN = b"repro.qubo.tile/content-hash/v1"


def model_content_hash(model: QuboModel) -> str:
    """SHA-256 hex digest of a model's semantic content.

    Canonical form: ``(n, offset, sorted nonzero upper-triangular
    coefficients)`` packed as little-endian int64/float64 — two models
    compare equal under :meth:`QuboModel.__eq__` iff they hash equally
    (modulo ±0.0 and NaN payloads, which no formulation produces).
    """
    h = hashlib.sha256()
    h.update(_HASH_DOMAIN)
    h.update(struct.pack("<qd", model.num_variables, model.offset))
    for i, j, value in sorted(model.iter_coefficients()):
        h.update(struct.pack("<qqd", i, j, value))
    return h.hexdigest()


def _hash_words(hex_digest: str) -> Tuple[int, ...]:
    """The digest as eight 32-bit words — ``SeedSequence`` entropy."""
    return tuple(int(hex_digest[k : k + 8], 16) for k in range(0, 64, 8))


def _resolve_base_entropy(seed: SeedLike) -> int:
    """Collapse a SeedLike into one non-negative base integer.

    ``None`` draws fresh OS entropy (one draw per batch, shared by all
    blocks); a Generator draws from the caller's stream, matching the
    :func:`repro.utils.rng.spawn_rngs` convention.
    """
    if seed is None:
        return int(np.random.SeedSequence().generate_state(1, np.uint64)[0])
    if isinstance(seed, np.random.Generator):
        return int(seed.integers(0, 2**63 - 1))
    if isinstance(seed, np.random.SeedSequence):
        return int(seed.generate_state(1, np.uint64)[0])
    if isinstance(seed, (int, np.integer)):
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        return int(seed)
    raise TypeError(
        f"seed must be None, int, SeedSequence or numpy Generator, got {type(seed)!r}"
    )


class TiledProblem:
    """K independent QUBOs fused into one block-diagonal problem.

    Holds the block layout (``starts[k] : starts[k+1]`` is block *k*'s
    column range in the fused variable space), the per-block content
    hashes that key the batch-invariant RNG streams, and lazy fused views
    (full :class:`QuboModel` and the composed sampler form).
    """

    __slots__ = (
        "models",
        "sizes",
        "starts",
        "block_hashes",
        "_fused_model",
        "_fused_form",
    )

    def __init__(self, models: Iterable[QuboModel]) -> None:
        self.models: Tuple[QuboModel, ...] = tuple(models)
        for model in self.models:
            if not isinstance(model, QuboModel):
                raise TypeError(
                    f"tile blocks must be QuboModel instances, got {type(model)!r}"
                )
        self.sizes: Tuple[int, ...] = tuple(m.num_variables for m in self.models)
        starts = np.zeros(len(self.models) + 1, dtype=np.int64)
        np.cumsum(self.sizes, out=starts[1:])
        starts.setflags(write=False)
        self.starts = starts
        self.block_hashes: Tuple[str, ...] = tuple(
            model_content_hash(m) for m in self.models
        )
        self._fused_model: Optional[QuboModel] = None
        self._fused_form: Optional[Tuple[np.ndarray, CsrMatrix]] = None

    # -------------------------------------------------------------- #
    # layout
    # -------------------------------------------------------------- #

    @property
    def num_blocks(self) -> int:
        """Number of tiled blocks K."""
        return len(self.models)

    @property
    def num_variables(self) -> int:
        """Total fused variable count ``Σ n_k``."""
        return int(self.starts[-1])

    def block_slice(self, k: int) -> slice:
        """Column range of block *k* in the fused variable space."""
        return slice(int(self.starts[k]), int(self.starts[k + 1]))

    def __len__(self) -> int:
        return len(self.models)

    def __repr__(self) -> str:
        return (
            f"TiledProblem(num_blocks={self.num_blocks}, "
            f"num_variables={self.num_variables})"
        )

    # -------------------------------------------------------------- #
    # fused views
    # -------------------------------------------------------------- #

    @property
    def fused_model(self) -> QuboModel:
        """The block-diagonal direct sum as a full :class:`QuboModel`."""
        if self._fused_model is None:
            coeffs = {}
            offset = 0.0
            for model, start in zip(self.models, self.starts):
                s = int(start)
                offset += model.offset
                for i, j, value in model.iter_coefficients():
                    coeffs[(i + s, j + s)] = value
            self._fused_model = QuboModel(self.num_variables, coeffs, offset)
        return self._fused_model

    def fused_sampler_form(self) -> Tuple[np.ndarray, CsrMatrix]:
        """Composed ``(diagonal, CSR coupling)`` sampler form of the fused model.

        Built from the per-block cached forms, not from the fused
        coefficient dict: the diagonal is a concatenation and the CSR
        coupling a pure nnz concatenation (per-block indptr segments
        shifted by the running nnz count, column indices by the block's
        variable offset). Each fused CSR row is therefore the *same
        entries in the same order* as the block's own row — the property
        the bit-identity of fused field updates rests on.
        """
        if self._fused_form is not None:
            return self._fused_form
        n = self.num_variables
        forms = [model.sampler_form() for model in self.models]
        diag = (
            np.concatenate([f[0] for f in forms])
            if forms
            else np.zeros(0, dtype=np.float64)
        )
        diag.setflags(write=False)
        indptr = np.zeros(n + 1, dtype=np.int64)
        indices_parts: List[np.ndarray] = [np.zeros(0, dtype=np.int64)]
        data_parts: List[np.ndarray] = [np.zeros(0, dtype=np.float64)]
        nnz = 0
        for (_, coupling), start in zip(forms, self.starts):
            s = int(start)
            indptr[s + 1 : s + coupling.shape[0] + 1] = coupling.indptr[1:] + nnz
            indices_parts.append(coupling.indices + s)
            data_parts.append(coupling.data)
            nnz += coupling.nnz
        coupling = CsrMatrix(
            indptr, np.concatenate(indices_parts), np.concatenate(data_parts), (n, n)
        )
        self._fused_form = (diag, coupling)
        return self._fused_form

    # -------------------------------------------------------------- #
    # batch-invariant RNG streams
    # -------------------------------------------------------------- #

    def seed_sequences(self, seed: SeedLike = None) -> List[np.random.SeedSequence]:
        """One ``SeedSequence`` per block: ``[base_seed, *sha256(block)]``.

        Content-keyed, not position-keyed: the stream depends only on the
        base seed and the block's own coefficients, never on its
        tile-mates or its index — the root of the batch-invariance
        contract. ``None`` draws one fresh base for the whole batch.
        """
        base = _resolve_base_entropy(seed)
        return [
            np.random.SeedSequence([base, *_hash_words(digest)])
            for digest in self.block_hashes
        ]

    def block_rngs(self, seed: SeedLike = None) -> List[np.random.Generator]:
        """Fresh, independent generators for the per-block streams."""
        return [np.random.default_rng(ss) for ss in self.seed_sequences(seed)]

    # -------------------------------------------------------------- #
    # splitting fused results
    # -------------------------------------------------------------- #

    def split_states(self, states: np.ndarray) -> List[np.ndarray]:
        """Per-block column views of a fused ``(R, Σn)`` state matrix."""
        states = np.asarray(states)
        if states.ndim != 2 or states.shape[1] != self.num_variables:
            raise ValueError(
                f"fused states must have {self.num_variables} columns, "
                f"got shape {states.shape}"
            )
        return [states[:, self.block_slice(k)] for k in range(self.num_blocks)]

    def block_energies(self, k: int, block_states: np.ndarray) -> np.ndarray:
        """Energies of block *k* for already-sliced block states."""
        model = self.models[k]
        if model.num_variables == 0:
            return np.full(block_states.shape[0], model.offset)
        return model.energies(block_states)

    def build_samplesets(
        self,
        states: np.ndarray,
        info: Optional[dict] = None,
        per_block_info: Optional[Sequence[dict]] = None,
    ) -> List["SampleSet"]:
        """Per-block :class:`SampleSet`\\ s from a raw fused state matrix.

        The fused kernels call this with their *pre-sort* state matrix so
        each block's rows enter ``SampleSet``'s stable energy sort in
        original read order — exactly as a solo ``sample_model`` call
        would — keeping equal-energy row order bit-identical to the solo
        solve. (:meth:`split` cannot: it only sees the fused sample set's
        already-sorted rows.)
        """
        from repro.anneal.sampleset import SampleSet

        out: List[SampleSet] = []
        for k, block_states in enumerate(self.split_states(states)):
            block_states = np.ascontiguousarray(block_states)
            merged = {
                **(info or {}),
                **((per_block_info[k] if per_block_info is not None else {}) or {}),
                "tile": {"num_blocks": self.num_blocks, "block": k},
            }
            out.append(
                SampleSet(
                    block_states,
                    self.block_energies(k, block_states),
                    info=merged,
                )
            )
        return out

    def split(self, sampleset: "SampleSet") -> List["SampleSet"]:
        """Split a fused :class:`SampleSet` into K per-block sample sets.

        Each block's energies are recomputed against its own model
        (fused-row energy sums include the tile-mates' contributions and
        offsets, so it cannot be sliced). Note the fused set's rows are
        already energy-sorted *globally*; rows tied on a block's energy
        may therefore appear in a different order than a solo solve of
        that block would produce — prefer :meth:`build_samplesets` (what
        ``sample_tiled`` uses) when bit-level row order matters.
        """
        return self.build_samplesets(sampleset.states, info=dict(sampleset.info))


def tile_models(models: Iterable[QuboModel]) -> TiledProblem:
    """Fuse independent QUBOs into one block-diagonal :class:`TiledProblem`."""
    return TiledProblem(models)
