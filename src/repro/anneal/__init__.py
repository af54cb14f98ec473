"""Samplers and annealers (the D-Wave Ocean substitution).

The paper runs its QUBOs through D-Wave's simulated annealer. This
subpackage provides a from-scratch, NumPy-vectorized equivalent plus the
surrounding sampler ecosystem a hardware-ready stack needs:

* :class:`~repro.anneal.simulated.SimulatedAnnealingSampler` — the paper's
  solver: single-flip Metropolis over the QUBO with a geometric beta
  schedule, vectorized across reads.
* :class:`~repro.anneal.sqa.PathIntegralAnnealer` — simulated *quantum*
  annealing: Trotterized transverse-field Ising dynamics, the standard
  classical stand-in for real annealing hardware.
* :class:`~repro.anneal.exact.ExactSolver` — vectorized brute force for
  ground-truth on small models.
* :class:`~repro.anneal.tabu.TabuSampler`,
  :class:`~repro.anneal.greedy.SteepestDescentSampler`,
  :class:`~repro.anneal.random_sampler.RandomSampler` — classical baselines.
* :mod:`~repro.anneal.parallel` — multi-process portfolio and batched
  sampling.
"""

from repro.utils.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.anneal.sampleset": ("Sample", "SampleSet"),
        "repro.anneal.schedule": (
            "default_beta_range",
            "geometric_schedule",
            "linear_schedule",
            "transverse_field_schedule",
        ),
        "repro.anneal.base": ("Sampler",),
        "repro.anneal.simulated": ("SimulatedAnnealingSampler",),
        "repro.anneal.sqa": ("PathIntegralAnnealer",),
        "repro.anneal.exact": ("ExactSolver",),
        "repro.anneal.reverse": ("ReverseAnnealingSampler",),
        "repro.anneal.tabu": ("TabuSampler",),
        "repro.anneal.greedy": ("SteepestDescentSampler",),
        "repro.anneal.random_sampler": ("RandomSampler",),
        "repro.anneal.parallel": (
            "ParallelSampler",
            "PortfolioSampler",
            "split_evenly",
        ),
    },
)
