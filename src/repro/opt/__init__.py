"""``repro.opt`` — anytime weighted-MaxSMT optimization.

The optimization vertical over the solver stack: ``assert-soft`` weighted
constraints (parsed by :mod:`repro.smt.parser`) compile through
:func:`~repro.opt.weighted.compile_weighted` into gap-calibrated weighted
QUBOs, and :class:`~repro.opt.driver.AnytimeOptimizer` tightens objective
bounds across annealer restarts under a deadline budget. Results are typed
:class:`~repro.opt.result.OptimizeResult` envelopes with an
``optimal | feasible | infeasible | unknown`` status, per-soft-assertion
breakdown, and the weight-calibration gap certificate.
"""

from repro.utils.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.opt.driver": ("AnytimeOptimizer", "audit_cost"),
        "repro.opt.result": (
            "OptimizeResult",
            "OptStatus",
            "SoftReport",
            "solve_status_for",
        ),
        "repro.opt.weighted": (
            "WeightedFormulation",
            "WeightedProblem",
            "compile_weighted",
            "model_spread",
        ),
    },
)
