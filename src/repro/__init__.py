"""repro — Quantum-based SMT solving for the theory of strings.

A full-stack reproduction of "Quantum-Based SMT Solving for String Theory"
(Casey, Santos, Hennessee — HPDC'25): string constraints are lowered to
QUBO matrices (:mod:`repro.core`) and solved by a (simulated) quantum
annealer (:mod:`repro.anneal`, :mod:`repro.hardware`), with an SMT-LIB
front end and classical baselines (:mod:`repro.smt`).

Quickstart
----------
>>> from repro import StringQuboSolver, StringReversal
>>> solver = StringQuboSolver(seed=0)
>>> solver.solve(StringReversal("hello")).output
'olleh'

See ``examples/quickstart.py`` for the guided tour and DESIGN.md for the
system inventory.
"""

from repro.utils.lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core": (
            "ConstraintPipeline",
            "PalindromeGeneration",
            "PipelineResult",
            "PipelineStage",
            "RegexMatching",
            "SolveResult",
            "StringConcatenation",
            "StringEquality",
            "StringIncludes",
            "StringLength",
            "StringCharAt",
            "StringNotEquals",
            "StringPrefixOf",
            "StringQuboSolver",
            "StringReplace",
            "StringReplaceAll",
            "StringReversal",
            "StringSubstr",
            "StringSuffixOf",
            "SubstringIndexOf",
            "SubstringMatching",
        ),
        "repro.anneal": (
            "ExactSolver",
            "PathIntegralAnnealer",
            "SampleSet",
            "SimulatedAnnealingSampler",
        ),
        "repro.hardware": ("EmbeddingComposite", "SimulatedQPU"),
        "repro.qubo": ("BinaryQuadraticModel", "QuboModel"),
        "repro.smt": ("ClassicalStringSolver", "QuantumSMTSolver"),
        "repro.service": (
            "BatchSolver",
            "CompileCache",
            "MetricsRegistry",
            "RetryExhaustedError",
            "RetryPolicy",
        ),
    },
)
__all__ = sorted([*__all__, "__version__"])
