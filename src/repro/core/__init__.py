"""The paper's contribution: QUBO formulations for string constraints.

Each module implements one of the paper's §4 formulations. All of them
share the 7-bit ASCII encoding of §4's preamble (see
:mod:`~repro.core.encoding`): a string of length *n* becomes ``7 n`` binary
variables, most-significant bit first within each character.

The formulations are *objects*: they build a
:class:`~repro.qubo.model.QuboModel`, decode annealer states back to
strings (or indices), and verify decoded solutions against the constraint's
concrete semantics. :class:`~repro.core.solver.StringQuboSolver` drives the
full Figure-1 pipeline: formulation → QUBO → annealer → decode → verify.
"""

from repro.utils.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.encoding": (
            "char_to_bits",
            "decode_state",
            "encode_string",
            "state_to_string",
            "states_to_strings",
        ),
        "repro.core.formulation": ("FormulationError", "StringFormulation"),
        "repro.core.equality": ("StringEquality",),
        "repro.core.concat": ("StringConcatenation",),
        "repro.core.substring": ("SubstringMatching",),
        "repro.core.includes": ("StringIncludes",),
        "repro.core.indexof": ("SubstringIndexOf",),
        "repro.core.length": ("StringLength",),
        "repro.core.replace": ("StringReplace", "StringReplaceAll"),
        "repro.core.reverse": ("StringReversal",),
        "repro.core.palindrome": ("PalindromeGeneration",),
        "repro.core.regex": ("RegexMatching", "parse_pattern", "regex_matches"),
        "repro.core.pipeline": (
            "ConstraintPipeline",
            "PipelineResult",
            "PipelineStage",
        ),
        "repro.core.solver": ("SolveResult", "StringQuboSolver"),
        "repro.core.affixes": (
            "StringCharAt",
            "StringPrefixOf",
            "StringSubstr",
            "StringSuffixOf",
        ),
        "repro.core.notequals": ("StringNotEquals",),
        "repro.core.closest": ("ClosestStringFormulation",),
    },
)
