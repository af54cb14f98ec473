"""SMT front end, classical baselines, and DPLL(T) machinery.

The paper positions its QUBO solver as an alternative theory engine for
SMT solving over strings (§1, §2.1). This subpackage supplies everything
around the QUBO core that a real solver needs:

* :mod:`~repro.smt.sexpr` / :mod:`~repro.smt.parser` — an SMT-LIB 2.6
  reader for the strings fragment (``declare-const``, ``assert`` over
  ``str.++ str.len str.contains str.indexof str.replace str.replace_all
  str.rev str.in_re`` and the ``re.*`` regex constructors).
* :mod:`~repro.smt.ast` / :mod:`~repro.smt.theory` — typed terms and their
  concrete SMT-LIB semantics (used to check models).
* :mod:`~repro.smt.compiler` — lowers assertions to the paper's §4
  formulations, summing QUBOs when several constraints bind one variable.
* :mod:`~repro.smt.solver` — :class:`QuantumSMTSolver`, the user-facing
  check-sat / get-model facade.
* :mod:`~repro.smt.classical` — a classical baseline string solver
  (propagation + backtracking enumeration).
* :mod:`~repro.smt.dpll` / :mod:`~repro.smt.dpllt` — a CDCL SAT core and a
  DPLL(T) driver using the string theory as its T-solver.
"""

from repro.utils.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.smt.ast": (
            "BoolSort",
            "Concat",
            "Contains",
            "Eq",
            "IndexOf",
            "IntLit",
            "IntSort",
            "InRe",
            "Length",
            "Not",
            "ReConcat",
            "ReLit",
            "RePlus",
            "ReRange",
            "ReUnion",
            "Replace",
            "Reverse",
            "StringSort",
            "StrLit",
            "StrVar",
        ),
        "repro.smt.sexpr": ("SExprError", "Symbol", "parse_sexprs"),
        "repro.smt.status": ("SolveStatus",),
        "repro.smt.theory": ("TheoryError", "eval_formula", "eval_term"),
        "repro.smt.parser": ("ParseError", "SmtScript", "parse_script"),
        "repro.smt.printer": ("render_assertion", "render_script", "render_term"),
        "repro.smt.compiler": (
            "CompilationError",
            "CompiledProblem",
            "compile_assertions",
        ),
        "repro.smt.solver": ("QuantumSMTSolver", "SmtResult"),
        "repro.smt.classical": ("ClassicalStringSolver",),
        "repro.smt.dpll": ("CdclSolver", "DpllResult"),
        "repro.smt.dpllt": ("DpllTSolver",),
        "repro.smt.generator": ("ALL_OPS", "GeneratedInstance", "InstanceGenerator"),
        "repro.smt.refine": (
            "RefinementEngine",
            "RefineStats",
            "UnsoundPropagationError",
        ),
        "repro.smt.session": ("SolverSession",),
    },
)
