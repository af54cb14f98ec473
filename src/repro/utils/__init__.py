"""Shared utilities: RNG discipline, timing, ASCII tables, validation.

These helpers are deliberately dependency-light; every other subpackage may
import from here, but :mod:`repro.utils` imports nothing from the rest of the
library.
"""

from repro.utils.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.utils.rng": ("ensure_rng", "spawn_rngs"),
        "repro.utils.timing": ("Stopwatch", "Timer"),
        "repro.utils.asciitab": (
            "CHAR_BITS",
            "PRINTABLE_MAX",
            "PRINTABLE_MIN",
            "is_ascii7",
            "is_printable",
            "printable_chars",
            "random_printable",
        ),
        "repro.utils.validation": (
            "check_non_negative",
            "check_positive",
            "check_probability",
            "check_type",
        ),
    },
)
