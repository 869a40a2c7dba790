"""Shared utilities: RNG management, validation and exceptions.

These helpers are intentionally small and dependency-free so that every
other subpackage (``repro.nn``, ``repro.zoo``, ``repro.core`` ...) can use
them without import cycles.
"""

from repro.utils.exceptions import (
    ConfigurationError,
    DataError,
    ReproError,
    SelectionError,
)
from repro.utils.rng import RngFactory, as_generator
from repro.utils.validation import (
    check_positive,
    check_probability_matrix,
)

__all__ = [
    "ConfigurationError",
    "DataError",
    "ReproError",
    "SelectionError",
    "RngFactory",
    "as_generator",
    "check_positive",
    "check_probability_matrix",
]
