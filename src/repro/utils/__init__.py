"""Shared utilities: deterministic RNG management, validation helpers."""

from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.validation import (
    check_finite,
    check_in_range,
    check_positive,
    check_probability,
)

__all__ = [
    "ensure_rng",
    "spawn_rngs",
    "check_finite",
    "check_in_range",
    "check_positive",
    "check_probability",
]
