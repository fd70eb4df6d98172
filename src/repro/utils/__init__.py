"""Shared helpers: dB conversions, RNG plumbing, validation."""

from repro.utils.rng import ensure_rng
from repro.utils.units import db_to_linear, linear_to_db, ppm_to_hz, wrap_phase
from repro.utils.validation import require

__all__ = [
    "db_to_linear",
    "linear_to_db",
    "wrap_phase",
    "ppm_to_hz",
    "ensure_rng",
    "require",
]
