"""Exception types shared across the engine."""

from __future__ import annotations

__all__ = ["Incomparable", "TheoremViolation"]


class TheoremViolation(Exception):
    """A verified mathematical invariant failed on concrete data.

    Raised only when the engine detects a counterexample to a property it
    is supposed to machine-check (unique meets, polygon shapes, increment
    decompositions, ...).  The witness carries enough data to replay the
    failure by hand.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class Incomparable(ValueError):
    """Two elements were asked for a path between them, and neither lies
    below the other."""
