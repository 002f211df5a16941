"""Exception hierarchy for the cavity/coalescence toolkit.

Every error raised on purpose by this package derives from
:class:`CoalescenceError`, so callers (and the CLI) can catch domain
failures without swallowing genuine bugs.
"""

import math


class CoalescenceError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidParameterError(CoalescenceError, ValueError):
    """An argument violates a documented precondition (non-finite,
    out of range, wrong sign, ...)."""


def finite(name, value):
    """``value`` as a float, or :class:`InvalidParameterError` if not finite."""
    v = float(value)
    if not math.isfinite(v):
        raise InvalidParameterError(f"{name} must be finite, got {value!r}")
    return v


class AboveThresholdError(CoalescenceError):
    """A closed form was evaluated past the coalescence threshold,
    where it is no longer real-valued."""


class DivergentSensitivityError(AboveThresholdError):
    """The readout-sensitivity closed form diverges at or beyond the
    coalescence threshold."""


class NotBracketedError(CoalescenceError):
    """A root solve found no sign change in its bracket, or did not
    converge in it; or a merge search range does not straddle the merge."""


class EdgeTruncationError(CoalescenceError):
    """A half-width search ran into the edge of its allowed window
    before the transmission dropped to half the peak value."""


class PairIdentificationError(CoalescenceError):
    """Branch tracking found peaks that cannot belong to one coalescing
    pair (e.g. further than one free spectral range apart)."""


class InternalConsistencyError(CoalescenceError):
    """A quantity that is guaranteed real/bounded by algebra came out
    otherwise; indicates a broken branch choice, not bad user input."""
