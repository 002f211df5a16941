"""Exception hierarchy for the cavity/coalescence toolkit.

Every error raised on purpose by this package derives from
:class:`CoalescenceError`, so callers (and the CLI) can catch domain
failures without swallowing genuine bugs.  Each class names its CLI
error token in ``token``; a subclass without one inherits its parent's.
"""

import math


class CoalescenceError(Exception):
    """Base class for all domain errors raised by this package."""

    token = "domain-error"


class InvalidParameterError(CoalescenceError, ValueError):
    """An argument violates a documented precondition (non-finite,
    out of range, wrong sign, ...)."""

    token = "invalid-parameter"


def finite(name, value):
    """``value`` as a float, or :class:`InvalidParameterError` if not
    finite; an int too large for a float is not."""
    try:
        v = float(value)
    except OverflowError:
        v = math.inf
    if not math.isfinite(v):
        raise InvalidParameterError(f"{name} must be finite, got {value!r}")
    return v


def integer(what, value, least):
    """``value`` as an int, or :class:`InvalidParameterError` unless it is
    a finite integer >= ``least``."""
    finite(what, value)   # NaN, inf and ints past a float
    n = int(value)
    if n != value or n < least:
        raise InvalidParameterError(
            f"{what} must be an integer >= {least}, got {value}")
    return n


class AboveThresholdError(CoalescenceError):
    """A closed form was evaluated past the coalescence threshold,
    where it is no longer real-valued."""

    token = "above-threshold"


class DivergentSensitivityError(AboveThresholdError):
    """The readout-sensitivity closed form diverges at or beyond the
    coalescence threshold."""

    token = "divergent-sensitivity"


class NotBracketedError(CoalescenceError):
    """A root solve found no sign change in its bracket, or did not
    converge in it; or a merge search range does not straddle the merge."""

    token = "not-bracketed"


class EdgeTruncationError(CoalescenceError):
    """A half-width search ran into the edge of its allowed window
    before the transmission dropped to half the peak value."""

    token = "edge-truncation"


class PairIdentificationError(CoalescenceError):
    """Branch tracking found peaks that cannot belong to one coalescing
    pair (e.g. further than one free spectral range apart)."""

    token = "pair-identification"


class InternalConsistencyError(CoalescenceError):
    """A quantity that is guaranteed real/bounded by algebra came out
    otherwise; indicates a broken branch choice, not bad user input."""

    token = "internal-consistency"
