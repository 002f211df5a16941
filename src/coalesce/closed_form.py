"""Closed-form cavity formulas: resonances, splitting, pulled peaks.

These are the analytic counterparts of the numeric transfer-matrix
engine and double as test oracles for it.  :func:`newton` is the
package's one root solver, shared with the searches of ``spectrum``.
Units are c = 1, L = 1 throughout, so frequencies and wavenumbers
coincide.

Conventions fixed here (branch choices the formulas leave open):

* the bare resonance uses the principal arccos branch, giving
  ``omega_n = (n-1)*pi + arccos(zeta/sqrt(1+zeta^2))``;
* the linewidth ``kappa = 1/(2|zeta| sqrt(1+zeta^2))`` is the HWHM of
  the intensity Lorentzian (validated numerically by the empty-cavity
  half-width);
* the splitting ``2*delta = |atan2(2*zeta_m, zeta_m^2 - 1)|`` so that a
  transparent middle element returns the bare free spectral range pi
  and the splitting decreases monotonically to 0 as |zeta_m| grows
  (identically equal to ``2*arctan(1/|zeta_m|)``);
* the pulled-peak angles ``eps_plus``/``eps_minus`` are taken on the
  principal arccos branch and both pair members are reported in the
  same 2*n*pi period, ``k = 2*n*pi - eps``; the observable validated
  against numerics is the pair gap ``|eps_minus - eps_plus|``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .errors import (
    AboveThresholdError,
    InternalConsistencyError,
    InvalidParameterError,
    NotBracketedError,
    finite as _finite,
)

__all__ = [
    "newton",
    "bare_resonance",
    "bare_linewidth",
    "mode_splitting",
    "coalescence_threshold",
    "PairPeaks",
    "peak_positions",
    "pair_center",
    "resonant_transmission",
    "lossless_eigenmodes",
    "lossless_pair",
    "multilayer_threshold",
    "ClosedFormReport",
    "report",
]


def newton(f, lo, x, hi, tol):
    """Root of ``f`` in [lo, hi] by safeguarded Newton steps from ``x``.

    The package's one root solver.  ``f(x)`` gives the value, rising
    through the root, and its slope.  Each value moves the bracket end
    of its sign.  A step that leaves the bracket, or comes from a slope
    <= 0 (or none: pass 0), is replaced by bisection.  Ends at a zero
    value whose slope is >= 0, or at a Newton step of at most ``tol / 2``
    inside the bracket.  Once values of both signs bound a bracket at
    most ``tol`` (or four ulps) wide, ends at the Newton step from the
    last point if it lands inside the bracket, else mid-bracket.  Raises
    :class:`InvalidParameterError` unless tol > 0, and
    :class:`NotBracketedError` when the bracket collapses on an end never
    evaluated, or after 64 evaluations.
    """
    if not tol > 0.0:   # also refuses NaN
        raise InvalidParameterError(f"tol must be > 0, got {tol!r}")
    signs = set()
    for _ in range(64):
        value, slope = f(x)
        if value == 0.0 and slope >= 0.0:   # a falling zero is no root
            return x
        if value < 0.0 or value > 0.0:
            lo, hi = (x, hi) if value < 0.0 else (lo, x)
            signs.add(value > 0.0)
        done = len(signs) == 2 and hi - lo <= max(tol, 4.0 * math.ulp(x))
        step = value / slope if slope > 0.0 else math.nan
        new = x - step
        if lo <= new <= hi and (done or abs(step) <= 0.5 * tol):
            return new
        if done:
            return 0.5 * (lo + hi)
        if not lo < new < hi:
            new = 0.5 * (lo + hi)
            if not lo < new < hi:
                raise NotBracketedError(
                    f"refinement lost its bracket near {x!r}")
        x = new
    raise NotBracketedError(f"refinement did not converge near {x!r}")


def bare_resonance(n, zeta):
    """Resonance wavenumber omega_n of the empty symmetric cavity.

    omega_n = (n-1)*pi + arccos(zeta/sqrt(1+zeta^2)) for mode index
    n >= 1; tends to n*pi as zeta -> -inf.
    """
    if int(n) != n or n < 1:
        raise InvalidParameterError(f"mode index must be an integer >= 1, got {n}")
    z = _finite("zeta", zeta)
    return (int(n) - 1) * math.pi + math.acos(z / math.hypot(z, 1.0))


def _two_zeta_root(z):
    """2*z*sqrt(z^2 + 1), refused where it overflows (|z| >~ 9.5e153)."""
    value = 2.0 * z * math.hypot(z, 1.0)
    if not math.isfinite(value):
        raise InvalidParameterError(
            f"zeta = {z!r} is too strong: 2*zeta*sqrt(zeta^2 + 1) overflows")
    return value


def bare_linewidth(zeta):
    """HWHM kappa = 1/(2 |zeta| sqrt(1+zeta^2)) of a bare resonance.

    Refused where the product or kappa overflows: |zeta| >~ 9.5e153 or
    |zeta| <~ 2.8e-309.
    """
    z = _finite("zeta", zeta)
    if z == 0.0:
        raise InvalidParameterError("zeta = 0 has no resonances (no mirrors)")
    kappa = 1.0 / abs(_two_zeta_root(z))
    if not math.isfinite(kappa):
        raise InvalidParameterError(
            f"zeta = {z!r} is too weak: 1/(2*zeta*sqrt(zeta^2 + 1)) "
            "overflows")
    return kappa


def mode_splitting(zeta_m):
    """Frequency separation 2*delta of a pair split by the middle element.

    Branch fixed via atan2 so the splitting runs continuously from the
    bare FSR pi at zeta_m = 0 down to 0 as |zeta_m| -> inf; identically
    equal to 2*arctan(1/|zeta_m|).
    """
    zm = _finite("zeta_m", zeta_m)
    return abs(math.atan2(2.0 * zm, zm * zm - 1.0))


def coalescence_threshold(zeta):
    """Middle-element polarizability where the split pair merges.

    zeta_m_star = 2*zeta*sqrt(zeta^2 + 1); same sign as zeta and
    |zeta_m_star| >= 2|zeta|.
    """
    return _two_zeta_root(_finite("zeta", zeta))


class PairPeaks(NamedTuple):
    """Pulled transmission-peak positions of one coalescing pair."""

    k_even: float
    k_odd: float
    gap: float


def peak_positions(zeta, zeta_m, n=1):
    """Transmission-peak positions of the pair near 2*n*pi, with pulling.

    Solves the interference-shifted peak condition

        cos(eps_pm) = [zeta_m (2 zeta^2 + 1)(zeta zeta_m - 1)
                       +- (zeta + zeta_m) sqrt(4 zeta^2 (zeta^2+1) - zeta_m^2)]
                      / [2 zeta (zeta^2+1)(zeta_m^2 + 1)]

    and reports both pair members in the same period,
    ``k_even = 2 n pi - eps_minus`` and ``k_odd = 2 n pi - eps_plus``,
    together with the gap |k_even - k_odd|.  Where zeta_m has the sign
    opposite to zeta and |zeta_m| < 2 |zeta|, the even member lies on
    the other side, ``k_even = 2 n pi + eps_minus``: it crosses 2 n pi at
    zeta_m = -2 zeta, where cos(eps_minus) = 1.  For zeta > 0 the pair
    is the mirror image at ``2 n pi + eps``: at x = 0, T_zeta(2 n pi + u)
    = T_-zeta(2 n pi - u), and the cosines are even in (zeta, zeta_m).
    Raises :class:`AboveThresholdError` when |zeta_m| exceeds the
    coalescence threshold (negative discriminant).
    """
    z = _finite("zeta", zeta)
    zm = _finite("zeta_m", zeta_m)
    if z == 0.0:
        raise InvalidParameterError("zeta = 0 has no cavity resonances")
    if int(n) != n or n < 1:
        raise InvalidParameterError(f"pair index must be an integer >= 1, got {n}")
    disc = 4.0 * z * z * (z * z + 1.0) - zm * zm
    if disc < 0.0:
        # exact-threshold inputs can land at -O(eps); anything beyond is
        # genuinely above threshold
        if disc < -1e-9 * (4.0 * z * z * (z * z + 1.0)):
            raise AboveThresholdError(
                f"|zeta_m| = {abs(zm):g} exceeds the coalescence threshold "
                f"|zeta_m_star| = {abs(coalescence_threshold(z)):g}")
        disc = 0.0
    root = math.sqrt(disc)
    den = 2.0 * z * (z * z + 1.0) * (zm * zm + 1.0)
    base = zm * (2.0 * z * z + 1.0) * (z * zm - 1.0)
    cos_p = (base + (z + zm) * root) / den
    cos_m = (base - (z + zm) * root) / den
    for c in (cos_p, cos_m):
        if abs(c) > 1.0 + 1e-12:
            raise InternalConsistencyError(
                f"cos(eps) = {c!r} outside [-1, 1]; broken branch choice")
    eps_p = math.acos(min(1.0, max(-1.0, cos_p)))
    eps_m = math.acos(min(1.0, max(-1.0, cos_m)))
    period = 2.0 * int(n) * math.pi
    side = math.copysign(1.0, z)
    if z * zm < 0.0 and abs(zm) < 2.0 * abs(z):
        # cos(eps_minus) = 1 at zeta_m = -2 zeta: the even member crosses
        # 2 n pi there and sits on the other side for weaker zeta_m
        return PairPeaks(k_even=period - side * eps_m,
                         k_odd=period + side * eps_p, gap=eps_m + eps_p)
    return PairPeaks(k_even=period + side * eps_m, k_odd=period + side * eps_p,
                     gap=abs(eps_m - eps_p))


def pair_center(zeta, zeta_m, n=1):
    """Midpoint of the pulled pair near 2*n*pi."""
    pair = peak_positions(zeta, zeta_m, n)
    return 0.5 * (pair.k_even + pair.k_odd)


def resonant_transmission(x, zeta_m, k):
    """On-resonance transmission vs middle-element displacement ``x``.

    T_res(x) = 1 / (1 + [zeta_m sin(2 k x)]^2), the large-|zeta| estimate
    of the tracked peak height; ``2 k x`` is the phase 4*pi*x/lambda
    picked up between the displaced element and the cavity center.
    Equals 1 exactly when 2*k*x is a multiple of pi.
    """
    xv = _finite("x", x)
    zm = _finite("zeta_m", zeta_m)
    kv = _finite("k", k)
    if not abs(xv) < 0.25:
        raise InvalidParameterError(f"|x| must be < 1/4, got {xv}")
    if kv <= 0:
        raise InvalidParameterError(f"k must be > 0, got {kv}")
    s = zm * math.sin(2.0 * kv * xv)
    return 1.0 / (1.0 + s * s)


def _lossless_condition(zeta_m, x):
    """2*zeta_m - cot(k*a) - cot(k*b) and its k-slope, a/sin^2 + b/sin^2.

    The slope is positive, so the condition rises through every root
    and has at most one between adjacent poles of the cotangents.
    """
    a = 0.5 + x
    b = 0.5 - x

    def f(k):
        sa, sb = math.sin(k * a), math.sin(k * b)
        return (2.0 * zeta_m - math.cos(k * a) / sa - math.cos(k * b) / sb,
                a / (sa * sa) + b / (sb * sb))

    return f


def lossless_eigenmodes(zeta_m, x, bracket):
    """Eigenmode wavenumber for perfect end mirrors and a delta scatterer.

    Solves cot(k*a) + cot(k*b) = 2*zeta_m with a = 1/2 + x, b = 1/2 - x
    by :func:`newton` to 1e-12, with the analytic slope.  ``bracket``
    must contain exactly one root and no pole of the cotangents; at
    x = 0 the condition reduces to cot(k/2) = zeta_m.
    """
    zm = _finite("zeta_m", zeta_m)
    xv = _finite("x", x)
    if not abs(xv) < 0.5:
        raise InvalidParameterError(f"|x| must be < 1/2, got {xv}")
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise InvalidParameterError(f"bad bracket {bracket!r}")
    f = _lossless_condition(zm, xv)
    root = newton(f, lo, 0.5 * (lo + hi), hi, 1e-12)
    # a sign change across a cotangent pole is not a root; the residual
    # bound scales with the slope at a genuine root, ~ (1 + zeta_m^2)
    if abs(f(root)[0]) > max(1e-6 * (1.0 + 2.0 * abs(zm)),
                             1e-9 * (1.0 + zm * zm)):
        raise NotBracketedError(
            f"bracket [{lo}, {hi}] straddles a pole, not a root")
    return root


def lossless_pair(zeta_m, x, n=1):
    """Both lossless eigenmodes of the coalescing pair near 2*n*pi.

    Returns ``(k_lower, k_upper)``.  At x = 0 the unshifted member sits
    exactly at 2*n*pi (node at the scatterer) and the shifted one
    mode_splitting(zeta_m) below it, or above it for zeta_m > 0.  For
    x != 0 both follow from the transcendental condition, bracketed
    between adjacent cotangent poles within 2 of either x = 0 position:
    the root nearest 2*n*pi and, of the others, the one nearest the
    shifted position.
    """
    zm = _finite("zeta_m", zeta_m)
    xv = _finite("x", x)
    if int(n) != n or n < 1:
        raise InvalidParameterError(f"pair index must be an integer >= 1, got {n}")
    target = 2.0 * int(n) * math.pi
    split = mode_splitting(zm)
    shifted = target + split if zm > 0.0 else target - split
    if abs(xv) < 1e-9:
        return min(target, shifted), max(target, shifted)
    lo_edge, hi_edge = min(target, shifted) - 2.0, max(target, shifted) + 2.0
    # the poles m pi / a and m pi / b of the cotangents between the edges
    poles = sorted({m * math.pi / length for length in (0.5 + xv, 0.5 - xv)
                    for m in range(1, int(hi_edge * length / math.pi) + 1)
                    if m * math.pi / length > lo_edge})
    edges = [lo_edge, *poles, hi_edge]
    pad = 1e-9
    f = _lossless_condition(zm, xv)
    roots = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        lo, hi = lo + pad, hi - pad
        # f rises between poles, so a sign change is a root; signs, not
        # a product f(lo) * f(hi) that can underflow
        if lo < hi and f(lo)[0] < 0.0 < f(hi)[0]:
            roots.append(newton(f, lo, 0.5 * (lo + hi), hi, 1e-12))
    if len(roots) < 2:
        raise NotBracketedError(
            f"could not isolate the eigenmode pair near {target:.6g} "
            f"(found {len(roots)} roots)")
    unshifted = min(roots, key=lambda r: abs(r - target))
    roots.remove(unshifted)
    other = min(roots, key=lambda r: abs(r - shifted))
    return min(unshifted, other), max(unshifted, other)


def multilayer_threshold(zeta, n_layers):
    """Per-element polarizability reaching coalescence with an N-layer stack.

    |zeta_m_star| ~ (zeta^2 / 2^(N-2))^(1/N): a two-layer middle stack
    only needs elements as good as the end mirrors, and the requirement
    keeps dropping with each added layer.
    """
    z = _finite("zeta", zeta)
    if int(n_layers) != n_layers or n_layers < 2:
        raise InvalidParameterError(
            f"layer count must be an integer >= 2, got {n_layers}")
    n = int(n_layers)
    square = z * z
    if not math.isfinite(square):
        raise InvalidParameterError(
            f"zeta = {z!r} is too strong: zeta^2 overflows")
    # (zeta^2 / 2^(n-2))^(1/n) with the power split so 2^(n-2) never
    # overflows for large layer counts
    return square ** (1.0 / n) / 2.0 ** ((n - 2.0) / n)


@dataclass(frozen=True)
class ClosedFormReport:
    """Bundle of the closed forms for one (zeta, zeta_m) configuration.

    ``eps_plus``/``eps_minus``/``pair_gap`` are None above the
    coalescence threshold, where the pulled-peak formula is complex.
    """

    kappa: float
    delta: float
    zeta_m_star: float
    eps_plus: Optional[float]
    eps_minus: Optional[float]
    pair_gap: Optional[float]


def report(zeta, zeta_m, n=1):
    """Evaluate every closed form for (zeta, zeta_m) at pair index n."""
    kappa = bare_linewidth(zeta)
    delta = 0.5 * mode_splitting(zeta_m)
    star = coalescence_threshold(zeta)
    try:
        pair = peak_positions(zeta, zeta_m, n)
        period = 2.0 * int(n) * math.pi
        eps_plus = abs(period - pair.k_odd)
        eps_minus = abs(period - pair.k_even)
        gap = pair.gap
    except AboveThresholdError:
        eps_plus = eps_minus = gap = None
    return ClosedFormReport(kappa=kappa, delta=delta, zeta_m_star=star,
                            eps_plus=eps_plus, eps_minus=eps_minus,
                            pair_gap=gap)
