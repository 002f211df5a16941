"""Transfer matrices for thin scatterers and free propagation.

Everything works in units c = 1, L = 1: wavenumber and angular frequency
coincide, the cavity spans [0, 1], and a lossless thin scatterer is
described by a single real polarizability ``zeta`` (negative for the
mirrors used throughout).  A 2x2 complex transfer matrix relates the
right- and left-moving field amplitudes on the two sides of an element,

    [a_right, b_right]^T = M [a_left, b_left]^T,

so that a full system matrix is the ordered product of its element and
propagation matrices.  With input from the left the amplitude
transmission and reflection are

    t = 1 / m22,        r = -m21 / m22,

and a single scatterer has |t|^2 = 1/(1 + zeta^2),
|r|^2 = zeta^2/(1 + zeta^2).

Every such matrix is unimodular (det = 1) and carries the lossless
structure m11 = conj(m22), m12 = conj(m21), which implies
|m22|^2 = 1 + |m21|^2 exactly.  Products are therefore carried as the
pair (a, b) = (m11, m12) alone, as Python complex numbers for a scalar
wavenumber and numpy arrays otherwise.  :func:`transmission` exploits the
identity and evaluates T = 1/(1 + |m21|^2), equal to 1/|m22|^2 but
accurate (and <= 1) where that would cancel between large entries, in
blocks of ``_BLOCK`` wavenumbers that bound the temporaries and change
no bit.  :func:`s_derivatives` adds the first two k-derivatives.

A grid of wavenumbers is evaluated point by point on the scalar kernel
when it is a list of floats, and on numpy otherwise.  :func:`grid`
chooses between the two from the grid's size alone (``SCALAR_GRID_WORK``),
so short grids never import numpy.

Every function is pure; systems are immutable.  For array wavenumbers,
(a, b) are arrays of the wavenumbers' shape.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from typing import Sequence

from .errors import InvalidParameterError, finite as _finite

_BLOCK = 16384   # array wavenumbers per block of the bulk kernel
# The largest grid, in kernel work (points x hops per point), that
# :func:`grid` leaves to the scalar kernel.  Measured on a 2-core Xeon
# (Python 3.11, numpy 2.4): the scalar kernel takes about 0.5 us a point
# plus 0.75 us a hop, numpy's 0.05 us a point once loaded, and loading
# numpy 0.08 s with the one OpenBLAS thread a CLI process asks for
# (0.15 s with the default pool).  The costliest grid at the bound,
# 65536 points of one hop, takes 0.08-0.10 s on the scalar kernel: about
# the import it saves a fresh process, and 0.08 s more than numpy in a
# process that has loaded it.  The search windows (a few hundred points)
# and fig1 (2001 points x 2 hops) lie far below it.
SCALAR_GRID_WORK = 65536

__all__ = [
    "CavitySystem",
    "SCALAR_GRID_WORK",
    "linspace",
    "grid",
    "transmission",
    "s_derivatives",
    "reflection_amplitude",
    "effective_polarizability",
    "maximize_stack_polarizability",
]


@dataclass(frozen=True)
class CavitySystem:
    """A symmetric cavity of unit length with interior thin scatterers.

    ``zeta_end`` is the polarizability of both end mirrors (at 0 and 1);
    ``elements`` is an ordered tuple of ``(position, polarizability)``
    pairs with positions strictly increasing and strictly inside (0, 1).
    """

    zeta_end: float
    elements: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "zeta_end",
                           _finite("zeta_end", self.zeta_end))
        els, hops = [], []
        prev = 0.0
        for item in self.elements:
            pos, zeta = item
            pos = _finite("element position", pos)
            zeta = _finite("element polarizability", zeta)
            if not 0.0 < pos < 1.0:
                raise InvalidParameterError(
                    f"element position {pos} not strictly inside (0, 1)")
            if pos <= prev:
                raise InvalidParameterError(
                    "element positions must be strictly increasing")
            hops.append((pos - prev, zeta))
            prev = pos
            els.append((pos, zeta))
        hops.append((1.0 - prev, self.zeta_end))   # (gap, zeta) steps
        object.__setattr__(self, "elements", tuple(els))
        object.__setattr__(self, "_hops", tuple(hops))

    @classmethod
    def empty(cls, zeta_end):
        """Bare two-mirror cavity."""
        return cls(zeta_end=zeta_end)

    @classmethod
    def with_middle(cls, zeta_end, zeta_m, displacement=0.0):
        """Cavity with a single reflector at 1/2 + displacement."""
        x = _finite("displacement", displacement)
        if not abs(x) < 0.5:
            raise InvalidParameterError(
                f"|displacement| must be < 1/2, got {x}")
        return cls(zeta_end=zeta_end, elements=((0.5 + x, zeta_m),))


def linspace(start, stop, num):
    """``num`` evenly spaced floats from ``start`` to ``stop``, as a list.

    Bit for bit the values of ``numpy.linspace(start, stop, num)``:
    start + i*step with step = (stop - start)/(num - 1), the last point
    set to ``stop``; where step underflows to 0, start + (i/(num - 1))
    * (stop - start).  Raises :class:`InvalidParameterError` for
    num < 0.
    """
    start, stop, num = float(start), float(stop), operator.index(num)
    if num < 0:
        raise InvalidParameterError(f"need num >= 0 points, got {num}")
    delta = stop - start
    div = num - 1
    if div <= 0:
        return [i * delta + start for i in range(num)]
    step = delta / div
    if step == 0.0:
        values = [i / div * delta + start for i in range(num)]
    else:
        values = [i * step + start for i in range(num)]
    values[-1] = stop
    return values


def grid(start, stop, num, hops):
    """The wavenumbers ``linspace(start, stop, num)`` for ``hops`` hops.

    A list of floats, which :func:`transmission` evaluates point by point
    on the scalar kernel, when the grid's work num * hops is at most
    ``SCALAR_GRID_WORK``; else a numpy array of the same values.  The
    choice depends on the size alone, so a call always returns the same
    bits.
    """
    if num * hops <= SCALAR_GRID_WORK:
        return linspace(start, stop, num)
    import numpy as np

    return np.linspace(start, stop, num)


def _check_k(k):
    """Validated wavenumber: a float for scalar input, else a float array.

    A float k takes no numpy.
    """
    if not isinstance(k, float):
        import numpy as np

        if np.ndim(k):
            k = np.asarray(k, dtype=float)
            if not np.all((0.0 < k) & (k < math.inf)):
                raise InvalidParameterError(
                    "wavenumber k must be finite and > 0")
            return k
    k = float(k)
    if not 0.0 < k < math.inf:
        raise InvalidParameterError("wavenumber k must be finite and > 0")
    return k


def _compose(zeta_first, hops, k):
    """Entries (a, b) of the lossless product [[a, b], [b*, a*]].

    Starts from the scatterer ``zeta_first`` and applies each hop
    ``(d, zeta)``: propagate by ``d``, then scatter by ``zeta``.  A float
    ``k`` runs on Python complex numbers, an array ``k`` on five buffers
    of its shape.  numpy's complex product does not commute bit for bit,
    and rounds otherwise on one point written over an operand, so each
    product keeps its operand order and goes to a free buffer.
    Consecutive equal gaps reuse their phase factor.
    """
    a, b = 1.0 + 1j * zeta_first, 1j * zeta_first
    d_prev, exp = None, cmath.exp
    if isinstance(k, float):
        for d, zeta in hops:
            if d != d_prev:
                e, d_prev = exp(1j * (k * d)), d
            a, b = e * a, e * b
            u = a + b.conjugate()
            a, b = a + 1j * zeta * u, b + 1j * zeta * u.conjugate()
        return a, b
    import numpy as np

    a, b = np.full(k.shape, a), np.full(k.shape, b)
    e, u, t = (np.empty(k.shape, complex) for _ in range(3))
    for d, zeta in hops:
        if d != d_prev:
            e, d_prev = np.exp(np.multiply(1j, k * d, out=t), out=e), d
        a, t = np.multiply(e, a, out=t), a
        b, t = np.multiply(e, b, out=t), b
        np.add(a, np.conjugate(b, out=u), out=u)
        a += np.multiply(1j * zeta, u, out=t)
        b += np.multiply(1j * zeta, np.conjugate(u, out=u), out=t)
    return a, b


def _system_ab(system, k):
    return _compose(system.zeta_end, system._hops, _check_k(k))


def _stack_ab(elements, k):
    els = [(_finite("element position", pos),
            _finite("zeta", zeta)) for pos, zeta in elements]
    if not els:
        raise InvalidParameterError("stack needs at least one element")
    if any(q <= p for (p, _), (q, _) in zip(els, els[1:])):
        raise InvalidParameterError(
            "element positions must be strictly increasing")
    hops = [(q - p, zeta) for (p, _), (q, zeta) in zip(els, els[1:])]
    return _compose(els[0][1], hops, _check_k(k))


def transmission(system: CavitySystem, k):
    """Intensity transmission T(k) = 1/|m22|^2 of the system.

    Evaluated as 1/(1 + |m21|^2) via the lossless identity
    |m22|^2 = 1 + |m21|^2, so the result never exceeds 1.  A float k
    gives a float, a list of wavenumbers a list of floats (each the
    float its k gives) and an array an array of its shape.
    """
    if isinstance(k, list):
        zeta, hops, out = system.zeta_end, system._hops, []
        for v in k:
            _, b = _compose(zeta, hops, _check_k(float(v)))
            out.append(1.0 / (1.0 + (b.real * b.real + b.imag * b.imag)))
        return out
    k = _check_k(k)
    if isinstance(k, float):
        _, b = _compose(system.zeta_end, system._hops, k)
        return 1.0 / (1.0 + (b.real * b.real + b.imag * b.imag))
    import numpy as np

    ks, out = k.ravel(), np.empty(k.size)
    for i in range(0, k.size, _BLOCK):   # k was checked once, above
        _, b = _compose(system.zeta_end, system._hops, ks[i:i + _BLOCK])
        out[i:i + _BLOCK] = 1.0 / (1.0 + (b.real * b.real + b.imag * b.imag))
    return out.reshape(k.shape)


def s_derivatives(system: CavitySystem, k):
    """(s, ds/dk, d2s/dk2) for s = |m21|^2 = 1/T - 1 at a scalar k.

    Carries (a, b) of :func:`_compose` with its first two k-derivatives:
    a hop by d brings e = e^{ikd}, e' = i d e and e'' = -d^2 e in by the
    product rule, and a scatterer acts linearly on each order.  s is
    bit-identical to the one :func:`transmission` inverts.
    """
    k = _check_k(k)
    if not isinstance(k, float):
        raise InvalidParameterError("s_derivatives takes a scalar k")
    a, b = 1.0 + 1j * system.zeta_end, 1j * system.zeta_end
    a1 = b1 = a2 = b2 = 0j
    for d, zeta in system._hops:
        e = cmath.exp(1j * (k * d))
        e1, e2 = 1j * d * e, -d * d * e
        a, a1, a2 = e * a, e1 * a + e * a1, e2 * a + 2.0 * e1 * a1 + e * a2
        b, b1, b2 = e * b, e1 * b + e * b1, e2 * b + 2.0 * e1 * b1 + e * b2
        u, u1, u2 = a + b.conjugate(), a1 + b1.conjugate(), a2 + b2.conjugate()
        a, a1, a2 = a + 1j * zeta * u, a1 + 1j * zeta * u1, a2 + 1j * zeta * u2
        b, b1, b2 = (b + 1j * zeta * u.conjugate(),
                     b1 + 1j * zeta * u1.conjugate(),
                     b2 + 1j * zeta * u2.conjugate())
    bc = b.conjugate()
    return (b.real * b.real + b.imag * b.imag, 2.0 * (bc * b1).real,
            2.0 * ((b1.real * b1.real + b1.imag * b1.imag) + (bc * b2).real))


def reflection_amplitude(system: CavitySystem, k):
    """Amplitude reflection r(k) = -m21/m22 for input from the left.

    Satisfies |r|^2 + T = 1 for every lossless system.
    """
    a, b = _system_ab(system, k)
    return -b.conjugate() / a.conjugate()


def effective_polarizability(elements: Sequence, k):
    """Collective polarizability |r/t| of a bare stack at wavenumber ``k``.

    For the transfer-matrix convention used here r/t = -m21, so this is
    |m21| of the stack.  For a single element it equals |zeta| exactly,
    independent of ``k``.  A perfectly reflecting stack (t = 0) would be
    reported as ``inf``; it is unreachable for finite polarizabilities.
    A float ``k`` gives a float and takes no numpy.
    """
    _, b = _stack_ab(elements, k)
    if isinstance(b, complex):
        val = abs(b)
        return val if math.isfinite(val) else math.inf
    import numpy as np

    val = np.abs(b)
    val = np.where(np.isfinite(val), val, np.inf)
    return float(val) if np.ndim(k) == 0 else val


def maximize_stack_polarizability(zeta, n_elements, k=2.0 * math.pi):
    """The uniform spacing maximizing the stack's |r/t|, and that maximum.

    ``n_elements`` identical scatterers of polarizability ``zeta`` at a
    common spacing ``d`` reflect most at the centre of their stop band,
    the phase k*d = pi - (atan(zeta) mod pi), where |r/t| = sinh(N
    asinh|zeta|).  Returns ``(zeta_eff, spacing)``: |r/t| evaluated by the
    kernel at that phase, and the spacing in (0, pi/k]; a |r/t| that
    overflows counts as ``inf``, as in :func:`effective_polarizability`.
    For one element the spacing is irrelevant and (|zeta|, 0.0) is
    returned.  Raises :class:`InvalidParameterError` unless ``zeta`` is
    finite, ``k`` is finite and > 0, and ``n_elements`` is an integer
    >= 1.
    """
    z = _finite("zeta", zeta)
    k = _check_k(float(k))
    try:
        n = operator.index(n_elements)
    except TypeError:
        raise InvalidParameterError(
            f"n_elements must be an integer, got {n_elements!r}") from None
    if n < 1:
        raise InvalidParameterError("n_elements must be >= 1")
    if n == 1:
        return abs(z), 0.0
    # atan(-zeta) rather than pi - (atan(zeta) mod pi) keeps a weak
    # negative element's phase from rounding to 0
    phase = math.pi - math.atan(z) if z >= 0 else math.atan(-z)
    # unit hops at the wavenumber k*d carry the phase e^{ikd}
    val = abs(_compose(z, [(1.0, z)] * (n - 1), phase)[1])
    return (val if math.isfinite(val) else math.inf), phase / k
