"""The plain 2x2 transfer matrices the kernel is tested against.

``scatter_matrix`` and ``propagation_matrix`` build the factors of a
chain explicitly; ``system_matrix`` and ``stack_matrix`` expand the
kernel's (a, b) pair into the full [[a, b], [b*, a*]] matrix, so tests
can compare it with the multiplied-out product.
"""

from typing import Sequence

import numpy as np

from coalesce import core_scatter
from coalesce.core_scatter import CavitySystem
from coalesce.errors import InvalidParameterError, finite as _finite


def scatter_matrix(zeta):
    """Transfer matrix of a lossless zero-thickness scatterer.

    M = [[1 + i*zeta, i*zeta], [-i*zeta, 1 - i*zeta]], which has det = 1
    and reproduces |r|^2 = zeta^2/(1 + zeta^2) for a single element.
    ``zeta = 0`` gives the identity (transparent element).
    """
    z = _finite("zeta", zeta)
    return np.array([[1.0 + 1j * z, 1j * z],
                     [-1j * z, 1.0 - 1j * z]])


def propagation_matrix(k, d):
    """Free propagation over a distance ``d``: diag(e^{ikd}, e^{-ikd}).

    ``k`` may be a scalar or an array; the result has shape
    ``k.shape + (2, 2)``.
    """
    d = _finite("d", d)
    if d < 0:
        raise InvalidParameterError(f"propagation distance must be >= 0, got {d}")
    karr = np.asarray(k, dtype=float)
    if not np.all(np.isfinite(karr)) or not np.all(karr > 0):
        raise InvalidParameterError("wavenumber k must be finite and > 0")
    phase = np.exp(1j * karr * d)
    out = np.zeros(karr.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = phase
    out[..., 1, 1] = np.conj(phase)
    return out if karr.shape else out.reshape(2, 2)


def _matrix(a, b):
    """Stack (a, b) into [[a, b], [b*, a*]] along the trailing two axes."""
    m = np.array([[a, b], [np.conj(b), np.conj(a)]], dtype=complex)
    return np.moveaxis(m, (0, 1), (-2, -1))


def system_matrix(system: CavitySystem, k):
    """Ordered transfer matrix of the full cavity at wavenumber ``k``.

    Product (right to left): end mirror, propagation to the last element,
    the interior elements with their gaps, propagation from the left
    mirror, end mirror.
    """
    return _matrix(*core_scatter._compose(system.zeta_end, system._hops,
                                           core_scatter._check_k(k)))


def stack_matrix(elements: Sequence, k):
    """Transfer matrix of a bare stack (no end mirrors, no outer gaps).

    ``elements`` is a sequence of ``(position, polarizability)`` pairs
    with strictly increasing positions; only the gaps between elements
    enter.  The elements are checked as ``effective_polarizability``
    checks them.
    """
    els = list(core_scatter._elements(elements, "zeta"))
    if not els:
        raise InvalidParameterError("stack needs at least one element")
    return _matrix(*core_scatter._compose(els[0][1], core_scatter._hops(els),
                                           core_scatter._check_k(k)))
