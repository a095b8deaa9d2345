"""Scale functions of the surplus process and the refracted scale function.

For both supported models the q-scale function restricted to ``x >= 0`` is a
difference of two exponentials, and so is the refracted scale function
``w(x; -z)`` of the level-0 refracted process for a start pushed ``z`` below
the refraction level.  Both are the :class:`~parisian_impulse.models.ExponentialPair`
of :mod:`models`, imported here too; the refracted coefficients come out of a
partial-fraction identity and avoid the catastrophic cancellation the naive
two-product evaluation suffers from.  A float read keeps them and their edge per
(coefficient set, depth) in a ``SPEC_CACHE_SIZE`` cache keyed by a weak reference.
"""
from __future__ import annotations

import weakref
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .models import SPEC_CACHE_SIZE, ArrayLike, CoefficientSet, ExponentialPair, _edge, _match


class ScaleFunction:
    """q-scale function of a spectrally negative Levy process.

    ``value`` is the scale function itself (0 on ``x < 0``), ``derivative``
    its right derivative, and ``second_scale`` the companion
    ``1 + q * int_0^x value(y) dy``.
    """

    def __init__(self, pair: ExponentialPair, q: float):
        self.pair = pair
        self.q = q

    def value(self, x: ArrayLike) -> ArrayLike:
        xx = np.asarray(x, dtype=float)
        out = np.where(xx < 0.0, 0.0, self.pair.value(np.maximum(xx, 0.0)))
        return _match(out)

    def derivative(self, x: ArrayLike) -> ArrayLike:
        """Right derivative; 0 on ``x < 0``, the 0+ limit at 0."""
        xx = np.asarray(x, dtype=float)
        out = np.where(xx < 0.0, 0.0, self.pair.derivative(np.maximum(xx, 0.0)))
        return _match(out)

    def second_scale(self, x: ArrayLike) -> ArrayLike:
        """``1 + q * int_0^x value(y) dy``; identically 1 on ``x <= 0``."""
        xx = np.asarray(x, dtype=float)
        out = np.where(
            xx < 0.0, 1.0, 1.0 + self.q * self.pair.integral_from_zero(np.maximum(xx, 0.0))
        )
        return _match(out)


def refracted_pair(cs: CoefficientSet, depth: ArrayLike) -> ExponentialPair:
    """Two-exponential form of ``w(x; -depth)`` on ``x >= 0``.

    Partial fractions against the refracted-process exponent kill the
    surplus-rate exponentials in the convolution exactly, leaving only the
    refracted rates.  The resulting coefficients are sums of same-sign terms
    for the growing part, so the evaluation stays cancellation-free.  An
    array of depths gives arrays ``a`` and ``b``, one entry per depth; a float
    depth gives floats; a depth past the surplus pair's edge raises.
    """
    array = isinstance(depth, np.ndarray)
    if not (bool((depth >= 0.0).all()) if array else depth >= 0.0):  # NaN included
        raise DomainError(f"depth must be nonnegative, got {depth}")
    Y = cs.refracted
    return ExponentialPair(*_refracted_weights(cs, depth if array else float(depth)), Y.kp, Y.km)


def _refracted_weights(cs: CoefficientSet, depth: ArrayLike) -> tuple[ArrayLike, ArrayLike]:
    """``(a, b)`` of ``w(x; -depth)`` at a checked array or Python float depth."""
    X, Y, delta = cs.surplus, cs.refracted, cs.spec.delta
    array = isinstance(depth, np.ndarray)
    if array or not depth <= X.edge:  # a float depth comes here only to raise
        X._read(depth, X.edge)
    # np.exp on a float equals its array result bit for bit; math.exp may not
    e_p, e_m = np.exp(X.kp * depth), np.exp(X.km * depth)
    if not array:
        e_p, e_m = float(e_p), float(e_m)
    tp, tm = X.akp * e_p, X.bkm * e_m
    return (-delta * Y.a * (tp / (X.kp - Y.kp) - tm / (X.km - Y.kp)),
            -delta * Y.b * (tp / (X.kp - Y.km) - tm / (X.km - Y.km)))


def refracted_scale(cs: CoefficientSet, x: ArrayLike, depth: ArrayLike) -> ArrayLike:
    """``w(x; -depth)``: scale function of the refracted exit problem when the
    start sits ``depth`` below the refraction level 0.

    Equals the plain surplus scale function at ``x + depth`` for ``x < 0``
    and switches to the refracted two-exponential form above 0 (continuously).
    Either argument may be an array (the window integral's depths, eval's
    ``x``): each branch is read on its own points only.  A float ``x`` at a
    float depth reads the refracted weights and their ``_edge``, cached per (coefficient
    set, depth), without building a pair: bit for bit :meth:`ExponentialPair.at` and
    the array; a read past a pair's edge raises ``OverflowRangeError``.
    """
    array = isinstance(depth, np.ndarray)  # the window integral's depths
    if not (bool((depth >= 0.0).all()) if array else depth >= 0.0):  # NaN included
        raise DomainError(f"depth must be nonnegative, got {depth}")
    if array or isinstance(x, np.ndarray):
        xs, zs = np.broadcast_arrays(np.asarray(x, dtype=float), depth)
        w, neg = np.empty(xs.shape), xs < 0.0
        if neg.any():
            w[neg] = ScaleFunction(cs.surplus, cs.spec.q).value(xs[neg] + zs[neg])
        if not neg.all():  # NaN goes to the refracted pair
            w[~neg] = refracted_pair(cs, zs[~neg]).value(xs[~neg])
        return w
    x, depth = float(x), float(depth)
    if x < 0.0:
        return 0.0 if x + depth < 0.0 else cs.surplus.at(x + depth)[0]
    (a, b, edge), Y = _refracted_terms(weakref.ref(cs), depth), cs.refracted
    if not x <= edge:  # NaN too: the pair raises its own error
        return ExponentialPair(a, b, Y.kp, Y.km).at(x)[0]
    return a * float(np.exp(Y.kp * x)) - b * float(np.exp(Y.km * x))  # at(x)[0], unbuilt


@lru_cache(maxsize=SPEC_CACHE_SIZE)
def _refracted_terms(cs_ref: weakref.ref, depth: float) -> tuple[float, float, float]:
    """``(a, b, edge)`` of ``w(x; -depth)`` at a checked float depth; errors are not kept.
    Keyed by a weak reference: the cache keeps no ``CoefficientSet`` alive."""
    cs = cs_ref()
    (a, b), Y = _refracted_weights(cs, depth), cs.refracted
    return a, b, _edge(a, b, Y.kp, Y.end, Y.kp2, Y.km2)
