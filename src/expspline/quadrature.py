"""Adaptive Gauss-Legendre quadrature.

Panels are refined by bisecting whichever panel currently carries the largest
error estimate, where the estimate for a panel is the difference between one
15-point rule over the whole panel and the same rule applied to its two
halves.  Integrands must accept numpy arrays.
"""

import heapq

import numpy as np

# The 15-point Gauss-Legendre rule on [-1, 1], bit-equal to numpy's
# leggauss(15): the nodes in [0, 1) with their weights, mirrored below to
# the negative nodes.  As literals they cost no eigen-solve and no import
# of numpy.polynomial.
_GL_HALF = np.array([
    (0.0, 0.2025782419255613),
    (0.20119409399743451, 0.1984314853271116),
    (0.3941513470775634, 0.1861610000155622),
    (0.5709721726085388, 0.16626920581699398),
    (0.7244177313601701, 0.13957067792615444),
    (0.8482065834104272, 0.10715922046717141),
    (0.9372733924007058, 0.0703660474881084),
    (0.9879925180204854, 0.030753241996117203)])
_GL_NODES = np.concatenate([-_GL_HALF[:0:-1, 0], _GL_HALF[:, 0]])
_GL_WEIGHTS = np.concatenate([_GL_HALF[:0:-1, 1], _GL_HALF[:, 1]])

# Most panels integrate refines to before it gives up.
_MAX_PANELS = 2 ** 14


class QuadratureError(RuntimeError):
    """Raised when the panel budget is exhausted before the tolerance is met."""


def _panel_rule(f, a, b):
    """One 15-point Gauss-Legendre pass over [a, b]."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    return h * float(np.dot(_GL_WEIGHTS, f(c + h * _GL_NODES)))


def _panel(f, a, b):
    """Refined value and error estimate for a single panel."""
    coarse = _panel_rule(f, a, b)
    mid = 0.5 * (a + b)
    fine = _panel_rule(f, a, mid) + _panel_rule(f, mid, b)
    if not np.isfinite(fine) or not np.isfinite(coarse):
        raise QuadratureError(
            f"integrand produced non-finite values on [{a}, {b}]")
    return fine, abs(fine - coarse)


def integrate(f, a, b, breakpoints=(), abs_tol=1e-11, rel_tol=1e-10):
    """Integrate f over [a, b], returning (value, error_estimate).

    breakpoints lists interior abscissae where the integrand may lose
    smoothness; initial panels are aligned with them.  The estimate assumes
    a smooth integrand in each panel and is no upper bound across a kink:
    a hat flank times |t - 0.53| on [0.4, 0.8] reads 8.5e-12 against an
    actual error of 1.6e-11.  So a caller that knows such points passes
    them as breakpoints.  Raises QuadratureError if _MAX_PANELS subdivisions
    do not reach the requested tolerance.
    """
    if not np.isfinite(a) or not np.isfinite(b):
        raise ValueError("integration endpoints must be finite")
    if a == b:
        return 0.0, 0.0
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0

    cuts = [a]
    for x in sorted(set(float(c) for c in breakpoints)):
        if a < x < b:
            cuts.append(x)
    cuts.append(b)

    heap = []
    serial = 0
    total = 0.0
    total_err = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        val, err = _panel(f, lo, hi)
        heapq.heappush(heap, (-err, serial, lo, hi, val))
        total += val
        total_err += err
        serial += 1

    n_panels = len(heap)
    while total_err > max(abs_tol, rel_tol * abs(total)):
        if n_panels >= _MAX_PANELS:
            raise QuadratureError(
                f"no convergence after {n_panels} panels: "
                f"error estimate {total_err:.3e} for integral {total:.6e}")
        neg_err, _, lo, hi, old_val = heapq.heappop(heap)
        total -= old_val
        total_err += neg_err
        mid = 0.5 * (lo + hi)
        for piece in ((lo, mid), (mid, hi)):
            val, err = _panel(f, *piece)
            heapq.heappush(heap, (-err, serial, piece[0], piece[1], val))
            total += val
            total_err += err
            serial += 1
        n_panels += 1
    return sign * total, total_err
