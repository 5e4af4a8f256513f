"""Independent high-precision oracles shared by the test modules.

Everything here is deliberately implemented from first principles (divided
difference tables, mpmath and QUADPACK quadrature, sign counts of samples)
rather than through the package under test, so agreement between the two
routes is meaningful.
"""

import math

import mpmath as mp
import numpy as np
from scipy.integrate import quad

mp.mp.dps = 50


def mp_phi(nodes, t):
    """Divided difference of z -> exp(z*t) over the given nodes.

    Coincident nodes are handled through the confluent rule
    f[x,...,x] = f^(m)(x)/m!, with d^m/dz^m exp(z*t) = t^m exp(z*t).
    Returns an mpf.
    """
    t = mp.mpf(t)
    xs = sorted(mp.mpf(x) for x in nodes)
    col = [mp.e ** (x * t) for x in xs]
    n = len(xs)
    for j in range(1, n):
        nxt = []
        for i in range(n - j):
            if xs[i + j] == xs[i]:
                nxt.append(t ** j * mp.e ** (xs[i] * t) / mp.factorial(j))
            else:
                nxt.append((col[i + 1] - col[i]) / (xs[i + j] - xs[i]))
        col = nxt
    return col[0]


def mp_phi_pair(lam0, lam1, t):
    """Two-node fundamental function, convenience wrapper."""
    return mp_phi((lam0, lam1), t)


def mp_weighted_integral(f, a, b):
    """mpmath quadrature over [a, b] of a callable built from mpf arithmetic."""
    return mp.quad(f, [mp.mpf(a), mp.mpf(b)])


def inner_product_p(f, g, p, a, b, breakpoints=()):
    """Weighted inner product int_a^b f(t) g(t) exp(p t) dt by QUADPACK's
    adaptive quadrature, split at the breakpoints inside (a, b); f and g
    must accept arrays."""

    def integrand(t):
        ts = np.array([t])
        return float(f(ts)[0] * g(ts)[0]) * math.exp(p * t)

    points = [x for x in breakpoints if a < x < b]
    val, _ = quad(integrand, a, b, points=points or None, epsabs=1e-13,
                  epsrel=1e-12, limit=200)
    return val


def mp_omega(lam0, lam1, a, b, t):
    """Reference solution of L omega = -1 with omega(a) = omega(b) = 0.

    Solves the two-point boundary problem directly: a particular solution of
    (D - lam0)(D - lam1) u = -1 plus the kernel span of exp(lam0 .) and the
    fundamental pair, with coefficients from a 2x2 solve in mpmath precision.
    The kernel terms reach exp((|lam0| + |lam1|) |b - a|) and cancel down to
    omega, so the work runs with that many more decimal digits than 50.
    """
    load = (abs(lam0) + abs(lam1)) * abs(b - a)
    with mp.workdps(50 + math.ceil(float(load) / math.log(10))):
        lam0, lam1 = mp.mpf(lam0), mp.mpf(lam1)
        a, b, t = mp.mpf(a), mp.mpf(b), mp.mpf(t)
        if lam0 != 0 and lam1 != 0:
            u = lambda x: mp.mpf(-1) / (lam0 * lam1)
        elif lam0 == 0 and lam1 == 0:
            u = lambda x: -(x - a) ** 2 / 2
        else:
            lam = lam0 if lam0 != 0 else lam1
            u = lambda x: (x - a) / lam
        k1 = lambda x: mp.e ** (lam0 * (x - a))
        k2 = lambda x: mp_phi((lam0, lam1), x - a)
        m = mp.matrix([[k1(a), k2(a)], [k1(b), k2(b)]])
        rhs = mp.matrix([-u(a), -u(b)])
        sol = mp.lu_solve(m, rhs)
        return u(t) + sol[0] * k1(t) + sol[1] * k2(t)


def _mp_interval_terms(quad):
    """Raw monomial-exponential basis of one interval: for each frequency,
    counted with multiplicity r, the function tau^r exp(mu tau) as a term
    list [(coef, power, mu)]."""
    nodes = sorted(mp.mpf(x) for x in quad)
    funcs = []
    mult = {}
    for mu in nodes:
        r = mult.get(mu, 0)
        mult[mu] = r + 1
        funcs.append([(mp.mpf(1), r, mu)])
    return funcs


def _mp_terms_diff(terms):
    out = []
    for c, r, mu in terms:
        if r > 0:
            out.append((c * r, r - 1, mu))
        out.append((c * mu, r, mu))
    return out


def _mp_terms_eval(terms, tau):
    tau = mp.mpf(tau)
    return mp.fsum(c * tau ** r * mp.e ** (mu * tau) for c, r, mu in terms)


def mp_interp4(knots, quads, values, d_left, d_right):
    """Clamped order-4 interpolant via a dense extended-precision solve in
    the raw exponential basis; returns eval(t, order).

    The basis reaches exp(max|lambda| h) on an interval of length h and the
    solution cancels it twice over, so the solve and every evaluation run
    with that many more decimal digits than 50, twice.
    """
    load = max(abs(x) for q in quads for x in q) \
        * max(b - a for a, b in zip(knots[:-1], knots[1:]))
    digits = 50 + math.ceil(2.0 * float(load) / math.log(10))
    with mp.workdps(digits):
        knots = [mp.mpf(x) for x in knots]
        m = len(knots) - 1
        basis = []
        for j in range(m):
            d0 = _mp_interval_terms(quads[j])
            d1 = [_mp_terms_diff(f) for f in d0]
            d2 = [_mp_terms_diff(f) for f in d1]
            basis.append((d0, d1, d2))
        nuk = 4 * m
        a = mp.zeros(nuk, nuk)
        rhs = mp.zeros(nuk, 1)

        def put(r, j, deriv, tau, sign=1):
            for k in range(4):
                a[r, 4 * j + k] += sign * _mp_terms_eval(basis[j][deriv][k],
                                                         tau)

        put(0, 0, 0, 0)
        rhs[0] = mp.mpf(values[0])
        put(1, 0, 1, 0)
        rhs[1] = mp.mpf(d_left)
        for i in range(1, m):
            h = knots[i] - knots[i - 1]
            r = 4 * i - 2
            put(r, i - 1, 0, h)
            rhs[r] = mp.mpf(values[i])
            put(r + 1, i - 1, 1, h)
            put(r + 1, i, 1, 0, sign=-1)
            put(r + 2, i - 1, 2, h)
            put(r + 2, i, 2, 0, sign=-1)
            put(r + 3, i, 0, 0)
            rhs[r + 3] = mp.mpf(values[i])
        h = knots[m] - knots[m - 1]
        put(nuk - 2, m - 1, 0, h)
        rhs[nuk - 2] = mp.mpf(values[m])
        put(nuk - 1, m - 1, 1, h)
        rhs[nuk - 1] = mp.mpf(d_right)
        coef = mp.lu_solve(a, rhs)

    def evaluate(t, order=0):
        with mp.workdps(digits):
            t = mp.mpf(t)
            j = 0
            while j < m - 1 and t >= knots[j + 1]:
                j += 1
            tau = t - knots[j]
            terms = basis[j][order]
            return +mp.fsum(coef[4 * j + k] * _mp_terms_eval(terms[k], tau)
                            for k in range(4))

    return evaluate


def count_sign_changes(f, a, b, samples=2048):
    """Count strict sign alternations of f on a uniform grid of [a, b].

    Samples below 1e-12 of the grid maximum are treated as zero and skipped,
    so tangencies do not register as double changes.
    """
    if not b > a:
        raise ValueError("need a < b")
    if samples < 2:
        raise ValueError("need at least two samples")
    vals = np.asarray(f(np.linspace(a, b, int(samples))), dtype=float)
    scale = np.max(np.abs(vals))
    if scale == 0.0:
        return 0
    signs = np.sign(vals)
    signs[np.abs(vals) <= 1e-12 * scale] = 0
    live = signs[signs != 0]
    return int(np.count_nonzero(live[1:] != live[:-1]))
