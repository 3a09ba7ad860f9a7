"""Floating-point cross-checks, independent of the exact series pipeline.

Theta constants are evaluated directly from the defining lattice sum at
sampled points of H_Delta; Rosenhain values and candidate component
polynomials are then checked numerically against the exact results.
"""

import cmath
import math
import random
from dataclasses import dataclass

from .poly import eval_complex
from .theta import ThetaChar, humbert_params, restricted_theta


class NonConvergent(ArithmeticError):
    """Im(tau) is not numerically positive definite."""


class NearVanishingDenominator(ArithmeticError):
    """Sampled point too close to a degenerate locus; resample."""


class SamplingExhausted(RuntimeError):
    pass


@dataclass(frozen=True)
class SiegelPoint:
    tau1: complex
    tau2: complex
    tau3: complex

    def im_matrix(self):
        return ((self.tau1.imag, self.tau2.imag),
                (self.tau2.imag, self.tau3.imag))

    def min_im_eigenvalue(self):
        (a, b), (_, c) = self.im_matrix()
        disc = math.sqrt(((a - c) / 2) ** 2 + b * b)
        return (a + c) / 2 - disc

    def is_valid(self):
        (a, b), (_, c) = self.im_matrix()
        return a > 0 and a * c - b * b > 0


def theta_direct(point, char, tol=1e-12):
    """The lattice sum for theta_{abcd}(tau) truncated to a Gaussian tail
    below tol, summed in a deterministic spiral (by max-norm shell)."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    lam = point.min_im_eigenvalue()
    if lam <= 0 or not point.is_valid():
        raise NonConvergent("Im(tau) is not positive definite")
    # |term| <= exp(-pi * lam * |x + m'/2|^2); pad the box generously
    bound = math.sqrt((math.log(1.0 / tol) + 10.0) / (math.pi * lam))
    b_max = int(math.ceil(bound)) + 2
    a, b = char.a, char.b
    c, d = char.c, char.d
    t1, t2, t3 = point.tau1, point.tau2, point.tau3
    total = 0j
    for shell in range(b_max + 1):
        pts = _shell(shell)
        for x1, x2 in pts:
            y1 = x1 + a / 2.0
            y2 = x2 + b / 2.0
            quad = t1 * y1 * y1 + 2.0 * t2 * y1 * y2 + t3 * y2 * y2
            lin = y1 * c / 2.0 + y2 * d / 2.0
            total += cmath.exp(2j * math.pi * (0.5 * quad + lin))
    return total


def _shell(r):
    """Lattice points with max-norm exactly r, sorted deterministically."""
    if r == 0:
        return [(0, 0)]
    pts = set()
    for t in range(-r, r + 1):
        pts.update({(t, r), (t, -r), (r, t), (-r, t)})
    return sorted(pts)


_MAX_TRIES = 1000


def sample_humbert_point(disc, seed=0):
    """A pseudorandom point of H_Delta with fast Gaussian decay.

    tau3 = k*tau1 + ell*tau2 by construction; Im(tau1) > Im(tau2) > 0 keeps
    |p| < 1 and |q| < 1 for the series substitution.
    """
    rng = random.Random(seed)
    for _ in range(_MAX_TRIES):
        t1 = complex(rng.uniform(-0.5, 0.5), rng.uniform(1.5, 2.5))
        t2 = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.2, 0.6))
        t3 = disc.k * t1 + disc.ell * t2
        point = SiegelPoint(t1, t2, t3)
        if point.is_valid() and t1.imag > t2.imag > 0:
            return point
    raise SamplingExhausted("no valid sample after %d tries" % _MAX_TRIES)


_ROSENHAIN_QUOTIENTS = (
    ((1, 3), (2, 4)),   # e1 = t1^2 t3^2 / t2^2 t4^2
    ((3, 8), (4, 10)),  # e2
    ((1, 8), (2, 10)),  # e3
)


def rosenhain_numeric(point):
    """Gaudry's Rosenhain triple from direct theta values."""
    vals = {i: theta_direct(point, ThetaChar.from_index(i))
            for i in (1, 2, 3, 4, 8, 10)}
    floor = 1e-8
    out = []
    for (n1, n2), (d1, d2) in _ROSENHAIN_QUOTIENTS:
        if abs(vals[d1]) < floor or abs(vals[d2]) < floor:
            raise NearVanishingDenominator(
                "theta denominator below %g at this point" % floor)
        out.append((vals[n1] ** 2 * vals[n2] ** 2)
                   / (vals[d1] ** 2 * vals[d2] ** 2))
    return tuple(out)


def pq_coordinates(point):
    """The substitution variables p = e^(2 pi i (tau1-tau2)/8), q = e^(2 pi i tau2/8)."""
    return (cmath.exp(2j * math.pi * (point.tau1 - point.tau2) / 8.0),
            cmath.exp(2j * math.pi * point.tau2 / 8.0))


def eval_series_numeric(f, p, q):
    total = 0j
    for (i, j) in sorted(f.terms):
        total += complex(f.terms[(i, j)]) * p ** i * q ** j
    return total


def expansion_vs_direct(disc, char, point, precision):
    """Relative error between the restricted expansion and the lattice sum.

    The printed restricted expansion differs from the classical theta
    constant by the constant characteristic phase i^(a*c + b*d) (it is -1
    exactly for theta_10); the comparison accounts for it.
    """
    f = restricted_theta(char, disc, precision)
    p, q = pq_coordinates(point)
    series_val = eval_series_numeric(f, p, q)
    phase = 1j ** ((char.a * char.c + char.b * char.d) % 4)
    direct = theta_direct(point, char)
    return abs(series_val * phase - direct) / abs(direct)


def verify_component(poly, delta, trials=20, tol=1e-6, seed=0):
    """Residuals of a candidate component polynomial at sampled points.

    The residual at a point is |F(e)| / (sum |coeff| * max(1, |e|)^deg F),
    a coefficient-mass relative scale.  Returns (passed, max_residual,
    residuals).
    """
    disc = humbert_params(delta)
    coeff_mass = sum(abs(c) for c in poly.terms.values())
    deg = poly.degree()
    residuals = []
    for t in range(trials):
        for attempt in range(8):
            point = sample_humbert_point(disc, seed=seed * 100003 + t * 8 +
                                         attempt + 1)
            try:
                e = rosenhain_numeric(point)
                break
            except NearVanishingDenominator:
                continue
        else:
            raise SamplingExhausted("could not sample away from degenerate "
                                    "loci")
        scale = coeff_mass * max(1.0, max(abs(x) for x in e)) ** deg
        residuals.append(abs(eval_complex(poly, e)) / scale)
    max_residual = max(residuals)
    return max_residual < tol, max_residual, residuals
