"""Floating-point cross-checks, independent of the exact series pipeline.

Theta constants are evaluated directly from the defining lattice sum at
sampled points of H_Delta; Rosenhain values and candidate component
polynomials are then checked numerically against the exact results.
"""

import cmath
import functools
import math
import operator
import random
from dataclasses import dataclass

import numpy as np

from .poly import complex_evaluator
from .series import InputError
from .theta import ThetaChar, humbert_params


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


def theta_constants(point, chars, tol=1e-12):
    """The lattice sums for theta_{abcd}(tau), one per characteristic in
    chars, over the box |x|_inf <= b_max outside which the Gaussian tail
    lies below tol (the truncation of Deconinck et al., Math. Comp. 73,
    2004).  One numpy expression and one exp run over the stacked boxes;
    each row is summed on its own in a fixed order of the box.  Returns a
    tuple of complex, in the order of chars."""
    if not 0 < tol < 1:
        raise InputError("tol must be a finite number with 0 < tol < 1, "
                         "got %r" % (tol,))
    lam = point.min_im_eigenvalue()
    if lam <= 0 or not point.is_valid():
        raise NonConvergent("Im(tau) is not positive definite")
    # |term| <= exp(-pi * lam * |x + m'/2|^2); pad the box generously
    bound = math.sqrt((math.log(1.0 / tol) + 10.0) / (math.pi * lam))
    y11, y12, y22, lin = _box(int(math.ceil(bound)) + 2,
                              tuple(map(_CHAR_BITS, chars)))
    # term x: exp(pi i (tau1 y1^2 + 2 tau2 y1 y2 + tau3 y2^2 + c y1 + d y2))
    expo = point.tau1 * y11 + point.tau2 * y12 + point.tau3 * y22 + lin
    return tuple(np.exp(1j * math.pi * expo).sum(axis=1).tolist())


def theta_direct(point, char, tol=1e-12):
    """theta_constants for the one characteristic char."""
    return theta_constants(point, (char,), tol)[0]


# a characteristic's plain int tuple (a, b, c, d), read in C: the cache key
# of `_box` then hashes ints, not frozen dataclasses in Python
_CHAR_BITS = operator.attrgetter("a", "b", "c", "d")


@functools.lru_cache(maxsize=32)
def _box(b_max, chars):
    """y1^2, 2 y1 y2, y2^2 and c y1 + d y2 over y = x + (a, b)/2 for the
    lattice points x of the box |x|_inf <= b_max, one row per
    characteristic (a, b, c, d) of chars, int tuples, as read-only
    arrays."""
    x1, x2 = np.mgrid[-b_max:b_max + 1, -b_max:b_max + 1]
    # float columns: int64 ones send the arithmetic below through numpy's
    # mixed-dtype loops, which page in 64 KB more of its library code
    a, b, c, d = np.array(chars, dtype=float).T[:, :, None]
    y1 = x1.ravel() + a / 2.0
    y2 = x2.ravel() + b / 2.0
    arrays = (y1 * y1, 2.0 * y1 * y2, y2 * y2, c * y1 + d * y2)
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def sample_humbert_point(disc, seed=0):
    """A pseudorandom point of H_Delta with fast Gaussian decay.

    tau3 = k*tau1 + ell*tau2 by construction; Im(tau1) > Im(tau2) > 0 keeps
    |p| < 1 and |q| < 1 for the series substitution.  Every draw is valid:
    y1 = Im(tau1) in [1.5, 2.5] and y2 = Im(tau2) in [0.2, 0.6] give
    y1 > y2 > 0, and det Im(tau) = y1 (k y1 + ell y2) - y2^2 is at least
    y1^2 - y2^2 > 0 for k >= 1 and equals y2 (y1 - y2) > 0 for Delta = 1.
    """
    rng = random.Random(seed)
    t1 = complex(rng.uniform(-0.5, 0.5), rng.uniform(1.5, 2.5))
    t2 = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.2, 0.6))
    return SiegelPoint(t1, t2, disc.k * t1 + disc.ell * t2)


_ROSENHAIN_QUOTIENTS = (
    ((1, 3), (2, 4)),   # e1 = t1^2 t3^2 / t2^2 t4^2
    ((3, 8), (4, 10)),  # e2
    ((1, 8), (2, 10)),  # e3
)
_ROSENHAIN_INDICES = (1, 2, 3, 4, 8, 10)
_ROSENHAIN_CHARS = tuple(ThetaChar.from_index(i) for i in _ROSENHAIN_INDICES)


def rosenhain_numeric(point, disc):
    """Gaudry's Rosenhain triple from direct theta values at a point of
    H_Delta, Delta = disc.delta.

    A denominator that nearly vanishes raises NearVanishingDenominator: on
    H_Delta every term of theta10 carries p^(1+k) q^(k+l-1) (see
    `rosenhain`), so |theta10| is held to the floor 1e-8 after dividing out
    that monomial's modulus, and |theta2| and |theta4| as they are.
    """
    vals = dict(zip(_ROSENHAIN_INDICES,
                    theta_constants(point, _ROSENHAIN_CHARS)))
    p, q = pq_coordinates(point)
    floor = 1e-8
    scale = {2: 1.0, 4: 1.0,
             10: abs(p) ** (1 + disc.k) * abs(q) ** (disc.k + disc.ell - 1)}
    out = []
    for (n1, n2), (d1, d2) in _ROSENHAIN_QUOTIENTS:
        den = vals[d1] ** 2 * vals[d2] ** 2  # 0 once it underflows
        if (not den or abs(vals[d1]) < floor * scale[d1]
                or abs(vals[d2]) < floor * scale[d2]):
            raise NearVanishingDenominator(
                "theta denominator below %g at this point" % floor)
        out.append((vals[n1] ** 2 * vals[n2] ** 2) / den)
    return tuple(out)


def pq_coordinates(point):
    """The substitution variables p = e^(2 pi i (tau1-tau2)/8), q = e^(2 pi i tau2/8)."""
    return (cmath.exp(2j * math.pi * (point.tau1 - point.tau2) / 8.0),
            cmath.exp(2j * math.pi * point.tau2 / 8.0))


def verify_component(poly, delta, trials=20, tol=1e-6, seed=0):
    """Residuals of a candidate component polynomial at sampled points.

    The residual at a point is |F(e)| / (sum |coeff| * max(1, |e|)^deg F),
    a coefficient-mass relative scale.  Returns (passed, max_residual,
    residuals); passed means max_residual < tol, so tol must be a number
    with 0 < tol < inf.
    """
    if trials < 1:
        raise InputError("trials must be at least 1, got %r" % (trials,))
    if not 0 < tol < math.inf:
        raise InputError("tol must be a number with 0 < tol < inf, got %r"
                         % (tol,))
    disc = humbert_params(delta)
    coeff_mass = sum(abs(c) for c in poly.terms.values())
    deg = poly.degree()
    evaluate = complex_evaluator(poly)
    residuals = []
    for t in range(trials):
        seeds = [seed * 100003 + t * 8 + attempt + 1 for attempt in range(8)]
        for point_seed in seeds:
            point = sample_humbert_point(disc, seed=point_seed)
            try:
                e = rosenhain_numeric(point, disc)
                break
            except NearVanishingDenominator:
                continue
        else:
            raise SamplingExhausted(
                "could not sample away from degenerate loci on H_%d: "
                "trial %d rejected all %d points, drawn with seeds %s"
                % (delta, t, len(seeds), ", ".join(map(str, seeds))))
        scale = coeff_mass * max(1.0, max(abs(x) for x in e)) ** deg
        residuals.append(abs(evaluate(e)) / scale)
    max_residual = max(residuals)
    return max_residual < tol, max_residual, residuals
