"""Finding the defining polynomial of a Humbert component.

Evaluate all monomials of degree at most d in the Rosenhain expansions and
find the linear dependency between their coefficient vectors, exactly.

The kernel is computed modulo word-size primes.  The nullity mod p is never
below the nullity over Q, so a prime with nullity 0 proves that there is no
relation, and a prime with nullity 1 bounds the rational nullity by 1.  A
one-dimensional kernel is lifted by CRT and rational reconstruction from
three primes, and from up to six when that fails, which reconstructs
coefficient ratios up to about 2^59.  A candidate relation is only ever
accepted after an exact recheck in integers: it must evaluate to the
identical zero series at precision N, and again on a fresh triple at N + 8.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .poly import MultiPoly, eval_on_series, format_poly
from .rosenhain import rosenhain_triple
from .theta import NotAdmissible, humbert_params

# primes just above 2^20, small enough that mod-p convolutions accumulate
# without int64 overflow (`_grid_mul` and `_nullspace_mod` assert it); the
# first three are always used, the others only when reconstruction fails
_PRIMES = (1048583, 1048589, 1048601, 1048609, 1048613, 1048627)


class NoRelation(RuntimeError):
    """Kernel is zero: no relation at this degree (or precision wasted)."""


class AmbiguousKernel(RuntimeError):
    """No unique relation at this degree and precision.

    Either the kernel dimension `kernel_dim` exceeds 1, because the
    precision is too small or the relation has a lower degree, or a
    candidate could not be trusted (rational reconstruction or the exact
    recheck failed; `kernel_dim` is then None).  The other fields are None
    where they are not known.
    """

    def __init__(self, message, kernel_dim=None, degree=None, delta=None,
                 precision=None):
        super().__init__(message)
        self.kernel_dim = kernel_dim
        self.degree = degree
        self.delta = delta
        self.precision = precision


class ImprimitiveKernel(AmbiguousKernel):
    """The kernel is exactly the multiples of a lower-degree relation.

    `factor` is that relation, of degree `factor_degree`; searching at that
    degree returns it.  More precision does not change this kernel.
    """

    def __init__(self, message, factor, factor_degree, **fields):
        super().__init__(message, **fields)
        self.factor = factor
        self.factor_degree = factor_degree


@dataclass
class RelationReport:
    disc: object
    degree: int
    precision: int
    kernel_dim: int
    polynomial: object = None
    monomial_count: int = 0
    symmetry_used: bool = False
    residual_checks: list = field(default_factory=list)

    def to_record(self):
        return {
            "schema": "humbert.relation/1",
            "delta": self.disc.delta,
            "degree": self.degree,
            "precision": self.precision,
            "kernel_dim": self.kernel_dim,
            "monomial_count": self.monomial_count,
            "symmetry_used": self.symmetry_used,
            "residual_checks": [[n, bool(ok)]
                                for n, ok in self.residual_checks],
            "polynomial": (self.polynomial.to_record()
                           if self.polynomial is not None else None),
        }


def monomial_basis(d, symmetry=None):
    """Exponent triples (a, b, c) with a+b+c <= d, graded-lex ascending.

    With symmetry ("e1e2"), only representatives with a >= b are kept; a
    representative with a > b stands for the orbit sum e1^a e2^b + e1^b e2^a
    sharing one unknown coefficient.
    """
    if d < 1:
        raise ValueError("degree must be >= 1")
    if symmetry not in (None, "e1e2"):
        raise ValueError("unsupported symmetry %r" % (symmetry,))
    out = []
    for total in range(d + 1):
        for a in range(total + 1):
            for b in range(total - a + 1):
                c = total - a - b
                if symmetry == "e1e2" and a < b:
                    continue
                out.append((a, b, c))
    return out


def default_precision(d):
    """N = 4*ceil(sqrt(C(d+3, 3))) + 8.

    Heuristic: the coefficient matrix has about (N/4)^2 usable columns and a
    unique relation needs more columns than monomials.
    """
    m = math.comb(d + 3, 3)
    root = math.isqrt(m)
    if root * root < m:
        root += 1
    return 4 * root + 8


def _to_coprime(vec):
    den = 1
    for x in vec:
        den = den * x.denominator // math.gcd(den, x.denominator)
    ints = [int(x * den) for x in vec]
    g = 0
    for x in ints:
        g = math.gcd(g, x)
    first = next(x for x in ints if x)
    if first < 0:
        g = -g
    return [x // g for x in ints]


# -- the kernel modulo word-size primes -----------------------------------


def _series_to_grid(f, n, p):
    a = np.zeros((n, n), dtype=np.int64)
    for (i, j), c in f.terms.items():
        a[i, j] = c % p
    return a


def _grid_mul(f, g, p):
    n = f.shape[0]
    # each entry of `out` sums at most n*n products of residues below p
    assert n * n * (p - 1) ** 2 < 2 ** 63, "int64 overflow in _grid_mul"
    out = np.zeros((n, n), dtype=np.int64)
    idx = np.argwhere(f)
    if len(idx) > np.count_nonzero(g):
        f, g = g, f
        idx = np.argwhere(f)
    for i, j in idx:
        out[i:, j:] += int(f[i, j]) * g[: n - i, : n - j]
    out %= p
    return out


def _monomial_rows_mod(rosenhain, basis, symmetry, p):
    n = rosenhain.precision
    es = [_series_to_grid(e, n, p) for e in rosenhain.series()]
    maxd = [max(k[i] for k in basis) for i in range(3)]
    if symmetry == "e1e2":
        maxd[0] = maxd[1] = max(maxd[0], maxd[1])
    pows = []
    for e, d in zip(es, maxd):
        lad = [np.zeros((n, n), dtype=np.int64)]
        lad[0][0, 0] = 1
        for _ in range(d):
            lad.append(_grid_mul(lad[-1], e, p))
        pows.append(lad)
    rows = []
    cache_ab = {}
    for (a, b, c) in basis:
        if (a, b) not in cache_ab:
            cache_ab[(a, b)] = _grid_mul(pows[0][a], pows[1][b], p)
        g = _grid_mul(cache_ab[(a, b)], pows[2][c], p)
        if symmetry == "e1e2" and a != b:
            if (b, a) not in cache_ab:
                cache_ab[(b, a)] = _grid_mul(pows[0][b], pows[1][a], p)
            g = (g + _grid_mul(cache_ab[(b, a)], pows[2][c], p)) % p
        rows.append(g.ravel())
    return np.stack(rows)


def _nullspace_mod(mat, p):
    """Right-nullspace basis of mat (equations x unknowns) over GF(p)."""
    # a row update a - col * pivot_row stays within (p-1)^2 + p in magnitude
    assert (p - 1) ** 2 + p < 2 ** 63, "int64 overflow in _nullspace_mod"
    a = mat % p
    n_rows, n_cols = a.shape
    pivots = []
    r = 0
    for c in range(n_cols):
        nz = np.nonzero(a[r:, c])[0]
        if len(nz) == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        col = a[:, c].copy()
        col[r] = 0
        mask = col != 0
        if mask.any():
            a[mask] = (a[mask] - np.outer(col[mask], a[r])) % p
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    free = [c for c in range(n_cols) if c not in pivots]
    out = []
    for fc in free:
        v = np.zeros(n_cols, dtype=np.int64)
        v[fc] = 1
        for ri, pc in enumerate(pivots):
            v[pc] = (-a[ri, fc]) % p
        out.append(v)
    return out


def _rational_reconstruct(a, m):
    """Smallest rational x = n/d with x = a mod m, |n|, d <= sqrt(m/2)."""
    bound = math.isqrt(m // 2)
    r0, r1 = m, a % m
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0 or math.gcd(r1, s1) != 1 or abs(s1) > bound:
        return None
    return Fraction(r1, s1)


def _lift_kernel_vector(vecs_mod, primes):
    """CRT-combine normalized per-prime kernel vectors and reconstruct."""
    m = 1
    combined = [0] * len(vecs_mod[0])
    for v, p in zip(vecs_mod, primes):
        if m == 1:
            combined = [int(x) % p for x in v]
            m = p
            continue
        mp = m * p
        inv = pow(m % p, p - 2, p)
        for i in range(len(combined)):
            t = ((int(v[i]) - combined[i]) * inv) % p
            combined[i] = (combined[i] + m * t) % mp
        m = mp
    out = []
    for x in combined:
        f = _rational_reconstruct(x, m)
        if f is None:
            return None
        out.append(f)
    return _to_coprime(out)


def _poly_from_vector(vec, basis, symmetry):
    terms = {}
    for coef, (a, b, c) in zip(vec, basis):
        if not coef:
            continue
        terms[(a, b, c)] = terms.get((a, b, c), 0) + coef
        if symmetry == "e1e2" and a != b:
            terms[(b, a, c)] = terms.get((b, a, c), 0) + coef
    if not any(terms.values()):
        return None
    return MultiPoly(terms)


def find_relation(delta, degree, precision=None, symmetry=None):
    """Search for the degree-`degree` relation among the Rosenhain series.

    Returns a RelationReport with the canonical polynomial when the kernel
    is one-dimensional.  Raises NoRelation (kernel 0), ImprimitiveKernel
    (the kernel is exactly the multiples of a lower-degree relation, which
    it names) or AmbiguousKernel (any other kernel of dimension > 1, or a
    candidate that fails the exact recheck).  Without an explicit
    precision, an AmbiguousKernel is retried at up to three larger
    precisions; an ImprimitiveKernel is raised at once.
    """
    disc = humbert_params(delta)
    if delta < 4:
        raise NotAdmissible("relation finding needs delta >= 4")
    if precision is not None:
        return _find_relation_at(disc, degree, precision, symmetry)
    # the (N/4)^2 column heuristic undershoots for some discriminants, and
    # an undersized N only ever shows up as a too-large kernel; escalate
    # until the kernel is separated (every accepted vector is still
    # rechecked exactly, so this is purely a policy loop)
    n = default_precision(degree)
    last = None
    for _ in range(4):
        try:
            return _find_relation_at(disc, degree, n, symmetry)
        except ImprimitiveKernel:
            raise  # more precision leaves this kernel as it is
        except AmbiguousKernel as exc:
            last = exc
            n += max(16, n // 4)
    raise last


def _find_relation_at(disc, degree, precision, symmetry):
    delta = disc.delta
    n = precision
    basis = monomial_basis(degree, symmetry)
    ros = rosenhain_triple(disc, n)
    dim, vec = _modular_kernel(ros, basis, symmetry)

    report = RelationReport(disc=disc, degree=degree, precision=n,
                            kernel_dim=dim,
                            monomial_count=len(basis),
                            symmetry_used=symmetry is not None)
    if dim == 0:
        raise NoRelation("no relation of degree %d for delta=%d at N=%d"
                         % (degree, delta, n))
    if dim > 1:
        raise _ambiguity(disc, degree, n, dim, symmetry)
    poly = _poly_from_vector(vec, basis, symmetry)
    if poly is None:
        raise NoRelation("kernel vector cancelled to the zero polynomial")

    # exact residual check at the working precision, then a mandatory
    # confirmation on a fresh triple at N + 8 (only worth building when the
    # first check passed)
    ok = _vanishes(poly, ros)
    report.residual_checks.append((n, ok))
    if ok:
        ok = _vanishes(poly, rosenhain_triple(disc, n + 8))
        report.residual_checks.append((n + 8, ok))
    if not ok:
        raise AmbiguousKernel(
            "candidate relation of degree %d for delta=%d failed the exact "
            "recheck at N=%d; precision too small for a trustworthy kernel"
            % (degree, delta, n), degree=degree, delta=delta, precision=n)
    report.polynomial = poly
    return report


def _ambiguity(disc, degree, n, dim, symmetry):
    """The error for nullity `dim` > 1: ImprimitiveKernel if `dim` is
    exactly the count of multiples of an exactly rechecked relation of
    lower degree k, else AmbiguousKernel.

    The multiples m*g with deg m <= degree - k are independent and vanish
    wherever g does, so they bound the rational nullity from below by
    len(monomial_basis(degree - k)).  `dim` is the smallest nullity mod p
    over the primes tried, and a nullity mod p is never below the rational
    one, so `dim` bounds it from above; when `dim` equals that count the
    kernel is exactly the multiples of g.  The counts strictly decrease in
    k, so at most one k matches.
    """
    fields = dict(kernel_dim=dim, degree=degree, delta=disc.delta,
                  precision=n)
    counts = {len(monomial_basis(degree - k, symmetry)): k
              for k in range(1, degree)}
    k = counts.get(dim)
    if k is not None:
        try:
            factor = _find_relation_at(disc, k, n, symmetry).polynomial
        except (NoRelation, AmbiguousKernel):
            pass
        else:
            return ImprimitiveKernel(
                "kernel dimension %d at degree %d for delta=%d at N=%d is "
                "spanned by the multiples of the degree-%d relation %s; "
                "search at degree %d"
                % (dim, degree, disc.delta, n, k, format_poly(factor), k),
                factor, k, **fields)
    return AmbiguousKernel(
        "kernel dimension %d at degree %d for delta=%d at N=%d; the "
        "precision is too small or the relation has a lower degree"
        % (dim, degree, disc.delta, n), **fields)


def _vanishes(poly, ros):
    return eval_on_series(poly, ros).is_zero()


def _modular_kernel(ros, basis, symmetry):
    """Nullity and (nullity 1 only) the lifted integer kernel vector.

    The nullity mod p is never below the rational one, so the first prime
    with nullity 0 settles the answer, and the smallest nullity seen over
    the first three primes is reported.  A prime that lost rank shows a
    larger nullity and is left out of the lift.  When rational
    reconstruction fails, the remaining primes of `_PRIMES` are added one at
    a time before giving up; the lifted vector is rechecked exactly by the
    caller either way.
    """
    dims, vecs, lift_primes = [], [], []
    for p in _PRIMES:
        mat = _monomial_rows_mod(ros, basis, symmetry, p)
        # unknowns are the monomial coefficients: solve mat^T v = 0 with
        # equations indexed by series coefficients
        ker = _nullspace_mod(mat.T, p)
        if not ker:
            return 0, None
        dims.append(len(ker))
        if len(ker) == 1:
            v = ker[0]
            nz = next(i for i in range(len(v)) if v[i])
            inv = pow(int(v[nz]), p - 2, p)
            vecs.append((v * inv) % p)
            lift_primes.append(p)
        elif len(dims) > 3:
            continue  # a prime that lost rank adds nothing to the lift
        if len(dims) < 3:
            continue
        if min(dims) != 1:
            return min(dims), None
        lifted = _lift_kernel_vector(vecs, lift_primes)
        if lifted is not None:
            return 1, lifted
    raise AmbiguousKernel("rational reconstruction failed with %d primes; "
                          "kernel not stable across primes" % len(_PRIMES))
