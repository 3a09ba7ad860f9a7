"""Finding the defining polynomial of a Humbert component.

Evaluate all monomials of degree at most d in the Rosenhain expansions and
find the linear dependency between their coefficient vectors, exactly.

Every exponent of e1, e2 and e3 lies on a lattice g_i Z x g_j Z, taken as
the gcd of the exponents that occur (4Z x 4Z for every delta tried), and so
does every monomial in them.  For each word-size prime p, the monomial rows
are built mod p on the m_i x m_j grid of that lattice, m = ceil(N/g), by
float64 matrix products: multiplying by e_i is a matrix T_i, and every
product is reduced by fmod.  The bound m_i m_j (p-1)^2 < 2^53 is asserted,
so every dot product is an exact integer (the FFLAS-FFPACK technique of
Dumas, Giorgi and Pernet).  The nullity mod p is never below the nullity
over Q, and only nullity 1 gives a relation, so nullity 0 at any prime or
above 1 at the first prime decides the answer.  A one-dimensional kernel is
lifted by CRT and rational reconstruction from the first three primes with
nullity 1 (a later prime of larger nullity lost rank), adding the rest one
at a time when that fails, up to six, which reconstructs coefficient ratios
up to about 2^59.  A candidate relation is only ever accepted after an exact
recheck in integers: it must evaluate to the identical zero series on a
fresh triple at N + 8, and so also at the kernel's precision N, and it must
not be a product of degenerate-locus factors.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .poly import (DegenerateOnly, MultiPoly, eval_on_series, format_poly,
                   strip_degenerate_factors)
from .rosenhain import rosenhain_triple
from .theta import NotAdmissible, humbert_params

# primes just above 2^20, small enough that an elimination step of
# `_nullspace_mod` stays inside int64 and that the float64 rows stay exact on
# lattices of up to 8,191 points, such as 90 x 90 (both are asserted); the
# first prime decides every nullity but 1, and only the lift needs more
_PRIMES = (1048583, 1048589, 1048601, 1048609, 1048613, 1048627)


class NoRelation(RuntimeError):
    """Kernel is zero: no relation at this degree (or precision wasted)."""


class AmbiguousKernel(RuntimeError):
    """No unique relation at this degree and precision.

    Either the kernel dimension `kernel_dim` exceeds 1, because the
    precision is too small or the relation has a lower degree, or a
    candidate could not be trusted (rational reconstruction or the exact
    recheck failed, or the candidate is a product of degenerate-locus
    factors such as e1 - 1; `kernel_dim` is then None).  After the exact
    recheck, `residual_checks` holds its (N, passed) pairs for the kernel's
    N and for N + 8.  The other fields are None where they are not known.
    """

    def __init__(self, message, kernel_dim=None, degree=None, delta=None,
                 precision=None, residual_checks=None):
        super().__init__(message)
        self.kernel_dim = kernel_dim
        self.degree = degree
        self.delta = delta
        self.precision = precision
        self.residual_checks = residual_checks


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


# -- the kernel modulo word-size primes -----------------------------------


def _exponent_lattice(series):
    """Steps (g_i, g_j): the gcd of every p- and of every q-exponent.

    Every term of the series, and so of every product of them, lies on
    g_i Z x g_j Z.  A coordinate whose only exponent is 0 gets step N.
    """
    gi = gj = 0
    for s in series:
        for i, j in s.terms:
            gi, gj = math.gcd(gi, i), math.gcd(gj, j)
    n = series[0].precision
    return gi or n, gj or n


def _mul_matrix(e, steps, shape, p):
    """Multiplication by the lattice series e mod p, as a float64 matrix.

    Lattice point (I, J) is index I*m_j + J.  A term c p^(g_i di) q^(g_j dj)
    of e sends every point (I, J) to (I + di, J + dj) with weight c mod p,
    inside the grid.
    """
    (gi, gj), (mi, mj) = steps, shape
    t = np.zeros(shape + shape)
    for (i, j), c in e.terms.items():
        di, dj = i // gi, j // gj
        rows, cols = np.arange(di, mi)[:, None], np.arange(dj, mj)
        t[rows, cols, rows - di, cols - dj] = c % p
    return t.reshape(mi * mj, mi * mj)


def _monomial_rows_mod(ros, basis, symmetry, p):
    """Every basis element's series mod p on the exponent lattice, in basis
    order, as an int64 matrix with one row per basis element.

    Column I*m_j + J holds the coefficient of p^(g_i I) q^(g_j J), with
    m = ceil(N/g).  A monomial is T1^a T2^b T3^c applied to the unit vector
    of 1, T_v being multiplication by e_v; each power step is one float64
    matrix product over every column that needs it, reduced by fmod.  An
    e1e2 representative with a != b is the sum of its (a, b, c) and its
    (b, a, c) column.
    """
    n, es = ros.precision, ros.series()
    steps = _exponent_lattice(es)
    shape = tuple(-(-n // g) for g in steps)
    size = shape[0] * shape[1]
    # a dot product sums at most `size` products of two residues; below
    # 2^53 every partial sum is an exact float64 integer
    assert size * (p - 1) ** 2 < 2 ** 53, "float64 rows inexact mod p"
    need = set(basis)
    if symmetry == "e1e2":
        need |= {(b, a, c) for a, b, c in basis}
    unit = np.zeros(size)
    unit[0] = 1
    cols = {(0, 0, 0): unit}
    for v, e in enumerate(es):
        # the prefixes through e_v of the needed triples, one power of e_v
        # per level
        grow = {t[:v + 1] + (0,) * (2 - v) for t in need}
        top = max(t[v] for t in grow)
        if not top:
            continue
        mul = _mul_matrix(e, steps, shape, p)
        for k in range(1, top + 1):
            keys = sorted(t for t in grow if t[v] == k)
            src = np.stack([cols[t[:v] + (k - 1,) + t[v + 1:]] for t in keys],
                           axis=1)
            cols.update(zip(keys, np.fmod(mul @ src, p).T))
    rows = []
    for a, b, c in basis:
        row = cols[(a, b, c)]
        if symmetry == "e1e2" and a != b:
            row = np.fmod(row + cols[(b, a, c)], p)
        rows.append(row)
    return np.array(rows, dtype=np.int64)


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
    """The smallest rational n/d = a mod m with |n|, d <= sqrt(m/2), as the
    coprime int pair (n, d) with d > 0, or None if there is none."""
    bound = math.isqrt(m // 2)
    r0, r1 = m, a % m
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0 or math.gcd(r1, s1) != 1 or abs(s1) > bound:
        return None
    return (r1, s1) if s1 > 0 else (-r1, -s1)


def _lift_kernel_vector(vecs_mod, primes):
    """CRT-combine per-prime kernel vectors and reconstruct an integer one.

    Each vector is normalized mod its prime to a first nonzero entry of 1,
    which reconstructs to 1/1.  Clearing the denominators n_i/d_i with
    L = lcm(d_i) gives first entry L > 0 and content 1: a prime dividing L
    to its full power in some d_j divides neither L/d_j nor n_j.
    """
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
    pairs = [_rational_reconstruct(x, m) for x in combined]
    if None in pairs:
        return None
    den = math.lcm(*(d for _, d in pairs))
    return [n * (den // d) for n, d in pairs]


def _poly_from_vector(vec, basis, symmetry):
    # each basis element writes its own monomial, and an e1e2 representative
    # also its (b, a, c) mirror, so a nonzero vector never cancels
    terms = {}
    for coef, (a, b, c) in zip(vec, basis):
        terms[(a, b, c)] = coef
        if symmetry == "e1e2":
            terms[(b, a, c)] = coef
    return MultiPoly(terms)


def find_relation(delta, degree, precision=None, symmetry=None):
    """Search for the degree-`degree` relation among the Rosenhain series.

    Returns a RelationReport with the canonical polynomial when the kernel
    is one-dimensional.  Raises NoRelation (kernel 0), ImprimitiveKernel
    (the kernel is exactly the multiples of a lower-degree relation, which
    it names) or AmbiguousKernel (any other kernel of dimension > 1, or a
    candidate that fails the exact recheck or lies on the degenerate
    loci).  Without an explicit precision, an AmbiguousKernel is retried at
    up to three larger precisions; an ImprimitiveKernel is raised at once.
    """
    disc = humbert_params(delta)
    if delta < 4:
        raise NotAdmissible("relation finding needs delta >= 4")
    if precision is not None:
        return _find_relation_on(rosenhain_triple(disc, precision),
                                 degree, symmetry)
    # the (N/4)^2 column heuristic undershoots for some discriminants, and
    # an undersized N only ever shows up as a too-large kernel; escalate
    # until the kernel is separated (every accepted vector is still
    # rechecked exactly, so this is purely a policy loop).  Below
    # N = 4(k + l) + 1, e1 - 1 vanishes mod (p^N, q^N), so every multiple
    # of it lies in the kernel; that N is never below smallest_precision
    n = max(default_precision(degree), 4 * (disc.k + disc.ell) + 1)
    last = None
    for _ in range(4):
        try:
            return _find_relation_on(rosenhain_triple(disc, n), degree,
                                     symmetry)
        except ImprimitiveKernel:
            raise  # more precision leaves this kernel as it is
        except AmbiguousKernel as exc:
            last = exc
            n += max(16, n // 4)
    raise last


def _find_relation_on(ros, degree, symmetry):
    """One search at the precision of the Rosenhain triple `ros`."""
    disc, n = ros.disc, ros.precision
    delta = disc.delta
    basis = monomial_basis(degree, symmetry)
    dim, vec = _modular_kernel(ros, basis, symmetry)

    report = RelationReport(disc=disc, degree=degree, precision=n,
                            kernel_dim=dim,
                            monomial_count=len(basis),
                            symmetry_used=symmetry is not None)
    if dim == 0:
        raise NoRelation("no relation of degree %d for delta=%d at N=%d"
                         % (degree, delta, n))
    if dim > 1:
        raise _ambiguity(ros, degree, dim, symmetry)
    poly = _poly_from_vector(vec, basis, symmetry)

    # exact recheck at N and on a fresh triple at N + 8, from one evaluation:
    # the N + 8 triple truncates to the kernel's triple, so the value at N
    # is the truncation of the value at N + 8
    fresh = rosenhain_triple(disc, n + 8)
    cut = tuple(e.truncate(n) for e in fresh.series())
    assert cut == ros.series(), "N + 8 triple does not truncate to N's"
    value = eval_on_series(poly, fresh)
    report.residual_checks = [(n, value.truncate(n).is_zero()),
                              (n + 8, value.is_zero())]
    failed = [m for m, ok in report.residual_checks if not ok]
    if failed:
        raise AmbiguousKernel(
            "candidate relation of degree %d for delta=%d from the kernel at "
            "N=%d failed the exact recheck at N=%d; precision too small for "
            "a trustworthy kernel" % (degree, delta, n, failed[0]),
            degree=degree, delta=delta, precision=n,
            residual_checks=report.residual_checks)
    # a product of degenerate factors, such as e1 - 1, vanishes on a triple
    # where e1 is 1 to the precision: it tells nothing about the component
    try:
        strip_degenerate_factors(poly)
    except DegenerateOnly:
        raise AmbiguousKernel(
            "candidate relation %s of degree %d for delta=%d at N=%d lies on "
            "the degenerate loci; precision too small to separate e1, e2, e3 "
            "from them" % (format_poly(poly), degree, delta, n),
            degree=degree, delta=delta, precision=n,
            residual_checks=report.residual_checks) from None
    report.polynomial = poly
    return report


def _ambiguity(ros, degree, dim, symmetry):
    """The error for nullity `dim` > 1 on the triple `ros`: ImprimitiveKernel
    if `dim` is exactly the count of multiples of an exactly rechecked
    relation of lower degree k, else AmbiguousKernel.

    The multiples m*g with deg m <= degree - k are independent and vanish
    wherever g does, so they bound the rational nullity from below by
    len(monomial_basis(degree - k)).  `dim` is the nullity at the first
    prime, and a nullity mod p is never below the rational one, so `dim`
    bounds it from above; when `dim` equals that count the kernel is exactly
    the multiples of g.  The counts strictly decrease in k, so at most one k
    matches.
    """
    disc, n = ros.disc, ros.precision
    fields = dict(kernel_dim=dim, degree=degree, delta=disc.delta,
                  precision=n)
    counts = {len(monomial_basis(degree - k, symmetry)): k
              for k in range(1, degree)}
    k = counts.get(dim)
    if k is not None:
        try:
            factor = _find_relation_on(ros, k, symmetry).polynomial
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


def _modular_kernel(ros, basis, symmetry):
    """Nullity and (nullity 1 only) the lifted integer kernel vector.

    Only nullity 1 gives a relation, and the nullity mod p is never below
    the rational one, so nullity 0 at any prime, or above 1 at the first
    (the bound `_ambiguity` needs), is returned at once.  A later prime
    with nullity above 1 lost rank and is skipped.  The lift takes the first
    three primes with nullity 1 and adds the rest of `_PRIMES` one at a
    time while reconstruction fails; the caller rechecks it exactly.  An N
    past the float64 row bound is a ValueError naming the largest valid N.
    """
    # the most lattice points whose float64 rows stay exact for every prime
    most = (2 ** 53 - 1) // (max(_PRIMES) - 1) ** 2
    n, steps = ros.precision, _exponent_lattice(ros.series())
    top = n
    while math.prod(-(-top // g) for g in steps) > most:
        top -= 1
    if top < n:
        raise ValueError("precision N=%d is too large for the kernel rows "
                         "of delta=%d; the largest valid N is %d"
                         % (n, ros.disc.delta, top))
    vecs, lift_primes = [], []
    for p in _PRIMES:
        # unknowns are the monomial coefficients: solve rows^T v = 0 with one
        # equation per lattice point; the points where every row vanishes
        # mod p would only be zero equations
        rows = _monomial_rows_mod(ros, basis, symmetry, p)
        ker = _nullspace_mod(rows.T[rows.any(axis=0)], p)
        if not ker:
            return 0, None
        if len(ker) > 1:
            if not vecs:
                return len(ker), None
            continue  # this prime lost rank
        v = ker[0]
        nz = next(i for i in range(len(v)) if v[i])
        vecs.append((v * pow(int(v[nz]), p - 2, p)) % p)
        lift_primes.append(p)
        if len(vecs) >= 3:
            lifted = _lift_kernel_vector(vecs, lift_primes)
            if lifted is not None:
                return 1, lifted
    raise AmbiguousKernel("rational reconstruction failed with %d primes; "
                          "kernel not stable across primes" % len(_PRIMES))
