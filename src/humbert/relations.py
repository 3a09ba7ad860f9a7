"""Finding the defining polynomial of a Humbert component.

Evaluate all monomials of degree at most d in the Rosenhain expansions and
find the linear dependency between their coefficient vectors, exactly.  The
unknowns are the orbits of monomials under the chosen permutations of e1,
e2 and e3, listed before any theta series is expanded: an orbit's row is the
sum of its monomials' rows, and its kernel coefficient goes to each of them.

Every exponent of e1, e2 and e3 lies on 4Z x 4Z.  With Delta = 4k + l, the
theta exponent formula gives t1-t4 (a = b = 0) the p-exponents
4x1^2 + 4k x2^2 and the q-exponents 4(x1+x2)^2 + 4(k+l-1) x2^2.  After the
division by p^(1+k) q^(k+l-1), t8 and t10 have 4x1(x1+1) + 4k x2(x2+1) and
4(x1+x2+1)^2 + 4(k+l-1) x2(x2+1).  Products and unit inverses stay on the
lattice, so every monomial in e1, e2, e3 lies on it too, and the rows mod a
word-size prime are built on its m x m grid, m = ceil(N/4).

The nullity mod p is never below the nullity over Q, and only nullity 1
gives a relation, so nullity 0 at any prime or above 1 at the first prime
decides the answer.  Each attempt builds one Rosenhain triple, at N + 8,
and the kernel reads its truncation to N.  An escalation solves only the
new lattice points' equations inside the first prime's kernel of the
attempt before (`_within`), as Beckermann and Labahn (SIAM J. Matrix
Anal. Appl. 15(3), 1994) add order conditions.  A one-dimensional kernel is
lifted by CRT and rational reconstruction after every prime with nullity 1,
from the first on (`_lift_kernel_vector`; Monagan, ISSAC 2004, stops a lift
as early).  A lift is only ever accepted after an exact recheck: it must
evaluate to the identical zero series on the N + 8 triple, and so also at
N, which puts it in the rational kernel, of dimension at most 1; so a lift
from any count of primes that passes is the relation.  It must not be a
product of degenerate-locus factors either.
"""

import math
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .poly import (DegenerateOnly, MultiPoly, eval_on_series, format_poly,
                   strip_degenerate_factors)
from .rosenhain import RosenhainSeries, check_precision, rosenhain_triple
from .series import (InputError, _crt, _grid, _grid_product, _mod_chunk,
                     _residues, _toeplitz, word_primes)
from .theta import NotAdmissible, humbert_params

# the first six primes above 2^20, the primes of the exact recheck too: they
# meet the asserted bounds of `_nullspace_mod` (2^22 unknowns), `_within`
# (8,191) and the grid products (N <= _MAX_N); the first prime decides every
# nullity but 1, and only the lift needs more
_PRIMES = tuple(islice(word_primes(), 6))
# the most unknowns `_within` admits at every prime
_MAX_UNKNOWNS = min(_mod_chunk(1, p) for p in _PRIMES)
# the supported precision cap, checked before any theta series is expanded;
# it is not the exactness guard, which every grid product asserts for itself
_MAX_N = 360
# by name, the permutations of (e1, e2, e3) besides the identity
_SYMMETRIES = {None: (), "e1e2": ((1, 0, 2),)}


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
    """The unknowns of a degree-d search: the orbits of the exponent triples
    (a, b, c) with a+b+c <= d, each led by its largest triple, graded-lex
    ascending by that triple, so degree k <= d gives a prefix.  Without
    symmetry an orbit is one monomial; under "e1e2" it is
    ((a, b, c), (b, a, c)) with a > b, or ((a, a, c),).
    """
    out = []
    for total in range(d + 1):
        for a in range(total + 1):
            for b in range(total - a + 1):
                t = (a, b, total - a - b)
                orbit = {t} | {tuple(t[i] for i in g)
                               for g in _SYMMETRIES[symmetry]}
                if t == max(orbit):
                    out.append(tuple(sorted(orbit, reverse=True)))
    return out


def _unknown_count(d, symmetry=None):
    """len(monomial_basis(d, symmetry)), counted: C(d+3, 3) triples, and
    under "e1e2" (C(d+3, 3) + F) / 2 orbits by Burnside's lemma, where the
    F = sum_(t<=d) (floor(t/2) + 1) triples with a = b are the fixed ones."""
    count = math.comb(d + 3, 3)
    if symmetry is None:
        return count
    return (count + sum(t // 2 + 1 for t in range(d + 1))) // 2


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


def _monomial_rows_mod(ros, basis, p):
    """Every orbit's series mod p on 4Z x 4Z, the sum of its monomials', in
    basis order, as an int64 matrix with one row per orbit.

    Column I*m + J holds the coefficient of p^(4I) q^(4J), with
    m = ceil(N/4).  Each power step multiplies the m x m grids of every
    monomial that needs it by e_v mod p in one `_grid_product`; a term of
    e_v off 4Z x 4Z is an AssertionError.  Each grid leaves the dict as it
    is added into its orbit's row, so the rows are reduced once, exactly:
    a cell sums at most one residue below p per monomial of the orbit.
    """
    m = -(-ros.precision // 4)
    _mod_chunk(m, p)  # the products are exact mod p: asserted up front
    need = [t for orbit in basis for t in orbit]
    grids = {(0, 0, 0): np.eye(1, m * m).reshape(m, m)}  # the series 1
    for v, e in enumerate(ros.series()):
        # the prefixes through e_v of the needed triples, one power of e_v
        # per level
        grow = {t[:v + 1] + (0,) * (2 - v) for t in need}
        factor = _toeplitz(_grid(e.terms, 4, m, _residues((p,))))
        for k in range(1, max(t[v] for t in grow) + 1):
            keys = sorted(t for t in grow if t[v] == k)
            src = np.stack([grids[t[:v] + (k - 1,) + t[v + 1:]]
                            for t in keys])
            grids.update(zip(keys, _grid_product(src, factor, p)))
    rows = np.zeros((len(basis), m * m), dtype=np.int64)
    for row, orbit in zip(rows, basis):
        for t in orbit:
            np.add(row, grids.pop(t).ravel(), out=row, casting="unsafe")
    rows %= p
    return rows


def _nullspace_mod(mat, p):
    """Right-nullspace basis of mat (equations x unknowns) over GF(p), as
    the rows of an int64 array.

    Gauss-Jordan to the reduced echelon form with lazy reduction mod p:
    the step at column c reduces only column c, to find its pivot, and the
    pivot row, to scale it to a leading 1.  Its rank-1 update of the other
    rows stays unreduced.  The pivot row is zero left of c, so the update covers
    columns c onwards only.  An update subtracts between 0 and (p-1)^2 from
    an entry, and there are at most n_cols steps, so every entry stays in
    (-n_cols (p-1)^2, p): int64 holds it, as asserted.  The basis has one
    vector per free column, with a 1 there and the negated, reduced entries
    of the pivot rows in the pivot columns.
    """
    n_rows, n_cols = mat.shape
    assert n_cols * (p - 1) ** 2 + p < 2 ** 63, \
        "int64 overflow in _nullspace_mod"
    a = mat % p
    pivots = []
    r = 0
    for c in range(n_cols):
        col = a[:, c]
        col %= p
        nz = np.flatnonzero(col[r:])
        if len(nz) == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        row = a[r, c:]
        row %= p
        row *= pow(int(row[0]), p - 2, p)
        row %= p
        f = col.copy()
        f[r] = 0
        a[:, c:] -= np.outer(f, row)
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    free = np.delete(np.arange(n_cols), pivots)
    ker = np.zeros((len(free), n_cols), dtype=np.int64)
    ker[np.arange(len(free)), free] = 1
    ker[:, pivots] = (-a[:r, free].T) % p
    return ker


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


def _within(eqs, known, p):
    """The kernel mod p of the equations `eqs` inside span `known`, as int64
    rows: Z K for K = known and Z the kernel of S = eqs K^T, or the kernel
    of eqs if `known` is None.  A slice `eqs` is the unit equations x_j = 0,
    j in it: S = K[:, eqs]^T.  The float64 products eqs K^T and Z K sum at
    most n products below (p-1)^2 for n unknowns (len(K) <= n, as K's rows
    are independent), exact while n <= `_mod_chunk`(1, p), as asserted."""
    if known is None:
        return _nullspace_mod(eqs, p)
    n = known.shape[1]
    assert n <= _mod_chunk(1, p), "float64 product inexact mod %d" % p
    k = known.astype(np.float64)
    s = known[:, eqs].T if isinstance(eqs, slice) else eqs @ k.T
    z = _nullspace_mod(s.astype(np.int64), p).astype(np.float64)
    return ((z @ k) % p).astype(np.int64)


def _kernel_mod(cut, basis, p, known=None):
    """The kernel mod p of the equations of the orbits `basis` on the
    triple `cut`, one per lattice point where some row is nonzero mod p (the
    others are zero equations), as the rows of an int64 array.

    `known` is a pair (N0, K), K the kernel basis mod p of the same orbits
    at a lower precision N0.  Truncation to N0 is a ring map, so K solves
    the equations on the ceil(N0/4)^2 block of points below N0, and the
    kernel is the part of span K where the other points' equations vanish
    (`_within`).
    """
    rows = _monomial_rows_mod(cut, basis, p)
    eqs = rows.any(axis=0)
    if known is not None:
        grid = np.arange(-(-cut.precision // 4))
        eqs &= (np.maximum.outer(grid, grid) >= -(-known[0] // 4)).ravel()
    mat = rows.T[eqs]
    del rows  # so the elimination's working copies do not add to it
    return _within(mat, None if known is None else known[1], p)


def _lift_kernel_vector(vecs_mod, primes):
    """CRT-combine per-prime kernel vectors and reconstruct an integer one,
    or None.

    Each vector is normalized mod its prime to a first nonzero entry of 1,
    which reconstructs to 1/1.  Clearing the denominators n_i/d_i with
    L = lcm(d_i) gives first entry L > 0 and content 1: a prime dividing L
    to its full power in some d_j divides neither L/d_j nor n_j.  A vector
    with an entry past sqrt(M/2), M the product of the primes, is None: a
    kernel vector inside that bound has every ratio inside it too, so it is
    what reconstruction returns, and the check only refuses lifts that need
    more primes (sqrt(M/2) is about 2^9.5 for one prime, 2^59 for six).  It
    never accepts one; the exact recheck does.
    """
    m, combined = _crt(zip(*(map(int, v) for v in vecs_mod)), primes)
    pairs = [_rational_reconstruct(x, m) for x in combined]
    if None in pairs:
        return None
    den = math.lcm(*(d for _, d in pairs))
    vec = [n * (den // d) for n, d in pairs]
    if max(map(abs, vec)) > math.isqrt(m // 2):
        return None
    return vec


def find_relation(delta, degree, precision=None, symmetry=None):
    """Search for the degree-`degree` relation among the Rosenhain series.

    Returns a RelationReport with the canonical polynomial when the kernel
    is one-dimensional.  Raises NoRelation (kernel 0), ImprimitiveKernel
    (the kernel is exactly the multiples of a lower-degree relation, which
    it names) or AmbiguousKernel (any other kernel of dimension > 1, or a
    candidate that fails the exact recheck or lies on the degenerate
    loci).  Without an explicit precision, an AmbiguousKernel is retried at
    up to three larger precisions up to `_MAX_N`, and the last one raised;
    an ImprimitiveKernel is raised at once.  Each retry starts from the
    first prime's kernel of the attempt before.  A bad degree or symmetry,
    then a first precision past `_MAX_N` (an InputError naming that N), then
    an AmbiguousKernel for more top-degree monomials than the orbit width
    times ceil(N/4)^2 (kernel_dim None), then an InputError for more than
    `_MAX_UNKNOWNS` unknowns, counted, is raised before they are listed.
    """
    disc = humbert_params(delta)
    if delta < 4:
        raise NotAdmissible("relation finding needs delta >= 4")
    if degree < 1:
        raise InputError("degree must be >= 1")
    if symmetry not in _SYMMETRIES:
        raise InputError("unsupported symmetry %r" % (symmetry,))
    if precision is not None:
        schedule = [precision]
    else:
        # the (N/4)^2 column heuristic undershoots for some discriminants,
        # and an undersized N only ever shows up as a too-large kernel;
        # escalate until the kernel is separated (every accepted vector is
        # still rechecked exactly, so this is purely a policy loop).  Below
        # N = 4(k + l) + 1, e1 - 1 vanishes mod (p^N, q^N), so every
        # multiple of it lies in the kernel; that N is never below
        # smallest_precision.  Retries past _MAX_N are dropped
        n = max(default_precision(degree), 4 * (disc.k + disc.ell) + 1)
        schedule = [n]
        for _ in range(3):
            n += max(16, n // 4)
            if n <= _MAX_N:
                schedule.append(n)
    check_precision(disc, schedule[0])
    if schedule[0] > _MAX_N:
        raise InputError("precision N=%d is too large for the kernel rows of "
                         "delta=%d; the largest valid N is %d"
                         % (schedule[0], delta, _MAX_N))
    # each top-degree orbit adds an unknown past ends[degree-1], the largest
    # count of multiples (`_ambiguity`), and there are at least
    # C(degree+2, 2) / width of them: if they outnumber the ceil(N/4)^2
    # equations, only a plain AmbiguousKernel could follow
    top, m = math.comb(degree + 2, 2), -(-schedule[0] // 4)
    width = 1 + len(_SYMMETRIES[symmetry])
    if top > m * m * width:
        raise AmbiguousKernel(
            "degree %d for delta=%d at N=%d has %d top-degree monomials, "
            "more than the %d lattice points times the orbit width %d: the "
            "kernel dimension exceeds every count of multiples; the "
            "precision is too small for this degree"
            % (degree, delta, schedule[0], top, m * m, width),
            degree=degree, delta=delta, precision=schedule[0])
    unknowns = _unknown_count(degree, symmetry)
    if unknowns > _MAX_UNKNOWNS:
        raise InputError(
            "degree %d for delta=%d has %d unknowns, more than the %d that "
            "the float64 elimination admits (n(p-1)^2 + p < 2^53)"
            % (degree, delta, unknowns, _MAX_UNKNOWNS))
    basis = monomial_basis(degree, symmetry)
    known = None  # (N, the first prime's kernel at N) of the last attempt
    for n in schedule:
        ros = rosenhain_triple(disc, n + 8)
        cut = RosenhainSeries(*(e.truncate(n) for e in ros.series()), disc, n)
        kernel = _kernel_mod(cut, basis, _PRIMES[0], known)
        known = n, kernel
        try:
            report = _find_relation_on(ros, cut, basis, kernel)
            report.symmetry_used = symmetry is not None
            return report
        except ImprimitiveKernel:
            raise  # more precision leaves this kernel as it is
        except AmbiguousKernel as exc:
            last = exc
    raise last


def _find_relation_on(ros, cut, basis, kernel):
    """One search for the orbits `basis` on `cut`, the truncation of the
    Rosenhain triple `ros` to the kernel's precision n, from `kernel`, the
    first prime's kernel there.

    Nullity 0 at any prime, or above 1 at the first (the bound `_ambiguity`
    needs), decides the answer; a later prime with nullity above 1 lost
    rank and is skipped.  After every prime with nullity 1, from the first
    on, the kernel is lifted from all of them so far, and a lift that
    reconstructs inside the bound of `_lift_kernel_vector` is rechecked
    exactly: a pass is the relation, whatever the count of primes, since
    the first prime's nullity 1 bounds the rational kernel.  A failed
    recheck is refused, and it ends the search, with the same
    AmbiguousKernel, when the lift had three or more primes or equals the
    lift refused before; otherwise the next prime joins.  Reconstruction
    failing at all six primes is an AmbiguousKernel too.
    """
    disc = ros.disc
    delta, n = disc.delta, cut.precision
    degree = sum(basis[-1][0])
    vecs, primes, rejected = [], [], None
    for p in _PRIMES:
        ker = kernel if p == _PRIMES[0] else _kernel_mod(cut, basis, p)
        if len(ker) == 0:
            raise NoRelation("no relation of degree %d for delta=%d at N=%d"
                             % (degree, delta, n))
        if len(ker) > 1:
            if not vecs:
                raise _ambiguity(ros, cut, basis, ker)
            continue  # this prime lost rank
        v = ker[0]
        vecs.append(v * pow(int(v[np.flatnonzero(v)[0]]), p - 2, p) % p)
        primes.append(p)
        vec = _lift_kernel_vector(vecs, primes)
        if vec is None:
            continue
        # each orbit writes its coefficient to every monomial in it, so a
        # nonzero vector never cancels
        poly = MultiPoly({t: c for c, orbit in zip(vec, basis) for t in orbit})
        if poly != rejected:
            # exact recheck at N and at the triple's precision from one
            # evaluation: the value at N is the truncation of the value on
            # the triple
            value = eval_on_series(poly, ros)
            checks = [(n, value.truncate(n).is_zero()),
                      (ros.precision, value.is_zero())]
        failed = [m for m, ok in checks if not ok]
        if not failed:
            break
        if len(vecs) > 2 or poly == rejected:
            raise AmbiguousKernel(
                "candidate relation of degree %d for delta=%d from the kernel "
                "at N=%d failed the exact recheck at N=%d; precision too "
                "small for a trustworthy kernel" % (degree, delta, n,
                                                    failed[0]),
                degree=degree, delta=delta, precision=n,
                residual_checks=checks)
        rejected = poly
    else:
        raise AmbiguousKernel("rational reconstruction failed with %d "
                              "primes; kernel not stable across primes"
                              % len(_PRIMES))
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
            residual_checks=checks) from None
    return RelationReport(disc=disc, degree=degree, precision=n,
                          kernel_dim=1, polynomial=poly,
                          monomial_count=len(basis), residual_checks=checks)


def _ambiguity(ros, cut, basis, kernel):
    """The error for the first prime's kernel `kernel` of the orbits `basis`
    on `cut`, of nullity dim > 1: ImprimitiveKernel if dim is exactly the
    count of multiples of an exactly rechecked relation g of lower degree k,
    else AmbiguousKernel.  The orbits of degree <= j are the prefix
    basis[:ends[j]].

    The invariant multiples m*g with deg m <= degree - k are independent and
    vanish wherever g does, so they bound the rational nullity from below by
    ends[degree - k].  dim, the nullity at the first prime, bounds it from
    above, so when the two are equal the kernel is exactly the multiples of
    g.  The counts strictly decrease in k, so at most one k matches.  The
    first prime's degree-k kernel is the part of span `kernel` where the
    unknowns past the prefix vanish (`_within`); only dimension 1 can give
    g, which is then searched for on the prefix from it and rechecked.
    """
    disc = ros.disc
    n, dim = cut.precision, len(kernel)
    degree = sum(basis[-1][0])
    fields = dict(kernel_dim=dim, degree=degree, delta=disc.delta,
                  precision=n)
    ends = {sum(orbit[0]): i + 1 for i, orbit in enumerate(basis)}
    counts = {ends[degree - k]: k for k in range(1, degree)}
    k = counts.get(dim)
    prefix = ([] if k is None else
              _within(slice(ends[k], None), kernel, _PRIMES[0])[:, :ends[k]])
    if len(prefix) == 1:
        try:
            factor = _find_relation_on(ros, cut, basis[:ends[k]],
                                       prefix).polynomial
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
