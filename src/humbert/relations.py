"""Finding the defining polynomial of a Humbert component.

Evaluate all monomials of degree at most d in the Rosenhain expansions and
find the linear dependency between their coefficient vectors, exactly.

The kernel may be computed through a multi-modular fast path (nullspace mod
a few word-size primes, CRT lift, rational reconstruction), but a candidate
relation is only ever accepted after an exact recheck: the reconstructed
polynomial must evaluate to the identical zero series, and a mandatory
confirmation pass repeats that on a fresh triple at precision N + 8.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .poly import MultiPoly, eval_on_series
from .rosenhain import rosenhain_triple
from .theta import NotAdmissible, humbert_params

# primes just above 2^20, small enough that mod-p convolutions accumulate
# without int64 overflow
_PRIMES = (1048583, 1048589, 1048601, 1048609, 1048613, 1048627)


class NoRelation(RuntimeError):
    """Kernel is zero: no relation at this degree (or precision wasted)."""


class AmbiguousKernel(RuntimeError):
    """Kernel dimension exceeds 1: increase the precision so the number of
    monomials stays below the usable column count."""


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


def _monomial_rows_exact(rosenhain, basis, symmetry):
    """Exact coefficient rows (dicts keyed by exponent pair), one per basis
    element, orbit-summed under the symmetry."""
    heights = [max(k[i] for k in basis) for i in range(3)]
    if symmetry == "e1e2":
        heights[0] = heights[1] = max(heights[0], heights[1])
    pows = [_ladder(e, heights[i])
            for i, e in enumerate(rosenhain.series())]
    rows = []
    for (a, b, c) in basis:
        s = pows[0][a] * pows[1][b] * pows[2][c]
        terms = dict(s.terms)
        if symmetry == "e1e2" and a != b:
            t = pows[0][b] * pows[1][a] * pows[2][c]
            for k, v in t.terms.items():
                nv = terms.get(k, 0) + v
                if nv:
                    terms[k] = nv
                elif k in terms:
                    del terms[k]
        rows.append(terms)
    return rows


def _ladder(f, d):
    pows = [None] * (d + 1)
    pows[0] = f.__class__.one(f.precision)
    for i in range(1, d + 1):
        pows[i] = pows[i - 1] * f
    return pows


def build_matrix(rosenhain, basis, symmetry=None):
    """Exact sparse matrix: one row per basis monomial, columns indexed by
    the union of occurring exponent pairs (sorted).  Returns (rows, columns)
    where rows are dense lists of integers."""
    if not basis:
        raise ValueError("basis must be nonempty")
    row_dicts = _monomial_rows_exact(rosenhain, basis, symmetry)
    columns = sorted(set().union(*row_dicts) if row_dicts else set())
    col_index = {c: i for i, c in enumerate(columns)}
    rows = []
    for terms in row_dicts:
        row = [0] * len(columns)
        for k, v in terms.items():
            row[col_index[k]] = v
        rows.append(row)
    return rows, columns


def kernel(rows):
    """Basis of the left nullspace of the row matrix, exactly.

    Vectors v with sum_i v[i] * rows[i] = 0, scaled to coprime integers with
    positive first nonzero entry, in a deterministic order.
    """
    m = len(rows)
    if m == 0:
        return []
    n = len(rows[0])
    # nullspace of the transpose: columns of the row-matrix give equations
    mat = [[Fraction(rows[i][j]) for i in range(m)] for j in range(n)]
    pivots = []
    r = 0
    for c in range(m):
        pivot = None
        for i in range(r, n):
            if mat[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(n):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == n:
            break
    free = [c for c in range(m) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * m
        v[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            v[pc] = -mat[ri][fc]
        basis.append(_to_coprime(v))
    return basis


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


# -- multi-modular fast path ---------------------------------------------


def _series_to_grid(f, n, p):
    a = np.zeros((n, n), dtype=np.int64)
    for (i, j), c in f.terms.items():
        a[i, j] = c % p
    return a


def _grid_mul(f, g, p):
    n = f.shape[0]
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


def find_relation(delta, degree, precision=None, symmetry=None,
                  use_modular=None):
    """Search for the degree-`degree` relation among the Rosenhain series.

    Returns a RelationReport with the canonical polynomial when the kernel
    is one-dimensional.  Raises NoRelation (kernel 0) or AmbiguousKernel
    (kernel dimension > 1, i.e. precision too small).
    """
    disc = humbert_params(delta)
    if delta < 4:
        raise NotAdmissible("relation finding needs delta >= 4")
    if precision is not None:
        return _find_relation_at(disc, degree, precision, symmetry,
                                 use_modular)
    # the (N/4)^2 column heuristic undershoots for some discriminants, and
    # an undersized N only ever shows up as a too-large kernel; escalate
    # until the kernel is separated (every accepted vector is still
    # rechecked exactly, so this is purely a policy loop)
    n = default_precision(degree)
    last = None
    for _ in range(4):
        try:
            return _find_relation_at(disc, degree, n, symmetry, use_modular)
        except AmbiguousKernel as exc:
            last = exc
            n += max(16, n // 4)
    raise last


def _find_relation_at(disc, degree, precision, symmetry, use_modular):
    delta = disc.delta
    n = precision
    basis = monomial_basis(degree, symmetry)
    if use_modular is None:
        use_modular = len(basis) > 150 or n > 80
    ros = rosenhain_triple(disc, n)

    if use_modular:
        dim, vec = _modular_kernel(ros, basis, symmetry)
    else:
        rows, _ = build_matrix(ros, basis, symmetry)
        ker = kernel(rows)
        dim = len(ker)
        vec = ker[0] if dim == 1 else None

    report = RelationReport(disc=disc, degree=degree, precision=n,
                            kernel_dim=dim,
                            monomial_count=len(basis),
                            symmetry_used=symmetry is not None)
    if dim == 0:
        raise NoRelation("no relation of degree %d for delta=%d at N=%d"
                         % (degree, delta, n))
    if dim > 1:
        raise AmbiguousKernel(
            "kernel dimension %d at degree %d for delta=%d; increase the "
            "precision (monomial count must stay below the usable columns)"
            % (dim, degree, delta))
    poly = _poly_from_vector(vec, basis, symmetry)
    if poly is None:
        raise NoRelation("kernel vector cancelled to the zero polynomial")

    # exact residual check at the working precision
    ok_n = _vanishes(poly, ros)
    report.residual_checks.append((n, ok_n))
    # mandatory confirmation on a fresh triple at N + 8
    ros2 = rosenhain_triple(disc, n + 8)
    ok_n8 = _vanishes(poly, ros2)
    report.residual_checks.append((n + 8, ok_n8))
    if not (ok_n and ok_n8):
        raise AmbiguousKernel(
            "candidate relation failed the exact recheck; precision too "
            "small for a trustworthy kernel")
    report.polynomial = poly
    return report


def _vanishes(poly, ros):
    return eval_on_series(poly, ros).is_zero()


def _modular_kernel(ros, basis, symmetry):
    """Kernel dimension and (dim 1 only) lifted integer vector, mod primes."""
    primes = _PRIMES[:3]
    vecs = []
    dims = []
    for p in primes:
        mat = _monomial_rows_mod(ros, basis, symmetry, p)
        # unknowns are the monomial coefficients: solve mat^T v = 0 with
        # equations indexed by series coefficients
        ker = _nullspace_mod(mat.T, p)
        dims.append(len(ker))
        if len(ker) == 1:
            v = ker[0]
            nz = next(i for i in range(len(v)) if v[i])
            inv = pow(int(v[nz]), p - 2, p)
            vecs.append((v * inv) % p)
    # a prime that lost rank shows a larger nullity; trust the smallest
    # (never undercounts fatally since any accepted vector is rechecked
    # exactly)
    dim = min(dims)
    if dim != 1:
        return dim, None
    lifted = _lift_kernel_vector(vecs, [p for p, d in zip(primes, dims)
                                        if d == 1])
    if lifted is None:
        raise AmbiguousKernel("rational reconstruction failed; kernel not "
                              "stable across primes")
    return 1, lifted
