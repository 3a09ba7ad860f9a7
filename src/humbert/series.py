"""Exact arithmetic in the truncated power-series ring Z[[p,q]]/(p^N, q^N).

Series are stored sparsely as a map from exponent pairs (i, j) to nonzero
Python int coefficients.  The constructor accepts only integers (anything
`operator.index` takes), so integrality is a property of the type: a rational
coefficient is a TypeError, never a value to check for later.

Products, and `poly.eval_on_series`, are found exactly from their residues
modulo word-size primes on an exponent grid (`_exact_grid`); `inverse` is
a graded solve over the term map.
"""

import itertools
import math
import operator

import numpy as np
from numpy.lib.stride_tricks import as_strided


class InputError(ValueError):
    """An input that a documented check refuses: the CLI's exit 1."""


class NotAUnit(ArithmeticError):
    """Constant term is not +-1, so the series has no inverse in Z[[p,q]]."""


class NotDivisible(ArithmeticError):
    """A term blocks exact division by a monomial."""


class TruncatedSeries:
    """A residue of a bivariate power series modulo (p^N, q^N)."""

    __slots__ = ("precision", "terms")

    def __init__(self, terms, precision):
        if precision < 1:
            raise InputError("precision must be >= 1")
        self.precision = precision
        clean = {}
        index = operator.index
        for (i, j), c in terms.items():
            if i < 0 or j < 0:
                raise InputError("negative exponent (%d, %d)" % (i, j))
            if i >= precision or j >= precision:
                continue
            c = index(c)
            if c:
                clean[(i, j)] = c
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def one(cls, precision):
        return cls({(0, 0): 1}, precision)

    # -- basic queries ------------------------------------------------

    def constant_term(self):
        return self.terms.get((0, 0), 0)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.precision == other.precision and self.terms == other.terms

    def truncate(self, precision):
        """The image modulo (p^n, q^n) for n = `precision` <= N."""
        if precision > self.precision:
            raise InputError("cannot raise precision %d to %d"
                             % (self.precision, precision))
        return TruncatedSeries(self.terms, precision)

    def __repr__(self):
        n = len(self.terms)
        return "TruncatedSeries(N=%d, %d terms)" % (self.precision, n)

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = min(self.precision, other.precision)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return TruncatedSeries(out, n)

    def __mul__(self, other):
        """The exact product: one `_grid_product` by the operand with fewer
        terms, under `_exact_grid`."""
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        a, b = sorted((self.terms, other.terms), key=len)
        return _exact_grid((a, b), min(self.precision, other.precision),
                           lambda grid, weight, mods: [_grid_product(
                               grid(1), _toeplitz(grid(0)), mods)])[0]

    def inverse(self):
        """Multiplicative inverse in the quotient ring.

        The units of Z[[p,q]] are the series with constant term +-1; the
        inverse is then unique and the geometric series of the paper trick
        converges to it, so we may solve for it coefficient by coefficient in
        graded order instead (same result, one convolution's worth of work).
        Every exponent of the inverse is a sum of the series' exponents, so
        the solve visits only the points of gZ x gZ, g their gcd.
        """
        c0 = self.constant_term()
        if c0 not in (1, -1):
            raise NotAUnit("constant term %d is not +-1" % c0)
        n = self.precision
        inv_c0 = c0  # +-1 is its own inverse
        rest = [(k, c) for k, c in self.terms.items() if k != (0, 0)]
        out = {(0, 0): inv_c0}
        # acc[(i, j)] accumulates sum of f[a,b] * g[i-a, j-b] over known g
        acc = {}

        def propagate(key, g_val):
            gi, gj = key
            for (fi, fj), fc in rest:
                i, j = gi + fi, gj + fj
                if i >= n or j >= n:
                    continue
                acc[(i, j)] = acc.get((i, j), 0) + fc * g_val
        propagate((0, 0), inv_c0)
        g = math.gcd(*(i for k in self.terms for i in k)) or n
        for s in range(g, 2 * n - 1, g):
            lo = max(0, s - n + 1)
            for i in range(lo + -lo % g, min(s, n - 1) + 1, g):
                key = (i, s - i)
                a = acc.pop(key, 0)
                if not a:
                    continue
                g_val = -a * inv_c0
                out[key] = g_val
                propagate(key, g_val)
        return TruncatedSeries(out, n)

    def divide_monomial(self, i, j):
        """Exact quotient by p^i q^j.

        Every term must carry at least that monomial.  The result keeps the
        precision N, but it is the true quotient only below N - i in p and
        N - j in q: the terms of the operand beyond its truncation are
        unknown.  A caller that needs the quotient to N expands the operand
        to N + max(i, j) and truncates the result.
        """
        out = {}
        for (a, b), c in self.terms.items():
            if a < i or b < j:
                raise NotDivisible(
                    "term p^%d q^%d not divisible by p^%d q^%d" % (a, b, i, j))
            out[(a - i, b - j)] = c
        return TruncatedSeries(out, self.precision)


# -- serialization ----------------------------------------------------

def series_to_record(f):
    """JSON-ready record: {precision, terms: sorted [i, j, "n/1"]}."""
    terms = [[i, j, "%d/1" % f.terms[(i, j)]] for (i, j) in sorted(f.terms)]
    return {"precision": f.precision, "terms": terms}


# -- exact products on the residue grid ---------------------------------

_WORD_PRIMES = []  # the primes above 2^20 found so far, ascending


def word_primes():
    """The consecutive primes above 2^20, ascending, without end.  Each is
    found by trial division once per process and kept in `_WORD_PRIMES`."""
    for k in itertools.count():
        if k == len(_WORD_PRIMES):
            p = _WORD_PRIMES[-1] + 2 if _WORD_PRIMES else 2 ** 20 + 1
            while not all(p % d for d in range(3, math.isqrt(p) + 1, 2)):
                p += 2
            _WORD_PRIMES.append(p)
        yield _WORD_PRIMES[k]


def _exact_grid(series, n, compute):
    """The k exact series mod (p^n, q^n) that compute(grid, weight, mods)
    forms from the term maps `series`, cut below n.

    grid(i) builds series[i] on the m x m grid of sZ x sZ (s the gcd of
    their exponents, 4 on every Rosenhain triple and 1 on a generic series,
    or n; m = ceil(n/s)), each coefficient as its layers under weight, which
    maps j integers to a (layers, j) array.  compute only adds and
    multiplies and returns a list of k (layers, m, m) outputs.  It runs
    twice, or three times past the float range.  First on absolute values
    in float64, mods None: each rounding to nearest of a nonnegative value
    multiplies it by at least 1 - 2^-53, so after K << 2^52 steps the
    computed majorant is at least (1 - 2^-53)^K > 1/2 of the true one, and
    B, twice it, bounds every output coefficient.  A coefficient past the
    float range, or a majorant not below 2^1000 (inf and nan too), makes B
    the largest output of a run, exact, on the l1 norms of the series as
    1 x 1 grids of Python ints.  Then on residues, mods the primes as
    (layers, 1, 1): the consecutive primes above 2^20 whose product M
    first exceeds 2B + 1.  One CRT maps each cell of the outputs to the
    integer below M/2 in absolute value with its residues: the exact
    coefficient.
    """
    series = [{k: c for k, c in e.items() if max(k) < n} for e in series]
    s = math.gcd(*(i for e in series for k in e for i in k)) or n
    m = -(-n // s)

    def run(maps, m, weight, mods=None):
        return compute(lambda i: _grid(maps[i], s, m, weight), weight, mods)

    def absolute(dtype):
        return lambda cs: np.array([[abs(c) for c in cs]], dtype)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            # np.max keeps a nan (inf * 0) of any output; max() may not
            top = np.max(run(series, m, absolute(np.float64)))
    except OverflowError:  # a coefficient past 2^1024
        top = math.inf
    if top < 2.0 ** 1000:
        bound = math.ceil(2 * top)
    else:  # inf and nan too
        bound = np.max(run([{(0, 0): sum(map(abs, e.values()))}
                            for e in series], 1, absolute(object)))
    primes, more = [], word_primes()
    while math.prod(primes) <= 2 * bound + 1:
        primes.append(next(more))
    mods = np.array(primes, dtype=np.float64).reshape(-1, 1, 1)
    grids = np.stack(run(series, m, _residues(primes), mods), axis=1)
    outs = [{} for _ in range(grids.shape[1])]
    for k, v in _crt_symmetric(grids.astype(np.int64), primes, bound).items():
        outs[k // m ** 2][(k // m % m * s, k % m * s)] = v
    return [TruncatedSeries(terms, n) for terms in outs]


def _residues(primes):
    """The weight of a residue pass: j integers to a (primes, j) array."""
    return lambda coefs: np.array([[c % p for c in coefs] for p in primes],
                                  dtype=np.float64)


def _mod_chunk(m, p):
    """The most blocks c of an m x m `_grid_product` mod p to sum unreduced
    onto a residue: a block adds at most m (p-1)^2 to a cell, so
    c m (p-1)^2 + 2p < 2^53 keeps every value v an exact float64 integer
    with v + p < 2^53, as `_reduce` needs; c >= 1 is asserted."""
    c = (2 ** 53 - 1 - 2 * p) // (m * (p - 1) ** 2)
    assert c >= 1, "float64 grid product inexact mod %d" % p
    return c


def _reduce(v, mods):
    """v mod the primes mods (a number, or (layers, 1, 1)) in place, as
    v - p floor(v/p); v itself if mods is None.  The float64 integers v
    must lie in [0, 2^53 - p), as asserted.  Then floor(v/p) is exact: v/p
    lies j/p below k = floor(v/p) + 1, 1 <= j <= p, and rounding it up to
    k would need j/p <= k 2^-53, that is j <= (v + j) 2^-53 < 1."""
    if mods is None:
        return v
    assert v.max() < 2 ** 53 - np.max(mods), "float64 residue past 2^53 - p"
    q = v / mods
    np.floor(q, out=q)
    q *= mods
    v -= q
    return v


def _grid(e, s, m, weight):
    """The term map e on sZ x sZ as a (layers, m, m) float64 array: the
    term c p^i q^j sits in cell (i/s, j/s) as the layers of weight([c])."""
    assert all(i % s == 0 and j % s == 0 for i, j in e), \
        "term off the %dZ x %dZ lattice" % (s, s)
    w = weight(list(e.values()))
    out = np.zeros((len(w), m, m), w.dtype)
    out[:, [i // s for i, _ in e], [j // s for _, j in e]] = w
    return out


def _toeplitz(grid):
    """The (layers, m, m) grid E as the multiplier of `_grid_product`: the
    Toeplitz blocks T_di[j', j] = E[di, j - j'] (0 for j < j') of its rows,
    a strided view of E left-padded by m - 1 zeros, never stored (von zur
    Gathen and Gerhard, Modern Computer Algebra, ch. 8), and the indices di
    of its nonzero rows."""
    layers, m, _ = grid.shape
    padded = np.zeros((layers, m, 2 * m - 1), grid.dtype)
    padded[..., m - 1:] = grid
    layer, row, col = padded.strides
    return (as_strided(padded[..., m - 1:], (layers, m, m, m),
                       (layer, row, -col, col), writeable=False),
            np.flatnonzero(grid.any(axis=(0, 2))).tolist())


def _grid_product(acc, factor, mods, add=None):
    """add + acc times a `_toeplitz` factor E on the m x m grid, truncated to
    it, in every layer (or acc of k layers against one): one float64 matmul
    out[:, di:] += acc[:, :m - di] @ T_di per listed row di of E, summed
    into add itself (a fresh zero grid if add is None).  With mods, acc, E
    and add hold residues, and the sum is reduced (`_reduce`) after every
    `_mod_chunk` blocks and once at the end (Dumas, Giorgi and Pernet,
    FFLAS-FFPACK)."""
    blocks, rows = factor
    m = acc.shape[-1]
    chunk = None if mods is None else _mod_chunk(m, int(np.max(mods)))
    out = np.zeros_like(acc) if add is None else add
    for k, di in enumerate(rows):
        if chunk and k and k % chunk == 0:
            _reduce(out, mods)
        out[:, di:] += acc[:, :m - di] @ blocks[:, di]
    return _reduce(out, mods)


def _crt(columns, primes):
    """M, the product of the primes, and for each column (one int residue
    per prime) the residue mod M with those residues."""
    mod = math.prod(primes)
    basis = [mod // p * pow(mod // p, -1, p) for p in primes]
    return mod, [sum(map(operator.mul, col, basis)) % mod for col in columns]


def _crt_symmetric(residues, primes, bound):
    """The nonzero integers of absolute value at most `bound` with the
    residues of the int64 (primes, ...) array, as a map from flat grid
    index to value.  The product M of the primes must exceed 2 bound + 1:
    then the symmetric residue mod M, in (-M/2, M/2), is the integer."""
    flat = residues.reshape(len(primes), -1)
    cells = np.flatnonzero(flat.any(axis=0))
    mod, values = _crt(zip(*flat[:, cells].tolist()), primes)
    assert mod > 2 * bound + 1, "CRT modulus too small for the bound"
    return {k: v - mod if v > mod // 2 else v
            for k, v in zip(cells.tolist(), values)}
