"""Exact arithmetic in the truncated power-series ring Z[[p,q]]/(p^N, q^N).

Series are stored sparsely as a map from exponent pairs (i, j) to nonzero
Python int coefficients.  The constructor accepts only integers (anything
`operator.index` takes), so integrality is a property of the type: a rational
coefficient is a TypeError, never a value to check for later.
"""

import operator


class NotAUnit(ArithmeticError):
    """Constant term is not +-1, so the series has no inverse in Z[[p,q]]."""


class NotDivisible(ArithmeticError):
    """A term blocks exact division by a monomial."""


class TruncatedSeries:
    """A residue of a bivariate power series modulo (p^N, q^N)."""

    __slots__ = ("precision", "terms")

    def __init__(self, terms, precision):
        if precision < 1:
            raise ValueError("precision must be >= 1")
        self.precision = precision
        clean = {}
        index = operator.index
        for (i, j), c in terms.items():
            if i >= precision or j >= precision:
                continue
            if i < 0 or j < 0:
                raise ValueError("negative exponent (%d, %d)" % (i, j))
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
            raise ValueError("cannot raise precision %d to %d"
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

    def __neg__(self):
        return TruncatedSeries({k: -c for k, c in self.terms.items()},
                               self.precision)

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = min(self.precision, other.precision)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        # bucket the larger operand by p-exponent, columns sorted, so the
        # truncation cutoff turns into loop breaks instead of per-term tests
        rows = {}
        for (i, j), c in b.items():
            rows.setdefault(i, []).append((j, c))
        rows = sorted((i, sorted(cols)) for i, cols in rows.items())
        out = {}
        get = out.get
        for (i1, j1), c1 in a.items():
            imax = n - i1
            jmax = n - j1
            for i2, cols in rows:
                if i2 >= imax:
                    break
                i = i1 + i2
                for j2, c2 in cols:
                    if j2 >= jmax:
                        break
                    k = (i, j1 + j2)
                    v = get(k)
                    out[k] = c1 * c2 if v is None else v + c1 * c2
        return TruncatedSeries(out, n)

    def inverse(self):
        """Multiplicative inverse in the quotient ring.

        The units of Z[[p,q]] are the series with constant term +-1; the
        inverse is then unique and the geometric series of the paper trick
        converges to it, so we may solve for it coefficient by coefficient in
        graded order instead (same result, one convolution's worth of work).
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
        for s in range(1, 2 * n - 1):
            lo = max(0, s - n + 1)
            hi = min(s, n - 1)
            for i in range(lo, hi + 1):
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
