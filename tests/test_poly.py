"""Tests for sparse trivariate integer polynomials."""

import ast
import random
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import humbert
from humbert.poly import (_DEGENERATE_LOCI, DegenerateOnly, MultiPoly,
                          ParseError, ZeroPolynomial,
                          degenerate_factors, divide_degenerate, eval_complex,
                          eval_on_series, format_poly, parse_poly,
                          strip_degenerate_factors, substitute_rational)
from humbert.rosenhain import rosenhain_triple
from humbert.series import TruncatedSeries
from humbert.theta import humbert_params

rng = random.Random(424242)


def random_poly(max_terms=6, max_exp=4):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        key = (rng.randrange(max_exp), rng.randrange(max_exp),
               rng.randrange(max_exp))
        terms[key] = terms.get(key, 0) + rng.randint(-9, 9)
    terms = {k: c for k, c in terms.items() if c}
    if not terms:
        terms = {(1, 0, 0): 1}
    return MultiPoly(terms)


def random_series_triple(n=6):
    out = []
    for _ in range(3):
        terms = {(rng.randrange(n), rng.randrange(n)): rng.randint(-4, 4)
                 for _ in range(5)}
        out.append(TruncatedSeries(terms, n))
    return SimpleNamespace(e1=out[0], e2=out[1], e3=out[2])


def test_normalize_idempotent_randomized():
    for _ in range(200):
        f = random_poly()
        assert MultiPoly(dict(f.terms)) == f
        lam = rng.choice((-1, 1)) * rng.randint(1, 7)
        scaled = {k: c * lam for k, c in f.terms.items()}
        assert MultiPoly(scaled) == f


def test_normalize_sign_convention():
    f = MultiPoly({(1, 0, 0): -2, (0, 0, 0): 4})
    # grlex-leading coefficient must be positive, content 1
    assert f.terms == {(1, 0, 0): 1, (0, 0, 0): -2}


def test_zero_polynomial_rejected():
    with pytest.raises(ZeroPolynomial):
        MultiPoly({})
    with pytest.raises(ZeroPolynomial):
        MultiPoly({(1, 1, 0): 0})


def test_coefficients_must_be_integers():
    # integrality is a property of the type: a rational or a float
    # coefficient is refused even when its value is an integer
    with pytest.raises(TypeError):
        MultiPoly({(1, 0, 0): Fraction(4, 2)})
    with pytest.raises(TypeError):
        MultiPoly({(1, 0, 0): 2.0})
    f = MultiPoly({(1, 0, 0): np.int64(2), (0, 0, 0): np.int64(-6)})
    assert f.terms == {(1, 0, 0): 1, (0, 0, 0): -3}
    assert all(type(c) is int for c in f.terms.values())


def test_no_module_imports_fractions():
    # rational numbers appear only inside rational reconstruction, which
    # returns (numerator, denominator) int pairs
    paths = sorted(Path(humbert.__file__).parent.glob("*.py"))
    assert paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            for module in modules:
                assert module.split(".")[0] != "fractions", path.name


def test_eval_on_series_is_ring_homomorphism():
    for _ in range(50):
        f = random_poly(4, 3)
        g = random_poly(4, 3)
        triple = random_series_triple()
        fg = MultiPoly(_raw_mul_terms(f.terms, g.terms))
        lhs = eval_on_series(fg, triple)
        rhs = eval_on_series(f, triple) * eval_on_series(g, triple)
        # MultiPoly normalizes by content, so compare up to the scalar
        # num/den, cleared to integers on both sides
        num, den = _content_ratio(f, g, fg)
        n = lhs.precision
        assert (lhs * TruncatedSeries.constant(num, n)
                == rhs * TruncatedSeries.constant(den, n))


def _naive_eval(f, triple):
    """sum of coef * e1^a * e2^b * e3^c, each power by repeated products."""
    es = (triple.e1, triple.e2, triple.e3)
    n = min(e.precision for e in es)
    total = TruncatedSeries.zero(n)
    for (a, b, c), coef in f.terms.items():
        term = TruncatedSeries.constant(coef, n)
        for e, k in zip(es, (a, b, c)):
            for _ in range(k):
                term = term * e
        total = total + term
    return total


_PRECISION = st.shared(st.integers(1, 7), key="precision")
_SERIES = _PRECISION.flatmap(lambda n: st.builds(
    TruncatedSeries,
    st.dictionaries(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                    st.integers(-5, 5), max_size=8),
    st.just(n)))
_TRIPLES = st.builds(lambda e1, e2, e3: SimpleNamespace(e1=e1, e2=e2, e3=e3),
                     _SERIES, _SERIES, _SERIES)
_POLYS = st.dictionaries(
    st.tuples(*[st.integers(0, 4)] * 3), st.integers(-30, 30).filter(bool),
    min_size=1, max_size=12).map(MultiPoly)
# distinct units with constant term 1
_UNITS = SimpleNamespace(
    e1=TruncatedSeries({(0, 0): 1, (1, 0): 2, (0, 3): -1}, 5),
    e2=TruncatedSeries({(0, 0): 1, (0, 1): -3}, 5),
    e3=TruncatedSeries({(0, 0): 1, (2, 2): 4, (4, 1): 1}, 5))


@settings(max_examples=300, deadline=None)
@given(_POLYS, _TRIPLES)
@example(MultiPoly({(0, 0, 0): 7}), _UNITS)                 # constant
@example(MultiPoly({(0, 3, 1): 2, (0, 0, 2): -1}), _UNITS)  # free of e1
@example(MultiPoly({(2, 0, 4): 3, (1, 0, 0): 1}), _UNITS)   # free of e2
@example(MultiPoly({(4, 0, 0): 1, (0, 0, 0): 5}), _UNITS)   # only e1
def test_eval_on_series_matches_naive_powers(f, triple):
    value = eval_on_series(f, triple)
    assert value == _naive_eval(f, triple)
    if f.is_constant():
        assert value.terms == {(0, 0): f.terms[(0, 0, 0)]}
    if triple is _UNITS:
        # the constant term of the value is the coefficient sum, non-zero
        # in each example
        assert value.constant_term() == sum(f.terms.values()) != 0


def test_eval_on_series_product_count(monkeypatch):
    # Horner costs max(d3 - 1, 0) + sum_a B_a + d1 products: 70 for h12,
    # where one product per term and per (a, b) prefix took 304
    import importlib.resources as ir
    h12 = parse_poly((ir.files("humbert") / "data" / "h12.txt").read_text())
    triple = rosenhain_triple(humbert_params(12), 24)
    calls = []
    mul = TruncatedSeries.__mul__

    def counting(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(TruncatedSeries, "__mul__", counting)
    assert eval_on_series(h12, triple).is_zero()
    assert len(calls) <= 70


def test_eval_on_series_horner_steps_multiply_by_the_sparser_series(
        monkeypatch):
    # on the Delta = 12 triple e1 is much sparser than e2, so the 55 inner
    # Horner steps of h12 multiply by e1 and only its d2 = 8 outer ones by e2
    import importlib.resources as ir
    h12 = parse_poly((ir.files("humbert") / "data" / "h12.txt").read_text())
    triple = rosenhain_triple(humbert_params(12), 24)
    sparse, dense = triple.e1, triple.e2
    assert len(sparse.terms) < len(dense.terms)
    factors = []
    mul = TruncatedSeries.__mul__

    def recording(self, other):
        factors.append(other)
        return mul(self, other)

    monkeypatch.setattr(TruncatedSeries, "__mul__", recording)
    assert eval_on_series(h12, triple).is_zero()
    assert sum(f is sparse for f in factors) == 55
    assert sum(f is dense for f in factors) == h12.degree_in(1) == 8


def _raw_mul_terms(f, g):
    out = {}
    for (a1, b1, c1), x in f.items():
        for (a2, b2, c2), y in g.items():
            key = (a1 + a2, b1 + b2, c1 + c2)
            out[key] = out.get(key, 0) + x * y
    return {k: v for k, v in out.items() if v}


def _content_ratio(f, g, fg):
    # normalization scalar num/den linking normalized product to product of
    # normalized factors, recovered from any shared monomial
    key = next(iter(fg.terms))
    prod = _raw_mul_terms(f.terms, g.terms)
    return prod[key], fg.terms[key]


def test_eval_complex_matches_series_eval_at_numbers():
    for _ in range(100):
        f = random_poly()
        z = tuple(complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                  for _ in range(3))
        direct = sum(c * z[0] ** a * z[1] ** b * z[2] ** d
                     for (a, b, d), c in f.terms.items())
        assert abs(eval_complex(f, z) - direct) <= 1e-9 * max(
            1.0, abs(direct))


def test_parse_format_round_trip_randomized():
    for _ in range(200):
        f = random_poly()
        assert parse_poly(format_poly(f)) == f


def test_parse_variants():
    f = parse_poly("e_1^2 - e_2")
    assert f == MultiPoly({(2, 0, 0): 1, (0, 1, 0): -1})
    assert parse_poly("e_{1}^{2} - e_{2}") == f
    assert parse_poly("-e_2 + e_1^2") == f
    assert parse_poly("2e_1e_2e_3") == MultiPoly({(1, 1, 1): 2})
    # an explicit "*" may join factors and follow an integer
    assert parse_poly("e_1*e_1 - e_2") == f
    assert parse_poly("2*e_1 * e_2*e_3^{2} - e_3") == MultiPoly(
        {(1, 1, 2): 2, (0, 0, 1): -1})


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        parse_poly("e_1 + @")
    with pytest.raises(ParseError):
        parse_poly("e_1^")
    with pytest.raises(ParseError):
        parse_poly("")
    # a "*" needs a factor or integer on its left and a factor on its right
    for text, pos in (("*e_1", 0), ("e_1 - *e_2", 6), ("e_1*", 3),
                      ("e_1* - e_2", 3), ("e_1**e_2", 3), ("2*3", 1)):
        with pytest.raises(ParseError) as info:
            parse_poly(text)
        assert info.value.pos == pos, text


def test_fixture_round_trip():
    import importlib.resources as ir
    text = (ir.files("humbert") / "data" / "h12.txt").read_text()
    f = parse_poly(text)
    assert len(f.terms) == 233
    assert f.degree() == 16
    assert parse_poly(format_poly(f)) == f


def test_degenerate_factor_set():
    facs = degenerate_factors()
    assert len(facs) == 9
    assert MultiPoly({(1, 0, 0): 1}) in facs
    assert MultiPoly({(1, 0, 0): 1, (0, 0, 0): -1}) in facs
    assert MultiPoly({(1, 0, 0): 1, (0, 1, 0): -1}) in facs


def test_divide_degenerate_exact_and_inexact():
    # every factor e_i - t divides g * L^m exactly m times and no further:
    # g has a constant term of 100, so g(e_i = t) != 0
    assert len(_DEGENERATE_LOCI) == 9
    for (i, t), fac in zip(_DEGENERATE_LOCI, degenerate_factors()):
        for _ in range(20):
            g = dict(random_poly().terms)
            g[(0, 0, 0)] = g.get((0, 0, 0), 0) + 100
            m = rng.randrange(1, 4)
            prod = g
            for _ in range(m):
                prod = _raw_mul_terms(prod, fac.terms)
            for _ in range(m):
                prod = divide_degenerate(prod, i, t)
                assert prod is not None
            assert prod == g
            assert divide_degenerate(g, i, t) is None
            # a nonzero remainder: g * L + 1
            off = _raw_mul_terms(g, fac.terms)
            off[(0, 0, 0)] = off.get((0, 0, 0), 0) + 1
            assert divide_degenerate(off, i, t) is None
    # e1 + 1 is not a multiple of e1 - 1; e1 / e1 = 1
    assert divide_degenerate({(1, 0, 0): 1, (0, 0, 0): 1}, 0,
                             (0, 0, 0)) is None
    assert divide_degenerate({(1, 0, 0): 1}, 0, None) == {(0, 0, 0): 1}


_MULTIPLICITIES = st.lists(st.integers(0, 2), min_size=9, max_size=9)
_CORES = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * 3), st.integers(-9, 9).filter(bool),
    min_size=1, max_size=6)


@settings(max_examples=150, deadline=None)
@given(_CORES, _MULTIPLICITIES)
@example({(1, 0, 0): 1, (0, 0, 0): -2}, [2, 0, 1, 0, 0, 1, 2, 1, 1])
@example({(0, 0, 0): 3}, [1] * 9)
def test_strip_ignores_degenerate_multiples(core, mults):
    # strip(core * prod L^m) == strip(core), or both are degenerate-only
    dressed = core
    for m, fac in zip(mults, degenerate_factors()):
        for _ in range(m):
            dressed = _raw_mul_terms(dressed, fac.terms)
    try:
        expected = strip_degenerate_factors(MultiPoly(core))
    except DegenerateOnly:
        with pytest.raises(DegenerateOnly):
            strip_degenerate_factors(MultiPoly(dressed))
        return
    assert strip_degenerate_factors(MultiPoly(dressed)) == expected


def test_strip_degenerate_factors():
    core = MultiPoly({(2, 0, 0): 1, (0, 0, 1): 5, (0, 0, 0): 1})
    dressed = dict(core.terms)
    for fac in [MultiPoly({(1, 0, 0): 1}),
                MultiPoly({(0, 1, 0): 1, (0, 0, 0): -1})]:
        dressed = _raw_mul_terms(dressed, fac.terms)
    assert strip_degenerate_factors(MultiPoly(dressed)) == core


def test_strip_degenerate_only_raises():
    only = _raw_mul_terms({(1, 0, 0): 1}, {(0, 1, 0): 1, (0, 0, 0): -1})
    with pytest.raises(DegenerateOnly):
        strip_degenerate_factors(MultiPoly(only))


_ONE = {(0, 0, 0): 1}


def test_substitute_rational_identity():
    identity = tuple(({e: 1}, _ONE)
                     for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    for _ in range(50):
        f = random_poly()
        try:
            expected = strip_degenerate_factors(f)
        except DegenerateOnly:
            continue
        assert substitute_rational(f, identity) == expected


def test_substitute_rational_swap():
    swap = (({(0, 1, 0): 1}, _ONE), ({(1, 0, 0): 1}, _ONE),
            ({(0, 0, 1): 1}, _ONE))
    f = MultiPoly({(2, 1, 0): 1, (0, 0, 1): 7})
    g = substitute_rational(f, swap)
    assert g == MultiPoly({(1, 2, 0): 1, (0, 0, 1): 7})
