"""Tests for relation discovery by exact linear algebra."""

import random
from math import comb

import numpy as np
import pytest

from humbert import relations
from humbert.poly import MultiPoly, eval_on_series
from humbert.relations import (_PRIMES, AmbiguousKernel, ImprimitiveKernel,
                               NoRelation, _exponent_lattice,
                               _lift_kernel_vector, _modular_kernel,
                               _monomial_rows_mod, _nullspace_mod,
                               default_precision, find_relation,
                               monomial_basis)
from humbert.degrees import admissible_range
from humbert.rosenhain import (RosenhainSeries, rosenhain_triple,
                               smallest_precision)
from humbert.series import TruncatedSeries
from humbert.theta import humbert_params

rng = random.Random(777)


def test_monomial_basis_counts():
    assert len(monomial_basis(4)) == comb(7, 3)  # 35
    assert len(monomial_basis(16)) == comb(19, 3)  # 969
    assert len(monomial_basis(2)) == 10


def test_monomial_basis_symmetry_classes():
    basis = monomial_basis(2, symmetry="e1e2")
    # degree <= 2 orbit representatives under e1 <-> e2: seven classes
    assert len(basis) == 7
    for rep in basis:
        a, b, c = rep
        assert a >= b


def test_default_precision_grows_with_degree():
    assert default_precision(2) < default_precision(8) < default_precision(16)
    assert default_precision(8) >= 4


def test_modular_kernel_rank_at_degree_one():
    # 1, e1, e2, e3 are linearly independent power series on any H_Delta;
    # nullity 0 mod p proves nullity 0 over Q
    triple = rosenhain_triple(humbert_params(5), 24)
    assert _modular_kernel(triple, monomial_basis(1), None) == (0, None)


def test_nullspace_mod_simple_cases():
    # rows are coordinate evaluations; row 0 + row 1 = 0 is the only
    # dependency, so the left kernel is spanned by (1, 1, 0)
    rows = np.array([[1, 2, 3], [-1, -2, -3], [0, 1, 1]])
    p = _PRIMES[0]
    vecs = _nullspace_mod(rows.T, p)
    assert [list(v) for v in vecs] == [[1, 1, 0]]
    assert _nullspace_mod(np.array([[1, 0], [0, 1]]), p) == []


def _synthetic_triple(terms, n):
    """A RosenhainSeries-shaped triple of the given integer series."""
    es = [TruncatedSeries(t, n) for t in terms]
    return RosenhainSeries(*es, disc=humbert_params(5), precision=n)


def test_int64_headroom_is_asserted():
    # a row update mod a prime near 2^32 could overflow int64
    with pytest.raises(AssertionError):
        _nullspace_mod(np.eye(2, dtype=np.int64), 2 ** 32 + 15)
    # the primes in use pass the bound that `_nullspace_mod` asserts
    assert all((p - 1) ** 2 + p < 2 ** 63 for p in _PRIMES)
    # the float64 rows assert m_i m_j (p-1)^2 < 2^53 before building
    # anything: a prime near 2^31 breaks it on a small lattice, and a
    # 91 x 91 lattice (steps 1, N=91) breaks it for the primes in use
    small = rosenhain_triple(humbert_params(5), 16)
    with pytest.raises(AssertionError):
        _monomial_rows_mod(small, [(0, 0, 0)], None, 2 ** 31 - 1)
    wide = _synthetic_triple([{(0, 0): 1, (1, 1): 1}] * 3, 91)
    with pytest.raises(AssertionError):
        _monomial_rows_mod(wide, [(0, 0, 0)], None, _PRIMES[0])
    # every prime passes it at N=136 for delta=12 (a 34 x 34 lattice) and at
    # N=212 for delta=9 (53 x 53), the precisions of the degree-16 searches
    for delta, n in ((12, 136), (9, 212)):
        ros = rosenhain_triple(humbert_params(delta), n)
        m = -(-n // 4)
        assert _exponent_lattice(ros.series()) == (4, 4)
        for p in _PRIMES:
            assert m * m * (p - 1) ** 2 < 2 ** 53
            rows = _monomial_rows_mod(ros, [(0, 0, 0)], None, p)
            assert rows.tolist() == [[1] + [0] * (m * m - 1)]


def _naive_monomial(es, exps, n):
    term = TruncatedSeries.one(n)
    for e, k in zip(es, exps):
        for _ in range(k):
            term = term * e
    return term


def _assert_rows_are_naive(ros, basis, symmetry):
    """Every row mod p is its monomial (orbit sum with e1e2) by repeated
    exact products, reduced mod p, on every lattice point; no term of those
    products lies off the lattice."""
    es, n = ros.series(), ros.precision
    naive = []
    for a, b, c in basis:
        want = _naive_monomial(es, (a, b, c), n)
        if symmetry == "e1e2" and a != b:
            want = want + _naive_monomial(es, (b, a, c), n)
        naive.append(want)
    gi, gj = _exponent_lattice(es)
    assert all(i % gi == 0 and j % gj == 0 for f in naive for i, j in f.terms)
    points = [(i, j) for i in range(0, n, gi) for j in range(0, n, gj)]
    for p in _PRIMES:
        rows = _monomial_rows_mod(ros, basis, symmetry, p)
        assert rows.dtype == np.int64
        assert rows.tolist() == [[f.coeff(i, j) % p for i, j in points]
                                 for f in naive]


@pytest.mark.parametrize("symmetry", [None, "e1e2"])
def test_monomial_rows_are_the_naive_products(monkeypatch, symmetry):
    ros = rosenhain_triple(humbert_params(5), 16)
    basis = monomial_basis(4, symmetry)
    _assert_rows_are_naive(ros, basis, symmetry)
    # the kernel's matrix keeps exactly the lattice points where some row is
    # nonzero mod p, one equation each
    seen = []

    def capture(mat, p):
        seen.append((mat.copy(), p))
        return []

    monkeypatch.setattr(relations, "_nullspace_mod", capture)
    assert _modular_kernel(ros, basis, symmetry) == (0, None)
    [(mat, p)] = seen
    rows = _monomial_rows_mod(ros, basis, symmetry, p)
    assert mat.tolist() == [col for col in rows.T.tolist() if any(col)]
    assert mat.any(axis=1).all()  # no all-zero column of the row matrix


@pytest.mark.parametrize("delta", [4, 5, 8, 9, 12, 13])
def test_exponent_lattice_is_4z(delta):
    ros = rosenhain_triple(humbert_params(delta), 48)
    assert _exponent_lattice(ros.series()) == (4, 4)


@pytest.mark.parametrize("symmetry", [None, "e1e2"])
def test_off_lattice_exponents_get_a_smaller_step(symmetry):
    # p^2 q^3 in e2 and q^9 in e3 put the terms on 2Z x 3Z, not 4Z x 4Z;
    # the rows use that lattice and still equal the naive products mod p
    ros = _synthetic_triple([{(0, 0): 1, (4, 6): 3, (8, 0): -1},
                             {(0, 0): 1, (2, 3): 2},
                             {(0, 0): 1, (0, 9): -1, (4, 6): 5}], 20)
    assert _exponent_lattice(ros.series()) == (2, 3)
    _assert_rows_are_naive(ros, monomial_basis(3, symmetry), symmetry)


def test_constant_triple_has_a_one_point_lattice():
    # no exponent but 0 occurs (as for delta=4 at N=4), so each step is N
    # and the lattice is the single point (0, 0)
    ros = _synthetic_triple([{(0, 0): 1}] * 3, 10)
    assert _exponent_lattice(ros.series()) == (10, 10)
    _assert_rows_are_naive(ros, monomial_basis(2), None)


def test_lift_needs_more_primes_for_large_coefficients(monkeypatch):
    # entries near 2^40 are past the reconstruction bound of three primes
    # (about 2^29.5) and inside that of six (about 2^59.5)
    true = [3, 2 ** 40 + 1, -(2 ** 40 - 7), 5 * 2 ** 38 + 11]
    vecs = [np.array([x * pow(3, p - 2, p) % p for x in true],
                     dtype=np.int64) for p in _PRIMES]
    assert _lift_kernel_vector(vecs[:3], _PRIMES[:3]) is None
    assert _lift_kernel_vector(vecs, _PRIMES) == true

    # the kernel search adds primes until the lift succeeds: five primes
    # (bound about 2^49.5) are enough here
    result, solved, lifts = _patched_kernel(monkeypatch, true, [1] * 6)
    assert result == (1, true)
    assert solved == list(_PRIMES[:5])
    assert lifts == [list(_PRIMES[:k]) for k in (3, 4, 5)]


def _patched_kernel(monkeypatch, true, nullities):
    """Run `_modular_kernel` on rows whose only kernel vector is `true`,
    with the given nullity at each prime (the extra kernel vectors are unit
    vectors); returns its result, the primes eliminated at and the primes
    of each lift."""
    rows = [[true[j] if i == 0 else -true[0] if i == j else 0
             for j in range(1, 4)] for i in range(4)]
    solved, lifts = [], []
    nullspace, lift = relations._nullspace_mod, relations._lift_kernel_vector

    def exact_rows(ros, basis, symmetry, p):
        return np.array([[x % p for x in row] for row in rows],
                        dtype=np.int64)

    def solving(mat, p):
        extra = nullities[len(solved)] - 1
        solved.append(p)
        return nullspace(mat, p) + [np.eye(4, dtype=np.int64)[i + 1]
                                    for i in range(extra)]

    def lifting(vecs, primes):
        lifts.append(list(primes))
        return lift(vecs, primes)

    monkeypatch.setattr(relations, "_monomial_rows_mod", exact_rows)
    monkeypatch.setattr(relations, "_nullspace_mod", solving)
    monkeypatch.setattr(relations, "_lift_kernel_vector", lifting)
    # the rows are patched; the triple only sets N for the row bound
    ros = _synthetic_triple([{(0, 0): 1}] * 3, 10)
    return _modular_kernel(ros, monomial_basis(1), None), solved, lifts


def test_nullity_above_one_at_the_first_prime_is_returned_at_once(
        monkeypatch):
    # only nullity 1 can give a relation, and the first prime's nullity
    # bounds the rational one, so no other prime is tried
    result, solved, lifts = _patched_kernel(monkeypatch, [2, -3, 5, 7],
                                            [3, 1, 1, 1, 1, 1])
    assert result == (3, None)
    assert solved == [_PRIMES[0]] and lifts == []


def test_a_later_prime_that_lost_rank_is_skipped(monkeypatch):
    # the second prime shows nullity 2 after the first showed 1: it lost
    # rank, and the lift takes the first three primes with nullity 1
    result, solved, lifts = _patched_kernel(monkeypatch, [2, -3, 5, 7],
                                            [1, 2, 1, 1, 1, 1])
    assert result == (1, [2, -3, 5, 7])
    assert solved == list(_PRIMES[:4])
    assert lifts == [[_PRIMES[0], _PRIMES[2], _PRIMES[3]]]


def test_precision_past_the_row_bound_is_a_value_error(monkeypatch):
    # 91 x 91 = 8,281 lattice points (steps 1) exceed the 8,191 the float64
    # rows allow; the error names the largest valid N before any row is
    # built, and on the 4Z x 4Z lattice of every delta tried that N is 360
    built = []
    monkeypatch.setattr(relations, "_monomial_rows_mod",
                        lambda *args: built.append(args))
    wide = _synthetic_triple([{(0, 0): 1, (1, 1): 1}] * 3, 91)
    with pytest.raises(ValueError, match="N=91 is too large .* the largest "
                       "valid N is 90$"):
        _modular_kernel(wide, monomial_basis(1), None)
    lattice = _synthetic_triple([{(0, 0): 1, (4, 4): 1}] * 3, 361)
    with pytest.raises(ValueError, match="the largest valid N is 360$"):
        _modular_kernel(lattice, monomial_basis(1), None)
    assert built == []


def test_no_relation_is_decided_at_the_first_prime(monkeypatch):
    built, solved = [], []
    monomial_rows_mod = relations._monomial_rows_mod
    nullspace = relations._nullspace_mod

    def building(ros, basis, symmetry, p):
        built.append((ros.precision, p))
        return monomial_rows_mod(ros, basis, symmetry, p)

    def solving(mat, p):
        solved.append((built[-1][0], p))
        return nullspace(mat, p)

    monkeypatch.setattr(relations, "_monomial_rows_mod", building)
    monkeypatch.setattr(relations, "_nullspace_mod", solving)
    with pytest.raises(NoRelation):
        find_relation(12, 3)
    # the rows are built once per prime tried; the default N=28 has a kernel
    # of dimension 3 at every prime, so its first prime decides it, and the
    # escalation to N=44 stops at its first prime, whose nullity is 0
    p0 = _PRIMES[0]
    assert built == [(28, p0), (44, p0)]
    assert solved == built


def test_delta4_degree2_relation_is_product_formula():
    report = find_relation(4, 2)
    assert report.kernel_dim == 1
    assert report.polynomial == MultiPoly(
        {(1, 1, 0): 1, (0, 0, 1): -1})  # e1 e2 - e3
    n = report.precision
    assert report.residual_checks == [(n, True), (n + 8, True)]


def test_below_true_degree_raises_no_relation():
    with pytest.raises(NoRelation):
        find_relation(4, 1)
    with pytest.raises(NoRelation):
        find_relation(12, 3)


def test_explicit_overgenerous_degree_is_ambiguous():
    # degree 4 for Delta = 4 contains all multiples of the degree-2
    # relation, so the kernel cannot be one-dimensional
    h4 = MultiPoly({(1, 1, 0): 1, (0, 0, 1): -1})
    with pytest.raises(AmbiguousKernel) as info:
        find_relation(4, 4, precision=48)
    assert isinstance(info.value, ImprimitiveKernel)
    assert info.value.kernel_dim == 10
    assert info.value.factor == h4 and info.value.factor_degree == 2
    # automatic precision stops escalating at the first imprimitive kernel
    # (N=32 has one spurious kernel vector, dimension 11)
    with pytest.raises(ImprimitiveKernel) as info:
        find_relation(4, 4)
    assert info.value.precision == 48
    assert info.value.factor == h4


def test_imprimitive_search_reuses_the_callers_triple(monkeypatch):
    # the degree-2 factor search runs on the N=48 triple already built; only
    # its N + 8 confirmation triple is new
    built = []
    triple = relations.rosenhain_triple

    def logging(disc, precision):
        built.append(precision)
        return triple(disc, precision)

    monkeypatch.setattr(relations, "rosenhain_triple", logging)
    with pytest.raises(ImprimitiveKernel) as info:
        find_relation(4, 4, precision=48)
    assert info.value.factor == MultiPoly({(1, 1, 0): 1, (0, 0, 1): -1})
    assert built == [48, 56]


def test_recheck_failure_names_the_failing_precision():
    # the N=60 kernel vector for Delta=12, degree 8 (e1e2) vanishes to
    # N=60 but not on the N + 8 triple
    with pytest.raises(AmbiguousKernel) as info:
        find_relation(12, 8, symmetry="e1e2", precision=60)
    assert type(info.value) is AmbiguousKernel
    assert info.value.residual_checks == [(60, True), (68, False)]
    assert info.value.precision == 60
    assert "exact recheck at N=68" in str(info.value)


def test_e1_is_one_to_exactly_four_k_plus_l():
    # e1 - 1 vanishes mod (p^N, q^N) exactly when N <= 4(k + l): the
    # smallest max(i, j) over its terms is 4(k + l).  The automatic search
    # starts above that, which is never below the smallest valid N
    for delta in admissible_range(60):
        if delta < 4:
            continue
        disc = humbert_params(delta)
        n = 4 * (disc.k + disc.ell)
        assert n + 1 >= smallest_precision(disc)
        gap = (rosenhain_triple(disc, n + 1).e1
               - TruncatedSeries.one(n + 1))
        assert min(max(key) for key in gap.terms) == n, delta


def test_degenerate_candidate_is_ambiguous():
    # at N=16 for Delta=24, e1 is 1 to the precision, so e1 - 1 passes both
    # exact rechecks; it lies on the degenerate loci and proves nothing
    with pytest.raises(AmbiguousKernel) as info:
        find_relation(24, 1, precision=16)
    exc = info.value
    assert type(exc) is AmbiguousKernel
    assert (exc.kernel_dim, exc.degree, exc.delta, exc.precision) == (
        None, 1, 24, 16)
    assert exc.residual_checks == [(16, True), (24, True)]
    assert "e_1 - 1" in str(exc) and "degenerate loci" in str(exc)
    # the automatic search starts past it, at N = 4(k + l) + 1 = 25, and
    # finds no relation there
    with pytest.raises(NoRelation) as info:
        find_relation(24, 1)
    assert "N=25" in str(info.value)


def test_unmatched_nullity_stays_plain_ambiguous():
    # nullity 36 at degree 6 is no count of multiples of a lower-degree
    # relation (35 for degree 2), so no factor is claimed
    with pytest.raises(AmbiguousKernel) as info:
        find_relation(4, 6, precision=48)
    assert type(info.value) is AmbiguousKernel
    assert (info.value.kernel_dim, info.value.degree, info.value.delta,
            info.value.precision) == (36, 6, 4, 48)


def test_delta5_relation_found_and_vanishes():
    report = find_relation(5, 8)
    assert report.kernel_dim == 1
    assert report.polynomial.degree() == 8
    fresh = rosenhain_triple(humbert_params(5), report.precision + 8)
    assert eval_on_series(report.polynomial, fresh).is_zero()
    assert all(ok for _, ok in report.residual_checks)


def test_delta8_relation_is_the_unique_rational_kernel_vector():
    # nullity 1 mod p bounds the rational nullity by 1, and an exact zero on
    # an independently built triple puts the polynomial in the rational
    # kernel, so it is the unique relation up to its canonical scaling
    report = find_relation(8, 8)
    assert report.kernel_dim == 1
    fresh = rosenhain_triple(humbert_params(8), report.precision)
    assert eval_on_series(report.polynomial, fresh).is_zero()


def test_symmetric_search_matches_full_search():
    # the Delta = 4 component e1 e2 - e3 is e1 <-> e2 symmetric
    full = find_relation(4, 2)
    sym = find_relation(4, 2, symmetry="e1e2")
    assert full.polynomial == sym.polynomial


def test_symmetric_search_misses_asymmetric_component():
    # the Delta = 8 component is not e1 <-> e2 symmetric, so it is
    # invisible inside the symmetric subspace
    with pytest.raises(NoRelation):
        find_relation(8, 8, symmetry="e1e2", precision=72)


def test_report_record_shape():
    report = find_relation(4, 2)
    rec = report.to_record()
    assert rec["schema"].startswith("humbert.relation/")
    assert rec["delta"] == 4 and rec["degree"] == 2
    assert rec["kernel_dim"] == 1
    assert isinstance(rec["polynomial"], dict)
