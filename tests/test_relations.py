"""Tests for relation discovery by exact linear algebra."""

import random
from math import comb

import numpy as np
import pytest

from humbert import relations
from humbert.poly import MultiPoly, eval_on_series
from humbert.relations import (_PRIMES, AmbiguousKernel, ImprimitiveKernel,
                               NoRelation, _grid_mul, _lift_kernel_vector,
                               _modular_kernel, _nullspace_mod,
                               default_precision, find_relation,
                               monomial_basis)
from humbert.rosenhain import rosenhain_triple
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


def test_int64_headroom_is_asserted():
    # a 4x4 grid mod a prime near 2^31 could overflow an int64 accumulator
    big = 2 ** 31 - 1
    grid = np.ones((4, 4), dtype=np.int64)
    with pytest.raises(AssertionError):
        _grid_mul(grid, grid, big)
    with pytest.raises(AssertionError):
        _nullspace_mod(np.eye(2, dtype=np.int64), 2 ** 32 + 15)
    # the primes in use leave room for grids far beyond any precision used
    assert 1024 ** 2 * (_PRIMES[-1] - 1) ** 2 < 2 ** 63


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
    rows = [[true[j] if i == 0 else -true[0] if i == j else 0
             for j in range(1, 4)] for i in range(4)]
    calls = []

    def rows_mod(ros, basis, symmetry, p):
        calls.append(p)
        return np.array([[x % p for x in row] for row in rows],
                        dtype=np.int64)

    monkeypatch.setattr(relations, "_monomial_rows_mod", rows_mod)
    assert _modular_kernel(None, monomial_basis(1), None) == (1, true)
    assert calls == list(_PRIMES[:5])


def test_no_relation_is_decided_at_the_first_prime(monkeypatch):
    calls = []
    rows_mod = relations._monomial_rows_mod

    def counting(ros, basis, symmetry, p):
        calls.append((ros.precision, p))
        return rows_mod(ros, basis, symmetry, p)

    monkeypatch.setattr(relations, "_monomial_rows_mod", counting)
    with pytest.raises(NoRelation):
        find_relation(12, 3)
    # the default N=28 has a kernel of dimension 3 (three primes agree);
    # the escalation to N=44 stops at its first prime, whose nullity is 0
    p0, p1, p2 = _PRIMES[:3]
    assert calls == [(28, p0), (28, p1), (28, p2), (44, p0)]


def test_delta4_degree2_relation_is_product_formula():
    report = find_relation(4, 2)
    assert report.kernel_dim == 1
    assert report.polynomial == MultiPoly(
        {(1, 1, 0): 1, (0, 0, 1): -1})  # e1 e2 - e3


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
