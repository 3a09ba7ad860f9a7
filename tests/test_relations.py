"""Tests for relation discovery by exact linear algebra."""

import random
import time
import tracemalloc
from itertools import islice
from math import comb, isqrt

import numpy as np
import pytest

from humbert import relations
from humbert.poly import MultiPoly, eval_on_series
from humbert.relations import (_MAX_N, _PRIMES, _SYMMETRIES,
                               AmbiguousKernel, ImprimitiveKernel,
                               NoRelation, _ambiguity, _find_relation_on,
                               _kernel_mod, _lift_kernel_vector,
                               _monomial_rows_mod, _nullspace_mod, _within,
                               default_precision, find_relation,
                               monomial_basis)
from humbert.degrees import admissible_range
from humbert.rosenhain import (RosenhainSeries, rosenhain_triple,
                               smallest_precision)
from humbert.series import TruncatedSeries, _mod_chunk, word_primes
from humbert.theta import humbert_params

rng = random.Random(777)


def test_monomial_basis_counts():
    assert len(monomial_basis(4)) == comb(7, 3)  # 35
    assert len(monomial_basis(16)) == comb(19, 3)  # 969
    assert len(monomial_basis(2)) == 10


def test_monomial_basis_symmetry_classes():
    basis = monomial_basis(2, symmetry="e1e2")
    plain = monomial_basis(2)
    # without symmetry every orbit is one monomial
    assert all(len(orbit) == 1 for orbit in plain)
    # the degree <= 2 orbits under e1 <-> e2 partition the plain basis:
    # seven classes, each closed under the swap and led by a >= b
    assert len(basis) == 7
    flat = [t for orbit in basis for t in orbit]
    assert sorted(flat) == sorted(t for (t,) in plain)
    assert len(set(flat)) == len(flat)
    for orbit in basis:
        assert {(b, a, c) for a, b, c in orbit} == set(orbit)
        a, b, c = orbit[0]
        assert a >= b
    # graded-lex by the leading triple, so each degree is a prefix
    assert [orbit[0] for orbit in basis] == [
        t for (t,) in plain if t[0] >= t[1]]
    for sym in (None, "e1e2"):
        for k in range(1, 6):
            assert monomial_basis(6, sym)[:len(monomial_basis(k, sym))] == (
                monomial_basis(k, sym))


def test_default_precision_grows_with_degree():
    assert default_precision(2) < default_precision(8) < default_precision(16)
    assert default_precision(8) >= 4


def test_modular_kernel_rank_at_degree_one():
    # 1, e1, e2, e3 are linearly independent power series on any H_Delta;
    # nullity 0 mod p proves nullity 0 over Q
    triple = rosenhain_triple(humbert_params(5), 24)
    basis = monomial_basis(1)
    assert _kernel_mod(triple, basis, _PRIMES[0]).shape == (0, 4)
    with pytest.raises(NoRelation, match="degree 1 for delta=5 at N=24$"):
        _find_relation_on(triple, triple, basis,
                          _kernel_mod(triple, basis, _PRIMES[0]))


def test_nullspace_mod_simple_cases():
    # rows are coordinate evaluations; row 0 + row 1 = 0 is the only
    # dependency, so the left kernel is spanned by (1, 1, 0)
    rows = np.array([[1, 2, 3], [-1, -2, -3], [0, 1, 1]])
    p = _PRIMES[0]
    vecs = _nullspace_mod(rows.T, p)
    assert [list(v) for v in vecs] == [[1, 1, 0]]
    assert _nullspace_mod(np.array([[1, 0], [0, 1]]), p).shape == (0, 2)


def _synthetic_triple(terms, n):
    """A RosenhainSeries-shaped triple of the given integer series."""
    es = [TruncatedSeries(t, n) for t in terms]
    return RosenhainSeries(*es, disc=humbert_params(5), precision=n)


def _reference_nullspace(rows, p):
    """The right-nullspace basis over GF(p) read off a textbook reduced
    echelon form in Python ints, reducing every entry at every step: one
    vector per free column, with a 1 there."""
    a = [[x % p for x in row] for row in rows]
    n_cols = len(a[0])
    pivots = []
    for c in range(n_cols):
        r = len(pivots)
        i = next((i for i in range(r, len(a)) if a[i][c]), None)
        if i is None:
            continue
        a[r], a[i] = a[i], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [x * inv % p for x in a[r]]
        for j in range(len(a)):
            f = a[j][c]
            if j != r and f:
                a[j] = [(x - f * y) % p for x, y in zip(a[j], a[r])]
        pivots.append(c)
    out = []
    for fc in (c for c in range(n_cols) if c not in pivots):
        v = [0] * n_cols
        v[fc] = 1
        for ri, pc in enumerate(pivots):
            v[pc] = -a[ri][fc] % p
        out.append(v)
    return out


def _reference_cases(p, seed):
    """(name, matrix, rank or None) for seeded matrices over GF(p) of
    every shape the elimination meets, entries drawn from (-p, p)."""
    gen = np.random.default_rng(seed)

    def rand(m, n):
        return gen.integers(-p + 1, p, size=(m, n), dtype=np.int64)

    def product(m, n, k):
        # L R has rank k over GF(p) for generic L and R; reduce the
        # products in Python ints, then shift by random multiples of p
        left, right = rand(m, k).tolist(), rand(k, n).T.tolist()
        lr = [[sum(x * y for x, y in zip(row, col)) % p for col in right]
              for row in left]
        return np.array(lr, dtype=np.int64) + p * gen.integers(
            -1, 2, size=(m, n))

    cases = []
    for m, n in ((12, 5), (5, 12), (8, 8), (30, 17), (17, 30)):
        cases.append(("full %dx%d" % (m, n), rand(m, n), min(m, n)))
    for m, n, k in ((12, 7, 3), (6, 14, 4), (10, 10, 6), (25, 20, 1),
                    (9, 9, 8)):
        cases.append(("rank %d of %dx%d" % (k, m, n), product(m, n, k), k))
    for m, n in ((10, 8), (6, 11), (9, 9)):
        mat = rand(m, n)
        mat[:, gen.choice(n, size=3, replace=False)] = 0
        cases.append(("zero columns %dx%d" % (m, n), mat, None))
    mat = product(12, 10, 5)
    mat[:, [0, 4]] = 0
    cases.append(("zero columns of rank 5", mat, None))
    cases.append(("all zero", np.zeros((7, 5), dtype=np.int64), 0))
    cases.append(("single row", rand(1, 9), 1))
    cases.append(("single zero-led row",
                  np.array([[0, 0, 3, -1, p - 2]], dtype=np.int64), 1))
    cases.append(("single column", rand(6, 1), 1))
    return cases


@pytest.mark.parametrize("p", [_PRIMES[0], _PRIMES[5]])
def test_nullspace_mod_matches_a_reference_echelon_form(p):
    # the lazily reduced int64 elimination against Python ints reduced at
    # every step: the same basis, vector for vector
    cases = _reference_cases(p, seed=p)
    assert len(cases) >= 18
    for name, mat, rank in cases:
        want = _reference_nullspace(mat.tolist(), p)
        got = _nullspace_mod(mat.copy(), p)
        assert [v.tolist() for v in got] == want, name
        if rank is not None:
            assert len(want) == mat.shape[1] - rank, name


def test_nullspace_mod_survives_many_deferred_steps():
    # 290 pivot steps accumulate unreduced updates before the read-off;
    # L R with L 400 x 290 and R 290 x 300 has nullity 10 over GF(p)
    p = _PRIMES[0]
    gen = np.random.default_rng(12)
    lmat = gen.integers(0, 2 ** 10, size=(400, 290), dtype=np.int64)
    rmat = gen.integers(0, 2 ** 10, size=(290, 300), dtype=np.int64)
    mat = (lmat @ rmat) % p
    vecs = _nullspace_mod(mat, p)
    assert len(vecs) == 10
    rows = mat.tolist()
    for v in vecs:
        v = v.tolist()
        assert all(sum(x * y for x, y in zip(row, v)) % p == 0
                   for row in rows)


def test_int64_headroom_is_asserted():
    # a row update mod a prime near 2^32 could overflow int64
    with pytest.raises(AssertionError):
        _nullspace_mod(np.eye(2, dtype=np.int64), 2 ** 32 + 15)
    # the unreduced updates of two pivot steps mod a prime just above 2^31
    # could overflow int64, though one step could not
    p = 2 ** 31 + 11
    assert (p - 1) ** 2 + p < 2 ** 63 <= 2 * (p - 1) ** 2 + p
    with pytest.raises(AssertionError, match="int64 overflow"):
        _nullspace_mod(np.eye(2, dtype=np.int64), p)
    # every prime in use admits 2^22 unknowns under the bound that
    # `_nullspace_mod` asserts, n (p-1)^2 + p < 2^63 for n unknowns
    assert all(2 ** 22 * (p - 1) ** 2 + p < 2 ** 63 for p in _PRIMES)
    # the rows assert before building anything that a chunk of c >= 1
    # Toeplitz blocks keeps c m (p-1)^2 + p < 2^53: a prime near 2^31
    # breaks it on a small grid
    small = rosenhain_triple(humbert_params(5), 16)
    with pytest.raises(AssertionError, match="inexact"):
        _monomial_rows_mod(small, [((0, 0, 0),)], 2 ** 31 - 1)
    # every kernel prime admits c >= 1 on the 92 x 92 grid of the N + 8
    # recheck at N = _MAX_N, and so at N=136 for delta=12 (34 x 34) and at
    # N=212 for delta=9 (53 x 53), the precisions of the degree-16 searches
    assert _MAX_N == 360
    for p in _PRIMES:
        assert _mod_chunk(-(-(_MAX_N + 8) // 4), p) >= 1
    for delta, n in ((12, 136), (9, 212)):
        ros = rosenhain_triple(humbert_params(delta), n)
        m = -(-n // 4)
        for p in _PRIMES:
            assert _mod_chunk(m, p) >= 1
            rows = _monomial_rows_mod(ros, [((0, 0, 0),)], p)
            assert rows.tolist() == [[1] + [0] * (m * m - 1)]


def test_rows_need_no_dense_multiplication_matrix():
    # each power step multiplies by one Toeplitz block per nonzero row of
    # e_v, read from a view of the padded grid; a dense m^2 x m^2 matrix
    # on the 53 x 53 grid of N=212 alone would take 63 MB
    n, m = 212, 53
    dense = {(4 * i, 4 * j): 1 + (i + 2 * j) % 7
             for i in range(m) for j in range(m)}
    ros = _synthetic_triple([dense] * 3, n)
    basis = monomial_basis(2)
    tracemalloc.start()
    try:
        rows = _monomial_rows_mod(ros, basis, _PRIMES[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.shape == (len(basis), m * m)
    assert peak < 8 * 2 ** 20


def test_orbit_rows_are_summed_in_place():
    # each monomial's grid is added into its orbit's row as it leaves the
    # dict, with no stack of every grid zero-padded to the widest orbit:
    # the e1e2 degree-8 rows for Delta=12 at N=76 peak below 900 KB (the
    # stack took 1,065 KB)
    ros = rosenhain_triple(humbert_params(12), 76)
    basis = monomial_basis(8, "e1e2")
    tracemalloc.start()
    try:
        rows = _monomial_rows_mod(ros, basis, _PRIMES[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.shape == (len(basis), 19 * 19)
    assert peak < 900 * 2 ** 10


def test_kernel_primes_are_the_first_recheck_primes():
    # one prime source: the kernel's primes are the first six of the exact
    # recheck's consecutive primes above 2^20, the values they always had
    assert _PRIMES == (1048583, 1048589, 1048601, 1048609, 1048613, 1048627)
    assert _PRIMES == tuple(islice(word_primes(), 6))
    assert _MAX_N == 360


def _naive_monomial(es, exps, n):
    term = TruncatedSeries.one(n)
    for e, k in zip(es, exps):
        for _ in range(k):
            term = term * e
    return term


def _assert_rows_are_naive(ros, basis):
    """Every row mod p is the sum over its orbit of the monomials by
    repeated exact products, reduced mod p, on every point of 4Z x 4Z; no
    term of those products lies off it."""
    es, n = ros.series(), ros.precision
    naive = []
    for orbit in basis:
        want = TruncatedSeries({}, n)
        for t in orbit:
            want = want + _naive_monomial(es, t, n)
        naive.append(want)
    assert all(i % 4 == 0 and j % 4 == 0 for f in naive for i, j in f.terms)
    points = [(i, j) for i in range(0, n, 4) for j in range(0, n, 4)]
    for p in _PRIMES:
        rows = _monomial_rows_mod(ros, basis, p)
        assert rows.dtype == np.int64
        assert rows.tolist() == [[f.terms.get((i, j), 0) % p
                                  for i, j in points]
                                 for f in naive]


@pytest.mark.parametrize("symmetry", [None, "e1e2"])
def test_monomial_rows_are_the_naive_products(monkeypatch, symmetry):
    ros = rosenhain_triple(humbert_params(5), 16)
    basis = monomial_basis(4, symmetry)
    _assert_rows_are_naive(ros, basis)
    # the kernel's matrix keeps exactly the lattice points where some row is
    # nonzero mod p, one equation each
    seen = []

    def capture(mat, p):
        seen.append((mat.copy(), p))
        return np.zeros((0, mat.shape[1]), dtype=np.int64)

    monkeypatch.setattr(relations, "_nullspace_mod", capture)
    assert len(_kernel_mod(ros, basis, _PRIMES[0])) == 0
    [(mat, p)] = seen
    rows = _monomial_rows_mod(ros, basis, p)
    assert mat.tolist() == [col for col in rows.T.tolist() if any(col)]
    assert mat.any(axis=1).all()  # no all-zero column of the row matrix


@pytest.mark.parametrize("delta", [4, 5, 8, 9, 12, 13, 100, 101])
def test_exponent_lattice_is_4z(delta):
    # the theta exponent formula, proved in the `relations` docstring
    ros = rosenhain_triple(humbert_params(delta), 48)
    for e in ros.series():
        assert all(i % 4 == 0 and j % 4 == 0 for i, j in e.terms), delta


@pytest.mark.parametrize("symmetry", [None, "e1e2"])
def test_off_lattice_exponents_are_an_assertion_error(symmetry):
    # p^2 q^3 in e2 and q^9 in e3 put the terms on 2Z x 3Z, not 4Z x 4Z;
    # multiplying by them on the 4Z x 4Z grid would drop those terms
    ros = _synthetic_triple([{(0, 0): 1, (4, 6): 3, (8, 0): -1},
                             {(0, 0): 1, (2, 3): 2},
                             {(0, 0): 1, (0, 9): -1, (4, 6): 5}], 20)
    with pytest.raises(AssertionError, match="off the 4Z x 4Z lattice"):
        _monomial_rows_mod(ros, monomial_basis(3, symmetry), _PRIMES[0])


def test_constant_triple_has_a_one_point_lattice():
    # at N=4 (as for delta=4 at its smallest N) the grid is the single
    # point (0, 0)
    ros = _synthetic_triple([{(0, 0): 1}] * 3, 4)
    _assert_rows_are_naive(ros, monomial_basis(2))
    assert _monomial_rows_mod(ros, [((0, 0, 0),)], _PRIMES[0]).shape == (
        1, 1)


def test_lift_needs_more_primes_for_large_coefficients(monkeypatch):
    # entries near 2^40 are past the reconstruction bound of one, two,
    # three and four primes (about 2^9.5, 2^19.5, 2^29.5 and 2^39.5) and
    # inside that of five and six (about 2^49.5 and 2^59.5).  One prime
    # reconstructs a small vector of the same residues, which is not the
    # kernel vector: only the exact recheck can refuse it
    true = [3, 2 ** 40 + 1, -(2 ** 40 - 7), 5 * 2 ** 38 + 11]
    vecs = [np.array([x * pow(3, p - 2, p) % p for x in true],
                     dtype=np.int64) for p in _PRIMES]
    assert _lift_kernel_vector(vecs[:1], _PRIMES[:1]) == [12, 200, -168, 289]
    for k in (2, 3, 4):
        assert _lift_kernel_vector(vecs[:k], _PRIMES[:k]) is None
    assert _lift_kernel_vector(vecs, _PRIMES) == true

    # the kernel search lifts after every prime, from the first, until a
    # lift passes the recheck: the one-prime lift is refused, and five
    # primes are enough here
    report, solved, lifts = _patched_kernel(monkeypatch, true, [1] * 6)
    assert (report.kernel_dim, report.polynomial) == (1, _poly(true))
    assert solved == list(_PRIMES[:5])
    assert lifts == [list(_PRIMES[:k]) for k in (1, 2, 3, 4, 5)]


def test_a_lift_past_the_bound_of_its_primes_is_none():
    # the ratios 1/701 and 1/700 reconstruct from one prime, inside its
    # bound of about 2^9.5, but clearing their denominators gives the entry
    # 700 * 701 = 490,700, past it: the lift is None, and the second prime,
    # with a bound of about 2^19.5, lifts the vector
    true = [700 * 701, 701, 700]
    p0 = _PRIMES[0]
    vecs = [np.array([x * pow(true[0], -1, p) % p for x in true],
                     dtype=np.int64) for p in _PRIMES[:2]]
    assert all(relations._rational_reconstruct(int(x), p0) is not None
               for x in vecs[0])
    assert max(true) > isqrt(p0 // 2)
    assert _lift_kernel_vector(vecs[:1], [p0]) is None
    assert _lift_kernel_vector(vecs, _PRIMES[:2]) == true


def _poly(vec):
    """The degree-1 polynomial of the kernel vector `vec`."""
    return MultiPoly({t: c for c, (t,) in zip(vec, monomial_basis(1))})


def _patched_kernel(monkeypatch, true, nullities):
    """Run `_find_relation_on` on rows whose only kernel vector is `true`,
    with the given nullity at each prime (the extra kernel vectors are unit
    vectors) and an exact recheck that passes only `true`'s polynomial;
    returns its report or the error it raised, the primes eliminated at and
    the primes of each lift."""
    rows = [[true[j] if i == 0 else -true[0] if i == j else 0
             for j in range(1, 4)] for i in range(4)]
    want = _poly(true)
    solved, lifts = [], []
    nullspace, lift = relations._nullspace_mod, relations._lift_kernel_vector

    def exact_rows(ros, basis, p):
        return np.array([[x % p for x in row] for row in rows],
                        dtype=np.int64)

    def solving(mat, p):
        extra = nullities[len(solved)] - 1
        solved.append(p)
        return np.vstack([nullspace(mat, p)]
                         + [np.eye(4, dtype=np.int64)[i + 1]
                            for i in range(extra)])

    def lifting(vecs, primes):
        lifts.append(list(primes))
        return lift(vecs, primes)

    def rechecking(poly, ros):
        return TruncatedSeries({} if poly == want else {(0, 0): 1},
                               ros.precision)

    monkeypatch.setattr(relations, "_monomial_rows_mod", exact_rows)
    monkeypatch.setattr(relations, "_nullspace_mod", solving)
    monkeypatch.setattr(relations, "_lift_kernel_vector", lifting)
    monkeypatch.setattr(relations, "eval_on_series", rechecking)
    # the rows and the recheck are patched, so the triple is never read
    ros = _synthetic_triple([{(0, 0): 1}] * 3, 10)
    try:
        basis = monomial_basis(1)
        result = _find_relation_on(ros, ros, basis,
                                   _kernel_mod(ros, basis, _PRIMES[0]))
    except (NoRelation, AmbiguousKernel) as exc:
        result = exc
    return result, solved, lifts


def test_nullity_above_one_at_the_first_prime_is_returned_at_once(
        monkeypatch):
    # only nullity 1 can give a relation, and the first prime's nullity
    # bounds the rational one, so no other prime is tried
    result, solved, lifts = _patched_kernel(monkeypatch, [2, -3, 5, 7],
                                            [3, 1, 1, 1, 1, 1])
    assert type(result) is AmbiguousKernel and result.kernel_dim == 3
    assert solved == [_PRIMES[0]] and lifts == []


def test_a_later_prime_that_lost_rank_is_skipped(monkeypatch):
    # the second prime shows nullity 2 after the first showed 1: it lost
    # rank.  The entry 3001 is past the one-prime bound of about 2^9.5, so
    # the first lift fails, and the next one takes the first and third
    # primes, the two with nullity 1, whose candidate passes the recheck
    true = [2, -3, 5, 3001]
    result, solved, lifts = _patched_kernel(monkeypatch, true,
                                            [1, 2, 1, 1, 1, 1])
    assert (result.kernel_dim, result.polynomial) == (1, _poly(true))
    assert result.residual_checks == [(10, True), (10, True)]
    assert solved == list(_PRIMES[:3])
    assert lifts == [[_PRIMES[0]], [_PRIMES[0], _PRIMES[2]]]


def test_reconstruction_failing_at_every_prime_is_ambiguous(monkeypatch):
    # a lift that never reconstructs: the search tries one, two, three,
    # four, five and six primes, then gives up with no kernel dimension
    monkeypatch.setattr(relations, "_lift_kernel_vector",
                        lambda vecs, primes: None)
    result, solved, lifts = _patched_kernel(monkeypatch, [2, -3, 5, 7],
                                            [1] * 6)
    assert type(result) is AmbiguousKernel
    assert result.kernel_dim is None
    assert str(result) == ("rational reconstruction failed with 6 "
                           "primes; kernel not stable across primes")
    assert solved == list(_PRIMES)
    assert lifts == [list(_PRIMES[:k]) for k in (1, 2, 3, 4, 5, 6)]


def test_a_third_refused_lift_is_ambiguous(monkeypatch):
    # every lift is a different vector that fails the recheck: the one- and
    # two-prime lifts are refused and the search goes on, and the
    # three-prime lift ends it with the recheck's AmbiguousKernel
    monkeypatch.setattr(relations, "_lift_kernel_vector",
                        lambda vecs, primes: [1, len(primes), 0, 0])
    result, solved, lifts = _patched_kernel(monkeypatch, [2, -3, 5, 7],
                                            [1] * 6)
    assert type(result) is AmbiguousKernel
    assert result.residual_checks == [(10, False), (10, False)]
    assert "failed the exact recheck at N=10" in str(result)
    assert solved == list(_PRIMES[:3])
    assert lifts == [list(_PRIMES[:k]) for k in (1, 2, 3)]


def test_a_rejected_one_prime_lift_falls_through_to_two_primes(
        monkeypatch):
    # a one-prime candidate with one coefficient off fails the exact
    # recheck; the two-prime lift is the true vector and gives the relation
    # the search finds without the fault, rechecked on its own
    want = find_relation(5, 8)
    lifts, rechecked = [], []
    lift, evaluate = relations._lift_kernel_vector, relations.eval_on_series

    def wrong_at_one_prime(vecs, primes):
        lifts.append(list(primes))
        vec = lift(vecs, primes)
        return vec[:-1] + [vec[-1] + 1] if len(primes) == 1 else vec

    def counting(poly, ros):
        rechecked.append(poly)
        return evaluate(poly, ros)

    monkeypatch.setattr(relations, "_lift_kernel_vector", wrong_at_one_prime)
    monkeypatch.setattr(relations, "eval_on_series", counting)
    report = find_relation(5, 8)
    assert report.to_record() == want.to_record()
    p0, p1 = _PRIMES[:2]
    assert lifts == [[p0], [p0, p1]]
    assert len(rechecked) == 2 and rechecked[1] == want.polynomial
    assert rechecked[0] != want.polynomial


def _echelon(vectors, p):
    """The reduced row echelon form over GF(p) of the span of `vectors`,
    in Python ints, without its zero rows."""
    rows = [[int(x) % p for x in v] for v in vectors]
    out = []
    for c in range(len(rows[0]) if rows else 0):
        i = next((i for i, row in enumerate(rows) if row[c]), None)
        if i is None:
            continue
        pivot = rows.pop(i)
        inv = pow(pivot[c], -1, p)
        pivot = [x * inv % p for x in pivot]
        rows = [[(x - row[c] * y) % p for x, y in zip(row, pivot)]
                for row in rows]
        out = [[(x - row[c] * y) % p for x, y in zip(row, pivot)]
               for row in out] + [pivot]
    return out


@pytest.mark.parametrize("delta, degree, symmetry, n0, n1, nullities", [
    (5, 8, None, 60, 76, (6, 1)),
    (8, 8, None, 60, 76, (21, 1)),
    (12, 8, "e1e2", 60, 76, (1, 0)),
    (12, 3, None, 28, 44, (3, 0)),
    (5, 8, None, 60, 61, (6, 2)),
    (5, 8, None, 61, 76, (2, 1))])
def test_reused_kernel_is_the_kernel_of_the_full_system(
        delta, degree, symmetry, n0, n1, nullities):
    # the kernel at N0 restricted by the equations of the new points only
    # spans the kernel of the whole N1 system, at the first prime; from
    # N=60 to 61 the new points are exactly the 16th row and column of the
    # grid, and N=61 starts from a block of 16 x 16 points, not 15 x 15
    disc = humbert_params(delta)
    basis = monomial_basis(degree, symmetry)
    p = _PRIMES[0]
    known = _kernel_mod(rosenhain_triple(disc, n0), basis, p)
    cut = rosenhain_triple(disc, n1)
    reused = _kernel_mod(cut, basis, p, known=(n0, known))
    full = _kernel_mod(cut, basis, p)
    assert (len(known), len(reused)) == nullities
    assert reused.dtype == np.int64 and reused.shape == full.shape
    assert _echelon(reused, p) == _echelon(full, p)
    assert len(_echelon(reused, p)) == len(full)


def _low_rank(gen, rows, cols, p):
    """A random rows x cols matrix over GF(p) of rank at most a random
    r <= min(rows, cols), as int64."""
    r = int(gen.integers(0, min(rows, cols) + 1))
    left = gen.integers(0, p, size=(rows, r))
    right = gen.integers(0, p, size=(r, cols))
    return (left @ right) % p  # r (p-1)^2 < 2^63 for r <= 12


@pytest.mark.parametrize("p", [_PRIMES[0], _PRIMES[5]])
def test_within_is_the_kernel_of_the_stacked_system(p):
    # the kernel of E2 inside the kernel of E1 is the kernel of E1 and E2
    # together, as a span; E1 or E2 may have no rows, and either kernel may
    # be zero
    gen = np.random.default_rng(p)
    seen = set()
    for _ in range(60):
        n = int(gen.integers(1, 13))
        e1 = _low_rank(gen, int(gen.integers(0, n + 3)), n, p)
        e2 = _low_rank(gen, int(gen.integers(0, n + 3)), n, p)
        known = _within(e1, None, p)
        got = _within(e2, known, p)
        want = _nullspace_mod(np.vstack([e1, e2]), p)
        assert got.dtype == np.int64 and got.shape == want.shape
        assert _echelon(got, p) == _echelon(want, p)
        seen.add((len(known) == 0, len(got) == 0, len(e2) == 0))
    assert len(seen) >= 4


@pytest.mark.parametrize("p", [_PRIMES[0], _PRIMES[5]])
def test_within_unit_equations_are_a_column_slice(p):
    # the slice `e:` stands for the equations x_j = 0, j >= e: the result is
    # the int64 formula it replaced, (z K mod p) for z the kernel of
    # K[:, e:]^T, and it vanishes past e
    gen = np.random.default_rng(p + 1)
    for _ in range(40):
        n = int(gen.integers(2, 13))
        kernel = _within(_low_rank(gen, int(gen.integers(0, n)), n, p),
                         None, p)
        e = int(gen.integers(0, n + 1))
        z = _nullspace_mod(kernel[:, e:].T, p)
        want = z @ kernel % p
        got = _within(slice(e, None), kernel, p)
        assert got.dtype == np.int64 and got.tolist() == want.tolist()
        assert not got[:, e:].any()


def test_within_asserts_its_float64_bound():
    # n (p-1)^2 + p < 2^53 admits 8,191 unknowns at every prime in use; a
    # prime near 2^31 breaks it for a single unknown
    assert all(8191 * (p - 1) ** 2 + p < 2 ** 53 <= 8192 * (p - 1) ** 2
               for p in _PRIMES)
    one = np.ones((1, 1), dtype=np.int64)
    with pytest.raises(AssertionError, match="inexact"):
        _within(one, one, 2 ** 31 - 1)
    with pytest.raises(AssertionError, match="inexact"):
        _within(slice(0, None), one, 2 ** 31 - 1)


def test_escalation_solves_only_the_new_equations_at_the_first_prime(
        monkeypatch):
    # delta=5, degree 8: N=60 eliminates the whole system at the first
    # prime (nullity 6); N=76 solves its new equations inside those six
    # vectors, and the one-prime lift of that kernel passes the exact
    # recheck, so no other prime eliminates anything
    solved, lifts = [], []
    nullspace, lift = relations._nullspace_mod, relations._lift_kernel_vector

    def solving(mat, p):
        ker = nullspace(mat, p)
        solved.append((p, mat.shape[1], len(ker)))
        return ker

    def lifting(vecs, primes):
        lifts.append(list(primes))
        return lift(vecs, primes)

    monkeypatch.setattr(relations, "_nullspace_mod", solving)
    monkeypatch.setattr(relations, "_lift_kernel_vector", lifting)
    report = find_relation(5, 8)
    assert report.precision == 76
    p0 = _PRIMES[0]
    n = len(monomial_basis(8))
    assert solved == [(p0, n, 6), (p0, 6, 1)]
    assert lifts == [[p0]]


@pytest.mark.parametrize("zero_tails", [0, 2])
def test_prefix_nullity_other_than_one_skips_the_factor_search(monkeypatch,
                                                               zero_tails):
    # a degree-4 kernel of dimension 10 matches the count of degree-2
    # multiples; its degree-2 part, read from the columns past the degree-2
    # prefix, has dimension 0 or 2 here, so no relation of degree 2 is
    # searched for and no degree-2 row is built
    def no_search(*args):
        raise AssertionError("searched below degree 4")

    ros = rosenhain_triple(humbert_params(4), 56)
    basis = monomial_basis(4)
    p = _PRIMES[0]
    kernel = np.random.default_rng(4).integers(0, p, size=(10, len(basis)))
    kernel[:zero_tails, 10:] = 0  # the degree-2 prefix is basis[:10]
    monkeypatch.setattr(relations, "_find_relation_on", no_search)
    monkeypatch.setattr(relations, "_monomial_rows_mod", no_search)
    exc = _ambiguity(ros, ros, basis, kernel)
    assert type(exc) is AmbiguousKernel
    assert (exc.kernel_dim, exc.degree, exc.precision) == (10, 4, 56)
    assert str(exc) == ("kernel dimension 10 at degree 4 for delta=4 at "
                        "N=56; the precision is too small or the relation "
                        "has a lower degree")


def _no_triple(disc, precision):
    raise AssertionError("rosenhain_triple called at N=%d" % precision)


def test_precision_past_the_row_bound_is_a_value_error(monkeypatch):
    # N=361 is past the supported precision cap of 360; the error names the
    # largest valid N before any theta series is expanded
    monkeypatch.setattr(relations, "rosenhain_triple", _no_triple)
    with pytest.raises(ValueError, match="N=361 is too large for the kernel "
                       "rows of delta=5; the largest valid N is 360$"):
        find_relation(5, 2, precision=361)


def test_a_degree_past_the_cap_is_refused_before_listing(monkeypatch):
    # degree 1000 has C(1003, 3) unknowns; its default N=51,804 is past
    # the cap, which is refused before a single orbit is listed
    def no_listing(*args):
        raise AssertionError("monomial_basis called")
    monkeypatch.setattr(relations, "monomial_basis", no_listing)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="N=51804 is too large for the "
                       "kernel rows of delta=5; the largest valid N is 360$"):
        find_relation(5, 1000)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("degree", [1000, 60])
def test_more_top_degree_monomials_than_points_is_refused_before_listing(
        monkeypatch, degree):
    # at N=100 the 25 x 25 lattice points are fewer than the C(degree+2, 2)
    # top-degree monomials, 501,501 or 1,891, so the nullity would pass
    # every count of multiples: the AmbiguousKernel is raised before a
    # single orbit is listed or any theta series is expanded
    def no_listing(*args):
        raise AssertionError("monomial_basis called")
    monkeypatch.setattr(relations, "monomial_basis", no_listing)
    monkeypatch.setattr(relations, "rosenhain_triple", _no_triple)
    start = time.perf_counter()
    with pytest.raises(AmbiguousKernel) as info:
        find_relation(5, degree, precision=100)
    assert time.perf_counter() - start < 1
    exc = info.value
    assert type(exc) is AmbiguousKernel
    assert (exc.kernel_dim, exc.degree, exc.delta, exc.precision,
            exc.residual_checks) == (None, degree, 5, 100, None)
    assert str(exc) == (
        "degree %d for delta=5 at N=100 has %d top-degree monomials, more "
        "than the 625 lattice points times the orbit width 1: the kernel "
        "dimension exceeds every count of multiples; the precision is too "
        "small for this degree" % (degree, comb(degree + 2, 2)))


class _Listed(Exception):
    pass


@pytest.mark.parametrize("degree, precision, symmetry, refused", [
    (7, 24, None, False),  # 36 top-degree monomials, 6 x 6 points
    (7, 20, None, True),  # 36 > 5 x 5
    (10, 24, None, True),  # 66 > 6 x 6
    (10, 24, "e1e2", False),  # 66 <= 2 x 6 x 6
    (10, 20, "e1e2", True)])  # 66 > 2 x 5 x 5
def test_the_guard_counts_points_times_the_orbit_width(
        monkeypatch, degree, precision, symmetry, refused):
    def listing(*args):
        raise _Listed
    monkeypatch.setattr(relations, "monomial_basis", listing)
    with pytest.raises(AmbiguousKernel if refused else _Listed):
        find_relation(5, degree, precision=precision, symmetry=symmetry)


def test_a_guarded_input_has_a_kernel_past_every_count_of_multiples():
    # the reason for the guard, on a refused input small enough to run:
    # degree 7 at N=20 has 120 unknowns and at most 25 equations, so the
    # nullity passes ends[6] = 84, the largest count of multiples
    disc = humbert_params(5)
    cut = rosenhain_triple(disc, 20)
    kernel = _kernel_mod(cut, monomial_basis(7), _PRIMES[0])
    assert len(kernel) >= 120 - 25 > comb(6 + 3, 3) == 84


@pytest.mark.parametrize("symmetry", list(_SYMMETRIES))
def test_the_default_first_precision_never_trips_the_guard(symmetry):
    # the default first N is at least default_precision(degree), whose
    # ceil(N/4)^2 exceeds C(degree+3, 3), the unknowns without symmetry,
    # and so the C(degree+2, 2) top-degree monomials too
    width = 1 + len(_SYMMETRIES[symmetry])
    for degree in range(1, 41):
        m = -(-default_precision(degree) // 4)
        assert m * m > comb(degree + 3, 3)
        assert comb(degree + 2, 2) <= m * m * width


@pytest.mark.parametrize("degree, unknowns", [(35, 8436), (100, 176851)])
def test_more_unknowns_than_the_float64_bound_is_refused(monkeypatch, degree,
                                                        unknowns):
    # at N=360 both pass the top-degree guard, but `_within`'s float64
    # products admit 8,191 unknowns: the search is refused as a usage
    # error before any theta series, not by its AssertionError after an
    # elimination (degree 35) or a row build of about 11 GB (degree 100)
    monkeypatch.setattr(relations, "rosenhain_triple", _no_triple)
    start = time.perf_counter()
    with pytest.raises(ValueError) as info:
        find_relation(5, degree, precision=360)
    assert time.perf_counter() - start < 1
    assert str(info.value) == (
        "degree %d for delta=5 has %d unknowns, more than the 8191 that the "
        "float64 elimination admits (n(p-1)^2 + p < 2^53)"
        % (degree, unknowns))


@pytest.mark.parametrize("delta, degree, symmetry, unknowns", [
    (5, 35, None, 8436), (5, 100, None, 176851), (12, 44, "e1e2", 8372)])
def test_the_unknown_cap_counts_and_lists_nothing(monkeypatch, delta, degree,
                                                  symmetry, unknowns):
    # the refusal names the count without building `monomial_basis`
    listed = []
    basis = relations.monomial_basis

    def spy(*args):
        listed.append(args)
        return basis(*args)

    monkeypatch.setattr(relations, "monomial_basis", spy)
    monkeypatch.setattr(relations, "rosenhain_triple", _no_triple)
    with pytest.raises(ValueError, match="has %d unknowns, more than the 8191"
                       % unknowns):
        find_relation(delta, degree, precision=360, symmetry=symmetry)
    assert listed == []


def test_the_unknown_count_is_the_length_of_the_basis():
    # C(d+3, 3) triples; under "e1e2" Burnside's count of their orbits
    for symmetry in _SYMMETRIES:
        for d in range(41):
            assert (relations._unknown_count(d, symmetry)
                    == len(monomial_basis(d, symmetry))), (d, symmetry)


def test_the_unknown_cap_is_the_float64_bound_and_the_default_never_hits_it():
    # 8,191 is the largest n with n (p-1)^2 + p < 2^53 at every prime, and
    # the default schedule refuses a degree past it through _MAX_N first:
    # degree 33, the last it admits, has C(36, 3) = 7,140 unknowns
    assert relations._MAX_UNKNOWNS == 8191
    assert len(monomial_basis(34)) == comb(37, 3) <= 8191 < comb(38, 3)
    assert max(d for d in range(1, 60)
               if default_precision(d) <= _MAX_N) == 33


def _spy_on_triples(monkeypatch):
    """Log the precision of every `relations.rosenhain_triple` call."""
    built = []
    triple = relations.rosenhain_triple

    def logging(disc, precision):
        built.append(precision)
        return triple(disc, precision)

    monkeypatch.setattr(relations, "rosenhain_triple", logging)
    return built


@pytest.mark.parametrize("degree, symmetry, message", [
    (0, None, "degree must be >= 1"),
    (8, "e2e3", "unsupported symmetry 'e2e3'")])
def test_bad_degree_or_symmetry_builds_no_triple(monkeypatch, degree,
                                                 symmetry, message):
    # the degree and symmetry are checked before the schedule, so a bad
    # one is rejected before any Rosenhain triple is expanded
    built = _spy_on_triples(monkeypatch)
    with pytest.raises(ValueError, match=message):
        find_relation(5, degree, symmetry=symmetry)
    assert built == []


def test_automatic_schedule_stops_at_the_cap(monkeypatch):
    # delta=289 (k=72, l=1) starts at N = 4(k + l) + 1 = 293, whose kernel
    # has dimension 3; the next attempt, N=366, is past the cap of 360, so
    # the schedule ends and the N=293 AmbiguousKernel is raised
    built = _spy_on_triples(monkeypatch)
    with pytest.raises(AmbiguousKernel) as info:
        find_relation(289, 2)
    assert type(info.value) is AmbiguousKernel
    assert (info.value.kernel_dim, info.value.precision) == (3, 293)
    assert built == [301]
    # a start past the cap is still a ValueError before any theta series:
    # delta=361 (k=90, l=1) would start at N=365
    with pytest.raises(ValueError, match="N=365 is too large for the kernel "
                       "rows of delta=361; the largest valid N is 360$"):
        find_relation(361, 1)
    assert built == [301]


def test_each_attempt_builds_one_triple_at_n_plus_8(monkeypatch):
    # N=60 is ambiguous for delta=5, degree 8, and N=76 gives the relation;
    # each attempt's kernel reads the truncation of its N + 8 triple
    built = _spy_on_triples(monkeypatch)
    report = find_relation(5, 8)
    assert report.precision == 76
    assert built == [68, 84]


def test_no_relation_is_decided_at_the_first_prime(monkeypatch):
    built, solved = [], []
    monomial_rows_mod = relations._monomial_rows_mod
    nullspace = relations._nullspace_mod

    def building(ros, basis, p):
        built.append((ros.precision, p))
        return monomial_rows_mod(ros, basis, p)

    def solving(mat, p):
        solved.append((built[-1][0], p))
        columns.append(mat.shape[1])
        return nullspace(mat, p)

    columns = []
    monkeypatch.setattr(relations, "_monomial_rows_mod", building)
    monkeypatch.setattr(relations, "_nullspace_mod", solving)
    with pytest.raises(NoRelation):
        find_relation(12, 3)
    # the rows are built once per prime tried; the default N=28 has a kernel
    # of dimension 3 at every prime, so its first prime decides it, and the
    # escalation to N=44 stops at its first prime, whose nullity is 0 on the
    # new equations inside those three kernel vectors
    p0 = _PRIMES[0]
    assert built == [(28, p0), (44, p0)]
    assert solved == built
    assert columns == [len(monomial_basis(3)), 3]


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


def test_imprimitive_search_reuses_the_first_prime_kernel(monkeypatch):
    # the degree-4 kernel for Delta = 4 at N=48 has dimension 10; its
    # degree-2 part is z K for the one vector z of the 25 x 10 system of K's
    # columns past the degree-2 prefix, so no 10-column system of lattice
    # points is eliminated, and its one-prime lift is the factor
    solved = []
    nullspace = relations._nullspace_mod

    def solving(mat, p):
        ker = nullspace(mat, p)
        solved.append((p, mat.shape[1], len(ker)))
        return ker

    monkeypatch.setattr(relations, "_nullspace_mod", solving)
    with pytest.raises(ImprimitiveKernel) as info:
        find_relation(4, 4, precision=48)
    exc = info.value
    p0 = _PRIMES[0]
    assert solved == [(p0, 35, 10), (p0, 10, 1)]
    assert str(exc) == ("kernel dimension 10 at degree 4 for delta=4 at "
                        "N=48 is spanned by the multiples of the degree-2 "
                        "relation e_1e_2 - e_3; search at degree 2")
    assert exc.factor == MultiPoly({(1, 1, 0): 1, (0, 0, 1): -1})
    assert exc.factor_degree == 2
    assert (exc.kernel_dim, exc.degree, exc.delta, exc.precision,
            exc.residual_checks) == (10, 4, 4, 48, None)


def test_imprimitive_search_reuses_the_callers_triple(monkeypatch):
    # the degree-2 factor search runs on the N + 8 = 56 triple already
    # built, and builds none of its own
    built = _spy_on_triples(monkeypatch)
    with pytest.raises(ImprimitiveKernel) as info:
        find_relation(4, 4, precision=48)
    assert info.value.factor == MultiPoly({(1, 1, 0): 1, (0, 0, 1): -1})
    assert built == [56]


@pytest.mark.parametrize("failure", [NoRelation, AmbiguousKernel])
def test_failed_factor_search_leaves_a_plain_ambiguous_kernel(monkeypatch,
                                                              failure):
    # the degree-4 kernel for Delta = 4 at N=48 has dimension 10, the count
    # of degree-2 multiples; when the degree-2 search does not give the
    # factor, the kernel is only called ambiguous
    search = relations._find_relation_on

    def failing_below_4(ros, cut, basis, *kernel):
        if sum(basis[-1][0]) < 4:  # the degree of the last orbit
            raise failure("no factor")
        return search(ros, cut, basis, *kernel)

    monkeypatch.setattr(relations, "_find_relation_on", failing_below_4)
    with pytest.raises(AmbiguousKernel) as info:
        find_relation(4, 4, precision=48)
    assert type(info.value) is AmbiguousKernel
    assert info.value.kernel_dim == 10
    assert str(info.value) == (
        "kernel dimension 10 at degree 4 for delta=4 at N=48; the precision "
        "is too small or the relation has a lower degree")


def test_imprimitive_kernel_under_symmetry():
    # under e1 <-> e2 the degree-4 kernel for Delta = 4 at N=48 is the
    # symmetric multiples of e1 e2 - e3: one per orbit of degree <= 2
    with pytest.raises(ImprimitiveKernel) as info:
        find_relation(4, 4, symmetry="e1e2", precision=48)
    exc = info.value
    assert exc.factor == MultiPoly({(1, 1, 0): 1, (0, 0, 1): -1})
    assert exc.factor_degree == 2
    assert exc.kernel_dim == 7 == len(monomial_basis(2, "e1e2"))
    assert "e_1e_2 - e_3" in str(exc)


def test_recheck_failure_names_the_failing_precision(monkeypatch):
    # the N=60 kernel vector for Delta=12, degree 8 (e1e2) vanishes to
    # N=60 but not on the N + 8 triple; the one-prime lift is rechecked
    # once, and the equal two-prime lift is refused without a second
    # recheck
    rechecked, lifts = [], []
    evaluate, lift = relations.eval_on_series, relations._lift_kernel_vector

    def counting(poly, ros):
        rechecked.append(poly)
        return evaluate(poly, ros)

    def lifting(vecs, primes):
        lifts.append(list(primes))
        return lift(vecs, primes)

    monkeypatch.setattr(relations, "eval_on_series", counting)
    monkeypatch.setattr(relations, "_lift_kernel_vector", lifting)
    with pytest.raises(AmbiguousKernel) as info:
        find_relation(12, 8, symmetry="e1e2", precision=60)
    assert type(info.value) is AmbiguousKernel
    assert info.value.residual_checks == [(60, True), (68, False)]
    assert info.value.precision == 60
    assert "exact recheck at N=68" in str(info.value)
    assert len(rechecked) == 1
    assert lifts == [list(_PRIMES[:1]), list(_PRIMES[:2])]


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
               + TruncatedSeries({(0, 0): -1}, n + 1))
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
