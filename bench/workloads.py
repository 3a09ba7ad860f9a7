"""The benchmark's workloads: seeded inputs, operations and output checks.

Each workload is a list of operations.  `setup(workload, seed)` imports
`humbert`, loads the reference polynomials and builds the seeded inputs;
the worker times that as set-up.  An operation calls the library through
module attributes looked up at call time, so the wrappers of a traced run
see every call.  Its check runs after the clock stops.

* search   -- `find_relation` on four (delta, degree) cases; the seed only
              permutes their order.
* certify  -- for delta 5, 8, 12: an exact zero check of h_delta on the
              Rosenhain triple at N = 112, then `verify_component` with 200
              trials and the seed as its sampling seed.
* classify -- orbit and fixed group of g = act(sigma, h_delta), where sigma
              is the first permutation in `all_perms()` order outside the
              paper's stabilizer of h_delta; the seed permutes the order of
              the five calls.  (A seeded sigma would make the work depend on
              the seed: over the 15 components of the H_12 orbit,
              `fixed_group` makes 48 to 96 exact `act` calls of unequal
              cost.)

This module imports no part of `humbert` at load time.
"""

import importlib.resources
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# h5.txt and h8.txt were written once, as
# format_poly(find_relation(delta, 8, precision=76).polynomial)
REFS = Path(__file__).resolve().parent / "refs"

# the degree-2 component of H_4, found by find_relation(4, 2)
H4 = "e_1e_2 - e_3"

# (op name, delta, degree, symmetry); None as the reference marks the case
# that must raise NoRelation
SEARCH_CASES = (
    ("D4d2", 4, 2, None),
    ("D5d8", 5, 8, None),
    ("D8d8", 8, 8, None),
    ("D12d8sym", 12, 8, "e1e2"),
)
CERTIFY_DELTAS = (5, 8, 12)
CERTIFY_PRECISION = 112
CERTIFY_TRIALS = 200
ORACLE_MAX_RESIDUAL = 1e-12
# (op name, delta, kind)
CLASSIFY_OPS = (
    ("orbit_h5", 5, "orbit"),
    ("fixgroup_h5", 5, "fixgroup"),
    ("orbit_h8", 8, "orbit"),
    ("fixgroup_h8", 8, "fixgroup"),
    ("fixgroup_h12", 12, "fixgroup"),
)

OP_NAMES = {
    "search": tuple(c[0] for c in SEARCH_CASES),
    "certify": tuple("%s_D%d" % (kind, d) for d in CERTIFY_DELTAS
                     for kind in ("exact", "oracle")),
    "classify": tuple(c[0] for c in CLASSIFY_OPS),
}


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    # (value, exception) -> True when the outcome is the expected one
    check: Callable[[object, object], bool]
    # value -> size of the useful result (orbit size, stabilizer order)
    size: Callable[[object], int] = None


def reference(delta):
    """The canonical reference polynomial h_delta."""
    from humbert.poly import parse_poly
    if delta == 4:
        return parse_poly(H4)
    if delta == 12:
        text = (importlib.resources.files("humbert") / "data"
                / "h12.txt").read_text()
    else:
        text = (REFS / ("h%d.txt" % delta)).read_text()
    return parse_poly(text)


def setup(workload, seed):
    """Import the library and build the operations of one workload."""
    return _SETUP[workload](seed)


def _search(seed):
    from humbert import relations

    def run(delta, degree, symmetry):
        return lambda: relations.find_relation(delta, degree,
                                               symmetry=symmetry)

    def check(expected):
        def ok(report, exc):
            if expected is None:
                return isinstance(exc, relations.NoRelation)
            return (exc is None and report.polynomial == expected
                    and report.kernel_dim == 1
                    and bool(report.residual_checks)
                    and all(passed for _, passed in report.residual_checks))
        return ok

    cases = list(SEARCH_CASES)
    random.Random(seed).shuffle(cases)
    return [Op(name, run(delta, degree, sym),
               check(None if sym else reference(delta)))
            for name, delta, degree, sym in cases]


def _certify(seed):
    from humbert import oracle, poly, rosenhain, theta

    def exact(disc, h):
        def run():
            triple = rosenhain.rosenhain_triple(disc, CERTIFY_PRECISION)
            return poly.eval_on_series(h, triple).is_zero()
        return run

    def verify(h, delta):
        return lambda: oracle.verify_component(h, delta,
                                               trials=CERTIFY_TRIALS,
                                               seed=seed)

    def exact_ok(is_zero, exc):
        return exc is None and is_zero is True

    def oracle_ok(result, exc):
        return (exc is None and result[0]
                and result[1] < ORACLE_MAX_RESIDUAL)

    ops = []
    for delta in CERTIFY_DELTAS:
        h = reference(delta)
        ops.append(Op("exact_D%d" % delta,
                      exact(theta.humbert_params(delta), h), exact_ok))
        ops.append(Op("oracle_D%d" % delta, verify(h, delta), oracle_ok))
    return ops


def _classify(seed):
    from humbert import degrees, s6

    inputs = {}
    for delta in sorted({d for _, d, _ in CLASSIFY_OPS}):
        stabilizer = s6.mulclose(s6.paper_generators(delta))
        sigma = next(p for p in s6.all_perms() if p not in stabilizer)
        h = reference(delta)
        inputs[delta] = (sigma, h, stabilizer, s6.act(sigma, h))

    def orbit_op(name, delta):
        _, h, _, g = inputs[delta]
        m = degrees.m_components(delta)

        def ok(orbit, exc):
            return exc is None and len(orbit) == m and {g, h} <= orbit
        return Op(name, lambda: s6.orbit(g), ok, len)

    def fixgroup_op(name, delta):
        sigma, h, stabilizer, g = inputs[delta]
        inv = sigma.inverse()
        expected = {sigma * x * inv for x in stabilizer}

        def ok(group, exc):
            return exc is None and group == expected
        return Op(name, lambda: s6.fixed_group(g), ok, len)

    make = {"orbit": orbit_op, "fixgroup": fixgroup_op}
    cases = list(CLASSIFY_OPS)
    random.Random(seed).shuffle(cases)
    return [make[kind](name, delta) for name, delta, kind in cases]


_SETUP = {"search": _search, "certify": _certify, "classify": _classify}
WORKLOADS = tuple(_SETUP)
