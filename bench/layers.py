"""Per-layer metrics of one traced pass, computed from its spans.

Self times come from `spans.self_times` over the layer spans; the
primitive `series.*` spans contribute only their own calls and inclusive
seconds.  Every workload reports every name in `PER_LAYER`, with 0 where
the layer does not run.
"""

from spans import WRAP_POINTS, self_times
from workloads import OP_NAMES

PRIMITIVES = {name for name, _, _, primitive in WRAP_POINTS if primitive}

SEARCH_OPS = OP_NAMES["search"]
CLASSIFY_OPS = OP_NAMES["classify"]

PER_LAYER = (
    [("relations.find_relation.self_s", "s")]
    + [("relations.%s.self_s" % op, "s") for op in SEARCH_OPS]
    + [("relations.%s.attempts" % op, "count") for op in SEARCH_OPS]
    + [("relations.%s.final_precision" % op, "N") for op in SEARCH_OPS]
    + [
        ("rosenhain.rosenhain_triple.calls", "count"),
        ("rosenhain.rosenhain_triple.self_s", "s"),
        ("rosenhain.rosenhain_triple.s", "s"),
        ("theta.restricted_theta.calls", "count"),
        ("theta.restricted_theta.s", "s"),
        ("series.mul.calls", "count"),
        ("series.mul.s", "s"),
        ("series.inverse.calls", "count"),
        ("series.inverse.s", "s"),
        ("poly.eval_on_series.calls", "count"),
        ("poly.eval_on_series.self_s", "s"),
        ("s6.act.calls", "count"),
        ("s6.act.s", "s"),
        ("poly.substitute_rational.s", "s"),
        ("s6.orbit.self_s", "s"),
        ("s6.fixed_group.self_s", "s"),
    ]
    + [("s6.%s.act_calls" % op, "count") for op in CLASSIFY_OPS]
    + [("s6.%s.useful_ratio" % op, "ratio") for op in CLASSIFY_OPS]
    + [
        ("oracle.verify_component.self_s", "s"),
        ("oracle.theta_direct.calls", "count"),
        ("oracle.theta_direct.s", "s"),
        ("trace.overhead_s", "s"),
    ]
)


def _attempts(triples):
    """Precisions tried, in order, without the N + 8 confirmations.

    A dim-1 kernel at N is always confirmed on a fresh triple at N + 8, and
    escalation steps are at least 16, so a triple at the last attempt's
    precision + 8 is a confirmation.  (60, 68, 76, 84) is two attempts: 60
    failed its recheck and 76 passed.
    """
    tried = []
    for span in sorted(triples, key=lambda s: s["start"]):
        n = span["attrs"]["precision"]
        if not tried or n != tried[-1] + 8:
            tried.append(n)
    return tried


def layer_metrics(spans, sizes):
    """Metrics of one traced pass; `sizes` maps op name -> result size.

    `trace.overhead_s` needs an untraced pass and is filled in by the
    caller.
    """
    layer = [s for s in spans if s["name"] not in PRIMITIVES]
    selfs = self_times(layer)
    by_id = {s["id"]: s for s in layer}

    def pick(name, op=None):
        return [s for s in spans
                if s["name"] == name and (op is None or s["op"] == op)]

    def incl(name):
        return sum(s["end"] - s["start"] for s in pick(name))

    def own(name, op=None):
        return sum(selfs[s["id"]] for s in pick(name, op))

    out = {name: 0 for name, _ in PER_LAYER}
    out["relations.find_relation.self_s"] = own("relations.find_relation")
    for op in SEARCH_OPS:
        out["relations.%s.self_s" % op] = own("relations.find_relation", op)
        tried = _attempts(
            s for s in pick("rosenhain.rosenhain_triple", op)
            if by_id.get(s["parent"], {}).get("name")
            == "relations.find_relation")
        out["relations.%s.attempts" % op] = len(tried)
        out["relations.%s.final_precision" % op] = tried[-1] if tried else 0
    for name in ("rosenhain.rosenhain_triple", "theta.restricted_theta",
                 "series.mul", "series.inverse", "poly.eval_on_series",
                 "s6.act", "oracle.theta_direct"):
        out[name + ".calls"] = len(pick(name))
    for name in ("rosenhain.rosenhain_triple", "theta.restricted_theta",
                 "series.mul", "series.inverse", "s6.act",
                 "poly.substitute_rational", "oracle.theta_direct"):
        out[name + ".s"] = incl(name)
    for name in ("rosenhain.rosenhain_triple", "poly.eval_on_series",
                 "s6.orbit", "s6.fixed_group", "oracle.verify_component"):
        out[name + ".self_s"] = own(name)
    for op in CLASSIFY_OPS:
        calls = len(pick("s6.act", op))
        out["s6.%s.act_calls" % op] = calls
        out["s6.%s.useful_ratio" % op] = (sizes.get(op, 0) / calls
                                           if calls else 0)
    return out
