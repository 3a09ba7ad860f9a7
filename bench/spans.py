"""In-memory span recording around the public functions of `humbert`.

The recorder replaces a function at the module (or class) attribute its
callers look up with a wrapper that records one span per call:

    (span id, name, start, end, parent span id, operation id, attrs)

Nothing under `src/` is changed; `Recorder.uninstall` puts every original
back.  Two kinds of wrap point exist:

* layer spans (theta, rosenhain, relations, poly, s6, oracle) nest: a call
  made while another layer span is open becomes its child, and a layer's
  self time is its duration minus the union of its children's intervals;
* primitive spans (`TruncatedSeries.__mul__` and `.inverse`) record calls
  and inclusive time only.  They never become parents and are not
  subtracted from their caller's self time, so the self time of
  `relations.find_relation` or `poly.eval_on_series` includes the exact
  series arithmetic that layer asked for.
"""

import functools
import importlib
import json
import sys
import time

# (span name, module, attribute path, primitive?)  Each entry is one
# attribute some caller looks up; a function reached through two modules is
# wrapped at both, under one span name.
WRAP_POINTS = (
    ("theta.restricted_theta", "humbert.rosenhain", "restricted_theta", False),
    ("rosenhain.rosenhain_triple", "humbert.rosenhain", "rosenhain_triple",
     False),
    ("rosenhain.rosenhain_triple", "humbert.relations", "rosenhain_triple",
     False),
    ("relations.find_relation", "humbert.relations", "find_relation", False),
    ("poly.eval_on_series", "humbert.poly", "eval_on_series", False),
    ("poly.eval_on_series", "humbert.relations", "eval_on_series", False),
    ("poly.substitute_rational", "humbert.s6", "substitute_rational", False),
    ("s6.act", "humbert.s6", "act", False),
    ("s6.orbit", "humbert.s6", "orbit", False),
    ("s6.fixed_group", "humbert.s6", "fixed_group", False),
    ("oracle.verify_component", "humbert.oracle", "verify_component", False),
    ("oracle.theta_direct", "humbert.oracle", "theta_direct", False),
    ("series.mul", "humbert.series", "TruncatedSeries.__mul__", True),
    ("series.inverse", "humbert.series", "TruncatedSeries.inverse", True),
)


def _precision_attr(args, kwargs):
    """rosenhain_triple(disc, precision): keep N, which counts attempts."""
    n = kwargs.get("precision", args[1] if len(args) > 1 else None)
    return {"precision": n}


ATTRS = {"rosenhain.rosenhain_triple": _precision_attr}


class Recorder:
    """Holds the spans of one process in memory until `dump`."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.op = None
        self._stack = []
        self._installed = []

    def wrap(self, name, fn, primitive=False):
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = {"id": len(self.spans), "name": name, "parent": parent,
                    "op": self.op, "start": None, "end": None}
            if attrs is not None:
                span["attrs"] = attrs(args, kwargs)
            self.spans.append(span)
            if not primitive:
                self._stack.append(span["id"])
            span["start"] = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = self.clock()
                if not primitive:
                    self._stack.pop()
        return wrapper

    def install(self, points=WRAP_POINTS):
        """Wrap every point that exists; warn about the ones that do not."""
        for name, module_name, attr, primitive in points:
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                print("warning: wrap point %s.%s not found; %s reports 0 "
                      "calls" % (module_name, attr, name), file=sys.stderr)
                continue
            setattr(owner, leaf, self.wrap(name, original, primitive))
            self._installed.append((owner, leaf, original))

    def uninstall(self):
        for owner, leaf, original in reversed(self._installed):
            setattr(owner, leaf, original)
        self._installed.clear()

    def dump(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _union_length(intervals):
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Map span id -> duration minus the union of its children's intervals.

    Children are the spans naming it as parent; child intervals are clipped
    to the parent's, so overlapping or overhanging children are counted
    once.
    """
    by_id = {s["id"]: s for s in spans}
    children = {}
    for s in spans:
        if s["parent"] in by_id:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        clipped = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                   for c in children.get(s["id"], ())]
        covered = _union_length([iv for iv in clipped if iv[0] < iv[1]])
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out
