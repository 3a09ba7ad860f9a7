"""Self-time arithmetic and wrap-point handling of bench/spans.py.

    python3 -m pytest -q bench/tests
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import layers  # noqa: E402
import spans  # noqa: E402


def span(sid, parent, start, end, name="x", op=None, **attrs):
    s = {"id": sid, "name": name, "parent": parent, "op": op,
         "start": start, "end": end}
    if attrs:
        s["attrs"] = attrs
    return s


def test_nested_children_are_subtracted_once():
    # root [0, 10] with children [1, 3] and [4, 9]; the second has a
    # grandchild [5, 6] that must not be subtracted from the root again
    tree = [span(0, None, 0.0, 10.0), span(1, 0, 1.0, 3.0),
            span(2, 0, 4.0, 9.0), span(3, 2, 5.0, 6.0)]
    got = spans.self_times(tree)
    assert got == pytest.approx({0: 3.0, 1: 2.0, 2: 4.0, 3: 1.0})


def test_overlapping_and_overhanging_children_count_once():
    # children [1, 4] and [3, 6] overlap on [3, 4]; [8, 12] overhangs the
    # parent's end at 10, so only [8, 10] is covered
    tree = [span(0, None, 0.0, 10.0), span(1, 0, 1.0, 4.0),
            span(2, 0, 3.0, 6.0), span(3, 0, 8.0, 12.0),
            span(4, 0, 2.0, 2.5)]
    got = spans.self_times(tree)
    assert got[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert got[3] == pytest.approx(4.0)


def test_child_outside_parent_and_unknown_parent():
    tree = [span(0, None, 0.0, 1.0), span(1, 0, 2.0, 3.0),
            span(2, 99, 0.0, 5.0)]
    assert spans.self_times(tree) == pytest.approx({0: 1.0, 1: 1.0, 2: 5.0})


def test_recorder_nests_layers_and_keeps_primitives_transparent():
    ticks = iter(range(100))
    rec = spans.Recorder(clock=lambda: float(next(ticks)))
    prim = rec.wrap("series.mul", lambda: None, primitive=True)
    inner = rec.wrap("inner", lambda: prim())
    outer = rec.wrap("outer", lambda: (inner(), prim()))
    rec.op = "op1"
    outer()
    names = {s["name"]: s for s in rec.spans}
    assert names["inner"]["parent"] == names["outer"]["id"]
    assert [s["parent"] for s in rec.spans if s["name"] == "series.mul"] == [
        names["inner"]["id"], names["outer"]["id"]]
    assert all(s["op"] == "op1" for s in rec.spans)
    metrics = layers.layer_metrics(rec.spans, {})
    assert metrics["series.mul.calls"] == 2


def test_missing_wrap_point_warns_and_reports_zero(capsys):
    rec = spans.Recorder()
    rec.install([("s6.act", "json", "no_such_function", False)])
    assert "json.no_such_function not found" in capsys.readouterr().err
    assert layers.layer_metrics(rec.spans, {})["s6.act.calls"] == 0


def test_install_and_uninstall_restore_the_original():
    import json
    original = json.dumps
    rec = spans.Recorder()
    rec.install([("json.dumps", "json", "dumps", False)])
    assert json.dumps is not original
    json.dumps([1])
    rec.uninstall()
    assert json.dumps is original
    assert [s["name"] for s in rec.spans] == ["json.dumps"]


def test_attempts_skip_the_confirmation_triple():
    triples = [span(i, 0, float(i), i + 0.5, precision=n)
               for i, n in enumerate((60, 76, 84))]
    assert layers._attempts(triples) == [60, 76]
    assert layers._attempts(triples[:1]) == [60]
    # 60 passed the kernel but failed the recheck at 68; 76 = 68 + 8 is the
    # next attempt, not a confirmation
    failed_recheck = [span(i, 0, float(i), i + 0.5, precision=n)
                      for i, n in enumerate((60, 68, 76))]
    assert layers._attempts(failed_recheck) == [60, 76]
