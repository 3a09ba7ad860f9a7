"""BENCHMARK.json names exactly the workloads and metrics run.py reports.

    python3 -m pytest -q bench/tests
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

MANIFEST = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_workloads_match():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(
        workloads.WORKLOADS)


def test_metric_names_and_units_match():
    assert [(m["name"], m["unit"]) for m in MANIFEST["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in MANIFEST["per_layer"]] == list(
        layers.PER_LAYER)
