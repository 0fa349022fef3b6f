"""Tests for the metrics-snapshot producers behind the exact-match gate.

The generic record/check/drift behaviour of ``repro.metrics-baseline/1``
files is covered with every other exact schema in
``test_regression.py::TestExactBaselines``.
"""

import json

from repro.observability.regression import (
    BASELINE_KINDS,
    BASELINE_SCHEMA,
    METRICS_BASELINE_SCHEMA,
    measure_metrics,
    measure_service_metrics,
    record,
    run_check,
)


class TestMeasureDeterminism:
    def test_leiden_snapshot_repeatable(self):
        a = measure_metrics("asia_osm", seed=42)
        b = measure_metrics("asia_osm", seed=42)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_service_snapshot_repeatable(self):
        a = measure_service_metrics("tiny", seed=0)
        b = measure_service_metrics("tiny", seed=0)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert a["health"]["schema"] == "repro.health/1"


class TestGate:
    def test_mixed_dir_dispatches_by_schema(self, tmp_path, capsys):
        record(tmp_path, BASELINE_SCHEMA,
               *BASELINE_KINDS[BASELINE_SCHEMA].specs[0])
        record(tmp_path, METRICS_BASELINE_SCHEMA, "metrics_asia_osm.json",
               {"kind": "leiden", "target": "asia_osm", "seed": 42})
        assert run_check(tmp_path) == 0
        out = capsys.readouterr().out
        assert "PASS asia_osm" in out
        assert "PASS metrics_asia_osm" in out
