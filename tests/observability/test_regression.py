"""Tests for the baseline store and the ``bench --check`` perf gate."""

import json

import pytest

from repro.observability import regression
from repro.observability.regression import (
    BASELINE_KINDS,
    BASELINE_SCHEMA,
    Baseline,
    ExactBaseline,
    RunMetrics,
    Thresholds,
    compare_metrics,
    format_checks,
    measure_experiment,
    record,
    run_check,
    run_trace,
)
from repro.observability.tracer import Tracer

GRAPH = "asia_osm"  # smallest smoke graph in the registry

#: The committed perf spec for GRAPH: ``("asia_osm.json", params)``.
PERF_SPEC = BASELINE_KINDS[BASELINE_SCHEMA].specs[0]
assert PERF_SPEC[0] == f"{GRAPH}.json"

EXACT_SCHEMAS = [s for s, k in BASELINE_KINDS.items()
                 if k.baseline is ExactBaseline]


def _record_perf(directory):
    return record(directory, BASELINE_SCHEMA, *PERF_SPEC)


def _metrics(**overrides):
    base = dict(wall_seconds=1.0, modeled_seconds=0.5, total_work=1000.0,
                modularity=0.9, num_passes=3, num_communities=10)
    base.update(overrides)
    return RunMetrics(**base)


def _baseline(metrics=None, thresholds=None):
    return Baseline(
        name="synthetic", graph=GRAPH, seed=42, num_threads=64,
        metrics=metrics or _metrics(),
        thresholds=thresholds or Thresholds(),
    )


class TestBaselineRoundTrip:
    def test_save_load(self, tmp_path):
        b = _baseline()
        path = tmp_path / "b.json"
        b.save(path)
        loaded = Baseline.load(path)
        assert loaded == b
        assert json.loads(path.read_text())["schema"] == BASELINE_SCHEMA

    def test_rejects_unknown_schema(self, tmp_path):
        doc = _baseline().to_dict()
        doc["schema"] = "repro.baseline/999"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="schema"):
            Baseline.load(path)


class TestCompareMetrics:
    def test_identical_run_passes(self):
        checks = compare_metrics(_baseline(), _metrics())
        assert all(c.ok for c in checks)
        assert {c.metric for c in checks} == {
            "wall_seconds", "modeled_seconds", "total_work", "modularity"
        }

    def test_wall_regression_past_threshold_fails(self):
        """The satellite case: a synthetic 20% slowdown must be caught
        by the default 15% wall threshold."""
        checks = compare_metrics(_baseline(), _metrics(wall_seconds=1.2))
        bad = {c.metric: c for c in checks if not c.ok}
        assert set(bad) == {"wall_seconds"}
        assert bad["wall_seconds"].regression == pytest.approx(0.2)

    def test_faster_run_passes(self):
        checks = compare_metrics(_baseline(), _metrics(wall_seconds=0.5))
        assert all(c.ok for c in checks)

    def test_modularity_gates_on_drop_only(self):
        up = compare_metrics(_baseline(), _metrics(modularity=0.95))
        assert all(c.ok for c in up)
        down = compare_metrics(_baseline(), _metrics(modularity=0.85))
        bad = [c for c in down if not c.ok]
        assert [c.metric for c in bad] == ["modularity"]

    def test_threshold_override(self):
        strict = Thresholds(wall_seconds=0.01)
        checks = compare_metrics(
            _baseline(), _metrics(wall_seconds=1.05), thresholds=strict
        )
        assert not all(c.ok for c in checks)

    def test_format_mentions_failure(self):
        checks = compare_metrics(_baseline(), _metrics(wall_seconds=1.2))
        text = format_checks("synthetic", checks)
        assert text.startswith("FAIL synthetic")
        assert "[REG] wall_seconds" in text
        assert "+20.0%" in text


class TestMeasureExperiment:
    def test_deterministic_modeled_metrics(self):
        a, _ = measure_experiment(GRAPH, seed=42)
        b, _ = measure_experiment(GRAPH, seed=42)
        assert a.modeled_seconds == b.modeled_seconds
        assert a.total_work == b.total_work
        assert a.modularity == b.modularity

    def test_tracer_capture(self):
        tracer = Tracer()
        metrics, result = measure_experiment(GRAPH, seed=42, tracer=tracer)
        assert metrics.num_passes == result.num_passes
        assert tracer.root.children[0].name == "leiden"


class TestRunCheck:
    def test_clean_tree_passes(self, tmp_path, capsys):
        _record_perf(tmp_path)
        assert run_check(tmp_path) == 0
        out = capsys.readouterr().out
        assert "PASS asia_osm" in out
        assert "1/1 baselines within thresholds" in out

    def test_injected_slowdown_fails_with_readable_diff(
        self, tmp_path, capsys, monkeypatch
    ):
        """A synthetic 20% wall-clock slowdown must exit non-zero and
        print which metric regressed by how much."""
        recorded = _record_perf(tmp_path)
        real = regression.measure_experiment

        def slowed(*args, **kwargs):
            # Exactly 20% slower than the recorded baseline — independent
            # of this machine's wall-clock noise between the two runs.
            _, result = real(*args, **kwargs)
            base = recorded.metrics
            slow = RunMetrics(**{**base.to_dict(),
                                 "wall_seconds": base.wall_seconds * 1.2})
            return slow, result

        monkeypatch.setattr(regression, "measure_experiment", slowed)
        assert run_check(tmp_path, thresholds=Thresholds()) == 1
        out = capsys.readouterr().out
        assert "FAIL asia_osm" in out
        assert "[REG] wall_seconds" in out
        assert "change=+20.0% (limit +15%)" in out
        assert "0/1 baselines within thresholds" in out

    def test_modeled_work_regression_fails(self, tmp_path, capsys, monkeypatch):
        _record_perf(tmp_path)
        real = regression.measure_experiment

        def heavier(*args, **kwargs):
            metrics, result = real(*args, **kwargs)
            heavy = RunMetrics(**{**metrics.to_dict(),
                                  "total_work": metrics.total_work * 1.5})
            return heavy, result

        monkeypatch.setattr(regression, "measure_experiment", heavier)
        assert run_check(tmp_path, thresholds=Thresholds()) == 1
        assert "[REG] total_work" in capsys.readouterr().out

    def test_missing_baseline_dir(self, tmp_path, capsys):
        assert run_check(tmp_path / "nowhere") == 2
        assert "no baselines" in capsys.readouterr().out


#: The cheapest params of each exact-baseline producer, and one leaf of
#: its document that the drift test tampers with.
CHEAP_CASES = {
    "service": (regression.SERVICE_BASELINE_SCHEMA, "service_tiny.json",
                {"profile": "tiny", "seed": 0}, ("stats", "clock_units")),
    "metrics": (
        regression.METRICS_BASELINE_SCHEMA, "metrics_asia_osm.json",
        {"kind": "leiden", "target": GRAPH, "seed": 42},
        ("families", "leiden_passes_total", "series", 0, "value")),
    "svc-metrics": (
        regression.METRICS_BASELINE_SCHEMA, "metrics_service_tiny.json",
        {"kind": "service", "target": "tiny", "seed": 0},
        ("meta", "clock_units")),
    "reorder": (regression.REORDER_BASELINE_SCHEMA, "reorder_asia_osm.json",
                {"graphs": [GRAPH], "seed": 42, "scramble_seed": 7,
                 "mode": "community"},
                (GRAPH, "layout_communities")),
    "fleet": (regression.FLEET_BASELINE_SCHEMA, "fleet_tiny.json",
              {"profile": "tiny", "seed": 0},
              ("runs", "shards_1", "stats", "clock_units")),
    "reqtrace": (regression.REQTRACE_BASELINE_SCHEMA, "reqtrace_tiny.json",
                 {"profile": "tiny", "seed": 0},
                 ("widths", "shards_1", "requests")),
    "memory": (regression.MEMORY_BASELINE_SCHEMA, "memory_quick.json",
               {"graph": GRAPH, "seed": 42}, ("logical", "peak_bytes")),
}


def _kind_id(schema):
    return BASELINE_KINDS[schema].label


@pytest.fixture(scope="module", params=sorted(CHEAP_CASES))
def recorded_case(request, tmp_path_factory):
    """One cheap exact baseline, recorded once per module."""
    schema, file_name, params, leaf = CHEAP_CASES[request.param]
    directory = tmp_path_factory.mktemp(request.param)
    baseline = record(directory, schema, file_name, params)
    return directory / file_name, baseline, leaf


class TestExactBaselines:
    """The exact-match gate, once per registry schema."""

    def test_cases_cover_registry(self):
        assert sorted({c[0] for c in CHEAP_CASES.values()}) == \
            sorted(EXACT_SCHEMAS)

    @pytest.mark.parametrize("schema", EXACT_SCHEMAS, ids=_kind_id)
    def test_save_load_roundtrip(self, schema, tmp_path):
        params = BASELINE_KINDS[schema].specs[0][1]
        b = ExactBaseline(schema, "x", params, {"stats": {"clock_units": 1}})
        path = tmp_path / "x.json"
        b.save(path)
        assert ExactBaseline.load(path) == b
        doc = json.loads(path.read_text())
        assert doc["schema"] == schema
        assert {k: doc[k] for k in params} == params

    @pytest.mark.parametrize("schema", EXACT_SCHEMAS, ids=_kind_id)
    def test_rejects_unknown_schema(self, schema, tmp_path):
        params = BASELINE_KINDS[schema].specs[0][1]
        doc = ExactBaseline(schema, "x", params, {}).to_dict()
        doc["schema"] = schema.replace("/1", "/9")
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="schema"):
            ExactBaseline.load(path)

    @pytest.mark.parametrize("schema", EXACT_SCHEMAS, ids=_kind_id)
    def test_rejects_missing_param(self, schema):
        params = dict(BASELINE_KINDS[schema].specs[0][1])
        params.pop(sorted(params)[0])
        doc = ExactBaseline(schema, "x", params, {}).to_dict()
        with pytest.raises(ValueError, match="parameters"):
            ExactBaseline.from_dict(doc)

    def test_perf_schema_is_not_exact(self):
        doc = Baseline(name="p", graph=GRAPH, seed=42, num_threads=64,
                       metrics=_metrics()).to_dict()
        with pytest.raises(ValueError, match="schema"):
            ExactBaseline.from_dict(doc)

    def test_record_then_check_passes(self, recorded_case, capsys):
        path, baseline, _ = recorded_case
        assert run_check(path.parent) == 0
        out = capsys.readouterr().out
        assert f"PASS {baseline.name} (exact match" in out
        assert "1/1 baselines within thresholds" in out

    def test_drifted_fails(self, recorded_case, tmp_path, capsys):
        path, baseline, leaf = recorded_case
        doc = json.loads(path.read_text())
        node = doc["expected"]
        for key in leaf[:-1]:
            node = node[key]
        node[leaf[-1]] += 1
        (tmp_path / path.name).write_text(json.dumps(doc))
        assert run_check(tmp_path) == 1
        out = capsys.readouterr().out
        dotted = "".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                         for k in leaf).lstrip(".")
        assert f"FAIL {baseline.name}" in out
        assert f"[REG] {dotted}: baseline=" in out

    def test_committed_files_match_registry(self, tmp_path):
        """Without re-measuring: each committed exact file round-trips
        byte-identically, its params equal the registry spec's, and
        the registry names exactly the committed directory."""
        directory = regression.default_baseline_dir()
        for schema in EXACT_SCHEMAS:
            for file_name, params in BASELINE_KINDS[schema].specs:
                committed = directory / file_name
                loaded = ExactBaseline.load(committed)
                loaded.save(tmp_path / file_name)
                assert ((tmp_path / file_name).read_bytes()
                        == committed.read_bytes()), file_name
                assert loaded.params == params, file_name
        assert regression.expected_baseline_names() == sorted(
            p.name for p in directory.glob("*.json"))


class TestServiceBaseline:
    def test_compare_service_docs_diffs(self):
        exp = {"a": 1, "b": {"c": [1, 2]}, "gone": 3}
        act = {"a": 1, "b": {"c": [1, 5]}, "new": 4}
        diffs = regression.compare_service_docs(exp, act)
        paths = {p for p, _, _ in diffs}
        assert paths == {"b.c[1]", "gone", "new"}
        assert regression.compare_service_docs(exp, dict(exp)) == []

    def test_mixed_dir_dispatches_by_schema(self, tmp_path, capsys):
        _record_perf(tmp_path)
        record(tmp_path, *CHEAP_CASES["service"][:3])
        assert run_check(tmp_path) == 0
        assert "2/2 baselines within thresholds" in capsys.readouterr().out


class TestStrayBaselineFile:
    def test_unknown_schema_fails_and_rest_are_checked(self, tmp_path,
                                                       capsys):
        _record_perf(tmp_path)
        (tmp_path / "bogus.json").write_text(json.dumps({"schema": "bogus/1"}))
        assert run_check(tmp_path) == 1
        out = capsys.readouterr().out
        assert "FAIL bogus.json: unknown schema 'bogus/1'" in out
        assert "PASS asia_osm" in out
        assert "1/2 baselines within thresholds" in out


class TestReqtraceBaseline:
    def test_measure_pins_mode_agreement_and_width_invariance(self):
        doc = regression.measure_reqtrace("tiny", seed=0)
        assert doc["kept_match"] is True
        assert doc["det_keep_invariant"] is True
        assert set(doc["widths"]) == {"shards_1", "shards_4"}

    def test_expected_names_include_reqtrace(self):
        assert "reqtrace_quick.json" in regression.expected_baseline_names()


class TestMemoryBaseline:
    def test_measure_is_deterministic_and_validated(self):
        a = regression.measure_memory(GRAPH, seed=42)
        b = regression.measure_memory(GRAPH, seed=42)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert a["logical"]["peak_bytes"] > 0
        assert a["logical"]["events_dropped"] == 0

    def test_expected_names_include_memory(self):
        assert "memory_quick.json" in regression.expected_baseline_names()


class TestRunTrace:
    def test_bundle_schema(self):
        bundle = run_trace([GRAPH], seed=42)
        assert bundle["schema"] == regression.TRACE_BUNDLE_SCHEMA
        doc = bundle["experiments"][GRAPH]
        assert doc["schema"] == "repro.trace/2"
        assert doc["meta"]["experiment"] == GRAPH
        assert doc["meta"]["metrics"]["num_passes"] >= 1
        assert doc["spans"][0]["name"] == "leiden"
        assert doc["counters"]["parallel_regions"] > 0


class TestCommittedBaselines:
    """The real gate: the files under benchmarks/baselines must pass."""

    def test_committed_baselines_pass_on_clean_tree(self):
        directory = regression.default_baseline_dir()
        assert directory.is_dir(), directory
        assert run_check(directory, print_fn=lambda *_: None) == 0


class TestMigrateTrace:
    def _traced_doc(self):
        tracer = Tracer()
        measure_experiment(GRAPH, seed=42, tracer=tracer)
        return tracer.to_dict(experiment=GRAPH, seed=42)

    def test_v2_to_v1_strips_series(self):
        doc = self._traced_doc()

        def any_series(span):
            return "series" in span or any(
                any_series(c) for c in span.get("children", ()))

        assert any(any_series(s) for s in doc["spans"])
        v1 = regression.migrate_trace(doc, target="repro.trace/1")
        assert v1["schema"] == "repro.trace/1"
        assert not any(any_series(s) for s in v1["spans"])
        # Counters / derived metrics survive the downgrade.
        assert v1["counters"] == doc["counters"]
        assert v1["derived"] == doc["derived"]

    def test_same_schema_passthrough_is_a_copy(self):
        doc = self._traced_doc()
        same = regression.migrate_trace(doc, target=doc["schema"])
        assert same == doc and same is not doc

    def test_unknown_migration_raises(self):
        doc = self._traced_doc()
        with pytest.raises(ValueError):
            regression.migrate_trace(doc, target="repro.trace/99")
        with pytest.raises(ValueError):
            regression.migrate_trace({"schema": "bogus/1"},
                                     target="repro.trace/1")


class TestTraceDiffHelpers:
    @staticmethod
    def _trace(**config):
        tracer = Tracer()
        measure_experiment(GRAPH, seed=42, tracer=tracer,
                           config=config or None)
        return tracer.to_dict(experiment=GRAPH, seed=42)

    def test_identical_docs_have_no_deterministic_diffs(self):
        a = self._trace()
        b = self._trace()
        rows = regression.diff_trace_docs(a, b)
        det = [r for r in rows if r["kind"] in ("counter", "derived")
               and r["a"] != r["b"]]
        assert det == []
        _, n = regression.format_trace_diff(rows, label_a="a", label_b="b")
        assert n == 0

    def test_counter_divergence_is_flagged(self):
        a = self._trace()
        b = self._trace(max_passes=1)
        rows = regression.diff_trace_docs(a, b)
        assert any(r["kind"] == "counter" and r["a"] != r["b"]
                   for r in rows)
        text, n = regression.format_trace_diff(rows, label_a="a",
                                               label_b="b")
        assert n > 0 and "[DIFF]" in text


class TestRunProfile:
    def test_bundle_schema_and_contents(self):
        bundle = regression.run_profile([GRAPH], seed=42, num_threads=4)
        assert bundle["schema"] == regression.PROFILE_BUNDLE_SCHEMA
        entry = bundle["experiments"][GRAPH]
        from repro.observability.profiler import validate_chrome_trace

        stats = validate_chrome_trace(entry["chrome"])
        assert stats["events"] > 0
        assert "per-phase attribution" in entry["report"]
        assert entry["metrics"]["modularity"] > 0.0

    def test_bundle_deterministic(self):
        """Chrome trace and report are byte-identical across runs
        (metrics carry wall-clock seconds, so they are excluded)."""
        a = regression.run_profile([GRAPH], seed=42, num_threads=4)
        b = regression.run_profile([GRAPH], seed=42, num_threads=4)
        ea, eb = a["experiments"][GRAPH], b["experiments"][GRAPH]
        assert json.dumps(ea["chrome"], sort_keys=True) == json.dumps(
            eb["chrome"], sort_keys=True)
        assert ea["report"] == eb["report"]


class TestMissingBaselines:
    """`bench --check` must hard-error when expected files are absent —
    a gate that silently skips missing baselines checks nothing."""

    def test_expected_names_cover_all_recorder_families(self):
        names = regression.expected_baseline_names()
        assert names == sorted(names)
        for g in regression.DEFAULT_BASELINE_GRAPHS:
            assert f"{g}.json" in names
        assert "service_quick.json" in names
        assert any(n.startswith("metrics_") for n in names)

    def test_partial_dir_fails_before_any_rerun(self, tmp_path, capsys):
        # A lone perf baseline: complete enough to re-run, but the gate
        # must refuse before measuring anything.
        _record_perf(tmp_path)
        assert run_check(tmp_path, require_complete=True) == 2
        out = capsys.readouterr().out
        assert "MISSING baseline" in out
        assert "service_quick.json" in out
        assert "--update-baselines" in out
        assert "[OK]" not in out  # no baseline was re-measured

    def test_partial_dir_passes_without_require_complete(self, tmp_path):
        _record_perf(tmp_path)
        assert run_check(tmp_path) == 0

    def test_cli_check_is_strict(self, tmp_path, capsys):
        from repro.bench.__main__ import main as bench_main

        _record_perf(tmp_path)
        assert bench_main(["--check", "--baselines", str(tmp_path)]) == 2
        assert "MISSING baseline" in capsys.readouterr().out

    def test_cli_check_empty_dir_is_error(self, tmp_path, capsys):
        from repro.bench.__main__ import main as bench_main

        empty = tmp_path / "none"
        empty.mkdir()
        assert bench_main(["--check", "--baselines", str(empty)]) == 2
        assert "no baselines" in capsys.readouterr().out

    def test_committed_tree_is_complete(self):
        # The repo's own baseline dir must satisfy the strict gate's
        # completeness precondition (the re-run itself is the slow CI
        # job; here we only assert no file is missing).
        directory = regression.default_baseline_dir()
        found = {p.name for p in directory.glob("*.json")}
        missing = [n for n in regression.expected_baseline_names()
                   if n not in found]
        assert missing == []
