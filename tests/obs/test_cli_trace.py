"""The --trace flag and trace-report subcommand of ``python -m repro``."""

import json

import pytest

from repro.__main__ import main, trace_report
from repro.core.pricing import PricingPipelineConfig, run_pricing_pipeline
from repro.obs import ChromeTracer, NullTracer, get_tracer, use_tracer
from repro.obs.stall import reports_from_trace


class TestTraceFlag:
    def test_trace_writes_chrome_json(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(["--trace", str(out), "fig3"]) == 0
        captured = capsys.readouterr()
        assert f"-> {out}" in captured.err
        data = json.loads(out.read_text())
        events = data["traceEvents"]
        assert events and all("ph" in e for e in events)
        # the experiment span on the harness track
        harness = [e for e in events if e["ph"] == "X" and e["name"] == "fig3"]
        assert len(harness) == 1
        # region cycle events made it through the global tracer
        assert any(e.get("cat") == "cycle" for e in events)

    def test_global_tracer_restored_after_run(self, tmp_path, capsys):
        assert main(["--trace", str(tmp_path / "t.json"), "eq1"]) == 0
        capsys.readouterr()
        assert isinstance(get_tracer(), NullTracer)

    def test_json_record_includes_series(self, capsys):
        assert main(["--json", "fig3"]) == 0
        (record,) = json.loads(capsys.readouterr().out)
        assert "lanes" in record["series"]


class TestTraceReport:
    def test_report_from_region_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(["--trace", str(out), "fig3"]) == 0
        capsys.readouterr()
        assert main(["trace-report", str(out)]) == 0
        text = capsys.readouterr().out
        assert "stall attribution" in text
        assert "compute/transfer overlap" in text

    def test_report_from_pipeline_trace(self, tmp_path, capsys):
        """The pipelined run is attributed under the graph's name, apart
        from the fused region and the sequential per-region runs, and
        the trace rebuilds its live stall report."""
        out = tmp_path / "trace.json"
        assert main(["--trace", str(out), "pipeline"]) == 0
        capsys.readouterr()
        assert main(["trace-report", str(out)]) == 0
        assert "stall attribution: pricing_pipeline" in capsys.readouterr().out
        reports = {r.region: r for r in reports_from_trace(str(out))}
        assert set(reports) == {
            "pricing_pipeline", "pricing_fused", "rng", "pricing", "aggregation",
        }
        with use_tracer(ChromeTracer()):
            live = run_pricing_pipeline(PricingPipelineConfig()).report
        assert live.stall_report.consistent_with(live.process_stats) == []
        assert reports["pricing_pipeline"].to_dict() == live.stall_report.to_dict()
        assert reports["pricing_pipeline"].cycles == live.cycles

    def test_missing_file(self, capsys):
        assert trace_report("/nonexistent/trace.json") == 2
        assert "cannot read" in capsys.readouterr().err

    def test_trace_without_cycle_events(self, tmp_path, capsys):
        path = tmp_path / "engine.json"
        path.write_text(json.dumps({"traceEvents": []}))
        assert trace_report(str(path)) == 1
        assert "no cycle-attribution" in capsys.readouterr().err

    def test_usage_error_without_path(self):
        with pytest.raises(SystemExit):
            main(["trace-report"])
