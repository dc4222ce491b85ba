"""CLI surface of the observability stack: --profile/--events/--live,
``repro top``, ``repro trend`` and fuzz-report rendering."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main


class TestProfileAndEventsFlags:
    def test_verify_profile_metrics_and_events(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        events_path = tmp_path / "events.jsonl"
        # Running example is UNSAT by design -> exit 1.
        code = main([
            "verify", "--case", "running-example",
            "--profile",
            "--metrics", str(metrics_path),
            "--events", str(events_path),
        ])
        assert code == 1
        metrics = json.loads(metrics_path.read_text())
        assert any(k.startswith("profile.") for k in metrics)
        assert metrics["profile.props_per_s"] > 0
        records = [
            json.loads(line)
            for line in events_path.read_text().splitlines() if line
        ]
        assert records, "no events were exported"
        seqs = [r["seq"] for r in records]
        assert seqs == list(range(1, len(seqs) + 1))
        kinds = {r["kind"] for r in records}
        assert "lazy.round" in kinds  # verify defaults to the CEGAR path

    def test_no_profile_keys_without_flag(self, tmp_path):
        metrics_path = tmp_path / "metrics.json"
        main(["verify", "--case", "running-example",
              "--metrics", str(metrics_path)])
        metrics = json.loads(metrics_path.read_text())
        assert not any(k.startswith("profile.") for k in metrics)

    def test_live_smoke(self, capsys):
        # --live must not disturb the verdict; the renderer line lands
        # on stderr and is closed with a newline.
        assert main(["verify", "--case", "running-example",
                     "--live"]) == 1
        err = capsys.readouterr().err
        assert "verify:" in err
        assert err.endswith("\n")


class TestTop:
    def test_top_renders_attribution(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        main(["verify", "--case", "running-example", "--profile",
              "--metrics", str(metrics_path)])
        capsys.readouterr()
        assert main(["top", "--metrics", str(metrics_path)]) == 0
        out = capsys.readouterr().out
        assert "dominant phase:" in out
        assert "100.0%" in out
        assert "props/s" in out

    def test_top_without_profile_data(self, tmp_path, capsys):
        metrics_path = tmp_path / "plain.json"
        metrics_path.write_text(json.dumps({"solver.conflicts": 3}))
        assert main(["top", "--metrics", str(metrics_path)]) == 0
        assert "no profile data" in capsys.readouterr().out


class TestTrend:
    def _seed_history(self, path):
        records = [
            {"sha": f"abcdef{i:03d}cafebabe", "time": float(i),
             "bench": "profile",
             "metrics": {"bench.profile.baseline_s": 0.1 + i * 0.01}}
            for i in range(4)
        ]
        path.write_text(
            "".join(json.dumps(r) + "\n" for r in records)
        )

    def test_trend_renders_sparkline_and_sha(self, tmp_path, capsys):
        history = tmp_path / "hist.jsonl"
        self._seed_history(history)
        assert main(["trend", "--history", str(history)]) == 0
        out = capsys.readouterr().out
        assert "bench.profile.baseline_s" in out
        assert "abcdef003" in out  # 9-char SHA of the latest record
        assert any(g in out for g in "▁▂▃▄▅▆▇█")

    def test_trend_key_filter(self, tmp_path, capsys):
        history = tmp_path / "hist.jsonl"
        self._seed_history(history)
        assert main(["trend", "--history", str(history),
                     "--key", "nomatch"]) == 0
        out = capsys.readouterr().out
        assert "bench.profile.baseline_s" not in out

    def test_trend_missing_history_hints_at_benches(self, tmp_path):
        with pytest.raises(SystemExit, match="bench-profile"):
            main(["trend", "--history", str(tmp_path / "absent.jsonl")])


class TestFuzzReport:
    def test_fuzz_report_renders_in_repro_report(self, tmp_path, capsys):
        report_path = tmp_path / "fuzz-report.json"
        code = main([
            "fuzz", "--seed", "3", "--count", "2", "-j", "1",
            "--report", str(report_path),
        ])
        assert code == 0
        capsys.readouterr()
        assert main(["report", "--metrics", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "Fuzz run: seed 3, 2 scenario(s)" in out
        assert "all paths agree" in out
        assert "scenario.generated" in out

    def test_fuzz_profile_sums_counters_into_report(self, tmp_path):
        report_path = tmp_path / "fuzz-report.json"
        code = main([
            "fuzz", "--seed", "3", "--count", "1", "-j", "1",
            "--profile", "--report", str(report_path),
        ])
        assert code == 0
        payload = json.loads(report_path.read_text())
        metrics = payload["metrics"]
        assert metrics.get("profile.propagate.count", 0) > 0
        # Rates are per-solve gauges; summing them across the four
        # differential paths would be meaningless, so they must not
        # appear in the aggregated report.
        assert "profile.props_per_s" not in metrics


class TestReportPipe:
    def test_closed_stdout_exits_cleanly(self, tmp_path):
        """``repro report ... | head -1``: a reader that goes away early
        is not an error — no traceback, exit 0."""
        trace_path = tmp_path / "trace.jsonl"
        metrics_path = tmp_path / "metrics.json"
        main([
            "optimize", "--case", "running-example",
            "--trace", str(trace_path), "--metrics", str(metrics_path),
        ])
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the first write
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "report",
                 "--trace", str(trace_path),
                 "--metrics", str(metrics_path)],
                stdout=write_end, stderr=subprocess.PIPE, env=env,
                timeout=120,
            )
        finally:
            os.close(write_end)
        stderr = proc.stderr.decode()
        assert "Traceback" not in stderr, stderr
        assert proc.returncode == 0, stderr


class TestCoreStrategyMetrics:
    def test_generate_core_reports_solver_counters(self, tmp_path,
                                                   capsys):
        metrics_path = tmp_path / "metrics.json"
        code = main([
            "generate", "--case", "running-example", "--strategy", "core",
            "--metrics", str(metrics_path),
        ])
        assert code == 0
        metrics = json.loads(metrics_path.read_text())
        assert metrics["solver.conflicts"] >= 0
        assert metrics["solver.propagations"] > 0
        assert metrics["solver.solve_calls"] >= 1
