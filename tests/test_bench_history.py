"""Bench-history observatory: history.py and the --history gate.

``benchmarks/`` is deliberately not a package, so the two scripts under
test are loaded by file path (the same fallback ``check_regression.py``
itself uses when its sibling import is unavailable).
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        name, BENCH_DIR / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


history = _load("history")
# check_regression's `from history import ...` must resolve to the same
# module object the tests use.
sys.modules.setdefault("history", history)
check_regression = _load("check_regression")


class TestAppendLoad:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "hist.jsonl")
        record = history.append_history(
            "descent", {"bench.x_s": 1.5, "bench.note": "text",
                        "bench.flag": True},
            path=path, sha="cafe" * 10, timestamp=123.0,
        )
        assert record["sha"] == "cafe" * 10
        # Non-scalar values are dropped; bools are kept in the record.
        assert record["metrics"] == {"bench.flag": True, "bench.x_s": 1.5}
        (loaded,) = history.load_history(path)
        assert loaded == record
        assert record["host"] == history.host_fingerprint()

    def test_missing_file_is_empty_history(self, tmp_path):
        assert history.load_history(str(tmp_path / "nope.jsonl")) == []

    def test_torn_and_junk_lines_are_skipped(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        good = {"sha": "a", "time": 1, "bench": "lazy",
                "metrics": {"bench.y_s": 2.0}}
        path.write_text(
            json.dumps(good) + "\n"
            + '{"sha": "b", "time": 2, "bench": "lazy", "met'  # torn
            + "\n[1, 2, 3]\n"          # not a dict
            + '{"sha": "c"}\n'         # no metrics key
        )
        records = history.load_history(str(path))
        assert [r["sha"] for r in records] == ["a"]

    def test_bench_filter(self, tmp_path):
        path = str(tmp_path / "hist.jsonl")
        history.append_history("descent", {"a_s": 1.0}, path=path, sha="x",
                               timestamp=1.0)
        history.append_history("lazy", {"b_s": 2.0}, path=path, sha="x",
                               timestamp=2.0)
        assert len(history.load_history(path)) == 2
        (only,) = history.load_history(path, bench="lazy")
        assert only["bench"] == "lazy"

    def test_git_sha_in_this_checkout(self):
        sha = history.git_sha()
        assert sha == "unknown" or len(sha) == 40


class TestRollingBaseline:
    def _records(self, values):
        return [{"bench": "b", "metrics": {"bench.t_s": v}} for v in values]

    def test_median_odd_and_even(self):
        assert history.rolling_baseline(
            self._records([3.0, 1.0, 2.0]), window=3
        ) == {"bench.t_s": 2.0}
        assert history.rolling_baseline(
            self._records([1.0, 2.0, 3.0, 4.0]), window=4
        ) == {"bench.t_s": 2.5}

    def test_window_takes_most_recent(self):
        baseline = history.rolling_baseline(
            self._records([100.0, 100.0, 1.0, 2.0, 3.0]), window=3
        )
        assert baseline == {"bench.t_s": 2.0}

    def test_bools_are_excluded(self):
        records = [{"metrics": {"ok": True, "t_s": 1.0}}]
        assert history.rolling_baseline(records) == {"t_s": 1.0}

    def test_outlier_resistance(self):
        # One loaded-host run does not move the median.
        steady = self._records([1.0, 1.0, 1.0, 9.0, 1.0])
        assert history.rolling_baseline(steady, window=5) == {
            "bench.t_s": 1.0
        }


class TestHistoryGate:
    def _seed(self, path, values, bench="descent", host=None):
        for i, v in enumerate(values):
            history.append_history(
                bench, {"bench.run_s": v}, path=str(path),
                sha=f"sha{i}", timestamp=float(i), host=host,
            )

    def _gate(self, path, current_file, current, bench="descent",
              threshold=0.25):
        current_file.write_text(json.dumps(current))
        return check_regression.main([
            "--history", str(path), "--bench", bench,
            "--current", str(current_file),
            "--threshold", str(threshold),
        ])

    def test_passes_within_threshold(self, tmp_path, capsys):
        hist = tmp_path / "h.jsonl"
        self._seed(hist, [1.0, 1.1, 0.9, 1.0, 1.05])
        rc = self._gate(hist, tmp_path / "cur.json",
                        {"bench.run_s": 1.2})
        assert rc == 0
        assert "ok: no regressions" in capsys.readouterr().out

    def test_fails_beyond_threshold(self, tmp_path, capsys):
        hist = tmp_path / "h.jsonl"
        self._seed(hist, [1.0, 1.0, 1.0])
        rc = self._gate(hist, tmp_path / "cur.json",
                        {"bench.run_s": 2.0})
        assert rc == 1
        assert "REGRESSION bench.run_s" in capsys.readouterr().out

    def test_median_absorbs_one_outlier_run(self, tmp_path):
        hist = tmp_path / "h.jsonl"
        self._seed(hist, [1.0, 1.0, 9.0, 1.0, 1.0])  # one loaded host
        rc = self._gate(hist, tmp_path / "cur.json",
                        {"bench.run_s": 1.1})
        assert rc == 0

    def test_empty_history_passes_as_seed(self, tmp_path, capsys):
        rc = self._gate(tmp_path / "absent.jsonl", tmp_path / "cur.json",
                        {"bench.run_s": 5.0})
        assert rc == 0
        assert "no usable history" in capsys.readouterr().out

    def test_other_bench_records_are_ignored(self, tmp_path):
        hist = tmp_path / "h.jsonl"
        self._seed(hist, [1.0, 1.0], bench="lazy")
        # Gating "descent" sees no records → seeds cleanly.
        rc = self._gate(hist, tmp_path / "cur.json",
                        {"bench.run_s": 99.0}, bench="descent")
        assert rc == 0

    def test_only_this_hosts_records_gate(self, tmp_path, capsys):
        hist = tmp_path / "h.jsonl"
        elsewhere = dict(history.host_fingerprint(), nproc=1)
        self._seed(hist, [10.0, 10.0, 10.0], host=elsewhere)
        # Only the slow host's records: nothing comparable to gate on.
        rc = self._gate(hist, tmp_path / "cur.json", {"bench.run_s": 2.0})
        assert rc == 0
        assert "no usable history from this host" in capsys.readouterr().out
        # This host's own records gate, unswayed by the other host's.
        self._seed(hist, [1.0, 1.0, 1.0])
        rc = self._gate(hist, tmp_path / "cur.json", {"bench.run_s": 2.0})
        assert rc == 1

    def test_records_without_host_form_their_own_group(self):
        here = history.host_fingerprint()
        records = [{"metrics": {}}, {"host": here, "metrics": {}}]
        assert history.same_host(records, None) == records[:1]
        assert history.same_host(records, here) == records[1:]

    def test_baseline_and_history_are_mutually_exclusive(self, tmp_path):
        cur = tmp_path / "cur.json"
        cur.write_text("{}")
        with pytest.raises(SystemExit):
            check_regression.main(["--current", str(cur)])
        with pytest.raises(SystemExit):
            check_regression.main([
                "--current", str(cur), "--baseline", "x.json",
                "--history", "y.jsonl",
            ])


class TestDirectionInference:
    def test_directions(self):
        direction = check_regression.direction
        assert direction("bench.profile.baseline_s") == "lower"
        assert direction("bench.lazy.rounds") == "lower"
        assert direction("bench.descent.speedup") == "higher"
        assert direction("bench.persistent_beats_oneshot") == "higher"
        assert direction("bench.host_cpus") is None
        # `overhead` is deliberately ungated: it is asserted against an
        # absolute budget by bench_profile.py itself, and its sign
        # flips run to run.
        assert direction("bench.profile.overhead") is None
