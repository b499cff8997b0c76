"""repro.obs bench trend tracking: history file, ratio gate, CLI."""

import json

import pytest

from repro.obs import __main__ as obs_main
from repro.obs.trend import (HISTORY_SCHEMA, append_entry, check_history,
                             load_history, make_entry, trend_report)


def summary(instructions, wall_ns, guest_ns=None):
    guest = guest_ns if guest_ns is not None else wall_ns * 0.8
    return {
        "instructions": instructions,
        "wall_time_ns": wall_ns,
        "windows": 4,
        "lanes": {"main": {"phases": {"guest": guest,
                                      "overhead": wall_ns - guest}}},
    }


def entry(mips, name="fig5"):
    # instructions/wall chosen so instructions / wall_ns * 1e3 == mips
    return make_entry({name: [summary(int(mips * 1000), 1e6)]},
                      label="test")


class TestHistoryFile:
    def test_make_entry_aggregates_experiments(self):
        made = make_entry({"fig5": [summary(2000, 1e6), summary(1000, 1e6)]},
                          label="scale=1")
        experiment = made["experiments"]["fig5"]
        assert experiment["instructions"] == 3000
        assert experiment["wall_ns"] == 2e6
        assert experiment["platforms"] == 2
        assert experiment["mips"] == pytest.approx(3000 / 2e6 * 1e3)
        assert experiment["phases"]["guest"] > 0
        assert made["label"] == "scale=1"
        assert "T" in made["timestamp"]

    def test_append_creates_caps_and_orders(self, tmp_path):
        path = str(tmp_path / "BENCH_obs.json")
        for mips in (100, 110, 120, 130):
            history = append_entry(path, entry(mips), keep=3)
        assert len(history["entries"]) == 3
        newest = history["entries"][-1]["experiments"]["fig5"]["mips"]
        assert newest == pytest.approx(130)
        reloaded = load_history(path)
        assert reloaded["schema"] == HISTORY_SCHEMA
        assert reloaded == history

    def test_missing_file_is_empty_history(self, tmp_path):
        history = load_history(str(tmp_path / "absent.json"))
        assert history["entries"] == []

    def test_bad_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "something/else"}))
        with pytest.raises(ValueError):
            load_history(str(path))


class TestRatioGate:
    def test_single_entry_seeds_the_baseline(self):
        history = {"schema": HISTORY_SCHEMA, "entries": [entry(100)]}
        assert check_history(history) == []

    def test_regression_past_tolerance_fails(self):
        history = {"schema": HISTORY_SCHEMA,
                   "entries": [entry(100), entry(102), entry(98),
                               entry(60)]}
        failures = check_history(history, tolerance=0.25)
        assert len(failures) == 1
        assert "fig5" in failures[0]

    def test_within_tolerance_passes(self):
        history = {"schema": HISTORY_SCHEMA,
                   "entries": [entry(100), entry(102), entry(98),
                               entry(90)]}
        assert check_history(history, tolerance=0.25) == []

    def test_new_experiment_has_no_baseline(self):
        history = {"schema": HISTORY_SCHEMA,
                   "entries": [entry(100, name="fig5"),
                               entry(1, name="fig6")]}
        assert check_history(history, tolerance=0.25) == []

    def test_report_renders_table_and_verdict(self):
        history = {"schema": HISTORY_SCHEMA,
                   "entries": [entry(100), entry(50)]}
        text = trend_report(history, tolerance=0.25)
        assert "bench trend" in text
        assert "fig5" in text
        assert "REGRESSIONS" in text
        ok = trend_report({"schema": HISTORY_SCHEMA,
                           "entries": [entry(100), entry(101)]})
        assert "gate: OK" in ok

    def test_empty_history_report(self):
        text = trend_report({"schema": HISTORY_SCHEMA, "entries": []})
        assert "empty" in text


class TestCli:
    def test_trend_check_exit_codes(self, tmp_path, capsys):
        path = str(tmp_path / "BENCH_obs.json")
        append_entry(path, entry(100))
        append_entry(path, entry(99))
        assert obs_main.main(["trend", path, "--check"]) == 0
        append_entry(path, entry(10))
        assert obs_main.main(["trend", path, "--check",
                              "--tolerance", "0.25"]) == 1
        err = capsys.readouterr().err
        assert "FAIL" in err


class TestHostileInputs:
    """Malformed files are rejected with ``cannot load``, exit code 2."""

    HISTORIES = {
        "list": "[]",
        "truncated": '{"schema": "' + HISTORY_SCHEMA + '", "entries": [',
        "entries_not_list": json.dumps({"schema": HISTORY_SCHEMA,
                                        "entries": {"a": 1}}),
    }
    REPORTS = {
        "list": "[]",
        "truncated": '{"summaries": [{"platform": ',
        "summary_not_object": json.dumps({"summaries": [1]}),
        "summaries_not_list": json.dumps({"summaries": "none"}),
    }

    @pytest.mark.parametrize("case", sorted(HISTORIES))
    def test_load_history_raises_value_error(self, case, tmp_path):
        path = tmp_path / "history.json"
        path.write_text(self.HISTORIES[case])
        with pytest.raises(ValueError):
            load_history(str(path))

    @pytest.mark.parametrize("case", sorted(HISTORIES))
    def test_trend_cli_cannot_load(self, case, tmp_path, capsys):
        path = tmp_path / "history.json"
        path.write_text(self.HISTORIES[case])
        assert obs_main.main(["trend", str(path)]) == 2
        assert f"cannot load {path}" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(REPORTS))
    def test_report_cli_cannot_load(self, case, tmp_path, capsys):
        path = tmp_path / "run.obs.json"
        path.write_text(self.REPORTS[case])
        assert obs_main.main(["report", str(path)]) == 2
        assert f"cannot load {path}" in capsys.readouterr().err

    def test_report_cli_missing_file(self, tmp_path, capsys):
        path = tmp_path / "absent.obs.json"
        assert obs_main.main(["report", str(path)]) == 2
        assert "cannot load" in capsys.readouterr().err
