"""Benchmark harness: registry, reporting, runner CLI, ablations."""

import pytest

from repro.bench import all_experiment_ids, get_experiment
from repro.bench.experiment import (
    Expectation,
    Experiment,
    ExperimentResult,
    Row,
    find_row,
    value_of,
)
from repro.bench.reporting import render_checks, render_markdown, render_result, render_table
from repro.bench.runner import main as runner_main


class TestRegistry:
    def test_all_figures_registered(self):
        ids = all_experiment_ids()
        for required in ("fig5", "fig6", "fig7",
                         "ablation-watchdog", "ablation-quantum", "ablation-budget"):
            assert required in ids

    def test_get_experiment_returns_fresh_instances(self):
        first = get_experiment("fig5")
        second = get_experiment("fig5")
        assert first is not second
        assert first.experiment_id == "fig5"

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            get_experiment("fig99")


class TestRowHelpers:
    def _rows(self):
        return [
            Row(keys={"cores": 1, "platform": "aoa"}, values={"mips": 100.0}),
            Row(keys={"cores": 2, "platform": "aoa"}, values={"mips": 200.0}),
        ]

    def test_find_row(self):
        rows = self._rows()
        assert find_row(rows, cores=2).values["mips"] == 200.0
        assert find_row(rows, cores=3) is None

    def test_value_of(self):
        assert value_of(self._rows(), "mips", cores=1, platform="aoa") == 100.0
        with pytest.raises(KeyError):
            value_of(self._rows(), "mips", cores=9)

    def test_row_get(self):
        row = self._rows()[0]
        assert row.get("cores") == 1
        assert row.get("mips") == 100.0


class TestReporting:
    def _result(self, passed=True):
        return ExperimentResult(
            "figX", "Example",
            rows=[Row(keys={"cores": 1}, values={"mips": 1234.5})],
            checks=[{"description": "claim", "paper": "~10x",
                     "measured": "9.5x", "passed": passed}],
        )

    def test_render_table(self):
        text = render_table(self._result())
        assert "cores" in text and "mips" in text
        assert "1,234" in text or "1234" in text

    def test_render_checks_pass_fail(self):
        assert "PASS" in render_checks(self._result(True))
        assert "FAIL" in render_checks(self._result(False))

    def test_render_result_combines(self):
        text = render_result(self._result())
        assert "figX" in text and "PASS" in text

    def test_render_markdown(self):
        text = render_markdown(self._result())
        assert text.startswith("### figX")
        assert "| cores | mips |" in text
        assert "✅" in text

    def test_empty_result(self):
        empty = ExperimentResult("x", "t", rows=[])
        assert "(no rows)" in render_table(empty)
        assert "(no paper-claim checks)" in render_checks(empty)


class TestExpectationEvaluation:
    def test_run_evaluates_checks(self):
        class Toy(Experiment):
            experiment_id = "toy"
            title = "toy"

            def collect(self, scale):
                return [Row(keys={}, values={"x": scale})]

            def expectations(self, scale=1.0):
                return [Expectation("x positive", ">0",
                                    lambda rows: rows[0].values["x"] > 0,
                                    lambda rows: str(rows[0].values["x"]))]

        result = Toy().run(scale=0.5)
        assert result.all_passed
        assert result.checks[0]["measured"] == "0.5"


class TestAblations:
    def test_watchdog_ablation(self):
        result = get_experiment("ablation-watchdog").run(scale=0.02)
        assert result.all_passed, result.checks

    def test_quantum_ablation(self):
        result = get_experiment("ablation-quantum").run(scale=0.02)
        assert result.all_passed, result.checks

    def test_budget_ablation(self):
        result = get_experiment("ablation-budget").run(scale=0.1)
        assert result.all_passed, result.checks


class TestRunnerCli:
    def test_list_option(self, capsys):
        assert runner_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig5" in out and "fig7" in out

    def test_single_experiment_run(self, capsys):
        code = runner_main(["ablation-budget", "--scale", "0.05"])
        out = capsys.readouterr().out
        assert "ablation-budget" in out
        assert code == 0

    def test_markdown_output(self, capsys):
        runner_main(["ablation-budget", "--scale", "0.05", "--markdown"])
        out = capsys.readouterr().out
        assert out.startswith("### ablation-budget")

    def test_ledger_dir_writes_sidecar_with_root_digest(self, tmp_path,
                                                        capsys):
        import json
        from repro.divergence import RunLedger
        ledger_dir = str(tmp_path / "ledgers")
        code = runner_main(["ablation-watchdog", "--scale", "0.01", "--json",
                            "--ledger-dir", ledger_dir])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        result = doc["results"][0]
        assert result["experiment_id"] == "ablation-watchdog"
        assert result["rows"] and result["checks"]
        ledger = RunLedger.load(result["ledger"])
        # the JSON report's digest is the ledger file's root digest, so a
        # farm can compare two bench runs without opening the sidecars
        assert result["root_digest"] == ledger.root_digest
        assert ledger.meta["experiment"] == "ablation-watchdog"
        assert len(ledger.windows) >= 1

    def test_obs_dir_writes_attribution_artifacts(self, tmp_path, capsys):
        import json
        import os
        obs_dir = str(tmp_path / "obs-out")
        code = runner_main(["ablation-watchdog", "--scale", "0.01", "--json",
                            "--obs-dir", obs_dir])
        assert code == 0
        capsys.readouterr()
        # Per-experiment attribution report: one consistent summary per
        # platform the experiment built, phases tiling each lane's wall.
        report = json.load(open(os.path.join(obs_dir,
                                             "ablation-watchdog.obs.json")))
        assert report["schema"] == "repro.obs.report/1"
        assert report["summaries"]
        for summary in report["summaries"]:
            assert summary["consistent"]
            for lane in summary["lanes"].values():
                assert sum(lane["phases"].values()) == pytest.approx(
                    lane["wall_ns"], rel=1e-9, abs=1e-6)
        # The snapshot stream sits next to it, one JSON object per line.
        stream_path = os.path.join(obs_dir, "ablation-watchdog.obs.jsonl")
        with open(stream_path) as handle:
            lines = [json.loads(line) for line in handle]
        assert lines and lines[-1]["final"]
        assert report["stream"]["forwarded"] >= len(lines)

    def test_fig5_obs_totals_are_pinned(self, tmp_path, capsys):
        # Modeled attribution is a deterministic function of the model, so
        # the fig5 smoke's totals are pinned exactly rather than trended.
        import json
        import os
        obs_dir = str(tmp_path / "obs-out")
        runner_main(["fig5", "--scale", "0.002", "--json",
                     "--obs-dir", obs_dir])
        capsys.readouterr()
        with open(os.path.join(obs_dir, "fig5.obs.json")) as handle:
            summaries = json.load(handle)["summaries"]
        assert len(summaries) == 48
        assert sum(s["instructions"] for s in summaries) == 612000180
        assert sum(s["windows"] for s in summaries) == 371
        assert sum(s["wall_time_ns"] for s in summaries) == 390275448.99

    def test_json_and_markdown_are_exclusive(self, capsys):
        import pytest
        with pytest.raises(SystemExit):
            runner_main(["ablation-budget", "--json", "--markdown"])
