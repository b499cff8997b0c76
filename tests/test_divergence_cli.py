"""CLI tests: ``python -m repro.divergence`` capture / compare / selfcheck."""

from __future__ import annotations

import json
import os

import pytest

from repro.divergence import capture_ledger
from repro.divergence.cli import main
from repro.systemc.kernel import Kernel
from repro.systemc.time import SimTime
from tests.test_divergence_ledger import HOSTILE_LEDGERS, truncation_lengths

WINDOW_US = 100.0
WINDOW = SimTime.us(100)

SCENARIO = """\
from repro.systemc.kernel import Kernel
from repro.systemc.time import SimTime

kernel = Kernel()

def body():
    for _ in range(50):
        yield SimTime.us(10)

kernel.spawn(body, "vp.cpu0.core0")
kernel.run()
print("scenario stdout must not leak into the CLI's")
"""


def seeded_sim(glitch_at=None):
    kernel = Kernel()

    def core(extra_at):
        def body():
            for i in range(50):
                if extra_at is not None and i == extra_at:
                    yield SimTime.ns(1)
                yield SimTime.us(10)
        return body

    kernel.spawn(core(None), "vp.cpu0.core0")
    kernel.spawn(core(glitch_at), "vp.cpu1.core1")
    kernel.run()


@pytest.fixture
def ledger_pair(tmp_path):
    clean = capture_ledger(lambda: seeded_sim(None), window=WINDOW)
    glitched = capture_ledger(lambda: seeded_sim(25), window=WINDOW)
    path_a = str(tmp_path / "a.ledger.json")
    path_b = str(tmp_path / "b.ledger.json")
    clean.save(path_a)
    glitched.save(path_b)
    return path_a, path_b


class TestCapture:
    def test_capture_writes_ledger(self, tmp_path, capsys):
        script = tmp_path / "scenario.py"
        script.write_text(SCENARIO)
        out = str(tmp_path / "run.ledger.json")
        code = main(["capture", str(script), "-o", out,
                     "--window-us", str(WINDOW_US), "--meta", "leg=test"])
        captured = capsys.readouterr()
        assert code == 0
        assert "ledger written" in captured.out
        assert "scenario stdout" not in captured.out
        doc = json.load(open(out))
        assert doc["meta"] == {"leg": "test"}
        # 50 timed resumes plus the initial dispatch at t=0
        assert doc["entries"] == 51
        assert len(doc["windows"]) == 6

    def test_capture_is_reproducible(self, tmp_path, capsys):
        script = tmp_path / "scenario.py"
        script.write_text(SCENARIO)
        outs = [str(tmp_path / f"{tag}.json") for tag in "ab"]
        for out in outs:
            assert main(["capture", str(script), "-o", out,
                         "--window-us", str(WINDOW_US)]) == 0
        capsys.readouterr()
        first, second = (json.load(open(out)) for out in outs)
        assert first["root_digest"] == second["root_digest"]

    def test_missing_script_exits_2(self, tmp_path, capsys):
        assert main(["capture", str(tmp_path / "nope.py"),
                     "-o", str(tmp_path / "x.json")]) == 2


class TestCompare:
    def test_identical_exits_0(self, ledger_pair, capsys):
        path_a, _ = ledger_pair
        assert main(["compare", path_a, path_a]) == 0
        assert "ledgers identical" in capsys.readouterr().out

    def test_divergent_exits_1_and_names_window_lane(self, ledger_pair,
                                                     capsys):
        path_a, path_b = ledger_pair
        assert main(["compare", path_a, path_b]) == 1
        out = capsys.readouterr().out
        assert "window 2, lane 1" in out

    def test_json_output(self, ledger_pair, capsys):
        path_a, path_b = ledger_pair
        assert main(["compare", path_a, path_b, "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["identical"] is False
        assert doc["point"]["window"] == 2
        assert doc["point"]["lane"] == 1
        assert doc["bundle"] is None

    def test_bundle_dir_written_on_mismatch(self, ledger_pair, tmp_path,
                                            capsys):
        path_a, path_b = ledger_pair
        bundle_dir = str(tmp_path / "bundles")
        assert main(["compare", path_a, path_b,
                     "--bundle-dir", bundle_dir]) == 1
        assert "divergence bundle" in capsys.readouterr().out
        bundles = os.listdir(bundle_dir)
        assert len(bundles) == 1 and bundles[0].endswith("-w2")

    def test_unreadable_ledger_exits_2(self, ledger_pair, tmp_path, capsys):
        path_a, _ = ledger_pair
        assert main(["compare", path_a, str(tmp_path / "missing.json")]) == 2
        assert "cannot load ledger" in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(HOSTILE_LEDGERS))
    def test_hostile_ledger_exits_2(self, ledger_pair, tmp_path, capsys, name):
        path_a, _ = ledger_pair
        hostile = tmp_path / f"{name}.json"
        hostile.write_text(HOSTILE_LEDGERS[name])
        assert main(["compare", path_a, str(hostile)]) == 2
        assert f"cannot load ledger {hostile}: not a divergence ledger" in \
            capsys.readouterr().err

    def test_truncated_ledger_exits_2(self, ledger_pair, tmp_path, capsys):
        path_a, _ = ledger_pair
        with open(path_a) as stream:
            text = stream.read()
        truncated = tmp_path / "truncated.json"
        for length in truncation_lengths(len(text)):
            truncated.write_text(text[:length])
            assert main(["compare", str(truncated), path_a]) == 2
            assert f"cannot load ledger {truncated}" in capsys.readouterr().err

    def test_window_size_mismatch_exits_2(self, ledger_pair, tmp_path,
                                          capsys):
        path_a, _ = ledger_pair
        fine = capture_ledger(lambda: seeded_sim(None), window=SimTime.us(50))
        path_fine = str(tmp_path / "fine.json")
        fine.save(path_fine)
        assert main(["compare", path_a, path_fine]) == 2
        assert "window sizes differ" in capsys.readouterr().err


class TestSelfcheck:
    def test_ab_legs_are_identical(self, capsys):
        # The real canary: cold vs snapshot-resumed must not diverge.
        # Trimmed workload to keep the suite fast.
        code = main(["selfcheck", "--iterations", "2000",
                     "--window-us", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ledgers identical" in out

    def test_json_output(self, capsys):
        code = main(["selfcheck", "--iterations", "2000",
                     "--window-us", "5", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["identical"] is True
        assert doc["root_a"] == doc["root_b"]
        assert doc["bundle"] is None

    def test_broken_restore_is_caught(self, monkeypatch, capsys):
        # Drop the trace-prefix replay from the resumed leg's restore: its
        # ledger then misses the pre-snapshot windows and the canary fires.
        monkeypatch.setattr("repro.snapshot.restore.decode_trace",
                            lambda blob: [])
        code = main(["selfcheck", "--iterations", "2000",
                     "--window-us", "5", "--json"])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["identical"] is False
        assert doc["point"]["window"] is not None
