"""Golden observer outputs.

Runs four guests inside one ``collecting()`` + ``recording()`` +
``observing([])`` scope each and pins the sha256 of everything the three
observer layers produce: the telemetry registry snapshot, the flight
journal and folded profile, and the obs attribution summaries.  A change
to how observers are wired into the platform must leave every byte of
their output unchanged.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.flight import recording
from repro.obs import observing
from repro.snapshot import TraceRecorder, capture_platform, restore_platform
from repro.systemc.time import SimTime
from repro.telemetry import collecting
from repro.vp import VpConfig, build_platform
from repro.vp.linux import LinuxBootParams, linux_boot_software
from repro.workloads.guest_programs import functional_dhrystone

GOLDEN = {
    "boot_1core_sequential":
        "9fd465081fe20cc9588d1fbf228e0e5e7184fb490ede828c56f7c87dff35fbd7",
    "boot_2core_parallel_wfi":
        "5725c4460fcc12f60886a5a3cb64e7816e91cb8793d59beebfb500cf34c65430",
    "avp64_dhrystone":
        "61afdcbac114e4adc79f106348b357a7fdc44d0499fd3ec23ed6b6d9a5b2ddab",
    "snapshot_resumed":
        "bfa28d62a24f43b0f573247b4159bca41293d84df93aa3775cd82dd6dde7d3a7",
}


def _boot_software(cores: int):
    return linux_boot_software(cores, LinuxBootParams().scaled(0.02))


def _boot_run(cores: int, parallel: bool, annotations: bool):
    config = VpConfig(num_cores=cores, quantum=SimTime.us(100),
                      parallel=parallel, wfi_annotations=annotations)
    vp = build_platform("aoa", config, _boot_software(cores))
    vp.run(SimTime.ms(20))


def _avp64_run():
    software, _expected = functional_dhrystone(100)
    config = VpConfig(num_cores=1, quantum=SimTime.us(100), parallel=False)
    vp = build_platform("avp64", config, software)
    vp.run(SimTime.ms(2000))


def _resumed_run():
    config = VpConfig(num_cores=2, quantum=SimTime.us(100), parallel=False)
    software = _boot_software(2)
    with TraceRecorder() as recorder:
        cold = build_platform("aoa", config, software)
        cold.run(SimTime.ms(10))
    snapshot = capture_platform(cold, trace=recorder.entries)

    def resume():
        vp = restore_platform(snapshot, software)
        vp.run(SimTime.ms(10))

    return resume


RUNS = {
    "boot_1core_sequential": lambda: _boot_run(1, False, False),
    "boot_2core_parallel_wfi": lambda: _boot_run(2, True, True),
    "avp64_dhrystone": _avp64_run,
}


#: series timed on the host's wall clock, which no two runs share
HOST_TIMED = ("snapshot.restore_ns", "snapshot.save_ns")


def observed_digest(action, crash_dir: str) -> str:
    """sha256 over every observer output of one run of ``action``."""
    with collecting() as telemetry, \
            recording(crash_dir=crash_dir, capacity=1 << 16) as flight, \
            observing([]) as obs:
        action()
        obs.finalize()
        flight.profiler.flush()
        metrics = [metric for metric in telemetry.registry.snapshot()["metrics"]
                   if metric["name"] not in HOST_TIMED]
        outputs = {
            "telemetry": metrics,
            "journal": [event.to_dict() for event in flight.recorder],
            "folded": flight.profiler.folded_lines(),
            "obs": {key: summary.to_json()
                    for key, summary in obs.summaries().items()},
        }
    blob = json.dumps(outputs, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_observer_outputs_are_golden(name, tmp_path):
    assert observed_digest(RUNS[name], str(tmp_path)) == GOLDEN[name]


def test_snapshot_resumed_observer_outputs_are_golden(tmp_path):
    resume = _resumed_run()
    assert observed_digest(resume, str(tmp_path)) == GOLDEN["snapshot_resumed"]


@pytest.mark.parametrize("hash_seed", ["1", "4242"])
def test_boot_digests_repeat_across_processes(hash_seed, tmp_path):
    """The two boot runs hash the same under another PYTHONHASHSEED."""
    script = (
        "import sys\n"
        "from tests.test_observer_golden import RUNS, observed_digest\n"
        "for name in ('boot_1core_sequential', 'boot_2core_parallel_wfi'):\n"
        "    print(name, observed_digest(RUNS[name], sys.argv[1]))\n"
    )
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
    output = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                            env=env, cwd=root, capture_output=True, text=True,
                            check=True).stdout
    digests = dict(line.split() for line in output.splitlines())
    assert digests == {name: GOLDEN[name] for name in digests}
    assert len(digests) == 2
