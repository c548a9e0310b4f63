"""Smoke test of the benchmark itself, at a tiny input size.

    python3 -m pytest bench/test_smoke.py

Runs every workload once untraced and once traced, checks that the
output checker counts a truncated output file as failed documents, and
checks the host probe's correction on made-up probe times.
"""

import json

import pytest

import run

run.use_checkout_source()

import harness  # noqa: E402  (imports amrforge from the checkout)
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {"pretrain-small": 6, "docs-large": 2, "eval-small": 3}
SEED = 3  # at three pairs, this seed's gold graphs carry every fine-grained phenomenon


def test_declared_workloads_exist():
    declared = [w["name"] for w in SPEC["workloads"]]
    assert declared == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", (False, True), ids=("untraced", "traced"))
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_workload_reports_every_declared_metric(name, trace):
    report, result = harness.run_workload(name, SEED, 0.0, trace, TINY[name])
    assert result["correct"], report["failures"]
    assert (result["attempted"], result["failed"]) == (TINY[name], 0)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        key: metric["unit"] for key, metric in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_truncated_output_counts_as_failed_documents(tmp_path):
    workload = workloads.WORKLOADS["pretrain-small"]
    workload.write_inputs(SEED, tmp_path, 8)
    assert not harness.run_pass(workload, SEED, tmp_path, 8).errors
    assert not workload.check(SEED, tmp_path, 8).failed

    samples = tmp_path / "tasks.jsonl"
    lines = samples.read_text(encoding="utf-8").splitlines(keepends=True)
    cut = 6 * 3 + 2  # three whole documents, then part of the fourth
    samples.write_text("".join(lines[:cut]) + lines[cut][:10], encoding="utf-8")
    assert workload.check(SEED, tmp_path, 8).failed == set(range(3, 8))


def test_host_probe_removes_probe_time_and_scales_to_nominal():
    import hostprobe

    probe = hostprobe.HostProbe()
    probe.starts = [1.0, 1.5, 3.0]
    probe.durations = [2 * hostprobe.NOMINAL_S, 2 * hostprobe.NOMINAL_S, 1.0]
    work = 1.0 - 4 * hostprobe.NOMINAL_S
    assert probe.corrected(1.0, 2.0) == pytest.approx(work / 2)
    assert probe.corrected(2.0, 2.5) == 0.5  # no probe fell in: as measured
