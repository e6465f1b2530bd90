"""Tests of the benchmark itself, on scaled-down copies of its workloads.

Run with ``python -m pytest -q bench``.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys

import pytest

import run

run.load_program()

from workloads import WORKLOADS  # noqa: E402  (needs detfuse on sys.path)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

SMALL = {
    "ensemble-sparse": dataclasses.replace(WORKLOADS["ensemble-sparse"], images=20),
    "ensemble-dense": dataclasses.replace(
        WORKLOADS["ensemble-dense"], images=2, boxes_per_image=40),
    "augment-grid": dataclasses.replace(WORKLOADS["augment-grid"], width=64, height=48),
}


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def emitted(record: dict) -> dict[str, str]:
    return {k: m["unit"] for k, m in record["metrics"].items()}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_scaled_run_passes_and_emits_every_metric(name, tmp_path):
    plain = run.run_workload(SMALL[name], 5, 0.0, False, tmp_path)
    traced = run.run_workload(SMALL[name], 5, 0.0, True, tmp_path)
    for record in (plain, traced):
        assert record["attempted"] >= 1
        assert record["failed"] == 0, record["failures"]
        assert record["problems"] == []
    assert emitted(plain) == declared("end_to_end")
    assert emitted(traced) == declared("per_layer")
    assert all(m["value"] > 0 for m in plain["metrics"].values())
    # tracing never changes outputs
    assert traced["digests"] == plain["digests"]
    assert list(tmp_path.iterdir()) == []  # the work directory is removed


def test_counts_repeat_for_a_seed(tmp_path):
    workload = SMALL["augment-grid"]
    a = run.run_workload(workload, 7, 0.0, True, tmp_path)["metrics"]
    b = run.run_workload(workload, 7, 0.0, True, tmp_path)["metrics"]
    for key, m in a.items():
        if m["unit"] in ("count", "ratio", "MB"):
            assert m["value"] == b[key]["value"], key
    assert a["augment.rotate_with_boxes.unique_ratio"]["value"] == 6 / 48


def test_second_seed_changes_digests_and_passes(tmp_path):
    workload = SMALL["ensemble-dense"]
    a = run.run_workload(workload, 1, 0.0, False, tmp_path)
    b = run.run_workload(workload, 2, 0.0, False, tmp_path)
    assert a["failed"] == b["failed"] == 0
    for command in workload.commands_run:
        assert a["digests"][command] != b["digests"][command]


def test_wrong_digest_fails_every_command(tmp_path):
    workload = SMALL["ensemble-sparse"]
    pinned = {"digests": {c: "0" * 64 for c in workload.commands_run}}
    record = run.run_workload(workload, 0, 0.0, False, tmp_path, pinned)
    assert record["failed"] == record["attempted"] > 0


def test_pinned_seed_reproduces_pinned_outputs(tmp_path):
    pinned = json.loads((run.BENCH / "pinned.json").read_text())["ensemble-dense"]
    record = run.run_workload(WORKLOADS["ensemble-dense"], run.PINNED_SEED, 0.0, False,
                              tmp_path, pinned)
    assert record["failed"] == 0, record["failures"]
    assert record["quality"] == {k: pinned[k] for k in ("fused_map", "detection_rate")}


def test_checkout_without_program_exits_nonzero(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ensemble-dense",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_matches_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in SPEC[kind]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
