"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/tests

They start real benchmark processes on one width per scenario (about a
minute in all) and need ``references.json``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads as wl  # noqa: E402

# a few cheap widths per scenario, each with a frozen reference
SMALL = {"times_ladder": [4.0], "tight_catalog": [10.0], "filter_sweep": [0.5, 20.0]}


def _declared(kind: str) -> set:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"] for m in spec[kind]}


@pytest.fixture(scope="module")
def references():
    return wl.load_references()


@pytest.fixture(scope="module", params=sorted(SMALL))
def small_run(request, tmp_path_factory):
    workload = wl.WORKLOADS[request.param]
    runner = run.Runner(workload, SMALL[request.param], tmp_path_factory.mktemp(request.param))
    return runner, runner.start("run"), runner.start("run", traced=True)


def test_traced_and_untraced_outputs_are_byte_identical(small_run):
    _, plain, traced = small_run
    assert plain["written"] == traced["written"]
    assert plain["failures"] == traced["failures"] == []
    for name in plain["written"]:
        assert (plain["out"] / name).read_bytes() == (traced["out"] / name).read_bytes()
    assert traced["layers"]["transit.scans"] + traced["layers"]["wavepacket.filter_stats_calls"] > 0


def test_small_runs_pass_the_reference_check(small_run, references):
    runner, plain, _ = small_run
    status = wl.check_outputs(runner.workload, runner.widths, plain["out"], references)
    assert set(status.values()) == {"pass"}


def _perturb(path: Path, row: int, column: int, factor: float):
    lines = path.read_text(encoding="utf-8").splitlines()
    data = [i for i, line in enumerate(lines) if not line.startswith("#")][1:]
    cells = lines[data[row]].split(",")
    cells[column] = format(float(cells[column]) * factor, ".17g")
    lines[data[row]] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# (file, data row, column) of one output value per scenario
PERTURBED = {
    "times_ladder": ("times.csv", 0, 1),        # tau
    "tight_catalog": ("peaks.csv", 0, 3),       # density of the first extremum
    "filter_sweep": ("filter_stats.csv", 1, 1),  # p_mean at L=20
}


def test_perturbed_output_value_counts_as_failed(small_run, references, tmp_path):
    runner, plain, _ = small_run
    out = tmp_path / "out"
    shutil.copytree(plain["out"], out)
    name, row, column = PERTURBED[runner.workload.name]
    _perturb(out / name, row, column, 1.0 + 1e-3)
    status = wl.check_outputs(runner.workload, runner.widths, out, references)
    assert "mismatch" in status.values()


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_printed_metric_is_declared(trace, kind):
    proc = _bench("--workload", "filter_sweep", "--seed", "3", "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == _declared(kind)
    for value in result["metrics"].values():
        assert set(value) == {"value", "unit"}


def test_fails_without_the_library_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "times_ladder", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
