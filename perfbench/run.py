"""dirac-tunnel benchmark: run one workload, check it, print its metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the library is imported from its
``src/``.  Every scenario run is a fresh process that calls the public CLI
(``cli.main``) on a generated config file.  The run first times
``SETUP_PROBES`` processes that stop where the first item would begin, then
runs the scenario once untimed as a warm-up and repeats it, timed, until
about ``--seconds`` have passed since the warm-up began (at least once), and
reports medians.  The warm-up's outputs are checked against the frozen
references; every repetition must write the same bytes.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced runs and prints the per-layer metrics of the traced
runs, plus the tracing overhead.  Human-readable lines come first; the last
line of standard output is the JSON result.  Any error exits non-zero
without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 9
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 170.0
# no new repetition starts if it could end after this many seconds
RUN_LIMIT_S = 140.0


class BenchError(Exception):
    pass


def declared_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def child_env() -> dict:
    """Library from this checkout, package threads unset, one BLAS thread.

    A single BLAS thread keeps the load to one core of a shared host, so the
    timing does not hang on the slowest of several threads.
    """
    env = dict(os.environ)
    env.pop("DIRAC_TUNNEL_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = str(SRC)
    env["PERFBENCH_SRC"] = str(SRC)
    return env


class Runner:
    """Starts benchmark child processes for one workload input."""

    def __init__(self, workload: wl.Workload, widths: list[float], work: Path):
        self.workload = workload
        self.widths = widths
        self.work = work
        self.config = work / "run.cfg"
        self.config.write_text(workload.config_text(widths), encoding="utf-8")
        self.env = child_env()
        self.count = 0

    def start(self, mode: str, traced: bool = False) -> dict:
        self.count += 1
        out = self.work / f"out{self.count}"
        result = self.work / f"result{self.count}.json"
        cmd = [
            sys.executable, str(HERE / "child.py"), str(result), mode, "1" if traced else "0",
            "run", "--scenario", self.workload.scenario,
            "--config", str(self.config), "--out", str(out),
        ]
        launched = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                timeout=CHILD_TIMEOUT_S, check=False,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} process exceeded {CHILD_TIMEOUT_S:g} s") from None
        if proc.returncode != 0 or not result.is_file():
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-5:]
            raise BenchError(f"{mode} process exited {proc.returncode}: " + " | ".join(tail))
        record = json.loads(result.read_text(encoding="utf-8"))
        record["setup_s"] = record["t_begin"] - launched
        record["out"] = out
        if mode == "run":
            record["wall_s"] = record["t_end"] - record["t_begin"]
            manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
            record["written"] = {o["file"]: o["sha256"] for o in manifest["outputs"]}
            record["failures"] = manifest["failures"]
            if record["exit"] != (3 if manifest["failures"] else 0):
                raise BenchError(f"CLI exit code {record['exit']} disagrees with the manifest")
        return record


def measure(runner: Runner, seconds: float, traced: bool, references: dict):
    """Set-up probes, one warm-up run, then timed repetitions for about ``seconds``.

    The warm-up run is checked against the references and every later run
    must write the same bytes; the warm-up is not timed.
    """
    setups = [runner.start("setup") for _ in range(SETUP_PROBES)]
    begin = time.monotonic()
    first = runner.start("run")
    status = wl.check_outputs(runner.workload, runner.widths, first["out"], references)
    first["identical"] = True
    untraced, traced_runs = [], []
    while True:
        step_begin = time.monotonic()
        batch = [runner.start("run")] + ([runner.start("run", traced=True)] if traced else [])
        for rep in batch:
            rep["identical"] = (rep["written"], rep["failures"]) == (first["written"], first["failures"])
            shutil.rmtree(rep["out"])
        untraced.append(batch[0])
        traced_runs += batch[1:]
        now, last = time.monotonic(), time.monotonic() - step_begin
        # stop when the next repetition would end more than half of it late
        if now - begin + last / 2 >= seconds or now - begin + last > RUN_LIMIT_S:
            break
    return setups, first, untraced, traced_runs, status


def layer_metrics(untraced: list, traced_runs: list, first_out: Path) -> dict:
    names = traced_runs[0]["layers"].keys()
    metrics = {n: statistics.median(r["layers"][n] for r in traced_runs) for n in names}
    files = [p for p in first_out.iterdir() if p.is_file()]
    metrics["cli.files_written"] = len(files)
    metrics["cli.bytes_written"] = sum(p.stat().st_size for p in files)
    metrics["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced_runs) - statistics.median(
        r["wall_s"] for r in untraced
    )
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="0 is the canonical scenario input")
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work = OUT / f"{args.workload}-{os.getpid()}"
    try:
        if not (SRC / "dirac_tunnel" / "cli.py").is_file():
            raise BenchError(f"no library source at {SRC}; run from a source checkout")
        units = declared_units()
        references = wl.load_references()
        workload = wl.WORKLOADS[args.workload]
        widths = workload.widths(args.seed)
        work.mkdir(parents=True)
        runner = Runner(workload, widths, work)
        setups, first, untraced, traced_runs, status = measure(
            runner, args.seconds, args.trace == 1, references
        )
        environment = setups[0]["environment"]
        runs = [first] + untraced + traced_runs
        identical = all(r["identical"] for r in runs)
        passed = sum(s == "pass" for s in status.values()) if identical else 0
        wall = statistics.median(r["wall_s"] for r in untraced)
        if args.trace:
            values = layer_metrics(untraced, traced_runs, first["out"])
        else:
            values = {
                "wall_s": wall,
                "items_per_s": passed / wall,
                "passed_ratio": passed / len(widths),
                "setup_s": statistics.median(r["setup_s"] for r in setups + runs),
                "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in untraced) / 1024.0,
            }
        metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if OUT.is_dir() and not any(OUT.iterdir()):
            OUT.rmdir()

    failed = len(widths) - passed
    print(f"workload {args.workload} seed {args.seed}: {workload.scenario}, "
          f"L = {', '.join(format(w, 'g') for w in widths)}")
    print("environment " + json.dumps(environment, sort_keys=True))
    print(f"runs: 1 warm-up, {len(untraced)} untraced, {len(traced_runs)} traced, "
          f"{len(setups)} setup probes; repetitions byte-identical: {identical}")
    print("wall_s of each timed run: " + ", ".join(f"{r['wall_s']:.3f}" for r in runs[1:]))
    for w, s in status.items():
        if s != "pass":
            print(f"item L={w:g}: {s}")
    print(f"failed_ratio {failed}/{len(widths)}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    correct = identical and not any(s in ("missing", "mismatch") for s in status.values())
    result = {
        "correct": correct,
        "attempted": len(widths) * len(runs),
        "failed": failed * len(runs),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
