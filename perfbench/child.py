"""One benchmark process: run one scenario through the public CLI path.

    child.py RESULT_JSON MODE TRACE CLI_ARG...

MODE ``run`` runs the scenario with ``cli.main(CLI_ARG...)``; MODE
``setup`` stops where the first item would begin, after imports and config
parsing and validation.  TRACE ``1`` installs the per-layer tracer first.
RESULT_JSON receives the monotonic times at which ``run_scenario`` was
entered and left, the process's peak resident memory, the CLI exit code,
the environment and, when traced, the per-layer counts.
"""

from __future__ import annotations

import ctypes
import json
import os
import resource
import sys
import time
from pathlib import Path


class _SetupDone(Exception):
    pass


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def environment(src: Path) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with open("/proc/cpuinfo", encoding="utf-8") as info:
        cpu = next(
            (line.split(":", 1)[1].strip() for line in info if line.startswith("model name")),
            "unknown",
        )
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "DIRAC_TUNNEL_THREADS": os.environ.get("DIRAC_TUNNEL_THREADS", "unset"),
        "src_lines": sum(
            len(p.read_bytes().splitlines()) for p in sorted(src.rglob("*.py"))
        ),
    }


def main() -> int:
    result_path, mode, traced, cli_args = sys.argv[1], sys.argv[2], sys.argv[3] == "1", sys.argv[4:]
    from dirac_tunnel import cli, transit, wavepacket

    src = Path(os.environ["PERFBENCH_SRC"]).resolve()
    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"dirac_tunnel imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    record: dict = {}
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(cli, transit, wavepacket)
    run_scenario = cli.run_scenario

    def timed_run(config):
        record["t_begin"] = time.monotonic()
        if mode == "setup":
            raise _SetupDone
        try:
            return run_scenario(config)
        finally:
            record["t_end"] = time.monotonic()

    cli.run_scenario = timed_run
    try:
        record["exit"] = cli.main(cli_args)
    except _SetupDone:
        record["exit"] = None
        record["environment"] = environment(src)
    record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        record["layers"] = tracer.metrics()
    Path(result_path).write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
