"""Golden SHA-256 digests of the CLI's output files and of default-size traces.

``reproduce-paper`` and ``simulate --write-traces`` run on the small config
of ``test_cli.SMALL_RUN_CONFIG`` at 1 and at 2 worker processes, and
``reproduce-paper --format csv`` at 1; every file they write is hashed.  The
small config's threshold of 150 needs only a few simulator batches, so the
first ``N_DEFAULT_TRACES`` accepted traces of the default scenario are hashed
too (every column, ``threshold_time`` and ``notified_order()``), which covers
the long tail of a ~33,000-person run.
The pinned digests in ``golden.json`` are keyed by the numpy and scipy
versions and the machine architecture, because a SIMD ``exp`` or ``log``
may differ by one ulp between builds.

Rewrite ``golden.json`` after a change that moves an output on purpose:

    PYTHONPATH=src python tests/golden.py --update
"""

import argparse
import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from epibias.cli import main
from epibias.outbreak_sim import Scenario, simulate_outbreak
from test_cli import SMALL_RUN_CONFIG

GOLDEN_PATH = Path(__file__).with_name("golden.json")
THREADS = (1, 2)
DEFAULT_SEED = 20140801
N_DEFAULT_TRACES = 3


def platform_key() -> str:
    return f"numpy {np.__version__}, scipy {scipy.__version__}, {platform.machine()}"


def _digests(workdir: Path, threads: int, commands: list[list[str]]) -> dict[str, str]:
    """Run each command on the small config; SHA-256 of every file under ``workdir/out``."""
    config = workdir / "small.ini"
    config.write_text(SMALL_RUN_CONFIG)
    out = workdir / "out"
    common = ["--config", str(config), "--out", str(out), "--threads", str(threads)]
    for command in commands:
        argv = [*command, *common]
        if main(argv) != 0:
            raise RuntimeError(f"epibias {' '.join(argv)} failed")
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*")) if path.is_file()
    }


def run_digests(workdir: Path, threads: int) -> dict[str, str]:
    """SHA-256 of every file ``reproduce-paper`` and ``simulate --write-traces`` write."""
    return _digests(workdir, threads, [["reproduce-paper"], ["simulate", "--write-traces"]])


def csv_digests(workdir: Path) -> dict[str, str]:
    """SHA-256 of every file ``reproduce-paper --format csv`` writes on 1 worker."""
    return _digests(workdir, 1, [["reproduce-paper", "--format", "csv"]])


def trace_digests() -> dict[str, str]:
    """SHA-256 of each of the first accepted default-scenario traces, by replicate."""
    scenario = Scenario(master_seed=DEFAULT_SEED)
    out = {}
    rep = 0
    while len(out) < N_DEFAULT_TRACES:
        tr = simulate_outbreak(scenario, rep)
        if tr is not None:
            h = hashlib.sha256(np.float64(tr.threshold_time).tobytes())
            for col in (tr.t_infect, tr.infector, tr.t_inf_start, tr.t_inf_end,
                        tr.t_symptom, tr.died, tr.t_outcome, tr.notified_order()):
                h.update(col.dtype.str.encode())
                h.update(col.tobytes())
            out[f"replicate_{rep:04d}"] = h.hexdigest()
        rep += 1
    return out


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def update() -> None:
    digests = {}
    for threads in THREADS:
        with tempfile.TemporaryDirectory() as tmp:
            digests[str(threads)] = run_digests(Path(tmp), threads)
    with tempfile.TemporaryDirectory() as tmp:
        csv = csv_digests(Path(tmp))
    GOLDEN_PATH.write_text(json.dumps(
        {"key": platform_key(), "digests": digests, "csv": csv, "traces": trace_digests()},
        indent=2,
    ) + "\n")
    print(f"wrote {GOLDEN_PATH} for {platform_key()}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true", help="rewrite golden.json")
    if not parser.parse_args().update:
        parser.print_help()
        sys.exit(2)
    update()
