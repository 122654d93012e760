"""Golden SHA-256 digests of the CLI's output files.

``reproduce-paper`` and ``simulate --write-traces`` run on the small config
of ``test_cli.SMALL_RUN_CONFIG`` at 1 and at 2 worker processes; every file
they write is hashed.  The pinned digests in ``golden.json`` are keyed by
the numpy and scipy versions and the machine architecture, because a SIMD
``exp`` or ``log`` may differ by one ulp between builds.

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
from test_cli import SMALL_RUN_CONFIG

GOLDEN_PATH = Path(__file__).with_name("golden.json")
THREADS = (1, 2)


def platform_key() -> str:
    return f"numpy {np.__version__}, scipy {scipy.__version__}, {platform.machine()}"


def run_digests(workdir: Path, threads: int) -> dict[str, str]:
    """SHA-256 of every file both commands write, by path under ``workdir/out``."""
    config = workdir / "small.ini"
    config.write_text(SMALL_RUN_CONFIG)
    out = workdir / "out"
    common = ["--config", str(config), "--out", str(out), "--threads", str(threads)]
    for argv in (["reproduce-paper", *common], ["simulate", "--write-traces", *common]):
        if main(argv) != 0:
            raise RuntimeError(f"epibias {' '.join(argv)} failed")
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*")) if path.is_file()
    }


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def update() -> None:
    digests = {}
    for threads in THREADS:
        with tempfile.TemporaryDirectory() as tmp:
            digests[str(threads)] = run_digests(Path(tmp), threads)
    GOLDEN_PATH.write_text(
        json.dumps({"key": platform_key(), "digests": digests}, indent=2) + "\n"
    )
    print(f"wrote {GOLDEN_PATH} for {platform_key()}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true", help="rewrite golden.json")
    if not parser.parse_args().update:
        parser.print_help()
        sys.exit(2)
    update()
