"""Golden SHA-256 digests of the CLI's output files and of default-size traces.

``reproduce-paper`` and ``simulate --write-traces`` run on the small config
of ``test_cli.SMALL_RUN_CONFIG`` at 1 and at 2 worker processes; every file
they write, JSON and CSV reports and traces, is hashed.  The small config's
threshold of 150 needs only a few simulator batches, so the first
``N_DEFAULT_TRACES`` accepted traces of the default scenario are hashed too
(every column, ``threshold_time`` and the stable sort of ``t_symptom``, which
is every person's notification order, ties broken by id), which covers the
long tail of a ~33,000-person run, and so is the canonical JSON of
``analyze_trace`` on each of them under the three option variants of the
benchmark's ``reanalyze`` workload.
The pinned digests in ``golden.json`` are keyed by the numpy and scipy
versions and the machine architecture, because a SIMD ``exp`` or ``log``
may differ by one ulp between builds.

Rewrite ``golden.json`` after a change that moves an output on purpose:

    PYTHONPATH=src python tests/golden.py --update

or list the digests that moved, without writing the file (exit status 1 if
any did):

    PYTHONPATH=src python tests/golden.py --check
"""

import argparse
import dataclasses
import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from epibias.analysis import AnalysisOptions, analyze_trace
from epibias.cli import main
from epibias.outbreak_sim import Scenario, ensemble_map
from test_cli import SMALL_RUN_CONFIG

GOLDEN_PATH = Path(__file__).with_name("golden.json")
THREADS = (1, 2)
DEFAULT_SEED = 20140801
N_DEFAULT_TRACES = 3
# The option variants of perfbench's `reanalyze` workload.
ANALYSIS_VARIANTS = (
    AnalysisOptions(),
    AnalysisOptions(window=28, horizon=28),
    AnalysisOptions(window=56, horizon=35),
)


def platform_key() -> str:
    return f"numpy {np.__version__}, scipy {scipy.__version__}, {platform.machine()}"


def run_digests(workdir: Path, threads: int) -> dict[str, str]:
    """SHA-256 of every file ``reproduce-paper`` and ``simulate --write-traces`` write
    on the small config, by path under ``workdir/out``."""
    config = workdir / "small.ini"
    config.write_text(SMALL_RUN_CONFIG)
    out = workdir / "out"
    common = ["--config", str(config), "--out", str(out), "--threads", str(threads)]
    for command in (["reproduce-paper"], ["simulate", "--write-traces"]):
        argv = [*command, *common]
        if main(argv) != 0:
            raise RuntimeError(f"epibias {' '.join(argv)} failed")
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*")) if path.is_file()
    }


def default_traces() -> list:
    """(replicate, trace) of the first accepted default-scenario traces."""
    scenario = Scenario(master_seed=DEFAULT_SEED)
    return ensemble_map(scenario, N_DEFAULT_TRACES, lambda trace, rep: (rep, trace))[0]


def trace_digests() -> dict[str, str]:
    """SHA-256 of each of the first accepted default-scenario traces, by replicate."""
    out = {}
    for rep, tr in default_traces():
        h = hashlib.sha256(np.float64(tr.threshold_time).tobytes())
        for col in (tr.t_infect, tr.infector, tr.t_inf_start, tr.t_inf_end,
                    tr.t_symptom, tr.died, tr.t_outcome,
                    np.argsort(tr.t_symptom, kind="stable")):
            h.update(col.dtype.str.encode())
            h.update(col.tobytes())
        out[f"replicate_{rep:04d}"] = h.hexdigest()
    return out


def _plain(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def analysis_digests() -> dict[str, str]:
    """SHA-256 of the canonical JSON of ``analyze_trace`` per default trace and variant."""
    out = {}
    for rep, tr in default_traces():
        for opt in ANALYSIS_VARIANTS:
            text = json.dumps(analyze_trace(tr, rep, opt), sort_keys=True, default=_plain)
            key = f"replicate_{rep:04d}/window={opt.window},horizon={opt.horizon}"
            out[key] = hashlib.sha256(text.encode()).hexdigest()
    return out


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def compute() -> dict:
    """Every section of ``golden.json``, recomputed on this platform."""
    digests = {}
    for threads in THREADS:
        with tempfile.TemporaryDirectory() as tmp:
            digests[str(threads)] = run_digests(Path(tmp), threads)
    return {"key": platform_key(), "digests": digests,
            "traces": trace_digests(), "analysis": analysis_digests()}


def _flat(d: dict, prefix: str = "") -> dict[str, str]:
    out = {}
    for k, v in d.items():
        out.update(_flat(v, f"{prefix}{k}/") if isinstance(v, dict) else {prefix + k: v})
    return out


def check() -> int:
    """Print every digest that differs from ``golden.json``; 1 if any does, else 0."""
    pinned, now = load_golden(), compute()
    pinned_key, key = pinned.pop("key"), now.pop("key")
    if pinned_key != key:
        print(f"note: pinned on {pinned_key}, this is {key}")
    old, new = _flat(pinned), _flat(now)
    moved = sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))
    for k in moved:
        print(f"moved: {k}  {old.get(k, '(absent)')[:12]} -> {new.get(k, '(absent)')[:12]}")
    print(f"{len(moved)} of {len(old.keys() | new.keys())} digests moved")
    return 1 if moved else 0


def update() -> None:
    GOLDEN_PATH.write_text(json.dumps(compute(), indent=2) + "\n")
    print(f"wrote {GOLDEN_PATH} for {platform_key()}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--update", action="store_true", help="rewrite golden.json")
    mode.add_argument("--check", action="store_true",
                      help="list the digests that differ from golden.json; write nothing")
    if parser.parse_args().update:
        update()
    else:
        sys.exit(check())
