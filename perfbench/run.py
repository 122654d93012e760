"""epibias benchmark: batch throughput end to end, per-module cost from outside.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Workloads and metrics are declared in BENCHMARK.json.  With ``--trace 0``
the run prints every end-to-end metric; with ``--trace 1`` it runs every
step untraced and then traced, and prints every per-layer metric and the
tracing overhead (a traced ensemble run also repeats step 0 through the
process pool).  Human-readable lines come first; the last line of standard
output is one JSON object: correct, attempted, failed, metrics.

Throughput is reported as ``scaled_items_per_s``: the wall-clock rate
scaled by the speed of a fixed pure-Python loop timed between the steps,
so that the machine's own changes of speed cancel (see ``Phase``).

Set-up (``setup_s``) is the median wall time of three fresh interpreters
that import epibias and call ``load_config``, plus the median of three
builds of the workload's inputs, scaled by the same loop.  Output digests are kept in
``.perfbench_out/digests.json`` keyed by the package source hash, the
workload family, the size, the seed and the step, so a later run of the
same code at the same seed must reproduce them exactly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
REF_LOOP_N = 100_000   # iterations of reference_loop
REF_S = 0.010          # reference_loop wall time that scaled rates are scaled to
PROBE_EVERY_S = 0.25   # least time between two reference_loop probes in a phase
# When the machine slows, epibias code slows more than the small loop does:
# regressing log step time on log loop time gave slopes of 1.08 (simulator),
# 1.19 (analyze_trace) and 1.35 (ml_fit), which noise in the loop times
# biases towards 0.  Scaling by the loop time to this power follows that.
REF_EXPONENT = 1.3

PROBE = """\
import json, time
t0 = time.perf_counter()
import epibias, epibias.analysis, epibias.config
t1 = time.perf_counter()
epibias.config.load_config()
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_config_s": t2 - t1}))
"""


def _fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _declared() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        _fail(f"{path.name} not found at {ROOT}")
    return json.loads(path.read_text())


if not (ROOT / "src" / "epibias" / "__init__.py").is_file():
    _fail(f"no epibias sources under {ROOT / 'src'}; run from a full checkout")
sys.path.insert(0, str(ROOT / "src"))

from epibias import analysis, cfr, exposures, growth_estimators, outbreak_sim, tracing  # noqa: E402

import layers  # noqa: E402
import workloads as wls  # noqa: E402
from tracer import Recorder  # noqa: E402


MODULES = types.SimpleNamespace(
    analysis=analysis, cfr=cfr, exposures=exposures,
    growth_estimators=growth_estimators, outbreak_sim=outbreak_sim, tracing=tracing,
)


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "epibias").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def probe_setup() -> dict:
    """Wall time of a fresh interpreter importing epibias and loading the config."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        _fail(f"set-up probe failed:\n{proc.stderr}")
    return {"wall_s": wall, **json.loads(proc.stdout.strip().splitlines()[-1])}


def peak_rss_mb() -> float:
    """Peak resident memory of this process (set-up probes are children, not counted)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_step(wl, ctx, b: int, digests: dict, problems: list, rec=None):
    """Run step ``b`` (traced when ``rec`` is given); returns (wall, items, failed)."""
    if rec:
        rec.install(MODULES)
    try:
        t0 = time.perf_counter()
        items, failed, d, bad = wl.step(ctx, b)
        wall = time.perf_counter() - t0
    finally:
        if rec:
            rec.uninstall()
            rec.collect_workers()
    problems.extend(bad)
    if d is not None:
        label = wl.label(ctx, b)
        if digests.setdefault(label, d) != d:
            problems.append(f"step {label} gave two different outputs in one run")
    return wall, items, failed


def reference_loop() -> float:
    """Wall time of a fixed pure-Python loop: how fast the machine runs right now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(REF_LOOP_N):
        s += i * i % 7
    return time.perf_counter() - t0


class Phase:
    """Steps of one workload run back to back until ``seconds`` have passed.

    On a shared machine the same work runs up to twice as slowly for
    minutes at a time.  So the phase also times ``reference_loop`` before
    a step whenever ``PROBE_EVERY_S`` have passed since the last probe, and
    once at the end, and ``scaled_items_per_s`` rescales the wall-clock rate
    to the speed at which the loop takes ``REF_S`` (see ``REF_EXPONENT``).  With a recorder, every
    step runs twice in a row, untraced and then traced, so that the tracing
    overhead compares two runs of the same work under the same machine
    load; only the untraced runs count towards the rates.
    """

    def __init__(self, wl, ctx, seconds: float, digests: dict, problems: list, rec=None):
        self.attempted = self.failed = 0
        self.done = 0                        # untraced items completed
        self.busy = 0.0                      # untraced step wall time
        self.probes: list[float] = []        # reference_loop wall times
        self.overheads: list[float] = []     # traced wall / untraced wall - 1
        self.steps = 0
        t0 = last_probe = time.perf_counter()
        self.probes.append(reference_loop())
        while True:
            if time.perf_counter() - last_probe >= PROBE_EVERY_S:
                last_probe = time.perf_counter()
                self.probes.append(reference_loop())
            wall, items, failed = timed_step(wl, ctx, self.steps, digests, problems)
            self.done += items - failed
            self.busy += wall
            self.attempted += items
            self.failed += failed
            if rec:
                traced, items, failed = timed_step(wl, ctx, self.steps, digests, problems, rec)
                self.overheads.append(traced / wall - 1.0)
                self.attempted += items
                self.failed += failed
            self.steps += 1
            self.wall = time.perf_counter() - t0
            if self.wall >= seconds:
                break
        self.probes.append(reference_loop())

    @property
    def items_per_s(self) -> float:
        """Untraced items completed per second of untraced step wall time."""
        return self.done / self.busy

    @property
    def ref_s(self) -> float:
        """Mean probe time, leaving out the fastest and the slowest tenth.

        The loop runs at one of two speeds about 1.4x apart.  A median
        jumps between them when about half the run is slow; a mean follows
        the share of slow time, as the steps' wall time does.  The trim
        drops single stalls.
        """
        p = sorted(self.probes)
        k = len(p) // 10
        return statistics.mean(p[k:len(p) - k])

    @property
    def scaled_items_per_s(self) -> float:
        return self.items_per_s * (self.ref_s / REF_S) ** REF_EXPONENT


def check_store(store_path: Path, wl, size, seed: int, digests: dict, problems: list) -> None:
    """Compare this run's digests with earlier runs of the same code, seed and size."""
    store = json.loads(store_path.read_text()) if store_path.is_file() else {}
    prefix = f"{source_hash()}|{wl.family}|{size.tag()}|{seed}|"
    for label, d in digests.items():
        old = store.setdefault(prefix + label, d)
        if old != d:
            problems.append(f"{wl.family} step {label} at seed {seed}: digest {d[:12]} "
                            f"differs from an earlier run's {old[:12]}")
    store_path.parent.mkdir(parents=True, exist_ok=True)
    tmp = store_path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(store, indent=0, sort_keys=True))
    os.replace(tmp, store_path)


def build(wl, seed: int, size, repeats: int, rec, problems: list):
    """Build the workload's inputs ``repeats`` times; returns (inputs, build walls)."""
    walls, input_digests = [], set()
    for _ in range(repeats):
        if rec:
            rec.install(MODULES)
        t0 = time.perf_counter()
        ctx = wl.build(seed, size)
        walls.append(time.perf_counter() - t0)
        if rec:
            rec.uninstall()
        input_digests.add(wl.inputs_digest(ctx))
    if len(input_digests) > 1:
        problems.append("repeated set-up built different inputs from one seed")
    return ctx, walls


def pool_comparison(rec, ctx, digests: dict, problems: list):
    """Ensemble step 0 traced, serially and then through ensemble_map's process pool.

    Returns (serial wall, pool wall, pool span lists, attempted, failed).
    The pool must reproduce the serial output exactly.
    """
    serial_wall, items, failed = timed_step(wls.Ensemble(threads=1), ctx, 0, digests, problems, rec)
    rec.take()
    pool = wls.Ensemble(threads=wls.POOL_THREADS)
    pool_wall, pool_items, pool_failed = timed_step(pool, ctx, 0, digests, problems, rec)
    return serial_wall, pool_wall, rec.take(), items + pool_items, failed + pool_failed


def run(workload: str, seed: int, seconds: float, trace: bool,
        size=wls.FULL, setup_repeats: int = SETUP_REPEATS,
        store_path: Path | None = OUT / "digests.json"):
    """One benchmark run; prints the report and returns (result, output digests)."""
    wl = wls.WORKLOADS[workload]
    problems: list[str] = []
    digests: dict[str, str] = {}
    rec = Recorder(OUT / f"spill-{os.getpid()}") if trace else None

    # Traced runs build once, traced, so a simulated trace pool shows up
    # in the outbreak_sim metrics; untraced runs build several times.
    ctx, builds = build(wl, seed, size, 1 if trace else setup_repeats, rec, problems)
    setup_lists = rec.take() if rec else []

    serial_wall = pool_wall = 0.0
    pool_lists, attempted, failed = [], 0, 0
    if trace and isinstance(wl, wls.Ensemble):
        serial_wall, pool_wall, pool_lists, attempted, failed = pool_comparison(
            rec, ctx, digests, problems)
    phase = Phase(wl, ctx, seconds, digests, problems, rec)
    rss = peak_rss_mb()
    attempted += phase.attempted
    failed += phase.failed
    phase_lists = rec.take() if rec else []

    probes = [probe_setup() for _ in range(setup_repeats)]
    probe_s = statistics.median(p["wall_s"] for p in probes)
    setup_wall_s = probe_s + statistics.median(builds)
    # Set-up runs just before and after the phase, so the phase's reference
    # loop time stands for the machine's speed during it too.
    setup_s = setup_wall_s * REF_S / phase.ref_s

    if store_path is not None:
        check_store(store_path, wl, size, seed, digests, problems)

    print(f"workload {workload}  seed {seed}  size {size.tag()}")
    print(f"  set-up wall time: {setup_wall_s!r} s = median of {len(probes)} fresh-interpreter "
          f"import + load_config probes ({probe_s:.4f} s) + median of {len(builds)} "
          f"input builds ({statistics.median(builds):.4f} s)")
    print(f"  {phase.attempted} items ({phase.failed} failed) in {phase.wall:.3f} s over "
          f"{phase.steps} steps{', each run untraced and then traced' if trace else ''}")
    print(f"  items_per_s: {phase.items_per_s!r} = {phase.done} untraced items completed / "
          f"{phase.busy:.3f} s of untraced step wall time")
    print(f"  reference loop: trimmed mean {phase.ref_s!r} s over {len(phase.probes)} probes "
          f"(min {min(phase.probes):.5f} s, max {max(phase.probes):.5f} s)")
    print(f"  scaled_items_per_s: {phase.scaled_items_per_s!r} = items_per_s x "
          f"({phase.ref_s:.5f} s / {REF_S} s)^{REF_EXPONENT}, the rate at the speed where the "
          f"loop takes {REF_S} s")
    print(f"  setup_s: {setup_s!r} s = set-up wall time x {REF_S} s / {phase.ref_s:.5f} s")
    print(f"  failure_rate: {phase.failed / phase.attempted!r} = {phase.failed} failed / "
          f"{phase.attempted} attempted")
    print(f"  peak RSS: {rss:.1f} MB")
    for label in sorted(digests, key=lambda s: (len(s), s))[:4]:
        print(f"  digest {wl.family} step {label}: {digests[label]}")

    if not trace:
        metrics = {"scaled_items_per_s": phase.scaled_items_per_s, "setup_s": setup_s,
                   "peak_rss_mb": rss}
    else:
        overhead = 100.0 * statistics.median(phase.overheads)
        metrics = {
            **layers.outbreak_sim_metrics(setup_lists + phase_lists),
            **layers.pool_metrics(pool_lists, pool_wall, serial_wall, wls.POOL_THREADS),
            **layers.analysis_metrics(phase_lists),
            **layers.exposures_metrics(phase_lists),
            "setup.import_s": statistics.median(p["import_s"] for p in probes),
            "config.load_config_ms": 1e3 * statistics.median(p["load_config_s"] for p in probes),
            "bench.trace_overhead_pct": overhead,
        }
        print(f"  tracing overhead: {overhead:.2f}% = median over {phase.steps} steps of "
              f"traced wall / untraced wall of the same step, minus one")
        groups = [("traced steps", phase_lists)]
        if pool_lists:
            print(f"  pool: step 0 with {wls.POOL_THREADS} workers took {pool_wall:.3f} s "
                  f"against {serial_wall:.3f} s serially, both traced")
            groups += [("pool step, parent", pool_lists[:1]),
                       (f"pool step, {len(pool_lists) - 1} workers", pool_lists[1:])]
        for title, lists in groups:
            table, base = layers.self_time_table(lists)
            print(f"  self time by layer, {title} (base: {base:.3f} s of self time):")
            for layer, (n, t) in sorted(table.items(), key=lambda kv: -kv[1][1]):
                print(f"    {layer:<18} {n:>8} spans {t:>10.4f} s {100 * t / base:>7.2f}%")
        spans_path = OUT / f"spans-{workload}-{seed}.json"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.write_text(json.dumps(
            {"setup": setup_lists, "traced": phase_lists, "pool": pool_lists}))
        print(f"  spans written to {spans_path.relative_to(ROOT)}")
        for name, value in metrics.items():
            print(f"  {name} = {value!r}")

    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, digests


def with_units(metrics: dict, declared: list[dict]) -> dict:
    missing = {d["name"] for d in declared} ^ set(metrics)
    if missing:
        raise RuntimeError(f"metrics and BENCHMARK.json disagree on {sorted(missing)}")
    return {d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]} for d in declared}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(wls.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at tiny size, traced and untraced, and check "
                         "that every declared metric is emitted")
    args = ap.parse_args(argv)
    declared = _declared()
    if args.smoke:
        import smoke
        return smoke.main(run, with_units, declared)
    if args.workload is None:
        ap.error("--workload is required")
    result, _ = run(args.workload, args.seed, args.seconds, bool(args.trace))
    kind = "per_layer" if args.trace else "end_to_end"
    result["metrics"] = with_units(result["metrics"], declared[kind])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
