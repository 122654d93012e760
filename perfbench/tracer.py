"""Span recorder that traces epibias from outside the package.

The recorder replaces public functions on the epibias modules with wrappers
that append one span per call: (name, start, end, parent span, info).  The
package's own callers look these names up at call time, so the wrappers see
every call without any change to the package.  Spans stay in memory; worker
processes of the ensemble pool keep their own list and write it to a file
when they exit, which the parent reads back after the pool has shut down.

Nothing here is imported by the untraced path, so an untraced run executes
exactly the package's code.
"""

from __future__ import annotations

import functools
import json
import os
import time
from multiprocessing import util as mp_util
from pathlib import Path

NAME, START, END, PARENT, INFO = range(5)


def _sim_info(args, kwargs, out, exc):
    return {"persons": None if out is None else len(out)}


def _predict_info(args, kwargs, out, exc):
    return {"method": kwargs.get("method", args[1] if len(args) > 1 else None)}


def _cfr_info(args, kwargs, out, exc):
    return {"clipped": bool(out.clipped)} if out is not None else None


def _moment_info(args, kwargs, out, exc):
    if exc is None:
        return None
    return {"raw": getattr(exc, "raw", None) is not None}


def _targets(epibias_modules):
    """(module, attribute, layer, info) for every function the tracer wraps.

    Each attribute is the name through which the package's callers reach
    the function: ``analysis`` imports ``discretize_centered`` and
    ``ensemble_map`` by name, so those are wrapped on ``analysis``.
    """
    m = epibias_modules
    return [
        (m.outbreak_sim, "_apply", "outbreak_sim", None),
        (m.outbreak_sim, "simulate_outbreak", "outbreak_sim", _sim_info),
        (m.analysis, "ensemble_map", "outbreak_sim", None),
        (m.analysis, "analyze_ensemble", "analysis", None),
        (m.analysis, "ensemble_report", "analysis", None),
        (m.analysis, "analyze_trace", "analysis", None),
        (m.analysis, "exposure_study", "analysis", None),
        (m.analysis, "discretize_centered", "distributions", None),
        (m.analysis, "discretization_horizon", "distributions", None),
        (m.tracing, "sample_backward_pairs", "tracing", None),
        (m.tracing, "interval_moments", "tracing", None),
        (m.tracing, "fit_gamma_to_intervals", "tracing", None),
        (m.growth_estimators, "est_a_log_cumulative", "growth_estimators", None),
        (m.growth_estimators, "est_b_log_daily", "growth_estimators", None),
        (m.growth_estimators, "est_c_mean_ratio", "growth_estimators", None),
        (m.growth_estimators, "est_d_branching", "growth_estimators", None),
        (m.growth_estimators, "est_e_renewal_R0", "growth_estimators", None),
        (m.growth_estimators, "predict_forward", "growth_estimators", _predict_info),
        (m.cfr, "corrected_naive_cfr", "cfr", _cfr_info),
        (m.cfr, "pi_finite", "cfr", None),
        (m.exposures, "generate_histories", "exposures", None),
        (m.exposures, "ml_fit", "exposures", None),
        (m.exposures, "moment_fit", "exposures", _moment_info),
        (m.exposures, "conditional_log_likelihood", "exposures", None),
    ]


class Recorder:
    """In-memory spans of one process plus those read back from workers.

    ``take`` returns this process's span list first, then one list per
    worker.  A span's PARENT indexes into its own list (-1 at top level).
    """

    def __init__(self, spill_dir: Path):
        self.spill_dir = Path(spill_dir)
        self.spans: list[list] = []
        self.worker_lists: list[list[list]] = []
        self._stack: list[int] = []
        self._originals: list[tuple] = []
        mp_util.register_after_fork(self, Recorder._after_fork)

    # -- worker side -------------------------------------------------------

    def _after_fork(self):
        # A forked worker starts with a copy of the parent's spans; drop
        # them and write this worker's own spans when it exits.
        self.spans = []
        self._stack = []
        self.worker_lists = []
        mp_util.Finalize(None, self._spill, exitpriority=10)

    def _spill(self):
        if self.spans:
            self.spill_dir.mkdir(parents=True, exist_ok=True)
            path = self.spill_dir / f"worker-{os.getpid()}.json"
            path.write_text(json.dumps(self.spans))

    def collect_workers(self) -> None:
        """Read back (and delete) the span files of workers that have exited."""
        if not self.spill_dir.is_dir():
            return
        for path in sorted(self.spill_dir.glob("worker-*.json")):
            self.worker_lists.append(json.loads(path.read_text()))
            path.unlink()
        self.spill_dir.rmdir()

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name, info):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = rec.spans
            span = [name, time.perf_counter(), 0.0,
                    rec._stack[-1] if rec._stack else -1, None]
            rec._stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                span[END] = time.perf_counter()
                span[INFO] = {"error": type(exc).__name__,
                              **((info(args, kwargs, None, exc) or {}) if info else {})}
                raise
            finally:
                rec._stack.pop()
            span[END] = time.perf_counter()
            if info is not None:
                span[INFO] = info(args, kwargs, out, None)
            return out

        return traced

    def install(self, epibias_modules) -> None:
        for module, attr, layer, info in _targets(epibias_modules):
            fn = getattr(module, attr)
            self._originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, f"{layer}.{attr}", info))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    # -- queries -----------------------------------------------------------

    def take(self) -> list[list[list]]:
        """Return this process's span list and every worker's, and start afresh."""
        lists = [self.spans, *self.worker_lists]
        self.spans, self.worker_lists = [], []
        return lists


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def children(spans: list[list]) -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            kids.setdefault(s[PARENT], []).append(i)
    return kids
