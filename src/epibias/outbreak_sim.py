"""Event-driven branching-process simulator of an Ebola-like outbreak.

Each infected individual runs a stochastic SEIR course: a Gamma latent
period, a Gamma infectious period during which new infections occur as a
Poisson process at a constant contact rate, symptom onset (= notification)
at the latent duration scaled by a per-person uniform factor, and a Gamma
delay from the end of infectiousness to death or recovery.  There is no
susceptible depletion: the early exponential phase is simulated directly as
a branching process, with every infectee keeping a link to its infector.

A run is retained when it reaches the notification threshold; it then
continues for a fixed follow-up window so that forward predictions can be
scored against the realized continuation.
"""

from __future__ import annotations

import csv
import heapq
import itertools
import math
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

import numpy as np

from .distributions import GammaParams
from .rng import stream


class SimulationLimitError(RuntimeError):
    """Raised when a run exceeds the configured person cap."""


class AcceptanceError(RuntimeError):
    """Raised when almost every run dies out, i.e. the scenario is miswired."""


@dataclass(frozen=True)
class Scenario:
    """Full simulation configuration.

    Defaults reproduce the Ebola-like parameter set: contact rate 0.34/day
    over a mean-5-day infectious period gives R0 = 1.7, and equal latent and
    infectious rates make the implied generation-time distribution
    Gamma(3, 0.2) (mean 15 days).
    """

    contact_rate: float = 0.34
    latent: GammaParams = GammaParams(2.0, 0.2)
    infectious: GammaParams = GammaParams(1.0, 0.2)
    incubation_factor_range: tuple[float, float] = (0.8, 1.2)
    p_death: float = 0.7
    to_death: GammaParams = GammaParams(4.0 / 9.0, 1.0 / 9.0)
    to_recovery: GammaParams = GammaParams(4.0, 1.0 / 3.0)
    notify_threshold: int = 4500
    followup: float = 42.0
    master_seed: int = 0
    person_cap: int = 10_000_000

    def __post_init__(self):
        if self.contact_rate < 0:
            raise ValueError("contact_rate must be non-negative")
        if not 0.0 <= self.p_death <= 1.0:
            raise ValueError("p_death must be a probability")
        lo, hi = self.incubation_factor_range
        if not 0.0 <= lo <= hi:
            raise ValueError("incubation factor range must satisfy 0 <= lo <= hi")
        if self.notify_threshold < 1:
            raise ValueError("notify_threshold must be >= 1")
        if self.followup < 0:
            raise ValueError("followup must be non-negative")

    def R0(self) -> float:
        """Mean offspring per case: contact rate times mean infectious period."""
        return self.contact_rate * self.infectious.mean()

    def implied_generation(self) -> GammaParams:
        """Generation-time distribution implied by the SEIR course.

        Valid in the equal-rates case, where latency and transmission stages
        chain into a single Gamma with the summed shape.
        """
        if not math.isclose(self.latent.rate, self.infectious.rate, rel_tol=1e-12):
            raise ValueError(
                "closed-form generation time needs equal latent/infectious rates"
            )
        return GammaParams(self.latent.shape + self.infectious.shape, self.latent.rate)


class OutbreakTrace:
    """Columnar record of one accepted outbreak run.

    Persons are ordered (and numbered) by infection time.  ``threshold_time``
    is the moment the notification threshold was reached; the run covers
    every infection up to ``end_time = threshold_time + followup``.
    """

    def __init__(self, scenario, threshold_time, end_time, t_infect, infector,
                 t_inf_start, t_inf_end, t_symptom, died, t_outcome):
        self.scenario = scenario
        self.threshold_time = float(threshold_time)
        self.end_time = float(end_time)
        self.t_infect = t_infect
        self.infector = infector
        self.t_inf_start = t_inf_start
        self.t_inf_end = t_inf_end
        self.t_symptom = t_symptom
        self.died = died
        self.t_outcome = t_outcome
        for arr in (t_infect, infector, t_inf_start, t_inf_end, t_symptom,
                    died, t_outcome):
            arr.flags.writeable = False
        self._notified_order = None

    def __len__(self) -> int:
        return len(self.t_infect)

    def notified_order(self) -> np.ndarray:
        """Person ids sorted by notification time (ties broken by id)."""
        if self._notified_order is None:
            self._notified_order = np.argsort(self.t_symptom, kind="stable")
        return self._notified_order

    def to_csv(self, path) -> None:
        """One row per person; times in days with 6 decimals.

        The index case has an empty ``infector_id``.  A person whose death or
        recovery falls after the end of the run is "pending", with an empty
        ``t_outcome``.
        """
        cols = zip(self.infector.tolist(), self.t_infect.tolist(),
                   self.t_inf_start.tolist(), self.t_inf_end.tolist(),
                   self.t_symptom.tolist(), self.died.tolist(), self.t_outcome.tolist())
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "infector_id", "t_infect", "t_inf_start",
                        "t_inf_end", "t_symptom", "outcome", "t_outcome"])
            for pid, (parent, t, t0, t1, ts, died, t_out) in enumerate(cols):
                pending = t_out > self.end_time
                w.writerow([
                    pid,
                    "" if parent < 0 else parent,
                    f"{t:.6f}", f"{t0:.6f}", f"{t1:.6f}", f"{ts:.6f}",
                    "pending" if pending else ("died" if died else "recovered"),
                    "" if pending else f"{t_out:.6f}",
                ])


def simulate_outbreak(scenario: Scenario, replicate_index: int) -> Optional[OutbreakTrace]:
    """Simulate one outbreak; returns None if it dies out before the threshold.

    Draws come from the stream keyed by (scenario.master_seed,
    replicate_index), and infections are processed in chronological order,
    so a given (scenario, replicate) pair always produces a bit-identical
    trace.
    """
    rng = stream(scenario.master_seed, replicate_index)
    lat_shape, lat_scale = scenario.latent.shape, 1.0 / scenario.latent.rate
    inf_shape, inf_scale = scenario.infectious.shape, 1.0 / scenario.infectious.rate
    die_shape, die_scale = scenario.to_death.shape, 1.0 / scenario.to_death.rate
    rec_shape, rec_scale = scenario.to_recovery.shape, 1.0 / scenario.to_recovery.rate
    u_lo, u_hi = scenario.incubation_factor_range
    contact_rate = scenario.contact_rate
    p_death = scenario.p_death
    threshold = scenario.notify_threshold
    cap = scenario.person_cap

    gamma = rng.gamma
    uniform = rng.uniform
    poisson = rng.poisson
    random = rng.random
    heappush, heappop = heapq.heappush, heapq.heappop

    heap = [(0.0, 0, -1)]          # (infection time, tie-break seq, infector id)
    seq = 1
    t_infect_l: list[float] = []
    infector_l: list[int] = []
    t0_l: list[float] = []
    t1_l: list[float] = []
    t_symptom_l: list[float] = []
    died_l: list[bool] = []
    t_outcome_l: list[float] = []

    top = []                       # max-heap (negated) of smallest symptom times
    threshold_time = None
    end_time = math.inf
    n = 0
    while heap:
        t, _, parent = heappop(heap)
        if t > end_time:
            break
        pid = n
        n += 1
        if n > cap:
            raise SimulationLimitError(
                f"person cap {cap} exceeded at replicate {replicate_index}"
            )
        ell = gamma(lat_shape, lat_scale)
        dur = gamma(inf_shape, inf_scale)
        t0 = t + ell
        t1 = t0 + dur
        t_symptom = t + uniform(u_lo, u_hi) * ell
        k = poisson(contact_rate * dur)
        if k:
            for t_child in t0 + dur * random(k):
                if t_child <= end_time:
                    heappush(heap, (t_child, seq, pid))
                    seq += 1
        if random() < p_death:
            died = True
            t_out = t1 + gamma(die_shape, die_scale)
        else:
            died = False
            t_out = t1 + gamma(rec_shape, rec_scale)

        t_infect_l.append(t)
        infector_l.append(parent)
        t0_l.append(t0)
        t1_l.append(t1)
        t_symptom_l.append(t_symptom)
        died_l.append(died)
        t_outcome_l.append(t_out)

        if threshold_time is None:
            if len(top) < threshold:
                heappush(top, -t_symptom)
            elif t_symptom < -top[0]:
                heapq.heapreplace(top, -t_symptom)
            # The threshold moment is final once every unprocessed infection
            # (hence every future notification) lies beyond the current
            # threshold-th smallest symptom time.
            if len(top) == threshold and (not heap or heap[0][0] >= -top[0]):
                threshold_time = -top[0]
                end_time = threshold_time + scenario.followup

    if threshold_time is None:
        return None

    t_infect = np.array(t_infect_l)
    keep = t_infect <= end_time
    if not keep.all():
        # Possible only if infections jumped past the follow-up window while
        # the threshold was still provisional; renumber the survivors.
        idx = np.flatnonzero(keep)
        remap = -np.ones(n, dtype=np.int64)
        remap[idx] = np.arange(len(idx))
        infector = np.array(infector_l, dtype=np.int64)[idx]
        infector = np.where(infector >= 0, remap[infector], -1)
        return OutbreakTrace(
            scenario, threshold_time, end_time,
            t_infect[idx], infector,
            np.array(t0_l)[idx], np.array(t1_l)[idx],
            np.array(t_symptom_l)[idx], np.array(died_l, dtype=bool)[idx],
            np.array(t_outcome_l)[idx],
        )
    return OutbreakTrace(
        scenario, threshold_time, end_time,
        t_infect, np.array(infector_l, dtype=np.int64),
        np.array(t0_l), np.array(t1_l),
        np.array(t_symptom_l), np.array(died_l, dtype=bool),
        np.array(t_outcome_l),
    )


# ---------------------------------------------------------------------------
# ensemble running


def _apply(args):
    scenario, rep, fn = args
    trace = simulate_outbreak(scenario, rep)
    if trace is None:
        return None
    return fn(trace, rep)


def _outcomes(scenario: Scenario, fn, threads: int) -> Iterator:
    """``_apply`` outcomes for replicates 0, 1, 2, ... in replicate order, forever.

    With more than one thread, a process pool keeps ``2 * threads`` replicates
    submitted ahead of the one being read; closing the generator cancels the
    queued ones and waits for the running ones.
    """
    reps = itertools.count()
    if threads <= 1:
        for rep in reps:
            yield _apply((scenario, rep, fn))
    pool = ProcessPoolExecutor(max_workers=threads)
    try:
        window = deque(pool.submit(_apply, (scenario, rep, fn))
                       for rep in itertools.islice(reps, 2 * threads))
        while True:
            done = window.popleft()
            window.append(pool.submit(_apply, (scenario, next(reps), fn)))
            yield done.result()
    finally:
        pool.shutdown(cancel_futures=True)


def ensemble_map(
    scenario: Scenario,
    n_accepted: int,
    fn: Callable[[OutbreakTrace, int], object],
    threads: int = 1,
    max_attempts: int = 10_000,
) -> tuple[list, int]:
    """Apply ``fn`` to the first ``n_accepted`` non-extinct replicates.

    Replicates are examined in index order 0, 1, 2, ... and the accepted set
    is the first ``n_accepted`` that reach the threshold, regardless of the
    worker count, so results are reproducible under any parallelism.

    Returns (results in replicate order, attempts), where attempts counts
    the replicates examined through the last accepted one.

    Raises:
        AcceptanceError: if fewer than 1% of ``max_attempts`` replicates
            reach the threshold.
    """
    if n_accepted < 1:
        raise ValueError("n_accepted must be >= 1")
    results = []
    with closing(_outcomes(scenario, fn, threads)) as outcomes:
        for examined, out in enumerate(outcomes, 1):
            if out is not None:
                results.append(out)
            if examined >= max_attempts and len(results) < 0.01 * examined:
                raise AcceptanceError(
                    f"only {len(results)}/{examined} replicates reached the threshold; "
                    "the scenario is unlikely to be configured as intended"
                )
            if len(results) == n_accepted:
                return results, examined


@dataclass(frozen=True)
class SnapshotStats:
    """State of the outbreak at the moment the threshold was reached."""

    total_infected: int
    notified: int
    resolved: int
    pending_notified: int
    unnotified: int

    @property
    def notified_over_infected(self) -> float:
        return self.notified / self.total_infected


def snapshot_ratios(trace: OutbreakTrace) -> SnapshotStats:
    """Counts at threshold time: infected, notified, resolved, in-between.

    ``resolved`` counts notified persons whose death/recovery had already
    happened; ``unnotified`` counts infections whose symptoms were still to
    come.
    """
    t = trace.threshold_time
    notified = trace.t_symptom <= t
    n_notified = int(notified.sum())
    if n_notified < trace.scenario.notify_threshold:
        raise ValueError("trace did not reach its notification threshold")
    total_infected = int((trace.t_infect <= t).sum())
    resolved = int((notified & (trace.t_outcome <= t)).sum())
    return SnapshotStats(
        total_infected=total_infected,
        notified=n_notified,
        resolved=resolved,
        pending_notified=n_notified - resolved,
        unnotified=total_infected - n_notified,
    )


_EVENT_TIMES = {
    "notification": lambda tr: tr.t_symptom,
    "infection": lambda tr: tr.t_infect,
    "death": lambda tr: tr.t_outcome[tr.died],
    "recovery": lambda tr: tr.t_outcome[~tr.died],
}


def daily_series(trace: OutbreakTrace, by: str, through: Optional[float] = None) -> np.ndarray:
    """Daily event counts, day 1 anchored at the first event of the chosen kind.

    ``by`` is one of notification / infection / death / recovery; events
    after ``through`` (default: the end of the run) are excluded.
    """
    if by not in _EVENT_TIMES:
        raise ValueError(f"unknown event kind {by!r}")
    times = _EVENT_TIMES[by](trace)
    if through is None:
        through = trace.end_time
    times = times[times <= through]
    if len(times) == 0:
        return np.zeros(0, dtype=np.int64)
    t0 = times.min()
    days = np.floor(times - t0).astype(np.int64) + 1
    counts = np.bincount(days)[1:]
    return counts


@dataclass(frozen=True)
class TraceSummary:
    replicate_index: int
    threshold_time: float
    time_to_first_100: float
    time_100_to_threshold: float
    total_infected: int
    resolved: int
    pending_notified: int
    unnotified: int
    notified_over_infected: float


def summarize_trace(trace: OutbreakTrace, replicate_index: int) -> TraceSummary:
    """Per-trace scalars used by ensemble reports."""
    snap = snapshot_ratios(trace)
    order = trace.notified_order()
    t_first_100 = float(trace.t_symptom[order[99]]) if len(order) >= 100 else math.nan
    return TraceSummary(
        replicate_index=replicate_index,
        threshold_time=trace.threshold_time,
        time_to_first_100=t_first_100,
        time_100_to_threshold=trace.threshold_time - t_first_100,
        total_infected=snap.total_infected,
        resolved=snap.resolved,
        pending_notified=snap.pending_notified,
        unnotified=snap.unnotified,
        notified_over_infected=snap.notified_over_infected,
    )


@dataclass(frozen=True)
class EnsembleStats:
    """Summaries over the accepted replicates of one scenario."""

    scenario: Scenario
    n_accepted: int
    n_attempts: int
    summaries: list[TraceSummary] = field(repr=False)

    def threshold_times(self) -> np.ndarray:
        return np.array([s.threshold_time for s in self.summaries])

    def ratios(self) -> np.ndarray:
        return np.array([s.notified_over_infected for s in self.summaries])


def run_ensemble(scenario: Scenario, n_accepted: int, threads: int = 1) -> EnsembleStats:
    """Simulate until ``n_accepted`` runs reach the threshold; keep summaries."""
    summaries, attempts = ensemble_map(scenario, n_accepted, summarize_trace, threads=threads)
    return EnsembleStats(
        scenario=scenario,
        n_accepted=n_accepted,
        n_attempts=attempts,
        summaries=summaries,
    )
