"""Generation-wise branching-process simulator of an Ebola-like outbreak.

Each infected individual runs a stochastic SEIR course: a Gamma latent
period, a Gamma infectious period during which new infections occur as a
Poisson process at a constant contact rate, symptom onset (= notification)
at the latent duration scaled by a per-person uniform factor, and a Gamma
delay from the end of infectiousness to death or recovery.  There is no
susceptible depletion: the early exponential phase is simulated directly as
a branching process, with every infectee keeping a link to its infector.

A run is retained when it reaches the notification threshold; it then
continues for a fixed follow-up window so that forward predictions can be
scored against the realized continuation.  Runs are drawn in array batches,
one per generation of pending infections (see :func:`simulate_outbreak`).
Since version 0.2.0 this replaces a per-person event queue, so the random
stream, and every simulated trace, differ from earlier versions.
"""

from __future__ import annotations

import math
import traceback
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing
from dataclasses import dataclass
from functools import cached_property
from itertools import count, islice
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .distributions import GammaParams, gamma_from_moments
from .rng import stream


class SimulationLimitError(RuntimeError):
    """Raised when a run exceeds ``PERSON_CAP`` persons."""


class AcceptanceError(RuntimeError):
    """Raised when almost every run dies out, i.e. the scenario is miswired."""


@dataclass(frozen=True)
class Scenario:
    """Full simulation configuration.

    Defaults reproduce the Ebola-like parameter set: contact rate 0.34/day
    over a mean-5-day infectious period gives R0 = 1.7, and equal latent and
    infectious rates with an exponential infectious period make the implied
    generation time Gamma(3, 0.2) (mean 15 days), as the estimators need.
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

    def __post_init__(self):
        if not 0.0 <= self.contact_rate < math.inf:
            raise ValueError(
                f"contact_rate must be finite and non-negative, got {self.contact_rate}")
        if not 0.0 <= self.p_death <= 1.0:
            raise ValueError("p_death must be a probability")
        lo, hi = self.incubation_factor_range
        if not 0.0 <= lo <= hi < math.inf:
            raise ValueError("incubation_factor_range must be finite and satisfy 0 <= lo <= hi, "
                             f"got ({lo}, {hi})")
        if self.notify_threshold < 1:
            raise ValueError("notify_threshold must be >= 1")
        if self.notify_threshold > PERSON_CAP:
            raise ValueError(f"notify_threshold must be <= {PERSON_CAP}, the most persons a run "
                             "may simulate")
        if not 0.0 <= self.followup < math.inf:
            raise ValueError("followup must be finite and non-negative")

    def R0(self) -> float:
        """Mean offspring per case: contact rate times mean infectious period."""
        return self.contact_rate * self.infectious.mean()

    def implied_generation(self) -> GammaParams:
        """Generation-time distribution implied by the SEIR course.

        Infections occur at a constant rate over the infectious period D,
        so an infection's offset into D has density P(D > t)/E[D].  For an
        exponential D that is D's own law, and with equal latent and
        infectious rates the two stages chain into one Gamma.
        """
        if not (self.infectious.shape == 1.0
                and math.isclose(self.latent.rate, self.infectious.rate, rel_tol=1e-12)):
            raise ValueError(
                "[scenario] infectious_shape, latent_rate, infectious_rate = "
                f"{self.infectious.shape:g}, {self.latent.rate:g}, {self.infectious.rate:g}: a "
                "closed-form generation time needs infectious_shape 1 and equal rates")
        return GammaParams(self.latent.shape + 1.0, self.latent.rate)

    def _symptom_moments(self) -> tuple[float, float, float, float]:
        """(E[U], Var U, E[L], E[L^2]): symptoms start at U*L, U ~ U(lo, hi), L latent."""
        lo, hi = self.incubation_factor_range
        mean_l = self.latent.mean()
        return (lo + hi) / 2.0, (hi - lo) ** 2 / 12.0, mean_l, self.latent.variance() + mean_l**2

    def serial_cv_factor(self) -> float:
        """c = sd(S) / sd(G): serial intervals S share the generation time's mean.

        An infectee's serial interval is S = G + U'L' - UL, its symptom
        delay U'L' (incubation factor U' ~ U(lo, hi) times latent period L')
        replacing its infector's UL.  As Cov(L, UL) = E[U] Var(L), this
        adds 2 Var(UL) - 2 E[U] Var(L) to Var(G); that is negative, and
        c < 1, when symptoms come early in the latent period.
        """
        mean_u, var_u, mean_l, mean_l2 = self._symptom_moments()
        var_ul = (var_u + mean_u * mean_u) * mean_l2 - (mean_u * mean_l) ** 2
        excess = 2.0 * (var_ul - mean_u * self.latent.variance())
        return math.sqrt(1.0 + excess / self.implied_generation().variance())

    def notification_delay(self, outcome: GammaParams) -> GammaParams:
        """Notification-to-outcome delay, ``outcome`` being ``to_death`` or ``to_recovery``.

        The outcome happens at (latent + infectious + outcome delay) after
        infection while notification happens at U * latent, so the gap is
        (1 - U) * latent + infectious + outcome delay.  Its first two moments
        are matched by a Gamma, which is what the CFR corrections consume.
        """
        mean_u, var_u, mean_l, mean_l2 = self._symptom_moments()
        stretch_mean = (1.0 - mean_u) * mean_l
        stretch_var = (var_u + (1.0 - mean_u) ** 2) * mean_l2 - stretch_mean**2
        mean = stretch_mean + self.infectious.mean() + outcome.mean()
        var = stretch_var + self.infectious.variance() + outcome.variance()
        return gamma_from_moments(mean, math.sqrt(var))


@dataclass(frozen=True, eq=False)
class OutbreakTrace:
    """Columnar record of one accepted outbreak run.

    Persons are ordered (and numbered) by infection time, so ``t_infect`` is
    non-decreasing (else ``ValueError``) and every infector's id is below its
    infectee's; the counts over a trace rely on both.  ``threshold_time`` is
    the moment the notification threshold was reached; the run covers every
    infection up to ``end_time = threshold_time + followup``.  Times are
    float64 days.

    An analysis sees the outbreak as an observer at ``threshold_time`` does:
    ``notified`` holds the persons notified by then (about 4,500 of ~33,000
    on the default scenario), sorted once, and ``notified_times`` their
    times.  Only the forecast target reads past the threshold, through
    ``notified_count(t)``.  The record and its columns are read-only;
    ``dataclasses.replace`` gives a new trace, sorted afresh.
    """

    scenario: Scenario
    threshold_time: float
    end_time: float
    t_infect: np.ndarray
    infector: np.ndarray
    t_inf_start: np.ndarray
    t_inf_end: np.ndarray
    t_symptom: np.ndarray
    died: np.ndarray
    t_outcome: np.ndarray

    def __post_init__(self):
        if np.any(self.t_infect[1:] < self.t_infect[:-1]):
            raise ValueError("persons must be ordered by infection time")
        object.__setattr__(self, "threshold_time", float(self.threshold_time))
        object.__setattr__(self, "end_time", float(self.end_time))
        for arr in (self.t_infect, self.infector, self.t_inf_start, self.t_inf_end,
                    self.t_symptom, self.died, self.t_outcome):
            arr.flags.writeable = False

    def __len__(self) -> int:
        return len(self.t_infect)

    @cached_property
    def notified(self) -> np.ndarray:
        """Ids of the persons notified by ``threshold_time``, sorted by
        :func:`_time_order` into notification order: tied times by id."""
        ids = np.flatnonzero(self.t_symptom <= self.threshold_time)
        ids = ids[_time_order(self.t_symptom[ids])[0]]
        ids.flags.writeable = False
        return ids

    @cached_property
    def notified_times(self) -> np.ndarray:
        """Notification times of ``notified``, in ascending order."""
        ts = self.t_symptom[self.notified]
        ts.flags.writeable = False
        return ts

    def notified_count(self, t: float) -> int:
        """Persons notified by time ``t``: ``count_nonzero(t_symptom <= t)``.

        ``ValueError`` past ``end_time``, where the run was not simulated.
        """
        if t > self.end_time:
            raise ValueError("time lies beyond the simulated window")
        return int(np.count_nonzero(self.t_symptom <= t))

    def to_csv(self, path) -> None:
        """One row per person; times in days with 6 decimals.

        The index case has an empty ``infector_id``.  A person whose death or
        recovery falls after the end of the run is "pending", with an empty
        ``t_outcome``.  Rows are formatted ``CSV_BLOCK_ROWS`` at a time, so
        the memory this takes does not grow with the trace.
        """
        cols = (self.infector, self.t_infect, self.t_inf_start, self.t_inf_end,
                self.t_symptom, self.died, self.t_outcome)
        # csv.writer's format: no field needs quoting, rows end in "\r\n"
        with open(path, "w", newline="") as fh:
            fh.write("id,infector_id,t_infect,t_inf_start,t_inf_end,t_symptom,"
                     "outcome,t_outcome\r\n")
            for lo in range(0, len(self), CSV_BLOCK_ROWS):
                block = zip(*(col[lo:lo + CSV_BLOCK_ROWS].tolist() for col in cols))
                fh.writelines(
                    f"{i},{'' if p < 0 else p},{t:.6f},{t0:.6f},{t1:.6f},{ts:.6f},"
                    + ("pending," if t_out > self.end_time else
                       f"{'died' if died else 'recovered'},{t_out:.6f}") + "\r\n"
                    for i, (p, t, t0, t1, ts, died, t_out) in enumerate(block, lo))


# Days the expansion horizon advances by while the threshold is not yet reached.
HORIZON_STEP = 10.0
PERSON_CAP = 10_000_000  # most persons one run may simulate
# Rows that OutbreakTrace.to_csv formats at a time.
CSV_BLOCK_ROWS = 8192


def _time_order(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(order, t[order])`` with ``order = np.argsort(t, kind="stable")``, bit for bit.

    Sorting values is ~2.5x faster than sorting indices, so each time's bit
    pattern, which orders as the time does for t >= 0, has its low bits
    replaced by the index, and the packed keys are sorted.  If the times so
    ordered are strictly increasing, the order is the unique sorting one;
    else (tied, negative or nearly equal times) the stable argsort is run,
    so tied times keep the order of their indices.  This orders both the
    persons of a run and its notifications.
    """
    bits = (len(t) - 1).bit_length()
    key = t.view(np.uint64) >> bits
    key <<= bits
    key |= np.arange(len(t), dtype=np.uint64)
    key.sort()
    key &= (1 << bits) - 1
    order = key.view(np.int64)
    ts = t[order]
    if np.all(ts[1:] > ts[:-1]):
        return order, ts
    order = np.argsort(t, kind="stable")
    return order, t[order]


def simulate_outbreak(scenario: Scenario, replicate_index: int) -> Optional[OutbreakTrace]:
    """Simulate one outbreak; returns None if it dies out before the threshold.

    The run is expanded generation-wise: every pending infection at or
    before a horizon H is drawn in one batch, and its children later than H
    stay pending.  H advances by ``HORIZON_STEP`` days until at least
    ``notify_threshold`` symptom times lie at or before it, or the run dies
    out with at least that many persons.  Every person not yet drawn is then
    infected after H, hence notified after H, so the threshold time is
    exactly the threshold-th smallest symptom time drawn.  The run is then
    expanded up to ``end_time = threshold_time + followup``, the pending
    infections are dropped, and persons are renumbered by infection time
    (tied times, which continuous draws all but never give, in draw order),
    dropping any infected after ``end_time``.  Each column is kept as one
    piece per batch, and is joined, freed and gathered into that order
    before the next: the peak, in this assembly, is ~75 traced bytes per
    person (49 kept).

    Draws come from the stream keyed by (scenario.master_seed,
    replicate_index), so a given (scenario, replicate) pair always produces
    a bit-identical trace, under any worker count.

    Raises:
        SimulationLimitError: if a batch would take the run past
            ``PERSON_CAP`` persons; checked before the batch is drawn.
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
    cap = PERSON_CAP

    pending_t = np.zeros(1)                      # infection times not yet drawn
    pending_parent = np.full(1, -1, dtype=np.int64)
    cols = [[] for _ in range(7)]                # per column, one piece per drawn batch
    n = 0

    def expand(limit: float, final: bool = False) -> None:
        """Draw every pending infection at or before ``limit``, batch by batch.

        Only the first batch is taken from ``pending``: every other pending
        infection is later than ``limit``, and so is every child it will
        have, so each later batch is just the previous batch's children at
        or before ``limit``.  Children later than ``limit`` are collected
        and ``pending`` is rebuilt once at the end, in the order that
        re-scanning it after every batch would have left it; the ``final``
        expansion drops them instead.
        """
        nonlocal pending_t, pending_parent, n
        now = pending_t <= limit
        t, parent = pending_t[now], pending_parent[now]
        later_t, later_parent = ([], []) if final else ([pending_t[~now]], [pending_parent[~now]])
        del now, pending_t, pending_parent   # split into the batch and the later ones
        while m := len(t):
            if n + m > cap:
                raise SimulationLimitError(
                    f"person cap {cap} exceeded at replicate {replicate_index}"
                )
            ell = rng.gamma(lat_shape, lat_scale, m)
            dur = rng.gamma(inf_shape, inf_scale, m)
            t0 = t + ell
            t1 = t0 + dur
            t_symptom = t + rng.uniform(u_lo, u_hi, m) * ell
            k = rng.poisson(contact_rate * dur)
            v = rng.random(m + int(k.sum()))
            died = v[:m] < p_death
            n_died = int(np.count_nonzero(died))
            delay = np.empty(m)
            delay[died] = rng.gamma(die_shape, die_scale, n_died)
            delay[~died] = rng.gamma(rec_shape, rec_scale, m - n_died)
            delay += t1
            for col, piece in zip(cols, (t, parent, t0, t1, t_symptom, died, delay)):
                col.append(piece)
            src = np.repeat(np.arange(m), k)
            children, child_parent = t0[src] + dur[src] * v[m:], src + n
            soon = children <= limit
            t, parent = children[soon], child_parent[soon]
            if not final:
                later_t.append(children[~soon])
                later_parent.append(child_parent[~soon])
            n += m
        if not final:
            pending_t = np.concatenate(later_t)
            pending_parent = np.concatenate(later_parent)

    horizon = 0.0
    while True:
        horizon += HORIZON_STEP
        expand(horizon)
        if n < threshold:
            if len(pending_t) == 0:
                return None
            continue
        t_symptom = np.concatenate(cols[4])
        if len(pending_t) == 0 or np.count_nonzero(t_symptom <= horizon) >= threshold:
            break
    threshold_time = float(np.partition(t_symptom, threshold - 1)[threshold - 1])
    end_time = threshold_time + scenario.followup
    del t_symptom
    expand(end_time, final=True)

    t_infect = np.concatenate(cols.pop(0))
    order, t_infect = _time_order(t_infect)
    kept = int(np.searchsorted(t_infect, end_time, "right"))
    if kept < n:   # only when the last horizon passed end_time
        order, t_infect = order[:kept], t_infect[:kept].copy()
    new_id = np.full(n + 1, -1, dtype=np.int64)   # new_id[-1] keeps the index case's -1
    new_id[order] = np.arange(kept)

    def column():   # the next column in infection order; its pieces are freed once joined
        return np.concatenate(cols.pop(0))[order]

    return OutbreakTrace(scenario, threshold_time, end_time, t_infect,
                         new_id[column()], *(column() for _ in range(5)))


# ---------------------------------------------------------------------------
# ensemble running

# Replicates ensemble_map examines before it checks the 1% acceptance floor.
MAX_ATTEMPTS = 10_000


def _apply(args):
    scenario, rep, fn = args
    trace = simulate_outbreak(scenario, rep)
    if trace is None:
        return None
    return fn(trace, rep)


# Consecutive tasks that ordered_map sends to a worker as one pool task.
POOL_BLOCK = 16


def _run_block(fn, block):
    """(``fn`` of each task up to the first that raises, that exception, its traceback)."""
    results = []
    for task in block:
        try:
            results.append(fn(task))
        except Exception as exc:
            return results, exc, traceback.format_exc()
    return results, None, None


def ordered_map(fn: Callable, tasks: Iterable, threads: int) -> Iterator:
    """``fn(task)`` for each of ``tasks``, in task order; ``tasks`` may be endless.

    With one thread this is ``map``.  With more, a process pool runs blocks
    of ``POOL_BLOCK`` consecutive tasks and keeps ``2 * threads`` blocks in
    flight, the one being read included, so fewer than ``POOL_BLOCK *
    threads`` tasks leave workers idle.  As with ``map``, a task that raises
    yields its block's earlier results and then raises, its cause holding
    the worker's traceback.  The pool shuts down, cancelling queued blocks
    and waiting for running ones, when the tasks run out, when a task
    raises, or when the generator is closed.
    """
    if threads <= 1:
        yield from map(fn, tasks)
        return
    tasks = iter(tasks)
    blocks = iter(lambda: list(islice(tasks, POOL_BLOCK)), [])
    pool = ProcessPoolExecutor(max_workers=threads)
    try:
        window = deque(pool.submit(_run_block, fn, b) for b in islice(blocks, 2 * threads))
        while window:
            results, exc, tb = window.popleft().result()
            window.extend(pool.submit(_run_block, fn, b) for b in islice(blocks, 1))
            yield from results
            if exc is not None:
                raise exc from RuntimeError(tb)  # the worker's traceback, lost in pickling
    finally:
        pool.shutdown(cancel_futures=True)


def ensemble_map(
    scenario: Scenario,
    n_accepted: int,
    fn: Callable[[OutbreakTrace, int], object],
    threads: int = 1,
) -> tuple[list, int]:
    """Apply ``fn`` to the first ``n_accepted`` non-extinct replicates.

    Replicates are examined in index order 0, 1, 2, ... and the accepted set
    is the first ``n_accepted`` that reach the threshold, regardless of the
    worker count, so results are reproducible under any parallelism.

    Returns (results in replicate order, attempts), where attempts counts
    the replicates examined through the last accepted one.

    Raises:
        AcceptanceError: if fewer than 1% of the replicates reach the
            threshold once ``MAX_ATTEMPTS`` have been examined.
    """
    if n_accepted < 1:
        raise ValueError("n_accepted must be >= 1")
    results = []
    tasks = ((scenario, rep, fn) for rep in count())
    with closing(ordered_map(_apply, tasks, threads)) as outcomes:
        for examined, out in enumerate(outcomes, 1):
            if out is not None:
                results.append(out)
            if examined >= MAX_ATTEMPTS and len(results) < 0.01 * examined:
                raise AcceptanceError(
                    f"only {len(results)}/{examined} replicates reached the threshold; "
                    "the scenario is unlikely to be configured as intended"
                )
            if len(results) == n_accepted:
                return results, examined


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
    """Per-trace scalars used by ensemble reports, counted at the threshold time.

    ``resolved`` counts notified persons whose death/recovery had already
    happened; ``unnotified`` counts infections whose symptoms were still to
    come.
    """
    t = trace.threshold_time
    n_notified = len(trace.notified)
    if n_notified < trace.scenario.notify_threshold:
        raise ValueError("trace did not reach its notification threshold")
    total_infected = int(np.searchsorted(trace.t_infect, t, "right"))
    resolved = int(np.count_nonzero(trace.t_outcome[trace.notified] <= t))
    t_first_100 = float(trace.notified_times[99]) if n_notified >= 100 else math.nan
    return TraceSummary(
        replicate_index=replicate_index,
        threshold_time=t,
        time_to_first_100=t_first_100,
        time_100_to_threshold=t - t_first_100,
        total_infected=total_infected,
        resolved=resolved,
        pending_notified=n_notified - resolved,
        unnotified=total_infected - n_notified,
        notified_over_infected=n_notified / total_infected,
    )
