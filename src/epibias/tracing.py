"""Contact-tracing samplers over a simulated outbreak trace.

Tracing works backwards: a notified case is selected, its (known, unique)
infector looked up, and the differences between their infection times
(generation time) and symptom times (serial interval) recorded.  During
exponential growth this backward view systematically shortens the observed
generation times; the samplers here reproduce that observation process so
the contraction can be measured and compared against the closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import GammaParams, gamma_from_moments
from .outbreak_sim import OutbreakTrace


@dataclass(frozen=True, eq=False)
class TracedPairs:
    """Infector/infectee pairs as read-only columns.

    Row i pairs ``infectee[i]`` with its ``infector[i]``; ``G`` holds their
    generation times (infection-time differences, positive by construction)
    and ``S`` their serial intervals (symptom-time differences, negative when
    the infectee shows symptoms first).
    """

    infectee: np.ndarray
    infector: np.ndarray
    G: np.ndarray
    S: np.ndarray

    def __post_init__(self):
        for col in (self.infectee, self.infector, self.G, self.S):
            col.flags.writeable = False

    def __len__(self) -> int:
        return len(self.infectee)


def _pairs_of(trace: OutbreakTrace, infectee: np.ndarray) -> TracedPairs:
    infector = trace.infector[infectee]
    return TracedPairs(
        infectee=infectee,
        infector=infector,
        G=trace.t_infect[infectee] - trace.t_infect[infector],
        S=trace.t_symptom[infectee] - trace.t_symptom[infector],
    )


def sample_backward_pairs(trace: OutbreakTrace, n: int, stride: int) -> TracedPairs:
    """Systematic backward sample: every ``stride``-th notified case.

    Picks the persons at positions stride-1, 2*stride-1, ..., n*stride-1 of
    the persons notified by the threshold time, in notification order (ties
    broken by person id): an observer at the threshold can trace no one
    notified later.  An index case has no infector to trace back to, so a
    pick position it holds forms no pair and the sample is one pair short
    for it.  A single index case is usually notified first, and then only
    stride 1 loses a pair.  Picks whose infectors show symptoms after the
    threshold form no pair either: their serial intervals are not yet seen.

    Raises:
        ValueError: if fewer than n*stride persons are notified by the
            threshold time.
    """
    if n < 1 or stride < 1:
        raise ValueError("n and stride must be positive")
    need = n * stride
    if len(trace.notified) < need:
        raise ValueError(
            f"trace has {len(trace.notified)} persons notified by the threshold; need {need}"
        )
    picked = trace.notified[stride - 1:need:stride]
    infector = trace.infector[picked]   # -1 reads the last row, but is dropped anyway
    return _pairs_of(trace, picked[(infector >= 0)
                                   & (trace.t_symptom[infector] <= trace.threshold_time)])


def sample_forward_pairs(trace: OutbreakTrace, margin: float = 60.0) -> TracedPairs:
    """All pairs whose infector could be observed to the end of its course.

    Forward ascertainment: include every offspring of the infectors that
    meet two conditions: they were infected at least ``margin`` days before
    the end of the run, and their infectious period closed within the run,
    so none of their offspring is cut off by the observation window.  This
    removes most of the backward bias of enumerating every realized pair up
    to the end of the run, but not all of it: the end-of-course condition
    drops infectors with the longest courses, and with them the longest
    generation times, so the sample's generation-time variance sits a
    little below the law's.  Pairs are ordered by infectee id.
    """
    # Ids follow infection time: those infected by the cutoff are below P.
    P = int(np.searchsorted(trace.t_infect, trace.end_time - margin, "right"))
    ok_parent = np.zeros(len(trace) + 1, dtype=bool)   # [-1]: an index case's infector
    ok_parent[:P] = trace.t_inf_end[:P] <= trace.end_time
    return _pairs_of(trace, np.flatnonzero(ok_parent[trace.infector]))


def _mean_var(x: np.ndarray) -> tuple[float, float]:
    """``(x.mean(), x.var(ddof=1))`` bit for bit, without numpy's per-call overhead."""
    m = x.sum() / len(x)
    d = x - m
    return float(m), float((d * d).sum() / (len(x) - 1))


def interval_moments(pairs: TracedPairs) -> tuple[float, float, float, float]:
    """Unbiased sample moments: (mean_G, var_G, mean_S, var_S)."""
    if len(pairs) < 2:
        raise ValueError("need at least two pairs for sample moments")
    return (*_mean_var(pairs.G), *_mean_var(pairs.S))


def fit_gamma_to_intervals(pairs: TracedPairs) -> GammaParams:
    """Method-of-moments Gamma fit to the serial intervals ``pairs.S``.

    Non-positive intervals are outside the Gamma support and are dropped
    before fitting (raw moments via :func:`interval_moments` keep them).

    Raises:
        ValueError: fewer than 10 usable intervals, or zero variance.
    """
    used = pairs.S[pairs.S > 0]
    if len(used) < 10:
        raise ValueError(f"only {len(used)} usable intervals; need at least 10")
    mean, var = _mean_var(used)
    if var == 0:
        raise ValueError("intervals are constant; Gamma fit is degenerate")
    return gamma_from_moments(mean, float(np.sqrt(var)))
