"""Contact-tracing samplers over a simulated outbreak trace.

Tracing works backwards: a notified case is selected, its (known, unique)
infector looked up, and the differences between their infection times
(generation time) and symptom times (serial interval) recorded.  During
exponential growth this backward view systematically shortens the observed
generation times; the samplers here reproduce that observation process so
the contraction can be measured and compared against the closed forms.
"""

from __future__ import annotations

import csv
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

    Walks notified persons in notification order (ties broken by person id),
    counts only cases with an identifiable infector (the index case has
    none and is skipped), and selects every ``stride``-th of them until
    ``n`` pairs are collected.

    Raises:
        ValueError: if the trace has fewer than n*stride notified persons.
    """
    if n < 1 or stride < 1:
        raise ValueError("n and stride must be positive")
    order = trace.notified_order()
    if len(order) < n * stride:
        raise ValueError(
            f"trace has {len(order)} notified persons; need {n * stride}"
        )
    eligible = order[trace.infector[order] >= 0]
    picked = eligible[stride - 1::stride][:n]
    if len(picked) < n:
        raise ValueError(f"only {len(picked)} of {n} pairs could be formed")
    return _pairs_of(trace, picked)


def sample_forward_pairs(trace: OutbreakTrace, margin: float = 60.0) -> TracedPairs:
    """All pairs whose infector could be observed to the end of its course.

    Forward ascertainment: include every offspring of infectors infected at
    least ``margin`` days before the end of the run (and whose infectious
    period closed within the run), so no offspring is cut off by the
    observation window.  This recovers the unbiased generation-time law,
    unlike enumerating every realized pair up to the end of the run.
    Pairs are ordered by infectee id.
    """
    cutoff = trace.end_time - margin
    ok_parent = (trace.t_infect <= cutoff) & (trace.t_inf_end <= trace.end_time)
    parent = trace.infector
    return _pairs_of(trace, np.flatnonzero((parent >= 0) & ok_parent[np.maximum(parent, 0)]))


def interval_moments(pairs: TracedPairs) -> tuple[float, float, float, float]:
    """Unbiased sample moments: (mean_G, var_G, mean_S, var_S)."""
    if len(pairs) < 2:
        raise ValueError("need at least two pairs for sample moments")
    return (
        float(pairs.G.mean()), float(pairs.G.var(ddof=1)),
        float(pairs.S.mean()), float(pairs.S.var(ddof=1)),
    )


def split_positive(values: np.ndarray) -> tuple[np.ndarray, int]:
    """(positive values, count dropped); Gamma fits need a positive support."""
    values = np.asarray(values, dtype=float)
    keep = values > 0
    return values[keep], int((~keep).sum())


def fit_gamma_to_intervals(pairs: TracedPairs, which: str = "G") -> GammaParams:
    """Method-of-moments Gamma fit to generation times ("G") or serials ("S").

    Non-positive intervals are outside the Gamma support and are dropped
    before fitting (raw moments via :func:`interval_moments` keep them).

    Raises:
        ValueError: fewer than 10 usable intervals, or zero variance.
    """
    if which not in ("G", "S"):
        raise ValueError(f"which must be 'G' or 'S', got {which!r}")
    used, _ = split_positive(getattr(pairs, which))
    if len(used) < 10:
        raise ValueError(f"only {len(used)} usable intervals; need at least 10")
    sd = used.std(ddof=1)
    if sd == 0:
        raise ValueError("intervals are constant; Gamma fit is degenerate")
    return gamma_from_moments(float(used.mean()), float(sd))


def pairs_to_csv(pairs: TracedPairs, path) -> None:
    rows = zip(pairs.infectee.tolist(), pairs.infector.tolist(),
               pairs.G.tolist(), pairs.S.tolist())
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["infectee_id", "infector_id", "gen_time", "serial_interval"])
        for infectee, infector, g, s in rows:
            w.writerow([infectee, infector, f"{g:.6f}", f"{s:.6f}"])
