"""Counts over the sorted views of a trace against the full-pass mask oracles.

The library reads the persons notified by the threshold time, sorted once
(``notified`` and ``notified_times``), counts a later time with
``notified_count(t)``, and reads ``t_infect`` (rows are in infection-time
order) with ``searchsorted``; ``_oracles`` keeps full-pass versions that
mask or stably sort every person.  An analysis sees what an observer at the
threshold sees: moving the symptoms and outcomes that come after it moves
only the forward sample and the forecast scores.  Planted traces draw their
delays partly on a quarter-day grid, so event times fall exactly on integer
day offsets and symptom times tie; they have several roots, and the
threshold time often falls on a symptom time.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from _oracles import (
    full_walk_sample_backward_pairs,
    mask_daily_series,
    mask_sample_forward_pairs,
    mask_summarize_trace,
)
from epibias.analysis import AnalysisError, AnalysisOptions, analyze_trace, notification_series
from epibias.distributions import GammaParams
from epibias.outbreak_sim import OutbreakTrace, Scenario, ensemble_map, summarize_trace
from epibias.tracing import sample_backward_pairs, sample_forward_pairs


@st.composite
def planted_traces(draw, max_persons=120, whole_days=False):
    """A trace with rows in infection-time order and every infector earlier.

    Person 0 is a root, and each later person is another with a drawn
    probability.  A drawn share of the delays lies on the quarter-day grid,
    which is exact in binary; the rest are uniform.  ``end_time`` lies 0 to
    250 days past a threshold time that is often one of the symptom times.
    With ``whole_days``, symptom times are rounded down to whole days, so
    most of them tie.
    """
    n = draw(st.integers(1, max_persons))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    on_grid = draw(st.sampled_from([0.0, 0.5, 1.0]))

    def delays():
        return np.where(rng.random(n) < on_grid, rng.integers(0, 17, n) / 4, rng.uniform(0, 4, n))

    t_infect = np.concatenate([[0.0], np.cumsum(delays()[1:])])
    infector = (rng.random(n) * np.arange(n)).astype(np.int64)
    infector[rng.random(n) < draw(st.sampled_from([0.0, 0.05, 0.5]))] = -1
    infector[0] = -1
    t_symptom = t_infect + delays()
    if whole_days:
        t_symptom = np.floor(t_symptom)
    t_inf_start = t_infect + delays()
    t_inf_end = t_inf_start + delays()
    died = rng.random(n) < 0.7
    threshold_time = draw(st.one_of(st.integers(0, n - 1).map(lambda i: float(t_symptom[i])),
                                    st.floats(0.0, 40.0)))
    end_time = threshold_time + draw(st.sampled_from([0.0, 0.25, 1.0, 2.5, 7.0, 250.0]))
    scenario = Scenario(notify_threshold=draw(st.integers(1, n)))
    return OutbreakTrace(scenario, threshold_time, end_time, t_infect, infector,
                         t_inf_start, t_inf_end, t_symptom, died, t_inf_end + delays())


def _assert_same_pairs(a, b):
    for col in ("infectee", "infector", "G", "S"):
        assert np.array_equal(getattr(a, col), getattr(b, col)), col


def _same_outcome(fn, oracle):
    """Both return equal results (compared by ``repr``, so NaN equals NaN),
    or both raise a ValueError with the same message."""
    try:
        expected = oracle()
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            fn()
        assert str(info.value) == str(exc)
        return None, None
    return fn(), expected


class TestInvariants:
    def test_rejects_rows_out_of_infection_order(self):
        def trace(t_infect):
            z = np.zeros(3)
            return OutbreakTrace(Scenario(), 1.0, 1.0, np.array(t_infect), np.array([-1, 0, 0]),
                                 z, z, z, z.astype(bool), z)

        with pytest.raises(ValueError, match="ordered by infection time"):
            trace([0.0, 2.0, 1.0])
        assert len(trace([0.0, 1.0, 1.0])) == 3   # ties keep the order

    def test_default_trace_keeps_both_invariants(self, ebola_trace):
        tr = ebola_trace
        assert np.all(np.diff(tr.t_infect) >= 0)
        ids = np.arange(len(tr))
        assert np.all(tr.infector < ids)
        assert np.count_nonzero(tr.infector < 0) == 1

    def test_the_record_is_frozen(self, small_trace):
        for f in dataclasses.fields(small_trace):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(small_trace, f.name, getattr(small_trace, f.name))

    def test_the_record_holds_its_ten_fields_and_views(self, ebola_trace):
        tr = _fresh(ebola_trace)
        tr.notified_times, tr.notified_count(tr.threshold_time), tr.notified_count(tr.end_time)
        fields = dataclasses.fields(tr)
        assert len(fields) == 10 and all(f.init for f in fields)
        assert set(vars(tr)) == {f.name for f in fields} | {"notified", "notified_times"}

    def test_replace_gives_fresh_views(self, ebola_trace):
        tr = ebola_trace
        assert len(tr.notified) == 4500 and tr.notified_count(tr.end_time) > 4500
        earlier = dataclasses.replace(tr, threshold_time=tr.threshold_time - 5)
        assert "notified" not in vars(earlier)
        stable = np.argsort(tr.t_symptom, kind="stable")
        assert len(earlier.notified) == 3715
        assert np.array_equal(earlier.notified,
                              stable[tr.t_symptom[stable] <= earlier.threshold_time])

    @given(planted_traces())
    def test_notified_times_are_the_sorted_symptom_times(self, tr):
        ts = tr.notified_times
        assert np.array_equal(ts, tr.t_symptom[tr.notified])
        assert np.array_equal(ts, np.sort(tr.t_symptom[tr.t_symptom <= tr.threshold_time]))


def _fresh(tr):
    """The same trace with nothing sorted yet."""
    return dataclasses.replace(tr)


TRACES = pytest.mark.parametrize("traces", [planted_traces(), planted_traces(400, whole_days=True)],
                                 ids=["planted", "whole-day-ties"])


class TestNotificationView:
    @TRACES
    @given(data=st.data())
    def test_notified_is_the_stable_order_by_the_threshold(self, traces, data):
        tr = data.draw(traces)
        stable = np.argsort(tr.t_symptom, kind="stable")
        assert np.array_equal(tr.notified, stable[tr.t_symptom[stable] <= tr.threshold_time])
        for view in (tr.notified, tr.notified_times):
            with pytest.raises(ValueError, match="read-only"):
                view[:1] = 0

    @TRACES
    @given(data=st.data())
    def test_notified_count_at_drawn_times(self, traces, data):
        # Tied symptom times, the threshold, the end of the run and times
        # before the first notification, in a drawn order, so a time past
        # the threshold is often counted again.
        # Past the end of the run nothing was simulated to count.
        tr = data.draw(traces)
        first = float(tr.t_symptom.min())
        times = st.one_of(st.sampled_from([tr.threshold_time, tr.end_time, math.inf, -math.inf]),
                          st.integers(0, len(tr) - 1).map(lambda i: float(tr.t_symptom[i])),
                          st.floats(0.0, 100.0).map(lambda d: first - d),
                          st.floats(-1.0, 500.0))
        for t in data.draw(st.lists(times, min_size=1, max_size=30)):
            if t > tr.end_time:
                with pytest.raises(ValueError, match="beyond the simulated window"):
                    tr.notified_count(t)
            else:
                assert tr.notified_count(t) == np.count_nonzero(tr.t_symptom <= t), t

    @pytest.mark.parametrize("first", [None, lambda tr: tr.notified_count(tr.end_time)],
                             ids=["fresh", "count-past-view"])
    def test_analysis_does_not_depend_on_what_was_sorted_before(self, ebola_trace, first):
        tr = _fresh(ebola_trace)
        if first is not None:
            first(tr)
        assert repr(analyze_trace(tr, 5)) == repr(analyze_trace(_fresh(ebola_trace), 5))
        # 600 pairs at stride 9 reach past the 4,500 notified by the threshold.
        with pytest.raises(AnalysisError, match="stage 'contact tracing' failed at replicate 5: "
                           "trace has 4500 persons notified by the threshold; need 5400"):
            analyze_trace(tr, 5, AnalysisOptions(n_pairs=600, stride=9))


    def test_forecast_past_the_run_fails_the_prediction_stage(self, ebola_trace):
        # A 60-day horizon scores the forecast past the 42-day follow-up.
        with pytest.raises(AnalysisError) as err:
            analyze_trace(ebola_trace, 5, AnalysisOptions(horizon=60))
        assert str(err.value) == ("analysis stage 'prediction' failed at replicate 5: "
                                  "time lies beyond the simulated window")


def _moved_past_threshold(tr, delay):
    """The same trace with every symptom and outcome time after the threshold
    time ``delay`` days later, and the same ``end_time``.

    That includes the infectors of persons notified by the threshold, which
    a planted trace (or an incubation factor above 1) may notify later.
    """
    T = tr.threshold_time
    t_symptom = np.where(tr.t_symptom > T, tr.t_symptom + delay, tr.t_symptom)
    t_outcome = np.where(tr.t_outcome > T, tr.t_outcome + delay, tr.t_outcome)
    return dataclasses.replace(tr, t_symptom=t_symptom, t_outcome=t_outcome)


def _outcome(fn):
    """``repr`` of what ``fn()`` returns (NaN equals NaN), or the error it raises."""
    try:
        return repr(fn())
    except (ValueError, AnalysisError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _observed(analysis):
    """Every field of a ``TraceAnalysis`` but the two that are scored past the
    threshold: the forward sample and the forecasts."""
    return dataclasses.replace(analysis, forward=None, predictions=None)


def _series(tr):
    series, t0, k_complete = notification_series(tr)
    return series.daily.tolist(), t0, k_complete


class TestObservationBoundary:
    """What comes after the threshold moves nothing an observer reports at it."""

    @given(tr=planted_traces(400), delay=st.sampled_from([0.25, 3.0, 100.0]),
           n=st.integers(1, 60), stride=st.integers(1, 4),
           window=st.integers(2, 10), horizon=st.integers(0, 10))
    def test_planted(self, tr, delay, n, stride, window, horizon):
        # A notification threshold of 1 lets more draws past the snapshot.
        tr = dataclasses.replace(tr, scenario=Scenario(notify_threshold=1))
        moved = _moved_past_threshold(tr, delay)
        options = AnalysisOptions(n_pairs=n, stride=stride, window=window, horizon=horizon)
        for fn in (lambda t: summarize_trace(t, 3), _series,
                   lambda t: _observed(analyze_trace(t, 3, options))):
            assert _outcome(lambda: fn(moved)) == _outcome(lambda: fn(tr))

    @pytest.mark.parametrize("options", [
        AnalysisOptions(), AnalysisOptions(window=28, horizon=28),
        AnalysisOptions(window=56, horizon=35), AnalysisOptions(n_pairs=600, stride=9),
    ], ids=["default", "window=28", "window=56", "600x9"])
    def test_default_trace(self, ebola_trace, options):
        _assert_unmoved(ebola_trace, options)

    def test_infectors_notified_after_the_threshold(self, late_infector_trace):
        # Incubation factors up to 2 notify the infectors of 5 of the 500
        # default picks after the threshold; the sample forms no pair for them.
        tr = late_infector_trace
        infector = tr.infector[tr.notified[8:4500:9]]
        assert np.count_nonzero(tr.t_symptom[infector[infector >= 0]] > tr.threshold_time) == 5
        assert len(sample_backward_pairs(tr, 500, 9)) == 500 - 5 - np.count_nonzero(infector < 0)
        _assert_unmoved(tr, AnalysisOptions())


    @pytest.mark.parametrize("trace", ["ebola_trace", "late_infector_trace"])
    def test_scenario_laws(self, request, trace):
        # The analysis reads the notifications and the implied generation
        # time; laws it does not read move no field.  The CFR correction
        # reads the notification-to-death delay from the scenario, so the
        # laws that shape it move its two fields, and only those.
        tr = request.getfixturevalue(trace)
        scenario = tr.scenario
        cfr_fields = dict.fromkeys(["cfr_corrected", "cfr_clipped"])
        expected = analyze_trace(tr, 5)
        for changes, moved in [
            ({"p_death": 0.3}, {}),
            ({"contact_rate": 0.5}, {}),
            ({"to_recovery": GammaParams(2.0, 0.1)}, {}),
            ({"to_death": scenario.to_recovery, "to_recovery": scenario.to_death}, cfr_fields),
            ({"incubation_factor_range": (0.5, 1.5)}, cfr_fields),
        ]:
            perturbed = dataclasses.replace(tr, scenario=dataclasses.replace(scenario, **changes))
            got = analyze_trace(perturbed, 5)
            assert (repr(dataclasses.replace(got, **moved))
                    == repr(dataclasses.replace(expected, **moved))), changes


@pytest.fixture(scope="module")
def late_infector_trace(ebola_scenario):
    """The first accepted default-size trace with incubation factors from 0.5 to 2."""
    scenario = dataclasses.replace(ebola_scenario, incubation_factor_range=(0.5, 2.0))
    [trace], _ = ensemble_map(scenario, 1, lambda trace, rep: trace)
    return trace


def _assert_unmoved(tr, options):
    """Moving what comes after the threshold moves no observed field of ``tr``."""
    moved = _moved_past_threshold(tr, 3.0)
    assert _outcome(lambda: summarize_trace(moved, 5)) == repr(summarize_trace(tr, 5))
    assert _outcome(lambda: _series(moved)) == repr(_series(tr))
    assert (_outcome(lambda: _observed(analyze_trace(moved, 5, options)))
            == _outcome(lambda: _observed(analyze_trace(tr, 5, options))))


class TestAgainstMaskOracles:
    @given(tr=planted_traces(), data=st.data())
    def test_notification_series(self, tr, data):
        # Plants notifications exactly on day boundaries t0 + d and exactly
        # at the threshold, which is often itself a day boundary.
        ts = tr.t_symptom.copy()
        first = int(np.argmin(ts))
        t0 = float(ts[first])
        threshold = data.draw(st.one_of(st.just(tr.threshold_time),
                                        st.integers(0, 40).map(lambda d: t0 + d)))
        planted = st.one_of(st.just(threshold), st.integers(0, 40).map(lambda d: t0 + d))
        for i in data.draw(st.lists(st.integers(0, len(ts) - 1), max_size=8)):
            if i != first:
                ts[i] = data.draw(planted)
        tr = dataclasses.replace(tr, threshold_time=threshold,
                                 end_time=max(tr.end_time, threshold), t_symptom=ts)

        def oracle():
            start = float(tr.t_symptom.min())   # below t0 where a threshold below it is planted
            k_complete = math.floor(threshold - start)
            if k_complete < 2:
                raise ValueError("threshold reached before two complete days of data")
            counts = mask_daily_series(tr, through=threshold)[:k_complete]
            return np.pad(counts, (0, k_complete - len(counts))), start, k_complete

        got, expected = _same_outcome(lambda: notification_series(tr), oracle)
        if expected is not None:
            assert np.array_equal(got[0].daily, expected[0])
            assert got[1:] == expected[1:]

    @given(planted_traces())
    def test_summarize_trace(self, tr):
        got, expected = _same_outcome(lambda: summarize_trace(tr, 3),
                                      lambda: mask_summarize_trace(tr, 3))
        assert repr(got) == repr(expected)

    @given(tr=planted_traces(), data=st.data())
    def test_sample_forward_pairs(self, tr, data):
        # Often puts the cutoff end_time - margin on an infection time.
        margin = data.draw(st.one_of(
            st.sampled_from([0.0, 1.0, 60.0]),
            st.integers(0, len(tr) - 1).map(lambda i: tr.end_time - float(tr.t_infect[i]))))
        _assert_same_pairs(sample_forward_pairs(tr, margin), mask_sample_forward_pairs(tr, margin))

    @given(tr=planted_traces(), n=st.integers(1, 12), stride=st.integers(1, 9))
    def test_sample_backward_pairs(self, tr, n, stride):
        got, expected = _same_outcome(lambda: sample_backward_pairs(tr, n, stride),
                                      lambda: full_walk_sample_backward_pairs(tr, n, stride))
        if expected is not None:
            _assert_same_pairs(got, expected)
