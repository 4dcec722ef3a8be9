import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdpvcg import LearnerConfig, episode_schedule
from mdpvcg.bidders import checked_spec, reports, windows_from_episodes

from _oracles import reference_report


TRUTHFUL = checked_spec({"kind": "truthful"})


def test_truthful_passes_realized_value_through():
    assert reports(TRUTHFUL, t=5, s=0, a=1, r=0.37) == 0.37
    # in-range values are passed on untouched, the sign of a zero included
    assert np.signbit(reports(TRUTHFUL, t=5, s=0, a=1, r=-0.0))
    np.testing.assert_array_equal(reports(TRUTHFUL, 1, 0, 0, [-0.5, 1.5, np.nan]), [0, 1, 0])


def test_scaled_clips_at_one():
    assert reports(checked_spec({"kind": "scaled", "factor": 2.0}), 1, 0, 0, 0.7) == 1.0
    assert reports(checked_spec({"kind": "scaled", "factor": 0.5}), 1, 0, 0,
                   0.7) == pytest.approx(0.35)


def test_shifted_clips_at_zero():
    assert reports(checked_spec({"kind": "shifted", "offset": -0.5}), 1, 0, 0, 0.2) == 0.0
    assert reports(checked_spec({"kind": "shifted", "offset": 0.1}), 1, 0, 0,
                   0.2) == pytest.approx(0.3)


def test_by_bids_reports_the_table_entry_every_visit():
    table = [[0.0, 0.0, 0.0], [0.0, 0.0, 0.25]]
    strat = checked_spec({"kind": "by_bids", "table": table}, shape=(2, 3))
    for t in [1, 10, 999]:
        assert reports(strat, t, 1, 2, r=0.9) == 0.25


def test_adversarial_window_inflates_only_inside_windows():
    """Reports inside a window are ``inflate_to``, 1.0 by default."""
    strat = checked_spec({"kind": "adversarial_window", "windows": [(10, 20), (30, 31)]})
    t = np.array([9, 10, 19, 20, 29, 30, 31])
    np.testing.assert_array_equal(reports(strat, t, np.zeros(7, int), np.zeros(7, int),
                                          np.full(7, 0.3)),
                                  [0.3, 1.0, 1.0, 0.3, 0.3, 1.0, 0.3])


def test_adversarial_window_factor_mode():
    strat = checked_spec({"kind": "adversarial_window", "windows": [(1, 5)], "factor": 1.5,
                          "inflate_to": None})
    assert reports(strat, 2, 0, 0, 0.4) == pytest.approx(0.6)
    assert reports(strat, 6, 0, 0, 0.4) == pytest.approx(0.4)


@settings(max_examples=60, deadline=None)
@given(t=st.integers(1, 10_000), r=st.floats(0, 1))
def test_stationary_kinds_ignore_time(t, r):
    for strat in [TRUTHFUL, checked_spec({"kind": "by_bids", "table": [[0.4]]}),
                  checked_spec({"kind": "scaled", "factor": 1.3}),
                  checked_spec({"kind": "shifted", "offset": 0.2})]:
        assert reports(strat, t, 0, 0, r) == reports(strat, 1, 0, 0, r)


@settings(max_examples=40, deadline=None)
@given(rounds=st.lists(st.tuples(st.integers(1, 5000), st.integers(0, 1), st.integers(0, 1),
                                 st.floats(-0.5, 1.5)), min_size=1, max_size=30))
def test_reports_match_reference(rounds):
    """Array reports equal the per-round definition, round by round."""
    t, s, a, r = (np.array(col) for col in zip(*rounds))
    specs = [{"kind": "truthful"}, {"kind": "by_bids", "table": [[0.1, 0.9], [0.4, 0.6]]},
             {"kind": "scaled", "factor": 2.0}, {"kind": "shifted", "offset": -0.1},
             {"kind": "adversarial_window", "windows": [(100, 400)], "inflate_to": 0.8},
             {"kind": "adversarial_window", "windows": [(100, 400), (900, 2000)],
              "factor": 3.0, "inflate_to": None}]
    for strat in map(checked_spec, specs):
        got = reports(strat, t, s, a, r)
        assert got.shape == t.shape
        assert got.tolist() == [reference_report(strat, *x) for x in rounds]


@settings(max_examples=60, deadline=None)
@given(t=st.integers(1, 500), s=st.integers(0, 1), a=st.integers(0, 1),
       r=st.floats(-0.5, 1.5))
def test_reports_always_in_range(t, s, a, r):
    specs = [{"kind": "truthful"},
             {"kind": "by_bids", "table": [[-0.3, 0.9], [0.4, 1.7]]},  # clipped when checked
             {"kind": "scaled", "factor": 5.0}, {"kind": "shifted", "offset": 2.0},
             {"kind": "shifted", "offset": -2.0},
             {"kind": "adversarial_window", "windows": [(1, 10)], "factor": 3.0,
              "inflate_to": None},
             {"kind": "adversarial_window", "windows": [(100, 400)], "inflate_to": 0.8}]
    for strat in map(checked_spec, specs):
        assert 0.0 <= reports(strat, t, s, a, r) <= 1.0


def test_windows_from_episodes_follow_the_schedule():
    cfg = LearnerConfig(S=3, A=3, n=2, alpha=0.25, delta=0.08, zeta=0.05)
    taus = episode_schedule(cfg, 3)
    windows = windows_from_episodes(cfg, [2, 3])
    assert windows == [(int(taus[1]), int(taus[2])), (int(taus[2]), int(taus[3]))]


@pytest.mark.parametrize("episodes, named", [([0], "[0]"), ([-1], "[-1]"),
                                             ([3, 0, -2], "[-2, 0]"), ([], "an empty list"),
                                             ([2.7], "[2.7]"), ([True], "[True]"),
                                             (["3"], "['3']")])
def test_windows_from_episodes_refuse_indices_below_one(episodes, named):
    """Episodes count from 1: an empty list, an index below 1 or one that is not
    an integer (a float, a bool, a string) is refused, by name."""
    cfg = LearnerConfig(S=3, A=3, n=2, alpha=0.25, delta=0.08, zeta=0.05)
    with pytest.raises(ValueError, match=re.escape(f"got {named}")):
        windows_from_episodes(cfg, episodes)
