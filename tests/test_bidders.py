import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdpvcg import LearnerConfig, episode_schedule
from mdpvcg.bidders import (adversarial_window, by_bids, make_reporter, report,
                            scaled, shifted, strategy_from_spec, truthful,
                            windows_from_episodes)

from _oracles import reference_report


def test_truthful_passes_realized_value_through():
    assert report(truthful(), t=5, s=0, a=1, realized_reward=0.37) == 0.37


def test_scaled_clips_at_one():
    assert report(scaled(2.0), 1, 0, 0, 0.7) == 1.0
    assert report(scaled(0.5), 1, 0, 0, 0.7) == pytest.approx(0.35)


def test_shifted_clips_at_zero():
    assert report(shifted(-0.5), 1, 0, 0, 0.2) == 0.0
    assert report(shifted(0.1), 1, 0, 0, 0.2) == pytest.approx(0.3)


def test_by_bids_reports_the_table_entry_every_visit():
    table = np.zeros((2, 3))
    table[1, 2] = 0.25
    strat = by_bids(table)
    for t in [1, 10, 999]:
        assert report(strat, t, 1, 2, realized_reward=0.9) == 0.25


def test_adversarial_window_inflates_only_inside_windows():
    strat = adversarial_window([(10, 20)], inflate_to=1.0)
    assert report(strat, 9, 0, 0, 0.3) == 0.3
    assert report(strat, 10, 0, 0, 0.3) == 1.0
    assert report(strat, 19, 0, 0, 0.3) == 1.0
    assert report(strat, 20, 0, 0, 0.3) == 0.3


def test_adversarial_window_factor_mode():
    strat = adversarial_window([(1, 5)], factor=1.5, inflate_to=None)
    assert report(strat, 2, 0, 0, 0.4) == pytest.approx(0.6)
    assert report(strat, 6, 0, 0, 0.4) == pytest.approx(0.4)


@settings(max_examples=60, deadline=None)
@given(t=st.integers(1, 10_000), r=st.floats(0, 1))
def test_stationary_kinds_ignore_time(t, r):
    table = np.full((1, 1), 0.4)
    for strat in [truthful(), by_bids(table), scaled(1.3), shifted(0.2)]:
        assert report(strat, t, 0, 0, r) == report(strat, 1, 0, 0, r)


@settings(max_examples=40, deadline=None)
@given(t=st.integers(1, 5000), s=st.integers(0, 1), a=st.integers(0, 1),
       r=st.floats(-0.5, 1.5))
def test_reporter_closures_match_report(t, s, a, r):
    table = np.array([[0.1, 0.9], [0.4, 0.6]])
    strategies = [truthful(), by_bids(table), scaled(2.0), shifted(-0.1),
                  adversarial_window([(100, 400)], inflate_to=0.8),
                  adversarial_window([(100, 400)], factor=3.0, inflate_to=None)]
    for strat in strategies:
        assert make_reporter(strat)(t, s, a, r) == reference_report(strat, t, s, a, r)


@settings(max_examples=60, deadline=None)
@given(t=st.integers(1, 500), s=st.integers(0, 1), a=st.integers(0, 1),
       r=st.floats(-0.5, 1.5))
def test_reports_always_in_range(t, s, a, r):
    table = np.array([[-0.3, 0.9], [0.4, 1.7]])  # by_bids clips it on construction
    strategies = [truthful(), by_bids(table), scaled(5.0), shifted(2.0), shifted(-2.0),
                  adversarial_window([(1, 10)], factor=3.0, inflate_to=None),
                  adversarial_window([(100, 400)], inflate_to=0.8)]
    for strat in strategies:
        assert 0.0 <= report(strat, t, s, a, r) <= 1.0


def test_windows_from_episodes_follow_the_schedule():
    cfg = LearnerConfig(S=3, A=3, n=2, alpha=0.25, delta=0.08, zeta=0.05)
    taus = episode_schedule(cfg, 3)
    windows = windows_from_episodes(cfg, [2, 3])
    assert windows == [(int(taus[1]), int(taus[2])), (int(taus[2]), int(taus[3]))]


def test_strategy_from_spec_roundtrip():
    specs = [
        {"kind": "truthful"},
        {"kind": "scaled", "factor": 1.5},
        {"kind": "shifted", "offset": -0.2},
        {"kind": "by_bids", "table": [[0.5, 0.25]]},
        {"kind": "adversarial_window", "windows": [[5, 9]], "inflate_to": 1.0},
    ]
    for doc in specs:
        strat = strategy_from_spec(doc)
        assert strat.kind == doc["kind"]
    with pytest.raises(ValueError):
        strategy_from_spec({"kind": "mystery"})
