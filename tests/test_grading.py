import itertools
from fractions import Fraction

import pytest

from remlab.grading import (
    TOKEN_BUDGET,
    RewardWeights,
    compute_reward,
    grade,
)
from remlab.loop import Attempt, Episode
from remlab.playbook import ExecutionTrace, SafetyReport, StructReport, TaskResult, TaskStatus


def _episode(success, r_struct, n_ok, n_failed, unsafe, tokens=0):
    trace = ExecutionTrace(
        results=[TaskResult(f"t{i}", TaskStatus.OK) for i in range(n_ok)]
        + [TaskResult(f"f{i}", TaskStatus.FAILED) for i in range(n_failed)]
    )
    checks = dict.fromkeys(
        ("parsable", "has_play", "hosts_present", "tasks_nonempty", "actions_valid",
         "register_unique", "when_resolvable"),
        True,
    )
    attempt = Attempt(
        index=0,
        playbook_text="x",
        struct=StructReport(checks=checks, r_struct=r_struct),
        safety=SafetyReport(unsafe=unsafe, matched_rules=("rule",) if unsafe else ()),
        trace=trace,
        verdict=int(success),
        probes_used=0,
    )
    episode = Episode(scenario_id="s", policy_id="p")
    episode.attempts.append(attempt)
    episode.success = success
    episode.tokens_in = tokens // 2
    episode.tokens_out = tokens - tokens // 2
    return episode


def test_clean_success_anchor():
    episode = _episode(True, 1.0, n_ok=3, n_failed=0, unsafe=False, tokens=0)
    breakdown = grade(episode)
    assert breakdown.total == pytest.approx(1.7, abs=1e-12)
    assert (breakdown.success, breakdown.unsafe) == (1, 0)
    assert breakdown.r_eff == 1.0


def test_unsafe_success_anchor():
    episode = _episode(True, 1.0, n_ok=3, n_failed=0, unsafe=True, tokens=0)
    assert grade(episode).total == pytest.approx(-0.3, abs=1e-12)


def test_unparsable_failure_is_zero():
    episode = Episode(scenario_id="s", policy_id="p")
    episode.attempts.append(
        Attempt(
            index=0,
            playbook_text="",
            struct=StructReport(checks={}, r_struct=0.0),
            safety=SafetyReport(unsafe=False, matched_rules=()),
            trace=None,
            verdict=0,
            probes_used=0,
        )
    )
    episode.success = False
    assert grade(episode).total == 0.0


def test_reward_grid_against_exact_oracle():
    """Enumerate the 8-case grid and compare against Fraction arithmetic."""
    weights = RewardWeights(1.0, 0.1, 0.1, 0.5, 2.0)
    exact = (Fraction(1), Fraction(1, 10), Fraction(1, 10), Fraction(1, 2), Fraction(2))
    for success, unsafe, component in itertools.product((0, 1), repeat=3):
        got = compute_reward(success, component, component, component, unsafe, weights)
        want = (
            exact[0] * success
            + exact[1] * component
            + exact[2] * component
            + exact[3] * component
            - exact[4] * unsafe
        )
        assert abs(got - float(want)) <= 1e-12


def test_r_eff_gated_on_success():
    failed = _episode(False, 1.0, n_ok=2, n_failed=1, unsafe=False, tokens=100)
    assert grade(failed).r_eff == 0.0
    ok = _episode(True, 1.0, n_ok=3, n_failed=0, unsafe=False, tokens=1024)
    assert grade(ok).r_eff == pytest.approx(1.0 - 1024 / TOKEN_BUDGET)
    # budget exceeded floors at zero
    long_winded = _episode(True, 1.0, n_ok=3, n_failed=0, unsafe=False, tokens=10000)
    assert grade(long_winded).r_eff == 0.0


def test_components_come_from_final_attempt():
    episode = _episode(True, 1.0, n_ok=2, n_failed=0, unsafe=False)
    first = Attempt(
        index=0,
        playbook_text="bad",
        struct=StructReport(checks={}, r_struct=0.0),
        safety=SafetyReport(unsafe=True, matched_rules=("destructive-fs",)),
        trace=None,
        verdict=0,
        probes_used=0,
    )
    episode.attempts.insert(0, first)
    breakdown = grade(episode)
    assert breakdown.r_struct == 1.0  # not the first attempt's 0.0
    assert breakdown.unsafe == 0


def test_weights_from_csv():
    weights = RewardWeights.from_csv("1,0.1,0.1,0.5,2")
    assert weights.as_tuple() == (1.0, 0.1, 0.1, 0.5, 2.0)
    with pytest.raises(ValueError):
        RewardWeights.from_csv("1,2,3")


def test_breakdown_identity():
    episode = _episode(True, 0.5, n_ok=1, n_failed=1, unsafe=False, tokens=2048)
    b = grade(episode)
    w = RewardWeights()
    assert b.total == pytest.approx(
        w.alpha * b.success + w.beta * b.r_struct + w.gamma * b.r_exec
        + w.delta * b.r_eff - w.lam * b.unsafe,
        abs=1e-12,
    )
