import math

import numpy as np
import pytest

from remlab import faults, training
from remlab.errors import EmptyDatasetError, InvalidArgumentError
from remlab.policies import ExpertPolicy, N_CONTEXT_CLASSES, NoopPolicy, ToyPolicy
from remlab.training import (
    PrefPair,
    RolloutGroup,
    RolloutSample,
    SftExample,
    TrainConfig,
    TrainEnv,
    dpo_loss,
    grpo_loss,
    harvest_expert,
    sft_loss,
    train_stage,
)

H = 1e-5


@pytest.fixture(scope="module")
def env(simple_micro, library):
    scenarios = [s for s in faults.gen_suite(simple_micro, "easy", 1) if len(s.faults) == 1]
    return TrainEnv(topology=simple_micro, scenarios=scenarios, library=library)


def _random_policy(library, topology, seed=0, scale=0.7):
    rng = np.random.default_rng(seed)
    theta = rng.normal(scale=scale, size=(N_CONTEXT_CLASSES, len(library)))
    return ToyPolicy(theta, library, topology)


def _numeric_grad(loss_fn, policy, entries):
    """Central finite differences over the given (f, a) entries of theta."""
    out = {}
    for f, a in entries:
        plus = policy.clone()
        plus.theta[f, a] += H
        minus = policy.clone()
        minus.theta[f, a] -= H
        out[(f, a)] = (loss_fn(plus)[0] - loss_fn(minus)[0]) / (2 * H)
    return out


def _check_grad(loss_fn, policy, rel_tol=1e-4, n_entries=40, seed=0):
    loss, grad = loss_fn(policy)
    rng = np.random.default_rng(seed)
    entries = {
        (int(rng.integers(policy.theta.shape[0])), int(rng.integers(policy.theta.shape[1])))
        for _ in range(n_entries)
    }
    numeric = _numeric_grad(loss_fn, policy, entries)
    for (f, a), num in numeric.items():
        denom = max(abs(num), abs(grad[f, a]), 1e-8)
        assert abs(grad[f, a] - num) / denom <= rel_tol, (f, a, grad[f, a], num)


# --- sft ------------------------------------------------------------------------


def test_sft_uniform_policy_loss_is_log_a(library, simple_micro):
    policy = ToyPolicy.uniform(library, simple_micro)
    batch = [SftExample(0, "t", 3), SftExample(5, "t", 1)]
    loss, _ = sft_loss(policy, batch)
    assert loss == pytest.approx(math.log(len(library)))


def test_sft_uniform_loss_four_actions(library, simple_micro):
    from remlab.policies import TemplateLibrary

    small = TemplateLibrary(simple_micro, library.templates[:4])
    policy = ToyPolicy.uniform(small, simple_micro)
    loss, _ = sft_loss(policy, [SftExample(2, "t", 1)])
    assert loss == pytest.approx(math.log(4), abs=1e-12)


def test_sft_perfect_imitation_loss_to_zero(library, simple_micro):
    theta = np.zeros((N_CONTEXT_CLASSES, len(library)))
    theta[2, 4] = 30.0  # near-deterministic on action 4
    policy = ToyPolicy(theta, library, simple_micro)
    loss, _ = sft_loss(policy, [SftExample(2, "t", 4)])
    assert loss < 1e-10


def test_sft_empty_batch_raises(library, simple_micro):
    with pytest.raises(EmptyDatasetError):
        sft_loss(ToyPolicy.uniform(library, simple_micro), [])


def test_sft_gradient_matches_finite_differences(library, simple_micro):
    policy = _random_policy(library, simple_micro, seed=1)
    rng = np.random.default_rng(2)
    batch = [
        SftExample(int(rng.integers(N_CONTEXT_CLASSES)), "t", int(rng.integers(len(library))))
        for _ in range(12)
    ]
    _check_grad(lambda p: sft_loss(p, batch), policy, rel_tol=1e-6)


# --- grpo ------------------------------------------------------------------------


def test_grpo_equal_rewards_cancel(library, simple_micro):
    policy = _random_policy(library, simple_micro, seed=3)
    group = RolloutGroup(
        "s", tuple(RolloutSample(1, a, 1.7) for a in range(4))
    )
    loss, grad = grpo_loss(policy, [group])
    assert loss == pytest.approx(0.0, abs=1e-12)
    assert np.linalg.norm(grad) < 1e-10


def test_grpo_advantage_arithmetic(library, simple_micro):
    policy = ToyPolicy.uniform(library, simple_micro)
    group = RolloutGroup("s", (RolloutSample(0, 1, 1.7), RolloutSample(0, 2, 0.0)))
    loss, _ = grpo_loss(policy, [group])
    # advantages are +0.85 / -0.85; uniform logprob is -log 8
    expected = -(-math.log(8)) * 0.85 - (-math.log(8)) * (-0.85)
    assert loss == pytest.approx(expected)


def test_grpo_requires_group_of_two(library, simple_micro):
    policy = ToyPolicy.uniform(library, simple_micro)
    with pytest.raises(InvalidArgumentError):
        grpo_loss(policy, [RolloutGroup("s", (RolloutSample(0, 0, 1.0),))])


def test_grpo_gradient_matches_finite_differences(library, simple_micro):
    policy = _random_policy(library, simple_micro, seed=4)
    rng = np.random.default_rng(5)
    groups = []
    for g in range(4):
        members = tuple(
            RolloutSample(
                int(rng.integers(N_CONTEXT_CLASSES)),
                int(rng.integers(len(library))),
                float(rng.normal()),
            )
            for _ in range(8)
        )
        groups.append(RolloutGroup(f"g{g}", members))
    _check_grad(lambda p: grpo_loss(p, groups), policy, rel_tol=1e-4)


def test_grpo_baseline_invariance(library, simple_micro):
    policy = _random_policy(library, simple_micro, seed=6)
    rng = np.random.default_rng(7)
    members = tuple(
        RolloutSample(int(rng.integers(N_CONTEXT_CLASSES)), int(rng.integers(len(library))), float(rng.normal()))
        for _ in range(8)
    )
    shifted = tuple(
        RolloutSample(m.context_class, m.action, m.reward + 123.456) for m in members
    )
    l1, g1 = grpo_loss(policy, [RolloutGroup("a", members)])
    l2, g2 = grpo_loss(policy, [RolloutGroup("a", shifted)])
    assert l1 == pytest.approx(l2, abs=1e-10)
    assert np.max(np.abs(g1 - g2)) < 1e-10


# --- dpo -------------------------------------------------------------------------


def test_dpo_at_reference_is_log_two(library, simple_micro):
    policy = _random_policy(library, simple_micro, seed=8)
    ref = policy.clone()
    pairs = [PrefPair(0, 1, 2), PrefPair(5, 3, 7)]
    loss, _ = dpo_loss(policy, ref, pairs, beta=0.1)
    assert loss == pytest.approx(math.log(2), abs=1e-9)


def test_dpo_at_reference_gradient_is_halved_score_difference(library, simple_micro):
    policy = _random_policy(library, simple_micro, seed=9)
    ref = policy.clone()
    beta = 0.3
    pair = PrefPair(4, 2, 6)
    _, grad = dpo_loss(policy, ref, [pair], beta=beta)
    expected_row = -0.5 * beta * (
        policy.grad_logprob(4, 2) - policy.grad_logprob(4, 6)
    )
    assert np.allclose(grad[4], expected_row, atol=1e-12)


def test_dpo_saturates_with_large_beta(library, simple_micro):
    theta = np.zeros((N_CONTEXT_CLASSES, len(library)))
    theta[0, 1] = 3.0  # policy prefers action 1 relative to the uniform reference
    policy = ToyPolicy(theta, library, simple_micro)
    ref = ToyPolicy.uniform(library, simple_micro)
    loss, _ = dpo_loss(policy, ref, [PrefPair(0, 1, 2)], beta=50.0)
    assert loss < 1e-9


def test_dpo_step_moves_margin_in_the_right_direction(library, simple_micro):
    policy = _random_policy(library, simple_micro, seed=10)
    ref = policy.clone()
    pair = PrefPair(3, 1, 6)
    before_plus = policy.logprob(3, 1)
    before_minus = policy.logprob(3, 6)
    _, grad = dpo_loss(policy, ref, [pair], beta=0.1)
    policy.theta -= 1.0 * grad
    assert policy.logprob(3, 1) > before_plus
    assert policy.logprob(3, 6) < before_minus


def test_dpo_empty_pairs_raises(library, simple_micro):
    policy = ToyPolicy.uniform(library, simple_micro)
    with pytest.raises(EmptyDatasetError):
        dpo_loss(policy, policy.clone(), [], beta=0.1)


def test_dpo_gradient_matches_finite_differences(library, simple_micro):
    policy = _random_policy(library, simple_micro, seed=11)
    ref = _random_policy(library, simple_micro, seed=12)
    rng = np.random.default_rng(13)
    pairs = []
    for _ in range(10):
        f = int(rng.integers(N_CONTEXT_CLASSES))
        a, b = rng.choice(len(library), size=2, replace=False)
        pairs.append(PrefPair(f, int(a), int(b)))
    _check_grad(lambda p: dpo_loss(p, ref, pairs, beta=0.25), policy, rel_tol=1e-4)


# --- harvesting and stages ---------------------------------------------------------


def test_harvest_expert_yields_one_example_per_success(env, library):
    data = harvest_expert(env, ExpertPolicy(library), n=len(env.scenarios), seed=5)
    assert len(data) == len(env.scenarios) == 23
    assert all(0 <= e.action < len(library) for e in data)


def test_harvest_is_deterministic(env, library):
    a = harvest_expert(env, ExpertPolicy(library), n=10, seed=5)
    b = harvest_expert(env, ExpertPolicy(library), n=10, seed=5)
    assert a == b


def test_harvest_noop_teacher_raises(env):
    with pytest.raises(EmptyDatasetError):
        harvest_expert(env, NoopPolicy(), n=5, seed=5)


def test_harvested_actions_replay_to_oracle_success(env, library, simple_micro):
    """Every harvested action, replayed through the playbook engine on a
    fresh injection of its scenario, verifies against the oracle."""
    from remlab import cluster
    from remlab.playbook import execute, parse_playbook

    data = harvest_expert(env, ExpertPolicy(library), n=len(env.scenarios), seed=5)
    for example, scenario in zip(data, env.scenarios):
        state = cluster.load_topology(simple_micro, seed=99)
        record = faults.inject(state, scenario.faults[0])
        for _ in range(10):
            cluster.step(state, 1000)
        text = library.render(
            example.action, [(scenario.faults[0].ftype, scenario.faults[0].target)]
        )
        execute(parse_playbook(text), state)
        for _ in range(10):
            cluster.step(state, 1000)
        assert faults.oracle_verify(state, record), scenario.scenario_id


def test_sft_stage_drives_loss_below_threshold(env):
    policy, curve = train_stage(
        TrainConfig(stage="sft", learning_rate=2.0, iterations=200, seed=5), env
    )
    assert curve.points[-1]["loss"] < 0.1
    assert len(curve.points) <= 200


def test_grpo_from_uniform_reaches_target_ra(env, library, simple_micro):
    """The reward signal alone lifts a uniform policy to >= 0.9 accuracy."""
    policy, _ = train_stage(
        TrainConfig(stage="sim_rft", learning_rate=0.5, iterations=150, group_size=8, seed=5),
        env,
        init_policy=ToyPolicy.uniform(library, simple_micro),
    )
    wins = 0
    for i, scenario in enumerate(env.scenarios):
        sampler = policy.clone(sample_seed=7000 + i)
        episode, _ = training.rollout(
            env, sampler, scenario, training.state_seed_for(7, scenario.scenario_id)
        )
        wins += episode.success
    assert wins / len(env.scenarios) >= 0.9


def test_rollout_and_benchmark_episode_agree(env, library, simple_micro):
    """A training rollout and a benchmark episode of one seed see the same failure."""
    from remlab.bench import RunManifest, run_scenario

    manifest = RunManifest(topology="simple-micro", difficulty="easy", seed=3, policy_id="expert")
    for scenario in env.scenarios[:5]:
        episode, _ = training.rollout(
            env, ExpertPolicy(library), scenario, training.state_seed_for(3, scenario.scenario_id)
        )
        reference = run_scenario(scenario, simple_micro, manifest, ExpertPolicy(library))
        assert (episode.final_digest, episode.report_description) == (
            reference.final_digest, reference.report_description
        )


def test_stage_prerequisites_enforced(env):
    with pytest.raises(InvalidArgumentError):
        train_stage(TrainConfig(stage="sim_rft", seed=0), env, init_policy=None)
    with pytest.raises(InvalidArgumentError):
        train_stage(TrainConfig(stage="real_rft", seed=0), env, init_policy=None)
    with pytest.raises(InvalidArgumentError):
        TrainConfig(stage="sorcery").validate()


def test_checkpoint_round_trip(env, library, simple_micro, tmp_path):
    policy = _random_policy(library, simple_micro, seed=14)
    config = TrainConfig(stage="sft", seed=3)
    path = tmp_path / "ckpt.json"
    training.save_checkpoint(str(path), policy, config)
    restored = training.load_checkpoint(str(path), library, simple_micro)
    assert np.array_equal(restored.theta, policy.theta)


def test_curve_csv_shape(env):
    _, curve = train_stage(
        TrainConfig(stage="sft", learning_rate=2.0, iterations=5, seed=5), env
    )
    text = curve.to_csv()
    lines = text.strip().splitlines()
    assert lines[0].startswith("iteration,loss")
    assert len(lines) == len(curve.points) + 1
