import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from remlab import bench, cluster, faults, loop, training
from remlab.errors import DivergenceError, EmptyDatasetError, InvalidArgumentError
from remlab.loop import LoopConfig
from remlab.policies import CONTEXT_CLASSES, ExpertPolicy, N_CONTEXT_CLASSES, NoopPolicy, ToyPolicy
from remlab.training import (
    LearningCurve,
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


@pytest.fixture(scope="module")
def sft_data(env, library):
    return harvest_expert(env, ExpertPolicy(library), n=len(env.scenarios), seed=5)


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


def _per_item_losses(policy, ref, examples, groups, pairs, beta):
    """The three losses with every term computed afresh for every item."""
    sft, sft_grad = 0.0, np.zeros_like(policy.theta)
    for ex in examples:
        sft -= policy.logprob(ex.context_class, ex.action)
        sft_grad[ex.context_class] -= policy.grad_logprob(ex.context_class, ex.action)
    grpo, grpo_grad = 0.0, np.zeros_like(policy.theta)
    for group in groups:
        baseline = sum(m.reward for m in group.members) / len(group.members)
        for m in group.members:
            advantage = m.reward - baseline
            grpo -= policy.logprob(m.context_class, m.action) * advantage
            grpo_grad[m.context_class] -= policy.grad_logprob(m.context_class, m.action) * advantage
    dpo, dpo_grad = 0.0, np.zeros_like(policy.theta)
    for pair in pairs:
        f = pair.context_class
        delta_plus = policy.logprob(f, pair.preferred) - ref.logprob(f, pair.preferred)
        delta_minus = policy.logprob(f, pair.rejected) - ref.logprob(f, pair.rejected)
        z = beta * (delta_plus - delta_minus)
        dpo += training._softplus(-z)
        dz = training._sigmoid(z) - 1.0
        dpo_grad[f] += dz * beta * (
            policy.grad_logprob(f, pair.preferred) - policy.grad_logprob(f, pair.rejected)
        )
    return (
        (sft / len(examples), sft_grad / len(examples)),
        (grpo, grpo_grad),
        (dpo / len(pairs), dpo_grad / len(pairs)),
    )


_item = st.tuples(st.integers(0, 3), st.integers(0, 3))  # few keys, so items repeat


@settings(max_examples=40, deadline=None)
@given(
    theta_seed=st.integers(0, 2**16),
    scale=st.floats(0.0, 6.0),
    examples=st.lists(_item, min_size=1, max_size=20),
    groups=st.lists(
        st.lists(st.tuples(_item, st.sampled_from([0.0, 0.5, 1.0, 1.3])), min_size=2, max_size=8),
        min_size=1,
        max_size=4,
    ),
    pairs=st.lists(st.tuples(_item, st.integers(0, 3)), min_size=1, max_size=20),
    beta=st.floats(0.01, 5.0),
)
def test_losses_equal_their_per_item_sums(
    library, simple_micro, theta_seed, scale, examples, groups, pairs, beta
):
    """Each loss computes a repeated term once per call; loss and gradient
    bytes equal the sums with every term computed afresh."""
    policy = _random_policy(library, simple_micro, seed=theta_seed, scale=scale)
    ref = _random_policy(library, simple_micro, seed=theta_seed + 1, scale=scale)
    examples = [SftExample(f, "", a) for f, a in examples]
    groups = [
        RolloutGroup("g", tuple(RolloutSample(f, a, r) for (f, a), r in members))
        for members in groups
    ]
    pairs = [PrefPair(f, a, b) for (f, a), b in pairs]
    got = (
        sft_loss(policy, examples),
        grpo_loss(policy, groups),
        dpo_loss(policy, ref, pairs, beta),
    )
    expected = _per_item_losses(policy, ref, examples, groups, pairs, beta)
    for (loss, grad), (want_loss, want_grad) in zip(got, expected):
        assert loss == want_loss
        assert grad.tobytes() == want_grad.tobytes()


# --- harvesting and stages ---------------------------------------------------------


def test_harvest_expert_yields_one_example_per_success(env, library):
    data = harvest_expert(env, ExpertPolicy(library), n=len(env.scenarios), seed=5)
    assert len(data) == len(env.scenarios) == 23
    assert all(0 <= e.action < len(library) for e in data)


def test_harvest_is_deterministic(env, library):
    a = harvest_expert(env, ExpertPolicy(library), n=10, seed=5)
    b = harvest_expert(env, ExpertPolicy(library), n=10, seed=5)
    assert a == b


def test_harvest_builds_each_episode_prefix_once(env, library, monkeypatch):
    """One prefix per example, and the same examples as classifying on a second prefix."""
    n = len(env.scenarios)
    reference = []
    for scenario in env.scenarios:
        state_seed = training.state_seed_for(5, scenario.scenario_id)
        episode, _ = training.rollout(env, ExpertPolicy(library), scenario, state_seed)
        assert episode.success
        state, _, report = loop.prepare_episode(
            env.topology, scenario, state_seed, env.loop_config, env.aux
        )
        action = library.expert_action(scenario.faults[0].ftype)
        reference.append((training._context_class(env, state, report), action))

    calls = []
    prepare = loop.prepare_episode
    monkeypatch.setattr(loop, "prepare_episode", lambda *a: calls.append(a) or prepare(*a))
    data = harvest_expert(env, ExpertPolicy(library), n=n, seed=5)
    assert len(calls) == len(data) == n
    assert [(e.context_class, e.action) for e in data] == reference


def test_harvest_noop_teacher_raises(env):
    with pytest.raises(EmptyDatasetError):
        harvest_expert(env, NoopPolicy(), n=5, seed=5)


def test_harvest_needs_a_positive_count(env, library):
    with pytest.raises(InvalidArgumentError):
        harvest_expert(env, ExpertPolicy(library), n=0)


def _expert_theta(library):
    """A theta that all but always picks, in every context class, the template
    that fixes the class's failure type."""
    theta = np.zeros((N_CONTEXT_CLASSES, len(library)))
    for f, (ftype, _, _) in enumerate(CONTEXT_CLASSES):
        theta[f, library.expert_action(ftype)] = 60.0
    return theta


def test_mining_pairs_no_failure_whose_last_action_is_the_expert_one(library, simple_micro):
    """On two-fault scenarios the action for the first fault leaves the second
    in place, so every rollout fails with the expert action last: no pair."""
    scenarios = faults.gen_suite(simple_micro, "medium", 1)[:4]
    env = TrainEnv(topology=simple_micro, scenarios=scenarios, library=library)
    policy = ToyPolicy(_expert_theta(library), library, simple_micro)
    assert training.mine_preference_pairs(env, policy, n_rollouts=8) == []


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


def test_sft_stage_drives_loss_below_threshold(env, sft_data):
    policy, curve = train_stage(
        TrainConfig(stage="sft", learning_rate=2.0, iterations=200, seed=5), env, sft_data=sft_data
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
        reference = run_scenario(scenario, simple_micro, manifest, ExpertPolicy(library), env.aux)
        assert (episode.final_digest, episode.report_description) == (
            reference.final_digest, reference.report_description
        )


@pytest.mark.parametrize(
    "field, value",
    [("learning_rate", 0.0), ("iterations", 0), ("group_size", 1), ("dpo_beta", 0.0)],
)
def test_train_config_validation(field, value):
    with pytest.raises(InvalidArgumentError):
        dataclasses.replace(TrainConfig(stage="sft"), **{field: value}).validate()


def test_stages_train_only_on_the_data_they_are_given(env, library, simple_micro):
    with pytest.raises(EmptyDatasetError):
        train_stage(TrainConfig(stage="sft", iterations=5), env)
    with pytest.raises(EmptyDatasetError):
        train_stage(
            TrainConfig(stage="real_rft", iterations=5),
            env,
            init_policy=ToyPolicy.uniform(library, simple_micro),
        )


def test_sft_stops_once_the_loss_is_below_threshold(env):
    config = TrainConfig(stage="sft", learning_rate=50.0, iterations=200)
    _, curve = train_stage(config, env, sft_data=[SftExample(0, "", 1)])
    assert len(curve.points) < config.iterations
    assert curve.points[-1]["loss"] < 1e-3 <= curve.points[-2]["loss"]


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_non_finite_loss_is_a_divergence(env, library, simple_micro):
    theta = np.zeros((N_CONTEXT_CLASSES, len(library)))
    theta[0, 0] = np.inf
    policy = ToyPolicy(theta, library, simple_micro)
    data = [SftExample(0, "", 1)]
    with pytest.raises(DivergenceError, match="iteration 0"):
        train_stage(TrainConfig(stage="sft"), env, init_policy=policy, sft_data=data)


@pytest.mark.parametrize("stage", training.STAGES)
def test_no_stage_mutates_its_initial_policy(env, library, simple_micro, sft_data, stage):
    init = _random_policy(library, simple_micro, seed=17)
    theta = init.theta.copy()
    policy, _ = train_stage(
        TrainConfig(stage=stage, iterations=3, seed=5),
        env,
        init_policy=init,
        sft_data=sft_data,
        pairs=[PrefPair(context_class=0, preferred=1, rejected=2)],
    )
    assert policy is not init
    assert np.array_equal(init.theta, theta)
    assert not np.array_equal(policy.theta, theta)  # the stage did train


def test_stage_prerequisites_enforced(env):
    with pytest.raises(InvalidArgumentError):
        train_stage(TrainConfig(stage="sim_rft", seed=0), env, init_policy=None)
    with pytest.raises(InvalidArgumentError):
        train_stage(TrainConfig(stage="real_rft", seed=0), env, init_policy=None)
    with pytest.raises(InvalidArgumentError):
        TrainConfig(stage="sorcery").validate()


def test_sim_rft_without_a_group_is_an_empty_dataset(env, library, simple_micro):
    """Every rollout of an all-NaN policy is a policy-error, so no group forms."""
    nan_policy = ToyPolicy(np.full((N_CONTEXT_CLASSES, len(library)), np.nan), library, simple_micro)
    with pytest.raises(EmptyDatasetError):
        train_stage(TrainConfig(stage="sim_rft", iterations=3, seed=5), env, init_policy=nan_policy)


def test_checkpoint_round_trip(env, library, simple_micro, tmp_path):
    policy = _random_policy(library, simple_micro, seed=14)
    config = TrainConfig(stage="sft", seed=3)
    path = tmp_path / "ckpt.json"
    training.save_checkpoint(str(path), policy, config)
    restored = training.load_checkpoint(str(path), library, simple_micro)
    assert np.array_equal(restored.theta, policy.theta)


def test_unknown_checkpoint_format(library, simple_micro, tmp_path):
    path = tmp_path / "ckpt.json"
    path.write_text('{"format": "toy-policy/v0", "theta": []}\n')
    with pytest.raises(InvalidArgumentError, match="unknown checkpoint format"):
        training.load_checkpoint(str(path), library, simple_micro)


def test_empty_curve_csv_is_the_header():
    assert LearningCurve(stage="sft").to_csv() == "iteration,loss\n"


def test_curve_csv_shape(env, sft_data):
    _, curve = train_stage(
        TrainConfig(stage="sft", learning_rate=2.0, iterations=5, seed=5), env, sft_data=sft_data
    )
    text = curve.to_csv()
    lines = text.strip().splitlines()
    assert lines[0].startswith("iteration,loss")
    assert len(lines) == len(curve.points) + 1


@pytest.mark.parametrize("temperature", [0.0, -1.0, math.nan, math.inf])
def test_temperature_must_be_finite_and_positive(library, simple_micro, temperature):
    with pytest.raises(InvalidArgumentError):
        ToyPolicy.uniform(library, simple_micro, temperature=temperature)
    policy = ToyPolicy.uniform(library, simple_micro)
    with pytest.raises(InvalidArgumentError):
        policy.clone(temperature=temperature)


def test_env_without_scenarios_is_an_empty_dataset(library, simple_micro):
    with pytest.raises(EmptyDatasetError):
        TrainEnv(topology=simple_micro, scenarios=[], library=library)


# --- the rollout memo ----------------------------------------------------------------


def _counting(monkeypatch, module, name):
    """Wrap ``module.name`` so each call appends to the returned list."""
    calls = []
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a: calls.append(a) or original(*a))
    return calls


def test_memo_simulates_each_distinct_rollout_once(env, sft_data, monkeypatch):
    """Criterion 07's sim_rft and mining chain: every call still goes through
    ``training.rollout``; sim_rft simulates only distinct rollouts, mining
    simulates every one."""
    sft, _ = train_stage(
        TrainConfig(stage="sft", learning_rate=2.0, iterations=200, seed=5), env, sft_data=sft_data
    )
    calls = _counting(monkeypatch, training, "rollout")
    sims = _counting(monkeypatch, loop, "prepare_episode")
    grpo, _ = train_stage(
        TrainConfig(stage="sim_rft", learning_rate=0.5, iterations=150, group_size=8, seed=5),
        env,
        init_policy=sft,
    )
    assert (len(calls), len(sims)) == (1200, 37)
    calls.clear()
    sims.clear()
    training.mine_preference_pairs(env, grpo, n_rollouts=200, seed=9)
    assert (len(calls), len(sims)) == (200, 200)


class _SubToy(ToyPolicy):
    pass


def test_memo_serves_only_plain_toy_policies(env, library, simple_micro, monkeypatch):
    sims = _counting(monkeypatch, loop, "prepare_episode")
    scenario = env.scenarios[0]
    theta = ToyPolicy.uniform(library, simple_micro).theta
    memo: dict = {}
    for policy in (ExpertPolicy(library), _SubToy(theta, library, simple_micro)):
        first, _ = training.rollout(env, policy, scenario, 3, memo)
        second, _ = training.rollout(env, policy, scenario, 3, memo)
        assert first is not second
    assert len(sims) == 4 and memo == {}


def _rollout_view(episode, state, sampler):
    return bench.episodes_to_jsonl([episode]), list(sampler.last_decisions), cluster.digest(state)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_memo_simulates_a_draw_that_raises(env, library, simple_micro):
    """A sampler whose draw raises at a stored node is simulated, and gets the
    policy-error episode a fresh rollout gives."""
    scenario = env.scenarios[0]
    memo: dict = {}
    training.rollout(env, ToyPolicy.uniform(library, simple_micro), scenario, 3, memo)
    (root,) = memo.values()
    theta = np.zeros((N_CONTEXT_CLASSES, len(library)))
    theta[root.f] = np.nan
    plain, cached = (ToyPolicy(theta, library, simple_micro) for _ in range(2))
    expected = _rollout_view(*training.rollout(env, plain, scenario, 3), plain)
    got = _rollout_view(*training.rollout(env, cached, scenario, 3, memo), cached)
    assert got == expected
    assert '"error_tag": "policy-error"' in got[0]


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@settings(max_examples=40, deadline=None)
@given(
    t_max=st.integers(0, 2),
    theta_seeds=st.lists(st.integers(0, 2**16), min_size=1, max_size=3),
    scale=st.floats(0.0, 4.0),
    bad=st.none() | st.tuples(st.integers(0, 1), st.sampled_from([math.nan, math.inf])),
    temperatures=st.lists(st.floats(0.05, 10.0), min_size=1, max_size=2),
    calls=st.lists(
        st.tuples(
            st.integers(0, 1),  # scenario
            st.integers(0, 1),  # state seed
            st.integers(0, 2),  # theta
            st.integers(0, 1),  # temperature
            st.integers(0, 3),  # sample seed
            st.booleans(),  # reuse the sampler made for these draws before
        ),
        min_size=1,
        max_size=8,
    ),
)
def test_memoised_rollouts_equal_fresh_ones(
    env, library, simple_micro, t_max, theta_seeds, scale, bad, temperatures, calls
):
    """Episode bytes, decisions and final state are the same with or without
    the memo, whatever theta each sampler carries, including a non-finite row
    in the context class the first attempt is sampled in."""
    env = dataclasses.replace(env)
    env.loop_config = LoopConfig(t_max=t_max)
    scenarios = env.scenarios[:2]
    thetas = [
        np.random.default_rng(seed).normal(scale=scale, size=(N_CONTEXT_CLASSES, len(library)))
        for seed in theta_seeds
    ]
    if bad is not None:
        index, value = bad
        state, _, report = loop.prepare_episode(
            env.topology, scenarios[index], 0, env.loop_config, env.aux
        )
        thetas[0][training._context_class(env, state, report)] = value
    memo: dict = {}
    pools: tuple[dict, dict] = ({}, {})

    def sampler(pool, theta_i, temp_i, seed, reuse):
        theta = thetas[theta_i % len(thetas)]
        temperature = temperatures[temp_i % len(temperatures)]
        fresh = ToyPolicy(theta, library, simple_micro, sample_seed=seed, temperature=temperature)
        key = (theta_i % len(thetas), temp_i % len(temperatures), seed)
        return pool.setdefault(key, fresh) if reuse else fresh

    for scenario_i, state_seed, theta_i, temp_i, seed, reuse in calls:
        scenario = scenarios[scenario_i]
        plain = sampler(pools[0], theta_i, temp_i, seed, reuse)
        cached = sampler(pools[1], theta_i, temp_i, seed, reuse)
        expected = _rollout_view(*training.rollout(env, plain, scenario, state_seed), plain)
        got = _rollout_view(*training.rollout(env, cached, scenario, state_seed, memo), cached)
        assert got == expected
