import dataclasses

import numpy as np
import pytest

from remlab import cluster, faults
from remlab.bench import RunManifest, run_suite
from remlab.cluster import PerturbationKind, ProbeKind, ProbeQuery
from remlab.errors import InvalidArgumentError, TransportError
from remlab.faults import FailureSpec, FailureType, build_aux
from remlab.loop import Attempt, LoopConfig, observable_verify, reflect, run_episode
from remlab.playbook import ExecutionTrace, SafetyReport, TaskResult, TaskStatus, check_structure
from remlab.policies import (
    ExpertPolicy,
    NoopPolicy,
    Policy,
    PolicyInput,
    ProbeRequest,
    RemedyProposal,
    ToyPolicy,
)


def _setup(simple_micro, spec, state_seed=5, settle=10):
    state = cluster.load_topology(simple_micro, seed=state_seed)
    record = faults.inject(state, spec)
    for _ in range(settle):
        cluster.step(state, 1000)
    aux = build_aux(simple_micro)
    report = faults.make_report(record, aux)
    return state, [record], report


class ProbeHungryPolicy(Policy):
    """Keeps asking for probes; proposes only after an explicit refusal."""

    policy_id = "probe-hungry"

    def decide(self, inp):
        refused = any(i.kind == "probe_refused" for i in inp.current_attempt_items())
        if refused:
            return RemedyProposal("", "out of budget", 1, 1)
        return ProbeRequest(queries=(cluster.pod_metrics_query("orders"),))


class ExplodingPolicy(Policy):
    policy_id = "exploding"
    deterministic = False

    def decide(self, inp):
        raise TransportError("endpoint unreachable after 3 attempts")


def test_loop_config_validation():
    with pytest.raises(InvalidArgumentError):
        LoopConfig(t_max=-1).validate()
    with pytest.raises(InvalidArgumentError):
        LoopConfig(settle_steps=0).validate()
    with pytest.raises(InvalidArgumentError):
        LoopConfig(step_ms=0).validate()
    with pytest.raises(InvalidArgumentError):
        LoopConfig(verification_mode="psychic").validate()
    LoopConfig().validate()


def test_expert_succeeds_in_one_attempt(simple_micro, library):
    state, records, report = _setup(simple_micro, FailureSpec(FailureType.CPU_SATURATION, "orders"))
    episode = run_episode(ExpertPolicy(library), state, records, LoopConfig(), report, "s1")
    assert episode.success is True
    assert len(episode.attempts) == 1
    assert episode.attempts[0].verdict == 1
    assert episode.tokens_in > 0
    assert episode.wall_ms is None  # deterministic policy


def test_noop_fails_with_budget_arithmetic(simple_micro):
    state, records, report = _setup(simple_micro, FailureSpec(FailureType.POD_FAILURE, "frontend"))
    episode = run_episode(NoopPolicy(), state, records, LoopConfig(t_max=1), report, "s2")
    assert episode.success is False
    assert len(episode.attempts) == 2


def test_probe_budget_refusal(simple_micro):
    state, records, report = _setup(simple_micro, FailureSpec(FailureType.CPU_SATURATION, "orders"))
    config = LoopConfig(t_max=0, probe_budget=3)
    episode = run_episode(ProbeHungryPolicy(), state, records, config, report, "s3")
    assert episode.attempts[0].probes_used == 3
    # refused, then forced to propose (an empty playbook here)
    assert episode.attempts[0].playbook_text == ""
    assert episode.success is False


def test_no_probe_mode_refuses_everything(simple_micro, library):
    state, records, report = _setup(simple_micro, FailureSpec(FailureType.CPU_SATURATION, "orders"))
    config = LoopConfig(no_probe=True)
    episode = run_episode(ExpertPolicy(library), state, records, config, report, "s4")
    assert episode.attempts[0].probes_used == 0
    assert episode.success is True  # the expert rulebook needs no probes


def test_transport_error_tags_episode(simple_micro):
    state, records, report = _setup(simple_micro, FailureSpec(FailureType.CPU_SATURATION, "orders"))
    episode = run_episode(ExplodingPolicy(), state, records, LoopConfig(), report, "s5")
    assert episode.success is False
    assert episode.error_tag == "transport-error"


class _ReturnsNone(Policy):
    policy_id = "returns-none"

    def decide(self, inp):
        return None


class _Raises(Policy):
    policy_id = "raises"

    def decide(self, inp):
        raise RuntimeError("policy bug")


def test_policy_errors_end_only_their_own_episode(simple_micro, library):
    """A wrong-type output or an exception from decide() tags that episode; the suite goes on."""
    scenarios = faults.gen_suite(simple_micro, "easy", seed=1)[:6]
    manifest = RunManifest(topology="simple-micro", difficulty="easy", seed=1, policy_id="mixed")
    bad = {1: _ReturnsNone, 4: _Raises}

    def policy_for(i, scenario):
        return bad[i]() if i in bad else ExpertPolicy(library)

    result = run_suite(policy_for, simple_micro, scenarios, manifest)
    assert len(result.episodes) == len(scenarios)
    for i, episode in enumerate(result.episodes):
        if i in bad:
            assert episode.error_tag == "policy-error" and not episode.success
            assert len(episode.attempts) == 1
        else:
            assert episode.error_tag is None and episode.success
    assert "NoneType" in result.episodes[1].attempts[0].error
    assert "RuntimeError: policy bug" in result.episodes[4].attempts[0].error


class _Emits(Policy):
    """Returns one fixed output, whatever it is, at every decision."""

    policy_id = "emits"

    def __init__(self, output):
        self.output = output

    def decide(self, inp):
        return self.output


_MALFORMED_OUTPUTS = {
    "queries-none": ProbeRequest(queries=None),
    "queries-list": ProbeRequest(queries=[cluster.pod_metrics_query("orders")]),
    "query-str": ProbeRequest(queries=("pod_metrics orders",)),
    "query-kind-bogus": ProbeRequest(queries=(ProbeQuery("bogus", service="orders"),)),
    "query-service-int": ProbeRequest(queries=(ProbeQuery(ProbeKind.POD_METRICS, service=3),)),
    "playbook-none": RemedyProposal(None, "", 1, 1),
    "playbook-bytes": RemedyProposal(b"- name: p", "", 1, 1),
    "tokens-in-str": RemedyProposal("", "", "5", 1),
    "tokens-out-float": RemedyProposal("", "", 1, 2.0),
    "tokens-negative": RemedyProposal("", "", -1, 1),
}


@pytest.mark.parametrize("name", sorted(_MALFORMED_OUTPUTS))
def test_malformed_policy_output_is_a_policy_error(simple_micro, library, name):
    """An output whose fields do not have the declared types tags its own
    episode; the suite goes on."""
    scenarios = faults.gen_suite(simple_micro, "easy", seed=1)[:3]
    manifest = RunManifest(topology="simple-micro", difficulty="easy", seed=1, policy_id="mixed")

    def policy_for(i, scenario):
        return _Emits(_MALFORMED_OUTPUTS[name]) if i == 1 else ExpertPolicy(library)

    result = run_suite(policy_for, simple_micro, scenarios, manifest)
    assert [e.error_tag for e in result.episodes] == [None, "policy-error", None]
    assert [e.success for e in result.episodes] == [True, False, True]
    (attempt,) = result.episodes[1].attempts
    assert attempt.probes_used == 0 and attempt.error


def test_verification_and_reflection_use_the_loops_own_report(simple_micro):
    """A policy that points ``inp.report`` at a healthy service is still
    verified, and reflected on, against the report the loop made."""

    class Misdirecting(NoopPolicy):
        def decide(self, inp):
            inp.report = dataclasses.replace(
                inp.report, faults=((FailureType.CPU_SATURATION, "datastore"),)
            )
            return super().decide(inp)

    state, records, report = _setup(simple_micro, FailureSpec(FailureType.CPU_SATURATION, "orders"))
    assert cluster.nominal(state, "datastore")
    config = LoopConfig(t_max=1, verification_mode="observable")
    episode = run_episode(Misdirecting(), state, records, config, report, "s10")
    assert [a.verdict for a in episode.attempts] == [0, 0]
    assert episode.success is False and episode.oracle_verdict is False
    assert episode.observable_verdict is False


def test_reflection_names_the_loops_own_report(simple_micro):
    state, records, report = _setup(simple_micro, FailureSpec(FailureType.CPU_SATURATION, "orders"))
    misdirected = dataclasses.replace(report, faults=((FailureType.CPU_SATURATION, "datastore"),))
    inp = PolicyInput(report=misdirected, context=report.aux_context)
    reflect(inp, _failed_attempt(), state, report)
    assert "still degraded after verification: orders" in [i.text for i in inp.history]


def test_base_policy_decide_is_a_policy_error(simple_micro):
    state, records, report = _setup(simple_micro, FailureSpec(FailureType.CPU_SATURATION, "orders"))
    episode = run_episode(Policy(), state, records, LoopConfig(), report, "s11")
    assert episode.error_tag == "policy-error"
    assert episode.attempts[0].error.startswith("policy raised NotImplementedError")


def _probing_episode(simple_micro, queries, probe_budget):
    """One attempt of a policy that sends ``queries`` once, then proposes an empty playbook."""
    state, records, report = _setup(simple_micro, FailureSpec(FailureType.CPU_SATURATION, "orders"))
    seen = []

    class Prober(Policy):
        def decide(self, inp):
            if not seen:
                seen.append(inp)
                return ProbeRequest(queries=queries)
            return RemedyProposal("", "", 0, 0)

    config = LoopConfig(t_max=0, probe_budget=probe_budget)
    episode = run_episode(Prober(), state, records, config, report)
    return episode, [(i.kind, i.text) for i in seen[0].history]


def test_probe_of_an_unknown_target_is_a_probe_error(simple_micro):
    queries = (cluster.pod_metrics_query("ghost"), cluster.config_get_query("orders", "nope"))
    episode, history = _probing_episode(simple_micro, queries, 5)
    assert episode.error_tag is None and episode.attempts[0].probes_used == 2
    assert history[:2] == [
        ("probe_error", "unknown service 'ghost'"),
        ("probe_error", "unknown config key 'nope' for service 'orders'"),
    ]


def test_request_over_the_remaining_budget_is_cut_and_refused(simple_micro):
    queries = tuple(cluster.pod_metrics_query(s) for s in ("orders", "gateway", "inventory"))
    episode, history = _probing_episode(simple_micro, queries, 2)
    assert episode.attempts[0].probes_used == 2
    assert [kind for kind, _ in history[:3]] == ["probe_result", "probe_result", "probe_refused"]
    assert history[1][1].startswith("pod metrics for gateway")


def test_budget_law_over_randomized_episodes(simple_micro, library):
    rng = np.random.default_rng(0)
    aux = build_aux(simple_micro)
    scenarios = faults.gen_suite(simple_micro, "easy", seed=3)
    config = LoopConfig(t_max=1, settle_steps=1)
    for i in range(60):
        scenario = scenarios[int(rng.integers(len(scenarios)))]
        state = cluster.load_topology(simple_micro, seed=int(rng.integers(1 << 30)))
        records = [faults.inject(state, spec) for spec in scenario.faults]
        report = faults.composite_report([faults.make_report(r, aux) for r in records])
        kind = int(rng.integers(3))
        if kind == 0:
            policy = NoopPolicy()
        elif kind == 1:
            policy = ExpertPolicy(library)
        else:
            policy = ToyPolicy.uniform(library, simple_micro, sample_seed=int(rng.integers(1 << 30)))
        episode = run_episode(policy, state, records, config, report, scenario.scenario_id)
        assert len(episode.attempts) <= config.t_max + 1


def test_observable_mode_episode(simple_micro, library):
    state, records, report = _setup(simple_micro, FailureSpec(FailureType.CPU_SATURATION, "orders"))
    config = LoopConfig(verification_mode="observable")
    episode = run_episode(ExpertPolicy(library), state, records, config, report, "obs")
    assert episode.success is True
    assert episode.oracle_verdict is True and episode.observable_verdict is True


def test_verdict_matches_oracle_in_oracle_mode(simple_micro, library):
    for policy_kind in ("expert", "noop"):
        state, records, report = _setup(
            simple_micro, FailureSpec(FailureType.NETWORK_DELAY, "frontend->gateway")
        )
        policy = ExpertPolicy(library) if policy_kind == "expert" else NoopPolicy()
        episode = run_episode(policy, state, records, LoopConfig(), report, "s6")
        assert episode.success == all(faults.oracle_verify(state, r) for r in records)


# --- observable verification ------------------------------------------------------------


def test_observable_true_after_restore(simple_micro):
    state, records, report = _setup(simple_micro, FailureSpec(FailureType.MEMORY_SATURATION, "gateway"))
    assert observable_verify(state, report) is False
    faults.restore(state, records[0])
    assert observable_verify(state, report) is True


def test_observable_false_while_link_lossy(simple_micro):
    state, records, report = _setup(simple_micro, FailureSpec(FailureType.NETWORK_LOSS, "orders->inventory"))
    assert observable_verify(state, report) is False


def test_observable_tracks_relaxation_timing(simple_micro):
    state, records, report = _setup(simple_micro, FailureSpec(FailureType.CPU_SATURATION, "orders"), settle=20)
    cluster.apply(state, cluster.RemovePerturbation(PerturbationKind.CPU_STRESS, "orders"))
    assert observable_verify(state, report) is False  # cause removed, metric still high
    for _ in range(50):
        cluster.step(state, 1000)
    assert observable_verify(state, report) is True


def test_observable_unknown_target(simple_micro):
    from remlab.errors import NotFoundError

    state = cluster.load_topology(simple_micro, seed=1)
    aux = build_aux(simple_micro)
    for target in ("ghost", "frontend->datastore"):
        report = faults.FailureReport(((FailureType.CPU_SATURATION, target),), "x", aux)
        with pytest.raises(NotFoundError):
            observable_verify(state, report)


# --- reflect ------------------------------------------------------------------------------


def _failed_attempt(**kw):
    trace = ExecutionTrace(
        results=[TaskResult("scale", TaskStatus.FAILED, "unknown service")]
    )
    defaults = dict(
        index=0,
        playbook_text="x",
        struct=check_structure("- name: p\n  hosts: all\n  tasks:\n    - {name: t, shell: echo}\n"),
        safety=SafetyReport(unsafe=False, matched_rules=()),
        trace=trace,
        verdict=0,
        probes_used=0,
    )
    defaults.update(kw)
    return Attempt(**defaults)


def test_reflect_appends_failed_tasks(simple_micro):
    state, records, report = _setup(simple_micro, FailureSpec(FailureType.CPU_SATURATION, "orders"))
    inp = PolicyInput(report=report, context=report.aux_context, history=[])
    reflect(inp, _failed_attempt(), state, report)
    kinds = [i.kind for i in inp.history]
    assert "reflection_failed_tasks" in kinds
    assert any("scale" in i.text for i in inp.history)


def test_reflect_appends_safety_hits(simple_micro):
    state, records, report = _setup(simple_micro, FailureSpec(FailureType.CPU_SATURATION, "orders"))
    inp = PolicyInput(report=report, context=report.aux_context, history=[])
    attempt = _failed_attempt(safety=SafetyReport(unsafe=True, matched_rules=("destructive-fs",)))
    reflect(inp, attempt, state, report)
    assert any("destructive-fs" in i.text for i in inp.history)


def test_reflect_appends_unrecognized_commands(simple_micro):
    state, records, report = _setup(simple_micro, FailureSpec(FailureType.CPU_SATURATION, "orders"))
    inp = PolicyInput(report=report, context=report.aux_context, history=[])
    trace = ExecutionTrace(results=[TaskResult("frob the widget", TaskStatus.UNRECOGNIZED)])
    reflect(inp, _failed_attempt(trace=trace), state, report)
    assert ("reflection_unrecognized", "unrecognized commands in tasks: frob the widget") in [
        (i.kind, i.text) for i in inp.history
    ]


def test_reflect_grows_history_monotonically(simple_micro):
    state, records, report = _setup(simple_micro, FailureSpec(FailureType.CPU_SATURATION, "orders"))
    inp = PolicyInput(report=report, context=report.aux_context, history=[])
    n0 = len(inp.history)
    reflect(inp, _failed_attempt(), state, report)
    n1 = len(inp.history)
    reflect(inp, _failed_attempt(), state, report)
    n2 = len(inp.history)
    assert n0 < n1 < n2
    # report text itself never changes
    assert inp.report is report


class _FirstAttempt(Policy):
    """Outputs ``first`` throughout attempt 0; at attempt 1 records the history
    it sees and proposes an empty playbook."""

    def __init__(self, first):
        self.first = first
        self.seen = None

    def decide(self, inp):
        if inp.attempt_index() == 0:
            return self.first
        self.seen = [(i.kind, i.text) for i in inp.history]
        return RemedyProposal("", "", 0, 0)


@pytest.mark.parametrize(
    "first, told",
    [
        # The first two load as YAML but break the parse rule.
        (RemedyProposal("- name: p\n  hosts: orders\n  tasks:\n    - {name: t, run: x}\n", "", 0, 0), True),
        (RemedyProposal("- name: p\n  hosts: orders\n  tasks: oops\n", "", 0, 0), True),
        (RemedyProposal("", "", 0, 0), True),
        (RemedyProposal("[]", "", 0, 0), False),  # parses, to zero plays
        (ProbeRequest(queries=()), False),
    ],
    ids=["task-without-action", "tasks-not-a-list", "empty-text", "zero-plays", "no-proposal"],
)
def test_reflection_says_did_not_parse_exactly_when_a_proposal_did_not(simple_micro, first, told):
    state, records, report = _setup(simple_micro, FailureSpec(FailureType.CPU_SATURATION, "orders"))
    policy = _FirstAttempt(first)
    run_episode(policy, state, records, LoopConfig(t_max=1), report)
    assert (("reflection_parse", "previous playbook did not parse") in policy.seen) is told


def test_no_reflection_keeps_history_clean(simple_micro, library):
    state, records, report = _setup(simple_micro, FailureSpec(FailureType.CPU_SATURATION, "orders"))
    episode = run_episode(
        NoopPolicy(), state, records, LoopConfig(no_reflection=True), report, "s7"
    )
    assert len(episode.attempts) == 2
    # with reflection off, every history item is a probe/verdict artifact
    # (reflection item kinds never appear)


def test_fenced_proposal_accepted_at_execution(simple_micro, library):
    """The wire format admits a playbook wrapped in a fenced block."""

    class FencedExpert(ExpertPolicy):
        def decide(self, inp):
            out = super().decide(inp)
            if isinstance(out, RemedyProposal):
                out = RemedyProposal(
                    playbook_text=f"```yaml\n{out.playbook_text}```",
                    reasoning_text=out.reasoning_text,
                    tokens_in=out.tokens_in,
                    tokens_out=out.tokens_out,
                )
            return out

    state, records, report = _setup(simple_micro, FailureSpec(FailureType.CPU_SATURATION, "orders"))
    episode = run_episode(FencedExpert(library), state, records, LoopConfig(), report, "s9")
    assert episode.success is True
    assert episode.attempts[0].struct.r_struct == 1.0


def test_deterministic_episode_digests(simple_micro, library):
    results = []
    for _ in range(2):
        state, records, report = _setup(simple_micro, FailureSpec(FailureType.IO_SATURATION, "datastore"))
        episode = run_episode(ExpertPolicy(library), state, records, LoopConfig(), report, "s8")
        results.append((episode.final_digest, episode.tokens_in, episode.tokens_out))
    assert results[0] == results[1]
