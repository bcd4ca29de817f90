import hashlib
import math

import numpy as np
import pytest

from remlab import cluster, faults, yamlio
from remlab.errors import InvalidArgumentError, TranscriptExhaustedError
from remlab.faults import FailureSpec, FailureType, build_aux, make_report
from remlab.policies import (
    CONTEXT_CLASSES,
    ExpertPolicy,
    HistoryItem,
    N_CONTEXT_CLASSES,
    NoopPolicy,
    PolicyInput,
    ProbeRequest,
    RemedyProposal,
    ReplayPolicy,
    ToyPolicy,
    classify_context,
    build_default_library,
    context_probes,
)
from remlab.topology import BUNDLED_TOPOLOGIES, bundled_topology, parse_topology

SEED = 13


def _episode_input(simple_micro, spec, state_seed=5, settle=10):
    state = cluster.load_topology(simple_micro, seed=state_seed)
    record = faults.inject(state, spec)
    for _ in range(settle):
        cluster.step(state, 1000)
    aux = build_aux(simple_micro)
    report = make_report(record, aux)
    return state, record, PolicyInput(report=report, context=aux, history=[])


def _serve_probes(state, inp, request):
    for query in request.queries:
        result = cluster.observe(state, query)
        inp.history.append(HistoryItem("probe_result", result.text, dict(result.payload)))


# --- expert ------------------------------------------------------------------------


def test_expert_probes_once_then_proposes(simple_micro, library):
    spec = FailureSpec(FailureType.CPU_SATURATION, "orders")
    state, record, inp = _episode_input(simple_micro, spec)
    expert = ExpertPolicy(library)
    first = expert.decide(inp)
    assert isinstance(first, ProbeRequest)
    _serve_probes(state, inp, first)
    second = expert.decide(inp)
    assert isinstance(second, RemedyProposal)
    assert "pkill cpu_stress-orders" in second.playbook_text
    assert "rollout restart deploy orders" in second.playbook_text
    assert second.tokens_in > 0 and second.tokens_out > 0


@pytest.mark.parametrize("ftype", list(FailureType))
def test_expert_proposal_remediates_every_type(simple_micro, library, ftype):
    target = faults.candidate_targets(simple_micro, ftype)[0]
    state, record, inp = _episode_input(simple_micro, FailureSpec(ftype, target))
    expert = ExpertPolicy(library)
    out = expert.decide(inp)
    if isinstance(out, ProbeRequest):
        _serve_probes(state, inp, out)
        out = expert.decide(inp)
    from remlab.playbook import execute, parse_playbook

    execute(parse_playbook(out.playbook_text), state)
    for _ in range(10):
        cluster.step(state, 1000)
    assert faults.oracle_verify(state, record) is True


def test_noop_never_remediates(simple_micro, library):
    spec = FailureSpec(FailureType.POD_FAILURE, "frontend")
    state, record, inp = _episode_input(simple_micro, spec)
    out = NoopPolicy().decide(inp)
    assert isinstance(out, RemedyProposal)
    assert out.playbook_text == ""


def test_replay_policy_exhaustion():
    proposal = RemedyProposal("", "r", 1, 1)
    policy = ReplayPolicy([proposal])
    inp = PolicyInput(report=None, context=None)
    assert policy.decide(inp) is proposal
    with pytest.raises(TranscriptExhaustedError):
        policy.decide(inp)


# --- policies cannot see ground truth -------------------------------------------------


def test_policy_input_carries_no_record_fields():
    field_names = {f for f in PolicyInput.__dataclass_fields__}
    assert field_names == {"report", "context", "history"}


# --- toy policy ------------------------------------------------------------------------


def test_uniform_logprob(library, simple_micro):
    policy = ToyPolicy.uniform(library, simple_micro)
    for a in range(len(library)):
        assert policy.logprob(0, a) == pytest.approx(-math.log(len(library)))


def test_uniform_logprob_four_actions(library, simple_micro):
    from remlab.policies import TemplateLibrary

    small = TemplateLibrary(simple_micro, library.templates[:4])
    policy = ToyPolicy.uniform(small, simple_micro)
    for a in range(4):
        assert policy.logprob(3, a) == pytest.approx(-math.log(4), abs=1e-12)


def test_softmax_normalization(library, simple_micro):
    rng = np.random.default_rng(0)
    policy = ToyPolicy(rng.normal(size=(N_CONTEXT_CLASSES, len(library))), library, simple_micro)
    for f in range(N_CONTEXT_CLASSES):
        total = sum(math.exp(policy.logprob(f, a)) for a in range(len(library)))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_grad_logprob_matches_finite_differences(library, simple_micro):
    rng = np.random.default_rng(3)
    theta = rng.normal(scale=0.5, size=(N_CONTEXT_CLASSES, len(library)))
    policy = ToyPolicy(theta, library, simple_micro)
    f, a = 5, 2
    analytic = policy.grad_logprob(f, a)
    h = 1e-5
    for j in range(len(library)):
        plus = theta.copy()
        plus[f, j] += h
        minus = theta.copy()
        minus[f, j] -= h
        numeric = (
            ToyPolicy(plus, library, simple_micro).logprob(f, a)
            - ToyPolicy(minus, library, simple_micro).logprob(f, a)
        ) / (2 * h)
        rel = abs(analytic[j] - numeric) / max(abs(numeric), 1e-12)
        assert rel <= 1e-6


def test_toy_sampling_is_reproducible(simple_micro, library):
    spec = FailureSpec(FailureType.MEMORY_SATURATION, "gateway")
    state, record, inp = _episode_input(simple_micro, spec)
    policy = ToyPolicy.uniform(library, simple_micro, sample_seed=SEED)
    request = policy.decide(inp)
    assert isinstance(request, ProbeRequest)
    _serve_probes(state, inp, request)
    out1 = policy.decide(inp)
    out2 = policy.decide(inp)
    assert isinstance(out1, RemedyProposal)
    assert out1.playbook_text == out2.playbook_text
    # a different seed eventually samples differently somewhere
    other = ToyPolicy.uniform(library, simple_micro, sample_seed=SEED + 1)
    outputs = set()
    for s in range(6):
        p = ToyPolicy.uniform(library, simple_micro, sample_seed=s)
        outputs.add(p.decide(inp).playbook_text)
    assert len(outputs) > 1


def test_context_classification_flags(simple_micro, library):
    spec = FailureSpec(FailureType.CPU_SATURATION, "orders")
    state, record, inp = _episode_input(simple_micro, spec)
    policy = ToyPolicy.uniform(library, simple_micro, sample_seed=0)
    request = policy.decide(inp)
    _serve_probes(state, inp, request)
    f = classify_context(inp, simple_micro)
    ftype, target_degraded, dep_degraded = CONTEXT_CLASSES[f]
    assert ftype == FailureType.CPU_SATURATION
    assert target_degraded is True  # stressed metric is far out of band
    assert dep_degraded is False


def test_context_classification_without_probes_defaults_false(simple_micro):
    aux = build_aux(simple_micro)
    state = cluster.load_topology(simple_micro, seed=5)
    record = faults.inject(state, FailureSpec(FailureType.NETWORK_LOSS, "orders->inventory"))
    report = make_report(record, aux)
    inp = PolicyInput(report=report, context=aux, history=[])
    f = classify_context(inp, simple_micro)
    assert CONTEXT_CLASSES[f] == (FailureType.NETWORK_LOSS, False, False)


def test_theta_must_match_the_library(library, simple_micro):
    with pytest.raises(InvalidArgumentError, match="theta must have shape"):
        ToyPolicy(np.zeros((N_CONTEXT_CLASSES, len(library) + 1)), library, simple_micro)


def test_link_template_on_an_unlinked_service_shapes_the_first_link():
    """A link template aimed at a service that no link touches clears the
    topology's first link."""
    topology = parse_topology(
        "name: t\n"
        "services: [{name: a}, {name: b}, {name: c}]\n"
        "links: [{src: a, dst: b}, {src: b, dst: a}]\n"
    )
    doc = build_default_library(topology).play_doc(4, FailureType.CPU_SATURATION, "c")
    assert doc["hosts"] == "a"
    assert [task["shell"] for task in doc["tasks"]] == ["tc qdisc del dev a:b netem delay"]


def test_template_library_shape(library):
    assert len(library) == 8
    fixed = {t.fixes for t in library.templates if t.fixes is not None}
    assert fixed == set(FailureType)
    distractors = [t for t in library.templates if t.fixes is None]
    assert len(distractors) == 1


def test_every_template_render_is_pinned():
    """Every template against every target a fault type can name, and every service:
    3,456 renders on the bundled topologies, hashed as they were first pinned."""
    digest = hashlib.sha256()
    renders = 0
    for name in BUNDLED_TOPOLOGIES:
        topo = bundled_topology(name)
        library = build_default_library(topo)
        for ftype in FailureType:
            for target in faults.candidate_targets(topo, ftype) + list(topo.services):
                for action_id in range(len(library)):
                    digest.update(yamlio.dump([library.play_doc(action_id, ftype, target)]).encode())
                    renders += 1
    assert renders == 3456
    assert digest.hexdigest() == "e368c4084751c6375d6fb3d646cc60a56c51ba113b5b51be0a70d9ad222dac89"


def test_toy_policy_first_probes_are_the_context_probes(simple_micro, library):
    spec = FailureSpec(FailureType.CPU_SATURATION, "orders")
    _, _, inp = _episode_input(simple_micro, spec)
    request = ToyPolicy.uniform(library, simple_micro).decide(inp)
    assert request.queries == context_probes(inp.report, simple_micro) == (
        cluster.pod_metrics_query("orders"),
        cluster.pod_metrics_query("inventory"),
    )
