import math

import pytest
from hypothesis import given, settings, strategies as st

from remlab import cluster
from remlab.cluster import (
    ClearLinkShaping,
    KillProcess,
    Noop,
    PerturbationKind,
    PodPhase,
    RECOVERY_BAND,
    RELAX_TAU_MS,
    RemovePerturbation,
    RestartPod,
    RestartService,
    ScaleService,
    SetConfig,
    digest,
    load_topology,
    observe,
    step,
)
from remlab.errors import InvalidArgumentError, NotFoundError
from remlab.topology import parse_topology


def _mini():
    return parse_topology(
        {
            "name": "mini",
            "services": [
                {
                    "name": "a",
                    "replicas": 1,
                    "config": {"k": "v"},
                    "baseline": {"cpu_pct": 25.0, "mem_pct": 40.0, "io_await_ms": 5.0},
                },
                {"name": "b", "replicas": 2, "dependencies": []},
            ],
            "links": [{"src": "a", "dst": "b", "base_latency_ms": 2.0}],
        }
    )


def test_load_minimal_topology():
    topology = parse_topology({"name": "t", "services": [{"name": "a", "replicas": 1}]})
    state = load_topology(topology, seed=0)
    assert len(state.pods) == 1
    assert state.pods[0].phase == PodPhase.RUNNING
    assert state.clock_ms == 0


def test_load_is_deterministic(simple_micro):
    digests = {digest(load_topology(simple_micro, seed=7)) for _ in range(10)}
    assert len(digests) == 1


def test_different_seed_same_boot_digest_differs_after_step(simple_micro):
    s1 = step(load_topology(simple_micro, seed=1), 1000)
    s2 = step(load_topology(simple_micro, seed=2), 1000)
    assert digest(s1) != digest(s2)


def test_clock_arithmetic(state):
    before = state.clock_ms
    step(state, 1000)
    assert state.clock_ms == before + 1000


def test_step_rejects_nonpositive_dt(state):
    with pytest.raises(InvalidArgumentError):
        step(state, 0)


def test_healthy_pod_stays_in_noise_band(state):
    for _ in range(50):
        step(state, 1000)
    for pod in state.pods:
        baseline = state.topology.service(pod.service).baseline
        assert abs(pod.cpu_pct - baseline.cpu_pct) <= RECOVERY_BAND
        assert abs(pod.mem_pct - baseline.mem_pct) <= RECOVERY_BAND
        assert abs(pod.io_await_ms - baseline.io_await_ms) <= RECOVERY_BAND


def test_stress_setpoint_convergence(state):
    cluster.add_perturbation(state, PerturbationKind.CPU_STRESS, "orders", 95.0)
    for _ in range(50):
        step(state, 1000)
    for pod in state.service_pods("orders"):
        assert pod.cpu_pct >= 90.0


def test_step_never_removes_perturbations(state):
    pert = cluster.add_perturbation(state, PerturbationKind.MEM_STRESS, "gateway", 95.0)
    for _ in range(20):
        step(state, 1000)
    assert pert in state.perturbations


def test_relaxation_rate_matches_time_constant():
    # one deterministic check of the update rule with noise disabled by hand
    alpha = 1.0 - math.exp(-1000.0 / RELAX_TAU_MS)
    assert 0.18 < alpha < 0.19


# --- observe ---------------------------------------------------------------------


def test_pod_metrics_identity_read(state):
    result = observe(state, cluster.pod_metrics_query("frontend"))
    baseline = state.topology.service("frontend").baseline
    for pod in result.payload["pods"]:
        assert pod["cpu_pct"] == pytest.approx(baseline.cpu_pct)
    assert "frontend-0" in result.text


def test_observe_unknown_service(state):
    with pytest.raises(NotFoundError):
        observe(state, cluster.pod_metrics_query("ghost"))
    with pytest.raises(NotFoundError):
        observe(state, cluster.config_get_query("frontend", "ghost-key"))
    with pytest.raises(NotFoundError):
        observe(state, cluster.link_stats_query("frontend", "datastore"))


def test_config_read_your_write(state):
    cluster.apply(state, SetConfig("frontend", "log_level", "debug"))
    result = observe(state, cluster.config_get_query("frontend", "log_level"))
    assert result.payload["value"] == "debug"
    assert result.payload["declared"] == "info"


def test_observe_is_pure(state):
    step(state, 1000)
    before = digest(state)
    observe(state, cluster.pod_metrics_query("orders"))
    observe(state, cluster.topology_summary_query())
    observe(state, cluster.link_stats_query("frontend", "gateway"))
    observe(state, cluster.pod_list_query("datastore"))
    assert digest(state) == before


def test_topology_summary_probe_includes_declared_config(state):
    result = observe(state, cluster.topology_summary_query())
    assert "postgres://orders-db:5432/orders" in result.text


# --- apply -----------------------------------------------------------------------


def test_restart_pod_heals_crashloop(state):
    pod = state.service_pods("orders")[0]
    pod.phase = PodPhase.CRASH_LOOP
    restarts = pod.restarts
    cluster.apply(state, RestartPod(pod.pod_id))
    assert pod.phase == PodPhase.RUNNING
    assert pod.restarts == restarts + 1


def test_restart_clears_in_pod_stress_but_not_links(state):
    cluster.add_perturbation(state, PerturbationKind.CPU_STRESS, "orders", 95.0)
    cluster.add_perturbation(state, PerturbationKind.NET_DELAY, "frontend->gateway", 300.0)
    cluster.apply(state, RestartService("orders"))
    kinds = {p.kind for p in state.perturbations}
    assert PerturbationKind.CPU_STRESS not in kinds
    assert PerturbationKind.NET_DELAY in kinds


def test_remove_perturbation_decrements_by_one(state):
    cluster.add_perturbation(state, PerturbationKind.CPU_STRESS, "orders", 95.0)
    n = len(state.perturbations)
    cluster.apply(state, RemovePerturbation(PerturbationKind.CPU_STRESS, "orders"))
    assert len(state.perturbations) == n - 1


def test_scale_up_and_down(state):
    cluster.apply(state, ScaleService("orders", 4))
    assert len(state.service_pods("orders")) == 4
    cluster.apply(state, ScaleService("orders", 1))
    assert len(state.service_pods("orders")) == 1
    _, outcome = cluster.apply(state, ScaleService("orders", 1))
    assert outcome.changed is False


def test_scale_to_zero_is_legal_but_negative_is_not(state):
    cluster.apply(state, ScaleService("orders", 0))
    assert state.service_pods("orders") == []
    with pytest.raises(InvalidArgumentError):
        cluster.apply(state, ScaleService("orders", -1))


def test_set_config_round_trips(state):
    cluster.apply(state, SetConfig("orders", "retry_limit", "9"))
    result = observe(state, cluster.config_get_query("orders", "retry_limit"))
    assert result.payload["value"] == "9"


def test_kill_process_removes_perturbation(state):
    pert = cluster.add_perturbation(state, PerturbationKind.IO_STRESS, "datastore", 500.0)
    assert pert.handle in state.process_table
    cluster.apply(state, KillProcess(pert.handle))
    assert pert.handle not in state.process_table
    assert pert not in state.perturbations
    with pytest.raises(NotFoundError):
        cluster.apply(state, KillProcess(pert.handle))


def test_clear_link_shaping_snaps_metrics(state):
    cluster.add_perturbation(state, PerturbationKind.NET_LOSS, "frontend->gateway", 40.0)
    for _ in range(20):
        step(state, 1000)
    link = state.find_link("frontend", "gateway")
    assert link.loss_pct > 30.0
    cluster.apply(state, ClearLinkShaping("frontend", "gateway"))
    assert link.loss_pct == 0.0
    assert not state.active(PerturbationKind.NET_LOSS, "frontend->gateway")


def test_unknown_targets_raise(state):
    with pytest.raises(NotFoundError):
        cluster.apply(state, RestartPod("ghost-0"))
    with pytest.raises(NotFoundError):
        cluster.apply(state, RestartService("ghost"))
    with pytest.raises(NotFoundError):
        cluster.apply(state, SetConfig("orders", "ghost-key", "x"))
    with pytest.raises(NotFoundError):
        cluster.apply(state, ClearLinkShaping("frontend", "datastore"))


def test_noop_changes_nothing(state):
    before = digest(state)
    _, outcome = cluster.apply(state, Noop(note="hello"))
    assert outcome.changed is False
    assert digest(state) == before


def test_config_corruption_crashes_pods_after_one_step(state):
    cluster.apply(state, SetConfig("orders", "db_url", "bogus"))
    assert all(p.phase == PodPhase.RUNNING for p in state.service_pods("orders"))
    step(state, 1000)
    assert all(p.phase == PodPhase.CRASH_LOOP for p in state.service_pods("orders"))
    # fix value, restart, pods stay up
    cluster.apply(state, SetConfig("orders", "db_url", "postgres://orders-db:5432/orders"))
    cluster.apply(state, RestartService("orders"))
    step(state, 1000)
    assert all(p.phase == PodPhase.RUNNING for p in state.service_pods("orders"))


# --- determinism and boundedness (property style) -----------------------------------

_ACTION_CODES = st.tuples(st.integers(0, 5), st.integers(0, 4))


def _decode_action(code, state):
    kind, which = code
    services = list(state.topology.services)
    svc = services[which % len(services)]
    if kind == 0:
        return RestartService(svc)
    if kind == 1:
        return ScaleService(svc, (which % 3) + 1)
    if kind == 2:
        pods = state.service_pods(svc)
        return RestartPod(pods[0].pod_id) if pods else Noop()
    if kind == 3:
        spec = state.topology.service(svc)
        keys = sorted(spec.config)
        return SetConfig(svc, keys[0], "zz") if keys else Noop()
    if kind == 4:
        return RemovePerturbation(PerturbationKind.CPU_STRESS, svc)
    return Noop()


@settings(max_examples=40, deadline=None)
@given(codes=st.lists(_ACTION_CODES, max_size=8), steps=st.integers(1, 5))
def test_same_operations_same_digest(codes, steps):
    topo = _mini()
    states = []
    for _ in range(2):
        s = load_topology(topo, seed=42)
        for code in codes:
            try:
                cluster.apply(s, _decode_action(code, s))
            except (NotFoundError, InvalidArgumentError):
                pass
        for _ in range(steps):
            step(s, 500)
        states.append(s)
    assert digest(states[0]) == digest(states[1])


@settings(max_examples=40, deadline=None)
@given(
    codes=st.lists(_ACTION_CODES, max_size=6),
    kinds=st.lists(st.sampled_from(list(PerturbationKind)), max_size=3),
    steps=st.integers(1, 30),
)
def test_metrics_stay_bounded(codes, kinds, steps):
    topo = _mini()
    s = load_topology(topo, seed=9)
    for kind in kinds:
        target = "a->b" if kind in cluster.LINK_KINDS else "a"
        cluster.add_perturbation(s, kind, target, 95.0)
    for code in codes:
        try:
            cluster.apply(s, _decode_action(code, s))
        except (NotFoundError, InvalidArgumentError):
            pass
    for _ in range(steps):
        step(s, 1000)
    for pod in s.pods:
        assert 0.0 <= pod.cpu_pct <= 100.0
        assert 0.0 <= pod.mem_pct <= 100.0
        assert pod.io_await_ms >= 0.0
    for link in s.links:
        assert 0.0 <= link.loss_pct <= 100.0
        assert link.added_delay_ms >= 0.0
    # referential integrity
    for pod in s.pods:
        assert pod.service in s.topology.services
    for pert in s.perturbations:
        if pert.kind in cluster.LINK_KINDS:
            src, dst = cluster.split_link_key(pert.target)
            assert s.find_link(src, dst) is not None
        else:
            assert pert.target in s.topology.services
