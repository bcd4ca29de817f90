import gc
import math
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from remlab import cluster
from remlab.cluster import (
    ClearLinkShaping,
    KillProcess,
    Noop,
    PHASE_CODE,
    PHASES,
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
        """
name: mini
services:
  - name: a
    replicas: 1
    config: {k: v}
    baseline: {cpu_pct: 25.0, mem_pct: 40.0, io_await_ms: 5.0}
  - {name: b, replicas: 2, dependencies: []}
links:
  - {src: a, dst: b, base_latency_ms: 2.0}
"""
    )


def test_load_minimal_topology():
    topology = parse_topology("name: t\nservices: [{name: a, replicas: 1}]\n")
    state = load_topology(topology, seed=0)
    assert len(state.pods) == 1
    assert PHASES[state.pod_phase[0]] == PodPhase.RUNNING
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
    for pod, (cpu, mem, io) in zip(state.pods, state.pod_metrics.tolist()):
        baseline = state.topology.service(pod.service).baseline
        assert abs(cpu - baseline.cpu_pct) <= RECOVERY_BAND
        assert abs(mem - baseline.mem_pct) <= RECOVERY_BAND
        assert abs(io - baseline.io_await_ms) <= RECOVERY_BAND


def test_stress_setpoint_convergence(state):
    cluster.add_perturbation(state, PerturbationKind.CPU_STRESS, "orders", 95.0)
    for _ in range(50):
        step(state, 1000)
    for row in state.service_rows("orders"):
        assert state.pod_metrics[row, 0] >= 90.0  # cpu_pct


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
    with pytest.raises(NotFoundError, match="unknown service 'ghost'"):
        observe(state, cluster.config_get_query("ghost", "k"))
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
    row = state.service_rows("orders")[0]
    pod = state.pods[row]
    state.pod_phase[row] = PHASE_CODE[PodPhase.CRASH_LOOP]
    restarts = pod.restarts
    cluster.apply(state, RestartPod(pod.pod_id))
    assert PHASES[state.pod_phase[row]] == PodPhase.RUNNING
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
    assert len(state.service_rows("orders")) == 4
    cluster.apply(state, ScaleService("orders", 1))
    assert len(state.service_rows("orders")) == 1
    _, outcome = cluster.apply(state, ScaleService("orders", 1))
    assert outcome.changed is False


def test_scale_to_zero_is_legal_but_negative_is_not(state):
    cluster.apply(state, ScaleService("orders", 0))
    assert state.service_rows("orders") == []
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
    row = state.link("frontend", "gateway")
    assert state.link_metrics[row, 1] > 30.0  # loss_pct
    cluster.apply(state, ClearLinkShaping("frontend", "gateway"))
    assert state.link_metrics[row, 1] == 0.0
    assert not state.active(PerturbationKind.NET_LOSS, "frontend->gateway")


def test_unknown_targets_raise(state):
    with pytest.raises(NotFoundError):
        cluster.apply(state, RestartPod("ghost-0"))
    with pytest.raises(NotFoundError):
        cluster.apply(state, RestartService("ghost"))
    with pytest.raises(NotFoundError):
        cluster.apply(state, SetConfig("orders", "ghost-key", "x"))
    with pytest.raises(NotFoundError, match="unknown service 'ghost'"):
        cluster.apply(state, SetConfig("ghost", "k", "x"))
    with pytest.raises(NotFoundError):
        cluster.apply(state, ClearLinkShaping("frontend", "datastore"))


def test_unknown_probe_kind_and_action_type_raise(state):
    with pytest.raises(InvalidArgumentError, match="unknown probe kind 'bogus'"):
        observe(state, cluster.ProbeQuery("bogus"))
    with pytest.raises(InvalidArgumentError, match="unknown action"):
        cluster.apply(state, "kubectl get pods")


def test_split_link_key_needs_both_endpoints():
    for target in ("orders", "orders->", "->orders"):
        with pytest.raises(InvalidArgumentError, match="not a link identifier"):
            cluster.split_link_key(target)


def test_a_dropped_cluster_is_freed_without_the_cycle_collector(simple_micro):
    """Nothing a cluster holds refers back to it, so the last reference going frees it."""
    gc.disable()
    try:
        state = load_topology(simple_micro, seed=3)
        cluster.add_perturbation(state, PerturbationKind.NET_LOSS, "frontend->gateway", 40.0)
        cluster.apply(state, ScaleService("orders", 4))
        cluster.apply(state, ScaleService("orders", 1))
        step(state, 1000)
        observe(state, cluster.pod_metrics_query("orders"))
        dropped = weakref.ref(state)
        del state
        assert dropped() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("offset", [-RECOVERY_BAND, RECOVERY_BAND])
def test_the_recovery_band_is_closed(offset):
    """A metric exactly at baseline +/- RECOVERY_BAND is nominal; one ulp further out is not."""
    state = load_topology(_mini(), seed=0)
    row = state.service_rows("a")[0]
    edge = 25.0 + offset  # cpu_pct baseline of service a
    state.pod_metrics[row, 0] = edge
    assert cluster.nominal(state, "a")
    state.pod_metrics[row, 0] = math.nextafter(edge, math.copysign(math.inf, offset))
    assert not cluster.nominal(state, "a")
    assert cluster.nominal(state, "a", ("mem_pct",))

    state.link_metrics[0, 1] = RECOVERY_BAND  # loss_pct of a->b
    assert cluster.nominal(state, "a->b")
    state.link_metrics[0, 1] = math.nextafter(RECOVERY_BAND, math.inf)
    assert not cluster.nominal(state, "a->b")
    assert cluster.nominal(state, "a->b", ("added_delay_ms",))


def test_noop_changes_nothing(state):
    before = digest(state)
    _, outcome = cluster.apply(state, Noop(note="hello"))
    assert outcome.changed is False
    assert digest(state) == before


def test_config_corruption_crashes_pods_after_one_step(state):
    cluster.apply(state, SetConfig("orders", "db_url", "bogus"))
    assert all(PHASES[state.pod_phase[r]] == PodPhase.RUNNING for r in state.service_rows("orders"))
    step(state, 1000)
    assert all(PHASES[state.pod_phase[r]] == PodPhase.CRASH_LOOP for r in state.service_rows("orders"))
    # fix value, restart, pods stay up
    cluster.apply(state, SetConfig("orders", "db_url", "postgres://orders-db:5432/orders"))
    cluster.apply(state, RestartService("orders"))
    step(state, 1000)
    assert all(PHASES[state.pod_phase[r]] == PodPhase.RUNNING for r in state.service_rows("orders"))


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
        rows = state.service_rows(svc)
        return RestartPod(state.pods[rows[0]].pod_id) if rows else Noop()
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
    for cpu, mem, io in s.pod_metrics.tolist():
        assert 0.0 <= cpu <= 100.0
        assert 0.0 <= mem <= 100.0
        assert io >= 0.0
    for delay, loss in s.link_metrics.tolist():
        assert 0.0 <= loss <= 100.0
        assert delay >= 0.0
    # referential integrity
    for pod in s.pods:
        assert pod.service in s.topology.services
    for pert in s.perturbations:
        if pert.kind in cluster.LINK_KINDS:
            src, dst = cluster.split_link_key(pert.target)
            assert s.link(src, dst) is not None
        else:
            assert pert.target in s.topology.services
