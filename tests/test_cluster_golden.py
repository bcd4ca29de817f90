"""The simulator's numbers, pinned.

``GOLDEN`` was recorded with the per-pod scalar ``step`` that
``_reference_step`` below keeps. A change to any value here is a behaviour
change of the simulator, not an optimisation.
"""

import hashlib
import json
import math

from hypothesis import given, settings, strategies as st

from remlab import cluster, faults
from remlab.cluster import (
    ClearLinkShaping,
    KillProcess,
    NOISE_SIGMA,
    PerturbationKind,
    PodPhase,
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
from remlab.faults import FailureSpec, FailureType
from remlab.topology import BUNDLED_TOPOLOGIES, bundled_topology


def _probe_texts(state):
    texts = []
    for svc in state.topology.services:
        texts.append(observe(state, cluster.pod_metrics_query(svc)).text)
        texts.append(observe(state, cluster.pod_list_query(svc)).text)
    for link in state.topology.links:
        texts.append(observe(state, cluster.link_stats_query(link.src, link.dst)).text)
    return hashlib.blake2b("\n".join(texts).encode(), digest_size=8).hexdigest()


def _digest_modulo_clock_and_restarts(state):
    """``digest`` of the state with its clock left out and every restart count None."""
    doc = cluster.state_doc(state)
    del doc["clock_ms"]
    doc["pods"] = [[*pod[:-1], None] for pod in doc["pods"]]
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(blob.encode("utf-8"), digest_size=8).hexdigest()


def _trajectory(name):
    """Every fault type, then every action kind, with steps of several lengths between."""
    topo = bundled_topology(name)
    state = load_topology(topo, seed=23)
    services = list(topo.services)
    links = [cluster.link_key(l.src, l.dst) for l in topo.links]
    configured = next(s for s in services if topo.service(s).config)
    marks = [digest(state)]

    def settle(n, dt_ms=1000):
        for _ in range(n):
            step(state, dt_ms)
        marks.append(digest(state))

    def act(action):
        cluster.apply(state, action)

    records = [
        faults.inject(state, FailureSpec(FailureType.CPU_SATURATION, services[0])),
        faults.inject(state, FailureSpec(FailureType.MEMORY_SATURATION, services[1])),
        faults.inject(state, FailureSpec(FailureType.IO_SATURATION, services[2])),
        faults.inject(state, FailureSpec(FailureType.POD_FAILURE, services[3])),
        faults.inject(state, FailureSpec(FailureType.CONFIG_ERROR, configured)),
        faults.inject(state, FailureSpec(FailureType.NETWORK_LOSS, links[0])),
        faults.inject(state, FailureSpec(FailureType.NETWORK_DELAY, links[1])),
    ]
    settle(3, 500)
    act(RestartPod(state.service_pods(services[3])[0].pod_id))
    settle(1)
    act(RestartService(services[0]))
    settle(2, 2000)
    act(ScaleService(services[1], topo.service(services[1]).desired_replicas + 2))
    # Scaled up and restarted while its config is corrupted: crashes again.
    act(ScaleService(configured, len(state.service_pods(configured)) + 1))
    act(RestartService(configured))
    settle(1)
    act(ScaleService(services[1], 1))
    settle(1)
    act(ScaleService(services[4], 0))
    settle(1, 700)
    (key, original), = records[4].original_values.items()
    act(SetConfig(configured, key, original))
    act(RestartService(configured))
    settle(1)
    act(KillProcess(records[2].handles[0]))
    settle(1)
    act(ClearLinkShaping(*cluster.split_link_key(links[0])))
    settle(1)
    faults.restore(state, records[6])
    faults.restore(state, records[1])
    settle(2)
    act(ScaleService(services[4], 2))
    settle(3, 1500)
    marks.append(_digest_modulo_clock_and_restarts(state))
    return {
        "digests": marks,
        "oracle": [faults.oracle_verify(state, r) for r in records],
        "probes": _probe_texts(state),
    }


GOLDEN = {
    "simple-micro": {
        "digests": [
            "3d49dbebe7672352", "ab62b846754c5ba8", "4f67417da2b4baa2", "a6262a59d5ae7feb",
            "23fe1742eb84bbd4", "f3b25c632163c92a", "6d2b5a1b326b9827", "69731c6d8186d2c5",
            "7ebb275ab0cf2ca5", "fb7c4ce6e9e5dc3d", "aac341d2ed3d5013", "ae8f21529582505f",
            "0f7a6f1df2ea430b",
        ],
        "oracle": [True, True, False, True, True, True, True],
        "probes": "8f60b027965590d0",
    },
    "boutique-like": {
        "digests": [
            "1533c3622c00d403", "4d0abe05ccb2c3d1", "d5b1aa2d817eee05", "46c7844c2553ee8f",
            "30026f70c4aedd22", "5b2ed4e5d47e48fd", "db4cd657002527ea", "37ec108549638107",
            "75a7887a58d8e9bc", "f3612f8708dd10e3", "16269b6d7f299d61", "d5ea2df3e93a6ba4",
            "8982216b451fdadc",
        ],
        "oracle": [True, True, False, True, True, True, True],
        "probes": "3737b594d69c5c02",
    },
    "ticket-like": {
        "digests": [
            "fd497be79e56ecd3", "e9ecb150a9318803", "f3bbc5ca2bf095b0", "7b42e2b6c6cc6c3b",
            "c599c7839d837c68", "e4c66b2e166b7ceb", "bf340ab1adfac4fa", "97d5b6d9250c3881",
            "780950f9ea1b5ad2", "6961050fb017dccf", "9313a3f4157774a9", "257c594e3efdd28b",
            "62ec6403fba7caac",
        ],
        "oracle": [True, True, False, True, True, True, True],
        "probes": "83c3c4f810e6ca7b",
    },
}


def test_golden_trajectories_are_byte_identical():
    assert sorted(GOLDEN) == sorted(BUNDLED_TOPOLOGIES)
    for name in BUNDLED_TOPOLOGIES:
        assert _trajectory(name) == GOLDEN[name], name


# --- step against the scalar reference ---------------------------------------------


def _clamp(value, lo, hi):
    return float(min(hi, max(lo, value)))


_STRESS_METRIC = {
    PerturbationKind.CPU_STRESS: "cpu_pct",
    PerturbationKind.MEM_STRESS: "mem_pct",
    PerturbationKind.IO_STRESS: "io_await_ms",
}


def _reference_step(state, dt_ms):
    """The per-pod, per-link loop that ``step`` vectorises, on the same storage."""
    state.clock_ms += dt_ms
    alpha = 1.0 - math.exp(-dt_ms / RELAX_TAU_MS)
    rng = state._rng

    stress_setpoints = {}
    for pert in state.perturbations:
        if pert.kind in cluster.STRESS_KINDS:
            stress_setpoints[(pert.target, _STRESS_METRIC[pert.kind])] = pert.magnitude

    for pod in state.pods:
        spec = state.topology.service(pod.service)
        if pod.phase == PodPhase.RUNNING:
            targets = {
                "cpu_pct": spec.baseline.cpu_pct,
                "mem_pct": spec.baseline.mem_pct,
                "io_await_ms": spec.baseline.io_await_ms,
            }
            for metric in targets:
                override = stress_setpoints.get((pod.service, metric))
                if override is not None:
                    targets[metric] = override
        else:
            targets = {"cpu_pct": 0.0, "mem_pct": 0.0, "io_await_ms": 0.0}
        noise = rng.normal(0.0, NOISE_SIGMA, size=3)
        pod.cpu_pct = _clamp(pod.cpu_pct + alpha * (targets["cpu_pct"] + noise[0] - pod.cpu_pct), 0.0, 100.0)
        pod.mem_pct = _clamp(pod.mem_pct + alpha * (targets["mem_pct"] + noise[1] - pod.mem_pct), 0.0, 100.0)
        pod.io_await_ms = float(max(0.0, pod.io_await_ms + alpha * (targets["io_await_ms"] + noise[2] - pod.io_await_ms)))

    delay_setpoints = {}
    loss_setpoints = {}
    for pert in state.perturbations:
        if pert.kind == PerturbationKind.NET_DELAY:
            delay_setpoints[pert.target] = pert.magnitude
        elif pert.kind == PerturbationKind.NET_LOSS:
            loss_setpoints[pert.target] = pert.magnitude

    for link in state.links:
        noise = rng.normal(0.0, NOISE_SIGMA, size=2)
        delay_target = delay_setpoints.get(link.key, 0.0)
        loss_target = loss_setpoints.get(link.key, 0.0)
        link.added_delay_ms = float(max(0.0, link.added_delay_ms + alpha * (delay_target + noise[0] - link.added_delay_ms)))
        link.loss_pct = _clamp(link.loss_pct + alpha * (loss_target + noise[1] - link.loss_pct), 0.0, 100.0)

    for spec in state.topology.services.values():
        corrupted = any(
            state.config_store.get((spec.name, key)) != value
            for key, value in spec.config.items()
        )
        if corrupted:
            for pod in state.pods:
                if pod.service == spec.name and pod.phase == PodPhase.RUNNING:
                    pod.phase = PodPhase.CRASH_LOOP


_STRESS = sorted(cluster.STRESS_KINDS)
_LINK = sorted(cluster.LINK_KINDS)


def _operate(state, op):
    """Apply one decoded operation that is not a step; invalid ones raise and change nothing."""
    kind, which = op
    services = list(state.topology.services)
    svc = services[which % len(services)]
    link = state.links[which % len(state.links)]
    if kind == 0:
        cluster.add_perturbation(state, _STRESS[which % 3], svc, 10.0 + 3 * which)
    elif kind == 1:
        cluster.add_perturbation(state, _LINK[which % 2], link.key, 10.0 + 3 * which)
    elif kind == 2:
        cluster.apply(state, RestartService(svc))
    elif kind == 3:
        pods = state.service_pods(svc)
        if pods:
            cluster.apply(state, RestartPod(pods[which % len(pods)].pod_id))
    elif kind == 4:
        cap = cluster.MAX_SCALE_FACTOR * state.topology.service(svc).desired_replicas
        cluster.apply(state, ScaleService(svc, which % (cap + 1)))
    elif kind == 5:
        spec = state.topology.service(svc)
        if spec.config:
            key = sorted(spec.config)[0]
            cluster.apply(state, SetConfig(svc, key, "zz" if which % 2 else spec.config[key]))
    elif kind == 6:
        if state.process_table:
            handles = sorted(state.process_table)
            cluster.apply(state, KillProcess(handles[which % len(handles)]))
    elif kind == 7:
        cluster.apply(state, ClearLinkShaping(link.src, link.dst))
    elif kind == 8:
        cluster.apply(state, RemovePerturbation(_STRESS[which % 3], svc))
    elif state.pods:
        state.pods[which % len(state.pods)].phase = PodPhase.CRASH_LOOP


# An operation is a step of dt_ms, or (kind, which) for _operate.
_OPERATIONS = st.lists(
    st.one_of(st.sampled_from([250, 1000, 3000]), st.tuples(st.integers(0, 9), st.integers(0, 40))),
    min_size=1,
    max_size=30,
)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(BUNDLED_TOPOLOGIES), seed=st.integers(0, 2**32 - 1), ops=_OPERATIONS)
def test_step_matches_the_scalar_reference(name, seed, ops):
    topo = bundled_topology(name)
    fast, slow = load_topology(topo, seed=seed), load_topology(topo, seed=seed)
    for op in ops:
        if isinstance(op, int):
            step(fast, op)
            _reference_step(slow, op)
            assert cluster.state_doc(fast) == cluster.state_doc(slow)
            continue
        for state in (fast, slow):
            try:
                _operate(state, op)
            except (NotFoundError, InvalidArgumentError):
                pass
    step(fast, 1000)
    _reference_step(slow, 1000)
    assert digest(fast) == digest(slow)
