"""Deterministic discrete-time model of a microservice cluster.

The simulator is the substrate everything else runs against. Design goals,
in order: reproducibility (identical topology + seed + operation sequence
gives byte-identical state digests), observability (faults move metrics far
outside their nominal bands), and simplicity (first-order dynamics, no
container runtime, no request tracing).

Metric dynamics
---------------
Every pod metric (cpu_pct, mem_pct, io_await_ms) and link metric
(added_delay_ms, loss_pct) relaxes toward a setpoint with time constant
``RELAX_TAU_MS``. The setpoint is the declared baseline unless a matching
perturbation is active, in which case it is the perturbation magnitude
(``METRIC_OF`` names the one metric each perturbation kind drives).
Each step relaxes toward the setpoint plus seeded Gaussian jitter
(sigma = ``NOISE_SIGMA``), so the stationary spread stays well inside the
+/- 3 sigma recovery band used by verification::

    m += (1 - exp(-dt/tau)) * ((setpoint + noise) - m)

Fault semantics that matter for remediation:

* restarts (pod or service) reset metrics to baseline and clear in-pod
  faults (cpu/mem/io stress processes and pod kills) for that service;
  they never clear link shaping or config corruption.
* removing link shaping clears the link metric immediately (deleting a
  traffic-shaping rule is instantaneous, unlike a draining stress process).
* a config value differing from the declared topology value drives the
  owning service's pods to CrashLoop on every step while it differs;
  correcting the value plus a restart restores them.

Storage
-------
Metrics live in arrays, one row per pod or link, in the order of
``ClusterState.pods`` and ``Topology.links``:

* ``pod_metrics``: float64, shape (P, 3), columns cpu_pct, mem_pct,
  io_await_ms;
* ``pod_phase``: int8, shape (P,), an index into ``PHASES``;
* ``link_metrics``: float64, shape (L, 2), columns added_delay_ms, loss_pct.

``PodState`` holds a pod's identity (id, service, restart count); its row is
its index in ``ClusterState.pods``. A link's identity is its ``LinkSpec``.
No metric is stored twice. Values leave the arrays as Python floats
(``.item()`` or ``.tolist()``), so probe text and digests print them exactly
as floats.

Each ``step`` draws its noise in one call, ``rng.normal(0, NOISE_SIGMA,
3P + 2L)``: the first 3P values go to the pods in row order (cpu, mem, io of
pod 0, then of pod 1, ...), the last 2L to the links (delay, loss of link 0,
...). Digests depend on this order. It is the stream that one ``size=3``
draw per pod followed by one ``size=2`` draw per link would give.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Mapping, Union

import numpy as np

from .errors import InvalidArgumentError, NotFoundError
from .topology import ServiceSpec, Topology, summarize

RELAX_TAU_MS = 5000.0
NOISE_SIGMA = 2.0
# Metric considered recovered when within baseline +/- RECOVERY_BAND.
RECOVERY_BAND = 3.0 * NOISE_SIGMA
# A service scales to at most this many times its declared replicas. Scale
# commands come from untrusted playbooks, and each replica is a pod to allocate.
MAX_SCALE_FACTOR = 8


class PodPhase(str, Enum):
    RUNNING = "Running"
    CRASH_LOOP = "CrashLoop"
    PENDING = "Pending"
    TERMINATED = "Terminated"


class PerturbationKind(str, Enum):
    CPU_STRESS = "cpu_stress"
    MEM_STRESS = "mem_stress"
    IO_STRESS = "io_stress"
    NET_DELAY = "net_delay"
    NET_LOSS = "net_loss"
    POD_KILL = "pod_kill"
    CONFIG_CORRUPT = "config_corrupt"


PHASES = tuple(PodPhase)  # pod_phase holds indices into this
PHASE_CODE = {phase: code for code, phase in enumerate(PHASES)}
_RUNNING = PHASE_CODE[PodPhase.RUNNING]
_CRASH_LOOP = PHASE_CODE[PodPhase.CRASH_LOOP]

# The metric columns of pod_metrics and link_metrics, in column order.
POD_METRICS = ("cpu_pct", "mem_pct", "io_await_ms")
LINK_METRICS = ("added_delay_ms", "loss_pct")
# Upper clamps per column: percentages stop at 100, times are unbounded.
_POD_CEILING = np.array([100.0, 100.0, np.inf])
_LINK_CEILING = np.array([np.inf, 100.0])


def link_key(src: str, dst: str) -> str:
    return f"{src}->{dst}"


def split_link_key(target: str) -> tuple[str, str]:
    src, sep, dst = target.partition("->")
    if not sep or not src or not dst:
        raise InvalidArgumentError(f"{target!r} is not a link identifier")
    return src, dst


def target_services(target: str) -> tuple[str, ...]:
    """The services a fault target names: (src, dst) of a link "src->dst", else (target,)."""
    return split_link_key(target) if "->" in target else (target,)


@dataclass(slots=True)
class PodState:
    """One pod's identity. Its metrics and phase are the row of the cluster's
    pod arrays at its index in ``ClusterState.pods``."""

    pod_id: str
    service: str
    restarts: int = 0


# The metric each perturbation kind drives; pod_kill and config_corrupt drive none.
METRIC_OF: dict[PerturbationKind, str] = {
    PerturbationKind.CPU_STRESS: "cpu_pct",
    PerturbationKind.MEM_STRESS: "mem_pct",
    PerturbationKind.IO_STRESS: "io_await_ms",
    PerturbationKind.NET_DELAY: "added_delay_ms",
    PerturbationKind.NET_LOSS: "loss_pct",
}
STRESS_KINDS = frozenset(k for k, metric in METRIC_OF.items() if metric in POD_METRICS)
LINK_KINDS = frozenset(k for k, metric in METRIC_OF.items() if metric in LINK_METRICS)
# Faults that live inside a pod and therefore die with it on restart.
IN_POD_KINDS = STRESS_KINDS | {PerturbationKind.POD_KILL}


@dataclass
class Perturbation:
    handle: str
    kind: PerturbationKind
    target: str  # service name, or "src->dst" for link kinds
    magnitude: float
    injected_at: int


class ProbeKind(str, Enum):
    POD_METRICS = "pod_metrics"
    POD_LIST = "pod_list"
    CONFIG_GET = "config_get"
    LINK_STATS = "link_stats"
    TOPOLOGY_SUMMARY = "topology_summary"


@dataclass(frozen=True)
class ProbeQuery:
    kind: ProbeKind
    service: str | None = None
    key: str | None = None
    src: str | None = None
    dst: str | None = None


def pod_metrics_query(service: str) -> ProbeQuery:
    return ProbeQuery(ProbeKind.POD_METRICS, service=service)


def pod_list_query(service: str) -> ProbeQuery:
    return ProbeQuery(ProbeKind.POD_LIST, service=service)


def config_get_query(service: str, key: str) -> ProbeQuery:
    return ProbeQuery(ProbeKind.CONFIG_GET, service=service, key=key)


def link_stats_query(src: str, dst: str) -> ProbeQuery:
    return ProbeQuery(ProbeKind.LINK_STATS, src=src, dst=dst)


def topology_summary_query() -> ProbeQuery:
    return ProbeQuery(ProbeKind.TOPOLOGY_SUMMARY)


@dataclass(frozen=True)
class ProbeResult:
    payload: Mapping
    text: str


# --- Actions -----------------------------------------------------------------
# Closed enumeration of effects a remediation can have on the cluster.


@dataclass(frozen=True)
class RestartPod:
    pod_id: str


@dataclass(frozen=True)
class RestartService:
    service: str


@dataclass(frozen=True)
class ScaleService:
    service: str
    replicas: int


@dataclass(frozen=True)
class SetConfig:
    service: str
    key: str
    value: str


@dataclass(frozen=True)
class KillProcess:
    handle: str


@dataclass(frozen=True)
class ClearLinkShaping:
    src: str
    dst: str


@dataclass(frozen=True)
class RemovePerturbation:
    kind: PerturbationKind
    target: str


@dataclass(frozen=True)
class Noop:
    note: str = ""


ACTION_TYPES = (
    RestartPod,
    RestartService,
    ScaleService,
    SetConfig,
    KillProcess,
    ClearLinkShaping,
    RemovePerturbation,
    Noop,
)
ClusterAction = Union[ACTION_TYPES]


@dataclass
class ActionOutcome:
    changed: bool
    stdout: str = ""


@dataclass(eq=False)
class ClusterState:
    """Full simulated world for one episode. Mutated single-threaded.

    Built by ``load_topology``. The arrays are described in the module
    docstring; ``config_store`` is read-only, and ``set_config`` writes it.
    """

    topology: Topology
    seed: int
    clock_ms: int = 0
    pods: list[PodState] = field(default_factory=list)
    pod_metrics: np.ndarray = field(default_factory=lambda: np.empty((0, 3)), repr=False)
    pod_phase: np.ndarray = field(default_factory=lambda: np.empty(0, np.int8), repr=False)
    link_metrics: np.ndarray = field(default_factory=lambda: np.empty((0, 2)), repr=False)
    config_store: Mapping[tuple[str, str], str] = field(init=False)
    perturbations: list[Perturbation] = field(default_factory=list)
    _rng: np.random.Generator = field(default=None, repr=False)
    _pod_seq: dict[str, int] = field(default_factory=dict, repr=False)
    _handle_seq: int = field(default=0, repr=False)
    _config: dict[tuple[str, str], str] = field(default_factory=dict, repr=False)
    # Per service, in topology order: its index and its baseline row.
    _service_index: dict[str, int] = field(default_factory=dict, repr=False)
    _service_baseline: np.ndarray = field(default=None, repr=False)
    # Indices of the services with a config value that differs from the declared one.
    _corrupt: set[int] = field(default_factory=set, repr=False)
    # Per pod row: the index of its service.
    _pod_service: np.ndarray = field(default_factory=lambda: np.empty(0, np.intp), repr=False)
    _link_row: dict[str, int] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.config_store = MappingProxyType(self._config)

    @property
    def process_table(self) -> dict[str, Perturbation]:
        """The stress processes, by handle: one per cpu/mem/io stress perturbation."""
        return {p.handle: p for p in self.perturbations if p.kind in STRESS_KINDS}

    @property
    def lineage(self) -> str:
        return f"{self.topology.name}:{self.seed}"

    def service_rows(self, service: str) -> list[int]:
        """The rows of the pods of ``service``, in pod order."""
        return [row for row, p in enumerate(self.pods) if p.service == service]

    # The checked accessors: each raises NotFoundError for a name the cluster lacks.

    def service_spec(self, service: str) -> ServiceSpec:
        spec = self.topology.services.get(service)
        if spec is None:
            raise NotFoundError(f"unknown service {service!r}")
        return spec

    def link(self, src: str, dst: str) -> int:
        """The row of link ``src -> dst`` in ``link_metrics`` and ``topology.links``."""
        row = self._link_row.get(link_key(src, dst))
        if row is None:
            raise NotFoundError(f"unknown link {src!r} -> {dst!r}")
        return row

    def declared(self, service: str, key: str) -> str:
        """The declared value of config ``key`` of ``service``."""
        config = self.service_spec(service).config
        if key not in config:
            raise NotFoundError(f"unknown config key {key!r} for service {service!r}")
        return config[key]

    def config_corrupt(self, service: str) -> bool:
        """Whether a config value of ``service`` differs from its declared one."""
        return self._service_index[service] in self._corrupt

    def active(self, kind: PerturbationKind, target: str) -> list[Perturbation]:
        return [p for p in self.perturbations if p.kind == kind and p.target == target]


def load_topology(topology: Topology, seed: int = 0) -> ClusterState:
    """Boot a cluster from a parsed topology.

    One Running pod per desired replica, metrics at their declared
    baselines, clock at zero. The state digest is a pure function of
    (topology, seed).
    """
    specs = list(topology.services.values())
    state = ClusterState(topology=topology, seed=seed)
    state._rng = np.random.default_rng(seed)
    state._service_index = {spec.name: i for i, spec in enumerate(specs)}
    state._service_baseline = np.array(
        [getattr(s.baseline, m) for s in specs for m in POD_METRICS]
    ).reshape(-1, 3)
    for spec in specs:
        state._pod_seq[spec.name] = 0
        for key, value in spec.config.items():
            state._config[(spec.name, key)] = value
    _append_pods(state, [spec.name for spec in specs for _ in range(spec.desired_replicas)])
    state._link_row = {link_key(l.src, l.dst): row for row, l in enumerate(topology.links)}
    state.link_metrics = np.zeros((len(topology.links), 2))
    return state


def _append_pods(state: ClusterState, services: list[str]) -> None:
    """Add one Running pod at its service's baseline per entry of ``services``."""
    new_service = np.array([state._service_index[s] for s in services], dtype=np.intp)
    for service in services:
        idx = state._pod_seq[service]
        state._pod_seq[service] = idx + 1
        state.pods.append(PodState(f"{service}-{idx}", service))
    state.pod_metrics = np.concatenate((state.pod_metrics, state._service_baseline[new_service]))
    state.pod_phase = np.concatenate(
        (state.pod_phase, np.full(len(services), _RUNNING, dtype=np.int8))
    )
    state._pod_service = np.concatenate((state._pod_service, new_service))


def _drop_pods(state: ClusterState, rows: list[int]) -> None:
    """Remove the pods at ``rows`` (ascending) from the pod list and every pod array;
    later rows move up."""
    for row in reversed(rows):
        del state.pods[row]
    state.pod_metrics = np.delete(state.pod_metrics, rows, axis=0)
    state.pod_phase = np.delete(state.pod_phase, rows)
    state._pod_service = np.delete(state._pod_service, rows)


def set_config(state: ClusterState, service: str, key: str, value: str) -> str:
    """Write one declared config value, returning the value it replaces."""
    old = state._config[(service, key)]
    state._config[(service, key)] = value
    index = state._service_index[service]
    if any(
        state._config[(service, k)] != declared
        for k, declared in state.topology.service(service).config.items()
    ):
        state._corrupt.add(index)
    else:
        state._corrupt.discard(index)
    return old


def add_perturbation(
    state: ClusterState, kind: PerturbationKind, target: str, magnitude: float
) -> Perturbation:
    """Register a perturbation; a stress kind also appears in ``process_table``.

    This is the injection substrate used by the fault engine; it performs
    no validation beyond handle bookkeeping.
    """
    state._handle_seq += 1
    pert = Perturbation(
        handle=f"{kind.value}-{target}-{state._handle_seq}",
        kind=kind,
        target=target,
        magnitude=magnitude,
        injected_at=state.clock_ms,
    )
    state.perturbations.append(pert)
    return pert


def _remove_perturbations(state: ClusterState, perts: list[Perturbation]) -> int:
    removed = 0
    for pert in perts:
        if pert in state.perturbations:
            state.perturbations.remove(pert)
            removed += 1
            if pert.kind in LINK_KINDS:
                snap_link_metric(state, pert.kind, pert.target)
    return removed


def snap_link_metric(state: ClusterState, kind: PerturbationKind, target: str) -> None:
    """Zero the metric a link kind drives on link ``target``."""
    state.link_metrics[state.link(*split_link_key(target)), LINK_METRICS.index(METRIC_OF[kind])] = 0.0


def reset_pods(state: ClusterState, rows: list[int]) -> None:
    """Set the pods at ``rows`` Running with their service's baseline metrics.
    Restart counts stay."""
    for row in rows:
        state.pod_phase[row] = _RUNNING
        state.pod_metrics[row] = state._service_baseline[state._pod_service[row]]


# --- step ---------------------------------------------------------------------


def step(state: ClusterState, dt_ms: int) -> ClusterState:
    """Advance the simulation clock by dt_ms, relaxing metrics in place."""
    if dt_ms <= 0:
        raise InvalidArgumentError("dt_ms must be > 0")
    state.clock_ms += dt_ms
    alpha = 1.0 - math.exp(-dt_ms / RELAX_TAU_MS)
    pods, links = state.pod_metrics, state.link_metrics
    # One draw for the whole population, so the stream depends only on the
    # pod/link population, never on which perturbations are active.
    noise = state._rng.normal(0.0, NOISE_SIGMA, size=pods.size + links.size)

    running = state.pod_phase == _RUNNING
    pod_target = state._service_baseline[state._pod_service]
    link_target = np.zeros(links.shape)
    # Later perturbations of the same kind and target override earlier ones.
    for pert in state.perturbations:
        metric = METRIC_OF.get(pert.kind)
        if metric in POD_METRICS:
            service = state._service_index.get(pert.target, -1)
            pod_target[:, POD_METRICS.index(metric)][state._pod_service == service] = pert.magnitude
        elif metric is not None and (row := state._link_row.get(pert.target)) is not None:
            link_target[row, LINK_METRICS.index(metric)] = pert.magnitude
    # A pod that is not running consumes nothing.
    pod_target = np.where(running[:, None], pod_target, 0.0)

    pods += alpha * (pod_target + noise[: pods.size].reshape(pods.shape) - pods)
    np.maximum(pods, 0.0, out=pods)
    np.minimum(pods, _POD_CEILING, out=pods)
    links += alpha * (link_target + noise[pods.size :].reshape(links.shape) - links)
    np.maximum(links, 0.0, out=links)
    np.minimum(links, _LINK_CEILING, out=links)

    for service in state._corrupt:
        state.pod_phase[running & (state._pod_service == service)] = _CRASH_LOOP
    return state


def settle(state: ClusterState, steps: int, dt_ms: int) -> None:
    """Advance ``steps`` steps of ``dt_ms`` each: the settle after injection or execution."""
    for _ in range(steps):
        step(state, dt_ms)


# --- observe ------------------------------------------------------------------


def observe(state: ClusterState, query: ProbeQuery) -> ProbeResult:
    """Answer a read-only query. Never mutates state."""
    if query.kind in (ProbeKind.POD_METRICS, ProbeKind.POD_LIST):
        service = state.service_spec(query.service).name
        pods = [
            (pod, PHASES[code].value, metrics)
            for pod, code, metrics in zip(
                state.pods, state.pod_phase.tolist(), state.pod_metrics.tolist()
            )
            if pod.service == service
        ]
    if query.kind == ProbeKind.POD_METRICS:
        payload = {
            "service": query.service,
            "pods": [
                {
                    "pod_id": p.pod_id,
                    "phase": phase,
                    "cpu_pct": round(cpu, 2),
                    "mem_pct": round(mem, 2),
                    "io_await_ms": round(io, 2),
                    "restarts": p.restarts,
                }
                for p, phase, (cpu, mem, io) in pods
            ],
        }
        lines = [f"pod metrics for {query.service}:"]
        for p, phase, (cpu, mem, io) in pods:
            lines.append(
                f"  {p.pod_id} phase={phase} cpu={cpu:.2f}% "
                f"mem={mem:.2f}% io_await={io:.2f}ms restarts={p.restarts}"
            )
        return ProbeResult(payload, "\n".join(lines))

    if query.kind == ProbeKind.POD_LIST:
        payload = {
            "service": query.service,
            "pods": [{"pod_id": p.pod_id, "phase": phase} for p, phase, _ in pods],
        }
        lines = [f"pods for {query.service}:"]
        lines += [f"  {p.pod_id} {phase}" for p, phase, _ in pods]
        return ProbeResult(payload, "\n".join(lines))

    if query.kind == ProbeKind.CONFIG_GET:
        declared = state.declared(query.service, query.key)
        current = state.config_store[(query.service, query.key)]
        payload = {
            "service": query.service,
            "key": query.key,
            "value": current,
            "declared": declared,
        }
        text = (
            f"config {query.service}/{query.key}: current={current!r} declared={declared!r}"
        )
        return ProbeResult(payload, text)

    if query.kind == ProbeKind.LINK_STATS:
        row = state.link(query.src, query.dst)
        link = state.topology.links[row]
        delay, loss = state.link_metrics[row].tolist()
        payload = {
            "src": link.src,
            "dst": link.dst,
            "base_latency_ms": round(link.base_latency_ms, 2),
            "added_delay_ms": round(delay, 2),
            "loss_pct": round(loss, 2),
        }
        text = (
            f"link {link.src} -> {link.dst}: base_latency={link.base_latency_ms:.2f}ms "
            f"added_delay={delay:.2f}ms loss={loss:.2f}%"
        )
        return ProbeResult(payload, text)

    if query.kind == ProbeKind.TOPOLOGY_SUMMARY:
        text = summarize(state.topology, include_config_values=True)
        payload = {"topology": state.topology.name, "services": list(state.topology.services)}
        return ProbeResult(payload, text)

    raise InvalidArgumentError(f"unknown probe kind {query.kind!r}")


# --- apply --------------------------------------------------------------------


def apply(state: ClusterState, action: ClusterAction) -> tuple[ClusterState, ActionOutcome]:
    """Apply one cluster action, returning the (mutated) state and outcome."""
    if isinstance(action, RestartPod):
        row = next((r for r, p in enumerate(state.pods) if p.pod_id == action.pod_id), None)
        if row is None:
            raise NotFoundError(f"unknown pod {action.pod_id!r}")
        _restart_pods(state, [row])
        return state, ActionOutcome(changed=True, stdout=f"pod {action.pod_id} restarted")

    if isinstance(action, RestartService):
        rows = state.service_rows(state.service_spec(action.service).name)
        _restart_pods(state, rows)
        return state, ActionOutcome(
            changed=True, stdout=f"service {action.service} restarted ({len(rows)} pods)"
        )

    if isinstance(action, ScaleService):
        spec = state.service_spec(action.service)
        if action.replicas < 0:
            raise InvalidArgumentError("replicas must be >= 0")
        cap = MAX_SCALE_FACTOR * spec.desired_replicas
        if action.replicas > cap:
            raise InvalidArgumentError(
                f"service {action.service} scales to at most {cap} replicas"
            )
        current = state.service_rows(action.service)
        delta = action.replicas - len(current)
        if delta > 0:
            _append_pods(state, [action.service] * delta)
        elif delta < 0:
            _drop_pods(state, current[delta:])
        return state, ActionOutcome(
            changed=delta != 0,
            stdout=f"service {action.service} scaled to {action.replicas} replicas",
        )

    if isinstance(action, SetConfig):
        state.declared(action.service, action.key)
        old = set_config(state, action.service, action.key, action.value)
        return state, ActionOutcome(
            changed=old != action.value,
            stdout=f"config {action.service}/{action.key} set",
        )

    if isinstance(action, KillProcess):
        if action.handle not in state.process_table:
            raise NotFoundError(f"unknown process handle {action.handle!r}")
        perts = [p for p in state.perturbations if p.handle == action.handle]
        _remove_perturbations(state, perts)
        return state, ActionOutcome(changed=True, stdout=f"process {action.handle} killed")

    if isinstance(action, ClearLinkShaping):
        state.link(action.src, action.dst)
        target = link_key(action.src, action.dst)
        perts = [
            p for p in state.perturbations if p.kind in LINK_KINDS and p.target == target
        ]
        removed = _remove_perturbations(state, perts)
        return state, ActionOutcome(
            changed=removed > 0, stdout=f"link shaping cleared on {target}"
        )

    if isinstance(action, RemovePerturbation):
        matches = state.active(action.kind, action.target)
        removed = _remove_perturbations(state, matches)
        return state, ActionOutcome(
            changed=removed > 0,
            stdout=f"removed {removed} perturbation(s) {action.kind.value} on {action.target}",
        )

    if isinstance(action, Noop):
        return state, ActionOutcome(changed=False, stdout=action.note)

    raise InvalidArgumentError(f"unknown action {action!r}")


def _restart_pods(state: ClusterState, rows: list[int]) -> None:
    pods = [state.pods[row] for row in rows]
    services = {p.service for p in pods}
    reset_pods(state, rows)
    for pod in pods:
        pod.restarts += 1
    doomed = [
        p
        for p in state.perturbations
        if p.kind in IN_POD_KINDS and p.target in services
    ]
    _remove_perturbations(state, doomed)


# --- digest -------------------------------------------------------------------


def state_doc(state: ClusterState) -> dict:
    """Canonical serializable view of the observable state."""
    return {
        "topology": state.topology.name,
        "seed": state.seed,
        "pods": [
            [
                p.pod_id,
                p.service,
                PHASES[code].value,
                *metrics,
                p.restarts,
            ]
            for p, code, metrics in zip(
                state.pods, state.pod_phase.tolist(), state.pod_metrics.tolist()
            )
        ],
        "links": [
            [l.src, l.dst, l.base_latency_ms, *metrics]
            for l, metrics in zip(state.topology.links, state.link_metrics.tolist())
        ],
        "config": sorted(
            [svc, key, value] for (svc, key), value in state.config_store.items()
        ),
        "perturbations": sorted(
            [p.handle, p.kind.value, p.target, p.magnitude, p.injected_at]
            for p in state.perturbations
        ),
        "processes": sorted(state.process_table),
        "clock_ms": state.clock_ms,
    }


def digest(state: ClusterState) -> str:
    """Stable 64-bit hash (hex) of the canonical state serialization."""
    blob = json.dumps(state_doc(state), sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(blob.encode("utf-8"), digest_size=8).hexdigest()


def in_band(value: float, center: float) -> bool:
    return abs(value - center) <= RECOVERY_BAND


def nominal(state: ClusterState, target: str, metrics: tuple[str, ...] | None = None) -> bool:
    """The recovery rule: whether ``target`` looks recovered on ``metrics``.

    A link "src->dst" is nominal when each judged metric is within
    ``RECOVERY_BAND`` of 0. A service is nominal when it has at least one pod
    and every pod is Running with each judged metric within the band of the
    service's baseline. ``metrics`` None judges every metric of the target's
    kind; ``()`` judges pod phase only. Raises NotFoundError for a target the
    cluster does not have.
    """
    if "->" in target:
        row = state.link(*split_link_key(target))
        for metric in LINK_METRICS if metrics is None else metrics:
            if not in_band(state.link_metrics.item(row, LINK_METRICS.index(metric)), 0.0):
                return False
        return True
    baseline = state.service_spec(target).baseline
    judged = [
        (POD_METRICS.index(metric), getattr(baseline, metric))
        for metric in (POD_METRICS if metrics is None else metrics)
    ]
    rows = state.service_rows(target)
    for row in rows:
        if state.pod_phase.item(row) != _RUNNING:
            return False
        for column, center in judged:
            if not in_band(state.pod_metrics.item(row, column), center):
                return False
    return bool(rows)
