"""Failure injection, diagnosis reports, ground-truth verification, and suites.

Seven failure types across three categories:

    resource     cpu_saturation, memory_saturation, io_saturation
    network      network_loss, network_delay
    application  pod_failure, config_error

All but ``config_error`` are injected as chaos perturbations on the
simulated cluster; ``config_error`` corrupts the config store directly and
remembers the original value. Ground-truth verification (``oracle_verify``)
inspects only the injected target: the cause must be gone (perturbation
removed, or config restored) and the observable must have recovered (metric
back within the baseline band, pods Running). ``restore`` undoes an
injection completely so experiments can iterate on a clean cluster.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

from . import cluster
from .cluster import (
    ClusterState,
    PerturbationKind,
    PodPhase,
    METRIC_OF,
    RECOVERY_BAND,
    link_key,
    split_link_key,
    target_services,
)
from .errors import InjectionError, LineageError, NotFoundError, SuiteGenerationError
from .playbook import SAFETY_RULE_IDS, catalog_documentation
from .topology import Topology, summarize

if TYPE_CHECKING:
    from .loop import LoopConfig

CORRUPT_VALUE = "!!corrupted!!"


class FailureCategory(str, Enum):
    RESOURCE = "resource"
    NETWORK = "network"
    APPLICATION = "application"


class FailureType(str, Enum):
    CPU_SATURATION = "cpu_saturation"
    MEMORY_SATURATION = "memory_saturation"
    IO_SATURATION = "io_saturation"
    NETWORK_LOSS = "network_loss"
    NETWORK_DELAY = "network_delay"
    POD_FAILURE = "pod_failure"
    CONFIG_ERROR = "config_error"


@dataclass(frozen=True)
class FailureTypeRow:
    """Everything that is decided per failure type."""

    category: FailureCategory
    label: str  # as named in reports
    kind: PerturbationKind | None  # what is injected; config_error writes the config store
    default_magnitude: float
    # Inclusive legal magnitudes. For config_error the magnitude doubles as
    # the index into the target's sorted declared config keys.
    magnitude_range: tuple[float, float]


_LEAST = RECOVERY_BAND + 1.0  # smallest legal stress or shaping magnitude: past the band

ROW_OF: dict[FailureType, FailureTypeRow] = {
    FailureType.CPU_SATURATION: FailureTypeRow(
        FailureCategory.RESOURCE, "CPU Saturation",
        PerturbationKind.CPU_STRESS, 95.0, (_LEAST, 100.0),
    ),
    FailureType.MEMORY_SATURATION: FailureTypeRow(
        FailureCategory.RESOURCE, "Memory Saturation",
        PerturbationKind.MEM_STRESS, 95.0, (_LEAST, 100.0),
    ),
    FailureType.IO_SATURATION: FailureTypeRow(
        FailureCategory.RESOURCE, "IO Saturation",
        PerturbationKind.IO_STRESS, 500.0, (_LEAST, 10000.0),
    ),
    FailureType.NETWORK_LOSS: FailureTypeRow(
        FailureCategory.NETWORK, "Network Loss",
        PerturbationKind.NET_LOSS, 40.0, (_LEAST, 100.0),
    ),
    FailureType.NETWORK_DELAY: FailureTypeRow(
        FailureCategory.NETWORK, "Network Delay",
        PerturbationKind.NET_DELAY, 300.0, (_LEAST, 10000.0),
    ),
    FailureType.POD_FAILURE: FailureTypeRow(
        FailureCategory.APPLICATION, "Pod Failure",
        PerturbationKind.POD_KILL, 1.0, (1.0, 16.0),
    ),
    FailureType.CONFIG_ERROR: FailureTypeRow(
        FailureCategory.APPLICATION, "Configuration Error",
        None, 0.0, (0.0, 100.0),
    ),
}

# Types whose target is a link "src->dst"; every other type targets a service.
NETWORK_TYPES = frozenset(
    ft for ft, row in ROW_OF.items() if row.category == FailureCategory.NETWORK
)

SUITE_SIZES = {"easy": 23, "medium": 49, "hard": 80}
DIFFICULTIES = ("easy", "medium", "hard")


@dataclass(frozen=True)
class FailureSpec:
    """What to inject: a failure type, its target, and a magnitude."""

    ftype: FailureType
    target: str  # service name, or "src->dst" for network types
    magnitude: float | None = None

    @property
    def row(self) -> FailureTypeRow:
        return ROW_OF[self.ftype]

    @property
    def effective_magnitude(self) -> float:
        return self.row.default_magnitude if self.magnitude is None else self.magnitude


@dataclass
class FailureRecord:
    """Ground truth of one injection. Never shown to a policy."""

    spec: FailureSpec
    injected_at: int
    handles: tuple[str, ...]
    original_values: dict[str, str]
    lineage: str


@dataclass(frozen=True)
class AuxContext:
    environment_summary: str
    action_constraints: tuple[str, ...]
    probe_catalog: tuple[str, ...]


@dataclass(frozen=True)
class FailureReport:
    """Diagnosis text handed to a policy; carries no ground-truth handles."""

    target_service: str
    failure_type: str
    description: str
    aux_context: AuxContext


@dataclass(frozen=True)
class Scenario:
    scenario_id: str
    difficulty: str
    faults: tuple[FailureSpec, ...]


def build_aux(topology: Topology) -> AuxContext:
    """Assemble the auxiliary context policies receive alongside a report.

    The embedded topology summary deliberately omits config values: the
    declared defaults are reachable through the topology probe instead, so
    serialized reports never contain the pre-corruption values.
    """
    summary_lines = [
        summarize(topology, include_config_values=False),
        "",
        "available remediation commands:",
    ]
    summary_lines += [f"  {line}" for line in catalog_documentation()]
    return AuxContext(
        environment_summary="\n".join(summary_lines),
        action_constraints=tuple(SAFETY_RULE_IDS),
        probe_catalog=tuple(k.value for k in cluster.ProbeKind),
    )


# --- injection ----------------------------------------------------------------


def inject(state: ClusterState, spec: FailureSpec) -> FailureRecord:
    """Inject one failure into the cluster, returning its ground truth."""
    magnitude = spec.effective_magnitude
    lo, hi = spec.row.magnitude_range
    if not (lo <= magnitude <= hi):
        raise InjectionError(
            f"magnitude {magnitude} out of range [{lo}, {hi}] for {spec.ftype.value}"
        )

    if spec.ftype in NETWORK_TYPES:
        src, dst = split_link_key(spec.target)
        if state.find_link(src, dst) is None:
            raise NotFoundError(f"unknown link {spec.target!r}")
    elif spec.target not in state.topology.services:
        raise NotFoundError(f"unknown service {spec.target!r}")

    if _is_active(state, spec):
        raise InjectionError(f"active injection already exists for {spec.ftype.value} on {spec.target!r}")

    if spec.ftype == FailureType.CONFIG_ERROR:
        svc = state.topology.service(spec.target)
        keys = sorted(svc.config)
        if not keys:
            raise InjectionError(f"service {spec.target!r} declares no config keys")
        key = keys[int(magnitude) % len(keys)]
        original = cluster.set_config(state, spec.target, key, CORRUPT_VALUE)
        return FailureRecord(
            spec=spec,
            injected_at=state.clock_ms,
            handles=(),
            original_values={key: original},
            lineage=state.lineage,
        )

    pert = cluster.add_perturbation(state, spec.row.kind, spec.target, magnitude)
    if spec.ftype == FailureType.POD_FAILURE:
        victims = [p for p in state.service_pods(spec.target) if p.phase == PodPhase.RUNNING]
        for pod in victims[: max(1, int(magnitude))]:
            pod.phase = PodPhase.CRASH_LOOP
    return FailureRecord(
        spec=spec,
        injected_at=state.clock_ms,
        handles=(pert.handle,),
        original_values={},
        lineage=state.lineage,
    )


def _is_active(state: ClusterState, spec: FailureSpec) -> bool:
    if spec.ftype == FailureType.CONFIG_ERROR:
        svc = state.topology.service(spec.target)
        return any(
            state.config_store.get((spec.target, key)) != value
            for key, value in svc.config.items()
        )
    return bool(state.active(spec.row.kind, spec.target))


# --- reports ------------------------------------------------------------------

_DESCRIPTION_TEMPLATES = {
    FailureCategory.RESOURCE: (
        'Diagnosis: service "{target}" is experiencing {label}. '
        "Pod metrics for {target} are far above their nominal levels. "
        "Remediate the fault and restore nominal operation."
    ),
    FailureCategory.NETWORK: (
        'Diagnosis: the link from "{src}" to "{dst}" is experiencing {label}. '
        "Traffic between {src} and {dst} is degraded. "
        "Remediate the fault and restore nominal operation."
    ),
    FailureCategory.APPLICATION: (
        'Diagnosis: service "{target}" is experiencing {label}. '
        "Pods of {target} are not healthy. "
        "Remediate the fault and restore nominal operation."
    ),
}


def make_report(record: FailureRecord, aux: AuxContext) -> FailureReport:
    """Render the deterministic diagnosis text for one failure record."""
    spec = record.spec
    label = spec.row.label
    template = _DESCRIPTION_TEMPLATES[spec.row.category]
    if spec.ftype in NETWORK_TYPES:
        src, dst = split_link_key(spec.target)
        description = template.format(src=src, dst=dst, label=label)
    else:
        description = template.format(target=spec.target, label=label)
    return FailureReport(
        target_service=spec.target,
        failure_type=spec.ftype.value,
        description=description,
        aux_context=aux,
    )


def composite_report(reports: list[FailureReport]) -> FailureReport:
    """Concatenate per-fault reports into the single input a policy sees."""
    if not reports:
        raise ValueError("no reports to compose")
    if len(reports) == 1:
        return reports[0]
    return FailureReport(
        target_service=",".join(r.target_service for r in reports),
        failure_type=",".join(r.failure_type for r in reports),
        description="\n\n".join(r.description for r in reports),
        aux_context=reports[0].aux_context,
    )


def report_faults(report: FailureReport) -> list[tuple[FailureType, str]]:
    """Recover the (failure type, target) pairs named by a (composite) report."""
    types = report.failure_type.split(",")
    targets = report.target_service.split(",")
    return [(FailureType(t), target) for t, target in zip(types, targets)]


# --- episode prefix -------------------------------------------------------------


def state_seed_for(base_seed: int, scenario_id: str) -> int:
    """Seed of the fresh cluster an episode of ``scenario_id`` boots from."""
    return _stable_u32(f"{base_seed}:{scenario_id}")


def prepare_episode(
    topology: Topology,
    scenario: Scenario,
    state_seed: int,
    loop_config: LoopConfig,
    aux: AuxContext,
) -> tuple[ClusterState, list[FailureRecord], FailureReport]:
    """Boot a fresh cluster, inject every fault, settle, and report.

    Returns the faulted state, the ground-truth records and the composite
    report a policy sees. Benchmark episodes and training rollouts both
    start from here, so they see the same failure for the same seed.
    """
    state = cluster.load_topology(topology, seed=state_seed)
    records = [inject(state, spec) for spec in scenario.faults]
    for _ in range(loop_config.settle_steps):
        cluster.step(state, loop_config.step_ms)
    report = composite_report([make_report(r, aux) for r in records])
    return state, records, report


# --- verification and recovery -------------------------------------------------


def oracle_verify(state: ClusterState, record: FailureRecord) -> bool:
    """Ground-truth check that the injected fault is fully remediated.

    Inspects only the injected target: the cause is gone (config restored,
    or no active perturbation of the kind) and the target is nominal on the
    metric the kind drives, or on pod phase alone for pod_kill and
    config_error. Immediately after injection this is False; after restore
    it is True, for every failure type.
    """
    _check_lineage(state, record)
    spec = record.spec
    kind = spec.row.kind
    if spec.ftype == FailureType.CONFIG_ERROR:
        for key, original in record.original_values.items():
            if state.config_store.get((spec.target, key)) != original:
                return False
    elif state.active(kind, spec.target):
        return False
    metrics = (METRIC_OF[kind].name,) if kind in METRIC_OF else ()
    return cluster.nominal(state, spec.target, metrics)


def _check_lineage(state: ClusterState, record: FailureRecord) -> None:
    if record.lineage != state.lineage:
        raise LineageError(
            f"record lineage {record.lineage!r} does not match state {state.lineage!r}"
        )


def restore(state: ClusterState, record: FailureRecord) -> ClusterState:
    """Fully undo one injection: remove causes, reset the target, re-settle.

    Idempotent, and bypasses restart counters: this is the benchmark's
    reset, not an in-band remediation action.
    """
    _check_lineage(state, record)
    spec = record.spec

    for handle in record.handles:
        perts = [p for p in state.perturbations if p.handle == handle]
        cluster._remove_perturbations(state, perts)

    for key, original in record.original_values.items():
        cluster.set_config(state, spec.target, key, original)

    if spec.ftype in NETWORK_TYPES:
        cluster.snap_link_metric(state, spec.row.kind, spec.target)
    else:
        cluster.reset_pods(state, state.service_pods(spec.target))
    return state


# --- suites -------------------------------------------------------------------

def candidate_targets(topology: Topology, ftype: FailureType) -> list[str]:
    if ftype in NETWORK_TYPES:
        return [link_key(l.src, l.dst) for l in topology.links]
    if ftype == FailureType.CONFIG_ERROR:
        return [s.name for s in topology.services.values() if s.config]
    return list(topology.services)


def _independent(topology: Topology, a: FailureSpec, b: FailureSpec) -> bool:
    sa, sb = target_services(a.target), target_services(b.target)
    if set(sa) & set(sb):
        return False
    return not any(topology.adjacent(x, y) for x in sa for y in sb)


def _stable_u32(text: str) -> int:
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=4).digest(), "big")


def gen_suite(topology: Topology, difficulty: str, seed: int) -> list[Scenario]:
    """Generate the fixed-size scenario suite for a difficulty level.

    Sizes are fixed at 23/49/80. Composition: easy scenarios carry one
    fault; medium, two concurrent faults on independent services; hard,
    two or three concurrent faults including at least one pair on
    dependent services. Sampling is stratified round-robin over failure
    types, then targets, and is deterministic for (topology, seed).
    """
    if difficulty not in SUITE_SIZES:
        raise ValueError(f"unknown difficulty {difficulty!r}")
    count = SUITE_SIZES[difficulty]
    rng = np.random.default_rng(
        [_stable_u32(topology.name), DIFFICULTIES.index(difficulty), seed]
    )

    ftypes = list(FailureType)
    candidates = {ft: candidate_targets(topology, ft) for ft in ftypes}
    for ft in ftypes:
        if not candidates[ft]:
            raise SuiteGenerationError(
                f"topology {topology.name!r} has no target for {ft.value}"
            )
    edges = sorted(set(topology.dependency_edges()))
    if difficulty == "hard" and not edges:
        raise SuiteGenerationError("hard suites need at least one dependency edge")
    if difficulty == "medium":
        probe = FailureSpec(FailureType.CPU_SATURATION, next(iter(topology.services)))
        flat = [
            FailureSpec(ft, t) for ft in ftypes for t in candidates[ft]
        ]
        if not any(_independent(topology, probe, s) for s in flat):
            raise SuiteGenerationError("topology too small for independent fault pairs")

    service_types = [ft for ft in ftypes if ft not in NETWORK_TYPES]
    cursors: dict[FailureType, int] = {ft: 0 for ft in ftypes}

    def next_primary(ft: FailureType) -> FailureSpec:
        pool = candidates[ft]
        target = pool[cursors[ft] % len(pool)]
        cursors[ft] += 1
        return _spec(ft, target, cursors[ft])

    scenarios: list[Scenario] = []
    partner_cursor = 0
    third_cursor = 0
    for i in range(count):
        primary = next_primary(ftypes[i % len(ftypes)])
        faults = [primary]

        if difficulty == "medium":
            # A hub-adjacent primary target may admit no independent partner;
            # advance to the next candidate target of the same type until one does.
            partner = None
            pool_size = len(candidates[primary.ftype])
            for _ in range(pool_size):
                order = rng.permutation(
                    len(ftypes) * max(len(c) for c in candidates.values())
                )
                partner = _find_partner(topology, primary, ftypes, candidates, order)
                if partner is not None:
                    break
                primary = next_primary(primary.ftype)
            if partner is None:
                raise SuiteGenerationError(
                    "topology too small for independent fault pairs"
                )
            faults = [primary, partner]

        elif difficulty == "hard":
            u, v = edges[i % len(edges)]
            ft_u = service_types[partner_cursor % len(service_types)]
            partner_cursor += 1
            ft_v = service_types[partner_cursor % len(service_types)]
            partner_cursor += 1
            if ft_u == FailureType.CONFIG_ERROR and not topology.service(u).config:
                ft_u = FailureType.CPU_SATURATION
            if ft_v == FailureType.CONFIG_ERROR and not topology.service(v).config:
                ft_v = FailureType.MEMORY_SATURATION
            faults = [_spec(ft_u, u, i), _spec(ft_v, v, i + 1)]
            if i % 3 == 2:  # every third scenario carries a third fault
                order = rng.permutation(
                    len(ftypes) * max(len(c) for c in candidates.values())
                )
                for attempt in range(len(ftypes)):
                    ft3 = ftypes[(third_cursor + attempt) % len(ftypes)]
                    third = _find_target(
                        topology, ft3, candidates[ft3], faults, order, salt=i
                    )
                    if third is not None:
                        faults.append(third)
                        third_cursor += attempt + 1
                        break
            else:
                rng.permutation(1)  # keep the draw count independent of branch

        scenarios.append(
            Scenario(
                scenario_id=f"{difficulty}-{i:03d}",
                difficulty=difficulty,
                faults=tuple(faults),
            )
        )
    return scenarios


def _spec(ftype: FailureType, target: str, salt: int) -> FailureSpec:
    """A suite fault: the type's default magnitude, except that config_error
    takes ``salt % 3`` to rotate over the target's declared keys."""
    if ftype == FailureType.CONFIG_ERROR:
        return FailureSpec(ftype, target, float(salt % 3))
    return FailureSpec(ftype, target, ROW_OF[ftype].default_magnitude)


def _find_partner(topology, primary, ftypes, candidates, order) -> FailureSpec | None:
    """The first spec in ``order`` that is independent of ``primary``, or None."""
    flat = [
        _spec(ft, target, j) for ft in ftypes for j, target in enumerate(candidates[ft])
    ]
    for idx in order:
        spec = flat[int(idx) % len(flat)]
        if _independent(topology, primary, spec):
            return spec
    return None


def _find_target(topology, ftype, pool, existing, order, salt) -> FailureSpec | None:
    taken = {svc for f in existing for svc in target_services(f.target)}
    for idx in order:
        spec = _spec(ftype, pool[int(idx) % len(pool)], salt)
        if not taken.intersection(target_services(spec.target)):
            return spec
    return None


# --- suite serialization --------------------------------------------------------


def scenario_to_doc(scenario: Scenario, topology_name: str) -> dict:
    return {
        "scenario_id": scenario.scenario_id,
        "difficulty": scenario.difficulty,
        "topology": topology_name,
        "faults": [
            {"ftype": f.ftype.value, "target": f.target, "magnitude": f.effective_magnitude}
            for f in scenario.faults
        ],
    }


def scenario_from_doc(doc: Mapping) -> Scenario:
    return Scenario(
        scenario_id=doc["scenario_id"],
        difficulty=doc["difficulty"],
        faults=tuple(
            FailureSpec(
                ftype=FailureType(f["ftype"]),
                target=f["target"],
                magnitude=f["magnitude"],
            )
            for f in doc["faults"]
        ),
    )


def suite_to_jsonl(scenarios: Iterable[Scenario], topology_name: str) -> str:
    lines = [
        json.dumps(scenario_to_doc(s, topology_name), sort_keys=True) for s in scenarios
    ]
    return "\n".join(lines) + "\n"


def suite_from_jsonl(text: str) -> list[Scenario]:
    return [scenario_from_doc(json.loads(line)) for line in text.splitlines() if line.strip()]
