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
    RECOVERY_BAND,
    in_band,
    link_key,
    split_link_key,
)
from .errors import InjectionError, LineageError, NotFoundError, SuiteGenerationError
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


CATEGORY_OF = {
    FailureType.CPU_SATURATION: FailureCategory.RESOURCE,
    FailureType.MEMORY_SATURATION: FailureCategory.RESOURCE,
    FailureType.IO_SATURATION: FailureCategory.RESOURCE,
    FailureType.NETWORK_LOSS: FailureCategory.NETWORK,
    FailureType.NETWORK_DELAY: FailureCategory.NETWORK,
    FailureType.POD_FAILURE: FailureCategory.APPLICATION,
    FailureType.CONFIG_ERROR: FailureCategory.APPLICATION,
}

LABEL_OF = {
    FailureType.CPU_SATURATION: "CPU Saturation",
    FailureType.MEMORY_SATURATION: "Memory Saturation",
    FailureType.IO_SATURATION: "IO Saturation",
    FailureType.NETWORK_LOSS: "Network Loss",
    FailureType.NETWORK_DELAY: "Network Delay",
    FailureType.POD_FAILURE: "Pod Failure",
    FailureType.CONFIG_ERROR: "Configuration Error",
}

KIND_OF = {
    FailureType.CPU_SATURATION: PerturbationKind.CPU_STRESS,
    FailureType.MEMORY_SATURATION: PerturbationKind.MEM_STRESS,
    FailureType.IO_SATURATION: PerturbationKind.IO_STRESS,
    FailureType.NETWORK_LOSS: PerturbationKind.NET_LOSS,
    FailureType.NETWORK_DELAY: PerturbationKind.NET_DELAY,
    FailureType.POD_FAILURE: PerturbationKind.POD_KILL,
}

NETWORK_TYPES = frozenset({FailureType.NETWORK_LOSS, FailureType.NETWORK_DELAY})

DEFAULT_MAGNITUDE = {
    FailureType.CPU_SATURATION: 95.0,
    FailureType.MEMORY_SATURATION: 95.0,
    FailureType.IO_SATURATION: 500.0,
    FailureType.NETWORK_LOSS: 40.0,
    FailureType.NETWORK_DELAY: 300.0,
    FailureType.POD_FAILURE: 1.0,
    FailureType.CONFIG_ERROR: 0.0,
}

# Inclusive legal (lo, hi) magnitude ranges per failure type. For
# config_error the magnitude doubles as the index into the target's sorted
# declared config keys.
MAGNITUDE_RANGE = {
    FailureType.CPU_SATURATION: (RECOVERY_BAND + 1.0, 100.0),
    FailureType.MEMORY_SATURATION: (RECOVERY_BAND + 1.0, 100.0),
    FailureType.IO_SATURATION: (RECOVERY_BAND + 1.0, 10000.0),
    FailureType.NETWORK_LOSS: (RECOVERY_BAND + 1.0, 100.0),
    FailureType.NETWORK_DELAY: (RECOVERY_BAND + 1.0, 10000.0),
    FailureType.POD_FAILURE: (1.0, 16.0),
    FailureType.CONFIG_ERROR: (0.0, 100.0),
}

SUITE_SIZES = {"easy": 23, "medium": 49, "hard": 80}
DIFFICULTIES = ("easy", "medium", "hard")


@dataclass(frozen=True)
class FailureSpec:
    """What to inject: a failure type, its target, and a magnitude."""

    ftype: FailureType
    target: str  # service name, or "src->dst" for network types
    magnitude: float | None = None

    @property
    def category(self) -> FailureCategory:
        return CATEGORY_OF[self.ftype]

    @property
    def method(self) -> str:
        return "config" if self.ftype == FailureType.CONFIG_ERROR else "chaos"

    @property
    def effective_magnitude(self) -> float:
        return DEFAULT_MAGNITUDE[self.ftype] if self.magnitude is None else self.magnitude


@dataclass
class FailureRecord:
    """Ground truth of one injection. Never shown to a policy."""

    spec: FailureSpec
    injected_at: int
    handles: tuple[str, ...]
    original_values: dict[str, str]
    recovery_predicate: str
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


@dataclass(frozen=True)
class SuiteCatalog:
    """The three fixed-size suites for one (topology, seed)."""

    easy: tuple[Scenario, ...]
    medium: tuple[Scenario, ...]
    hard: tuple[Scenario, ...]

    def __post_init__(self):
        for name, suite in (("easy", self.easy), ("medium", self.medium), ("hard", self.hard)):
            if len(suite) != SUITE_SIZES[name]:
                raise ValueError(f"{name} suite must have {SUITE_SIZES[name]} scenarios")


def build_aux(topology: Topology) -> AuxContext:
    """Assemble the auxiliary context policies receive alongside a report.

    The embedded topology summary deliberately omits config values: the
    declared defaults are reachable through the topology probe instead, so
    serialized reports never contain the pre-corruption values.
    """
    from .playbook import SAFETY_RULE_IDS, catalog_documentation

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
    lo, hi = MAGNITUDE_RANGE[spec.ftype]
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
            recovery_predicate="config-restored",
            lineage=state.lineage,
        )

    kind = KIND_OF[spec.ftype]
    pert = cluster.add_perturbation(state, kind, spec.target, magnitude)
    if spec.ftype == FailureType.POD_FAILURE:
        victims = [p for p in state.service_pods(spec.target) if p.phase == PodPhase.RUNNING]
        for pod in victims[: max(1, int(magnitude))]:
            pod.phase = PodPhase.CRASH_LOOP
    return FailureRecord(
        spec=spec,
        injected_at=state.clock_ms,
        handles=(pert.handle,),
        original_values={},
        recovery_predicate=_PREDICATE_OF[spec.ftype],
        lineage=state.lineage,
    )


def _is_active(state: ClusterState, spec: FailureSpec) -> bool:
    if spec.ftype == FailureType.CONFIG_ERROR:
        svc = state.topology.service(spec.target)
        return any(
            state.config_store.get((spec.target, key)) != value
            for key, value in svc.config.items()
        )
    return bool(state.active(KIND_OF[spec.ftype], spec.target))


_PREDICATE_OF = {
    FailureType.CPU_SATURATION: "cpu-in-band",
    FailureType.MEMORY_SATURATION: "mem-in-band",
    FailureType.IO_SATURATION: "io-in-band",
    FailureType.NETWORK_LOSS: "link-loss-clear",
    FailureType.NETWORK_DELAY: "link-delay-clear",
    FailureType.POD_FAILURE: "pods-running",
    FailureType.CONFIG_ERROR: "config-restored",
}


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
    label = LABEL_OF[spec.ftype]
    template = _DESCRIPTION_TEMPLATES[spec.category]
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

    Inspects only the injected target: cause removed and observable
    recovered. Immediately after injection this is False; after restore it
    is True, for every failure type.
    """
    _check_lineage(state, record)
    spec = record.spec

    if spec.ftype == FailureType.CONFIG_ERROR:
        for key, original in record.original_values.items():
            if state.config_store.get((spec.target, key)) != original:
                return False
        return _pods_running(state, spec.target)

    if state.active(KIND_OF[spec.ftype], spec.target):
        return False

    if spec.ftype in NETWORK_TYPES:
        src, dst = split_link_key(spec.target)
        link = state.find_link(src, dst)
        if link is None:
            return False
        value = link.loss_pct if spec.ftype == FailureType.NETWORK_LOSS else link.added_delay_ms
        return in_band(value, 0.0)

    if spec.ftype == FailureType.POD_FAILURE:
        return _pods_running(state, spec.target)

    # Resource stress: pods running and the stressed metric back in band.
    metric = {
        FailureType.CPU_SATURATION: "cpu_pct",
        FailureType.MEMORY_SATURATION: "mem_pct",
        FailureType.IO_SATURATION: "io_await_ms",
    }[spec.ftype]
    baseline = getattr(state.topology.service(spec.target).baseline, metric)
    pods = state.service_pods(spec.target)
    if not pods or not _pods_running(state, spec.target):
        return False
    return all(in_band(getattr(p, metric), baseline) for p in pods)


def _pods_running(state: ClusterState, service: str) -> bool:
    pods = state.service_pods(service)
    return bool(pods) and all(p.phase == PodPhase.RUNNING for p in pods)


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
        state.process_table.pop(handle, None)

    for key, original in record.original_values.items():
        cluster.set_config(state, spec.target, key, original)

    if spec.ftype in NETWORK_TYPES:
        src, dst = split_link_key(spec.target)
        link = state.find_link(src, dst)
        if link is not None:
            if spec.ftype == FailureType.NETWORK_LOSS:
                link.loss_pct = 0.0
            else:
                link.added_delay_ms = 0.0
        return state

    spec_baseline = state.topology.service(spec.target).baseline
    for pod in state.service_pods(spec.target):
        pod.phase = PodPhase.RUNNING
        pod.cpu_pct = spec_baseline.cpu_pct
        pod.mem_pct = spec_baseline.mem_pct
        pod.io_await_ms = spec_baseline.io_await_ms
    return state


# --- suites -------------------------------------------------------------------

SERVICE_TYPES = (
    FailureType.CPU_SATURATION,
    FailureType.MEMORY_SATURATION,
    FailureType.IO_SATURATION,
    FailureType.POD_FAILURE,
    FailureType.CONFIG_ERROR,
)


def candidate_targets(topology: Topology, ftype: FailureType) -> list[str]:
    if ftype in NETWORK_TYPES:
        return [link_key(l.src, l.dst) for l in topology.links]
    if ftype == FailureType.CONFIG_ERROR:
        return [s.name for s in topology.services.values() if s.config]
    return list(topology.services)


def target_services(spec: FailureSpec) -> set[str]:
    if spec.ftype in NETWORK_TYPES:
        return set(split_link_key(spec.target))
    return {spec.target}


def _independent(topology: Topology, a: FailureSpec, b: FailureSpec) -> bool:
    sa, sb = target_services(a), target_services(b)
    if sa & sb:
        return False
    return not any(topology.adjacent(x, y) for x in sa for y in sb)


def _coupled(topology: Topology, a: FailureSpec, b: FailureSpec) -> bool:
    sa, sb = target_services(a), target_services(b)
    return any(x != y and topology.adjacent(x, y) for x in sa for y in sb)


def _stable_u32(text: str) -> int:
    import hashlib

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

    cursors: dict[FailureType, int] = {ft: 0 for ft in ftypes}

    def next_primary(ft: FailureType) -> FailureSpec:
        pool = candidates[ft]
        target = pool[cursors[ft] % len(pool)]
        cursors[ft] += 1
        magnitude = DEFAULT_MAGNITUDE[ft]
        if ft == FailureType.CONFIG_ERROR:
            magnitude = float(cursors[ft] % 3)  # rotate over declared keys
        return FailureSpec(ftype=ft, target=target, magnitude=magnitude)

    def spec_for(ft: FailureType, target: str, salt: int) -> FailureSpec:
        magnitude = DEFAULT_MAGNITUDE[ft]
        if ft == FailureType.CONFIG_ERROR:
            magnitude = float(salt % 3)
        return FailureSpec(ftype=ft, target=target, magnitude=magnitude)

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
                partner = _find_partner(
                    topology, primary, ftypes, candidates, order, require="independent"
                )
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
            ft_u = SERVICE_TYPES[partner_cursor % len(SERVICE_TYPES)]
            partner_cursor += 1
            ft_v = SERVICE_TYPES[partner_cursor % len(SERVICE_TYPES)]
            partner_cursor += 1
            if ft_u == FailureType.CONFIG_ERROR and not topology.service(u).config:
                ft_u = FailureType.CPU_SATURATION
            if ft_v == FailureType.CONFIG_ERROR and not topology.service(v).config:
                ft_v = FailureType.MEMORY_SATURATION
            faults = [spec_for(ft_u, u, i), spec_for(ft_v, v, i + 1)]
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


def gen_catalog(topology: Topology, seed: int) -> SuiteCatalog:
    return SuiteCatalog(
        easy=tuple(gen_suite(topology, "easy", seed)),
        medium=tuple(gen_suite(topology, "medium", seed)),
        hard=tuple(gen_suite(topology, "hard", seed)),
    )


def _find_partner(topology, primary, ftypes, candidates, order, require) -> FailureSpec | None:
    flat: list[FailureSpec] = []
    for ft in ftypes:
        for j, target in enumerate(candidates[ft]):
            magnitude = DEFAULT_MAGNITUDE[ft]
            if ft == FailureType.CONFIG_ERROR:
                magnitude = float(j % 3)
            flat.append(FailureSpec(ftype=ft, target=target, magnitude=magnitude))
    for idx in order:
        spec = flat[int(idx) % len(flat)]
        if require == "independent" and _independent(topology, primary, spec):
            return spec
    return None


def _find_target(topology, ftype, pool, existing, order, salt) -> FailureSpec | None:
    taken = set()
    for f in existing:
        taken |= target_services(f)
    for idx in order:
        target = pool[int(idx) % len(pool)]
        magnitude = DEFAULT_MAGNITUDE[ftype]
        if ftype == FailureType.CONFIG_ERROR:
            magnitude = float(salt % 3)
        spec = FailureSpec(ftype=ftype, target=target, magnitude=magnitude)
        if not (target_services(spec) & taken):
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
