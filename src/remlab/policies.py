"""Decision-makers that turn failure reports into playbooks.

Four kinds ship with the package:

* ``ExpertPolicy`` — a deterministic scripted operator with a rulebook
  mapping each failure type to the template that fixes it; used to harvest
  imitation data and as the benchmark's solvability floor-to-ceiling probe.
* ``NoopPolicy`` — proposes nothing; the floor.
* ``ReplayPolicy`` — replays a recorded transcript of outputs.
* ``ToyPolicy`` — a tabular softmax policy over a small template action
  space, trainable in seconds; the subject of the staged training demos.

Policies see only the failure report, the auxiliary context, and probe
results. Ground-truth injection records are never reachable from here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import cluster, yamlio
from .cluster import (
    LINK_METRICS,
    POD_METRICS,
    ProbeQuery,
    in_band,
    split_link_key,
    target_services,
)
from .errors import InvalidArgumentError, TranscriptExhaustedError
from .faults import (
    AuxContext,
    FailureCategory,
    FailureReport,
    FailureType,
    NETWORK_TYPES,
    ROW_OF,
    report_faults,
)
from .topology import Topology


@dataclass
class HistoryItem:
    kind: str  # probe_result | probe_error | probe_refused | verdict | reflection kinds
    text: str
    payload: dict | None = None


@dataclass
class PolicyInput:
    """Everything a policy may condition on. History is append-only."""

    report: FailureReport
    context: AuxContext
    history: list[HistoryItem] = field(default_factory=list)

    def current_attempt_items(self) -> list[HistoryItem]:
        """Items appended since the last attempt verdict."""
        for i in range(len(self.history) - 1, -1, -1):
            if self.history[i].kind == "verdict":
                return self.history[i + 1 :]
        return list(self.history)

    def attempt_index(self) -> int:
        return sum(1 for item in self.history if item.kind == "verdict")


@dataclass(frozen=True)
class ProbeRequest:
    queries: tuple[ProbeQuery, ...]


@dataclass(frozen=True)
class RemedyProposal:
    playbook_text: str
    reasoning_text: str
    tokens_in: int
    tokens_out: int


PolicyOutput = ProbeRequest | RemedyProposal


def word_count(text: str) -> int:
    return len(text.split())


MAX_HISTORY_ITEMS = 20


def render_prompt(inp: PolicyInput) -> str:
    """Deterministic textual rendering of a policy input.

    Scripted policies use its word count as their synthetic token-in count
    so token metrics stay well-defined for every policy kind.
    """
    parts = [
        "[environment]",
        inp.context.environment_summary,
        "[constraints] " + ", ".join(inp.context.action_constraints),
        "[probes] " + ", ".join(inp.context.probe_catalog),
        "[report]",
        inp.report.description,
    ]
    items = inp.history[-MAX_HISTORY_ITEMS:]
    if items:
        parts.append("[history]")
        for item in items:
            parts.append(f"({item.kind}) {item.text}")
    return "\n".join(parts)


class Policy:
    """Base class: one decision per call, at most one episode at a time."""

    policy_id = "base"
    deterministic = True

    def decide(self, inp: PolicyInput) -> PolicyOutput:
        raise NotImplementedError


# --- template library ------------------------------------------------------------


@dataclass(frozen=True)
class Template:
    """One parameterized remediation playbook in the discrete action space."""

    template_id: int
    name: str
    fixes: FailureType | None  # None marks a distractor


def _fault_link(topology: Topology, target: str) -> tuple[str, str]:
    if "->" in target:
        return split_link_key(target)
    for link in topology.links:
        if link.src == target or link.dst == target:
            return link.src, link.dst
    link = topology.links[0]
    return link.src, link.dst


class TemplateLibrary:
    """Fixed, ordered action space of remediation templates.

    Every failure type has exactly one template that remediates it, plus a
    read-only diagnostic distractor, so a uniform policy's per-scenario
    success chance is exactly 1/len(templates).
    """

    def __init__(self, topology: Topology, templates: Sequence[Template]):
        self.topology = topology
        self.templates = tuple(templates)
        self._by_fix = {t.fixes: t.template_id for t in templates if t.fixes is not None}

    def __len__(self) -> int:
        return len(self.templates)

    def expert_action(self, ftype: FailureType) -> int:
        return self._by_fix[ftype]

    def play_doc(self, action_id: int, ftype: FailureType, target: str) -> dict:
        """Render one template into a play document for the given fault."""
        template = self.templates[action_id]
        svc = target_services(target)[0]
        fixes = template.fixes

        if fixes in NETWORK_TYPES:
            src, dst = _fault_link(self.topology, target)
            qdisc_kind = "loss" if fixes == FailureType.NETWORK_LOSS else "delay"
            return {
                "name": f"{template.name} on {src}:{dst}",
                "hosts": src,
                "become": True,
                "tasks": [
                    {
                        "name": f"clear {qdisc_kind} shaping",
                        "shell": f"tc qdisc del dev {src}:{dst} netem {qdisc_kind}",
                    }
                ],
            }

        if fixes is None:  # distractor: gather diagnostics, change nothing
            return {
                "name": f"{template.name} on {svc}",
                "hosts": svc,
                "tasks": [
                    {"name": "read cpu", "shell": f"get-metrics {svc} cpu"},
                    {"name": "read mem", "shell": f"get-metrics {svc} mem"},
                ],
            }

        # Remove the cause, if a task can, then restart the service.
        tasks = []
        if ROW_OF[fixes].category == FailureCategory.RESOURCE:
            kind = ROW_OF[fixes].kind.value
            tasks.append({"name": "kill stress process", "shell": f"pkill {kind}-{svc}"})
        elif fixes == FailureType.CONFIG_ERROR:
            config = self.topology.service(svc).config
            tasks += [
                {"name": f"reset config {key}", "shell": f"set-config {svc} {key} {config[key]}"}
                for key in sorted(config)
            ]
        tasks.append({"name": "restart service", "shell": f"kubectl rollout restart deploy {svc}"})
        return {
            "name": f"{template.name} on {svc}",
            "hosts": svc,
            "become": True,
            "tasks": tasks,
        }

    def render(self, action_id: int, faults: list[tuple[FailureType, str]]) -> str:
        """Render one template against (the first of) the reported faults."""
        ftype, target = faults[0]
        return yamlio.dump([self.play_doc(action_id, ftype, target)])

    def render_expert(self, faults: list[tuple[FailureType, str]]) -> str:
        """Render the matching template for every reported fault (one play each)."""
        docs = [
            self.play_doc(self.expert_action(ftype), ftype, target)
            for ftype, target in faults
        ]
        return yamlio.dump(docs)


def build_default_library(topology: Topology) -> TemplateLibrary:
    """The standard 8-template action space: 7 fixes plus one distractor."""
    templates = [
        Template(0, "relieve cpu stress", FailureType.CPU_SATURATION),
        Template(1, "relieve memory stress", FailureType.MEMORY_SATURATION),
        Template(2, "relieve io stress", FailureType.IO_SATURATION),
        Template(3, "clear packet loss", FailureType.NETWORK_LOSS),
        Template(4, "clear added delay", FailureType.NETWORK_DELAY),
        Template(5, "recover crashed pods", FailureType.POD_FAILURE),
        Template(6, "reset configuration", FailureType.CONFIG_ERROR),
        Template(7, "collect diagnostics", None),
    ]
    return TemplateLibrary(topology, templates)


# --- context classification --------------------------------------------------------

CONTEXT_CLASSES: tuple[tuple[FailureType, bool, bool], ...] = tuple(
    (ftype, target_degraded, dependency_degraded)
    for ftype in FailureType
    for target_degraded in (False, True)
    for dependency_degraded in (False, True)
)
N_CONTEXT_CLASSES = len(CONTEXT_CLASSES)  # 7 failure types x 2 x 2 = 28
_CLASS_INDEX = {cls: i for i, cls in enumerate(CONTEXT_CLASSES)}


def classify_context(inp: PolicyInput, topology: Topology) -> int:
    """Map (report, probe history) to one of the 28 coarse context classes.

    Features: the primary failure type, whether the probed target looks
    degraded, and whether a probed direct dependency looks degraded.
    Flags default to False when the relevant probe is missing.
    """
    faults = report_faults(inp.report)
    ftype, target = faults[0]
    named = target_services(target)
    svc = named[0]
    deps = set(topology.service(svc).dependencies)

    target_degraded = False
    dependency_degraded = False
    for item in inp.history:
        if item.kind != "probe_result" or not item.payload:
            continue
        payload = item.payload
        if "pods" in payload and payload.get("service"):
            service = payload["service"]
            degraded = _pods_degraded(payload, topology)
            if service in named:
                target_degraded = target_degraded or degraded
            elif service in deps:
                dependency_degraded = dependency_degraded or degraded
        elif "loss_pct" in payload:
            if {payload.get("src"), payload.get("dst")}.intersection(named):
                if not all(in_band(payload[m], 0.0) for m in LINK_METRICS):
                    target_degraded = True
    return _CLASS_INDEX[(ftype, target_degraded, dependency_degraded)]


def _pods_degraded(payload: dict, topology: Topology) -> bool:
    service = payload["service"]
    if service not in topology.services:
        return False
    baseline = topology.service(service).baseline
    for pod in payload["pods"]:
        if pod.get("phase") != "Running":
            return True
        if "cpu_pct" not in pod:
            continue  # a pod list reports phase only
        for m in POD_METRICS:
            if not in_band(pod[m], getattr(baseline, m)):
                return True
    return False


def context_probes(report: FailureReport, topology: Topology) -> tuple[ProbeQuery, ...]:
    """The probes a context class is read from: the first reported target's
    metrics, plus the pods of its service's first dependency, if any."""
    target = report.target_service.split(",")[0]
    queries = [_metrics_probe_for(target)]
    deps = topology.service(target_services(target)[0]).dependencies
    if deps:
        queries.append(cluster.pod_metrics_query(deps[0]))
    return tuple(queries)


def _metrics_probe_for(target: str) -> ProbeQuery:
    if "->" in target:
        src, dst = split_link_key(target)
        return cluster.link_stats_query(src, dst)
    return cluster.pod_metrics_query(target)


def _has_probed(inp: PolicyInput) -> bool:
    return any(
        item.kind in ("probe_result", "probe_error", "probe_refused")
        for item in inp.current_attempt_items()
    )


# --- concrete policies ---------------------------------------------------------------


class NoopPolicy(Policy):
    """Always proposes an empty playbook. The benchmark floor."""

    policy_id = "noop"

    def decide(self, inp: PolicyInput) -> PolicyOutput:
        reasoning = "no action taken"
        return RemedyProposal(
            playbook_text="",
            reasoning_text=reasoning,
            tokens_in=word_count(render_prompt(inp)),
            tokens_out=word_count(reasoning),
        )


class ExpertPolicy(Policy):
    """Scripted operator: probe the target once, then apply the rulebook."""

    policy_id = "expert"

    def __init__(self, library: TemplateLibrary):
        self.library = library

    def decide(self, inp: PolicyInput) -> PolicyOutput:
        faults = report_faults(inp.report)
        if not _has_probed(inp):
            return ProbeRequest(queries=(_metrics_probe_for(faults[0][1]),))
        playbook_text = self.library.render_expert(faults)
        reasoning = self._reasoning(inp, faults)
        return RemedyProposal(
            playbook_text=playbook_text,
            reasoning_text=reasoning,
            tokens_in=word_count(render_prompt(inp)),
            tokens_out=word_count(reasoning) + word_count(playbook_text),
        )

    def _reasoning(self, inp: PolicyInput, faults) -> str:
        parts = []
        for ftype, target in faults:
            template = self.library.templates[self.library.expert_action(ftype)]
            parts.append(
                f"report names {target} with {ftype.value}; applying '{template.name}'"
            )
        probed = sum(1 for i in inp.history if i.kind == "probe_result")
        parts.append(f"confirmed against {probed} probe result(s)")
        return "; ".join(parts)


class ReplayPolicy(Policy):
    """Replays a recorded sequence of policy outputs."""

    policy_id = "replay"

    def __init__(self, outputs: Sequence[PolicyOutput]):
        self._outputs = list(outputs)
        self._cursor = 0

    def decide(self, inp: PolicyInput) -> PolicyOutput:
        if self._cursor >= len(self._outputs):
            raise TranscriptExhaustedError(
                f"transcript exhausted after {self._cursor} outputs"
            )
        out = self._outputs[self._cursor]
        self._cursor += 1
        return out


class ToyPolicy(Policy):
    """Tabular softmax policy over the template action space.

    theta has one row per context class and one column per template.
    Sampling is a pure function of (sample_seed, context class, attempt
    index), so repeated calls with identical input reproduce the same
    draw. ``temperature`` must be finite and > 0; above 1 it flattens the
    sampling distribution (used to mine failure cases). Log-probabilities
    always use temperature 1.
    """

    policy_id = "toy"

    def __init__(
        self,
        theta: np.ndarray,
        library: TemplateLibrary,
        topology: Topology,
        sample_seed: int = 0,
        temperature: float = 1.0,
    ):
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (N_CONTEXT_CLASSES, len(library)):
            raise InvalidArgumentError(
                f"theta must have shape ({N_CONTEXT_CLASSES}, {len(library)})"
            )
        if not 0.0 < temperature < math.inf:
            raise InvalidArgumentError(f"temperature must be finite and > 0, got {temperature}")
        self.theta = theta
        self.library = library
        self.topology = topology
        self.sample_seed = sample_seed
        self.temperature = temperature
        self.last_decisions: list[tuple[int, int]] = []

    @classmethod
    def uniform(cls, library: TemplateLibrary, topology: Topology, **kw) -> "ToyPolicy":
        return cls(np.zeros((N_CONTEXT_CLASSES, len(library))), library, topology, **kw)

    def clone(self, sample_seed: int | None = None, temperature: float | None = None) -> "ToyPolicy":
        return ToyPolicy(
            self.theta.copy(),
            self.library,
            self.topology,
            sample_seed=self.sample_seed if sample_seed is None else sample_seed,
            temperature=self.temperature if temperature is None else temperature,
        )

    def probs(self, f: int) -> np.ndarray:
        return _softmax(self.theta[f])

    def logprob(self, f: int, a: int) -> float:
        row = self.theta[f]
        return float(row[a] - _logsumexp(row))

    def grad_logprob(self, f: int, a: int) -> np.ndarray:
        """d log pi(a|f) / d theta[f, :] = one_hot(a) - pi(.|f)."""
        grad = -self.probs(f)
        grad[a] += 1.0
        return grad

    def choose(self, f: int, attempt: int) -> int:
        """The action sampled in context class ``f`` at attempt ``attempt``."""
        rng = np.random.default_rng([self.sample_seed, f, attempt])
        logits = self.theta[f] / self.temperature
        return int(rng.choice(len(logits), p=_softmax(logits)))

    def decide(self, inp: PolicyInput) -> PolicyOutput:
        if not _has_probed(inp):
            return ProbeRequest(queries=context_probes(inp.report, self.topology))

        faults = report_faults(inp.report)
        f = classify_context(inp, self.topology)
        a = self.choose(f, inp.attempt_index())
        self.last_decisions.append((f, a))
        playbook_text = self.library.render(a, faults)
        template = self.library.templates[a]
        reasoning = f"context class {f}: trying template '{template.name}'"
        return RemedyProposal(
            playbook_text=playbook_text,
            reasoning_text=reasoning,
            tokens_in=word_count(render_prompt(inp)),
            tokens_out=word_count(reasoning) + word_count(playbook_text),
        )


def _softmax(x: np.ndarray) -> np.ndarray:
    z = x - np.max(x)
    e = np.exp(z)
    return e / e.sum()


def _logsumexp(x: np.ndarray) -> float:
    m = np.max(x)
    return float(m + np.log(np.exp(x - m).sum()))
