"""The bounded remediation loop: probe, generate, execute, verify, reflect.

One episode drives a single policy against a single injected failure
scenario. Within each attempt the policy may issue probe queries up to a
per-attempt budget, then must propose a playbook. The proposal is parsed,
structure-checked, safety-screened, executed, the cluster settles, and a
verification predicate produces a binary verdict. On failure, a reflection
step appends what went wrong (failed tasks, unrecognized commands, safety
hits, still-degraded targets) to the policy input and the loop retries,
bounded by the retry budget: total attempts never exceed t_max + 1.

Two verification modes exist. ``oracle`` consults the ground-truth
injection records (the benchmark setting); ``observable`` sees only the
reported targets' metrics and phases, as a live verifier would. The gap
between the two is measured per run, never assumed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from . import cluster, faults, playbook
from .cluster import ClusterState, PodPhase, in_band, split_link_key
from .errors import InvalidArgumentError, NotFoundError, TransportError
from .faults import FailureRecord, FailureReport
from .playbook import ExecutionTrace, SafetyConstraints, SafetyReport, StructReport
from .policies import (
    HistoryItem,
    Policy,
    PolicyInput,
    ProbeRequest,
    RemedyProposal,
)

VERIFICATION_MODES = ("oracle", "observable")


@dataclass(frozen=True)
class LoopConfig:
    t_max: int = 1  # retry budget; total attempts = t_max + 1
    probe_budget: int = 5  # max probe queries per attempt
    settle_steps: int = 10  # sim steps between execution and verification
    step_ms: int = 1000
    verification_mode: str = "oracle"
    no_probe: bool = False
    no_reflection: bool = False

    def validate(self) -> None:
        if self.t_max < 0 or self.probe_budget < 0:
            raise InvalidArgumentError("budgets must be >= 0")
        if self.settle_steps < 1:
            raise InvalidArgumentError("settle_steps must be >= 1")
        if self.step_ms <= 0:
            raise InvalidArgumentError("step_ms must be > 0")
        if self.verification_mode not in VERIFICATION_MODES:
            raise InvalidArgumentError(
                f"verification_mode must be one of {VERIFICATION_MODES}"
            )


@dataclass
class Attempt:
    index: int
    playbook_text: str
    struct: StructReport
    safety: SafetyReport
    trace: ExecutionTrace | None
    verdict: int
    probes_used: int
    tokens_in: int = 0
    tokens_out: int = 0
    error: str | None = None


@dataclass
class Episode:
    scenario_id: str
    policy_id: str
    attempts: list[Attempt] = field(default_factory=list)
    success: bool = False
    sim_latency_ms: int = 0
    wall_ms: float | None = None  # None for deterministic policies
    tokens_in: int = 0
    tokens_out: int = 0
    final_digest: str = ""
    error_tag: str | None = None
    oracle_verdict: bool | None = None
    observable_verdict: bool | None = None
    report_target: str = ""
    report_type: str = ""
    report_description: str = ""


def observable_verify(state: ClusterState, report: FailureReport) -> bool:
    """Verification without ground truth: reported targets look nominal.

    Service targets must have every pod Running with all metrics inside the
    baseline band; link targets must have shaping metrics inside the band
    around zero.
    """
    for target in report.target_service.split(","):
        if "->" in target:
            src, dst = split_link_key(target)
            link = state.find_link(src, dst)
            if link is None:
                raise NotFoundError(f"unknown link {target!r}")
            if not (in_band(link.added_delay_ms, 0.0) and in_band(link.loss_pct, 0.0)):
                return False
            continue
        if target not in state.topology.services:
            raise NotFoundError(f"unknown service {target!r}")
        baseline = state.topology.service(target).baseline
        pods = state.service_pods(target)
        if not pods:
            return False
        for pod in pods:
            if pod.phase != PodPhase.RUNNING:
                return False
            if not (
                in_band(pod.cpu_pct, baseline.cpu_pct)
                and in_band(pod.mem_pct, baseline.mem_pct)
                and in_band(pod.io_await_ms, baseline.io_await_ms)
            ):
                return False
    return True


def reflect(inp: PolicyInput, attempt: Attempt, state: ClusterState) -> PolicyInput:
    """Append what went wrong to the policy input. History only grows."""
    if attempt.trace is not None:
        failed = [r.task_name for r in attempt.trace.by_status(playbook.TaskStatus.FAILED)]
        if failed:
            inp.history.append(
                HistoryItem("reflection_failed_tasks", "failed tasks: " + ", ".join(failed))
            )
        unrecognized = [
            r.task_name for r in attempt.trace.by_status(playbook.TaskStatus.UNRECOGNIZED)
        ]
        if unrecognized:
            inp.history.append(
                HistoryItem(
                    "reflection_unrecognized",
                    "unrecognized commands in tasks: " + ", ".join(unrecognized),
                )
            )
    if attempt.safety.unsafe:
        inp.history.append(
            HistoryItem(
                "reflection_safety",
                "safety rules matched: " + ", ".join(attempt.safety.matched_rules),
            )
        )
    if not attempt.struct.checks.get("parsable", False):
        inp.history.append(
            HistoryItem("reflection_parse", "previous playbook did not parse")
        )
    degraded = _degraded_targets(state, inp.report)
    if degraded:
        inp.history.append(
            HistoryItem(
                "reflection_verification",
                "still degraded after verification: " + ", ".join(degraded),
            )
        )
    return inp


def _degraded_targets(state: ClusterState, report: FailureReport) -> list[str]:
    out = []
    for target in report.target_service.split(","):
        single = faults.FailureReport(
            target_service=target,
            failure_type=report.failure_type,
            description="",
            aux_context=report.aux_context,
        )
        try:
            if not observable_verify(state, single):
                out.append(target)
        except NotFoundError:
            continue
    return out


def run_episode(
    policy: Policy,
    state: ClusterState,
    records: list[FailureRecord],
    config: LoopConfig,
    report: FailureReport,
    scenario_id: str = "",
) -> Episode:
    """Run one bounded remediation episode against an already-faulted state."""
    config.validate()
    wall_start = time.monotonic()
    clock_start = state.clock_ms
    inp = PolicyInput(report=report, context=report.aux_context, history=[])
    episode = Episode(
        scenario_id=scenario_id,
        policy_id=policy.policy_id,
        report_target=report.target_service,
        report_type=report.failure_type,
        report_description=report.description,
    )

    scope = _neighborhood_scope(state, report)
    constraints = SafetyConstraints(
        all_services=tuple(state.topology.services), allowed_scope=scope
    )

    for t in range(config.t_max + 1):
        try:
            attempt = _run_attempt(policy, state, records, config, inp, constraints, t)
        except TransportError as exc:
            episode.error_tag = "transport-error"
            episode.attempts.append(
                Attempt(
                    index=t,
                    playbook_text="",
                    struct=playbook.EMPTY_STRUCT,
                    safety=SafetyReport(unsafe=False, matched_rules=()),
                    trace=None,
                    verdict=0,
                    probes_used=0,
                    error=str(exc),
                )
            )
            break
        episode.attempts.append(attempt)
        episode.tokens_in += attempt.tokens_in
        episode.tokens_out += attempt.tokens_out
        inp.history.append(
            HistoryItem(
                "verdict",
                f"attempt {t}: {'remediated' if attempt.verdict else 'not remediated'}",
            )
        )
        if attempt.verdict:
            break
        if t < config.t_max and not config.no_reflection:
            inp = reflect(inp, attempt, state)

    episode.success = bool(episode.attempts and episode.attempts[-1].verdict)
    episode.sim_latency_ms = state.clock_ms - clock_start
    episode.final_digest = cluster.digest(state)
    episode.oracle_verdict = all(faults.oracle_verify(state, r) for r in records)
    episode.observable_verdict = observable_verify(state, report)
    if not policy.deterministic:
        episode.wall_ms = (time.monotonic() - wall_start) * 1000.0
    return episode


def _run_attempt(
    policy: Policy,
    state: ClusterState,
    records: list[FailureRecord],
    config: LoopConfig,
    inp: PolicyInput,
    constraints: SafetyConstraints,
    t: int,
) -> Attempt:
    budget = 0 if config.no_probe else config.probe_budget
    probes_used = 0
    refused = False
    proposal: RemedyProposal | None = None

    # The policy gets a bounded number of chances to produce a proposal;
    # once the probe budget is spent, further probe requests are refused.
    for _ in range(budget + 2):
        output = policy.decide(inp)
        if isinstance(output, RemedyProposal):
            proposal = output
            break
        assert isinstance(output, ProbeRequest)
        remaining = budget - probes_used
        if remaining <= 0:
            if refused:
                break  # refused twice: give up on this attempt
            refused = True
            inp.history.append(
                HistoryItem("probe_refused", "probe budget exhausted; propose a playbook")
            )
            continue
        for query in output.queries[:remaining]:
            probes_used += 1
            try:
                result = cluster.observe(state, query)
                inp.history.append(
                    HistoryItem("probe_result", result.text, payload=dict(result.payload))
                )
            except NotFoundError as exc:
                inp.history.append(HistoryItem("probe_error", str(exc)))
        if len(output.queries) > remaining:
            refused = True
            inp.history.append(
                HistoryItem("probe_refused", "probe budget exhausted; propose a playbook")
            )

    if proposal is None:
        return Attempt(
            index=t,
            playbook_text="",
            struct=playbook.EMPTY_STRUCT,
            safety=SafetyReport(unsafe=False, matched_rules=()),
            trace=None,
            verdict=0,
            probes_used=probes_used,
            error="no-proposal",
        )

    parsed, struct = playbook.read_proposal(proposal.playbook_text)
    safety = SafetyReport(unsafe=False, matched_rules=())
    trace: ExecutionTrace | None = None
    if parsed is not None:
        safety = playbook.check_safety(parsed, constraints)
        trace = playbook.execute(parsed, state)

    for _ in range(config.settle_steps):
        cluster.step(state, config.step_ms)

    if config.verification_mode == "oracle":
        verdict = int(all(faults.oracle_verify(state, r) for r in records))
    else:
        verdict = int(observable_verify(state, inp.report))

    return Attempt(
        index=t,
        playbook_text=proposal.playbook_text,
        struct=struct,
        safety=safety,
        trace=trace,
        verdict=verdict,
        probes_used=probes_used,
        tokens_in=proposal.tokens_in,
        tokens_out=proposal.tokens_out,
    )


def _neighborhood_scope(state: ClusterState, report: FailureReport) -> tuple[str, ...]:
    """Reported targets plus their direct dependency neighborhood."""
    scope: set[str] = set()
    for target in report.target_service.split(","):
        if "->" in target:
            scope |= set(split_link_key(target))
        else:
            scope.add(target)
    for svc in list(scope):
        if svc not in state.topology.services:
            continue
        scope |= set(state.topology.service(svc).dependencies)
        for other in state.topology.services.values():
            if svc in other.dependencies:
                scope.add(other.name)
    return tuple(sorted(scope))
