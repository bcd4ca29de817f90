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
from .cluster import ClusterState
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
    struct: StructReport = playbook.EMPTY_STRUCT
    safety: SafetyReport = playbook.EMPTY_SAFETY
    trace: ExecutionTrace | None = None
    verdict: int = 0
    probes_used: int = 0
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
    """Verification without ground truth: every reported target is nominal
    on all its metrics (``cluster.nominal``).

    Raises NotFoundError for a target the cluster does not have.
    """
    return all(cluster.nominal(state, t) for t in report.target_service.split(","))


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
        try:
            if not cluster.nominal(state, target):
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
        except (TransportError, _PolicyError) as exc:
            episode.error_tag = (
                "transport-error" if isinstance(exc, TransportError) else "policy-error"
            )
            episode.attempts.append(Attempt(index=t, playbook_text="", error=str(exc)))
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
        output = _decide(policy, inp)
        if isinstance(output, RemedyProposal):
            proposal = output
            break
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
        return Attempt(index=t, playbook_text="", probes_used=probes_used, error="no-proposal")

    parsed, struct = playbook.read_proposal(proposal.playbook_text)
    safety = playbook.EMPTY_SAFETY
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


class _PolicyError(Exception):
    """The policy raised, or returned something other than a policy output."""


def _decide(policy: Policy, inp: PolicyInput) -> ProbeRequest | RemedyProposal:
    """Ask the policy for its next output. The policy is untrusted code: any
    failure other than a TransportError becomes a _PolicyError."""
    try:
        output = policy.decide(inp)
    except TransportError:
        raise
    except Exception as exc:
        raise _PolicyError(f"policy raised {type(exc).__name__}: {exc}") from exc
    if not isinstance(output, (ProbeRequest, RemedyProposal)):
        raise _PolicyError(f"policy returned {type(output).__name__}, not a policy output")
    return output


def _neighborhood_scope(state: ClusterState, report: FailureReport) -> tuple[str, ...]:
    """Reported targets plus their direct dependency neighborhood."""
    scope: set[str] = set()
    for target in report.target_service.split(","):
        scope.update(cluster.target_services(target))
    for svc in list(scope):
        if svc not in state.topology.services:
            continue
        scope |= set(state.topology.service(svc).dependencies)
        for other in state.topology.services.values():
            if svc in other.dependencies:
                scope.add(other.name)
    return tuple(sorted(scope))
