"""The bounded remediation loop: probe, generate, execute, verify, reflect.

One episode drives a single policy against a single injected failure
scenario, prepared by ``prepare_episode``. Within each attempt the policy
may issue probe queries up to a per-attempt budget, then must propose a
playbook. The proposal is parsed, structure-checked, safety-screened,
executed, the cluster settles, and a verification predicate produces a
binary verdict. On failure, a reflection step appends what went wrong
(failed tasks, unrecognized commands, safety hits, unparsed proposals,
still-degraded targets) to the policy input and the loop retries, bounded
by the retry budget: total attempts never exceed t_max + 1.

Two verification modes exist. ``oracle`` consults the ground-truth
injection records (the benchmark setting); ``observable`` sees only the
reported targets' metrics and phases, as a live verifier would. The gap
between the two is measured per run, never assumed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from . import cluster, faults, playbook
from .cluster import ClusterState, ProbeKind, ProbeQuery
from .errors import ConfigError, NotFoundError, TransportError
from .faults import AuxContext, FailureRecord, FailureReport, Scenario
from .playbook import ExecutionTrace, SafetyConstraints, SafetyReport, StructReport
from .policies import (
    HistoryItem,
    Policy,
    PolicyInput,
    ProbeRequest,
    RemedyProposal,
)
from .topology import Topology

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

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.t_max < 0 or self.probe_budget < 0:
            raise ConfigError("budgets must be >= 0")
        if self.settle_steps < 1:
            raise ConfigError("settle_steps must be >= 1")
        if self.step_ms <= 0:
            raise ConfigError("step_ms must be > 0")
        if self.verification_mode not in VERIFICATION_MODES:
            raise ConfigError(
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
    records = [faults.inject(state, spec) for spec in scenario.faults]
    cluster.settle(state, loop_config.settle_steps, loop_config.step_ms)
    report = faults.composite_report([faults.make_report(r, aux) for r in records])
    return state, records, report


def probe(state: ClusterState, query: ProbeQuery) -> HistoryItem:
    """Answer one probe as a history item: a ``probe_result``, or a ``probe_error``
    when the query names something the cluster does not have."""
    try:
        result = cluster.observe(state, query)
    except NotFoundError as exc:
        return HistoryItem("probe_error", str(exc))
    return HistoryItem("probe_result", result.text, payload=dict(result.payload))


def observable_verify(state: ClusterState, report: FailureReport) -> bool:
    """Verification without ground truth: every reported target is nominal
    on all its metrics (``cluster.nominal``).

    Raises NotFoundError for a target the cluster does not have.
    """
    return not _degraded_targets(state, report)


def reflect(
    inp: PolicyInput, attempt: Attempt, state: ClusterState, report: FailureReport
) -> PolicyInput:
    """Append what went wrong to the policy input. History only grows.

    ``report`` is the episode's own report: the policy may rebind ``inp.report``.
    """
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
    if attempt.error is None and attempt.trace is None:  # a proposal that did not parse
        inp.history.append(
            HistoryItem("reflection_parse", "previous playbook did not parse")
        )
    degraded = _degraded_targets(state, report)
    if degraded:
        inp.history.append(
            HistoryItem(
                "reflection_verification",
                "still degraded after verification: " + ", ".join(degraded),
            )
        )
    return inp


def _degraded_targets(state: ClusterState, report: FailureReport) -> list[str]:
    return [t for _, t in report.faults if not cluster.nominal(state, t)]


def run_episode(
    policy: Policy,
    state: ClusterState,
    records: list[FailureRecord],
    config: LoopConfig,
    report: FailureReport,
    scenario_id: str = "",
) -> Episode:
    """Run one bounded remediation episode against an already-faulted state."""
    wall_start = time.monotonic()
    clock_start = state.clock_ms
    inp = PolicyInput(report=report, context=report.aux_context, history=[])
    episode = Episode(
        scenario_id=scenario_id,
        policy_id=policy.policy_id,
        report_target=",".join(target for _, target in report.faults),
        report_type=",".join(ftype.value for ftype, _ in report.faults),
        report_description=report.description,
    )

    scope = _neighborhood_scope(state, report)
    constraints = SafetyConstraints(
        all_services=tuple(state.topology.services), allowed_scope=scope
    )

    for t in range(config.t_max + 1):
        try:
            attempt = _run_attempt(policy, state, records, config, report, inp, constraints, t)
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
            inp = reflect(inp, attempt, state, report)

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
    report: FailureReport,
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
        if remaining == 0 and refused:
            break  # refused twice: give up on this attempt
        for query in output.queries[:remaining]:
            probes_used += 1
            inp.history.append(probe(state, query))
        if remaining == 0 or len(output.queries) > remaining:
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

    cluster.settle(state, config.settle_steps, config.step_ms)

    if config.verification_mode == "oracle":
        verdict = int(all(faults.oracle_verify(state, r) for r in records))
    else:
        verdict = int(observable_verify(state, report))

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
    failure other than a TransportError, and any output whose fields do not
    have the declared types, becomes a _PolicyError."""
    try:
        output = policy.decide(inp)
    except TransportError:
        raise
    except Exception as exc:
        raise _PolicyError(f"policy raised {type(exc).__name__}: {exc}") from exc
    if isinstance(output, RemedyProposal):
        if not isinstance(output.playbook_text, str):
            raise _PolicyError("proposal playbook_text is not a str")
        if not all(type(n) is int and n >= 0 for n in (output.tokens_in, output.tokens_out)):
            raise _PolicyError("proposal token counts are not non-negative ints")
    elif isinstance(output, ProbeRequest):
        if type(output.queries) is not tuple or not all(map(_valid_query, output.queries)):
            raise _PolicyError("probe queries are not a tuple of valid ProbeQuery")
    else:
        raise _PolicyError(f"policy returned {type(output).__name__}, not a policy output")
    return output


def _valid_query(query: object) -> bool:
    if not isinstance(query, ProbeQuery) or not isinstance(query.kind, ProbeKind):
        return False
    fields = (query.service, query.key, query.src, query.dst)
    return all(v is None or isinstance(v, str) for v in fields)


def _neighborhood_scope(state: ClusterState, report: FailureReport) -> tuple[str, ...]:
    """Reported targets plus their direct dependency neighborhood."""
    scope: set[str] = set()
    for _, target in report.faults:
        scope.update(cluster.target_services(target))
    for svc in list(scope):
        scope |= set(state.topology.service(svc).dependencies)
        for other in state.topology.services.values():
            if svc in other.dependencies:
                scope.add(other.name)
    return tuple(sorted(scope))
