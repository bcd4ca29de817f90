"""Suite runner, metrics, persistence, and reports.

A run is identified by its manifest hash: topology, suite difficulty and
seed, policy, reward weights, loop configuration, and harness version.
Each run persists to one directory named by that hash, containing the
manifest, the generated suite, a line-delimited episode log
(schema ``episode/v1``), and result summaries. Re-running a manifest with
a deterministic policy reproduces the log and summaries byte for byte.

Metrics:

* ``ra``  — remediation accuracy: successes / total episodes.
* ``arl_ms`` — mean latency over successful episodes only (null when no
  episode succeeds); wall-clock when recorded, else simulated time.
* ``atc`` — mean (tokens_in + tokens_out) over successful episodes only
  (null when none); ``atc_all`` additionally reports the all-episode mean.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import os
from dataclasses import asdict, dataclass, field
from typing import Callable, Mapping, Sequence

from . import faults, loop, playbook
from .errors import RunError
from .faults import AuxContext, Scenario
from .grading import RewardWeights, grade
from .loop import Attempt, Episode, LoopConfig, run_episode
from .playbook import SafetyReport, StructReport, TaskResult, TaskStatus
from .policies import Policy, PolicyInput, PolicyOutput, ProbeRequest, RemedyProposal
from .topology import bundled_topology

EPISODE_SCHEMA = "episode/v1"
HARNESS_VERSION = "0.1.0"


@dataclass(frozen=True)
class RunManifest:
    topology: str
    difficulty: str
    seed: int
    policy_id: str
    policy_config: Mapping[str, object] = field(default_factory=dict)
    weights: RewardWeights = field(default_factory=RewardWeights)
    loop: LoopConfig = field(default_factory=LoopConfig)
    version: str = HARNESS_VERSION

    def to_doc(self) -> dict:
        return {
            "topology": self.topology,
            "difficulty": self.difficulty,
            "seed": self.seed,
            "policy_id": self.policy_id,
            "policy_config": dict(self.policy_config),
            "weights": list(self.weights.as_tuple()),
            "loop": asdict(self.loop),
            "version": self.version,
        }

    @classmethod
    def from_doc(cls, doc: Mapping) -> RunManifest:
        """Inverse of ``to_doc``: ``from_doc(m.to_doc()) == m``."""
        return cls(
            **{
                **doc,
                "weights": RewardWeights(*doc["weights"]),
                "loop": LoopConfig(**doc["loop"]),
            }
        )

    def canonical_json(self) -> str:
        return json.dumps(self.to_doc(), sort_keys=True, separators=(",", ":"))

    @property
    def manifest_hash(self) -> str:
        return hashlib.blake2b(
            self.canonical_json().encode("utf-8"), digest_size=8
        ).hexdigest()


@dataclass
class BenchResult:
    manifest: RunManifest
    episodes: list[Episode]
    aggregates: dict


# --- metrics -----------------------------------------------------------------------


def compute_ra(episodes: Sequence[Episode]) -> float:
    if not episodes:
        raise ValueError("cannot compute accuracy over zero episodes")
    return sum(1 for e in episodes if e.success) / len(episodes)


def _latency_ms(episode: Episode) -> float:
    return episode.wall_ms if episode.wall_ms is not None else float(episode.sim_latency_ms)


def compute_arl(episodes: Sequence[Episode]) -> float | None:
    wins = [e for e in episodes if e.success]
    if not wins:
        return None
    return sum(_latency_ms(e) for e in wins) / len(wins)


def compute_atc(episodes: Sequence[Episode]) -> float | None:
    wins = [e for e in episodes if e.success]
    if not wins:
        return None
    return sum(e.tokens_in + e.tokens_out for e in wins) / len(wins)


def compute_atc_all(episodes: Sequence[Episode]) -> float | None:
    if not episodes:
        return None
    return sum(e.tokens_in + e.tokens_out for e in episodes) / len(episodes)


def compute_agreement(episodes: Sequence[Episode]) -> float | None:
    """Fraction of episodes where observable and oracle verdicts agree."""
    pairs = [
        (e.oracle_verdict, e.observable_verdict)
        for e in episodes
        if e.oracle_verdict is not None and e.observable_verdict is not None
    ]
    if not pairs:
        return None
    return sum(1 for o, v in pairs if o == v) / len(pairs)


def compute_aggregates(episodes: Sequence[Episode]) -> dict:
    return {
        "episodes": len(episodes),
        "ra": compute_ra(episodes) if episodes else None,
        "arl_ms": compute_arl(episodes),
        "atc": compute_atc(episodes),
        "atc_all": compute_atc_all(episodes),
        "oracle_observable_agreement": compute_agreement(episodes),
    }


# --- running -----------------------------------------------------------------------


def run_scenario(
    scenario: Scenario,
    topology,
    manifest: RunManifest,
    policy: Policy,
    aux: AuxContext,
) -> Episode:
    """Fresh cluster, inject all faults, settle, run the episode."""
    state, records, report = loop.prepare_episode(
        topology,
        scenario,
        faults.state_seed_for(manifest.seed, scenario.scenario_id),
        manifest.loop,
        aux,
    )
    return run_episode(
        policy, state, records, manifest.loop, report, scenario_id=scenario.scenario_id
    )


def run_suite(
    policy_factory: Callable[[int, Scenario], Policy],
    topology,
    scenarios: Sequence[Scenario],
    manifest: RunManifest,
    out_dir: str | None = None,
    jobs: int = 1,
) -> BenchResult:
    """Run every scenario; optionally persist the run under out_dir.

    Episodes execute independently (optionally in parallel) but are always
    recorded in scenario order, so logs are deterministic regardless of
    scheduling.
    """
    aux = faults.build_aux(topology)

    def one(i_scenario: tuple[int, Scenario]) -> Episode:
        i, scenario = i_scenario
        return run_scenario(scenario, topology, manifest, policy_factory(i, scenario), aux)

    if jobs > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
            episodes = list(pool.map(one, enumerate(scenarios)))
    else:
        episodes = [one(pair) for pair in enumerate(scenarios)]

    result = BenchResult(
        manifest=manifest, episodes=episodes, aggregates=compute_aggregates(episodes)
    )
    if out_dir is not None:
        save_run(result, scenarios, out_dir)
    return result


# --- episode (de)serialization --------------------------------------------------------


def episode_to_doc(episode: Episode) -> dict:
    return {
        "schema": EPISODE_SCHEMA,
        "scenario_id": episode.scenario_id,
        "policy_id": episode.policy_id,
        "success": episode.success,
        "sim_latency_ms": episode.sim_latency_ms,
        "wall_ms": episode.wall_ms,
        "tokens_in": episode.tokens_in,
        "tokens_out": episode.tokens_out,
        "final_digest": episode.final_digest,
        "error_tag": episode.error_tag,
        "oracle_verdict": episode.oracle_verdict,
        "observable_verdict": episode.observable_verdict,
        "report": {
            "target_service": episode.report_target,
            "failure_type": episode.report_type,
            "description": episode.report_description,
        },
        "attempts": [
            {
                "index": a.index,
                "playbook_text": a.playbook_text,
                "struct": {"checks": dict(a.struct.checks), "r_struct": a.struct.r_struct},
                "safety": {"unsafe": a.safety.unsafe, "rules": list(a.safety.matched_rules)},
                "trace": None
                if a.trace is None
                else [
                    {
                        "task": r.task_name,
                        "status": r.status.value,
                        "stdout": r.stdout,
                        "registered": r.registered,
                    }
                    for r in a.trace.results
                ],
                "verdict": a.verdict,
                "probes_used": a.probes_used,
                "tokens_in": a.tokens_in,
                "tokens_out": a.tokens_out,
                "error": a.error,
            }
            for a in episode.attempts
        ],
    }


def episode_from_doc(doc: Mapping) -> Episode:
    episode = Episode(
        scenario_id=doc["scenario_id"],
        policy_id=doc["policy_id"],
        success=doc["success"],
        sim_latency_ms=doc["sim_latency_ms"],
        wall_ms=doc["wall_ms"],
        tokens_in=doc["tokens_in"],
        tokens_out=doc["tokens_out"],
        final_digest=doc["final_digest"],
        error_tag=doc["error_tag"],
        oracle_verdict=doc.get("oracle_verdict"),
        observable_verdict=doc.get("observable_verdict"),
        report_target=doc.get("report", {}).get("target_service", ""),
        report_type=doc.get("report", {}).get("failure_type", ""),
        report_description=doc.get("report", {}).get("description", ""),
    )
    for a in doc["attempts"]:
        trace = None
        if a["trace"] is not None:
            trace = playbook.ExecutionTrace(
                results=[
                    TaskResult(
                        task_name=r["task"],
                        status=TaskStatus(r["status"]),
                        stdout=r["stdout"],
                        registered=r["registered"],
                    )
                    for r in a["trace"]
                ]
            )
        episode.attempts.append(
            Attempt(
                index=a["index"],
                playbook_text=a["playbook_text"],
                struct=StructReport(checks=a["struct"]["checks"], r_struct=a["struct"]["r_struct"]),
                safety=SafetyReport(unsafe=a["safety"]["unsafe"], matched_rules=tuple(a["safety"]["rules"])),
                trace=trace,
                verdict=a["verdict"],
                probes_used=a["probes_used"],
                tokens_in=a.get("tokens_in", 0),
                tokens_out=a.get("tokens_out", 0),
                error=a["error"],
            )
        )
    return episode


def episodes_to_jsonl(episodes: Sequence[Episode]) -> str:
    return "\n".join(json.dumps(episode_to_doc(e), sort_keys=True) for e in episodes) + "\n"


def episodes_from_jsonl(text: str) -> list[Episode]:
    return [episode_from_doc(json.loads(line)) for line in text.splitlines() if line.strip()]


# --- persistence and reports -----------------------------------------------------------


def run_dir_for(manifest: RunManifest, root: str) -> str:
    return os.path.join(root, manifest.manifest_hash)


def save_run(result: BenchResult, scenarios: Sequence[Scenario], root: str) -> str:
    """Persist a run under root/<manifest-hash>/; returns the directory."""
    run_dir = run_dir_for(result.manifest, root)
    try:
        os.makedirs(run_dir, exist_ok=True)
        _write(run_dir, "manifest.json", result.manifest.canonical_json() + "\n")
        _write(run_dir, "suite.jsonl", faults.suite_to_jsonl(scenarios, result.manifest.topology))
        _write(run_dir, "episodes.jsonl", episodes_to_jsonl(result.episodes))
        _write(run_dir, "result.json", json.dumps(result.aggregates, sort_keys=True) + "\n")
        emit_report(result, run_dir)
    except OSError as exc:
        raise RunError(f"failed to persist run to {run_dir!r}: {exc}") from exc
    return run_dir


def _write(run_dir: str, name: str, content: str) -> str:
    path = os.path.join(run_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(content)
    return path


def _read(run_dir: str, name: str) -> str:
    with open(os.path.join(run_dir, name), encoding="utf-8") as fh:
        return fh.read()


def load_run(run_dir: str) -> tuple[dict, list[Scenario], list[Episode], dict]:
    return (
        json.loads(_read(run_dir, "manifest.json")),
        faults.suite_from_jsonl(_read(run_dir, "suite.jsonl")),
        episodes_from_jsonl(_read(run_dir, "episodes.jsonl")),
        json.loads(_read(run_dir, "result.json")),
    )


def emit_report(result: BenchResult, out_dir: str) -> list[str]:
    """Write result.csv, summary.txt and plot_points.csv; returns paths."""
    os.makedirs(out_dir, exist_ok=True)
    csv_lines = [
        "scenario_id,difficulty,success,attempts,latency_ms,tokens_in,tokens_out,reward,final_digest"
    ]
    for episode in result.episodes:
        reward = grade(episode, result.manifest.weights).total
        csv_lines.append(
            ",".join(
                [
                    episode.scenario_id,
                    result.manifest.difficulty,
                    str(int(episode.success)),
                    str(len(episode.attempts)),
                    f"{_latency_ms(episode):.1f}",
                    str(episode.tokens_in),
                    str(episode.tokens_out),
                    f"{reward:.4f}",
                    episode.final_digest,
                ]
            )
        )

    agg = result.aggregates
    summary_lines = [
        f"run {result.manifest.manifest_hash} "
        f"(topology={result.manifest.topology} policy={result.manifest.policy_id})",
        f"{'difficulty':<12}{'episodes':>10}{'ra':>8}{'arl_ms':>12}{'atc':>10}{'atc_all':>10}",
        (
            f"{result.manifest.difficulty:<12}{agg['episodes']:>10}"
            f"{_fmt_opt(agg['ra']):>8}{_fmt_opt(agg['arl_ms']):>12}"
            f"{_fmt_opt(agg['atc']):>10}{_fmt_opt(agg['atc_all']):>10}"
        ),
        f"oracle/observable agreement: {_fmt_opt(agg['oracle_observable_agreement'])}",
    ]

    plot_lines = ["label,arl_ms,ra"]
    if agg["arl_ms"] is not None:
        plot_lines.append(
            f"{result.manifest.policy_id}-{result.manifest.difficulty},"
            f"{agg['arl_ms']:.1f},{agg['ra']:.4f}"
        )
    return [
        _write(out_dir, name, "\n".join(lines) + "\n")
        for name, lines in (
            ("result.csv", csv_lines),
            ("summary.txt", summary_lines),
            ("plot_points.csv", plot_lines),
        )
    ]


def _fmt_opt(value) -> str:
    if value is None:
        return "-"
    return f"{value:.3f}" if isinstance(value, float) else str(value)


# --- replay -----------------------------------------------------------------------------


class _AttemptReplay(Policy):
    """Answers each attempt with the proposal its log records. An attempt that
    logged none gets empty probe requests, so the loop gives up on it as it did."""

    policy_id = "replay"

    def __init__(self, proposals: Sequence[RemedyProposal | None]):
        self._proposals = proposals

    def decide(self, inp: PolicyInput) -> PolicyOutput:
        proposal = self._proposals[inp.attempt_index()]
        return ProbeRequest(queries=()) if proposal is None else proposal


def replay_run(run_dir: str) -> dict:
    """Verify a persisted run: recompute aggregates and re-execute episodes.

    Aggregates must reproduce exactly from the episode log. Each episode's
    logged proposals are then replayed through a fresh injection of its
    scenario; final digests and verdicts must match for deterministic
    policies.
    """
    manifest_doc, scenarios, episodes, stored = load_run(run_dir)
    recomputed = compute_aggregates(episodes)
    aggregates_match = recomputed == stored

    topology = bundled_topology(manifest_doc["topology"])
    manifest = RunManifest.from_doc(manifest_doc)
    scenario_by_id = {s.scenario_id: s for s in scenarios}
    aux = faults.build_aux(topology)
    digest_matches = 0
    replayed = 0
    for episode in episodes:
        scenario = scenario_by_id.get(episode.scenario_id)
        if scenario is None or episode.error_tag:
            continue
        proposals = [
            None
            if a.error == "no-proposal"
            else RemedyProposal(
                playbook_text=a.playbook_text,
                reasoning_text="",
                tokens_in=a.tokens_in,
                tokens_out=a.tokens_out,
            )
            for a in episode.attempts
        ]
        replay_episode = run_scenario(
            scenario, topology, manifest, _AttemptReplay(proposals), aux
        )
        replayed += 1
        if (
            replay_episode.final_digest == episode.final_digest
            and replay_episode.success == episode.success
        ):
            digest_matches += 1
    return {
        "aggregates_match": aggregates_match,
        "episodes": len(episodes),
        "replayed": replayed,
        "digest_matches": digest_matches,
        "stored": stored,
        "recomputed": recomputed,
    }
