"""Span tracing installed from outside, around remlab's public functions.

``Tracer.install`` replaces module attributes, and for methods class
attributes, with wrappers that record one span per call: name, start, end,
parent span and episode id. ``uninstall`` puts the originals back, so the
untraced runs execute remlab exactly as shipped. Names a module imported by
value (``bench.run_episode``, ``training.grade``, ...) are separate attributes
and get their own wrappers. Spans stay in memory until the run writes them out.

A few wrappers also keep counters at the same boundary: YAML bytes handed to
the playbook parser, playbook bytes proposed by policies, per-episode attempt
and probe counts, and GRPO groups whose rewards are all equal.

``bench.replay_run`` re-executes every logged episode with only its logged
proposals: no probe requests, and a fresh aux per episode. Spans below it are
flagged ``replay``, its hooks keep no counters, and the episode-layer metrics
count only the other spans, so the replay pass does not dilute them.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import Counter, defaultdict

from remlab import bench, cluster, faults, grading, loop, playbook, policies, topology, training

COLUMNS = ("name", "start_ns", "end_ns", "parent", "episode", "ok", "replay")
NAME, START, END, PARENT, EPISODE, OK, REPLAY = range(len(COLUMNS))

# Spans that start a new episode id: every span below them belongs to that episode.
ROOT_SPANS = ("bench.run_scenario", "training.rollout")
# Spans below this one belong to the replay pass.
REPLAY_SPAN = "bench.replay_run"


def _targets():
    """(owner, attribute, span name) for every wrapped callable."""
    lib = policies.TemplateLibrary
    return [
        (topology, "parse_topology", "topology.parse_topology"),
        (cluster, "load_topology", "cluster.load_topology"),
        (cluster, "step", "cluster.step"),
        (cluster, "digest", "cluster.digest"),
        (cluster, "observe", "cluster.observe"),
        (faults, "gen_suite", "faults.gen_suite"),
        (faults, "inject", "faults.inject"),
        (faults, "make_report", "faults.make_report"),
        (faults, "restore", "faults.restore"),
        (faults, "oracle_verify", "faults.oracle_verify"),
        (playbook, "parse_playbook", "playbook.parse_playbook"),
        (playbook, "check_structure", "playbook.check_structure"),
        (playbook, "extract_playbook_text", "playbook.extract_playbook_text"),
        (lib, "render", "policies.render"),
        (lib, "render_expert", "policies.render"),
        (policies.ExpertPolicy, "decide", "policies.decide"),
        (policies.ReplayPolicy, "decide", "policies.decide"),
        (policies.ToyPolicy, "decide", "policies.decide"),
        (policies, "render_prompt", "policies.render_prompt"),
        (policies, "classify_context", "policies.classify_context"),
        (training, "classify_context", "policies.classify_context"),
        (loop, "reflect", "loop.reflect"),
        (loop, "observable_verify", "loop.observable_verify"),
        (bench, "run_episode", "loop.run_episode"),
        (training, "run_episode", "loop.run_episode"),
        (grading, "grade", "grading.grade"),
        (bench, "grade", "grading.grade"),
        (training, "grade", "grading.grade"),
        (bench, "run_scenario", "bench.run_scenario"),
        (training, "rollout", "training.rollout"),
        (training, "sft_loss", "training.loss"),
        (training, "grpo_loss", "training.loss"),
        (training, "dpo_loss", "training.loss"),
        (bench, "save_run", "bench.save_run"),
        (bench, "load_run", "bench.load_run"),
        (bench, "episodes_to_jsonl", "bench.episodes_to_jsonl"),
        (bench, "replay_run", "bench.replay_run"),
    ]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.episodes: list[tuple[int, int, int]] = []  # (attempts, probes, first verdict)
        self.jsonl_bytes: list[int] = []
        self._stack: list[int] = []
        self._episode_stack: list[int] = []
        self._next_episode = 0
        self._replaying = 0
        self._saved: list[tuple[object, str, object]] = []

    # --- installation -------------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in _targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, _HOOKS.get(name)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name, hook):
        spans, stack, episode_stack = self.spans, self._stack, self._episode_stack
        is_root = name in ROOT_SPANS
        is_replay = name == REPLAY_SPAN
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, -1, False, self._replaying > 0]
            if is_replay:
                self._replaying += 1
            if is_root:
                episode_stack.append(self._next_episode)
                self._next_episode += 1
            if episode_stack:
                span[EPISODE] = episode_stack[-1]
            stack.append(len(spans))
            spans.append(span)
            result = None
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
                span[OK] = True
                return result
            finally:
                span[END] = clock()
                stack.pop()
                if is_root:
                    episode_stack.pop()
                if is_replay:
                    self._replaying -= 1
                if hook is not None and not span[REPLAY]:
                    hook(self, args, result)

        return wrapper

    # --- reduction ----------------------------------------------------------------

    def durations_ns(self, include_replay: bool = False) -> dict[str, list[int]]:
        out: dict[str, list[int]] = defaultdict(list)
        for s in self.spans:
            if include_replay or not s[REPLAY]:
                out[s[NAME]].append(s[END] - s[START])
        return out

    def self_ns(self) -> dict[str, list[int]]:
        """Span duration minus the time covered by its direct children, outside the replay pass."""
        child = [0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        out: dict[str, list[int]] = defaultdict(list)
        for i, s in enumerate(self.spans):
            if not s[REPLAY]:
                out[s[NAME]].append(s[END] - s[START] - child[i])
        return out

    def child_ns(self, parent_name: str, child_name: str) -> tuple[int, int]:
        """(total time of parent spans, part of it covered by named direct children)."""
        total = covered = 0
        for s in self.spans:
            if s[REPLAY]:
                continue
            if s[NAME] == parent_name:
                total += s[END] - s[START]
            elif s[NAME] == child_name and s[PARENT] >= 0:
                if self.spans[s[PARENT]][NAME] == parent_name:
                    covered += s[END] - s[START]
        return total, covered

    def failures(self, name: str) -> int:
        return sum(1 for s in self.spans if s[NAME] == name and not s[OK] and not s[REPLAY])


def median(values, scale: float = 1.0) -> float:
    return statistics.median(values) / scale if values else 0.0


# --- counter hooks, called after the wrapped call returns or raises -------------


def _yaml_bytes(tracer: Tracer, args, result) -> None:
    if args and isinstance(args[0], str):
        tracer.counters["yaml_bytes"] += len(args[0].encode("utf-8"))


def _proposed_bytes(tracer: Tracer, args, result) -> None:
    if isinstance(result, policies.RemedyProposal):
        tracer.counters["proposed_bytes"] += len(result.playbook_text.encode("utf-8"))


def _episode(tracer: Tracer, args, result) -> None:
    if result is not None:
        attempts = result.attempts
        tracer.episodes.append(
            (
                len(attempts),
                sum(a.probes_used for a in attempts),
                int(bool(attempts) and attempts[0].verdict == 1),
            )
        )


def _jsonl(tracer: Tracer, args, result) -> None:
    if result is not None:
        tracer.jsonl_bytes.append(len(result.encode("utf-8")))


def _loss(tracer: Tracer, args, result) -> None:
    # Only grpo_loss(policy, groups) gets groups; count those whose rewards are all equal.
    if len(args) == 2 and args[1] and isinstance(args[1][0], training.RolloutGroup):
        for group in args[1]:
            tracer.counters["grpo_groups"] += 1
            if len({m.reward for m in group.members}) == 1:
                tracer.counters["grpo_zero_adv_groups"] += 1


_HOOKS = {
    "playbook.parse_playbook": _yaml_bytes,
    "playbook.check_structure": _yaml_bytes,
    "policies.decide": _proposed_bytes,
    "loop.run_episode": _episode,
    "bench.episodes_to_jsonl": _jsonl,
    "training.loss": _loss,
}


def layer_metrics(setup: Tracer, units: Tracer, n_units: int, unit_wall_s: float) -> dict[str, float]:
    """Per-layer metrics from the set-up spans and the spans of ``n_units`` traced units.

    Counts are per unit, so they repeat exactly for a given seed. Medians are
    over every call. A layer the workload never calls reports 0. Only the
    ``bench.*`` metrics and ``cluster.step.share`` include the replay pass.
    """
    dur = units.durations_ns()
    everything = units.durations_ns(include_replay=True)
    own = units.self_ns()
    setup_dur = setup.durations_ns()
    us = lambda name: median(dur.get(name), 1e3)  # noqa: E731
    calls = lambda name: len(dur.get(name, ())) / n_units  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731

    n_episodes = sum(calls(name) for name in ROOT_SPANS)
    step_total = sum(everything.get("cluster.step", ()))
    rollout_total, rollout_episode = units.child_ns("training.rollout", "loop.run_episode")
    episodes = units.episodes
    return {
        "playbook.parse_playbook.calls": calls("playbook.parse_playbook"),
        "playbook.parse_playbook.us_p50": us("playbook.parse_playbook"),
        "playbook.parse_playbook.fail_frac": ratio(
            units.failures("playbook.parse_playbook"), len(dur.get("playbook.parse_playbook", ()))
        ),
        "playbook.check_structure.us_p50": us("playbook.check_structure"),
        "playbook.extract_playbook_text.calls": calls("playbook.extract_playbook_text"),
        "playbook.yaml_bytes_per_proposed_byte": ratio(
            units.counters["yaml_bytes"], units.counters["proposed_bytes"]
        ),
        "policies.render.us_p50": us("policies.render"),
        "policies.decide.calls": calls("policies.decide"),
        "policies.decide.self_us_p50": median(own.get("policies.decide"), 1e3),
        "policies.render_prompt.us_p50": us("policies.render_prompt"),
        "policies.classify_context.us_p50": us("policies.classify_context"),
        "cluster.step.calls": calls("cluster.step"),
        "cluster.step.us_p50": us("cluster.step"),
        "cluster.step.share": ratio(step_total / 1e9, unit_wall_s),
        "cluster.steps_per_episode": ratio(calls("cluster.step"), n_episodes),
        "cluster.load_topology.us_p50": us("cluster.load_topology"),
        "cluster.digest.us_p50": us("cluster.digest"),
        "cluster.observe.calls": calls("cluster.observe"),
        "cluster.observe.us_p50": us("cluster.observe"),
        "faults.inject.us_p50": us("faults.inject"),
        "faults.make_report.us_p50": us("faults.make_report"),
        "faults.restore.us_p50": us("faults.restore"),
        "faults.oracle_verify.us_p50": us("faults.oracle_verify"),
        "faults.oracle_verify.calls": calls("faults.oracle_verify"),
        "faults.gen_suite.ms": median(setup_dur.get("faults.gen_suite"), 1e6),
        "loop.run_episode.self_ms_p50": median(own.get("loop.run_episode"), 1e6),
        "loop.attempts_per_episode": ratio(sum(e[0] for e in episodes), len(episodes)),
        "loop.probes_per_episode": ratio(sum(e[1] for e in episodes), len(episodes)),
        "loop.first_attempt_success_frac": ratio(sum(e[2] for e in episodes), len(episodes)),
        "loop.reflect.calls": calls("loop.reflect"),
        "loop.reflect.us_p50": us("loop.reflect"),
        "loop.observable_verify.us_p50": us("loop.observable_verify"),
        "grading.grade.calls": calls("grading.grade"),
        "grading.grade.us_p50": us("grading.grade"),
        "training.rollout.calls": calls("training.rollout"),
        "training.rollout.prefix_share": ratio(rollout_total - rollout_episode, rollout_total),
        "training.loss.us_p50": us("training.loss"),
        "training.grpo.zero_adv_group_frac": ratio(
            units.counters["grpo_zero_adv_groups"], units.counters["grpo_groups"]
        ),
        "bench.save_run.ms": median(everything.get("bench.save_run"), 1e6),
        "bench.load_run.ms": median(everything.get("bench.load_run"), 1e6),
        "bench.episodes_to_jsonl.ms": median(everything.get("bench.episodes_to_jsonl"), 1e6),
        "bench.jsonl_bytes": median(units.jsonl_bytes),
        "bench.replay_run.s": median(everything.get("bench.replay_run"), 1e9),
        "topology.parse_topology.ms": median(setup_dur.get("topology.parse_topology"), 1e6),
    }
