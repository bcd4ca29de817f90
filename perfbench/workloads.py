"""The three workloads: inputs from a seed, one unit of work, output checks.

A run repeats units of work until its time is up. ``prepare(k)`` builds the
inputs of unit ``k`` untimed; ``unit(k, tally)`` runs it, records the wall time
of every episode-producing call, with the calibration round run just before it
(see ``pace.py``), and checks every output; it returns hashes of the unit's
outputs. Units with the same ``unit_key`` must return equal hashes.

* ``suite-expert`` - ExpertPolicy, oracle verification, t_max=1, one ``hard``
  suite on boutique-like and one on ticket-like per unit, through
  ``bench.run_scenario``. Unit ``k`` uses suite seed ``seed * 1000 + k``, so no
  scenario repeats within a run.
* ``train-chain`` - uniform -> SFT -> GRPO -> DPO on simple-micro easy
  single-fault scenarios, with the hyperparameters of acceptance criterion 07.
  Every unit is the same chain, so the hashes must repeat.
* ``replay-untrusted`` - ReplayPolicy transcripts of mixed untrusted output,
  t_max=2, observable verification, one boutique-like ``hard`` suite per unit,
  persisted with ``bench.save_run`` and re-executed with ``bench.replay_run``.
"""

from __future__ import annotations

import hashlib
import json
import time

from remlab import bench, faults, training
from remlab.loop import LoopConfig
from remlab.playbook import TaskStatus
from remlab.policies import ExpertPolicy, ReplayPolicy, ToyPolicy, build_default_library
from remlab.topology import bundled_topology
from remlab.training import TrainConfig, TrainEnv, train_stage

import transcripts
from pace import PACE

MAX_PROBLEMS = 20


class Tally:
    """Operations attempted and failed, per-operation wall times, problems seen."""

    def __init__(self) -> None:
        self.op_ms: list[float] = []
        self.op_round: list[int | None] = []  # the calibration round run before each op
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.ra: list[float] = []
        self.extra: dict[str, list[float]] = {}

    def op(self, problem: str | None, ms: float | None = None, round_: int | None = None) -> None:
        self.attempted += 1
        if ms is not None:
            self.op_ms.append(ms)
            self.op_round.append(round_)
        if problem is not None:
            self.failed += 1
            self.note(problem)

    def note(self, problem: str) -> None:
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(problem)

    def add(self, key: str, value: float) -> None:
        self.extra.setdefault(key, []).append(value)


def digest(text: str | bytes) -> str:
    data = text.encode("utf-8") if isinstance(text, str) else text
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def _episode_hashes(episodes, aggregates) -> dict[str, str]:
    return {
        "episodes": digest(bench.episodes_to_jsonl(episodes)),
        "aggregates": digest(json.dumps(aggregates, sort_keys=True)),
    }


class Workload:
    name = ""
    min_units = 1
    min_ops = 100  # p90 needs at least 10 samples beyond it

    def instrument(self) -> None:
        """Install timing wrappers that must sit below the tracer's."""

    def uninstrument(self) -> None:
        pass

    def setup(self, seed: int, tiny: bool, out_root: str) -> None:
        raise NotImplementedError

    def prepare(self, k: int) -> None:
        pass

    def unit_key(self, k: int) -> int:
        return k

    def unit(self, k: int, tally: Tally) -> dict:
        raise NotImplementedError


class SuiteExpert(Workload):
    name = "suite-expert"
    topologies = ("boutique-like", "ticket-like")

    def setup(self, seed, tiny, out_root):
        self.seed = seed
        self.size = 12 if tiny else None
        self.env = {}
        for name in self.topologies:
            topo = bundled_topology(name)
            self.env[name] = (topo, build_default_library(topo), faults.build_aux(topo))
        self.suites = {}
        self.prepare(0)

    def prepare(self, k):
        if k not in self.suites:
            self.suites[k] = {
                name: faults.gen_suite(topo, "hard", self.seed * 1000 + k)[: self.size]
                for name, (topo, _, _) in self.env.items()
            }

    def unit(self, k, tally):
        hashes = {}
        for name, scenarios in self.suites.pop(k).items():
            topo, library, aux = self.env[name]
            manifest = bench.RunManifest(
                topology=name,
                difficulty="hard",
                seed=self.seed * 1000 + k,
                policy_id="expert",
                loop=LoopConfig(t_max=1, verification_mode="oracle"),
            )
            episodes = []
            for scenario in scenarios:
                policy = ExpertPolicy(library)
                round_ = PACE.tick()
                t0 = time.perf_counter()
                try:
                    episode = bench.run_scenario(scenario, topo, manifest, policy, aux)
                except Exception as exc:  # one bad episode must not end the run
                    tally.op(f"{name}/{scenario.scenario_id}: raised {exc!r}")
                    continue
                ms = (time.perf_counter() - t0) * 1e3
                episodes.append(episode)
                tally.op(self._check(name, episode), ms, round_)
                tally.add(f"episode_op.{name}", len(tally.op_ms) - 1)
            aggregates = bench.compute_aggregates(episodes)
            tally.ra.append(aggregates["ra"])
            if aggregates["ra"] != 1.0:
                tally.note(f"{name} suite {manifest.seed}: ra {aggregates['ra']} != 1.0")
            hashes[name] = _episode_hashes(episodes, aggregates)
        return hashes

    @staticmethod
    def _check(name, episode) -> str | None:
        if episode.error_tag:
            return f"{name}/{episode.scenario_id}: error_tag {episode.error_tag}"
        first = episode.attempts[0] if episode.attempts else None
        if not (
            episode.success
            and episode.oracle_verdict
            and len(episode.attempts) == 1
            and not first.safety.unsafe
        ):
            return f"{name}/{episode.scenario_id}: expert did not remediate on the first attempt"
        return None


class TrainChain(Workload):
    name = "train-chain"
    min_units = 2  # the chain repeats, so its hashes can be compared

    def instrument(self):
        original = training.rollout
        self._original_rollout = original
        self.tally: Tally | None = None
        t_max = LoopConfig().t_max

        def timed_rollout(*args, **kwargs):
            round_ = PACE.tick()
            t0 = time.perf_counter()
            try:
                episode, state = original(*args, **kwargs)
            except Exception as exc:
                self.tally.op(f"rollout raised {exc!r}")
                raise
            ms = (time.perf_counter() - t0) * 1e3
            problem = None
            if episode.error_tag:
                problem = f"rollout {episode.scenario_id}: error_tag {episode.error_tag}"
            elif not 1 <= len(episode.attempts) <= t_max + 1:
                problem = f"rollout {episode.scenario_id}: {len(episode.attempts)} attempts"
            elif episode.success != bool(episode.attempts[-1].verdict):
                problem = f"rollout {episode.scenario_id}: success disagrees with last verdict"
            self.tally.op(problem, ms, round_)
            return episode, state

        training.rollout = timed_rollout

    def uninstrument(self):
        training.rollout = self._original_rollout

    def setup(self, seed, tiny, out_root):
        self.seed = seed
        self.tiny = tiny
        topo = bundled_topology("simple-micro")
        library = build_default_library(topo)
        # Criterion 07's seeds at seed 0: suite 1, SFT/GRPO 5, mining/DPO 9, RA 11 and 17.
        self.seeds = {name: base + seed for name, base in
                      (("suite", 1), ("train", 5), ("mine", 9), ("ra_uniform", 11), ("ra_final", 17))}
        scenarios = [
            s for s in faults.gen_suite(topo, "easy", self.seeds["suite"]) if len(s.faults) == 1
        ]
        self.env = TrainEnv(topology=topo, scenarios=scenarios, library=library)
        scale = 10 if tiny else 1
        self.params = {
            "sft_iterations": 200 // scale,
            "grpo_iterations": 150 // scale,
            "mine_rollouts": 200 // scale,
            "dpo_iterations": 100 // scale,
        }

    def unit_key(self, k):
        return 0

    def _measure_ra(self, policy, seed):
        episodes = []
        for i, scenario in enumerate(self.env.scenarios):
            sampler = policy.clone(sample_seed=seed * 1000 + i)
            episode, _ = training.rollout(
                self.env, sampler, scenario, training.state_seed_for(seed, scenario.scenario_id)
            )
            episodes.append(episode)
        return episodes

    def unit(self, k, tally):
        self.tally = tally
        env, s, p = self.env, self.seeds, self.params
        stages = {}

        def timed(stage, fn, *args, **kwargs):
            spent, t0 = PACE.spent, time.perf_counter()
            out = fn(*args, **kwargs)
            stages[stage] = time.perf_counter() - t0 - (PACE.spent - spent)
            return out

        uniform_eps = self._measure_ra(ToyPolicy.uniform(env.library, env.topology), s["ra_uniform"])
        data = timed("harvest", training.harvest_expert, env, ExpertPolicy(env.library),
                     n=len(env.scenarios), seed=s["train"])
        sft_policy, sft_curve = timed("sft", train_stage, TrainConfig(
            stage="sft", learning_rate=2.0, iterations=p["sft_iterations"], seed=s["train"]),
            env, sft_data=data)
        grpo_policy, grpo_curve = timed("sim_rft", train_stage, TrainConfig(
            stage="sim_rft", learning_rate=0.5, iterations=p["grpo_iterations"], group_size=8,
            seed=s["train"]), env, init_policy=sft_policy)
        pairs = timed("mine", training.mine_preference_pairs, env, grpo_policy,
                      n_rollouts=p["mine_rollouts"], seed=s["mine"])
        train_pairs, held = pairs[::2], pairs[1::2]
        final_policy, dpo_curve = timed("real_rft", train_stage, TrainConfig(
            stage="real_rft", learning_rate=5.0, iterations=p["dpo_iterations"], dpo_beta=0.1,
            seed=s["mine"]), env, init_policy=grpo_policy, pairs=train_pairs)
        final_eps = self._measure_ra(final_policy, s["ra_final"])
        for stage, seconds in stages.items():
            tally.add(f"stage_s.{stage}", seconds)

        aggregates = bench.compute_aggregates(final_eps)
        tally.ra.append(aggregates["ra"])
        self._check(tally, sft_curve, pairs, held, grpo_policy, final_policy, aggregates["ra"])
        return {
            "uniform_episodes": digest(bench.episodes_to_jsonl(uniform_eps)),
            "sft_data": digest(training.sft_examples_to_jsonl(data)),
            "theta_sft": digest(sft_policy.theta.tobytes()),
            "theta_sim_rft": digest(grpo_policy.theta.tobytes()),
            "theta_final": digest(final_policy.theta.tobytes()),
            "pairs": digest(training.pref_pairs_to_jsonl(pairs)),
            "curves": digest(sft_curve.to_csv() + grpo_curve.to_csv() + dpo_curve.to_csv()),
            **_episode_hashes(final_eps, aggregates),
        }

    def _check(self, tally, sft_curve, pairs, held, grpo_policy, final_policy, ra):
        if self.tiny:
            return  # criterion 07's bars hold for the full-size chain only
        if sft_curve.points[-1]["loss"] >= 0.1:
            tally.note(f"SFT final loss {sft_curve.points[-1]['loss']:.4f} >= 0.1")
        if ra < 0.90:
            tally.note(f"ra after the chain {ra:.3f} < 0.90")
        if len(held) < 2:
            tally.note(f"only {len(pairs)} preference pairs mined")
            return

        def margin(policy):
            gaps = [policy.logprob(x.context_class, x.preferred)
                    - policy.logprob(x.context_class, x.rejected) for x in held]
            return sum(gaps) / len(gaps)

        if not margin(final_policy) > margin(grpo_policy):
            tally.note("DPO did not raise the held-out preference margin")


class ReplayUntrusted(Workload):
    name = "replay-untrusted"
    topology = "boutique-like"

    def setup(self, seed, tiny, out_root):
        self.seed = seed
        self.size = 20 if tiny else None
        self.out_root = out_root
        self.topo = bundled_topology(self.topology)
        self.library = build_default_library(self.topo)
        self.aux = faults.build_aux(self.topo)
        self.loop = LoopConfig(t_max=transcripts.MAX_ATTEMPTS - 1, verification_mode="observable")
        self.inputs = {}
        self.prepare(0)

    def prepare(self, k):
        if k not in self.inputs:
            suite_seed = self.seed * 1000 + k
            scenarios = faults.gen_suite(self.topo, "hard", suite_seed)[: self.size]
            self.inputs[k] = (scenarios, transcripts.generate(scenarios, self.library, suite_seed))

    def unit(self, k, tally):
        scenarios, scripts = self.inputs.pop(k)
        suite_seed = self.seed * 1000 + k
        manifest = bench.RunManifest(
            topology=self.topology,
            difficulty="hard",
            seed=suite_seed,
            policy_id="replay",
            policy_config={"transcript_seed": suite_seed},
            loop=self.loop,
        )
        episodes = []
        for scenario, script in zip(scenarios, scripts):
            policy = ReplayPolicy(script.outputs)
            round_ = PACE.tick()
            t0 = time.perf_counter()
            try:
                episode = bench.run_scenario(scenario, self.topo, manifest, policy, self.aux)
            except Exception as exc:  # one bad episode must not end the run
                tally.op(f"{scenario.scenario_id}: raised {exc!r}")
                continue
            ms = (time.perf_counter() - t0) * 1e3
            episodes.append(episode)
            tally.op(_check_replay_episode(episode, script), ms, round_)
        aggregates = bench.compute_aggregates(episodes)
        tally.ra.append(aggregates["ra"])
        result = bench.BenchResult(manifest=manifest, episodes=episodes, aggregates=aggregates)

        round_ = PACE.tick()
        t0 = time.perf_counter()
        run_dir = bench.save_run(result, scenarios, self.out_root)
        t1 = time.perf_counter()
        outcome = bench.replay_run(run_dir)
        t2 = time.perf_counter()
        tally.add("save_s", t1 - t0)
        tally.add("replay_s", t2 - t1)
        if round_ is not None:
            tally.add("replay_round", round_)
        tally.add("replayed", outcome["replayed"])

        # Each re-executed episode is an operation; it fails if its digest or verdict differs.
        for i in range(outcome["episodes"]):
            tally.op(None if i < outcome["digest_matches"] else
                     f"suite {suite_seed}: replay reproduced {outcome['digest_matches']}"
                     f" of {outcome['episodes']} episodes")
        if not outcome["aggregates_match"]:
            tally.note(f"suite {suite_seed}: stored aggregates do not recompute")
        if outcome["replayed"] != len(episodes):
            tally.note(f"suite {suite_seed}: replayed {outcome['replayed']} of {len(episodes)}")
        for kind, count in transcripts.kind_counts(scripts).items():
            tally.add(f"kind.{kind}", count)
        return {
            **_episode_hashes(episodes, aggregates),
            "replay": digest(json.dumps(
                {key: outcome[key] for key in ("aggregates_match", "replayed", "digest_matches")},
                sort_keys=True)),
            "kinds": digest(json.dumps(transcripts.kind_counts(scripts), sort_keys=True)),
        }


def _check_replay_episode(episode, script) -> str | None:
    """The episode must follow its transcript's plan exactly."""
    sid = episode.scenario_id
    if episode.error_tag:
        return f"{sid}: error_tag {episode.error_tag}"
    if (len(episode.attempts), episode.success) != (script.expected_attempts, script.expected_success):
        return (f"{sid}: {len(episode.attempts)} attempts, success={episode.success}; plan "
                f"{script.kinds} expects {script.expected_attempts}, {script.expected_success}")
    for attempt, kind, proposal, queries in zip(
        episode.attempts, script.kinds, script.proposals(), script.probe_queries
    ):
        trace = attempt.trace
        rules = attempt.safety.matched_rules
        expected = {
            "correct": attempt.verdict == 1 and not rules and attempt.struct.r_struct == 1.0,
            "fenced": attempt.verdict == 1 and not rules and attempt.struct.r_struct == 1.0,
            "malformed": attempt.verdict == 0 and trace is None,
            "unsafe": attempt.verdict == 0 and bool(rules),
            "out_of_scope": attempt.verdict == 0 and "out-of-scope-write" in rules,
            "unrecognized": attempt.verdict == 0 and trace is not None
            and bool(trace.by_status(TaskStatus.UNRECOGNIZED)),
            "distractor": attempt.verdict == 0 and trace is not None and not rules,
        }[kind]
        if not expected:
            return f"{sid}: attempt {attempt.index} ({kind}) had an unexpected outcome"
        if attempt.playbook_text != proposal.playbook_text:
            return f"{sid}: attempt {attempt.index} does not carry its proposal"
        if attempt.probes_used != (queries or 0):
            return f"{sid}: attempt {attempt.index} used {attempt.probes_used} probes, sent {queries or 0}"
    return None


WORKLOADS = {w.name: w for w in (SuiteExpert, TrainChain, ReplayUntrusted)}
