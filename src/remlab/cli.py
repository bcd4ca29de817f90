"""Command-line surface tying the pipeline together.

One verb per stage: ``topology check``, ``suite gen``, ``run``, ``grade``,
``train``, ``report``, ``replay``. Exit codes: 0 success, 1 run errors,
2 configuration errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import bench, faults, training
from .errors import ConfigError, RemlabError, TopologyError
from .grading import RewardWeights, grade
from .llm import DEFAULT_ENV_PREFIX, EndpointConfig, LlmPolicy
from .loop import LoopConfig
from .policies import ExpertPolicy, NoopPolicy, ToyPolicy, build_default_library
from .topology import load_topology_doc, summarize

POLICIES = ("expert", "noop", "toy", "llm")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="remlab", description="microservice auto-remediation proving ground"
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_topology = sub.add_parser("topology", help="topology utilities")
    topo_sub = p_topology.add_subparsers(dest="topology_verb", required=True)
    p_check = topo_sub.add_parser("check", help="validate a topology file or bundled name")
    p_check.add_argument("topology")

    p_suite = sub.add_parser("suite", help="suite utilities")
    suite_sub = p_suite.add_subparsers(dest="suite_verb", required=True)
    p_gen = suite_sub.add_parser("gen", help="generate a scenario suite")
    _suite_args(p_gen)
    p_gen.add_argument("--out", default=None, help="write suite JSONL here")

    p_run = sub.add_parser("run", help="run a policy over a suite")
    _suite_args(p_run)
    _run_args(p_run)

    p_grade = sub.add_parser("grade", help="recompute rewards for a persisted run")
    p_grade.add_argument("--run-dir", required=True)
    p_grade.add_argument("--weights", default=None, help="a,b,g,d,l")

    p_train = sub.add_parser("train", help="train the toy policy")
    p_train.add_argument("--stage", choices=training.STAGES, required=True)
    p_train.add_argument("--topology", default="simple-micro")
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--iterations", type=int, default=200)
    p_train.add_argument("--learning-rate", type=float, default=None)
    p_train.add_argument("--group-size", type=int, default=8)
    p_train.add_argument("--dpo-beta", type=float, default=0.1)
    p_train.add_argument("--init-checkpoint", default=None)
    p_train.add_argument("--out-dir", default="train-out")

    p_report = sub.add_parser("report", help="re-emit reports for a persisted run")
    p_report.add_argument("--run-dir", required=True)

    p_replay = sub.add_parser("replay", help="verify a persisted run by replaying it")
    p_replay.add_argument("--run-dir", required=True)

    return parser


def _suite_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--topology", default="simple-micro")
    parser.add_argument("--difficulty", choices=faults.DIFFICULTIES, default="easy")
    parser.add_argument("--seed", type=int, default=1)


def _run_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--policy", choices=POLICIES, default="expert")
    parser.add_argument("--t-max", type=int, default=1)
    parser.add_argument("--probe-budget", type=int, default=5)
    parser.add_argument("--settle-steps", type=int, default=10)
    parser.add_argument("--verification", choices=("oracle", "observable"), default="oracle")
    parser.add_argument("--no-probe", action="store_true")
    parser.add_argument("--no-reflection", action="store_true")
    parser.add_argument("--weights", default=None, help="a,b,g,d,l")
    parser.add_argument("--endpoint-env", default=DEFAULT_ENV_PREFIX)
    parser.add_argument("--checkpoint", default=None, help="toy policy checkpoint")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--out-dir", default="runs")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (ConfigError, TopologyError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (RemlabError, OSError) as exc:
        print(f"run error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args: argparse.Namespace) -> int:
    if args.verb == "topology":
        topology = load_topology_doc(args.topology)
        print(summarize(topology))
        print("topology ok")
        return 0

    if args.verb == "suite":
        topology = load_topology_doc(args.topology)
        scenarios = faults.gen_suite(topology, args.difficulty, args.seed)
        text = faults.suite_to_jsonl(scenarios, topology.name)
        if args.out:
            _write(args.out, text)
            print(f"wrote {len(scenarios)} scenarios to {args.out}")
        else:
            sys.stdout.write(text)
        return 0

    if args.verb == "run":
        return _run(args)

    if args.verb == "grade":
        weights = RewardWeights.from_csv(args.weights) if args.weights else RewardWeights()
        _, _, episodes, _ = bench.load_run(args.run_dir)
        print("scenario_id,success,reward")
        for episode in episodes:
            breakdown = grade(episode, weights)
            print(f"{episode.scenario_id},{int(episode.success)},{breakdown.total:.4f}")
        return 0

    if args.verb == "train":
        return _train(args)

    if args.verb == "report":
        manifest_doc, scenarios, episodes, aggregates = bench.load_run(args.run_dir)
        manifest = bench.RunManifest.from_doc(manifest_doc)
        result = bench.BenchResult(manifest=manifest, episodes=episodes, aggregates=aggregates)
        for path in bench.emit_report(result, args.run_dir):
            print(path)
        return 0

    # replay: argparse admits no verb but the ones above
    outcome = bench.replay_run(args.run_dir)
    print(json.dumps(outcome, sort_keys=True, indent=2, default=str))
    ok = outcome["aggregates_match"] and outcome["digest_matches"] == outcome["replayed"]
    return 0 if ok else 1


def _run(args: argparse.Namespace) -> int:
    loop = LoopConfig(
        t_max=args.t_max,
        probe_budget=args.probe_budget,
        settle_steps=args.settle_steps,
        verification_mode=args.verification,
        no_probe=args.no_probe,
        no_reflection=args.no_reflection,
    )
    weights = RewardWeights.from_csv(args.weights) if args.weights else RewardWeights()
    topology = load_topology_doc(args.topology)
    scenarios = faults.gen_suite(topology, args.difficulty, args.seed)
    library = build_default_library(topology)
    policy_config: dict[str, object] = {}

    if args.policy == "expert":
        factory = lambda i, s: ExpertPolicy(library)  # noqa: E731
    elif args.policy == "noop":
        factory = lambda i, s: NoopPolicy()  # noqa: E731
    elif args.policy == "toy":
        if args.checkpoint:
            base = training.load_checkpoint(args.checkpoint, library, topology)
            policy_config["checkpoint"] = os.path.basename(args.checkpoint)
        else:
            base = ToyPolicy.uniform(library, topology)
        factory = lambda i, s: base.clone(sample_seed=args.seed * 7919 + i)  # noqa: E731
    else:  # llm
        config = EndpointConfig.from_env(args.endpoint_env)
        policy_config["model"] = config.model
        factory = lambda i, s: LlmPolicy(config)  # noqa: E731

    manifest = bench.RunManifest(
        topology=topology.name,
        difficulty=args.difficulty,
        seed=args.seed,
        policy_id=args.policy,
        policy_config=policy_config,
        weights=weights,
        loop=loop,
    )
    result = bench.run_suite(
        factory, topology, scenarios, manifest, out_dir=args.out_dir, jobs=args.jobs
    )
    agg = result.aggregates
    print(f"run dir: {bench.run_dir_for(manifest, args.out_dir)}")
    print(
        f"episodes={agg['episodes']} ra={agg['ra']:.4f} "
        f"arl_ms={bench._fmt_opt(agg['arl_ms'])} atc={bench._fmt_opt(agg['atc'])}"
    )
    return 0


def _train(args: argparse.Namespace) -> int:
    default_lr = {"sft": 2.0, "sim_rft": 0.5, "real_rft": 5.0}[args.stage]
    config = training.TrainConfig(
        stage=args.stage,
        learning_rate=default_lr if args.learning_rate is None else args.learning_rate,
        iterations=args.iterations,
        group_size=args.group_size,
        dpo_beta=args.dpo_beta,
        seed=args.seed,
    )
    if args.stage != "sft" and not args.init_checkpoint:
        raise ConfigError(f"--stage {args.stage} requires --init-checkpoint")
    topology = load_topology_doc(args.topology)
    library = build_default_library(topology)
    scenarios = [
        s for s in faults.gen_suite(topology, "easy", args.seed) if len(s.faults) == 1
    ]
    env = training.TrainEnv(topology=topology, scenarios=scenarios, library=library)
    init = None
    if args.init_checkpoint:
        init = training.load_checkpoint(args.init_checkpoint, library, topology)

    sft_data, pairs = (), ()
    if args.stage == "sft":
        sft_data = training.harvest_expert(
            env, ExpertPolicy(library), n=len(scenarios), seed=args.seed
        )
    elif args.stage == "real_rft":
        pairs = training.mine_preference_pairs(
            env, init, n_rollouts=training.mining_rollouts(env), seed=args.seed
        )
    policy, curve = training.train_stage(
        config, env, init_policy=init, sft_data=sft_data, pairs=pairs
    )

    # Only a stage that trained writes anything, so a failed one leaves no stale data.
    os.makedirs(args.out_dir, exist_ok=True)
    if sft_data:
        _write(os.path.join(args.out_dir, "sft_data.jsonl"), training.sft_examples_to_jsonl(sft_data))
    if pairs:
        _write(os.path.join(args.out_dir, "pref_pairs.jsonl"), training.pref_pairs_to_jsonl(pairs))
    checkpoint_path = os.path.join(args.out_dir, f"{args.stage}.json")
    training.save_checkpoint(checkpoint_path, policy, config)
    curve_path = os.path.join(args.out_dir, f"{args.stage}_curve.csv")
    _write(curve_path, curve.to_csv())
    print(f"checkpoint: {checkpoint_path}")
    print(f"curve: {curve_path}")
    if curve.points:
        print(f"final loss: {curve.points[-1]['loss']:.6f}")
    return 0


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


if __name__ == "__main__":
    sys.exit(main())
