import json
import os

import pytest

from remlab import bench, cluster, faults
from remlab.bench import (
    RunManifest,
    compute_agreement,
    compute_arl,
    compute_atc,
    compute_atc_all,
    compute_ra,
    emit_report,
    episodes_from_jsonl,
    episodes_to_jsonl,
    replay_run,
    run_suite,
)
from remlab.loop import Episode, LoopConfig
from remlab.cli import main
from remlab.policies import ExpertPolicy, NoopPolicy, ProbeRequest


def _episode(success, latency=1000, tokens=(10, 10), wall=None):
    e = Episode(scenario_id="s", policy_id="p")
    e.success = success
    e.sim_latency_ms = latency
    e.wall_ms = wall
    e.tokens_in, e.tokens_out = tokens
    return e


# --- metrics -------------------------------------------------------------------


def test_ra_arithmetic():
    episodes = [_episode(True), _episode(True), _episode(True), _episode(False)]
    assert compute_ra(episodes) == 0.75
    assert compute_ra([_episode(True)] * 3) == 1.0
    with pytest.raises(ValueError):
        compute_ra([])


def test_arl_over_successes_only():
    episodes = [
        _episode(True, latency=30000),
        _episode(True, latency=50000),
        _episode(False, latency=999999),
    ]
    assert compute_arl(episodes) == pytest.approx(40000.0)
    assert compute_arl([_episode(False)]) is None


def test_arl_prefers_wall_clock_when_recorded():
    episodes = [_episode(True, latency=1000, wall=2500.0)]
    assert compute_arl(episodes) == pytest.approx(2500.0)


def test_atc_over_successes_only():
    episodes = [
        _episode(True, tokens=(1000, 500)),
        _episode(True, tokens=(2000, 500)),
        _episode(False, tokens=(90000, 90000)),
    ]
    assert compute_atc(episodes) == pytest.approx(2000.0)
    assert compute_atc([_episode(False)]) is None
    assert compute_atc_all(episodes) == pytest.approx((1500 + 2500 + 180000) / 3)


def test_agreement_rate():
    a = _episode(True)
    a.oracle_verdict, a.observable_verdict = True, True
    b = _episode(False)
    b.oracle_verdict, b.observable_verdict = False, True
    assert compute_agreement([a, b]) == 0.5
    assert compute_agreement([]) is None


# --- manifests --------------------------------------------------------------------


def test_manifest_hash_is_stable_and_sensitive():
    m1 = RunManifest(topology="simple-micro", difficulty="easy", seed=1, policy_id="expert")
    m2 = RunManifest(topology="simple-micro", difficulty="easy", seed=1, policy_id="expert")
    m3 = RunManifest(topology="simple-micro", difficulty="easy", seed=2, policy_id="expert")
    m4 = RunManifest(
        topology="simple-micro", difficulty="easy", seed=1, policy_id="expert",
        loop=LoopConfig(no_probe=True),
    )
    assert m1.manifest_hash == m2.manifest_hash
    assert m1.manifest_hash != m3.manifest_hash
    assert m1.manifest_hash != m4.manifest_hash
    # Pinned: a change to the manifest document renames every run directory.
    assert m1.manifest_hash == "5ce98843a82ffd43"
    assert _toy_manifest().manifest_hash == "711d200fcc4b9233"


def _toy_manifest():
    return RunManifest(
        topology="boutique-like", difficulty="hard", seed=3, policy_id="toy",
        policy_config={"checkpoint": "c.json"},
        loop=LoopConfig(t_max=2, verification_mode="observable", no_probe=True),
    )


def test_manifest_doc_round_trip():
    for m in (RunManifest(topology="simple-micro", difficulty="easy", seed=1, policy_id="expert"),
              _toy_manifest()):
        assert RunManifest.from_doc(m.to_doc()) == m
        assert RunManifest.from_doc(json.loads(m.canonical_json())) == m


def test_ablation_flags_make_three_distinct_manifests():
    base = dict(topology="simple-micro", difficulty="easy", seed=1, policy_id="expert")
    hashes = {
        RunManifest(**base, loop=LoopConfig(no_probe=True)).manifest_hash,
        RunManifest(**base, loop=LoopConfig(no_reflection=True)).manifest_hash,
        RunManifest(**base, loop=LoopConfig(no_probe=True, no_reflection=True)).manifest_hash,
    }
    assert len(hashes) == 3


# --- run + persistence ----------------------------------------------------------------


@pytest.fixture(scope="module")
def expert_run(simple_micro, library, tmp_path_factory):
    root = tmp_path_factory.mktemp("runs")
    manifest = RunManifest(
        topology="simple-micro", difficulty="easy", seed=1, policy_id="expert"
    )
    scenarios = faults.gen_suite(simple_micro, "easy", seed=1)
    result = run_suite(
        lambda i, s: ExpertPolicy(library), simple_micro, scenarios, manifest,
        out_dir=str(root),
    )
    return result, scenarios, str(root)


def test_expert_easy_full_accuracy(expert_run):
    result, _, _ = expert_run
    assert result.aggregates["ra"] == 1.0
    assert result.aggregates["episodes"] == 23


def test_run_directory_layout(expert_run):
    result, _, root = expert_run
    run_dir = os.path.join(root, result.manifest.manifest_hash)
    for name in ("manifest.json", "suite.jsonl", "episodes.jsonl", "result.json",
                 "result.csv", "summary.txt", "plot_points.csv"):
        assert os.path.exists(os.path.join(run_dir, name)), name


def test_csv_row_count(expert_run):
    result, scenarios, root = expert_run
    run_dir = os.path.join(root, result.manifest.manifest_hash)
    with open(os.path.join(run_dir, "result.csv")) as fh:
        rows = fh.read().strip().splitlines()
    assert len(rows) == len(scenarios) + 1


def test_report_emission_is_deterministic(expert_run, tmp_path):
    result, _, _ = expert_run
    d1, d2 = tmp_path / "a", tmp_path / "b"
    emit_report(result, str(d1))
    emit_report(result, str(d2))
    for name in ("result.csv", "summary.txt", "plot_points.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_episode_serialization_round_trip(expert_run):
    result, _, _ = expert_run
    text = episodes_to_jsonl(result.episodes)
    restored = episodes_from_jsonl(text)
    assert episodes_to_jsonl(restored) == text


def test_episode_log_embeds_report_but_never_ground_truth(
    expert_run, simple_micro, library
):
    result, _, _ = expert_run
    for episode in result.episodes:
        assert episode.report_description
        assert episode.report_target in episode.report_description or "->" in episode.report_target
    # ground-truth leakage check on a config scenario: the corrupted key's
    # original value (a distinctive connection string) must not appear
    # anywhere in the serialized log of a failed remediation
    scenario = faults.Scenario(
        scenario_id="leak-check",
        difficulty="easy",
        faults=(faults.FailureSpec(faults.FailureType.CONFIG_ERROR, "orders", 0.0),),
    )
    original_value = simple_micro.service("orders").config["db_url"]
    assert "postgres" in original_value  # distinctive, no numeric collisions
    manifest = RunManifest(
        topology="simple-micro", difficulty="easy", seed=1, policy_id="noop"
    )
    noop_result = run_suite(
        lambda i, s: NoopPolicy(), simple_micro, [scenario], manifest
    )
    assert original_value not in episodes_to_jsonl(noop_result.episodes)


def test_aggregates_recomputable_from_log(expert_run):
    result, _, root = expert_run
    run_dir = os.path.join(root, result.manifest.manifest_hash)
    _, _, episodes, stored = bench.load_run(run_dir)
    assert bench.compute_aggregates(episodes) == stored


def test_rerun_reproduces_byte_identical_outputs(expert_run, simple_micro, library, tmp_path):
    result, scenarios, root = expert_run
    manifest = result.manifest
    second = run_suite(
        lambda i, s: ExpertPolicy(library), simple_micro, scenarios, manifest,
        out_dir=str(tmp_path),
    )
    d1 = os.path.join(root, manifest.manifest_hash)
    d2 = os.path.join(tmp_path, manifest.manifest_hash)
    for name in ("episodes.jsonl", "result.json", "result.csv", "summary.txt"):
        with open(os.path.join(d1, name), "rb") as f1, open(os.path.join(d2, name), "rb") as f2:
            assert f1.read() == f2.read(), name


def test_parallel_jobs_identical_log(simple_micro, library):
    manifest = RunManifest(
        topology="simple-micro", difficulty="easy", seed=4, policy_id="expert"
    )
    scenarios = faults.gen_suite(simple_micro, "easy", seed=4)[:8]
    serial = run_suite(lambda i, s: ExpertPolicy(library), simple_micro, scenarios, manifest)
    parallel = run_suite(
        lambda i, s: ExpertPolicy(library), simple_micro, scenarios, manifest, jobs=4
    )
    assert episodes_to_jsonl(serial.episodes) == episodes_to_jsonl(parallel.episodes)


def test_replay_verifies_run(expert_run, simple_micro):
    result, _, root = expert_run
    run_dir = os.path.join(root, result.manifest.manifest_hash)
    outcome = replay_run(run_dir, topology=simple_micro)
    assert outcome["aggregates_match"] is True
    assert outcome["replayed"] == 23
    assert outcome["digest_matches"] == 23


class _ProbeFirst(ExpertPolicy):
    """Sends only probe requests, past any budget, on the attempts before
    ``propose_from`` (None: on every attempt); then acts as the expert."""

    policy_id = "probe-first"

    def __init__(self, library, propose_from):
        super().__init__(library)
        self.propose_from = propose_from

    def decide(self, inp):
        if self.propose_from is None or inp.attempt_index() < self.propose_from:
            return ProbeRequest(queries=(cluster.topology_summary_query(),))
        return super().decide(inp)


@pytest.mark.parametrize("propose_from", [None, 1])
@pytest.mark.parametrize(
    "loop",
    [
        LoopConfig(),
        LoopConfig(no_probe=True),
        LoopConfig(probe_budget=0, t_max=2),
        LoopConfig(t_max=2, verification_mode="observable"),
    ],
)
def test_replay_reproduces_no_proposal_attempts(
    tmp_path, capsys, simple_micro, library, loop, propose_from
):
    manifest = RunManifest(
        topology="simple-micro", difficulty="hard", seed=1, policy_id="probe-first", loop=loop
    )
    scenarios = faults.gen_suite(simple_micro, "hard", seed=1)[:5]
    result = run_suite(
        lambda i, s: _ProbeFirst(library, propose_from),
        simple_micro,
        scenarios,
        manifest,
        out_dir=str(tmp_path),
    )
    assert all(e.attempts[0].error == "no-proposal" for e in result.episodes)
    run_dir = bench.run_dir_for(manifest, str(tmp_path))
    outcome = replay_run(run_dir)
    assert (outcome["replayed"], outcome["digest_matches"]) == (5, 5)
    assert main(["replay", "--run-dir", run_dir]) == 0
    assert json.loads(capsys.readouterr().out)["digest_matches"] == 5


def test_noop_floor(simple_micro):
    manifest = RunManifest(
        topology="simple-micro", difficulty="easy", seed=1, policy_id="noop"
    )
    scenarios = faults.gen_suite(simple_micro, "easy", seed=1)
    result = run_suite(lambda i, s: NoopPolicy(), simple_micro, scenarios, manifest)
    assert result.aggregates["ra"] == 0.0
    assert result.aggregates["arl_ms"] is None
    assert result.aggregates["atc"] is None
    assert result.aggregates["atc_all"] is not None
