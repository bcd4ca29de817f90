import json
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

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
from remlab.errors import RunError
from remlab.loop import VERIFICATION_MODES, Episode, LoopConfig
from remlab.cli import main
from remlab.policies import ExpertPolicy, NoopPolicy, ProbeRequest, RemedyProposal, ReplayPolicy


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
    assert compute_atc_all([]) is None


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


def test_replay_verifies_run(expert_run):
    result, _, root = expert_run
    run_dir = os.path.join(root, result.manifest.manifest_hash)
    outcome = replay_run(run_dir)
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


# Texts that do not parse into the playbook subset: unclosed flow sequence, a
# task with no action, tab indentation, a list of scalars.
_MALFORMED = (
    "- name: fix orders\n  hosts: [orders\n  tasks:\n    - shell: echo\n",
    "- name: fix orders\n  hosts: orders\n  tasks:\n    - name: restart\n      run: echo\n",
    "- name: fix orders\n\thosts: orders\n",
    "[1, 2]",
)
_PROBES = (
    (),
    (cluster.pod_metrics_query("orders"),),
    (cluster.topology_summary_query(), cluster.link_stats_query("frontend", "gateway")),
    (cluster.pod_metrics_query("ghost"), cluster.config_get_query("orders", "nope")),
)
# A proposal, or a run of probe requests, to be rendered against a scenario's faults.
_OUTPUTS = st.one_of(
    st.sampled_from(["expert", "distractor", "fenced"]),
    st.tuples(st.just("text"), st.sampled_from(_MALFORMED) | st.text(max_size=40)),
    st.tuples(st.just("probe"), st.sampled_from(_PROBES), st.integers(1, 6)),
)


def _render(kind, library, scenario):
    pairs = [(f.ftype, f.target) for f in scenario.faults]
    if kind[0] == "probe":
        return [ProbeRequest(queries=kind[1])] * kind[2]
    if kind == "expert":
        text = library.render_expert(pairs)
    elif kind == "distractor":
        text = library.render(7, pairs)
    elif kind == "fenced":
        text = f"Here is the fix:\n```yaml\n{library.render_expert(pairs)}```\n"
    else:
        text = kind[1]
    return [RemedyProposal(text, "", len(text), 1)]


@settings(max_examples=60, deadline=None)
@given(
    transcripts=st.lists(st.lists(_OUTPUTS, max_size=6), min_size=1, max_size=3),
    t_max=st.integers(0, 2),
    mode=st.sampled_from(VERIFICATION_MODES),
    probe_budget=st.integers(0, 3),
)
def test_replay_reproduces_random_transcripts(
    simple_micro, library, transcripts, t_max, mode, probe_budget
):
    """No transcript aborts the suite or exceeds the retry budget, and replaying
    the saved run reproduces the aggregates and every episode that did not end
    in an error."""
    loop = LoopConfig(t_max=t_max, probe_budget=probe_budget, verification_mode=mode)
    manifest = RunManifest(
        topology="simple-micro", difficulty="hard", seed=1, policy_id="replay", loop=loop
    )
    scenarios = faults.gen_suite(simple_micro, "hard", seed=1)[: len(transcripts)]
    with tempfile.TemporaryDirectory() as root:
        result = run_suite(
            lambda i, s: ReplayPolicy([o for k in transcripts[i] for o in _render(k, library, s)]),
            simple_micro,
            scenarios,
            manifest,
            out_dir=root,
        )
        assert all(len(e.attempts) <= t_max + 1 for e in result.episodes)
        outcome = replay_run(bench.run_dir_for(manifest, root))
    assert outcome["aggregates_match"] is True
    completed = sum(1 for e in result.episodes if e.error_tag is None)
    assert outcome["replayed"] == outcome["digest_matches"] == completed


class _Raises(ExpertPolicy):
    def decide(self, inp):
        raise RuntimeError("policy bug")


def test_replay_skips_episodes_that_ended_in_a_policy_error(tmp_path, simple_micro, library):
    manifest = RunManifest(topology="simple-micro", difficulty="easy", seed=1, policy_id="mixed")
    scenarios = faults.gen_suite(simple_micro, "easy", seed=1)[:4]
    result = run_suite(
        lambda i, s: _Raises(library) if i == 2 else ExpertPolicy(library),
        simple_micro,
        scenarios,
        manifest,
        out_dir=str(tmp_path),
    )
    assert [e.error_tag for e in result.episodes] == [None, None, "policy-error", None]
    outcome = replay_run(bench.run_dir_for(manifest, str(tmp_path)))
    assert (outcome["episodes"], outcome["replayed"], outcome["digest_matches"]) == (4, 3, 3)


def test_a_run_that_cannot_be_saved_is_a_run_error(tmp_path, simple_micro, library):
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    manifest = RunManifest(topology="simple-micro", difficulty="easy", seed=1, policy_id="expert")
    scenarios = faults.gen_suite(simple_micro, "easy", seed=1)[:1]
    with pytest.raises(RunError, match="failed to persist run"):
        run_suite(
            lambda i, s: ExpertPolicy(library), simple_micro, scenarios, manifest,
            out_dir=str(not_a_dir),
        )


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
