import json
import os
import pathlib
import runpy
import sys

import numpy as np
import pytest

from remlab import training
from remlab.cli import main
from remlab.llm import LlmPolicy
from remlab.policies import CONTEXT_CLASSES, N_CONTEXT_CLASSES, ToyPolicy


def test_topology_check_ok(capsys):
    assert main(["topology", "check", "simple-micro"]) == 0
    out = capsys.readouterr().out
    assert "topology ok" in out


def test_topology_check_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("name: x\nservices:\n  - {name: a, dependencies: [ghost]}\n")
    assert main(["topology", "check", str(bad)]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_suite_gen_writes_file(tmp_path):
    out = tmp_path / "suite.jsonl"
    code = main([
        "suite", "gen", "--topology", "simple-micro",
        "--difficulty", "easy", "--seed", "1", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 23
    doc = json.loads(lines[0])
    assert doc["scenario_id"] == "easy-000"


def test_run_grade_report_replay_cycle(tmp_path, capsys):
    out_dir = tmp_path / "runs"
    code = main([
        "run", "--topology", "simple-micro", "--difficulty", "easy", "--seed", "2",
        "--policy", "expert", "--t-max", "1", "--out-dir", str(out_dir),
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "ra=1.0000" in stdout
    run_dir = stdout.splitlines()[0].split("run dir: ")[1]

    assert main(["grade", "--run-dir", run_dir]) == 0
    graded = capsys.readouterr().out
    assert graded.startswith("scenario_id,success,reward")

    assert main(["report", "--run-dir", run_dir]) == 0
    capsys.readouterr()

    assert main(["replay", "--run-dir", run_dir]) == 0
    replay_out = json.loads(capsys.readouterr().out)
    assert replay_out["aggregates_match"] is True


def test_run_with_ablation_flags_distinct_dirs(tmp_path, capsys):
    out_dir = tmp_path / "runs"
    dirs = set()
    for flags in ([], ["--no-probe"], ["--no-reflection"], ["--no-probe", "--no-reflection"]):
        code = main([
            "run", "--topology", "simple-micro", "--difficulty", "easy", "--seed", "3",
            "--policy", "noop", "--out-dir", str(out_dir), *flags,
        ])
        assert code == 0
        dirs.add(capsys.readouterr().out.splitlines()[0])
    assert len(dirs) == 4


def test_train_sft_stage(tmp_path, capsys):
    out_dir = tmp_path / "train"
    code = main([
        "train", "--stage", "sft", "--topology", "simple-micro",
        "--seed", "5", "--iterations", "150", "--out-dir", str(out_dir),
    ])
    assert code == 0
    assert (out_dir / "sft.json").exists()
    assert (out_dir / "sft_curve.csv").exists()
    data_lines = (out_dir / "sft_data.jsonl").read_text().strip().splitlines()
    assert len(data_lines) == 23
    assert json.loads(data_lines[0]).keys() == {"action", "context_class", "trace"}


def test_train_full_stage_chain(tmp_path, capsys):
    out_dir = tmp_path / "train"
    assert main([
        "train", "--stage", "sft", "--seed", "5", "--iterations", "150",
        "--out-dir", str(out_dir),
    ]) == 0
    assert main([
        "train", "--stage", "sim_rft", "--seed", "5", "--iterations", "40",
        "--init-checkpoint", str(out_dir / "sft.json"), "--out-dir", str(out_dir),
    ]) == 0
    assert main([
        "train", "--stage", "real_rft", "--seed", "9", "--iterations", "60",
        "--init-checkpoint", str(out_dir / "sim_rft.json"), "--out-dir", str(out_dir),
    ]) == 0
    for name in ("sft.json", "sim_rft.json", "real_rft.json", "pref_pairs.jsonl"):
        assert (out_dir / name).exists(), name


def test_unknown_policy_choice_is_config_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--policy", "psychic"])
    assert exc.value.code == 2


def test_weights_flag_parsing(tmp_path, capsys):
    out_dir = tmp_path / "runs"
    code = main([
        "run", "--topology", "simple-micro", "--difficulty", "easy", "--seed", "2",
        "--policy", "noop", "--weights", "1,0.1,0.1,0.5,2", "--out-dir", str(out_dir),
    ])
    assert code == 0
    code = main([
        "run", "--topology", "simple-micro", "--difficulty", "easy", "--seed", "2",
        "--policy", "noop", "--weights", "nonsense", "--out-dir", str(out_dir),
    ])
    assert code == 2


def test_non_finite_checkpoint_is_a_run_error(tmp_path, capsys, library, simple_micro):
    path = tmp_path / "nan.json"
    theta = np.full((N_CONTEXT_CLASSES, len(library)), np.nan)
    training.save_checkpoint(
        str(path), ToyPolicy(theta, library, simple_micro), training.TrainConfig(stage="sft")
    )
    code = main([
        "run", "--policy", "toy", "--checkpoint", str(path), "--out-dir", str(tmp_path / "runs"),
    ])
    assert code == 1
    assert "run error:" in capsys.readouterr().err


def test_a_real_rft_stage_that_mines_no_pair_leaves_no_output(tmp_path, capsys, library, simple_micro):
    """A policy that always picks the scripted fix yields no preference pair, so the
    stage fails; it fails before writing anything into --out-dir."""
    theta = np.zeros((N_CONTEXT_CLASSES, len(library)))
    for row, (ftype, _, _) in enumerate(CONTEXT_CLASSES):
        theta[row, library.expert_action(ftype)] = 1000.0
    path = tmp_path / "expert.json"
    training.save_checkpoint(
        str(path), ToyPolicy(theta, library, simple_micro), training.TrainConfig(stage="sft")
    )
    out_dir = tmp_path / "out"
    assert main([
        "train", "--stage", "real_rft", "--iterations", "5",
        "--init-checkpoint", str(path), "--out-dir", str(out_dir),
    ]) == 1
    assert capsys.readouterr().err == "run error: no preference pairs\n"
    assert not out_dir.exists()


def test_suite_gen_without_out_writes_stdout(capsys):
    assert main(["suite", "gen", "--difficulty", "easy", "--seed", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 23 and json.loads(lines[0])["scenario_id"] == "easy-000"


def _run_dir(stdout):
    return pathlib.Path(stdout.splitlines()[0].split("run dir: ")[1])


def test_run_toy_policy_uniform_and_from_a_checkpoint(tmp_path, capsys, library, simple_micro):
    out_dir = str(tmp_path / "runs")
    assert main(["run", "--policy", "toy", "--out-dir", out_dir]) == 0
    uniform_dir = _run_dir(capsys.readouterr().out)
    path = tmp_path / "uniform.json"
    training.save_checkpoint(
        str(path), ToyPolicy.uniform(library, simple_micro), training.TrainConfig(stage="sft")
    )
    assert main(["run", "--policy", "toy", "--checkpoint", str(path), "--out-dir", out_dir]) == 0
    checkpoint_dir = _run_dir(capsys.readouterr().out)
    manifest = json.loads((checkpoint_dir / "manifest.json").read_text())
    assert manifest["policy_config"] == {"checkpoint": "uniform.json"}
    # The same theta samples the same episodes, under another manifest.
    assert checkpoint_dir != uniform_dir
    for name in ("episodes.jsonl", "result.json"):
        assert (checkpoint_dir / name).read_bytes() == (uniform_dir / name).read_bytes()


def test_run_llm_policy_against_the_configured_endpoint(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REMLAB_TEST_URL", "http://127.0.0.1:9/v1/chat/completions")
    monkeypatch.setenv("REMLAB_TEST_MODEL", "small-model")
    reply = {"choices": [{"message": {"content": "no idea"}}], "usage": {"prompt_tokens": 7}}
    monkeypatch.setattr(LlmPolicy, "_post", lambda self, body: reply)
    code = main([
        "run", "--policy", "llm", "--endpoint-env", "REMLAB_TEST",
        "--out-dir", str(tmp_path / "runs"),
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "episodes=23 ra=0.0000" in stdout
    manifest = json.loads((_run_dir(stdout) / "manifest.json").read_text())
    assert manifest["policy_id"] == "llm" and manifest["policy_config"] == {"model": "small-model"}


@pytest.mark.parametrize(
    "argv",
    [
        ["replay", "--run-dir", "{missing}"],
        ["report", "--run-dir", "{missing}"],
        ["grade", "--run-dir", "{missing}"],
        ["topology", "check", "{missing}.yaml"],
        ["train", "--stage", "real_rft", "--init-checkpoint", "{missing}", "--out-dir", "{out}"],
    ],
)
def test_a_file_that_cannot_be_opened_is_a_run_error(tmp_path, capsys, argv):
    argv = [a.format(missing=tmp_path / "missing", out=tmp_path / "out") for a in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("run error: [Errno 2] No such file or directory")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--t-max", "-1"],
        ["run", "--settle-steps", "0"],
        ["run", "--probe-budget", "-2"],
        ["train", "--stage", "sft", "--iterations", "0"],
        ["train", "--stage", "sft", "--learning-rate", "0"],
        ["train", "--stage", "sim_rft", "--group-size", "1"],
        ["train", "--stage", "sim_rft"],
        ["train", "--stage", "real_rft"],
        ["run", "--weights", "1,2,3,4,nan"],
        ["run", "--weights", "inf,0.1,0.1,0.5,2"],
    ],
)
def test_a_bad_flag_value_is_a_configuration_error_before_any_work(tmp_path, capsys, argv):
    out_dir = tmp_path / "out"
    assert main([*argv, "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert "Traceback" not in err
    assert not out_dir.exists() or not any(out_dir.iterdir())


@pytest.mark.filterwarnings("ignore:'remlab.cli' found in sys.modules:RuntimeWarning")
def test_module_runs_as_a_script(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["remlab", "topology", "check", "simple-micro"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("remlab.cli", run_name="__main__")
    assert exc.value.code == 0
    assert "topology ok" in capsys.readouterr().out
