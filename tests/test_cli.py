import json
import os

import numpy as np
import pytest

from remlab import training
from remlab.cli import main
from remlab.policies import N_CONTEXT_CLASSES, ToyPolicy


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
