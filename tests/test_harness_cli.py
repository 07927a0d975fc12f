import json

import numpy as np
import pytest

from deferlab.checkpoint import load_checkpoint
from deferlab.cli import main
from deferlab.config import validate_config
from deferlab.harness import run_experiment, run_priors_study

TINY = dict(
    num_classes=4,
    dim=4,
    separation=2.5,
    noise_scale=1.0,
    train_size=120,
    val_size=40,
    test_size=60,
    context_pool_size=80,
    experts_id=2,
    experts_ood=2,
    overlap_probabilities=[0.2],
    context_size=20,
    seeds=[1],
    method=["ea_l2d", "pop_avg"],
    learning_rate=0.2,
    batch_size=32,
    epochs=6,
    patience=None,
)


def write_config(tmp_path, **overrides):
    raw = dict(TINY)
    raw.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


class TestRunExperiment:
    def test_produces_records_and_artifacts(self, tmp_path):
        cfg = validate_config(dict(TINY))
        result = run_experiment(cfg, tmp_path / "out")
        # 2 methods x 2 cohorts x 1 seed x 1 p
        assert len(result.records) == 4
        assert len(result.oracles) == 2
        assert not result.failures
        names = {p.name for p in (tmp_path / "out").iterdir()}
        assert "manifest.json" in names
        assert "metrics_ea_l2d_p0_2_e1.csv" in names
        assert "metrics_oracle_p0_2_e1.csv" in names
        assert "curve_pop_avg_p0_2_e1_seed1_ood.csv" in names
        for r in result.records:
            for v in list(r.aursac.values()) + list(r.aurdac.values()):
                assert 0.0 <= v <= 1.0

    def test_manifest_echoes_config(self, tmp_path):
        cfg = validate_config(dict(TINY))
        run_experiment(cfg, tmp_path / "out")
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["seeds"] == [1]
        assert manifest["version"].startswith("deferlab-")
        assert validate_config(manifest["config"]) == cfg

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = validate_config(dict(TINY))
        run_experiment(cfg, tmp_path / "a")
        run_experiment(cfg, tmp_path / "b")
        files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
        files_b = sorted(p.name for p in (tmp_path / "b").iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_prior_file_feeds_training_and_evaluation(self, tmp_path):
        prior_path = tmp_path / "priors.csv"
        lines = ["expert_id,class,p,c,s"]
        for expert_id in range(4):
            for k in range(4):
                c = 0.8 if k == expert_id else 0.0
                lines.append(f"{expert_id},{k},0.9,{c},12")
        prior_path.write_text("\n".join(lines) + "\n")
        cfg = validate_config(dict(TINY, prior_file=str(prior_path)))
        result = run_experiment(cfg, tmp_path / "out")
        assert not result.failures
        assert len(result.records) == 4

    def test_divergent_seed_recorded_and_others_run(self, tmp_path):
        cfg = validate_config(dict(TINY, learning_rate=1e12, seeds=[1, 2]))
        result = run_experiment(cfg, tmp_path / "out")
        assert set(result.failures) == {1, 2}
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert set(manifest["failures"]) == {"1", "2"}


class TestPriorsStudy:
    def test_emits_three_arms_with_matching_endpoint(self, tmp_path):
        cfg = validate_config(dict(TINY, method="ea_l2d", epochs=10))
        result = run_priors_study(cfg, tmp_path / "out")
        arms = {r.arm for r in result.records}
        assert arms == {"accurate", "uninformative", "misdirected"}
        at_full = {r.expert_accuracy_at_full_deferral for r in result.records}
        assert len(at_full) == 1  # all arms defer every case to the same expert
        names = {p.name for p in (tmp_path / "out").iterdir()}
        assert "priors_accurate_seed1.csv" in names
        assert "curve_priors_misdirected_seed1.csv" in names
        assert "metrics_priors_study.csv" in names


class TestCli:
    def test_generate_writes_datasets(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "gen"
        assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert (out / "dataset_train_seed1.csv").exists()
        assert (out / "dataset_context_pool_seed1.csv").exists()

    def test_train_writes_checkpoint_and_history(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "train"
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        clf, rej, cfg = load_checkpoint(out / "checkpoint_ea_l2d_p0_2_e1_seed1.npz")
        assert clf.output_dim == 4 and rej.input_dim == 4
        history = (out / "history_ea_l2d_p0_2_e1_seed1.csv").read_text().splitlines()
        assert history[0] == "epoch,train_loss,classifier_term,deferral_term,val_loss"
        assert len(history) == 7  # six epochs

    def test_evaluate_and_identical_rerun(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["evaluate", "--config", str(cfg_path), "--out", str(out_a)]) == 0
        assert main(["evaluate", "--config", str(cfg_path), "--out", str(out_b)]) == 0
        for name in sorted(p.name for p in out_a.iterdir() if p.suffix == ".csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_sweep_writes_gap_summary(self, tmp_path):
        cfg_path = write_config(tmp_path, overlap_probabilities=[0.2, 0.8])
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        lines = (out / "sweep_summary.csv").read_text().splitlines()
        assert lines[0] == "p,expertise,seed,cohort,ea_l2d_aurdac,pop_avg_aurdac,gap"
        assert len(lines) == 1 + 2 * 2  # two p values x two cohorts

    def test_priors_study_command(self, tmp_path):
        cfg_path = write_config(tmp_path, method="ea_l2d", epochs=8)
        out = tmp_path / "study"
        assert main(["priors-study", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert (out / "metrics_priors_study.csv").exists()

    def test_seed_override(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "gen2"
        assert main(["generate", "--config", str(cfg_path), "--seed", "9", "--out", str(out)]) == 0
        assert (out / "dataset_train_seed9.csv").exists()
        assert not (out / "dataset_train_seed1.csv").exists()

    def test_invalid_config_exits_one(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, overlap_probabilities=[2.0])
        code = main(["evaluate", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
        assert code == 1
        assert "overlap_probability" in capsys.readouterr().err

    def test_priors_study_divergence_exits_three(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, method="ea_l2d", learning_rate=1e9)
        code = main(["priors-study", "--config", str(cfg_path), "--out", str(tmp_path / "s")])
        assert code == 3
        assert "training diverged: " in capsys.readouterr().err

    def test_all_seeds_divergent_exits_three(self, tmp_path):
        cfg_path = write_config(tmp_path, learning_rate=1e12)
        code = main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "d")])
        assert code == 3

    def test_theory_check_default_grid_passes(self, tmp_path, capsys):
        code = main(["theory-check", "--out", str(tmp_path / "t")])
        assert code == 0
        out = capsys.readouterr().out
        assert "no seeds given; using default seed 0" in out
        assert "FAIL" not in out

    def test_theory_check_negative_control_exits_two(self, tmp_path, capsys):
        code = main(
            ["theory-check", "--seed", "0", "--out", str(tmp_path / "t"),
             "--bound-scale", "0.05"]
        )
        assert code == 2
        assert "FAIL" in capsys.readouterr().out
        report = (tmp_path / "t" / "theory_report.csv").read_text()
        assert ",fail" in report
