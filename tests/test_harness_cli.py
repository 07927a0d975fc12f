import contextlib
import csv
import io
import json
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import deferlab
import deferlab.harness
from deferlab.checkpoint import load_checkpoint, save_checkpoint
from deferlab.cli import main
from deferlab.config import validate_config
from deferlab.errors import TrainingDivergenceError
from deferlab.experts import PriorElicitation, write_prior_file
from deferlab.harness import VERSION_STRING, run_experiment, run_priors_study
from deferlab.nets import TrainConfig, row_blocks
from deferlab.simulate import generate_gaussian_task

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
            for v in (r.aursac(), r.aurdac(), r.classifier_accuracy):
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

    def test_seed_failing_in_a_later_cell_leaves_no_partial_results(self, tmp_path, monkeypatch):
        real_train = deferlab.harness.train
        calls = []

        def train_diverging_on_second_call(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise TrainingDivergenceError("loss became non-finite")
            return real_train(*args, **kwargs)

        monkeypatch.setattr(deferlab.harness, "train", train_diverging_on_second_call)
        cfg = validate_config(
            dict(TINY, method="ea_l2d", seeds=[1, 2], overlap_probabilities=[0.2, 0.8])
        )
        out = tmp_path / "out"
        result = run_experiment(cfg, out)
        assert len(calls) == 4  # seed 1 stops at its second cell, seed 2 runs both
        assert set(result.failures) == {1}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["failures"] == {"1": "loss became non-finite"}
        assert {r.seed for r in result.records} == {2}
        assert {o.seed for o in result.oracles} == {2}
        names = sorted(p.name for p in out.iterdir())
        assert not [n for n in names if "_seed1_" in n]
        # (ea_l2d, oracle) x two p values x (id, ood)
        assert len([n for n in names if "_seed2_" in n]) == 2 * 2 * 2
        for name in names:
            if name.startswith("metrics_"):
                lines = (out / name).read_text().splitlines()[1:]
                assert {line.rsplit(",", 1)[1] for line in lines} == {"2"}


class TestPriorsStudy:
    def test_emits_three_arms_with_matching_endpoint(self, tmp_path):
        cfg = validate_config(dict(TINY, method="ea_l2d", epochs=10))
        result = run_priors_study(cfg, tmp_path / "out")
        arms = {r.cohort for r in result.records}
        assert arms == {"accurate", "uninformative", "misdirected"}
        at_full = {r.expert_curve.accuracies[-1] for r in result.records}
        assert len(at_full) == 1  # all arms defer every case to the same expert
        names = {p.name for p in (tmp_path / "out").iterdir()}
        assert "priors_accurate_seed1.csv" in names
        assert "curve_priors_misdirected_seed1.csv" in names
        assert "metrics_priors_study.csv" in names

    def test_in_distribution_cohort_trains_with_the_prior_file(self, tmp_path, monkeypatch):
        real_train = deferlab.harness.train
        seen = []

        def recording_train(clf, rej, query, contexts, priors, *args, **kwargs):
            seen.append(priors)
            return real_train(clf, rej, query, contexts, priors, *args, **kwargs)

        monkeypatch.setattr(deferlab.harness, "train", recording_train)
        prior_path = tmp_path / "priors.csv"
        prior = PriorElicitation(np.full(4, 0.8), np.full(4, 0.5), 10.0)
        write_prior_file(prior_path, {0: prior})
        cfg = validate_config(dict(TINY, method="ea_l2d", prior_file=str(prior_path)))
        run_priors_study(cfg, tmp_path / "out")
        [(first, second)] = seen
        assert np.array_equal(first.p, prior.p) and first.s == prior.s
        assert second is None

    def test_diverging_later_seed_leaves_no_study_files(self, tmp_path, monkeypatch):
        real_train = deferlab.harness.train
        calls = []

        def train_diverging_on_second_call(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise TrainingDivergenceError("loss became non-finite")
            return real_train(*args, **kwargs)

        monkeypatch.setattr(deferlab.harness, "train", train_diverging_on_second_call)
        cfg = validate_config(dict(TINY, method="ea_l2d", seeds=[1, 2]))
        out = tmp_path / "out"
        with pytest.raises(TrainingDivergenceError, match="non-finite"):
            run_priors_study(cfg, out)
        assert len(calls) == 2
        assert not out.exists()


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

    def test_train_writes_no_files_for_a_seed_whose_later_method_diverges(
        self, tmp_path, monkeypatch
    ):
        def diverge(*args, **kwargs):
            raise TrainingDivergenceError("loss became non-finite")

        monkeypatch.setattr(deferlab.harness, "train_pop_avg", diverge)
        cfg_path = write_config(tmp_path, seeds=[1, 2])
        out = tmp_path / "train"
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["failures"]) == {"1", "2"}
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]

    def test_train_and_evaluate_share_the_first_cell_trainer(self, tmp_path, monkeypatch):
        # train's checkpoints are the networks evaluate trains and scores on cell (0, 0)
        cfg_path = write_config(tmp_path)
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "t")]) == 0
        cfg = validate_config(dict(TINY))
        task = generate_gaussian_task(cfg.task_spec(1))
        direct = deferlab.harness._train_cell(cfg, task, 1, 0, 0, None, cfg.methods, 100)[2]

        real_train_cell = deferlab.harness._train_cell
        from_evaluate = []

        def recording_train_cell(*args, **kwargs):
            cell = real_train_cell(*args, **kwargs)
            from_evaluate.append(cell[2])
            return cell

        monkeypatch.setattr(deferlab.harness, "_train_cell", recording_train_cell)
        assert main(["evaluate", "--config", str(cfg_path), "--out", str(tmp_path / "e")]) == 0
        for trained in (direct, from_evaluate[0]):
            assert list(trained) == cfg.methods
            for method, result in trained.items():
                path = tmp_path / f"{method}.npz"
                save_checkpoint(path, result.classifier, result.rejector, cfg.train_config(1))
                saved = tmp_path / "t" / f"checkpoint_{method}_p0_2_e1_seed1.npz"
                assert path.read_bytes() == saved.read_bytes()

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

    def test_sweep_summary_does_not_depend_on_eval_ranges(self, tmp_path):
        """The summary holds each cell's full-range AURDAC, whatever ranges
        the metric files cover."""
        summaries = []
        for i, ranges in enumerate([[[0, 1]], [[0, 0.5]]]):
            cfg_path = write_config(tmp_path, eval_ranges=ranges)
            out = tmp_path / f"sweep{i}"
            assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
            summaries.append((out / "sweep_summary.csv").read_bytes())
        assert summaries[1] == summaries[0]
        assert len(summaries[1].splitlines()) == 1 + 2  # one seed x two cohorts

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

    def test_theory_check_divergence_exits_three(self, tmp_path, capsys, monkeypatch):
        def diverge(*args, **kwargs):
            raise TrainingDivergenceError("gradient norm inf")

        monkeypatch.setattr(deferlab.harness, "train", diverge)
        code = main(["theory-check", "--seed", "0", "--out", str(tmp_path / "t")])
        assert code == 3
        assert "training diverged: gradient norm inf" in capsys.readouterr().err

    def test_theory_check_negative_control_exits_two(self, tmp_path, capsys):
        code = main(
            ["theory-check", "--seed", "0", "--out", str(tmp_path / "t"),
             "--bound-scale", "0.05"]
        )
        assert code == 2
        assert "FAIL" in capsys.readouterr().out
        report = (tmp_path / "t" / "theory_report.csv").read_text()
        assert ",fail" in report

    def test_theory_check_without_config_checks_its_seed(self, tmp_path, capsys):
        out = tmp_path / "t"
        assert main(["theory-check", "--seed", "-3", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: seeds must be ints >= 0 (got -3)\n"
        assert not out.exists()


# --- the CLI contract: every command x failure class ----------------------

METHODS = ("ea_l2d", "pop_avg")
DIVERGED = "training diverged: loss became non-finite\n"
SEEDS = [1, 2, 3]


def seed_files(command, seed):
    """The per-seed files a successful seed leaves on the TINY grid."""
    if command == "train":
        return {
            f"{kind}_{method}_p0_2_e1_seed{seed}.{ext}"
            for method in METHODS
            for kind, ext in (("checkpoint", "npz"), ("history", "csv"))
        }
    return {
        f"curve_{method}_p0_2_e1_seed{seed}_{cohort}.csv"
        for method in (*METHODS, "oracle")
        for cohort in ("id", "ood")
    }


EVALUATED_SEED1 = (
    seed_files("evaluate", 1)
    | {f"metrics_{method}_p0_2_e1.csv" for method in (*METHODS, "oracle")}
    | {"manifest.json"}
)
NO_OUT = None  # the command leaves no --out directory at all
ENOENT = "error: [Errno 2] No such file or directory: '{missing}'\n"
THEORY_FAIL_OUT = re.compile(r".*^FAIL identification_bound .*", re.S | re.M)

# (command, failure class, config override, diverging seeds, exit code,
#  files left in --out or NO_OUT, stdout, stderr). Expected streams are exact
#  strings after formatting {out}, {prior}, {missing} and {tmp}, or patterns that
#  must match fully. The missing-config rows pass {missing} as --config, and
#  the negative-seed-flag rows pass --seed -3.
# No command reads a dataset CSV (generate only writes them), so the
# malformed-CSV class applies to the prior file of the commands that load it.
# priors-study and theory-check fail as a whole when any seed diverges.
# theory-check rows also pass the --bound-scale their failure class names.
CLI_CONTRACT = [
    *[
        (command, "invalid-config", {"overlap_probabilities": [2.0]}, (), 1, NO_OUT, "",
         "error: overlap_probability must lie in [0, 1] (got 2.0)\n")
        for command in ("generate", "train", "evaluate", "sweep", "priors-study", "theory-check")
    ],
    *[
        (command, "wrong-type-config", {"learning_rate": "0.1"}, (), 1, NO_OUT, "",
         "error: key learning_rate has the wrong type\n")
        for command in ("generate", "train", "evaluate", "sweep", "priors-study", "theory-check")
    ],
    *[
        (command, failure, overrides, (), 1, NO_OUT, "", f"error: {message}\n")
        for failure, overrides, message in (
            ("zero-noise-scale", {"noise_scale": 0}, "noise_scale must be > 0"),
            ("negative-separation", {"separation": -1}, "separation must be >= 0"),
            ("negative-seed", {"seeds": [-1]}, "seeds must be ints >= 0 (got -1)"),
            ("negative-seed-flag", {}, "seeds must be ints >= 0 (got -3)"),
            ("cells-share-a-file-tag", {"overlap_probabilities": [0.2, 0.2000001]},
             "overlap_probabilities gives two grid cells the file tag p0_2_e1"),
        )
        for command in ("generate", "train", "evaluate", "sweep", "priors-study", "theory-check")
    ],
    ("theory-check", "bound-scale-inf", {}, (), 1, NO_OUT, "",
     "error: --bound-scale must be finite and > 0\n"),
    *[
        (command, "missing-config", {}, (), 1, NO_OUT, "", ENOENT)
        for command in ("generate", "train", "evaluate", "sweep", "priors-study", "theory-check")
    ],
    *[
        (command, "malformed-prior-csv", {"prior_file": "{prior}"}, (), 1, NO_OUT, "",
         "error: {prior}: line 3: need p and c in [0, 1] and finite s >= 2\n")
        for command in ("train", "evaluate", "sweep", "priors-study")
    ],
    *[
        (command, "missing-prior-file", {"prior_file": "{missing}"}, (), 1, NO_OUT, "", ENOENT)
        for command in ("train", "evaluate", "sweep", "priors-study")
    ],
    *[
        (command, "prior-file-is-a-directory", {"prior_file": "{tmp}"}, (), 1, NO_OUT, "",
         "error: [Errno 21] Is a directory: '{tmp}'\n")
        for command in ("train", "evaluate", "sweep", "priors-study")
    ],
    *[
        (command, "no-test-cases", {"test_size": 0}, (), 1, NO_OUT, "",
         "error: test_size must be >= 1 to evaluate\n")
        for command in ("evaluate", "sweep", "priors-study")
    ],
    ("train", "some-seeds-diverge", {}, (2,), 0, seed_files("train", 1) | {"manifest.json"},
     "wrote checkpoints to {out}\n", "seed 2: " + DIVERGED),
    ("evaluate", "some-seeds-diverge", {}, (2,), 0, EVALUATED_SEED1,
     "wrote 4 evaluation records to {out}\n", "seed 2: " + DIVERGED),
    ("sweep", "some-seeds-diverge", {}, (2,), 0, EVALUATED_SEED1 | {"sweep_summary.csv"},
     "sweep complete: 4 records in {out}\n", "seed 2: " + DIVERGED),
    ("priors-study", "some-seeds-diverge", {}, (2,), 3, NO_OUT, "", DIVERGED),
    *[
        (command, "every-seed-diverges", {}, (1, 2), 3, {"manifest.json"}, "",
         "seed 1: " + DIVERGED + "seed 2: " + DIVERGED)
        for command in ("train", "evaluate", "sweep")
    ],
    ("priors-study", "every-seed-diverges", {}, (1, 2), 3, NO_OUT, "", DIVERGED),
    ("theory-check", "every-seed-diverges", {}, (1,), 3, NO_OUT, "", DIVERGED),
    ("theory-check", "theory-check-fails", {}, (), 2, {"theory_report.csv"}, THEORY_FAIL_OUT, ""),
]


def diverge_for_seeds(monkeypatch, seeds):
    """Make the training loops raise the divergence error for ``seeds``: both
    loops for a seed of a sequence, the loop it names for a seed of a dict."""
    for name in ("train", "train_pop_avg"):
        def maybe_diverge(*args, _real=getattr(deferlab.harness, name), _name=name, **kwargs):
            cfg = next(a for a in args if isinstance(a, TrainConfig))
            if cfg.seed in seeds and (not isinstance(seeds, dict) or seeds[cfg.seed] == _name):
                raise TrainingDivergenceError("loss became non-finite")
            return _real(*args, **kwargs)

        monkeypatch.setattr(deferlab.harness, name, maybe_diverge)


@pytest.mark.parametrize(
    "command, failure, overrides, diverging, code, files, stdout, stderr",
    CLI_CONTRACT,
    ids=[f"{row[0]}-{row[1]}" for row in CLI_CONTRACT],
)
def test_cli_contract_matrix(
    tmp_path, capsys, monkeypatch, command, failure, overrides, diverging, code, files,
    stdout, stderr,
):
    prior = tmp_path / "priors.csv"
    prior.write_text("expert_id,class,p,c,s\n0,0,0.8,0.8,15\n0,1,nan,0.8,15\n")
    out = tmp_path / "out"
    missing = tmp_path / "missing"
    fill = {"out": out, "prior": prior, "missing": missing, "tmp": tmp_path}
    cfg_path = write_config(tmp_path, **{
        "seeds": [1, 2],
        **{k: v.format(**fill) if isinstance(v, str) else v for k, v in overrides.items()},
    })
    diverge_for_seeds(monkeypatch, diverging)
    config = missing if failure == "missing-config" else cfg_path
    argv = [command, "--config", str(config), "--out", str(out)]
    if command == "theory-check":
        argv += ["--seed", "1"]
    argv += {
        "theory-check-fails": ["--bound-scale", "0.05"],
        "bound-scale-inf": ["--bound-scale", "inf"],
        "negative-seed-flag": ["--seed", "-3"],
    }.get(failure, [])

    assert main(argv) == code
    left = {p.name for p in out.iterdir()} if out.exists() else NO_OUT
    assert left == files
    captured = capsys.readouterr()
    for got, want in ((captured.out, stdout), (captured.err, stderr)):
        if isinstance(want, str):
            assert got == want.format(**fill)
        else:
            assert want.fullmatch(got)


@pytest.mark.parametrize("command", ["train", "evaluate", "priors-study"])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_a_diverged_seed_leaves_nothing_behind(command, data):
    # priors-study trains ea_l2d only, so only ``train`` can fail its seeds
    loops = ["train"] if command == "priors-study" else ["train", "train_pop_avg"]
    failed = data.draw(st.dictionaries(st.sampled_from(SEEDS), st.sampled_from(loops)))
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        out = Path(tmp) / "out"
        diverge_for_seeds(mp, failed)
        argv = [command, "--config", str(write_config(Path(tmp), seeds=SEEDS)), "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        if command == "priors-study":
            # the study fails as a whole when any seed diverges
            assert (code, out.exists()) == ((3, False) if failed else (0, True))
            return
        assert code == (3 if len(failed) == len(SEEDS) else 0)
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["failures"]) == {str(seed) for seed in failed}
        names = [p.name for p in out.iterdir()]
        for seed in SEEDS:
            assert any(f"_seed{seed}" in n for n in names) == (seed not in failed), seed
        for name in names:
            if name.startswith("metrics_"):
                with open(out / name, newline="") as fh:
                    seeds = {int(row["seed"]) for row in csv.DictReader(fh)}
                assert seeds == set(SEEDS) - set(failed)


@pytest.mark.parametrize("command", ["evaluate", "sweep", "priors-study"])
def test_zero_test_size_fails_before_any_training(tmp_path, capsys, monkeypatch, command):
    def no_training(*args, **kwargs):
        raise AssertionError("a cell trained before test_size was checked")

    monkeypatch.setattr(deferlab.harness, "_train_cell", no_training)
    cfg_path = write_config(tmp_path, test_size=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: test_size must be >= 1 to evaluate\n"


@pytest.mark.parametrize("command", ["generate", "train"])
def test_zero_test_size_is_accepted_where_nothing_is_evaluated(tmp_path, command):
    cfg_path = write_config(tmp_path, test_size=0, seeds=[1])
    assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0


def test_one_version_string():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == deferlab.__version__
    assert VERSION_STRING == f"deferlab-{deferlab.__version__}"


def test_every_benchmark_span_fires_on_evaluate(tmp_path, monkeypatch):
    # The benchmark traces the functions in bench/tracing.py SPANS by module,
    # name and parameter names; evaluate with both methods calls all of them,
    # so a rename fails here and not only in a traced benchmark run.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import run
    import tracing

    prefix = str(tmp_path / "spans")
    args = ["evaluate", "--config", str(write_config(tmp_path)), "--out", str(tmp_path / "out")]
    assert run.spawn(str(tmp_path), "run", args, prefix)["exit_code"] == 0
    layers = run.layer_metrics(prefix, set(tracing.SPANS))  # raises on a span that never fired
    cfg = validate_config(TINY)
    assert cfg.methods == ["ea_l2d", "pop_avg"] and cfg.patience is None
    assert layers["deferral.train.calls"] == layers["deferral.train_pop_avg.calls"] == 1
    # without patience each of the two runs trains every epoch
    assert layers["deferral.epochs_run"] == 2 * cfg.epochs
    batches_per_epoch = -(-cfg.train_size // cfg.batch_size)
    assert layers["deferral.batches"] == 2 * cfg.epochs * batches_per_epoch
    # ea_l2d pairs every query example with each in-distribution expert,
    # the baseline has one term per example
    assert layers["deferral.pair_steps"] == cfg.epochs * cfg.train_size * (cfg.experts_id + 1)
    # one update of both networks' packed parameters per batch
    assert layers["nets.sgd_step.calls"] == layers["deferral.batches"]
    # one grid cell of one row block: each trained method scores every
    # cohort in one score_cases pass, which takes one case_priorities per
    # block, and each cohort picks its own cases
    assert len(cfg.overlap_probabilities) * len(cfg.expertise_grid()) == 1
    assert len(row_blocks(cfg.test_size)) == 1
    assert layers["evaluation.case_priorities.calls"] == 2
    assert layers["evaluation.score_cases.calls"] == 2
    # one oracle pass per seed serves every cell and cohort
    assert cfg.seeds == [1]
    assert layers["theory.bayes_optimal_reference.calls"] == 1
