import json

import pytest

from deferlab.cli import main
from deferlab.config import ConfigError, parse_config, validate_config


def minimal_raw(**overrides):
    raw = dict(
        num_classes=5,
        dim=4,
        separation=2.0,
        noise_scale=1.0,
        train_size=100,
        val_size=20,
        test_size=40,
        context_pool_size=60,
        experts_id=2,
        experts_ood=2,
        overlap_probabilities=[0.2],
        context_size=20,
        seeds=[1],
    )
    raw.update(overrides)
    return raw


class TestValidation:
    def test_minimal_config_gets_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(minimal_raw()))
        cfg = parse_config(path)
        assert cfg.methods == ["ea_l2d"]
        assert cfg.context_subsample is None  # half of each context at train time
        assert cfg.eval_ranges == [(0.0, 1.0)]
        assert cfg.patience == 10
        assert cfg.expertise_grid() == [1]

    def test_overlap_probability_out_of_range_names_key(self):
        with pytest.raises(ConfigError, match="overlap_probability"):
            validate_config(minimal_raw(overlap_probabilities=[1.5]))

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            validate_config(minimal_raw(learning_rte=0.1))

    def test_missing_key_named(self):
        raw = minimal_raw()
        del raw["context_size"]
        with pytest.raises(ConfigError, match="context_size"):
            validate_config(raw)

    def test_duplicate_seeds_deduplicated_with_warning(self):
        with pytest.warns(UserWarning, match="duplicate seeds"):
            cfg = validate_config(minimal_raw(seeds=[3, 1, 3]))
        assert cfg.seeds == [3, 1]

    def test_method_string_or_list(self):
        assert validate_config(minimal_raw(method="pop_avg")).methods == ["pop_avg"]
        both = validate_config(minimal_raw(method=["ea_l2d", "pop_avg"]))
        assert both.methods == ["ea_l2d", "pop_avg"]
        with pytest.raises(ConfigError, match="method"):
            validate_config(minimal_raw(method="l2d_pop"))

    def test_percent_ranges_normalized(self):
        cfg = validate_config(minimal_raw(eval_ranges=[[0, 100], [0, 50], [0.1, 0.9]]))
        assert cfg.eval_ranges == [(0.0, 1.0), (0.0, 0.5), (0.1, 0.9)]

    def test_degenerate_range_rejected(self):
        with pytest.raises(ConfigError, match="eval_ranges"):
            validate_config(minimal_raw(eval_ranges=[[0.5, 0.5]]))

    def test_expertise_feasibility(self):
        with pytest.raises(ConfigError, match="expertise_per_expert"):
            validate_config(minimal_raw(expertise_per_expert=2))
        cfg = validate_config(minimal_raw(experts_id=1, experts_ood=1, expertise_per_expert=[1, 2]))
        assert cfg.expertise_grid() == [1, 2]

    def test_empty_validation_split_rejected(self):
        # training always validates on the val split, so it must not be empty
        with pytest.raises(ConfigError, match="val_size must be >= 1"):
            validate_config(minimal_raw(val_size=0))
        assert validate_config(minimal_raw(val_size=1)).val_size == 1

    def test_empty_in_distribution_cohort_rejected(self):
        # every method trains on the in-distribution cohort; the held-out one may be empty
        with pytest.raises(ConfigError, match="experts_id must be >= 1"):
            validate_config(minimal_raw(experts_id=0, experts_ood=2))
        assert validate_config(minimal_raw(experts_id=1, experts_ood=0)).experts_id == 1

    def test_context_subsample_above_context_size_rejected(self):
        # training subsamples each expert's context, so it cannot take more items than it holds
        with pytest.raises(ConfigError, match="context_subsample must not exceed context_size"):
            validate_config(minimal_raw(context_size=10, context_subsample=15))
        cfg = validate_config(minimal_raw(context_size=10, context_subsample=10))
        assert cfg.context_subsample == 10

    def test_context_the_pool_cannot_stratify_rejected(self):
        # K = 5 and a pool of 60 hold 12 items of each class: a context of 60
        # takes 12 of each, one of 61 needs 13 of one class
        with pytest.raises(ConfigError, match="context_size .* context_pool_size"):
            validate_config(minimal_raw(context_size=61))
        assert validate_config(minimal_raw(context_size=60)).context_size == 60
        # a pool of 64 holds 13 items of classes 0..3 but 12 of class 4
        with pytest.raises(ConfigError, match="context_pool_size"):
            validate_config(minimal_raw(context_pool_size=64, context_size=61))

    @pytest.mark.parametrize(
        "overrides, key",
        [(dict(context_pool_size=8), "context_size"),
         (dict(context_size=10, context_subsample=15), "context_subsample")],
    )
    def test_generate_rejects_a_context_the_run_cannot_draw(self, tmp_path, capsys, overrides, key):
        # generate shares the schema with the commands that draw the contexts
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(minimal_raw(**overrides)))
        assert main(["generate", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {key} ")

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ConfigError, match="seeds"):
            validate_config(minimal_raw(seeds=[]))

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_config(path)

    def test_wrong_type_rejected(self):
        with pytest.raises(ConfigError, match="num_classes"):
            validate_config(minimal_raw(num_classes="ten"))

    def test_echo_round_trips_through_validation(self):
        cfg = validate_config(minimal_raw(method=["ea_l2d", "pop_avg"], eval_ranges=[[0, 100]]))
        again = validate_config(cfg.echo())
        assert again == cfg
