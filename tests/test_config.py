import json
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deferlab.cli import main
from deferlab.config import ConfigError, cell_tag, parse_config, validate_config


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

    def test_non_utf8_bytes_reported_naming_the_file(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"num_classes": 4, "name": "caf\xe9"}')
        with pytest.raises(ConfigError, match=r"latin1\.json: .*utf-8"):
            parse_config(path)

    def test_wrong_type_rejected(self):
        with pytest.raises(ConfigError, match="num_classes"):
            validate_config(minimal_raw(num_classes="ten"))

    def test_echo_round_trips_through_validation(self):
        cfg = validate_config(minimal_raw(method=["ea_l2d", "pop_avg"], eval_ranges=[[0, 100]]))
        again = validate_config(cfg.echo())
        assert again == cfg


# One wrong value at a time on a valid config: each must fail validation
# with one error line that names the key, before any file is written.
MISTYPED = [
    ("learning_rate", "0.1"), ("learning_rate", True), ("learning_rate", float("inf")),
    ("epochs", 2.5), ("batch_size", 32.0), ("patience", "3"), ("patience", 1.5),
    ("context_subsample", "5"), ("context_subsample", 2.5),
    ("weight_decay", "0"), ("weight_decay", True), ("weight_decay", float("nan")),
    ("method", 5), ("method", []), ("prior_file", 5),
    ("overlap_probabilities", [True]), ("classifier_hidden", [True]),
    ("eval_ranges", [[0, "a"]]), ("train_size", 0),
    ("separation", -1), ("separation", -1e-300), ("noise_scale", 0), ("noise_scale", -2.5),
    ("seeds", [-1]), ("seeds", [3, -2]),
]
# the entries of overlap_probabilities are named in the singular
NAMED = {"overlap_probabilities": "overlap_probability"}


@pytest.mark.parametrize("command", ["generate", "evaluate"])
@pytest.mark.parametrize("key, value", MISTYPED, ids=[f"{k}={json.dumps(v)}" for k, v in MISTYPED])
def test_mistyped_value_is_one_error_line_naming_the_key(tmp_path, capsys, command, key, value):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(minimal_raw(**{key: value})))  # NaN and Infinity included
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert NAMED.get(key, key) in err
    assert not out.exists()


@pytest.mark.parametrize(
    "value, message",
    [(1e400, "key learning_rate must be a finite number"),
     (10**400, "key learning_rate must be a finite number"),
     (float("nan"), "key learning_rate must be a finite number"),
     (True, "key learning_rate has the wrong type")],
    ids=["1e400", "10**400", "nan", "true"],
)
def test_numbers_are_finite_and_never_bools(value, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        validate_config(minimal_raw(learning_rate=value))


@pytest.mark.parametrize("key", ["overlap_probabilities", "seeds", "method",
                                 "expertise_per_expert", "classifier_hidden", "eval_ranges"])
def test_list_keys_must_be_nonempty(key):
    with pytest.raises(ConfigError, match=f"^{key} must be nonempty$"):
        validate_config(minimal_raw(**{key: []}))


@pytest.mark.parametrize(
    "pair", [[0, "a"], [0, True], [0, None], [0, float("nan")], [0, 10**400]],
    ids=["str", "bool", "null", "nan", "10**400"],
)
def test_range_endpoints_are_finite_numbers(pair):
    with pytest.raises(ConfigError, match=r"^eval_ranges\[1\] endpoints must be finite numbers$"):
        validate_config(minimal_raw(eval_ranges=[[0, 1], pair]))


def test_null_only_where_the_schema_allows_it():
    cfg = validate_config(minimal_raw(prior_file=None, patience=None, context_subsample=None))
    assert (cfg.prior_file, cfg.patience, cfg.context_subsample) == (None, None, None)
    for key in ("learning_rate", "method", "eval_ranges", "expertise_per_expert"):
        with pytest.raises(ConfigError, match=f"^key {key} has the wrong type$"):
            validate_config(minimal_raw(**{key: None}))


ALL_KEYS = sorted(validate_config(minimal_raw()).echo())


def json_containers(children):
    return st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=3), children, max_size=3)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(), json_containers, max_leaves=8
)


def validate_quietly(raw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # duplicate seeds
        return validate_config(raw)


def assert_echo_round_trips(cfg):
    # through JSON, as manifest.json stores it
    assert validate_quietly(json.loads(json.dumps(cfg.echo()))) == cfg


@settings(max_examples=400, deadline=None)
@given(key=st.sampled_from(ALL_KEYS), value=JSON_VALUES)
@example(key="learning_rate", value="0.1")
@example(key="separation", value=10**400)
@example(key="eval_ranges", value=[[0, 10**400]])
@example(key="method", value=[[]])
def test_any_json_value_is_accepted_or_a_config_error(key, value):
    try:
        cfg = validate_quietly(minimal_raw(**{key: value}))
    except ConfigError:
        return
    assert_echo_round_trips(cfg)


PROBABILITY = st.floats(0, 1) | st.integers(0, 1)
METHOD = st.sampled_from(["ea_l2d", "pop_avg"])
FRACTION_PAIRS = st.tuples(st.floats(0, 1), st.floats(0, 1)).filter(lambda t: t[0] < t[1])
PERCENT_PAIRS = st.tuples(st.integers(0, 100), st.integers(2, 100)).filter(lambda t: t[0] < t[1])
VALID_OVERRIDES = st.fixed_dictionaries({}, optional={
    "separation": st.floats(0, allow_infinity=False) | st.integers(0, 10**6),
    "noise_scale": st.floats(0, exclude_min=True, allow_infinity=False) | st.integers(1, 10**6),
    "overlap_probabilities": st.lists(PROBABILITY, min_size=1, unique_by=lambda p: cell_tag(p, 1)),
    "seeds": st.lists(st.integers(0), min_size=1),
    "method": METHOD | st.lists(METHOD, min_size=1),
    "prior_file": st.none() | st.text(),
    "learning_rate": st.floats(0, 1e6, exclude_min=True) | st.integers(1, 10**6),
    "batch_size": st.integers(1, 10**6),
    "epochs": st.integers(0, 10**6),
    "weight_decay": st.floats(0, 1e6) | st.integers(0, 10**6),
    "patience": st.none() | st.integers(0, 10**6),
    "context_subsample": st.none() | st.integers(1, 20),
    "eval_ranges": st.lists((FRACTION_PAIRS | PERCENT_PAIRS).map(list), min_size=1, max_size=4),
    "classifier_hidden": st.lists(st.integers(1, 10**6), min_size=1),
})


@settings(max_examples=200, deadline=None)
@given(overrides=VALID_OVERRIDES)
def test_valid_config_echo_validates_back_to_an_equal_config(overrides):
    assert_echo_round_trips(validate_quietly(minimal_raw(**overrides)))


# The values VALID_OVERRIDES leaves out, each rejected with the message that
# names its key: a negative separation, a noise scale that is not positive, a
# negative seed, and two overlap probabilities that give cells one file tag.
OUT_OF_CONTRACT = {
    "separation": (
        (st.floats(0, exclude_min=True, allow_infinity=False) | st.integers(1)).map(lambda v: -v),
        r"separation must be >= 0",
    ),
    "noise_scale": (
        st.floats(max_value=0, allow_nan=False, allow_infinity=False) | st.integers(max_value=0),
        r"noise_scale must be > 0",
    ),
    "seeds": (
        st.lists(st.integers(), min_size=1).filter(lambda seeds: min(seeds) < 0),
        r"seeds must be ints >= 0 \(got -\d+\)",
    ),
    "overlap_probabilities": (
        st.lists(PROBABILITY, min_size=1)
        .flatmap(lambda ps: st.sampled_from(ps).map(lambda p: [*ps, float(p)]))
        .flatmap(st.permutations),
        r"overlap_probabilities gives two grid cells the file tag p\S+_e1",
    ),
}


@pytest.mark.parametrize("key", sorted(OUT_OF_CONTRACT))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_out_of_contract_value_rejected_naming_the_key(key, data):
    values, message = OUT_OF_CONTRACT[key]
    with pytest.raises(ConfigError, match=f"^{message}$"):
        validate_quietly(minimal_raw(**{key: data.draw(values)}))


@pytest.mark.parametrize(
    "overrides, message",
    [(dict(overlap_probabilities=[0.2, 0.2000001]),
      "overlap_probabilities gives two grid cells the file tag p0_2_e1"),
     (dict(overlap_probabilities=[0.5, 1, 0.5]),
      "overlap_probabilities gives two grid cells the file tag p0_5_e1"),
     (dict(overlap_probabilities=[0, 0.0]),
      "overlap_probabilities gives two grid cells the file tag p0_e1"),
     (dict(experts_id=1, experts_ood=1, expertise_per_expert=[1, 2, 1]),
      "expertise_per_expert gives two grid cells the file tag p0_2_e1")],
    ids=["close-p", "repeated-p", "int-and-float-p", "repeated-expertise"],
)
@pytest.mark.parametrize("command", ["generate", "train", "evaluate", "sweep"])
def test_grid_cells_sharing_a_file_tag_rejected(tmp_path, capsys, command, overrides, message):
    # each cell writes its curves, metrics and checkpoints under its tag, so a
    # second cell with the same tag would overwrite the first one's files
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(minimal_raw(**overrides)))
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_distinct_file_tags_accepted():
    cfg = validate_config(minimal_raw(overlap_probabilities=[0.2, 0.200001, 0.0, 1.0]))
    tags = [cell_tag(p, e) for p in cfg.overlap_probabilities for e in cfg.expertise_grid()]
    assert tags == ["p0_2_e1", "p0_200001_e1", "p0_e1", "p1_e1"]
