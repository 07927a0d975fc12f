"""Experiment configuration: a strict flat JSON schema.

``_SCHEMA`` is the one table of keys: each key's accepted JSON types and its
default, or ``...`` for a required key. Unknown keys are rejected so
sweep-script typos fail loudly. A bool is never a number, every number must
be finite, and null is accepted only where the table lists it. ``_MIN``
holds the lower bounds and ``_POSITIVE`` the keys that must be > 0; every
list-valued key must be nonempty, and the entries of a key in ``_ENTRIES``
(or its one bare value) pass the entry check there. No two grid cells may
share a file tag (``cell_tag``). Evaluation ranges may be given either as
fractions in [0, 1] or as percentages (any endpoint above 1 switches the
pair to the percent scale).
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, fields

from .nets import TrainConfig
from .simulate import SyntheticTaskSpec

VALID_METHODS = ("ea_l2d", "pop_avg")

_INT, _NUMBER, _LIST, _NULL = (int,), (int, float), (list,), type(None)

# key: (accepted JSON types, default); a default of ... marks a required key.
# Keys typed _NUMBER are stored as floats.
_SCHEMA = {
    "num_classes": (_INT, ...),
    "dim": (_INT, ...),
    "separation": (_NUMBER, ...),
    "noise_scale": (_NUMBER, ...),
    "train_size": (_INT, ...),
    "val_size": (_INT, ...),
    "test_size": (_INT, ...),
    "context_pool_size": (_INT, ...),
    "experts_id": (_INT, ...),
    "experts_ood": (_INT, ...),
    "overlap_probabilities": (_LIST, ...),
    "context_size": (_INT, ...),
    "seeds": (_LIST, ...),
    "expertise_per_expert": ((int, list), 1),
    "method": ((str, list), "ea_l2d"),
    "prior_file": ((str, _NULL), None),
    "learning_rate": (_NUMBER, 0.1),
    "batch_size": (_INT, 64),
    "epochs": (_INT, 60),
    "weight_decay": (_NUMBER, 0.0),
    "patience": ((int, _NULL), 10),
    "context_subsample": ((int, _NULL), None),
    "eval_ranges": (_LIST, [[0.0, 1.0]]),
    "classifier_hidden": (_LIST, [32]),
}

# inclusive lower bounds; the _POSITIVE keys must be strictly positive
_MIN = {
    "num_classes": 2, "dim": 1, "separation": 0, "train_size": 1, "val_size": 1, "test_size": 0,
    "context_pool_size": 0, "experts_id": 1, "experts_ood": 0, "context_size": 1,
    "batch_size": 1, "epochs": 0, "weight_decay": 0, "patience": 0, "context_subsample": 1,
}
_POSITIVE = ("noise_scale", "learning_rate")


def _is_number(value) -> bool:
    """A finite JSON number; a bool is not one."""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):  # not a number, or an int beyond float64
        return False


def _positive_int(value) -> bool:
    return isinstance(value, int) and value >= 1


# list-valued key: (check of one entry, error message formatted with the entry)
_ENTRIES = {
    "overlap_probabilities": (
        lambda p: _is_number(p) and 0.0 <= p <= 1.0,
        "overlap_probability must lie in [0, 1] (got {})",
    ),
    "seeds": (lambda s: isinstance(s, int) and s >= 0, "seeds must be ints >= 0 (got {!r})"),
    "method": (lambda m: m in VALID_METHODS, f"method must be one of {VALID_METHODS} (got {{!r}})"),
    "expertise_per_expert": (
        _positive_int, "expertise_per_expert must be a positive int or list of them"
    ),
    "classifier_hidden": (
        _positive_int, "classifier_hidden must be a nonempty list of positive ints"
    ),
}


@dataclass
class ExperimentConfig:
    num_classes: int
    dim: int
    separation: float
    noise_scale: float
    train_size: int
    val_size: int
    test_size: int
    context_pool_size: int
    experts_id: int
    experts_ood: int
    overlap_probabilities: list[float]
    context_size: int
    seeds: list[int]
    expertise_per_expert: int | list[int]
    methods: list[str]
    prior_file: str | None
    learning_rate: float
    batch_size: int
    epochs: int
    weight_decay: float
    patience: int | None
    context_subsample: int | None
    eval_ranges: list[tuple[float, float]]
    classifier_hidden: list[int]

    def expertise_grid(self) -> list[int]:
        epe = self.expertise_per_expert
        return list(epe) if isinstance(epe, list) else [epe]

    def task_spec(self, seed: int) -> SyntheticTaskSpec:
        return SyntheticTaskSpec(
            num_classes=self.num_classes,
            dim=self.dim,
            separation=self.separation,
            noise_scale=self.noise_scale,
            train_size=self.train_size,
            val_size=self.val_size,
            test_size=self.test_size,
            context_pool_size=self.context_pool_size,
            seed=seed,
        )

    def train_config(self, seed: int) -> TrainConfig:
        return TrainConfig(
            learning_rate=self.learning_rate,
            batch_size=self.batch_size,
            epochs=self.epochs,
            weight_decay=self.weight_decay,
            seed=seed,
        )

    def echo(self) -> dict:
        """Round-trippable plain-dict form for manifests."""
        raw = {f.name: getattr(self, f.name) for f in fields(self)}
        raw["method"] = raw.pop("methods")
        raw["eval_ranges"] = [list(r) for r in self.eval_ranges]
        return raw


class ConfigError(ValueError):
    pass


def cell_tag(p: float, expertise: int) -> str:
    """The tag in the file names of grid cell (p, expertise): ``p0_2_e1``
    for (0.2, 1)."""
    return f"p{format(p, 'g').replace('.', '_')}_e{expertise}"


def check_seed(seed: int) -> int:
    """The CLI's ``--seed``, held to the check of every ``seeds`` entry."""
    valid, message = _ENTRIES["seeds"]
    if not valid(seed):
        raise ConfigError(message.format(seed))
    return seed


def _normalize_range(pair, index: int) -> tuple[float, float]:
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
        raise ConfigError(f"eval_ranges[{index}] must be a [d_min, d_max] pair")
    if not all(map(_is_number, pair)):
        raise ConfigError(f"eval_ranges[{index}] endpoints must be finite numbers")
    lo, hi = float(pair[0]), float(pair[1])
    if max(lo, hi) > 1.0:  # percent scale
        lo, hi = lo / 100.0, hi / 100.0
    if not (0.0 <= lo < hi <= 1.0):
        raise ConfigError(
            f"eval_ranges[{index}] must satisfy 0 <= d_min < d_max <= 1 after scaling"
        )
    return lo, hi


def validate_config(raw: dict) -> ExperimentConfig:
    unknown = set(raw) - set(_SCHEMA)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    merged = {}
    for key, (types, default) in _SCHEMA.items():
        if key not in raw and default is ...:
            raise ConfigError(f"missing required key: {key}")
        value = raw.get(key, default)
        if isinstance(value, bool) or not isinstance(value, types):
            raise ConfigError(f"key {key} has the wrong type")
        if isinstance(value, (int, float)) and not _is_number(value):
            raise ConfigError(f"key {key} must be a finite number")
        merged[key] = float(value) if types is _NUMBER else value

    for key, low in _MIN.items():
        if merged[key] is not None and merged[key] < low:
            or_null = " or null" if _NULL in _SCHEMA[key][0] else ""
            raise ConfigError(f"{key} must be >= {low}{or_null}")
    for key in _POSITIVE:
        if not merged[key] > 0:
            raise ConfigError(f"{key} must be > 0")

    for key, (valid, message) in _ENTRIES.items():
        entries = merged[key] if isinstance(merged[key], list) else [merged[key]]
        if not entries:
            raise ConfigError(f"{key} must be nonempty")
        for entry in entries:
            if isinstance(entry, bool) or not valid(entry):
                raise ConfigError(message.format(entry))

    merged["overlap_probabilities"] = [float(p) for p in merged["overlap_probabilities"]]
    seeds = merged["seeds"] = list(dict.fromkeys(merged["seeds"]))
    if len(seeds) != len(raw["seeds"]):
        warnings.warn("duplicate seeds removed from config", stacklevel=2)
    method = merged.pop("method")
    merged["methods"] = list(dict.fromkeys([method] if isinstance(method, str) else method))
    merged["classifier_hidden"] = list(merged["classifier_hidden"])
    if not merged["eval_ranges"]:
        raise ConfigError("eval_ranges must be nonempty")
    merged["eval_ranges"] = [_normalize_range(r, i) for i, r in enumerate(merged["eval_ranges"])]
    cfg = ExperimentConfig(**merged)

    if (cfg.experts_id + cfg.experts_ood) * max(cfg.expertise_grid()) > cfg.num_classes:
        raise ConfigError(
            "expertise_per_expert infeasible: experts x classes-per-expert exceeds num_classes"
        )
    first_p = {}  # every grid cell writes its files under a tag of its own
    for pi, p in enumerate(cfg.overlap_probabilities):
        for e in cfg.expertise_grid():
            tag = cell_tag(p, e)
            if tag in first_p:
                key = "overlap_probabilities" if first_p[tag] != pi else "expertise_per_expert"
                raise ConfigError(f"{key} gives two grid cells the file tag {tag}")
            first_p[tag] = pi
    if (cfg.context_subsample or 0) > cfg.context_size:
        raise ConfigError("context_subsample must not exceed context_size")
    # a stratified context takes up to ceil(size / K) items of each class, and
    # the smallest class of a balanced pool has context_pool_size // K
    k = cfg.num_classes
    if -(-cfg.context_size // k) > cfg.context_pool_size // k:
        raise ConfigError("context_size needs more items per class than context_pool_size has")
    return cfg


def parse_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return validate_config(raw)
