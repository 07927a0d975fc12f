"""Experiment configuration: a strict flat JSON schema.

Unknown keys are rejected so sweep-script typos fail loudly. Evaluation
ranges may be given either as fractions in [0, 1] or as percentages (any
endpoint above 1 switches the pair to the percent scale).
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, fields

from .nets import TrainConfig
from .simulate import SyntheticTaskSpec

VALID_METHODS = ("ea_l2d", "pop_avg")

_REQUIRED = {
    "num_classes": int,
    "dim": int,
    "separation": (int, float),
    "noise_scale": (int, float),
    "train_size": int,
    "val_size": int,
    "test_size": int,
    "context_pool_size": int,
    "experts_id": int,
    "experts_ood": int,
    "overlap_probabilities": list,
    "context_size": int,
    "seeds": list,
}

_OPTIONAL_DEFAULTS = {
    "expertise_per_expert": 1,
    "method": "ea_l2d",
    "prior_file": None,
    "learning_rate": 0.1,
    "batch_size": 64,
    "epochs": 60,
    "weight_decay": 0.0,
    "patience": 10,
    "context_subsample": None,
    "eval_ranges": [[0.0, 1.0]],
    "classifier_hidden": [32],
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


def _normalize_range(pair, index: int) -> tuple[float, float]:
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
        raise ConfigError(f"eval_ranges[{index}] must be a [d_min, d_max] pair")
    lo, hi = float(pair[0]), float(pair[1])
    if max(lo, hi) > 1.0:  # percent scale
        lo, hi = lo / 100.0, hi / 100.0
    if not (0.0 <= lo < hi <= 1.0):
        raise ConfigError(
            f"eval_ranges[{index}] must satisfy 0 <= d_min < d_max <= 1 after scaling"
        )
    return lo, hi


def validate_config(raw: dict) -> ExperimentConfig:
    unknown = set(raw) - set(_REQUIRED) - set(_OPTIONAL_DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key, types in _REQUIRED.items():
        if key not in raw:
            raise ConfigError(f"missing required key: {key}")
        if not isinstance(raw[key], types) or isinstance(raw[key], bool):
            raise ConfigError(f"key {key} has the wrong type")

    merged = dict(_OPTIONAL_DEFAULTS)
    merged.update(raw)

    if merged["num_classes"] < 2:
        raise ConfigError("num_classes must be >= 2")
    for key in ("dim", "val_size", "experts_id", "context_size", "batch_size"):
        if merged[key] < 1:
            raise ConfigError(f"{key} must be >= 1")
    for key in ("train_size", "test_size", "context_pool_size", "experts_ood", "epochs"):
        if merged[key] < 0:
            raise ConfigError(f"{key} must be >= 0")
    if not merged["learning_rate"] > 0:
        raise ConfigError("learning_rate must be > 0")
    if merged["weight_decay"] < 0:
        raise ConfigError("weight_decay must be >= 0")
    epe_raw = merged["expertise_per_expert"]
    epe_grid = epe_raw if isinstance(epe_raw, list) else [epe_raw]
    if not epe_grid or not all(
        isinstance(e, int) and not isinstance(e, bool) and e >= 1 for e in epe_grid
    ):
        raise ConfigError("expertise_per_expert must be a positive int or list of them")
    total_experts = merged["experts_id"] + merged["experts_ood"]
    if total_experts * max(epe_grid) > merged["num_classes"]:
        raise ConfigError(
            "expertise_per_expert infeasible: experts x classes-per-expert exceeds num_classes"
        )
    if merged["patience"] is not None and merged["patience"] < 0:
        raise ConfigError("patience must be >= 0 or null")
    if merged["context_subsample"] is not None and merged["context_subsample"] < 1:
        raise ConfigError("context_subsample must be >= 1 or null")
    if (merged["context_subsample"] or 0) > merged["context_size"]:
        raise ConfigError("context_subsample must not exceed context_size")
    # a stratified context takes up to ceil(size / K) items of each class, and
    # the smallest class of a balanced pool has context_pool_size // K
    k = merged["num_classes"]
    if -(-merged["context_size"] // k) > merged["context_pool_size"] // k:
        raise ConfigError("context_size needs more items per class than context_pool_size has")

    probs = []
    for p in merged["overlap_probabilities"]:
        if not isinstance(p, (int, float)) or not 0.0 <= p <= 1.0:
            raise ConfigError(f"overlap_probability must lie in [0, 1] (got {p})")
        probs.append(float(p))
    if not probs:
        raise ConfigError("overlap_probabilities must be nonempty")

    raw_seeds = merged["seeds"]
    if not raw_seeds:
        raise ConfigError("seeds must be nonempty")
    seeds = []
    for s in raw_seeds:
        if not isinstance(s, int) or isinstance(s, bool):
            raise ConfigError(f"seeds entries must be integers (got {s!r})")
        if s not in seeds:
            seeds.append(s)
    if len(seeds) != len(raw_seeds):
        warnings.warn("duplicate seeds removed from config", stacklevel=2)

    method = merged["method"]
    methods = [method] if isinstance(method, str) else list(method)
    deduped = []
    for m in methods:
        if m not in VALID_METHODS:
            raise ConfigError(f"method must be one of {VALID_METHODS} (got {m!r})")
        if m not in deduped:
            deduped.append(m)

    hidden = merged["classifier_hidden"]
    if not (isinstance(hidden, list) and hidden and all(isinstance(h, int) and h >= 1 for h in hidden)):
        raise ConfigError("classifier_hidden must be a nonempty list of positive ints")

    ranges = [_normalize_range(pair, i) for i, pair in enumerate(merged["eval_ranges"])]

    return ExperimentConfig(
        num_classes=merged["num_classes"],
        dim=merged["dim"],
        separation=float(merged["separation"]),
        noise_scale=float(merged["noise_scale"]),
        train_size=merged["train_size"],
        val_size=merged["val_size"],
        test_size=merged["test_size"],
        context_pool_size=merged["context_pool_size"],
        experts_id=merged["experts_id"],
        experts_ood=merged["experts_ood"],
        overlap_probabilities=probs,
        context_size=merged["context_size"],
        seeds=seeds,
        expertise_per_expert=epe_raw,
        methods=deduped,
        prior_file=merged["prior_file"],
        learning_rate=float(merged["learning_rate"]),
        batch_size=merged["batch_size"],
        epochs=merged["epochs"],
        weight_decay=float(merged["weight_decay"]),
        patience=merged["patience"],
        context_subsample=merged["context_subsample"],
        eval_ranges=ranges,
        classifier_hidden=hidden,
    )


def parse_config(path) -> ExperimentConfig:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return validate_config(raw)
