"""Synthetic data and expert generation.

Tasks are isotropic Gaussian blobs: each class mean is a seeded random unit
direction scaled by ``separation``, so task difficulty is a knob rather than
a dataset. Experts are oracles on their expertise classes and answer other
classes correctly with the overlap probability p, falling back to a uniform
draw over all labels.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DatasetParseError
from .tables import read_table, write_table


@dataclass
class Dataset:
    features: np.ndarray  # (n, dim)
    labels: np.ndarray  # (n,)

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or len(self.features) != len(self.labels):
            raise ValueError("features must be (n, dim) aligned with labels")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features must be finite")

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class SyntheticTaskSpec:
    num_classes: int
    dim: int
    separation: float
    noise_scale: float
    train_size: int
    val_size: int
    test_size: int
    context_pool_size: int
    seed: int

    def __post_init__(self) -> None:
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        for name in ("separation", "noise_scale"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite (got {getattr(self, name)!r})")
        if self.separation < 0:
            raise ValueError("separation must be >= 0")
        if not self.noise_scale > 0:
            raise ValueError("noise_scale must be > 0")
        for name in ("train_size", "val_size", "test_size", "context_pool_size"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass
class TaskData:
    spec: SyntheticTaskSpec
    class_means: np.ndarray  # (K, dim)
    train: Dataset
    val: Dataset
    test: Dataset
    context_pool: Dataset


def _balanced_counts(size: int, num_classes: int) -> np.ndarray:
    """Per-class counts of ``size`` items, balanced to within one per class;
    the first ``size % num_classes`` classes take the extra ones."""
    counts = np.full(num_classes, size // num_classes)
    counts[: size % num_classes] += 1
    return counts


def generate_gaussian_task(spec: SyntheticTaskSpec) -> TaskData:
    """Draw the four disjoint partitions of a Gaussian classification task.

    Each partition's features are its noise draw with the class means added
    in place. Its labels are sorted, so each class's rows are one slice and
    take its mean as one broadcast add: drawing a partition holds its one
    (size, dim) array, where ``means[labels] + noise`` held a second
    partition-size array. Float addition commutes, so the bits are those
    of that sum."""
    rng = np.random.default_rng(spec.seed)
    directions = rng.normal(size=(spec.num_classes, spec.dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    means = spec.separation * directions

    def draw(size: int) -> Dataset:
        counts = _balanced_counts(size, spec.num_classes)
        labels = np.repeat(np.arange(spec.num_classes), counts)
        features = rng.normal(scale=spec.noise_scale, size=(size, spec.dim))
        for mean, stop, count in zip(means, np.cumsum(counts), counts):
            features[stop - count : stop] += mean
        return Dataset(features, labels)

    return TaskData(
        spec=spec,
        class_means=means,
        train=draw(spec.train_size),
        val=draw(spec.val_size),
        test=draw(spec.test_size),
        context_pool=draw(spec.context_pool_size),
    )


def load_csv_dataset(path) -> Dataset:
    """Parse a dataset CSV with header ``y,f0,f1,...``.

    The class count is inferred as max label + 1; label gaps are accepted
    with a warning so downstream per-class machinery knows some classes are
    empty.
    """
    header, rows = read_table(path)
    if not header or header[0].strip() != "y":
        raise DatasetParseError(f"{path}: line 1: header must start with 'y'")
    if not rows:
        raise DatasetParseError(f"{path}: no rows")
    labels, feats = [], []
    for lineno, row in rows:
        try:
            labels.append(int(row[0]))
            feats.append([float(v) for v in row[1:]])
        except ValueError:
            raise DatasetParseError(f"{path}: line {lineno}: non-numeric cell") from None
        if labels[-1] < 0:
            raise DatasetParseError(f"{path}: line {lineno}: negative label {labels[-1]}")

    features = np.array(feats, dtype=np.float64)
    finite = np.isfinite(features).all(axis=1)
    if not finite.all():
        lineno = rows[int(np.argmin(finite))][0]
        raise DatasetParseError(f"{path}: line {lineno}: non-finite feature")
    label_arr = np.array(labels, dtype=np.int64)
    num_classes = int(label_arr.max()) + 1
    present = set(label_arr.tolist())
    missing = sorted(set(range(num_classes)) - present)
    if missing:
        warnings.warn(f"{path}: no examples for classes {missing}", stacklevel=2)
    return Dataset(features, label_arr)


def save_csv_dataset(path, data: Dataset) -> None:
    write_table(
        path,
        ["y"] + [f"f{j}" for j in range(data.features.shape[1])],
        ([y, *x] for y, x in zip(data.labels.tolist(), data.features.tolist())),
    )


@dataclass(frozen=True)
class SimulatedExpertSpec:
    expert_id: int
    expertise_classes: frozenset[int]
    overlap_probability: float

    def __post_init__(self) -> None:
        if not self.expertise_classes:
            raise ValueError("an expert needs at least one expertise class")
        if not 0 <= self.overlap_probability <= 1:
            raise ValueError("overlap_probability must lie in [0, 1]")


def make_population(
    num_classes: int,
    count: int,
    overlap_probability: float,
    expertise_per_expert: int = 1,
    seed: int = 0,
) -> list[SimulatedExpertSpec]:
    """Sample ``count`` experts with disjoint expertise class sets."""
    if count < 1:
        raise ValueError("need at least one expert")
    if expertise_per_expert < 1:
        raise ValueError("expertise_per_expert must be >= 1")
    if count * expertise_per_expert > num_classes:
        raise ValueError(
            f"cannot assign {count} experts x {expertise_per_expert} classes "
            f"without replacement from {num_classes} classes"
        )
    rng = np.random.default_rng(seed)
    drawn = rng.choice(num_classes, size=count * expertise_per_expert, replace=False)
    experts = []
    for i in range(count):
        classes = drawn[i * expertise_per_expert : (i + 1) * expertise_per_expert]
        experts.append(
            SimulatedExpertSpec(
                expert_id=i,
                expertise_classes=frozenset(int(k) for k in classes),
                overlap_probability=overlap_probability,
            )
        )
    return experts


def expert_predict_batch(
    expert: SimulatedExpertSpec,
    true_labels: np.ndarray,
    num_classes: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """The expert's predictions of ``true_labels``: correct on its expertise
    classes; elsewhere correct with probability p and otherwise a uniform
    draw over all labels, which may also hit the true one.

    Consumes one overlap draw per label, then one fallback draw per label,
    whatever the outcome, so results are reproducible from the generator
    state alone. Labels outside [0, num_classes) raise ``ValueError``.
    """
    labels = np.asarray(true_labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError("true label out of range")
    known = np.isin(labels, list(expert.expertise_classes))
    lucky = rng.random(len(labels)) < expert.overlap_probability
    fallback = rng.integers(num_classes, size=len(labels))
    return np.where(known | lucky, labels, fallback).astype(np.int64)


def expert_accuracy_by_class(
    expert: SimulatedExpertSpec, num_classes: int
) -> np.ndarray:
    """Exact per-class accuracy implied by the prediction rule."""
    p = expert.overlap_probability
    off = p + (1.0 - p) / num_classes
    acc = np.full(num_classes, off)
    acc[list(expert.expertise_classes)] = 1.0
    return acc


@dataclass
class ContextSet:
    """An expert's historical examples: their true labels and the expert's
    predictions."""

    labels: np.ndarray
    predictions: np.ndarray

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.predictions):
            raise ValueError("context arrays must be aligned")

    def __len__(self) -> int:
        return len(self.labels)


def draw_context_set(
    expert: SimulatedExpertSpec,
    pool: Dataset,
    size: int,
    num_classes: int,
    rng: np.random.Generator,
) -> ContextSet:
    """Stratified context draw: per-class counts differ by at most one and
    sum to ``size``; one ``expert_predict_batch`` call predicts them all."""
    per_class = _balanced_counts(size, num_classes)
    needed = per_class.max()
    sel: list[np.ndarray] = []
    for k in range(num_classes):
        pool_k = np.flatnonzero(pool.labels == k)
        if len(pool_k) < needed:
            raise ValueError(
                f"context pool has {len(pool_k)} examples of class {k}, need {needed}"
            )
        sel.append(rng.choice(pool_k, size=per_class[k], replace=False))
    labels = pool.labels[np.concatenate(sel)]
    return ContextSet(labels, expert_predict_batch(expert, labels, num_classes, rng))
