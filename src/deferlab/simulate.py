"""Synthetic data and expert generation.

Tasks are isotropic Gaussian blobs: each class mean is a seeded random unit
direction scaled by ``separation``, so task difficulty is a knob rather than
a dataset. Experts are oracles on their expertise classes and answer other
classes correctly with the overlap probability p, falling back to a uniform
draw over all labels.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DatasetParseError


class LabeledExample(NamedTuple):
    features: np.ndarray
    label: int


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

    def __getitem__(self, i: int) -> LabeledExample:
        return LabeledExample(self.features[i], int(self.labels[i]))


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


def _balanced_labels(size: int, num_classes: int) -> np.ndarray:
    """Class labels for a partition, balanced to within one per class."""
    base = size // num_classes
    extra = size % num_classes
    counts = [base + (1 if k < extra else 0) for k in range(num_classes)]
    return np.repeat(np.arange(num_classes), counts)


def generate_gaussian_task(spec: SyntheticTaskSpec) -> TaskData:
    """Draw the four disjoint partitions of a Gaussian classification task."""
    rng = np.random.default_rng(spec.seed)
    directions = rng.normal(size=(spec.num_classes, spec.dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    means = spec.separation * directions

    def draw(size: int) -> Dataset:
        labels = _balanced_labels(size, spec.num_classes)
        noise = rng.normal(scale=spec.noise_scale, size=(size, spec.dim))
        return Dataset(means[labels] + noise, labels)

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
    rows: list[list[float]] = []
    labels: list[int] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetParseError(f"{path}: no rows") from None
        if not header or header[0].strip() != "y":
            raise DatasetParseError(f"{path}: line 1: header must start with 'y'")
        width = len(header)
        for lineno, row in enumerate(reader, start=2):
            if len(row) != width:
                raise DatasetParseError(
                    f"{path}: line {lineno}: expected {width} fields, got {len(row)}"
                )
            try:
                label = int(row[0])
                feats = [float(v) for v in row[1:]]
            except ValueError:
                raise DatasetParseError(
                    f"{path}: line {lineno}: non-numeric cell"
                ) from None
            if label < 0:
                raise DatasetParseError(f"{path}: line {lineno}: negative label {label}")
            labels.append(label)
            rows.append(feats)
    if not rows:
        raise DatasetParseError(f"{path}: no rows")

    features = np.array(rows, dtype=np.float64)
    finite = np.isfinite(features).all(axis=1)
    if not finite.all():
        lineno = int(np.argmin(finite)) + 2
        raise DatasetParseError(f"{path}: line {lineno}: non-finite feature")
    label_arr = np.array(labels, dtype=np.int64)
    num_classes = int(label_arr.max()) + 1
    present = set(label_arr.tolist())
    missing = sorted(set(range(num_classes)) - present)
    if missing:
        warnings.warn(f"{path}: no examples for classes {missing}", stacklevel=2)
    return Dataset(features, label_arr)


def save_csv_dataset(path, data: Dataset) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["y"] + [f"f{j}" for j in range(data.features.shape[1])])
        for y, x in zip(data.labels, data.features):
            writer.writerow([int(y)] + [repr(float(v)) for v in x])


@dataclass(frozen=True)
class SimulatedExpertSpec:
    expert_id: int
    expertise_classes: frozenset[int]
    overlap_probability: float
    context_size: int
    in_distribution: bool = True

    def __post_init__(self) -> None:
        if not self.expertise_classes:
            raise ValueError("an expert needs at least one expertise class")
        if not 0 <= self.overlap_probability <= 1:
            raise ValueError("overlap_probability must lie in [0, 1]")
        if self.context_size < 0:
            raise ValueError("context_size must be >= 0")


def make_population(
    num_classes: int,
    id_count: int,
    ood_count: int,
    overlap_probability: float,
    context_size: int,
    expertise_per_expert: int = 1,
    seed: int = 0,
) -> list[SimulatedExpertSpec]:
    """Sample a cohort of experts with disjoint expertise class sets.

    The first ``id_count`` experts are tagged in-distribution (available at
    training time); the rest are the held-out cohort.
    """
    total = id_count + ood_count
    if total < 1:
        raise ValueError("need at least one expert")
    if expertise_per_expert < 1:
        raise ValueError("expertise_per_expert must be >= 1")
    if total * expertise_per_expert > num_classes:
        raise ValueError(
            f"cannot assign {total} experts x {expertise_per_expert} classes "
            f"without replacement from {num_classes} classes"
        )
    rng = np.random.default_rng(seed)
    drawn = rng.choice(num_classes, size=total * expertise_per_expert, replace=False)
    experts = []
    for i in range(total):
        classes = drawn[i * expertise_per_expert : (i + 1) * expertise_per_expert]
        experts.append(
            SimulatedExpertSpec(
                expert_id=i,
                expertise_classes=frozenset(int(k) for k in classes),
                overlap_probability=overlap_probability,
                context_size=context_size,
                in_distribution=i < id_count,
            )
        )
    return experts


def expert_predict(
    expert: SimulatedExpertSpec, true_label: int, num_classes: int, rng: np.random.Generator
) -> int:
    """One prediction: oracle on expertise classes, otherwise correct with
    probability p and a uniform draw over all labels beyond that."""
    if not 0 <= true_label < num_classes:
        raise ValueError(f"true_label {true_label} out of range")
    if true_label in expert.expertise_classes:
        return true_label
    if rng.random() < expert.overlap_probability:
        return true_label
    return int(rng.integers(num_classes))


def expert_predict_batch(
    expert: SimulatedExpertSpec,
    true_labels: np.ndarray,
    num_classes: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Vectorized predictions under the same rule as ``expert_predict``.

    Consumes one overlap draw and one fallback draw per example regardless
    of outcome, so results are reproducible from the generator state alone.
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
    """An expert's historical examples with their predictions."""

    features: np.ndarray
    labels: np.ndarray
    predictions: np.ndarray

    def __post_init__(self) -> None:
        if not (len(self.features) == len(self.labels) == len(self.predictions)):
            raise ValueError("context arrays must be aligned")

    def __len__(self) -> int:
        return len(self.labels)

    def pairs(self) -> list[tuple[int, int]]:
        return [(int(y), int(m)) for y, m in zip(self.labels, self.predictions)]


def draw_context_set(
    expert: SimulatedExpertSpec,
    pool: Dataset,
    num_classes: int,
    rng: np.random.Generator,
) -> ContextSet:
    """Stratified context draw: per-class counts differ by at most one and
    sum to the expert's context size; predictions come from the expert."""
    size = expert.context_size
    if size == 0:
        dim = pool.features.shape[1] if len(pool) else 0
        empty = np.zeros((0, dim))
        return ContextSet(empty, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))

    base = size // num_classes
    extra = size % num_classes
    per_class = [base + (1 if k < extra else 0) for k in range(num_classes)]
    needed = max(per_class)
    sel: list[np.ndarray] = []
    for k in range(num_classes):
        pool_k = np.flatnonzero(pool.labels == k)
        if len(pool_k) < needed:
            raise ValueError(
                f"context pool has {len(pool_k)} examples of class {k}, need {needed}"
            )
        sel.append(rng.choice(pool_k, size=per_class[k], replace=False))
    order = np.concatenate(sel)
    labels = pool.labels[order]
    predictions = np.array(
        [expert_predict(expert, int(y), num_classes, rng) for y in labels],
        dtype=np.int64,
    )
    return ContextSet(pool.features[order], labels, predictions)
