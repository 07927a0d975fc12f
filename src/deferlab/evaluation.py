"""Deferral-budget evaluation.

Every test case gets a deferral priority per expert (deferral softmax mass
minus the top class softmax mass, both on the joint (K+1)-simplex). Sorting
cases by priority sweeps the deferral rate from 0 to 1 and yields the system
and deferred-case expert accuracy curves; normalized trapezoidal areas over a
rate range summarise them.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .deferral import _rejector_inputs, _softmax_rows
from .experts import BehaviouralRepresentation
from .nets import DenseNet, forward
from .simulate import Dataset


@dataclass
class ScoredCase:
    priority: float
    classifier_correct: bool
    expert_correct: bool
    chosen_expert: int

    def __post_init__(self) -> None:
        if not -1.0 <= self.priority <= 1.0:
            raise ValueError("priority must lie in [-1, 1]")


@dataclass
class Curve:
    rates: np.ndarray
    accuracies: np.ndarray

    def __post_init__(self) -> None:
        self.rates = np.asarray(self.rates, dtype=np.float64)
        self.accuracies = np.asarray(self.accuracies, dtype=np.float64)
        if self.rates.shape != self.accuracies.shape or self.rates.ndim != 1:
            raise ValueError("curve arrays must be aligned vectors")
        if len(self.rates) == 0:
            raise ValueError("curve must have at least one point")
        if np.any(np.diff(self.rates) <= 0):
            raise ValueError("deferral rates must be strictly increasing")
        if np.any(self.rates < 0) or np.any(self.rates > 1):
            raise ValueError("deferral rates must lie in [0, 1]")
        if np.any(self.accuracies < -1e-12) or np.any(self.accuracies > 1 + 1e-12):
            raise ValueError("accuracies must lie in [0, 1]")


@dataclass
class MetricReport:
    """Area metrics over the requested deferral-rate ranges, with the curves
    they were computed from and enough metadata to re-run."""

    aursac: dict[tuple[float, float], float]
    aurdac: dict[tuple[float, float], float]
    system_curve: Curve
    expert_curve: Curve
    cohort: str = ""
    seed: int = 0
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for values in (self.aursac, self.aurdac):
            for rng, v in values.items():
                if not -1e-12 <= v <= 1 + 1e-12:
                    raise ValueError(f"metric value {v} for range {rng} outside [0, 1]")


def build_report(
    system_curve: Curve,
    expert_curve: Curve,
    ranges: Sequence[tuple[float, float]],
    cohort: str = "",
    seed: int = 0,
    **metadata,
) -> MetricReport:
    return MetricReport(
        aursac={r: area_under(system_curve, *r) for r in ranges},
        aurdac={r: area_under(expert_curve, *r) for r in ranges},
        system_curve=system_curve,
        expert_curve=expert_curve,
        cohort=cohort,
        seed=seed,
        metadata=dict(metadata),
    )


def deferral_priority(joint_probabilities: np.ndarray) -> float:
    """Deferral mass minus the best class mass on the joint simplex."""
    q = np.asarray(joint_probabilities, dtype=np.float64)
    if q.ndim != 1 or len(q) < 2:
        raise ValueError("need a probability vector over K+1 entries")
    if abs(q.sum() - 1.0) > 1e-9 or np.any(q < 0):
        raise ValueError("joint probabilities must form a distribution")
    return float(q[-1] - q[:-1].max())


def select_expert(
    priorities: Sequence[float], expert_ids: Sequence[int] | None = None
) -> tuple[int, float]:
    """Pick the expert with maximal priority; ties go to the lowest id."""
    pri = np.asarray(priorities, dtype=np.float64)
    if pri.size == 0:
        raise ValueError("cannot select from an empty cohort")
    best = int(np.argmax(pri))
    chosen = expert_ids[best] if expert_ids is not None else best
    return chosen, float(pri[best])


def build_curves(cases: Sequence[ScoredCase]) -> tuple[Curve, Curve]:
    """System and deferred-case expert accuracy at every deferral rate j/N.

    Cases are deferred in priority order (ties keep input order). The expert
    curve at rate 0 is extended by continuity from the first deferred case.
    """
    if len(cases) == 0:
        raise ValueError("cannot build curves from zero cases")
    n = len(cases)
    priorities = np.array([c.priority for c in cases])
    expert_correct = np.array([c.expert_correct for c in cases], dtype=np.float64)
    clf_correct = np.array([c.classifier_correct for c in cases], dtype=np.float64)

    order = np.argsort(-priorities, kind="stable")
    exp_sorted = expert_correct[order]
    clf_sorted = clf_correct[order]

    exp_prefix = np.concatenate([[0.0], np.cumsum(exp_sorted)])
    clf_prefix = np.concatenate([[0.0], np.cumsum(clf_sorted)])
    total_clf = clf_prefix[-1]

    j = np.arange(n + 1)
    rates = j / n
    system = (exp_prefix + (total_clf - clf_prefix)) / n
    expert = np.empty(n + 1)
    expert[1:] = exp_prefix[1:] / j[1:]
    expert[0] = expert[1]
    return Curve(rates, system), Curve(rates, expert)


def area_under(curve: Curve, d_min: float, d_max: float) -> float:
    """Trapezoidal mean of the curve over [d_min, d_max].

    Endpoints between grid points are interpolated linearly; the integral is
    normalized by the range width.
    """
    if not (0.0 <= d_min < d_max <= 1.0):
        raise ValueError("need 0 <= d_min < d_max <= 1")
    if d_min < curve.rates[0] or d_max > curve.rates[-1]:
        raise ValueError("curve does not cover the requested range")
    inside = (curve.rates > d_min) & (curve.rates < d_max)
    d = np.concatenate([[d_min], curve.rates[inside], [d_max]])
    a = np.concatenate(
        [
            [np.interp(d_min, curve.rates, curve.accuracies)],
            curve.accuracies[inside],
            [np.interp(d_max, curve.rates, curve.accuracies)],
        ]
    )
    integral = float(np.sum((a[:-1] + a[1:]) * 0.5 * np.diff(d)))
    return integral / (d_max - d_min)


def case_priorities(
    classifier: DenseNet,
    rejector: DenseNet,
    features: np.ndarray,
    reps: Sequence[BehaviouralRepresentation] | None,
) -> np.ndarray:
    """Priority matrix (experts, cases).

    With representations given, each expert's deferral logit comes from the
    four expert-aware rejector inputs; with ``reps=None`` the rejector reads
    the raw features and every expert shares one expert-independent row.
    """
    logits = forward(classifier, features)
    num_classes = logits.shape[1]
    if reps is None:
        g_defer = forward(rejector, features)[:, 0]
        q = _softmax_rows(np.column_stack([logits, g_defer]))
        return (q[:, num_classes] - q[:, :num_classes].max(axis=1))[None, :]

    rho = _softmax_rows(logits)
    kstar = np.argmax(rho, axis=1)
    out = np.empty((len(reps), len(features)))
    for e, rep in enumerate(reps):
        # one expert at a time keeps the rejector's activations at one
        # (cases, hidden) block on large test sets
        feats = _rejector_inputs(rho, kstar, rep.mu[None, :])
        g_defer = forward(rejector, feats)[:, 0]
        q = _softmax_rows(np.column_stack([logits, g_defer]))
        out[e] = q[:, num_classes] - q[:, :num_classes].max(axis=1)
    return out


def score_cases(
    classifier: DenseNet,
    rejector: DenseNet,
    data: Dataset,
    reps: Sequence[BehaviouralRepresentation] | None,
    expert_predictions: np.ndarray,
    rng: np.random.Generator,
) -> list[ScoredCase]:
    """Score every case against a cohort.

    Expert-aware systems defer each case to the argmax-priority expert;
    expert-independent ones cannot discriminate, so the deferred expert is a
    uniform seeded draw.
    """
    preds = np.asarray(expert_predictions, dtype=np.int64)
    cohort = preds.shape[0]
    if cohort == 0:
        raise ValueError("cannot score against an empty cohort")
    priorities = case_priorities(classifier, rejector, data.features, reps)
    logits = forward(classifier, data.features)
    clf_correct = np.argmax(logits, axis=1) == data.labels

    n = len(data)
    if priorities.shape[0] == 1 and cohort > 1:
        chosen = rng.integers(cohort, size=n)
        case_priority = priorities[0]
    else:
        chosen = np.argmax(priorities, axis=0)
        case_priority = priorities[chosen, np.arange(n)]
    expert_correct = preds[chosen, np.arange(n)] == data.labels
    return [
        ScoredCase(float(case_priority[i]), bool(clf_correct[i]), bool(expert_correct[i]), int(chosen[i]))
        for i in range(n)
    ]


CURVE_CSV_HEADER = ["deferral_rate", "system_accuracy", "expert_accuracy"]
METRIC_CSV_HEADER = ["metric", "d_min", "d_max", "value", "cohort", "seed"]


def write_curve_csv(path, system_curve: Curve, expert_curve: Curve) -> None:
    if not np.array_equal(system_curve.rates, expert_curve.rates):
        raise ValueError("system and expert curves must share a grid")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CURVE_CSV_HEADER)
        for d, sa, ea in zip(system_curve.rates, system_curve.accuracies, expert_curve.accuracies):
            writer.writerow([repr(float(d)), repr(float(sa)), repr(float(ea))])


def write_metrics_csv(path, rows: Sequence[tuple]) -> None:
    """Rows are (metric, d_min, d_max, value, cohort, seed)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(METRIC_CSV_HEADER)
        for metric, d_min, d_max, value, cohort, seed in rows:
            writer.writerow(
                [metric, repr(float(d_min)), repr(float(d_max)), repr(float(value)), cohort, int(seed)]
            )
