"""Monte Carlo verification of the behavioural model's guarantees and an
analytically optimal reference system for Gaussian tasks.

The two guarantees checked here: the posterior mean accuracy converges to
the true accuracy as context grows, and with the sample-complexity bound's
per-class count the expertise class is misidentified with probability at
most delta.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import UnsupportedTaskError
from .evaluation import Curve, deferral_curves
from .nets import row_blocks, softmax
from .simulate import TaskData


def median_posterior_errors(
    theta: float, n_schedule: Sequence[int], trials: int, rng: np.random.Generator
) -> list[float]:
    """Median over ``trials`` fresh draws of |posterior mean - theta| at each
    schedule point, under the uniform prior: with t ~ Binomial(n, theta)
    correct answers the posterior mean is (1 + t) / (2 + n)."""
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must lie in [0, 1]")
    medians = []
    for n in n_schedule:
        t = rng.binomial(n, theta, size=trials)
        mu = (1.0 + t) / (2.0 + n)
        medians.append(float(np.median(np.abs(mu - theta))))
    return medians


def misidentification_rate(
    accuracies: np.ndarray, samples_per_class: int, trials: int, rng: np.random.Generator
) -> float:
    """Fraction of ``trials`` fresh draws in which the argmax posterior mean
    is not the best class (the unique argmax of the true per-class
    ``accuracies``), with ``samples_per_class`` observations per class and
    uniform priors."""
    accuracies = np.asarray(accuracies, dtype=np.float64)
    if np.any(accuracies < 0) or np.any(accuracies > 1):
        raise ValueError("accuracies must lie in [0, 1]")
    if trials < 1:
        raise ValueError("trial count must be >= 1")
    best = np.argmax(accuracies)
    if np.count_nonzero(accuracies == accuracies[best]) > 1:
        raise ValueError("the best class must be the unique argmax of the accuracies")
    n = samples_per_class
    t = rng.binomial(n, accuracies, size=(trials, len(accuracies)))
    mu = (1.0 + t) / (2.0 + n)
    return float(np.mean(np.argmax(mu, axis=1) != best))


def bayes_optimal_reference(
    data: TaskData, expert_accuracies: Sequence[np.ndarray]
) -> list[tuple[Curve, Curve]]:
    """Optimal system/expert accuracy curves on a generated Gaussian task's
    test partition, one ``(system, expert)`` pair per entry of
    ``expert_accuracies``: one expert's per-class accuracy (K,) or a
    cohort's (experts, K).

    The exact class posterior P(y|x) is a softmax over
    -||x - mean_k||^2 / (2 sigma^2), since classes are balanced and the
    noise isotropic. The optimal classifier takes its argmax. Deferral value
    for each case is the best expert's expected correctness
    Sum_y P(y|x) acc_E(y); cases are deferred in order of that value minus
    the top posterior, and expert correctness enters the curves in
    expectation, so the result is the ceiling any trained system can only
    reach up to sampling noise.

    Cases run in one pass over ``nets.row_blocks``. Each block computes its
    posterior one class at a time, so every temporary is one block's
    (rows, dim) or (rows, K), and its classifier correctness once; each
    entry keeps only its priority and its best expert's expected
    correctness on the true label, two per-case vectors freed once its
    curves are built. A non-``TaskData`` input raises
    ``UnsupportedTaskError``, an empty test partition ``ValueError``, and a
    column count that is not K ``ValueError`` naming both.
    """
    if not isinstance(data, TaskData):
        raise UnsupportedTaskError(
            "the optimal reference needs a generated Gaussian task (TaskData) "
            "with known densities"
        )
    task = data.spec
    x, labels = data.test.features, data.test.labels
    if len(x) == 0:
        raise ValueError("task has an empty test partition")
    accs = [np.atleast_2d(np.asarray(a, dtype=np.float64)) for a in expert_accuracies]
    for acc in accs:
        if acc.shape[1] != task.num_classes:
            raise ValueError(
                f"expert accuracies need one column per class: {acc.shape[1]} columns "
                f"for {task.num_classes} classes"
            )

    clf_correct = np.empty(len(x), dtype=bool)
    # per entry: its accuracies, priorities and expected expert correctness
    entries = [(acc, np.empty(len(x)), np.empty(len(x))) for acc in accs]
    for rows in row_blocks(len(x)):
        block, y = x[rows], labels[rows]
        d2 = np.empty((len(block), task.num_classes))
        for k, mean in enumerate(data.class_means):
            d2[:, k] = ((block - mean) ** 2).sum(axis=1)
        post = softmax(-d2 / (2.0 * task.noise_scale**2))[0]
        clf_correct[rows] = np.argmax(post, axis=1) == y
        top = post.max(axis=1)
        for acc, priority, expert_correct in entries:
            value = post @ acc.T  # each expert's expected correctness per case
            expert_correct[rows] = acc[np.argmax(value, axis=1), y]
            priority[rows] = value.max(axis=1) - top
    curves = []
    while entries:  # an entry's vectors are freed once its curves are built
        _, priority, expert_correct = entries.pop(0)
        curves.append(deferral_curves(priority, clf_correct, expert_correct))
    return curves


@dataclass
class TheoryCheckRow:
    check: str
    params: dict
    observed: float
    threshold: float
    passed: bool

    def as_csv_row(self) -> list:
        return [
            self.check,
            json.dumps(self.params, sort_keys=True),
            float(self.observed),
            float(self.threshold),
            "pass" if self.passed else "fail",
        ]


THEORY_CSV_HEADER = ["check", "param_json", "observed", "threshold", "pass"]
