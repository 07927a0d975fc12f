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


def gaussian_posterior(data: TaskData) -> np.ndarray:
    """The exact class posterior P(y|x) of every case in a generated
    Gaussian task's test partition, (cases, K).

    Classes are balanced and the noise isotropic, so the posterior is a
    softmax over -||x - mean_k||^2 / (2 sigma^2). Cases run in
    ``nets.row_blocks`` and one class at a time, which keeps every
    temporary at one block's (rows, dim).
    """
    if not isinstance(data, TaskData):
        raise UnsupportedTaskError(
            "the optimal reference needs a generated Gaussian task (TaskData) "
            "with known densities"
        )
    task = data.spec
    x = data.test.features
    if len(x) == 0:
        raise ValueError("task has an empty test partition")
    post = np.empty((len(x), task.num_classes))
    for rows in row_blocks(len(x)):
        block = x[rows]
        d2 = np.empty((len(block), task.num_classes))
        for k, mean in enumerate(data.class_means):
            d2[:, k] = ((block - mean) ** 2).sum(axis=1)
        post[rows] = softmax(-d2 / (2.0 * task.noise_scale**2))[0]
    return post


def bayes_optimal_reference(
    posterior: np.ndarray, labels: np.ndarray, expert_accuracies: np.ndarray
) -> tuple[Curve, Curve]:
    """Optimal system/expert accuracy curves of the cases whose exact class
    posterior is ``posterior`` (``gaussian_posterior(task)``, one row per
    case) and whose true classes are ``labels``.

    The optimal classifier takes the argmax of the posterior. Deferral value
    for each case is the best expert's expected correctness
    Sum_y P(y|x) acc_E(y); cases are deferred in order of that value minus
    the top posterior, and expert correctness enters the curves in
    expectation, so the result is the ceiling any trained system can only
    reach up to sampling noise. ``expert_accuracies`` is one expert's
    per-class accuracy (K,) or a cohort's (experts, K); a column count that
    is not K, or a label count that is not the posterior's row count,
    raises ``ValueError`` naming both.

    The posterior is read in ``nets.row_blocks``: each block's (rows,
    experts) expected correctness is reduced to the case's priority, its
    best expert's expected correctness on the true label and the
    classifier's correctness before the next block, so only those three
    per-case vectors span every case.
    """
    acc = np.atleast_2d(np.asarray(expert_accuracies, dtype=np.float64))
    if acc.shape[1] != posterior.shape[1]:
        raise ValueError(
            f"expert accuracies need one column per class: {acc.shape[1]} columns "
            f"for {posterior.shape[1]} classes"
        )
    if len(labels) != len(posterior):
        raise ValueError(
            f"need one label per posterior row: {len(labels)} labels for {len(posterior)} rows"
        )

    clf_correct, expert_correct, priority = (np.empty(len(posterior)) for _ in range(3))
    for rows in row_blocks(len(posterior)):
        post, y = posterior[rows], labels[rows]
        value = post @ acc.T  # each expert's expected correctness per case
        clf_correct[rows] = np.argmax(post, axis=1) == y
        # the best expert's expected correctness on the true label
        expert_correct[rows] = acc[np.argmax(value, axis=1), y]
        priority[rows] = value.max(axis=1) - post.max(axis=1)
    return deferral_curves(priority, clf_correct, expert_correct)


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
