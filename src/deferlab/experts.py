"""Beta-Binomial modelling of expert behaviour.

An expert's history of (true label, prediction) pairs is reduced to
per-class correct/total counts, combined with an elicited or uniform Beta
prior, and summarised as the vector of posterior mean accuracies. The class
with the largest posterior mean is the expert's expertise class.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DatasetParseError

DEFAULT_PRIOR_STRENGTH = 10.0


class ContextExample(NamedTuple):
    true_label: int
    expert_prediction: int


@dataclass
class ClassCounts:
    n: np.ndarray  # samples with true label k
    t: np.ndarray  # correct predictions among those samples

    def __post_init__(self) -> None:
        self.n = np.asarray(self.n, dtype=np.int64)
        self.t = np.asarray(self.t, dtype=np.int64)
        if self.n.shape != self.t.shape:
            raise ValueError("count arrays must have equal length")
        if np.any(self.t < 0) or np.any(self.n < 0) or np.any(self.t > self.n):
            raise ValueError("counts must satisfy 0 <= t_k <= n_k")


@dataclass(frozen=True)
class BetaParams:
    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (self.alpha > 0 and self.beta > 0):
            raise ValueError("Beta parameters must be strictly positive")
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError("Beta parameters must be finite")


@dataclass
class PriorElicitation:
    """Per-class self-assessed accuracy and confidence plus a shared strength.

    ``p[k]`` is the expert's own estimate of their accuracy on class k,
    ``c[k]`` how much weight to give that estimate (c=0 recovers the uniform
    Beta(1,1) prior), and ``s >= 2`` the overall prior strength.
    """

    p: np.ndarray
    c: np.ndarray
    s: float = DEFAULT_PRIOR_STRENGTH

    def __post_init__(self) -> None:
        self.p = np.asarray(self.p, dtype=np.float64)
        self.c = np.asarray(self.c, dtype=np.float64)
        if self.p.shape != self.c.shape or self.p.ndim != 1:
            raise ValueError("p and c must be 1-D arrays of equal length")
        # written so that NaN fails every range check
        if not np.all((self.p >= 0) & (self.p <= 1)):
            raise ValueError("self-assessed accuracies p must lie in [0, 1]")
        if not np.all((self.c >= 0) & (self.c <= 1)):
            raise ValueError("confidences c must lie in [0, 1]")
        if not (2 <= self.s < math.inf):
            raise ValueError("prior strength s must be finite and >= 2")

    @property
    def num_classes(self) -> int:
        return len(self.p)

    @staticmethod
    def uniform(num_classes: int, s: float = DEFAULT_PRIOR_STRENGTH) -> "PriorElicitation":
        return PriorElicitation(
            np.full(num_classes, 0.5), np.zeros(num_classes), s
        )


@dataclass
class BehaviouralRepresentation:
    """Posterior summary of one expert: per-class mean accuracies, the
    posterior Beta parameters behind them, and the expertise class."""

    mu: np.ndarray
    posterior: list[BetaParams]
    expertise_class: int

    def __post_init__(self) -> None:
        self.mu = np.asarray(self.mu, dtype=np.float64)
        if len(self.posterior) != len(self.mu):
            raise ValueError("posterior list and mu must have equal length")
        for k, bp in enumerate(self.posterior):
            if abs(self.mu[k] - posterior_mean(bp)) > 1e-12:
                raise ValueError(f"mu[{k}] inconsistent with posterior parameters")
        expected = int(np.argmax(self.mu))
        if self.expertise_class != expected:
            raise ValueError("expertise_class must be the argmax of mu (lowest index on ties)")

    @property
    def num_classes(self) -> int:
        return len(self.mu)

    @staticmethod
    def from_posteriors(posterior: Sequence[BetaParams]) -> "BehaviouralRepresentation":
        mu = np.array([posterior_mean(bp) for bp in posterior])
        return BehaviouralRepresentation(mu, list(posterior), int(np.argmax(mu)))


def count_context(ctx: Iterable[tuple[int, int]], num_classes: int) -> ClassCounts:
    """Per-class totals and correct-prediction counts from (y, m) pairs."""
    n = np.zeros(num_classes, dtype=np.int64)
    t = np.zeros(num_classes, dtype=np.int64)
    for i, (y, m) in enumerate(ctx):
        if not (0 <= y < num_classes and 0 <= m < num_classes):
            raise ValueError(
                f"context item {i} has out-of-range class index (y={y}, m={m}, K={num_classes})"
            )
        n[y] += 1
        if m == y:
            t[y] += 1
    return ClassCounts(n, t)


def elicit_prior(el: PriorElicitation, k: int) -> BetaParams:
    """Map (p_k, c_k, s) to a Beta prior; c_k = 0 gives Beta(1, 1)."""
    if not 0 <= k < el.num_classes:
        raise ValueError(f"class index {k} out of range")
    scale = el.c[k] * (el.s - 2.0)
    return BetaParams(1.0 + el.p[k] * scale, 1.0 + (1.0 - el.p[k]) * scale)


def update_posterior(prior: BetaParams, n_k: int, t_k: int) -> BetaParams:
    """Conjugate update with t_k correct predictions out of n_k."""
    if n_k < 0 or t_k < 0 or t_k > n_k:
        raise ValueError(f"counts must satisfy 0 <= t ({t_k}) <= n ({n_k})")
    return BetaParams(prior.alpha + t_k, prior.beta + (n_k - t_k))


def posterior_mean(bp: BetaParams) -> float:
    return bp.alpha / (bp.alpha + bp.beta)


def build_representation(
    ctx: Iterable[tuple[int, int]],
    num_classes: int,
    priors: PriorElicitation | None = None,
) -> BehaviouralRepresentation:
    """Count the context, apply priors, and summarise the posterior.

    With no elicitation every class starts from the uniform Beta(1, 1).
    Expertise-class ties break to the lowest class index.
    """
    if priors is not None and priors.num_classes != num_classes:
        raise ValueError("prior elicitation does not cover the requested class count")
    counts = count_context(ctx, num_classes)
    posterior = []
    for k in range(num_classes):
        prior = BetaParams(1.0, 1.0) if priors is None else elicit_prior(priors, k)
        posterior.append(update_posterior(prior, int(counts.n[k]), int(counts.t[k])))
    return BehaviouralRepresentation.from_posteriors(posterior)


def prior_arrays(
    priors: Sequence[PriorElicitation | None], num_classes: int
) -> tuple[np.ndarray, np.ndarray]:
    """A cohort's prior Beta parameters as two (experts, K) arrays.

    ``None`` gives the uniform Beta(1, 1). Elicited priors use the same
    float operations as ``elicit_prior``, so the values are bit-identical.
    """
    alpha = np.ones((len(priors), num_classes))
    beta = np.ones((len(priors), num_classes))
    for e, el in enumerate(priors):
        if el is None:
            continue
        if el.num_classes != num_classes:
            raise ValueError("prior elicitation does not cover the requested class count")
        scale = el.c * (el.s - 2.0)
        alpha[e] = 1.0 + el.p * scale
        beta[e] = 1.0 + (1.0 - el.p) * scale
    return alpha, beta


def posterior_means(
    alpha0: np.ndarray,
    beta0: np.ndarray,
    labels: Sequence[np.ndarray],
    predictions: Sequence[np.ndarray],
) -> np.ndarray:
    """Posterior mean accuracies of a cohort, shape (experts, K).

    ``labels[e]`` and ``predictions[e]`` are expert e's context items. The
    counts come from one ``np.bincount`` over the whole cohort, and the
    update and mean use the same float operations as ``update_posterior``
    and ``posterior_mean``, so row e equals ``build_representation(...).mu``
    bit for bit.
    """
    experts, num_classes = alpha0.shape
    y = np.concatenate([np.asarray(v, dtype=np.int64) for v in labels])
    m = np.concatenate([np.asarray(v, dtype=np.int64) for v in predictions])
    if y.size and (min(y.min(), m.min()) < 0 or max(y.max(), m.max()) >= num_classes):
        raise ValueError(f"context item has out-of-range class index (K={num_classes})")
    slot = np.repeat(np.arange(experts) * num_classes, [len(v) for v in labels]) + y
    size = experts * num_classes
    n = np.bincount(slot, minlength=size).reshape(experts, num_classes)
    t = np.bincount(slot[m == y], minlength=size).reshape(experts, num_classes)
    alpha = alpha0 + t
    beta = beta0 + (n - t)
    return alpha / (alpha + beta)


def sample_complexity_bound(num_classes: int, delta: float, gap: float) -> int:
    """Smallest per-class sample count guaranteeing that the expertise class
    is identified with probability at least 1 - delta, given that the true
    accuracy of the best class exceeds every other by at least ``gap``."""
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if not 0 < gap <= 1:
        raise ValueError("gap must lie in (0, 1]")
    return math.ceil(math.log(2.0 * num_classes / delta) / (2.0 * (gap / 2.0) ** 2))


PRIOR_FILE_HEADER = ["expert_id", "class", "p", "c", "s"]


def load_prior_file(path, num_classes: int) -> dict[int, PriorElicitation]:
    """Read a prior elicitation CSV: one row per (expert, class).

    Every expert must cover all classes 0..K-1 and use a single strength s.
    """
    per_expert: dict[int, dict[int, tuple[float, float]]] = {}
    strengths: dict[int, float] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetParseError(f"{path}: empty prior file") from None
        if [h.strip() for h in header] != PRIOR_FILE_HEADER:
            raise DatasetParseError(
                f"{path}: line 1: expected header {','.join(PRIOR_FILE_HEADER)}"
            )
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 5:
                raise DatasetParseError(f"{path}: line {lineno}: expected 5 fields")
            try:
                expert_id = int(row[0])
                k = int(row[1])
                p = float(row[2])
                c = float(row[3])
                s = float(row[4])
            except ValueError:
                raise DatasetParseError(
                    f"{path}: line {lineno}: non-numeric field"
                ) from None
            if not 0 <= k < num_classes:
                raise DatasetParseError(
                    f"{path}: line {lineno}: class {k} out of range for K={num_classes}"
                )
            # written so that NaN fails every range check
            if not (0 <= p <= 1 and 0 <= c <= 1 and 2 <= s < math.inf):
                raise DatasetParseError(
                    f"{path}: line {lineno}: need p and c in [0, 1] and finite s >= 2"
                )
            slot = per_expert.setdefault(expert_id, {})
            if k in slot:
                raise DatasetParseError(
                    f"{path}: line {lineno}: duplicate entry for expert {expert_id} class {k}"
                )
            slot[k] = (p, c)
            if expert_id in strengths and strengths[expert_id] != s:
                raise DatasetParseError(
                    f"{path}: line {lineno}: inconsistent strength s for expert {expert_id}"
                )
            strengths[expert_id] = s

    result = {}
    for expert_id, entries in per_expert.items():
        missing = sorted(set(range(num_classes)) - set(entries))
        if missing:
            raise DatasetParseError(
                f"{path}: expert {expert_id} missing class entries {missing}"
            )
        p = np.array([entries[k][0] for k in range(num_classes)])
        c = np.array([entries[k][1] for k in range(num_classes)])
        result[expert_id] = PriorElicitation(p, c, strengths[expert_id])
    return result


def write_prior_file(path, priors: dict[int, PriorElicitation]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(PRIOR_FILE_HEADER)
        for expert_id in sorted(priors):
            el = priors[expert_id]
            for k in range(el.num_classes):
                writer.writerow([expert_id, k, repr(float(el.p[k])), repr(float(el.c[k])), repr(float(el.s))])
