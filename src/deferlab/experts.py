"""Beta-Binomial modelling of expert behaviour.

An expert's history of (true label, prediction) pairs is reduced to
per-class correct/total counts, combined with an elicited or uniform Beta
prior, and summarised as the vector of posterior mean accuracies; a cohort's
vectors are the rows of one (experts, K) matrix. The class with the largest
posterior mean is the expert's expertise class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DatasetParseError
from .tables import read_table, write_table

DEFAULT_PRIOR_STRENGTH = 10.0


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


def prior_arrays(
    priors: Sequence[PriorElicitation | None], num_classes: int
) -> tuple[np.ndarray, np.ndarray]:
    """A cohort's prior Beta parameters as two (experts, K) arrays.

    ``None`` gives the uniform Beta(1, 1). An elicitation maps (p_k, c_k, s)
    to Beta(1 + p_k c_k (s - 2), 1 + (1 - p_k) c_k (s - 2)), so c_k = 0
    also gives Beta(1, 1).
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


def build_representation(
    alpha0: np.ndarray,
    beta0: np.ndarray,
    labels: Sequence[Sequence[int]],
    predictions: Sequence[Sequence[int]],
) -> np.ndarray:
    """Posterior mean accuracies of a cohort, shape (experts, K).

    ``alpha0``/``beta0`` are the cohort's prior arrays from ``prior_arrays``;
    ``labels[e]`` and ``predictions[e]`` are expert e's context items. One
    ``np.bincount`` over the whole cohort counts, per expert and class, the
    items n and the correct predictions t; the conjugate update gives row e
    as (alpha0 + t) / (alpha0 + t + beta0 + n - t), which depends on no other
    row. Row e's argmax, lowest index on ties, is expert e's expertise class.
    """
    experts, num_classes = alpha0.shape
    y = np.concatenate([np.asarray(v, dtype=np.int64) for v in labels])
    m = np.concatenate([np.asarray(v, dtype=np.int64) for v in predictions])
    if y.shape != m.shape:
        raise ValueError("context labels and predictions must be aligned")
    if y.size and (min(y.min(), m.min()) < 0 or max(y.max(), m.max()) >= num_classes):
        raise ValueError(f"context item has out-of-range class index (K={num_classes})")
    slot = np.repeat(np.arange(experts) * num_classes, [len(v) for v in labels]) + y
    size = experts * num_classes
    n = np.bincount(slot, minlength=size).reshape(experts, num_classes)
    t = np.bincount(slot[m == y], minlength=size).reshape(experts, num_classes)
    alpha, beta = alpha0 + t, beta0 + (n - t)
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
    header, rows = read_table(path)
    if [h.strip() for h in header] != PRIOR_FILE_HEADER:
        raise DatasetParseError(f"{path}: line 1: expected header {','.join(PRIOR_FILE_HEADER)}")
    for lineno, row in rows:
        try:
            expert_id, k = int(row[0]), int(row[1])
            p, c, s = float(row[2]), float(row[3]), float(row[4])
        except ValueError:
            raise DatasetParseError(f"{path}: line {lineno}: non-numeric field") from None
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
    write_table(path, PRIOR_FILE_HEADER, (
        [expert_id, k, float(el.p[k]), float(el.c[k]), float(el.s)]
        for expert_id, el in sorted(priors.items())
        for k in range(el.num_classes)
    ))
