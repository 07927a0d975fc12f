"""Deferral-budget evaluation.

Every test case gets a deferral priority per expert: deferral softmax mass
minus the top class softmax mass, both on the joint (K+1)-simplex, which is
read through the class softmax the training losses use and never built.
Sorting cases by priority sweeps the deferral rate from 0 to 1 and yields the
system and deferred-case expert accuracy curves; normalized trapezoidal areas
over a rate range summarise them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .deferral import rejector_inputs
from .nets import DenseNet, forward, row_blocks, softmax
from .simulate import Dataset
from .tables import write_table


@dataclass
class ScoredCases:
    """Every scored test case as aligned arrays: its deferral priority,
    whether the classifier and the deferred expert are correct, and which
    expert it goes to."""

    priority: np.ndarray
    classifier_correct: np.ndarray
    expert_correct: np.ndarray
    chosen_expert: np.ndarray

    def __post_init__(self) -> None:
        self.priority = np.asarray(self.priority, dtype=np.float64)
        self.classifier_correct = np.asarray(self.classifier_correct, dtype=bool)
        self.expert_correct = np.asarray(self.expert_correct, dtype=bool)
        self.chosen_expert = np.asarray(self.chosen_expert, dtype=np.int64)
        shape = self.priority.shape
        if len(shape) != 1 or any(
            a.shape != shape
            for a in (self.classifier_correct, self.expert_correct, self.chosen_expert)
        ):
            raise ValueError("scored-case arrays must be aligned vectors")
        if not np.all((self.priority >= -1.0) & (self.priority <= 1.0)):
            raise ValueError("priority must lie in [-1, 1]")

    def __len__(self) -> int:
        return len(self.priority)


@functools.lru_cache(maxsize=1)
def _rate_grid(n: int) -> np.ndarray:
    """Every deferral rate j/n, j = 0..n, as one read-only array. The curves
    of one run share n, so every curve of n cases, trained or oracle, reads
    this one array as its ``rates``."""
    rates = np.arange(n + 1) / n
    rates.flags.writeable = False
    return rates


@dataclass
class Curve:
    """Accuracy with j of N cases deferred, j = 0..N. The rates are not
    stored: ``rates`` is the shared read-only grid j/N (``_rate_grid``)."""

    accuracies: np.ndarray

    def __post_init__(self) -> None:
        self.accuracies = np.asarray(self.accuracies, dtype=np.float64)
        if self.accuracies.ndim != 1 or len(self.accuracies) < 2:
            raise ValueError(
                f"curve needs a vector of at least 2 accuracies, got shape {self.accuracies.shape}"
            )
        if not np.isfinite(self.accuracies).all():
            raise ValueError("curve values must be finite")
        if np.any(self.accuracies < -1e-12) or np.any(self.accuracies > 1 + 1e-12):
            raise ValueError("accuracies must lie in [0, 1]")

    @property
    def rates(self) -> np.ndarray:
        return _rate_grid(len(self.accuracies) - 1)


def deferral_curves(
    priority: np.ndarray, classifier_correct: np.ndarray, expert_correct: np.ndarray
) -> tuple[Curve, Curve]:
    """System and deferred-case expert accuracy at every deferral rate j/N.

    Cases are deferred in priority order (ties keep input order). Correctness
    may be bool or an expectation in [0, 1]; a bool vector's prefix sums are
    exact counts, the floats its 0/1 float copy would give. The expert curve
    at rate 0 is extended by continuity from the first deferred case. The three
    arrays must be 1-D vectors of one length, else ``ValueError``.
    """
    shapes = [np.shape(a) for a in (priority, classifier_correct, expert_correct)]
    if len(shapes[0]) != 1 or shapes.count(shapes[0]) != 3:
        raise ValueError(f"curve inputs must be 1-D vectors of one length, got shapes {shapes}")
    n = len(priority)
    if n == 0:
        raise ValueError("cannot build curves from zero cases")
    order = np.argsort(-priority, kind="stable")
    # Both prefix sums go into arrays of N + 1 entries whose first is 0, and
    # the system curve is formed in place in the classifier's, so few
    # N-sized arrays are alive at once.
    exp_prefix, system = np.empty(n + 1), np.empty(n + 1)
    exp_prefix[0] = system[0] = 0.0
    np.cumsum(expert_correct[order], out=exp_prefix[1:])
    np.cumsum(classifier_correct[order], out=system[1:])
    # system = (exp_prefix + (total_clf - clf_prefix)) / n
    np.subtract(system[-1], system, out=system)
    system += exp_prefix
    system /= n

    expert = np.empty(n + 1)
    np.divide(exp_prefix[1:], np.arange(1, n + 1), out=expert[1:])
    expert[0] = expert[1]
    return Curve(system), Curve(expert)


def build_curves(cases: ScoredCases) -> tuple[Curve, Curve]:
    """Deferral-budget curves of scored cases (see ``deferral_curves``)."""
    return deferral_curves(cases.priority, cases.classifier_correct, cases.expert_correct)


def area_under(curve: Curve, d_min: float, d_max: float) -> float:
    """Trapezoidal mean of the curve over [d_min, d_max], which its grid
    covers since it spans [0, 1].

    Endpoints between grid points are interpolated linearly; the integral is
    normalized by the range width.
    """
    if not (0.0 <= d_min < d_max <= 1.0):
        raise ValueError("need 0 <= d_min < d_max <= 1")
    rates, accuracies = curve.rates, curve.accuracies
    # grid points i0..i1-1 lie strictly inside (d_min, d_max)
    i0, i1 = np.searchsorted(rates, d_min, side="right"), np.searchsorted(rates, d_max)
    d = np.concatenate([[d_min], rates[i0:i1], [d_max]])
    a = np.concatenate(
        [[np.interp(d_min, rates, accuracies)], accuracies[i0:i1],
         [np.interp(d_max, rates, accuracies)]]
    )
    integral = float(np.sum((a[:-1] + a[1:]) * 0.5 * np.diff(d)))
    return integral / (d_max - d_min)


def _defer_priority(top: np.ndarray, total: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Deferral mass minus top class mass in each row's (K+1)-way joint
    softmax, from the row's max class logit ``top``, ``total = sum_k
    exp(logit_k - top)`` and deferral logit ``g``.

    With ``m = max(top, g)``, ``a = exp(g - m)`` and ``b = exp(top - m)``,
    the joint's normaliser is ``(a + total * b) * exp(m)``, so the priority
    is ``(a - b) / (a + total * b)``. Neither exponent is positive, so
    nothing overflows. A float difference is 0 only between equal floats,
    so the priority is 0 exactly when ``a == b``, ``g == top`` included,
    and its sign is that of ``g - top`` or 0.
    """
    m = np.maximum(top, g)
    a = np.exp(g - m)
    b = np.exp(top - m)
    return (a - b) / (a + total * b)


def case_priorities(
    logits: np.ndarray,
    rejector: DenseNet,
    features: np.ndarray,
    mu: np.ndarray | None,
) -> np.ndarray:
    """Priority matrix (experts, cases) from the classifier's logits.

    With the cohort's (experts, K) posterior means ``mu``, each expert's
    deferral logit comes from the four expert-aware rejector inputs; with
    ``mu=None`` the rejector reads the raw features, one row per case, and
    every expert shares one expert-independent row.

    Cases are scored in ``nets.row_blocks``. Each block takes one class
    pass, ``nets.softmax``, the same one the training losses take; then
    each expert costs one rejector forward and one ``_defer_priority``, and
    no (cases, K+1) joint is built. The working arrays hold one block's rows
    whatever the test set size, and a case's priority does not depend on
    the block it falls in. Row e depends only on ``mu[e]``, so the rows of
    a slice of experts equal the same slice of the whole matrix bit for bit.
    ``score_cases`` calls it on one row block of the test set at a time.
    """
    if mu is None and len(features) != len(logits):
        raise ValueError(
            f"features have {len(features)} rows but the logits have {len(logits)} cases"
        )
    out = np.empty((1 if mu is None else len(mu), len(logits)))
    for rows in row_blocks(len(logits)):
        rho, top, total = softmax(logits[rows])
        if mu is None:
            deferral_logits = [forward(rejector, features[rows])[:, 0]]
        else:
            kstar = np.argmax(rho, axis=1)
            deferral_logits = (
                forward(rejector, rejector_inputs(rho, kstar, mu[e : e + 1]))[:, 0]
                for e in range(len(mu))
            )
        for i, g in enumerate(deferral_logits):
            out[i, rows] = _defer_priority(top, total, g)
    return out


def score_cases(
    classifier: DenseNet,
    rejector: DenseNet,
    data: Dataset,
    mu: np.ndarray | None,
    expert_correct: np.ndarray,
    cohorts: Sequence[tuple[slice, np.random.Generator]],
) -> list[ScoredCases]:
    """Score every case of ``data`` against each cohort, one ``ScoredCases``
    per cohort, in one pass over the cases' ``nets.row_blocks``.

    ``expert_correct`` is the (experts, cases) bool matrix of whether each
    expert's prediction of each case is right, and a cohort is a slice of
    its rows with the generator of its draws. With the experts' (experts, K)
    posterior means ``mu`` the system is expert-aware: each case goes to
    its cohort's argmax-priority expert, and ties go to the lowest cohort
    index. With ``mu=None`` it is expert-independent: every expert shares
    one priority row, so a cohort of more than one draws each case's expert
    uniformly from its generator, once for all cases, before the pass.

    Each block takes one classifier ``forward`` and one ``case_priorities``
    over every expert, and each cohort keeps only its per-case vectors
    from them, so no (cases, K) logits or (experts, cases) priorities are
    held whatever the test set size. A case's results do not depend on
    the block it falls in. ``mu`` must have a row per expert and the
    matrix a column per case, else ``ValueError`` naming both counts; an
    empty cohort raises ``ValueError``.
    """
    correct = np.asarray(expert_correct, dtype=bool)
    n = len(data)
    if correct.ndim != 2:
        raise ValueError(f"expert correctness must be (experts, cases), got shape {correct.shape}")
    if correct.shape[1] != n:
        raise ValueError(
            f"expert correctness has {correct.shape[1]} columns but the data has {n} cases"
        )
    if mu is not None and len(mu) != len(correct):
        raise ValueError(
            f"mu has {len(mu)} rows but the correctness matrix has {len(correct)} experts"
        )
    sizes = [len(range(len(correct))[members]) for members, _ in cohorts]
    if 0 in sizes:
        raise ValueError("cannot score against an empty cohort")

    # each cohort's per-case vectors, one row per cohort
    priority = np.empty((len(cohorts), n))
    case_correct = np.empty((len(cohorts), n), dtype=bool)
    chosen = np.zeros((len(cohorts), n), dtype=np.int64)
    for c, (size, (_, rng)) in enumerate(zip(sizes, cohorts)):
        if mu is None and size > 1:
            chosen[c] = rng.integers(size, size=n)
    clf_correct = np.empty(n, dtype=bool)
    for rows in row_blocks(n):
        features, cols = data.features[rows], np.arange(rows.stop - rows.start)
        logits = forward(classifier, features)
        clf_correct[rows] = np.argmax(logits, axis=1) == data.labels[rows]
        priorities = case_priorities(logits, rejector, features, mu)
        for c, (members, _) in enumerate(cohorts):
            if mu is None:
                priority[c, rows] = priorities[0]
            else:
                mine = priorities[members]
                chosen[c, rows] = np.argmax(mine, axis=0)
                priority[c, rows] = mine[chosen[c, rows], cols]
            case_correct[c, rows] = correct[members, rows][chosen[c, rows], cols]
    return [
        ScoredCases(priority[c], clf_correct, case_correct[c], chosen[c])
        for c in range(len(cohorts))
    ]


CURVE_CSV_HEADER = ["deferral_rate", "system_accuracy", "expert_accuracy"]
METRIC_CSV_HEADER = ["metric", "d_min", "d_max", "value", "cohort", "seed"]


@functools.lru_cache(maxsize=1)
def _grid_strings(n: int) -> np.ndarray:
    """``repr`` of every rate of ``_rate_grid(n)`` as a read-only object
    array; the curves of one run share n."""
    table = np.fromiter(map(repr, _rate_grid(n).tolist()), dtype=object, count=n + 1)
    table.flags.writeable = False
    return table


def _float_strings(values: np.ndarray, n: int) -> list[str]:
    """``repr`` of every value. Values that equal some j/n bit for bit (so
    not -0.0 for 0.0) are looked up in the shared grid table instead of
    formatted again."""
    j = np.clip(np.rint(values * n), 0, n).astype(np.int64)
    off_grid = (j / n).view(np.int64) != values.view(np.int64)
    strings = _grid_strings(n)[j]
    strings[off_grid] = np.fromiter(
        map(repr, values[off_grid].tolist()), dtype=object, count=np.count_nonzero(off_grid)
    )
    return strings.tolist()


def write_curve_csv(path, system_curve: Curve, expert_curve: Curve) -> None:
    """One row per grid point: the bytes ``tables.write_table`` would write,
    formatted here with every on-grid value looked up in the shared ``j/N``
    table, because curves are the bulk of a run's output and on a 60 001-row
    curve ``write_table`` takes more than twice as long. Rows are formatted
    and written one ``nets.row_blocks`` block at a time, so the text held at
    once is one block's, whatever the curve's length."""
    n = len(system_curve.accuracies) - 1
    if len(expert_curve.accuracies) != n + 1:
        raise ValueError(
            f"the system curve has {n + 1} points but the expert curve has "
            f"{len(expert_curve.accuracies)}"
        )
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CURVE_CSV_HEADER) + "\n")
        for rows in row_blocks(n + 1):
            parts = [","] * (6 * (rows.stop - rows.start))
            parts[0::6] = _grid_strings(n)[rows].tolist()
            parts[2::6] = _float_strings(system_curve.accuracies[rows], n)
            parts[4::6] = _float_strings(expert_curve.accuracies[rows], n)
            parts[5::6] = ["\n"] * (rows.stop - rows.start)
            fh.write("".join(parts))


def write_metrics_csv(path, rows: Sequence[tuple]) -> None:
    """Rows are (metric, d_min, d_max, value, cohort, seed)."""
    write_table(path, METRIC_CSV_HEADER, (
        [metric, float(d_min), float(d_max), float(value), cohort, int(seed)]
        for metric, d_min, d_max, value, cohort, seed in rows
    ))
