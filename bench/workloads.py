"""The benchmark's fixed CLI workloads.

Each workload is one deferlab CLI command on a config that the benchmark
writes from the workload seed. The reasons for choosing each one are in
``bench/README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

# The task and training settings of ``ACCEPTANCE_RAW`` in
# tests/test_acceptance.py, the grid the paper's claims are checked on.
ACCEPTANCE_TASK = dict(
    num_classes=10,
    dim=16,
    separation=2.6,
    noise_scale=1.0,
    train_size=1200,
    val_size=300,
    test_size=600,
    context_pool_size=600,
    experts_id=5,
    experts_ood=5,
    overlap_probabilities=[0.2, 0.5, 0.8],
    context_size=150,
    method=["ea_l2d", "pop_avg"],
    learning_rate=0.15,
    batch_size=64,
    epochs=40,
    patience=10,
)


def grid_config(seed: int) -> dict:
    return dict(ACCEPTANCE_TASK, seeds=[seed, seed + 1, seed + 2])


def wide_cohort_config(seed: int) -> dict:
    return dict(
        num_classes=40,
        dim=32,
        separation=3.0,
        noise_scale=1.0,
        train_size=2000,
        val_size=400,
        test_size=1000,
        context_pool_size=1200,
        experts_id=20,
        experts_ood=20,
        overlap_probabilities=[0.5],
        context_size=400,
        seeds=[seed],
        method="ea_l2d",
        learning_rate=0.15,
        batch_size=64,
        epochs=10,
        patience=None,
    )


def eval_heavy_config(seed: int) -> dict:
    return dict(
        ACCEPTANCE_TASK,
        train_size=600,
        val_size=200,
        test_size=60_000,
        overlap_probabilities=[0.2, 0.8],
        seeds=[seed],
        epochs=3,
        patience=None,
        eval_ranges=[
            [0.0, 1.0],
            [0.0, 0.1],
            [0.1, 0.3],
            [0.3, 0.5],
            [0.5, 0.8],
            [0.8, 1.0],
        ],
    )


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: Callable[[int], dict]
    # Traced spans this workload never reaches; every other span must fire.
    unused_spans: frozenset[str] = frozenset()


WORKLOADS = {
    w.name: w
    for w in (
        Workload("grid", "sweep", grid_config),
        Workload(
            "wide_cohort",
            "evaluate",
            wide_cohort_config,
            unused_spans=frozenset({"deferral.train_pop_avg"}),
        ),
        Workload("eval_heavy", "evaluate", eval_heavy_config),
    )
}
