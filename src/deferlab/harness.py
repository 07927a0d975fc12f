"""Reproducible experiment orchestration.

Every artifact written here is a pure function of (config, package version):
no timestamps, repr-formatted floats, fixed iteration order. Seeds fan out
into independent substreams for task generation, population sampling,
context draws, prediction sampling, and training.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import __version__
from .checkpoint import save_checkpoint
from .config import ConfigError, ExperimentConfig, cell_tag, validate_config
from .deferral import REJECTOR_INPUTS, TrainResult, train, train_pop_avg
from .errors import TrainingDivergenceError
from .evaluation import (
    Curve,
    area_under,
    build_curves,
    score_cases,
    write_curve_csv,
    write_metrics_csv,
)
from .experts import (
    PriorElicitation,
    build_representation,
    load_prior_file,
    prior_arrays,
    sample_complexity_bound,
    write_prior_file,
)
from .nets import dense_net
from .simulate import (
    ContextSet,
    SimulatedExpertSpec,
    SyntheticTaskSpec,
    TaskData,
    draw_context_set,
    expert_accuracy_by_class,
    expert_predict_batch,
    generate_gaussian_task,
    make_population,
)
from .tables import write_table
from .theory import (
    THEORY_CSV_HEADER,
    TheoryCheckRow,
    bayes_optimal_reference,
    median_posterior_errors,
    misidentification_rate,
)

VERSION_STRING = f"deferlab-{__version__}"

REJECTOR_DIMS = (REJECTOR_INPUTS, 32, 32, 1)


def _subseed(*parts: int) -> int:
    """Deterministic 63-bit seed derived from a tuple of integers."""
    return int(np.random.default_rng(list(parts)).integers(0, 2**63 - 1))


@dataclass
class Record:
    """One evaluated cohort of one grid cell and seed: a trained method's (or
    the ``"oracle"``'s) system and expert curves. Every metric is read off
    the curves: the areas over a deferral-rate range, and the classifier's
    accuracy, which is the system accuracy at deferral rate 0."""

    method: str
    p: float
    expertise: int
    seed: int
    cohort: str
    system_curve: Curve
    expert_curve: Curve

    def aursac(self, lo: float = 0.0, hi: float = 1.0) -> float:
        return area_under(self.system_curve, lo, hi)

    def aurdac(self, lo: float = 0.0, hi: float = 1.0) -> float:
        return area_under(self.expert_curve, lo, hi)

    @property
    def classifier_accuracy(self) -> float:
        return float(self.system_curve.accuracies[0])


@dataclass
class ExperimentResult:
    records: list[Record]
    oracles: list[Record]
    failures: dict[int, TrainingDivergenceError]


def _correctness_matrix(
    experts: Sequence[SimulatedExpertSpec],
    labels: np.ndarray,
    num_classes: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Whether each expert predicts each label right, (experts, cases) bool:
    one ``expert_predict_batch`` draw per expert in turn, each expert's
    int64 predictions dropped as soon as they are compared."""
    return np.stack([expert_predict_batch(e, labels, num_classes, rng) == labels for e in experts])


def _cohort_priors(
    experts: Sequence[SimulatedExpertSpec], priors_map: dict[int, PriorElicitation] | None
) -> list[PriorElicitation | None]:
    return [priors_map.get(e.expert_id) if priors_map else None for e in experts]


def _each_seed(
    cfg: ExperimentConfig, run_seed: Callable
) -> tuple[dict, dict[int, TrainingDivergenceError]]:
    """Load the config's prior file once, then call ``run_seed(seed,
    priors_map)`` for every seed. Returns each finished seed's result and
    each diverged seed's ``TrainingDivergenceError``, by seed; any other
    error propagates. Commands create ``--out`` only after it returns."""
    priors_map = load_prior_file(cfg.prior_file, cfg.num_classes) if cfg.prior_file else None
    results, failures = {}, {}
    for seed in cfg.seeds:
        try:
            results[seed] = run_seed(seed, priors_map)
        except TrainingDivergenceError as exc:
            failures[seed] = exc
    return results, failures


def _require_test_cases(cfg: ExperimentConfig) -> None:
    """Evaluating commands need test cases to build curves from; ``train``
    and ``generate`` accept ``test_size`` 0. Checked before any training."""
    if cfg.test_size < 1:
        raise ConfigError("test_size must be >= 1 to evaluate")


def _train_cell(
    cfg: ExperimentConfig,
    task: TaskData,
    seed: int,
    pi: int,
    ei: int,
    priors_map: dict[int, PriorElicitation] | None,
    methods: Sequence[str],
    stream: int,
) -> tuple[list[SimulatedExpertSpec], list[ContextSet], dict[str, TrainResult]]:
    """The expert population of grid cell (overlap ``pi``, expertise ``ei``),
    every expert's context, and ``methods`` trained on the cell's
    in-distribution cohort (its first ``cfg.experts_id`` experts, whose
    contexts are drawn first), by method. Every method's networks start from
    the same draw of substream ``stream``."""
    population = make_population(
        cfg.num_classes,
        cfg.experts_id + cfg.experts_ood,
        cfg.overlap_probabilities[pi],
        expertise_per_expert=cfg.expertise_grid()[ei],
        seed=_subseed(seed, pi, ei, 10),
    )
    ctx_rng = np.random.default_rng(_subseed(seed, pi, ei, 11))
    contexts = [
        draw_context_set(e, task.context_pool, cfg.context_size, cfg.num_classes, ctx_rng)
        for e in population
    ]
    id_experts, id_contexts = population[: cfg.experts_id], contexts[: cfg.experts_id]

    def net(dims: list[int], part: int):
        return dense_net(dims, np.random.default_rng(_subseed(seed, stream, part)))

    train_cfg = cfg.train_config(seed)
    trained = {}
    for method in methods:
        clf = net([cfg.dim, *cfg.classifier_hidden, cfg.num_classes], 1)
        if method == "ea_l2d":
            trained[method] = train(
                clf, net(list(REJECTOR_DIMS), 2), task.train, id_contexts,
                _cohort_priors(id_experts, priors_map), train_cfg,
                lam=cfg.context_subsample, val=task.val, patience=cfg.patience,
            )
        elif method == "pop_avg":
            pred_rng = np.random.default_rng(_subseed(seed, stream, 3))
            query_preds, val_preds = (
                np.stack([expert_predict_batch(e, data.labels, cfg.num_classes, pred_rng)
                          for e in id_experts])
                for data in (task.train, task.val)
            )
            trained[method] = train_pop_avg(
                clf, net([cfg.dim, *cfg.classifier_hidden, 1], 2), task.train, query_preds,
                train_cfg, val=task.val, val_predictions=val_preds, patience=cfg.patience,
            )
        else:
            raise ConfigError(f"unknown method {method!r}")
    return population, contexts, trained


def _metric_rows(record: Record, ranges: Sequence[tuple[float, float]]) -> list[tuple]:
    """Metrics CSV rows of one evaluated cohort."""
    where = (record.cohort, record.seed)
    rows = []
    for lo, hi in ranges:
        rows.append(("aursac", lo, hi, record.aursac(lo, hi), *where))
        rows.append(("aurdac", lo, hi, record.aurdac(lo, hi), *where))
    if record.method != "oracle":
        rows.append(("classifier_accuracy", 0.0, 1.0, record.classifier_accuracy, *where))
    return rows


def _evaluate_cell(
    cfg: ExperimentConfig,
    task: TaskData,
    seed: int,
    pi: int,
    ei: int,
    priors_map: dict[int, PriorElicitation] | None,
) -> tuple[list[Record], list[tuple]]:
    """Grid cell (overlap ``pi``, expertise ``ei``) of one seed: train every
    configured method and evaluate it on the in-distribution and held-out
    cohorts. Returns the methods' records and, per cohort, the oracle's
    ``(p, expertise, cohort, per-class accuracy matrix)``.

    The expert test predictions are kept only as the population's
    (experts, cases) bool correctness matrix. Each method is scored by one
    ``score_cases`` pass over the test set's row blocks that serves both
    cohorts, so no test-size logits or priority matrix exists; the cell's
    test-size arrays (the correctness matrix and a method's scored cases)
    are freed when it returns, and a method's before the next one's.
    """
    num_classes = cfg.num_classes
    p, epe = cfg.overlap_probabilities[pi], cfg.expertise_grid()[ei]
    population, contexts, trained = _train_cell(
        cfg, task, seed, pi, ei, priors_map, cfg.methods, stream=100 + pi * 10 + ei
    )
    test_rng = np.random.default_rng(_subseed(seed, pi, ei, 12))
    test_correct = _correctness_matrix(population, task.test.labels, num_classes, test_rng)
    mu = build_representation(
        *prior_arrays(_cohort_priors(population, priors_map), num_classes),
        [c.labels for c in contexts],
        [c.predictions for c in contexts],
    )

    n_id = cfg.experts_id
    cohorts = [("id", slice(0, n_id))]
    if len(population) > n_id:
        cohorts.append(("ood", slice(n_id, None)))

    records = []
    for method, result in trained.items():
        # every method draws each cohort's cases from the same fresh stream
        picks = [
            (idx, np.random.default_rng(_subseed(seed, pi, ei, 13, c)))
            for c, (_, idx) in enumerate(cohorts)
        ]
        scored = score_cases(
            result.classifier, result.rejector, task.test,
            mu if method == "ea_l2d" else None, test_correct, picks,
        )
        for (cohort_name, _), cases in zip(cohorts, scored):
            records.append(Record(method, p, epe, seed, cohort_name, *build_curves(cases)))
        del scored, cases  # not held through the next method's pass

    oracle_cohorts = [
        (p, epe, cohort_name,
         np.stack([expert_accuracy_by_class(e, num_classes) for e in population[idx]]))
        for cohort_name, idx in cohorts
    ]
    return records, oracle_cohorts


def _evaluate_seed(
    cfg: ExperimentConfig, seed: int, priors_map: dict[int, PriorElicitation] | None
) -> list[Record]:
    """One seed of ``run_experiment``: every grid cell in turn
    (``_evaluate_cell``, so one cell's test-size arrays are alive at a time),
    then the oracle on every cell's cohorts, whose records follow the
    trained methods'. Writes no files, so a divergence in any cell leaves
    nothing behind.
    """
    records: list[Record] = []
    oracle_cohorts = []
    task = generate_gaussian_task(cfg.task_spec(seed))
    for pi in range(len(cfg.overlap_probabilities)):
        for ei in range(len(cfg.expertise_grid())):
            cell_records, cell_cohorts = _evaluate_cell(cfg, task, seed, pi, ei, priors_map)
            records += cell_records
            oracle_cohorts += cell_cohorts

    # The oracle's class posterior depends only on the task, so one pass
    # over the test cases, after the last cell has trained, serves every
    # cell and cohort.
    curves = bayes_optimal_reference(task, [acc for *_, acc in oracle_cohorts])
    for (p, epe, cohort_name, _), pair in zip(oracle_cohorts, curves):
        records.append(Record("oracle", p, epe, seed, cohort_name, *pair))
    return records


def run_experiment(cfg: ExperimentConfig, out_dir) -> ExperimentResult:
    """Full protocol: per seed and per population setting, train every
    configured method and evaluate it on the in-distribution and held-out
    cohorts, writing curve and metric CSVs plus a manifest.

    A training divergence is recorded and the remaining seeds still run. Every
    curve and metric file is written from the records after the last seed, so
    a failed seed leaves nothing but its manifest entry.
    """
    _require_test_cases(cfg)
    evaluated, failures = _each_seed(cfg, functools.partial(_evaluate_seed, cfg))
    records = [r for seed_records in evaluated.values() for r in seed_records]

    out = _write_manifest(out_dir, cfg, failures)
    metric_rows: dict[str, list[tuple]] = {}
    for r in records:
        tag = cell_tag(r.p, r.expertise)
        write_curve_csv(
            out / f"curve_{r.method}_{tag}_seed{r.seed}_{r.cohort}.csv",
            r.system_curve,
            r.expert_curve,
        )
        metric_rows.setdefault(f"metrics_{r.method}_{tag}.csv", []).extend(
            _metric_rows(r, cfg.eval_ranges)
        )
    for name, rows in metric_rows.items():
        write_metrics_csv(out / name, rows)

    return ExperimentResult(
        [r for r in records if r.method != "oracle"],
        [r for r in records if r.method == "oracle"],
        failures,
    )


def _write_manifest(out_dir, cfg: ExperimentConfig, failures: dict[int, Exception]) -> Path:
    """Create ``out_dir`` and write its manifest; return the directory."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "version": VERSION_STRING,
        "config": cfg.echo(),
        "seeds": cfg.seeds,
        "failures": {str(k): str(v) for k, v in sorted(failures.items())},
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return out


# --- priors study ----------------------------------------------------------

PRIOR_STUDY_P = 0.8
PRIOR_STUDY_C = 0.8
PRIOR_STUDY_S = 15.0


@dataclass
class PriorsStudyResult:
    records: list[Record]
    target_expert: int


def run_priors_study(cfg: ExperimentConfig, out_dir) -> PriorsStudyResult:
    """Zero-context expert under three prior configurations.

    One held-out expert has its context removed; the system is trained once
    per seed on the in-distribution cohort and then evaluated while the
    expert's representation comes purely from an accurate, an uninformative,
    or a misdirected prior file. All three arms share the trained networks
    and the expert's sampled test predictions, so their curves coincide at
    full deferral. Every seed runs before the first file is written, and the
    first seed that diverges is raised after the last one, so a divergence
    leaves no ``--out``. The config's prior file, if any, applies to the
    in-distribution cohort's training. Each arm's record carries the arm's
    name as its cohort.
    """
    _require_test_cases(cfg)
    num_classes = cfg.num_classes
    p = cfg.overlap_probabilities[0]
    epe = cfg.expertise_grid()[0]

    # The studied expert never appears in training and has no context: its
    # representation is whatever the prior file says. Expertise sits on
    # class 0, the class a flat posterior's tie-break also lands on, so the
    # uninformative arm is neutral rather than misdirected; the misdirected
    # arm asserts expertise on the last class instead.
    target = SimulatedExpertSpec(
        expert_id=cfg.experts_id + cfg.experts_ood,
        expertise_classes=frozenset({0}),
        overlap_probability=p,
    )
    # arm -> the classes its prior asserts expertise on
    arm_classes = {"accurate": [0], "uninformative": [], "misdirected": [num_classes - 1]}
    arm_priors = {}
    for arm, classes in arm_classes.items():
        prior_p, prior_c = np.full(num_classes, 0.5), np.zeros(num_classes)
        prior_p[classes] = PRIOR_STUDY_P
        prior_c[classes] = PRIOR_STUDY_C
        arm_priors[arm] = PriorElicitation(prior_p, prior_c, PRIOR_STUDY_S)
    # one row of prior means per arm, with no context; the prior file's repr
    # round trip is exact, so the written file yields these
    no_context = [[]] * len(arm_priors)
    arm_mu = build_representation(
        *prior_arrays(list(arm_priors.values()), num_classes), no_context, no_context
    )

    def study_seed(seed: int, priors_map) -> list[Record]:
        task = generate_gaussian_task(cfg.task_spec(seed))
        _, _, trained = _train_cell(cfg, task, seed, 0, 0, priors_map, ["ea_l2d"], stream=500)
        result = trained["ea_l2d"]
        test_rng = np.random.default_rng(_subseed(seed, 0, 0, 12))
        target_correct = _correctness_matrix([target], task.test.labels, num_classes, test_rng)
        pick_rng = np.random.default_rng(_subseed(seed, 0, 0, 13))
        # every arm is the one studied expert under its own prior: one row
        # of mu per arm over the expert's one correctness row
        scored = score_cases(
            result.classifier, result.rejector, task.test, arm_mu,
            np.broadcast_to(target_correct, (len(arm_mu), len(task.test))),
            [(slice(i, i + 1), pick_rng) for i in range(len(arm_mu))],
        )
        return [
            Record("ea_l2d", p, epe, seed, arm, *build_curves(cases))
            for arm, cases in zip(arm_priors, scored)
        ]

    studied, failures = _each_seed(cfg, study_seed)
    if failures:
        raise next(iter(failures.values()))
    records = [r for seed_records in studied.values() for r in seed_records]

    out = _write_manifest(out_dir, cfg, {})
    metric_rows: list[tuple] = []
    for r in records:
        write_prior_file(
            out / f"priors_{r.cohort}_seed{r.seed}.csv", {target.expert_id: arm_priors[r.cohort]}
        )
        write_curve_csv(
            out / f"curve_priors_{r.cohort}_seed{r.seed}.csv", r.system_curve, r.expert_curve
        )
        metric_rows.append(("aurdac", 0.0, 1.0, r.aurdac(), r.cohort, r.seed))
        metric_rows.append(("aursac", 0.0, 1.0, r.aursac(), r.cohort, r.seed))
    write_metrics_csv(out / "metrics_priors_study.csv", metric_rows)
    return PriorsStudyResult(records, target.expert_id)


# --- theory checks ---------------------------------------------------------

CONVERGENCE_THETAS = (0.3, 0.7, 0.95)
CONVERGENCE_SCHEDULE = (10, 100, 1000, 10_000, 100_000)
CONVERGENCE_TRIALS = 1000
IDENTIFICATION_GRID = [
    (k, gap, delta) for k in (2, 10) for gap in (0.1, 0.3) for delta in (0.05, 0.1)
]
IDENTIFICATION_TRIALS = 2000

CEILING_TASK = dict(
    num_classes=5,
    dim=8,
    separation=3.0,
    noise_scale=1.0,
    train_size=400,
    val_size=100,
    test_size=400,
    context_pool_size=200,
)


def _ceiling_row(seed: int) -> TheoryCheckRow:
    cfg = validate_config(
        dict(
            CEILING_TASK,
            experts_id=2,
            experts_ood=2,
            overlap_probabilities=[0.3],
            context_size=50,
            seeds=[seed],
            epochs=30,
            learning_rate=0.15,
            batch_size=64,
            patience=None,
        )
    )
    # One cell and one method: the id-cohort ea_l2d run and its oracle.
    records = {(r.method, r.cohort): r for r in _evaluate_seed(cfg, seed, None)}
    trained, oracle = (records[(m, "id")].aursac() for m in ("ea_l2d", "oracle"))
    return TheoryCheckRow(
        "reference_ceiling",
        {"seed": seed, "task": "gaussian-easy"},
        trained - oracle,
        0.02,
        trained <= oracle + 0.02,
    )


def run_theory_checks(
    seeds: Sequence[int],
    out_dir=None,
    bound_scale: float = 1.0,
) -> list[TheoryCheckRow]:
    """Run the full verification grid, optionally writing the report CSV."""
    rows: list[TheoryCheckRow] = []
    for seed in seeds:
        for theta in CONVERGENCE_THETAS:
            medians = median_posterior_errors(
                theta, CONVERGENCE_SCHEDULE, CONVERGENCE_TRIALS,
                np.random.default_rng(_subseed(seed, 21, int(theta * 100))),
            )
            rows.append(
                TheoryCheckRow(
                    "posterior_convergence",
                    {"theta": theta, "n": CONVERGENCE_SCHEDULE[-1], "seed": seed},
                    medians[-1],
                    0.005,
                    medians[-1] < 0.005,
                )
            )
            worst_increase = max(b - a for a, b in zip(medians, medians[1:]))
            rows.append(
                TheoryCheckRow(
                    "posterior_convergence_monotone",
                    {"theta": theta, "schedule": list(CONVERGENCE_SCHEDULE), "seed": seed},
                    worst_increase,
                    0.0,
                    worst_increase <= 0.0,
                )
            )
        for k, gap, delta in IDENTIFICATION_GRID:
            n_bound = sample_complexity_bound(k, delta, gap)
            n = max(1, math.ceil(n_bound * bound_scale))
            accuracies = np.full(k, 0.75 - gap)
            best = min(1, k - 1)
            accuracies[best] = 0.75
            rate = misidentification_rate(
                accuracies, n, IDENTIFICATION_TRIALS,
                np.random.default_rng(_subseed(seed, 22, k, int(gap * 100), int(delta * 100))),
            )
            rows.append(
                TheoryCheckRow(
                    "identification_bound",
                    {"K": k, "gap": gap, "delta": delta, "n": n, "seed": seed},
                    rate,
                    delta,
                    rate <= delta,
                )
            )

        spec = SyntheticTaskSpec(
            num_classes=5, dim=8, separation=0.0, noise_scale=1.0,
            train_size=0, val_size=0, test_size=2000, context_pool_size=0,
            seed=_subseed(seed, 23),
        )
        uniform = generate_gaussian_task(spec)
        [(oracle_system, _)] = bayes_optimal_reference(uniform, [np.ones(5)])
        clf_acc = float(oracle_system.accuracies[0])
        sigma3 = 3.0 * math.sqrt(0.2 * 0.8 / 2000)
        rows.append(
            TheoryCheckRow(
                "reference_uniform_task",
                {"K": 5, "test_size": 2000, "seed": seed},
                abs(clf_acc - 0.2),
                sigma3,
                abs(clf_acc - 0.2) <= sigma3,
            )
        )
        rows.append(_ceiling_row(seed))

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_table(out / "theory_report.csv", THEORY_CSV_HEADER, (r.as_csv_row() for r in rows))
    return rows


# --- checkpoint-producing training entry (CLI `train`) ----------------------


def run_training(cfg: ExperimentConfig, out_dir) -> dict[int, TrainingDivergenceError]:
    """Train every configured method per seed on the first population
    setting and save checkpoints plus loss histories.

    Every file is written after the last seed has trained, so a seed that
    diverges leaves nothing but its manifest entry."""
    def train_seed(seed: int, priors_map) -> dict[str, TrainResult]:
        task = generate_gaussian_task(cfg.task_spec(seed))
        return _train_cell(cfg, task, seed, 0, 0, priors_map, cfg.methods, stream=100)[2]

    trained, failures = _each_seed(cfg, train_seed)
    out = _write_manifest(out_dir, cfg, failures)
    tag = cell_tag(cfg.overlap_probabilities[0], cfg.expertise_grid()[0])
    for seed, results in trained.items():
        for method, result in results.items():
            save_checkpoint(
                out / f"checkpoint_{method}_{tag}_seed{seed}.npz",
                result.classifier,
                result.rejector,
                cfg.train_config(seed),
            )
            _write_history(out / f"history_{method}_{tag}_seed{seed}.csv", result)
    return failures


def _write_history(path, result: TrainResult) -> None:
    header = ["epoch", "train_loss", "classifier_term", "deferral_term", "val_loss"]
    write_table(path, header, map(astuple, result.history))
