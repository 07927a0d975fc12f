"""Command-line experiment runner.

Subcommands: ``generate`` (emit dataset CSVs), ``train`` (checkpoints and
loss histories), ``evaluate`` (full train-and-evaluate protocol), ``sweep``
(same plus a method-gap summary), ``priors-study``, ``theory-check``.

Exit codes: 0 success, 1 validation error, 2 failed theory/acceptance check,
3 training divergence on every seed.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from .config import ConfigError, ExperimentConfig, parse_config
from .errors import DatasetParseError, TrainingDivergenceError
from .harness import (
    run_experiment,
    run_priors_study,
    run_theory_checks,
    run_training,
)
from .simulate import generate_gaussian_task, save_csv_dataset


def _load_config(args) -> ExperimentConfig:
    cfg = parse_config(args.config)
    if args.seed is not None:
        cfg.seeds = [args.seed]
    return cfg


def _cmd_generate(args) -> int:
    cfg = _load_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for seed in cfg.seeds:
        task = generate_gaussian_task(cfg.task_spec(seed))
        for name, data in (
            ("train", task.train),
            ("val", task.val),
            ("test", task.test),
            ("context_pool", task.context_pool),
        ):
            save_csv_dataset(out / f"dataset_{name}_seed{seed}.csv", data)
    print(f"wrote datasets for seeds {cfg.seeds} to {out}")
    return 0


def _cmd_train(args) -> int:
    cfg = _load_config(args)
    failures = run_training(cfg, args.out)
    for seed, msg in failures.items():
        print(f"seed {seed}: training diverged: {msg}", file=sys.stderr)
    if failures and len(failures) == len(cfg.seeds):
        return 3
    print(f"wrote checkpoints to {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    cfg = _load_config(args)
    result = run_experiment(cfg, args.out)
    for seed, msg in result.failures.items():
        print(f"seed {seed}: training diverged: {msg}", file=sys.stderr)
    if result.failures and len(result.failures) == len(cfg.seeds):
        return 3
    print(f"wrote {len(result.records)} evaluation records to {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    result = run_experiment(cfg, args.out)
    for seed, msg in result.failures.items():
        print(f"seed {seed}: training diverged: {msg}", file=sys.stderr)
    if result.failures and len(result.failures) == len(cfg.seeds):
        return 3

    full = (0.0, 1.0)
    indexed = {
        (r.method, r.p, r.expertise, r.seed, r.cohort): r for r in result.records
    }
    if {"ea_l2d", "pop_avg"} <= set(cfg.methods):
        rows = []
        for p in cfg.overlap_probabilities:
            for epe in cfg.expertise_grid():
                for seed in cfg.seeds:
                    if seed in result.failures:
                        continue
                    for cohort in ("id", "ood"):
                        a = indexed.get(("ea_l2d", p, epe, seed, cohort))
                        b = indexed.get(("pop_avg", p, epe, seed, cohort))
                        if a is None or b is None or full not in a.aurdac:
                            continue
                        rows.append(
                            [
                                repr(p),
                                epe,
                                seed,
                                cohort,
                                repr(a.aurdac[full]),
                                repr(b.aurdac[full]),
                                repr(a.aurdac[full] - b.aurdac[full]),
                            ]
                        )
        with open(Path(args.out) / "sweep_summary.csv", "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(
                ["p", "expertise", "seed", "cohort", "ea_l2d_aurdac", "pop_avg_aurdac", "gap"]
            )
            writer.writerows(rows)
    print(f"sweep complete: {len(result.records)} records in {args.out}")
    return 0


def _cmd_priors_study(args) -> int:
    cfg = _load_config(args)
    try:
        result = run_priors_study(cfg, args.out)
    except TrainingDivergenceError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 3
    print(
        f"priors study on expert {result.target_expert}: "
        f"{len(result.records)} curve sets in {args.out}"
    )
    return 0


def _cmd_theory_check(args) -> int:
    seeds = [args.seed] if args.seed is not None else []
    if args.config is not None:
        cfg = parse_config(args.config)
        seeds = [args.seed] if args.seed is not None else cfg.seeds
    rows, default_used = run_theory_checks(
        seeds, out_dir=args.out, bound_scale=args.bound_scale
    )
    if default_used:
        print("no seeds given; using default seed 0")
    failed = [r for r in rows if not r.passed]
    for row in rows:
        status = "pass" if row.passed else "FAIL"
        print(f"{status} {row.check} {row.params} observed={row.observed:.6g} "
              f"threshold={row.threshold:.6g}")
    return 2 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deferlab", description="Learning-to-defer experiment harness"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        p.add_argument("--config", required=config_required, help="path to the JSON config")
        p.add_argument("--seed", type=int, default=None, help="override the config seeds")
        p.add_argument("--out", required=True, help="output directory")

    common(sub.add_parser("generate", help="emit dataset CSVs"))
    common(sub.add_parser("train", help="train and save checkpoints"))
    common(sub.add_parser("evaluate", help="train and evaluate all cohorts"))
    common(sub.add_parser("sweep", help="evaluate the diversity/expertise grid"))
    common(sub.add_parser("priors-study", help="zero-context prior comparison"))
    theory = sub.add_parser("theory-check", help="run the verification grid")
    common(theory, config_required=False)
    theory.add_argument(
        "--bound-scale",
        type=float,
        default=1.0,
        help="scale the sample bound (e.g. 0.1 as a negative control)",
    )
    return parser


_COMMANDS = {
    "generate": _cmd_generate,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "sweep": _cmd_sweep,
    "priors-study": _cmd_priors_study,
    "theory-check": _cmd_theory_check,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, DatasetParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
