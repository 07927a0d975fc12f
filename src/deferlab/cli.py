"""Command-line experiment runner.

Subcommands: ``generate`` (emit dataset CSVs), ``train`` (checkpoints and
loss histories), ``evaluate`` (full train-and-evaluate protocol), ``sweep``
(same plus a method-gap summary), ``priors-study``, ``theory-check``.

Exit codes: 0 success, 1 validation error (a bad config, data file or
``--bound-scale``) or a file that cannot be read or written (such as a
missing config or prior file), 2 failed theory/acceptance check,
3 training divergence on every seed (on any seed for ``priors-study`` and
``theory-check``, which fail as a whole on a divergence).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .config import ConfigError, ExperimentConfig, check_seed, parse_config
from .errors import DatasetParseError, TrainingDivergenceError
from .harness import (
    run_experiment,
    run_priors_study,
    run_theory_checks,
    run_training,
)
from .simulate import generate_gaussian_task, save_csv_dataset
from .tables import write_table


def _load_config(args) -> ExperimentConfig:
    cfg = parse_config(args.config)
    if args.seed is not None:
        cfg.seeds = [check_seed(args.seed)]
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


def _every_seed_failed(failures: dict[int, Exception], cfg: ExperimentConfig) -> bool:
    """Report each diverged seed on stderr, one line per seed, and say
    whether no seed is left (the command then exits 3)."""
    for seed, msg in failures.items():
        print(f"seed {seed}: training diverged: {msg}", file=sys.stderr)
    return bool(failures) and len(failures) == len(cfg.seeds)


def _cmd_train(args) -> int:
    cfg = _load_config(args)
    if _every_seed_failed(run_training(cfg, args.out), cfg):
        return 3
    print(f"wrote checkpoints to {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    cfg = _load_config(args)
    result = run_experiment(cfg, args.out)
    if _every_seed_failed(result.failures, cfg):
        return 3
    print(f"wrote {len(result.records)} evaluation records to {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    result = run_experiment(cfg, args.out)
    if _every_seed_failed(result.failures, cfg):
        return 3

    if {"ea_l2d", "pop_avg"} <= set(cfg.methods):
        # Records come seed by seed; sorted stably by grid cell, they list the
        # seeds within each cell, and the two methods' records pair up.
        cells = [(p, e) for p in cfg.overlap_probabilities for e in cfg.expertise_grid()]
        by_cell = sorted(result.records, key=lambda r: cells.index((r.p, r.expertise)))
        ea, pop = ([r for r in by_cell if r.method == m] for m in ("ea_l2d", "pop_avg"))
        rows = []
        for a, b in zip(ea, pop):
            x, y = a.aurdac(), b.aurdac()
            rows.append([a.p, a.expertise, a.seed, a.cohort, x, y, x - y])
        header = ["p", "expertise", "seed", "cohort", "ea_l2d_aurdac", "pop_avg_aurdac", "gap"]
        write_table(Path(args.out) / "sweep_summary.csv", header, rows)
    print(f"sweep complete: {len(result.records)} records in {args.out}")
    return 0


def _cmd_priors_study(args) -> int:
    result = run_priors_study(_load_config(args), args.out)
    print(
        f"priors study on expert {result.target_expert}: "
        f"{len(result.records)} curve sets in {args.out}"
    )
    return 0


def _cmd_theory_check(args) -> int:
    if not (math.isfinite(args.bound_scale) and args.bound_scale > 0):
        raise ConfigError("--bound-scale must be finite and > 0")
    seeds = parse_config(args.config).seeds if args.config is not None else []
    if args.seed is not None:
        seeds = [check_seed(args.seed)]
    if not seeds:
        print("no seeds given; using default seed 0")
        seeds = [0]
    rows = run_theory_checks(seeds, out_dir=args.out, bound_scale=args.bound_scale)
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
        help="scale the sample bound, finite and > 0 (e.g. 0.1 as a negative control)",
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
    except (ConfigError, DatasetParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TrainingDivergenceError as exc:
        # priors-study and theory-check fail as a whole on a divergence
        print(f"training diverged: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
