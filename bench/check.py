"""Correctness checks and digests over one CLI output directory.

One op is one expected evaluation record: (method or ``oracle``) x p x
expertise x seed x cohort. An op fails when the command did not exit 0,
its seed is listed in the manifest's failures, one of its files or metric
rows is missing, or one of these identities does not hold:

- the curve's rates are exactly j/N and its accuracies lie in [0, 1];
- system accuracy at rate 0 equals the record's ``classifier_accuracy``
  (methods only: the oracle has no such row);
- system accuracy equals expert accuracy at rate 1;
- every AURSAC/AURDAC row equals a trapezoid recomputed from the curve CSV
  over its range.

Stdlib only, so the checks do not share code with the program under test.
"""

from __future__ import annotations

import bisect
import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass

TOL = 1e-12


@dataclass(frozen=True)
class Op:
    method: str
    p: float
    expertise: int
    seed: int
    cohort: str

    @property
    def tag(self) -> str:
        return f"p{format(self.p, 'g').replace('.', '_')}_e{self.expertise}"

    @property
    def curve_file(self) -> str:
        return f"curve_{self.method}_{self.tag}_seed{self.seed}_{self.cohort}.csv"

    @property
    def metrics_file(self) -> str:
        return f"metrics_{self.method}_{self.tag}.csv"


def eval_ranges(config: dict) -> list[tuple[float, float]]:
    """The config's ranges on the fraction scale, as the CLI normalises them."""
    out = []
    for lo, hi in config.get("eval_ranges", [[0.0, 1.0]]):
        lo, hi = float(lo), float(hi)
        if max(lo, hi) > 1.0:
            lo, hi = lo / 100.0, hi / 100.0
        out.append((lo, hi))
    return out


def expected_ops(config: dict) -> list[Op]:
    method = config.get("method", "ea_l2d")
    methods = [method] if isinstance(method, str) else list(dict.fromkeys(method))
    epe = config.get("expertise_per_expert", 1)
    expertise = epe if isinstance(epe, list) else [epe]
    cohorts = ["id"] + (["ood"] if config["experts_ood"] > 0 else [])
    return [
        Op(m, float(p), e, s, c)
        for m in [*methods, "oracle"]
        for p in config["overlap_probabilities"]
        for e in expertise
        for s in dict.fromkeys(config["seeds"])
        for c in cohorts
    ]


def read_curve(path: str) -> tuple[list[float], list[float], list[float]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[:1] != [["deferral_rate", "system_accuracy", "expert_accuracy"]]:
        raise ValueError(f"{path}: unexpected header")
    rates, system, expert = (list(map(float, col)) for col in zip(*rows[1:]))
    return rates, system, expert


def read_metrics(path: str) -> dict[tuple[str, int], list[tuple[str, float, float, float]]]:
    """Rows of a metrics CSV grouped by (cohort, seed)."""
    out: dict[tuple[str, int], list] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != ["metric", "d_min", "d_max", "value", "cohort", "seed"]:
            raise ValueError(f"{path}: unexpected header")
        for metric, lo, hi, value, cohort, seed in reader:
            out.setdefault((cohort, int(seed)), []).append(
                (metric, float(lo), float(hi), float(value))
            )
    return out


def _interp(x: float, xs: list[float], ys: list[float]) -> float:
    j = bisect.bisect_right(xs, x) - 1
    if j >= len(xs) - 1:
        return ys[-1]
    return ys[j] + (x - xs[j]) * (ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j])


def trapezoid(rates: list[float], accs: list[float], lo: float, hi: float) -> float:
    """Normalised trapezoidal mean over [lo, hi], interpolating the endpoints."""
    i0 = bisect.bisect_right(rates, lo)
    i1 = bisect.bisect_left(rates, hi)
    d = [lo, *rates[i0:i1], hi]
    a = [_interp(lo, rates, accs), *accs[i0:i1], _interp(hi, rates, accs)]
    return math.fsum((a[k] + a[k + 1]) * 0.5 * (d[k + 1] - d[k]) for k in range(len(d) - 1)) / (
        hi - lo
    )


def check_op(out_dir: str, op: Op, ranges, metrics_rows) -> list[str]:
    """Problems with one op's curve and metric rows; empty when it passes."""
    path = os.path.join(out_dir, op.curve_file)
    try:
        rates, system, expert = read_curve(path)
    except (OSError, ValueError) as exc:
        return [f"curve unreadable: {exc}"]
    problems = []
    n = len(rates) - 1
    if n < 1 or any(r != j / n for j, r in enumerate(rates)):
        problems.append("rates are not exactly j/N")
    if not all(0.0 <= a <= 1.0 for a in system + expert):
        problems.append("accuracy outside [0, 1]")
    if abs(system[-1] - expert[-1]) > TOL:
        problems.append("system and expert accuracy differ at rate 1")

    rows = {(m, lo, hi): v for m, lo, hi, v in metrics_rows.get((op.cohort, op.seed), [])}
    wanted = [(m, lo, hi) for lo, hi in ranges for m in ("aursac", "aurdac")]
    if op.method != "oracle":
        wanted.append(("classifier_accuracy", 0.0, 1.0))
    missing = [w for w in wanted if w not in rows]
    if missing:
        problems.append(f"metric rows missing: {missing}")
    if op.method != "oracle" and ("classifier_accuracy", 0.0, 1.0) in rows:
        if abs(system[0] - rows[("classifier_accuracy", 0.0, 1.0)]) > TOL:
            problems.append("system accuracy at rate 0 is not the classifier accuracy")
    for (metric, lo, hi), value in rows.items():
        if metric not in ("aursac", "aurdac"):
            continue
        curve = system if metric == "aursac" else expert
        if abs(value - trapezoid(rates, curve, lo, hi)) > TOL:
            problems.append(f"{metric} [{lo}, {hi}] differs from its curve's trapezoid")
    return problems


def check_outputs(out_dir: str, config: dict, exit_code: int) -> dict[Op, list[str]]:
    """Problems per expected op of one CLI run."""
    try:
        with open(os.path.join(out_dir, "manifest.json")) as fh:
            failures = json.load(fh)["failures"]
    except (OSError, ValueError, KeyError) as exc:
        failures = None
        manifest_problem = f"manifest unreadable: {exc}"
    ranges = eval_ranges(config)
    metrics_cache: dict[str, dict] = {}
    result = {}
    for op in expected_ops(config):
        problems = []
        if exit_code != 0:
            problems.append(f"exit code {exit_code}")
        if failures is None:
            problems.append(manifest_problem)
        elif str(op.seed) in failures:
            problems.append(f"seed {op.seed} failed: {failures[str(op.seed)]}")
        if op.metrics_file not in metrics_cache:
            path = os.path.join(out_dir, op.metrics_file)
            try:
                metrics_cache[op.metrics_file] = read_metrics(path)
            except (OSError, ValueError) as exc:
                metrics_cache[op.metrics_file] = {}
                problems.append(f"metrics unreadable: {exc}")
        problems += check_op(out_dir, op, ranges, metrics_cache[op.metrics_file])
        result[op] = problems
    return result


def corrupt_curve(path: str) -> None:
    """Negative control: move one mid-curve system accuracy by 0.01."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    row = rows[len(rows) // 2]
    value = float(row[1])
    row[1] = repr(value + 0.01 if value < 0.5 else value - 0.01)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def artifact_digest(out_dir: str) -> str:
    """sha256 over the names and bytes of every file the run wrote."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        h.update(f"{name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def metrics_digest(out_dir: str) -> str:
    """sha256 over every metric value rounded to 1e-9, with its key."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        if not (name.startswith("metrics_") and name.endswith(".csv")):
            continue
        for (cohort, seed), rows in sorted(read_metrics(os.path.join(out_dir, name)).items()):
            for metric, lo, hi, value in rows:
                h.update(f"{name},{metric},{lo!r},{hi!r},{cohort},{seed},{value:.9f}\n".encode())
    return h.hexdigest()
