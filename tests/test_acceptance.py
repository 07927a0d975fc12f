"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete. The trend criteria share one experiment grid (3 seeds x 3 overlap
probabilities x 2 methods) and one priors study, built once per seed group:
the tested seeds 1-3 and the held-out seeds 4-6, with the same bounds.
"""

import json

import numpy as np
import pytest

from deferlab.cli import main
from deferlab.config import validate_config
from deferlab.deferral import _ea_l2d, _pop_avg, mode_labels, rejector_inputs
from deferlab.evaluation import Curve, ScoredCases, area_under, build_curves
from deferlab.experts import (
    PriorElicitation,
    build_representation,
    prior_arrays,
    sample_complexity_bound,
)
from deferlab.harness import run_experiment, run_priors_study
from deferlab.nets import dense_net, forward
from deferlab.simulate import (
    SimulatedExpertSpec,
    expert_accuracy_by_class,
    generate_gaussian_task,
)
from deferlab.theory import bayes_optimal_reference, misidentification_rate

FULL = (0.0, 1.0)

ACCEPTANCE_RAW = dict(
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
    seeds=[1, 2, 3],
    method=["ea_l2d", "pop_avg"],
    learning_rate=0.15,
    batch_size=64,
    epochs=40,
    patience=10,
)


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num}: {name}{suffix}")
    assert ok, f"criterion {num} failed{suffix}"


def against(bound, margin, fmt=".3f"):
    """A detail's bound and margin, the distance to the bound: positive
    while the criterion holds, negative by as much as it fails."""
    return f"(bound {bound:.3g}, margin {margin:+{fmt}})"


SEED_GROUPS = {"seeds1-3": [1, 2, 3], "seeds4-6": [4, 5, 6]}


@pytest.fixture(scope="module", params=list(SEED_GROUPS.values()), ids=list(SEED_GROUPS))
def seeds(request):
    return request.param


@pytest.fixture(scope="module")
def grid_result(tmp_path_factory, seeds):
    cfg = validate_config(dict(ACCEPTANCE_RAW, seeds=seeds))
    return cfg, run_experiment(cfg, tmp_path_factory.mktemp("grid"))


@pytest.fixture(scope="module")
def priors_result(tmp_path_factory, seeds):
    cfg = validate_config(
        dict(ACCEPTANCE_RAW, seeds=seeds, overlap_probabilities=[0.2], method="ea_l2d")
    )
    return cfg, run_priors_study(cfg, tmp_path_factory.mktemp("priors"))


# Context sizes of criterion 12's arms: 25 is gated, 10 only reported.
SMALL_CONTEXTS = (25, 10)


@pytest.fixture(scope="module")
def small_context_result(tmp_path_factory, seeds):
    """``ea_l2d`` at p = 0.2 with each of ``SMALL_CONTEXTS`` items per
    expert's context, by size. ``pop_avg`` reads no context, and a p = 0.2
    cell does not depend on the grid's other cells, so the grid's p = 0.2
    records are its arm at every size, as they are ``ea_l2d``'s 150-item
    arm."""
    return {
        size: run_experiment(
            validate_config(dict(ACCEPTANCE_RAW, seeds=seeds, overlap_probabilities=[0.2],
                                 method="ea_l2d", context_size=size)),
            tmp_path_factory.mktemp(f"context{size}"),
        )
        for size in SMALL_CONTEXTS
    }


def beta_means(params):
    """Posterior-mean row a / (a + b) of per-class (a, b) rows of ``params``."""
    return params[:, 0] / (params[:, 0] + params[:, 1])


def test_criterion_1_posterior_exactness():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        alpha = float(rng.uniform(0.01, 60))
        beta = float(rng.uniform(0.01, 60))
        n = int(rng.integers(0, 1000))
        t = int(rng.integers(0, n + 1))
        # class 0 gets n items, t of them answered correctly
        labels, preds = [0] * n, [0] * t + [1] * (n - t)
        prior = (np.array([[alpha, 1.0]]), np.array([[beta, 1.0]]))
        post = build_representation(*prior, [labels], [preds])
        worst = max(worst, abs(post[0, 0] - (alpha + t) / (alpha + beta + n)))
        uniform = build_representation(*prior_arrays([None], 2), [labels], [preds])
        worst = max(worst, abs(uniform[0, 0] - (1 + t) / (2 + n)))
    report(1, "posterior mean matches the closed form", worst < 1e-12, f"worst error {worst:.2e}")


def elicited(p, c):
    """The one-class Beta prior of elicitation (p, c) at strength 15."""
    alpha, beta = prior_arrays([PriorElicitation(np.array([p]), np.array([c]), 15.0)], 1)
    return float(alpha[0, 0]), float(beta[0, 0])


def test_criterion_2_prior_elicitation():
    alpha, beta = elicited(0.8, 0.8)
    ok = abs(alpha - 9.32) < 1e-12 and abs(beta - 3.08) < 1e-12
    for p in (0.0, 0.25, 0.5, 0.75, 1.0):
        ok = ok and elicited(p, 0.0) == (1.0, 1.0)
    report(2, "prior elicitation reference values", ok,
           f"alpha={alpha!r} beta={beta!r}")


def test_criterion_3_sample_bound_grid():
    failures = []
    for k in (2, 10):
        for gap in (0.1, 0.3):
            for delta in (0.05, 0.1):
                n = sample_complexity_bound(k, delta, gap)
                acc = np.full(k, 0.75 - gap)
                best = min(1, k - 1)
                acc[best] = 0.75
                rng = np.random.default_rng(k * 1000 + int(gap * 100))
                rate = misidentification_rate(acc, n, 2000, rng)
                if rate > delta:
                    failures.append((k, gap, delta, rate))
    report(3, "misidentification rate within delta at the sample bound",
           not failures, f"violations: {failures}" if failures else "8 cells")


def test_criterion_4_gradient_correctness():
    # imported here: bench/tests loads this module by its path for
    # ACCEPTANCE_RAW, without tests/ on sys.path
    from gradcheck import call_core, finite_difference_check

    reports = []

    def check(net, loss_fn):
        reports.append(finite_difference_check(net, loss_fn, 1e-6))

    for trial in range(50):
        rng = np.random.default_rng(10_000 + trial)
        k = int(rng.integers(3, 6))
        clf = dense_net([5, 8, k], rng)
        rej = dense_net([4, 8, 8, 1], rng)
        x = rng.normal(size=(1, 5))
        y = np.array([rng.integers(k)])
        mu = beta_means(rng.uniform(1, 9, size=(k, 2)))[None, :]

        def clf_loss(net):
            cs, ds, cg, _, pat = call_core(_ea_l2d, net, rej, x, y, mu)
            return cs + ds, cg, pat

        def rej_loss(net):
            cs, ds, _, rg, pat = call_core(_ea_l2d, clf, net, x, y, mu)
            return cs + ds, rg, pat

        check(clf, clf_loss)
        check(rej, rej_loss)

    for trial in range(50):
        rng = np.random.default_rng(20_000 + trial)
        k = int(rng.integers(3, 6))
        clf = dense_net([5, 8, k], rng)
        rej = dense_net([5, 8, 1], rng)
        x = rng.normal(size=(1, 5))
        y = np.array([rng.integers(k)])
        preds = rng.integers(k, size=int(rng.integers(1, 6)))
        # the baseline's gate: the mode of the experts' predictions is the label
        weights = (mode_labels(preds[:, None], k) == y).astype(np.float64)

        def clf_loss(net):
            cs, ds, cg, _, pat = call_core(_pop_avg, net, rej, x, y, weights)
            return cs + ds, cg, pat

        def rej_loss(net):
            cs, ds, _, rg, pat = call_core(_pop_avg, clf, net, x, y, weights)
            return cs + ds, rg, pat

        check(clf, clf_loss)
        check(rej, rej_loss)

    worst = max(r.max_rel_error for r in reports)
    # a check that skipped every parameter as a kink would report no error
    fewest = min(r.n_checked for r in reports)
    report(4, "loss gradients match central finite differences",
           worst < 1e-6 and fewest >= 1,
           f"worst relative error {worst:.2e} over 100 configurations, "
           f"at least {fewest} parameters checked in each")


def test_criterion_5_metric_oracle():
    rng = np.random.default_rng(555)
    ok = True
    detail = ""
    for _ in range(50):
        n = int(rng.integers(1, 21))
        rows = [
            (
                float(rng.choice([-0.7, -0.1, 0.0, 0.4, 0.4, 0.9])),
                bool(rng.integers(2)),
                bool(rng.integers(2)),
            )
            for _ in range(n)
        ]
        priority, clf_correct, exp_correct = zip(*rows)
        cases = ScoredCases(priority, clf_correct, exp_correct, np.zeros(n, dtype=np.int64))
        system, expert = build_curves(cases)
        # brute force over every cutoff
        order = sorted(range(n), key=lambda i: (-priority[i], i))
        for j in range(n + 1):
            deferred = set(order[:j])
            acc = sum(
                exp_correct[i] if i in deferred else clf_correct[i]
                for i in range(n)
            ) / n
            if abs(system.accuracies[j] - acc) > 1e-12:
                ok, detail = False, f"system mismatch at j={j}"
            if j > 0:
                eacc = sum(exp_correct[i] for i in deferred) / j
                if abs(expert.accuracies[j] - eacc) > 1e-12:
                    ok, detail = False, f"expert mismatch at j={j}"

    # trapezoid equals the segment-wise closed form
    for _ in range(50):
        m = int(rng.integers(1, 25))
        rates = np.arange(m + 1) / m
        accs = rng.uniform(size=m + 1)
        curve = Curve(accs)
        lo = float(rng.uniform(0, 0.4))
        hi = float(rng.uniform(0.6, 1.0))
        total = 0.0
        for (d0, a0), (d1, a1) in zip(zip(rates, accs), zip(rates[1:], accs[1:])):
            left, right = max(d0, lo), min(d1, hi)
            if left >= right:
                continue
            slope = (a1 - a0) / (d1 - d0)
            total += 0.5 * ((a0 + slope * (left - d0)) + (a0 + slope * (right - d0))) * (right - left)
        if abs(area_under(curve, lo, hi) - total / (hi - lo)) > 1e-12:
            ok, detail = False, "area mismatch"

    ones = Curve(np.ones(5))
    if area_under(ones, 0.0, 1.0) != 1.0:
        ok, detail = False, "constant-1 curve"
    report(5, "curves and areas match brute-force oracles", ok, detail or "50+50 fixtures")


def deferral_logit(rejector, rho, rep):
    """The rejector's deferral logit for one example and one expert."""
    rho = rho[None, :]
    return forward(rejector, rejector_inputs(rho, np.argmax(rho, axis=1), rep[None, :]))[0, 0]


def test_criterion_6_expert_agnosticism():
    rejector = dense_net([4, 32, 32, 1], 77)
    rng = np.random.default_rng(78)
    params = rng.uniform(1, 9, size=(6, 2))  # (alpha_k, beta_k) per class
    rep_a = beta_means(params)
    rep_b = beta_means(params.copy())
    ok = True
    for _ in range(1000):
        rho = rng.dirichlet(np.ones(6))
        if deferral_logit(rejector, rho, rep_a) != deferral_logit(rejector, rho, rep_b):
            ok = False
            break

    perm_ok = True
    for _ in range(100):
        k = int(rng.integers(3, 9))
        rho = rng.dirichlet(np.ones(k))
        params = rng.uniform(1, 9, size=(k, 2))
        rep = beta_means(params)
        g_base = deferral_logit(rejector, rho, rep)

        perm = rng.permutation(k)
        rho_p = np.empty(k)
        rho_p[perm] = rho
        params_p = np.empty_like(params)
        params_p[perm] = params
        rep_p = beta_means(params_p)
        if deferral_logit(rejector, rho_p, rep_p) != g_base:
            perm_ok = False
            break

    report(6, "identical representations and joint relabelings leave the deferral logit unchanged",
           ok and perm_ok)


def _mean(values):
    return sum(values) / len(values)


def test_criterion_7_method_gap_and_held_out_robustness(grid_result):
    cfg, result = grid_result
    recs = {(r.method, r.seed, r.cohort): r for r in result.records if r.p == 0.2}
    ok = not result.failures
    details = []

    clf_accs = [recs[("ea_l2d", s, "id")].classifier_accuracy for s in cfg.seeds]
    in_band = all(0.70 <= a <= 0.85 for a in clf_accs)
    band_margin = min(min(a - 0.70, 0.85 - a) for a in clf_accs)
    details.append(
        f"clf acc {['%.3f' % a for a in clf_accs]} (band [0.70, 0.85], margin {band_margin:+.3f})"
    )
    ok = ok and in_band

    for cohort in ("id", "ood"):
        ea = _mean([recs[("ea_l2d", s, cohort)].aurdac() for s in cfg.seeds])
        pop = _mean([recs[("pop_avg", s, cohort)].aurdac() for s in cfg.seeds])
        details.append(f"{cohort} gap {ea - pop:.3f} {against(0.10, ea - pop - 0.10)}")
        ok = ok and (ea - pop >= 0.10)

    ea_id = _mean([recs[("ea_l2d", s, "id")].aurdac() for s in cfg.seeds])
    ea_ood = _mean([recs[("ea_l2d", s, "ood")].aurdac() for s in cfg.seeds])
    spread = abs(ea_id - ea_ood)
    details.append(f"id-vs-ood {spread:.3f} {against(0.05, 0.05 - spread)}")
    ok = ok and spread <= 0.05

    report(7, "deferral-accuracy gap >= 0.10 and held-out robustness <= 0.05",
           ok, "; ".join(details))


def test_criterion_8_diversity_trend(grid_result):
    cfg, result = grid_result
    recs = {(r.method, r.p, r.seed, r.cohort): r for r in result.records}
    details = []
    ok = not result.failures
    for cohort in ("id", "ood"):
        monotone = 0
        for seed in cfg.seeds:
            gaps = [
                recs[("ea_l2d", p, seed, cohort)].aurdac()
                - recs[("pop_avg", p, seed, cohort)].aurdac()
                for p in (0.2, 0.5, 0.8)
            ]
            if gaps[0] > gaps[1] > gaps[2]:
                monotone += 1
        # more than half the seeds: at least this many
        need = len(cfg.seeds) // 2 + 1
        details.append(
            f"{cohort}: {monotone}/{len(cfg.seeds)} seeds monotone "
            + against(need, monotone - need, "d")
        )
        ok = ok and monotone * 2 > len(cfg.seeds)
    report(8, "method gap shrinks monotonically as expert overlap grows", ok, "; ".join(details))


def test_criterion_9_priors_study(priors_result):
    cfg, result = priors_result
    by_seed = {}
    for rec in result.records:
        by_seed.setdefault(rec.seed, {})[rec.cohort] = rec
    ok = True
    details = []
    grid_tol = 1.0 / cfg.test_size
    for seed, arms in sorted(by_seed.items()):
        a, u, m = (arms[k].aurdac() for k in ("accurate", "uninformative", "misdirected"))
        ordered = a > u > m
        at_full = [r.expert_curve.accuracies[-1] for r in arms.values()]
        spread = max(at_full) - min(at_full)
        converges = spread <= grid_tol
        details.append(
            f"seed {seed}: {a:.3f}>{u:.3f}>{m:.3f}={ordered} {against(0, min(a - u, u - m))}, "
            f"d=1 spread {spread:.1e} {against(grid_tol, grid_tol - spread, '.1e')}"
        )
        ok = ok and ordered and converges
    report(9, "prior quality orders deferral accuracy; arms converge at full deferral",
           ok, "; ".join(details))


def test_criterion_10_bayes_ceiling(grid_result, priors_result):
    cfg, result = grid_result
    oracle = {(o.p, o.seed, o.cohort): o.aursac() for o in result.oracles}
    worst = -np.inf
    ok = True
    for r in result.records:
        margin = r.aursac() - oracle[(r.p, r.seed, r.cohort)]
        worst = max(worst, margin)
        ok = ok and margin <= 0.02

    pcfg, presult = priors_result
    p = pcfg.overlap_probabilities[0]
    target = SimulatedExpertSpec(0, frozenset({0}), p)
    acc = expert_accuracy_by_class(target, pcfg.num_classes)
    for rec in presult.records:
        task = generate_gaussian_task(pcfg.task_spec(rec.seed))
        [(oracle_system, _)] = bayes_optimal_reference(task, [acc])
        margin = area_under(rec.system_curve, *FULL) - area_under(oracle_system, *FULL)
        worst = max(worst, margin)
        ok = ok and margin <= 0.02
    report(10, "trained system never beats the analytic ceiling by more than 0.02",
           ok, f"worst margin {worst:+.4f} {against(0.02, 0.02 - worst, '.4f')}")


def test_criterion_11_cli_determinism(tmp_path):
    raw = dict(
        ACCEPTANCE_RAW,
        overlap_probabilities=[0.2],
        seeds=[1],
        train_size=300,
        val_size=100,
        test_size=200,
        epochs=8,
        patience=None,
    )
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(raw))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["evaluate", "--config", str(cfg_path), "--out", str(out)]) == 0
        outs.append(out)
    names_a = sorted(p.name for p in outs[0].iterdir())
    names_b = sorted(p.name for p in outs[1].iterdir())
    ok = names_a == names_b and all(
        (outs[0] / n).read_bytes() == (outs[1] / n).read_bytes() for n in names_a
    )
    report(11, "repeated CLI runs produce byte-identical artifacts", ok,
           f"{len(names_a)} files compared")


def test_criterion_12_less_expert_annotated_data(grid_result, small_context_result):
    cfg, result = grid_result
    grid = {(r.method, r.seed, r.cohort): r for r in result.records if r.p == 0.2}
    small = {
        (size, r.seed, r.cohort): r for size, res in small_context_result.items()
        for r in res.records
    }
    ok = not result.failures and not any(res.failures for res in small_context_result.values())
    share = SMALL_CONTEXTS[0] / cfg.train_size
    details = [f"{SMALL_CONTEXTS[0]} items, {share:.0%} of pop_avg's {cfg.train_size}"]
    for cohort in ("id", "ood"):
        pop = _mean([grid[("pop_avg", s, cohort)].aurdac() for s in cfg.seeds])
        full = _mean([grid[("ea_l2d", s, cohort)].aurdac() for s in cfg.seeds])
        ea = {
            size: _mean([small[(size, s, cohort)].aurdac() for s in cfg.seeds])
            for size in SMALL_CONTEXTS
        }
        gap = ea[25] - pop
        details.append(
            f"{cohort} gap {gap:.3f} {against(0.10, gap - 0.10)}, "
            f"at 10 items {ea[10] - pop:+.3f}, AURDAC 25/{cfg.context_size} {ea[25] / full:.3f}"
        )
        ok = ok and gap >= 0.10
    report(12, "deferral-accuracy gap >= 0.10 with 25 context items per expert",
           ok, "; ".join(details))
