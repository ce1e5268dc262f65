"""Package acceptance suite.

One test per acceptance criterion; each prints a single PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them inline).
All criteria are hard except criterion 8, whose direction is reported
but never fails the build.
"""

import csv
import time
from dataclasses import replace

import numpy as np
import pytest
from reference_ops import node

from pnsrisk.autodiff import check_gradients, parameter
from pnsrisk.cli import parse_config, run_repro
from pnsrisk.evaluate import evaluate
from pnsrisk.model import (
    GaussianEncoder,
    GaussianPrior,
    LinearHead,
    surrogate_m,
    surrogate_sf,
)
from pnsrisk.pns import (
    DiscreteScm,
    analyze,
    check_exogeneity,
    check_monotonicity,
    necessity_ratio,
    pns_exact,
    pns_identified,
    random_identifiable_scm,
    sufficiency_ratio,
)
from pnsrisk.risk import (
    domain_shift_bound,
    estimate_risk,
    random_bound_instance,
    sufficiency_deviation_trial,
)
from pnsrisk.synth import SynthConfig, generate
from pnsrisk.train import (
    VARIANTS,
    TrainConfig,
    casn_objective,
    irm_penalty,
    mmd_penalty,
    separation_penalty,
    train,
)

ATOL = 1e-12

REPRO_SPEC = """\
[experiment]
name = reproduction

[synth]
d = 5
s = 0.1
n_train = 5000
n_eval = 500
seed = 1

[train]
total_steps = 2000
lr_min = 0.05
lr_max = 0.05
momentum = 0.9
max_every = 50
max_steps_per_phase = 10
adversary_kl = false
rep_dim = 16
hidden = 64, 32
delta = 1.1

[grid]
variant = casn
seed = 0, 1, 2, 3, 4

[acceptance]
dcor_sn_min = 0.75
dcor_gap_min = 0.3
"""

SPEC = parse_config(REPRO_SPEC)


def report(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    return ok


def test_criterion_1_identification_agreement():
    rng = np.random.default_rng(20260814)
    start = time.perf_counter()
    worst = 0.0
    all_qualify = True
    for _ in range(1000):
        scm = random_identifiable_scm(rng)
        all_qualify = (all_qualify and check_monotonicity(scm, 1, 0, 1)
                       and check_exogeneity(scm, 1, 1)
                       and check_exogeneity(scm, 0, 1))
        gap = abs(pns_exact(scm, 1, 0, 1) - pns_identified(scm, 1, 0, 1))
        worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    ok = all_qualify and worst <= ATOL and elapsed < 10.0
    assert report(1, ok, f"1000 monotone exogenous SCMs, "
                         f"max |exact - identified| = {worst:.2e} (tol 1e-12), "
                         f"{elapsed:.1f}s (budget 10s)")


def test_criterion_2_golden_oracle_values():
    one_sided = DiscreteScm(
        c_values=(0, 1), u_values=(0, 1), u_probs=(0.5, 0.5),
        cause_table={0: 0.5, 1: 0.5},
        mechanism=lambda c, u: 1 if c == 1 else u)
    first = analyze(one_sided, 1, 0, 1)
    pn_stated = necessity_ratio(p_y=0.25, p_y_do_cbar=0.0, p_joint_c_y=0.25)
    ps_stated = sufficiency_ratio(p_y_do_c=0.5, p_y=0.25,
                                  p_joint_cbar_ybar=0.5)
    ternary = DiscreteScm(
        c_values=(0, 0.5, 1), u_values=(0, 1), u_probs=(0.5, 0.5),
        cause_table={0: 1 / 3, 0.5: 1 / 3, 1: 1 / 3},
        mechanism=lambda c, u: 1 if c == 1 else (u if c == 0.5 else 0))
    third_identified = pns_identified(ternary, 1, 0, 1)
    checks = {
        "pn1": abs(first.pn - 0.5) <= ATOL,
        "ps1": abs(first.ps - 1.0) <= ATOL,
        "pn2": abs(pn_stated - 1.0) <= ATOL,
        "ps2": abs(ps_stated - 0.5) <= ATOL,
        "ident3": abs(third_identified - 1.0) <= ATOL,
    }
    ok = all(checks.values())
    assert report(2, ok, f"pn={first.pn}, ps={first.ps}; "
                         f"ratio pn={pn_stated}, ps={ps_stated}; "
                         f"ternary identified pns={third_identified} "
                         f"(all to 1e-12)")


def _random_risk_setup(rng):
    x_dim = int(rng.integers(2, 5))
    rep = int(rng.integers(2, 5))
    n = int(rng.integers(2, 9))
    x = rng.standard_normal((n, x_dim))
    y = rng.integers(0, 2, size=n)
    base = int(rng.integers(0, 2**31))
    enc_c = GaussianEncoder(x_dim, rep_dim=rep, hidden=(6, 5),
                            rng=np.random.default_rng(base))
    enc_cbar = GaussianEncoder(x_dim, rep_dim=rep, hidden=(6, 5),
                               rng=np.random.default_rng(base + 1),
                               prefix="twin")
    head = LinearHead(rep, rng=np.random.default_rng(base + 2))
    return x, y, enc_c, enc_cbar, head


def test_criterion_3_decomposition_identity():
    rng = np.random.default_rng(11)
    worst_identity = 0.0
    worst_slack = -np.inf
    for _ in range(200):
        x, y, enc_c, enc_cbar, head = _random_risk_setup(rng)
        rep = estimate_risk(x, y, enc_c, enc_cbar, head,
                            mc_samples=int(rng.integers(1, 17)),
                            seed=int(rng.integers(0, 2**31)))
        for sf_i, nc_i, m_i in rep.per_sample:
            identity = sf_i * (1.0 - nc_i) + (1.0 - sf_i) * nc_i
            worst_identity = max(worst_identity, abs(m_i - identity))
        worst_slack = max(worst_slack, rep.r - (rep.m + 2.0 * rep.sf))
    ok = worst_identity <= ATOL and worst_slack <= ATOL
    assert report(3, ok, f"200 random configurations, per-sample "
                         f"|m - (sf(1-nc) + (1-sf)nc)| <= {worst_identity:.2e}, "
                         f"max r - (m + 2sf) = {worst_slack:.2e} (tol 1e-12)")


def test_criterion_4_domain_shift_bound():
    rng = np.random.default_rng(4)
    start = time.perf_counter()
    all_hold = True
    tightest = np.inf
    for i in range(200):
        t, s, enc_c, enc_cbar, head = random_bound_instance(
            rng, out_of_support=bool(i % 2))
        rep = domain_shift_bound(t, s, enc_c, enc_cbar, head, mc_samples=24,
                                 seed=int(rng.integers(0, 2**31)))
        all_hold = all_hold and rep.holds
        tightest = min(tightest, rep.rhs - rep.lhs)
    elapsed = time.perf_counter() - start
    ok = all_hold and elapsed < 30.0
    assert report(4, ok, f"200 random domain pairs (half with "
                         f"out-of-support mass) all hold, tightest slack "
                         f"{tightest:.3e}, {elapsed:.1f}s (budget 30s)")


def test_criterion_5_deviation_bound_resampling():
    rng = np.random.default_rng(5)
    _, source, enc, _, head = random_bound_instance(rng, out_of_support=False)
    prior = GaussianPrior.standard(enc.rep_dim)
    start = time.perf_counter()
    violations = 0
    for trial in range(200):
        _, _, violated = sufficiency_deviation_trial(
            source, enc, head, prior, n=500, epsilon=0.1, seed=trial,
            slack_half=True)
        violations += violated
    elapsed = time.perf_counter() - start
    ok = violations <= 20 and elapsed < 120.0
    assert report(5, ok, f"n=500, epsilon=0.1, half-slack: {violations}/200 "
                         f"trials exceed the bound (allowed 20), "
                         f"{elapsed:.1f}s (budget 120s)")


def test_criterion_6_gradient_integrity():
    """The six loss terms, each made one graph node, on 100 seeds, and
    both players' step losses from casn_objective (the variants in turn,
    two domains) on 20 of them, against central differences."""
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        n, rep = 4, 3
        c = parameter(rng.standard_normal((n, rep)))
        c_bar = parameter(rng.standard_normal((n, rep)))
        y = rng.integers(0, 2, size=n)
        head = LinearHead(rep, rng=rng)
        enc = GaussianEncoder(2, rep_dim=rep, hidden=(4, 3), rng=rng)
        x = rng.standard_normal((3, 2))
        prior = GaussianPrior.standard(rep)
        delta = float(rng.uniform(0.5, 2.0))
        w, neg_ytil = head.w, -(y * 2.0 - 1.0)

        def kl():
            mean = node("encode", list(enc.mlp.parameters().values()), enc.encode(x))
            return node("kl_node", [mean, enc.log_var], enc.kl_node(mean.data, prior))

        losses = [
            (lambda: node("surrogate_sf", [c, w], surrogate_sf(w.data, c.data, neg_ytil)),
             [c, w]),
            (lambda: node("surrogate_m", [c, c_bar, w], surrogate_m(w.data, c.data, c_bar.data)),
             [c, c_bar, w]),
            (kl, list(enc.parameters().values())),
            (lambda: node("separation_penalty", [c, c_bar],
                          separation_penalty(c.data, c_bar.data, delta)), [c, c_bar]),
            (lambda: node("irm_penalty", [c, w], irm_penalty(w.data, [c.data], [neg_ytil])),
             [c, w]),
            (lambda: node("mmd_penalty", [c, c_bar], mmd_penalty([c.data, c_bar.data])),
             [c, c_bar]),
        ]
        if seed % 5 == 0:  # the step losses on 20 seeds, each variant 5 times
            twin = GaussianEncoder(2, rep_dim=rep, hidden=(4, 3), rng=rng, prefix="enc_twin")
            ytil = rng.integers(0, 2, size=3) * 2.0 - 1.0
            eps_c, eps_cbar = rng.standard_normal((2, 1, 3, rep))
            config = TrainConfig(variant=VARIANTS[seed // 5 % len(VARIANTS)], rep_dim=rep,
                                 hidden=(4, 3), delta=delta)
            args = (x, ytil, enc, twin, head, prior, prior, config, eps_c, eps_cbar)
            domains = dict(domain_rows=[np.array([0, 2]), np.array([1])], penalty_weight=1.0)
            players = ([*enc.parameters().values(), w], list(twin.parameters().values()))
            for role in (0, 1) if config.variant != "casn_minus_m" else (0,):
                losses.append((lambda role=role: casn_objective(*args, **domains)[role],
                               players[role]))
        for build, params in losses:
            worst = max(worst, check_gradients(build, params))
    ok = worst <= 1e-4
    assert report(6, ok, f"six loss terms x 100 seeds and both players' step losses x 20, "
                         f"max relative gradient error {worst:.2e} (tol 1e-4)")


@pytest.fixture(scope="module")
def repro_pipeline(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("repro")
    start = time.perf_counter()
    ok = run_repro(parse_config(REPRO_SPEC), out_dir)
    elapsed = time.perf_counter() - start
    return out_dir, ok, elapsed


def _summary_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_criterion_7_reproduction_quality(repro_pipeline):
    out_dir, checks_ok, elapsed = repro_pipeline
    row = next(r for r in _summary_rows(out_dir / "summary.csv")
               if r["variant"] == "casn")
    dcor_sn = float(row["dcor_sn"])
    gap = dcor_sn - float(row["dcor_sp"])
    ok = checks_ok and dcor_sn >= 0.75 and gap >= 0.3 and elapsed < 900.0
    assert report(7, ok, f"s=0.1, delta=1.1, 5 seeds: median "
                         f"dcor_sn={dcor_sn:.3f} (>=0.75), "
                         f"dcor_sn - dcor_sp = {gap:.3f} (>=0.3), "
                         f"{elapsed:.0f}s (budget 900s)")


def test_criterion_8_ablation_direction_soft():
    synth = SynthConfig(d=5, s=0.7, n_train=5000, n_eval=500, seed=1)
    data = generate(synth, synth.n_train)
    eval_data = generate(synth, synth.n_eval, seed=synth.seed + 1)
    medians = {}
    for variant in ("casn", "casn_minus_m"):
        values = []
        for seed in range(5):
            config = replace(SPEC.train, variant=variant, seed=seed)
            result = train(data, config)
            values.append(evaluate(eval_data, result.enc_c, result.head).dcor_sn)
        medians[variant] = float(np.median(values))
    ok = medians["casn"] >= medians["casn_minus_m"] - 0.05
    report(8, ok, f"s=0.7, 5 seeds: median dcor_sn full={medians['casn']:.3f} "
                  f"vs ablation={medians['casn_minus_m']:.3f} "
                  f"(soft, margin 0.05; never fails the build)")


def test_criterion_9_pipeline_determinism(repro_pipeline, tmp_path):
    first_dir, _, _ = repro_pipeline
    rerun_dir = tmp_path / "rerun"
    run_repro(parse_config(REPRO_SPEC), rerun_dir)
    same_summary = ((first_dir / "summary.csv").read_bytes()
                    == (rerun_dir / "summary.csv").read_bytes())
    same_runs = ((first_dir / "runs.csv").read_bytes()
                 == (rerun_dir / "runs.csv").read_bytes())
    ok = same_summary and same_runs
    assert report(9, ok, "identical spec and seeds give byte-identical "
                         "summary and per-run CSVs")
