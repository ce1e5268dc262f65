import math
import re
import warnings

import numpy as np
import pytest

from pnsrisk.model import GaussianEncoder, GaussianPrior, LinearHead
from pnsrisk.pns import analyze
from pnsrisk.risk import (
    BoundReport,
    DiscreteDomain,
    MalformedDomainError,
    beta_divergence,
    deviation_bound,
    domain_shift_bound,
    estimate_risk,
    gaussian_kl,
    random_bound_instance,
    sufficiency_deviation_trial,
    _logit_law,
    _risk_rows,
    _wrong_mass,
)
from pnsrisk.streams import ROLE_C, ROLE_CBAR, ROLE_PICK, keyed
from pnsrisk.synth import SynthConfig, generate, label_scm

INF = math.inf


class ShiftEncoder:
    """Deterministic-mean encoder c = (x + shift) with spherical noise;
    small enough to reason about by hand."""

    def __init__(self, shift=0.0, sd=1e-9):
        self.shift = shift
        self.sd = sd

    def encode_np(self, x):
        mean = np.atleast_2d(np.asarray(x, dtype=float)) + self.shift
        return mean, np.full(mean.shape, self.sd**2)


class FixedEncoder:
    """An encoder that returns the given posterior rows, whatever the input."""

    def __init__(self, mean, var):
        self.mean, self.var = mean, var

    def encode_np(self, x):
        return self.mean[: len(x)], self.var[: len(x)]


def ref_logit_draws(enc, head, x_row, size, seed, role, sample_id):
    """size draws of the logit w.c of one row, c ~ N(mean, diag(var)) from
    a one-row encode: the logit is N(mean @ w, var @ w**2), and its
    standard normals come from the row's own new keyed Generator."""
    mean, var = enc.encode_np(x_row)
    logit, sd = mean @ head.w.data, np.sqrt(var @ head.w.data**2)
    return logit[0] + sd[0] * keyed(seed, role, sample_id).standard_normal(size)


def ref_sample_triple(x_row, y_i, enc_c, enc_cbar, head, mc_samples, seed, sample_id):
    """(sf, nc, m) of one row the per-row way: a one-row encode of each
    encoder and the row's own keyed logit draws."""

    def labels(enc, role):
        return ref_logit_draws(enc, head, x_row, mc_samples, seed, role, sample_id) >= 0.0

    pred_c, pred_cbar = labels(enc_c, ROLE_C), labels(enc_cbar, ROLE_CBAR)
    a, b = float(pred_c.mean()), float(pred_cbar.mean())
    return (float((pred_c != y_i).mean()), float((pred_cbar == y_i).mean()),
            a * b + (1.0 - a) * (1.0 - b))


def ref_shift_terms(t, s, enc_c, enc_cbar, head, mc_samples, seed):
    """(lhs, m_s, sf_s, eta, m_t) of the shift bound from per-row triples."""
    union = sorted(set(t.support()) | set(s.support()))
    triples = {
        p: ref_sample_triple(np.asarray(p[0], dtype=np.float64)[None, :], p[1],
                             enc_c, enc_cbar, head, mc_samples, seed, idx)
        for idx, p in enumerate(union)
    }
    return shift_terms(t, s, triples)


def shift_terms(t, s, triples):
    """(lhs, m_s, sf_s, eta, m_t) of the shift bound from per-point triples."""
    lhs = sum(t.mass(p) * (triples[p][0] + triples[p][1]) for p in t.support())
    m_s = sum(s.mass(p) * triples[p][2] for p in s.support())
    sf_s = sum(s.mass(p) * triples[p][0] for p in s.support())
    outside = [p for p in t.support() if s.mass(p) <= 0.0]
    eta = (sum(t.mass(p) for p in outside)
           * max((triples[p][0] + triples[p][1] for p in outside), default=0.0))
    m_t = sum(t.mass(p) * triples[p][2] for p in t.support())
    return lhs, m_s, sf_s, eta, m_t


def exact_sf(domain, enc, head):
    """Exact SF on a discrete domain, each support point encoded on its
    own as one row."""
    support = domain.support()
    posts = [enc.encode_np(np.asarray(x, dtype=np.float64)[None, :]) for x, _ in support]
    mean, var = map(np.concatenate, zip(*posts))
    probs = np.array([domain.mass(p) for p in support])
    return float(probs @ _wrong_mass(head, mean, var, [y for _, y in support]))


def ref_deviation_trial(domain, enc, head, prior, n, epsilon, seed):
    """The deviation trial the per-pick way: a one-row encode per pick."""
    support = domain.support()
    probs = np.array([domain.mass(p) for p in support])
    picks = keyed(seed, ROLE_PICK, 0).choice(len(support), size=n, p=probs / probs.sum())
    wrong = 0
    kl_sum = 0.0
    for j, pick in enumerate(picks):
        x_tuple, y = support[pick]
        x_row = np.asarray(x_tuple, dtype=np.float64)[None, :]
        draw = ref_logit_draws(enc, head, x_row, 1, seed, ROLE_C, j + 1)
        wrong += int(draw[0] >= 0.0) != y
        mean, var = enc.encode_np(x_row)
        kl_sum += gaussian_kl(mean[0], var[0], prior.mean, prior.var)
    deviation = abs(exact_sf(domain, enc, head) - wrong / n)
    rhs = deviation_bound(kl_sum / n, n, epsilon, slack_half=True)
    return deviation, rhs, deviation > rhs


def count_philox(monkeypatch):
    """A list that grows by one per Philox stream created."""
    created = []
    philox = np.random.Philox

    def counting(*args, **kwargs):
        created.append(None)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    return created


def identity_head(dim=1):
    head = LinearHead(dim)
    head.w.data[:] = 0.0
    head.w.data[0] = 1.0
    return head


class TestEstimateRisk:
    def test_perfect_factual_with_mirrored_twin(self):
        # means sit at +-5 with negligible noise; twin is the mirror
        x = np.array([[5.0], [-5.0], [5.0]])
        y = np.array([1, 0, 1])
        report = estimate_risk(x, y, ShiftEncoder(0.0), ShiftEncoder(-10.0), identity_head(),
                               mc_samples=32)
        # mirror flips only the positive samples; c=-5 keeps its sign at -15
        assert report.sf == 0.0
        for (sf_i, nc_i, m_i), yi in zip(report.per_sample, y):
            assert sf_i == 0.0
            if yi == 1:
                assert nc_i == 0.0 and m_i == 0.0

    def test_degenerate_twin_equals_factual(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((20, 1)) * 3.0
        y = (x[:, 0] > 0).astype(int)
        enc = ShiftEncoder(0.0, sd=0.5)
        report = estimate_risk(x, y, enc, enc, identity_head(), mc_samples=128, seed=7)
        for sf_i, nc_i, m_i in report.per_sample:
            # twin draws differ (separate stream), but distribution matches
            assert 0.0 <= sf_i <= 1.0 and 0.0 <= nc_i <= 1.0
            assert abs((sf_i + nc_i) - (m_i + 2.0 * sf_i * nc_i)) <= 1e-12

    def test_per_sample_decomposition_identity(self):
        rng = np.random.default_rng(1)
        for trial in range(50):
            x = rng.standard_normal((6, 2))
            y = rng.integers(0, 2, size=6)
            enc_c = ShiftEncoder(float(rng.uniform(-1, 1)), sd=float(rng.uniform(0.1, 2.0)))
            enc_cbar = ShiftEncoder(float(rng.uniform(-1, 1)), sd=float(rng.uniform(0.1, 2.0)))
            head = LinearHead(2, rng=np.random.default_rng(trial))
            report = estimate_risk(x, y, enc_c, enc_cbar, head, mc_samples=16, seed=trial)
            for sf_i, nc_i, m_i in report.per_sample:
                assert abs((sf_i + nc_i) - (m_i + 2.0 * sf_i * nc_i)) <= 1e-12
                assert sf_i + nc_i <= m_i + 2.0 * sf_i + 1e-12
            assert abs(report.r - (report.sf + report.nc)) <= 1e-12

    def test_batch_order_does_not_matter(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((10, 2))
        y = rng.integers(0, 2, size=10)
        enc_c = ShiftEncoder(0.3, sd=1.0)
        enc_cbar = ShiftEncoder(-0.3, sd=1.0)
        head = LinearHead(2, rng=rng)
        base = estimate_risk(x, y, enc_c, enc_cbar, head, mc_samples=8, seed=3)
        perm = rng.permutation(10)
        shuffled = estimate_risk(x[perm], y[perm], enc_c, enc_cbar, head, mc_samples=8,
                                 seed=3, sample_ids=perm.tolist())
        assert base.sf == shuffled.sf and base.nc == shuffled.nc and base.m == shuffled.m
        for i, p in enumerate(perm):
            assert base.per_sample[p] == shuffled.per_sample[i]

    def test_same_seed_reproduces(self):
        x = np.array([[0.1, -0.2]])
        y = np.array([1])
        enc = ShiftEncoder(0.0, sd=1.0)
        head = LinearHead(2)
        a = estimate_risk(x, y, enc, enc, head, mc_samples=16, seed=5)
        b = estimate_risk(x, y, enc, enc, head, mc_samples=16, seed=5)
        assert a.per_sample == b.per_sample

    def test_kl_fields(self):
        prior = GaussianPrior.standard(2)
        enc = GaussianEncoder(2, rep_dim=2, hidden=(4, 3), rng=np.random.default_rng(4))
        x = np.zeros((3, 2))
        y = np.array([0, 1, 0])
        head = LinearHead(2)
        report = estimate_risk(x, y, enc, enc, head, mc_samples=4,
                               prior_c=prior, prior_cbar=prior)
        mean, var = enc.encode_np(x)
        want = np.mean([gaussian_kl(mu, var[0], prior.mean, prior.var) for mu in mean])
        assert abs(report.kl_c - want) < 1e-12
        assert report.kl_c == report.kl_cbar

    def test_overflowing_learned_variance_is_refused(self):
        enc = GaussianEncoder(2, rep_dim=2, hidden=(4, 3), rng=np.random.default_rng(4),
                              prefix="enc_c")
        twin = GaussianEncoder(2, rep_dim=2, hidden=(4, 3), rng=np.random.default_rng(5))
        enc.log_var.data[:] = 800.0
        x, y = np.random.default_rng(6).standard_normal((64, 2)), np.zeros(64, dtype=int)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError,
                               match="^enc_c.log_var produced a non-finite value$"):
                estimate_risk(x, y, enc, twin, LinearHead(2))

    def test_input_validation(self):
        enc = ShiftEncoder()
        head = identity_head()
        with pytest.raises(ValueError, match="^labels row 1 is 2, not 0 or 1$"):
            estimate_risk(np.zeros((2, 1)), np.array([0, 2]), enc, enc, head)
        with pytest.raises(ValueError, match="^mc_samples must be at least 1, got 0$"):
            estimate_risk(np.zeros((2, 1)), np.array([0, 1]), enc, enc, head, mc_samples=0)

    def test_an_empty_batch_is_refused_without_a_warning(self):
        # its means would be nan, with numpy's empty-slice warnings
        enc = ShiftEncoder()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^estimate_risk needs at least one row$"):
                estimate_risk(np.zeros((0, 1)), np.zeros(0, dtype=np.int64), enc, enc,
                              identity_head())


class TestMonteCarloConvergence:
    def test_error_shrinks_toward_enumeration(self):
        domain = DiscreteDomain((((0.3,), 1),), (1.0,))
        enc = ShiftEncoder(0.0, sd=1.0)
        head = identity_head()
        exact = exact_sf(domain, enc, head)
        errors = {}
        for mc in (10, 100, 1000, 100000):
            trials = []
            for seed in range(5):
                report = estimate_risk(np.array([[0.3]]), np.array([1]), enc, enc, head,
                                       mc_samples=mc, seed=seed)
                trials.append(abs(report.sf - exact))
            errors[mc] = np.mean(trials)
        assert errors[100000] < errors[10] + 1e-9
        assert errors[1000] < 0.05
        assert errors[100000] < 0.006

    def test_true_sufficiency_matches_hand_value(self):
        # margin 0.3, sd 1.0, y=1: error mass is Phi(-0.3)
        domain = DiscreteDomain((((0.3,), 1),), (1.0,))
        exact = exact_sf(domain, ShiftEncoder(0.0, sd=1.0), identity_head())
        want = 0.5 * (1.0 + math.erf(-0.3 / math.sqrt(2.0)))
        assert abs(exact - want) < 1e-12

    def test_exact_sf_covers_the_sampled_sf_row_by_row(self):
        # random encoders at the acceptance shapes; each row's sampled SF
        # is a binomial count over 256 draws of its closed-form mass p
        rng = np.random.default_rng(0)
        enc = GaussianEncoder(20, rep_dim=16, hidden=(64, 32), rng=rng)
        twin = GaussianEncoder(20, rep_dim=16, hidden=(64, 32), rng=rng, prefix="enc_cbar")
        head = LinearHead(16, rng=rng)
        x, y = rng.standard_normal((300, 20)), rng.integers(0, 2, 300)
        p = _wrong_mass(head, *enc.encode_np(x), y)
        sampled = np.array([sf for sf, _, _ in
                            estimate_risk(x, y, enc, twin, head, mc_samples=256).per_sample])
        assert 0.0 < p.min() and p.max() < 1.0
        assert np.all(np.abs(sampled - p) <= 4.0 * np.sqrt(p * (1.0 - p) / 256))
        assert abs(sampled.mean() - p.mean()) <= 3.0 * np.sqrt(np.sum(p * (1.0 - p)) / 256) / 300


class TestOracleRoute:
    def test_oracle_pair_reads_one_minus_pns(self):
        # an encoder that reads sn off the data, at mean +-10, and a twin
        # that negates it: the Monte Carlo route must meet the exact one,
        # SF = NC = 1 - PNS(sn) and M = 0, within a binomial bound
        cfg = SynthConfig(seed=1)
        data = generate(cfg, 5000)
        x = data.sn[:, None].astype(float)

        def encoder(w, b, prefix):
            enc = GaussianEncoder(1, rep_dim=1, hidden=(), prefix=prefix)
            enc.log_var.data[:] = np.log(1e-4)
            enc.weights[0].data[:] = w
            enc.biases[0].data[:] = b
            return enc

        report = estimate_risk(x, data.y, encoder(20.0, -10.0, "enc_c"),
                               encoder(-20.0, 10.0, "enc_cbar"), identity_head(),
                               mc_samples=8, seed=0)
        # label_scm is not monotone, so the identified PNS (0.7) is not it
        pns = analyze(label_scm(cfg), 1, 0, 1).pns
        assert pns == pytest.approx(0.85)
        assert report.sf == report.nc
        assert report.m == 0.0
        assert abs(report.sf - (1.0 - pns)) <= 3.0 * math.sqrt(pns * (1.0 - pns) / len(x))


@pytest.mark.parametrize("probs", [(float("nan"), 0.5), (0.7, 0.7), (1.5, -0.5)])
def test_domain_probabilities_validated(probs):
    with pytest.raises(ValueError):
        DiscreteDomain((((0.0,), 0), ((1.0,), 1)), probs)


@pytest.mark.parametrize("points, probs, message", [
    ((((0.0,), 0), ((1.0,), 1)), (1.0,), "points and probs must align"),
    ((((0.0,), 0), ((0.0,), 0)), (0.5, 0.5), "duplicate points in domain table"),
    ((((0.0,), 0), ((1.0,), 2)), (0.5, 0.5), "label 2 outside {0, 1}"),
])
def test_domain_table_refusals(points, probs, message):
    with pytest.raises(ValueError) as info:
        DiscreteDomain(points, probs)
    assert str(info.value) == message


def test_estimate_risk_refuses_misaligned_rows():
    with pytest.raises(ValueError) as info:
        estimate_risk(np.zeros((3, 1)), np.array([0, 1]), ShiftEncoder(0.0), ShiftEncoder(0.0),
                      identity_head())
    assert str(info.value) == "y has shape (2,), not one label per row (3,)"


class TestBetaDivergence:
    def two_point(self, p, q):
        pts = (((0.0,), 0), ((1.0,), 1))
        return DiscreteDomain(pts, (p, 1.0 - p)), DiscreteDomain(pts, (q, 1.0 - q))

    def test_equal_domains_give_one(self):
        t, s = self.two_point(0.5, 0.5)
        for k in (1, 2, 4, 8, 16, 64, INF):
            assert abs(beta_divergence(t, s, k) - 1.0) < 1e-12

    def test_known_max_ratio(self):
        t, s = self.two_point(0.75, 0.5)
        assert abs(beta_divergence(t, s, INF) - 1.5) < 1e-12
        assert abs(beta_divergence(t, s, 2) - math.sqrt(0.5 * 1.5**2 + 0.5 * 0.5**2)) < 1e-12

    def test_monotone_in_k(self):
        rng = np.random.default_rng(6)
        ks = (1, 2, 4, 8, 16, 64, INF)
        for _ in range(100):
            p, q = rng.uniform(0.05, 0.95, size=2)
            t, s = self.two_point(float(p), float(q))
            values = [beta_divergence(t, s, k) for k in ks]
            for lo, hi in zip(values, values[1:]):
                assert lo <= hi + 1e-12

    def test_zero_mass_support_entry_rejected(self):
        pts = (((0.0,), 0), ((1.0,), 1))
        s = DiscreteDomain(pts, (1.0, 0.0))
        t = DiscreteDomain(pts, (0.5, 0.5))
        with pytest.raises(MalformedDomainError):
            beta_divergence(t, s, 2)

    def test_k_domain(self):
        t, s = self.two_point(0.5, 0.5)
        with pytest.raises(ValueError):
            beta_divergence(t, s, 0.5)


class TestGaussianKl:
    def test_identical_is_zero(self):
        mean, var = np.zeros(4), np.ones(4)
        assert gaussian_kl(mean, var, mean, var) == 0.0

    def test_narrow_posterior_value(self):
        got = gaussian_kl(np.zeros(64), np.full(64, 0.001), np.zeros(64), np.ones(64))
        want = 0.5 * 64 * (0.001 - math.log(0.001) - 1.0)
        assert abs(got - want) < 1e-9

    def test_against_monte_carlo(self):
        rng = np.random.default_rng(7)
        q_mean, q_var = rng.standard_normal(3), rng.uniform(0.2, 2.0, size=3)
        p_mean, p_var = rng.standard_normal(3), rng.uniform(0.2, 2.0, size=3)
        z = q_mean + np.sqrt(q_var) * rng.standard_normal((400000, 3))
        log_q = -0.5 * (((z - q_mean) ** 2) / q_var + np.log(2 * np.pi * q_var)).sum(axis=1)
        log_p = -0.5 * (((z - p_mean) ** 2) / p_var + np.log(2 * np.pi * p_var)).sum(axis=1)
        mc = float((log_q - log_p).mean())
        assert abs(gaussian_kl(q_mean, q_var, p_mean, p_var) - mc) < 0.02

    def test_validation(self):
        with pytest.raises(ValueError):
            gaussian_kl(np.zeros(2), np.zeros(2), np.zeros(2), np.ones(2))
        with pytest.raises(ValueError):
            gaussian_kl(np.zeros(2), np.ones(3), np.zeros(2), np.ones(2))


class TestDeviationBound:
    def test_arithmetic(self):
        got = deviation_bound(0.3, 500, 0.1)
        assert abs(got - (0.3 + math.log(5000.0) / (4.0 * 499))) < 1e-15
        assert abs(deviation_bound(0.3, 500, 0.1, slack_half=True) - got - 0.5) < 1e-15

    def test_smallest_admissible_inputs(self):
        assert abs(deviation_bound(0.0, 2, 1.0) - math.log(2.0) / 4.0) < 1e-15

    def test_constant_term(self):
        assert abs(deviation_bound(0.0, 2, 1.0, c_const=1.25)
                   - (math.log(2.0) / 4.0 + 1.25)) < 1e-15

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="^n must be at least 2, got 1$"):
            deviation_bound(0.1, 1, 0.1)
        with pytest.raises(ValueError, match=r"^n must be an integer, got 2\.5$"):
            deviation_bound(0.1, 2.5, 0.1)
        with pytest.raises(ValueError):
            deviation_bound(0.1, 10, 0.0)
        for kl, c_const in ((-0.1, 0.0), (math.nan, 0.0), (0.1, math.nan), (0.1, math.inf)):
            with pytest.raises(ValueError,
                               match="^kl and c_const must be finite and nonnegative$"):
                deviation_bound(kl, 10, 0.1, c_const=c_const)


class TestDomainShiftBound:
    def test_identical_domains(self):
        rng = np.random.default_rng(8)
        t, s, enc_c, enc_cbar, head = random_bound_instance(rng, out_of_support=False)
        report = domain_shift_bound(t, s, enc_c, enc_cbar, head, mc_samples=16, seed=1)
        if t.points == s.points and t.probs == s.probs:
            assert report.beta_inf == 1.0
        assert report.eta >= 0.0
        assert report.holds

    def test_same_domain_eta_zero_beta_one(self):
        pts = (((0.0, 1.0), 1), ((1.0, -1.0), 0))
        d = DiscreteDomain(pts, (0.4, 0.6))
        enc = ShiftEncoder(0.0, sd=1.0)
        head = LinearHead(2, rng=np.random.default_rng(9))
        report = domain_shift_bound(d, d, enc, enc, head, mc_samples=32, seed=2)
        assert report.beta_inf == 1.0
        assert report.eta == 0.0
        assert report.holds

    def test_out_of_support_mass_charges_eta(self):
        s = DiscreteDomain((((0.0,), 1),), (1.0,))
        t = DiscreteDomain((((0.0,), 1), ((5.0,), 0)), (0.5, 0.5))
        enc = ShiftEncoder(0.0, sd=0.5)
        report = domain_shift_bound(t, s, enc, enc, identity_head(), mc_samples=64, seed=3)
        # the (5, y=0) point is always mislabeled, so it carries risk
        assert report.eta > 0.0
        assert report.holds

    def test_random_instances_always_hold(self):
        rng = np.random.default_rng(10)
        for i in range(100):
            t, s, enc_c, enc_cbar, head = random_bound_instance(rng)
            report = domain_shift_bound(t, s, enc_c, enc_cbar, head, mc_samples=8, seed=i)
            assert report.holds, (i, report)

    def test_m_under_test_mode_holds(self):
        rng = np.random.default_rng(11)
        for i in range(50):
            t, s, enc_c, enc_cbar, head = random_bound_instance(rng)
            report = domain_shift_bound(t, s, enc_c, enc_cbar, head, mc_samples=8, seed=i,
                                        m_under_test=True)
            assert report.m_under_test
            assert report.holds, (i, report)

    def test_k_trace_shape_and_monotonicity(self):
        rng = np.random.default_rng(12)
        t, s, enc_c, enc_cbar, head = random_bound_instance(rng)
        report = domain_shift_bound(t, s, enc_c, enc_cbar, head, mc_samples=8, seed=0)
        ks = [k for k, _ in report.k_trace]
        assert ks == [2, 4, 8, 16, 64, INF]
        values = [v for _, v in report.k_trace]
        for lo, hi in zip(values, values[1:]):
            assert lo <= hi + 1e-12

    def test_shared_points_share_draws(self):
        pts = (((0.25, -0.5), 1), ((1.5, 0.75), 0))
        t = DiscreteDomain(pts, (0.9, 0.1))
        s = DiscreteDomain(pts, (0.2, 0.8))
        enc = ShiftEncoder(0.0, sd=1.0)
        head = LinearHead(2, rng=np.random.default_rng(13))
        r1 = domain_shift_bound(t, s, enc, enc, head, mc_samples=8, seed=4)
        r2 = domain_shift_bound(s, t, enc, enc, head, mc_samples=8, seed=4)
        # swapping T and S keeps the per-point triples: both sides weight
        # the same keyed draws
        assert r1.holds and r2.holds


class TestDeviationTrial:
    def test_trial_outputs(self):
        rng = np.random.default_rng(14)
        pts = tuple((tuple(rng.uniform(-1, 1, 2)), int(rng.integers(0, 2))) for _ in range(4))
        probs = rng.uniform(0.1, 1.0, 4)
        domain = DiscreteDomain(pts, tuple(probs / probs.sum()))
        enc = GaussianEncoder(2, rep_dim=2, hidden=(4, 3), rng=rng)
        head = LinearHead(2, rng=rng)
        prior = GaussianPrior.standard(2)
        deviation, rhs, violated = sufficiency_deviation_trial(
            domain, enc, head, prior, n=200, epsilon=0.1, seed=0)
        assert deviation >= 0.0
        assert rhs > 0.5  # the slack term alone exceeds 1/2
        assert violated == (deviation > rhs)

    def test_encodes_each_support_point_once(self, monkeypatch):
        rng = np.random.default_rng(20)
        pts = tuple((tuple(rng.uniform(-1, 1, 2)), i % 2) for i in range(4))
        domain = DiscreteDomain(pts, (0.1, 0.2, 0.3, 0.4))
        enc = GaussianEncoder(2, rep_dim=2, hidden=(4, 3), rng=rng)
        head = LinearHead(2, rng=rng)
        rows = []
        encode_np = GaussianEncoder.encode_np
        monkeypatch.setattr(GaussianEncoder, "encode_np",
                            lambda self, x: rows.append(len(x)) or encode_np(self, x))
        sufficiency_deviation_trial(domain, enc, head, GaussianPrior.standard(2),
                                    n=40, epsilon=0.1, seed=3)
        assert rows == [1, 1, 1, 1]

    @pytest.mark.parametrize("margin, tail", [(8.0, 6.220960574271784e-16),
                                              (10.0, 7.619853024160526e-24)])
    @pytest.mark.parametrize("y", [0, 1])
    def test_exact_sf_keeps_its_tail_mass(self, margin, tail, y):
        # the posterior mean sits margin sd on the right side of the head, so
        # no draw errs and the deviation is the exact SF, Phi(-margin); the
        # form 1 - Phi(margin) reads 0 from about 8.4 sd out
        domain = DiscreteDomain((((margin if y else -margin,), y),), (1.0,))
        deviation, _, _ = sufficiency_deviation_trial(
            domain, ShiftEncoder(0.0, sd=1.0), identity_head(), GaussianPrior.standard(1),
            n=2, epsilon=0.1, seed=0)
        assert abs(deviation - tail) <= 1e-12 * tail

    def test_deterministic_in_seed(self):
        rng = np.random.default_rng(15)
        domain = DiscreteDomain((((0.0, 0.0), 1), ((1.0, 1.0), 0)), (0.5, 0.5))
        enc = GaussianEncoder(2, rep_dim=2, hidden=(4, 3), rng=rng)
        head = LinearHead(2, rng=rng)
        prior = GaussianPrior.standard(2)
        a = sufficiency_deviation_trial(domain, enc, head, prior, 50, 0.1, seed=9)
        b = sufficiency_deviation_trial(domain, enc, head, prior, 50, 0.1, seed=9)
        assert a == b

    @pytest.mark.parametrize("n", [0, 1, 2.5])
    def test_fewer_than_two_picks_are_refused_before_any_encoding(self, monkeypatch, n):
        rng = np.random.default_rng(15)
        domain = DiscreteDomain((((0.0, 0.0), 1), ((1.0, 1.0), 0)), (0.5, 0.5))
        enc = GaussianEncoder(2, rep_dim=2, hidden=(4, 3), rng=rng)
        head = LinearHead(2, rng=rng)
        rows = []
        encode_np = GaussianEncoder.encode_np
        monkeypatch.setattr(GaussianEncoder, "encode_np",
                            lambda self, x: rows.append(len(x)) or encode_np(self, x))
        created = count_philox(monkeypatch)
        message = (f"n must be at least 2, got {n}" if isinstance(n, int)
                   else f"n must be an integer, got {n}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            sufficiency_deviation_trial(domain, enc, head, GaussianPrior.standard(2), n, 0.1,
                                        seed=0)
        assert rows == [] and created == []


class TestPerRowReference:
    """The batched estimators give exactly the numbers of a per-row path
    with one-row encodes and one new Philox per stream, while they create
    one Philox per role and re-key it for each row."""

    def test_estimate_risk_matches_per_row(self, monkeypatch):
        rng = np.random.default_rng(16)
        _, _, enc_c, enc_cbar, head = random_bound_instance(rng)
        x = rng.uniform(-2.0, 2.0, size=(40, 3))
        y = rng.integers(0, 2, size=40)
        ids = rng.permutation(1000)[:40].tolist()
        prior = GaussianPrior.standard(3)
        created = count_philox(monkeypatch)
        report = estimate_risk(x, y, enc_c, enc_cbar, head, mc_samples=16, seed=3,
                               sample_ids=ids, prior_c=prior, prior_cbar=prior)
        assert len(created) == 2  # one per role, ROLE_C and ROLE_CBAR
        want = tuple(ref_sample_triple(x[i : i + 1], int(y[i]), enc_c, enc_cbar, head,
                                       16, 3, sid)
                     for i, sid in enumerate(ids))
        assert report.per_sample == want
        assert report.sf == float(np.mean([t[0] for t in want]))
        assert report.m == float(np.mean([t[2] for t in want]))
        mean, var = enc_cbar.encode_np(x)
        assert report.kl_cbar == float(
            np.mean([gaussian_kl(mu, var[0], prior.mean, prior.var) for mu in mean]))

    def test_estimate_risk_matches_per_row_over_several_blocks(self):
        # 300 rows are drawn in blocks of 128, 128 and 44; ids repeat
        rng = np.random.default_rng(26)
        _, _, enc_c, enc_cbar, head = random_bound_instance(rng)
        x = rng.uniform(-2.0, 2.0, size=(300, 3))
        y = rng.integers(0, 2, size=300)
        ids = rng.integers(0, 50, size=300).tolist()
        report = estimate_risk(x, y, enc_c, enc_cbar, head, mc_samples=4, seed=8,
                               sample_ids=ids)
        assert report.per_sample == tuple(
            ref_sample_triple(x[i : i + 1], int(y[i]), enc_c, enc_cbar, head, 4, 8, sid)
            for i, sid in enumerate(ids))

    @pytest.mark.parametrize("value", [-1, 2**64, 2.5, "0"])
    def test_bad_stream_keys_are_refused_before_any_draw(self, monkeypatch, value):
        rng = np.random.default_rng(27)
        t, s, enc_c, enc_cbar, head = random_bound_instance(rng)
        x, y = np.zeros((3, 3)), np.array([0, 1, 1])

        def refusal(name):
            message = f"{name} must be an integer in [0, 18446744073709551615], got {value!r}"
            return f"^{re.escape(message)}$"

        created = count_philox(monkeypatch)
        with pytest.raises(ValueError, match=refusal("seed")):
            estimate_risk(x, y, enc_c, enc_cbar, head, seed=value)
        with pytest.raises(ValueError, match=refusal("seed")):
            domain_shift_bound(t, s, enc_c, enc_cbar, head, seed=value)
        with pytest.raises(ValueError, match=refusal("sample_ids")):
            estimate_risk(x, y, enc_c, enc_cbar, head, sample_ids=[0, value, 2])
        assert created == []

    @pytest.mark.parametrize("mc_samples", [0, -1, 2.5])
    def test_mc_samples_below_one_are_refused_before_any_draw(self, monkeypatch, mc_samples):
        rng = np.random.default_rng(27)
        t, s, enc_c, enc_cbar, head = random_bound_instance(rng)
        x, y = np.zeros((3, 3)), np.array([0, 1, 1])
        created = count_philox(monkeypatch)
        message = (f"mc_samples must be at least 1, got {mc_samples}"
                   if isinstance(mc_samples, int)
                   else f"mc_samples must be an integer, got {mc_samples}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            estimate_risk(x, y, enc_c, enc_cbar, head, mc_samples=mc_samples)
        with pytest.raises(ValueError, match=f"^{message}$"):
            domain_shift_bound(t, s, enc_c, enc_cbar, head, mc_samples=mc_samples)
        assert created == []

    @pytest.mark.parametrize("y_of, shape", [(lambda y: y[:, None], "(5, 1)"),
                                             (lambda y: np.tile(y, (5, 1)), "(5, 5)"),
                                             (lambda y: y[0], "()")],
                             ids=["column", "matrix", "scalar"])
    def test_labels_not_one_per_row_are_refused_before_any_draw(self, monkeypatch, y_of,
                                                                 shape):
        # a (5, 1) column would broadcast pred != y to (5, 5, mc)
        rng = np.random.default_rng(28)
        _, _, enc_c, enc_cbar, head = random_bound_instance(rng)
        x, y = rng.uniform(-2.0, 2.0, size=(5, 3)), rng.integers(0, 2, size=5)
        created = count_philox(monkeypatch)
        with pytest.raises(ValueError) as info:
            estimate_risk(x, y_of(y), enc_c, enc_cbar, head, mc_samples=32)
        assert str(info.value) == f"y has shape {shape}, not one label per row (5,)"
        assert created == []

    def test_draws_read_the_logit_law_alone(self):
        # a rep_dim 3 pair and a rep_dim 16 pair whose logits have the same
        # law row by row get the same labels, draw for draw: coordinates
        # with zero weight and a rescaled coordinate change nothing.  The
        # values are dyadic, so both laws are exact whatever the sum order.
        rng = np.random.default_rng(29)
        n = 40
        w3 = rng.integers(1, 5, size=3) / 4.0 * rng.choice((-1.0, 1.0), size=3)
        w16 = np.zeros(16)
        w16[:3] = w3
        w16[0] = w3[0] / 2.0

        def laws():
            mean3 = rng.integers(-8, 9, size=(n, 3)) / 8.0
            var3 = rng.integers(1, 9, size=(n, 3)) / 16.0
            mean, var = (rng.integers(-8, 9, size=(n, 16)) / 8.0,
                         rng.integers(1, 9, size=(n, 16)) / 16.0)
            mean[:, :3], var[:, :3] = mean3, var3
            mean[:, 0], var[:, 0] = 2.0 * mean3[:, 0], 4.0 * var3[:, 0]
            return mean3, var3, mean, var

        rows = [laws() for _ in range(2)]  # factual, twin
        head3, head16 = LinearHead(3), LinearHead(16)
        head3.w.data[:], head16.w.data[:] = w3, w16
        for mean3, var3, mean, var in rows:
            for got, want in zip(_logit_law(head16, mean, var), _logit_law(head3, mean3, var3)):
                assert np.array_equal(got, want)
        (m3c, v3c, m16c, v16c), (m3b, v3b, m16b, v16b) = rows
        x, y = np.zeros((n, 1)), rng.integers(0, 2, size=n)
        small = estimate_risk(x, y, FixedEncoder(m3c, v3c), FixedEncoder(m3b, v3b), head3,
                              mc_samples=32, seed=4)
        large = estimate_risk(x, y, FixedEncoder(m16c, v16c), FixedEncoder(m16b, v16b), head16,
                              mc_samples=32, seed=4)
        assert small.per_sample == large.per_sample
        assert 0.0 < small.sf < 1.0 and 0.0 < small.nc < 1.0

    def test_sample_ids_must_align(self):
        enc = ShiftEncoder()
        with pytest.raises(ValueError, match="sample_ids"):
            estimate_risk(np.zeros((2, 1)), np.array([0, 1]), enc, enc, identity_head(),
                          sample_ids=[5])

    @pytest.mark.parametrize("m_under_test", [False, True])
    def test_domain_shift_bound_matches_per_row(self, m_under_test):
        rng = np.random.default_rng(17)
        for i in range(20):
            t, s, enc_c, enc_cbar, head = random_bound_instance(rng)
            report = domain_shift_bound(t, s, enc_c, enc_cbar, head, mc_samples=8, seed=i,
                                        m_under_test=m_under_test)
            lhs, m_s, sf_s, eta, m_t = ref_shift_terms(t, s, enc_c, enc_cbar, head, 8, i)
            beta = beta_divergence(t, s, INF)
            rhs = (m_t + beta * 2.0 * sf_s + eta if m_under_test
                   else beta * (m_s + 2.0 * sf_s) + eta)
            assert (report.lhs, report.rhs, report.eta, report.sf_term) == (lhs, rhs, eta, sf_s)
            assert report.m_term == (m_t if m_under_test else m_s)

    @pytest.mark.parametrize("m_under_test", [False, True])
    def test_domain_shift_bound_matches_its_parts(self, m_under_test):
        # the whole report, against _risk_rows on the union and one
        # beta_divergence call per order
        rng = np.random.default_rng(19)
        for i in range(60):
            t, s, enc_c, enc_cbar, head = random_bound_instance(rng, out_of_support=i % 2 == 0)
            union = sorted(set(t.support()) | set(s.support()))
            x = np.array([p[0] for p in union], dtype=np.float64)
            rows = _risk_rows(head, enc_c.encode_np(x), enc_cbar.encode_np(x),
                              [p[1] for p in union], 8, i, range(len(union)))
            triples = dict(zip(union, zip(*(r.tolist() for r in rows))))
            lhs, m_s, sf_s, eta, m_t = shift_terms(t, s, triples)
            beta = beta_divergence(t, s, INF)
            rhs = (m_t + beta * 2.0 * sf_s + eta if m_under_test
                   else beta * (m_s + 2.0 * sf_s) + eta)
            want = BoundReport(
                lhs=lhs, rhs=rhs, beta_inf=beta, eta=eta,
                m_term=m_t if m_under_test else m_s, sf_term=sf_s,
                k_trace=tuple((k, beta_divergence(t, s, k)) for k in (2, 4, 8, 16, 64, INF)),
                holds=lhs <= rhs + 1e-9, m_under_test=m_under_test)
            assert domain_shift_bound(t, s, enc_c, enc_cbar, head, mc_samples=8, seed=i,
                                      m_under_test=m_under_test) == want

    def test_domain_shift_bound_refuses_a_zero_mass_point_of_s(self):
        rng = np.random.default_rng(20)
        t, s, enc_c, enc_cbar, head = random_bound_instance(rng)
        bad = DiscreteDomain(s.points + (((9.0, 9.0, 9.0), 1),), s.probs + (0.0,))
        with pytest.raises(MalformedDomainError,
                           match=r"^S lists \(\(9.0, 9.0, 9.0\), 1\) with zero mass$"):
            domain_shift_bound(t, bad, enc_c, enc_cbar, head, mc_samples=4)
        # the stream key is checked first, as before any draw
        with pytest.raises(ValueError, match="^seed must be an integer in"):
            domain_shift_bound(t, bad, enc_c, enc_cbar, head, mc_samples=4, seed=-1)

    def test_deviation_trial_matches_per_pick(self, monkeypatch):
        rng = np.random.default_rng(18)
        _, source, enc, _, head = random_bound_instance(rng, out_of_support=False)
        prior = GaussianPrior.standard(enc.rep_dim)
        for seed in range(5):
            want = ref_deviation_trial(source, enc, head, prior, 300, 0.1, seed)
            created = count_philox(monkeypatch)
            got = sufficiency_deviation_trial(source, enc, head, prior, n=300, epsilon=0.1,
                                              seed=seed)
            assert len(created) == 2  # the pick stream, then one for all 300 draws
            monkeypatch.undo()
            assert got == want
