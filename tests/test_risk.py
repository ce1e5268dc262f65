import math

import numpy as np
import pytest

from pnsrisk.model import GaussianEncoder, GaussianPrior, LinearHead
from pnsrisk.risk import (
    DiscreteDomain,
    MalformedDomainError,
    beta_divergence,
    deviation_bound,
    domain_shift_bound,
    estimate_risk,
    gaussian_kl,
    random_bound_instance,
    sufficiency_deviation_trial,
    true_sufficiency_risk,
)
from pnsrisk.streams import ROLE_C, ROLE_CBAR, ROLE_PICK, keyed

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


def ref_sample_triple(x_row, y_i, enc_c, enc_cbar, head, mc_samples, seed, sample_id):
    """(sf, nc, m) of one row the per-row way: a one-row encode of each
    encoder and the row's own keyed draws."""

    def labels(enc, role):
        mean, var = enc.encode_np(x_row)
        eps = keyed(seed, role, sample_id).standard_normal((mc_samples,) + mean.shape)
        draws = mean[None] + np.sqrt(var)[None] * eps
        return head.logits_np(draws.reshape(mc_samples, -1)) >= 0.0

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
    lhs = sum(t.mass(p) * (triples[p][0] + triples[p][1]) for p in t.support())
    m_s = sum(s.mass(p) * triples[p][2] for p in s.support())
    sf_s = sum(s.mass(p) * triples[p][0] for p in s.support())
    outside = [p for p in t.support() if s.mass(p) <= 0.0]
    eta = (sum(t.mass(p) for p in outside)
           * max((triples[p][0] + triples[p][1] for p in outside), default=0.0))
    m_t = sum(t.mass(p) * triples[p][2] for p in t.support())
    return lhs, m_s, sf_s, eta, m_t


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
        mean, var = enc.encode_np(x_row)
        draw = mean + np.sqrt(var) * keyed(seed, ROLE_C, j + 1).standard_normal(mean.shape)
        wrong += int(head.logits_np(draw)[0] >= 0.0) != y
        kl_sum += gaussian_kl(mean[0], var[0], prior.mean, prior.var)
    deviation = abs(true_sufficiency_risk(domain, enc, head) - wrong / n)
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

    def test_input_validation(self):
        enc = ShiftEncoder()
        head = identity_head()
        with pytest.raises(ValueError):
            estimate_risk(np.zeros((2, 1)), np.array([0, 2]), enc, enc, head)
        with pytest.raises(ValueError):
            estimate_risk(np.zeros((2, 1)), np.array([0, 1]), enc, enc, head, mc_samples=0)


class TestMonteCarloConvergence:
    def test_error_shrinks_toward_enumeration(self):
        domain = DiscreteDomain((((0.3,), 1),), (1.0,))
        enc = ShiftEncoder(0.0, sd=1.0)
        head = identity_head()
        exact = true_sufficiency_risk(domain, enc, head)
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
        exact = true_sufficiency_risk(domain, ShiftEncoder(0.0, sd=1.0), identity_head())
        want = 0.5 * (1.0 + math.erf(-0.3 / math.sqrt(2.0)))
        assert abs(exact - want) < 1e-12


@pytest.mark.parametrize("probs", [(float("nan"), 0.5), (0.7, 0.7), (1.5, -0.5)])
def test_domain_probabilities_validated(probs):
    with pytest.raises(ValueError):
        DiscreteDomain((((0.0,), 0), ((1.0,), 1)), probs)


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
        with pytest.raises(ValueError):
            deviation_bound(0.1, 1, 0.1)
        with pytest.raises(ValueError):
            deviation_bound(0.1, 10, 0.0)
        with pytest.raises(ValueError):
            deviation_bound(-0.1, 10, 0.1)


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

    def test_deterministic_in_seed(self):
        rng = np.random.default_rng(15)
        domain = DiscreteDomain((((0.0, 0.0), 1), ((1.0, 1.0), 0)), (0.5, 0.5))
        enc = GaussianEncoder(2, rep_dim=2, hidden=(4, 3), rng=rng)
        head = LinearHead(2, rng=rng)
        prior = GaussianPrior.standard(2)
        a = sufficiency_deviation_trial(domain, enc, head, prior, 50, 0.1, seed=9)
        b = sufficiency_deviation_trial(domain, enc, head, prior, 50, 0.1, seed=9)
        assert a == b


class TestPerRowReference:
    """The batched estimators give exactly the numbers of a per-row path
    with one-row encodes, and create the same Philox streams."""

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
        assert len(created) == 2 * len(x)
        want = tuple(ref_sample_triple(x[i : i + 1], int(y[i]), enc_c, enc_cbar, head,
                                       16, 3, sid)
                     for i, sid in enumerate(ids))
        assert report.per_sample == want
        assert report.sf == float(np.mean([t[0] for t in want]))
        assert report.m == float(np.mean([t[2] for t in want]))
        mean, var = enc_cbar.encode_np(x)
        assert report.kl_cbar == float(
            np.mean([gaussian_kl(mu, var[0], prior.mean, prior.var) for mu in mean]))

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

    def test_deviation_trial_matches_per_pick(self, monkeypatch):
        rng = np.random.default_rng(18)
        _, source, enc, _, head = random_bound_instance(rng, out_of_support=False)
        prior = GaussianPrior.standard(enc.rep_dim)
        for seed in range(5):
            want = ref_deviation_trial(source, enc, head, prior, 300, 0.1, seed)
            created = count_philox(monkeypatch)
            got = sufficiency_deviation_trial(source, enc, head, prior, n=300, epsilon=0.1,
                                              seed=seed)
            assert len(created) == 300 + 1
            monkeypatch.undo()
            assert got == want
