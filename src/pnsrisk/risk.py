"""Indicator risk estimation and the bounds that control it.

The central quantity is the paired risk of an encoder/labeler under a
counterfactual twin: per sample, SF = P(sign(w.c) != y) over draws of
the factual representation c, NC = P(sign(w.cbar) = y) over draws of
the counterfactual cbar, and the agreement M = P(both routes emit the
same label).  These satisfy the exact decomposition

    m = sf * (1 - nc) + (1 - sf) * nc,

more usefully rearranged as  sf + nc = m + 2 * sf * nc  per sample,
which the domain-shift bound exploits.

Monte Carlo draws come from keyed Philox streams (pnsrisk.streams),
keyed by (global seed ^ role, sample id), so estimates do not depend on
batch order and the same point receives the same draws in every domain
that contains it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .streams import ROLE_C, ROLE_CBAR, ROLE_PLAIN, keyed

__all__ = [
    "MalformedDomainError",
    "DiscreteDomain",
    "RiskReport",
    "BoundReport",
    "estimate_risk",
    "beta_divergence",
    "gaussian_kl",
    "deviation_bound",
    "domain_shift_bound",
    "true_sufficiency_risk",
    "sufficiency_deviation_trial",
    "random_bound_instance",
]

_DEFAULT_MC = 64


class MalformedDomainError(ValueError):
    """A domain lists a support point with no mass where mass is required."""


@dataclass(frozen=True)
class DiscreteDomain:
    """Finite distribution over labeled points ((x tuple), y)."""

    points: tuple
    probs: tuple

    def __post_init__(self):
        if len(self.points) != len(self.probs):
            raise ValueError("points and probs must align")
        if len(set(self.points)) != len(self.points):
            raise ValueError("duplicate points in domain table")
        if any(p < 0 for p in self.probs):
            raise ValueError("negative probability")
        total = sum(self.probs)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total}, not 1")
        for x, y in self.points:
            if y not in (0, 1):
                raise ValueError(f"label {y} outside {{0, 1}}")
        object.__setattr__(self, "_mass", dict(zip(self.points, self.probs)))

    def support(self):
        return tuple(p for p, w in zip(self.points, self.probs) if w > 0.0)

    def mass(self, point):
        return self._mass.get(point, 0.0)


@dataclass(frozen=True)
class RiskReport:
    """Indicator risks averaged over a batch, plus the per-sample triple
    (sf, nc, m) the averages came from."""

    sf: float
    nc: float
    m: float
    r: float
    per_sample: tuple
    kl_c: float
    kl_cbar: float
    mc_samples: int


def _sample_triple(x_row, y_i, enc_c, enc_cbar, head, mc_samples, seed, sample_id):
    """(sf, nc, m) for one sample from keyed Monte Carlo draws."""
    draws_c = enc_c.sample_np(x_row, mc_samples, keyed(seed, ROLE_C, sample_id))
    draws_cbar = enc_cbar.sample_np(x_row, mc_samples, keyed(seed, ROLE_CBAR, sample_id))
    pred_c = head.logits_np(draws_c.reshape(mc_samples, -1)) >= 0.0
    pred_cbar = head.logits_np(draws_cbar.reshape(mc_samples, -1)) >= 0.0
    sf = float((pred_c != y_i).mean())
    nc = float((pred_cbar == y_i).mean())
    # agreement over all draw pairs factorizes through the draw means
    a = float(pred_c.mean())
    b = float(pred_cbar.mean())
    m = a * b + (1.0 - a) * (1.0 - b)
    return sf, nc, m


def estimate_risk(x, y, enc_c, enc_cbar, head, mc_samples=_DEFAULT_MC, seed=0,
                  sample_ids=None, prior_c=None, prior_cbar=None):
    """Monte Carlo RiskReport over a batch.

    sample_ids give each row a stable identity for the keyed streams;
    they default to batch position.  Priors, when supplied, add the mean
    closed-form KL of each encoder posterior to the report.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.asarray(y)
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    if len(y) != len(x):
        raise ValueError("x and y must align")
    if mc_samples < 1:
        raise ValueError("mc_samples must be at least 1")
    ids = range(len(x)) if sample_ids is None else sample_ids
    per_sample = tuple(
        _sample_triple(x[i : i + 1], int(y[i]), enc_c, enc_cbar, head, mc_samples, seed, sid)
        for i, sid in zip(range(len(x)), ids)
    )
    sf = float(np.mean([t[0] for t in per_sample]))
    nc = float(np.mean([t[1] for t in per_sample]))
    m = float(np.mean([t[2] for t in per_sample]))
    kl_c = kl_cbar = 0.0
    if prior_c is not None:
        mean, var = enc_c.encode_np(x)
        kl_c = float(np.mean([gaussian_kl(mu, var[0], prior_c.mean, prior_c.var) for mu in mean]))
    if prior_cbar is not None:
        mean, var = enc_cbar.encode_np(x)
        kl_cbar = float(
            np.mean([gaussian_kl(mu, var[0], prior_cbar.mean, prior_cbar.var) for mu in mean])
        )
    return RiskReport(
        sf=sf, nc=nc, m=m, r=sf + nc, per_sample=per_sample,
        kl_c=kl_c, kl_cbar=kl_cbar, mc_samples=mc_samples,
    )


def beta_divergence(t, s, k):
    """k-th moment of the likelihood ratio T/S on the support of S:
    (sum_p S(p) (T(p)/S(p))^k)^(1/k); k = inf gives the max ratio."""
    if k != math.inf and k < 1:
        raise ValueError(f"k must be >= 1 or inf, got {k}")
    ratios = []
    weights = []
    for point, prob in zip(s.points, s.probs):
        if prob <= 0.0:
            raise MalformedDomainError(f"S lists {point} with zero mass")
        ratios.append(t.mass(point) / prob)
        weights.append(prob)
    if k == math.inf:
        return max(ratios)
    acc = sum(w * r**k for w, r in zip(weights, ratios))
    return acc ** (1.0 / k)


def gaussian_kl(q_mean, q_var, p_mean, p_var):
    """KL(q || p) for diagonal Gaussians, in nats."""
    q_mean, q_var = np.asarray(q_mean, dtype=float), np.asarray(q_var, dtype=float)
    p_mean, p_var = np.asarray(p_mean, dtype=float), np.asarray(p_var, dtype=float)
    if not (q_mean.shape == q_var.shape == p_mean.shape == p_var.shape):
        raise ValueError("mismatched shapes")
    if np.any(q_var <= 0.0) or np.any(p_var <= 0.0):
        raise ValueError("variances must be strictly positive")
    return float(
        0.5 * np.sum(np.log(p_var / q_var) + (q_var + (q_mean - p_mean) ** 2) / p_var - 1.0)
    )


def deviation_bound(kl_empirical, n, epsilon, c_const=0.0, slack_half=False):
    """Right side of the sample-deviation bound:
    kl + ln(n/eps) / (4 (n-1)) + c, plus 1/2 under the proof's extra slack."""
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
    if kl_empirical < 0.0 or c_const < 0.0:
        raise ValueError("kl and c_const must be nonnegative")
    value = kl_empirical + math.log(n / epsilon) / (4.0 * (n - 1)) + c_const
    if slack_half:
        value += 0.5
    return value


@dataclass(frozen=True)
class BoundReport:
    """One evaluation of the domain-shift bound R_T <= rhs."""

    lhs: float
    rhs: float
    beta_inf: float
    eta: float
    m_term: float
    sf_term: float
    k_trace: tuple
    holds: bool
    m_under_test: bool


def domain_shift_bound(t, s, enc_c, enc_cbar, head, mc_samples=_DEFAULT_MC, seed=0,
                       m_under_test=False, k_trace=(2, 4, 8, 16, 64)):
    """Evaluate the shift bound between discrete domains T and S.

    Per point of the union support, one keyed Monte Carlo triple
    (sf, nc, m) is computed and shared by both sides, so the comparison
    is between reweightings of identical numbers:

        lhs  = sum_T T(p) (sf_p + nc_p)
        rhs  = beta_inf (M_S + 2 SF_S) + eta            (default)
        rhs  = M_T + beta_inf 2 SF_S + eta              (m_under_test)

    eta charges the T-mass outside supp(S) at the worst per-point risk.
    """
    union = sorted(set(t.support()) | set(s.support()))
    triples = {}
    for idx, point in enumerate(union):
        x_row = np.asarray(point[0], dtype=np.float64)[None, :]
        triples[point] = _sample_triple(
            x_row, point[1], enc_c, enc_cbar, head, mc_samples, seed, idx
        )
    lhs = sum(t.mass(p) * (triples[p][0] + triples[p][1]) for p in t.support())
    m_s = sum(s.mass(p) * triples[p][2] for p in s.support())
    sf_s = sum(s.mass(p) * triples[p][0] for p in s.support())
    beta_inf = beta_divergence(t, s, math.inf)
    outside = [p for p in t.support() if s.mass(p) <= 0.0]
    out_mass = sum(t.mass(p) for p in outside)
    sup_out = max((triples[p][0] + triples[p][1] for p in outside), default=0.0)
    eta = out_mass * sup_out
    if m_under_test:
        m_term = sum(t.mass(p) * triples[p][2] for p in t.support())
        rhs = m_term + beta_inf * 2.0 * sf_s + eta
    else:
        m_term = m_s
        rhs = beta_inf * (m_s + 2.0 * sf_s) + eta
    trace = tuple((k, beta_divergence(t, s, k)) for k in k_trace)
    trace += ((math.inf, beta_inf),)
    return BoundReport(
        lhs=lhs, rhs=rhs, beta_inf=beta_inf, eta=eta, m_term=m_term, sf_term=sf_s,
        k_trace=trace, holds=lhs <= rhs + 1e-9, m_under_test=m_under_test,
    )


def _normal_cdf(z):
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def true_sufficiency_risk(domain, enc, head):
    """Exact SF on a discrete domain with a Gaussian encoder: the logit
    w.c + b is Gaussian per point, so the error mass is a normal CDF."""
    total = 0.0
    bias = head.b.data[0] if head.b is not None else 0.0
    for point, prob in zip(domain.points, domain.probs):
        if prob <= 0.0:
            continue
        x_row = np.asarray(point[0], dtype=np.float64)[None, :]
        mean, var = enc.encode_np(x_row)
        mu = float(mean[0] @ head.w.data) + bias
        sd = math.sqrt(float(var[0] @ (head.w.data**2)))
        if sd == 0.0:
            p_hit = 1.0 if mu >= 0.0 else 0.0
        else:
            p_hit = _normal_cdf(mu / sd)
        wrong = 1.0 - p_hit if point[1] == 1 else p_hit
        total += prob * wrong
    return total


def sufficiency_deviation_trial(domain, enc, head, prior, n, epsilon, seed,
                                slack_half=True, c_const=0.0):
    """One resample of the deviation experiment.

    Draw n labeled points from the domain, one representation each, and
    compare the empirical error rate against the exact SF.  Returns
    (deviation, rhs, violated).
    """
    gen = keyed(seed, ROLE_PLAIN, 0)
    support = domain.support()
    probs = np.array([domain.mass(p) for p in support])
    picks = gen.choice(len(support), size=n, p=probs / probs.sum())
    wrong = 0
    kl_sum = 0.0
    for j, pick in enumerate(picks):
        x_tuple, y = support[pick]
        x_row = np.asarray(x_tuple, dtype=np.float64)[None, :]
        draw = enc.sample_np(x_row, 1, keyed(seed, ROLE_C, j + 1))[0]
        pred = head.logits_np(draw) >= 0.0
        wrong += int(pred[0]) != y
        mean, var = enc.encode_np(x_row)
        kl_sum += gaussian_kl(mean[0], var[0], prior.mean, prior.var)
    deviation = abs(true_sufficiency_risk(domain, enc, head) - wrong / n)
    rhs = deviation_bound(kl_sum / n, n, epsilon, c_const=c_const, slack_half=slack_half)
    return deviation, rhs, deviation > rhs


def random_bound_instance(rng, x_dim=3, rep_dim=3, out_of_support=True):
    """Random (T, S, enc_c, enc_cbar, head) for the bound suites.

    S always covers its own listed points with positive mass; with
    out_of_support, T also puts mass on points S never sees, so eta
    exercises a nonzero path.
    """
    from .model import GaussianEncoder, LinearHead  # local import, no cycle at module load

    n_shared = int(rng.integers(2, 6))
    n_extra = int(rng.integers(1, 4)) if out_of_support else 0
    pool = []
    while len(pool) < n_shared + n_extra:
        x = tuple(round(float(v), 6) for v in rng.uniform(-2.0, 2.0, size=x_dim))
        y = int(rng.integers(0, 2))
        if (x, y) not in pool:
            pool.append((x, y))
    s_pts = pool[:n_shared]
    s_probs = rng.uniform(0.05, 1.0, size=n_shared)
    s_probs /= s_probs.sum()
    t_pts = pool if out_of_support else pool[:n_shared]
    t_probs = rng.uniform(0.0, 1.0, size=len(t_pts))
    t_probs[: max(1, len(t_pts) // 2)] += 0.05  # keep T nonempty
    t_probs /= t_probs.sum()
    t = DiscreteDomain(tuple(t_pts), tuple(float(p) for p in t_probs))
    s = DiscreteDomain(tuple(s_pts), tuple(float(p) for p in s_probs))
    seed = int(rng.integers(0, 2**31))
    enc_c = GaussianEncoder(x_dim, rep_dim=rep_dim, hidden=(8, 6),
                            rng=np.random.default_rng(seed), fixed_var=None)
    enc_c.log_var.data[:] = rng.uniform(-2.0, 0.5, size=rep_dim)
    enc_cbar = GaussianEncoder(x_dim, rep_dim=rep_dim, hidden=(8, 6),
                               rng=np.random.default_rng(seed + 1), fixed_var=None)
    enc_cbar.log_var.data[:] = rng.uniform(-2.0, 0.5, size=rep_dim)
    head = LinearHead(rep_dim, rng=np.random.default_rng(seed + 2))
    return t, s, enc_c, enc_cbar, head
