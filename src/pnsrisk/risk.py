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
keyed by (global seed ^ role, sample id).  The encoders run once per
batch.  Each row keeps its own stream, so estimates do not depend on
batch order and the same point receives the same draws in every domain
that contains it; the draws are made and labeled a block of rows at a
time through one re-keyed Philox per role (streams.keyed_rows).
The seed and the sample ids are refused with a ValueError naming them
unless each is an integer in [0, SEED_MAX].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import GaussianEncoder, LinearHead, _ytil
from .pns import _check_distribution
from .streams import ROLE_C, ROLE_CBAR, ROLE_PICK, SEED_MAX, integer, keyed, keyed_rows

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
    "sufficiency_deviation_trial",
    "random_bound_instance",
]

_DEFAULT_MC = 64
_K_TRACE = (2, 4, 8, 16, 64)  # the finite orders in BoundReport.k_trace


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
        _check_distribution(self.probs, "probabilities")
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


def _labels(head, mean, var, mc_samples, seed, role, ids):
    """(n, mc_samples) labels head(mu + sd * eps) >= 0 from posterior rows;
    row i draws eps from its own stream (seed, role, ids[i])."""
    n, rep = mean.shape
    labels = np.empty((n, mc_samples), dtype=bool)
    sd = np.sqrt(var)
    for start, block in keyed_rows(seed, role, ids, "standard_normal", (mc_samples, rep)):
        rows = slice(start, start + len(block))
        block *= sd[rows, None]
        block += mean[rows, None]
        labels[rows] = (head.logits_np(block.reshape(-1, rep)) >= 0.0).reshape(-1, mc_samples)
    return labels


def _risk_rows(head, post_c, post_cbar, y, mc_samples, seed, ids):
    """Per-row (sf, nc, m) arrays from the posteriors (mean, var) of the
    factual and the counterfactual encoder."""
    mc_samples = integer(mc_samples, "mc_samples", 1)
    seed = integer(seed, "seed", 0, SEED_MAX)
    ids = [integer(i, "sample_ids", 0, SEED_MAX) for i in ids]
    pred_c = _labels(head, *post_c, mc_samples, seed, ROLE_C, ids)
    pred_cbar = _labels(head, *post_cbar, mc_samples, seed, ROLE_CBAR, ids)
    y = np.asarray(y)[:, None]
    sf = (pred_c != y).mean(axis=1)
    nc = (pred_cbar == y).mean(axis=1)
    # agreement over all draw pairs factorizes through the draw means
    a, b = pred_c.mean(axis=1), pred_cbar.mean(axis=1)
    return sf, nc, a * b + (1.0 - a) * (1.0 - b)


def estimate_risk(x, y, enc_c, enc_cbar, head, mc_samples=_DEFAULT_MC, seed=0,
                  sample_ids=None, prior_c=None, prior_cbar=None):
    """Monte Carlo RiskReport over a batch.

    sample_ids give each row a stable identity for the keyed streams;
    they default to batch position.  Each encoder runs once over the
    batch, and its posterior feeds both the draws and, when a prior is
    supplied, the mean closed-form KL in the report.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = _ytil(y) > 0.0  # the 0/1 labels, checked, as booleans
    if len(y) != len(x):
        raise ValueError("x and y must align")
    if not len(x):  # the report's means would be nan
        raise ValueError("estimate_risk needs at least one row")
    ids = range(len(x)) if sample_ids is None else list(sample_ids)
    if len(ids) != len(x):
        raise ValueError("sample_ids and x must align")
    post_c, post_cbar = enc_c.encode_np(x), enc_cbar.encode_np(x)
    sf, nc, m = _risk_rows(head, post_c, post_cbar, y, mc_samples, seed, ids)

    def mean_kl(post, prior):
        return 0.0 if prior is None else float(np.mean(gaussian_kl(*post, prior.mean, prior.var)))

    per_sample = tuple(zip(sf.tolist(), nc.tolist(), m.tolist()))
    sf, nc = float(sf.mean()), float(nc.mean())
    return RiskReport(sf=sf, nc=nc, m=float(m.mean()), r=sf + nc, per_sample=per_sample,
                      kl_c=mean_kl(post_c, prior_c), kl_cbar=mean_kl(post_cbar, prior_cbar),
                      mc_samples=mc_samples)


def _betas(t, s, ks):
    """beta_divergence at each order in ks, from one list of the
    likelihood ratios T(p)/S(p) over the listed points of S."""
    pairs = []
    for point, prob in zip(s.points, s.probs):
        if prob <= 0.0:
            raise MalformedDomainError(f"S lists {point} with zero mass")
        pairs.append((prob, t.mass(point) / prob))
    return [max(r for _, r in pairs) if k == math.inf
            else sum(w * r**k for w, r in pairs) ** (1.0 / k) for k in ks]


def beta_divergence(t, s, k):
    """k-th moment of the likelihood ratio T/S on the support of S:
    (sum_p S(p) (T(p)/S(p))^k)^(1/k); k = inf gives the max ratio."""
    if k != math.inf and k < 1:
        raise ValueError(f"k must be >= 1 or inf, got {k}")
    return _betas(t, s, (k,))[0]


def gaussian_kl(q_mean, q_var, p_mean, p_var):
    """KL(q || p) for diagonal Gaussians, in nats, over the last axis: a
    float for one posterior, one KL per row for an (n, rep) matrix of them."""
    q_mean, q_var = np.asarray(q_mean, dtype=float), np.asarray(q_var, dtype=float)
    p_mean, p_var = np.asarray(p_mean, dtype=float), np.asarray(p_var, dtype=float)
    if not (q_mean.shape == q_var.shape and p_mean.shape == p_var.shape == q_mean.shape[-1:]):
        raise ValueError("mismatched shapes")
    if np.any(q_var <= 0.0) or np.any(p_var <= 0.0):
        raise ValueError("variances must be strictly positive")
    kl = 0.5 * np.sum(np.log(p_var / q_var) + (q_var + (q_mean - p_mean) ** 2) / p_var - 1.0,
                      axis=-1)
    return float(kl) if kl.ndim == 0 else kl


def deviation_bound(kl_empirical, n, epsilon, c_const=0.0, slack_half=False):
    """Right side of the sample-deviation bound:
    kl + ln(n/eps) / (4 (n-1)) + c, plus 1/2 under the proof's extra slack."""
    n = integer(n, "n", 2)
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
    if not (0.0 <= kl_empirical < math.inf and 0.0 <= c_const < math.inf):
        raise ValueError("kl and c_const must be finite and nonnegative")
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
                       m_under_test=False):
    """Evaluate the shift bound between discrete domains T and S.

    Per point of the union support, one keyed Monte Carlo triple
    (sf, nc, m) is computed and shared by both sides, so the comparison
    is between reweightings of identical numbers:

        lhs  = sum_T T(p) (sf_p + nc_p)
        rhs  = beta_inf (M_S + 2 SF_S) + eta            (default)
        rhs  = M_T + beta_inf 2 SF_S + eta              (m_under_test)

    eta charges the T-mass outside supp(S) at the worst per-point risk.
    Each support and its masses are read once, and S's likelihood ratios
    are listed once for beta_inf and every order in k_trace.
    """
    t_points = [(p, t.mass(p)) for p in t.support()]
    s_points = [(p, s.mass(p)) for p in s.support()]
    union = sorted({p for p, _ in t_points} | {p for p, _ in s_points})
    x = np.array([point[0] for point in union], dtype=np.float64)
    rows = _risk_rows(head, enc_c.encode_np(x), enc_cbar.encode_np(x),
                      [point[1] for point in union], mc_samples, seed, range(len(union)))
    triples = dict(zip(union, zip(*(r.tolist() for r in rows))))
    lhs = sum(w * (triples[p][0] + triples[p][1]) for p, w in t_points)
    m_s = sum(w * triples[p][2] for p, w in s_points)
    sf_s = sum(w * triples[p][0] for p, w in s_points)
    *betas, beta_inf = _betas(t, s, (*_K_TRACE, math.inf))
    outside = [(p, w) for p, w in t_points if s.mass(p) <= 0.0]
    out_mass = sum(w for _, w in outside)
    sup_out = max((triples[p][0] + triples[p][1] for p, _ in outside), default=0.0)
    eta = out_mass * sup_out
    if m_under_test:
        m_term = sum(w * triples[p][2] for p, w in t_points)
        rhs = m_term + beta_inf * 2.0 * sf_s + eta
    else:
        m_term = m_s
        rhs = beta_inf * (m_s + 2.0 * sf_s) + eta
    trace = (*zip(_K_TRACE, betas), (math.inf, beta_inf))
    return BoundReport(
        lhs=lhs, rhs=rhs, beta_inf=beta_inf, eta=eta, m_term=m_term, sf_term=sf_s,
        k_trace=trace, holds=lhs <= rhs + 1e-9, m_under_test=m_under_test,
    )


def _wrong_mass(head, mean, var, y):
    """Each row's exact P(sign(w.c) != y) for c ~ N(mean, diag(var)): the
    logit w.c is N(mean @ w, var @ w**2), so the mass is one normal tail,
    0.5 erfc(ytil (mean @ w) / (sqrt(2) sd)), ytil = 2y - 1.  A row with
    sd = 0 takes its mean's label, the tie mean @ w = 0 mapping to 1."""
    w = head.w.data
    logit, sd = mean @ w, np.sqrt(var @ w**2)
    # where sd = 0 the quotient is the mean's label, +inf for 1 and -inf for 0
    label = np.where(logit >= 0.0, math.inf, -math.inf)
    z = _ytil(y) * np.divide(logit, math.sqrt(2.0) * sd, out=label, where=sd > 0.0)
    return 0.5 * np.array([math.erfc(v) for v in z.tolist()])


def sufficiency_deviation_trial(domain, enc, head, prior, n, epsilon, seed,
                                slack_half=True, c_const=0.0):
    """One resample of the deviation experiment.

    Draw n labeled points from the domain, one representation each, and
    compare the empirical error rate against the exact SF.  Returns
    (deviation, rhs, violated).
    """
    n = integer(n, "n", 2)  # before any encoding or drawing
    gen = keyed(seed, ROLE_PICK, 0)
    support = domain.support()
    probs = np.array([domain.mass(p) for p in support])
    picks = gen.choice(len(support), size=n, p=probs / probs.sum())
    # each support point is encoded once, on its own, for its draws, its KL
    # and the exact SF; pick j draws its one representation from stream j + 1
    posts = [enc.encode_np(np.asarray(x, dtype=np.float64)[None, :]) for x, _ in support]
    mean, var = map(np.concatenate, zip(*posts))
    labels = np.array([y for _, y in support])
    drawn = _labels(head, mean[picks], var[picks], 1, seed, ROLE_C, range(1, n + 1))[:, 0]
    wrong = int((drawn != labels[picks]).sum())
    kls = gaussian_kl(mean, var, prior.mean, prior.var).tolist()
    kl_sum = 0.0
    for pick in picks:  # summed in pick order, one term at a time
        kl_sum += kls[pick]
    exact = float(probs @ _wrong_mass(head, mean, var, labels))
    deviation = abs(exact - wrong / n)
    rhs = deviation_bound(kl_sum / n, n, epsilon, c_const=c_const, slack_half=slack_half)
    return deviation, rhs, deviation > rhs


def random_bound_instance(rng, x_dim=3, rep_dim=3, out_of_support=True):
    """Random (T, S, enc_c, enc_cbar, head) for the bound suites.

    S always covers its own listed points with positive mass; with
    out_of_support, T also puts mass on points S never sees, so eta
    exercises a nonzero path.
    """
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
                            rng=np.random.default_rng(seed))
    enc_c.log_var.data[:] = rng.uniform(-2.0, 0.5, size=rep_dim)
    enc_cbar = GaussianEncoder(x_dim, rep_dim=rep_dim, hidden=(8, 6),
                               rng=np.random.default_rng(seed + 1))
    enc_cbar.log_var.data[:] = rng.uniform(-2.0, 0.5, size=rep_dim)
    head = LinearHead(rep_dim, rng=np.random.default_rng(seed + 2))
    return t, s, enc_c, enc_cbar, head
