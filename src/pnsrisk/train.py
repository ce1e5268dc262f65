"""Adversarial training of a factual encoder against a counterfactual twin.

The min player owns the factual encoder phi and the labeler w; the max
player owns the twin encoder xi that proposes counterfactual
representations.  They play one game: the min player descends the
objective

    M_hat + SF_hat + lambda * KL_phi + sep_weight * hinge [+ lambda * KL_xi]

and the max player descends its negation.  The hinge charges pairs whose
representations sit closer than delta; lambda * KL_xi is a term when
adversary_kl is on.  The min player takes an SGD step every iteration;
every max_every iterations the max player runs a short ascent phase on
xi with its own learning rate, drawing a fresh minibatch per ascent step.

Variants:

* casn:          the full objective above,
* casn_minus_m:  drops the agreement term, the hinge, and the twin
                 entirely (plain classifier with a KL pull),
* casn_irm:      adds an invariance penalty per domain,
* casn_mmd:      adds a cross-domain representation distance penalty.

Each term is one numpy function that returns its value and its
vector-Jacobian product (vjp): separation_penalty, irm_penalty and
mmd_penalty here, the encoder's terms and both surrogates in
pnsrisk.model.  Each player's loss is one graph node over exactly that
player's parameters (casn_objective).  Every term is computed once
however many Monte Carlo draws, and the loss's backward adds the terms'
vjps.  The penalties read their domains' rows out of the batch's one
posterior mean.  When the twin plays, train() stores each parameter
pair of the two encoders as the halves of one stacked array, so one
forward gives both means.
tests/reference_ops.py builds the same terms node by node from generic
ops; the tests compare the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, sigmoid_np
from .model import (
    GaussianEncoder,
    GaussianPrior,
    LinearHead,
    _forward_pair,
    _w_grad,
    clone_perturbed,
    load_checkpoint,
    save_checkpoint,
    surrogate_m,
    surrogate_sf,
)
from .risk import estimate_risk
from .streams import ROLE_TRAIN, SEED_MAX, keyed

__all__ = [
    "VARIANTS",
    "TrainConfig",
    "StepRecord",
    "TrainResult",
    "TrainingDiverged",
    "separation_penalty",
    "mmd_penalty",
    "irm_penalty",
    "casn_objective",
    "check_domains",
    "train",
    "save_model",
    "load_model",
]

VARIANTS = ("casn", "casn_minus_m", "casn_irm", "casn_mmd")


@dataclass(frozen=True)
class TrainConfig:
    total_steps: int = 3000
    batch_size: int = 32
    lr_min: float = 1e-4
    lr_max: float = 1e-5
    max_every: int = 500
    max_steps_per_phase: int = 10
    delta: float = 0.7
    lam: float = 0.01
    sep_weight: float = 0.1
    mc_samples: int = 1
    variant: str = "casn"
    irm_weight: float = 0.001
    irm_anneal_iters: int = 1000
    mmd_weight: float = 1.0
    rep_dim: int = 64
    hidden: tuple = (128, 32)
    fixed_var: float | None = None
    momentum: float = 0.0
    adversary_kl: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        for name, low in (("total_steps", 0), ("batch_size", 1), ("mc_samples", 1),
                          ("rep_dim", 1), ("max_every", 0), ("max_steps_per_phase", 0),
                          ("irm_anneal_iters", 0), ("seed", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be at least {low}, got {getattr(self, name)}")
        if self.seed > SEED_MAX:  # the stream keys are uint64
            raise ValueError(f"seed must be at most {SEED_MAX}, got {self.seed}")
        if any(width < 1 for width in self.hidden):
            raise ValueError(f"hidden widths must be at least 1, got {self.hidden}")
        for name in ("lr_min", "lr_max"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and positive, got {getattr(self, name)}")
        for name in ("delta", "lam", "sep_weight", "irm_weight", "mmd_weight"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ValueError(
                    f"{name} must be finite and nonnegative, got {getattr(self, name)}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.fixed_var is not None and not 0.0 < self.fixed_var < np.inf:
            raise ValueError(f"fixed_var must be none or finite and positive, got {self.fixed_var}")


class TrainingDiverged(RuntimeError):
    """Loss left the representable range; carries the trace so far."""

    def __init__(self, step, trace, cause):
        super().__init__(f"training diverged at step {step}: {cause}")
        self.step = step
        self.trace = trace
        self.cause = cause


def _distances(a, b, op):
    """(diff, dist): diff = a - b and its Euclidean norm over the last
    axis, with a 1e-18 stabilizer inside the square root so coincident
    rows have a gradient.  A distance that overflows raises
    FloatingPointError naming the op: the separation hinge would map it
    to 0, where the node's own check cannot see it."""
    diff = a - b
    dist = np.sqrt((diff * diff).sum(axis=-1) + 1e-18)
    if not np.isfinite(dist).all():
        raise FloatingPointError(f"{op} produced a non-finite value")
    return diff, dist


def separation_penalty(c, c_bar, delta):
    """(value, vjp) of the mean squared hinge on the pairwise
    representation gap, mean over pairs of max(0, delta - ||c - cbar||_2)^2,
    on paired representation rows; vjp gives the gradients of (c, c_bar).

    The distance carries the 1e-18 stabilizer of _distances, so
    coincident pairs cost (delta - 1e-9)^2 instead of tripping on the
    sqrt gradient.
    """
    if c.ndim != 2 or c.shape != c_bar.shape:
        raise ValueError(f"separation_penalty: {c.shape} vs {c_bar.shape}")
    diff, dist = _distances(c, c_bar, "separation_penalty")
    hinge = np.maximum(delta - dist, 0.0)
    scale = 1.0 / hinge.shape[0]

    def vjp(g):
        g_hinge = g * scale * hinge  # zero where the pair is far enough apart
        g_sq = -(g_hinge + g_hinge) * 0.5 / dist
        g_diff = g_sq[:, None] * diff
        g_diff = g_diff + g_diff
        return (g_diff, -g_diff)

    return (hinge * hinge).sum() * scale, vjp


def mmd_penalty(groups):
    """(value, vjp) of the sum over unordered domain pairs of the mean
    cross-domain representation distance, on two or more arrays of
    representation rows; vjp gives one gradient per group.

    Each distance carries the 1e-18 stabilizer of _distances, so
    coincident rows have a gradient.  One domain has no cross-domain
    pair: the caller adds no penalty for it (casn_objective).
    """
    if len(groups) < 2:
        raise ValueError("mmd penalty needs at least two domains")
    for a in groups:
        if a.ndim != 2 or groups[0].ndim != 2 or a.shape[1] != groups[0].shape[1]:
            raise ValueError(f"mmd_penalty: {groups[0].shape} vs {a.shape}")
    total = None
    pairs = []
    for i in range(len(groups)):
        for j in range(i + 1, len(groups)):
            diff, dist = _distances(groups[i][:, None, :], groups[j][None, :, :],
                                    "mmd_penalty")
            term = dist.mean()
            total = term if total is None else total + term
            pairs.append((i, j, diff, dist))

    def vjp(g):
        grads = [0.0] * len(groups)
        for i, j, diff, dist in pairs:
            unit = diff / dist[:, :, None]
            scale = g / dist.size
            grads[i] = grads[i] + scale * unit.sum(axis=1)
            grads[j] = grads[j] - scale * unit.sum(axis=0)
        return grads

    return total, vjp


def irm_penalty(w, groups, neg_ytil_groups):
    """(value, vjp) of the invariance penalty on arrays of representation
    rows, labels given as -ytil: the squared derivative of each domain's
    surrogate loss in a dummy scaling of the labeler, summed over
    domains.  vjp gives the gradients of (*groups, w).

    d/ds mean softplus(-ytil * s * z) at s = 1 is
    mean(-ytil * z * sigmoid(-ytil * z)), a first-order expression in z.
    """
    if len(groups) != len(neg_ytil_groups):
        raise ValueError("rep_groups and y_groups must align")
    if not groups:
        raise ValueError("irm penalty needs at least one domain")
    total = None
    saved = []
    for reps, neg_ytil in zip(groups, neg_ytil_groups):
        a = (reps @ w) * neg_ytil
        sig = sigmoid_np(a)
        scale = 1.0 / a.shape[0]
        grad_s = (a * sig).sum() * scale
        term = grad_s * grad_s
        total = term if total is None else total + term
        saved.append((neg_ytil, a, sig, grad_s * scale))

    def vjp(g):
        pairs = []
        for reps, (neg_ytil, a, sig, grad_s_scaled) in zip(groups, saved):
            # d/da of a * sigmoid(a) is sigmoid(a) + a * sigmoid'(a)
            g_a = (g + g) * grad_s_scaled * (sig + a * sig * (1.0 - sig))
            pairs.append((reps, g_a * neg_ytil))
        return (*(g_z[:, None] * w for _, g_z in pairs), _w_grad(pairs))

    return total, vjp


def _checked(op, result):
    """A (value, vjp) result once its value is checked: a non-finite
    value raises FloatingPointError naming the op, in the words of the
    graph's own check (autodiff.Tensor)."""
    value = result[0]
    if not (math.isfinite(value) if isinstance(value, float) else np.isfinite(value).all()):
        raise FloatingPointError(f"{op} produced a non-finite value")
    return result


def casn_objective(x, ytil, enc_c, enc_cbar, head, prior_c, prior_cbar, config,
                   eps_c, eps_cbar, domain_rows=None, penalty_weight=None):
    """Build the step's game; returns (min_loss, max_loss, parts).

    ytil holds the batch's labels as -1/+1.  The game's objective is the
    weighted sum, in this order, of M, SF, lam * KL_c, sep_weight *
    hinge, [lam * KL_xi] and [penalty].  min_loss is that objective as
    one node whose parents are exactly the (phi, w) player's parameters,
    enc_c's and head.w; max_loss is its negation as one node over
    exactly the twin's.  Every term is computed once, in numpy, and
    each loss's backward adds the terms' vector-Jacobian products in the
    order a walk over one node per term adds them, so the gradients are
    the same bytes as that graph's.  adversary_kl only decides whether
    lam * KL_xi is a term of the game, which the min player cannot move.
    casn_minus_m never touches the twin: its objective is SF + lam * KL_c
    and its max_loss is None.

    When the two encoders' parameters are stacked, as train() stores
    them, both posterior means come from one forward (model._forward_pair).
    A non-finite value raises FloatingPointError naming the first op to
    make one, in the order: enc_c's layers, kl_c, the twin's layers,
    kl_cbar, the draws, SF, M, the hinge, the penalty, the sum.

    eps_c / eps_cbar have shape (mc_samples, n, rep_dim); each draw term
    (SF, M, hinge) is computed once over every draw's rows.

    casn_irm and casn_mmd add their penalty, times penalty_weight
    (default: the config's irm_weight or mmd_weight).  It is computed on
    the posterior means of the batch's domains: domain_rows lists each
    domain's positions in the batch, and None makes the whole batch one
    domain.
    """
    twin = config.variant != "casn_minus_m"
    w = head.w.data
    neg_ytil = -np.concatenate((ytil,) * config.mc_samples)
    pair = _forward_pair(enc_c.mlp, enc_cbar.mlp, x) if twin else None
    mean_c, mlp_c = pair[0] if pair else enc_c.encode(x)
    kl_c, kl_c_vjp = _checked("kl_node", enc_c.kl_node(mean_c, prior_c))
    parts = {"m": 0.0, "kl_cbar": 0.0, "hinge": 0.0, "penalty": 0.0}
    if twin:
        mean_cbar, mlp_cbar = pair[1] if pair else enc_cbar.encode(x)
        kl_cbar, kl_cbar_vjp = _checked("kl_node", enc_cbar.kl_node(mean_cbar, prior_cbar))
    c, draw_c = _checked("draw", enc_c.draw(mean_c, eps_c))
    if twin:
        c_bar, draw_cbar = _checked("draw", enc_cbar.draw(mean_cbar, eps_cbar))
    sf, sf_vjp = _checked("surrogate_sf", surrogate_sf(w, c, neg_ytil))
    if twin:
        m, m_vjp = _checked("surrogate_m", surrogate_m(w, c, c_bar))
        hinge, hinge_vjp = _checked("separation_penalty",
                                    separation_penalty(c, c_bar, float(config.delta)))
        terms = [(m, 1.0), (sf, 1.0), (kl_c, config.lam), (hinge, config.sep_weight)]
        if config.adversary_kl:
            terms.append((kl_cbar, config.lam))
        parts.update(m=float(m), kl_cbar=float(kl_cbar), hinge=float(hinge))
    else:
        terms = [(sf, 1.0), (kl_c, config.lam)]
    penalty_vjp = None
    if config.variant in ("casn_irm", "casn_mmd"):
        if domain_rows is None:
            domain_rows = [np.arange(len(ytil))]
        reps = [mean_c[rows] for rows in domain_rows]
        if config.variant == "casn_mmd":
            # one domain has no cross-domain pair: the penalty is a constant 0
            penalty, penalty_vjp = (_checked("mmd_penalty", mmd_penalty(reps))
                                    if len(reps) > 1 else (0.0, None))
            weight = config.mmd_weight
        else:
            penalty, penalty_vjp = _checked(
                "irm_penalty", irm_penalty(w, reps, [-ytil[rows] for rows in domain_rows]))
            weight = config.irm_weight
        penalty_weight = weight if penalty_weight is None else penalty_weight
        terms.append((penalty, penalty_weight))
        parts["penalty"] = float(penalty)
    parts.update(sf=float(sf), kl_c=float(kl_c))
    value = None
    for term, weight in terms:
        value = term * weight if value is None else value + term * weight

    # Each backward adds a parameter's contributions left to right, in
    # the order a walk over one node per term adds them: c gets M, SF,
    # then the hinge; w gets M, SF, then irm; the mean and log_var get
    # KL, then the draw, then the penalty's domain rows.
    def min_backward(g):
        if twin:
            m_c, _, m_w = m_vjp(g * 1.0)
            sf_c, sf_w = sf_vjp(g * 1.0)
            g_c = m_c + sf_c + hinge_vjp(g * config.sep_weight)[0]
            g_w = m_w + sf_w
        else:
            g_c, g_w = sf_vjp(g * 1.0)
        g_mean, *g_log_var = (a + b for a, b in zip(kl_c_vjp(g * config.lam), draw_c(g_c)))
        if penalty_vjp is not None:
            g_reps = penalty_vjp(g * penalty_weight)
            if config.variant == "casn_irm":
                *g_reps, irm_w = g_reps
                g_w = g_w + irm_w
            for rows, g_rows in zip(domain_rows, g_reps):
                full = np.zeros(mean_c.shape)
                full[rows] = g_rows
                g_mean = g_mean + full
        return [*mlp_c(g_mean), *g_log_var, g_w]

    min_params = [*enc_c.parameters().values(), head.w]
    min_loss = Tensor(value, min_params, min_backward, "casn_objective")
    if not twin:
        return min_loss, None, parts

    def max_backward(g):
        g = -g
        g_c_bar = m_vjp(g * 1.0)[1] + hinge_vjp(g * config.sep_weight)[1]
        leaves = draw_cbar(g_c_bar)
        if config.adversary_kl:
            leaves = [a + b for a, b in zip(leaves, kl_cbar_vjp(g * config.lam))]
        g_mean, *g_log_var = leaves
        return [*mlp_cbar(g_mean), *g_log_var]

    max_loss = Tensor(-min_loss.data, enc_cbar.parameters().values(), max_backward,
                      "casn_objective")
    return min_loss, max_loss, parts


@dataclass(frozen=True)
class StepRecord:
    step: int
    sf: float
    m: float
    kl_c: float
    kl_cbar: float
    hinge: float
    penalty: float = 0.0
    adversary_objective: float | None = None


@dataclass
class TrainResult:
    enc_c: GaussianEncoder
    enc_cbar: GaussianEncoder
    head: LinearHead
    trace: list
    risk: object
    config: TrainConfig


def _sgd(params, lr, velocities, momentum):
    """One SGD step in place, so a stacked parameter stays a half of its
    stack."""
    for p in params:
        step = p.grad
        if momentum > 0.0:
            v = velocities.get(id(p))
            step = p.grad if v is None else momentum * v + p.grad
            velocities[id(p)] = step
        p.data -= lr * step


def check_domains(variant, domains):
    """Refuse casn_mmd unless domains holds at least two distinct ids;
    the command line, which has no domains, calls it before any output."""
    if variant == "casn_mmd" and (domains is None or len(np.unique(domains)) < 2):
        raise ValueError("variant casn_mmd needs domains with at least two distinct ids")


def train(data, config, domains=None):
    """Run the alternating scheme on a benchmark dataset.

    data needs .x and .y arrays; domains, when given, is an array of
    domain ids aligned with the rows and feeds the irm/mmd penalties;
    casn_mmd is refused unless it holds at least two distinct ids.
    Deterministic: every random draw comes from streams keyed by
    config.seed.

    One failure rule: bad input raises ValueError before step 0, and the
    steps and the final risk report run under one np.errstate: numpy
    never warns, and a non-finite value is TrainingDiverged naming the
    step (total_steps for the report) and the node or layer that made it.
    """
    x_all = np.asarray(data.x, dtype=np.float64)
    y_all = np.asarray(data.y)
    n, in_dim = x_all.shape
    if not np.isfinite(x_all).all():
        raise ValueError("data.x holds a non-finite value")
    if y_all.shape != (n,):
        raise ValueError(f"data.y has shape {y_all.shape}, not one label per row ({n},)")
    bad = np.flatnonzero((y_all != 0) & (y_all != 1))
    if bad.size:
        raise ValueError(f"data.y row {bad[0]} is {y_all[bad[0]].item()}, not 0 or 1")
    ytil_all = y_all.astype(np.float64) * 2.0 - 1.0
    if domains is not None:
        domains = np.asarray(domains)
        if len(domains) != n:
            raise ValueError("domains must align with the data rows")
    check_domains(config.variant, domains)

    init = keyed(config.seed, ROLE_TRAIN, 0)
    batches = keyed(config.seed, ROLE_TRAIN, 1)
    noise = keyed(config.seed, ROLE_TRAIN, 2)
    enc_c = GaussianEncoder(in_dim, rep_dim=config.rep_dim, hidden=config.hidden,
                            rng=init, fixed_var=config.fixed_var, prefix="enc_c")
    enc_cbar = clone_perturbed(enc_c, init, scale=0.01)
    head = LinearHead(config.rep_dim, rng=init)
    prior = GaussianPrior.standard(config.rep_dim)  # for both encoders

    min_params = list(enc_c.parameters().values()) + list(head.parameters().values())
    adv_params = list(enc_cbar.parameters().values())
    if config.variant != "casn_minus_m":
        # each parameter pair as the halves of one stack: one forward
        # gives both posterior means (see casn_objective)
        for p, q in zip(min_params, adv_params):
            p.data, q.data = np.stack((p.data, q.data))
    if ({id(p) for p in min_params} & {id(p) for p in adv_params}
            or any(np.shares_memory(p.data, q.data) for p in min_params for q in adv_params)):
        raise RuntimeError("the min and max players share a parameter")

    velocities = {}
    trace = []
    shape = (config.mc_samples, config.batch_size, config.rep_dim)

    def batch_objective():
        idx = batches.integers(0, n, size=config.batch_size)
        eps_c, eps_cbar = noise.standard_normal((2, *shape))
        rows = None
        if domains is not None and config.variant in ("casn_irm", "casn_mmd"):
            # positions in the batch, not row ids: batches draw with replacement
            batch_domains = domains[idx]
            rows = [np.flatnonzero(batch_domains == d) for d in np.unique(batch_domains)]
        # the irm warm-up weighs the penalty 1.0 for its first steps
        warm = config.variant == "casn_irm" and step < config.irm_anneal_iters
        return casn_objective(x_all[idx], ytil_all[idx], enc_c, enc_cbar, head,
                              prior, prior, config, eps_c, eps_cbar,
                              domain_rows=rows, penalty_weight=1.0 if warm else None)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            for step in range(config.total_steps):
                adv_value = None
                run_phase = (
                    config.variant != "casn_minus_m"
                    and config.max_every > 0
                    and (step + 1) % config.max_every == 0
                )
                min_loss, _, parts = batch_objective()
                min_loss.backward()
                _sgd(min_params, config.lr_min, velocities, config.momentum)
                if run_phase:
                    for _ in range(config.max_steps_per_phase):
                        game, max_loss, _ = batch_objective()
                        max_loss.backward()
                        # descending -objective ascends the shared objective
                        _sgd(adv_params, config.lr_max, velocities, 0.0)
                        adv_value = game.item()
                trace.append(StepRecord(step=step, **parts, adversary_objective=adv_value))
            # the report reads the parameters the last update left
            step = config.total_steps
            report_n = min(n, 2000)
            risk = estimate_risk(x_all[:report_n], y_all[:report_n], enc_c, enc_cbar, head,
                                 mc_samples=32, seed=config.seed,
                                 prior_c=prior, prior_cbar=prior)
        except FloatingPointError as exc:
            raise TrainingDiverged(step, trace, exc) from exc
    return TrainResult(enc_c=enc_c, enc_cbar=enc_cbar, head=head,
                       trace=trace, risk=risk, config=config)


def save_model(path, result):
    """Checkpoint both encoders and the labeler with enough metadata to
    rebuild them, plus the run's delta, lam, variant and seed."""
    cfg = result.config
    meta = {
        "in_dim": str(result.enc_c.in_dim),
        "rep_dim": str(cfg.rep_dim),
        "hidden": ",".join(str(h) for h in cfg.hidden),
        "fixed_var": "none" if cfg.fixed_var is None else repr(float(cfg.fixed_var)),
        "delta": repr(float(cfg.delta)),
        "lam": repr(float(cfg.lam)),
        "variant": cfg.variant,
        "seed": str(cfg.seed),
    }
    params = {
        **result.enc_c.parameters(),
        **result.enc_cbar.parameters(),
        **result.head.parameters(),
    }
    save_checkpoint(path, params, meta=meta)


def load_model(path):
    """Rebuild (enc_c, enc_cbar, head, meta) from a checkpoint."""
    params, meta = load_checkpoint(path)
    try:
        in_dim = int(meta["in_dim"])
        rep_dim = int(meta["rep_dim"])
        hidden = tuple(int(h) for h in meta["hidden"].split(",")) if meta["hidden"] else ()
        fixed_var = None if meta["fixed_var"] == "none" else float(meta["fixed_var"])
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{path}: missing or malformed metadata: {exc}") from None
    enc_c, enc_cbar = (GaussianEncoder(in_dim, rep_dim=rep_dim, hidden=hidden,
                                       fixed_var=fixed_var, prefix=prefix)
                       for prefix in ("enc_c", "enc_c_twin"))
    head = LinearHead(rep_dim)
    expected = {**enc_c.parameters(), **enc_cbar.parameters(), **head.parameters()}
    unexpected = sorted(params.keys() - expected.keys())
    if unexpected:
        raise ValueError(f"{path}: unexpected parameter {unexpected[0]}")
    for name, tensor in expected.items():
        if name not in params:
            raise ValueError(f"{path}: missing parameter {name}")
        if params[name].shape != tensor.data.shape:
            raise ValueError(f"{path}: shape mismatch for {name}")
        tensor.data = params[name]
    return enc_c, enc_cbar, head, meta
