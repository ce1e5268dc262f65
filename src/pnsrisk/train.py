"""Adversarial training of a factual encoder against a counterfactual twin.

The min player owns the factual encoder phi and the labeler w; the max
player owns the twin encoder xi that proposes counterfactual
representations.  Each encoder learns a posterior mean network and a
log-variance.  They play one game: the min player descends the objective

    M_hat + SF_hat + lambda * KL_phi + sep_weight * hinge [+ lambda * KL_xi]

and the max player descends its negation.  The hinge charges pairs whose
representations sit closer than delta; lambda * KL_xi is a term when
adversary_kl is on.  The min player takes an SGD step every iteration;
every max_every iterations the max player runs a short ascent phase on
xi with its own learning rate, drawing a fresh minibatch per ascent step.
So the min player descends SF and M; the twin ascends M, and the hinge
and lambda * KL_xi with adversary_kl on.  Per row M = SF (1 - NC) +
(1 - SF) NC, so where SF is small M tracks NC, which the twin raises.

Variants:

* casn:          the full objective above,
* casn_minus_m:  drops the agreement term, the hinge, and the twin
                 entirely (plain classifier with a KL pull),
* casn_irm:      adds an invariance penalty per domain,
* casn_mmd:      adds a cross-domain representation distance penalty.

Each term is one numpy function that returns its value and its
vector-Jacobian product (vjp): separation_penalty, irm_penalty and
mmd_penalty here, the others in pnsrisk.model.  Each player's loss is
one graph node over exactly its parameters (casn_objective), run on the
game (_Game): both players' parameters in one flat buffer, so gradients
are written in place and an update is one vector op.
tests/reference_ops.py builds the terms node by node.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .autodiff import Tensor, _check, sigmoid_np
from .model import (
    GaussianEncoder,
    GaussianPrior,
    LinearHead,
    _ytil,
    clone_perturbed,
    load_checkpoint,
    save_checkpoint,
    surrogate_m,
    surrogate_sf,
)
from .risk import estimate_risk
from .streams import ROLE_TRAIN, SEED_MAX, integer, keyed

__all__ = [
    "VARIANTS",
    "TrainConfig",
    "StepRecord",
    "TrainResult",
    "TrainingDiverged",
    "separation_penalty",
    "mmd_penalty",
    "irm_penalty",
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
    variant: str = "casn"
    irm_weight: float = 0.001
    irm_anneal_iters: int = 1000
    mmd_weight: float = 1.0
    rep_dim: int = 64
    hidden: tuple = (128, 32)
    momentum: float = 0.0
    adversary_kl: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        for name, low in (("total_steps", 0), ("batch_size", 1), ("rep_dim", 1),
                          ("max_every", 0), ("max_steps_per_phase", 0), ("irm_anneal_iters", 0)):
            integer(getattr(self, name), name, low)
        integer(self.seed, "seed", 0, SEED_MAX)  # the stream keys are uint64
        if not isinstance(self.hidden, (tuple, list)):
            raise ValueError(f"hidden must be a tuple of widths, got {self.hidden!r}")
        object.__setattr__(self, "hidden", tuple(self.hidden))  # a list is stored as a tuple
        if any(integer(width, "hidden width") < 1 for width in self.hidden):
            raise ValueError(f"hidden widths must be at least 1, got {self.hidden}")
        if not isinstance(self.adversary_kl, bool):
            raise ValueError(f"adversary_kl must be true or false, got {self.adversary_kl!r}")
        for f in fields(self):  # a float field holds an int or a float, not a bool
            value = getattr(self, f.name)
            if type(f.default) is float and (isinstance(value, bool)
                                             or not isinstance(value, (int, float))):
                raise ValueError(f"{f.name} must be a number, got {value!r}")
        for name in ("lr_min", "lr_max"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and positive, got {getattr(self, name)}")
        for name in ("delta", "lam", "sep_weight", "irm_weight", "mmd_weight"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ValueError(
                    f"{name} must be finite and nonnegative, got {getattr(self, name)}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")


class TrainingDiverged(RuntimeError):
    """Loss left the representable range; carries the trace so far."""

    def __init__(self, step, trace, cause):
        super().__init__(f"training diverged at step {step}: {cause}")
        self.step = step
        self.trace = trace
        self.cause = cause


def _distances(a, b, op):
    """(diff, dist): diff = a - b and its Euclidean norm over the last
    axis, + 1e-18 inside the root so coincident rows have a gradient,
    checked under op's name: the hinge would map an overflow to 0."""
    diff = a - b
    dist = np.sqrt((diff * diff).sum(axis=-1) + 1e-18)
    _check(op, dist)
    return diff, dist


def separation_penalty(c, c_bar, delta):
    """(value, vjp) of the mean squared hinge on the pairwise
    representation gap, mean over pairs of max(0, delta - ||c - cbar||_2)^2,
    on paired representation rows; vjp gives the gradients of (c, c_bar).
    With the stabilizer of _distances, coincident pairs cost
    (delta - 1e-9)^2 and have a gradient.
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
        return g_diff, -g_diff

    return (hinge * hinge).sum() * scale, vjp


def mmd_penalty(groups):
    """(value, vjp) of the sum over unordered domain pairs of the mean
    cross-domain representation distance, on two or more arrays of
    representation rows; vjp gives one gradient per group.  One domain
    has no cross-domain pair: casn_objective adds no penalty for it.
    """
    if len(groups) < 2:
        raise ValueError("mmd penalty needs at least two domains")
    for a in groups:
        if a.ndim != 2 or groups[0].ndim != 2 or a.shape[1] != groups[0].shape[1]:
            raise ValueError(f"mmd_penalty: {groups[0].shape} vs {a.shape}")
        if not len(a):
            raise ValueError("mmd_penalty: a domain group has no rows")
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
    if any(not len(reps) for reps in groups):
        raise ValueError("irm_penalty: a domain group has no rows")
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
        g_reps, g_w = [], None
        for reps, (neg_ytil, a, sig, grad_s_scaled) in zip(groups, saved):
            # d/da of a * sigmoid(a) is sigmoid(a) + a * sigmoid'(a)
            g_a = (g + g) * grad_s_scaled * (sig + a * sig * (1.0 - sig))
            g_z = g_a * neg_ytil
            g_reps.append(g_z[:, None] * w)
            g_w = reps.T @ g_z if g_w is None else g_w + reps.T @ g_z
        return (*g_reps, g_w)

    return total, vjp


def _into(out, first, *rest):
    """first + rest, added left to right, in out (a gradient view of the
    game's flat buffer)."""
    for term in rest:
        first = np.add(first, term, out=out)
    if first is not out:
        out[...] = first
    return out


class _Game:
    """The players' parameters: enc_c's in parameters() order and head.w,
    then the twin's, moved into one (2, size) buffer, theta, row 0 the
    first player's, row 1 the twin's at the same offsets, each .data a
    view into it; outs are the matching views of grad, which the losses'
    backward writes.  Build it once per set of encoders: a second game
    moves the parameters into a new buffer."""

    def __init__(self, enc_c, enc_cbar, head):
        self.players = ((*enc_c.parameters().values(), head.w),
                        tuple(enc_cbar.parameters().values()))
        if {id(p) for p in self.players[0]} & {id(q) for q in self.players[1]}:
            raise RuntimeError("the min and max players share a parameter")
        bounds = np.cumsum([0] + [p.data.size for p in self.players[0]]).tolist()
        spans = list(zip(bounds, bounds[1:]))
        self.theta, self.grad = np.zeros((2, 2, bounds[-1]))
        self.outs = ([], [])
        for k, player in enumerate(self.players):
            for p, (start, end) in zip(player, spans):
                self.theta[k, start:end] = p.data.reshape(-1)
                p.data = self.theta[k, start:end].reshape(p.data.shape)
                self.outs[k].append(self.grad[k, start:end].reshape(p.data.shape))


def casn_objective(x, neg_ytil, enc_c, enc_cbar, head, prior_c, prior_cbar, config,
                   eps_c, eps_cbar, game, domain_rows=None, penalty_weight=None):
    """Build the step's game; returns (min_loss, max_loss, parts).

    neg_ytil holds the batch's labels as -ytil, as surrogate_sf takes
    them, and game is the _Game of enc_c, enc_cbar and head.  The
    objective is the weighted sum, in this order, of M, SF, lam * KL_c,
    sep_weight * hinge, [lam * KL_xi] and [penalty].  min_loss is that
    objective as one node whose parents are exactly enc_c's parameters
    and head.w; max_loss is its negation as one node over exactly the
    twin's (None for casn_minus_m, whose objective is SF + lam * KL_c).
    Each term is computed once, and each loss's backward computes only
    its player's gradients, adding the terms' vjps in the order a walk
    over one node per term adds them, so they are that graph's bytes.

    The backward writes into the game's gradient views.  Each encoder
    runs its own forward, enc_c's and then the twin's, and a non-finite
    value raises autodiff._check's FloatingPointError naming the first op
    to make one, in the order: enc_c's layers, kl_c, the twin's layers,
    kl_cbar, the draws, SF, M, the hinge, the penalty, the sum.

    eps_c / eps_cbar have shape (n, rep_dim), one draw per row.  casn_irm and
    casn_mmd add their penalty, times penalty_weight (default: the
    config's irm_weight or mmd_weight), on the posterior means of the
    batch's domains: domain_rows lists each domain's positions in the
    batch, as train() finds them (one domain when it has no domains).
    """
    twin = config.variant != "casn_minus_m"
    w = head.w.data
    mean_c, mlp_c = enc_c.encode(x)
    kl_c, kl_c_vjp = enc_c.kl_node(mean_c, prior_c)
    _check("kl_node", kl_c)
    if twin:
        mean_cbar, mlp_cbar = enc_cbar.encode(x)
        kl_cbar, kl_cbar_vjp = enc_cbar.kl_node(mean_cbar, prior_cbar)
        _check("kl_node", kl_cbar)
    c, draw_c = enc_c.draw(mean_c, eps_c)
    _check("draw", c)
    if twin:
        c_bar, draw_cbar = enc_cbar.draw(mean_cbar, eps_cbar)
        _check("draw", c_bar)
    sf, sf_vjp = surrogate_sf(w, c, neg_ytil)
    _check("surrogate_sf", sf)
    parts = dict(sf=float(sf), m=0.0, kl_c=float(kl_c), kl_cbar=0.0, hinge=0.0, penalty=0.0)
    if twin:
        m, m_vjp = surrogate_m(w, c, c_bar)
        _check("surrogate_m", m)
        hinge, hinge_vjp = separation_penalty(c, c_bar, float(config.delta))
        _check("separation_penalty", hinge)
        # x * 1.0 is x to the bit: the unit weights of M and SF are not multiplied
        value = m + sf + kl_c * config.lam + hinge * config.sep_weight
        if config.adversary_kl:
            value = value + kl_cbar * config.lam
        parts.update(m=float(m), kl_cbar=float(kl_cbar), hinge=float(hinge))
    else:
        value = sf + kl_c * config.lam
    penalty_vjp = None
    if config.variant in ("casn_irm", "casn_mmd"):
        reps = [mean_c[rows] for rows in domain_rows]
        if config.variant == "casn_mmd":
            # one domain has no cross-domain pair: the penalty is a constant 0
            penalty, penalty_vjp = mmd_penalty(reps) if len(reps) > 1 else (0.0, None)
            op, weight = "mmd_penalty", config.mmd_weight
        else:
            penalty, penalty_vjp = irm_penalty(w, reps, [neg_ytil[rows] for rows in domain_rows])
            op, weight = "irm_penalty", config.irm_weight
        _check(op, penalty)
        penalty_weight = weight if penalty_weight is None else penalty_weight
        value = value + penalty * penalty_weight
        parts["penalty"] = float(penalty)
    depth, (min_outs, max_outs) = 2 * len(enc_c.weights), game.outs

    # Each backward adds a parameter's contributions left to right: c gets
    # M, SF, then the hinge; w gets M, SF, then irm; the mean and log_var
    # get KL, then the draw, then the penalty's domain rows.
    def min_backward(g):
        g_c, sf_w = sf_vjp(g)
        g_w = [sf_w]
        if twin:
            m_c, _, m_w = m_vjp(g)
            g_c = m_c + g_c + hinge_vjp(g * config.sep_weight)[0]
            g_w = [m_w, sf_w]
        kl_g, draw_g = kl_c_vjp(g * config.lam), draw_c(g_c)
        g_mean = kl_g[0] + draw_g[0]
        if penalty_vjp is not None:
            g_reps = penalty_vjp(g * penalty_weight)
            if config.variant == "casn_irm":
                *g_reps, irm_w = g_reps
                g_w.append(irm_w)
            for rows, g_rows in zip(domain_rows, g_reps):
                full = np.zeros(mean_c.shape)
                full[rows] = g_rows
                g_mean = g_mean + full
        grads = mlp_c(g_mean, min_outs[:depth])
        grads.append(_into(min_outs[depth], kl_g[1], draw_g[1]))
        grads.append(_into(min_outs[-1], *g_w))
        return grads

    min_loss = Tensor(value, game.players[0], min_backward, "casn_objective")
    if not twin:
        return min_loss, None, parts

    def max_backward(g):
        g = -g
        g_mean, *g_log_var = draw_cbar(m_vjp(g)[1] + hinge_vjp(g * config.sep_weight)[1])
        if config.adversary_kl:
            kl_mean, kl_log_var = kl_cbar_vjp(g * config.lam)
            g_mean = g_mean + kl_mean
            g_log_var.append(kl_log_var)
        grads = mlp_cbar(g_mean, max_outs[:depth])
        grads.append(_into(max_outs[depth], *g_log_var))
        return grads

    max_loss = Tensor(-min_loss.data, game.players[1], max_backward, "casn_objective")
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


def check_domains(variant, domains):
    """Refuse casn_mmd unless domains holds at least two distinct ids;
    the command line, which has no domains, calls it before any output."""
    if variant == "casn_mmd" and (domains is None or len(np.unique(domains)) < 2):
        raise ValueError("variant casn_mmd needs domains with at least two distinct ids")


def train(data, config, domains=None):
    """Run the alternating scheme on a benchmark dataset.

    data needs .x and .y arrays; domains, when given, holds a domain id
    per row for the irm/mmd penalties (casn_mmd needs two distinct ids;
    without domains, casn_irm's batch is one domain).  Every random draw
    that reaches the result comes from streams keyed by config.seed.

    One failure rule: bad input raises ValueError before step 0, and the
    steps and the final risk report run under one np.errstate: numpy
    never warns, and a non-finite value is TrainingDiverged naming the
    step (total_steps for the report) and the node or layer that made it.
    """
    x_all = np.asarray(data.x, dtype=np.float64)
    y_all = np.asarray(data.y)
    if x_all.ndim != 2 or not x_all.size:
        raise ValueError("data.x must be a (rows, features) matrix with at least one of each, "
                         f"got shape {x_all.shape}")
    n, in_dim = x_all.shape
    if not np.isfinite(x_all).all():
        raise ValueError("data.x holds a non-finite value")
    if y_all.shape != (n,):
        raise ValueError(f"data.y has shape {y_all.shape}, not one label per row ({n},)")
    neg_ytil_all = -_ytil(y_all, "data.y")  # labels as casn_objective takes them
    if domains is not None:
        domains = np.asarray(domains)
        if len(domains) != n:
            raise ValueError("domains must align with the data rows")
    check_domains(config.variant, domains)

    init, batches, noise = (keyed(config.seed, ROLE_TRAIN, lane) for lane in range(3))
    enc_c = GaussianEncoder(in_dim, rep_dim=config.rep_dim, hidden=config.hidden,
                            rng=init, prefix="enc_c")
    enc_cbar = clone_perturbed(enc_c, init, scale=0.01)
    head = LinearHead(config.rep_dim, rng=init)
    prior = GaussianPrior.standard(config.rep_dim)  # for both encoders

    game = _Game(enc_c, enc_cbar, head)
    (theta_c, theta_cbar), (grad_c, grad_cbar) = game.theta, game.grad
    velocity, trace = None, []
    codes = None
    if config.variant in ("casn_irm", "casn_mmd"):  # ids 0, 1, ...; no domains is one domain
        codes = np.unique(np.zeros(n) if domains is None else domains, return_inverse=True)[1]

    def batch_objective():
        idx = batches.integers(0, n, size=config.batch_size)
        eps_c, eps_cbar = noise.standard_normal((2, config.batch_size, config.rep_dim))
        rows = None
        if codes is not None:
            # positions in the batch, not row ids: batches draw with replacement
            batch_codes = codes[idx]
            rows = [np.flatnonzero(batch_codes == d)
                    for d in np.flatnonzero(np.bincount(batch_codes))]
        # the irm warm-up weighs the penalty 1.0 for its first steps
        warm = config.variant == "casn_irm" and step < config.irm_anneal_iters
        return casn_objective(x_all[idx], neg_ytil_all[idx], enc_c, enc_cbar, head,
                              prior, prior, config, eps_c, eps_cbar, game, domain_rows=rows,
                              penalty_weight=1.0 if warm else None)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            for step in range(config.total_steps):
                adv_value = None
                run_phase = (config.variant != "casn_minus_m" and config.max_every > 0
                             and (step + 1) % config.max_every == 0)
                min_loss, _, parts = batch_objective()
                min_loss.backward()
                # each player's update is one vector op on its row of the buffer
                if velocity is not None and config.momentum > 0.0:
                    velocity *= config.momentum
                    velocity += grad_c
                else:  # a copy of the gradient: 0.9 * 0 + -0.0 would be +0.0
                    velocity = grad_c.copy()
                theta_c -= config.lr_min * velocity
                if run_phase:
                    for _ in range(config.max_steps_per_phase):
                        objective, max_loss, _ = batch_objective()
                        max_loss.backward()
                        # descending -objective ascends the shared objective
                        theta_cbar -= config.lr_max * grad_cbar
                        adv_value = objective.item()
                trace.append(StepRecord(step=step, **parts, adversary_objective=adv_value))
            # the report reads the parameters the last update left
            step = config.total_steps
            report_n = min(n, 2000)
            risk = estimate_risk(x_all[:report_n], y_all[:report_n], enc_c, enc_cbar, head,
                                 32, seed=config.seed,  # 32 Monte Carlo draws per row
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
        in_dim = integer(int(meta["in_dim"]), "in_dim", 1)
        rep_dim = integer(int(meta["rep_dim"]), "rep_dim", 1)
        hidden = tuple(integer(int(h), "hidden width", 1)
                       for h in meta["hidden"].split(",")) if meta["hidden"] else ()
        enc_c, enc_cbar = (GaussianEncoder(in_dim, rep_dim=rep_dim, hidden=hidden, prefix=prefix)
                           for prefix in ("enc_c", "enc_c_twin"))
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{path}: missing or malformed metadata: {exc}") from None
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
