"""Adversarial training of a factual encoder against a counterfactual twin.

The min player owns the factual encoder phi and the labeler w; the max
player owns the twin encoder xi that proposes counterfactual
representations.  Both optimize the same objective

    M_hat + SF_hat + lambda * (KL_phi + KL_xi) + sep_weight * hinge

where the hinge term charges pairs whose representations sit closer
than delta.  The min player takes an SGD step every iteration; every
max_every iterations the max player runs a short ascent phase on xi
with its own learning rate, drawing a fresh minibatch per ascent step.

Variants:

* casn:          the full objective above,
* casn_minus_m:  drops the agreement term, the hinge, and the twin
                 entirely (plain classifier with a KL pull),
* casn_irm:      adds an invariance penalty per domain,
* casn_mmd:      adds a cross-domain representation distance penalty.

Every loss term, the two penalties included, is one fused graph node
with a numpy forward and an analytic backward, and each objective is
one sum node over them (casn_objective).  The penalties read their
domains' rows out of the batch's single posterior-mean node, so each
encoder runs once per objective.  tests/reference_ops.py builds the
same terms node by node from generic ops; the tests compare the two.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, constant, sigmoid_np
from .model import (
    GaussianEncoder,
    GaussianPrior,
    LinearHead,
    _margins,
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
    rows have a gradient.  A value that overflows raises
    FloatingPointError naming the op, with no numpy warning first."""
    with np.errstate(over="ignore"):
        diff = a - b
        dist = np.sqrt((diff * diff).sum(axis=-1) + 1e-18)
    if not np.isfinite(dist).all():
        raise FloatingPointError(f"{op} produced a non-finite value")
    return diff, dist


def separation_penalty(c, c_bar, delta):
    """Mean squared hinge on the pairwise representation gap:
    mean over pairs of max(0, delta - ||c - cbar||_2)^2, as one graph
    node.

    The distance carries the 1e-18 stabilizer of _distances, so
    coincident pairs cost (delta - 1e-9)^2 instead of tripping on the
    sqrt gradient.
    """
    delta = float(delta)
    if not np.isfinite(delta):
        raise FloatingPointError("non-finite value entering the graph")
    if c.data.ndim != 2 or c.data.shape != c_bar.data.shape:
        raise ValueError(f"separation_penalty: {c.data.shape} vs {c_bar.data.shape}")
    diff, dist = _distances(c.data, c_bar.data, "separation_penalty")
    hinge = np.maximum(delta - dist, 0.0)
    scale = 1.0 / hinge.shape[0]

    def backward(g):
        g_hinge = g * scale * hinge  # zero where the pair is far enough apart
        g_sq = -(g_hinge + g_hinge) * 0.5 / dist
        g_diff = g_sq[:, None] * diff
        g_diff = g_diff + g_diff
        return (g_diff, -g_diff)

    return Tensor((hinge * hinge).sum() * scale, (c, c_bar), backward, "separation_penalty")


def mmd_penalty(rep_groups):
    """Sum over unordered domain pairs of the mean cross-domain
    representation distance, as one graph node.  Fewer than two domains
    is legal but inert: the penalty is 0 and a warning points it out.

    Each distance carries the 1e-18 stabilizer of _distances, so
    coincident rows have a gradient.
    """
    if len(rep_groups) < 2:
        warnings.warn("mmd penalty needs at least two domains; returning 0", stacklevel=2)
        return constant(0.0)
    total = None
    pairs = []
    for i in range(len(rep_groups)):
        for j in range(i + 1, len(rep_groups)):
            a, b = rep_groups[i].data, rep_groups[j].data
            if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
                raise ValueError(f"mmd_penalty: {a.shape} vs {b.shape}")
            diff, dist = _distances(a[:, None, :], b[None, :, :], "mmd_penalty")
            term = dist.mean()
            total = term if total is None else total + term
            pairs.append((i, j, diff, dist))

    def backward(g):
        grads = [0.0] * len(rep_groups)
        for i, j, diff, dist in pairs:
            unit = diff / dist[:, :, None]
            scale = g / dist.size
            grads[i] = grads[i] + scale * unit.sum(axis=1)
            grads[j] = grads[j] - scale * unit.sum(axis=0)
        return grads

    return Tensor(total, rep_groups, backward, "mmd_penalty")


def irm_penalty(head, rep_groups, y_groups):
    """Invariance penalty: squared derivative of each domain's surrogate
    loss in a dummy scaling of the labeler, summed over domains, as one
    graph node.

    d/ds mean softplus(-ytil * s * z) at s = 1 is
    mean(-ytil * z * sigmoid(-ytil * z)), a first-order expression, so
    the penalty stays inside a first-order graph.
    """
    if len(rep_groups) != len(y_groups):
        raise ValueError("rep_groups and y_groups must align")
    if not rep_groups:
        raise ValueError("irm penalty needs at least one domain")
    total = None
    saved = []
    for reps, y in zip(rep_groups, y_groups):
        neg_ytil, a = _margins(head, reps, y)
        sig = sigmoid_np(a)
        scale = 1.0 / a.shape[0]
        grad_s = (a * sig).sum() * scale
        term = grad_s * grad_s
        total = term if total is None else total + term
        saved.append((neg_ytil, a, sig, grad_s * scale))

    def backward(g):
        pairs = []
        for reps, (neg_ytil, a, sig, grad_s_scaled) in zip(rep_groups, saved):
            # d/da of a * sigmoid(a) is sigmoid(a) + a * sigmoid'(a)
            g_a = (g + g) * grad_s_scaled * (sig + a * sig * (1.0 - sig))
            pairs.append((reps, g_a * neg_ytil))
        w = head.w.data
        return (*(np.outer(g_z, w) for _, g_z in pairs), _w_grad(pairs))

    return Tensor(total, (*rep_groups, head.w), backward, "irm_penalty")


def _rows(node, positions):
    """Rows `positions` (distinct) of a batch node, as one graph node."""
    shape = node.data.shape

    def backward(g):
        full = np.zeros(shape)
        full[positions] = g
        return (full,)

    return Tensor(node.data[positions], (node,), backward, "rows")


def _draw_means(groups):
    """Per group of (nodes, weight), the mean of the nodes' values over
    the draws: their sum, left to right, times 1 / len(nodes)."""
    means = []
    for nodes, _ in groups:
        total = nodes[0].data
        for node in nodes[1:]:
            total = total + node.data
        means.append(total * (1.0 / len(nodes)))
    return means


def _objective_node(groups, means, negate=False):
    """The objective's scalar sum as one graph node: over groups of
    (nodes, weight) and their _draw_means, left to right, the sum of
    mean * weight, negated when asked.

    These are the float operations, in the same order, of the chain of
    add, mul and neg nodes that builds the same sum, so the value and
    every gradient are the same bytes: a weight of 1.0 and the scale
    1/1 of a single node are exact.  The parents are the nodes in group
    order, the chain's left-to-right order, so a backward walk meets the
    rest of the graph in the same order too.
    """
    value = None
    for mean, (_, weight) in zip(means, groups):
        term = mean * weight
        value = term if value is None else value + term
    if negate:
        value = -value

    def backward(g):
        if negate:
            g = -g
        contribs = []
        for nodes, weight in groups:
            contribs += [g * weight * (1.0 / len(nodes))] * len(nodes)
        return contribs

    parents = [node for nodes, _ in groups for node in nodes]
    return Tensor(value, parents, backward, "casn_objective")


def casn_objective(x, y, enc_c, enc_cbar, head, prior_c, prior_cbar, config,
                   eps_c, eps_cbar, domain_rows=None, penalty_weight=None):
    """Build the step objective; returns (min_loss, max_loss, parts).

    min_loss is what the (phi, w) player descends; max_loss is its
    negation for the xi player (dropping xi's KL term when
    adversary_kl is off).  casn_minus_m never touches the twin, so its
    max_loss is None and no xi node enters the graph.  Each loss is one
    node over the fused terms (see _objective_node).

    eps_c / eps_cbar have shape (mc_samples, n, rep_dim); surrogate
    terms are averaged over draws.

    casn_irm and casn_mmd add their penalty, times penalty_weight
    (default: the config's irm_weight or mmd_weight), to both losses.
    It is computed on the posterior means of the batch's domains:
    domain_rows lists each domain's positions in the batch, and None
    makes the whole batch one domain.
    """
    s_draws = config.mc_samples
    mean_c = enc_c.encode(x)
    kl_c = enc_c.kl_node(mean_c, prior_c)
    if config.variant == "casn_minus_m":
        sfs = [surrogate_sf(head, enc_c.draw(mean_c, eps_c[k]), y) for k in range(s_draws)]
        groups = [(sfs, 1.0), ([kl_c], config.lam)]
        means = _draw_means(groups)
        sf, kl = map(float, means)
        parts = {"sf": sf, "m": 0.0, "kl_c": kl, "kl_cbar": 0.0, "hinge": 0.0,
                 "penalty": 0.0}
        return _objective_node(groups, means), None, parts
    mean_cbar = enc_cbar.encode(x)
    kl_cbar = enc_cbar.kl_node(mean_cbar, prior_cbar)
    sfs, ms, hinges = [], [], []
    for k in range(s_draws):
        c = enc_c.draw(mean_c, eps_c[k])
        c_bar = enc_cbar.draw(mean_cbar, eps_cbar[k])
        sfs.append(surrogate_sf(head, c, y))
        ms.append(surrogate_m(head, c, c_bar))
        hinges.append(separation_penalty(c, c_bar, config.delta))
    groups = [(ms, 1.0), (sfs, 1.0), ([kl_c], config.lam), (hinges, config.sep_weight),
              ([kl_cbar], config.lam)]
    if config.variant in ("casn_irm", "casn_mmd"):
        groups.append(_penalty_group(mean_c, y, head, config, domain_rows, penalty_weight))
    means = _draw_means(groups)
    min_loss = _objective_node(groups, means)
    # the max player's sum leaves the twin's KL (group 4) out when
    # adversary_kl is off; the penalty group, if any, follows it
    kept = 5 if config.adversary_kl else 4
    max_loss = _objective_node(groups[:kept] + groups[5:], means[:kept] + means[5:],
                               negate=True)
    parts = dict(zip(("m", "sf", "kl_c", "hinge", "kl_cbar", "penalty"), map(float, means)))
    parts.setdefault("penalty", 0.0)
    return min_loss, max_loss, parts


def _penalty_group(mean_c, y, head, config, domain_rows, weight):
    """The (nodes, weight) sum group of the irm or mmd penalty, on the
    rows of the batch's posterior-mean node that each domain holds."""
    if domain_rows is None:
        domain_rows = [np.arange(len(y))]
    reps = [_rows(mean_c, rows) for rows in domain_rows]
    if config.variant == "casn_mmd":
        penalty = mmd_penalty(reps)
        default = config.mmd_weight
    else:
        penalty = irm_penalty(head, reps, [y[rows] for rows in domain_rows])
        default = config.irm_weight
    return [penalty], default if weight is None else weight


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
    prior_c: GaussianPrior
    prior_cbar: GaussianPrior
    trace: list
    risk: object
    config: TrainConfig


def _sgd(params, lr, velocities, momentum):
    for p in params:
        if p.grad is None:
            continue
        if momentum > 0.0:
            v = velocities.get(id(p))
            v = p.grad if v is None else momentum * v + p.grad
            velocities[id(p)] = v
            p.data = p.data - lr * v
        else:
            p.data = p.data - lr * p.grad


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
    """
    x_all = np.asarray(data.x, dtype=np.float64)
    y_all = np.asarray(data.y)
    n, in_dim = x_all.shape
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
    prior_c = GaussianPrior.standard(config.rep_dim)
    prior_cbar = GaussianPrior.standard(config.rep_dim)

    min_params = list(enc_c.parameters().values()) + list(head.parameters().values())
    adv_params = list(enc_cbar.parameters().values())
    if {id(p) for p in min_params} & {id(p) for p in adv_params}:
        raise RuntimeError("the min and max players share a parameter")

    velocities = {}
    trace = []
    shape = (config.mc_samples, config.batch_size, config.rep_dim)

    def batch_objective():
        idx = batches.integers(0, n, size=config.batch_size)
        eps_c = noise.standard_normal(shape)
        eps_cbar = noise.standard_normal(shape)
        rows = None
        if domains is not None and config.variant in ("casn_irm", "casn_mmd"):
            # positions in the batch, not row ids: batches draw with replacement
            batch_domains = domains[idx]
            rows = [np.flatnonzero(batch_domains == d) for d in np.unique(batch_domains)]
        # the irm warm-up weighs the penalty 1.0 for its first steps
        warm = config.variant == "casn_irm" and step < config.irm_anneal_iters
        return casn_objective(x_all[idx], y_all[idx], enc_c, enc_cbar, head,
                              prior_c, prior_cbar, config, eps_c, eps_cbar,
                              domain_rows=rows, penalty_weight=1.0 if warm else None)

    for step in range(config.total_steps):
        adv_value = None
        run_phase = (
            config.variant != "casn_minus_m"
            and config.max_every > 0
            and (step + 1) % config.max_every == 0
        )
        try:
            min_loss, _, parts = batch_objective()
            min_loss.backward(min_params)
            _sgd(min_params, config.lr_min, velocities, config.momentum)
            if run_phase:
                for _ in range(config.max_steps_per_phase):
                    _, max_loss, _ = batch_objective()
                    max_loss.backward(adv_params)
                    # descending -objective ascends the shared objective
                    _sgd(adv_params, config.lr_max, velocities, 0.0)
                    adv_value = -max_loss.item()
        except FloatingPointError as exc:
            raise TrainingDiverged(step, trace, exc) from exc
        trace.append(StepRecord(step=step, **parts, adversary_objective=adv_value))

    report_n = min(n, 2000)
    risk = estimate_risk(x_all[:report_n], y_all[:report_n], enc_c, enc_cbar, head,
                         mc_samples=32, seed=config.seed,
                         prior_c=prior_c, prior_cbar=prior_cbar)
    return TrainResult(enc_c=enc_c, enc_cbar=enc_cbar, head=head,
                       prior_c=prior_c, prior_cbar=prior_cbar,
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
        hidden = tuple(int(h) for h in meta["hidden"].split(","))
        fixed_var = None if meta["fixed_var"] == "none" else float(meta["fixed_var"])
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{path}: missing or malformed metadata: {exc}") from None
    enc_c = GaussianEncoder(in_dim, rep_dim=rep_dim, hidden=hidden,
                            fixed_var=fixed_var, prefix="enc_c")
    enc_cbar = GaussianEncoder(in_dim, rep_dim=rep_dim, hidden=hidden,
                               fixed_var=fixed_var, prefix="enc_c_twin")
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
