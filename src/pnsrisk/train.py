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
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, constant, pairwise_mean_distance, sigmoid
from .model import (
    GaussianEncoder,
    GaussianPrior,
    LinearHead,
    clone_perturbed,
    load_checkpoint,
    save_checkpoint,
    surrogate_m,
    surrogate_sf,
)
from .risk import estimate_risk
from .streams import ROLE_PLAIN, keyed

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


def separation_penalty(c, c_bar, delta):
    """Mean squared hinge on the pairwise representation gap:
    mean over pairs of max(0, delta - ||c - cbar||_2)^2, as one graph
    node.

    The distance carries a 1e-18 stabilizer inside the square root, so
    coincident pairs cost (delta - 1e-9)^2 instead of tripping on the
    sqrt gradient.
    """
    delta = float(delta)
    if not np.isfinite(delta):
        raise FloatingPointError("non-finite value entering the graph")
    if c.data.ndim != 2 or c.data.shape != c_bar.data.shape:
        raise ValueError(f"separation_penalty: {c.data.shape} vs {c_bar.data.shape}")
    diff = c.data - c_bar.data
    dist = np.sqrt((diff * diff).sum(axis=1) + 1e-18)
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
    representation distance.  Fewer than two domains is legal but inert:
    the penalty is 0 and a warning points it out."""
    if len(rep_groups) < 2:
        warnings.warn("mmd penalty needs at least two domains; returning 0", stacklevel=2)
        return constant(0.0)
    total = None
    for i in range(len(rep_groups)):
        for j in range(i + 1, len(rep_groups)):
            term = pairwise_mean_distance(rep_groups[i], rep_groups[j])
            total = term if total is None else total + term
    return total


def irm_penalty(head, rep_groups, y_groups):
    """Invariance penalty: squared derivative of each domain's surrogate
    loss in a dummy scaling of the labeler, summed over domains.

    d/ds mean softplus(-ytil * s * z) at s = 1 is
    mean(-ytil * z * sigmoid(-ytil * z)), a first-order expression, so
    the penalty stays inside a first-order graph.
    """
    if len(rep_groups) != len(y_groups):
        raise ValueError("rep_groups and y_groups must align")
    total = None
    for reps, y in zip(rep_groups, y_groups):
        y = np.asarray(y)
        if not np.isin(y, (0, 1)).all():
            raise ValueError("labels must be 0 or 1")
        neg_ytil = constant(-(y.astype(np.float64) * 2.0 - 1.0))
        a = head.logits(reps) * neg_ytil
        grad_s = (a * sigmoid(a)).mean()
        term = grad_s.square()
        total = term if total is None else total + term
    return total


def casn_objective(x, y, enc_c, enc_cbar, head, prior_c, prior_cbar, config,
                   eps_c, eps_cbar):
    """Build the step objective; returns (min_loss, max_loss, parts).

    min_loss is what the (phi, w) player descends; max_loss is its
    negation for the xi player (dropping xi's KL term when
    adversary_kl is off).  casn_minus_m never touches the twin, so its
    max_loss is None and no xi node enters the graph.

    eps_c / eps_cbar have shape (mc_samples, n, rep_dim); surrogate
    terms are averaged over draws.
    """
    s_draws = config.mc_samples
    mean_c = enc_c.encode(x)
    kl_c = enc_c.kl_node(mean_c, prior_c)
    if config.variant == "casn_minus_m":
        sf = None
        for k in range(s_draws):
            c = enc_c.draw(mean_c, eps_c[k])
            term = surrogate_sf(head, c, y)
            sf = term if sf is None else sf + term
        sf = sf * (1.0 / s_draws)
        min_loss = sf + kl_c * config.lam
        parts = {"sf": sf.item(), "m": 0.0, "kl_c": kl_c.item(), "kl_cbar": 0.0,
                 "hinge": 0.0}
        return min_loss, None, parts
    mean_cbar = enc_cbar.encode(x)
    kl_cbar = enc_cbar.kl_node(mean_cbar, prior_cbar)
    sf = m = hinge = None
    for k in range(s_draws):
        c = enc_c.draw(mean_c, eps_c[k])
        c_bar = enc_cbar.draw(mean_cbar, eps_cbar[k])
        sf_k = surrogate_sf(head, c, y)
        m_k = surrogate_m(head, c, c_bar)
        h_k = separation_penalty(c, c_bar, config.delta)
        sf = sf_k if sf is None else sf + sf_k
        m = m_k if m is None else m + m_k
        hinge = h_k if hinge is None else hinge + h_k
    scale = 1.0 / s_draws
    sf, m, hinge = sf * scale, m * scale, hinge * scale
    base = m + sf + kl_c * config.lam + hinge * config.sep_weight
    min_loss = base + kl_cbar * config.lam
    max_loss = -min_loss if config.adversary_kl else -base
    parts = {"sf": sf.item(), "m": m.item(), "kl_c": kl_c.item(),
             "kl_cbar": kl_cbar.item(), "hinge": hinge.item()}
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
    prior_c: GaussianPrior
    prior_cbar: GaussianPrior
    trace: list
    risk: object
    config: TrainConfig
    in_dim: int


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


def _split_domains(idx, domains):
    if domains is None:
        return [idx]
    batch_domains = domains[idx]
    return [idx[batch_domains == d] for d in np.unique(batch_domains)]


def train(data, config, domains=None):
    """Run the alternating scheme on a benchmark dataset.

    data needs .x and .y arrays; domains, when given, is an array of
    domain ids aligned with the rows and feeds the irm/mmd penalties.
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

    init = keyed(config.seed, ROLE_PLAIN, 0)
    batches = keyed(config.seed, ROLE_PLAIN, 1)
    noise = keyed(config.seed, ROLE_PLAIN, 2)
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
        min_loss, max_loss, parts = casn_objective(
            x_all[idx], y_all[idx], enc_c, enc_cbar, head,
            prior_c, prior_cbar, config, eps_c, eps_cbar)
        if config.variant in ("casn_irm", "casn_mmd"):
            groups = [g for g in _split_domains(idx, domains) if len(g) > 0]
            reps = [enc_c.encode(x_all[g]) for g in groups]
            if config.variant == "casn_mmd":
                penalty = mmd_penalty(reps)
                weight = config.mmd_weight
            else:
                penalty = irm_penalty(head, reps, [y_all[g] for g in groups])
                weight = 1.0 if step < config.irm_anneal_iters else config.irm_weight
            parts["penalty"] = penalty.item()
            min_loss = min_loss + penalty * weight
            if max_loss is not None:
                max_loss = max_loss - penalty * weight
        else:
            parts["penalty"] = 0.0
        return min_loss, max_loss, parts

    step = 0
    for step in range(config.total_steps):
        try:
            min_loss, _, parts = batch_objective()
            min_loss.backward()
        except FloatingPointError as exc:
            raise TrainingDiverged(step, trace, exc) from exc
        _sgd(min_params, config.lr_min, velocities, config.momentum)

        adv_value = None
        run_phase = (
            config.variant != "casn_minus_m"
            and config.max_every > 0
            and (step + 1) % config.max_every == 0
        )
        if run_phase:
            for _ in range(config.max_steps_per_phase):
                try:
                    _, max_loss, _ = batch_objective()
                    max_loss.backward()
                except FloatingPointError as exc:
                    raise TrainingDiverged(step, trace, exc) from exc
                # descending -objective ascends the shared objective
                _sgd(adv_params, config.lr_max, velocities, 0.0)
                adv_value = -max_loss.item()
        trace.append(StepRecord(step=step, sf=parts["sf"], m=parts["m"],
                                kl_c=parts["kl_c"], kl_cbar=parts["kl_cbar"],
                                hinge=parts["hinge"], penalty=parts["penalty"],
                                adversary_objective=adv_value))

    report_n = min(n, 2000)
    risk = estimate_risk(x_all[:report_n], y_all[:report_n], enc_c, enc_cbar, head,
                         mc_samples=32, seed=config.seed,
                         prior_c=prior_c, prior_cbar=prior_cbar)
    return TrainResult(enc_c=enc_c, enc_cbar=enc_cbar, head=head,
                       prior_c=prior_c, prior_cbar=prior_cbar,
                       trace=trace, risk=risk, config=config, in_dim=in_dim)


def save_model(path, result, extra_meta=None):
    """Checkpoint both encoders and the labeler with enough metadata to
    rebuild them."""
    cfg = result.config
    meta = {
        "in_dim": str(result.in_dim),
        "rep_dim": str(cfg.rep_dim),
        "hidden": ",".join(str(h) for h in cfg.hidden),
        "fixed_var": "none" if cfg.fixed_var is None else repr(float(cfg.fixed_var)),
    }
    meta.update(extra_meta or {})
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
