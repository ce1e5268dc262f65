"""train() against the loop it replaced, byte for byte.

The reference below is the training loop with a per-parameter SGD step
and an id-keyed velocity dict, and it finds each batch's domains with
np.unique.  train() updates each player with one vector op on its row of
the game's flat buffer; the two must give the same final parameters,
trace and risk report.
"""

import numpy as np
import pytest

from pnsrisk.model import GaussianEncoder, GaussianPrior, LinearHead, clone_perturbed
from pnsrisk.risk import estimate_risk
from pnsrisk.streams import ROLE_TRAIN, keyed
from pnsrisk.synth import SynthConfig, generate
from pnsrisk.train import VARIANTS, StepRecord, TrainConfig, _Game, casn_objective, train


def sgd(params, lr, velocities, momentum):
    """One SGD step per parameter, in place.  A gradient is a view of the
    game's buffer that the next backward overwrites, so the first step's
    velocity is a copy of it."""
    for p in params:
        step = p.grad
        if momentum > 0.0:
            v = velocities.get(id(p))
            step = p.grad.copy() if v is None else momentum * v + p.grad
            velocities[id(p)] = step
        p.data -= lr * step


def reference_train(data, config, domains):
    """(enc_c, enc_cbar, head, trace, risk) of the per-parameter loop."""
    x_all = np.asarray(data.x, dtype=np.float64)
    y_all = np.asarray(data.y)
    n, in_dim = x_all.shape
    ytil_all = y_all.astype(np.float64) * 2.0 - 1.0
    init = keyed(config.seed, ROLE_TRAIN, 0)
    batches = keyed(config.seed, ROLE_TRAIN, 1)
    noise = keyed(config.seed, ROLE_TRAIN, 2)
    enc_c = GaussianEncoder(in_dim, rep_dim=config.rep_dim, hidden=config.hidden,
                            rng=init, prefix="enc_c")
    enc_cbar = clone_perturbed(enc_c, init, scale=0.01)
    head = LinearHead(config.rep_dim, rng=init)
    prior = GaussianPrior.standard(config.rep_dim)
    game = _Game(enc_c, enc_cbar, head)
    min_params = [*enc_c.parameters().values(), head.w]
    adv_params = list(enc_cbar.parameters().values())
    velocities, trace = {}, []
    shape = (config.mc_samples, config.batch_size, config.rep_dim)

    def batch_objective(step):
        idx = batches.integers(0, n, size=config.batch_size)
        eps_c, eps_cbar = noise.standard_normal((2, *shape))
        batch_domains = domains[idx]
        rows = [np.flatnonzero(batch_domains == d) for d in np.unique(batch_domains)]
        warm = config.variant == "casn_irm" and step < config.irm_anneal_iters
        return casn_objective(x_all[idx], -ytil_all[idx], enc_c, enc_cbar, head, prior, prior,
                              config, eps_c, eps_cbar, game, domain_rows=rows,
                              penalty_weight=1.0 if warm else None)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for step in range(config.total_steps):
            adv_value = None
            min_loss, _, parts = batch_objective(step)
            min_loss.backward()
            sgd(min_params, config.lr_min, velocities, config.momentum)
            if config.variant != "casn_minus_m" and (step + 1) % config.max_every == 0:
                for _ in range(config.max_steps_per_phase):
                    objective, max_loss, _ = batch_objective(step)
                    max_loss.backward()
                    sgd(adv_params, config.lr_max, velocities, 0.0)
                    adv_value = objective.item()
            trace.append(StepRecord(step=step, **parts, adversary_objective=adv_value))
        risk = estimate_risk(x_all, y_all, enc_c, enc_cbar, head, mc_samples=32,
                             seed=config.seed, prior_c=prior, prior_cbar=prior)
    return enc_c, enc_cbar, head, trace, risk


KNOBS = {
    "defaults": {},
    "mc2-adversary-kl": dict(mc_samples=2, adversary_kl=True),
    "no-momentum": dict(momentum=0.0),
    "no-hidden-layers": dict(hidden=()),
}


@pytest.mark.parametrize("knobs", list(KNOBS), ids=list(KNOBS))
@pytest.mark.parametrize("variant", VARIANTS)
def test_train_matches_the_per_parameter_loop_bytewise(variant, knobs):
    """120 steps with six max phases, momentum 0.9 (so the first step
    copies the gradient: 0.9 * 0 + -0.0 would be +0.0), the irm warm-up
    ending halfway, and three domains."""
    data = generate(SynthConfig(d=2, n_train=300, seed=4), 300)
    domains = np.arange(300) % 3
    base = dict(variant=variant, total_steps=120, batch_size=16, rep_dim=4, hidden=(8, 6),
                max_every=20, max_steps_per_phase=3, momentum=0.9, lr_min=0.05, lr_max=0.05,
                adversary_kl=False, irm_anneal_iters=60, seed=6)
    config = TrainConfig(**{**base, **KNOBS[knobs]})
    result = train(data, config, domains=domains)
    enc_c, enc_cbar, head, trace, risk = reference_train(data, config, domains)
    for got, want in ((result.enc_c, enc_c), (result.enc_cbar, enc_cbar), (result.head, head)):
        for (name, p), q in zip(got.parameters().items(), want.parameters().values()):
            assert p.data.tobytes() == q.data.tobytes(), name
    assert repr(result.trace) == repr(trace)
    assert repr(result.risk) == repr(risk)
