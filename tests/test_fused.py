"""The fused training-step terms against the per-op graph they replace.

Each term (the MLP, the draw, the KL term, both surrogates, the
separation hinge and the irm and mmd penalties) is one numpy function
that returns (value, vjp); reference_ops.node makes it one graph node.
The reference below builds the same quantities node by node from the
generic ops in reference_ops, as the step was built before fusion, and
every test compares values and every parameter gradient.
"""

import contextlib
import importlib
import warnings

import numpy as np
import pytest
import reference_ops as R

from pnsrisk.autodiff import Tensor, check_gradients, parameter
from pnsrisk.model import (
    GaussianEncoder,
    GaussianPrior,
    LinearHead,
    Mlp,
    _ytil,
    clone_perturbed,
    surrogate_m,
    surrogate_sf,
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

# the package re-exports train(), so import the modules by path
train_module = importlib.import_module("pnsrisk.train")
model_module = importlib.import_module("pnsrisk.model")

# fused and per-op results agree to this fraction of the largest gradient
RTOL = 1e-12


# ---- the per-op reference graph ----

def ref_mlp(mlp, x):
    h = x
    last = len(mlp.weights) - 1
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        h = R.affine(h, w, b)
        if i != last:
            h = R.elu(h)
    return h


def ref_draw(enc, mean, eps):
    eps_t = Tensor(np.asarray(eps, dtype=np.float64))
    if enc.fixed_var is not None:
        return R.add(mean, R.mul(eps_t, np.sqrt(enc.fixed_var)))
    return R.add(mean, R.mul(eps_t, R.exp(R.mul(enc.log_var, 0.5))))


def ref_kl(enc, mean, prior):
    n, rep = mean.data.shape
    inv_pv = 1.0 / prior.var
    diff = R.sub(mean, Tensor(prior.mean))
    mean_part = R.reduce_mean(R.reduce_sum(R.mul(R.mul(diff, diff), Tensor(inv_pv)), axis=1))
    log_pv_sum = float(np.log(prior.var).sum())
    if enc.fixed_var is not None:
        var_part = Tensor(log_pv_sum - rep * np.log(enc.fixed_var)
                            + float((enc.fixed_var * inv_pv).sum()) - rep)
    else:
        var_part = R.add(R.sub(R.reduce_sum(R.mul(R.exp(enc.log_var), Tensor(inv_pv))),
                               R.reduce_sum(enc.log_var)),
                         Tensor(log_pv_sum - rep))
    return R.mul(R.add(var_part, mean_part), 0.5)


def ref_sf(head, c, y):
    neg_ytil = -(np.asarray(y, dtype=np.float64) * 2.0 - 1.0)
    return R.reduce_mean(R.softplus(R.mul(R.logits(head, c), Tensor(neg_ytil))))


def ref_m(head, c, c_bar):
    p = R.sigmoid(R.logits(head, c))
    q = R.sigmoid(R.logits(head, c_bar))
    one = Tensor(1.0)
    return R.reduce_mean(R.add(R.mul(p, q), R.mul(R.sub(one, p), R.sub(one, q))))


def ref_separation(c, c_bar, delta):
    diff = R.sub(c, c_bar)
    dist = R.sqrt(R.add(R.reduce_sum(R.mul(diff, diff), axis=1), 1e-18))
    return R.reduce_mean(R.square(R.relu(R.sub(Tensor(float(delta)), dist))))


def ref_objective(x, ytil, enc_c, enc_cbar, head, prior_c, prior_cbar, config,
                  eps_c, eps_cbar, domain_rows=None, penalty_weight=None):
    y = (ytil > 0).astype(np.int64)
    s_draws = config.mc_samples
    mean_c = ref_mlp(enc_c.mlp, Tensor(x))
    kl_c = ref_kl(enc_c, mean_c, prior_c)
    if config.variant == "casn_minus_m":
        sf = None
        for k in range(s_draws):
            term = ref_sf(head, ref_draw(enc_c, mean_c, eps_c[k]), y)
            sf = term if sf is None else R.add(sf, term)
        sf = R.mul(sf, 1.0 / s_draws)
        return R.add(sf, R.mul(kl_c, config.lam)), None
    mean_cbar = ref_mlp(enc_cbar.mlp, Tensor(x))
    kl_cbar = ref_kl(enc_cbar, mean_cbar, prior_cbar)
    sf = m = hinge = None
    for k in range(s_draws):
        c = ref_draw(enc_c, mean_c, eps_c[k])
        c_bar = ref_draw(enc_cbar, mean_cbar, eps_cbar[k])
        sf_k = ref_sf(head, c, y)
        m_k = ref_m(head, c, c_bar)
        h_k = ref_separation(c, c_bar, config.delta)
        sf = sf_k if sf is None else R.add(sf, sf_k)
        m = m_k if m is None else R.add(m, m_k)
        hinge = h_k if hinge is None else R.add(hinge, h_k)
    scale = 1.0 / s_draws
    sf, m, hinge = R.mul(sf, scale), R.mul(m, scale), R.mul(hinge, scale)
    game = R.add(R.add(R.add(m, sf), R.mul(kl_c, config.lam)),
                 R.mul(hinge, config.sep_weight))
    if config.adversary_kl:
        game = R.add(game, R.mul(kl_cbar, config.lam))
    if config.variant in ("casn_irm", "casn_mmd"):
        # each domain's rows encoded on their own, as train() once did
        reps = [ref_mlp(enc_c.mlp, Tensor(x[rows])) for rows in domain_rows]
        if config.variant == "casn_mmd":
            penalty = R.mmd_penalty(reps)
        else:
            penalty = R.irm_penalty(head, reps, [y[rows] for rows in domain_rows])
        game = R.add(game, R.mul(penalty, penalty_weight))
    return game, R.neg(game)


# ---- comparison ----

def value_and_grads(build, params):
    for p in params:
        p.grad = None
    loss = build()
    loss.backward()
    return loss.item(), [None if p.grad is None else p.grad.copy() for p in params]


def assert_same(fused, reference, params):
    """Values and every parameter gradient agree within RTOL."""
    v_f, g_f = value_and_grads(fused, params)
    v_r, g_r = value_and_grads(reference, params)
    assert abs(v_f - v_r) <= RTOL * max(1.0, abs(v_r))
    scale = max([1e-300] + [np.abs(g).max() for g in g_r if g is not None])
    for p, a, b in zip(params, g_f, g_r):
        assert (a is None) == (b is None), p.name
        if a is not None:
            assert a.shape == b.shape == p.data.shape, p.name
            assert np.abs(a - b).max() <= RTOL * scale, p.name


def encoder(fixed_var, seed=0, in_dim=4, rep=3, hidden=(7, 5), prefix="enc"):
    enc = GaussianEncoder(in_dim, rep_dim=rep, hidden=hidden,
                          rng=np.random.default_rng(seed), fixed_var=fixed_var,
                          prefix=prefix)
    if enc.log_var is not None:
        enc.log_var.data = np.random.default_rng(seed + 50).uniform(-1.0, 1.0, rep)
    return enc


def head_of(rep, saturated, seed=0):
    """A labeler; a saturated one has weights scaled so that most of its
    logits sit in the sigmoid's flat tails."""
    head = LinearHead(rep, rng=np.random.default_rng(seed))
    if saturated:
        head.w.data = head.w.data * 25.0
    return head


def leaf(rng, shape):
    return parameter(rng.standard_normal(shape))


def mlp_params(enc):
    return list(enc.mlp.parameters().values())


def posterior(enc, mean):
    """The parents of a term on the posterior: its mean node, and the
    log-variance when it is learned."""
    return [mean] + ([] if enc.log_var is None else [enc.log_var])


# ---- fused ops, one at a time ----

def _same_weights(seed, shape):
    """A fresh generator per build, so both graphs see the same weights."""
    return lambda: Tensor(np.random.default_rng(seed).standard_normal(shape))


@pytest.mark.parametrize("hidden", [(7, 5), (6,), ()])
def test_mlp_matches_per_op_graph(hidden):
    rng = np.random.default_rng(1)
    mlp = encoder(None, hidden=hidden).mlp
    x = rng.standard_normal((9, 4))
    weights = _same_weights(2, (9, 3))
    params = list(mlp.parameters().values())
    assert_same(lambda: R.reduce_sum(R.mul(R.node("mlp", params, mlp._forward(x)), weights())),
                lambda: R.reduce_sum(R.mul(ref_mlp(mlp, Tensor(x)), weights())), params)
    # the input is data: one gradient per parameter, none for x
    assert len(mlp._forward(x)[1](np.ones((9, 3)))) == len(params)


@pytest.mark.parametrize("fixed_var", [None, 0.3])
def test_draw_matches_per_op_graph(fixed_var):
    rng = np.random.default_rng(2)
    enc = encoder(fixed_var)
    mean = leaf(rng, (6, 3))
    eps = rng.standard_normal((6, 3))
    weights = _same_weights(3, (6, 3))
    params = posterior(enc, mean)
    assert_same(lambda: R.reduce_sum(R.mul(R.node("draw", params, enc.draw(mean.data, eps)),
                                           weights())),
                lambda: R.reduce_sum(R.mul(ref_draw(enc, mean, eps), weights())), params)


@pytest.mark.parametrize("fixed_var", [None, 0.3])
def test_kl_matches_per_op_graph(fixed_var):
    rng = np.random.default_rng(4)
    enc = encoder(fixed_var)
    mean = leaf(rng, (6, 3))
    prior = GaussianPrior(rng.standard_normal(3), rng.uniform(0.5, 2.0, 3))
    params = posterior(enc, mean)
    assert_same(lambda: R.node("kl_node", params, enc.kl_node(mean.data, prior)),
                lambda: ref_kl(enc, mean, prior), params)


@pytest.mark.parametrize("saturated", [False, True])
def test_surrogates_match_per_op_graph(saturated):
    rng = np.random.default_rng(5)
    head = head_of(3, saturated)
    c, c_bar = leaf(rng, (8, 3)), leaf(rng, (8, 3))
    y = rng.integers(0, 2, size=8)
    w = head.w
    params = [c, c_bar, w]
    assert_same(lambda: R.node("surrogate_sf", [c, w], surrogate_sf(w.data, c.data, -_ytil(y))),
                lambda: ref_sf(head, c, y), params)
    for b in (c_bar, c):  # c on both sides of the agreement term too
        assert_same(lambda: R.node("surrogate_m", [c, b, w], surrogate_m(w.data, c.data, b.data)),
                    lambda: ref_m(head, c, b), params)


@pytest.mark.parametrize("delta, offset", [
    pytest.param(3.0, 0.3, id="active"),
    pytest.param(0.5, 10.0, id="inactive"),
    pytest.param(1.2, 0.0, id="coincident"),
    pytest.param(1.0, None, id="mixed"),
])
def test_separation_matches_per_op_graph(delta, offset):
    rng = np.random.default_rng(6)
    c = leaf(rng, (7, 3))
    if offset is None:
        c_bar = parameter(c.data + rng.uniform(-1.0, 1.0, (7, 3)))
    else:
        c_bar = parameter(c.data + offset * rng.standard_normal((7, 3)))
    assert_same(lambda: R.node("separation_penalty", [c, c_bar],
                               separation_penalty(c.data, c_bar.data, delta)),
                lambda: ref_separation(c, c_bar, delta), [c, c_bar])


@pytest.mark.parametrize("sizes", [(5,), (5, 3), (5, 3, 4)], ids=["1", "2", "3"])
@pytest.mark.parametrize("saturated", [False, True])
def test_irm_penalty_matches_per_op_graph(sizes, saturated):
    rng = np.random.default_rng(16)
    head = head_of(3, saturated)
    groups = [leaf(rng, (k, 3)) for k in sizes]
    y_groups = [rng.integers(0, 2, size=k) for k in sizes]
    params = groups + [head.w]
    neg_ytil = [-_ytil(y) for y in y_groups]
    assert_same(lambda: R.node("irm_penalty", params, irm_penalty(
                    head.w.data, [g.data for g in groups], neg_ytil)),
                lambda: R.irm_penalty(head, groups, y_groups), params)


@pytest.mark.parametrize("sizes", [(5,), (5, 3), (5, 3, 4)], ids=["1", "2", "3"])
def test_mmd_penalty_matches_per_op_graph(sizes):
    rng = np.random.default_rng(17)
    groups = [leaf(rng, (k, 3)) for k in sizes]
    arrays = [g.data for g in groups]
    if len(sizes) < 2:  # no cross-domain pair: the objective adds no penalty
        with pytest.raises(ValueError, match="^mmd penalty needs at least two domains$"):
            mmd_penalty(arrays)
        return
    # the first and last groups share a row: one cross pair at distance 0
    groups[0].data[0] = groups[-1].data[-1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_same(lambda: R.node("mmd_penalty", groups, mmd_penalty(arrays)),
                    lambda: R.mmd_penalty(groups), groups)


# ---- the whole step objective ----

def objective_parts(variant, mc_samples, fixed_var, saturated, delta, coincident=False,
                    adversary_kl=False):
    """casn_objective's arguments on a 6-row batch, labels as -1/+1, and
    the two players' parameters (enc_c's and head.w; the twin's)."""
    rng = np.random.default_rng(7)
    n, rep = 6, 3
    x = rng.standard_normal((n, 4))
    ytil = rng.integers(0, 2, size=n) * 2.0 - 1.0
    enc_c = encoder(fixed_var, seed=8, prefix="enc_c")
    if coincident:
        enc_cbar = clone_perturbed(enc_c, rng, scale=0.0)
    else:
        enc_cbar = encoder(fixed_var, seed=9, prefix="enc_cbar")
    head = head_of(rep, saturated, seed=10)
    prior_c = GaussianPrior(rng.standard_normal(rep), rng.uniform(0.5, 2.0, rep))
    prior_cbar = GaussianPrior.standard(rep)
    eps_c = rng.standard_normal((mc_samples, n, rep))
    eps_cbar = eps_c.copy() if coincident else rng.standard_normal((mc_samples, n, rep))
    config = TrainConfig(variant=variant, mc_samples=mc_samples, fixed_var=fixed_var,
                         rep_dim=rep, hidden=(7, 5), delta=delta, lam=0.3, sep_weight=0.7,
                         adversary_kl=adversary_kl)
    args = (x, ytil, enc_c, enc_cbar, head, prior_c, prior_cbar, config, eps_c, eps_cbar)
    players = ([*enc_c.parameters().values(), head.w], list(enc_cbar.parameters().values()))
    return args, players


def stack_players(enc_c, enc_cbar):
    """Each parameter pair as the two halves of one stack, as train()
    stores them when the twin plays."""
    for p, q in zip(enc_c.parameters().values(), enc_cbar.parameters().values()):
        p.data, q.data = np.stack((p.data, q.data))


# two domains at positions that interleave in the batch
TWO_DOMAINS = [np.array([0, 2, 3]), np.array([1, 4, 5])]
PENALTY = dict(domain_rows=TWO_DOMAINS, penalty_weight=0.3)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("mc_samples", [1, 2])
@pytest.mark.parametrize("fixed_var", [None, 0.3])
@pytest.mark.parametrize("saturated", [False, True])
@pytest.mark.parametrize("delta", [pytest.param(4.0, id="hinge-active"),
                                   pytest.param(0.0, id="hinge-inactive")])
def test_objective_matches_per_op_graph(variant, mc_samples, fixed_var, saturated, delta):
    """Each player's loss and its gradient in each of that player's
    parameters, separate and stacked."""
    for stacked in (False, True):
        args, players = objective_parts(variant, mc_samples, fixed_var, saturated, delta)
        if stacked:
            stack_players(*args[2:4])
        for role in (0, 1):
            if variant == "casn_minus_m" and role == 1:
                assert casn_objective(*args)[1] is None
                continue
            assert_same(lambda: casn_objective(*args, **PENALTY)[role],
                        lambda: ref_objective(*args, **PENALTY)[role], players[role])


@pytest.mark.parametrize("mc_samples", [1, 2])
def test_objective_matches_per_op_graph_on_coincident_pairs(mc_samples):
    args, players = objective_parts("casn", mc_samples, None, False, 1.1, coincident=True)
    for role in (0, 1):
        assert_same(lambda: casn_objective(*args)[role],
                    lambda: ref_objective(*args)[role], players[role])


def chain_sum(terms):
    """The weighted sum of term nodes built from generic add and mul
    nodes, term by term."""
    total = None
    for node, weight in terms:
        term = R.mul(node, weight)
        total = term if total is None else R.add(total, term)
    return total


def term_graph(x, ytil, enc_c, enc_cbar, head, prior_c, prior_cbar, config, eps_c, eps_cbar,
               domain_rows=None, penalty_weight=None):
    """The game as a graph of one node per loss term, from the package's
    term functions, summed by generic nodes: the walk whose order of
    gradient sums the fused losses reproduce.  Returns (objective, its
    negation or None)."""
    w = head.w
    neg_ytil = -np.tile(ytil, config.mc_samples)
    mean_c = R.node("encode", mlp_params(enc_c), enc_c.encode(x))
    kl_c = R.node("kl_node", posterior(enc_c, mean_c), enc_c.kl_node(mean_c.data, prior_c))
    c = R.node("draw", posterior(enc_c, mean_c), enc_c.draw(mean_c.data, eps_c))
    sf = R.node("surrogate_sf", [c, w], surrogate_sf(w.data, c.data, neg_ytil))
    if config.variant == "casn_minus_m":
        return chain_sum([(sf, 1.0), (kl_c, config.lam)]), None
    mean_cbar = R.node("encode", mlp_params(enc_cbar), enc_cbar.encode(x))
    kl_cbar = R.node("kl_node", posterior(enc_cbar, mean_cbar),
                     enc_cbar.kl_node(mean_cbar.data, prior_cbar))
    c_bar = R.node("draw", posterior(enc_cbar, mean_cbar), enc_cbar.draw(mean_cbar.data, eps_cbar))
    terms = [(R.node("surrogate_m", [c, c_bar, w], surrogate_m(w.data, c.data, c_bar.data)), 1.0),
             (sf, 1.0), (kl_c, config.lam),
             (R.node("separation_penalty", [c, c_bar],
                     separation_penalty(c.data, c_bar.data, config.delta)), config.sep_weight)]
    if config.adversary_kl:
        terms.append((kl_cbar, config.lam))
    if config.variant in ("casn_irm", "casn_mmd"):
        reps = [R.rows(mean_c, rows) for rows in domain_rows]
        arrays = [r.data for r in reps]
        if config.variant == "casn_mmd":
            penalty = R.node("mmd_penalty", reps, mmd_penalty(arrays))
        else:
            penalty = R.node("irm_penalty", [*reps, w], irm_penalty(
                w.data, arrays, [-ytil[rows] for rows in domain_rows]))
        terms.append((penalty, penalty_weight))
    game = chain_sum(terms)
    return game, R.neg(game)


def player_grad_bytes(loss, params):
    """Each parameter's gradient bytes from a full backward of 0.37 * loss,
    an upstream gradient other than 1."""
    for p in params:
        p.grad = None
    R.mul(loss, 0.37).backward()
    return [p.grad.tobytes() for p in params]


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("mc_samples", [1, 3])
@pytest.mark.parametrize("adversary_kl", [False, True])
def test_objective_sum_node_is_the_generic_chain_bytewise(variant, mc_samples, adversary_kl):
    """Each player's loss node is, to the byte in its value and in every
    gradient of its player's parameters, the term graph: one node per
    term summed by generic nodes, the twin's through a neg node.  So the
    fused backward adds the terms' contributions in the order that
    graph's walk adds them, for every variant, learned or fixed
    variance, separate or stacked players."""
    for fixed_var, stacked in ((None, False), (0.3, False), (None, True)):
        args, players = objective_parts(variant, mc_samples, fixed_var, False, 4.0,
                                        adversary_kl=adversary_kl)
        if stacked:
            stack_players(*args[2:4])
        fused = casn_objective(*args, **PENALTY)[:2]
        graph = term_graph(*args, **PENALTY)
        for role in (0, 1):
            if graph[role] is None:
                assert fused[role] is None
                continue
            assert fused[role].data.tobytes() == graph[role].data.tobytes()
            assert (player_grad_bytes(fused[role], players[role])
                    == player_grad_bytes(graph[role], players[role]))


# ---- each player's loss: one node over its own parameters ----

def step_losses(variant, mc_samples, adversary_kl):
    """Fresh parameters and the (min, max) step losses as train() builds
    them on a batch of two domains, the irm and mmd penalties included;
    returns the losses and the two players' parameters."""
    args, players = objective_parts(variant, mc_samples, None, False, 4.0,
                                    adversary_kl=adversary_kl)
    min_loss, max_loss, _ = casn_objective(*args, **PENALTY)
    return (min_loss, max_loss), players


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("mc_samples", [1, 2])
@pytest.mark.parametrize("adversary_kl", [False, True])
@pytest.mark.parametrize("player", [0, 1], ids=["min", "max"])
def test_backward_wrt_gives_each_player_the_full_gradient_bytes(variant, mc_samples,
                                                               adversary_kl, player):
    """A loss's parents are exactly its player's parameters, so its
    backward gives each of them a gradient and never reaches the other
    player."""
    losses, players = step_losses(variant, mc_samples, adversary_kl)
    if losses[player] is None:
        assert variant == "casn_minus_m"
        return
    assert losses[player].parents == tuple(players[player])
    losses[player].backward()
    for p in players[player]:
        assert p.grad.shape == p.data.shape, p.name
    for p in players[1 - player]:
        assert p.grad is None, p.name  # fresh, and the walk never reached it


def graph_size(loss):
    seen, stack = set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.parents)
    return len(seen)


def test_objective_graph_is_small():
    """Each player's loss is one node over its parameter leaves,
    whatever the variant, the twin's KL term or the penalty: 9 nodes for
    the min player (enc_c's 7 leaves and head.w), 8 for the twin, one
    fewer each with a fixed variance.  The input x is data, not a leaf."""
    for variant in VARIANTS:
        for adversary_kl in (True, False):
            for fixed_var, size in ((None, 9), (0.3, 8)):
                args, _ = objective_parts(variant, 1, fixed_var, False, 1.1,
                                          adversary_kl=adversary_kl)
                min_loss, max_loss, _ = casn_objective(*args, **PENALTY)
                assert graph_size(min_loss) == size, variant
                assert max_loss is None or graph_size(max_loss) == size - 1, variant


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("adversary_kl", [False, True])
def test_more_draws_add_no_nodes(variant, adversary_kl):
    """Each draw term is computed once over every draw's rows."""
    sizes = []
    for mc_samples in (1, 3):
        args, _ = objective_parts(variant, mc_samples, None, False, 1.1,
                                  adversary_kl=adversary_kl)
        losses = casn_objective(*args, **PENALTY)[:2]
        sizes.append([None if loss is None else graph_size(loss) for loss in losses])
    assert sizes[0] == sizes[1] == [9, None if variant == "casn_minus_m" else 8]


@pytest.mark.parametrize("variant", ["casn", "casn_irm", "casn_mmd"])
@pytest.mark.parametrize("mc_samples", [1, 2])
@pytest.mark.parametrize("adversary_kl", [False, True])
def test_twin_descends_the_negated_objective(variant, mc_samples, adversary_kl):
    """max_loss is min_loss negated to the bit, and the twin's gradient
    from it is the negation of the twin's gradient of the objective, as
    the term graph gives it."""
    grads = []
    for role in (0, 1):
        args, players = objective_parts(variant, mc_samples, None, False, 4.0,
                                        adversary_kl=adversary_kl)
        losses = casn_objective(*args, **PENALTY)[:2]
        loss = losses[1] if role else term_graph(*args, **PENALTY)[0]
        loss.backward()
        # adding 0.0 maps -0.0 to 0.0: a sum that cancels exactly is +0.0
        # under either sign
        grads.append([(p.grad * (1.0 - 2.0 * role) + 0.0).tobytes() for p in players[1]])
    assert (-losses[0].data).tobytes() == losses[1].data.tobytes()
    assert grads[0] == grads[1]


@pytest.mark.parametrize("variant", VARIANTS)
def test_each_encoder_runs_once_per_objective(variant, monkeypatch):
    """The penalties read their domains' rows out of the batch encode,
    and when the twin plays one stacked forward gives both means: each
    objective of train() runs one MLP forward, enc_c's alone for
    casn_minus_m and the stacked pair otherwise."""
    forwards = []
    stack = Mlp._stack
    monkeypatch.setattr(Mlp, "_stack", lambda mlp, h, inputs=None, pres=None, stacks=None: (
        forwards.append((mlp.layer_names[0], stacks is not None))
        or stack(mlp, h, inputs, pres, stacks)))
    objectives = []

    def counted(*args, **kwargs):
        start = len(forwards)
        result = casn_objective(*args, **kwargs)
        objectives.append(forwards[start:])
        return result

    monkeypatch.setattr(train_module, "casn_objective", counted)
    data = generate(SynthConfig(d=2, n_train=40, seed=3), 40)
    config = TrainConfig(variant=variant, total_steps=3, batch_size=16, rep_dim=3,
                         hidden=(6, 5), max_every=2, max_steps_per_phase=2)
    train(data, config, domains=np.arange(40) % 2)
    if variant == "casn_minus_m":
        assert objectives == [[("enc_c.mean layer 0", False)]] * 3
    else:
        assert objectives == [[("enc_c.mean layer 0", True)]] * 5


@pytest.mark.parametrize("variant", ["casn", "casn_minus_m"])
def test_stacked_halves_share_no_memory(variant):
    """When the twin plays, train() keeps each enc_c/twin parameter pair
    as the two halves of one stack, through every in-place update; no
    parameter of one player shares memory with the other's."""
    data = generate(SynthConfig(d=2, n_train=40, seed=3), 40)
    config = TrainConfig(variant=variant, total_steps=4, batch_size=16, rep_dim=3,
                         hidden=(6, 5), max_every=2, max_steps_per_phase=2, momentum=0.5)
    result = train(data, config)
    mins = [*result.enc_c.parameters().values(), result.head.w]
    twins = list(result.enc_cbar.parameters().values())
    for p in mins:
        for q in twins:
            assert not np.shares_memory(p.data, q.data), (p.name, q.name)
    for p, q in zip(mins, twins):
        if variant == "casn_minus_m":
            assert p.data.base is None and q.data.base is None
        else:
            assert p.data.base is q.data.base
            assert p.data.base.shape == (2, *p.data.shape)


# ---- gradients against central differences ----

def fused_losses():
    rng = np.random.default_rng(11)
    enc = encoder(None, seed=12)
    enc_fixed = encoder(0.3, seed=13)
    head = head_of(3, False, seed=14)
    x = rng.standard_normal((5, 4))
    c, c_bar = leaf(rng, (5, 3)), leaf(rng, (5, 3))
    eps = rng.standard_normal((5, 3))
    y = rng.integers(0, 2, size=5)
    prior = GaussianPrior(rng.standard_normal(3), rng.uniform(0.5, 2.0, 3))
    enc_params = list(enc.parameters().values())
    fixed_params = list(enc_fixed.parameters().values())
    groups = [leaf(rng, (k, 3)) for k in (2, 4, 3)]
    y_groups = [rng.integers(0, 2, size=k) for k in (2, 4, 3)]

    def squared_sum(node):
        return R.reduce_sum(R.square(node))

    def mean_of(e):
        return R.node("encode", mlp_params(e), e.encode(x))

    def draws(e):
        mean = mean_of(e)
        return R.node("draw", posterior(e, mean), e.draw(mean.data, eps))

    def kl(e):
        mean = mean_of(e)
        return R.node("kl_node", posterior(e, mean), e.kl_node(mean.data, prior))

    w = head.w
    arrays = [g.data for g in groups]
    return {
        "mlp": (lambda: squared_sum(mean_of(enc)), enc_params),
        "draw": (lambda: squared_sum(draws(enc)), enc_params),
        "draw-fixed": (lambda: squared_sum(draws(enc_fixed)), fixed_params),
        "kl": (lambda: kl(enc), enc_params),
        "kl-fixed": (lambda: kl(enc_fixed), fixed_params),
        "sf": (lambda: R.node("surrogate_sf", [c, w], surrogate_sf(w.data, c.data, -_ytil(y))),
               [c, w]),
        "m": (lambda: R.node("surrogate_m", [c, c_bar, w],
                             surrogate_m(w.data, c.data, c_bar.data)), [c, c_bar, w]),
        "separation": (lambda: R.node("separation_penalty", [c, c_bar],
                                      separation_penalty(c.data, c_bar.data, 2.5)), [c, c_bar]),
        "irm": (lambda: R.node("irm_penalty", [*groups, w], irm_penalty(
            w.data, arrays, [-_ytil(y) for y in y_groups])), [*groups, w]),
        "mmd": (lambda: R.node("mmd_penalty", groups, mmd_penalty(arrays)), groups),
    }


@pytest.mark.parametrize("name", list(fused_losses()))
def test_fused_op_gradients(name):
    build, params = fused_losses()[name]
    assert check_gradients(build, params) <= 1e-6


# ---- the checks the per-op graph made ----
#
# train() runs its steps under one np.errstate, so an op that overflows
# gives inf quietly and the node that made it raises, naming itself.  The
# tests below call each op under the same errstate, with warnings as errors.


@contextlib.contextmanager
def overflow_raises(op):
    """np.errstate as train() sets it, warnings as errors, and an
    expected FloatingPointError naming op."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match=f"^{op} produced a non-finite value$"):
            yield


@pytest.mark.parametrize("op", ["kl_node", "draw"])
def test_exp_overflow_raises_before_numpy_warns(op):
    enc = encoder(None)
    mean = Tensor(np.zeros((2, 3)))
    enc.log_var.data = np.full(3, 1500.0)
    with overflow_raises(op):
        if op == "kl_node":
            R.node(op, posterior(enc, mean), enc.kl_node(mean.data, GaussianPrior.standard(3)))
        else:
            R.node(op, posterior(enc, mean), enc.draw(mean.data, np.ones((2, 3))))


def test_kl_mean_overflow_raises_without_a_warning():
    enc = encoder(None)
    mean = Tensor(np.full((2, 3), 1e200))
    with overflow_raises("kl_node"):
        R.node("kl_node", posterior(enc, mean), enc.kl_node(mean.data, GaussianPrior.standard(3)))


def test_separation_overflow_raises_without_a_warning():
    c = np.full((2, 3), 1e200)
    with overflow_raises("separation_penalty"):
        separation_penalty(c, -c, 1.0)


def test_mmd_overflow_raises_without_a_warning():
    c = np.full((2, 3), 1e200)
    with overflow_raises("mmd_penalty"):
        mmd_penalty([c, -c])


def test_hidden_pre_activation_overflow_names_the_layer():
    """An ELU maps -inf to -1, so the output alone would look finite;
    the graph and the graph-free forward both check the layer itself."""
    enc = encoder(None, prefix="enc_c")
    enc.mlp.biases[1].data = np.full(5, -np.inf)
    x = np.ones((2, 4))
    assert np.expm1(-np.inf) == -1.0
    for forward in (enc.encode, enc.encode_np):
        with pytest.raises(FloatingPointError, match="^enc_c.mean layer 1 produced a non-finite"):
            forward(x)


def test_output_layer_overflow_names_the_layer():
    enc = encoder(None, prefix="enc_c")
    enc.mlp.biases[2].data = np.full(3, np.inf)
    with pytest.raises(FloatingPointError, match="^enc_c.mean layer 2 produced a non-finite"):
        enc.encode(np.ones((2, 4)))


def test_non_finite_delta_is_refused():
    """TrainConfig refuses a nan delta; given one anyway, the hinge is nan."""
    c = Tensor(np.zeros((2, 3)))
    with overflow_raises("separation_penalty"):
        R.node("separation_penalty", [c, c], separation_penalty(c.data, c.data, float("nan")))


@pytest.mark.parametrize("plant, op", [
    ("enc_c layer 2", "enc_c.mean layer 2"),
    ("kl_c", "kl_node"),
    (None, "enc_cbar.mean layer 0"),
])
def test_stacked_twin_overflow_is_named_after_the_ops_before_it(plant, op):
    """One stacked forward runs both encoders, but a twin layer that
    overflows with a later enc_c layer or kl_c is reported after them,
    as when enc_c, kl_c and then the twin ran one at a time."""
    args, _ = objective_parts("casn", 1, None, False, 1.1)
    enc_c, enc_cbar = args[2:4]
    stack_players(enc_c, enc_cbar)
    assert model_module._forward_pair(enc_c.mlp, enc_cbar.mlp, args[0]) is not None
    # in place, so each parameter stays a half of its stack
    enc_cbar.mlp.biases[0].data[:] = np.inf
    if plant == "enc_c layer 2":
        enc_c.mlp.biases[2].data[:] = np.inf
    elif plant == "kl_c":
        enc_c.log_var.data[:] = 1500.0
    with overflow_raises(op):
        casn_objective(*args)
