"""The fused training-step ops against the per-op graph they replace.

Each fused op (the MLP, the draw, the KL term, both surrogates and the
separation hinge) is one graph node with an analytic backward.  The
reference below builds the same quantities node by node from the
generic ops in pnsrisk.autodiff, as the step was built before fusion,
and every test compares values and every parameter gradient.
"""

import warnings

import numpy as np
import pytest

from pnsrisk.autodiff import affine, check_gradients, constant, elu, parameter, relu
from pnsrisk.autodiff import sigmoid, softplus
from pnsrisk.model import (
    GaussianEncoder,
    GaussianPrior,
    LinearHead,
    clone_perturbed,
    surrogate_m,
    surrogate_sf,
)
from pnsrisk.train import TrainConfig, casn_objective, separation_penalty

# fused and per-op results agree to this fraction of the largest gradient
RTOL = 1e-12


# ---- the per-op reference graph ----

def ref_mlp(mlp, x):
    h = x
    last = len(mlp.weights) - 1
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        h = affine(h, w, b)
        if i != last:
            h = elu(h)
    return h


def ref_draw(enc, mean, eps):
    eps_t = constant(np.asarray(eps, dtype=np.float64))
    if enc.fixed_var is not None:
        return mean + eps_t * np.sqrt(enc.fixed_var)
    return mean + eps_t * (enc.log_var * 0.5).exp()


def ref_kl(enc, mean, prior):
    n, rep = mean.data.shape
    inv_pv = 1.0 / prior.var
    diff = mean - constant(prior.mean)
    mean_part = (diff * diff * constant(inv_pv)).sum(axis=1).mean()
    log_pv_sum = float(np.log(prior.var).sum())
    if enc.fixed_var is not None:
        var_part = constant(log_pv_sum - rep * np.log(enc.fixed_var)
                            + float((enc.fixed_var * inv_pv).sum()) - rep)
    else:
        var_part = ((enc.log_var.exp() * constant(inv_pv)).sum()
                    - enc.log_var.sum() + constant(log_pv_sum - rep))
    return (var_part + mean_part) * 0.5


def ref_logits(head, c):
    z = c @ head.w
    if head.b is not None:
        # the generic add broadcasts a scalar across rows, not a (1,) vector
        z = z + head.b.sum()
    return z


def ref_sf(head, c, y):
    neg_ytil = -(np.asarray(y, dtype=np.float64) * 2.0 - 1.0)
    return softplus(ref_logits(head, c) * constant(neg_ytil)).mean()


def ref_m(head, c, c_bar):
    p = sigmoid(ref_logits(head, c))
    q = sigmoid(ref_logits(head, c_bar))
    one = constant(1.0)
    return (p * q + (one - p) * (one - q)).mean()


def ref_separation(c, c_bar, delta):
    diff = c - c_bar
    dist = ((diff * diff).sum(axis=1) + 1e-18).sqrt()
    return relu(constant(float(delta)) - dist).square().mean()


def ref_objective(x, y, enc_c, enc_cbar, head, prior_c, prior_cbar, config,
                  eps_c, eps_cbar):
    s_draws = config.mc_samples
    mean_c = ref_mlp(enc_c.mlp, constant(x))
    kl_c = ref_kl(enc_c, mean_c, prior_c)
    if config.variant == "casn_minus_m":
        sf = None
        for k in range(s_draws):
            term = ref_sf(head, ref_draw(enc_c, mean_c, eps_c[k]), y)
            sf = term if sf is None else sf + term
        sf = sf * (1.0 / s_draws)
        return sf + kl_c * config.lam, None
    mean_cbar = ref_mlp(enc_cbar.mlp, constant(x))
    kl_cbar = ref_kl(enc_cbar, mean_cbar, prior_cbar)
    sf = m = hinge = None
    for k in range(s_draws):
        c = ref_draw(enc_c, mean_c, eps_c[k])
        c_bar = ref_draw(enc_cbar, mean_cbar, eps_cbar[k])
        sf_k = ref_sf(head, c, y)
        m_k = ref_m(head, c, c_bar)
        h_k = ref_separation(c, c_bar, config.delta)
        sf = sf_k if sf is None else sf + sf_k
        m = m_k if m is None else m + m_k
        hinge = h_k if hinge is None else hinge + h_k
    scale = 1.0 / s_draws
    sf, m, hinge = sf * scale, m * scale, hinge * scale
    base = m + sf + kl_c * config.lam + hinge * config.sep_weight
    min_loss = base + kl_cbar * config.lam
    return min_loss, (-min_loss if config.adversary_kl else -base)


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


def head_of(rep, bias, seed=0):
    head = LinearHead(rep, rng=np.random.default_rng(seed), bias=bias)
    if bias:
        head.b.data = np.array([0.3])
    return head


def leaf(rng, shape):
    return parameter(rng.standard_normal(shape))


# ---- fused ops, one at a time ----

def _same_weights(seed, shape):
    """A fresh generator per build, so both graphs see the same weights."""
    return lambda: constant(np.random.default_rng(seed).standard_normal(shape))


@pytest.mark.parametrize("hidden", [(7, 5), (6,), ()])
def test_mlp_matches_per_op_graph(hidden):
    rng = np.random.default_rng(1)
    mlp = encoder(None, hidden=hidden).mlp
    x = leaf(rng, (9, 4))
    weights = _same_weights(2, (9, 3))
    params = [x] + list(mlp.parameters().values())
    assert_same(lambda: (mlp.forward(x) * weights()).sum(),
                lambda: (ref_mlp(mlp, x) * weights()).sum(), params)


@pytest.mark.parametrize("fixed_var", [None, 0.3])
def test_draw_matches_per_op_graph(fixed_var):
    rng = np.random.default_rng(2)
    enc = encoder(fixed_var)
    mean = leaf(rng, (6, 3))
    eps = rng.standard_normal((6, 3))
    weights = _same_weights(3, (6, 3))
    params = [mean] + ([enc.log_var] if fixed_var is None else [])
    assert_same(lambda: (enc.draw(mean, eps) * weights()).sum(),
                lambda: (ref_draw(enc, mean, eps) * weights()).sum(), params)


@pytest.mark.parametrize("fixed_var", [None, 0.3])
def test_kl_matches_per_op_graph(fixed_var):
    rng = np.random.default_rng(4)
    enc = encoder(fixed_var)
    mean = leaf(rng, (6, 3))
    prior = GaussianPrior(rng.standard_normal(3), rng.uniform(0.5, 2.0, 3))
    params = [mean] + ([enc.log_var] if fixed_var is None else [])
    assert_same(lambda: enc.kl_node(mean, prior), lambda: ref_kl(enc, mean, prior), params)


@pytest.mark.parametrize("bias", [False, True])
def test_surrogates_match_per_op_graph(bias):
    rng = np.random.default_rng(5)
    head = head_of(3, bias)
    c, c_bar = leaf(rng, (8, 3)), leaf(rng, (8, 3))
    y = rng.integers(0, 2, size=8)
    params = [c, c_bar] + list(head.parameters().values())
    assert_same(lambda: surrogate_sf(head, c, y), lambda: ref_sf(head, c, y), params)
    assert_same(lambda: surrogate_m(head, c, c_bar), lambda: ref_m(head, c, c_bar), params)
    # one node on both sides of the agreement term
    assert_same(lambda: surrogate_m(head, c, c), lambda: ref_m(head, c, c), params)


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
    assert_same(lambda: separation_penalty(c, c_bar, delta),
                lambda: ref_separation(c, c_bar, delta), [c, c_bar])


# ---- the whole step objective ----

def objective_parts(variant, mc_samples, fixed_var, bias, delta, coincident=False):
    rng = np.random.default_rng(7)
    n, rep = 6, 3
    x = rng.standard_normal((n, 4))
    y = rng.integers(0, 2, size=n)
    enc_c = encoder(fixed_var, seed=8, prefix="enc_c")
    if coincident:
        enc_cbar = clone_perturbed(enc_c, rng, scale=0.0)
    else:
        enc_cbar = encoder(fixed_var, seed=9, prefix="enc_cbar")
    head = head_of(rep, bias, seed=10)
    prior_c = GaussianPrior(rng.standard_normal(rep), rng.uniform(0.5, 2.0, rep))
    prior_cbar = GaussianPrior.standard(rep)
    eps_c = rng.standard_normal((mc_samples, n, rep))
    eps_cbar = eps_c.copy() if coincident else rng.standard_normal((mc_samples, n, rep))
    config = TrainConfig(variant=variant, mc_samples=mc_samples, fixed_var=fixed_var,
                         rep_dim=rep, hidden=(7, 5), delta=delta, lam=0.3, sep_weight=0.7,
                         adversary_kl=False)
    args = (x, y, enc_c, enc_cbar, head, prior_c, prior_cbar, config, eps_c, eps_cbar)
    params = (list(enc_c.parameters().values()) + list(head.parameters().values())
              + list(enc_cbar.parameters().values()))
    return args, params


@pytest.mark.parametrize("variant", ["casn", "casn_minus_m"])
@pytest.mark.parametrize("mc_samples", [1, 2])
@pytest.mark.parametrize("fixed_var", [None, 0.3])
@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("delta", [pytest.param(4.0, id="hinge-active"),
                                   pytest.param(0.0, id="hinge-inactive")])
def test_objective_matches_per_op_graph(variant, mc_samples, fixed_var, bias, delta):
    args, params = objective_parts(variant, mc_samples, fixed_var, bias, delta)
    assert_same(lambda: casn_objective(*args)[0], lambda: ref_objective(*args)[0], params)
    if variant == "casn":
        assert_same(lambda: casn_objective(*args)[1], lambda: ref_objective(*args)[1], params)
    else:
        assert casn_objective(*args)[1] is None


@pytest.mark.parametrize("mc_samples", [1, 2])
def test_objective_matches_per_op_graph_on_coincident_pairs(mc_samples):
    args, params = objective_parts("casn", mc_samples, None, False, 1.1, coincident=True)
    for role in (0, 1):
        assert_same(lambda: casn_objective(*args)[role],
                    lambda: ref_objective(*args)[role], params)


def graph_size(loss):
    seen, stack = set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.parents)
    return len(seen)


def test_objective_graph_is_small():
    """One node per fused op: 17 leaves, 9 fused nodes and 16 for the
    scalar combination of the casn objective at one draw."""
    args, _ = objective_parts("casn", 1, None, False, 1.1)
    min_loss, _, _ = casn_objective(*args)
    assert graph_size(min_loss) == 42


# ---- gradients against central differences ----

def fused_losses():
    rng = np.random.default_rng(11)
    enc = encoder(None, seed=12)
    enc_fixed = encoder(0.3, seed=13)
    head, head_b = head_of(3, False, seed=14), head_of(3, True, seed=15)
    x = rng.standard_normal((5, 4))
    c, c_bar = leaf(rng, (5, 3)), leaf(rng, (5, 3))
    eps = rng.standard_normal((5, 3))
    y = rng.integers(0, 2, size=5)
    prior = GaussianPrior(rng.standard_normal(3), rng.uniform(0.5, 2.0, 3))
    enc_params = list(enc.parameters().values())
    fixed_params = list(enc_fixed.parameters().values())
    return {
        "mlp": (lambda: enc.encode(x).square().sum(), enc_params),
        "draw": (lambda: enc.draw(enc.encode(x), eps).square().sum(), enc_params),
        "draw-fixed": (lambda: enc_fixed.draw(enc_fixed.encode(x), eps).square().sum(),
                       fixed_params),
        "kl": (lambda: enc.kl_node(enc.encode(x), prior), enc_params),
        "kl-fixed": (lambda: enc_fixed.kl_node(enc_fixed.encode(x), prior), fixed_params),
        "sf": (lambda: surrogate_sf(head, c, y), [c, head.w]),
        "sf-bias": (lambda: surrogate_sf(head_b, c, y), [c, head_b.w, head_b.b]),
        "m": (lambda: surrogate_m(head, c, c_bar), [c, c_bar, head.w]),
        "m-bias": (lambda: surrogate_m(head_b, c, c_bar), [c, c_bar, head_b.w, head_b.b]),
        "separation": (lambda: separation_penalty(c, c_bar, 2.5), [c, c_bar]),
    }


@pytest.mark.parametrize("name", list(fused_losses()))
def test_fused_op_gradients(name):
    build, params = fused_losses()[name]
    assert check_gradients(build, params) <= 1e-6


# ---- the checks the per-op graph made ----

@pytest.mark.parametrize("op", ["kl_node", "draw"])
def test_exp_overflow_raises_before_numpy_warns(op):
    enc = encoder(None)
    mean = constant(np.zeros((2, 3)))
    enc.log_var.data = np.full(3, 1500.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(FloatingPointError, match="exp overflow"):
            if op == "kl_node":
                enc.kl_node(mean, GaussianPrior.standard(3))
            else:
                enc.draw(mean, np.ones((2, 3)))


def test_hidden_pre_activation_overflow_names_the_layer():
    """An ELU maps -inf to -1, so the output alone would look finite."""
    enc = encoder(None, prefix="enc_c")
    enc.mlp.biases[1].data = np.full(5, -np.inf)
    x = np.ones((2, 4))
    assert np.isfinite(enc.mlp.forward_np(x)).all()
    with pytest.raises(FloatingPointError, match="^enc_c.mean layer 1 produced a non-finite"):
        enc.encode(x)


def test_output_layer_overflow_names_the_layer():
    enc = encoder(None, prefix="enc_c")
    enc.mlp.biases[2].data = np.full(3, np.inf)
    with pytest.raises(FloatingPointError, match="^enc_c.mean layer 2 produced a non-finite"):
        enc.encode(np.ones((2, 4)))


def test_non_finite_delta_is_refused():
    c = constant(np.zeros((2, 3)))
    with pytest.raises(FloatingPointError, match="entering the graph"):
        separation_penalty(c, c, float("nan"))
