"""Gaussian representation encoder, linear labeler, and their surrogates.

The encoder is a three-layer perceptron producing the posterior mean of
a diagonal Gaussian over representations; the variance is either a
learned per-dimension vector shared across inputs or a fixed constant.
Sampling is reparameterized (mean + sd * eps) so gradients reach the
encoder parameters.  The labeler is the linear rule sign(c @ w), with no
bias; the tie c @ w = 0 maps to label 1.

Each term of the training objective (the MLP, the KL term, the draw and
both surrogates) is one numpy function on arrays that returns its value
and its vector-Jacobian product (vjp): Mlp._forward behind
GaussianEncoder.encode, GaussianEncoder.kl_node and draw, surrogate_sf
and surrogate_m.  The training step (pnsrisk.train.casn_objective) calls
them and adds their vjps into one loss node per player; there are no
per-term graph nodes.

Two differentiable surrogates stand in for the indicator quantities:

* sufficiency surrogate: mean softplus(-ytil * w.c), ytil = 2y - 1,
* agreement surrogate:   mean of p*q + (1-p)*(1-q) over draw pairs,
  p = sigmoid(w.c), q = sigmoid(w.cbar),

both of which approach the indicators as |w.c| grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, parameter, sigmoid_np

__all__ = [
    "Mlp",
    "GaussianEncoder",
    "LinearHead",
    "GaussianPrior",
    "predict",
    "surrogate_sf",
    "surrogate_m",
    "clone_perturbed",
    "save_checkpoint",
    "load_checkpoint",
]


def _mlp_vjp(weights, inputs, pres):
    """The backward of one Mlp._stack forward: maps the gradient at its
    output to the gradients of (w0, b0, w1, b1, ...)."""
    last = len(weights) - 1

    def vjp(g):
        grads = [None] * (2 * last + 2)
        for i in range(last, -1, -1):
            if i != last:
                g = g * np.exp(np.minimum(pres[i], 0.0))  # exactly 1 where pre > 0
            grads[2 * i] = inputs[i].T @ g
            grads[2 * i + 1] = g.sum(axis=0)
            if i:
                g = g @ weights[i].T
        return grads

    return vjp


class Mlp:
    """in -> 128 -> 32 -> out, ELU between layers, linear output."""

    def __init__(self, in_dim, out_dim, hidden=(128, 32), rng=None, prefix="mlp"):
        if rng is None:
            rng = np.random.default_rng(0)
        self.hidden = tuple(hidden)
        dims = (in_dim, *self.hidden, out_dim)
        self.layer_names = tuple(f"{prefix} layer {i}" for i in range(len(dims) - 1))
        self.weights = []
        self.biases = []
        for i, (a, b) in enumerate(zip(dims[:-1], dims[1:])):
            w = parameter(rng.standard_normal((a, b)) / np.sqrt(a), name=f"{prefix}.w{i}")
            self.weights.append(w)
            self.biases.append(parameter(np.zeros(b), name=f"{prefix}.b{i}"))

    def _stack(self, h, inputs=None, pres=None, stacks=None):
        """The affine+ELU hidden layers, then the linear output layer, on
        the array h.  Every pre-activation is checked for finiteness, with
        an error naming the layer: an ELU maps -inf to -1, so a check of
        the output alone would hide an overflow.  Given lists, the graph
        path collects each layer's input and each hidden pre-activation.
        Given stacks, the (2, a, b) weights and then the (2, b) biases of
        this MLP and its twin, it runs both at once (see _forward_pair)."""
        depth = len(self.weights)
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if inputs is not None:
                inputs.append(h)
            if stacks is None:
                h = h @ w.data + b.data
            else:
                h = h @ stacks[i] + stacks[depth + i][:, None]
            if not np.isfinite(h).all():
                raise FloatingPointError(f"{self.layer_names[i]} produced a non-finite value")
            if i == depth - 1:
                return h
            if pres is not None:
                pres.append(h)
            h = np.where(h > 0.0, h, np.expm1(np.minimum(h, 0.0)))

    def _input(self, x):
        """The data batch x as a float64 matrix that fits the first layer."""
        h = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if h.ndim != 2 or h.shape[1] != self.weights[0].shape[0]:
            raise ValueError(f"mlp: input shape {h.shape} does not fit {self.weights[0].shape}")
        return h

    def _forward(self, x):
        """(out, vjp) of the whole stack on a data batch x; vjp maps the
        gradient at the output to the gradients of parameters()."""
        inputs, pres = [], []
        out = self._stack(self._input(x), inputs, pres)
        return out, _mlp_vjp([w.data for w in self.weights], inputs, pres)

    def forward_np(self, x):
        """Graph-free forward for evaluation and Monte Carlo estimation.
        An overflow raises the layer's FloatingPointError, not a numpy
        warning."""
        with np.errstate(over="ignore", invalid="ignore"):
            return self._stack(np.atleast_2d(np.asarray(x, dtype=np.float64)))

    def parameters(self):
        out = {}
        for w, b in zip(self.weights, self.biases):
            out[w.name] = w
            out[b.name] = b
        return out


def _forward_pair(mlp, twin, x):
    """Both MLPs on the data batch x as one stacked forward, as
    ((out, vjp), (twin_out, twin_vjp)).  It runs when each of their
    parameter pairs is the two halves, mlp's first, of one (2, ...)
    array, as train() stores them; it returns None when they are not,
    or when a layer is non-finite, so that the caller runs them one at a
    time and the first non-finite layer raises in the order they run."""
    stacks = []
    for p, q in zip(mlp.weights + mlp.biases, twin.weights + twin.biases):
        stack = p.data.base
        if stack is None or q.data.base is not stack or len(stack) != 2 or p is q:
            return None
        stacks.append(stack)
    h = mlp._input(x)
    weights = stacks[:len(mlp.weights)]
    inputs, pres = [], []
    try:
        out = mlp._stack(h, inputs, pres, stacks)
    except FloatingPointError:
        return None
    return tuple((out[k], _mlp_vjp([w[k] for w in weights], [h] + [a[k] for a in inputs[1:]],
                                   [a[k] for a in pres]))
                 for k in (0, 1))


@dataclass(frozen=True)
class GaussianPrior:
    """Diagonal Gaussian the posteriors are pulled toward.  Plain arrays:
    priors take no part in optimization.  1 / var and sum(log var), which
    every KL term reads, are computed once here."""

    mean: np.ndarray
    var: np.ndarray
    inv_var: np.ndarray = field(init=False, repr=False, compare=False)
    log_var_sum: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=np.float64))
        object.__setattr__(self, "var", np.asarray(self.var, dtype=np.float64))
        if self.mean.shape != self.var.shape or self.mean.ndim != 1:
            raise ValueError("prior mean and var must be matching vectors")
        if np.any(self.var <= 0.0):
            raise ValueError("prior variance must be strictly positive")
        object.__setattr__(self, "inv_var", 1.0 / self.var)
        object.__setattr__(self, "log_var_sum", float(np.log(self.var).sum()))

    @classmethod
    def standard(cls, dim):
        return cls(np.zeros(dim), np.ones(dim))


class GaussianEncoder:
    """Diagonal-Gaussian posterior over representations.

    fixed_var=None learns log-variance per dimension (one vector shared
    across inputs); a float freezes the variance at that value.
    """

    def __init__(self, in_dim, rep_dim=64, hidden=(128, 32), rng=None,
                 fixed_var=None, prefix="enc"):
        self.in_dim = in_dim
        self.rep_dim = rep_dim
        self.prefix = prefix
        self.mlp = Mlp(in_dim, rep_dim, hidden=hidden, rng=rng, prefix=f"{prefix}.mean")
        if fixed_var is None:
            self.log_var = parameter(np.zeros(rep_dim), name=f"{prefix}.log_var")
            self.fixed_var = None
        else:
            if fixed_var <= 0.0:
                raise ValueError("fixed_var must be strictly positive")
            self.log_var = None
            self.fixed_var = float(fixed_var)

    def encode(self, x):
        """(mean, vjp): the posterior mean of a data batch x, shape
        (n, rep_dim), and the map from its gradient to the gradients of
        the mean network's parameters (Mlp._forward)."""
        return self.mlp._forward(x)

    def var_np(self):
        """The posterior variance; a learned one that overflows raises."""
        if self.fixed_var is not None:
            return np.full(self.rep_dim, self.fixed_var)
        with np.errstate(over="ignore"):
            var = np.exp(self.log_var.data)
        if not np.isfinite(var).all():
            raise FloatingPointError(f"{self.prefix}.log_var produced a non-finite value")
        return var

    def encode_np(self, x):
        mean = self.mlp.forward_np(x)
        return mean, np.broadcast_to(self.var_np(), mean.shape)

    def draw(self, mean, eps):
        """(value, vjp) of the reparameterized draws mean + sd * eps from
        a posterior-mean array; vjp maps the gradient at the draws to the
        gradients of (mean, [log_var]), so gradients flow to the mean
        network and the log-variance, not to the noise eps.  eps of shape
        (n, rep_dim) gives one draw per row; eps of shape
        (draws, n, rep_dim) gives every draw's rows, draw-major, as one
        (draws * n, rep_dim) array."""
        shape = mean.shape
        draws = np.asarray(eps, dtype=np.float64)
        if draws.ndim not in (2, 3) or draws.shape[-2:] != shape:
            raise ValueError(f"eps shape {draws.shape} does not fit mean shape {shape}")
        draws = draws.reshape(-1, *shape)
        fixed = self.fixed_var is not None
        sd = np.sqrt(self.fixed_var) if fixed else np.exp(self.log_var.data * 0.5)

        def vjp(g):
            g_mean = g if len(draws) == 1 else g.reshape(draws.shape).sum(axis=0)
            if fixed:
                return (g_mean,)
            return (g_mean, (g * draws.reshape(g.shape)).sum(axis=0) * sd * 0.5)

        return (mean + draws * sd).reshape(-1, shape[1]), vjp

    def kl_node(self, mean, prior):
        """(value, vjp) of the mean-over-batch KL(q(.|x) || prior) on a
        posterior-mean array; vjp maps the gradient at the KL to the
        gradients of (mean, [log_var]).  The name is the one the
        benchmark's model.kl_node span times.

        Closed form for diagonal Gaussians; the variance part is shared
        across the batch because the posterior variance does not depend
        on x.  A term that overflows makes the value inf, which the
        caller's finiteness check reports as kl_node's.
        """
        n, rep = mean.shape
        inv_pv = prior.inv_var
        diff = mean - prior.mean
        mean_part = (diff * diff * inv_pv).sum(axis=1).sum() * (1.0 / n)

        def mean_grad(half):
            g = half * (1.0 / n) * inv_pv * diff
            return g + g

        if self.fixed_var is not None:
            var_part = (prior.log_var_sum - rep * np.log(self.fixed_var)
                        + float((self.fixed_var * inv_pv).sum()) - rep)
            return (var_part + mean_part) * 0.5, lambda g: (mean_grad(g * 0.5),)
        log_var = self.log_var.data
        var = np.exp(log_var)
        var_part = (var * inv_pv).sum() - log_var.sum() + (prior.log_var_sum - rep)

        def vjp(g):
            half = g * 0.5
            return (mean_grad(half), half * inv_pv * var - half)

        return (var_part + mean_part) * 0.5, vjp

    def parameters(self):
        out = self.mlp.parameters()
        if self.log_var is not None:
            out[self.log_var.name] = self.log_var
        return out


class LinearHead:
    """Linear labeler over representations: logit = c @ w, no bias."""

    def __init__(self, rep_dim, rng=None, prefix="head"):
        if rng is None:
            rng = np.random.default_rng(0)
        self.w = parameter(rng.standard_normal(rep_dim) / np.sqrt(rep_dim), name=f"{prefix}.w")

    def logits_np(self, c):
        return np.asarray(c, dtype=np.float64) @ self.w.data

    def parameters(self):
        return {self.w.name: self.w}


def predict(head, encoder, x):
    """Hard labels from the posterior mean: 1 where the logit is >= 0.

    The tie logit == 0 maps to label 1.
    """
    mean, _ = encoder.encode_np(x)
    return (head.logits_np(mean) >= 0.0).astype(np.int64)


def _w_grad(pairs):
    """Gradient of the labeler's w from (c, dL/dz) array pairs."""
    return sum(c.T @ g_z for c, g_z in pairs)


def _ytil(y):
    y = np.asarray(y)
    if not ((y == 0) | (y == 1)).all():
        raise ValueError("labels must be 0 or 1")
    return y.astype(np.float64) * 2.0 - 1.0


def surrogate_sf(w, c, neg_ytil):
    """(value, vjp) of the differentiable stand-in for
    P(sign(w.c) != y) on representation rows c, labels given as -ytil
    (ytil = 2y - 1): the mean softplus of the margin deficit -ytil * w.c.
    It equals ln 2 at w.c = 0 and decays to the indicator as the margin
    grows.  vjp gives the gradients of (c, w)."""
    a = (c @ w) * neg_ytil
    scale = 1.0 / a.shape[0]
    e = np.exp(-np.abs(a))
    out = (np.maximum(a, 0.0) + np.log1p(e)).sum() * scale

    def vjp(g):
        g_z = g * scale * sigmoid_np(a, e) * neg_ytil
        return g_z[:, None] * w, _w_grad(((c, g_z),))

    return out, vjp


def surrogate_m(w, c, c_bar):
    """(value, vjp) of the differentiable stand-in for the probability
    that the two routes agree in sign, on paired representation rows:
    the mean over pairs of p*q + (1-p)*(1-q), p = sigmoid(w.c),
    q = sigmoid(w.cbar).  vjp gives the gradients of (c, c_bar, w)."""
    if c.shape != c_bar.shape:
        raise ValueError(f"surrogate_m: {c.shape} vs {c_bar.shape}")
    # rows (p, q) and (1 - p, 1 - q): each elementwise op runs once for both
    pq = sigmoid_np(np.concatenate((c @ w, c_bar @ w)).reshape(2, -1))
    pq1 = 1.0 - pq
    (p, q), (p1, q1) = pq, pq1
    scale = 1.0 / p.shape[0]
    out = (p * q + p1 * q1).sum() * scale

    def vjp(g):
        g = g * scale
        # row 0 is (g*q - g*(1-q)) * p * (1-p), row 1 the same with p, q swapped
        g_zc, g_zb = (g * pq[::-1] - g * pq1[::-1]) * pq * pq1
        return g_zc[:, None] * w, g_zb[:, None] * w, _w_grad(((c, g_zc), (c_bar, g_zb)))

    return out, vjp


def clone_perturbed(encoder, rng, scale=0.01):
    """Fresh encoder with the same architecture whose parameters start a
    small random step away from the source's."""
    twin = GaussianEncoder(
        encoder.in_dim,
        rep_dim=encoder.rep_dim,
        hidden=encoder.mlp.hidden,
        rng=np.random.default_rng(0),
        fixed_var=encoder.fixed_var,
        prefix=f"{encoder.prefix}_twin",
    )
    src = list(encoder.parameters().values())
    dst = list(twin.parameters().values())
    for s, d in zip(src, dst):
        d.data = s.data + scale * rng.standard_normal(s.data.shape)
    return twin


# ---- checkpoint format ----
#
# Plain text, bit-exact through float hex:
#
#   pnsrisk-checkpoint 1
#   meta <key> <value>
#   param <name> <d0> [<d1> ...]      (a scalar is written with shape 0)
#   <up to 8 hex floats per line, row-major, until the shape is filled>

_MAGIC = "pnsrisk-checkpoint 1"


def _one_token(what, token):
    if str(token).split() != [str(token)]:
        raise ValueError(f"{what} {token!r} must be non-empty and contain no whitespace")


def save_checkpoint(path, params, meta=None):
    """params: {name: Tensor or ndarray}; meta: {str: str}.  Refused with
    ValueError, before the file is opened, is anything load_checkpoint
    refuses: zero-size arrays (their header would read as a scalar's),
    nan or inf, empty names or keys and ones holding whitespace, and
    meta values with line breaks, tabs, or doubled or edge spaces."""
    lines = [_MAGIC]
    for key, value in (meta or {}).items():
        _one_token("meta key", key)
        if " ".join(str(value).split()) != str(value):
            raise ValueError(f"meta value {value!r} of {key} must be words separated "
                             "by single spaces")
        lines.append(f"meta {key} {value}")
    for name, value in params.items():
        _one_token("parameter name", name)
        arr = value.data if isinstance(value, Tensor) else np.asarray(value, dtype=np.float64)
        if arr.size == 0:
            raise ValueError(f"parameter {name} has no elements")
        if not np.isfinite(arr).all():
            raise ValueError(f"parameter {name} holds a non-finite value")
        dims = " ".join(str(d) for d in arr.shape) if arr.ndim else "0"
        lines.append(f"param {name} {dims}")
        flat = arr.reshape(-1)
        for start in range(0, flat.size, 8):
            lines.append(" ".join(float(v).hex() for v in flat[start : start + 8]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_checkpoint(path):
    """Returns ({name: ndarray}, {meta key: value}).  A malformed file,
    or one holding a nan or inf, raises ValueError("<path>:<line>: ...")."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != _MAGIC:
        raise ValueError(f"{path}: not a checkpoint file")
    params = {}
    meta = {}
    i = 1
    while i < len(lines):
        tokens = lines[i].split()
        i += 1
        if tokens[:1] == ["meta"] and len(tokens) >= 2:
            if tokens[1] in meta:
                raise ValueError(f"{path}:{i}: repeated meta key {tokens[1]}")
            meta[tokens[1]] = " ".join(tokens[2:])
            continue
        if tokens[:1] != ["param"] or len(tokens) < 3:
            raise ValueError(f"{path}:{i}: expected a meta or param line, got {lines[i - 1]!r}")
        name = tokens[1]
        if name in params:
            raise ValueError(f"{path}:{i}: repeated parameter {name}")
        shape = tuple(int(d) if d.isdecimal() else -1 for d in tokens[2:])
        shape = () if shape == (0,) else shape
        if any(d < 1 for d in shape):
            raise ValueError(f"{path}:{i}: bad shape for parameter {name}: {lines[i - 1]!r}")
        count = int(np.prod(shape))
        values = []
        while len(values) < count:
            if i == len(lines):
                raise ValueError(f"{path}:{i}: parameter {name} ends after "
                                 f"{len(values)} of {count} values")
            try:
                row = [float.fromhex(tok) for tok in lines[i].split()]
            except ValueError:
                raise ValueError(f"{path}:{i + 1}: bad hex float in parameter {name}") from None
            i += 1
            if not all(map(math.isfinite, row)):
                raise ValueError(f"{path}:{i}: non-finite value in parameter {name}")
            values.extend(row)
        if len(values) != count:
            raise ValueError(f"{path}:{i}: parameter {name} has {len(values)} values, "
                             f"expected {count}")
        params[name] = np.array(values, dtype=np.float64).reshape(shape)
    return params, meta
