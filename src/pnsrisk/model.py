"""Gaussian representation encoder, linear labeler, and their surrogates.

The encoder is a three-layer perceptron producing the posterior mean of
a diagonal Gaussian over representations; the log-variance is a learned
per-dimension vector shared across inputs.  Sampling is reparameterized
(mean + sd * eps) so gradients reach the encoder parameters.  The
labeler is the linear rule sign(c @ w), with no bias; the tie c @ w = 0
maps to label 1.

Each term of the training objective is one numpy function on arrays
that returns its value and its vector-Jacobian product (vjp):
GaussianEncoder.encode (the mean network), kl_node and draw,
surrogate_sf and surrogate_m.  pnsrisk.train.casn_objective adds their
vjps into one loss node per player; there are no per-term graph nodes.

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

from .autodiff import Tensor, _check, parameter, sigmoid_np

__all__ = [
    "GaussianEncoder",
    "LinearHead",
    "GaussianPrior",
    "surrogate_sf",
    "surrogate_m",
    "clone_perturbed",
    "save_checkpoint",
    "load_checkpoint",
]


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
        if not (np.isfinite(self.mean).all() and ((0.0 < self.var) & (self.var < np.inf)).all()):
            raise ValueError("prior mean must be finite and prior variance finite and positive")
        object.__setattr__(self, "inv_var", 1.0 / self.var)
        object.__setattr__(self, "log_var_sum", float(np.log(self.var).sum()))

    @classmethod
    def standard(cls, dim):
        return cls(np.zeros(dim), np.ones(dim))


class GaussianEncoder:
    """Diagonal-Gaussian posterior over representations.

    The posterior mean is a perceptron in -> 128 -> 32 -> rep_dim (the
    hidden widths are configurable), ELU between layers, linear output,
    with parameters <prefix>.mean.w<i> and <prefix>.mean.b<i>.  The
    log-variance <prefix>.log_var is learned per dimension, one vector
    shared across inputs, starting at 0.
    """

    def __init__(self, in_dim, rep_dim=64, hidden=(128, 32), rng=None, prefix="enc"):
        if rng is None:
            rng = np.random.default_rng(0)
        self.in_dim = in_dim
        self.rep_dim = rep_dim
        self.prefix = prefix
        self.hidden = tuple(hidden)
        dims = (in_dim, *self.hidden, rep_dim)
        self.layer_names = tuple(f"{prefix}.mean layer {i}" for i in range(len(dims) - 1))
        self.weights = []
        self.biases = []
        for i, (a, b) in enumerate(zip(dims[:-1], dims[1:])):
            w = parameter(rng.standard_normal((a, b)) / np.sqrt(a), name=f"{prefix}.mean.w{i}")
            self.weights.append(w)
            self.biases.append(parameter(np.zeros(b), name=f"{prefix}.mean.b{i}"))
        self.log_var = parameter(np.zeros(rep_dim), name=f"{prefix}.log_var")

    def _stack(self, h, inputs=None, pres=None):
        """The affine+ELU hidden layers, then the linear output layer, on
        the array h.  Every pre-activation is checked for finiteness, with
        an error naming the layer: an ELU maps -inf to -1, so a check of
        the output alone would hide an overflow.  Given lists, the graph
        path collects each layer's input and each hidden pre-activation."""
        depth = len(self.weights)
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if inputs is not None:
                inputs.append(h)
            h = h @ w.data
            h += b.data
            _check(self.layer_names[i], h)
            if i == depth - 1:
                return h
            if pres is not None:
                pres.append(h)
            # ELU: expm1(h) >= h below 0, so the max is h above 0 and expm1(h) below
            elu = np.minimum(h, 0.0)
            h = np.maximum(h, np.expm1(elu, out=elu), out=elu)

    def _input(self, x):
        """The data batch x as a float64 matrix that fits the first layer."""
        h = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if h.ndim != 2 or h.shape[1] != self.weights[0].shape[0]:
            raise ValueError(f"{self.prefix}.mean: input shape {h.shape} does not fit "
                             f"{self.weights[0].shape}")
        return h

    def encode(self, x):
        """(mean, vjp): the posterior mean of a data batch x, shape
        (n, rep_dim), and the map from its gradient to the gradients of
        the mean network's parameters, in parameters() order, in out if
        given."""
        inputs, pres = [], []
        mean = self._stack(self._input(x), inputs, pres)
        weights = [w.data for w in self.weights]
        last = len(weights) - 1

        def vjp(g, out=None):
            grads = list(out) if out else [None] * (2 * last + 2)
            for i in range(last, -1, -1):
                if i != last:
                    slope = np.minimum(pres[i], 0.0)
                    g = np.multiply(g, np.exp(slope, out=slope), out=slope)  # exactly 1 where pre > 0
                grads[2 * i] = np.matmul(inputs[i].T, g, out=grads[2 * i])
                grads[2 * i + 1] = g.sum(axis=0, out=grads[2 * i + 1])
                if i:
                    g = g @ weights[i].T
            return grads

        return mean, vjp

    def encode_np(self, x):
        """Graph-free (mean, var) for evaluation and Monte Carlo
        estimation, var broadcast to the mean's shape.  An overflow raises
        FloatingPointError, not a warning: the mean's layers are checked
        first, then the variance as <prefix>.log_var."""
        with np.errstate(over="ignore", invalid="ignore"):
            mean = self._stack(self._input(x))
            var = np.exp(self.log_var.data)
            _check(f"{self.prefix}.log_var", var)
        return mean, np.broadcast_to(var, mean.shape)

    def draw(self, mean, eps):
        """(value, vjp) of the reparameterized draws mean + sd * eps from
        a posterior-mean array; vjp maps the gradient at the draws to the
        gradients of (mean, log_var).  eps of shape (n, rep_dim) gives
        one draw per row, (draws, n, rep_dim) every draw's rows,
        draw-major, as one (draws * n, rep_dim) array."""
        shape = mean.shape
        draws = np.asarray(eps, dtype=np.float64)
        if draws.ndim not in (2, 3) or draws.shape[-2:] != shape:
            raise ValueError(f"eps shape {draws.shape} does not fit mean shape {shape}")
        draws = draws.reshape(-1, *shape)
        sd = np.exp(self.log_var.data * 0.5)

        def vjp(g):
            g_mean = g if len(draws) == 1 else g.reshape(draws.shape).sum(axis=0)
            return g_mean, (g * draws.reshape(g.shape)).sum(axis=0) * sd * 0.5

        return (mean + draws * sd).reshape(-1, shape[1]), vjp

    def kl_node(self, mean, prior):
        """(value, vjp) of the mean-over-batch KL(q(.|x) || prior) on a
        posterior-mean array; vjp maps the gradient at the KL to the
        gradients of (mean, log_var).  Closed form for diagonal
        Gaussians; the variance part, which does not depend on x, is
        shared across the batch.  A term that overflows makes the value
        inf, which the caller's check reports as kl_node's."""
        n, rep = mean.shape
        inv_pv = prior.inv_var
        diff = mean - prior.mean
        mean_part = (diff * diff * inv_pv).sum(axis=1).sum() * (1.0 / n)
        log_var = self.log_var.data
        var = np.exp(log_var)
        var_part = (var * inv_pv).sum() - log_var.sum() + (prior.log_var_sum - rep)

        def vjp(g):
            half = g * 0.5
            g_mean = half * (1.0 / n) * inv_pv * diff
            return g_mean + g_mean, half * inv_pv * var - half

        return (var_part + mean_part) * 0.5, vjp

    def parameters(self):
        out = {p.name: p for pair in zip(self.weights, self.biases) for p in pair}
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


def _ytil(y, name="labels"):
    """0/1 labels y as ytil = 2y - 1, or a ValueError naming the first
    row of y that is not 0 or 1: the package's one label check."""
    y = np.asarray(y)
    bad = np.flatnonzero((y != 0) & (y != 1))
    if bad.size:
        raise ValueError(f"{name} row {bad[0]} is {y.flat[bad[0]]}, not 0 or 1")
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
        return g_z[:, None] * w, c.T @ g_z

    return out, vjp


def surrogate_m(w, c, c_bar):
    """(value, vjp) of the differentiable stand-in for the probability
    that the two routes agree in sign, on paired representation rows:
    the mean over pairs of p*q + (1-p)*(1-q), p = sigmoid(w.c),
    q = sigmoid(w.cbar).  vjp gives the gradients of (c, c_bar, w);
    vjp(g, twin=True) computes only c_bar's, the twin's."""
    if c.shape != c_bar.shape:
        raise ValueError(f"surrogate_m: {c.shape} vs {c_bar.shape}")
    # rows (p, q) and (1 - p, 1 - q): each elementwise op runs once for both
    pq = sigmoid_np(np.concatenate((c @ w, c_bar @ w)).reshape(2, -1))
    pq1 = 1.0 - pq
    (p, q), (p1, q1) = pq, pq1
    scale = 1.0 / p.shape[0]
    out = (p * q + p1 * q1).sum() * scale

    def vjp(g, twin=False):
        g = g * scale
        if twin:
            return ((g * p - g * p1) * q * q1)[:, None] * w
        # row 0 is (g*q - g*(1-q)) * p * (1-p), row 1 the same with p, q swapped
        g_zc, g_zb = (g * pq[::-1] - g * pq1[::-1]) * pq * pq1
        return g_zc[:, None] * w, g_zb[:, None] * w, c.T @ g_zc + c_bar.T @ g_zb

    return out, vjp


def clone_perturbed(encoder, rng, scale=0.01):
    """Fresh encoder with the same architecture whose parameters start a
    small random step away from the source's."""
    twin = GaussianEncoder(encoder.in_dim, rep_dim=encoder.rep_dim, hidden=encoder.hidden,
                           rng=np.random.default_rng(0), prefix=f"{encoder.prefix}_twin")
    for s, d in zip(encoder.parameters().values(), twin.parameters().values()):
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
        count = math.prod(shape)  # exact: np.prod wraps in int64
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
