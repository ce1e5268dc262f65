"""Gaussian representation encoder, linear labeler, and their surrogates.

The encoder is a three-layer perceptron producing the posterior mean of
a diagonal Gaussian over representations; the variance is either a
learned per-dimension vector shared across inputs or a fixed constant.
Sampling is reparameterized (mean + sd * eps) so gradients reach the
encoder parameters.  The labeler is sign(w.c), with the tie w.c = 0
mapped to label 1.

The training step is built from fused ops: the MLP, the KL term, the
draw and both surrogates are each one graph node with a numpy forward
and an analytic backward.  The generic ops in pnsrisk.autodiff build
the same values node by node and serve as the reference they are
tested against.

Two differentiable surrogates stand in for the indicator quantities:

* sufficiency surrogate: mean softplus(-ytil * w.c), ytil = 2y - 1,
* agreement surrogate:   mean of p*q + (1-p)*(1-q) over draw pairs,
  p = sigmoid(w.c), q = sigmoid(w.cbar),

both of which approach the indicators as |w.c| grows.
"""

from __future__ import annotations

from dataclasses import dataclass

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


class Mlp:
    """in -> 128 -> 32 -> out, ELU between layers, linear output."""

    def __init__(self, in_dim, out_dim, hidden=(128, 32), rng=None, prefix="mlp"):
        if rng is None:
            rng = np.random.default_rng(0)
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.hidden = tuple(hidden)
        dims = (in_dim, *self.hidden, out_dim)
        self.layer_names = tuple(f"{prefix} layer {i}" for i in range(len(dims) - 1))
        self.weights = []
        self.biases = []
        for i, (a, b) in enumerate(zip(dims[:-1], dims[1:])):
            w = parameter(rng.standard_normal((a, b)) / np.sqrt(a), name=f"{prefix}.w{i}")
            self.weights.append(w)
            self.biases.append(parameter(np.zeros(b), name=f"{prefix}.b{i}"))

    def forward(self, x):
        """The whole affine+ELU stack as one graph node.

        Every layer's pre-activation is checked for finiteness and the
        error names the layer: an ELU maps -inf to -1, so a check of the
        output alone would hide an overflow.  A Tensor input is a parent
        and gets a gradient; a plain array is data, so neither a leaf
        for it nor its gradient matmul is made.
        """
        input_grad = isinstance(x, Tensor)
        if input_grad:
            h = x.data
        else:
            h = np.atleast_2d(np.asarray(x, dtype=np.float64))
            if not np.isfinite(h).all():
                raise FloatingPointError("non-finite value entering the graph")
        weights = [w.data for w in self.weights]
        if h.ndim != 2 or h.shape[1] != weights[0].shape[0]:
            raise ValueError(f"mlp: input shape {h.shape} does not fit {weights[0].shape}")
        inputs = []
        slopes = []
        last = len(weights) - 1
        for i in range(last):
            inputs.append(h)
            pre = h @ weights[i] + self.biases[i].data
            if not np.isfinite(pre).all():
                raise FloatingPointError(f"{self.layer_names[i]} produced a non-finite value")
            neg = np.minimum(pre, 0.0)
            h = np.where(pre > 0.0, pre, np.expm1(neg))
            slopes.append(np.exp(neg))  # exactly 1 where pre > 0
        inputs.append(h)
        out = h @ weights[last] + self.biases[last].data

        def backward(g):
            grads = [None] * (2 * last + 2)
            for i in range(last, -1, -1):
                if i != last:
                    g = g * slopes[i]
                grads[2 * i] = inputs[i].T @ g
                grads[2 * i + 1] = g.sum(axis=0)
                if i or input_grad:
                    g = g @ weights[i].T
            return [g, *grads] if input_grad else grads

        params = [p for pair in zip(self.weights, self.biases) for p in pair]
        parents = (x, *params) if input_grad else params
        # the output layer's pre-activation is checked by Tensor itself
        return Tensor(out, parents, backward, self.layer_names[last])

    def forward_np(self, x):
        """Graph-free forward for evaluation and Monte Carlo estimation."""
        h = np.atleast_2d(np.asarray(x, dtype=np.float64))
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w.data + b.data
            if i != last:
                h = np.where(h > 0.0, h, np.expm1(np.minimum(h, 0.0)))
        return h

    def parameters(self):
        out = {}
        for w, b in zip(self.weights, self.biases):
            out[w.name] = w
            out[b.name] = b
        return out


@dataclass(frozen=True)
class GaussianPrior:
    """Diagonal Gaussian the posteriors are pulled toward.  Plain arrays:
    priors take no part in optimization."""

    mean: np.ndarray
    var: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=np.float64))
        object.__setattr__(self, "var", np.asarray(self.var, dtype=np.float64))
        if self.mean.shape != self.var.shape or self.mean.ndim != 1:
            raise ValueError("prior mean and var must be matching vectors")
        if np.any(self.var <= 0.0):
            raise ValueError("prior variance must be strictly positive")

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
        if rng is None:
            rng = np.random.default_rng(0)
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
        """Posterior mean as a graph node, shape (n, rep_dim)."""
        return self.mlp.forward(x)

    def var_np(self):
        if self.fixed_var is not None:
            return np.full(self.rep_dim, self.fixed_var)
        return np.exp(self.log_var.data)

    def encode_np(self, x):
        mean = self.mlp.forward_np(x)
        return mean, np.broadcast_to(self.var_np(), mean.shape)

    def draw(self, mean, eps):
        """Reparameterized draw mean + sd * eps from an existing mean
        node, as one graph node; eps is a constant, so gradients flow to
        the mean network and the log-variance."""
        eps = np.asarray(eps, dtype=np.float64)
        if eps.shape != mean.data.shape:
            raise ValueError(f"eps shape {eps.shape} != mean shape {mean.data.shape}")
        if self.fixed_var is not None:
            return Tensor(mean.data + eps * np.sqrt(self.fixed_var), (mean,),
                          lambda g: (g,), "draw")
        sd = _exp(self.log_var.data * 0.5, "draw")

        def backward(g):
            return (g, (g * eps).sum(axis=0) * sd * 0.5)

        return Tensor(mean.data + eps * sd, (mean, self.log_var), backward, "draw")

    def sample(self, x, eps):
        return self.draw(self.encode(x), eps)

    def kl_node(self, mean, prior):
        """Mean-over-batch KL(q(.|x) || prior) as one graph node.

        Closed form for diagonal Gaussians; the variance part is shared
        across the batch because the posterior variance does not depend
        on x.  A mean term that overflows is computed quietly as inf, so
        the node's own check raises FloatingPointError naming the op,
        with no numpy warning first.
        """
        n, rep = mean.data.shape
        inv_pv = 1.0 / prior.var
        with np.errstate(over="ignore"):
            diff = mean.data - prior.mean
            mean_part = (diff * diff * inv_pv).sum(axis=1).sum() * (1.0 / n)
        log_pv_sum = float(np.log(prior.var).sum())

        def mean_grad(half):
            g = half * (1.0 / n) * inv_pv * diff
            return g + g

        if self.fixed_var is not None:
            var_part = (log_pv_sum - rep * np.log(self.fixed_var)
                        + float((self.fixed_var * inv_pv).sum()) - rep)
            return Tensor((var_part + mean_part) * 0.5, (mean,),
                          lambda g: (mean_grad(g * 0.5),), "kl_node")
        log_var = self.log_var.data
        var = _exp(log_var, "kl_node")
        var_part = (var * inv_pv).sum() - log_var.sum() + (log_pv_sum - rep)

        def backward(g):
            half = g * 0.5
            return (mean_grad(half), half * inv_pv * var - half)

        return Tensor((var_part + mean_part) * 0.5, (mean, self.log_var), backward, "kl_node")

    def parameters(self):
        out = self.mlp.parameters()
        if self.log_var is not None:
            out[self.log_var.name] = self.log_var
        return out


class LinearHead:
    """Linear labeler over representations: logit = c @ w + b."""

    def __init__(self, rep_dim, rng=None, bias=False, prefix="head"):
        if rng is None:
            rng = np.random.default_rng(0)
        self.rep_dim = rep_dim
        self.w = parameter(rng.standard_normal(rep_dim) / np.sqrt(rep_dim), name=f"{prefix}.w")
        self.b = parameter(np.zeros(1), name=f"{prefix}.b") if bias else None

    def logits(self, c):
        z = c @ self.w
        if self.b is not None:
            z = z + self.b.sum()  # a scalar node broadcasts across rows; (1,) does not
        return z

    def logits_np(self, c):
        z = np.asarray(c, dtype=np.float64) @ self.w.data
        if self.b is not None:
            z = z + self.b.data[0]
        return z

    def parameters(self):
        out = {self.w.name: self.w}
        if self.b is not None:
            out[self.b.name] = self.b
        return out


def predict(head, encoder, x):
    """Hard labels from the posterior mean: 1 where the logit is >= 0.

    The tie logit == 0 maps to label 1.
    """
    mean, _ = encoder.encode_np(x)
    return (head.logits_np(mean) >= 0.0).astype(np.int64)


def _exp(x, op):
    """np.exp under the graph's rules, checked before numpy runs, so it
    never warns: a non-finite input is refused as its op's value would
    be, and an input above 700 raises "exp overflow"."""
    if not np.isfinite(x).all():
        raise FloatingPointError(f"{op} produced a non-finite value")
    if (x > 700.0).any():
        raise FloatingPointError("exp overflow")
    return np.exp(x)


def _logits(head, c):
    """(z, parents) of the labeler on a representation node c."""
    w = head.w.data
    if c.data.ndim != 2 or c.data.shape[1] != w.shape[0]:
        raise ValueError(f"matmul: {c.data.shape} @ {w.shape}")
    z = c.data @ w
    if head.b is None:
        return z, (head.w,)
    return z + head.b.data, (head.w, head.b)


def _head_grads(head, pairs):
    """Gradients of the labeler's parameters from (c, dL/dz) pairs."""
    g_w = sum(c.data.T @ g_z for c, g_z in pairs)
    if head.b is None:
        return (g_w,)
    return (g_w, np.array([sum(g_z.sum() for _, g_z in pairs)]))


def _ytil(y):
    y = np.asarray(y)
    if not ((y == 0) | (y == 1)).all():
        raise ValueError("labels must be 0 or 1")
    return y.astype(np.float64) * 2.0 - 1.0


def surrogate_sf(head, c, y):
    """Differentiable stand-in for P(sign(w.c) != y): mean softplus of the
    margin deficit, as one graph node.  Equals ln 2 at w.c = 0 and decays
    to the indicator as the margin grows."""
    neg_ytil = -_ytil(y)
    z, head_params = _logits(head, c)
    if neg_ytil.shape not in ((), z.shape):
        raise ValueError(f"labels of shape {neg_ytil.shape} for {z.shape[0]} rows")
    a = z * neg_ytil
    scale = 1.0 / a.shape[0]
    out = (np.maximum(a, 0.0) + np.log1p(np.exp(-np.abs(a)))).sum() * scale

    def backward(g):
        g_z = g * scale * sigmoid_np(a) * neg_ytil
        return (np.outer(g_z, head.w.data), *_head_grads(head, ((c, g_z),)))

    return Tensor(out, (c, *head_params), backward, "surrogate_sf")


def surrogate_m(head, c, c_bar):
    """Differentiable stand-in for the probability that the two routes
    agree in sign: mean over pairs of p*q + (1-p)*(1-q), as one graph
    node."""
    zc, head_params = _logits(head, c)
    zb, _ = _logits(head, c_bar)
    if zc.shape != zb.shape:
        raise ValueError(f"surrogate_m: {c.data.shape} vs {c_bar.data.shape}")
    p = sigmoid_np(zc)
    q = sigmoid_np(zb)
    scale = 1.0 / p.shape[0]
    out = (p * q + (1.0 - p) * (1.0 - q)).sum() * scale

    def backward(g):
        g = g * scale
        g_zc = (g * q - g * (1.0 - q)) * p * (1.0 - p)
        g_zb = (g * p - g * (1.0 - p)) * q * (1.0 - q)
        w = head.w.data
        return (np.outer(g_zc, w), np.outer(g_zb, w),
                *_head_grads(head, ((c, g_zc), (c_bar, g_zb))))

    return Tensor(out, (c, c_bar, *head_params), backward, "surrogate_m")


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
    ValueError, before the file is opened, is anything the line format
    could not read back: zero-size arrays (their header would read as a
    scalar's), empty names or keys and ones holding whitespace, and meta
    values with line breaks, tabs, or doubled or edge spaces."""
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
        dims = " ".join(str(d) for d in arr.shape) if arr.ndim else "0"
        lines.append(f"param {name} {dims}")
        flat = arr.reshape(-1)
        for start in range(0, flat.size, 8):
            lines.append(" ".join(float(v).hex() for v in flat[start : start + 8]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_checkpoint(path):
    """Returns ({name: ndarray}, {meta key: value}).  A malformed file
    raises ValueError("<path>:<line>: ...")."""
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
            meta[tokens[1]] = " ".join(tokens[2:])
            continue
        if tokens[:1] != ["param"] or len(tokens) < 3:
            raise ValueError(f"{path}:{i}: expected a meta or param line, got {lines[i - 1]!r}")
        name = tokens[1]
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
                values.extend(float.fromhex(tok) for tok in lines[i].split())
            except ValueError:
                raise ValueError(f"{path}:{i + 1}: bad hex float in parameter {name}") from None
            i += 1
        if len(values) != count:
            raise ValueError(f"{path}:{i}: parameter {name} has {len(values)} values, "
                             f"expected {count}")
        params[name] = np.array(values, dtype=np.float64).reshape(shape)
    return params, meta
