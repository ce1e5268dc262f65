"""Generic per-op autodiff layer: the reference the fused terms are
tested against.

Every function here returns a pnsrisk.autodiff.Tensor with one backward
rule per elementary op, so a loss built from them is a long chain of
small nodes.  The library computes every loss term as one numpy
function that returns (value, vjp); node() makes such a result one graph
node, and tests build the same quantity node by node from the functions
below and compare values and gradients.

Broadcasting is limited to what the models and losses need: equal
shapes, scalars, and a trailing-axis row broadcast of a (k,) vector
against an (n, k) matrix.  Operands that are not Tensors (floats,
arrays) are wrapped as constant leaves.
"""

import numpy as np

from pnsrisk.autodiff import Tensor, sigmoid_np


def node(name, parents, result):
    """One graph node from a package term: result is the term's
    (value, vjp) on the parents' arrays, and vjp returns one gradient
    per parent, in order."""
    value, vjp = result
    return Tensor(value, parents, vjp, name)


def _wrap(x):
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def _unbroadcast(g, shape):
    """Reduce gradient g back to `shape` after a row or scalar broadcast."""
    if g.shape == shape:
        return g
    if shape == ():
        return np.array(g.sum())
    # (n, k) op (k,) -> sum the leading axes away
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    if g.shape != shape:
        raise ValueError(f"cannot reduce gradient {g.shape} to {shape}")
    return g


_BROADCAST_OK = "shapes %s and %s not compatible (equal, scalar, or (n,k)+(k,) only)"


def _check_ew_shapes(a, b, op):
    sa, sb = a.data.shape, b.data.shape
    if sa == sb or sa == () or sb == ():
        return
    if len(sa) == 2 and sb == (sa[1],):
        return
    if len(sb) == 2 and sa == (sb[1],):
        return
    raise ValueError(op + ": " + _BROADCAST_OK % (sa, sb))


def add(a, b):
    a, b = _wrap(a), _wrap(b)
    _check_ew_shapes(a, b, "add")

    def backward(g):
        return (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape))

    return Tensor(a.data + b.data, (a, b), backward, "add")


def neg(a):
    def backward(g):
        return (-g,)

    return Tensor(-a.data, (a,), backward, "neg")


def sub(a, b):
    return add(a, neg(_wrap(b)))


def mul(a, b):
    a, b = _wrap(a), _wrap(b)
    _check_ew_shapes(a, b, "mul")

    def backward(g):
        return (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        )

    return Tensor(a.data * b.data, (a, b), backward, "mul")


def matmul(a, b):
    a, b = _wrap(a), _wrap(b)
    if a.data.ndim != 2:
        raise ValueError(f"matmul: left operand must be 2-d, got {a.data.shape}")
    if b.data.ndim == 1:
        if a.data.shape[1] != b.data.shape[0]:
            raise ValueError(f"matmul: {a.data.shape} @ {b.data.shape}")

        def backward(g):
            return (np.outer(g, b.data), a.data.T @ g)

        return Tensor(a.data @ b.data, (a, b), backward, "matmul")
    if b.data.ndim == 2:
        if a.data.shape[1] != b.data.shape[0]:
            raise ValueError(f"matmul: {a.data.shape} @ {b.data.shape}")

        def backward(g):
            return (g @ b.data.T, a.data.T @ g)

        return Tensor(a.data @ b.data, (a, b), backward, "matmul")
    raise ValueError(f"matmul: right operand must be 1-d or 2-d, got {b.data.shape}")


def reduce_sum(a, axis=None):
    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis), a.data.shape).copy(),)

    out = a.data.sum() if axis is None else a.data.sum(axis=axis)
    return Tensor(out, (a,), backward, "sum")


def reduce_mean(a, axis=None):
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul(reduce_sum(a, axis), 1.0 / n)


def square(a):
    return mul(a, a)


def sqrt(a):
    out = np.sqrt(a.data)

    def backward(g):
        return (g * 0.5 / out,)

    return Tensor(out, (a,), backward, "sqrt")


def exp(a):
    out = np.exp(np.clip(a.data, None, 700.0))
    if np.any(a.data > 700.0):
        raise FloatingPointError("exp overflow")

    def backward(g):
        return (g * out,)

    return Tensor(out, (a,), backward, "exp")


def relu(a):
    mask = a.data > 0.0

    def backward(g):
        return (g * mask,)

    return Tensor(np.where(mask, a.data, 0.0), (a,), backward, "relu")


def elu(a):
    """x for x > 0, exp(x) - 1 otherwise."""
    neg_part = np.expm1(np.minimum(a.data, 0.0))
    out = np.where(a.data > 0.0, a.data, neg_part)
    dneg = np.exp(np.minimum(a.data, 0.0))
    local = np.where(a.data > 0.0, 1.0, dneg)

    def backward(g):
        return (g * local,)

    return Tensor(out, (a,), backward, "elu")


def sigmoid(a):
    """Logistic function; see pnsrisk.autodiff.sigmoid_np."""
    out = sigmoid_np(a.data)

    def backward(g):
        return (g * out * (1.0 - out),)

    return Tensor(out, (a,), backward, "sigmoid")


def softplus(a):
    """log(1 + exp(x)) computed as max(x, 0) + log1p(exp(-|x|))."""
    x = a.data
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    sig = sigmoid_np(x)

    def backward(g):
        return (g * sig,)

    return Tensor(out, (a,), backward, "softplus")


def affine(x, w, b):
    """x @ w + b with the bias broadcast across rows."""
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise ValueError(f"affine: x and w must be 2-d, got {x.data.shape}, {w.data.shape}")
    if x.data.shape[1] != w.data.shape[0] or b.data.shape != (w.data.shape[1],):
        raise ValueError(
            f"affine: incompatible shapes x={x.data.shape} w={w.data.shape} b={b.data.shape}"
        )
    return add(matmul(x, w), b)


def pairwise_mean_distance(a, b):
    """Mean Euclidean distance over all cross pairs of rows of a and b,
    as one node with an analytic backward."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[1]:
        raise ValueError(f"pairwise_mean_distance: {a.data.shape} vs {b.data.shape}")
    diff = a.data[:, None, :] - b.data[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2) + 1e-18)
    n_pairs = dist.shape[0] * dist.shape[1]
    out = dist.mean()

    def backward(g):
        scale = g / n_pairs
        unit = diff / dist[:, :, None]
        return (scale * unit.sum(axis=1), -scale * unit.sum(axis=0))

    return Tensor(out, (a, b), backward, "pairwise_mean_distance")


def rows(a, positions):
    """Rows `positions` (distinct) of a batch node."""
    def backward(g):
        full = np.zeros(a.data.shape)
        full[positions] = g
        return (full,)

    return Tensor(a.data[positions], (a,), backward, "rows")


# ---- the model and loss terms, node by node ----

def logits(head, c):
    """The labeler c @ w on a representation node."""
    return matmul(c, head.w)


def mmd_penalty(rep_groups):
    """Sum over unordered domain pairs of the mean cross-domain
    representation distance."""
    total = None
    for i in range(len(rep_groups)):
        for j in range(i + 1, len(rep_groups)):
            term = pairwise_mean_distance(rep_groups[i], rep_groups[j])
            total = term if total is None else add(total, term)
    return total


def irm_penalty(head, rep_groups, y_groups):
    """Sum over domains of the squared derivative of the domain's mean
    softplus(-ytil * s * z) in a dummy scale s at s = 1, which is
    mean(-ytil * z * sigmoid(-ytil * z))."""
    if len(rep_groups) != len(y_groups):
        raise ValueError("rep_groups and y_groups must align")
    total = None
    for reps, y in zip(rep_groups, y_groups):
        neg_ytil = Tensor(-(np.asarray(y, dtype=np.float64) * 2.0 - 1.0))
        a = mul(logits(head, reps), neg_ytil)
        term = square(reduce_mean(mul(a, sigmoid(a))))
        total = term if total is None else add(total, term)
    return total
