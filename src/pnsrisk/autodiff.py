"""Reverse-mode automatic differentiation over float64 numpy arrays.

Define-by-run: every operation returns a Tensor holding its value, its
parents, and the local backward rule.  backward() on a scalar loss walks
the graph once in reverse topological order and writes .grad on every
node it reaches.  backward(wrt=leaves) prunes that walk to the nodes
that depend on one of the leaves: the backward rules of everything else
(constant inputs, another player's subgraph) never run, and those nodes
keep the .grad they had.  Broadcasting is limited to what the models
and losses need: equal shapes, scalars, and a trailing-axis row
broadcast of a (k,) vector against an (n, k) matrix.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor",
    "parameter",
    "constant",
    "affine",
    "elu",
    "relu",
    "sigmoid",
    "sigmoid_np",
    "softplus",
    "pairwise_mean_distance",
    "check_gradients",
]


class Tensor:
    """A graph node: float64 value, parents, and a backward rule.

    The backward rule maps the gradient at this node to gradient
    contributions for each parent, in parent order.  The value is
    checked once, here: a non-finite value raises FloatingPointError
    naming the op that produced it, or saying it entered as a leaf.
    """

    __slots__ = ("data", "grad", "parents", "_backward", "name")

    def __init__(self, data, parents=(), backward=None, name=None):
        self.data = d = np.asarray(data, dtype=np.float64)
        if not np.isfinite(d).all():
            if parents:
                raise FloatingPointError(f"{name} produced a non-finite value")
            raise FloatingPointError("non-finite value entering the graph")
        self.grad = None
        self.parents = tuple(parents)
        self._backward = backward
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self):
        if self.data.size != 1:
            raise ValueError("item() needs a size-1 tensor, got shape %s" % (self.shape,))
        return float(self.data.reshape(()))

    def __repr__(self):
        tag = self.name or "tensor"
        return f"Tensor({tag}, shape={self.shape})"

    # ---- arithmetic ----

    def __add__(self, other):
        return _add(self, _wrap(other))

    def __radd__(self, other):
        return _add(_wrap(other), self)

    def __sub__(self, other):
        return _add(self, _neg(_wrap(other)))

    def __rsub__(self, other):
        return _add(_wrap(other), _neg(self))

    def __neg__(self):
        return _neg(self)

    def __mul__(self, other):
        return _mul(self, _wrap(other))

    def __rmul__(self, other):
        return _mul(_wrap(other), self)

    def __matmul__(self, other):
        return _matmul(self, _wrap(other))

    def sum(self, axis=None):
        return _sum(self, axis)

    def mean(self, axis=None):
        n = self.data.size if axis is None else self.data.shape[axis]
        return _sum(self, axis) * (1.0 / n)

    def square(self):
        return _mul(self, self)

    def sqrt(self):
        return _sqrt(self)

    def exp(self):
        return _exp(self)

    def log(self):
        return _log(self)

    def backward(self, wrt=None):
        """Populate .grad on the nodes of this scalar's graph.

        Without wrt, every node reachable from the loss gets a gradient.
        With wrt (an iterable of nodes, usually a player's parameters),
        only nodes that depend on one of them do: the walk runs the
        backward rules of those nodes alone, in the same order as the
        full walk, so each wrt node receives the same gradient bytes.
        """
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar loss, got shape %s" % (self.shape,))
        grads = {self: np.ones_like(self.data)}
        for node in _toposort(self, None if wrt is None else set(wrt)):
            g = grads.get(node)
            if g is None:
                continue
            node.grad = g
            if node._backward is None:
                continue
            for parent, contrib in zip(node.parents, node._backward(g)):
                if contrib is None:
                    continue
                if parent in grads:
                    grads[parent] = grads[parent] + contrib
                else:
                    grads[parent] = contrib


def parameter(data, name=None):
    """A trainable leaf."""
    return Tensor(np.array(data, dtype=np.float64), name=name)


def constant(data, name=None):
    """An untrained leaf; unlike parameter(), it wraps data without copying."""
    return Tensor(data, name=name)


def _wrap(x):
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def _toposort(root, needed=None):
    """Reverse topological order by iterative postorder DFS.

    needed, when given, is a set of nodes; the order then keeps only the
    nodes in it and those with a parent kept, adding each to the set.  A
    postorder lists every parent before its children, so one pass
    decides each node.
    """
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            if needed is None or node in needed:
                order.append(node)
            else:
                for parent in node.parents:
                    if parent in needed:
                        needed.add(node)
                        order.append(node)
                        break
            continue
        if node in visited:
            continue
        visited.add(node)
        stack.append((node, True))
        for parent in node.parents:
            if parent not in visited:
                stack.append((parent, False))
    order.reverse()
    return order


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


def _add(a, b):
    _check_ew_shapes(a, b, "add")

    def backward(g):
        return (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape))

    return Tensor(a.data + b.data, (a, b), backward, "add")


def _neg(a):
    def backward(g):
        return (-g,)

    return Tensor(-a.data, (a,), backward, "neg")


def _mul(a, b):
    _check_ew_shapes(a, b, "mul")

    def backward(g):
        return (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        )

    return Tensor(a.data * b.data, (a, b), backward, "mul")


def _matmul(a, b):
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


def _sum(a, axis):
    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis), a.data.shape).copy(),)

    out = a.data.sum() if axis is None else a.data.sum(axis=axis)
    return Tensor(out, (a,), backward, "sum")


def _sqrt(a):
    out = np.sqrt(a.data)

    def backward(g):
        return (g * 0.5 / out,)

    return Tensor(out, (a,), backward, "sqrt")


def _exp(a):
    out = np.exp(np.clip(a.data, None, 700.0))
    if np.any(a.data > 700.0):
        raise FloatingPointError("exp overflow")

    def backward(g):
        return (g * out,)

    return Tensor(out, (a,), backward, "exp")


def _log(a):
    if np.any(a.data <= 0.0):
        raise FloatingPointError("log of a non-positive value")
    out = np.log(a.data)

    def backward(g):
        return (g / a.data,)

    return Tensor(out, (a,), backward, "log")


def relu(a):
    mask = a.data > 0.0

    def backward(g):
        return (g * mask,)

    return Tensor(np.where(mask, a.data, 0.0), (a,), backward, "relu")


def elu(a):
    """x for x > 0, exp(x) - 1 otherwise."""
    neg = np.expm1(np.minimum(a.data, 0.0))
    out = np.where(a.data > 0.0, a.data, neg)
    dneg = np.exp(np.minimum(a.data, 0.0))
    local = np.where(a.data > 0.0, 1.0, dneg)

    def backward(g):
        return (g * local,)

    return Tensor(out, (a,), backward, "elu")


def sigmoid_np(x):
    """Logistic function of an array, stable in both tails: with
    e = exp(-|x|), which never overflows, it is 1 / (1 + e) for x >= 0
    and e / (1 + e) below."""
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0.0, 1.0 / d, e / d)


def sigmoid(a):
    """Logistic function; see sigmoid_np."""
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
    return _matmul(x, w) + b


def pairwise_mean_distance(a, b):
    """Mean Euclidean distance over all cross pairs of rows of a and b.

    Single fused op with an analytic backward; building the n*m pair
    graph node by node would dominate the step time.
    """
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


def check_gradients(build_loss, params, step=1e-5):
    """Max relative error of reverse-mode vs central-difference gradients.

    build_loss rebuilds the loss graph from the current .data of params.
    Relative error is |ad - fd| / max(1, |ad|, |fd|) per coordinate.
    """
    if not 0.0 < step <= 1e-3:
        raise ValueError(f"step must be in (0, 1e-3], got {step}")
    loss = build_loss()
    loss.backward()
    analytic = []
    for p in params:
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        analytic.append(np.array(g, dtype=np.float64, copy=True))
    worst = 0.0
    for p, g in zip(params, analytic):
        flat = p.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            f_plus = build_loss().item()
            flat[i] = orig - step
            f_minus = build_loss().item()
            flat[i] = orig
            fd = (f_plus - f_minus) / (2.0 * step)
            ad = gflat[i]
            rel = abs(ad - fd) / max(1.0, abs(ad), abs(fd))
            if rel > worst:
                worst = rel
    return worst
