"""Reverse-mode automatic differentiation over float64 numpy arrays.

Define-by-run: every operation returns a Tensor holding its value, its
parents, and the local backward rule.  backward() on a scalar loss walks
the graph once in reverse topological order and writes .grad on every
node it reaches.

The training step builds each player's loss as one node whose parents
are exactly that player's parameters and whose backward adds the
vector-Jacobian products of the loss terms, which are numpy functions
(see pnsrisk.train).  So this module holds no elementwise or reduction
ops of its own: the per-op reference the terms are tested against lives
in tests/reference_ops.py.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor",
    "parameter",
    "sigmoid_np",
    "check_gradients",
]


class Tensor:
    """A graph node: float64 value, parents, and a backward rule.

    The backward rule maps the gradient at this node to gradient
    contributions for each parent, in parent order.  The value is
    checked once, here: a non-finite value raises FloatingPointError
    naming the op that produced it, or saying it entered as a leaf.
    This is the graph's one divergence signal: train() runs its steps
    under np.errstate, so an overflow arrives here as inf, not a warning.
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

    def item(self):
        if self.data.size != 1:
            raise ValueError("item() needs a size-1 tensor, got shape %s" % (self.shape,))
        return float(self.data.reshape(()))

    def __repr__(self):
        tag = self.name or "tensor"
        return f"Tensor({tag}, shape={self.shape})"

    def backward(self):
        """Populate .grad on every node reachable from this scalar loss."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar loss, got shape %s" % (self.shape,))
        grads = {self: np.ones_like(self.data)}
        for node in _toposort(self):
            node.grad = g = grads[node]
            if node._backward is None:
                continue
            for parent, contrib in zip(node.parents, node._backward(g)):
                grads[parent] = grads[parent] + contrib if parent in grads else contrib


def parameter(data, name=None):
    """A trainable leaf."""
    return Tensor(np.array(data, dtype=np.float64), name=name)


def _toposort(root):
    """Reverse topological order by iterative postorder DFS."""
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
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


def sigmoid_np(x, e=None):
    """Logistic function of an array, stable in both tails: with
    e = exp(-|x|), which never overflows, it is 1 / (1 + e) for x >= 0
    and e / (1 + e) below.  A caller that already holds exp(-|x|) passes
    it as e."""
    if e is None:
        e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0.0, 1.0 / d, e / d)


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
