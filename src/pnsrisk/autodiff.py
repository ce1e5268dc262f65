"""Reverse-mode automatic differentiation over float64 numpy arrays.

Define-by-run: every operation returns a Tensor holding its value, its
parents, and the local backward rule.  backward() on a scalar loss walks
the graph once in reverse topological order and writes .grad on every
node it reaches.

The training step's loss is one node per player over its parameters,
whose backward adds the loss terms' vector-Jacobian products (see
pnsrisk.train), so this module holds no elementwise ops: the per-op
reference and the central-difference gradient checker live in
tests/reference_ops.py.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Tensor",
    "parameter",
    "sigmoid_np",
]


class Tensor:
    """A graph node: float64 value, parents, and a backward rule.

    The backward rule maps the gradient at this node to one gradient
    contribution per parent, in parent order.  The value is checked
    once, here, by _check, and a non-finite leaf raises saying it entered
    the graph.  train() runs its steps under np.errstate, so an overflow
    arrives here as inf, not a warning.
    """

    __slots__ = ("data", "grad", "parents", "_backward", "name")

    def __init__(self, data, parents=(), backward=None, name=None):
        self.data = d = np.asarray(data, dtype=np.float64)
        if parents:
            _check(name, d)
        elif not np.isfinite(d).all():
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
        grads = {self: np.ones(self.data.shape)}
        for node in _toposort(self):
            node.grad = g = grads[node]
            if node._backward is None:
                continue
            contribs = node._backward(g)
            if len(contribs) != len(node.parents):
                raise ValueError(f"{node.name} backward gave {len(contribs)} gradients "
                                 f"for {len(node.parents)} parents")
            for parent, contrib in zip(node.parents, contribs):
                grads[parent] = grads[parent] + contrib if parent in grads else contrib


def _check(op, value):
    """The package's one divergence check.  A float (numpy's float64 is
    one) or a 0-d array takes the scalar test."""
    if not (math.isfinite(value) if isinstance(value, float) or value.ndim == 0
            else np.isfinite(value).all()):
        raise FloatingPointError(f"{op} produced a non-finite value")


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
        if not node.parents:  # a leaf is done when first reached
            order.append(node)
            continue
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
    return np.where(x >= 0.0, 1.0, e) / (1.0 + e)

