"""Representation diagnostics: distance correlation against the planted
factors, plus plain and per-group label accuracy.

Distance correlation is the biased sample statistic of Szekely, Rizzo &
Bakirov (2007), taken in row-mean form.  With D an argument's pairwise
Euclidean distance matrix, r its row means and t its grand mean,

    dCov^2(a, b) = mean(D_a * D_b) - 2 mean(r_a * r_b) + t_a * t_b,

the mean entrywise product of the double-centered matrices, though no
matrix is centered; dVar^2 is dCov^2 of an argument with itself, and the
distance correlation is sqrt(dCov^2 / sqrt(dVar_a^2 dVar_b^2)), clamped
to [0, 1].  It does not depend on scale, and each argument is first
scaled exactly, by a power of two, so no finite input overflows or
underflows: it is zero exactly when either argument is constant.  A nan
or inf is refused, naming it.

A one-column argument takes its distances as |b_i - b_j|; a wider one
from one matrix product, |a_i|^2 + |a_j|^2 - 2 a_i.a_j, with its
diagonal set to its exact 0.  A column of two distinct values forms no
n x n matrix: its distances are gap * |z_i - z_j| for z the indicator
of the larger value, so r, t and dVar^2 = t^2 follow from the count of
z, and its cross term from one matrix-vector product (from counts,
against another two-valued column).  evaluate builds the
representation's part once and shares it across the four factors, of
which sn, sf and nc are two-valued.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .synth import factor_table

__all__ = ["distance_correlation", "EvalReport", "evaluate", "group_accuracy"]


def _as_matrix(a):
    a = np.asarray(a, dtype=np.float64)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise ValueError(f"need a vector or matrix, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class _Part:
    """One argument of distance correlation: its row means r, grand mean
    t and dVar^2, with either its distance matrix d or, for a two-valued
    column, the indicator z of its larger value and the gap between the
    two values."""

    r: np.ndarray
    t: float
    dvar: float
    d: np.ndarray = None
    z: np.ndarray = None
    gap: float = 0.0


def _part(a, name):
    """The _Part of the rows of a.  a is first scaled by a power of two,
    which is exact, so that its largest entry lies in [0.5, 1): the part
    is the same for any power-of-two multiple of a, and no entry can
    overflow.  A nan or inf in a raises ValueError naming it."""
    top = np.abs(a).max(initial=0.0)
    if not np.isfinite(top):
        raise ValueError(f"{name} holds a non-finite value")
    a = np.ldexp(a, -np.frexp(top)[1])
    n = len(a)
    if a.shape[1] > 1 and (a == a[0]).all():
        a = a[:, :1]  # its distances are exact zeros, not a product's rounding
    if a.shape[1] == 1:
        b = a[:, 0]
        lo, hi = b.min(), b.max()
        z = b == hi
        if (z | (b == lo)).all():  # two values, or one
            k = int(z.sum())
            gap = float(hi - lo)
            r = np.where(z, gap * (n - k) / n, gap * k / n)
            t = gap * (2 * k * (n - k)) / (n * n)
            return _Part(r, t, t * t, z=z, gap=gap)
        d = np.subtract.outer(b, b)
        np.abs(d, out=d)
    else:
        sq = np.einsum("ij,ij->i", a, a)
        ones = np.ones(n)
        d = np.column_stack((a, sq, ones)) @ np.column_stack((-2.0 * a, ones, sq)).T
        np.maximum(d, 0.0, out=d)
        np.fill_diagonal(d, 0.0)  # rounding leaves up to about 1e-15 there
        np.sqrt(d, out=d)
    r = d.mean(axis=1)
    t = float(r.mean())
    flat = d.ravel()
    dvar = float(flat @ flat) / (n * n) - 2.0 * float(r @ r) / n + t * t
    return _Part(r, t, dvar, d=d)


def _cross(p, q):
    """The sum of D_p * D_q over all n^2 entries."""
    if p.d is not None and q.d is not None:
        return float(p.d.ravel() @ q.d.ravel())
    if p.d is None and q.d is None:  # pairs that differ in both columns
        both = int((p.z & q.z).sum())
        only_p, only_q = int(p.z.sum()) - both, int(q.z.sum()) - both
        neither = len(p.z) - both - only_p - only_q
        return 2.0 * p.gap * q.gap * (both * neither + only_p * only_q)
    if p.d is None:
        p, q = q, p
    g = p.d @ q.z.astype(np.float64)  # distances from each row to q's larger value
    return 2.0 * q.gap * float(g[~q.z].sum())


def _dcor(p, q):
    """Distance correlation from the parts of its two arguments."""
    if p.dvar <= 0.0 or q.dvar <= 0.0:
        return 0.0
    n = len(p.r)
    dcov2 = _cross(p, q) / (n * n) - 2.0 * float(p.r @ q.r) / n + p.t * q.t
    return min(float(np.sqrt(max(dcov2, 0.0) / np.sqrt(p.dvar * q.dvar))), 1.0)


def distance_correlation(a, b):
    """Biased sample distance correlation between paired observations, in
    [0, 1] and the same at any power-of-two scale of a or b; a nan or inf
    raises ValueError naming a or b."""
    a, b = _as_matrix(a), _as_matrix(b)
    if len(a) != len(b):
        raise ValueError(f"paired samples must align: {len(a)} vs {len(b)}")
    if len(a) < 2:
        raise ValueError("need at least two observations")
    return _dcor(_part(a, "a"), _part(b, "b"))


@dataclass(frozen=True)
class EvalReport:
    """How much of each planted factor the representation carries, and
    how well the labeler reads the label off the posterior mean."""

    dcor_sn: float
    dcor_sf: float
    dcor_nc: float
    dcor_sp: float
    accuracy: float
    n: int


def evaluate(data, encoder, head):
    """EvalReport for an encoder/labeler pair on benchmark data.  One
    posterior mean gives the dcor reps and the labels (logit >= 0); the
    reps' distance matrix, row means and dVar^2 are formed once for all
    four factors."""
    reps, _ = encoder.encode_np(data.x)
    if len(reps) < 2:
        raise ValueError("need at least two observations")
    factors = factor_table(data)
    labels = head.logits_np(reps) >= 0.0
    rep = _part(_as_matrix(reps), "representation")
    # factor_table's columns come in the order of EvalReport's dcor fields
    dcor = [_dcor(rep, _part(_as_matrix(column), "factor")) for column in factors.T]
    return EvalReport(*dcor, accuracy=float((labels == data.y).mean()), n=len(data))


def group_accuracy(y_true, y_pred, groups, expected=None):
    """Accuracy per group value; with `expected`, every listed group
    must actually occur."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    groups = np.asarray(groups)
    if not (len(y_true) == len(y_pred) == len(groups)):
        raise ValueError("y_true, y_pred and groups must align")
    present = {}
    for g in np.unique(groups):
        mask = groups == g
        present[g.item() if hasattr(g, "item") else g] = float(
            (y_true[mask] == y_pred[mask]).mean()
        )
    if expected is not None:
        missing = [g for g in expected if g not in present]
        if missing:
            raise ValueError(f"groups never observed: {missing}")
    return present
