"""Representation diagnostics: distance correlation against the planted
factors, plus plain and per-group label accuracy.

Distance correlation is the biased sample statistic: double-center each
pairwise Euclidean distance matrix, take dCov^2 as the mean of the
entrywise product, and normalize by the geometric mean of the two
dVar^2 terms.  It does not depend on scale, and each argument is first
scaled exactly, by a power of two, so no finite input overflows or
underflows: it is zero exactly when either argument is constant and lands
in [0, 1] up to floating point, with each diagonal its exact 0.  A nan
or inf is refused, naming it.

evaluate centers the representation's distance matrix and takes its
dVar^2 once, and shares both across the four factors; every entrywise
product goes through one scratch matrix.
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


def _centered_distances(a, name):
    """The double-centered Euclidean distance matrix of the rows of a,
    built in place in one n x n array.  a is first scaled by a power of
    two, which is exact, so that its largest entry lies in [0.5, 1): the
    result is the same for any power-of-two multiple of a, and no entry
    can overflow.  The diagonal is its exact 0, not a root of rounding
    error.  A nan or inf in a raises ValueError naming it."""
    top = np.abs(a).max(initial=0.0)
    if not np.isfinite(top):
        raise ValueError(f"{name} holds a non-finite value")
    a = np.ldexp(a, -np.frexp(top)[1])
    sq = (a * a).sum(axis=1)
    d = a @ a.T
    d *= 2.0
    np.subtract(sq[:, None] + sq[None, :], d, out=d)
    np.maximum(d, 0.0, out=d)
    np.fill_diagonal(d, 0.0)  # rounding leaves up to about 1e-15 there
    np.sqrt(d, out=d)
    row = d.mean(axis=1, keepdims=True)
    col = d.mean(axis=0, keepdims=True)
    total = d.mean()
    d -= row
    d -= col
    d += total
    return d


def _dcor(ca, dvar_a, cb, scratch):
    """Distance correlation from centered matrices, given dVar^2 of ca;
    every entrywise product is formed in scratch."""
    dvar_b = float(np.multiply(cb, cb, out=scratch).mean())
    dcov2 = float(np.multiply(ca, cb, out=scratch).mean())
    if dvar_a <= 0.0 or dvar_b <= 0.0:
        return 0.0
    return float(np.sqrt(max(dcov2, 0.0) / np.sqrt(dvar_a * dvar_b)))


def distance_correlation(a, b):
    """Biased sample distance correlation between paired observations, the
    same at any power-of-two scale of a or b; a nan or inf raises
    ValueError naming a or b."""
    a, b = _as_matrix(a), _as_matrix(b)
    if len(a) != len(b):
        raise ValueError(f"paired samples must align: {len(a)} vs {len(b)}")
    if len(a) < 2:
        raise ValueError("need at least two observations")
    ca = _centered_distances(a, "a")
    scratch = np.empty_like(ca)
    dvar = float(np.multiply(ca, ca, out=scratch).mean())
    return _dcor(ca, dvar, _centered_distances(b, "b"), scratch)


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
    reps are centered, and their dVar^2 taken, once for all four factors."""
    reps, _ = encoder.encode_np(data.x)
    if len(reps) < 2:
        raise ValueError("need at least two observations")
    factors = factor_table(data)
    labels = head.logits_np(reps) >= 0.0
    ca = _centered_distances(reps, "representation")
    scratch = np.empty_like(ca)
    dvar = float(np.multiply(ca, ca, out=scratch).mean())
    # factor_table's columns come in the order of EvalReport's dcor fields
    dcor = [_dcor(ca, dvar, _centered_distances(_as_matrix(column), "factor"), scratch)
            for column in factors.T]
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
