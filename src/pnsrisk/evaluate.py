"""Representation diagnostics: distance correlation against the planted
factors, plus plain and per-group label accuracy.

Distance correlation is the biased sample statistic: double-center each
pairwise Euclidean distance matrix, take dCov^2 as the mean of the
entrywise product, and normalize by the geometric mean of the two
dVar^2 terms.  It is zero exactly when either argument is constant and
lands in [0, 1] up to floating point.

evaluate centers the representation's distance matrix and takes its
dVar^2 once, and shares both across the four factors; every entrywise
product goes through one scratch matrix.
"""

from __future__ import annotations

import math
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
    built in place in one n x n array.  Squared row norms past a quarter
    of the float range would overflow it: FloatingPointError names a."""
    with np.errstate(over="ignore", invalid="ignore"):
        sq = (a * a).sum(axis=1)
    if not sq.max() <= np.finfo(np.float64).max / 4:
        raise FloatingPointError(f"{name} is out of range for distance correlation")
    d = a @ a.T
    d *= 2.0
    np.subtract(sq[:, None] + sq[None, :], d, out=d)
    np.maximum(d, 0.0, out=d)
    np.sqrt(d, out=d)
    row = d.mean(axis=1, keepdims=True)
    col = d.mean(axis=0, keepdims=True)
    total = d.mean()
    d -= row
    d -= col
    d += total
    return d


def _dvar(c, scratch, name):
    """dVar^2 of a centered matrix c, its product formed in scratch.
    A mean of squares that overflows raises FloatingPointError naming
    the input."""
    with np.errstate(over="ignore", invalid="ignore"):
        dvar = float(np.multiply(c, c, out=scratch).mean())
    if not math.isfinite(dvar):
        raise FloatingPointError(f"{name} is out of range for distance correlation")
    return dvar


def _dcor(ca, dvar_a, cb, scratch, names):
    """Distance correlation from centered matrices, given dVar^2 of ca;
    names are the two inputs'.  dCov^2 is bounded by the two finite
    dVar^2, but their product can overflow: FloatingPointError."""
    dvar_b = _dvar(cb, scratch, names[1])
    dcov2 = float(np.multiply(ca, cb, out=scratch).mean())
    if dvar_a <= 0.0 or dvar_b <= 0.0:
        return 0.0
    product = dvar_a * dvar_b
    if not math.isfinite(product):
        raise FloatingPointError(
            f"{names[0]} and {names[1]} are out of range for distance correlation")
    return float(np.sqrt(max(dcov2, 0.0) / np.sqrt(product)))


def distance_correlation(a, b):
    """Biased sample distance correlation between paired observations."""
    a, b = _as_matrix(a), _as_matrix(b)
    if len(a) != len(b):
        raise ValueError(f"paired samples must align: {len(a)} vs {len(b)}")
    if len(a) < 2:
        raise ValueError("need at least two observations")
    ca = _centered_distances(a, "a")
    scratch = np.empty_like(ca)
    return _dcor(ca, _dvar(ca, scratch, "a"), _centered_distances(b, "b"), scratch, ("a", "b"))


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
    dvar = _dvar(ca, scratch, "representation")
    # factor_table's columns come in the order of EvalReport's dcor fields
    dcor = [_dcor(ca, dvar, _centered_distances(_as_matrix(column), "factor"), scratch,
                  ("representation", "factor"))
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
