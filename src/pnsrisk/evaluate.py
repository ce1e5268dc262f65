"""Representation diagnostics: distance correlation against the planted
factors, plus plain and per-group label accuracy.

Distance correlation is the biased sample statistic: double-center each
pairwise Euclidean distance matrix, take dCov^2 as the mean of the
entrywise product, and normalize by the geometric mean of the two
dVar^2 terms.  It is zero exactly when either argument is constant and
lands in [0, 1] up to floating point.
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


def _centered_distances(a):
    sq = (a * a).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (a @ a.T)
    d = np.sqrt(np.maximum(d2, 0.0))
    row = d.mean(axis=1, keepdims=True)
    col = d.mean(axis=0, keepdims=True)
    return d - row - col + d.mean()


def distance_correlation(a, b):
    """Biased sample distance correlation between paired observations."""
    a, b = _as_matrix(a), _as_matrix(b)
    if len(a) != len(b):
        raise ValueError(f"paired samples must align: {len(a)} vs {len(b)}")
    if len(a) < 2:
        raise ValueError("need at least two observations")
    ca, cb = _centered_distances(a), _centered_distances(b)
    dcov2 = float((ca * cb).mean())
    dvar_a = float((ca * ca).mean())
    dvar_b = float((cb * cb).mean())
    if dvar_a <= 0.0 or dvar_b <= 0.0:
        return 0.0
    return float(np.sqrt(max(dcov2, 0.0) / np.sqrt(dvar_a * dvar_b)))


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
    posterior mean gives the dcor reps and the labels (logit >= 0)."""
    reps, _ = encoder.encode_np(data.x)
    factors = factor_table(data)
    labels = head.logits_np(reps) >= 0.0
    return EvalReport(
        dcor_sn=distance_correlation(reps, factors[:, 0]),
        dcor_sf=distance_correlation(reps, factors[:, 1]),
        dcor_nc=distance_correlation(reps, factors[:, 2]),
        dcor_sp=distance_correlation(reps, factors[:, 3]),
        accuracy=float((labels == data.y).mean()),
        n=len(data),
    )


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
