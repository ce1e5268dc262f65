"""Synthetic benchmark with planted causal and spurious factors.

Each sample carries four latent factors derived from a fair coin sn:

* sn: the sufficient-and-necessary cause; the label is sn with a small
  flip probability,
* sf: sufficient but not necessary; fires whenever sn does and with a
  small probability on its own,
* nc: necessary but not sufficient; a thinned copy of sn,
* sp: spurious block, s * sn + (1 - s) * standard normal per dimension,
  so s interpolates from independent noise to a clone of sn.

The observed x mixes the four blocks through a kinked squash:
t is the concatenated blocks plus Gaussian jitter, kappa1(t) = t - 0.5
above zero (else 0), kappa2(t) = t + 0.5 below zero (else 0), and

    x = sigmoid(kappa1 * kappa1)        (mixer "as_written")
    x = sigmoid(kappa1 * kappa2)        (mixer "k1k2")

Per-sample draws come from the Philox stream keyed by (seed, index)
(pnsrisk.streams, plain role) with a fixed draw order, so any sample can
be regenerated in isolation and files are byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import sigmoid_np
from .pns import DiscreteScm
from .streams import ROLE_PLAIN, keyed

__all__ = [
    "SynthConfig",
    "SynthData",
    "generate",
    "factor_table",
    "write_csv",
    "read_csv",
    "label_scm",
    "feature_scm",
    "functional_intervention",
]

MIXERS = ("as_written", "k1k2")


@dataclass(frozen=True)
class SynthConfig:
    d: int = 5
    s: float = 0.1
    n_train: int = 20000
    n_eval: int = 500
    label_noise: float = 0.15
    sf_flip: float = 0.1
    nc_keep: float = 0.9
    noise_scale: float = 0.3
    mixer: str = "as_written"
    seed: int = 0

    def __post_init__(self):
        for name, low in (("d", 1), ("n_train", 1), ("n_eval", 1), ("seed", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be at least {low}, got {getattr(self, name)}")
        for name in ("s", "label_noise", "sf_flip", "nc_keep"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if not 0.0 <= self.noise_scale < np.inf:
            raise ValueError(f"noise_scale must be finite and nonnegative, got {self.noise_scale}")
        if self.mixer not in MIXERS:
            raise ValueError(f"mixer must be one of {MIXERS}, got {self.mixer!r}")


@dataclass(frozen=True)
class SynthData:
    x: np.ndarray
    y: np.ndarray
    sn: np.ndarray
    sf: np.ndarray
    nc: np.ndarray
    sp: np.ndarray

    def __len__(self):
        return len(self.y)


def generate(config, n, seed=None):
    """n samples; seed defaults to config.seed.

    The draw order per sample is fixed (sn coin, label coin, sf coin,
    nc coin, d spurious normals, 4d jitter normals) and every draw is
    consumed even when unused, so streams stay aligned across configs.
    """
    if seed is None:
        seed = config.seed
    d = config.d
    x = np.empty((n, 4 * d))
    y = np.empty(n, dtype=np.int64)
    sn_col = np.empty(n, dtype=np.int64)
    sf_col = np.empty(n, dtype=np.int64)
    nc_col = np.empty(n, dtype=np.int64)
    sp_block = np.empty((n, d))
    ones = np.ones(d)
    for i in range(n):
        gen = keyed(seed, ROLE_PLAIN, i)
        sn = int(gen.random() < 0.5)
        noise_bit = int(gen.random() < config.label_noise)
        flip_bit = int(gen.random() < config.sf_flip)
        keep_bit = int(gen.random() < config.nc_keep)
        sp_eps = gen.standard_normal(d)
        jitter = gen.standard_normal(4 * d) * config.noise_scale
        sf = 1 if sn == 1 else flip_bit
        nc = sn * keep_bit
        sp = config.s * sn * ones + (1.0 - config.s) * sp_eps
        t = np.concatenate((sn * ones, sf * ones, nc * ones, sp)) + jitter
        kappa1 = np.where(t > 0.0, t - 0.5, 0.0)
        if config.mixer == "as_written":
            mixed = kappa1 * kappa1
        else:
            kappa2 = np.where(t < 0.0, t + 0.5, 0.0)
            mixed = kappa1 * kappa2
        x[i] = sigmoid_np(mixed)
        y[i] = sn ^ noise_bit
        sn_col[i], sf_col[i], nc_col[i] = sn, sf, nc
        sp_block[i] = sp
    return SynthData(x=x, y=y, sn=sn_col, sf=sf_col, nc=nc_col, sp=sp_block)


def factor_table(data):
    """Ground-truth factor columns (sn, sf, nc, mean of the sp block)."""
    return np.column_stack(
        (
            data.sn.astype(np.float64),
            data.sf.astype(np.float64),
            data.nc.astype(np.float64),
            data.sp.mean(axis=1),
        )
    )


def write_csv(path, data):
    """Header x_0..x_{4d-1}, y, sn, sf, nc, sp_0..sp_{d-1}; shortest
    round-trip float formatting, so bytes are a pure function of values."""
    d = data.sp.shape[1]
    header = (
        [f"x_{j}" for j in range(4 * d)]
        + ["y", "sn", "sf", "nc"]
        + [f"sp_{j}" for j in range(d)]
    )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(len(data)):
            cells = [repr(float(v)) for v in data.x[i]]
            cells += [str(int(data.y[i])), str(int(data.sn[i])), str(int(data.sf[i])),
                      str(int(data.nc[i]))]
            cells += [repr(float(v)) for v in data.sp[i]]
            fh.write(",".join(cells) + "\n")


def read_csv(path):
    """Inverse of write_csv; a malformed file raises ValueError naming
    the file, and the line where one is at fault.  Every cell must be
    finite, and every label cell (y, sn, sf, nc) exactly 0 or 1."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        try:
            y_at = header.index("y")
            d4 = y_at
            d = d4 // 4
            sp_at = header.index("sp_0")
        except ValueError:
            raise ValueError(f"{path}: not a benchmark csv (missing y/sp_0 columns)") from None
        if header[:d4] != [f"x_{j}" for j in range(d4)] or d4 != 4 * d:
            raise ValueError(f"{path}: malformed x columns")
        values = []
        linenos = []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            cells = line.rstrip("\n").split(",")
            if len(cells) != len(header):
                raise ValueError(
                    f"{path}:{lineno}: expected {len(header)} cells, got {len(cells)}")
            try:
                values.append([float(c) for c in cells])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            linenos.append(lineno)
    if not values:
        raise ValueError(f"{path}: no data rows")
    raw = np.array(values)
    bad = ~np.isfinite(raw)
    labels = raw[:, y_at : y_at + 4]
    bad[:, y_at : y_at + 4] |= (labels != 0.0) & (labels != 1.0)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        value = float(raw[row, col])
        what = "must be 0 or 1" if np.isfinite(value) else "is not finite"
        raise ValueError(f"{path}:{linenos[row]}: {header[col]} = {value!r} {what}")
    return SynthData(
        x=raw[:, :d4],
        y=raw[:, y_at].astype(np.int64),
        sn=raw[:, y_at + 1].astype(np.int64),
        sf=raw[:, y_at + 2].astype(np.int64),
        nc=raw[:, y_at + 3].astype(np.int64),
        sp=raw[:, sp_at : sp_at + d],
    )


def label_scm(config):
    """The generator's label mechanism as a discrete model with C = sn:
    an exogenous fair-coin cause and y = c xor noise."""
    p = config.label_noise
    return DiscreteScm(
        c_values=(0, 1),
        u_values=(0, 1),
        u_probs=(1.0 - p, p),
        cause_table={0: 0.5, 1: 0.5},
        mechanism=lambda c, u: c ^ u,
    )


def feature_scm(config, feature):
    """The generator with C = sf or C = nc: the cause is a deterministic
    function of the exogenous tuple, hence confounded with the label."""
    ln, fl, keep = config.label_noise, config.sf_flip, config.nc_keep
    if feature == "sf":
        # u = (sn, flip, noise)
        aux = fl
        value = lambda sn, bit: 1 if sn == 1 else bit
    elif feature == "nc":
        # u = (sn, keep, noise)
        aux = keep
        value = lambda sn, bit: sn * bit
    else:
        raise ValueError(f"feature must be sf or nc, got {feature!r}")
    u_values = []
    u_probs = []
    cause = {}
    for sn in (0, 1):
        for bit in (0, 1):
            for noise in (0, 1):
                u = (sn, bit, noise)
                u_values.append(u)
                u_probs.append(
                    0.5 * (aux if bit else 1.0 - aux) * (ln if noise else 1.0 - ln)
                )
                f = value(sn, bit)
                cause[u] = {0: 0.0 if f == 1 else 1.0, 1: 1.0 if f == 1 else 0.0}
    return DiscreteScm(
        c_values=(0, 1),
        u_values=tuple(u_values),
        u_probs=tuple(u_probs),
        cause_table=cause,
        mechanism=lambda c, u: u[0] ^ u[2],
    )


def functional_intervention(config, feature, y=1):
    """P(Y=y | do(F=f)) for a functional intervention that replaces the
    feature's mechanism but keeps its dependence on sn, versus the plain
    observational conditional.  Returns {f: (interventional, observational)}.

    The intervention decomposes through the root cause:
    P(Y=y | do(F=f)) = sum_sn P(Y=y | do(sn)) P(sn | F=f).
    """
    scm = feature_scm(config, feature)
    label = label_scm(config)
    out = {}
    for f in (0, 1):
        p_f = scm.p_cause(f)
        if p_f <= 0.0:
            raise ValueError(f"feature value {f} has zero probability")
        p_sn_given_f = {}
        for sn in (0, 1):
            mass = sum(
                pu * scm.p_cause_given_noise(f, u)
                for u, pu in zip(scm.u_values, scm.u_probs)
                if u[0] == sn
            )
            p_sn_given_f[sn] = mass / p_f
        do_value = sum(label.p_do(sn, y) * p_sn_given_f[sn] for sn in (0, 1))
        obs_value = scm.p_outcome_given_cause(f, y)
        out[f] = (do_value, obs_value)
    return out
