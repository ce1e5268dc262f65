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
above zero (else 0), and

    x = sigmoid(kappa1 * kappa1).

The product with kappa2(t) = t + 0.5 below zero (else 0) is not offered:
kappa1 is nonzero only where t > 0 and kappa2 only where t < 0, so
kappa1 * kappa2 is 0 everywhere and every feature would be exactly 0.5.

Row i draws from the Philox stream keyed by (seed ^ ROLE_SYNTH, i)
(pnsrisk.streams) in a fixed order, four coins and then Box-Muller
normals from (radius, angle) uniforms, so any sample can be regenerated
in isolation and files are byte-stable.  The rows' uniforms are read a
block at a time through streams.keyed_rows, one re-keyed Philox per call.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .autodiff import sigmoid_np
from .pns import DiscreteScm
from .streams import ROLE_SYNTH, SEED_MAX, integer, keyed_rows

__all__ = [
    "SynthConfig",
    "SynthData",
    "generate",
    "factor_table",
    "write_csv",
    "read_csv",
    "label_scm",
    "feature_scm",
]

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
    seed: int = 0

    def __post_init__(self):
        for name, low in (("d", 1), ("n_train", 1), ("n_eval", 2)):
            integer(getattr(self, name), name, low)
        integer(self.seed, "seed", 0, SEED_MAX - 1)  # the evaluation split is keyed by seed + 1
        for f in fields(self):  # a float field holds an int or a float, not a bool
            value = getattr(self, f.name)
            if type(f.default) is float and (isinstance(value, bool)
                                             or not isinstance(value, (int, float))):
                raise ValueError(f"{f.name} must be a number, got {value!r}")
        for name in ("s", "label_noise", "sf_flip", "nc_keep"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if not 0.0 <= self.noise_scale < np.inf:
            raise ValueError(f"noise_scale must be finite and nonnegative, got {self.noise_scale}")


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
    """n samples; seed defaults to config.seed.  n and seed must be
    integers in [0, SEED_MAX]; any other is refused with a ValueError.

    Row i reads the first 4 + 2m uniforms of its stream
    (seed, ROLE_SYNTH, i), m = ceil(5d / 2), in a fixed order: four coins
    (sn, label noise, sf flip, nc keep), then m (radius, angle) pairs.
    Box-Muller turns pair k into the normals 2k and 2k + 1,
    sqrt(-2 log(1 - u)) times the cosine and the sine of the angle; the
    first d normals are the spurious noise and the next 4d the jitter.
    Every draw is consumed even when unused, so streams stay aligned
    across configs, and row i depends only on (seed, i), not on n.
    Rows are drawn in the reader's blocks of at most 128, so the working
    set stays small whatever n is.
    """
    n = integer(n, "n", 0, SEED_MAX)
    seed = integer(config.seed if seed is None else seed, "seed", 0, SEED_MAX)
    d = config.d
    data = SynthData(
        x=np.empty((n, 4 * d)),
        y=np.empty(n, dtype=np.int64),
        sn=np.empty(n, dtype=np.int64),
        sf=np.empty(n, dtype=np.int64),
        nc=np.empty(n, dtype=np.int64),
        sp=np.empty((n, d)),
    )
    pairs = -(-5 * d // 2)
    for start, u in keyed_rows(seed, ROLE_SYNTH, range(n), "random", (4 + 2 * pairs,)):
        _fill(data, config, slice(start, start + len(u)), u)
    return data


def _fill(data, config, rows, u):
    """Turn one block's uniforms u into its rows of data: four coins,
    then the Box-Muller normals of the (radius, angle) pairs.  The
    block's temporaries are freed on return, before the next block draws."""
    d = config.d
    radius = np.sqrt(-2.0 * np.log(1.0 - u[:, 4::2]))  # 1 - u lies in (0, 1]
    angle = (2.0 * np.pi) * u[:, 5::2]
    normals = np.stack((radius * np.cos(angle), radius * np.sin(angle)), axis=2).reshape(
        len(u), -1)
    sn = (u[:, 0] < 0.5).astype(np.int64)
    noise_bit = u[:, 1] < config.label_noise
    flip_bit = u[:, 2] < config.sf_flip
    keep_bit = u[:, 3] < config.nc_keep
    sf = sn | flip_bit
    nc = sn * keep_bit
    sp = config.s * sn[:, None] + (1.0 - config.s) * normals[:, :d]
    t = np.concatenate(
        (np.repeat(np.column_stack((sn, sf, nc)), d, axis=1), sp), axis=1
    ) + normals[:, d : 5 * d] * config.noise_scale
    kappa1 = np.where(t > 0.0, t - 0.5, 0.0)
    data.x[rows] = sigmoid_np(kappa1 * kappa1)
    data.y[rows] = sn ^ noise_bit
    data.sn[rows], data.sf[rows], data.nc[rows] = sn, sf, nc
    data.sp[rows] = sp


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


def _header(d):
    """The dataset CSV's columns for d-dimensional blocks."""
    xs = [f"x_{j}" for j in range(4 * d)]
    return xs + ["y", "sn", "sf", "nc"] + [f"sp_{j}" for j in range(d)]


def write_csv(path, data):
    """Header x_0..x_{4d-1}, y, sn, sf, nc, sp_0..sp_{d-1}; shortest
    round-trip float formatting, so bytes are a pure function of values."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(_header(data.sp.shape[1])) + "\n")
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
        d = header.index("y") // 4 if "y" in header else 0
        if d < 1 or header != _header(d):
            raise ValueError(f"{path}:1: not a benchmark csv header; write_csv writes "
                             "x_0..x_{4d-1},y,sn,sf,nc,sp_0..sp_{d-1}")
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
    labels = raw[:, 4 * d : 4 * d + 4]
    bad[:, 4 * d : 4 * d + 4] |= (labels != 0.0) & (labels != 1.0)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        value = float(raw[row, col])
        what = "must be 0 or 1" if np.isfinite(value) else "is not finite"
        raise ValueError(f"{path}:{linenos[row]}: {header[col]} = {value!r} {what}")
    y, sn, sf, nc = labels.T.astype(np.int64)
    return SynthData(x=raw[:, : 4 * d], y=y, sn=sn, sf=sf, nc=nc, sp=raw[:, 4 * d + 4 :])


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

