"""The three benchmark workloads.

Each workload builds its inputs from the workload seed in ``__init__``
(set-up) and runs one closed-loop operation per ``run`` call.  ``run``
returns an Outcome: the failed correctness gates of the operation and
the quality figures it produced.  Every call into the package goes
through a module attribute at call time, so a Tracer installed between
operations sees it.

Seed n maps to synth seed n + 1 and train seed n; seed 0 is the
acceptance seed (synth seed 1, train seed 0).
"""

import csv
import io
import math
import shutil
import statistics
from contextlib import redirect_stdout
from dataclasses import dataclass, field, replace

import numpy as np

# The acceptance reproduction spec with a one-seed grid.
REPRO_SPEC = """\
[experiment]
name = reproduction

[synth]
d = 5
s = 0.1
n_train = {n_train}
n_eval = 500
seed = {synth_seed}

[train]
total_steps = {total_steps}
lr_min = 0.05
lr_max = 0.05
momentum = 0.9
max_every = 50
max_steps_per_phase = 10
adversary_kl = false
rep_dim = 16
hidden = 64, 32
delta = 1.1

[grid]
variant = casn
seed = {train_seed}

[acceptance]
dcor_sn_min = 0.75
dcor_gap_min = 0.3
"""

FULL = {"n_train": 5000, "total_steps": 2000}
# smoke-test size: same schedule and gates, fewer rows and steps
TINY = {"n_train": 1000, "total_steps": 400}


@dataclass
class Outcome:
    failures: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)


def _spec(mods, seed, tiny):
    sizes = TINY if tiny else FULL
    text = REPRO_SPEC.format(synth_seed=seed + 1, train_seed=seed, **sizes)
    return mods["cli"].parse_config(text)


class ReproCasn:
    """cli.run_repro on the acceptance spec, one grid point."""

    def __init__(self, mods, seed, workdir, tiny=False):
        self.mods = mods
        self.spec = _spec(mods, seed, tiny)
        self.out_dir = workdir / "repro"

    def run(self):
        out = Outcome()
        shutil.rmtree(self.out_dir, ignore_errors=True)
        with redirect_stdout(io.StringIO()) as log:
            passed = self.mods["cli"].run_repro(self.spec, self.out_dir)
        if not passed:
            out.failures.append("run_repro checks: " + " | ".join(
                line for line in log.getvalue().splitlines() if line.startswith("FAIL")))
        with open(self.out_dir / "summary.csv", newline="", encoding="utf-8") as fh:
            row = next(r for r in csv.DictReader(fh) if r["variant"] == "casn")
        dcor_sn = float(row["dcor_sn"])
        out.quality = {"dcor_sn": dcor_sn, "dcor_gap": dcor_sn - float(row["dcor_sp"])}
        shutil.rmtree(self.out_dir)
        return out


def _concat(synth, parts):
    return synth.SynthData(**{
        name: np.concatenate([getattr(p, name) for p in parts])
        for name in ("x", "y", "sn", "sf", "nc", "sp")})


class TrainVariants:
    """train() for casn_minus_m and casn_irm on two-domain data.

    casn_irm runs with irm_anneal_iters = 0, so its penalty weight is
    irm_weight from the first step.  With the acceptance [train] section
    unchanged (weight 1 for the first 1000 steps) it diverges on some
    seeds; README.md records which.  The graph and the work per step are
    the same either way.
    """

    def __init__(self, mods, seed, workdir, tiny=False):
        self.mods = mods
        spec = _spec(mods, seed, tiny)
        synth = mods["synth"]
        half = spec.synth.n_train // 2
        domain_a = replace(spec.synth, s=0.1)
        domain_b = replace(spec.synth, s=0.7)
        parts = [synth.generate(domain_a, half),
                 synth.generate(domain_b, half, seed=domain_b.seed + 2)]
        self.data = _concat(synth, parts)
        self.domains = np.repeat([0, 1], half)
        self.eval_data = synth.generate(domain_a, spec.synth.n_eval, seed=domain_a.seed + 1)
        # casn_irm skips the weight-1 penalty warm-up; see README.md
        self.configs = [replace(spec.train, variant="casn_minus_m", seed=spec.grid_seed[0]),
                        replace(spec.train, variant="casn_irm", seed=spec.grid_seed[0],
                                irm_anneal_iters=0)]

    def run(self):
        out = Outcome()
        train_mod = self.mods["train"]
        sn, gap = [], []
        for config in self.configs:
            try:
                result = train_mod.train(self.data, config, domains=self.domains)
            except train_mod.TrainingDiverged as exc:
                out.failures.append(f"{config.variant}: {exc}")
                continue
            risk = result.risk
            values = (risk.sf, risk.nc, risk.m, risk.r, risk.kl_c, risk.kl_cbar)
            if not all(math.isfinite(v) for v in values):
                out.failures.append(f"{config.variant}: non-finite risk {values}")
            report = self.mods["evaluate"].evaluate(self.eval_data, result.enc_c, result.head)
            sn.append(report.dcor_sn)
            gap.append(report.dcor_sn - report.dcor_sp)
        if sn:
            # the worse variant, as the acceptance checks take the worst cell
            out.quality = {"dcor_sn": min(sn), "dcor_gap": min(gap)}
        return out


class Controls:
    """The exact and graph-free routes; no autodiff graph is built.

    The quality figures are those of the raw features: distance
    correlation of x with the planted cause and with the spurious block,
    averaged over the 500-row slices, the baseline a learned
    representation is compared against.
    """

    # Parts are sized so that none takes under a tenth of the operation.
    # The working set is kept small, as on the training workloads, so that
    # less of the time depends on the cache and memory bandwidth other
    # processes on the host share: the models and bound instances are a
    # pool gone over `passes` times, and distance correlation runs on
    # 500-row slices (the acceptance n_eval), not at n = 2000, where each
    # distance matrix is 32 MB.
    FULL = {"scms": 1000, "shift": 60, "passes": 10, "deviation": 10, "rows": 6000,
            "risk_rows": 2000, "risk_repeats": 2, "eval_rows": 500}
    TINY = {"scms": 200, "shift": 20, "passes": 1, "deviation": 2, "rows": 400,
            "risk_rows": 200, "risk_repeats": 1, "eval_rows": 200}

    def __init__(self, mods, seed, workdir, tiny=False):
        self.mods = mods
        self.size = self.TINY if tiny else self.FULL
        model, risk, pns, synth = mods["model"], mods["risk"], mods["pns"], mods["synth"]
        rng = np.random.default_rng([seed, 0xC0])
        passes = self.size["passes"]
        self.scms = [pns.random_identifiable_scm(rng) for _ in range(self.size["scms"])] * passes
        self.shift = [(risk.random_bound_instance(rng), int(rng.integers(2**31)))
                      for _ in range(self.size["shift"])] * passes
        self.deviation = [(risk.random_bound_instance(rng, out_of_support=False),
                           int(rng.integers(2**31)))
                          for _ in range(self.size["deviation"])]
        self.prior = model.GaussianPrior.standard(3)
        # an encoder pair and labeler at the acceptance shapes
        self.enc = model.GaussianEncoder(20, rep_dim=16, hidden=(64, 32), rng=rng,
                                         prefix="enc_c")
        self.twin = model.clone_perturbed(self.enc, rng)
        self.head = model.LinearHead(16, rng=rng)
        self.synth_config = synth.SynthConfig(d=5, s=0.1, seed=seed + 1)
        self.mc_seed = seed
        self.csv_path = workdir / "controls.csv"
        self.ckpt_path = workdir / "controls.ckpt"

    def run(self):
        out = Outcome()
        data = self._synth_io(out)
        self._risk(out, data)
        self._evaluate(out, data)
        self._oracle(out)
        self._bounds(out)
        return out

    def _synth_io(self, out):
        synth, model = self.mods["synth"], self.mods["model"]
        data = synth.generate(self.synth_config, self.size["rows"])
        synth.write_csv(self.csv_path, data)
        back = synth.read_csv(self.csv_path)
        for name in ("x", "y", "sn", "sf", "nc", "sp"):
            a, b = getattr(data, name), getattr(back, name)
            if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
                out.failures.append(f"csv round trip changed column block {name}")
        params = {**self.enc.parameters(), **self.twin.parameters(), **self.head.parameters()}
        meta = {"rep_dim": "16", "hidden": "64,32"}
        model.save_checkpoint(self.ckpt_path, params, meta=meta)
        loaded, loaded_meta = model.load_checkpoint(self.ckpt_path)
        if loaded_meta != meta or sorted(loaded) != sorted(params) or any(
                loaded[k].shape != p.data.shape or loaded[k].tobytes() != p.data.tobytes()
                for k, p in params.items()):
            out.failures.append("checkpoint round trip is not bit-exact")
        return data

    def _risk(self, out, data):
        n = self.size["risk_rows"]
        for k in range(self.size["risk_repeats"]):
            rows = slice(k * n, (k + 1) * n)
            report = self.mods["risk"].estimate_risk(
                data.x[rows], data.y[rows], self.enc, self.twin, self.head,
                mc_samples=32, seed=self.mc_seed)
            sf, nc, m = np.array(report.per_sample).T
            worst = float(np.max(np.abs(m - (sf * (1.0 - nc) + (1.0 - sf) * nc))))
            if not worst <= 1e-12:
                out.failures.append(f"per-sample identity off by {worst:.3e}")

    def _evaluate(self, out, data):
        evaluate, synth = self.mods["evaluate"], self.mods["synth"]
        n = self.size["eval_rows"]
        sn, gap = [], []
        for start in range(0, len(data) - n + 1, n):
            rows = slice(start, start + n)
            part = synth.SynthData(**{name: getattr(data, name)[rows]
                                      for name in ("x", "y", "sn", "sf", "nc", "sp")})
            evaluate.evaluate(part, self.enc, self.head)
            dcor_sn = evaluate.distance_correlation(part.x, part.sn)
            sn.append(dcor_sn)
            gap.append(dcor_sn - evaluate.distance_correlation(part.x, part.sp.mean(axis=1)))
        out.quality = {"dcor_sn": statistics.fmean(sn), "dcor_gap": statistics.fmean(gap)}

    def _oracle(self, out):
        analyze = self.mods["pns"].analyze
        worst = max(abs(r.pns - r.identified_pns)
                    for r in (analyze(scm, 1, 0, 1) for scm in self.scms))
        if not worst <= 1e-12:
            out.failures.append(f"|exact - identified PNS| = {worst:.3e}")

    def _bounds(self, out):
        risk = self.mods["risk"]
        broken = sum(
            not risk.domain_shift_bound(t, s, enc_c, enc_cbar, head, mc_samples=32,
                                        seed=seed).holds
            for (t, s, enc_c, enc_cbar, head), seed in self.shift)
        if broken:
            out.failures.append(f"{broken} of {len(self.shift)} shift bounds fail")
        violated = sum(
            risk.sufficiency_deviation_trial(s, enc_c, head, self.prior, n=500,
                                             epsilon=0.1, seed=seed)[2]
            for (_, s, enc_c, _, head), seed in self.deviation)
        if violated > 0.1 * len(self.deviation):
            out.failures.append(f"{violated} of {len(self.deviation)} deviation trials violate")


WORKLOADS = {"repro_casn": ReproCasn, "train_variants": TrainVariants, "controls": Controls}
