"""Command-line front end.

Subcommands:

    synth    generate a synthetic dataset CSV
    train    fit a model from a key=value config file and a data CSV
    eval     score a checkpoint against a dataset
    oracle   exact counterfactual analysis of a discrete SCM file
    bounds   run the domain-shift and deviation bound suites
    repro    end-to-end pipeline: generate, train a grid, aggregate, check

Configs are ``key = value`` lines, all read by one reader.  Experiment
files (``repro --spec``) group them under ``[section]`` headers:
``[experiment]``, ``[synth]``, ``[train]``, ``[grid]``, ``[acceptance]``.
A flat file (``train --config``, and the ``.config`` neighbour of a
dataset) is a body with no sections, one line per field of its config
class.  Blank lines and ``#`` comments are ignored everywhere; unknown
keys are errors.  Every CSV written by any subcommand gets a
``<name>.sha256`` sidecar holding the hash of the normalized config that
generated it.

``repro`` runs in three parts.  ``ExperimentSpec.grid`` plans one
TrainConfig per grid point; ``_repro_point`` trains and scores one point
into its run directory from its arguments alone and returns its
``runs.csv`` row; ``run_repro`` sorts those rows by point, writes
``runs.csv`` and ``aborted.csv``, takes the per-cell medians of
``summary.csv`` over the sorted rows and runs the acceptance checks.
"""

import argparse
import csv
import hashlib
import itertools
import statistics
import sys
from dataclasses import dataclass, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from .evaluate import evaluate
from .model import GaussianPrior
from .pns import analyze, format_report, read_scm
from .risk import domain_shift_bound, random_bound_instance, sufficiency_deviation_trial
from .streams import integer
from .synth import SynthConfig, generate, read_csv, write_csv
from .train import (
    StepRecord,
    TrainConfig,
    TrainingDiverged,
    check_domains,
    load_model,
    save_model,
    train,
)


class ConfigError(ValueError):
    """Malformed or unknown configuration content."""


# --------------------------------------------------------------------------
# key = value plumbing


def _format_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, tuple):
        return ", ".join(_format_value(v) for v in value)
    return str(value)


def _list_of(parse, text):
    """A comma-separated list; an empty value is the empty list, and an
    empty item is refused."""
    items = [tok.strip() for tok in text.split(",")] if text else []
    if "" in items:
        raise ValueError(f"empty item in {text!r}")
    return tuple(parse(tok) for tok in items)


def _parse_like(text, default):
    """Parse ``text`` with the type implied by a field's default value."""
    if isinstance(default, bool):
        if text not in ("true", "false"):
            raise ValueError(f"expected true or false, got {text!r}")
        return text == "true"
    if isinstance(default, int):
        return int(text)
    if isinstance(default, float):
        return float(text)
    if isinstance(default, tuple):
        return _list_of(int, text)
    return text


def _field_parsers(config_cls):
    return {f.name: partial(_parse_like, default=f.default) for f in fields(config_cls)}


def _read_body(text, schema):
    """Read ``key = value`` lines into {section: {key: parsed value}}.

    schema maps each section name to {key: parser}.  A flat body has the
    single section None and takes no ``[section]`` headers.  The first
    malformed line raises ConfigError("line <n>: ...").
    """
    body = {name: {} for name in schema}
    seen = set()
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if None not in schema and line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in schema:
                raise ConfigError(f"line {lineno}: unknown section {section!r}")
            if section in seen:
                raise ConfigError(f"line {lineno}: repeated section {section!r}")
            seen.add(section)
            continue
        if section not in schema:
            raise ConfigError(f"line {lineno}: key outside any section")
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in schema[section]:
            where = "" if section is None else f" in [{section}]"
            raise ConfigError(f"line {lineno}: unknown key {key!r}{where}")
        if key in body[section]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            body[section][key] = schema[section][key](value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
    return body


def _build(config_cls, values, section=None):
    """config_cls(**values), with its ValueError as a ConfigError."""
    try:
        return config_cls(**values)
    except ValueError as exc:
        raise ConfigError(str(exc) if section is None else f"[{section}]: {exc}") from None


def parse_flat(text, config_cls):
    """Parse a flat key=value file into a config dataclass."""
    return _build(config_cls, _read_body(text, {None: _field_parsers(config_cls)})[None])


def serialize_flat(config):
    """One line per field; parse_flat(serialize_flat(c), type(c)) == c."""
    return "".join(
        f"{f.name} = {_format_value(getattr(config, f.name))}\n"
        for f in fields(type(config))
    )


# --------------------------------------------------------------------------
# experiment specs


_GRID_PARSERS = {"delta": float, "lam": float, "variant": str, "seed": int}
_CHECK_KEYS = ("dcor_sn_min", "dcor_gap_min", "ablation_margin")
_SPEC_SCHEMA = {
    "experiment": {"name": str},
    "synth": _field_parsers(SynthConfig),
    "train": _field_parsers(TrainConfig),
    "grid": {key: partial(_list_of, parse) for key, parse in _GRID_PARSERS.items()},
    "acceptance": dict.fromkeys(_CHECK_KEYS, float),
}


@dataclass(frozen=True)
class ExperimentSpec:
    """One reproduction pipeline: a dataset, a config grid, pass criteria.

    The grid is the cross product delta x lam x variant x seed; every
    point trains one model with the [train] defaults overridden by its
    coordinates.  Acceptance thresholds are optional; an absent key means
    no check.  ablation_margin is a soft check: a failure is reported but
    does not fail the pipeline.
    """

    name: str = "experiment"
    synth: SynthConfig = SynthConfig()
    train: TrainConfig = TrainConfig()
    grid_delta: tuple = None
    grid_lam: tuple = None
    grid_variant: tuple = None
    grid_seed: tuple = None
    dcor_sn_min: float = None
    dcor_gap_min: float = None
    ablation_margin: float = None

    def __post_init__(self):
        for f in fields(self):  # a field holds its default (None for most) or its annotated type
            value = getattr(self, f.name)
            kind = {float: (int, float), tuple: (tuple, list)}.get(f.type, f.type)
            if isinstance(value, bool) or not (value is f.default or isinstance(value, kind)):
                raise ConfigError(f"{f.name} must be a {f.type.__name__}, got {value!r}")
        if "#" in self.name or " ".join(self.name.split()) != self.name:  # it must read back
            raise ConfigError(f"name must be single-spaced words with no '#', got {self.name!r}")
        for key in _GRID_PARSERS:  # an absent list is the [train] value alone
            value = getattr(self, f"grid_{key}")
            value = (getattr(self.train, key),) if value is None else tuple(value)
            if not value:
                raise ConfigError(f"empty grid list {key!r}")
            if len(set(value)) != len(value):
                raise ConfigError(f"duplicate values in grid list {key!r}")
            for v in value:  # each grid value must make a valid [train] config
                replace(self.train, **{key: v})
            object.__setattr__(self, f"grid_{key}", value)
        if not all(np.isfinite(getattr(self, key)) for key in _CHECK_KEYS
                   if getattr(self, key) is not None):
            raise ConfigError("acceptance thresholds must be finite")

    def grid(self):
        """One TrainConfig per grid point, in delta x lam x variant x seed
        order over the lists as given."""
        lists = (getattr(self, f"grid_{key}") for key in _GRID_PARSERS)
        return [replace(self.train, **dict(zip(_GRID_PARSERS, point)))
                for point in itertools.product(*lists)]


def parse_config(text):
    """Parse a sectioned experiment spec; strict about keys and sections."""
    body = _read_body(text, _SPEC_SCHEMA)
    return _build(ExperimentSpec, {
        **body["experiment"],
        "synth": _build(SynthConfig, body["synth"], "synth"),
        "train": _build(TrainConfig, body["train"], "train"),
        **{f"grid_{key}": values for key, values in body["grid"].items()},
        **body["acceptance"],
    })


def serialize_config(spec):
    """Canonical text for a spec; parse(serialize(spec)) == spec."""
    lines = ["[experiment]", f"name = {spec.name}", ""]
    lines += ["[synth]"] + serialize_flat(spec.synth).splitlines() + [""]
    lines += ["[train]"] + serialize_flat(spec.train).splitlines() + [""]
    lines += ["[grid]"]
    for key in _GRID_PARSERS:
        values = getattr(spec, f"grid_{key}")
        lines.append(f"{key} = {', '.join(_format_value(v) for v in values)}")
    lines += ["", "[acceptance]"]
    for key in _CHECK_KEYS:
        value = getattr(spec, key)
        if value is not None:
            lines.append(f"{key} = {_format_value(value)}")
    return "\n".join(lines) + "\n"


def config_hash(config_text):
    return hashlib.sha256(config_text.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------
# CSV emission (header row + config-hash sidecar, always)


def _write_sidecar(path, config_text):
    """<path>.sha256: the hash of the normalized config behind path."""
    Path(str(path) + ".sha256").write_text(config_hash(config_text) + "\n",
                                           encoding="utf-8")


def _cell(value):
    return "" if value is None or value == "" else _format_value(value)


def _write_csv(path, header, rows, config_text):
    """The header, then one line per row with each value as _cell writes it."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)
    _write_sidecar(path, config_text)


_RISK_FIELDS = ["sf", "nc", "m", "r", "kl_c", "kl_cbar", "mc_samples"]
# a grid point's scores: EvalReport's first five fields, then RiskReport's sf and m
_SCORES = ("dcor_sn", "dcor_sf", "dcor_nc", "dcor_sp", "accuracy", "sf", "m")


def _write_records(path, columns, records, config_text):
    """One row per record (a StepRecord or a RiskReport), one column per field."""
    _write_csv(path, columns, ([getattr(r, c) for c in columns] for r in records),
               config_text)


def _train_run(data, config, run_dir, config_text):
    """Train one model into run_dir: model.ckpt, trace.csv and risk.csv.
    A diverged run writes its trace so far, removes any checkpoint and risk
    report an earlier run left there, and re-raises."""
    trace_fields = [f.name for f in fields(StepRecord)]
    try:
        result = train(data, config)
    except TrainingDiverged as exc:
        _write_records(run_dir / "trace.csv", trace_fields, exc.trace, config_text)
        for name in ("model.ckpt", "risk.csv", "risk.csv.sha256"):
            (run_dir / name).unlink(missing_ok=True)
        raise
    save_model(run_dir / "model.ckpt", result)
    _write_records(run_dir / "trace.csv", trace_fields, result.trace, config_text)
    _write_records(run_dir / "risk.csv", _RISK_FIELDS, [result.risk], config_text)
    return result


# --------------------------------------------------------------------------
# subcommands


def cmd_synth(args):
    integer(args.n, "--n", 1)  # named as the user gave it, not as n_train
    try:
        config = SynthConfig(d=args.d, s=args.s, n_train=args.n, seed=args.seed)
    except ValueError as exc:  # it names the field, and d, s and seed are their flags
        raise ValueError(f"--{exc}") from None
    data = generate(config, args.n)
    write_csv(args.out, data)
    config_text = serialize_flat(config)
    Path(str(args.out) + ".config").write_text(config_text, encoding="utf-8")
    _write_sidecar(args.out, config_text)
    print(f"wrote {args.out}: {len(data)} rows, d={args.d}, s={args.s}")
    return 0


def cmd_train(args):
    config = parse_flat(Path(args.config).read_text(encoding="utf-8"), TrainConfig)
    check_domains(config.variant, None)
    data = read_csv(args.data)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    normalized = serialize_flat(config)
    (out / "config.txt").write_text(normalized, encoding="utf-8")
    result = _train_run(data, config, out, normalized)
    print(f"wrote {out / 'model.ckpt'}: sf={result.risk.sf:.4f} "
          f"m={result.risk.m:.4f} r={result.risk.r:.4f}")
    return 0


def cmd_eval(args):
    data = read_csv(args.data)
    if len(data) < 2:  # distance correlation needs two rows
        raise ValueError(f"{args.data}: eval needs at least two rows, got {len(data)}")
    enc_c, _, head, meta = load_model(args.checkpoint)
    if data.x.shape[1] != enc_c.in_dim:
        raise ValueError(f"{args.data}: {data.x.shape[1]} feature columns, but "
                         f"{args.checkpoint} takes {enc_c.in_dim}")
    report = evaluate(data, enc_c, head)
    s_value = ""
    neighbor = Path(str(args.data) + ".config")
    if neighbor.exists():
        try:
            s_value = parse_flat(neighbor.read_text(encoding="utf-8"), SynthConfig).s
        except ConfigError as exc:
            raise ConfigError(f"{neighbor}: {exc}") from None
    scores = _SCORES[:5]  # the EvalReport's
    row = [meta.get("delta", ""), s_value, meta.get("seed", ""),
           *(getattr(report, key) for key in scores)]
    _write_csv(args.out, ("delta", "s", "seed", *scores), [row],
               "".join(f"{k} = {meta[k]}\n" for k in sorted(meta)))
    print(f"wrote {args.out}: dcor_sn={report.dcor_sn:.4f} "
          f"dcor_sp={report.dcor_sp:.4f} accuracy={report.accuracy:.4f}")
    return 0


def cmd_oracle(args):
    scm = read_scm(args.scm)
    report = analyze(scm, args.c, args.cbar, args.y)
    print(format_report(report), end="")
    return 0


def cmd_bounds(args):
    integer(args.instances, "--instances", 1)  # no instances would be a vacuous pass
    integer(args.seed, "--seed", 0)
    rng = np.random.default_rng(args.seed)
    rows = []
    for i in range(args.instances):
        t, s, enc_c, enc_cbar, head = random_bound_instance(rng)
        report = domain_shift_bound(t, s, enc_c, enc_cbar, head,
                                    mc_samples=32,
                                    seed=int(rng.integers(2**31)))
        rows.append([f"shift-{i}", report.lhs, report.rhs, report.beta_inf,
                     report.eta, report.holds])
    prior = GaussianPrior.standard(3)
    for i in range(args.instances):
        _, s, enc_c, _, head = random_bound_instance(rng, out_of_support=False)
        deviation, rhs, violated = sufficiency_deviation_trial(
            s, enc_c, head, prior, n=200, epsilon=0.1,
            seed=int(rng.integers(2**31)))
        rows.append([f"deviation-{i}", deviation, rhs, "", "", not violated])
    config_text = f"instances = {args.instances}\nseed = {args.seed}\n"
    _write_csv(args.out, ["instance_id", "lhs", "rhs", "beta_inf", "eta",
                          "holds"], rows, config_text)
    held = sum(r[-1] for r in rows)
    print(f"wrote {args.out}: {held}/{len(rows)} bounds hold")
    return 0 if held == len(rows) else 1


def _repro_point(config, train_data, eval_data, run_dir, normalized):
    """Train and score one grid point into run_dir, reading nothing but the
    arguments.  Returns its runs.csv row, (delta, lam, variant, seed,
    *scores); a diverged point raises TrainingDiverged."""
    point = tuple(getattr(config, key) for key in _GRID_PARSERS)
    run_dir.mkdir(parents=True, exist_ok=True)
    result = _train_run(train_data, config, run_dir, normalized)
    scores = {**vars(evaluate(eval_data, result.enc_c, result.head)), **vars(result.risk)}
    return point + tuple(scores[key] for key in _SCORES)


def run_repro(spec, out_dir):
    """Generate, train every grid point, aggregate, check.  Returns True
    iff every hard acceptance check passed and no run aborted.  A grid
    variant that needs domains, and an --out whose runs/ holds a point
    outside the grid, are refused before anything is written."""
    for variant in spec.grid_variant:
        check_domains(variant, None)
    out_dir = Path(out_dir)
    axes = tuple(_GRID_PARSERS)
    grid = [(config, out_dir / "runs" / "delta{}_lam{}_{}_seed{}".format(
                *(_cell(getattr(config, key)) for key in axes)))
            for config in spec.grid()]
    stale = sorted(set((out_dir / "runs").glob("*")) - {run_dir for _, run_dir in grid})
    if stale:
        raise ValueError(f"{stale[0]} is not a point of this grid; "
                         "remove it or choose another --out")
    out_dir.mkdir(parents=True, exist_ok=True)
    normalized = serialize_config(spec)
    (out_dir / "spec.txt").write_text(normalized, encoding="utf-8")

    train_data = generate(spec.synth, spec.synth.n_train)
    eval_data = generate(spec.synth, spec.synth.n_eval, seed=spec.synth.seed + 1)

    runs, aborted = [], []  # aborted points stay in grid order
    for config, run_dir in grid:
        try:
            runs.append(_repro_point(config, train_data, eval_data, run_dir, normalized))
        except TrainingDiverged as exc:
            aborted.append((*(getattr(config, key) for key in axes), str(exc)))
    runs.sort()  # points are distinct, so no two rows compare their scores
    _write_csv(out_dir / "runs.csv", axes + _SCORES, runs, normalized)
    _write_csv(out_dir / "aborted.csv", axes + ("error",), aborted, normalized)

    summary = []  # one row per (delta, lam, variant) cell: seeds, median scores
    for cell, group in itertools.groupby(runs, key=lambda run: run[:3]):
        columns = list(zip(*group))[len(axes):]
        medians = [float(statistics.median(column)) for column in columns]
        if cell[2] == "casn_minus_m":
            medians[-1] = ""  # the intervened representation is never trained
        summary.append((*cell, len(columns[0]), *medians))
    _write_csv(out_dir / "summary.csv", axes[:3] + ("seeds",) + _SCORES, summary,
               normalized)

    checks = [("runs_completed", True, not aborted,
               f"{len(runs)} finished, {len(aborted)} aborted")]
    median = {row[:3]: dict(zip(_SCORES, row[-len(_SCORES):])) for row in summary}
    target = [m for (_, _, variant), m in median.items() if variant == "casn"]
    # with no casn cell to judge, worst is NaN and the hard check fails
    if spec.dcor_sn_min is not None:
        worst = min((m["dcor_sn"] for m in target), default=float("nan"))
        checks.append(("dcor_sn_min", True, worst >= spec.dcor_sn_min,
                       f"min over casn cells {worst:.4f} vs {spec.dcor_sn_min}"))
    if spec.dcor_gap_min is not None:
        worst = min((m["dcor_sn"] - m["dcor_sp"] for m in target),
                    default=float("nan"))
        checks.append(("dcor_gap_min", True, worst >= spec.dcor_gap_min,
                       f"min gap over casn cells {worst:.4f} vs {spec.dcor_gap_min}"))
    if spec.ablation_margin is not None:
        drops = [m["dcor_sn"] - median[d, l, "casn_minus_m"]["dcor_sn"]
                 for (d, l, v), m in median.items()
                 if v == "casn" and (d, l, "casn_minus_m") in median]
        worst = min(drops, default=float("inf"))
        checks.append(("ablation_margin", False,
                       worst == float("inf") or worst >= -spec.ablation_margin,
                       f"worst dcor_sn drop {worst:.4f} vs -{spec.ablation_margin}"))

    ok = True
    for name, hard, passed, detail in checks:
        kind = "hard" if hard else "soft"
        print(f"{'PASS' if passed else 'FAIL'} {name} ({kind}): {detail}")
        if hard and not passed:
            ok = False
    print(f"wrote {out_dir / 'summary.csv'}: {len(summary)} rows")
    return ok


def cmd_repro(args):
    spec = parse_config(Path(args.spec).read_text(encoding="utf-8"))
    return 0 if run_repro(spec, args.out) else 1


# --------------------------------------------------------------------------
# entry point


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pnsrisk",
        description="Representation learning with sufficiency-and-necessity "
                    "risk: data synthesis, training, and verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset CSV")
    p.add_argument("--d", type=int, default=5, help="spurious block width")
    p.add_argument("--s", type=float, default=0.1, help="spurious correlation")
    p.add_argument("--n", type=int, default=20000, help="number of rows")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("--config", required=True, help="key = value config file")
    p.add_argument("--data", required=True, help="training data CSV")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="evaluation data CSV")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("oracle", help="exact counterfactual analysis of an SCM")
    p.add_argument("--scm", required=True, help="SCM table file")
    p.add_argument("--c", type=float, required=True, help="cause value")
    p.add_argument("--cbar", type=float, required=True, help="contrast value")
    p.add_argument("--y", type=int, default=1, help="label of interest")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("bounds", help="run the bound property suites")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--instances", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("repro", help="run a full experiment spec")
    p.add_argument("--spec", required=True, help="sectioned experiment file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_repro)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # ConfigError is a ValueError; a FloatingPointError is a model that
    # overflows in eval or bounds, as TrainingDiverged is one in training
    except (ValueError, OSError, TrainingDiverged, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, (TrainingDiverged, FloatingPointError)) else 2


if __name__ == "__main__":
    raise SystemExit(main())
