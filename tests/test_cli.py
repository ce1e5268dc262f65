import warnings
from dataclasses import replace

import numpy as np
import pytest

import pnsrisk.cli as cli_module
from pnsrisk.cli import (
    ConfigError,
    ExperimentSpec,
    config_hash,
    main,
    parse_config,
    parse_flat,
    run_repro,
    serialize_config,
    serialize_flat,
)
from pnsrisk.model import load_checkpoint, save_checkpoint
from pnsrisk.synth import SynthConfig, generate, read_csv
from pnsrisk.train import TrainConfig

CAT_LEGS_SCM = """\
# deterministic-on-one-side cause
c_values 0 1
u_values 0 1
u_probs 0.5 0.5
c_probs 0.5 0.5
y 1 0 1
y 1 1 1
y 0 0 0
y 0 1 1
"""

SMALL_TRAIN = """\
total_steps = 10
batch_size = 16
rep_dim = 4
hidden = 8, 6
max_every = 5
"""


def flat_train(text):
    return parse_flat(text, TrainConfig)


def assert_malformed(text, lineno, message):
    """text fails with "line <lineno>: <message>" as a flat file, and with
    the same message one line lower inside a [train] section."""
    with pytest.raises(ConfigError) as flat:
        flat_train(text)
    with pytest.raises(ConfigError) as sectioned:
        parse_config("[train]\n" + text)
    # only the unknown-key message names the section it was found in
    suffix = " in [train]" if message.startswith("unknown key") else ""
    assert str(flat.value) == f"line {lineno}: {message}"
    assert str(sectioned.value) == f"line {lineno + 1}: {message}{suffix}"


class TestFlatConfig:
    def test_defaults_from_empty_file(self):
        assert flat_train("") == TrainConfig()

    def test_round_trip(self):
        cfg = flat_train(SMALL_TRAIN)
        assert cfg.total_steps == 10
        assert cfg.hidden == (8, 6)
        assert flat_train(serialize_flat(cfg)) == cfg

    def test_comments_and_blanks_ignored(self):
        cfg = flat_train("# intro\n\nlam = 0.5  # inline\n")
        assert cfg.lam == 0.5

    def test_unknown_key_names_key_and_line(self):
        assert_malformed("lam = 0.5\nlr = 1.0\n", 2, "unknown key 'lr'")

    def test_missing_equals_gives_line(self):
        assert_malformed("just words\n", 1, "expected key = value, got 'just words'")

    def test_duplicate_key_rejected(self):
        assert_malformed("lam = 0.5\nlam = 0.6\n", 2, "duplicate key 'lam'")

    def test_bad_value_reports_line(self):
        assert_malformed("total_steps = soon\n", 1,
                         "invalid literal for int() with base 10: 'soon'")

    def test_bool(self):
        assert flat_train("adversary_kl = false\n").adversary_kl is False
        assert_malformed("adversary_kl = yes\n", 1, "expected true or false, got 'yes'")

    def test_a_fixed_var_line_is_an_unknown_key(self):
        # every encoder learns its log-variance; the frozen-variance option is gone
        assert_malformed("lam = 0.5\nfixed_var = 0.1\n", 2, "unknown key 'fixed_var'")
        assert_malformed("fixed_var = none\n", 1, "unknown key 'fixed_var'")

    def test_an_mc_samples_line_is_an_unknown_key(self):
        # a training step takes one draw per row; the multi-draw option is gone
        assert_malformed("lam = 0.5\nmc_samples = 2\n", 2, "unknown key 'mc_samples'")
        assert_malformed("mc_samples = 1\n", 1, "unknown key 'mc_samples'")

    @pytest.mark.parametrize("value", ["8,,6", ",", "8, 6,", ", 8"])
    def test_empty_list_item_is_refused(self, value):
        assert_malformed(f"lam = 0.5\nhidden = {value}\n", 2, f"empty item in {value!r}")

    def test_empty_list_value_is_no_hidden_layer(self):
        assert flat_train("hidden = \n").hidden == ()
        assert parse_config("[train]\nhidden =\n").train.hidden == ()

    def test_synth_config_round_trip(self):
        cfg = SynthConfig(d=3, s=0.4, n_train=40, seed=7, noise_scale=0.5)
        assert parse_flat(serialize_flat(cfg), SynthConfig) == cfg

    @pytest.mark.parametrize("config, field, value", [
        (TrainConfig, "hidden", [8, 6]), (TrainConfig, "hidden", []),
        (TrainConfig, "hidden", 8), (TrainConfig, "hidden", "8, 6"),
        (TrainConfig, "adversary_kl", "false"), (TrainConfig, "adversary_kl", 0),
        (TrainConfig, "delta", True), (TrainConfig, "total_steps", True),
        (TrainConfig, "lr_min", "0.1"), (TrainConfig, "momentum", None),
        (TrainConfig, "lam", 1), (SynthConfig, "d", True), (SynthConfig, "s", "0.1"),
        (SynthConfig, "noise_scale", False),
    ])
    def test_a_field_holds_its_defaults_type(self, config, field, value):
        """Either the value is refused naming the field, or the config it
        makes is hashable and reads back from its own text."""
        try:
            cfg = config(**{field: value})
        except ValueError as exc:
            assert str(exc).startswith(field), exc
            return
        hash(cfg)
        assert parse_flat(serialize_flat(cfg), config) == cfg

    def test_range_error_names_section_only_in_spec(self):
        with pytest.raises(ConfigError) as flat:
            flat_train("rep_dim = 0\n")
        with pytest.raises(ConfigError) as sectioned:
            parse_config("[train]\nrep_dim = 0\n")
        assert str(sectioned.value) == f"[train]: {flat.value}"


class TestExperimentSpec:
    def test_minimal_file_applies_defaults(self):
        spec = parse_config("[grid]\nseed = 3\n")
        assert spec.name == "experiment"
        assert spec.synth == SynthConfig()
        assert spec.train == TrainConfig()
        assert spec.grid() == [replace(spec.train, seed=3)]

    def test_grid_cross_product(self):
        spec = parse_config(
            "[grid]\ndelta = 0.5, 1.1\nvariant = casn, casn_minus_m\n"
            "seed = 0, 1\n")
        assert len(spec.grid()) == 8
        assert len(set(spec.grid())) == 8

    def test_empty_grid_list(self):
        with pytest.raises(ConfigError, match="empty grid list 'seed'"):
            parse_config("[grid]\nseed =\n")
        with pytest.raises(ConfigError, match="empty grid list 'variant'"):
            ExperimentSpec(grid_variant=())

    @pytest.mark.parametrize("line, message", [
        ("delta = 0.5, nan", "delta must be finite and nonnegative, got nan"),
        ("lam = -1.0", "lam must be finite and nonnegative"),
        ("variant = casn, bogus", "variant must be one of"),
        ("seed = -1", r"seed must be an integer in \[0, 18446744073709551615\], got -1$"),
        ("seed = 0, 18446744073709551616",
         r"seed must be an integer in \[0, 18446744073709551615\], got 18446744073709551616$"),
    ])
    def test_grid_values_are_checked_as_train_values(self, line, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(f"[grid]\n{line}\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_acceptance_thresholds_must_be_finite(self, value):
        with pytest.raises(ConfigError, match="acceptance thresholds must be finite"):
            parse_config(f"[acceptance]\ndcor_gap_min = {value}\n")

    @pytest.mark.parametrize("value", [2**53 + 1, 10**300])
    def test_an_int_threshold_is_held_as_a_float(self, value):
        spec = ExperimentSpec(dcor_sn_min=value)
        assert type(spec.dcor_sn_min) is float and spec.dcor_sn_min == float(value)
        assert parse_config(serialize_config(spec)) == spec

    @pytest.mark.parametrize("value", [10**400, float("inf")])
    def test_a_threshold_past_the_float_range_names_its_key(self, value):
        with pytest.raises(ConfigError,
                           match="^dcor_sn_min: acceptance thresholds must be finite$"):
            ExperimentSpec(dcor_sn_min=value)

    def test_round_trip_is_normalization(self):
        messy = (
            "# comment\n[experiment]\nname = demo\n\n[synth]\n  s = 0.7\n"
            "[train]\ntotal_steps = 5\n[grid]\nseed = 1,2\n"
            "[acceptance]\ndcor_sn_min = 0.75\n")
        normalized = serialize_config(parse_config(messy))
        assert serialize_config(parse_config(normalized)) == normalized
        spec = parse_config(normalized)
        assert spec.name == "demo" and spec.synth.s == 0.7
        assert spec.dcor_sn_min == 0.75 and spec.ablation_margin is None

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown section 'model'"):
            parse_config("[model]\nrep_dim = 4\n")

    def test_unknown_key_in_section(self):
        with pytest.raises(ConfigError, match=r"line 2: unknown key 'width'"):
            parse_config("[synth]\nwidth = 3\n")

    def test_a_mixer_line_is_an_unknown_key(self):
        with pytest.raises(ConfigError, match=r"^line 2: unknown key 'mixer' in \[synth\]$"):
            parse_config("[synth]\nmixer = as_written\n")

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="outside any section"):
            parse_config("seed = 0\n")

    def test_repeated_section(self):
        with pytest.raises(ConfigError, match="repeated section"):
            parse_config("[grid]\n[train]\n[grid]\n")

    def test_empty_grid_item_is_refused(self):
        with pytest.raises(ConfigError, match=r"^line 2: empty item in '0,,1'$"):
            parse_config("[grid]\nseed = 0,,1\n")

    def test_duplicate_grid_value(self):
        with pytest.raises(ConfigError, match="duplicate values"):
            parse_config("[grid]\nseed = 0, 0\n")

    @pytest.mark.parametrize("field, value", [
        ("dcor_sn_min", True), ("dcor_sn_min", "0.75"), ("dcor_gap_min", 1),
        ("ablation_margin", -0.5), ("name", "a b\nc"), ("name", "a#b"), ("name", " x"),
        ("name", "a  b"), ("name", 5), ("name", ""), ("name", "two words"),
        ("grid_variant", "casn"), ("grid_variant", ["casn", "casn_irm"]), ("grid_seed", 5),
        ("grid_delta", (0.5, 1)), ("train", "x"), ("train", TrainConfig(seed=4)),
        ("synth", None), ("synth", SynthConfig(d=3)),
    ])
    def test_a_spec_holds_its_fields_to_their_types(self, field, value):
        """Either the value is refused naming the field, or the spec reads
        back from its own text."""
        try:
            spec = ExperimentSpec(**{field: value})
        except ConfigError as exc:
            assert str(exc).startswith(field), exc
            return
        assert parse_config(serialize_config(spec)) == spec

    def test_hash_ignores_formatting(self):
        a = config_hash(serialize_config(parse_config("[grid]\nseed = 1\n")))
        b = config_hash(serialize_config(parse_config("# x\n[grid]\n\nseed =  1\n")))
        assert a == b


def test_synth_writes_csv_config_and_sidecar(tmp_path):
    out = tmp_path / "data.csv"
    assert main(["synth", "--d", "2", "--s", "0.3", "--n", "40",
                 "--seed", "7", "--out", str(out)]) == 0
    data = read_csv(out)
    want = generate(SynthConfig(d=2, s=0.3, n_train=40, seed=7), 40)
    assert np.array_equal(data.x, want.x) and np.array_equal(data.y, want.y)
    assert (tmp_path / "data.csv.config").exists()
    digest = (tmp_path / "data.csv.sha256").read_text().strip()
    assert len(digest) == 64


@pytest.mark.parametrize("seed", ["-1", "18446744073709551615"])
def test_synth_seed_out_of_range_is_clean_error(tmp_path, seed, capsys):
    out = tmp_path / "data.csv"
    assert main(["synth", "--seed", seed, "--n", "5", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: --seed must be an integer in [0, 18446744073709551614], got {seed}\n")
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--d", "0", "--d must be at least 1, got 0"),
    ("--s", "2", "--s must lie in [0, 1], got 2.0"),
])
def test_synth_config_refusals_name_the_flag(tmp_path, flag, value, message, capsys):
    out = tmp_path / "data.csv"
    assert main(["synth", flag, value, "--n", "5", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_synth_has_no_mixer_flag(tmp_path, capsys):
    out = tmp_path / "m.csv"
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--mixer", "k1k2", "--n", "5", "--out", str(out)])
    assert exc.value.code == 2
    assert "--mixer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n", ["0", "-5"])
def test_synth_n_below_one_is_refused_naming_the_flag(tmp_path, n, capsys):
    out = tmp_path / "data.csv"
    assert main(["synth", "--n", n, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: --n must be at least 1, got {n}\n"
    assert not out.exists()


def test_flat_config_seed_beyond_uint64_is_config_error():
    message = r"^seed must be an integer in \[0, 18446744073709551615\], got 18446744073709551616$"
    with pytest.raises(ConfigError, match=message):
        parse_flat("seed = 18446744073709551616\n", TrainConfig)


def test_oracle_prints_report(tmp_path, capsys):
    scm_path = tmp_path / "scm.txt"
    scm_path.write_text(CAT_LEGS_SCM)
    assert main(["oracle", "--scm", str(scm_path), "--c", "1",
                 "--cbar", "0", "--y", "1"]) == 0
    out = capsys.readouterr().out
    assert "pn = 0.5" in out and "ps = 1.0" in out
    assert "pns = 0.5" in out and "monotone = true" in out


def test_oracle_bad_file_is_clean_error(tmp_path, capsys):
    scm_path = tmp_path / "scm.txt"
    scm_path.write_text("c_values 0 1\nbogus 3\n")
    assert main(["oracle", "--scm", str(scm_path), "--c", "1",
                 "--cbar", "0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_oracle_nan_probability_is_clean_error(tmp_path, capsys):
    scm_path = tmp_path / "scm.txt"
    scm_path.write_text(CAT_LEGS_SCM.replace("u_probs 0.5 0.5", "u_probs 0.5 nan"))
    assert main(["oracle", "--scm", str(scm_path), "--c", "1",
                 "--cbar", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {scm_path}:4: u_probs sum to nan, not 1\n"


def test_bounds_all_hold(tmp_path):
    out = tmp_path / "bounds.csv"
    assert main(["bounds", "--out", str(out), "--instances", "5",
                 "--seed", "1"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "instance_id,lhs,rhs,beta_inf,eta,holds"
    assert len(lines) == 11
    assert all(line.endswith("true") for line in lines[1:])
    deviation = [l for l in lines[1:] if l.startswith("deviation-")]
    assert deviation and all(l.split(",")[3] == "" for l in deviation)
    assert (tmp_path / "bounds.csv.sha256").exists()


def test_bounds_exit_one_when_a_bound_fails(tmp_path, monkeypatch, capsys):
    real = cli_module.domain_shift_bound
    failed = []

    def first_fails(*args, **kwargs):
        report = real(*args, **kwargs)
        if failed:
            return report
        failed.append(report)
        return replace(report, holds=False)

    monkeypatch.setattr(cli_module, "domain_shift_bound", first_fails)
    out = tmp_path / "bounds.csv"
    assert main(["bounds", "--out", str(out), "--instances", "2", "--seed", "1"]) == 1
    assert capsys.readouterr().out == f"wrote {out}: 3/4 bounds hold\n"
    rows = out.read_text().splitlines()[1:]
    assert [row.rsplit(",", 1)[1] for row in rows] == ["false", "true", "true", "true"]


@pytest.mark.parametrize("instances", ["0", "-3"])
def test_bounds_without_instances_is_config_error(tmp_path, instances, capsys):
    out = tmp_path / "bounds.csv"
    assert main(["bounds", "--out", str(out), "--instances", instances]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --instances must be at least 1, got {instances}\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_bounds_negative_seed_is_refused_naming_the_flag(tmp_path, capsys):
    assert main(["bounds", "--out", str(tmp_path / "bounds.csv"), "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --seed must be at least 0, got -1\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_train_then_eval_round_trip(tmp_path, capsys):
    data_csv = tmp_path / "data.csv"
    main(["synth", "--d", "2", "--s", "0.2", "--n", "64", "--seed", "3",
          "--out", str(data_csv)])
    config = tmp_path / "train.cfg"
    config.write_text(SMALL_TRAIN + "seed = 5\ndelta = 0.9\n")
    run_dir = tmp_path / "run"
    assert main(["train", "--config", str(config), "--data", str(data_csv),
                 "--out", str(run_dir)]) == 0
    for name in ("model.ckpt", "trace.csv", "risk.csv", "config.txt",
                 "trace.csv.sha256", "risk.csv.sha256"):
        assert (run_dir / name).exists()
    trace_lines = (run_dir / "trace.csv").read_text().splitlines()
    assert trace_lines[0] == "step,sf,m,kl_c,kl_cbar,hinge,penalty,adversary_objective"
    assert len(trace_lines) == 11

    eval_csv = tmp_path / "eval.csv"
    assert main(["eval", "--checkpoint", str(run_dir / "model.ckpt"),
                 "--data", str(data_csv), "--out", str(eval_csv)]) == 0
    header, row = eval_csv.read_text().splitlines()
    assert header == "delta,s,seed,dcor_sn,dcor_sf,dcor_nc,dcor_sp,accuracy"
    cells = row.split(",")
    assert cells[0] == "0.9" and cells[1] == "0.2" and cells[2] == "5"
    assert all(0.0 <= float(v) <= 1.0 for v in cells[3:7])


@pytest.mark.parametrize("value", ["8,,6", ","])
def test_train_refuses_an_empty_list_item(tmp_path, capsys, value):
    data_csv = tmp_path / "data.csv"
    main(["synth", "--d", "2", "--n", "8", "--out", str(data_csv)])
    config = tmp_path / "train.cfg"
    config.write_text(SMALL_TRAIN.replace("hidden = 8, 6", f"hidden = {value}"))
    capsys.readouterr()
    assert main(["train", "--config", str(config), "--data", str(data_csv),
                 "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == f"error: line 4: empty item in {value!r}\n"
    assert not (tmp_path / "run").exists()


def test_train_header_only_csv_is_clean_error(tmp_path, capsys):
    data_csv = tmp_path / "data.csv"
    main(["synth", "--d", "2", "--n", "8", "--out", str(data_csv)])
    data_csv.write_text(data_csv.read_text().splitlines()[0] + "\n")
    config = tmp_path / "train.cfg"
    config.write_text(SMALL_TRAIN)
    assert main(["train", "--config", str(config), "--data", str(data_csv),
                 "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "no data rows" in err


@pytest.mark.parametrize("cell, index, message", [
    pytest.param("1.5", 8, "y = 1.5 must be 0 or 1", id="fractional-label"),
    pytest.param("nan", 0, "x_0 = nan is not finite", id="nan-cell"),
])
def test_train_bad_csv_cell_is_clean_error(tmp_path, capsys, cell, index, message):
    data_csv = tmp_path / "data.csv"
    main(["synth", "--d", "2", "--n", "64", "--seed", "3", "--out", str(data_csv)])
    lines = data_csv.read_text().splitlines()
    cells = lines[5].split(",")
    cells[index] = cell
    lines[5] = ",".join(cells)
    data_csv.write_text("\n".join(lines) + "\n")
    config = tmp_path / "train.cfg"
    config.write_text(SMALL_TRAIN)
    capsys.readouterr()
    assert main(["train", "--config", str(config), "--data", str(data_csv),
                 "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"data.csv:6: {message}" in err


def test_eval_truncated_checkpoint_is_clean_error(tmp_path, capsys):
    data_csv = tmp_path / "data.csv"
    main(["synth", "--d", "2", "--n", "64", "--seed", "3", "--out", str(data_csv)])
    config = tmp_path / "train.cfg"
    config.write_text(SMALL_TRAIN)
    run_dir = tmp_path / "run"
    assert main(["train", "--config", str(config), "--data", str(data_csv),
                 "--out", str(run_dir)]) == 0
    ckpt = run_dir / "model.ckpt"
    lines = ckpt.read_text().splitlines()
    ckpt.write_text("\n".join(lines[:-3]) + "\n")
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data_csv),
                 "--out", str(tmp_path / "eval.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "ends after" in err


@pytest.mark.parametrize("side", [4294967296, 3037000500])
def test_eval_checkpoint_whose_count_overflows_int64_is_one_error_line(tmp_path, capsys, side):
    data_csv = tmp_path / "data.csv"
    main(["synth", "--d", "2", "--n", "64", "--out", str(data_csv)])
    checkpoint = tmp_path / "model.ckpt"
    checkpoint.write_text(f"pnsrisk-checkpoint 1\nparam w {side} {side}\n")
    capsys.readouterr()
    eval_csv = tmp_path / "eval.csv"
    assert main(["eval", "--checkpoint", str(checkpoint),
                 "--data", str(data_csv), "--out", str(eval_csv)]) == 2
    assert capsys.readouterr().err == (
        f"error: {checkpoint}:2: parameter w ends after 0 of {side * side} values\n")
    assert not eval_csv.exists()


def test_train_divergence_is_reported(tmp_path, capsys):
    data_csv = tmp_path / "data.csv"
    main(["synth", "--d", "2", "--n", "64", "--out", str(data_csv)])
    config = tmp_path / "train.cfg"
    config.write_text("total_steps = 300\nbatch_size = 16\nrep_dim = 4\n"
                      "hidden = 8, 6\nlr_min = 1e18\n")
    assert main(["train", "--config", str(config), "--data", str(data_csv),
                 "--out", str(tmp_path / "run")]) == 1
    assert "diverged" in capsys.readouterr().err


# a config whose factual encoder overflows its output layer at step 4
CRAFTED_TRAIN = ("total_steps = 300\nbatch_size = 16\nrep_dim = 4\nhidden = 8, 6\n"
                 "lr_min = 1000\nseed = 5\n")


def test_train_divergence_is_one_error_line(tmp_path, capsys):
    data_csv = tmp_path / "data.csv"
    main(["synth", "--d", "2", "--n", "256", "--seed", "1", "--out", str(data_csv)])
    config = tmp_path / "train.cfg"
    config.write_text(CRAFTED_TRAIN)
    run_dir = tmp_path / "run"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["train", "--config", str(config), "--data", str(data_csv),
                     "--out", str(run_dir)]) == 1
    assert capsys.readouterr().err == ("error: training diverged at step 4: "
                                       "enc_c.mean layer 2 produced a non-finite value\n")
    assert (run_dir / "trace.csv").exists() and not (run_dir / "model.ckpt").exists()


def test_train_divergence_in_the_final_report_is_one_error_line(tmp_path, capsys):
    # cut to four steps, the last update overflows the encoder, which the
    # final risk report finds: no report is made from non-finite reps
    data_csv = tmp_path / "data.csv"
    main(["synth", "--d", "2", "--n", "256", "--seed", "1", "--out", str(data_csv)])
    config = tmp_path / "train.cfg"
    config.write_text(CRAFTED_TRAIN.replace("total_steps = 300", "total_steps = 4"))
    run_dir = tmp_path / "run"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["train", "--config", str(config), "--data", str(data_csv),
                     "--out", str(run_dir)]) == 1
    assert capsys.readouterr().err == ("error: training diverged at step 4: "
                                       "enc_c.mean layer 2 produced a non-finite value\n")
    assert (run_dir / "trace.csv").exists() and not (run_dir / "model.ckpt").exists()


def test_train_divergence_removes_an_earlier_checkpoint(tmp_path, capsys):
    # a passing run, then a diverging one, into one --out directory
    data_csv = tmp_path / "data.csv"
    main(["synth", "--d", "2", "--n", "256", "--seed", "1", "--out", str(data_csv)])
    run_dir = tmp_path / "run"
    for text, status in [(CRAFTED_TRAIN.replace("lr_min = 1000", "lr_min = 0.0001"), 0),
                         (CRAFTED_TRAIN, 1)]:
        config = tmp_path / "train.cfg"
        config.write_text(text.replace("total_steps = 300", "total_steps = 10"))
        assert main(["train", "--config", str(config), "--data", str(data_csv),
                     "--out", str(run_dir)]) == status
    assert sorted(p.name for p in run_dir.iterdir()) == [
        "config.txt", "trace.csv", "trace.csv.sha256"]


def train_small(tmp_path):
    """Synth a 64-row d=2 CSV and train a small model on it; returns the
    CSV's and the checkpoint's paths."""
    data_csv = tmp_path / "data.csv"
    main(["synth", "--d", "2", "--n", "64", "--seed", "3", "--out", str(data_csv)])
    config = tmp_path / "train.cfg"
    config.write_text(SMALL_TRAIN)
    run_dir = tmp_path / "run"
    assert main(["train", "--config", str(config), "--data", str(data_csv),
                 "--out", str(run_dir)]) == 0
    return data_csv, run_dir / "model.ckpt"


def eval_with_parameter_set(tmp_path, capsys, name, value):
    """Train a small model, fill one of its parameters with value, then run
    eval with warnings as errors; returns (exit status, stderr, eval.csv)."""
    data_csv, checkpoint = train_small(tmp_path)
    params, meta = load_checkpoint(checkpoint)
    params[name] = np.full_like(params[name], value)
    save_checkpoint(checkpoint, params, meta=meta)
    capsys.readouterr()
    eval_csv = tmp_path / "eval.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status = main(["eval", "--checkpoint", str(checkpoint),
                       "--data", str(data_csv), "--out", str(eval_csv)])
    return status, capsys.readouterr().err, eval_csv


def test_eval_names_the_config_neighbour_it_cannot_read(tmp_path, capsys):
    data_csv, checkpoint = train_small(tmp_path)
    neighbour = tmp_path / "data.csv.config"
    with neighbour.open("a", encoding="utf-8") as fh:
        fh.write("mixer = as_written\n")
    capsys.readouterr()
    eval_csv = tmp_path / "eval.csv"
    assert main(["eval", "--checkpoint", str(checkpoint), "--data", str(data_csv),
                 "--out", str(eval_csv)]) == 2
    assert capsys.readouterr().err == f"error: {neighbour}: line 10: unknown key 'mixer'\n"
    assert not eval_csv.exists()


def test_eval_overflow_is_one_error_line(tmp_path, capsys):
    status, err, eval_csv = eval_with_parameter_set(tmp_path, capsys, "enc_c.mean.w0", 1e308)
    assert status == 1
    assert err == "error: enc_c.mean layer 0 produced a non-finite value\n"
    assert not eval_csv.exists()


@pytest.mark.parametrize("name, value, message", [
    ("enc_c.log_var", 800.0, "enc_c.log_var produced a non-finite value"),
])
def test_eval_on_finite_overflowing_parameters_is_one_error_line(tmp_path, capsys, name,
                                                                  value, message):
    status, err, eval_csv = eval_with_parameter_set(tmp_path, capsys, name, value)
    assert status == 1
    assert err == f"error: {message}\n"
    assert not eval_csv.exists()


@pytest.mark.parametrize("name, value", [
    # finite representations around 1e200, whose squared norms overflow unscaled
    ("enc_c.mean.w0", 1e200),
    # squared norms in range, but unscaled the sum behind dVar^2 overflows
    ("enc_c.mean.w2", 1.3e153),
])
def test_eval_on_finite_huge_representations_writes_finite_cells(tmp_path, capsys, name,
                                                                 value):
    status, err, eval_csv = eval_with_parameter_set(tmp_path, capsys, name, value)
    assert (status, err) == (0, "")
    header, row = csv_lines(eval_csv)
    cells = dict(zip(header.split(","), row.split(",")))
    for key in ("dcor_sn", "dcor_sf", "dcor_nc", "dcor_sp", "accuracy"):
        assert 0.0 <= float(cells[key]) <= 1.0, key


def test_eval_one_row_is_refused_naming_the_file(tmp_path, capsys):
    _, checkpoint = train_small(tmp_path)
    one_row = tmp_path / "one.csv"
    main(["synth", "--d", "2", "--n", "1", "--seed", "3", "--out", str(one_row)])
    capsys.readouterr()
    eval_csv = tmp_path / "eval.csv"
    assert main(["eval", "--checkpoint", str(checkpoint),
                 "--data", str(one_row), "--out", str(eval_csv)]) == 2
    assert capsys.readouterr().err == (
        f"error: {one_row}: eval needs at least two rows, got 1\n")
    assert not eval_csv.exists()


def test_eval_on_data_of_another_width_is_refused_naming_both_files(tmp_path, capsys):
    _, checkpoint = train_small(tmp_path)
    wide = tmp_path / "wide.csv"
    main(["synth", "--d", "3", "--n", "8", "--seed", "3", "--out", str(wide)])
    capsys.readouterr()
    eval_csv = tmp_path / "eval.csv"
    assert main(["eval", "--checkpoint", str(checkpoint),
                 "--data", str(wide), "--out", str(eval_csv)]) == 2
    assert capsys.readouterr().err == (
        f"error: {wide}: 12 feature columns, but {checkpoint} takes 8\n")
    assert not eval_csv.exists()


@pytest.mark.parametrize("key, value, message", [
    ("in_dim", "0", "in_dim must be at least 1, got 0"),
    ("rep_dim", "-3", "rep_dim must be at least 1, got -3"),
    ("hidden", "8,-6", "hidden width must be at least 1, got -6"),
])
def test_eval_checkpoint_with_bad_metadata_is_refused_naming_it(tmp_path, capsys, key, value,
                                                                 message):
    data_csv, checkpoint = train_small(tmp_path)
    params, meta = load_checkpoint(checkpoint)
    save_checkpoint(checkpoint, params, meta={**meta, key: value})
    capsys.readouterr()
    eval_csv = tmp_path / "eval.csv"
    assert main(["eval", "--checkpoint", str(checkpoint),
                 "--data", str(data_csv), "--out", str(eval_csv)]) == 2
    assert capsys.readouterr().err == (
        f"error: {checkpoint}: missing or malformed metadata: {message}\n")
    assert not eval_csv.exists()


def with_fixed_var(meta, value):
    """meta with the fixed_var line that older checkpoints hold after hidden."""
    keys = list(meta)
    at = keys.index("hidden") + 1
    return {**{k: meta[k] for k in keys[:at]}, "fixed_var": value,
            **{k: meta[k] for k in keys[at:]}}


def test_eval_of_a_fixed_variance_checkpoint_is_refused_naming_it(tmp_path, capsys):
    # a frozen-variance model was saved with no log_var parameters
    data_csv, checkpoint = train_small(tmp_path)
    params, meta = load_checkpoint(checkpoint)
    params = {name: value for name, value in params.items() if not name.endswith(".log_var")}
    save_checkpoint(checkpoint, params, meta=with_fixed_var(meta, "0.1"))
    capsys.readouterr()
    eval_csv = tmp_path / "eval.csv"
    assert main(["eval", "--checkpoint", str(checkpoint),
                 "--data", str(data_csv), "--out", str(eval_csv)]) == 2
    assert capsys.readouterr().err == f"error: {checkpoint}: missing parameter enc_c.log_var\n"
    assert not eval_csv.exists()


def test_a_checkpoint_with_a_learned_fixed_var_line_evaluates_the_same(tmp_path):
    # older checkpoints of learned-variance models hold "meta fixed_var none"
    data_csv, checkpoint = train_small(tmp_path)
    new_eval, old_eval = tmp_path / "eval.csv", tmp_path / "old_eval.csv"
    assert main(["eval", "--checkpoint", str(checkpoint),
                 "--data", str(data_csv), "--out", str(new_eval)]) == 0
    params, meta = load_checkpoint(checkpoint)
    old_meta = with_fixed_var(meta, "none")
    save_checkpoint(checkpoint, params, meta=old_meta)
    assert main(["eval", "--checkpoint", str(checkpoint),
                 "--data", str(data_csv), "--out", str(old_eval)]) == 0
    assert old_eval.read_bytes() == new_eval.read_bytes()
    # the sidecar hashes the metadata the checkpoint holds, as it always has
    meta_text = "".join(f"{k} = {old_meta[k]}\n" for k in sorted(old_meta))
    assert (tmp_path / "old_eval.csv.sha256").read_text() == config_hash(meta_text) + "\n"


def test_train_mmd_variant_is_refused(tmp_path, capsys):
    # the dataset CSV carries no domains, so casn_mmd has no penalty to train
    data_csv = tmp_path / "data.csv"
    main(["synth", "--d", "2", "--n", "64", "--out", str(data_csv)])
    config = tmp_path / "train.cfg"
    config.write_text(SMALL_TRAIN + "variant = casn_mmd\n")
    capsys.readouterr()
    assert main(["train", "--config", str(config), "--data", str(data_csv),
                 "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "casn_mmd needs domains" in err
    assert not (tmp_path / "run" / "model.ckpt").exists()


def test_train_mmd_variant_is_refused_before_any_output(tmp_path, capsys):
    data_csv = tmp_path / "data.csv"
    main(["synth", "--d", "2", "--n", "64", "--out", str(data_csv)])
    config = tmp_path / "train.cfg"
    config.write_text(SMALL_TRAIN + "variant = casn_mmd\n")
    capsys.readouterr()
    assert main(["train", "--config", str(config), "--data", str(data_csv),
                 "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.startswith("error: variant casn_mmd needs domains")
    assert not (tmp_path / "run").exists()  # no config.txt either


REPRO_SPEC = """\
[experiment]
name = smoke

[synth]
d = 2
s = 0.2
n_train = 96
n_eval = 48
seed = 1

[train]
total_steps = 8
batch_size = 16
rep_dim = 4
hidden = 8, 6
max_every = 4

[grid]
delta = 0.9
variant = casn, casn_minus_m
seed = 0, 1
"""


def csv_lines(path):
    return path.read_text().splitlines()


def crafted_spec(lr_min):
    """A one-point spec that diverges at step 4 with lr_min = 1000 and
    trains through with lr_min = 0.0001."""
    return parse_config("[synth]\nd = 2\nn_train = 256\nn_eval = 48\nseed = 1\n\n"
                        "[train]\n" + CRAFTED_TRAIN.replace("lr_min = 1000",
                                                            f"lr_min = {lr_min}"))


class TestRepro:
    def test_empty_grid_is_config_error(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.txt"
        spec_file.write_text("[grid]\nseed =\n")
        assert main(["repro", "--spec", str(spec_file),
                     "--out", str(tmp_path / "out")]) == 2
        assert "error: empty grid list 'seed'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_mmd_variant_is_refused_before_any_output(self, tmp_path, capsys):
        # the spec has no domains; the casn points must not train first
        spec_file = tmp_path / "spec.txt"
        spec_file.write_text(REPRO_SPEC.replace("variant = casn, casn_minus_m",
                                                "variant = casn, casn_mmd"))
        out_dir = tmp_path / "out"
        assert main(["repro", "--spec", str(spec_file), "--out", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: variant casn_mmd needs domains")
        assert captured.out == ""
        assert not (out_dir / "runs").exists()
        assert not (out_dir / "runs.csv").exists()

    def test_single_eval_row_is_refused_before_any_output(self, tmp_path, capsys):
        # distance correlation needs two rows; refused before training
        spec_file = tmp_path / "spec.txt"
        spec_file.write_text(REPRO_SPEC.replace("n_eval = 48", "n_eval = 1"))
        out_dir = tmp_path / "out"
        assert main(["repro", "--spec", str(spec_file), "--out", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: [synth]: n_eval must be at least 2, got 1\n"
        assert captured.out == ""
        assert not out_dir.exists()

    def test_hard_check_without_casn_cell_fails(self, tmp_path, capsys):
        spec = parse_config(REPRO_SPEC.replace("variant = casn, casn_minus_m",
                                               "variant = casn_minus_m")
                            + "\n[acceptance]\ndcor_sn_min = 0.0\ndcor_gap_min = -1.0\n")
        assert run_repro(spec, tmp_path / "out") is False
        out = capsys.readouterr().out
        assert "PASS runs_completed" in out
        assert "FAIL dcor_sn_min (hard): min over casn cells nan vs 0.0" in out
        assert "FAIL dcor_gap_min (hard): min gap over casn cells nan vs -1.0" in out

    def test_grid_summary_shape_and_ablation_blank(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.txt"
        spec_file.write_text(REPRO_SPEC)
        out_dir = tmp_path / "out"
        assert main(["repro", "--spec", str(spec_file),
                     "--out", str(out_dir)]) == 0
        summary = (out_dir / "summary.csv").read_text().splitlines()
        assert summary[0] == ("delta,lam,variant,seeds,dcor_sn,dcor_sf,"
                              "dcor_nc,dcor_sp,accuracy,sf,m")
        assert len(summary) == 3
        full = next(l for l in summary[1:] if ",casn," in l)
        ablated = next(l for l in summary[1:] if "casn_minus_m" in l)
        assert full.split(",")[3] == "2"
        assert ablated.endswith(",")  # no m value for the ablation
        assert full.split(",")[-1] != ""
        runs = (out_dir / "runs.csv").read_text().splitlines()
        assert len(runs) == 5
        assert (out_dir / "runs" / "delta0.9_lam0.01_casn_seed1"
                / "model.ckpt").exists()

    def test_run_directories_hold_model_trace_and_risk(self, tmp_path, capsys):
        run_repro(parse_config(REPRO_SPEC), tmp_path / "out")
        run_dirs = sorted((tmp_path / "out" / "runs").iterdir())
        assert [d.name for d in run_dirs] == sorted(
            f"delta0.9_lam0.01_{v}_seed{s}" for v in ("casn", "casn_minus_m") for s in (0, 1))
        for run_dir in run_dirs:
            assert sorted(p.name for p in run_dir.iterdir()) == [
                "model.ckpt", "risk.csv", "risk.csv.sha256", "trace.csv",
                "trace.csv.sha256"]
            header, row = (run_dir / "risk.csv").read_text().splitlines()
            assert header == "sf,nc,m,r,kl_c,kl_cbar,mc_samples"
            assert row.endswith(",32")

    def test_rerun_is_byte_identical(self, tmp_path):
        spec = parse_config(REPRO_SPEC)
        run_repro(spec, tmp_path / "a")
        run_repro(spec, tmp_path / "b")
        for name in ("summary.csv", "runs.csv", "spec.txt"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes()), name

    def test_unsorted_grid_lists_give_rows_in_point_order(self, tmp_path, capsys):
        spec = parse_config(REPRO_SPEC.replace("delta = 0.9", "delta = 1.1, 0.9")
                            .replace("variant = casn, casn_minus_m",
                                     "variant = casn_minus_m, casn")
                            .replace("seed = 0, 1", "seed = 1, 0"))
        assert run_repro(spec, tmp_path / "out") is True
        runs = [line.split(",") for line in csv_lines(tmp_path / "out" / "runs.csv")[1:]]
        points = [(float(d), float(l), v, int(s)) for d, l, v, s, *_ in runs]
        assert points == sorted(points) and len(points) == 8
        summary = [line.split(",") for line in csv_lines(tmp_path / "out" / "summary.csv")[1:]]
        assert [row[:4] for row in summary] == [
            ["0.9", "0.01", "casn", "2"], ["0.9", "0.01", "casn_minus_m", "2"],
            ["1.1", "0.01", "casn", "2"], ["1.1", "0.01", "casn_minus_m", "2"]]

    def test_a_point_does_not_depend_on_the_rest_of_the_grid(self, tmp_path, capsys):
        one_variant = REPRO_SPEC.replace("variant = casn, casn_minus_m", "variant = casn")
        run_repro(parse_config(one_variant), tmp_path / "both")
        run_repro(parse_config(one_variant.replace("seed = 0, 1", "seed = 1")),
                  tmp_path / "one")
        assert csv_lines(tmp_path / "one" / "runs.csv")[1:] == (
            csv_lines(tmp_path / "both" / "runs.csv")[2:])
        tag = "runs/delta0.9_lam0.01_casn_seed1"
        # the sidecars hash the whole spec, grid lists included
        for name in ("model.ckpt", "trace.csv", "risk.csv"):
            assert ((tmp_path / "one" / tag / name).read_bytes()
                    == (tmp_path / "both" / tag / name).read_bytes()), name

    def test_run_directory_outside_the_grid_is_refused_before_any_output(self, tmp_path,
                                                                           capsys):
        # the tool never removes what an earlier spec wrote
        one_variant = REPRO_SPEC.replace("variant = casn, casn_minus_m", "variant = casn")
        spec_file = tmp_path / "spec.txt"
        spec_file.write_text(one_variant)
        out_dir = tmp_path / "out"
        assert main(["repro", "--spec", str(spec_file), "--out", str(out_dir)]) == 0
        before = {p: p.read_bytes() for p in out_dir.rglob("*") if p.is_file()}
        capsys.readouterr()
        spec_file.write_text(one_variant.replace("seed = 0, 1", "seed = 1"))
        assert main(["repro", "--spec", str(spec_file), "--out", str(out_dir)]) == 2
        captured = capsys.readouterr()
        stale = out_dir / "runs" / "delta0.9_lam0.01_casn_seed0"
        assert captured.err == (f"error: {stale} is not a point of this grid; "
                                "remove it or choose another --out\n")
        assert captured.out == ""
        assert {p: p.read_bytes() for p in out_dir.rglob("*") if p.is_file()} == before
        assert out_dir / "runs.csv" in before and out_dir / "summary.csv" in before
        assert stale / "model.ckpt" in before

    def test_passing_rerun_leaves_no_earlier_aborted_point(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert run_repro(crafted_spec(1000), out_dir) is False
        assert run_repro(crafted_spec(0.0001), out_dir) is True
        assert csv_lines(out_dir / "aborted.csv") == ["delta,lam,variant,seed,error"]
        assert len(csv_lines(out_dir / "runs.csv")) == 2

    def test_diverged_rerun_leaves_no_earlier_checkpoint(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert run_repro(crafted_spec(0.0001), out_dir) is True
        assert run_repro(crafted_spec(1000), out_dir) is False
        run_dir = out_dir / "runs" / "delta0.7_lam0.01_casn_seed5"
        assert sorted(p.name for p in run_dir.iterdir()) == ["trace.csv", "trace.csv.sha256"]
        assert csv_lines(out_dir / "runs.csv") == [
            "delta,lam,variant,seed,dcor_sn,dcor_sf,dcor_nc,dcor_sp,accuracy,sf,m"]

    def test_aborted_run_fails_pipeline(self, tmp_path, capsys):
        spec = parse_config(REPRO_SPEC)
        bad = ExperimentSpec(
            name=spec.name, synth=spec.synth,
            train=replace(spec.train, lr_min=1e18, total_steps=200),
            grid_delta=(0.9,), grid_variant=("casn",), grid_seed=(0,))
        assert run_repro(bad, tmp_path / "out") is False
        out = capsys.readouterr().out
        assert "FAIL runs_completed" in out
        assert (tmp_path / "out" / "aborted.csv").exists()
        # the diverged point keeps its trace so far and has no checkpoint
        run_dir = tmp_path / "out" / "runs" / "delta0.9_lam0.01_casn_seed0"
        assert sorted(p.name for p in run_dir.iterdir()) == ["trace.csv", "trace.csv.sha256"]

    def test_diverged_run_aborts_without_a_warning(self, tmp_path, capsys):
        spec = crafted_spec(1000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_repro(spec, tmp_path / "out") is False
        assert "FAIL runs_completed" in capsys.readouterr().out
        header, row = (tmp_path / "out" / "aborted.csv").read_text().splitlines()
        assert header == "delta,lam,variant,seed,error"
        assert row.endswith(",training diverged at step 4: "
                            "enc_c.mean layer 2 produced a non-finite value")

    def test_hard_check_gates_exit(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.txt"
        spec_file.write_text(REPRO_SPEC + "\n[acceptance]\ndcor_sn_min = 1.5\n")
        assert main(["repro", "--spec", str(spec_file),
                     "--out", str(tmp_path / "out")]) == 1
        assert "FAIL dcor_sn_min" in capsys.readouterr().out

    def test_soft_check_reports_without_gating(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.txt"
        # an impossible soft margin: full model must beat ablation by >= 2
        spec_file.write_text(REPRO_SPEC
                             + "\n[acceptance]\nablation_margin = -2.0\n")
        code = main(["repro", "--spec", str(spec_file),
                     "--out", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert "ablation_margin (soft)" in out
        assert code == 0
