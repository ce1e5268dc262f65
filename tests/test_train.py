import importlib
import warnings
from dataclasses import replace

import numpy as np
import pytest
from reference_ops import node

from pnsrisk.autodiff import Tensor, check_gradients, parameter
from pnsrisk.model import GaussianEncoder, GaussianPrior, LinearHead, _ytil
from pnsrisk.synth import SynthConfig, generate
from pnsrisk.train import (
    TrainConfig,
    TrainingDiverged,
    casn_objective,
    irm_penalty,
    load_model,
    mmd_penalty,
    save_model,
    separation_penalty,
    train,
)


def toy_parts(seed=0, n=6, in_dim=3, rep=2):
    """A batch with -1/+1 labels, as casn_objective takes them, and the
    game's parts."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, in_dim))
    y = rng.integers(0, 2, size=n) * 2.0 - 1.0
    enc_c = GaussianEncoder(in_dim, rep_dim=rep, hidden=(5, 4),
                            rng=np.random.default_rng(seed + 1))
    enc_cbar = GaussianEncoder(in_dim, rep_dim=rep, hidden=(5, 4),
                               rng=np.random.default_rng(seed + 2), prefix="enc_twin")
    head = LinearHead(rep, rng=np.random.default_rng(seed + 3))
    prior = GaussianPrior.standard(rep)
    return x, y, enc_c, enc_cbar, head, prior


class TestSeparationPenalty:
    def test_zero_delta_is_inert(self):
        rng = np.random.default_rng(0)
        c = rng.standard_normal((8, 3))
        c_bar = rng.standard_normal((8, 3))
        assert separation_penalty(c, c_bar, 0.0)[0] == 0.0

    def test_coincident_pair_costs_delta_squared(self):
        a = np.ones((4, 3))
        assert abs(separation_penalty(a, a, 0.7)[0] - 0.49) < 1e-8

    def test_far_pairs_cost_nothing(self):
        c = np.zeros((3, 2))
        c_bar = np.full((3, 2), 10.0)
        assert separation_penalty(c, c_bar, 1.5)[0] == 0.0

    def test_gradient(self):
        rng = np.random.default_rng(1)
        a = parameter(rng.standard_normal((5, 3)))
        b = Tensor(rng.standard_normal((5, 3)))
        err = check_gradients(
            lambda: node("separation_penalty", [a, b], separation_penalty(a.data, b.data, 2.0)),
            [a])
        assert err < 1e-5

    def test_mismatched_pairs_are_refused(self):
        with pytest.raises(ValueError, match=r"^separation_penalty: \(3, 2\) vs \(2, 2\)$"):
            separation_penalty(np.zeros((3, 2)), np.zeros((2, 2)), 1.0)


class TestMmdPenalty:
    def test_two_point_masses_at_distance_three(self):
        a = np.tile([0.0, 0.0], (4, 1))
        b = np.tile([0.0, 3.0], (6, 1))
        assert abs(mmd_penalty([a, b])[0] - 3.0) < 1e-9

    def test_single_domain_returns_zero_without_a_warning(self):
        # a batch that drew one domain's rows has no cross-domain pair: the
        # objective adds no penalty, and mmd_penalty refuses the one group
        x, y, enc_c, enc_cbar, head, prior = toy_parts()
        cfg = TrainConfig(variant="casn_mmd", rep_dim=2, hidden=(5, 4))
        eps = np.zeros((1, 6, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            parts = casn_objective(x, y, enc_c, enc_cbar, head, prior, prior, cfg, eps, eps,
                                   domain_rows=[np.arange(6)])[2]
        assert parts["penalty"] == 0.0
        with pytest.raises(ValueError, match="^mmd penalty needs at least two domains$"):
            mmd_penalty([np.zeros((3, 2))])

    def test_unequal_widths_are_refused(self):
        with pytest.raises(ValueError, match=r"^mmd_penalty: \(3, 2\) vs \(4, 3\)$"):
            mmd_penalty([np.zeros((3, 2)), np.zeros((4, 3))])

    def test_matches_naive_average(self):
        rng = np.random.default_rng(2)
        groups = [rng.standard_normal((k, 3)) for k in (4, 5, 6)]
        want = 0.0
        for i in range(3):
            for j in range(i + 1, 3):
                want += np.mean(
                    [np.linalg.norm(p - q) for p in groups[i] for q in groups[j]]
                )
        got = mmd_penalty(groups)[0]
        assert abs(got - want) < 1e-9

    def test_gradient(self):
        rng = np.random.default_rng(3)
        a = parameter(rng.standard_normal((4, 3)))
        b = Tensor(rng.standard_normal((5, 3)))
        err = check_gradients(lambda: node("mmd_penalty", [a, b], mmd_penalty([a.data, b.data])),
                              [a])
        assert err < 1e-5


class TestIrmPenalty:
    def test_zero_labeler_is_stationary(self):
        rng = np.random.default_rng(4)
        reps = rng.standard_normal((6, 3))
        y = rng.integers(0, 2, size=6)
        assert irm_penalty(np.zeros(3), [reps], [-_ytil(y)])[0] == 0.0

    def test_matches_finite_difference_in_dummy_scale(self):
        rng = np.random.default_rng(5)
        head = LinearHead(3, rng=rng)
        reps = rng.standard_normal((40, 3))
        y = rng.integers(0, 2, size=40)
        ytil = y * 2.0 - 1.0
        z = reps @ head.w.data

        def loss_at(s):
            a = -ytil * s * z
            return np.mean(np.maximum(a, 0.0) + np.log1p(np.exp(-np.abs(a))))

        h = 1e-6
        fd = (loss_at(1.0 + h) - loss_at(1.0 - h)) / (2.0 * h)
        got = irm_penalty(head.w.data, [reps], [-ytil])[0]
        assert abs(got - fd * fd) < 1e-6

    def test_two_identical_domains_double_one(self):
        rng = np.random.default_rng(6)
        w = LinearHead(2, rng=rng).w.data
        reps = rng.standard_normal((10, 2))
        neg_ytil = -_ytil(rng.integers(0, 2, size=10))
        one = irm_penalty(w, [reps], [neg_ytil])[0]
        two = irm_penalty(w, [reps, reps], [neg_ytil, neg_ytil])[0]
        assert abs(two - 2.0 * one) < 1e-12

    def test_gradient(self):
        rng = np.random.default_rng(7)
        head = LinearHead(3, rng=rng)
        reps = parameter(rng.standard_normal((8, 3)))
        neg_ytil = -_ytil(rng.integers(0, 2, size=8))
        params = [reps, head.w]
        err = check_gradients(
            lambda: node("irm_penalty", params, irm_penalty(head.w.data, [reps.data], [neg_ytil])),
            params)
        assert err < 1e-5

    def test_no_domains_is_refused(self):
        with pytest.raises(ValueError, match="at least one domain"):
            irm_penalty(np.ones(3), [], [])

    def test_groups_and_labels_must_align(self):
        with pytest.raises(ValueError, match="must align"):
            irm_penalty(np.ones(3), [np.zeros((2, 3))] * 2, [np.ones(2)])


class TestObjective:
    def test_parts_and_losses(self):
        x, y, enc_c, enc_cbar, head, prior = toy_parts()
        cfg = TrainConfig(total_steps=1, rep_dim=2, hidden=(5, 4))
        eps = np.zeros((1, 6, 2))
        min_loss, max_loss, parts = casn_objective(
            x, y, enc_c, enc_cbar, head, prior, prior, cfg, eps, eps)
        want = (parts["m"] + parts["sf"] + cfg.lam * (parts["kl_c"] + parts["kl_cbar"])
                + cfg.sep_weight * parts["hinge"])
        assert abs(min_loss.item() - want) < 1e-9
        assert abs(max_loss.item() + min_loss.item()) < 1e-15

    def test_irm_without_domains_makes_the_batch_one_domain(self):
        x, y, enc_c, enc_cbar, head, prior = toy_parts()
        cfg = TrainConfig(variant="casn_irm", rep_dim=2, hidden=(5, 4))
        eps = np.random.default_rng(9).standard_normal((1, 6, 2))
        params = [*enc_c.parameters().values(), *head.parameters().values()]
        seen = []
        for rows in (None, [np.arange(len(y))]):
            min_loss, _, parts = casn_objective(x, y, enc_c, enc_cbar, head, prior, prior,
                                                cfg, eps, eps, domain_rows=rows)
            min_loss.backward()
            seen.append((min_loss.data.tobytes(), parts, [p.grad.tobytes() for p in params]))
        assert seen[0][1]["penalty"] > 0.0
        assert seen[0] == seen[1]

    @pytest.mark.parametrize("variant", ["casn", "casn_irm", "casn_mmd"])
    def test_adversary_kl_flag_changes_the_twin_gradient_only(self, variant):
        """adversary_kl decides whether lam * KL_xi is a term of the game;
        the min player cannot move that term, so its gradient bytes are
        the same either way, while the objective and the twin's gradient
        move by the term."""
        min_grads, twin_grads, values = [], [], []
        for adversary_kl in (True, False):
            x, y, enc_c, enc_cbar, head, prior = toy_parts(seed=1)
            rng = np.random.default_rng(10)
            eps_c, eps_cbar = rng.standard_normal((2, 1, 6, 2))
            cfg = TrainConfig(rep_dim=2, hidden=(5, 4), variant=variant,
                              adversary_kl=adversary_kl)
            min_loss, max_loss, parts = casn_objective(
                x, y, enc_c, enc_cbar, head, prior, prior, cfg, eps_c, eps_cbar,
                domain_rows=[np.arange(0, 6, 2), np.arange(1, 6, 2)])
            for loss, params, out in ((min_loss, [*enc_c.parameters().values(), head.w],
                                       min_grads),
                                      (max_loss, list(enc_cbar.parameters().values()),
                                       twin_grads)):
                loss.backward()
                out.append([p.grad.tobytes() for p in params])
            values.append(min_loss.item())
        assert min_grads[0] == min_grads[1]
        assert twin_grads[0] != twin_grads[1]
        assert abs(values[0] - values[1] - cfg.lam * parts["kl_cbar"]) < 1e-12

    def test_ablation_never_touches_twin(self):
        x, y, enc_c, enc_cbar, head, prior = toy_parts(seed=2)
        cfg = TrainConfig(rep_dim=2, hidden=(5, 4), variant="casn_minus_m")
        eps = np.zeros((1, 6, 2))
        min_loss, max_loss, parts = casn_objective(
            x, y, enc_c, enc_cbar, head, prior, prior, cfg, eps, eps)
        assert max_loss is None
        assert parts["m"] == 0.0 and parts["kl_cbar"] == 0.0
        min_loss.backward()
        for p in enc_cbar.parameters().values():
            assert p.grad is None

    def test_full_objective_gradients(self):
        """Each player's loss against central differences in every one of
        that player's parameters."""
        x, y, enc_c, enc_cbar, head, prior = toy_parts(seed=3)
        cfg = TrainConfig(rep_dim=2, hidden=(5, 4))
        rng = np.random.default_rng(8)
        eps_c = rng.standard_normal((1, 6, 2))
        eps_cbar = rng.standard_normal((1, 6, 2))
        players = ([*enc_c.parameters().values(), head.w], list(enc_cbar.parameters().values()))
        for role, params in enumerate(players):
            def loss():
                return casn_objective(
                    x, y, enc_c, enc_cbar, head, prior, prior, cfg, eps_c, eps_cbar)[role]

            assert check_gradients(loss, params) < 1e-5

    def test_multi_draw_average(self):
        x, y, enc_c, enc_cbar, head, prior = toy_parts(seed=4)
        cfg1 = TrainConfig(rep_dim=2, hidden=(5, 4), mc_samples=2)
        rng = np.random.default_rng(9)
        eps_c = rng.standard_normal((2, 6, 2))
        eps_cbar = rng.standard_normal((2, 6, 2))
        loss2, _, _ = casn_objective(
            x, y, enc_c, enc_cbar, head, prior, prior, cfg1, eps_c, eps_cbar)
        cfg_single = TrainConfig(rep_dim=2, hidden=(5, 4), mc_samples=1)
        vals = []
        for k in range(2):
            lk, _, _ = casn_objective(
                x, y, enc_c, enc_cbar, head, prior, prior, cfg_single,
                eps_c[k : k + 1], eps_cbar[k : k + 1])
            vals.append(lk.item())
        assert abs(loss2.item() - np.mean(vals)) < 1e-12


def tiny_data(n=256, seed=0):
    """Two well-separated clusters; label = cluster."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n)
    x = np.where(y[:, None] == 1, 3.0, -3.0) + 0.3 * rng.standard_normal((n, 2))
    from pnsrisk.synth import SynthData

    return SynthData(x=x, y=y, sn=y.copy(), sf=y.copy(), nc=y.copy(),
                     sp=np.zeros((n, 1)))


SMALL = dict(rep_dim=4, hidden=(8, 6), batch_size=16)

# a config whose factual encoder overflows its first hidden layer at step 4
CRAFTED = TrainConfig(total_steps=300, lr_min=1000.0, fixed_var=0.1, seed=3, **SMALL)


def crafted_data():
    return generate(SynthConfig(d=2, n_train=256, seed=1), 256)


class TestTrainLoop:
    def test_trace_length_and_fields(self):
        cfg = TrainConfig(total_steps=12, max_every=5, max_steps_per_phase=2,
                          seed=1, **SMALL)
        result = train(tiny_data(), cfg)
        assert len(result.trace) == 12
        phases = [r for r in result.trace if r.adversary_objective is not None]
        assert [r.step for r in phases] == [4, 9]
        for r in result.trace:
            assert np.isfinite([r.sf, r.m, r.kl_c, r.kl_cbar, r.hinge]).all()

    def test_deterministic(self):
        cfg = TrainConfig(total_steps=15, max_every=6, seed=2, **SMALL)
        a = train(tiny_data(), cfg)
        b = train(tiny_data(), cfg)
        for pa, pb in zip(a.enc_c.parameters().values(), b.enc_c.parameters().values()):
            assert pa.data.tobytes() == pb.data.tobytes()
        assert a.risk.per_sample == b.risk.per_sample

    def test_adversary_only_moves_in_phases(self):
        data = tiny_data()
        cfg = TrainConfig(total_steps=10, max_every=100, seed=3, **SMALL)
        result = train(data, cfg)
        # no phase ran, so the twin still equals its init; rebuild it
        cfg2 = TrainConfig(total_steps=0, seed=3, **SMALL)
        init_only = train(data, cfg2)
        for p, q in zip(result.enc_cbar.parameters().values(),
                        init_only.enc_cbar.parameters().values()):
            assert np.array_equal(p.data, q.data)
        cfg3 = TrainConfig(total_steps=10, max_every=5, seed=3, **SMALL)
        moved = train(data, cfg3)
        changed = any(
            not np.array_equal(p.data, q.data)
            for p, q in zip(moved.enc_cbar.parameters().values(),
                            init_only.enc_cbar.parameters().values())
        )
        assert changed

    def test_min_player_never_writes_twin_in_ablation(self):
        data = tiny_data()
        cfg = TrainConfig(total_steps=20, variant="casn_minus_m", seed=4, **SMALL)
        result = train(data, cfg)
        fresh = train(data, TrainConfig(total_steps=0, variant="casn_minus_m",
                                        seed=4, **SMALL))
        for p, q in zip(result.enc_cbar.parameters().values(),
                        fresh.enc_cbar.parameters().values()):
            assert np.array_equal(p.data, q.data)

    def test_separable_data_reaches_low_error(self):
        cfg = TrainConfig(total_steps=400, lr_min=0.05, variant="casn_minus_m",
                          lam=0.001, fixed_var=0.001, seed=5, **SMALL)
        result = train(tiny_data(), cfg)
        assert result.risk.sf < 0.05

    def test_divergence_aborts_with_trace(self):
        cfg = TrainConfig(total_steps=500, lr_min=1e18, seed=6, **SMALL)
        with pytest.raises(TrainingDiverged) as info:
            train(tiny_data(), cfg)
        assert isinstance(info.value.trace, list)

    def test_divergence_names_step_and_node_without_a_warning(self):
        # numpy's overflow in the matmul neither warns nor escapes: the
        # layer's own check reports it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDiverged) as info:
                train(crafted_data(), CRAFTED)
        assert str(info.value) == ("training diverged at step 4: "
                                   "enc_c.mean layer 1 produced a non-finite value")
        assert info.value.step == 4 and len(info.value.trace) == 4

    def test_divergence_in_the_final_report_names_total_steps(self):
        # cut to four steps, the last update overflows the encoder; the
        # final risk report's forward checks the layer, so no report is
        # made from non-finite reps and numpy never warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDiverged) as info:
                train(crafted_data(), replace(CRAFTED, total_steps=4))
        assert str(info.value) == ("training diverged at step 4: "
                                   "enc_c.mean layer 1 produced a non-finite value")
        assert info.value.step == 4 and len(info.value.trace) == 4

    def test_log_var_overflow_in_the_last_update_names_total_steps(self, monkeypatch):
        # the last update leaves a learned log-variance whose exp overflows;
        # the final report's variance check names it, with no numpy warning
        train_module = importlib.import_module("pnsrisk.train")
        cfg = TrainConfig(total_steps=3, max_every=100, seed=1, **SMALL)
        sgd = train_module._sgd
        updates = []

        def last_update_overflows(params, *args):
            sgd(params, *args)
            updates.append(None)
            if len(updates) == cfg.total_steps:
                for p in params:
                    if p.name == "enc_c.log_var":
                        p.data[:] = 800.0

        monkeypatch.setattr(train_module, "_sgd", last_update_overflows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDiverged) as info:
                train(tiny_data(), cfg)
        assert str(info.value) == ("training diverged at step 3: "
                                   "enc_c.log_var produced a non-finite value")
        assert info.value.step == 3 and len(info.value.trace) == 3

    @pytest.mark.parametrize("bad_rows, first", [([2999], 2999), (slice(None), 0)],
                             ids=["one-row-no-batch-draws", "all"])
    def test_labels_other_than_0_or_1_are_refused_before_step_0(self, bad_rows, first):
        # row 2999 is checked though no batch of a 3-step run draws it
        data = generate(SynthConfig(d=2, n_train=3000, seed=1), 3000)
        y = data.y.copy()
        y[bad_rows] = 2
        with pytest.raises(ValueError, match=f"^data.y row {first} is 2, not 0 or 1$"):
            train(replace(data, y=y), TrainConfig(total_steps=3, seed=0, **SMALL))

    @pytest.mark.parametrize("labels_of, shape", [(lambda y: y[:10], "(10,)"),
                                                  (lambda y: y[:, None], "(64, 1)")],
                             ids=["short", "column"])
    def test_labels_not_one_per_row_are_refused_before_step_0(self, labels_of, shape):
        data = generate(SynthConfig(d=2, n_train=64, seed=1), 64)
        with pytest.raises(ValueError) as info:
            train(replace(data, y=labels_of(data.y)), TrainConfig(total_steps=3, seed=0, **SMALL))
        assert str(info.value) == f"data.y has shape {shape}, not one label per row (64,)"

    def test_non_finite_input_is_refused_before_step_0(self):
        data = generate(SynthConfig(d=2, n_train=64, seed=1), 64)
        x = data.x.copy()
        x[5, 0] = np.nan
        with pytest.raises(ValueError, match="^data.x holds a non-finite value$"):
            train(replace(data, x=x), TrainConfig(total_steps=50, seed=0, **SMALL))

    def test_irm_variant_runs_and_anneals(self):
        data = tiny_data()
        domains = (np.arange(len(data.y)) % 2).astype(int)
        cfg = TrainConfig(total_steps=8, variant="casn_irm", irm_anneal_iters=4,
                          max_every=100, seed=7, **SMALL)
        result = train(data, cfg, domains=domains)
        assert len(result.trace) == 8
        assert all(np.isfinite(r.penalty) for r in result.trace)

    def test_irm_variant_runs_without_domains(self):
        cfg = TrainConfig(total_steps=8, variant="casn_irm", irm_anneal_iters=4,
                          max_every=4, seed=7, **SMALL)
        result = train(tiny_data(), cfg)
        assert len(result.trace) == 8
        assert all(np.isfinite(r.penalty) and r.penalty > 0.0 for r in result.trace)

    @pytest.mark.parametrize("domains", [None, "one"])
    def test_mmd_variant_without_two_domains_is_refused(self, domains):
        data = tiny_data()
        if domains == "one":
            domains = np.zeros(len(data.y), dtype=int)
        cfg = TrainConfig(total_steps=2, variant="casn_mmd", max_every=100,
                          seed=8, **SMALL)
        with pytest.raises(ValueError, match="casn_mmd needs domains"):
            train(data, cfg, domains=domains)

    def test_mmd_batches_of_one_domain_add_zero_without_a_warning(self):
        data = generate(SynthConfig(d=2, n_train=64, seed=1), 64)
        domains = np.zeros(64, dtype=int)
        domains[[3, 40]] = 1  # most 16-row batches draw neither row
        cfg = TrainConfig(total_steps=50, variant="casn_mmd", seed=0, **SMALL)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = train(data, cfg, domains=domains)
        penalties = [r.penalty for r in result.trace]
        assert len(penalties) == 50 and 0.0 in penalties and max(penalties) > 0.0

    def test_mmd_variant_two_domains(self):
        data = tiny_data()
        domains = (np.arange(len(data.y)) % 2).astype(int)
        cfg = TrainConfig(total_steps=4, variant="casn_mmd", max_every=100,
                          seed=9, **SMALL)
        result = train(data, cfg, domains=domains)
        assert any(r.penalty > 0.0 for r in result.trace)

    def test_momentum_changes_trajectory(self):
        data = tiny_data()
        plain = train(data, TrainConfig(total_steps=10, seed=10, **SMALL))
        heavy = train(data, TrainConfig(total_steps=10, momentum=0.9, seed=10, **SMALL))
        same = all(
            np.array_equal(p.data, q.data)
            for p, q in zip(plain.enc_c.parameters().values(),
                            heavy.enc_c.parameters().values())
        )
        assert not same

    @pytest.mark.parametrize("field, value", [
        ("variant", "nope"), ("delta", -1.0), ("delta", float("nan")), ("batch_size", 0),
        ("total_steps", -1), ("mc_samples", 0), ("rep_dim", 0), ("hidden", (8, 0)),
        ("max_every", -1), ("max_steps_per_phase", -1), ("irm_anneal_iters", -1),
        ("seed", -1), ("lr_min", 0.0), ("lr_min", float("nan")), ("lr_max", float("inf")),
        ("lam", -0.1), ("sep_weight", -1.0), ("irm_weight", float("inf")),
        ("mmd_weight", float("nan")), ("momentum", 1.0), ("momentum", -0.1),
        ("fixed_var", 0.0), ("fixed_var", float("nan")), ("seed", 2**64),
    ])
    def test_config_validation(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    def test_config_edges_stay_valid(self):
        TrainConfig(irm_anneal_iters=0, momentum=0.9, max_every=0, max_steps_per_phase=0,
                    lam=0.0, sep_weight=0.0, delta=0.0, fixed_var=None, total_steps=0)

    def test_largest_seed_trains(self):
        cfg = TrainConfig(total_steps=2, max_every=1, max_steps_per_phase=1, seed=2**64 - 1,
                          **SMALL)
        assert len(train(tiny_data(n=32), cfg).trace) == 2

    def test_players_sharing_a_parameter_is_refused(self, monkeypatch):
        # the package re-exports train(), so import the module by path
        train_module = importlib.import_module("pnsrisk.train")
        monkeypatch.setattr(train_module, "clone_perturbed", lambda enc, rng, scale: enc)
        with pytest.raises(RuntimeError, match="share a parameter"):
            train(tiny_data(), TrainConfig(total_steps=1, **SMALL))


class TestModelRoundTrip:
    def test_save_load_bit_exact(self, tmp_path):
        cfg = TrainConfig(total_steps=5, seed=11, **SMALL)
        result = train(tiny_data(), cfg)
        path = tmp_path / "run.ckpt"
        save_model(path, result)
        enc_c, enc_cbar, head, meta = load_model(path)
        assert meta["delta"] == "0.7"
        for src, dst in ((result.enc_c, enc_c), (result.enc_cbar, enc_cbar),
                         (result.head, head)):
            for name, tensor in src.parameters().items():
                assert dst.parameters()[name].data.tobytes() == tensor.data.tobytes()

    def test_save_model_writes_run_metadata(self, tmp_path):
        cfg = TrainConfig(total_steps=0, delta=0.35, lam=0.02, variant="casn_minus_m",
                          seed=13, **SMALL)
        path = tmp_path / "run.ckpt"
        save_model(path, train(tiny_data(), cfg))
        meta = load_model(path)[3]
        # the run's config follows the shape metadata, in this order
        assert list(meta) == ["in_dim", "rep_dim", "hidden", "fixed_var",
                              "delta", "lam", "variant", "seed"]
        assert (meta["delta"], meta["lam"], meta["variant"], meta["seed"]) == (
            "0.35", "0.02", "casn_minus_m", "13")

    def test_no_hidden_layers_round_trip(self, tmp_path):
        data = tiny_data()
        result = train(data, TrainConfig(total_steps=5, seed=14, rep_dim=4, hidden=(),
                                         batch_size=16))
        path = tmp_path / "run.ckpt"
        save_model(path, result)
        enc_c, enc_cbar, _, meta = load_model(path)
        assert meta["hidden"] == ""
        for src, dst in ((result.enc_c, enc_c), (result.enc_cbar, enc_cbar)):
            for want, got in zip(src.encode_np(data.x), dst.encode_np(data.x)):
                assert got.tobytes() == want.tobytes()

    def test_unexpected_parameter_rejected(self, tmp_path):
        from pnsrisk.model import load_checkpoint, save_checkpoint

        path = tmp_path / "run.ckpt"
        save_model(path, train(tiny_data(), TrainConfig(total_steps=0, **SMALL)))
        params, meta = load_checkpoint(path)
        save_checkpoint(path, {**params, "enc_c.extra": np.ones(2)}, meta=meta)
        with pytest.raises(ValueError, match="unexpected parameter enc_c.extra"):
            load_model(path)

    def test_loaded_model_predicts_identically(self, tmp_path):
        from pnsrisk.model import predict

        data = tiny_data()
        result = train(data, TrainConfig(total_steps=5, seed=12, **SMALL))
        path = tmp_path / "run.ckpt"
        save_model(path, result)
        enc_c, _, head, _ = load_model(path)
        assert np.array_equal(predict(result.head, result.enc_c, data.x),
                              predict(head, enc_c, data.x))
