import importlib

import numpy as np
import pytest

from pnsrisk.autodiff import check_gradients, constant, parameter
from pnsrisk.model import GaussianEncoder, GaussianPrior, LinearHead
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
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, in_dim))
    y = rng.integers(0, 2, size=n)
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
        c = constant(rng.standard_normal((8, 3)))
        c_bar = constant(rng.standard_normal((8, 3)))
        assert separation_penalty(c, c_bar, 0.0).item() == 0.0

    def test_coincident_pair_costs_delta_squared(self):
        a = constant(np.ones((4, 3)))
        assert abs(separation_penalty(a, a, 0.7).item() - 0.49) < 1e-8

    def test_far_pairs_cost_nothing(self):
        c = constant(np.zeros((3, 2)))
        c_bar = constant(np.full((3, 2), 10.0))
        assert separation_penalty(c, c_bar, 1.5).item() == 0.0

    def test_gradient(self):
        rng = np.random.default_rng(1)
        a = parameter(rng.standard_normal((5, 3)))
        b = constant(rng.standard_normal((5, 3)))
        err = check_gradients(lambda: separation_penalty(a, b, 2.0), [a])
        assert err < 1e-5


class TestMmdPenalty:
    def test_two_point_masses_at_distance_three(self):
        a = constant(np.tile([0.0, 0.0], (4, 1)))
        b = constant(np.tile([0.0, 3.0], (6, 1)))
        assert abs(mmd_penalty([a, b]).item() - 3.0) < 1e-9

    def test_single_domain_warns_and_returns_zero(self):
        a = constant(np.zeros((3, 2)))
        with pytest.warns(UserWarning, match="two domains"):
            assert mmd_penalty([a]).item() == 0.0

    def test_matches_naive_average(self):
        rng = np.random.default_rng(2)
        groups = [rng.standard_normal((k, 3)) for k in (4, 5, 6)]
        want = 0.0
        for i in range(3):
            for j in range(i + 1, 3):
                want += np.mean(
                    [np.linalg.norm(p - q) for p in groups[i] for q in groups[j]]
                )
        got = mmd_penalty([constant(g) for g in groups]).item()
        assert abs(got - want) < 1e-9

    def test_gradient(self):
        rng = np.random.default_rng(3)
        a = parameter(rng.standard_normal((4, 3)))
        b = constant(rng.standard_normal((5, 3)))
        assert check_gradients(lambda: mmd_penalty([a, b]), [a]) < 1e-5


class TestIrmPenalty:
    def test_zero_labeler_is_stationary(self):
        rng = np.random.default_rng(4)
        head = LinearHead(3)
        head.w.data[:] = 0.0
        reps = constant(rng.standard_normal((6, 3)))
        y = rng.integers(0, 2, size=6)
        assert irm_penalty(head, [reps], [y]).item() == 0.0

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
        got = irm_penalty(head, [constant(reps)], [y]).item()
        assert abs(got - fd * fd) < 1e-6

    def test_two_identical_domains_double_one(self):
        rng = np.random.default_rng(6)
        head = LinearHead(2, rng=rng)
        reps = rng.standard_normal((10, 2))
        y = rng.integers(0, 2, size=10)
        one = irm_penalty(head, [constant(reps)], [y]).item()
        two = irm_penalty(head, [constant(reps), constant(reps)], [y, y]).item()
        assert abs(two - 2.0 * one) < 1e-12

    def test_gradient(self):
        rng = np.random.default_rng(7)
        head = LinearHead(3, rng=rng)
        reps = parameter(rng.standard_normal((8, 3)))
        y = rng.integers(0, 2, size=8)
        params = [reps, head.w]
        assert check_gradients(lambda: irm_penalty(head, [reps], [y]), params) < 1e-5

    def test_biased_head(self):
        rng = np.random.default_rng(8)
        head = LinearHead(3, rng=rng, bias=True)
        head.b.data[:] = 0.4
        reps = parameter(rng.standard_normal((8, 3)))
        y = rng.integers(0, 2, size=8)
        a = -(y * 2.0 - 1.0) * (reps.data @ head.w.data + 0.4)
        want = np.mean(a / (1.0 + np.exp(-a))) ** 2
        assert abs(irm_penalty(head, [reps], [y]).item() - want) < 1e-12
        params = [reps, head.w, head.b]
        assert check_gradients(lambda: irm_penalty(head, [reps], [y]), params) < 1e-5


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

    def test_adversary_kl_flag_changes_max_loss_only(self):
        x, y, enc_c, enc_cbar, head, prior = toy_parts(seed=1)
        eps = np.zeros((1, 6, 2))
        cfg_on = TrainConfig(rep_dim=2, hidden=(5, 4), adversary_kl=True)
        cfg_off = TrainConfig(rep_dim=2, hidden=(5, 4), adversary_kl=False)
        min_on, max_on, parts = casn_objective(
            x, y, enc_c, enc_cbar, head, prior, prior, cfg_on, eps, eps)
        min_off, max_off, _ = casn_objective(
            x, y, enc_c, enc_cbar, head, prior, prior, cfg_off, eps, eps)
        assert abs(min_on.item() - min_off.item()) < 1e-15
        assert abs((-max_off.item()) - (min_off.item() - cfg_off.lam * parts["kl_cbar"])) < 1e-9

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
        x, y, enc_c, enc_cbar, head, prior = toy_parts(seed=3)
        cfg = TrainConfig(rep_dim=2, hidden=(5, 4))
        rng = np.random.default_rng(8)
        eps_c = rng.standard_normal((1, 6, 2))
        eps_cbar = rng.standard_normal((1, 6, 2))
        params = (list(enc_c.parameters().values())
                  + list(enc_cbar.parameters().values())
                  + list(head.parameters().values()))

        def loss():
            min_loss, _, _ = casn_objective(
                x, y, enc_c, enc_cbar, head, prior, prior, cfg, eps_c, eps_cbar)
            return min_loss

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

    def test_irm_variant_runs_and_anneals(self):
        data = tiny_data()
        domains = (np.arange(len(data.y)) % 2).astype(int)
        cfg = TrainConfig(total_steps=8, variant="casn_irm", irm_anneal_iters=4,
                          max_every=100, seed=7, **SMALL)
        result = train(data, cfg, domains=domains)
        assert len(result.trace) == 8
        assert all(np.isfinite(r.penalty) for r in result.trace)

    def test_mmd_variant_single_domain_warns(self):
        cfg = TrainConfig(total_steps=2, variant="casn_mmd", max_every=100,
                          seed=8, **SMALL)
        with pytest.warns(UserWarning):
            result = train(tiny_data(), cfg)
        assert all(r.penalty == 0.0 for r in result.trace)

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
        save_model(path, result, extra_meta={"delta": repr(cfg.delta)})
        enc_c, enc_cbar, head, meta = load_model(path)
        assert meta["delta"] == "0.7"
        for src, dst in ((result.enc_c, enc_c), (result.enc_cbar, enc_cbar),
                         (result.head, head)):
            for name, tensor in src.parameters().items():
                assert dst.parameters()[name].data.tobytes() == tensor.data.tobytes()

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
