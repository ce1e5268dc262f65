import math
import warnings

import numpy as np
import pytest
from reference_ops import add, node, reduce_mean, square

from pnsrisk.autodiff import check_gradients
from pnsrisk.model import (
    _ytil,
    GaussianEncoder,
    GaussianPrior,
    LinearHead,
    Mlp,
    clone_perturbed,
    load_checkpoint,
    predict,
    save_checkpoint,
    surrogate_m,
    surrogate_sf,
)


def mean_node(enc, x):
    return node("encode", list(enc.mlp.parameters().values()), enc.encode(x))


def posterior(enc, mean):
    """The parents of a term on the posterior: its mean node, and the
    log-variance when it is learned."""
    return [mean] + ([] if enc.log_var is None else [enc.log_var])


def kl_closed_form(q_mean, q_var, p_mean, p_var):
    return 0.5 * np.sum(
        np.log(p_var / q_var) + (q_var + (q_mean - p_mean) ** 2) / p_var - 1.0
    )


class TestEncoder:
    def test_zeroed_head_layer_returns_bias(self):
        enc = GaussianEncoder(4, rep_dim=3, hidden=(8, 5), rng=np.random.default_rng(0))
        enc.mlp.weights[-1].data[:] = 0.0
        enc.mlp.biases[-1].data[:] = [1.0, -2.0, 3.0]
        mean, _ = enc.encode_np(np.random.default_rng(1).standard_normal((6, 4)))
        assert np.allclose(mean, np.tile([1.0, -2.0, 3.0], (6, 1)))

    def test_fixed_variance_mode(self):
        enc = GaussianEncoder(4, rep_dim=3, fixed_var=0.001)
        assert np.allclose(enc.var_np(), 0.001)
        assert enc.log_var is None

    def test_learned_variance_overflow_names_log_var(self):
        enc = GaussianEncoder(4, rep_dim=3, hidden=(8, 5), prefix="enc_c")
        enc.log_var.data[:] = [0.0, 800.0, 0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError,
                               match="^enc_c.log_var produced a non-finite value$"):
                enc.var_np()
            with pytest.raises(FloatingPointError, match="^enc_c.log_var"):
                enc.encode_np(np.zeros((2, 4)))

    def test_fixed_variance_positive(self):
        with pytest.raises(ValueError):
            GaussianEncoder(4, rep_dim=3, fixed_var=0.0)

    def test_graph_and_plain_forward_agree(self):
        rng = np.random.default_rng(2)
        enc = GaussianEncoder(5, rep_dim=4, hidden=(7, 6), rng=rng)
        x = rng.standard_normal((9, 5))
        assert enc.encode(x)[0].tobytes() == enc.encode_np(x)[0].tobytes()

    def test_sample_is_mean_plus_scaled_eps(self):
        rng = np.random.default_rng(3)
        enc = GaussianEncoder(4, rep_dim=3, rng=rng, fixed_var=0.25)
        x = rng.standard_normal((5, 4))
        eps = rng.standard_normal((5, 3))
        draw, _ = enc.draw(enc.encode(x)[0], eps)
        mean, _ = enc.encode_np(x)
        assert np.allclose(draw, mean + 0.5 * eps, atol=1e-15)

    def test_same_eps_same_draw(self):
        rng = np.random.default_rng(4)
        enc = GaussianEncoder(4, rep_dim=3, rng=rng)
        x = rng.standard_normal((2, 4))
        eps = rng.standard_normal((2, 3))
        assert np.array_equal(enc.draw(enc.encode(x)[0], eps)[0],
                              enc.draw(enc.encode(x)[0], eps)[0])

    def test_reparameterized_gradient(self):
        rng = np.random.default_rng(7)
        enc = GaussianEncoder(3, rep_dim=2, hidden=(5, 4), rng=rng)
        x = rng.standard_normal((4, 3))
        eps = rng.standard_normal((4, 2))
        params = list(enc.parameters().values())

        def loss():
            mean = mean_node(enc, x)
            return reduce_mean(square(node("draw", posterior(enc, mean),
                                           enc.draw(mean.data, eps))))

        assert check_gradients(loss, params) < 1e-6

    def test_kl_node_matches_closed_form(self):
        rng = np.random.default_rng(8)
        enc = GaussianEncoder(3, rep_dim=4, hidden=(6, 5), rng=rng)
        enc.log_var.data[:] = rng.uniform(-1.0, 1.0, size=4)
        prior = GaussianPrior(rng.standard_normal(4), rng.uniform(0.5, 2.0, size=4))
        x = rng.standard_normal((7, 3))
        mean, _ = enc.encode(x)
        got, _ = enc.kl_node(mean, prior)
        q_var = enc.var_np()
        want = np.mean(
            [kl_closed_form(row, q_var, prior.mean, prior.var) for row in mean]
        )
        assert abs(got - want) < 1e-10

    def test_kl_node_differentiable(self):
        rng = np.random.default_rng(9)
        enc = GaussianEncoder(3, rep_dim=2, hidden=(4, 4), rng=rng)
        prior = GaussianPrior.standard(2)
        x = rng.standard_normal((5, 3))
        params = list(enc.parameters().values())

        def loss():
            mean = mean_node(enc, x)
            return node("kl_node", posterior(enc, mean), enc.kl_node(mean.data, prior))

        assert check_gradients(loss, params) < 1e-6

    def test_prior_validation(self):
        with pytest.raises(ValueError):
            GaussianPrior(np.zeros(3), np.array([1.0, 0.0, 1.0]))


class TestHeadAndSurrogates:
    def test_tie_maps_to_one(self):
        enc = GaussianEncoder(3, rep_dim=2, rng=np.random.default_rng(0))
        head = LinearHead(2)
        head.w.data[:] = 0.0
        labels = predict(head, enc, np.random.default_rng(1).standard_normal((4, 3)))
        assert np.array_equal(labels, np.ones(4, dtype=np.int64))

    def test_prediction_scale_invariant(self):
        rng = np.random.default_rng(2)
        enc = GaussianEncoder(3, rep_dim=4, rng=rng)
        head = LinearHead(4, rng=rng)
        x = rng.standard_normal((50, 3))
        before = predict(head, enc, x)
        head.w.data *= 37.0
        assert np.array_equal(before, predict(head, enc, x))

    def test_sign_of_mean_matches_monte_carlo_majority(self):
        rng = np.random.default_rng(3)
        hits = 0
        trials = 0
        for _ in range(1000):
            w = rng.standard_normal(4)
            mu = rng.standard_normal(4)
            margin = float(w @ mu)
            if abs(margin) < 0.3:
                continue  # ties are noise-dominated, skip
            trials += 1
            draws = mu + 0.1 * rng.standard_normal((400, 4))
            mc_label = 1 if (draws @ w >= 0.0).mean() >= 0.5 else 0
            hits += mc_label == (1 if margin >= 0.0 else 0)
        assert trials > 700
        assert hits == trials

    def test_sufficiency_surrogate_at_zero_margin(self):
        c = np.random.default_rng(0).standard_normal((8, 3))
        neg_ytil = -_ytil(np.array([0, 1] * 4))
        assert abs(surrogate_sf(np.zeros(3), c, neg_ytil)[0] - math.log(2.0)) < 1e-12

    def test_sufficiency_surrogate_saturates_to_indicator(self):
        w = np.ones(1)
        # all correct with margin 15: indicator 0
        c = np.full((10, 1), 15.0)
        assert surrogate_sf(w, c, -_ytil(np.ones(10, dtype=int)))[0] < 1e-6
        # all wrong with margin 15: indicator 1
        wrong = surrogate_sf(w, c, -_ytil(np.zeros(10, dtype=int)))[0]
        assert abs(wrong - 15.0) < 1.0  # grows with margin

    def test_agreement_surrogate_values(self):
        w = np.ones(1)
        same = surrogate_m(w, np.array([[15.0]]), np.array([[15.0]]))[0]
        opposite = surrogate_m(w, np.array([[15.0]]), np.array([[-15.0]]))[0]
        neutral = surrogate_m(w, np.array([[0.0]]), np.array([[0.0]]))[0]
        assert abs(same - 1.0) < 1e-6
        assert opposite < 1e-6
        assert abs(neutral - 0.5) < 1e-12

    def test_agreement_pair_mean_factorizes(self):
        rng = np.random.default_rng(5)
        p = 1.0 / (1.0 + np.exp(-rng.standard_normal(6)))
        q = 1.0 / (1.0 + np.exp(-rng.standard_normal(9)))
        explicit = np.mean([[pi * qj + (1 - pi) * (1 - qj) for qj in q] for pi in p])
        factored = p.mean() * q.mean() + (1 - p.mean()) * (1 - q.mean())
        assert abs(explicit - factored) < 1e-12

    def test_surrogate_gradients(self):
        rng = np.random.default_rng(6)
        enc = GaussianEncoder(3, rep_dim=2, hidden=(4, 4), rng=rng)
        head = LinearHead(2, rng=rng)
        x = rng.standard_normal((6, 3))
        eps = rng.standard_normal((6, 2))
        y = _ytil(rng.integers(0, 2, size=6))
        params = list(enc.parameters().values()) + list(head.parameters().values())

        def loss():
            mean = mean_node(enc, x)
            c = node("draw", posterior(enc, mean), enc.draw(mean.data, eps))
            return add(node("surrogate_sf", [c, head.w], surrogate_sf(head.w.data, c.data, -y)),
                       node("surrogate_m", [c, c, head.w],
                            surrogate_m(head.w.data, c.data, c.data)))

        assert check_gradients(loss, params) < 1e-6

    def test_label_validation(self):
        # the surrogates take labels as -ytil; this is the 0/1 check made
        # before they are built
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            _ytil(np.array([0, 2]))

    def test_mismatched_pairs_are_refused(self):
        with pytest.raises(ValueError, match=r"^surrogate_m: \(3, 2\) vs \(2, 2\)$"):
            surrogate_m(np.ones(2), np.zeros((3, 2)), np.zeros((2, 2)))


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(10)
        enc = GaussianEncoder(5, rep_dim=3, hidden=(6, 4), rng=rng)
        head = LinearHead(3, rng=rng)
        params = {**enc.parameters(), **head.parameters()}
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, meta={"in_dim": "5", "rep_dim": "3"})
        loaded, meta = load_checkpoint(path)
        assert meta == {"in_dim": "5", "rep_dim": "3"}
        assert set(loaded) == set(params)
        for name, tensor in params.items():
            assert loaded[name].tobytes() == tensor.data.tobytes()
            assert loaded[name].shape == tensor.data.shape

    def test_scalar_and_awkward_values(self, tmp_path):
        values = {
            "s": np.float64(-0.0),
            "tiny": np.array([5e-324, 1e308, -1.5]),
            "m": np.arange(12.0).reshape(3, 4) * math.pi,
        }
        path = tmp_path / "vals.ckpt"
        save_checkpoint(path, values)
        loaded, _ = load_checkpoint(path)
        for name, arr in values.items():
            assert loaded[name].tobytes() == np.asarray(arr, dtype=np.float64).tobytes()

    def test_rejects_other_files(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("hello\n")
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_refuses_zero_size_array(self, tmp_path):
        with pytest.raises(ValueError, match="no elements"):
            save_checkpoint(tmp_path / "z.ckpt", {"v": np.zeros(0)})
        assert not (tmp_path / "z.ckpt").exists()

    @pytest.mark.parametrize("params, meta, message", [
        pytest.param({"v": np.array([1.0, np.nan])}, None, "parameter v holds a non-finite",
                     id="nan"),
        pytest.param({"v": np.array(np.inf)}, None, "parameter v holds a non-finite", id="inf"),
        pytest.param({"v": np.array([[1.0], [-np.inf]])}, None,
                     "parameter v holds a non-finite", id="-inf"),
        pytest.param({"a b": np.ones(2)}, None, "parameter name 'a b'", id="name-space"),
        pytest.param({"": np.ones(2)}, None, "parameter name ''", id="name-empty"),
        pytest.param({"a\tb": np.ones(2)}, None, "parameter name 'a\\tb'", id="name-tab"),
        pytest.param({}, {"a b": "1"}, "meta key 'a b'", id="key-space"),
        pytest.param({}, {"": "1"}, "meta key ''", id="key-empty"),
        pytest.param({}, {"k": "x\ny"}, "meta value 'x\\ny' of k", id="value-newline"),
        pytest.param({}, {"k": "x\ty"}, "meta value 'x\\ty' of k", id="value-tab"),
        pytest.param({}, {"k": "x  y"}, "meta value 'x  y' of k", id="value-double-space"),
        pytest.param({}, {"k": " x"}, "meta value ' x' of k", id="value-leading-space"),
        pytest.param({}, {"k": "x "}, "meta value 'x ' of k", id="value-trailing-space"),
    ])
    def test_refuses_entries_the_format_cannot_hold(self, tmp_path, params, meta, message):
        path = tmp_path / "bad.ckpt"
        with pytest.raises(ValueError) as err:
            save_checkpoint(path, params, meta=meta)
        assert str(err.value).startswith(message)
        assert not path.exists()

    @pytest.mark.parametrize("body, where", [
        pytest.param("param m 2 3\n0x1.0p+0 0x1.0p+0\n", ":3: parameter m ends after 2 of 6",
                     id="short-block"),
        pytest.param("param m 2\n0x1.0p+0 zz\n", ":3: bad hex float in parameter m",
                     id="bad-hex"),
        pytest.param("param m\n0x1.0p+0\n", ":2: expected a meta or param line",
                     id="missing-shape"),
        pytest.param("meta\n", ":2: expected a meta or param line", id="missing-meta-key"),
        pytest.param("\n", ":2: expected a meta or param line", id="blank-line"),
        pytest.param("param m 2 x\n", ":2: bad shape for parameter m", id="bad-shape"),
        pytest.param("param m 1\n0x1.0p+0 0x1.0p+0\n", ":3: parameter m has 2 values",
                     id="long-block"),
        pytest.param("param a 1\n0x1.0p+1\nparam a 1\n0x1.0p+2\n", ":4: repeated parameter a",
                     id="repeated-param"),
        pytest.param("meta k v\nmeta k w\n", ":3: repeated meta key k", id="repeated-meta"),
        pytest.param("param m 3\n0x1.0p+0\n0x1.0p+0 nan\n", ":4: non-finite value in parameter m",
                     id="nan"),
        pytest.param("param m 0\ninf\n", ":3: non-finite value in parameter m", id="inf"),
        pytest.param("param m 2\n-inf 0x1.0p+0\n", ":3: non-finite value in parameter m",
                     id="-inf"),
    ])
    def test_malformed_file_names_path_and_line(self, tmp_path, body, where):
        path = tmp_path / "bad.ckpt"
        path.write_text("pnsrisk-checkpoint 1\n" + body)
        with pytest.raises(ValueError) as err:
            load_checkpoint(path)
        assert str(err.value).startswith(f"{path}{where}")


class TestClone:
    def test_perturbed_copy_structure(self):
        rng = np.random.default_rng(11)
        enc = GaussianEncoder(4, rep_dim=3, hidden=(5, 5), rng=rng)
        twin = clone_perturbed(enc, np.random.default_rng(12), scale=0.01)
        src = list(enc.parameters().values())
        dst = list(twin.parameters().values())
        assert len(src) == len(dst)
        for s, d in zip(src, dst):
            assert s.data.shape == d.data.shape
            assert not np.array_equal(s.data, d.data)
            assert np.abs(s.data - d.data).max() < 0.1

    def test_zero_scale_copies_exactly(self):
        enc = GaussianEncoder(4, rep_dim=3, rng=np.random.default_rng(13))
        twin = clone_perturbed(enc, np.random.default_rng(14), scale=0.0)
        for s, d in zip(enc.parameters().values(), twin.parameters().values()):
            assert np.array_equal(s.data, d.data)
