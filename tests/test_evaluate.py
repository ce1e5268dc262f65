import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from reference_ops import distance_correlation as reference_dcor

from pnsrisk.evaluate import distance_correlation, evaluate, group_accuracy
from pnsrisk.model import GaussianEncoder, LinearHead
from pnsrisk.synth import SynthConfig, factor_table, generate


class BlockEncoder:
    """Mean representation = a fixed slice of x, less a threshold; no
    noise to speak of.  Counts its calls."""

    def __init__(self, lo, hi, threshold=0.0):
        self.lo, self.hi, self.threshold = lo, hi, threshold
        self.calls = 0

    def encode_np(self, x):
        self.calls += 1
        mean = np.asarray(x, dtype=float)[:, self.lo : self.hi] - self.threshold
        return mean, np.full(mean.shape, 1e-18)


PROPERTY = settings(max_examples=200, deadline=None)
# entries that stay normal floats under any scale 2**k, |k| <= 1000
ENTRIES = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))

# midway between the two levels of the sn-derived block of x
SN_MIDPOINT = 0.5 * (0.5 + 1.0 / (1.0 + np.exp(-0.25)))


class TestDistanceCorrelation:
    def test_self_is_one(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((40, 3))
        assert abs(distance_correlation(a, a) - 1.0) < 1e-9

    def test_affine_image_is_one(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal(60)
        assert abs(distance_correlation(a, 3.0 * a + 7.0) - 1.0) < 1e-9

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((30, 2))
        b = rng.standard_normal((30, 4))
        assert distance_correlation(a, b) == distance_correlation(b, a)

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((25, 3))
        b = rng.standard_normal((25, 2))
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        moved = a @ q.T + rng.standard_normal(3)
        assert abs(distance_correlation(a, b) - distance_correlation(moved, b)) < 1e-9

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((25, 2))
        b = rng.standard_normal(25)
        assert abs(distance_correlation(a, b) - distance_correlation(0.01 * a, b)) < 1e-9

    def test_constant_argument_gives_zero(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((10, 2))
        assert distance_correlation(a, np.ones(10)) == 0.0
        assert distance_correlation(np.zeros((10, 3)), a) == 0.0
        assert distance_correlation(np.empty((10, 0)), a) == 0.0

    def test_independent_columns_stay_small(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal(500)
        b = rng.standard_normal(500)
        assert distance_correlation(a, b) <= 0.15

    def test_detects_nonlinear_dependence(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal(300)
        assert distance_correlation(a, a * a) > 0.4

    def test_unit_interval_over_many_trials(self):
        rng = np.random.default_rng(8)
        for _ in range(10000):
            n = int(rng.integers(2, 9))
            a = rng.standard_normal((n, int(rng.integers(1, 4))))
            b = rng.standard_normal((n, int(rng.integers(1, 4))))
            v = distance_correlation(a, b)
            assert 0.0 <= v <= 1.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            distance_correlation(np.ones(3), np.ones(4))
        with pytest.raises(ValueError):
            distance_correlation(np.ones(1), np.ones(1))
        with pytest.raises(ValueError):
            distance_correlation(np.ones((2, 2, 2)), np.ones(2))


class TestEvaluate:
    def test_plant_and_recover_cause_block(self):
        cfg = SynthConfig(noise_scale=0.0, seed=20)
        data = generate(cfg, 400)
        enc = BlockEncoder(0, 5, SN_MIDPOINT)  # the sn-derived block of x
        head = LinearHead(5)
        head.w.data[:] = 1.0
        report = evaluate(data, enc, head)
        assert report.dcor_sn >= 0.95
        assert report.dcor_sp < report.dcor_sn
        assert report.n == 400

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_each_dcor_is_distance_correlation_of_its_factor(self, seed):
        # the reps are centered once for all four factors, with the same
        # bytes as one distance_correlation per factor; nc held at one
        # level is a constant column, whose dcor is 0
        data = generate(SynthConfig(seed=seed), 150 + 50 * seed)
        if seed == 2:
            data = replace(data, nc=np.ones_like(data.nc))
        enc = GaussianEncoder(data.x.shape[1], rep_dim=6, hidden=(8,),
                              rng=np.random.default_rng(seed))
        report = evaluate(data, enc, LinearHead(6, rng=np.random.default_rng(seed)))
        reps, _ = enc.encode_np(data.x)
        want = [distance_correlation(reps, column) for column in factor_table(data).T]
        assert [report.dcor_sn, report.dcor_sf, report.dcor_nc, report.dcor_sp] == want
        if seed == 2:
            assert report.dcor_nc == 0.0

    def test_one_row_is_refused(self):
        data = generate(SynthConfig(seed=3), 1)
        with pytest.raises(ValueError, match="^need at least two observations$"):
            evaluate(data, BlockEncoder(0, 5), LinearHead(5))

    def test_one_encode_serves_the_reps_and_the_labels(self):
        data = generate(SynthConfig(seed=23), 300)
        enc = BlockEncoder(0, 5, SN_MIDPOINT)
        head = LinearHead(5, rng=np.random.default_rng(4))
        report = evaluate(data, enc, head)
        assert enc.calls == 1
        labels = head.logits_np(enc.encode_np(data.x)[0]) >= 0.0
        assert report.accuracy == float((labels == data.y).mean())

    def test_bayes_rule_accuracy(self):
        cfg = SynthConfig(noise_scale=0.0, seed=21)
        data = generate(cfg, 20000)
        enc = BlockEncoder(0, 5, SN_MIDPOINT)
        head = LinearHead(5)
        head.w.data[:] = 1.0
        labels = head.logits_np(enc.encode_np(data.x)[0]) >= 0.0
        assert np.array_equal(labels, data.sn)  # the head reads sn exactly
        # predicting sn is the Bayes rule; its hit rate is 1 - label noise
        accuracy = float((labels == data.y).mean())
        assert abs(accuracy - 0.85) <= 0.01

    def test_spurious_block_dominates_when_cloned(self):
        cfg = SynthConfig(s=1.0, seed=22)
        data = generate(cfg, 400)
        enc = BlockEncoder(15, 20)  # the sp block, which now clones sn
        head = LinearHead(5)
        report = evaluate(data, enc, head)
        assert report.dcor_sp > 0.5
        assert report.dcor_sn > 0.5  # sp == sn at s=1, so both light up


class TestOverflow:
    """Each argument is scaled by a power of two before any product is
    formed, so finite inputs far past the square root of the float range
    give their values with no numpy warning; a nan or inf is refused,
    naming the argument."""

    def test_evaluate_names_the_representation(self):
        data = generate(SynthConfig(seed=3), 64)
        enc = GaussianEncoder(data.x.shape[1], rep_dim=4, hidden=(8, 6),
                              rng=np.random.default_rng(3))
        enc.weights[0].data *= 1e200  # representations around 3e199
        nan_row = replace(data, x=np.where(np.arange(64)[:, None] == 5, np.nan, data.x))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = evaluate(data, enc, LinearHead(4))
            with pytest.raises(ValueError, match="^representation holds a non-finite value$"):
                evaluate(nan_row, BlockEncoder(0, 4), LinearHead(4))
        dcor = (report.dcor_sn, report.dcor_sf, report.dcor_nc, report.dcor_sp)
        assert dcor == (
            0.3428554493937836, 0.30047637435108715, 0.35904298732794254, 0.23135389849387264)
        reps, _ = enc.encode_np(data.x)
        for value, column in zip(dcor, factor_table(data).T):
            assert abs(value - reference_dcor(reps, column)) < 1e-13
        assert report.accuracy == 0.53125

    @pytest.mark.parametrize("side", ["a", "b"])
    def test_distance_correlation_names_its_argument(self, side):
        rng = np.random.default_rng(5)
        small = rng.standard_normal((20, 3))
        big = small * 1e160
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert distance_correlation(*((big, small) if side == "a" else (small, big))) == 1.0
            for bad in (np.nan, np.inf, -np.inf):
                broken = small.copy()
                broken[7, 1] = bad
                a, b = (broken, small) if side == "a" else (small, broken)
                with pytest.raises(ValueError, match=f"^{side} holds a non-finite value$"):
                    distance_correlation(a, b)

    def test_overflowing_dvar_names_its_argument(self):
        # unscaled, the mean of 64^2 squared centered distances overflows at 1e153
        x = np.random.default_rng(0).standard_normal((64, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert distance_correlation(x * 1e152, x[:, 0]) > 0.5
            assert distance_correlation(x * 1e153, x[:, 0]) == 0.8224394217993376
        assert abs(0.8224394217993376 - reference_dcor(x * 1e153, x[:, 0])) < 1e-13

    def test_overflowing_dvar_product_names_both_arguments(self):
        # unscaled, each dVar^2 is finite at 1e80 and their product is not
        x = np.random.default_rng(0).standard_normal((50, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert distance_correlation(x * 1e77, x * 1e77) == pytest.approx(1.0)
            assert distance_correlation(x * 1e80, x * 1e80) == 1.0

    def test_largest_admitted_norm_is_admitted(self):
        # squared row norms up to a quarter of the float range pass
        a = np.array([[0.0], [np.sqrt(np.finfo(np.float64).max / 4)]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert abs(distance_correlation(a, [0.0, 1.0]) - 1.0) < 1e-12

    def test_tiny_inputs_give_the_unscaled_value(self):
        # unscaled, products of entries this small go subnormal or to zero
        x = np.random.default_rng(0).standard_normal((64, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert abs(distance_correlation(x * 1e-100, x * 1e-100) - 1.0) < 1e-12
            assert abs(distance_correlation(x * 1e-170, x * 1e-170) - 1.0) < 1e-12
            # a decimal scale, like a one-ulp change, rounds every entry
            unscaled = distance_correlation(x, x[:, 0])
            rng = np.random.default_rng(1)
            moved = [x * s for s in (3.0, 0.1, 1e-160)] + [
                np.nextafter(x, np.where(rng.random(x.shape) < 0.5, -np.inf, np.inf))
                for _ in range(5)]
            for y in moved:
                assert abs(distance_correlation(y, x[:, 0]) - unscaled) < 1e-14

    @PROPERTY
    @given(data=st.data(), k=st.integers(-1000, 1000))
    def test_power_of_two_scale_changes_no_byte(self, data, k):
        n = data.draw(st.integers(2, 12))
        a, b = (data.draw(arrays(np.float64, (n, data.draw(st.integers(1, 3))), elements=ENTRIES))
                for _ in range(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = distance_correlation(a, b)
            assert distance_correlation(np.ldexp(a, k), b) == value
            assert distance_correlation(a, np.ldexp(b, k)) == value
        assert 0.0 <= value <= 1.0


def near_reference(value, a, b):
    """value is within 1e-12 of the double-centered reference, and where
    the two sum to under 1, within 1e-12 in the square: the square root's
    slope is steep near 0 (see the exactly independent pair below)."""
    want = reference_dcor(a, b)
    return abs(value - want) * min(value + want, 1.0) <= 1e-12


class TestReference:
    """The row-mean form, and its two-valued route, against the
    double-centered form in reference_ops."""

    @PROPERTY
    @given(data=st.data(), k=st.integers(-1000, 1000), j=st.integers(-1000, 1000))
    def test_integer_samples(self, data, k, j):
        # the matrix product gives integer rows their exact squared
        # distances; integers also give ties, two-valued and constant columns
        n = data.draw(st.integers(2, 80))
        a, b = (data.draw(arrays(np.float64, (n, data.draw(st.integers(1, 5))),
                                 elements=st.integers(-20, 20).map(float)))
                for _ in range(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = distance_correlation(np.ldexp(a, k), np.ldexp(b, j))
        assert near_reference(value, a, b)

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 80), p=st.integers(1, 5),
           q=st.integers(1, 5), k=st.integers(-1000, 1000))
    def test_normal_samples(self, seed, n, p, q, k):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, p))
        b = a[:, :1] ** 2 + rng.standard_normal((n, q))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = distance_correlation(np.ldexp(a, k), b)
        assert near_reference(value, a, b)

    def test_an_exactly_independent_pair_reads_near_zero(self):
        # the sample's joint law is the product of its marginals, so dCov^2
        # is 0; each form reads the rounding of its own sums, about 1e-16,
        # and the square root lifts that to about 1e-8
        a = np.repeat([0.0, 1.0, 2.0], 5)
        b = np.tile([0.0, 1.0, 5.0, 2.0, 7.0], 3)
        assert distance_correlation(a, b) < 1e-7
        assert reference_dcor(a, b) < 1e-7

    @pytest.mark.parametrize("levels", [(0.0, 1.0), (-3.0, 7.5)])
    @pytest.mark.parametrize("side", ["a", "b", "both"])
    def test_two_valued_columns(self, levels, side):
        rng = np.random.default_rng(9)
        wide = rng.standard_normal((120, 3))
        column = np.where(wide[:, 0] + rng.standard_normal(120) > 0.5, levels[1], levels[0])
        other = {"a": wide, "b": wide[:, 1], "both": (wide[:, 0] > 0).astype(float)}[side]
        value = distance_correlation(column, other)
        assert distance_correlation(other, column) == value
        assert 0.05 < value < 1.0
        assert abs(value - reference_dcor(column, other)) <= 1e-12

    @pytest.mark.parametrize("constant", [
        np.full(30, 0.3), np.full((30, 1), -7.0), np.full((30, 3), 0.3), np.zeros((30, 2))])
    def test_constant_arguments_give_exactly_zero(self, constant):
        rng = np.random.default_rng(10)
        for other in (rng.standard_normal((30, 2)), rng.standard_normal(30),
                      rng.integers(0, 2, 30), constant):
            assert distance_correlation(constant, other) == 0.0
            assert distance_correlation(other, constant) == 0.0
            assert reference_dcor(constant, other) == 0.0

    @pytest.mark.parametrize("seed", [0, 1])
    def test_synth_data_at_the_acceptance_size(self, seed):
        data = generate(SynthConfig(seed=seed), 500)
        enc = GaussianEncoder(data.x.shape[1], rep_dim=16, hidden=(64, 32),
                              rng=np.random.default_rng(seed))
        report = evaluate(data, enc, LinearHead(16, rng=np.random.default_rng(seed)))
        reps, _ = enc.encode_np(data.x)
        dcor = (report.dcor_sn, report.dcor_sf, report.dcor_nc, report.dcor_sp)
        for value, column in zip(dcor, factor_table(data).T):
            assert abs(value - reference_dcor(reps, column)) <= 1e-12
            assert abs(distance_correlation(data.x, column)
                       - reference_dcor(data.x, column)) <= 1e-12


class TestGroupAccuracy:
    def test_per_group_values(self):
        y = np.array([1, 1, 0, 0, 1])
        pred = np.array([1, 0, 0, 1, 1])
        groups = np.array([0, 0, 1, 1, 1])
        acc = group_accuracy(y, pred, groups)
        assert acc[0] == 0.5
        assert acc[1] == pytest.approx(2.0 / 3.0)

    def test_expected_group_missing(self):
        y = np.zeros(3)
        with pytest.raises(ValueError, match="never observed"):
            group_accuracy(y, y, np.array([0, 0, 0]), expected=(0, 1))

    def test_alignment_checked(self):
        with pytest.raises(ValueError):
            group_accuracy(np.zeros(3), np.zeros(3), np.zeros(4))
