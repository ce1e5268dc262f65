import math
import tracemalloc

import numpy as np
import pytest

from pnsrisk.pns import check_exogeneity, check_monotonicity, pns_identified
from pnsrisk.streams import ROLE_SYNTH, keyed
from pnsrisk.synth import (
    SynthConfig,
    factor_table,
    feature_scm,
    generate,
    label_scm,
    read_csv,
    write_csv,
)


@pytest.fixture(scope="module")
def big_sample():
    return generate(SynthConfig(seed=11), 20000)


class TestGenerator:
    @pytest.mark.parametrize("field, value", [
        ("d", 0), ("s", 1.5), ("s", float("nan")), ("mixer", "kinky"),
        ("noise_scale", -0.1), ("noise_scale", float("nan")), ("noise_scale", float("inf")),
        ("n_train", 0), ("n_eval", -3), ("n_eval", 1), ("seed", -1), ("seed", 2**64 - 1),
    ])
    def test_config_validation(self, field, value):
        with pytest.raises(ValueError, match=field):
            SynthConfig(**{field: value})

    def test_largest_seed_leaves_room_for_the_evaluation_split(self):
        cfg = SynthConfig(seed=2**64 - 2)
        assert len(generate(cfg, 2, seed=cfg.seed + 1)) == 2

    def test_shapes(self):
        data = generate(SynthConfig(d=3, seed=0), 17)
        assert data.x.shape == (17, 12)
        assert data.sp.shape == (17, 3)
        assert data.y.shape == (17,)

    def test_label_noise_rate(self, big_sample):
        rate = (big_sample.y != big_sample.sn).mean()
        assert abs(rate - 0.15) <= 0.01

    def test_sufficient_feature_conditionals(self, big_sample):
        sn0 = big_sample.sn == 0
        assert (big_sample.sf[~sn0] == 1).all()
        assert abs(big_sample.sf[sn0].mean() - 0.1) <= 0.01

    def test_necessary_feature_conditionals(self, big_sample):
        assert (big_sample.nc <= big_sample.sn).all()
        sn1 = big_sample.sn == 1
        assert abs(big_sample.nc[sn1].mean() - 0.9) <= 0.01

    def test_spurious_block_at_s_zero(self):
        data = generate(SynthConfig(s=0.0, seed=3), 20000)
        assert abs(data.sp.mean()) < 0.02
        assert abs(data.sp.std() - 1.0) < 0.02

    def test_spurious_block_clones_cause_at_s_one(self):
        data = generate(SynthConfig(s=1.0, noise_scale=0.0, seed=4), 200)
        assert np.array_equal(data.sp, np.repeat(data.sn[:, None], 5, axis=1))
        # with jitter off, the x blocks are deterministic in the factors
        sn_block = data.x[:, :5]
        want = 1.0 / (1.0 + np.exp(-np.where(data.sn == 1, 0.25, 0.0)))
        assert np.allclose(sn_block, np.repeat(want[:, None], 5, axis=1), atol=1e-12)

    def test_x_strictly_inside_unit_interval(self, big_sample):
        assert big_sample.x.min() > 0.0
        assert big_sample.x.max() < 1.0

    def test_mixers_differ_and_k1k2_stays_below_half(self):
        cfg = SynthConfig(seed=5)
        a = generate(cfg, 50)
        b = generate(SynthConfig(seed=5, mixer="k1k2"), 50)
        assert not np.allclose(a.x, b.x)
        assert (b.x <= 0.5 + 1e-12).all()
        # same factor draws either way: the mixer only reshapes x
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.sp, b.sp)

    def test_bitwise_deterministic(self):
        cfg = SynthConfig(seed=6)
        a = generate(cfg, 64)
        b = generate(cfg, 64)
        assert a.x.tobytes() == b.x.tobytes()
        assert a.sp.tobytes() == b.sp.tobytes()

    def test_prefix_stability(self):
        # sample i depends only on (seed, i), not on n
        cfg = SynthConfig(seed=7)
        small = generate(cfg, 10)
        large = generate(cfg, 25)
        assert np.array_equal(small.x, large.x[:10])
        assert np.array_equal(small.y, large.y[:10])

    @pytest.mark.parametrize("mixer", ["as_written", "k1k2"])
    def test_rows_follow_the_documented_draw_order(self, mixer):
        # row by row from the row's own Generator: four coins, then
        # (radius, angle) pairs through Box-Muller
        cfg = SynthConfig(d=3, s=0.3, seed=13, mixer=mixer)
        data = generate(cfg, 600)
        for i in (0, 1, 511, 512, 599):
            u = keyed(cfg.seed, ROLE_SYNTH, i).random(4 + 2 * 8)
            sn, noise, flip, keep = (int(v < p) for v, p in zip(
                u[:4], (0.5, cfg.label_noise, cfg.sf_flip, cfg.nc_keep)))
            normals = []
            for radius_u, angle_u in zip(u[4::2], u[5::2]):
                radius = math.sqrt(-2.0 * math.log(1.0 - radius_u))
                normals += [radius * math.cos(2.0 * math.pi * angle_u),
                            radius * math.sin(2.0 * math.pi * angle_u)]
            sp = [cfg.s * sn + (1.0 - cfg.s) * e for e in normals[:3]]
            sf, nc = max(sn, flip), sn * keep
            t = [v + cfg.noise_scale * e
                 for v, e in zip([sn] * 3 + [sf] * 3 + [nc] * 3 + sp, normals[3:15])]
            k1 = [v - 0.5 if v > 0.0 else 0.0 for v in t]
            k2 = k1 if mixer == "as_written" else [v + 0.5 if v < 0.0 else 0.0 for v in t]
            x = [1.0 / (1.0 + math.exp(-a * b)) for a, b in zip(k1, k2)]
            assert (data.y[i], data.sn[i], data.sf[i], data.nc[i]) == (sn ^ noise, sn, sf, nc)
            assert np.allclose(data.sp[i], sp, rtol=0.0, atol=1e-13)
            assert np.allclose(data.x[i], x, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("k", [1, 511, 512, 513])
    def test_prefix_stability_across_a_block_boundary(self, k):
        # rows are drawn 512 at a time; a block edge changes no row
        cfg = SynthConfig(d=3, seed=12)
        small, large = generate(cfg, k), generate(cfg, 1500)
        for name in ("x", "y", "sn", "sf", "nc", "sp"):
            assert getattr(small, name).tobytes() == getattr(large, name)[:k].tobytes(), name

    def test_zero_rows(self):
        data = generate(SynthConfig(d=3, seed=0), 0)
        assert data.x.shape == (0, 12) and data.sp.shape == (0, 3)
        for name in ("y", "sn", "sf", "nc"):
            column = getattr(data, name)
            assert column.shape == (0,) and column.dtype == np.int64
        assert len(data) == 0

    def test_working_set_stays_small(self):
        # blocked draws: the peak above the result is one block's
        # temporaries, not a per-row copy of the whole draw
        tracemalloc.start()
        try:
            data = generate(SynthConfig(d=5), 6000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = sum(getattr(data, name).nbytes for name in ("x", "y", "sn", "sf", "nc", "sp"))
        assert peak - size <= 1_000_000, (peak, size)

    def test_factor_table(self, big_sample):
        table = factor_table(big_sample)
        assert table.shape == (20000, 4)
        assert np.array_equal(table[:, 0], big_sample.sn.astype(float))
        assert np.allclose(table[:, 3], big_sample.sp.mean(axis=1))


class TestCsv:
    def test_round_trip(self, tmp_path):
        data = generate(SynthConfig(d=2, seed=8), 40)
        path = tmp_path / "data.csv"
        write_csv(path, data)
        back = read_csv(path)
        assert np.array_equal(back.x, data.x)
        assert np.array_equal(back.y, data.y)
        assert np.array_equal(back.sp, data.sp)

    def test_header_layout(self, tmp_path):
        data = generate(SynthConfig(d=2, seed=9), 3)
        path = tmp_path / "data.csv"
        write_csv(path, data)
        header = path.read_text().splitlines()[0]
        assert header == (
            "x_0,x_1,x_2,x_3,x_4,x_5,x_6,x_7,y,sn,sf,nc,sp_0,sp_1"
        )

    def test_byte_identical_across_runs(self, tmp_path):
        cfg = SynthConfig(d=2, seed=10)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(p1, generate(cfg, 25))
        write_csv(p2, generate(cfg, 25))
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_foreign_csv(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_csv(path)

    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda lines: lines[:1], ": no data rows", id="header-only"),
        pytest.param(lambda lines: lines[:2] + [lines[2] + ",0.5"] + lines[3:],
                     ":3: expected 14 cells, got 15", id="ragged"),
        pytest.param(lambda lines: lines[:3] + ["x" + lines[3]] + lines[4:],
                     ":4: could not convert string to float", id="non-numeric"),
        pytest.param(lambda lines: lines[:2] + [_set_cell(lines[2], 8, "1.5")] + lines[3:],
                     ":3: y = 1.5 must be 0 or 1", id="fractional-label"),
        pytest.param(lambda lines: lines[:4] + [_set_cell(lines[4], 11, "-1")] + lines[5:],
                     ":5: nc = -1.0 must be 0 or 1", id="negative-label"),
        pytest.param(lambda lines: lines[:3] + [_set_cell(lines[3], 0, "nan")] + lines[4:],
                     ":4: x_0 = nan is not finite", id="nan-cell"),
        pytest.param(lambda lines: lines[:5] + [_set_cell(lines[5], 13, "-inf")],
                     ":6: sp_1 = -inf is not finite", id="infinite-cell"),
        pytest.param(lambda lines: lines[:2] + [_set_cell(lines[2], 9, "nan")] + lines[3:],
                     ":3: sn = nan is not finite", id="nan-label"),
        pytest.param(lambda lines: [_set_cell(_set_cell(lines[0], 9, "nc"), 11, "sn")]
                     + lines[1:], ":1: not a benchmark csv header", id="swapped-names"),
        pytest.param(lambda lines: [lines[0] + ",junk"] + [line + ",0" for line in lines[1:]],
                     ":1: not a benchmark csv header", id="extra-column"),
    ])
    def test_malformed_rows_name_file_and_line(self, tmp_path, edit, message):
        path = tmp_path / "data.csv"
        write_csv(path, generate(SynthConfig(d=2, seed=8), 5))
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        with pytest.raises(ValueError) as err:
            read_csv(path)
        assert str(err.value).startswith(f"{path}{message}")


def _set_cell(line, index, text):
    cells = line.split(",")
    cells[index] = text
    return ",".join(cells)


class TestInducedModels:
    def test_label_model_quantities(self):
        scm = label_scm(SynthConfig())
        assert abs(scm.p_outcome(1) - 0.5) < 1e-12
        assert abs(scm.p_do(1, 1) - 0.85) < 1e-12
        assert abs(pns_identified(scm, 1, 0, 1) - 0.7) < 1e-12
        assert check_exogeneity(scm, 1, 1)
        # the label mechanism is xor-with-noise, so not monotone
        assert not check_monotonicity(scm, 1, 0, 1)

    def test_cause_has_highest_identified_pns(self):
        cfg = SynthConfig()
        pns_sn = pns_identified(label_scm(cfg), 1, 0, 1)
        pns_sf = pns_identified(feature_scm(cfg, "sf"), 1, 0, 1)
        pns_nc = pns_identified(feature_scm(cfg, "nc"), 1, 0, 1)
        assert abs(pns_sn - 0.7) < 1e-12
        assert abs(pns_sf - 7.0 / 11.0) < 1e-12
        assert abs(pns_nc - 7.0 / 11.0) < 1e-12
        assert pns_sn > pns_sf and pns_sn > pns_nc

    def test_feature_models_are_confounded(self):
        cfg = SynthConfig()
        assert not check_exogeneity(feature_scm(cfg, "sf"), 1, 1)
        assert not check_exogeneity(feature_scm(cfg, "nc"), 1, 1)

    def test_feature_scm_probabilities_total(self):
        scm = feature_scm(SynthConfig(), "sf")
        assert abs(sum(scm.u_probs) - 1.0) < 1e-12
        assert abs(scm.p_cause(1) - 0.55) < 1e-12
        assert abs(scm.p_cause(0) - 0.45) < 1e-12
