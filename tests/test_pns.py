import numpy as np
import pytest

from pnsrisk.pns import (
    DiscreteScm,
    UndefinedConditionalError,
    analyze,
    check_exogeneity,
    check_monotonicity,
    format_report,
    necessity_ratio,
    pns_exact,
    pns_identified,
    random_identifiable_scm,
    read_scm,
    sufficiency_ratio,
)

ATOL = 1e-12


def bernoulli_cause_scm(mechanism, p_u1=0.5, p_c1=0.5, n_u=2):
    return DiscreteScm(
        c_values=(0, 1),
        u_values=tuple(range(n_u)),
        u_probs=(1.0 - p_u1, p_u1) if n_u == 2 else (1.0,),
        cause_table={0: 1.0 - p_c1, 1: p_c1},
        mechanism=mechanism,
    )


@pytest.fixture
def cat_legs_scm():
    """Cause sometimes fires the outcome on its own: f(1,u)=1, f(0,u)=u."""
    return bernoulli_cause_scm(lambda c, u: 1 if c == 1 else u)


@pytest.fixture
def eye_size_scm():
    """Ternary cause; middle value hands the outcome to the noise."""
    return DiscreteScm(
        c_values=(0, 0.5, 1),
        u_values=(0, 1),
        u_probs=(0.5, 0.5),
        cause_table={0: 1 / 3, 0.5: 1 / 3, 1: 1 / 3},
        mechanism=lambda c, u: 1 if c == 1 else (u if c == 0.5 else 0),
    )


class TestPrimitives:
    def test_deterministic_pns_is_one(self):
        scm = bernoulli_cause_scm(lambda c, u: c)
        assert abs(pns_exact(scm, 1, 0, 1) - 1.0) < ATOL

    def test_xor_mechanism_not_monotone(self):
        scm = bernoulli_cause_scm(lambda c, u: c ^ u)
        assert not check_monotonicity(scm, 1, 0, 1)

    def test_monotone_when_one_direction_empty(self, cat_legs_scm):
        assert check_monotonicity(cat_legs_scm, 1, 0, 1)

    def test_exogeneity_independent_cause(self, cat_legs_scm):
        assert check_exogeneity(cat_legs_scm, 1, 1)
        assert check_exogeneity(cat_legs_scm, 0, 1)

    def test_exogeneity_fails_when_confounded(self):
        scm = DiscreteScm(
            c_values=(0, 1),
            u_values=(0, 1),
            u_probs=(0.5, 0.5),
            cause_table={0: {0: 0.9, 1: 0.1}, 1: {0: 0.1, 1: 0.9}},
            mechanism=lambda c, u: u,
        )
        assert not check_exogeneity(scm, 1, 1)

    def test_zero_probability_conditioning_names_term(self):
        # f(0,u) = 1 always, so (C=0, Y=0) never happens
        scm = bernoulli_cause_scm(lambda c, u: 1)
        with pytest.raises(UndefinedConditionalError, match="sufficiency term"):
            pns_exact(scm, 1, 0, 1)

    def test_query_validation(self, cat_legs_scm):
        with pytest.raises(ValueError):
            pns_exact(cat_legs_scm, 1, 1, 1)
        with pytest.raises(ValueError):
            pns_exact(cat_legs_scm, 2, 0, 1)
        with pytest.raises(ValueError):
            pns_exact(cat_legs_scm, 1, 0, 2)

    def test_probability_tables_validated(self):
        with pytest.raises(ValueError):
            DiscreteScm((0, 1), (0,), (0.9,), {0: 0.5, 1: 0.5}, lambda c, u: c)
        with pytest.raises(ValueError):
            DiscreteScm((0, 1), (0,), (1.0,), {0: 0.7, 1: 0.7}, lambda c, u: c)
        with pytest.raises(ValueError):
            DiscreteScm((0, 1), (0,), (1.0,), {0: 0.5, 1: 0.5}, lambda c, u: 2)


class TestGoldenScenarios:
    def test_cat_legs_quantities(self, cat_legs_scm):
        scm = cat_legs_scm
        assert abs(scm.p_do(1, 1) - 1.0) < ATOL
        assert abs(scm.p_do(0, 0) - 0.5) < ATOL
        assert abs(scm.p_outcome(1) - 0.75) < ATOL
        assert abs(scm.p_joint(1, 1) - 0.5) < ATOL
        assert abs(scm.p_joint(0, 0) - 0.25) < ATOL
        assert abs(scm.p_joint(0, 1) - 0.25) < ATOL

    def test_cat_legs_report(self, cat_legs_scm):
        report = analyze(cat_legs_scm, 1, 0, 1)
        assert abs(report.pn - 0.5) < ATOL
        assert abs(report.ps - 1.0) < ATOL
        assert abs(report.pns - 0.5) < ATOL
        assert abs(report.identified_pns - 0.5) < ATOL
        assert report.monotone and report.exogenous
        assert report.within_unit_range

    def test_pointy_ear_ratios(self):
        # stated measures: do(C=1) gives Y=1 half the time, do(C=0)
        # never fails, P(Y=1)=0.25, joints 0.25 / 0.5
        pn = necessity_ratio(p_y=0.25, p_y_do_cbar=0.0, p_joint_c_y=0.25)
        ps = sufficiency_ratio(p_y_do_c=0.5, p_y=0.25, p_joint_cbar_ybar=0.5)
        assert abs(pn - 1.0) < ATOL
        assert abs(ps - 0.5) < ATOL

    def test_eye_size_quantities(self, eye_size_scm):
        scm = eye_size_scm
        assert abs(scm.p_do(1, 1) - 1.0) < ATOL
        assert abs(scm.p_do(0.5, 1) - 0.5) < ATOL
        assert abs(scm.p_do(0, 1) - 0.0) < ATOL
        assert abs(scm.p_joint(1, 1) - 1 / 3) < ATOL
        assert abs(scm.p_joint(0, 0) - 1 / 3) < ATOL
        assert abs(scm.p_joint(0.5, 0) - 1 / 6) < ATOL
        assert abs(scm.p_joint(0.5, 1) - 1 / 6) < ATOL

    def test_eye_size_extreme_pair(self, eye_size_scm):
        report = analyze(eye_size_scm, 1, 0, 1)
        assert abs(report.pn - 1.5) < ATOL
        assert abs(report.ps - 1.5) < ATOL
        assert abs(report.identified_pns - 1.0) < ATOL
        # ratios escape [0,1]; reported raw, flagged
        assert not report.within_unit_range
        # the two-term exact value only covers the extreme cause cells
        assert abs(report.pns - 2 / 3) < ATOL

    def test_ratio_zero_denominator(self):
        with pytest.raises(UndefinedConditionalError):
            necessity_ratio(0.5, 0.1, 0.0)
        with pytest.raises(UndefinedConditionalError):
            sufficiency_ratio(0.5, 0.1, 0.0)


class TestIdentification:
    def test_random_monotone_exogenous_scms_agree(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            scm = random_identifiable_scm(rng)
            exact = pns_exact(scm, 1, 0, 1)
            ident = pns_identified(scm, 1, 0, 1)
            assert check_monotonicity(scm, 1, 0, 1)
            assert check_exogeneity(scm, 1, 1) and check_exogeneity(scm, 0, 1)
            assert abs(exact - ident) <= ATOL

    def test_analyze_raises_when_identification_breaks(self, cat_legs_scm, monkeypatch):
        import pnsrisk.pns as pns

        monkeypatch.setattr(pns, "pns_identified", lambda *args: 0.75)
        with pytest.raises(RuntimeError, match="disagree on an identifiable model"):
            analyze(cat_legs_scm, 1, 0, 1)

    def test_identified_can_disagree_without_monotonicity(self):
        scm = bernoulli_cause_scm(lambda c, u: c ^ u, p_u1=0.15)
        exact = pns_exact(scm, 1, 0, 1)
        ident = pns_identified(scm, 1, 0, 1)
        assert abs(exact - 0.85) < ATOL
        assert abs(ident - 0.7) < ATOL


class TestScmFile:
    def test_round_trip_through_text_table(self, tmp_path, cat_legs_scm):
        path = tmp_path / "model.scm"
        path.write_text(
            "# four legs example\n"
            "c_values 0 1\n"
            "u_values 0 1\n"
            "u_probs 0.5 0.5\n"
            "c_probs 0.5 0.5\n"
            "y 0 0 0\n"
            "y 0 1 1\n"
            "y 1 0 1\n"
            "y 1 1 1\n"
        )
        scm = read_scm(path)
        report = analyze(scm, 1.0, 0.0, 1)
        want = analyze(cat_legs_scm, 1, 0, 1)
        assert abs(report.pns - want.pns) < ATOL
        assert abs(report.pn - want.pn) < ATOL

    def test_conditional_cause_rows(self, tmp_path):
        path = tmp_path / "confounded.scm"
        path.write_text(
            "c_values 0 1\n"
            "u_values 0 1\n"
            "u_probs 0.5 0.5\n"
            "c_probs_given_u 0 0.9 0.1\n"
            "c_probs_given_u 1 0.1 0.9\n"
            "y 0 0 0\n"
            "y 0 1 1\n"
            "y 1 0 0\n"
            "y 1 1 1\n"
        )
        scm = read_scm(path)
        assert not check_exogeneity(scm, 1.0, 1)

    def test_partial_mechanism_rejected(self, tmp_path):
        path = tmp_path / "partial.scm"
        path.write_text(
            "c_values 0 1\nu_values 0\nu_probs 1.0\nc_probs 0.5 0.5\ny 0 0 0\n"
        )
        with pytest.raises(ValueError, match="not total"):
            read_scm(path)

    def test_unknown_directive_has_line_number(self, tmp_path):
        path = tmp_path / "bad.scm"
        path.write_text("c_values 0 1\nwat 1 2\n")
        with pytest.raises(ValueError, match=":2:"):
            read_scm(path)

    @pytest.mark.parametrize("edit, lineno, message", [
        # a confounded table missing the row for u = 1
        (("c_probs 0.5 0.5", "c_probs_given_u 0 0.5 0.5"), 2,
         "no c_probs_given_u line for u = 1.0"),
        (("c_probs 0.5 0.5", "c_probs 1.0"), 4, "1 probabilities for 2 values"),
        (("u_probs 0.5 0.5", "u_probs 0.5 nan"), 3, "u_probs sum to nan, not 1"),
        (("c_probs 0.5 0.5", "c_probs 0.5 nan"), 4, "c_probs sum to nan, not 1"),
        (("u_probs 0.5 0.5", "u_probs 1.5 -0.5"), 3, "negative probability in u_probs"),
        (("y 1 1 1", "y 1 1 2"), 8, "label 2 outside {0, 1}"),
        (("y 1 1 1", "y 1 1 1\ny 2 0 1"), 9, "y 2.0 0.0 is outside c_values x u_values"),
        (("y 1 1 1", "y 1 1 1\ny 1 1 0"), 9, "y repeats line 8"),
        (("y 1 1 1", "y 1 1"), 8, "unknown directive or wrong arity: 'y 1 1'"),
        (("c_values 0 1", "c_values 0 0"), 1, "duplicate entries in c_values"),
        (("c_probs 0.5 0.5", "c_probs 0.5 0.5\nc_probs_given_u 0 0.5 0.5"), 5,
         "c_probs and c_probs_given_u cannot be mixed"),
        (("c_probs 0.5 0.5", "c_probs_given_u 0 0.5 0.5\nc_probs_given_u 1 0.5 0.5\n"
          "c_probs_given_u 2 0.5 0.5"), 6, "u = 2.0 is not in u_values"),
    ])
    def test_malformed_table_names_file_and_line(self, tmp_path, edit, lineno, message):
        good = ("c_values 0 1\nu_values 0 1\nu_probs 0.5 0.5\nc_probs 0.5 0.5\n"
                "y 0 0 0\ny 0 1 1\ny 1 0 1\ny 1 1 1\n")
        assert good.count(edit[0]) == 1
        path = tmp_path / "bad.scm"
        path.write_text(good.replace(*edit))
        with pytest.raises(ValueError) as info:
            read_scm(path)
        assert type(info.value) is ValueError
        assert str(info.value).startswith(f"{path}:{lineno}: {message}")

    @pytest.mark.parametrize("table, message", [
        ({0: 0.5}, r"lacks P\(C=c\|U=0\)"),
        ({0: {0: 1.0, 1: 0.0}}, r"lacks P\(C=c\|U=1\)"),
        ({0: {0: 1.0, 1: 0.0}, 1: {0: float("nan"), 1: 1.0}},
         "cause probabilities for u=1 sum to nan"),
    ])
    def test_constructor_refuses_incomplete_cause_table(self, table, message):
        with pytest.raises(ValueError, match=message) as info:
            DiscreteScm((0, 1), (0, 1), (0.5, 0.5), table, lambda c, u: c)
        assert type(info.value) is ValueError

    def test_report_formatting(self, cat_legs_scm):
        text = format_report(analyze(cat_legs_scm, 1, 0, 1))
        assert "pns = 0.5" in text
        assert "monotone = true" in text
        assert "within_unit_range = true" in text
