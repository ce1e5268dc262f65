import math
from fractions import Fraction

import numpy as np
import pytest
from reference_ops import p_do, p_outcome

from pnsrisk.pns import (
    DiscreteScm,
    PnsReport,
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

    @pytest.mark.parametrize("c, y, message", [
        (7, 1, "cause value 7 must come from (0, 1)"),
        (1, 2, "y must be 0 or 1, got 2"),
    ])
    def test_exogeneity_refuses_a_bad_query(self, cat_legs_scm, c, y, message):
        # refused as check_monotonicity and pns_exact refuse them
        with pytest.raises(ValueError) as info:
            check_exogeneity(cat_legs_scm, c, y)
        assert type(info.value) is ValueError and str(info.value) == message

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

    @pytest.mark.parametrize("c_values, u_values, u_probs, message", [
        ((0, 0), (0,), (1.0,), "duplicate entries in c_values or u_values"),
        ((0, 1), (0, 0), (0.5, 0.5), "duplicate entries in c_values or u_values"),
        ((0, 1), (0, 1), (1.0,), "u_probs must align with u_values"),
    ])
    def test_constructor_refuses_duplicates_and_misaligned_u_probs(self, c_values, u_values,
                                                                    u_probs, message):
        with pytest.raises(ValueError) as info:
            DiscreteScm(c_values, u_values, u_probs, {0: 0.5, 1: 0.5}, lambda c, u: 0)
        assert str(info.value) == message

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
        assert abs(p_do(scm, 1, 1) - 1.0) < ATOL
        assert abs(p_do(scm, 0, 0) - 0.5) < ATOL
        assert abs(p_outcome(scm, 1) - 0.75) < ATOL
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
        assert abs(p_do(scm, 1, 1) - 1.0) < ATOL
        assert abs(p_do(scm, 0.5, 1) - 0.5) < ATOL
        assert abs(p_do(scm, 0, 1) - 0.0) < ATOL
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

        walk = pns._walk

        def cause_table_off(*args):
            # P(C=c|u) = P(C=cbar|u) = 0.75 is no distribution: the cause
            # stays exogenous and the mechanism monotone, but the exact PNS
            # grows by 1.5 while the identified difference does not
            return [(pu, hit_c, hit_b, 0.75, 0.75) for pu, hit_c, hit_b, _, _ in walk(*args)]

        monkeypatch.setattr(pns, "_walk", cause_table_off)
        with pytest.raises(RuntimeError, match="disagree on an identifiable model"):
            analyze(cat_legs_scm, 1, 0, 1)

    def test_monotone_the_other_way_is_reported(self):
        # no u has f(0,u) = 1 != f(1,u): monotone, but toward (cbar, y), so
        # the observational difference is minus the mirror mass, not PNS
        scm = DiscreteScm(c_values=(0, 1), u_values=(0, 1, 2), u_probs=(0.3, 0.3, 0.4),
                          cause_table={0: 0.5, 1: 0.5},
                          mechanism=lambda c, u: ((0, 0, 1), (0, 1, 1))[c][u])
        report = analyze(scm, 0, 1, 1)
        assert report == report_from_primitives(scm, 0, 1, 1)
        assert report.monotone and report.exogenous
        assert report.pns == 0.0 and abs(report.identified_pns + 0.3) <= ATOL

    def test_reversed_queries_on_identifiable_models_do_not_raise(self):
        # random_identifiable_scm is monotone toward (1, 0, 1); the reversed
        # query (0, 1, 1) is refused only when P(C=1, Y=0) is zero, and its
        # exact and identified PNS differ wherever some u has f(1,u) = 1 != f(0,u)
        rng = np.random.default_rng(0)
        reports = []
        for _ in range(5000):
            scm = random_identifiable_scm(rng)
            try:
                reports.append(analyze(scm, 0, 1, 1))
            except UndefinedConditionalError:
                continue
            assert reports[-1] == report_from_primitives(scm, 0, 1, 1)
        assert len(reports) > 2000
        assert sum(abs(r.pns - r.identified_pns) > 1e-9 for r in reports) > 1000

    def test_identified_can_disagree_without_monotonicity(self):
        scm = bernoulli_cause_scm(lambda c, u: c ^ u, p_u1=0.15)
        exact = pns_exact(scm, 1, 0, 1)
        ident = pns_identified(scm, 1, 0, 1)
        assert abs(exact - 0.85) < ATOL
        assert abs(ident - 0.7) < ATOL


def report_from_primitives(scm, c, c_bar, y):
    """The PnsReport assembled from one-measure calls: p_joint and the
    p_do and p_outcome references."""
    p_y = p_outcome(scm, y)
    return PnsReport(
        pn=necessity_ratio(p_y, p_do(scm, c_bar, y), scm.p_joint(c, y)),
        ps=sufficiency_ratio(p_do(scm, c, y), p_y, scm.p_joint(c_bar, 1 - y)),
        pns=pns_exact(scm, c, c_bar, y),
        identified_pns=pns_identified(scm, c, c_bar, y),
        monotone=check_monotonicity(scm, c, c_bar, y),
        exogenous=check_exogeneity(scm, c, y) and check_exogeneity(scm, c_bar, y),
    )


# c_probs_given_u 0 0.7 0.3 / 1 0.2 0.8 over the cat-legs mechanism
CONFOUNDED = DiscreteScm(
    c_values=(0, 1),
    u_values=(0, 1),
    u_probs=(0.4, 0.6),
    cause_table={0: {0: 0.7, 1: 0.3}, 1: {0: 0.2, 1: 0.8}},
    mechanism=lambda c, u: 1 if c == 1 else u,
)


class TestOneWalk:
    """analyze takes every measure once from one walk over the noise
    values; its report must equal the one built from the public measures,
    bit for bit."""

    def test_random_identifiable_models(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            scm = random_identifiable_scm(rng)
            assert analyze(scm, 1, 0, 1) == report_from_primitives(scm, 1, 0, 1)

    @pytest.mark.parametrize("y", [0, 1])
    def test_ternary_cause_every_ordered_pair(self, eye_size_scm, y):
        scm = eye_size_scm
        for c in scm.c_values:
            for c_bar in scm.c_values:
                if c == c_bar:
                    continue
                try:
                    want = report_from_primitives(scm, c, c_bar, y)
                except UndefinedConditionalError as exc:
                    with pytest.raises(UndefinedConditionalError) as info:
                        analyze(scm, c, c_bar, y)
                    assert str(info.value) == str(exc)
                else:
                    assert analyze(scm, c, c_bar, y) == want

    def test_confounded_table(self):
        report = analyze(CONFOUNDED, 1, 0, 1)
        assert report == report_from_primitives(CONFOUNDED, 1, 0, 1)
        assert (report.pn, report.ps, report.pns, report.identified_pns) == (
            0.2, 1.0000000000000002, 0.39999999999999997, 0.7)
        # PS = (1 - 0.72) / 0.28 is 1 exactly, and 1 ulp above it in floats
        assert report.monotone and not report.exogenous and report.within_unit_range

    @pytest.mark.parametrize("mechanism, query, error, message", [
        # the necessity ratio's zero joint is reported before the sufficiency ratio's
        (lambda c, u: c, (0, 1, 1), UndefinedConditionalError,
         "necessity ratio: P(C=c, Y=y) is zero"),
        (lambda c, u: 1 if c == 1 else u, (0, 1, 1), UndefinedConditionalError,
         "sufficiency ratio: P(C=cbar, Y!=y) is zero"),
        (lambda c, u: c, (1, 1, 1), ValueError, "c and cbar must differ"),
        (lambda c, u: c, (2, 0, 1), ValueError, "cause values 2, 0 must come from (0, 1)"),
        (lambda c, u: c, (1, 0, 2), ValueError, "y must be 0 or 1, got 2"),
    ])
    def test_degenerate_queries(self, mechanism, query, error, message):
        with pytest.raises(error) as info:
            analyze(bernoulli_cause_scm(mechanism), *query)
        assert type(info.value) is error and str(info.value) == message

    def test_posterior_and_cause_errors_in_order(self):
        # f = 0 everywhere: (C=1, Y=1) never happens, (C=0, Y=0) always can
        scm = bernoulli_cause_scm(lambda c, u: 0)
        with pytest.raises(UndefinedConditionalError) as info:
            pns_exact(scm, 1, 0, 1)
        assert str(info.value) == (
            "necessity term: conditioning event (C=1, Y=1) has zero probability")
        with pytest.raises(UndefinedConditionalError) as info:
            pns_exact(scm, 0, 1, 0)
        assert str(info.value) == (
            "sufficiency term: conditioning event (C=1, Y=1) has zero probability")
        never = DiscreteScm((0, 1, 2), (0,), (1.0,), {0: 1.0, 1: 0.0, 2: 0.0},
                            lambda c, u: 1)
        for c, c_bar in ((1, 2), (1, 0), (0, 2)):
            with pytest.raises(UndefinedConditionalError) as info:
                pns_identified(never, c, c_bar, 1)
            cause = c if c else c_bar
            assert str(info.value) == f"conditioning on C={cause}, which has zero probability"


def exact_measures(scm, c, c_bar, y):
    """In exact rationals on an exogenous model: PN and PS by the ratio
    formulas, from its float probabilities with each distribution divided
    by its sum; and PNS, the two joint masses of the floats as given."""
    p_u = [Fraction(p) for p in scm.u_probs]
    p_c = {v: Fraction(scm.cause_table[v]) for v in scm.c_values}
    pns = sum(p * (p_c[c_bar] + p_c[c]) for p, u in zip(p_u, scm.u_values)
              if scm.mechanism(c, u) == y != scm.mechanism(c_bar, u))
    p_u = [p / sum(p_u) for p in p_u]
    p_c = {v: p / sum(p_c.values()) for v, p in p_c.items()}

    def mass(v, label):  # P(Y=label | do(v))
        return sum(p for p, u in zip(p_u, scm.u_values) if scm.mechanism(v, u) == label)

    p_y = sum(p_c[v] * mass(v, y) for v in scm.c_values)
    pn = (p_y - mass(c_bar, y)) / (p_c[c] * mass(c, y))
    ps = (mass(c, y) - p_y) / (p_c[c_bar] * mass(c_bar, 1 - y))
    return pn, ps, pns


class TestUnitRange:
    def test_flag_matches_exact_arithmetic(self):
        """On 5000 random identifiable models the flag reads in range
        exactly when PN and PS, in exact rationals, lie in [0, 1]: rounding
        alone never moves a ratio out (bounds of exactly 0 and 1 would
        put 592 of these models out).  PNS, two sums of products, is
        within 2 ulp of its exact value."""
        rng = np.random.default_rng(0)
        for _ in range(5000):
            scm = random_identifiable_scm(rng)
            report = analyze(scm, 1, 0, 1)
            pn, ps, pns = exact_measures(scm, 1, 0, 1)
            assert report.within_unit_range == (0 <= pn <= 1 and 0 <= ps <= 1)
            assert abs(Fraction(report.pns) - pns) <= 2 * math.ulp(float(pns))

    def test_report_of_a_numpy_built_model_holds_floats(self):
        """random_identifiable_scm draws u_probs with numpy; the model keeps
        them as floats, so every report field is a float or a bool and each
        value line of format_report reads back with float()."""
        scm = random_identifiable_scm(np.random.default_rng(0))
        assert all(type(p) is float for p in scm.u_probs)
        report = analyze(scm, 1, 0, 1)
        values = [report.pn, report.ps, report.pns, report.identified_pns]
        assert all(type(v) is float for v in values)
        assert type(report.monotone) is bool and type(report.exogenous) is bool
        lines = format_report(report).splitlines()
        assert [float(line.split(" = ")[1]) for line in lines[:4]] == values


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
