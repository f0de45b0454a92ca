import math

import pytest
from hypothesis import given, strategies as st

from tourval import (
    Interval,
    SourceRange,
    TargetRange,
    TriangularFuzzyNumber as TFN,
    alpha_cut,
    defuzzify,
    membership,
    rescale_crisp,
    tfn_from_text,
    tfn_to_text,
)
from tourval import fuzzy
from tourval.errors import ConfigError, require_choice
from tourval.rescale import RANGE_POLICIES

from conftest import finite_floats, tfns


class TestConstruction:
    def test_valid(self):
        t = TFN(1.0, 2.0, 3.0)
        assert (t.lo, t.mode, t.hi) == (1.0, 2.0, 3.0)

    def test_degenerate_point_allowed(self):
        t = TFN.crisp(2.5)
        assert t.lo == t.mode == t.hi == 2.5

    @pytest.mark.parametrize("bad", [(2, 1, 3), (1, 3, 2), (3, 2, 1)])
    def test_misordered_rejected(self, bad):
        with pytest.raises(ValueError):
            TFN(*bad)

    @pytest.mark.parametrize("bad", [(float("nan"), 1, 2), (0, 1, float("inf"))])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(ValueError):
            TFN(*bad)

    def test_as_tuple(self):
        assert TFN(1, 2, 3).as_tuple() == (1.0, 2.0, 3.0)


class TestMembership:
    def test_outside_support_is_zero(self):
        t = TFN(1, 2, 3)
        assert membership(t, 0.999) == 0.0
        assert membership(t, 3.001) == 0.0

    def test_peak_is_one(self):
        assert membership(TFN(1, 2, 3), 2.0) == 1.0

    def test_linear_flanks(self):
        t = TFN(0, 2, 6)
        assert membership(t, 1.0) == pytest.approx(0.5)
        assert membership(t, 4.0) == pytest.approx(0.5)

    def test_degenerate_left_side(self):
        t = TFN(2, 2, 4)
        assert membership(t, 2.0) == 1.0
        assert membership(t, 3.0) == pytest.approx(0.5)

    def test_point_tfn(self):
        t = TFN.crisp(1.5)
        assert membership(t, 1.5) == 1.0
        assert membership(t, 1.5000001) == 0.0

    @given(tfns(), finite_floats())
    def test_range_zero_to_one(self, t, x):
        assert 0.0 <= membership(t, x) <= 1.0


class TestAlphaCut:
    def test_alpha_zero_is_support(self):
        assert alpha_cut(TFN(1, 2, 3), 0.0) == Interval(1.0, 3.0)

    def test_alpha_one_is_mode(self):
        assert alpha_cut(TFN(1, 2, 3), 1.0) == Interval(2.0, 2.0)

    def test_half(self):
        cut = alpha_cut(TFN(0, 2, 6), 0.5)
        assert cut.low == pytest.approx(1.0)
        assert cut.high == pytest.approx(4.0)

    @pytest.mark.parametrize("alpha", [-0.1, 1.1, 2.0])
    def test_alpha_outside_unit_rejected(self, alpha):
        with pytest.raises(ValueError):
            alpha_cut(TFN(1, 2, 3), alpha)

    @given(tfns(), st.floats(min_value=0, max_value=1),
           st.floats(min_value=0, max_value=1))
    def test_cuts_are_nested(self, t, a1, a2):
        lo, hi = sorted((a1, a2))
        outer, inner = alpha_cut(t, lo), alpha_cut(t, hi)
        assert outer.low <= inner.low <= inner.high <= outer.high

    @given(tfns(), st.floats(min_value=0, max_value=1))
    def test_cut_stays_inside_support(self, t, alpha):
        cut = alpha_cut(t, alpha)
        assert t.lo <= cut.low <= cut.high <= t.hi


class TestArithmetic:
    def test_add_componentwise(self):
        assert fuzzy.add(TFN(1, 2, 3), TFN(10, 20, 30)) == TFN(11, 22, 33)

    def test_scale_positive(self):
        assert fuzzy.scale(2.0, TFN(1, 2, 3)) == TFN(2, 4, 6)

    def test_scale_negative_flips_endpoints(self):
        assert fuzzy.scale(-1.0, TFN(1, 2, 3)) == TFN(-3, -2, -1)

    def test_scale_zero_collapses(self):
        assert fuzzy.scale(0.0, TFN(1, 2, 3)) == TFN.crisp(0.0)

    @given(tfns(), tfns())
    def test_add_commutes_exactly(self, a, b):
        assert fuzzy.add(a, b) == fuzzy.add(b, a)

    @given(tfns())
    def test_double_negation_roundtrips_exactly(self, t):
        assert fuzzy.scale(-1.0, fuzzy.scale(-1.0, t)) == t

    @given(tfns(), tfns())
    def test_sum_support_contains_sum_of_modes(self, a, b):
        s = fuzzy.add(a, b)
        assert s.lo <= a.mode + b.mode <= s.hi


class TestMean:
    def test_two_experts(self):
        assert fuzzy.mean([TFN(1, 2, 3), TFN(3, 4, 5)]) == TFN(2, 3, 4)

    def test_single_is_identity(self):
        t = TFN(1.1, 2.2, 3.3)
        assert fuzzy.mean([t]) == t

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fuzzy.mean([])

    @given(st.lists(tfns(), min_size=1, max_size=8))
    def test_mean_within_componentwise_extremes(self, ts):
        # the exact sum divided by n can round one ulp past an input, so
        # containment is only claimed up to a few ulps of the bounds
        def between(lo, x, hi):
            slack = 4 * max(math.ulp(abs(lo)), math.ulp(abs(hi)))
            return lo - slack <= x <= hi + slack

        m = fuzzy.mean(ts)
        assert between(min(t.lo for t in ts), m.lo, max(t.lo for t in ts))
        assert between(min(t.hi for t in ts), m.hi, max(t.hi for t in ts))


class TestDefuzzify:
    def test_centroid_symmetric(self):
        assert defuzzify(TFN(1, 2, 3)) == pytest.approx(2.0)

    def test_centroid_skewed(self):
        assert defuzzify(TFN(0, 0, 3)) == pytest.approx(1.0)

    def test_mode_method(self):
        assert defuzzify(TFN(0, 0.7, 3), method="mode") == 0.7

    def test_unknown_method(self):
        with pytest.raises(ConfigError):
            defuzzify(TFN(1, 2, 3), method="bisector")

    def test_centroid_of_ends_whose_sum_overflows(self):
        assert defuzzify(TFN(0.0, 1.5e308, 1.5e308)) == 1e308

    def test_every_choice_rule_is_one_check(self):
        """``require_choice`` words each "A or B" rule; the callers keep
        their exception types."""
        with pytest.raises(ConfigError, match=r"^defuzzification method must be 'centroid' "
                                              r"or 'mode', got 'bisector'$"):
            defuzzify(TFN(1, 2, 3), method="bisector")
        with pytest.raises(ValueError, match=r"^out-of-range policy must be 'strict' or "
                                             r"'clamp', got 'wrap'$"):
            rescale_crisp(1.0, SourceRange(0, 5), TargetRange(0, 100), policy="wrap")
        with pytest.raises(ConfigError, match=r"^range_policy must be 'strict' or 'clamp', "
                                              r"got \[1\]$"):
            require_choice([1], RANGE_POLICIES, "range_policy")

    @given(tfns())
    def test_centroid_inside_support(self, t):
        c = defuzzify(t)
        assert t.lo <= c <= t.hi

    @given(tfns(), finite_floats(-100, 100), finite_floats(0.001, 100))
    def test_centroid_affine_equivariant(self, t, shift, stretch):
        moved = fuzzy.add(fuzzy.scale(stretch, t), TFN.crisp(shift))
        expected = stretch * defuzzify(t) + shift
        assert defuzzify(moved) == pytest.approx(expected, rel=1e-9, abs=1e-6)


class TestTextForm:
    def test_render(self):
        assert tfn_to_text(TFN(1, 2.5, 3)) == "1.0;2.5;3.0"

    def test_parse(self):
        assert tfn_from_text("1;2.5;3") == TFN(1.0, 2.5, 3.0)

    def test_parse_with_spaces(self):
        assert tfn_from_text(" 1 ; 2.5 ; 3 ") == TFN(1.0, 2.5, 3.0)

    @pytest.mark.parametrize("bad", ["", "1;2", "1;2;3;4", "a;b;c", "3;2;1"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            tfn_from_text(bad)

    @given(tfns(-1e6, 1e6))
    def test_roundtrip_exact(self, t):
        assert tfn_from_text(tfn_to_text(t)) == t
