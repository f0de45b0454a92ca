import numpy as np
import pytest
from hypothesis import given

from tourval import TriangularFuzzyNumber as TFN, defuzzify
from tourval.errors import ConfigError, require_choice
from tourval.rescale import RANGE_POLICIES, apply_range_policy

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


class TestDefuzzify:
    def test_centroid_symmetric(self):
        assert defuzzify(np.array([TFN(1, 2, 3).as_tuple()]))[0] == pytest.approx(2.0)

    def test_centroid_skewed(self):
        assert defuzzify(np.array([TFN(0, 0, 3).as_tuple()]))[0] == pytest.approx(1.0)

    def test_mode_method(self):
        assert defuzzify(np.array([TFN(0, 0.7, 3).as_tuple()]), method="mode")[0] == 0.7

    def test_unknown_method(self):
        with pytest.raises(ConfigError):
            defuzzify(np.array([TFN(1, 2, 3).as_tuple()]), method="bisector")

    def test_centroid_of_ends_whose_sum_overflows(self):
        assert defuzzify(np.array([TFN(0.0, 1.5e308, 1.5e308).as_tuple()]))[0] == 1e308

    def test_every_choice_rule_is_one_check(self):
        """``require_choice`` words each "A or B" rule; the callers keep
        their exception types."""
        with pytest.raises(ConfigError, match=r"^defuzzification method must be 'centroid' "
                                              r"or 'mode', got 'bisector'$"):
            defuzzify(np.array([TFN(1, 2, 3).as_tuple()]), method="bisector")
        with pytest.raises(ValueError, match=r"^out-of-range policy must be 'strict' or "
                                             r"'clamp', got 'wrap'$"):
            apply_range_policy(1.0, 0.0, 5.0, "wrap", lambda _: "value ")
        with pytest.raises(ConfigError, match=r"^range_policy must be 'strict' or 'clamp', "
                                              r"got \[1\]$"):
            require_choice([1], RANGE_POLICIES, "range_policy")

    @given(tfns())
    def test_centroid_inside_support(self, t):
        c = defuzzify(np.array([t.as_tuple()]))[0]
        assert t.lo <= c <= t.hi

    @given(tfns(), finite_floats(-100, 100), finite_floats(0.001, 100))
    def test_centroid_affine_equivariant(self, t, shift, stretch):
        moved = TFN(*(stretch * c + shift for c in t.as_tuple()))
        expected = stretch * defuzzify(np.array([t.as_tuple()]))[0] + shift
        assert defuzzify(np.array([moved.as_tuple()]))[0] == pytest.approx(expected, rel=1e-9,
                                                                           abs=1e-6)
