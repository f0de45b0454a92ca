import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from tourval import SourceRange, TargetRange
from tourval.errors import OutOfRangeError
from tourval.rescale import COMPONENTS, apply_range_policy, rescale_endpoints

import oracles
from conftest import spans


class TestRanges:
    def test_source_span(self):
        assert SourceRange(0, 5).span == 5.0

    def test_source_must_increase(self):
        with pytest.raises(ValueError):
            SourceRange(5, 5)
        with pytest.raises(ValueError):
            SourceRange(5, 0)

    def test_target_must_increase(self):
        with pytest.raises(ValueError):
            TargetRange(100, 0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            SourceRange(0, float("inf"))

    @pytest.mark.parametrize("make, kind", [(SourceRange, "source"), (TargetRange, "target")])
    @pytest.mark.parametrize("ends", [(-1e308, 1e308), (0, 5e-324), (1e308, 1e308),
                                      (0, 1e-308), (-2e-308, 0.0)])
    def test_span_and_its_reciprocal_must_be_finite(self, make, kind, ends):
        """One rule for both range types: a span that overflows, or whose
        reciprocal does, or that is subnormal (fewer than 53 significant
        bits, though its reciprocal may be finite) is rejected with the kind
        of range and its ends."""
        with pytest.raises(ValueError, match="^" + re.escape(f"{kind} range {list(ends)} must ")):
            make(*ends)

    def test_smallest_normal_span_accepted(self):
        tiny = sys.float_info.min
        assert SourceRange(0, tiny).span == tiny
        assert TargetRange(-tiny, 0.0).span == tiny
        assert rescale_endpoints(tiny, 0.0, tiny, TargetRange(0, 100)) == 100.0
        assert rescale_endpoints(tiny / 2, 0.0, tiny, TargetRange(0, 100)) == 50.0


class TestCrisp:
    def test_endpoints_map_to_endpoints(self):
        got = rescale_endpoints([0.0, 5.0], 0.0, 5.0, TargetRange(0, 100))
        assert got.tolist() == pytest.approx([0.0, 100.0], abs=1e-12)

    def test_midpoint(self):
        assert rescale_endpoints(2.5, 0.0, 5.0, TargetRange(0, 100)) == pytest.approx(50.0)

    def test_negative_source_range(self):
        got = rescale_endpoints(-0.18, -5.0, 0.0, TargetRange(0, 100))
        assert got == pytest.approx(96.4, abs=1e-9)

    def test_strict_rejects_outside(self):
        with pytest.raises(OutOfRangeError) as err:
            apply_range_policy(5.5, 0.0, 5.0, "strict", lambda _: "condition: value ")
        assert "condition" in str(err.value)
        assert "5.5" in str(err.value)

    def test_clamp_saturates(self, capsys):
        admitted = apply_range_policy([5.5, -1.0], 0.0, 5.0, "clamp", lambda _: "value ")
        got = rescale_endpoints(admitted, 0.0, 5.0, TargetRange(0, 100))
        assert got.tolist() == [100.0, 0.0]
        assert capsys.readouterr().err == (
            "value 5.5 clamped to 5.0 (source range [0.0, 5.0]); 2 value(s) clamped\n")

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            apply_range_policy(1.0, 0.0, 5.0, "wrap", lambda _: "value ")

    @given(spans(), spans())
    def test_matches_affine_oracle(self, src_span, tgt_span):
        x, y = src_span
        m, big_m = tgt_span
        a = (x + y) / 2.0
        got = rescale_endpoints(a, x, y, TargetRange(m, big_m))
        want = oracles.lre(a, x, y, m, big_m)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    @given(spans(), spans(), st.floats(0, 1), st.floats(0, 1))
    def test_monotone_in_value(self, src_span, tgt_span, u1, u2):
        x, y = src_span
        m, big_m = tgt_span
        lo_u, hi_u = sorted((u1, u2))
        tgt = TargetRange(m, big_m)
        a = x + (y - x) * lo_u
        b = x + (y - x) * hi_u
        a, b = min(a, y), min(b, y)
        assert rescale_endpoints(a, x, y, tgt) <= rescale_endpoints(b, x, y, tgt)

    @given(spans(), spans(), st.floats(0, 1))
    def test_output_inside_target(self, src_span, tgt_span, u):
        x, y = src_span
        m, big_m = tgt_span
        a = min(x + (y - x) * u, y)
        got = rescale_endpoints(a, x, y, TargetRange(m, big_m))
        assert m <= got <= big_m


class TestFuzzyRescaling:
    def test_whole_range_tfn(self):
        got = rescale_endpoints((0, 2.5, 5), 0.0, 5.0, TargetRange(0, 100))
        assert got.tolist() == pytest.approx((0.0, 50.0, 100.0), abs=1e-9)

    def test_negative_range_row(self):
        got = rescale_endpoints((-1.18, -0.18, -0.02), -5.0, 0.0, TargetRange(0, 100)).tolist()
        want = oracles.rescale3((-1.18, -0.18, -0.02), -5, 0, 0, 100)
        assert got == pytest.approx(want, abs=1e-9)
        assert got == pytest.approx((76.4, 96.4, 99.6), abs=1e-9)

    def test_degenerate_tfn_matches_crisp(self):
        tgt = TargetRange(0, 100)
        lo, mode, hi = rescale_endpoints((3.0, 3.0, 3.0), 1.0, 5.0, tgt).tolist()
        want = rescale_endpoints(3.0, 1.0, 5.0, tgt)
        assert lo == mode == hi
        assert mode == pytest.approx(want, rel=1e-12)

    def test_strict_names_offending_component(self):
        with pytest.raises(OutOfRangeError) as err:
            apply_range_policy((0.87, 1.87, 2.86), 1.0, 5.0, "strict",
                               lambda i: f"historical: {COMPONENTS[i[0]]}=")
        message = str(err.value)
        assert "historical" in message and "lo=0.87" in message

    def test_clamp_keeps_ordering(self):
        admitted = apply_range_policy((0.87, 1.87, 2.86), 1.0, 5.0, "clamp", lambda _: "")
        lo, mode, hi = rescale_endpoints(admitted, 1.0, 5.0, TargetRange(0, 100)).tolist()
        assert lo <= mode <= hi
        assert lo == 0.0

    @given(spans(), spans(), st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1)))
    @settings(max_examples=300)
    def test_equals_endpointwise_affine_map(self, src_span, tgt_span, units):
        """Rescaling a TFN must agree with mapping each endpoint through the
        affine map of the independent oracle."""
        x, y = src_span
        m, big_m = tgt_span
        a, b, c = sorted(min(x + (y - x) * u, y) for u in units)
        got = rescale_endpoints((a, b, c), x, y, TargetRange(m, big_m)).tolist()
        want = oracles.rescale3((a, b, c), x, y, m, big_m)
        for label, out, expected in zip("ABC", got, want):
            assert out == pytest.approx(expected, rel=1e-9, abs=1e-9), label

    @given(spans(), spans(), st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1)))
    def test_result_ordered_and_inside_target(self, src_span, tgt_span, units):
        x, y = src_span
        m, big_m = tgt_span
        a, b, c = sorted(min(x + (y - x) * u, y) for u in units)
        lo, mode, hi = rescale_endpoints((a, b, c), x, y, TargetRange(m, big_m)).tolist()
        assert m <= lo <= mode <= hi <= big_m

    def test_roundtrip_back_to_source(self):
        t = (2.0, 3.0, 4.5)
        there = rescale_endpoints(t, 1.0, 5.0, TargetRange(0, 100))
        back = rescale_endpoints(there, 0.0, 100.0, TargetRange(1, 5))
        assert back.tolist() == pytest.approx(t, rel=1e-12)
