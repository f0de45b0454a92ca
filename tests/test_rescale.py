import logging
import math
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from tourval import (
    SourceRange,
    TargetRange,
    TriangularFuzzyNumber as TFN,
    rescale_crisp,
    rescale_tfn,
)
from tourval.errors import OutOfRangeError

import oracles
from conftest import finite_floats, spans, tfns_within


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
        assert rescale_crisp(tiny, SourceRange(0, tiny), TargetRange(0, 100)) == 100.0
        assert rescale_crisp(tiny / 2, SourceRange(0, tiny), TargetRange(0, 100)) == 50.0


class TestCrisp:
    def test_endpoints_map_to_endpoints(self):
        src, tgt = SourceRange(0, 5), TargetRange(0, 100)
        assert rescale_crisp(0.0, src, tgt) == pytest.approx(0.0, abs=1e-12)
        assert rescale_crisp(5.0, src, tgt) == pytest.approx(100.0, abs=1e-12)

    def test_midpoint(self):
        assert rescale_crisp(2.5, SourceRange(0, 5), TargetRange(0, 100)) == pytest.approx(50.0)

    def test_negative_source_range(self):
        got = rescale_crisp(-0.18, SourceRange(-5, 0), TargetRange(0, 100))
        assert got == pytest.approx(96.4, abs=1e-9)

    def test_strict_rejects_outside(self):
        with pytest.raises(OutOfRangeError) as err:
            rescale_crisp(5.5, SourceRange(0, 5), TargetRange(0, 100), label="condition")
        assert "condition" in str(err.value)
        assert "5.5" in str(err.value)

    def test_clamp_saturates(self, caplog):
        src, tgt = SourceRange(0, 5), TargetRange(0, 100)
        with caplog.at_level(logging.WARNING, logger="tourval.rescale"):
            assert rescale_crisp(5.5, src, tgt, policy="clamp") == 100.0
            assert rescale_crisp(-1.0, src, tgt, policy="clamp") == 0.0
        assert any("clamp" in record.message for record in caplog.records)

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            rescale_crisp(1.0, SourceRange(0, 5), TargetRange(0, 100), policy="wrap")

    @given(spans(), spans())
    def test_matches_affine_oracle(self, src_span, tgt_span):
        x, y = src_span
        m, big_m = tgt_span
        a = (x + y) / 2.0
        got = rescale_crisp(a, SourceRange(x, y), TargetRange(m, big_m))
        want = oracles.lre(a, x, y, m, big_m)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    @given(spans(), spans(), st.floats(0, 1), st.floats(0, 1))
    def test_monotone_in_value(self, src_span, tgt_span, u1, u2):
        x, y = src_span
        m, big_m = tgt_span
        lo_u, hi_u = sorted((u1, u2))
        src, tgt = SourceRange(x, y), TargetRange(m, big_m)
        a = x + (y - x) * lo_u
        b = x + (y - x) * hi_u
        a, b = min(a, y), min(b, y)
        assert rescale_crisp(a, src, tgt) <= rescale_crisp(b, src, tgt)

    @given(spans(), spans(), st.floats(0, 1))
    def test_output_inside_target(self, src_span, tgt_span, u):
        x, y = src_span
        m, big_m = tgt_span
        a = min(x + (y - x) * u, y)
        got = rescale_crisp(a, SourceRange(x, y), TargetRange(m, big_m))
        assert m <= got <= big_m


class TestFuzzyRescaling:
    def test_whole_range_tfn(self):
        got = rescale_tfn(TFN(0, 2.5, 5), SourceRange(0, 5), TargetRange(0, 100))
        assert got.as_tuple() == pytest.approx((0.0, 50.0, 100.0), abs=1e-9)

    def test_negative_range_row(self):
        got = rescale_tfn(TFN(-1.18, -0.18, -0.02), SourceRange(-5, 0), TargetRange(0, 100))
        want = oracles.rescale3((-1.18, -0.18, -0.02), -5, 0, 0, 100)
        assert got.as_tuple() == pytest.approx(want, abs=1e-9)
        assert got.as_tuple() == pytest.approx((76.4, 96.4, 99.6), abs=1e-9)

    def test_degenerate_tfn_matches_crisp(self):
        src, tgt = SourceRange(1, 5), TargetRange(0, 100)
        got = rescale_tfn(TFN.crisp(3.0), src, tgt)
        want = rescale_crisp(3.0, src, tgt)
        assert got.lo == got.mode == got.hi
        assert got.mode == pytest.approx(want, rel=1e-12)

    def test_strict_names_offending_component(self):
        with pytest.raises(OutOfRangeError) as err:
            rescale_tfn(TFN(0.87, 1.87, 2.86), SourceRange(1, 5), TargetRange(0, 100),
                        label="historical")
        message = str(err.value)
        assert "historical" in message and "lo" in message

    def test_clamp_keeps_ordering(self):
        got = rescale_tfn(TFN(0.87, 1.87, 2.86), SourceRange(1, 5), TargetRange(0, 100),
                          policy="clamp")
        assert got.lo <= got.mode <= got.hi
        assert got.lo == 0.0

    @given(spans(), spans(), st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1)))
    @settings(max_examples=300)
    def test_equals_endpointwise_affine_map(self, src_span, tgt_span, units):
        """Rescaling a TFN must agree with mapping each endpoint through the
        affine map of the independent oracle."""
        x, y = src_span
        m, big_m = tgt_span
        a, b, c = sorted(min(x + (y - x) * u, y) for u in units)
        got = rescale_tfn(TFN(a, b, c), SourceRange(x, y), TargetRange(m, big_m))
        want = oracles.rescale3((a, b, c), x, y, m, big_m)
        for label, out, expected in zip("ABC", got.as_tuple(), want):
            assert out == pytest.approx(expected, rel=1e-9, abs=1e-9), label

    @given(spans(), spans(), st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1)))
    def test_result_ordered_and_inside_target(self, src_span, tgt_span, units):
        x, y = src_span
        m, big_m = tgt_span
        a, b, c = sorted(min(x + (y - x) * u, y) for u in units)
        got = rescale_tfn(TFN(a, b, c), SourceRange(x, y), TargetRange(m, big_m))
        assert m <= got.lo <= got.mode <= got.hi <= big_m

    def test_roundtrip_back_to_source(self):
        src, tgt = SourceRange(1, 5), TargetRange(0, 100)
        t = TFN(2.0, 3.0, 4.5)
        there = rescale_tfn(t, src, tgt)
        back = rescale_tfn(there, SourceRange(0, 100), TargetRange(1, 5))
        assert back.as_tuple() == pytest.approx(t.as_tuple(), rel=1e-12)
