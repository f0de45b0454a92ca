import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tourval import (
    FactorCatalogue,
    FactorDefinition,
    SourceRange,
    TargetRange,
    classify,
    validate_weights,
)
from tourval import datasets, fuzzy
from tourval.errors import ConfigError, InputError
from tourval.pipeline import load_config, run_valuation
from tourval.rescale import apply_range_policy, rescale_endpoints
from tourval.rounding import round6
from tourval.valuation import DEFAULT_THRESHOLDS, Valuation, evaluate_attractions

import oracles


def make_catalogue(*rows, target=(0.0, 100.0)):
    factors = tuple(
        FactorDefinition(id=i, name=i, src=SourceRange(x, y), weight=w)
        for i, x, y, w in rows
    )
    return FactorCatalogue(factors=factors, target=TargetRange(*target))


class TestCatalogue:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            make_catalogue(("f1", 0, 5, 0.5), ("f1", 0, 5, 0.5))

    def test_weight_outside_unit_rejected(self):
        with pytest.raises(ValueError):
            make_catalogue(("f1", 0, 5, 1.2))

    def test_weight_sum_tolerance(self):
        # 0.49 + 0.49 = 0.98 misses 1 by more than the default 0.01
        with pytest.raises(ConfigError):
            make_catalogue(("f1", 0, 5, 0.49), ("f2", 0, 5, 0.49))

    def test_weight_sum_checked_by_validate_weights(self):
        """The catalogue reports the sum rule in ``validate_weights``' words."""
        weights = (0.49, 0.49)
        with pytest.raises(ConfigError) as raised:
            make_catalogue(("f1", 0, 5, weights[0]), ("f2", 0, 5, weights[1]))
        assert str(raised.value) == f"factor weights: {validate_weights(weights).detail}"

    def test_published_weight_column_accepted(self):
        catalogue = datasets.santiago_catalogue()
        assert len(catalogue.factors) == 20
        assert math.fsum(catalogue.weights) == pytest.approx(0.998)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            FactorCatalogue(factors=(), target=TargetRange(0, 100))


def value_one(scores, catalogue, attraction_id="a", **kwargs):
    """The ``evaluate_attractions`` row of one attraction scored by one
    (lo, mode, hi) triple per factor, in catalogue order, as an
    ``oracles.Result``."""
    valuation = evaluate_attractions([attraction_id], np.array([scores], dtype=float),
                                     catalogue, **kwargs)
    return oracles.Result(attraction_id, fuzzy.TFN(*valuation.ftv[0].tolist()),
                          valuation.crisp[0].item(), valuation.tiers[0])


def ftv_of(scores, catalogue, **kwargs):
    return value_one(scores, catalogue, **kwargs).ftv


class TestComputeFtv:
    def test_single_factor_equals_rescale(self):
        catalogue = make_catalogue(("f1", 0, 5, 1.0))
        got = ftv_of([(1, 2, 3)], catalogue)
        want = rescale_endpoints((1, 2, 3), 0.0, 5.0, TargetRange(0, 100))
        assert got.as_tuple() == pytest.approx(want.tolist(), rel=1e-12)

    def test_two_factors_by_hand(self):
        catalogue = make_catalogue(("f1", 0, 5, 0.5), ("f2", 0, 10, 0.5))
        got = ftv_of([(5.0,) * 3, (0.0,) * 3], catalogue)
        # 0.5 * 100 + 0.5 * 0
        assert got.as_tuple() == pytest.approx((50.0, 50.0, 50.0), abs=1e-9)

    def test_missing_score_listed(self, dataset_builder):
        """An attraction with no judgement for a factor is an input error
        naming the factor."""
        config_path = dataset_builder(evaluations=[
            ("p1", "f1", "e1", 1.0, 2.0, 3.0), ("p1", "f2", "e1", -3.0, -2.0, -1.0),
            ("p2", "f1", "e1", 3.0, 4.0, 5.0)])
        with pytest.raises(InputError) as err:
            run_valuation(load_config(config_path))
        assert "f2" in str(err.value)

    def test_unknown_score_listed(self, dataset_builder):
        config_path = dataset_builder(evaluations=[
            ("p1", "f1", "e1", 1.0, 2.0, 3.0), ("p1", "f2", "e1", -3.0, -2.0, -1.0),
            ("p1", "zz", "e1", 1.0, 1.0, 1.0)])
        with pytest.raises(InputError) as err:
            run_valuation(load_config(config_path))
        assert "zz" in str(err.value)

    def test_survey_means_against_reference_arithmetic(self):
        """Full 20-factor bundle; the surveyed historical mean dips below
        its range floor, so the clamp policy is required."""
        catalogue = datasets.santiago_catalogue()
        means = datasets.santiago_factor_means()
        x, y = catalogue.source_ranges
        admitted = apply_range_policy([[means[f].as_tuple() for f in catalogue.ids]], x, y,
                                      "clamp", lambda _: "")
        valuation = evaluate_attractions(["a"], admitted, catalogue)
        got = fuzzy.TFN(*valuation.ftv[0].tolist())

        clamped = {
            f.id: tuple(min(max(c, f.src.x), f.src.y) for c in means[f.id].as_tuple())
            for f in catalogue.factors
        }
        want = oracles.weighted_ftv(
            clamped,
            [(f.id, f.src.x, f.src.y, f.weight) for f in catalogue.factors],
            0.0, 100.0)
        assert got.as_tuple() == pytest.approx(want, abs=1e-9)
        assert got.as_tuple() == pytest.approx((53.25085, 75.81535, 89.2953), abs=1e-4)
        assert fuzzy.defuzzify(valuation.ftv)[0] == pytest.approx(72.7872, abs=1e-3)

    def test_weights_above_one_name_the_attraction(self):
        """Weights within the 0.01 tolerance but summing above 1 can push a
        value off the classification scale; that is an input error naming
        the attraction, its value and the weight sum."""
        catalogue = make_catalogue(("f1", 0, 5, 0.505), ("f2", 0, 5, 0.5))
        with pytest.raises(InputError) as err:
            value_one([(5.0,) * 3] * 2, catalogue, "plaza")
        message = str(err.value)
        assert "'plaza'" in message and "100.5" in message and "1.005" in message


    @pytest.mark.parametrize("target", [(0.0, 100.0), (-50.0, 50.0), (3.0, 7.0)])
    def test_rounding_error_never_leaves_the_scale(self, target):
        """Weights normalised to 1 and every score at one end of its range:
        the weighted sum misses that end by a few ulp either way, never by
        more than factors x eps x max(|m|, |M|); a miss outside the scale
        is put on the end, so every such attraction is valued."""
        rng = np.random.default_rng(5)
        m, big_m = target
        for _ in range(100):
            k = int(rng.integers(2, 21))
            weights = rng.dirichlet(np.ones(k))
            weights = weights / weights.sum()
            catalogue = make_catalogue(*((f"f{j}", 0.0, 5.0, float(w))
                                         for j, w in enumerate(weights)), target=target)
            slack = k * np.finfo(float).eps * max(abs(m), abs(big_m))
            for score, end in ((5.0, big_m), (0.0, m)):
                got = value_one([(score,) * 3] * k, catalogue)
                for value in (*got.ftv.as_tuple(), got.crisp):
                    assert m <= value <= big_m
                    assert abs(value - end) <= slack

    def test_one_ulp_overshoot_is_the_top_of_the_scale(self):
        """0.14 + 0.28 + 0.28 + 0.3 is 1.0, but the weighted sum of four
        100s is 100.00000000000001."""
        weights = (0.14, 0.28, 0.28, 0.3)
        assert sum(weights) == 1.0
        catalogue = make_catalogue(*((f"f{j}", 0, 5, w) for j, w in enumerate(weights)))
        got = value_one([(5.0,) * 3] * 4, catalogue)
        assert got.ftv.as_tuple() == (100.0, 100.0, 100.0)
        assert (got.crisp, got.tier) == (100.0, "High")

    def test_top_of_the_float_range_without_overflow(self):
        """On a target whose upper end is the largest float, a value at that
        end is valued with no numpy overflow; a weighted sum past it (weights
        summing above 1) is an input error naming the attraction."""
        top = sys.float_info.max
        scores = [(5.0,) * 3] * 2
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = value_one(
                scores,
                make_catalogue(("f1", 0, 5, 0.5), ("f2", 0, 5, 0.5), target=(0.0, top)),
                thresholds=(1.0, 2.0))
            assert (got.ftv.as_tuple(), got.tier) == ((top, top, top), "High")
            with pytest.raises(InputError, match="'a': value past the largest float; "
                                                 "factor weights sum to 1.005"):
                value_one(
                    scores,
                    make_catalogue(("f1", 0, 5, 0.505), ("f2", 0, 5, 0.5), target=(0.0, top)),
                    thresholds=(1.0, 2.0))

    def test_tiers_classified_on_the_catalogue_target(self):
        """A 900 on a [0, 1000] target is High against thresholds (330, 660),
        not off a 0-100 scale."""
        catalogue = make_catalogue(("f1", 0, 10, 1.0), target=(0.0, 1000.0))
        got = value_one([(9.0,) * 3], catalogue, thresholds=(330.0, 660.0))
        assert (got.crisp, got.tier) == (900.0, "High")

    @pytest.mark.parametrize("second", [0.5 + 1e-12, 0.509])
    def test_overshoot_beyond_rounding_error_still_rejected(self, second):
        """Weights summing to 1 + 1e-12 put the value 1e-10 past M = 100,
        far beyond the 2 x eps x 100 rounding allowance; 1.009 further."""
        catalogue = make_catalogue(("f1", 0, 5, 0.5), ("f2", 0, 5, second))
        with pytest.raises(InputError, match="outside the classification scale"):
            value_one([(5.0,) * 3] * 2, catalogue)

class TestCrispIndex:
    """With point TFNs, target [0, 5] and one individual per factor, the
    fuzzy index collapses onto the crisp min-max index (oracles)."""

    def _crisp_ftv(self, ratings, minima, maxima, weights):
        catalogue = make_catalogue(
            *((f"f{k}", minima[k], maxima[k], weights[k]) for k in range(len(weights))),
            target=(0.0, 5.0))
        return value_one([(r,) * 3 for r in ratings], catalogue).crisp

    def test_single_rating(self):
        # one individual, one factor: 5 * 1.0 * (3-0)/(5-0)
        assert self._crisp_ftv([3.0], [0.0], [5.0], [1.0]) == pytest.approx(3.0)

    def test_multiple_individuals_averaged(self, dataset_builder):
        """Two experts rating 0 and 5 average to the crisp index of the
        two individuals, (5 / 2) * (0 + 1)."""
        config_path = dataset_builder(
            factors=[("f1", "Condition", 0.0, 5.0, 1.0)],
            evaluations=[("p1", "f1", "e1", 0.0, 0.0, 0.0), ("p1", "f1", "e2", 5.0, 5.0, 5.0),
                         ("p2", "f1", "e1", 1.0, 1.0, 1.0)],
            config_extra={"target": [0.0, 5.0], "tier_thresholds": [1.65, 3.3],
                          "filter_threshold": 3.3})
        output = run_valuation(load_config(config_path))
        crisp = dict(zip(output.results.ids, output.results.crisp.tolist()))
        assert crisp["p1"] == pytest.approx(2.5)

    def test_matches_reference_formula(self):
        rng = np.random.default_rng(7)
        ratings = rng.uniform(1, 5, size=6)
        weights = rng.dirichlet(np.ones(6))
        got = self._crisp_ftv(ratings, [1.0] * 6, [5.0] * 6, weights)
        want = oracles.crisp_minmax_index(ratings, weights, [1.0] * 6, [5.0] * 6)
        assert got == pytest.approx(want, rel=1e-12)

    @given(st.integers(2, 8), st.integers(1, 64))
    @settings(max_examples=60)
    def test_degenerate_ftv_agrees(self, n_factors, seed):
        rng = np.random.default_rng(seed)
        minima = rng.uniform(-10, 0, n_factors)
        maxima = minima + rng.uniform(0.5, 10, n_factors)
        weights = rng.dirichlet(np.ones(n_factors))
        ratings = rng.uniform(minima, maxima)
        got = self._crisp_ftv(ratings, minima, maxima, weights)
        want = oracles.crisp_minmax_index(ratings, weights, minima, maxima)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


class TestClassify:
    @pytest.mark.parametrize("value,tier", [
        (0.0, "Low"), (33.0, "Low"), (33.0001, "Medium"), (50.0, "Medium"),
        (66.0, "Medium"), (66.0001, "High"), (100.0, "High"),
        # the band is picked on the value as printed to 6 significant digits
        (33.0000004, "Low"), (33.00006, "Medium"), (65.9999996, "Medium"),
        (66.0000004, "Medium"), (66.00006, "High"),
    ])
    def test_bands(self, value, tier):
        assert classify(value) == tier

    def test_outside_scale_rejected(self):
        with pytest.raises(ValueError):
            classify(-0.5)
        with pytest.raises(ValueError):
            classify(100.5)

    def test_custom_scale(self):
        assert classify(4.0, thresholds=(1.65, 3.3), scale=(0.0, 5.0)) == "High"

    def test_scale_checked_on_the_value_itself(self):
        """0.3333336 prints as 0.333334, past the scale's end; the value
        itself is on the scale, so it is High and not an error."""
        assert classify(0.3333336, thresholds=(0.1, 0.2), scale=(0.0, 0.3333336)) == "High"


def valued_as_given(*rows):
    """A ``Valuation`` of ``(id, crisp)`` rows in the order given, each FTV
    (crisp - 1, crisp, crisp + 1)."""
    crisp = np.array([value for _, value in rows])
    return Valuation(tuple(attraction_id for attraction_id, _ in rows),
                     crisp[:, None] + [-1.0, 0.0, 1.0], crisp, DEFAULT_THRESHOLDS)


def ranked_ids(*rows, top=128.0):
    """The ids in the order ``evaluate_attractions`` ranks ``(id, (lo, mode,
    hi))`` rows, valued on one factor of weight 1 whose source range is the
    target [0, top]: on [0, 128] rescaling keeps integers exact."""
    catalogue = make_catalogue(("f1", 0.0, top, 1.0), target=(0.0, top))
    scores = np.array([[ftv] for _, ftv in rows], dtype=float)
    return evaluate_attractions([i for i, _ in rows], scores, catalogue).ids


class TestFilterAndRank:
    def test_filter_strictly_above(self):
        valuation = valued_as_given(("a", 66.0), ("b", 66.01), ("c", 70.0), ("d", 66.0000004))
        kept = valuation.above(66.0)  # d prints as 66
        assert [valuation.ids[i] for i in kept] == ["b", "c"]

    def test_filter_keeps_input_order(self):
        valuation = valued_as_given(*((x, 80.0 - i) for i, x in enumerate("zyx")))
        assert [valuation.ids[i] for i in valuation.above(66.0)] == ["z", "y", "x"]

    def test_rank_descending_crisp(self):
        assert ranked_ids(("a", (9, 10, 11)), ("b", (29, 30, 31)),
                          ("c", (19, 20, 21))) == ("b", "c", "a")

    def test_rank_tie_breaks_on_mode_then_id(self):
        # every centroid is 50
        got = ranked_ids(("m2", (0, 50, 100)), ("aa", (30, 40, 80)), ("pp", (0, 60, 90)),
                         ("m1", (0, 50, 100)))
        assert got == ("pp", "m1", "m2", "aa")


def reference_valuation():
    """The published top five valued on one factor of weight 1 whose source
    range is the target [0, 100], so that each FTV is its own score."""
    listed = datasets.santiago_reference_ftv()
    catalogue = make_catalogue(("f1", 0.0, 100.0, 1.0))
    scores = np.array([[ftv.as_tuple()] for _, ftv in listed])
    return listed, evaluate_attractions([name for name, _ in listed], scores, catalogue)


class TestPublishedHighlights:
    def test_all_classify_high_and_survive_filter(self):
        listed, valuation = reference_valuation()
        assert valuation.tiers == ("High",) * len(listed)
        assert len(valuation.above(66.0)) == len(listed)

    def test_listing_order_is_rank_order(self):
        listed, valuation = reference_valuation()
        assert valuation.ids == tuple(name for name, _ in listed)
        assert valuation.ids[0] == "House of the Trova"

    def test_centroids_match_hand_values(self):
        centroids = [fuzzy.defuzzify(np.array([ftv.as_tuple()]))[0]
                     for _, ftv in datasets.santiago_reference_ftv()]
        assert centroids == pytest.approx([85.73667, 85.05, 84.08667, 83.83, 83.70],
                                          abs=5e-4)


class TestEvaluateAttraction:
    def test_mode_defuzzifier(self):
        catalogue = make_catalogue(("f1", 0, 5, 1.0))
        result = value_one([(0, 2.5, 5)], catalogue, method="mode")
        assert result.crisp == pytest.approx(50.0)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40)
    def test_ranking_invariant_under_target_change(self, seed):
        """Positions are affine images of each other across targets, so the
        induced ranking cannot move."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        minima = rng.uniform(-5, 5, n)
        maxima = minima + rng.uniform(0.5, 5, n)
        weights = rng.dirichlet(np.ones(n))

        orders = []
        for target in ((0.0, 100.0), (2.0, 7.0)):
            catalogue = make_catalogue(
                *((f"f{k}", minima[k], maxima[k], weights[k]) for k in range(n)),
                target=target)
            # (attractions, factors, 3): each attraction's sorted draws
            scores = np.array([
                np.sort(np.random.default_rng(seed * 7 + a).uniform(minima, maxima, size=(3, n)),
                        axis=0).T
                for a in range(5)])
            valuation = evaluate_attractions([f"a{a}" for a in range(5)], scores, catalogue)
            orders.append(valuation.ids)
        assert orders[0] == orders[1]


# Ids that a sort of numpy unicode arrays confuses ("a" and "a\x00" are equal
# there) and ids that compare differently by code point and by letter.
RECORD_IDS = st.one_of(st.sampled_from(["a", "a\x00", "a\x00\x00", "b", "Z", "é", "e\u0301",
                                        "寺", "\U0001f3b8", " a"]),
                       st.text(max_size=3))
BIG = sys.float_info.max


@st.composite
def record_inputs(draw):
    """Distinct ids, their (ids, 1, 3) scores on [0, top], the top of the
    target and a defuzzifier.  The scores come from a few triples, so rows
    tie; on [0, 128], where rescaling keeps integers exact, (0, 60, 90) and
    (30, 40, 80) tie on the centroid and not on the mode.  Near the top of
    a target ending at the largest float the centroid's sum overflows."""
    top = draw(st.sampled_from([128.0, BIG]))
    if top == BIG:
        value = st.one_of(st.sampled_from([BIG, BIG / 2, BIG / 3, 1.0, 0.0]), st.floats(0.0, BIG))
    else:
        # on, and within half a printed unit of, each threshold
        value = st.one_of(st.sampled_from([0.0, 33.0, 33.0000004, 65.9999996, 66.0, 66.0000004,
                                           66.00005, 128.0]),
                          st.integers(0, 128).map(float), st.floats(0.0, 128.0))
    triple = st.lists(value, min_size=3, max_size=3).map(sorted)
    pool = draw(st.lists(triple, min_size=1, max_size=4)) + [[0, 60, 90], [30, 40, 80]]
    ids = draw(st.lists(RECORD_IDS, min_size=1, max_size=8, unique=True))
    scores = np.array([[draw(st.sampled_from(pool))] for _ in ids], dtype=float)
    return ids, scores, top, draw(st.sampled_from(fuzzy.DEFUZZIFY_METHODS))


class TestValuationRecord:
    """``evaluate_attractions``' record against the earlier per-attraction
    loop, ``oracles.valuation_loop``, on the same FTVs."""

    @settings(max_examples=300, deadline=None)
    @given(record_inputs())
    def test_equals_per_attraction_loop(self, inputs):
        ids, scores, top, method = inputs
        catalogue = make_catalogue(("f1", 0.0, top, 1.0), target=(0.0, top))
        valuation = evaluate_attractions(ids, scores, catalogue, method=method)
        # one factor of weight 1: each FTV is its rescaled score
        rows = zip(ids, rescale_endpoints(scores[:, 0], 0.0, top, catalogue.target).tolist())
        threshold = DEFAULT_THRESHOLDS[1]
        ranked, retained = oracles.valuation_loop(rows, method, DEFAULT_THRESHOLDS,
                                                  (0.0, top), threshold)
        assert valuation.ids == tuple(r.attraction_id for r in ranked)
        assert valuation.tiers == tuple(r.tier for r in ranked)
        assert valuation.printed == [round6(r.crisp) for r in ranked]
        assert ([valuation.ids[i] for i in valuation.above(threshold)]
                == [r.attraction_id for r in retained])
        assert valuation.ftv.tolist() == [list(r.ftv.as_tuple()) for r in ranked]
        assert valuation.crisp.tolist() == [r.crisp for r in ranked]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from([0.0, 32.9999996, 33.0, 33.0000004, 33.00005,
                                               65.9999996, 66.0, 66.0000004, 66.00005, 128.0]),
                              st.floats(0.0, 128.0)),
                    min_size=1, max_size=12))
    def test_filter_is_the_tier_rule(self, values):
        """With the default thresholds ``above(66)`` is exactly the High rows
        and ``above(33)`` exactly the rows not Low, values printed as a
        threshold included: both rules compare the printed value."""
        catalogue = make_catalogue(("f1", 0.0, 128.0, 1.0), target=(0.0, 128.0))
        scores = np.array([[(value,) * 3] for value in values])
        valuation = evaluate_attractions([f"a{i}" for i in range(len(values))], scores, catalogue)
        low, high = DEFAULT_THRESHOLDS
        tiers = list(enumerate(valuation.tiers))
        assert valuation.above(high) == [i for i, tier in tiers if tier == "High"]
        assert valuation.above(low) == [i for i, tier in tiers if tier != "Low"]


# crisp values printed exactly as a threshold, values halfway between two
# 6-digit texts (33.00005, 65.99995, 99.99995, 127.9995), and the floats
# next to each, on the target [0, 128]
TIER_EDGES = [float(y) for x in (0.0, 33.0, 33.00005, 33.0001, 65.99995, 66.0, 66.0001, 99.99995,
                                 127.9995, 128.0)
              for y in (np.nextafter(x, -1.0), x, np.nextafter(x, 129.0)) if 0.0 <= y <= 128.0]


class TestTierColumn:
    """``Valuation.printed`` and ``evaluate_attractions``' tiers, each taken
    from one ``%.6g`` column, are ``round6`` and ``classify`` of each value."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from(TIER_EDGES), st.floats(0.0, 128.0)),
                    min_size=1, max_size=12),
           st.lists(st.sampled_from([33.0, 33.0001, 66.0, 66.0001, 99.9999, 100.0, 128.0]),
                    min_size=2, max_size=2, unique=True).map(sorted).map(tuple),
           st.sampled_from(fuzzy.DEFUZZIFY_METHODS))
    def test_equals_round6_and_classify(self, values, thresholds, method):
        catalogue = make_catalogue(("f1", 0.0, 128.0, 1.0), target=(0.0, 128.0))
        scores = np.array([[(value,) * 3] for value in values])
        valuation = evaluate_attractions([f"a{i}" for i in range(len(values))], scores,
                                         catalogue, method=method, thresholds=thresholds)
        crisp = valuation.crisp.tolist()
        assert valuation.printed == [round6(value) for value in crisp]
        assert valuation.tiers == tuple(classify(value, thresholds, (0.0, 128.0))
                                        for value in crisp)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False), max_size=8))
    @example([-0.0, 0.0, 5e-324, -5e-324, sys.float_info.max, 0.9999995, 33.00005, 1e16,
              -1e-5, math.inf, -math.inf])
    def test_printed_is_round6(self, values):
        """The sign of zero included: -0.0 prints as 0."""
        crisp = np.array(values, dtype=float)
        valuation = Valuation(tuple(f"a{i}" for i in range(len(values))),
                              np.zeros((len(values), 3)), crisp, DEFAULT_THRESHOLDS)
        assert list(map(repr, valuation.printed)) == [repr(round6(value)) for value in values]

    def test_first_value_off_the_scale_in_input_order(self):
        """Weights summing to 1.009 put 4.99, 5 and 4.995 past the scale's
        end, 100: the error names 'b', the first of them in input order, not
        'c', the first in rank order, with ``classify``'s words for its value,
        which the reference formulas give."""
        factors = [("f1", 0, 5, 0.5), ("f2", 0, 5, 0.509)]
        catalogue = make_catalogue(*factors)
        ids, scores = ["a", "b", "c", "d"], np.array([[(v,) * 3] * 2 for v in (4, 4.99, 5, 4.995)])
        value = oracles.centroid(oracles.weighted_ftv({"f1": (4.99,) * 3, "f2": (4.99,) * 3},
                                                      factors, 0.0, 100.0))
        assert value > 100.0
        with pytest.raises(ValueError) as refused:
            classify(value)
        with pytest.raises(InputError) as raised:
            evaluate_attractions(ids, scores, catalogue)
        assert str(raised.value) == f"attraction 'b': {refused.value}; factor weights sum to 1.009"
