"""Acceptance suite: one test per contract-level criterion, each printing a
single PASS/FAIL line (run with ``pytest -s`` to see them inline).

Every numeric claim is checked against the independent reference
implementations in ``oracles.py`` at the stated tolerance; nothing here is
allowed to weaken a bound to make a test pass.
"""

import csv
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from tourval import (
    FactorCatalogue,
    FactorDefinition,
    HotSpot,
    SourceRange,
    TargetRange,
    derive_weights,
    plan_tour,
    validate_pairwise,
    validate_weights,
)
from tourval import datasets
from tourval.rescale import apply_range_policy, rescale_endpoints
from tourval.spatial import haversine_km
from tourval.valuation import evaluate_attractions

import oracles
from test_spatial import CENTER, offset_point


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"\n[criterion {number}] FAIL  {title}")
        raise
    print(f"\n[criterion {number}] PASS  {title}")


def close(p: float, q: float, tol: float = 1e-9) -> bool:
    return abs(p - q) <= tol * max(1.0, abs(p), abs(q))


def draw_span(rng, lo=-1e4, hi=1e4, min_width=1e-3):
    a, b = sorted(rng.uniform(lo, hi, 2))
    if b - a < min_width:
        b = a + min_width
    return a, b


def test_01_fuzzy_rescaling_equals_endpointwise_affine_map():
    with criterion(1, "fuzzy rescaling == endpoint-wise affine map, 10^4 triples, "
                      "1e-9 relative, < 5 s"):
        rng = np.random.default_rng(101)
        start = time.perf_counter()
        for _ in range(10_000):
            x, y = draw_span(rng)
            m, big_m = draw_span(rng)
            units = np.sort(rng.uniform(0.0, 1.0, 3))
            a, b, c = (min(x + (y - x) * u, y) for u in units)
            admitted = apply_range_policy((a, b, c), x, y, "strict", lambda _: "")
            got = rescale_endpoints(admitted, x, y, TargetRange(m, big_m))
            want = oracles.rescale3((a, b, c), x, y, m, big_m)
            for component, expected in zip(got.tolist(), want):
                assert close(component, expected), (x, y, m, big_m, a, b, c)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_02_degenerate_fuzzy_index_equals_crisp_index():
    with criterion(2, "degenerate fuzzy index == crisp min-max index, 10^3 "
                      "instances, 1e-9"):
        rng = np.random.default_rng(202)
        for _ in range(1_000):
            n = int(rng.integers(1, 9))
            minima = rng.uniform(-10, 10, n)
            maxima = minima + rng.uniform(0.5, 10, n)
            weights = rng.dirichlet(np.ones(n))
            ratings = rng.uniform(minima, maxima)

            catalogue = FactorCatalogue(
                factors=tuple(
                    FactorDefinition(id=f"f{k}", name=f"f{k}",
                                     src=SourceRange(minima[k], maxima[k]),
                                     weight=weights[k])
                    for k in range(n)),
                target=TargetRange(0.0, 5.0))
            scores = np.repeat(ratings[None, :, None], 3, axis=2)   # (1, n, 3) point TFNs
            crisp = evaluate_attractions(["a"], scores, catalogue).crisp[0]
            want = oracles.crisp_minmax_index(ratings, weights, minima, maxima)
            assert close(crisp, want), (n, crisp, want)


def test_03_published_weight_column_needs_loose_tolerance():
    with criterion(3, "published weight column passes at 0.01, fails at 0.001"):
        weights = datasets.santiago_catalogue().weights
        assert validate_weights(weights, tolerance=0.01).ok
        assert not validate_weights(weights, tolerance=0.001).ok


def test_04_published_top_five_classify_high_in_listing_order():
    with criterion(4, "published top-five values all High, survive the filter, "
                      "rank in listing order"):
        listed = datasets.santiago_reference_ftv()
        # one factor of weight 1 whose source range is the target: each FTV is its score
        catalogue = FactorCatalogue(
            factors=(FactorDefinition(id="ftv", name="ftv", src=SourceRange(0.0, 100.0),
                                      weight=1.0),),
            target=TargetRange(0.0, 100.0))
        v = evaluate_attractions([name for name, _ in listed],
                                 np.array([[ftv.as_tuple()] for _, ftv in listed]), catalogue)
        hand_centroids = [85.73667, 85.05, 84.08667, 83.83, 83.70]
        valued = {name: (v.tiers[i], v.crisp[i].item()) for i, name in enumerate(v.ids)}
        for (name, _), want in zip(listed, hand_centroids):
            tier, crisp = valued[name]
            assert tier == "High", (name, crisp)
            assert crisp == pytest.approx(want, abs=5e-4)

        assert len(v.above(66)) == 5
        assert v.ids == tuple(name for name, _ in listed)
        assert v.ids[0] == "House of the Trova"


def test_05_negative_range_row_rescales_to_published_triplet():
    with criterion(5, "negative-range factor row rescales to (76.4, 96.4, 99.6) "
                      "within 1e-9"):
        admitted = apply_range_policy((-1.18, -0.18, -0.02), -5.0, 0.0, "strict", lambda _: "")
        got = rescale_endpoints(admitted, -5.0, 0.0, TargetRange(0.0, 100.0))
        want = oracles.rescale3((-1.18, -0.18, -0.02), -5.0, 0.0, 0.0, 100.0)
        for g, w, published in zip(got.tolist(), want, (76.4, 96.4, 99.6)):
            assert close(g, w)
            assert close(g, published)


def test_06_ranking_invariant_across_target_ranges():
    with criterion(6, "rank permutation identical across random target ranges, "
                      "100 catalogues"):
        rng = np.random.default_rng(606)
        for _ in range(100):
            n = int(rng.integers(2, 8))
            minima = rng.uniform(-10, 10, n)
            maxima = minima + rng.uniform(0.5, 10, n)
            weights = rng.dirichlet(np.ones(n))
            # (attractions, factors, 3): each attraction's sorted draws
            scores = np.array([np.sort(rng.uniform(minima, maxima, size=(3, n)), axis=0).T
                               for _ in range(int(rng.integers(3, 8)))])
            ids = [f"a{i}" for i in range(len(scores))]

            orders = []
            for _ in range(2):
                m, big_m = draw_span(rng, -100, 100, 0.5)
                catalogue = FactorCatalogue(
                    factors=tuple(
                        FactorDefinition(id=f"f{k}", name=f"f{k}",
                                         src=SourceRange(minima[k], maxima[k]),
                                         weight=weights[k])
                        for k in range(n)),
                    target=TargetRange(m, big_m))
                orders.append(evaluate_attractions(ids, scores, catalogue).ids)
            assert orders[0] == orders[1], orders


def test_07_weight_recovery_and_inconsistency_flag():
    with criterion(7, "consistent matrices recovered within 1e-6 (CR <= 1e-6); "
                      "circular judgements flagged"):
        rng = np.random.default_rng(707)
        for n in range(2, 11):
            for _ in range(5):
                w = rng.dirichlet(np.ones(n))
                w = np.clip(w, 1e-3, None)
                w /= w.sum()
                matrix = w[:, None] / w[None, :]
                report = derive_weights(validate_pairwise(matrix))
                assert np.allclose(report.weights, w, atol=1e-6), (n, report.weights, w)
                assert report.consistency_ratio <= 1e-6

        circular = validate_pairwise([[1, 2, 0.5], [0.5, 1, 4], [2, 0.25, 1]])
        report = derive_weights(circular)
        assert report.consistency_ratio > 0.1
        assert report.inconsistent


def test_08_tour_planner_matches_brute_force_and_square_perimeter():
    with criterion(8, "tour planner equals permutation brute force exactly "
                      "(n <= 8); 1 km square gives ~4 km"):
        rng = np.random.default_rng(808)
        for n in range(3, 9):
            for _ in range(10):
                coords = rng.uniform(0, 3, size=(n, 2))
                spots = [HotSpot(offset_point(CENTER, e, v), 1.0, f"H{i + 1}")
                         for i, (e, v) in enumerate(coords)]
                tour = plan_tour(spots)
                labels = [h.label for h in spots]
                dist = [[haversine_km(a.center, b.center) for b in spots]
                        for a in spots]
                want_cost, want_order = oracles.brute_force_tour(labels, dist, 0)
                assert tour.length_km == want_cost, (n, tour.length_km, want_cost)
                assert [h.label for h in tour.stops] == [labels[i] for i in want_order]

        square = [HotSpot(offset_point(CENTER, e, v), 1.0, f"H{i + 1}")
                  for i, (e, v) in enumerate([(0, 0), (1, 0), (1, 1), (0, 1)])]
        tour = plan_tour(square)
        assert tour.length_km == pytest.approx(4.0, rel=0.005)


def test_09_end_to_end_sample_run_is_reproducible_and_oracle_accurate(tmp_path):
    with criterion(9, "sample run byte-identical across invocations, agrees with "
                      "the file-level oracle to 1e-9, < 10 s"):
        sample = datasets.santiago_sample_dir()
        out_dir = tmp_path / "out"
        command = [sys.executable, "-m", "tourval.cli", "run",
                   "--config", str(sample / "config.json"), "--out", str(out_dir)]

        start = time.perf_counter()
        first = subprocess.run(command, capture_output=True, text=True)
        assert first.returncode == 0, first.stderr
        snapshot = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        second = subprocess.run(command, capture_output=True, text=True)
        assert second.returncode == 0, second.stderr
        elapsed = time.perf_counter() - start
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == snapshot
        assert elapsed < 10.0, f"two runs took {elapsed:.2f}s"

        # full-precision agreement, then the rounded rendering of the file
        from tourval.pipeline import load_config, run_pipeline
        from tourval.rounding import format_number
        output = run_pipeline(load_config(sample / "config.json").replace(
            out_dir=tmp_path / "mem"))
        want = oracles.pipeline_oracle(sample)
        results = output.results
        for attraction_id, got_ftv, got_crisp in zip(results.ids, results.ftv.tolist(),
                                                     results.crisp.tolist()):
            ftv, crisp = want[attraction_id]
            assert close(got_crisp, crisp)
            for g, w in zip(got_ftv, ftv):
                assert close(g, w)

        with open(out_dir / "results.csv", newline="", encoding="utf-8") as fh:
            rows = {row["attraction_id"]: row for row in csv.DictReader(fh)}
        assert len(rows) == 10
        for attraction_id, (ftv, crisp) in want.items():
            assert rows[attraction_id]["crisp"] == format_number(crisp)
            assert rows[attraction_id]["ftv_mode"] == format_number(ftv[1])
