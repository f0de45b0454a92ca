import json
import math
import pickle
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tourval import (
    EARTH_RADIUS_KM,
    DensityGrid,
    GeoPoint,
    HotSpot,
    ScoredPoint,
    Tour,
    detect_hotspots,
    estimate_duration,
    haversine_km,
    kde_heatmap,
    merge_hotspots,
    plan_tour,
)
from tourval import render, spatial
from tourval.errors import ConfigError, NumericError
from tourval.render import _density_features
from tourval.rounding import round6
from tourval.spatial import MAX_GRID_CELLS, _grid_frame, _percentile, _unproject

import oracles

CENTER = GeoPoint(-75.8267, 20.0211)


def offset_point(base: GeoPoint, east_km: float, north_km: float) -> GeoPoint:
    """Place a point a metric offset away using the same small-angle
    geometry the grid uses."""
    dlat = math.degrees(north_km / EARTH_RADIUS_KM)
    dlon = math.degrees(east_km / (EARTH_RADIUS_KM * math.cos(math.radians(base.lat))))
    return GeoPoint(base.lon + dlon, base.lat + dlat)


class TestGeoPoint:
    def test_valid(self):
        GeoPoint(-75.8, 20.0)

    @pytest.mark.parametrize("lon,lat", [(-181, 0), (181, 0), (0, 91), (0, -91),
                                         (float("nan"), 0)])
    def test_out_of_domain_rejected(self, lon, lat):
        with pytest.raises(ValueError):
            GeoPoint(lon, lat)

    def test_scored_point_weight_nonnegative(self):
        with pytest.raises(ValueError):
            ScoredPoint(CENTER, -1.0)


class TestHaversine:
    def test_zero_for_same_point(self):
        assert haversine_km(CENTER, CENTER) == 0.0

    def test_one_degree_longitude_at_equator(self):
        a, b = GeoPoint(0, 0), GeoPoint(1, 0)
        want = 2 * math.pi * EARTH_RADIUS_KM / 360.0
        assert haversine_km(a, b) == pytest.approx(want, rel=1e-9)

    def test_symmetry(self):
        a = GeoPoint(-75.8, 20.0)
        b = GeoPoint(-75.9, 20.1)
        assert haversine_km(a, b) == haversine_km(b, a)

    def test_metric_offset_roundtrip(self):
        b = offset_point(CENTER, 1.0, 0.0)
        assert haversine_km(CENTER, b) == pytest.approx(1.0, rel=1e-3)


class TestKde:
    def test_empty_input_gives_single_zero_cell(self):
        grid = kde_heatmap([], bandwidth_m=100, cell_m=10)
        assert grid.values.shape == (1, 1)
        assert grid.values[0, 0] == 0.0

    def test_bad_parameters_rejected(self):
        with pytest.raises(ConfigError):
            kde_heatmap([ScoredPoint(CENTER, 1.0)], bandwidth_m=0)
        with pytest.raises(ConfigError):
            kde_heatmap([ScoredPoint(CENTER, 1.0)], cell_m=-5)

    def test_weights_summing_past_the_largest_float_rejected(self):
        """Two co-located weights of 1e308 would overflow the peak cell."""
        with pytest.raises(NumericError, match="the weights of the 2 points sum past"):
            kde_heatmap([ScoredPoint(CENTER, 1e308)] * 2)

    def test_single_point_peak_value(self):
        weight = 70.0
        grid = kde_heatmap([ScoredPoint(CENTER, weight)], bandwidth_m=100, cell_m=10)
        # the lone point sits at a cell centre, where K(0) = 15/16
        assert grid.values.max() == pytest.approx(weight * 15.0 / 16.0, rel=1e-9)

    def test_mass_bounded_by_kernel_peak(self):
        points = [ScoredPoint(offset_point(CENTER, dx, dy), 10.0)
                  for dx, dy in [(0, 0), (0.05, 0), (0, 0.05)]]
        grid = kde_heatmap(points, bandwidth_m=100, cell_m=10)
        assert grid.values.max() <= 30.0 * 15.0 / 16.0 + 1e-9

    def test_zero_weight_point_adds_nothing(self):
        base = [ScoredPoint(CENTER, 5.0), ScoredPoint(offset_point(CENTER, 0.3, 0), 5.0)]
        with_ghost = base + [ScoredPoint(offset_point(CENTER, 0.1, 0.0), 0.0)]
        a = kde_heatmap(base, bandwidth_m=100, cell_m=10)
        b = kde_heatmap(with_ghost, bandwidth_m=100, cell_m=10)
        assert np.array_equal(a.values, b.values)

    @given(st.floats(0.05, 0.95), st.floats(0.05, 0.95), st.floats(0.1, 50.0))
    @settings(max_examples=40, deadline=None)
    def test_adding_interior_mass_never_decreases_cells(self, u, v, weight):
        corners = [ScoredPoint(offset_point(CENTER, 0, 0), 3.0),
                   ScoredPoint(offset_point(CENTER, 0.4, 0.4), 3.0)]
        extra = ScoredPoint(offset_point(CENTER, 0.4 * u, 0.4 * v), weight)
        before = kde_heatmap(corners, bandwidth_m=100, cell_m=20)
        after = kde_heatmap(corners + [extra], bandwidth_m=100, cell_m=20)
        assert after.values.shape == before.values.shape
        assert np.all(after.values >= before.values - 1e-12)

    def test_grid_geometry_accessors(self):
        grid = kde_heatmap([ScoredPoint(CENTER, 1.0)], bandwidth_m=100, cell_m=10)
        assert grid.nrows == grid.values.shape[0]
        assert grid.ncols == grid.values.shape[1]
        lons, lats = grid.edges()
        assert len(lons) == grid.ncols + 1
        assert len(lats) == grid.nrows + 1
        assert lons == sorted(lons) and lats == sorted(lats)
        centre = grid.cell_center(0, 0)
        half_diagonal_km = grid.cell_m * math.sqrt(2) / 2 / 1000
        for lon in lons[:2]:
            for lat in lats[:2]:
                corner = GeoPoint(lon, lat)
                assert haversine_km(centre, corner) <= half_diagonal_km * 1.01

    def test_values_are_frozen(self):
        grid = kde_heatmap([ScoredPoint(CENTER, 1.0)], bandwidth_m=100, cell_m=10)
        with pytest.raises(ValueError):
            grid.values[0, 0] = 99.0


class TestDensityGrid:
    @pytest.mark.parametrize("bad", [-1.0, -5e-324, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("at", [(0, 0), (1, 2)])
    def test_values_must_be_finite_and_non_negative(self, bad, at):
        values = np.ones((2, 3))
        values[at] = bad
        with pytest.raises(ValueError, match="grid values must be finite and non-negative"):
            DensityGrid(CENTER, 0.0, 0.0, 10.0, values)

    @pytest.mark.parametrize("shape", [(), (3,), (2, 2, 2), (0, 3), (3, 0)])
    def test_values_must_be_a_2d_array(self, shape):
        with pytest.raises(ValueError, match="grid values must be a 2-d array"):
            DensityGrid(CENTER, 0.0, 0.0, 10.0, np.ones(shape))

    def test_zeros_of_both_signs_are_accepted(self):
        grid = DensityGrid(CENTER, 0.0, 0.0, 10.0, np.array([[0.0, -0.0]]))
        assert grid.values.tolist() == [[0.0, 0.0]]

    def test_values_are_a_copy_of_the_callers_array(self):
        values = np.ones((2, 2))
        grid = DensityGrid(CENTER, 0.0, 0.0, 10.0, values)
        values[0, 0] = 5.0
        assert grid.values[0, 0] == 1.0


WEIGHTS = st.one_of(st.just(0.0), st.floats(0.0, 100.0))


@st.composite
def kde_cases(draw, max_points=6, weights=WEIGHTS):
    """(points, bandwidth, cell): up to ``max_points`` points within 400 m,
    some repeated, their weights drawn from ``weights``, some of them 0;
    cells from 2 m to wider than the bandwidth."""
    offsets = draw(st.lists(st.tuples(st.floats(0.0, 0.4), st.floats(0.0, 0.4), weights),
                            min_size=1, max_size=max_points))
    repeats = draw(st.lists(st.sampled_from(offsets), max_size=2))
    points = [ScoredPoint(offset_point(CENTER, e, n), w) for e, n, w in offsets + repeats]
    return points, draw(st.floats(5.0, 250.0)), draw(st.floats(2.0, 300.0))


def _points(*rows):
    return [ScoredPoint(offset_point(CENTER, e, n), w) for e, n, w in rows]


class TestKdeMatchesFullGrid:
    """The windowed KDE against the full-grid loop it replaced, bit for bit."""

    @given(kde_cases())
    @settings(max_examples=150, deadline=None)
    @example((_points((0.0, 0.0, 7.0)), 100.0, 10.0))                       # single point
    @example((_points((0.0, 0.0, 3.0), (0.2, 0.1, 5.0)), 40.0, 130.0))        # cell > bandwidth
    @example((_points((0.0, 0.0, 3.0), (0.15, 0.05, 5.0)), 97.3, 10.0))       # h not a multiple
    @example((_points((0.0, 0.0, 2.0), (0.0, 0.3, 2.0), (0.3, 0.0, 1.0),
                      (0.3, 0.3, 4.0), (0.0, 0.15, 6.0)), 100.0, 10.0))       # bbox edges
    @example((_points((0.1, 0.1, 5.0), (0.1, 0.1, 5.0), (0.2, 0.0, 1.0)), 100.0, 7.0))
    @example((_points((0.1, 0.1, 0.0), (0.0, 0.0, 4.0), (0.2, 0.2, 0.0)), 100.0, 10.0))
    def test_bytes_equal_full_grid_reference(self, case):
        points, bandwidth, cell = case
        grid = kde_heatmap(points, bandwidth_m=bandwidth, cell_m=cell)
        x0, y0, values = oracles.full_grid_kde(
            [(p.point.lon, p.point.lat, p.weight) for p in points], bandwidth, cell)
        assert (grid.x0, grid.y0) == (x0, y0)
        assert grid.values.shape == values.shape
        assert grid.values.tobytes() == values.tobytes()


class TestKdeMatchesPerPointLoop:
    """The KDE on index arrays against the per-point window loop it
    replaced, bit for bit, with its points in batches of any size."""

    @staticmethod
    def assert_same(points, bandwidth, cell, batch_cells=spatial.KDE_BATCH_CELLS):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(spatial, "KDE_BATCH_CELLS", batch_cells)
            grid = kde_heatmap(points, bandwidth_m=bandwidth, cell_m=cell)
        center, x0, y0, values = oracles.windowed_kde(
            [(p.point.lon, p.point.lat, p.weight) for p in points], bandwidth, cell)
        assert (grid.center.lon, grid.center.lat) == center
        assert (grid.x0, grid.y0) == (x0, y0)
        assert grid.values.shape == values.shape
        assert grid.values.tobytes() == values.tobytes()

    # a bound of one cell gives batches of one point; 5,000 cells, of a few points
    @given(kde_cases(max_points=30), st.sampled_from([1, 5000, spatial.KDE_BATCH_CELLS]))
    @settings(max_examples=150, deadline=None)
    @example((_points((0.0, 0.0, 7.0)), 100.0, 10.0), 1)                    # single point
    @example((_points((0.0, 0.0, 3.0), (0.2, 0.1, 5.0)), 40.0, 130.0), 1)     # cell > bandwidth
    @example((_points((0.0, 0.0, 2.0), (0.0, 0.3, 2.0), (0.3, 0.0, 1.0),      # bbox edges:
                      (0.3, 0.3, 4.0), (0.0, 0.15, 6.0)), 100.0, 10.0), 5000)   # clipped windows
    @example((_points((0.1, 0.1, 5.0), (0.1, 0.1, 5.0), (0.2, 0.0, 1.0)), 100.0, 7.0), 1)
    @example((_points((0.1, 0.1, 0.0), (0.0, 0.0, 4.0), (0.2, 0.2, 0.0)), 100.0, 10.0), 1)
    def test_bytes_equal_per_point_reference(self, case, batch_cells):
        self.assert_same(*case, batch_cells)

    def test_batches_at_the_package_bound(self):
        """A 120 m bandwidth on 2 m cells gives windows of 123 x 123 cells
        and batches of two points, so seven points, some coincident and
        some on the bounding box's edges, cross three batch boundaries."""
        assert spatial.KDE_BATCH_CELLS // 123 ** 2 == 2
        points = _points((0.0, 0.0, 2.0), (0.3, 0.2, 5.0), (0.3, 0.2, 1.0), (0.0, 0.2, 0.0),
                         (0.15, 0.0, 3.5), (0.1, 0.1, 8.0), (0.3, 0.0, 2.5))
        self.assert_same(points, 120.0, 2.0)


class TestKdeGridAdopted:
    """``kde_heatmap``'s grid holds its accumulator, and finds its positive
    cells from the cells its windows touched; the public constructor copies
    the same values and finds them by a pass over the grid."""

    # a weight of 5e-324 leaves every term 0 or 5e-324; one of 1e-320 underflows at the rim
    @given(kde_cases(max_points=12, weights=st.one_of(WEIGHTS, st.sampled_from([5e-324,
                                                                                 1e-320]))))
    @settings(max_examples=150, deadline=None)
    @example((_points((0.0, 0.0, 5e-324)), 100.0, 10.0))                    # all terms underflow
    @example((_points((0.0, 0.0, 2.0), (0.0, 0.3, 1e-320), (0.3, 0.0, 0.0),
                      (0.3, 0.3, 4.0), (0.3, 0.3, 4.0)), 100.0, 10.0))        # bbox corners
    def test_equals_the_grid_built_from_its_values(self, case):
        points, bandwidth, cell = case
        grid = kde_heatmap(points, bandwidth_m=bandwidth, cell_m=cell)
        built = DensityGrid(grid.center, grid.x0, grid.y0, grid.cell_m, grid.values)
        assert grid.values.tobytes() == built.values.tobytes()
        assert grid.positive.dtype == built.positive.dtype
        assert grid.positive.tolist() == built.positive.tolist()
        assert not (grid.values.flags.writeable or grid.positive.flags.writeable)
        assert grid == built
        for record in grid, built:
            with pytest.raises(TypeError):
                hash(record)
        for twin in grid.replace(), pickle.loads(pickle.dumps(grid)):
            assert twin == grid and twin.positive.tolist() == grid.positive.tolist()

    def test_no_second_grid(self):
        """Two points 4 km apart at 10 m cells: a grid of 355 x 439 cells,
        held once, with a one-byte mask, at the traced peak."""
        points = [ScoredPoint(GeoPoint(-75.83, 20.02), 1.0),
                  ScoredPoint(GeoPoint(-75.79, 20.05), 1.0)]
        tracemalloc.start()
        try:
            grid = kde_heatmap(points, bandwidth_m=100.0, cell_m=10.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grid.values.shape == (355, 439)
        assert peak < 1.5 * grid.values.nbytes, f"{peak / grid.values.nbytes:.2f} grids"


class TestDensityFeatures:
    def test_rings_equal_per_cell_unprojected_corners(self):
        grid = kde_heatmap(_points((0.0, 0.0, 3.0), (0.12, 0.05, 5.0), (0.05, 0.2, 0.0)),
                           bandwidth_m=60.0, cell_m=9.0)
        want = []
        for row in range(grid.nrows):
            for col in range(grid.ncols):
                value = float(grid.values[row, col])
                if value <= 0.0:
                    continue
                xs = (grid.x0 + col * grid.cell_m, grid.x0 + (col + 1) * grid.cell_m)
                ys = (grid.y0 + row * grid.cell_m, grid.y0 + (row + 1) * grid.cell_m)
                corners = [_unproject(x, y, grid.center)
                           for x, y in ((xs[0], ys[0]), (xs[1], ys[0]),
                                        (xs[1], ys[1]), (xs[0], ys[1]), (xs[0], ys[0]))]
                ring = [[round(c.lon, 6), round(c.lat, 6)] for c in corners]
                want.append({"type": "Feature",
                             "geometry": {"type": "Polygon", "coordinates": [ring]},
                             "properties": {"feature_type": "density",
                                            "density": float(f"{value:.6g}")}})
        got = json.loads("[" + ",\n".join(_density_features(grid)) + "]")
        assert 0 < len(got) < grid.nrows * grid.ncols
        assert got == want

    def test_zero_grid_has_no_polygons(self):
        assert list(_density_features(DensityGrid(CENTER, 0.0, 0.0, 10.0,
                                                  np.zeros((3, 4))))) == []

    # densities whose 6-digit text switches between fixed and exponent notation,
    # rounds up across a power of ten, or carries fewer digits (subnormals)
    EDGE_DENSITIES = [1e-05, 9.999995e-05, 0.0001, 123456.5, 999999.5, 1e6, 1.5e15,
                      9.999995e15, 1e16, 1e300, 5e-324, 1.234567e-310]

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    def test_text_is_json_dumps_of_the_reference(self, nrows, ncols, data):
        """Each feature's text is compact ``json.dumps`` of the reference
        feature dict (``oracles.compact``), its density printed as
        ``json.dumps(round6(value))``."""
        value = st.one_of(st.just(0.0), st.sampled_from(self.EDGE_DENSITIES),
                          st.floats(5e-324, 1e300))
        values = np.reshape(data.draw(st.lists(value, min_size=nrows * ncols,
                                               max_size=nrows * ncols)), (nrows, ncols))
        grid = DensityGrid(GeoPoint(data.draw(st.floats(-179.0, 179.0)),
                                    data.draw(st.floats(-80.0, 80.0))),
                           data.draw(st.floats(-5000.0, 5000.0)),
                           data.draw(st.floats(-5000.0, 5000.0)),
                           data.draw(st.floats(0.5, 1000.0)), values)
        want = list(map(oracles.compact, oracles.density_features(grid)))
        assert ",\n".join(_density_features(grid)) == ",\n".join(want)
        densities = [re.search(r'"density":([^,]+)', text)[1] for text in want]
        assert densities == [json.dumps(round6(v)) for v in values[values > 0].tolist()]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.floats(1e-4, 1e6), st.floats(5e-324, 1.7976931348623157e308),
                              st.integers(1, 10**17).map(float)), min_size=1, max_size=20))
    @example([1e-4, 9.99995e-5, 99999.95, 999999.0, 999999.5, 1e6, 1e15, 1e16, 39.0, 1.0])
    def test_density_text_is_the_round_trip_of_its_6_digit_text(self, values):
        """Each density prints as ``float.__repr__`` of its 6-digit text reads
        back, also where that text is kept as it is."""
        grid = DensityGrid(CENTER, 0.0, 0.0, 10.0, np.array([values]))
        got = re.findall(r'"density":([^,]+)', "".join(_density_features(grid)))
        assert got == [float.__repr__(float(f"{v:.6g}")) for v in values]


class TestHotspots:
    def test_uniform_surface_has_no_hotspots(self):
        grid = DensityGrid(CENTER, 0.0, 0.0, 10.0, np.full((5, 5), 3.0))
        assert detect_hotspots(grid) == []

    def test_single_peak_found_and_labelled(self):
        values = np.zeros((5, 5))
        values[2, 3] = 7.0
        grid = DensityGrid(CENTER, 0.0, 0.0, 10.0, values)
        spots = detect_hotspots(grid, percentile=50.0)
        assert len(spots) == 1
        assert spots[0].label == "H1"
        assert spots[0].score == 7.0

    def test_two_separated_kernels_give_two_hotspots(self):
        points = [ScoredPoint(CENTER, 5.0),
                  ScoredPoint(offset_point(CENTER, 0.5, 0.0), 4.0)]
        grid = kde_heatmap(points, bandwidth_m=100, cell_m=10)
        spots = detect_hotspots(grid, percentile=50.0)
        assert len(spots) == 2
        # strongest first, each within a cell diagonal of its point
        assert spots[0].score > spots[1].score
        assert haversine_km(spots[0].center, points[0].point) < 0.015
        assert haversine_km(spots[1].center, points[1].point) < 0.015

    def test_scores_reach_percentile_threshold(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(0, 10, size=(20, 20))
        grid = DensityGrid(CENTER, 0.0, 0.0, 10.0, values)
        spots = detect_hotspots(grid, percentile=90.0)
        threshold = np.percentile(values[values > 0], 90.0)
        assert spots
        assert all(s.score >= threshold for s in spots)

    def test_ordering_is_deterministic(self):
        values = np.zeros((4, 6))
        values[1, 1] = 5.0
        values[2, 4] = 5.0
        grid = DensityGrid(CENTER, 0.0, 0.0, 10.0, values)
        spots = detect_hotspots(grid, percentile=50.0)
        assert [s.label for s in spots] == ["H1", "H2"]
        assert spots[0].score == spots[1].score
        # equal scores fall back to row-major cell order
        assert spots[0].center.lat < spots[1].center.lat

    def test_percentile_domain(self):
        grid = DensityGrid(CENTER, 0.0, 0.0, 10.0, np.ones((2, 2)))
        with pytest.raises(ConfigError, match="percentile"):
            detect_hotspots(grid, percentile=0.0)
        with pytest.raises(ConfigError, match="percentile"):
            detect_hotspots(grid, percentile=100.0)


@st.composite
def plateau_grids(draw):
    """Grids of up to 8 x 8 cells on at most four levels besides 0, so
    that plateaus and ties between neighbours are common."""
    nrows, ncols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    levels = draw(st.lists(st.floats(1e-300, 1e6), min_size=1, max_size=4)) + [0.0]
    return np.reshape(draw(st.lists(st.sampled_from(levels), min_size=nrows * ncols,
                                    max_size=nrows * ncols)), (nrows, ncols))


class TestHotspotsMatchFullGridTest:
    """The test of candidates against their neighbours, against the eight
    full-grid passes it replaced: the same hotspots, in the same order."""

    PERCENTILES = st.one_of(st.floats(0.0, 100.0, exclude_min=True, exclude_max=True),
                            st.sampled_from([1e-9, 0.01, 1.0, 50.0, 99.0, 99.99, 99.999999]))

    @staticmethod
    def assert_same(values, percentile):
        grid = DensityGrid(CENTER, -12.5, 7.25, 9.0, values)
        want = [HotSpot(grid.cell_center(row, col), score, f"H{i + 1}")
                for i, (score, row, col) in enumerate(oracles.strict_maxima(grid.values,
                                                                             percentile))]
        assert detect_hotspots(grid, percentile=percentile) == want

    @given(plateau_grids(), PERCENTILES)
    @settings(max_examples=300, deadline=None)
    # a strict maximum in each corner, whose neighbours off the grid count for nothing
    @example(np.array([[5.0, 1.0, 1.0, 4.0], [1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 1.0],
                       [3.0, 1.0, 1.0, 2.0]]), 50.0)
    @example(np.array([[1.0, 0.5], [0.5, 0.5]]), 50.0)
    @example(np.array([[0.5, 1.0], [0.5, 0.5]]), 50.0)
    @example(np.array([[0.5, 0.5], [1.0, 0.5]]), 50.0)
    @example(np.array([[0.5, 0.5], [0.5, 1.0]]), 50.0)
    # one row and one column: maxima at both ends, a plateau and a single cell
    @example(np.array([[3.0, 1.0, 2.0, 2.0, 0.0, 4.0]]), 1.0)
    @example(np.array([[3.0], [1.0], [2.0], [2.0], [0.0], [4.0]]), 1.0)
    @example(np.array([[0.0, 2.0, 1.0]]), 50.0)
    @example(np.array([[0.0], [2.0], [1.0]]), 50.0)
    @example(np.array([[7.0]]), 50.0)
    def test_plateaus_and_ties(self, values, percentile):
        self.assert_same(values, percentile)

    @given(st.integers(0, 2**32 - 1), PERCENTILES)
    @settings(max_examples=50, deadline=None)
    def test_all_positive_noise(self, seed, percentile):
        rng = np.random.default_rng(seed)
        self.assert_same(rng.uniform(0.5, 1.0, size=(40, 30)).round(2), percentile)

    @pytest.mark.parametrize("percentile", [1e-9, 1.0, 50.0, 90.0, 99.9, 99.999999])
    def test_kernel_surface(self, percentile):
        points = _points((0.0, 0.0, 5.0), (0.05, 0.02, 4.0), (0.3, 0.25, 4.0), (0.31, 0.0, 2.0))
        self.assert_same(kde_heatmap(points, bandwidth_m=80.0, cell_m=8.0).values, percentile)


class TestEdgesMatchPerEdgeLoop:
    """``DensityGrid.edges`` on arrays against the per-edge loop of
    ``GeoPoint``s it replaced, bit for bit."""

    @given(st.floats(-170.0, 170.0), st.floats(-80.0, 80.0), st.floats(-5000.0, 5000.0),
           st.floats(-5000.0, 5000.0), st.floats(0.01, 500.0), st.integers(1, 200),
           st.integers(1, 200))
    @settings(max_examples=300, deadline=None)
    @example(0.0, 0.0, 0.0, 0.0, 10.0, 1, 1)
    @example(-70.65, -33.44, -1234.5, -987.25, 7.0, 291, 292)
    @example(170.0, 80.0, 5000.0, 5000.0, 500.0, 200, 200)
    @example(-170.0, -80.0, -5000.0, -5000.0, 0.01, 3, 2)
    def test_bit_for_bit(self, lon, lat, x0, y0, cell_m, nrows, ncols):
        grid = DensityGrid(GeoPoint(lon, lat), x0, y0, cell_m, np.zeros((nrows, ncols)))
        got, want = grid.edges(), oracles.grid_edges(grid)
        for got_edges, want_edges in zip(got, want):
            assert all(type(v) is float for v in got_edges)
            assert list(map(float.hex, got_edges)) == list(map(float.hex, want_edges))


@st.composite
def sparse_grids(draw):
    """A grid of up to 30 x 30 cells in a random frame, a few of them
    positive, some equal so that ties and plateaus occur."""
    nrows, ncols = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    cells = draw(st.lists(st.integers(0, nrows * ncols - 1), max_size=40, unique=True))
    values = np.zeros(nrows * ncols)
    values[cells] = draw(st.lists(st.one_of(st.floats(5e-324, 1e300),
                                            st.sampled_from([1.0, 2.0, 3.5])),
                                  min_size=len(cells), max_size=len(cells)))
    return DensityGrid(GeoPoint(draw(st.floats(-170.0, 170.0)), draw(st.floats(-80.0, 80.0))),
                       draw(st.floats(-5000.0, 5000.0)), draw(st.floats(-5000.0, 5000.0)),
                       draw(st.floats(0.5, 100.0)), values.reshape(nrows, ncols))


class TestPositiveCellsFoundOnce:
    """The hotspot test and the density features, both reading the grid's
    ``positive`` cells, against the reference passes over the whole grid."""

    def test_positive_cells_are_the_row_major_nonzero_cells(self):
        values = np.array([[0.0, 2.0, -0.0], [5e-324, 0.0, 1.0]])
        grid = DensityGrid(CENTER, 0.0, 0.0, 10.0, values)
        assert grid.positive.tolist() == [1, 3, 5] and not grid.positive.flags.writeable
        assert DensityGrid(CENTER, 0.0, 0.0, 10.0, np.zeros((2, 2))).positive.size == 0

    @given(sparse_grids(), TestHotspotsMatchFullGridTest.PERCENTILES)
    @settings(max_examples=200, deadline=None)
    def test_hotspots_and_density_features(self, grid, percentile):
        want = [HotSpot(grid.cell_center(row, col), score, f"H{i + 1}")
                for i, (score, row, col) in enumerate(oracles.strict_maxima(grid.values,
                                                                             percentile))]
        assert detect_hotspots(grid, percentile=percentile) == want
        features = map(oracles.compact, oracles.density_features(grid))
        assert ",\n".join(_density_features(grid)) == ",\n".join(features)


def _grid(values):
    return DensityGrid(CENTER, -40.0, 25.0, 7.0, np.array(values, dtype=float))


@st.composite
def patterned_grids(draw):
    """A grid of up to 12 x 12 cells: one positive cell, every cell
    positive, or cells chosen at random, which leaves gaps inside rows and
    rows with none."""
    nrows, ncols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    pattern = draw(st.sampled_from(["single", "all", "random"]))
    if pattern == "single":
        positive = np.zeros(nrows * ncols, dtype=bool)
        positive[draw(st.integers(0, nrows * ncols - 1))] = True
    elif pattern == "all":
        positive = np.ones(nrows * ncols, dtype=bool)
    else:
        positive = np.array(draw(st.lists(st.booleans(), min_size=nrows * ncols,
                                          max_size=nrows * ncols)))
    densities = draw(st.lists(st.one_of(st.floats(5e-324, 1e300),
                                        st.sampled_from(TestDensityFeatures.EDGE_DENSITIES)),
                              min_size=nrows * ncols, max_size=nrows * ncols))
    return _grid(np.where(positive, densities, 0.0).reshape(nrows, ncols))


class TestDensityBlocks:
    """The density features' blocks, spliced into the map by
    ``render._document``, print what ``oracles.one_item_per_line`` prints
    for the reference features, at any block size."""

    @given(patterned_grids(), st.sampled_from([1, 2, 3, 5, render._BLOCK_RECORDS]))
    @settings(max_examples=200, deadline=None)
    # one positive cell, gaps inside a row, rows skipped, every cell positive, none
    @example(_grid([[0, 0, 0], [0, 4.5, 0], [0, 0, 0]]), 1)
    @example(_grid([[1, 0, 2, 0, 0, 3]]), 2)
    @example(_grid([[0, 1e-5], [0, 0], [0, 0], [2, 0], [0, 0]]), 1)
    @example(_grid(np.arange(1.0, 13.0).reshape(3, 4)), 5)
    @example(_grid(np.zeros((2, 3))), 1)
    def test_spliced_blocks_are_json_dumps_of_the_reference(self, grid, block):
        outer = {"type": "FeatureCollection"}
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(render, "_BLOCK_RECORDS", block)
            blocks = list(_density_features(grid))
        text = "".join(render._document(outer, "features", blocks))
        assert text == oracles.one_item_per_line(
            {**outer, "features": oracles.density_features(grid)}, "features")
        assert len(blocks) == -(-grid.positive.size // block)


class TestPercentile:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.floats(5e-324, 1e308), st.sampled_from([1.0, 2.0, 3.0])),
                    min_size=1, max_size=40),
           st.one_of(st.floats(0.0, 100.0, exclude_min=True, exclude_max=True),
                     st.sampled_from([50.0, 75.0, 90.0, 99.99999999, 1e-9])))
    def test_bit_for_bit_numpy_percentile(self, values, percentile):
        values = np.array(values)
        want = np.percentile(values, percentile)
        assert np.float64(_percentile(values, percentile)).tobytes() == want.tobytes()


class TestMergeHotspots:
    def _spot(self, east_km, score, label):
        return HotSpot(offset_point(CENTER, east_km, 0.0), score, label)

    def test_zero_radius_is_identity(self):
        spots = [self._spot(0, 5, "H1"), self._spot(0.05, 4, "H2")]
        assert merge_hotspots(spots, 0.0) == spots

    def test_nearby_spots_absorbed_into_strongest(self):
        spots = [self._spot(0.0, 5.0, "H1"), self._spot(0.08, 4.0, "H2"),
                 self._spot(1.0, 3.0, "H3")]
        merged = merge_hotspots(spots, radius_m=100.0)
        assert [h.label for h in merged] == ["H1", "H3"]
        assert merged[0].score == pytest.approx(9.0)
        assert merged[0].center == spots[0].center

    def test_chain_does_not_bridge(self):
        # H3 is near H2 but far from H1; H1 absorbs H2, H3 stays
        spots = [self._spot(0.0, 5.0, "H1"), self._spot(0.09, 4.0, "H2"),
                 self._spot(0.18, 3.0, "H3")]
        merged = merge_hotspots(spots, radius_m=100.0)
        assert [h.label for h in merged] == ["H1", "H3"]


class TestPlanTour:
    def _spots(self, coords):
        return [HotSpot(offset_point(CENTER, e, n), 1.0, f"H{i + 1}")
                for i, (e, n) in enumerate(coords)]

    def test_single_stop(self):
        tour = plan_tour(self._spots([(0, 0)]))
        assert tour.length_km == 0.0
        assert len(tour.stops) == 1

    def test_two_stops_out_and_back(self):
        spots = self._spots([(0, 0), (0.7, 0)])
        tour = plan_tour(spots)
        leg = haversine_km(spots[0].center, spots[1].center)
        assert tour.length_km == leg + leg

    def test_unit_square_perimeter(self):
        spots = self._spots([(0, 0), (1, 0), (1, 1), (0, 1)])
        tour = plan_tour(spots)
        assert tour.length_km == pytest.approx(4.0, rel=0.005)
        # perimeter order, never the crossing diagonals
        sequence = [h.label for h in tour.stops]
        assert sequence in (["H1", "H2", "H3", "H4"], ["H1", "H4", "H3", "H2"])

    def test_starts_at_the_smallest_label(self):
        spots = [HotSpot(offset_point(CENTER, e, n), 1.0, label)
                 for (e, n), label in zip([(0, 0), (1, 0), (1, 1)], ["HC", "HA", "HB"])]
        assert plan_tour(spots).stops[0] == spots[1]

    def test_size_limits(self):
        with pytest.raises(ValueError):
            plan_tour([])
        many = self._spots([(0.1 * i, 0.05 * i) for i in range(13)])
        with pytest.raises(ConfigError, match="12"):
            plan_tour(many)

    @given(st.integers(3, 7), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_exactly(self, n, seed):
        rng = np.random.default_rng(seed)
        coords = rng.uniform(0, 2, size=(n, 2))
        spots = [HotSpot(offset_point(CENTER, e, v), 1.0, f"H{i + 1}")
                 for i, (e, v) in enumerate(coords)]
        tour = plan_tour(spots)

        labels = [h.label for h in spots]
        dist = [[haversine_km(a.center, b.center) for b in spots] for a in spots]
        want_cost, want_order = oracles.brute_force_tour(labels, dist, 0)
        assert tour.length_km == want_cost
        assert [h.label for h in tour.stops] == [labels[i] for i in want_order]

    def test_tie_break_prefers_lexicographic_labels(self):
        # all four corners of a square: the two perimeter directions cost
        # the same, the planner must take the label-smaller one
        square = [(0, 0), (0, 1), (1, 1), (1, 0)]
        spots = [HotSpot(offset_point(CENTER, e, n), 1.0, label)
                 for (e, n), label in zip(square, ["HA", "HB", "HC", "HD"])]
        dist = [[haversine_km(a.center, b.center) for b in spots] for a in spots]
        want_cost, want_order = oracles.brute_force_tour([h.label for h in spots], dist, 0)
        tour = plan_tour(spots)
        assert [h.label for h in tour.stops] == [spots[i].label for i in want_order]
        assert tour.length_km == want_cost

    @given(st.integers(9, 12), st.integers(0, 2 ** 31 - 1), st.booleans(), st.booleans())
    @example(12, 0, True, True)
    @settings(max_examples=12, deadline=None)
    def test_matches_earlier_planner_beyond_brute_force(self, n, seed, lattice, repeats):
        # a 4 x 4 lattice with 0.5 km steps forces cost ties; repeated
        # labels make the label sequences tie too, and distinct scores keep
        # such stops apart
        rng = np.random.default_rng(seed)
        coords = (rng.integers(0, 4, size=(n, 2)) * 0.5 if lattice
                  else rng.uniform(0, 2, size=(n, 2)))
        labels = ([f"H{k}" for k in rng.integers(1, 4, size=n)] if repeats
                  else [f"H{i + 1}" for i in range(n)])
        spots = [HotSpot(offset_point(CENTER, e, v), i + 1.0, label)
                 for i, ((e, v), label) in enumerate(zip(coords.tolist(), labels))]
        assert plan_tour(spots) == oracles.held_karp_tour(spots)


class TestEstimateDuration:
    def _tour(self, length, stops=1):
        hotspots = tuple(
            HotSpot(offset_point(CENTER, 0.1 * i, 0), 1.0, f"H{i + 1}")
            for i in range(stops))
        return Tour(hotspots, length)

    def test_zero_everything(self):
        assert estimate_duration(self._tour(0.0), 4.0) == (0.0, 0.0, 0.0)

    def test_walk_only(self):
        got = estimate_duration(self._tour(1.2, stops=6), 4.0)
        assert got == pytest.approx((0.30, 0.30, 0.30))

    def test_walk_plus_dwell(self):
        got = estimate_duration(self._tour(1.2, stops=6), 4.0, dwell_minutes=(5, 10, 15))
        assert got == pytest.approx((0.80, 1.30, 1.80))

    def test_stops_default_to_tour_size(self):
        # every stop adds its dwell: three more stops, three more dwells
        few = estimate_duration(self._tour(1.2, stops=3), 4.0, dwell_minutes=(5, 10, 15))
        more = estimate_duration(self._tour(1.2, stops=6), 4.0, dwell_minutes=(5, 10, 15))
        assert [m - f for f, m in zip(few, more)] == pytest.approx([0.25, 0.50, 0.75])

    def test_bounds_are_ordered(self):
        got = estimate_duration(self._tour(2.0, stops=4), 5.0, dwell_minutes=(1, 7, 30))
        assert got[0] <= got[1] <= got[2]

    def test_faster_walk_never_longer(self):
        slow = estimate_duration(self._tour(2.0, stops=3), 3.0, dwell_minutes=(5, 10, 15))
        fast = estimate_duration(self._tour(2.0, stops=3), 6.0, dwell_minutes=(5, 10, 15))
        assert all(f <= s for f, s in zip(fast, slow))

    def test_bad_speed_rejected(self):
        with pytest.raises(ConfigError):
            estimate_duration(self._tour(1.0), 0.0)

    def test_infinite_duration_rejected(self):
        """A positive speed so slow that the walk takes infinitely long."""
        with pytest.raises(ConfigError, match=r"^walk_speed_kmh 1e-320 "):
            estimate_duration(self._tour(1.0), 1e-320)

    def test_unordered_dwell_rejected(self):
        with pytest.raises(ConfigError):
            estimate_duration(self._tour(1.0), 4.0, dwell_minutes=(10, 5, 15))


class TestGridCap:
    """The grid-size rule, tested on the size computation alone, so that no
    case allocates a grid."""

    @pytest.mark.parametrize("xs, bandwidth_m, cell_m", [
        ([0.0], 1e308, 10.0),                 # the extent overflows to inf
        ([0.0], 1e300, 10.0),                 # finite, but no int array that long
        ([0.0, 1000.0], 100.0, 1e-13),
        ([-1e7, 1e7], 100.0, 10.0),           # a coordinate on the far side of the globe
    ])
    def test_past_the_cap_a_config_error(self, xs, bandwidth_m, cell_m):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=r"^a density grid of \S+ x \S+ cells exceeds "
                               + re.escape(f"{MAX_GRID_CELLS} (kde.cell_m {cell_m}, "
                                           f"kde.bandwidth_m {bandwidth_m})")):
                _grid_frame(xs, xs, bandwidth_m, cell_m)

    def test_the_cap_itself_is_allowed(self):
        # 0.25 m of bandwidth each side and half a 1 m cell: L + 1 columns, one row
        length = MAX_GRID_CELLS - 1
        assert _grid_frame([0.0, length], [0.0], 0.25, 1.0)[2:] == (1, MAX_GRID_CELLS)
        with pytest.raises(ConfigError):
            _grid_frame([0.0, length + 1], [0.0], 0.25, 1.0)

    def test_a_city_fits(self):
        """Eight km at 10 m cells, as a city-wide run uses, is far below the cap."""
        x0, y0, rows, cols = _grid_frame([0.0, 8000.0], [0.0, 8000.0], 100.0, 10.0)
        assert (x0, y0, rows, cols) == (-105.0, -105.0, 821, 821)
        assert rows * cols * 10 < MAX_GRID_CELLS

    def test_checked_before_the_grid_is_built(self):
        with pytest.raises(ConfigError, match="kde.bandwidth_m 1e"):
            kde_heatmap([ScoredPoint(CENTER, 1.0)], bandwidth_m=1e308)
