import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from tourval import TriangularFuzzyNumber as TFN
from tourval import datasets, pipeline, render
from tourval.ahp import derive_weights
from tourval.errors import ConfigError, InputError, NumericError
from tourval.pipeline import (
    KdeSettings,
    RunConfig,
    _exact_sums,
    _write_all,
    ingest,
    load_attractions,
    load_config,
    load_evaluations,
    load_factor_table,
    run_pipeline,
    run_tour,
    run_valuation,
)
from tourval.rounding import format_number, print_column, print_decimals, round6
from tourval.spatial import DensityGrid, GeoPoint, HotSpot, Tour
from tourval.valuation import TIERS, Valuation, classify

import oracles


def write_config(path: Path, body: dict) -> Path:
    path.write_text(json.dumps(body), encoding="utf-8")
    return path


class TestFormatNumber:
    def test_six_significant_digits(self):
        assert format_number(85.736666666) == "85.7367"
        assert format_number(0.0540001) == "0.0540001"
        assert format_number(100.0) == "100"

    def test_negative_zero_normalised(self):
        assert format_number(-0.0) == "0"

    def test_negative_zero_same_in_every_artifact(self):
        result = oracles.Result("a", TFN(-0.0, 0.0, 1.0), -0.0, "Low")
        text = "".join(render_map({"a": "A"}, {"a": GeoPoint(-75.8, 20.0)}, [result],
                                  {"a": 1}, None, (), None))
        assert json.dumps(round6(-0.0)) == "0.0"
        assert '"ftv_lo":0.0,' in text
        assert '"crisp":0.0,' in text

    # values at which print_column's check for texts to print again changes
    # its answer or the 6-digit text changes notation (1e-4, 999999.5), that
    # round up to an integer (0.9999995, 12.99995) or are one, with the floats
    # next to them on either side, of both signs
    CHECK_EDGES = [float(y) for x in (1e-4, 999999.0, 999999.5, 0.9999995, 12.99995, 1.0,
                                      7.0, 100.0, 123456.0, 999998.0, 1e6)
                   for y in (np.nextafter(x, 0.0), x, np.nextafter(x, np.inf), -x)]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                              # integers and the values a little off them
                              st.builds(lambda n, d: n + d, st.integers(-10**7, 10**7),
                                        st.sampled_from([0.0, 1e-6, -1e-6, 1e-4, 0.5]))),
                    max_size=8), st.booleans())
    # zeros of both signs, the smallest subnormal, values whose 6-digit text
    # switches notation or rounds up across a power of ten, the largest float
    # and integral values, which JSON prints with ".0"
    @example([-0.0, 0.0, 5e-324, 9.99995e-5, 99999.95, 999999.5, 1e16,
              1.7976931348623157e308, -1.7976931348623157e308, 1.0, -3.0, 100.0, 123456.0],
             False)
    @example(CHECK_EDGES, True)
    @example([], True)
    @example([], False)
    def test_print_column_is_format_number_and_json_of_round6(self, values, as_array):
        """Each text is ``format_number``'s and each JSON text ``json.dumps``
        of the ``round6``, from a list or an array of floats."""
        texts, json_texts = print_column(np.array(values, dtype=float) if as_array else values)
        assert texts == [format_number(x) for x in values]
        assert json_texts == [json.dumps(round6(x)) for x in values]

    TINY = sys.float_info.min

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.floats(-1e-4, 1e-4), st.floats(-TINY, TINY),
                              st.sampled_from([TINY, -TINY, float(np.nextafter(TINY, 0.0)),
                                               5e-324, -5e-324, 0.0, -0.0])),
                    max_size=16))
    @example([TINY, -TINY, 5e-324, 0.0, -0.0, 1e-5, 9.99995e-5, 2.5e-308])
    def test_json_texts_below_1e4_are_the_repr_of_the_text(self, values):
        """Below 1e-4 only a subnormal is printed again: a normal float's
        6-digit text is already its JSON text, a subnormal's may not be."""
        _, json_texts = print_column(np.array(values, dtype=float))
        assert json_texts == [float.__repr__(float(format_number(x))) for x in values]


class TestPrintDecimals:
    """``print_decimals`` prints each coordinate as JSON prints it rounded to
    6 decimal places: one ``"%.6f"`` column where 1e-4 <= |v| < 1e9, each
    other value alone."""

    # zeros of both signs; values that round to 0 or 1e-6, or to 1e-4 from
    # below, and 1e-4 itself; integral degrees and the ends of longitude;
    # the ends of the column's range with the floats next to them; halves of
    # the sixth decimal place; the smallest and largest floats
    EDGES = [-0.0, 0.0, 5e-7, -5e-7, 5e-5, -5e-5, 9.99999e-5, -9.99999e-5, 1e-4, -1e-4, 1.0,
             -75.0, 20.0, 90.0, 180.0, -180.0, 1e9, -1e9, 12.0000005, -70.6500005, 0.5,
             5e-324, sys.float_info.max, -sys.float_info.max,
             *(float(y) for x in (1e-4, 1e9, 999999999.9999995)
               for y in (np.nextafter(x, 0.0), np.nextafter(x, np.inf), -x))]

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                              st.floats(-180.0, 180.0), st.floats(-1e-3, 1e-3),
                              st.floats(-2e9, 2e9), st.integers(-180, 180).map(float),
                              # a decimal place or half of one off a whole degree
                              st.builds(lambda n, d: n + d, st.integers(-10**9, 10**9),
                                        st.sampled_from([0.0, 1e-6, 5e-7, -5e-7, 0.5]))),
                    max_size=8))
    @example(EDGES)
    @example([])
    def test_equals_repr_of_round(self, values):
        assert print_decimals(values) == [float.__repr__(round(v, 6)) for v in values]


def _dotted(extra, key):
    """A pattern of ``key`` as messages name it: ``kde.`` or ``tour.`` before a nested one."""
    outer = next(iter(extra))
    return key if outer == key else f"{outer}\\.{key}"


class TestLoadConfig:
    def test_sample_config_loads_with_defaults(self, sample_dir):
        config = load_config(sample_dir / "config.json")
        assert config.defuzzify == "centroid"
        assert config.range_policy == "strict"
        assert config.factors.is_file()
        assert config.kde.bandwidth_m == 120.0

    def test_unknown_key_rejected(self, dataset_builder):
        config_path = dataset_builder(config_extra={"defuzify": "centroid"})
        with pytest.raises(ConfigError, match="defuzify"):
            load_config(config_path)

    def test_unknown_nested_key_rejected(self, dataset_builder):
        config_path = dataset_builder(config_extra={"kde": {"bandwith_m": 50}})
        with pytest.raises(ConfigError, match="bandwith_m"):
            load_config(config_path)

    def test_missing_required_key(self, tmp_path):
        config_path = write_config(tmp_path / "c.json", {"factors": "f.csv"})
        with pytest.raises(ConfigError, match="evaluations"):
            load_config(config_path)

    def test_invalid_json(self, tmp_path):
        config_path = tmp_path / "c.json"
        config_path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(config_path)

    def test_referenced_file_must_exist(self, dataset_builder, tmp_path):
        config_path = dataset_builder()
        (tmp_path / "factors.csv").unlink()
        with pytest.raises(ConfigError, match="factors.csv"):
            load_config(config_path)

    def test_bad_parameter_domain(self, dataset_builder):
        config_path = dataset_builder(config_extra={"kde": {"bandwidth_m": -3}})
        with pytest.raises(ConfigError, match="bandwidth"):
            load_config(config_path)

    @pytest.mark.parametrize("extra, key", [
        ({"kde": {"cell_m": 0}}, "kde.cell_m"),
        ({"kde": {"hotspot_percentile": 100}}, "kde.hotspot_percentile"),
        ({"kde": {"merge_radius_m": -1}}, "kde.merge_radius_m"),
        ({"tour": {"walk_speed_kmh": 0}}, "tour.walk_speed_kmh"),
        ({"tour": {"dwell_minutes": [10, 5, 15]}}, "tour.dwell_minutes"),
        ({"tour": {"dwell_minutes": [5, 10]}}, "tour.dwell_minutes"),
        ({"kde": {"bandwidth_m": math.inf}}, "kde.bandwidth_m"),
        ({"kde": {"cell_m": math.inf}}, "kde.cell_m"),
        ({"kde": {"merge_radius_m": math.inf}}, "kde.merge_radius_m"),
        ({"kde": {"merge_radius_m": math.nan}}, "kde.merge_radius_m"),
        ({"tour": {"walk_speed_kmh": math.inf}}, "tour.walk_speed_kmh"),
        ({"tour": {"dwell_minutes": [0, 0, math.inf]}}, "tour.dwell_minutes"),
    ])
    def test_spatial_settings_name_their_key(self, dataset_builder, extra, key):
        config_path = dataset_builder(config_extra=extra)
        with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
            load_config(config_path)

    def test_bad_target(self, dataset_builder):
        for target in ([7, 7], [0, math.inf], [-math.inf, 100], [math.nan, 100]):
            config_path = dataset_builder(config_extra={"target": target})
            with pytest.raises(ConfigError, match="target"):
                load_config(config_path)

    def test_null_means_the_default(self, dataset_builder, tmp_path, monkeypatch):
        """Every key set to null, the nested ones included, takes its
        default; a null required key is missing."""
        monkeypatch.chdir(tmp_path)
        nulls = {key: None for key in ("pairwise", "target", "defuzzify", "range_policy",
                                       "tier_thresholds", "filter_threshold", "out_dir")}
        config = load_config(dataset_builder(config_extra={
            **nulls, "kde": {"bandwidth_m": None, "cell_m": 5},
            "tour": {"walk_speed_kmh": None, "dwell_minutes": None}}))
        defaults = RunConfig(config.factors, config.evaluations, config.attractions)
        assert config == defaults.replace(kde=KdeSettings(cell_m=5))
        assert config.out_dir == (tmp_path / "out").resolve()
        with pytest.raises(ConfigError, match="factors"):
            load_config(dataset_builder(config_extra={"factors": None}))

    @pytest.mark.parametrize("extra, name", [
        ({"target": [0, 1]}, "tier_thresholds"),
        ({"tier_thresholds": [-5, 50]}, "tier_thresholds"),
        ({"tier_thresholds": [33, 120]}, "tier_thresholds"),
        ({"filter_threshold": 150}, "filter_threshold"),
        ({"target": [0, 1], "tier_thresholds": [0.33, 0.66], "filter_threshold": 66},
         "filter_threshold"),
    ])
    def test_thresholds_outside_target_rejected(self, dataset_builder, extra, name):
        config_path = dataset_builder(config_extra=extra)
        with pytest.raises(ConfigError, match=name):
            load_config(config_path)

    def test_thresholds_on_a_custom_target_accepted(self, dataset_builder):
        config_path = dataset_builder(config_extra={
            "target": [0, 1], "tier_thresholds": [0.33, 0.66], "filter_threshold": 0.66})
        assert load_config(config_path).filter_threshold == 0.66

    def test_bad_policy_value(self, dataset_builder):
        config_path = dataset_builder(config_extra={"range_policy": "wrap"})
        with pytest.raises(ConfigError, match="wrap"):
            load_config(config_path)

    @pytest.mark.parametrize("extra, key", [
        ({"filter_threshold": True}, "filter_threshold"),
        ({"target": [False, 100]}, "target"),
        ({"defuzzify": True}, "defuzzify"),
        ({"kde": {"merge_radius_m": True}}, "merge_radius_m"),
        ({"tour": {"dwell_minutes": [True, 10, 15]}}, "dwell_minutes"),
    ])
    def test_boolean_rejected(self, dataset_builder, extra, key):
        """No setting is a boolean, although Python reads true as 1."""
        with pytest.raises(ConfigError,
                           match=rf": {_dotted(extra, key)} must be .*, got \[?(True|False)"):
            load_config(dataset_builder(config_extra=extra))

    @pytest.mark.parametrize("extra, key", [
        ({"filter_threshold": 10 ** 400}, "filter_threshold"),
        ({"target": [0, 10 ** 400]}, "target"),
        ({"tour": {"dwell_minutes": [0, 0, -10 ** 400]}}, "dwell_minutes"),
    ])
    def test_integer_beyond_the_float_range_rejected(self, dataset_builder, extra, key):
        """JSON keeps such an integer exact, where a float would be infinite."""
        with pytest.raises(ConfigError, match=rf": {_dotted(extra, key)} must be a (list of )?"
                                              "numbers? within the float range, got "):
            load_config(dataset_builder(config_extra=extra))

    def test_string_filter_threshold_rejected(self, dataset_builder):
        """A JSON string is no number, although ``float`` reads "66" as one;
        a JSON integer is still read as a float."""
        with pytest.raises(ConfigError, match=": filter_threshold must be a number within "
                                              "the float range, got '66'"):
            load_config(dataset_builder(config_extra={"filter_threshold": "66"}))
        config = load_config(dataset_builder(config_extra={"filter_threshold": 66}))
        assert config.filter_threshold == 66.0 and type(config.filter_threshold) is float

    def test_byte_order_mark_dropped(self, dataset_builder):
        config_path = dataset_builder()
        expected = load_config(config_path)
        config_path.write_bytes(b"\xef\xbb\xbf" + config_path.read_bytes())
        assert load_config(config_path) == expected

    def test_target_span_must_not_overflow(self, dataset_builder):
        config_path = dataset_builder(config_extra={
            "target": [-1e308, 1e308], "tier_thresholds": [0, 1], "filter_threshold": 1})
        with pytest.raises(ConfigError, match=r"target range \[-1e\+308, 1e\+308\] must "):
            load_config(config_path)


class TestConfigRulesInCodeAndFile:
    """A bad target, a path setting that is no path, and a missing input
    key are configuration errors that name the key, whether the settings
    are built in code or read from config.json, where the message is the
    same after the config's path."""

    @staticmethod
    def inputs(dataset_builder):
        config = load_config(dataset_builder())
        return config.factors, config.evaluations, config.attractions

    @pytest.mark.parametrize("target", [(7, 7), (0, math.inf), (math.nan, 100)])
    def test_bad_target(self, dataset_builder, target):
        with pytest.raises(ConfigError, match=r"^target range \[") as built:
            RunConfig(*self.inputs(dataset_builder), target=target)
        path = dataset_builder(config_extra={"target": list(target)})
        with pytest.raises(ConfigError) as read:
            load_config(path)
        assert str(read.value) == f"{path}: {built.value}"

    PATH_KEYS = ["factors", "evaluations", "attractions", "pairwise", "out_dir"]

    @pytest.mark.parametrize("value", [5, ["a"], {"a": 1}, "fact\0ors.csv"])
    @pytest.mark.parametrize("key", PATH_KEYS)
    def test_path_setting_that_is_no_path(self, dataset_builder, key, value):
        settings = dict(zip(self.PATH_KEYS, self.inputs(dataset_builder)))
        with pytest.raises(ConfigError) as built:
            RunConfig(**{**settings, key: value})
        assert str(built.value) == f"{key} must be a path string, got {value!r}"
        path = dataset_builder(config_extra={key: value})
        with pytest.raises(ConfigError) as read:
            load_config(path)
        assert str(read.value) == f"{path}: {built.value}"

    @pytest.mark.parametrize("key, value", [("factors", None), ("attractions", None),
                                            ("evaluations", b"evaluations.csv")])
    def test_path_setting_that_is_no_path_in_code(self, dataset_builder, key, value):
        """In code, a required input may not be None, and no path is bytes
        (JSON has neither: null there means missing)."""
        settings = dict(zip(self.PATH_KEYS, self.inputs(dataset_builder)))
        with pytest.raises(ConfigError) as built:
            RunConfig(**{**settings, key: value})
        assert str(built.value) == f"{key} must be a path string, got {value!r}"

    def test_missing_input_key(self, dataset_builder):
        factors, _, attractions = self.inputs(dataset_builder)
        with pytest.raises(TypeError, match="'evaluations'"):
            RunConfig(factors, attractions=attractions)
        path = dataset_builder()
        body = json.loads(path.read_text(encoding="utf-8"))
        for missing in (["evaluations"], ["evaluations", "attractions"]):
            write_config(path, {key: value for key, value in body.items()
                                if key not in missing})
            with pytest.raises(ConfigError) as read:
                load_config(path)
            assert str(read.value) == f"{path}: missing keys: {', '.join(missing)}"


class TestIngest:
    def test_sample_dataset_complete(self, sample_dir):
        result = ingest(load_config(sample_dir / "config.json"))
        assert len(result.catalogue.factors) == 20
        assert result.scores.shape == (10, 20, 3)
        assert set(result.names) == set(result.locations)
        assert result.weight_source == "column"
        assert result.weight_report is None

    def test_expert_means(self, dataset_builder):
        config_path = dataset_builder(evaluations=[
            ("p1", "f1", "e1", 1.0, 2.0, 3.0),
            ("p1", "f1", "e2", 3.0, 4.0, 5.0),
            ("p1", "f2", "e1", -3.0, -2.0, -1.0),
            ("p2", "f1", "e1", 3.0, 4.0, 5.0),
            ("p2", "f2", "e1", -2.0, -1.0, 0.0),
        ])
        result = ingest(load_config(config_path))
        assert list(result.names) == ["p1", "p2"]
        assert result.scores[0, 0].tolist() == [2.0, 3.0, 4.0]

    def test_unknown_factor_reported_with_line(self, dataset_builder):
        config_path = dataset_builder(evaluations=[
            ("p1", "f1", "e1", 1.0, 2.0, 3.0),
            ("p1", "f2", "e1", -3.0, -2.0, -1.0),
            ("p1", "ghost", "e1", 1.0, 2.0, 3.0),
            ("p2", "f1", "e1", 3.0, 4.0, 5.0),
            ("p2", "f2", "e1", -2.0, -1.0, 0.0),
        ])
        with pytest.raises(InputError, match=r"evaluations\.csv:4.*ghost"):
            ingest(load_config(config_path))

    def test_malformed_tfn_reported_with_line(self, dataset_builder):
        config_path = dataset_builder(evaluations=[
            ("p1", "f1", "e1", 3.0, 2.0, 1.0),
            ("p1", "f2", "e1", -3.0, -2.0, -1.0),
            ("p2", "f1", "e1", 3.0, 4.0, 5.0),
            ("p2", "f2", "e1", -2.0, -1.0, 0.0),
        ])
        with pytest.raises(InputError, match=r"evaluations\.csv:2"):
            ingest(load_config(config_path))

    def test_duplicate_judgement_rejected(self, dataset_builder):
        config_path = dataset_builder(evaluations=[
            ("p1", "f1", "e1", 1.0, 2.0, 3.0),
            ("p1", "f1", "e1", 1.0, 2.0, 3.0),
            ("p1", "f2", "e1", -3.0, -2.0, -1.0),
            ("p2", "f1", "e1", 3.0, 4.0, 5.0),
            ("p2", "f2", "e1", -2.0, -1.0, 0.0),
        ])
        with pytest.raises(InputError, match=r"evaluations\.csv:3.*duplicate"):
            ingest(load_config(config_path))

    def test_incomplete_attraction_rejected(self, dataset_builder):
        config_path = dataset_builder(evaluations=[
            ("p1", "f1", "e1", 1.0, 2.0, 3.0),
            ("p1", "f2", "e1", -3.0, -2.0, -1.0),
            ("p2", "f1", "e1", 3.0, 4.0, 5.0),
        ])
        with pytest.raises(InputError, match="p2.*f2"):
            ingest(load_config(config_path))

    def test_judgements_without_coordinates_rejected(self, dataset_builder):
        config_path = dataset_builder(attractions=[("p1", "First Court", -75.8, 20.0)])
        with pytest.raises(InputError, match="p2"):
            ingest(load_config(config_path))

    def test_empty_attractions_rejected(self, dataset_builder):
        config_path = dataset_builder(attractions=[])
        with pytest.raises(InputError, match="no attractions"):
            ingest(load_config(config_path))

    def test_missing_column_rejected(self, dataset_builder):
        config_path = dataset_builder(
            factors=[("f1", "Condition", 0.0, 5.0), ("f2", "Impact", -5.0, 0.0)],
            factor_columns=("id", "name", "x", "y"))
        with pytest.raises(ConfigError, match="weight column"):
            ingest(load_config(config_path))

    def test_duplicate_factor_id_rejected(self, dataset_builder):
        config_path = dataset_builder(factors=[
            ("f1", "Condition", 0.0, 5.0, 0.5),
            ("f1", "Condition again", 0.0, 5.0, 0.5),
        ], evaluations=[("p1", "f1", "e1", 1, 2, 3), ("p2", "f1", "e1", 1, 2, 3)])
        with pytest.raises(InputError, match=r"factors\.csv:3.*duplicate"):
            ingest(load_config(config_path))

    def test_bad_range_reported_with_line(self, dataset_builder):
        config_path = dataset_builder(factors=[
            ("f1", "Condition", 5.0, 5.0, 0.5),
            ("f2", "Impact", -5.0, 0.0, 0.5),
        ])
        with pytest.raises(InputError, match=r"factors\.csv:2"):
            ingest(load_config(config_path))


    @pytest.mark.parametrize("row, message", [
        (("f1", "Condition", -1e308, 1e308, 0.5), r"source range \[-1e\+308, 1e\+308\] must "),
        (("f1", "Condition", 0.0, 5e-324, 0.5), r"source range \[0\.0, 5e-324\] must "),
        (("  ", "Condition", 0.0, 5.0, 0.5), "factor id must be nonempty"),
    ])
    def test_factor_rules_owned_by_the_value_types(self, dataset_builder, row, message):
        """The range and id rules of FactorDefinition and SourceRange, with
        the loader's file line."""
        config_path = dataset_builder(factors=[row, ("f2", "Impact", -5.0, 0.0, 0.5)])
        with pytest.raises(InputError, match=rf"factors\.csv:2: {message}"):
            load_factor_table(load_config(config_path).factors)

    def test_blank_name_falls_back_to_id(self, dataset_builder):
        config = load_config(dataset_builder(
            factors=[("f1", "  ", 0.0, 5.0, 0.5), ("f2", " Impact ", -5.0, 0.0, 0.5)],
            attractions=[("p1", "\t", -75.8267, 20.0211), ("p2", "", -75.8238, 20.0198)]))
        factors, _ = load_factor_table(config.factors)
        assert [f.name for f in factors] == ["f1", "Impact"]
        names, _ = load_attractions(config.attractions)
        assert names == {"p1": "p1", "p2": "p2"}

    def test_tables_read_by_column_name(self, tmp_path):
        """Any column order, other columns ignored, empty lines skipped,
        cells stripped, a short row's missing cells empty."""
        (tmp_path / "factors.csv").write_text(
            "note,y,weight,name,id,x\n\n"
            "skip, 5 ,0.5, Condition ,f1, 0\n"
            ",0,0.5,,f2,-5,extra\n", encoding="utf-8")
        factors, has_weights = load_factor_table(tmp_path / "factors.csv")
        assert has_weights
        assert [(f.id, f.name, f.src.x, f.src.y, f.weight) for f in factors] == [
            ("f1", "Condition", 0.0, 5.0, 0.5), ("f2", "f2", -5.0, 0.0, 0.5)]
        (tmp_path / "attractions.csv").write_text(
            "lat,id,lon,name,note\r\n20.0, p1 ,-75.8\r\n\r\n"
            '"20.5","p2",-75.9,"Second\nCourt"\r\n', encoding="utf-8", newline="")
        names, locations = load_attractions(tmp_path / "attractions.csv")
        assert names == {"p1": "p1", "p2": "Second\nCourt"}
        assert locations["p2"] == GeoPoint(-75.9, 20.5)

    def test_blank_lines_skipped_in_every_file(self, dataset_builder, tmp_path):
        """A record whose cells are all empty or whitespace is skipped in
        factors.csv, evaluations.csv, attractions.csv and the pairwise
        matrix alike, above the header too."""
        (tmp_path / "pairwise.csv").write_text("f1,f2\n1,3\n0.3333333333333333,1\n",
                                               encoding="utf-8")
        config = load_config(dataset_builder(
            factors=[("f1", "Condition", 0.0, 5.0), ("f2", "Impact", -5.0, 0.0)],
            factor_columns=("id", "name", "x", "y"),
            config_extra={"pairwise": "pairwise.csv"}))
        before = ingest(config)
        for name in ("factors.csv", "evaluations.csv", "attractions.csv", "pairwise.csv"):
            path = tmp_path / name
            header, first, *rest = path.read_text("utf-8").splitlines(keepends=True)
            path.write_text("".join(["\n", " , \n", header, "   \n", first, " ,\t, \n",
                                     *rest, "\t\n"]), encoding="utf-8")
        after = ingest(config)
        assert after.catalogue == before.catalogue
        assert after.names == before.names and after.locations == before.locations
        assert np.array_equal(after.scores, before.scores)
        assert after.weight_report == before.weight_report

    def test_fault_in_evaluations_reported_before_unknown_attractions(self, dataset_builder):
        config_path = dataset_builder(evaluations=[
            ("p1", "f1", "e1", 1.0, 2.0, 3.0), ("p1", "f2", "e1", -3.0, -2.0, -1.0),
            ("p2", "f1", "e1", 3.0, 4.0, 5.0), ("p2", "f2", "e1", -2.0, -1.0, 0.0),
            ("ghost", "f1", "e1", 1.0, 2.0, 3.0), ("p2", "f1", "e2", 3.0, 2.0, 1.0),
        ])
        with pytest.raises(InputError, match=r"evaluations\.csv:7: not a TFN"):
            ingest(load_config(config_path))

    def test_unknown_attractions_listed_sorted(self, dataset_builder):
        config_path = dataset_builder(evaluations=[
            *((a, "f1", "e1", 1.0, 2.0, 3.0) for a in ("zz", "p1", "b 2", "p2", "a1", "zz2")),
            ("p1", "f2", "e1", -3.0, -2.0, -1.0), ("p2", "f2", "e1", -3.0, -2.0, -1.0)])
        with pytest.raises(InputError) as raised:
            ingest(load_config(config_path))
        assert str(raised.value).endswith(
            "judgements for attractions absent from "
            f"{config_path.parent / 'attractions.csv'}: a1, b 2, zz, zz2")


class TestDatasets:
    """The bundled tables read through the pipeline's reader equal the
    earlier csv.DictReader readings in tests/oracles.py."""

    def test_catalogue(self):
        assert datasets.santiago_catalogue() == oracles.santiago_catalogue()
        assert (datasets.santiago_catalogue((-5.0, 5.0))
                == oracles.santiago_catalogue((-5.0, 5.0)))

    def test_factor_means(self):
        assert datasets.santiago_factor_means() == oracles.santiago_factor_means()

    def test_reference_ftv(self):
        assert datasets.santiago_reference_ftv() == oracles.santiago_reference_ftv()


# -- evaluations.csv against the row-at-a-time reference loader --------------

CATALOGUE = ("f1", "f2", "f3")
EVALUATION_COLUMNS = ("attraction_id", "factor_id", "expert_id", "lo", "mode", "hi")
PADDING = st.sampled_from(["", " ", "\t", "  ", "\x1c", "\u2003"])
FILLER = st.sampled_from(["", "x", " ", "1,5", "two\nlines", '"quoted"'])
NUMBER_FORMATS = (repr, "{:.2f}".format, "{:.3e}".format, "{:g}".format)


@st.composite
def judgement_rows(draw, min_size=0, attractions=("a1", "a2", "a,3", "a\n4", "Café 5"),
                   padding=PADDING):
    """Valid judgements as column -> cell text, the cells padded."""
    triples = draw(st.lists(
        st.tuples(st.sampled_from(attractions),
                  st.sampled_from(CATALOGUE), st.sampled_from(["e1", "e2", "e 3", '"e4"'])),
        min_size=min_size, max_size=10, unique=True))
    rows = []
    for triple in triples:
        numbers = sorted(draw(st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3)))
        texts = triple + tuple(map(draw(st.sampled_from(NUMBER_FORMATS)), numbers))
        rows.append({column: draw(padding) + text + draw(padding)
                     for column, text in zip(EVALUATION_COLUMNS, texts)})
    return rows


@st.composite
def evaluation_text(draw, rows, filler=FILLER, blank_lines=2):
    """The rows as CSV text: header names permuted, repeated (the last one
    counts) and mixed with other columns; records quoted or not, some cut
    short after their last used cell, some longer than the header, and up
    to ``blank_lines`` empty lines before each."""
    header = list(draw(st.permutations(EVALUATION_COLUMNS)))
    for name in draw(st.lists(st.sampled_from(["note", "", "lo", "expert_id", "a,b"]),
                              max_size=3)):
        header.insert(draw(st.integers(0, len(header))), name)
    used = {name: position for position, name in enumerate(header)}
    terminator = draw(st.sampled_from(["\n", "\r\n"]))
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator=terminator,
                        quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])))
    writer.writerow(header)
    for row in rows:
        buffer.write(terminator * draw(st.integers(0, blank_lines)))
        cells = [row.get(name, "") if used.get(name) == position else draw(filler)
                 for position, name in enumerate(header)]
        # a record cut short loses its cells from the first dropped column on
        longest = min((used[c] for c in EVALUATION_COLUMNS if c not in row),
                      default=len(header) + 2)
        length = draw(st.integers(min(max(used[c] for c in row) + 1, longest), longest))
        writer.writerow((cells + [draw(filler), draw(filler)])[:length])
    return buffer.getvalue()


def _per_row_ids(path, catalogue_ids):
    """``load_evaluations`` with each row's attraction code mapped back to
    its id and its line array read as a list, as ``oracles.load_evaluations``
    returns them."""
    ids, codes, factors, lines, values = load_evaluations(path, catalogue_ids)
    # distinct ids, coded in order of first appearance
    assert len(set(ids)) == len(ids) and codes.dtype == np.intp
    assert list(dict.fromkeys(codes.tolist())) == list(range(len(ids)))
    assert isinstance(lines, array) and lines.typecode == "l"
    return [ids[code] for code in codes.tolist()], factors, list(lines), values


def _load_both(path):
    """Each loader's result, or the text of the InputError it raised."""
    outcomes = []
    for load in (_per_row_ids, oracles.load_evaluations):
        try:
            ids, factors, lines, values = load(path, CATALOGUE)
        except InputError as e:
            outcomes.append(str(e))
        else:
            assert factors.dtype == np.intp and values.shape == (len(ids), 3)
            outcomes.append((ids, factors.tolist(), lines, values.tobytes()))
    return outcomes


def _corrupt(rows, at, rule, choose):
    """Break row ``at`` (and only it) by one rule; ``choose`` picks one of
    the options it is given."""
    row = rows[at]
    number = choose(("lo", "mode", "hi"))
    if rule == "empty id":
        row[choose(EVALUATION_COLUMNS[:3])] = choose(("", "  "))
    elif rule == "unknown factor":
        row["factor_id"] = "ghost"
    elif rule == "duplicate":
        earlier = rows[choose(range(at))]
        row.update({c: earlier[c] for c in EVALUATION_COLUMNS[:3]})
    elif rule == "short row":
        del row[number]
    elif rule == "blank cell":
        row[number] = choose(("", " \t"))
    elif rule == "not a number":
        row[number] = choose(("abc", "1..2", "0x10", "--1", "1e", "\u200b1"))
    else:
        broken = choose(("swap", "nan", "inf", "out of order"))
        if broken == "swap":
            row["lo"], row["hi"] = row["hi"], row["lo"]
        elif broken == "out of order":
            row[number] = "1e9" if number == "lo" else "-1e9"
        else:
            row[number] = broken


RULES = ("empty id", "unknown factor", "duplicate", "short row", "blank cell",
         "not a number", "not a TFN")


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=float).view(np.uint64).ravel().tolist()


def _cell_sums(cells, rows=None, owner=None):
    """``_exact_sums`` of ``cells``, each a list of (lo, mode, hi) rows: by
    default its rows in cell order, or ``rows`` in any order, row ``i`` a
    row of cell ``owner[i]``, gathered through their stable sort."""
    if rows is None:
        rows = np.array([row for cell in cells for row in cell], dtype=float).reshape(-1, 3)
        owner = [i for i, cell in enumerate(cells) for _ in cell]
    return _exact_sums(rows, np.argsort(owner, kind="stable"),
                       np.array([len(cell) for cell in cells]),
                       lambda at: f"cell {at[0]}, column {at[1]}: ")


# magnitudes from 1e-12 to 1e12 of both signs, with zeros of both signs
MAGNITUDE = st.one_of(st.floats(1e-12, 1e12), st.floats(-1e12, -1e-12),
                      st.sampled_from([0.0, -0.0, 1.0, 1e-16, 1e16]))


@st.composite
def judgement_cells(draw):
    """Cells of 1 to 12 rows, uneven counts; some rows cancel earlier ones
    exactly, so that what is left is small against what was added."""
    cells = []
    for _ in range(draw(st.integers(1, 8))):
        cell = draw(st.lists(st.tuples(MAGNITUDE, MAGNITUDE, MAGNITUDE), min_size=1,
                             max_size=6))
        cancelled = draw(st.lists(st.sampled_from(cell), max_size=len(cell)))
        cell += [tuple(-v for v in row) for row in cancelled]
        cells.append(draw(st.permutations(cell)))
    return cells


class TestExactSums:
    """pipeline._exact_sums equals math.fsum of each cell, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(judgement_cells(), st.randoms(use_true_random=False))
    def test_equals_fsum(self, cells, random):
        expected = [[math.fsum(column) for column in zip(*cell)] for cell in cells]
        assert _bits(_cell_sums(cells)) == _bits(expected)
        # the earlier per-cell fsum over rows in file order agrees too
        owner = [i for i, cell in enumerate(cells) for _ in cell]
        random.shuffle(owner)
        rows = np.empty((len(owner), 3))
        taken = [0] * len(cells)
        for at, i in enumerate(owner):
            rows[at] = cells[i][taken[i]]
            taken[i] += 1
        counts = np.array([len(cell) for cell in cells])
        assert _bits(oracles.expert_sums(rows, np.array(owner), counts)) == _bits(expected)
        # and so do the sums gathered through the order of the rows as the file holds them
        assert _bits(_cell_sums(cells, rows, owner)) == _bits(expected)

    def test_fsum_only_where_the_error_sum_is_inexact(self, monkeypatch):
        summed, exact_sum = [], math.fsum

        def fsum(values):
            summed.append(list(values))
            return exact_sum(summed[-1])

        monkeypatch.setattr(math, "fsum", fsum)
        # the second chain adds 1e-32 to 1e-16 with a residual: column 0 of cell 1 falls back
        cells = [[(1.0, 2.0, 3.0)] * 3, [(1.0, 0.0, 0.0), (1e-16, 0.0, 0.0), (1e-32, 0.0, 0.0)],
                 [(1e12, -0.0, 5.0), (1e-12, -0.0, 5.0), (-1e12, -0.0, -5.0)]]
        got = _cell_sums(cells)
        assert summed == [[1.0, 1e-16, 1e-32]]
        assert _bits(got) == _bits([[3.0, 6.0, 9.0], [1.0, 0.0, 0.0], [1e-12, 0.0, 5.0]])

    def test_non_finite_cell_falls_back(self):
        cells = [[(1.0, 1.0, 1.0)], [(math.inf, 1.0, -math.inf), (1.0, 2.0, 3.0)]]
        expected = _bits([[1.0, 1.0, 1.0], [math.inf, 3.0, -math.inf]])
        assert _bits(_cell_sums(cells)) == expected
        # the rows of cell 1 on either side of cell 0's: math.fsum gathers them through the order
        rows = np.array([cells[1][0], cells[0][0], cells[1][1]])
        assert _bits(_cell_sums(cells, rows, [1, 0, 1])) == expected

    @pytest.mark.parametrize("column", [
        pytest.param([1e308, 1e308], id="running-sum"),
        # each row alone leaves the running sum at the largest float; their
        # exact error total then tips the final addition over it
        pytest.param([sys.float_info.max] + [0.75 * math.ulp(sys.float_info.max) / 2] * 2,
                     id="sum-plus-errors"),
    ])
    def test_overflow_names_the_cell(self, column):
        with pytest.raises(NumericError, match=r"^cell 1, column 2: overflows a float$"):
            _cell_sums([[(1.0, 1.0, 1.0)], [(0.0, 0.0, v) for v in column]])

    def test_sample_needs_no_fsum(self, sample_dir, monkeypatch):
        monkeypatch.setattr(math, "fsum", None)
        assert ingest(load_config(sample_dir / "config.json")).scores.shape == (10, 20, 3)


class TestLoadEvaluations:
    """load_evaluations returns what oracles.load_evaluations (the earlier
    csv.DictReader loader) returns, and for a file with one bad row raises
    the same error text."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_equals_reference(self, tmp_path, data):
        path = tmp_path / "evaluations.csv"
        path.write_text(data.draw(evaluation_text(data.draw(judgement_rows()))),
                        encoding="utf-8", newline="")
        new, reference = _load_both(path)
        assert not isinstance(reference, str)
        assert new == reference

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), rule=st.sampled_from(RULES))
    def test_one_bad_row_same_error(self, tmp_path, data, rule):
        rows = data.draw(judgement_rows(min_size=2))
        at = data.draw(st.integers(1 if rule == "duplicate" else 0, len(rows) - 1))
        _corrupt(rows, at, rule, lambda options: data.draw(st.sampled_from(options)))
        path = tmp_path / "evaluations.csv"
        path.write_text(data.draw(evaluation_text(rows)), encoding="utf-8", newline="")
        new, reference = _load_both(path)
        assert new == reference

    @pytest.mark.parametrize("rule", RULES)
    def test_each_rule_names_the_line(self, tmp_path, rule):
        rows = [dict(zip(EVALUATION_COLUMNS, row)) for row in [
            ("p1", "f1", "e1", "1", "2", "3"),
            ("p1", "f2", "e1", "4", "5", "6"),
            ("p2", "f1", "e1", "1", "2", "3"),
        ]]
        _corrupt(rows, 1, rule, lambda options: options[0])
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(EVALUATION_COLUMNS)
        writer.writerows([[row.get(c, "") for c in EVALUATION_COLUMNS] for row in rows])
        path = tmp_path / "evaluations.csv"
        path.write_text(buffer.getvalue(), encoding="utf-8", newline="")
        new, reference = _load_both(path)
        assert isinstance(new, str) and f"{path}:3: " in new
        assert new == reference

    @pytest.mark.parametrize("text", [
        "",
        "attraction_id,factor_id,expert_id,lo,mode\np1,f1,e1,1,2\n",
        " attraction_id,factor_id,expert_id,lo,mode,hi\n",
    ])
    def test_missing_columns(self, tmp_path, text):
        path = tmp_path / "evaluations.csv"
        path.write_text(text, encoding="utf-8")
        new, reference = _load_both(path)
        assert "missing required columns" in new
        assert new == reference

    @pytest.mark.parametrize("body", [
        "p1,f1,e1,1,2,x\np1,f2,e1,y,2,3\n",
        "p1,f1,e1,1,,3\np1,f2,e1,,2,3\n",
        "p1,f1,e1,1,2,3\np1,f1,e1,1,2,3\np1,f2,e1,1,2,3\np1,f2,e1,1,2,3\n",
        "p1,f1,e1,1,2,3\np1,f2,e1,1,3,2\np1,f3,e1,2,1,3\n",
        "p1,f1,e1,1,2,3\np1,ghost,e1,1,2,3\np1,f2,,1,2,3\np1,spook,e1,1,2,3\n",
        "p1,f1,e1,1,2,3\np1,ghost, ,1,2,3\np1,spook,e1,1,2,3\n",
    ])
    def test_faults_of_one_kind_report_the_earliest(self, tmp_path, body):
        path = tmp_path / "evaluations.csv"
        path.write_text("attraction_id,factor_id,expert_id,lo,mode,hi\n" + body,
                        encoding="utf-8")
        new, reference = _load_both(path)
        assert isinstance(new, str)
        assert new == reference

    def test_several_faults_report_by_kind(self, tmp_path):
        """Duplicates are checked over the whole file before the numbers."""
        path = tmp_path / "evaluations.csv"
        path.write_text("attraction_id,factor_id,expert_id,lo,mode,hi\n"
                        "p1,f1,e1,1,x,3\n"
                        "p1,f2,e1,1,2,3\n"
                        "p1,f2,e1,1,2,3\n", encoding="utf-8")
        with pytest.raises(InputError) as raised:
            load_evaluations(path, CATALOGUE)
        assert str(raised.value).startswith(f"{path}:4: duplicate judgement")


class TestLoadEvaluationsInBlocks(TestLoadEvaluations):
    """The same, with the number cells parsed one or two rows at a time, so
    that faults fall in later blocks and in a last, partial one."""

    @pytest.fixture(autouse=True, params=[1, 2])
    def block_rows(self, request, monkeypatch):
        monkeypatch.setattr(pipeline, "_NUMBER_BLOCK_ROWS", request.param)


EVALUATION_HEADER = "attraction_id,factor_id,expert_id,lo,mode,hi\n"


class TestNumberBlockFaults:
    """With blocks of two rows, the checks still run in the order row rules,
    duplicates, numbers, TFN rule, each over the whole file."""

    @pytest.fixture(autouse=True)
    def two_row_blocks(self, monkeypatch):
        monkeypatch.setattr(pipeline, "_NUMBER_BLOCK_ROWS", 2)

    @pytest.mark.parametrize("body, line, message", [
        pytest.param("p1,f1,e1,1,x,3\np1,f2,e1,1,2,3\np1,f3,e1,1,2,3\np1,f3,e1,1,2,3\n", 5,
                     "duplicate judgement for attraction 'p1', factor 'f3', expert 'e1'",
                     id="number-in-an-earlier-block-than-a-duplicate"),
        pytest.param("p1,f1,e1,1,2,3\np1,f2,e1,1,2,3\np2,f1,e1,1,2,3\np2,f1,e1,1,2,3\n"
                     "p3,f1,e1,1,x,3\n", 5,
                     "duplicate judgement for attraction 'p2', factor 'f1', expert 'e1'",
                     id="number-in-a-later-block-than-a-duplicate"),
        pytest.param("p1,f1,e1,1,2,3\np1,f2,e1,1,2,y\np1,f3,e1,1,2,3\np2,f1,e1,x,2,3\n", 3,
                     "column 'hi' is not a number: 'y'", id="numbers-in-two-blocks"),
        pytest.param("p1,f1,e1,1,2,3\np1,f2,e1,1,2,3\np1,f3,e1,1,2,3\np2,f1,e1, ,2,3\n"
                     "p2,f2,e1,1,z,3\n", 5,
                     "missing value in column 'lo'", id="blank-and-bad-in-two-blocks"),
        pytest.param("p1,f1,e1,3,2,1\np1,f2,e1,1,2,3\np1,f3,e1,1,2,3\np2,f1,e1,1,q,3\n", 5,
                     "column 'mode' is not a number: 'q'", id="number-after-a-tfn-fault"),
        pytest.param("p1,f1,e1,1,2,3\np1,f2,e1,1,2,3\np1,f3,e1,1,2,w\n", 4,
                     "column 'hi' is not a number: 'w'", id="number-in-the-last-partial-block"),
        pytest.param("p1,f1,e1,1,2,3\np1,f2,e1,1,2,3\np1,f3,e1,3,2,1\n", 4,
                     "not a TFN (finite, lo <= mode <= hi): (3.0, 2.0, 1.0)",
                     id="tfn-fault-in-the-last-partial-block"),
    ])
    def test_first_fault_by_kind_then_line(self, tmp_path, body, line, message):
        path = tmp_path / "evaluations.csv"
        path.write_text(EVALUATION_HEADER + body, encoding="utf-8")
        with pytest.raises(InputError) as raised:
            load_evaluations(path, CATALOGUE)
        assert str(raised.value) == f"{path}:{line}: {message}"

    @pytest.mark.parametrize("rows", [0, 1, 2, 3, 4, 5])
    def test_numbers_across_blocks(self, tmp_path, rows):
        body = "".join(f"p{i},f1,e1,{i}.5,{i + 1}.25,{i + 2}\n" for i in range(rows))
        path = tmp_path / "evaluations.csv"
        path.write_text(EVALUATION_HEADER + body, encoding="utf-8")
        *_, lines, values = load_evaluations(path, CATALOGUE)
        assert list(lines) == list(range(2, rows + 2))
        assert values.shape == (rows, 3)
        assert values.tolist() == [[i + 0.5, i + 1.25, i + 2.0] for i in range(rows)]


KNOWN = {factor_id: k for k, factor_id in enumerate(CATALOGUE)}
# attraction ids for the C reader: short ones, and ones of 8-27 bytes that
# share their first 8, 16 or 24 bytes (up to 31 bytes with their padding),
# so that every word of a raw id's hash is used
IN_C_ATTRACTIONS = ("a1", "a2", "a,3", "a 4", '"a5"', "attract_", "attract_1", "attract,2",
                    "attraction_0001_", "attraction_0001_a", "attraction_0001_b",
                    "attraction_of_santiago__", "attraction_of_santiago__1ab",
                    "attraction_of_santiago__1ac")
# padding and filler cells that the C reader reads as the row reader does
IN_C_PADDING = st.sampled_from(["", " ", "\t", "  ", " \t"])
IN_C_FILLER = st.sampled_from(["", "x", " ", "1,5", '"quoted"'])
SOURCE_ROOT = Path(pipeline.__file__).resolve().parents[1]


class TestLoadEvaluationsInC:
    """Files that numpy's C reader takes (ASCII, one record a line, no blank
    line) are read by it alone, in blocks of 1, 2 or 3 rows, and the result
    is the reference loader's."""

    @pytest.fixture(autouse=True, params=[1, 2, 3])
    def blocks(self, request, monkeypatch):
        """The block size, and the sizes of the blocks ``np.loadtxt`` is given;
        the row reader fails the test if it runs."""
        monkeypatch.setattr(pipeline, "_NUMBER_BLOCK_ROWS", request.param)
        sizes, loadtxt = [], np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda lines, *args, **kwargs: (
            sizes.append(len(lines)) or loadtxt(lines, *args, **kwargs)))

        def records(*args):
            raise AssertionError("the row reader ran")

        monkeypatch.setattr(pipeline, "_records", records)
        return request.param, sizes

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_equals_reference(self, tmp_path, blocks, data):
        size, sizes = blocks
        rows = data.draw(judgement_rows(min_size=1, attractions=IN_C_ATTRACTIONS,
                                        padding=IN_C_PADDING))
        text = data.draw(evaluation_text(rows, filler=IN_C_FILLER, blank_lines=0))
        path = tmp_path / "evaluations.csv"
        path.write_text(text, encoding="utf-8", newline="")
        sizes.clear()
        new, reference = _load_both(path)
        assert not isinstance(reference, str)
        assert new == reference
        assert sizes == [min(size, len(rows) - at) for at in range(0, len(rows), size)]

    @pytest.mark.parametrize("forms", [
        pytest.param(("p1", " p1", "p1\t"), id="short"),
        pytest.param(("p" * 27, "  " + "p" * 27 + "\t ", "\t" + "p" * 27), id="up-to-31-bytes"),
    ])
    def test_padded_forms_share_one_code(self, tmp_path, blocks, forms):
        """Padded forms of one id hash apart, and are coded as one id: in one
        block (of 3 rows) and across blocks."""
        path = tmp_path / "evaluations.csv"
        path.write_text(EVALUATION_HEADER + "".join(
            f"{form},f1,e{expert},1,2,3\n" for expert, form in enumerate(forms)), encoding="utf-8")
        ids, codes, *_ = load_evaluations(path, CATALOGUE)
        assert ids == [forms[0]]
        assert codes.tolist() == [0, 0, 0]


def test_run_loads_no_numpy_string_module(sample_dir, tmp_path):
    """In a fresh interpreter that has imported numpy, a ``run`` of the
    sample loads none of numpy's string modules: the C reader codes the ids
    by a hash of their bytes, not with ``np.char``."""
    probe = ("import sys, numpy\n"
             "before = set(sys.modules)\n"
             "from tourval.cli import main\n"
             f"code = main(['run', '--config', {str(sample_dir / 'config.json')!r}, "
             f"'--out', {str(tmp_path)!r}])\n"
             "probe = {'numpy.char', 'numpy.strings', 'numpy._core.defchararray'}\n"
             "print('loaded:', *sorted(probe & (set(sys.modules) - before)))\n"
             "sys.exit(code)\n")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": str(SOURCE_ROOT)})
    assert done.stdout.splitlines()[-1] == "loaded:"
    assert (tmp_path / "map.geojson").exists()


class TestByteReader:
    """numpy's C reader reads evaluations.csv as bytes, ``_READ_BYTES`` and
    then on to the end of a line at a time, each chunk split as a text file
    splits it.  With chunks ending anywhere, the result is the reference
    loader's; the C reader takes a file it can read as the text file reads
    it and turns away, with no warning, one where ``str.splitlines`` would
    split a line that the text file does not."""

    BODY = "p1,f1,e1,1,2,3\np1,f2,e 2,4,5,6\np2,f1,e1,0.5,1.5,2.5\np2,f2,e 2,1e1,2e1,3e1\n"

    @pytest.mark.parametrize("block_rows", [1, 2, 4096])
    def test_crlf_across_every_read_boundary(self, tmp_path, monkeypatch, block_rows):
        """Every read size from 1 byte to the whole body, so that a read ends
        between each "\r" and its "\n", and inside every line."""
        monkeypatch.setattr(pipeline, "_NUMBER_BLOCK_ROWS", block_rows)
        path = tmp_path / "evaluations.csv"
        path.write_bytes((EVALUATION_HEADER + self.BODY).replace("\n", "\r\n").encode())
        for read_bytes in range(1, len(self.BODY) + 6):
            monkeypatch.setattr(pipeline, "_READ_BYTES", read_bytes)
            assert pipeline._evaluations_in_c(path, KNOWN) is not None
            new, reference = _load_both(path)
            assert not isinstance(reference, str) and new == reference
            assert new[2] == [2, 3, 4, 5]

    @pytest.mark.parametrize("read_bytes, block_rows", [(1, 1), (20, 2), (1 << 18, 4096)])
    @pytest.mark.parametrize("text, taken", [
        pytest.param(EVALUATION_HEADER.replace("\n", "\r\n") + BODY.replace("\n", "\r"), True,
                     id="crlf-header-lone-cr-records"),
        pytest.param((EVALUATION_HEADER + BODY).replace("\n", "\r"), False, id="lone-cr-everywhere"),
        pytest.param(EVALUATION_HEADER.replace("\n", "\r\r\n") + BODY, False,
                     id="header-then-a-blank-cr-line"),
        pytest.param('"a\rb",' + EVALUATION_HEADER + "".join(
            "x," + line + "\n" for line in BODY.splitlines()), False, id="cr-quoted-in-the-header"),
        pytest.param(EVALUATION_HEADER.rstrip("\n") + ',"note\np9",f1,e9,9,9,9\n' + BODY, False,
                     id="quote-left-open-in-line-1"),
        pytest.param(EVALUATION_HEADER + BODY.replace("p1,f2", "p1\v,f2"), False,
                     id="vertical-tab-padding"),
        pytest.param(EVALUATION_HEADER + BODY.replace("e 2", "e\f2"), False, id="form-feed-in-an-id"),
        pytest.param(EVALUATION_HEADER + BODY.replace("\n", "\v", 1), False,
                     id="vertical-tab-between-two-records"),
        pytest.param(EVALUATION_HEADER + BODY.replace("\n", "\f", 1), False,
                     id="form-feed-between-two-records"),
        pytest.param("\ufeff" + EVALUATION_HEADER + BODY, True, id="byte-order-mark"),
        pytest.param(EVALUATION_HEADER + BODY.rstrip("\n"), True, id="no-final-newline"),
        pytest.param("\ufeff" + (EVALUATION_HEADER + BODY).replace("\n", "\r\n").rstrip(), True,
                     id="byte-order-mark-crlf-no-final-newline"),
    ])
    def test_equals_reference(self, tmp_path, monkeypatch, text, taken, read_bytes, block_rows):
        """The result, or the error text; the reference loader reads the
        file without its byte-order mark, which every input rule drops."""
        monkeypatch.setattr(pipeline, "_READ_BYTES", read_bytes)
        monkeypatch.setattr(pipeline, "_NUMBER_BLOCK_ROWS", block_rows)
        path, unmarked = tmp_path / "evaluations.csv", tmp_path / "unmarked" / "evaluations.csv"
        path.write_bytes(text.encode())
        unmarked.parent.mkdir()
        unmarked.write_bytes(text.removeprefix("\ufeff").encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert (pipeline._evaluations_in_c(path, KNOWN) is not None) == taken
            new = _load_both(path)[0]
        reference = _load_both(unmarked)[1]
        assert new == (reference.replace(str(unmarked), str(path))
                       if isinstance(reference, str) else reference)


class TestFallbackFromC:
    """Files that fail a guard of the C reader are read by the row reader
    alone, from the start: the result or the error is the reference
    loader's, and nothing warns."""

    @pytest.mark.parametrize("block_rows", [2, 4096])
    @pytest.mark.parametrize("body", [
        pytest.param("p1,f1,e1,1_0,20,30\n", id="underscore-digits"),
        pytest.param("p1,f1,e1,1,٢,3\n", id="non-ascii-digit"),
        pytest.param("p1,f1,e1,1,2,3\np1\x1c,f2,e1,1,2,3\n", id="x1c-padding"),
        pytest.param("p1,f1,e1,1,2,3\np1\xa0,f2,e1,1,2,3\n", id="no-break-space-padding"),
        pytest.param(f"{'p' * 32}1,f1,e1,1,2,3\n{'p' * 32}2,f2,e1,1,2,3\n",
                     id="ids-sharing-32-characters"),
        pytest.param("p1,f1,e1,1,2,3\n \t \np1,f2,e1,1,2,3\n", id="whitespace-only-line"),
        pytest.param('"p\n1",f1,e1,1,2,3\np2,f1,e1,1,2,3\n', id="quoted-two-line-cell"),
        pytest.param("p1,f1,e1,1,2,3\np1,f2,e1,1,2,3\n\n\n", id="trailing-blank-block"),
        pytest.param("p1,f1,e1,1,2,3\np1,f2,e1,1,2,3\n \n\t\n", id="trailing-whitespace-block"),
        pytest.param("p1,f1,e1,1,2,3\np1\0,f2,e1,1,2,3\n", id="nul-ending-an-id",
                     marks=pytest.mark.skipif(sys.version_info < (3, 11),
                                              reason="csv reads NUL from Python 3.11")),
    ])
    def test_row_reader_result(self, tmp_path, monkeypatch, body, block_rows):
        monkeypatch.setattr(pipeline, "_NUMBER_BLOCK_ROWS", block_rows)
        path = tmp_path / "evaluations.csv"
        path.write_text(EVALUATION_HEADER + body, encoding="utf-8", newline="")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pipeline._evaluations_in_c(path, KNOWN) is None
            new, reference = _load_both(path)
        assert new == reference

    @pytest.mark.parametrize("text", [
        pytest.param(EVALUATION_HEADER, id="no-rows"),
        pytest.param('"a\nb",' + EVALUATION_HEADER + "x,p1,f1,e1,1,2,3\n", id="two-line-header"),
        pytest.param(EVALUATION_HEADER + "p1,f1,e1,1,2\n", id="short-row"),
        pytest.param("attraction_id,factor_id,lo,mode,hi\np1,f1,1,2,3\n", id="missing-column"),
    ])
    def test_each_other_guard(self, tmp_path, text):
        path = tmp_path / "evaluations.csv"
        path.write_text(text, encoding="utf-8", newline="")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pipeline._evaluations_in_c(path, KNOWN) is None
            new, reference = _load_both(path)
        assert new == reference

    @pytest.mark.parametrize("multipliers", [
        pytest.param((0, 0, 0, 0), id="every-id-alike"),
        pytest.param((0, 1, 1, 1), id="ids-alike-in-their-first-8-bytes"),
    ])
    def test_hash_collision(self, tmp_path, monkeypatch, multipliers):
        """Raw ids that share a hash send the file to the row reader.  With
        every id alike, the rows of a block would also share one key; with
        the first word left out, ``p1`` and ``p2`` collide while the experts,
        which differ in their second word, keep the keys apart, so only the
        check of each row's words finds the collision."""
        monkeypatch.setattr(pipeline, "_ID_HASH", np.array(multipliers, np.uint64))
        path = tmp_path / "evaluations.csv"
        path.write_text(EVALUATION_HEADER + "p1,f1,expert_01,1,2,3\np2,f1,expert_02,1,2,3\n",
                        encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pipeline._evaluations_in_c(path, KNOWN) is None
            new, reference = _load_both(path)
        assert new == reference
        assert new[0] == ["p1", "p2"]

    def test_header_below_a_blank_line(self, tmp_path):
        """The reference loader takes no blank line above the header; the row
        reader skips it, and reads the record below the header as line 3."""
        path = tmp_path / "evaluations.csv"
        path.write_text("\n" + EVALUATION_HEADER + "p1,f1,e1,1,2,3\n", encoding="utf-8")
        assert pipeline._evaluations_in_c(path, KNOWN) is None
        assert _per_row_ids(path, CATALOGUE)[2] == [3]

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "evaluations.csv"
        path.write_bytes(EVALUATION_HEADER.encode() + b"p\xe91,f1,e1,1,2,3\n")
        assert pipeline._evaluations_in_c(path, KNOWN) is None
        with pytest.raises(InputError, match=r": not UTF-8 text \("):
            load_evaluations(path, CATALOGUE)

    def test_read_error_before_the_rules(self, tmp_path):
        """The whole file is read before any rule is checked: an empty id on
        line 2 and a byte that is not UTF-8 on line 3 report the read error,
        as the reference loader does, which reads the file through before
        its first row."""
        path = tmp_path / "evaluations.csv"
        path.write_bytes(EVALUATION_HEADER.encode() + b"p1,f1,,1,2,3\np\xe92,f1,e1,1,2,3\n")
        with pytest.raises(InputError, match=r"^[^:]+: not UTF-8 text \("):
            load_evaluations(path, CATALOGUE)
        with pytest.raises(UnicodeDecodeError):
            oracles.load_evaluations(path, CATALOGUE)


class TestRuleFaultsInC:
    """A file that numpy's C reader reads as the row reader would is read by
    it alone, even when a row breaks a judgement rule: the rules are checked
    after either reader, ``_records`` never runs, nothing warns, and the
    error is the reference loader's."""

    @pytest.fixture(autouse=True)
    def no_row_reader(self, monkeypatch):
        def records(*args):
            raise AssertionError("the row reader ran")

        monkeypatch.setattr(pipeline, "_records", records)

    @pytest.mark.parametrize("block_rows", [2, 4096])
    @pytest.mark.parametrize("body", [
        pytest.param("p1,f1,e1,nan,2,3\n", id="nan"),
        pytest.param("p1,f1,e1,1,2,inf\n", id="inf"),
        pytest.param("p1,ghost,e1,1,2,3\n", id="unknown-factor"),
        pytest.param("p1,f1, ,1,2,3\n", id="empty-id"),
        pytest.param("p1,f1,e1,1,2,3\np1,f1,e1 ,4,5,6\n", id="duplicate"),
        pytest.param("p1,f1,e1,3,2,1\n", id="not-a-tfn"),
    ])
    def test_error_is_the_reference_loaders(self, tmp_path, monkeypatch, body, block_rows):
        monkeypatch.setattr(pipeline, "_NUMBER_BLOCK_ROWS", block_rows)
        path = tmp_path / "evaluations.csv"
        path.write_text(EVALUATION_HEADER + body, encoding="utf-8", newline="")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pipeline._evaluations_in_c(path, KNOWN) is not None
            new, reference = _load_both(path)
        assert isinstance(reference, str)
        assert new == reference

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), block_rows=st.integers(1, 3),
           rule=st.sampled_from(("empty id", "unknown factor", "duplicate", "not a TFN")))
    def test_one_bad_row_same_error(self, tmp_path, monkeypatch, data, block_rows, rule):
        monkeypatch.setattr(pipeline, "_NUMBER_BLOCK_ROWS", block_rows)
        rows = data.draw(judgement_rows(min_size=2, attractions=IN_C_ATTRACTIONS,
                                        padding=IN_C_PADDING))
        at = data.draw(st.integers(1 if rule == "duplicate" else 0, len(rows) - 1))
        _corrupt(rows, at, rule, lambda options: data.draw(st.sampled_from(options)))
        path = tmp_path / "evaluations.csv"
        path.write_text(data.draw(evaluation_text(rows, filler=IN_C_FILLER, blank_lines=0)),
                        encoding="utf-8", newline="")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            new, reference = _load_both(path)
        assert new == reference


def test_load_evaluations_memory_per_row(tmp_path):
    """The traced peak of reading 30,000 judgements stays under 240 bytes a
    row: the number cells are not all held as text until the file ends
    (that took about 335 bytes a row; parsing them in blocks, about 155;
    numpy's C reader, in blocks, about 125)."""
    rows, experts = 30_000, 5
    path = tmp_path / "evaluations.csv"
    with path.open("w", encoding="utf-8", newline="") as handle:
        handle.write(EVALUATION_HEADER)
        for i in range(rows):
            handle.write(f"a{i // (3 * experts):05d},f{i // experts % 3 + 1},e{i % experts + 1},"
                         f"0.{i % 7}5,1.{i % 9}1,2.{i % 5}0\n")
    tracemalloc.start()
    try:
        result = load_evaluations(path, CATALOGUE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result[3]) == rows
    assert peak / rows < 240, f"{peak / rows:.0f} bytes a row"


def test_row_reader_memory_per_row(tmp_path, monkeypatch):
    """The same bound holds for the row reader, which reads every file the
    C reader turns away."""
    monkeypatch.setattr(pipeline, "_evaluations_in_c", lambda *args: None)
    test_load_evaluations_memory_per_row(tmp_path)


class TestPairwiseWeights:
    def _config_with_pairwise(self, dataset_builder, tmp_path, matrix_rows):
        config_path = dataset_builder(
            factors=[("f1", "Condition", 0.0, 5.0), ("f2", "Impact", -5.0, 0.0)],
            factor_columns=("id", "name", "x", "y"),
            config_extra={"pairwise": "pairwise.csv"})
        with open(tmp_path / "pairwise.csv", "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(matrix_rows)
        return config_path

    def test_weights_derived(self, dataset_builder, tmp_path):
        config_path = self._config_with_pairwise(
            dataset_builder, tmp_path, [["f1", "f2"], [1.0, 3.0], [1 / 3, 1.0]])
        result = ingest(load_config(config_path))
        assert result.weight_source == "pairwise"
        weights = {f.id: f.weight for f in result.catalogue.factors}
        assert weights["f1"] == pytest.approx(0.75, abs=1e-9)
        assert weights["f2"] == pytest.approx(0.25, abs=1e-9)

    def test_header_mismatch_rejected(self, dataset_builder, tmp_path):
        config_path = self._config_with_pairwise(
            dataset_builder, tmp_path, [["f1", "zz"], [1.0, 3.0], [1 / 3, 1.0]])
        with pytest.raises(InputError, match="zz"):
            ingest(load_config(config_path))

    def test_error_names_the_file_line_past_blank_lines(self, dataset_builder, tmp_path):
        config_path = self._config_with_pairwise(
            dataset_builder, tmp_path, [["f1", "f2"], [], ["  "], [1.0, 3.0], [1 / 3, 1.0, 5.0]])
        with pytest.raises(InputError, match=r"pairwise.csv:5: expected 2 entries, got 3"):
            ingest(load_config(config_path))

    @pytest.mark.parametrize("cells, message", [
        (["x", 1.0], "column 'f1' is not a number: 'x'"),
        ([" ", 1.0], "missing value in column 'f1'"),
    ])
    def test_cells_read_by_the_number_rule(self, dataset_builder, tmp_path, cells, message):
        config_path = self._config_with_pairwise(
            dataset_builder, tmp_path, [["f1", "f2"], [1.0, 3.0], cells])
        with pytest.raises(InputError, match=rf"pairwise\.csv:3: {message}$"):
            ingest(load_config(config_path))

    def test_wrong_shape_rejected(self, dataset_builder, tmp_path):
        config_path = self._config_with_pairwise(
            dataset_builder, tmp_path, [["f1", "f2"], [1.0, 3.0]])
        with pytest.raises(InputError, match="rows"):
            ingest(load_config(config_path))

    def test_inconsistent_matrix_gated(self, dataset_builder, tmp_path):
        config_path = dataset_builder(
            factors=[("f1", "A", 0.0, 5.0), ("f2", "B", 0.0, 5.0), ("f3", "C", 0.0, 5.0)],
            evaluations=[
                ("p1", "f1", "e1", 1, 2, 3), ("p1", "f2", "e1", 1, 2, 3),
                ("p1", "f3", "e1", 1, 2, 3),
                ("p2", "f1", "e1", 2, 3, 4), ("p2", "f2", "e1", 2, 3, 4),
                ("p2", "f3", "e1", 2, 3, 4),
            ],
            factor_columns=("id", "name", "x", "y"),
            config_extra={"pairwise": "pairwise.csv"})
        with open(tmp_path / "pairwise.csv", "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(
                [["f1", "f2", "f3"], [1, 2, 0.5], [0.5, 1, 4], [2, 0.25, 1]])
        config = load_config(config_path)
        with pytest.raises(InputError, match="allow-inconsistent"):
            run_valuation(config)
        output = run_valuation(config, allow_inconsistent=True)
        assert output.weight_report.inconsistent


class TestRunPipeline:
    @pytest.fixture()
    def sample_run(self, sample_dir, tmp_path):
        config = load_config(sample_dir / "config.json").replace(out_dir=tmp_path / "out")
        return config, run_pipeline(config)

    def test_config_echo_keeps_integer_settings(self, dataset_builder):
        """results.json echoes each setting as the records hold it: an integer
        as written, a pair or a dwell triple as a list of what was written, and
        only the filter threshold, which the config makes a float, as a float.
        The sample and the benchmark's configs hold floats only."""
        config = load_config(dataset_builder(config_extra={
            "target": [0, 100], "filter_threshold": 66, "kde": {"cell_m": 15},
            "tour": {"dwell_minutes": [5, 10, 15]}}))
        run_valuation(config)
        text = (config.out_dir / "results.json").read_text("utf-8")
        path = {name: json.dumps(str(getattr(config, name)))
                for name in ("factors", "evaluations", "attractions", "out_dir")}
        assert text[:text.index('"filter":{')] == (
            f'{{"config":{{"attractions":{path["attractions"]},"defuzzify":"centroid",'
            f'"evaluations":{path["evaluations"]},"factors":{path["factors"]},'
            '"filter_threshold":66.0,"kde":{"bandwidth_m":100.0,"cell_m":15,'
            '"hotspot_percentile":90.0,"merge_radius_m":0.0},'
            f'"out_dir":{path["out_dir"]},"pairwise":null,"range_policy":"strict",'
            '"target":[0,100],"tier_thresholds":[33.0,66.0],'
            '"tour":{"dwell_minutes":[5,10,15],"walk_speed_kmh":4.0}},')

    def test_row_count_and_rank_order(self, sample_run):
        config, output = sample_run
        with open(config.out_dir / "results.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 10
        assert [int(r["rank"]) for r in rows] == list(range(1, 11))
        crisp = [float(r["crisp"]) for r in rows]
        assert crisp == sorted(crisp, reverse=True)

    def test_filter_report(self, sample_run):
        config, output = sample_run
        assert output.retained == ("a01", "a02", "a03")
        report = json.loads((config.out_dir / "results.json").read_text("utf-8"))
        assert report["filter"]["retained"] == ["a01", "a02", "a03"]
        assert report["filter"]["count"] == 3

    def test_crisp_matches_independent_oracle(self, sample_dir, sample_run):
        _, output = sample_run
        want = oracles.pipeline_oracle(sample_dir)
        results = output.results
        for attraction_id, got_ftv, got_crisp in zip(results.ids, results.ftv.tolist(),
                                                     results.crisp.tolist()):
            ftv, crisp = want[attraction_id]
            assert got_crisp == pytest.approx(crisp, abs=1e-9)
            assert got_ftv == pytest.approx(ftv, abs=1e-9)

    def test_rerun_byte_identical(self, sample_run):
        config, _ = sample_run
        first = {p.name: p.read_bytes() for p in config.out_dir.iterdir()}
        run_pipeline(config)
        second = {p.name: p.read_bytes() for p in config.out_dir.iterdir()}
        assert first == second

    def test_artifact_set(self, sample_run):
        config, output = sample_run
        names = sorted(p.name for p in output.written)
        assert names == ["map.geojson", "results.csv", "results.json"]

    def test_geojson_feature_inventory(self, sample_run):
        config, output = sample_run
        doc = json.loads((config.out_dir / "map.geojson").read_text("utf-8"))
        assert doc["type"] == "FeatureCollection"
        kinds = {}
        for feature in doc["features"]:
            kinds.setdefault(feature["properties"]["feature_type"], []).append(feature)
        assert len(kinds["attraction"]) == 10
        assert len(kinds["hotspot"]) == 3
        assert len(kinds["tour"]) == 1
        assert all(f["properties"]["density"] > 0 for f in kinds["density"])
        ring = kinds["tour"][0]["geometry"]["coordinates"]
        assert ring[0] == ring[-1]

    def test_failure_leaves_no_outputs(self, dataset_builder, tmp_path):
        config_path = dataset_builder(evaluations=[
            ("p1", "f1", "e1", 1.0, 2.0, 3.0),
        ])
        with pytest.raises(InputError):
            run_pipeline(load_config(config_path))
        assert not (tmp_path / "out").exists()

    def test_valuation_only_skips_map(self, sample_dir, tmp_path):
        config = load_config(sample_dir / "config.json").replace(out_dir=tmp_path / "out")
        output = run_valuation(config)
        names = sorted(p.name for p in output.written)
        assert names == ["results.csv", "results.json"]
        assert output.tour is None


class TestRunTour:
    def test_requires_prior_results(self, sample_dir, tmp_path):
        config = load_config(sample_dir / "config.json").replace(out_dir=tmp_path / "empty")
        with pytest.raises(InputError, match="results.csv"):
            run_tour(config)

    def test_recomputes_equivalent_map(self, sample_dir, tmp_path):
        """The tour stage feeds on results.csv, i.e. on values already
        rounded to 6 significant digits; the full run makes every decision
        on those printed values too, so the tour stage rewrites its
        map.geojson byte for byte, and does so deterministically."""
        config = load_config(sample_dir / "config.json").replace(out_dir=tmp_path / "out")
        full = run_pipeline(config)
        first = (config.out_dir / "map.geojson").read_bytes()
        (config.out_dir / "map.geojson").unlink()
        output = run_tour(config)
        assert output.tour is not None
        assert output.tour == full.tour
        assert output.hotspots == full.hotspots
        assert output.retained == full.retained
        assert output.weight_source is None and output.weight_report is None
        assert (config.out_dir / "map.geojson").read_bytes() == first

        run_tour(config)
        assert (config.out_dir / "map.geojson").read_bytes() == first

    @staticmethod
    def _one_factor(dataset_builder, values, filter_threshold=66.0):
        """Config for attractions a0, a1, ... about 100 m apart, each judged
        ``values[i]`` by one expert on one factor on [0, 100] with weight 1,
        so each crisp value is its judgement."""
        ids = [f"a{i}" for i in range(len(values))]
        return load_config(dataset_builder(
            factors=[("f1", "Only", 0.0, 100.0, 1.0)],
            evaluations=[(a, "f1", "e1", v, v, v) for a, v in zip(ids, values)],
            attractions=[(a, a, -75.8267 + i * 1e-3, 20.0211 + (i % 2) * 5e-4)
                         for i, a in enumerate(ids)],
            config_extra={"filter_threshold": filter_threshold}))

    @staticmethod
    def _run_then_tour(config):
        """map.geojson from ``run`` and then from ``tour``, with both outputs."""
        full = run_pipeline(config)
        first = (config.out_dir / "map.geojson").read_bytes()
        toured = run_tour(config)
        return full, first, toured, (config.out_dir / "map.geojson").read_bytes()

    def test_value_printed_as_the_threshold_is_dropped_on_both_paths(self, dataset_builder):
        config = self._one_factor(dataset_builder, [80.0, 66.0000004])
        full, first, toured, second = self._run_then_tour(config)
        rows = (config.out_dir / "results.csv").read_text("utf-8").splitlines()
        assert rows[2] == "a1,66,66,66,66,Medium,2"
        assert full.retained == toured.retained == ("a0",)
        assert second == first

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), filter_threshold=st.sampled_from([66.0, 50.0, 80.5]))
    def test_tour_after_run_rewrites_the_same_map(self, dataset_builder, data,
                                                  filter_threshold):
        """Values on, and within half a printed unit of, each tier threshold
        and the filter threshold, among values anywhere on the scale."""
        near = st.builds(lambda at, offset: at + offset,
                         st.sampled_from([33.0, 66.0, filter_threshold]),
                         st.one_of(st.sampled_from([0.0, 5e-5, -5e-5, 4e-7, -4e-7]),
                                   st.floats(-5e-5, 5e-5)))
        values = data.draw(st.lists(st.one_of(near, st.floats(0.0, 100.0)),
                                    min_size=1, max_size=5))
        config = self._one_factor(dataset_builder, values, filter_threshold)
        full, first, toured, second = self._run_then_tour(config)
        assert toured.retained == full.retained
        assert second == first


# -- map.geojson text against the dict-based reference renderer -------------

NAME_CHARS = st.characters(blacklist_categories=("Cs",))
SPECIAL_NAME = 'Café "Trova" \\ Santiago de Cuba 寺 \x00\x07\t\n \U0001f3b8'


def _map_inputs(names, grid, hotspot_scores=(), with_tour=False, center=(-75.8, 20.0),
                tiers=None):
    """Attractions named ``names`` around ``center``, with rising crisp values
    in ``tiers``, which must not fall (if not given, Low, Medium, then High),
    hotspots with the given scores and, if asked and there are hotspots, a
    tour over them."""
    lon, lat = center
    ids = [f"a{i}" for i in range(len(names))]
    tiers = tiers or [TIERS[min(i, len(TIERS) - 1)] for i in range(len(names))]
    ranked = [oracles.Result(aid, TFN(i - 1.5, i * 1.0, i + 0.25), i * 1.0 / 3.0, tier)
              for i, (aid, tier) in enumerate(zip(ids, tiers))]
    locations = {aid: GeoPoint(lon + i * 1e-3, -(lat + i * 1e-3)) for i, aid in enumerate(ids)}
    hotspots = tuple(HotSpot(GeoPoint(-lon - i * 1e-3, lat), score, f"H{i + 1}")
                     for i, score in enumerate(hotspot_scores))
    tour = None
    if with_tour and hotspots:
        tour = Tour(hotspots, 1.234567891, (0.5, 1.0 / 3.0 + 0.7, 2.0))
    return (dict(zip(ids, names)), locations, ranked,
            {aid: i + 1 for i, aid in enumerate(ids)}, grid, hotspots, tour)


def _valuation(ranked, ranks):
    """The ``Valuation`` whose rows are ``ranked``, in order; ``ranks`` must
    be their positions, as a ``Valuation``'s ranks are.  Its thresholds are
    the largest printed Low and Medium values, which put each row in its
    tier when no tier holds a printed value above one of a higher tier."""
    assert ranks == {r.attraction_id: i + 1 for i, r in enumerate(ranked)}
    printed = {tier: [round6(r.crisp) for r in ranked if r.tier == tier] for tier in TIERS}
    low_max = max(printed["Low"], default=-math.inf)
    valuation = Valuation(tuple(r.attraction_id for r in ranked),
                          np.array([r.ftv.as_tuple() for r in ranked]).reshape(-1, 3),
                          np.array([r.crisp for r in ranked]),
                          (low_max, max(printed["Medium"], default=low_max)))
    assert valuation.tiers == tuple(r.tier for r in ranked)
    return valuation


def render_map(names, locations, ranked, ranks, grid, hotspots, tour):
    """``render.map_geojson`` on the arguments of ``oracles.map_geojson``."""
    valuation = _valuation(ranked, ranks)
    return render.map_geojson(render.result_columns(valuation, names)[0],
                              [locations[i] for i in valuation.ids], grid, hotspots, tour)


def render_results(config, ingested, ranked, ranks, retained, hotspots, tour):
    """``render.results_json`` on the arguments of ``oracles.results_json``."""
    return render.results_json(config, ingested,
                               render.result_columns(_valuation(ranked, ranks), ingested.names)[0],
                               tuple(r.attraction_id for r in retained), hotspots, tour)


def _grid(values, center=(-75.8, 20.0), x0=-12.5, y0=7.25, cell_m=9.0):
    return DensityGrid(GeoPoint(*center), x0, y0, cell_m, np.asarray(values, dtype=float))


@st.composite
def map_inputs(draw):
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    value = st.one_of(st.just(0.0), st.sampled_from([1e-05, 1.5e-07, 1e16, 0.1]),
                      st.floats(1e-9, 1e9))
    values = draw(st.lists(value, min_size=nrows * ncols, max_size=nrows * ncols))
    center = (draw(st.one_of(st.just(0.0), st.floats(-179.0, 179.0))),
              draw(st.one_of(st.just(0.0), st.floats(-80.0, 80.0))))
    offset = st.one_of(st.just(-1e-3), st.floats(-5000.0, 5000.0))
    grid = None
    if draw(st.integers(0, 9)):
        grid = _grid(np.reshape(values, (nrows, ncols)), center, draw(offset), draw(offset),
                     draw(st.floats(0.5, 1000.0)))
    names = draw(st.lists(st.text(NAME_CHARS, max_size=12), max_size=4))
    tiers = sorted(draw(st.lists(st.sampled_from(TIERS), min_size=len(names),
                                 max_size=len(names))), key=TIERS.index)
    scores = draw(st.lists(st.floats(1e-6, 1e6), max_size=3))
    return _map_inputs(names, grid, scores, draw(st.booleans()), center, tiers)


class TestMapText:
    """render.map_geojson prints the same bytes as the whole
    FeatureCollection through oracles.one_item_per_line
    (oracles.map_geojson)."""

    @staticmethod
    def assert_same(inputs):
        assert "".join(render_map(*inputs)) == oracles.map_geojson(*inputs)

    @settings(max_examples=150, deadline=None)
    @given(map_inputs())
    def test_equals_reference(self, inputs):
        self.assert_same(inputs)

    @pytest.mark.parametrize("inputs", [
        pytest.param(_map_inputs(["A", "B"], _grid(np.zeros((3, 4))), (2.0,), True),
                     id="no-positive-cell"),
        pytest.param(_map_inputs([], _grid(np.zeros((3, 4)))), id="empty-collection"),
        pytest.param(_map_inputs([], _grid([[0.0, 0.0], [0.0, 4.5]])), id="single-cell-only"),
        pytest.param(_map_inputs(["A"], _grid([[0.25]]), (1.0,), True), id="single-cell"),
        pytest.param(_map_inputs(["A"], _grid([[1e-05, 1.5e-07], [1e16, 0.0]]), (3.0, 2.0),
                                 True), id="exponent-densities"),
        pytest.param(_map_inputs(["A", "B"], _grid([[1.0, 2.0], [3.0, 0.5]], center=(0.0, 0.0),
                                                   x0=-1e-3, y0=-1e-3, cell_m=1e-3),
                                 (1.0,), True, center=(0.0, 0.0)), id="negative-and-minus-zero"),
        pytest.param(_map_inputs(["A", "B"], _grid([[1.0, 2.0]])), id="no-hotspots-no-tour"),
        pytest.param(_map_inputs(["A"], _grid([[1.0]]), (1.0, 2.0)), id="hotspots-no-tour"),
        pytest.param(_map_inputs([SPECIAL_NAME, "\\\"'", "\x1f\x7f\u0085"], _grid([[2.0]]),
                                 (1.0,), True), id="awkward-names"),
        pytest.param(_map_inputs(["A"], None, (1.0,), True), id="no-grid"),
    ])
    def test_edge_cases(self, inputs):
        self.assert_same(inputs)

    def test_minus_zero_coordinate_reaches_the_map(self):
        inputs = _map_inputs(["A"], _grid([[1.0, 2.0], [3.0, 0.5]], center=(0.0, 0.0),
                                          x0=-1e-3, y0=-1e-3, cell_m=1e-3),
                             center=(0.0, 0.0))
        assert '"coordinates":[[[-0.0,-0.0],' in "".join(render_map(*inputs))


# -- results.json text against the whole document, one result per line -------

# exponent forms, zeros of both signs, and plain values
RESULT_NUMBER = st.one_of(st.sampled_from([0.0, -0.0, 1e-05, 1.5e-07, 1e16, 123456789.0]),
                          st.floats(-1e9, 1e9))
POSITIVE = st.one_of(st.sampled_from([1e-05, 1.5e-07, 1e16]), st.floats(1e-9, 1e9))


@st.composite
def results_inputs(draw, config, ingested):
    """Arguments of ``render.results_json``: awkward ids and names, each
    value's tier under any thresholds, either weight source, with or without
    hotspots and a tour."""
    ids = draw(st.lists(st.text(NAME_CHARS, max_size=8), unique=True, max_size=5))
    names = {aid: draw(st.one_of(st.just(SPECIAL_NAME), st.text(NAME_CHARS, max_size=12)))
             for aid in ids}
    thresholds = tuple(sorted(draw(st.tuples(RESULT_NUMBER, RESULT_NUMBER))))
    crisp = [draw(RESULT_NUMBER) for _ in ids]
    ranked = [oracles.Result(aid, TFN(*sorted(draw(st.tuples(*[RESULT_NUMBER] * 3)))), value,
                             classify(value, thresholds, (-math.inf, math.inf)))
              for aid, value in zip(ids, crisp)]
    ranks = {aid: i + 1 for i, aid in enumerate(ids)}
    retained = [r for r in ranked if draw(st.booleans())]
    report = draw(st.sampled_from([None, derive_weights([[1.0, 3.0], [1 / 3, 1.0]]),
                                   derive_weights([[1, 2, 0.5], [0.5, 1, 4], [2, 0.25, 1]])]))
    ingested = ingested.replace(names=names, weight_report=report,
                                weight_source="column" if report is None else "pairwise")
    hotspots = tuple(HotSpot(GeoPoint(-75.8 - i * 1e-3, 20.0 + i * 1e-7), score, f"H{i + 1}")
                     for i, score in enumerate(draw(st.lists(POSITIVE, max_size=3))))
    tour = None
    if hotspots and draw(st.booleans()):
        tour = Tour(hotspots, draw(POSITIVE), (2e-07, 1.0 / 3.0 + 0.7, 1e16))
    return config, ingested, ranked, ranks, retained, hotspots, tour


class TestResultsText:
    """render.results_json prints the same bytes as the whole document
    through oracles.one_item_per_line (oracles.results_json)."""

    @pytest.fixture(scope="class")
    def sample(self, sample_dir, tmp_path_factory):
        config = load_config(sample_dir / "config.json").replace(
            out_dir=tmp_path_factory.mktemp("results") / 'out "Café" 寺')
        return config, ingest(config)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_equals_reference(self, sample, data):
        inputs = data.draw(results_inputs(*sample))
        assert "".join(render_results(*inputs)) == oracles.results_json(*inputs)

    def test_no_results(self, sample):
        inputs = (*sample, [], {}, [], (), None)
        assert "".join(render_results(*inputs)) == oracles.results_json(*inputs)


# -- the one splice of pre-rendered items into a JSON document ----------------

# text that looks like the splice's own marks: a newline, a quote, a list's end,
# a line separator (U+2028), an empty list at a key and a document's end
SPLICE_TEXT = st.one_of(st.sampled_from(["\n", '"', "],", "\u2028", '"m":[]', '{"m":[],',
                                         "]}", "]\n}"]),
                        st.text(NAME_CHARS, max_size=8))
JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6) | st.floats(allow_nan=False)
    | SPLICE_TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(SPLICE_TEXT, inner, max_size=3),
    max_leaves=6)


class TestDocument:
    """render._document prints what oracles.one_item_per_line prints for
    the whole document, whatever sorts around the list key, whatever the
    texts hold and wherever the key is also nested."""

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["before", "after", "both"]), st.data())
    def test_equals_json_dumps(self, sides, data):
        # every "a..." key sorts before every "m..." key, which sorts before "z..."
        key = "m" + data.draw(SPLICE_TEXT)
        prefixes = {"before": "a", "after": "z", "both": "az"}[sides]
        outer = {prefix + data.draw(SPLICE_TEXT): data.draw(JSON_VALUE)
                 for prefix in prefixes for _ in range(data.draw(st.integers(1, 2)))}
        outer[data.draw(st.sampled_from(sorted(outer)))] = {key: []}   # the key, nested
        values = data.draw(st.lists(JSON_VALUE, max_size=4))
        want = oracles.one_item_per_line({**outer, key: values}, key)
        texts = [render._compact(v) for v in values]
        # a list, or a one-shot generator read only as the chunks are
        items = (text for text in texts) if data.draw(st.booleans()) else texts
        assert "".join(render._document(outer, key, items)) == want


class TestJsonArtifactLines:
    """results.json and map.geojson as a run writes them: each is
    ``oracles.one_item_per_line`` of its own document, so every line between
    the first and the last is one item as compact ``json.dumps`` prints it,
    with a comma after every item but the last."""

    @staticmethod
    def documents(config):
        """Each JSON artifact's text and document after ``run`` on ``config``."""
        run_pipeline(config)
        documents = {}
        for name, key in (("results.json", "results"), ("map.geojson", "features")):
            text = (config.out_dir / name).read_text("utf-8")
            document = json.loads(text)
            assert document[key] and text == oracles.one_item_per_line(document, key)
            documents[name] = text, document
        return documents

    def test_sample(self, sample_dir, tmp_path):
        config = load_config(sample_dir / "config.json").replace(out_dir=tmp_path / "out")
        documents = self.documents(config)
        assert len(documents["results.json"][1]["results"]) == 10

    @pytest.mark.parametrize("word", ["results", "features", '"results":[]', '{"features":[]}'])
    def test_list_key_spliced_at_the_top_level_only(self, dataset_builder, word):
        """An attraction id, an attraction name and a factor id that are a
        list's key, or hold one with its empty list, print where they are
        and leave the items at the top-level key."""
        config = load_config(dataset_builder(
            factors=[(word, "Condition", 0.0, 5.0, 0.5), ("f2", "Impact", -5.0, 0.0, 0.5)],
            evaluations=[(word, word, "e1", 1.0, 2.0, 3.0), (word, "f2", "e1", -3.0, -2.0, -1.0),
                         ("p2", word, "e1", 3.0, 4.0, 5.0), ("p2", "f2", "e1", -2.0, -1.0, 0.0)],
            attractions=[(word, word, -75.8267, 20.0211),
                         ("p2", "Second Court", -75.8238, 20.0198)]))
        documents = self.documents(config)
        results = documents["results.json"][1]
        assert {r["attraction_id"]: r["name"] for r in results["results"]} == {
            word: word, "p2": "Second Court"}
        assert sorted(results["weights"]["values"]) == sorted([word, "f2"])
        assert {f["properties"]["id"]: f["properties"]["name"]
                for f in documents["map.geojson"][1]["features"]
                if f["properties"]["feature_type"] == "attraction"} == {
            word: word, "p2": "Second Court"}

    def test_non_ascii_names_unescaped(self, dataset_builder):
        name = "Café Ñandú 寺 \U0001f3b8"
        config = load_config(dataset_builder(attractions=[
            ("p1", name, -75.8267, 20.0211), ("p2", "Second Court", -75.8238, 20.0198)]))
        for text, _ in self.documents(config).values():
            assert f'"name":"{name}"' in text and "\\u" not in text

    def test_empty_list(self):
        empty = '{"features":[],"type":"FeatureCollection"}\n'
        assert "".join(render._document({"type": "FeatureCollection"}, "features", [])) == empty
        assert "".join(render_map({}, {}, [], {}, None, (), None)) == empty


# -- the block writer ----------------------------------------------------------

# empty chunks, multi-byte text and line ends, which are written as they are
CHUNK = st.one_of(st.just(""), st.sampled_from(["Café", "é", "寺", "\U0001f3b8", "\n", "\r\n"]),
                  st.text(NAME_CHARS, max_size=6))


class TestWriteAll:
    """pipeline._write_all writes each payload's chunks as they are made,
    exactly the UTF-8 of their join."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(CHUNK, max_size=40))
    def test_bytes_are_the_join(self, chunks):
        with tempfile.TemporaryDirectory() as tmp:
            written = _write_all(Path(tmp), {"a.txt": chunks, "b.txt": iter(chunks)})
            assert [p.read_bytes() for p in written] == ["".join(chunks).encode("utf-8")] * 2
            assert sorted(os.listdir(tmp)) == ["a.txt", "b.txt"]

    def test_each_chunk_written_before_the_next_is_made(self, tmp_path, monkeypatch):
        """Large chunks, a multi-byte letter split from its word and empty
        chunks: each is handed to the file before the next one is made,
        and the file is the UTF-8 of their join."""
        chunks = ["x" * 100_000, "Caf", "é", "", "", "寺" * 50_000, "\n"]
        writes = []
        real_open = Path.open

        def recording_writes(path, *args, **kwargs):
            handle = real_open(path, *args, **kwargs)
            write = handle.write
            handle.write = lambda text: writes.append(text) or write(text)
            return handle

        def made():
            for i, chunk in enumerate(chunks):
                assert writes == chunks[:i]
                yield chunk

        monkeypatch.setattr(Path, "open", recording_writes)
        (path,) = _write_all(tmp_path, {"map.geojson": made()})
        assert writes == chunks
        assert path.read_bytes() == "".join(chunks).encode("utf-8")
