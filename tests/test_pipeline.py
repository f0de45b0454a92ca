import csv
import io
import json
import math
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tourval import TriangularFuzzyNumber as TFN
from tourval import datasets, pipeline, render
from tourval.ahp import derive_weights
from tourval.errors import ConfigError, InputError, NumericError
from tourval.pipeline import (
    IngestResult,
    KdeSettings,
    WRITE_BLOCK_CHUNKS,
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
from tourval.rounding import format_number
from tourval.spatial import DensityGrid, GeoPoint, HotSpot, Tour
from tourval.valuation import TIERS, ValuationResult

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
        from tourval.rounding import round6

        result = ValuationResult("a", TFN(-0.0, 0.0, 1.0), -0.0, "Low")
        text = "".join(render_map({"a": "A"}, {"a": GeoPoint(-75.8, 20.0)}, [result],
                                  {"a": 1}, None, (), None))
        assert json.dumps(round6(-0.0)) == "0.0"
        assert '"ftv_lo": 0.0,' in text
        assert '"crisp": 0.0,' in text


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
        assert config == replace(defaults, kde=KdeSettings(cell_m=5))
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
        with pytest.raises(ConfigError, match=rf": {key} takes no true, false or integer "):
            load_config(dataset_builder(config_extra=extra))

    @pytest.mark.parametrize("extra, key", [
        ({"filter_threshold": 10 ** 400}, "filter_threshold"),
        ({"target": [0, 10 ** 400]}, "target"),
        ({"tour": {"dwell_minutes": [0, 0, -10 ** 400]}}, "dwell_minutes"),
    ])
    def test_integer_beyond_the_float_range_rejected(self, dataset_builder, extra, key):
        """JSON keeps such an integer exact, where a float would be infinite."""
        with pytest.raises(ConfigError, match=rf": {key} takes no true, false or integer "
                                              "beyond the float range, got "):
            load_config(dataset_builder(config_extra=extra))

    def test_string_filter_threshold_rejected(self, dataset_builder):
        """A JSON string is no number, although ``float`` reads "66" as one;
        a JSON integer is still read as a float."""
        with pytest.raises(ConfigError, match="filter_threshold must be a number, got '66'"):
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
def judgement_rows(draw, min_size=0):
    """Valid judgements as column -> cell text, the cells padded."""
    triples = draw(st.lists(
        st.tuples(st.sampled_from(["a1", "a2", "a,3", "a\n4", "Café 5"]),
                  st.sampled_from(CATALOGUE), st.sampled_from(["e1", "e2", "e 3", '"e4"'])),
        min_size=min_size, max_size=10, unique=True))
    rows = []
    for triple in triples:
        numbers = sorted(draw(st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3)))
        texts = triple + tuple(map(draw(st.sampled_from(NUMBER_FORMATS)), numbers))
        rows.append({column: draw(PADDING) + text + draw(PADDING)
                     for column, text in zip(EVALUATION_COLUMNS, texts)})
    return rows


@st.composite
def evaluation_text(draw, rows):
    """The rows as CSV text: header names permuted, repeated (the last one
    counts) and mixed with other columns; records quoted or not, some cut
    short after their last used cell, some longer than the header, and
    empty lines between them."""
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
        buffer.write(terminator * draw(st.integers(0, 2)))
        cells = [row.get(name, "") if used.get(name) == position else draw(FILLER)
                 for position, name in enumerate(header)]
        # a record cut short loses its cells from the first dropped column on
        longest = min((used[c] for c in EVALUATION_COLUMNS if c not in row),
                      default=len(header) + 2)
        length = draw(st.integers(min(max(used[c] for c in row) + 1, longest), longest))
        writer.writerow((cells + [draw(FILLER), draw(FILLER)])[:length])
    return buffer.getvalue()


def _per_row_ids(path, catalogue_ids):
    """``load_evaluations`` with each row's attraction code mapped back to
    its id, as ``oracles.load_evaluations`` returns it."""
    ids, codes, factors, lines, values = load_evaluations(path, catalogue_ids)
    # distinct ids, coded in order of first appearance
    assert len(set(ids)) == len(ids) and codes.dtype == np.intp
    assert list(dict.fromkeys(codes.tolist())) == list(range(len(ids)))
    return [ids[code] for code in codes.tolist()], factors, lines, values


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


def _cell_sums(cells):
    """``_exact_sums`` of ``cells``, each a list of (lo, mode, hi) rows."""
    rows = np.array([row for cell in cells for row in cell], dtype=float).reshape(-1, 3)
    return _exact_sums(rows, np.array([len(cell) for cell in cells]),
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
        got = _cell_sums([[(1.0, 1.0, 1.0)], [(math.inf, 1.0, -math.inf), (1.0, 2.0, 3.0)]])
        assert _bits(got) == _bits([[1.0, 1.0, 1.0], [math.inf, 3.0, -math.inf]])

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
        from dataclasses import replace
        config = replace(load_config(sample_dir / "config.json"),
                         out_dir=tmp_path / "out")
        return config, run_pipeline(config)

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
        for result in output.results:
            ftv, crisp = want[result.attraction_id]
            assert result.crisp == pytest.approx(crisp, abs=1e-9)
            assert result.ftv.as_tuple() == pytest.approx(ftv, abs=1e-9)

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
        from dataclasses import replace
        config = replace(load_config(sample_dir / "config.json"),
                         out_dir=tmp_path / "out")
        output = run_valuation(config)
        names = sorted(p.name for p in output.written)
        assert names == ["results.csv", "results.json"]
        assert output.tour is None


class TestRunTour:
    def test_requires_prior_results(self, sample_dir, tmp_path):
        from dataclasses import replace
        config = replace(load_config(sample_dir / "config.json"),
                         out_dir=tmp_path / "empty")
        with pytest.raises(InputError, match="results.csv"):
            run_tour(config)

    def test_recomputes_equivalent_map(self, sample_dir, tmp_path):
        """The tour stage feeds on results.csv, i.e. on values already
        rounded to 6 significant digits; the full run makes every decision
        on those printed values too, so the tour stage rewrites its
        map.geojson byte for byte, and does so deterministically."""
        from dataclasses import replace
        config = replace(load_config(sample_dir / "config.json"),
                         out_dir=tmp_path / "out")
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
    """Attractions named ``names`` around ``center``, in ``tiers`` (each of
    ``TIERS`` in turn if not given), hotspots with the given scores and, if
    asked and there are hotspots, a tour over them."""
    lon, lat = center
    ids = [f"a{i}" for i in range(len(names))]
    tiers = tiers or [TIERS[i % len(TIERS)] for i in range(len(names))]
    ranked = [ValuationResult(aid, TFN(i - 1.5, i * 1.0, i + 0.25), i * 1.0 / 3.0, tier)
              for i, (aid, tier) in enumerate(zip(ids, tiers))]
    locations = {aid: GeoPoint(lon + i * 1e-3, -(lat + i * 1e-3)) for i, aid in enumerate(ids)}
    hotspots = tuple(HotSpot(GeoPoint(-lon - i * 1e-3, lat), score, f"H{i + 1}")
                     for i, score in enumerate(hotspot_scores))
    tour = None
    if with_tour and hotspots:
        tour = Tour(hotspots, 1.234567891, (0.5, 1.0 / 3.0 + 0.7, 2.0))
    return (dict(zip(ids, names)), locations, ranked,
            {aid: i + 1 for i, aid in enumerate(ids)}, grid, hotspots, tour)


def render_map(names, locations, ranked, ranks, grid, hotspots, tour):
    """``render.map_geojson`` on the arguments of ``oracles.map_geojson``."""
    return render.map_geojson(render.result_columns(ranked, names, ranks),
                              [locations[r.attraction_id] for r in ranked], grid, hotspots, tour)


def render_results(config, ingested, ranked, ranks, retained, hotspots, tour):
    """``render.results_json`` on the arguments of ``oracles.results_json``."""
    return render.results_json(config, ingested, render.result_columns(ranked, ingested.names,
                                                                        ranks),
                               retained, hotspots, tour)


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
    tiers = draw(st.lists(st.sampled_from(TIERS), min_size=len(names), max_size=len(names)))
    scores = draw(st.lists(st.floats(1e-6, 1e6), max_size=3))
    return _map_inputs(names, grid, scores, draw(st.booleans()), center, tiers)


class TestMapText:
    """render.map_geojson prints the same bytes as json.dumps of the
    whole FeatureCollection (oracles.map_geojson)."""

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
        assert "              -0.0,\n" in "".join(render_map(*inputs))

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(st.floats(allow_nan=True), st.text(NAME_CHARS, max_size=8),
                     st.integers(-10**20, 10**20), st.booleans(), st.none(),
                     st.sampled_from([-0.0, 1e16, 1e-07, math.inf, np.float64(2.5)])))
    def test_encode_prints_as_json(self, value):
        assert render._encode(value) == json.dumps(value, ensure_ascii=False)


# -- results.json text against json.dumps of the whole document ---------------

# exponent forms, zeros of both signs, and plain values
RESULT_NUMBER = st.one_of(st.sampled_from([0.0, -0.0, 1e-05, 1.5e-07, 1e16, 123456789.0]),
                          st.floats(-1e9, 1e9))
POSITIVE = st.one_of(st.sampled_from([1e-05, 1.5e-07, 1e16]), st.floats(1e-9, 1e9))


@st.composite
def results_inputs(draw, config, ingested):
    """Arguments of ``render.results_json``: awkward ids and names, any
    tier, either weight source, with or without hotspots and a tour."""
    ids = draw(st.lists(st.text(NAME_CHARS, max_size=8), unique=True, max_size=5))
    names = {aid: draw(st.one_of(st.just(SPECIAL_NAME), st.text(NAME_CHARS, max_size=12)))
             for aid in ids}
    ranked = [ValuationResult(aid, TFN(*sorted(draw(st.tuples(*[RESULT_NUMBER] * 3)))),
                              draw(RESULT_NUMBER),
                              draw(st.sampled_from(TIERS)))
              for aid in ids]
    ranks = {aid: i + 1 for i, aid in enumerate(ids)}
    retained = [r for r in ranked if draw(st.booleans())]
    report = draw(st.sampled_from([None, derive_weights([[1.0, 3.0], [1 / 3, 1.0]]),
                                   derive_weights([[1, 2, 0.5], [0.5, 1, 4], [2, 0.25, 1]])]))
    ingested = replace(ingested, names=names, weight_report=report,
                       weight_source="column" if report is None else "pairwise")
    hotspots = tuple(HotSpot(GeoPoint(-75.8 - i * 1e-3, 20.0 + i * 1e-7), score, f"H{i + 1}")
                     for i, score in enumerate(draw(st.lists(POSITIVE, max_size=3))))
    tour = None
    if hotspots and draw(st.booleans()):
        tour = Tour(hotspots, draw(POSITIVE), (2e-07, 1.0 / 3.0 + 0.7, 1e16))
    return config, ingested, ranked, ranks, retained, hotspots, tour


class TestResultsText:
    """render.results_json prints the same bytes as json.dumps of the
    whole document (oracles.results_json)."""

    @pytest.fixture(scope="class")
    def sample(self, sample_dir, tmp_path_factory):
        config = replace(load_config(sample_dir / "config.json"),
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
# a line separator (U+2028) and an empty top-level list
SPLICE_TEXT = st.one_of(st.sampled_from(["\n", '"', "],", "\u2028", '\n  "m": [],', "]\n}"]),
                        st.text(NAME_CHARS, max_size=8))
JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6) | st.floats(allow_nan=False)
    | SPLICE_TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(SPLICE_TEXT, inner, max_size=3),
    max_leaves=6)


class TestDocument:
    """render._document prints what json.dumps prints for the whole
    document, whatever sorts around the list key and whatever the texts
    hold."""

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
        want = json.dumps({**outer, key: values}, indent=2, sort_keys=True,
                          ensure_ascii=False) + "\n"
        texts = [render._indented(v) for v in values]
        # a list, or a one-shot generator read only as the chunks are
        items = (text for text in texts) if data.draw(st.booleans()) else texts
        assert "".join(render._document(outer, key, items)) == want


# -- the block writer ----------------------------------------------------------

# empty chunks, multi-byte text and line ends, which are written as they are
CHUNK = st.one_of(st.just(""), st.sampled_from(["Café", "é", "寺", "\U0001f3b8", "\n", "\r\n"]),
                  st.text(NAME_CHARS, max_size=6))


class TestWriteAll:
    """pipeline._write_all joins each payload's chunks in blocks of
    WRITE_BLOCK_CHUNKS and writes exactly the UTF-8 of their join."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(CHUNK, max_size=40), st.integers(1, 5))
    def test_bytes_are_the_join(self, chunks, block):
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            patch.setattr(pipeline, "WRITE_BLOCK_CHUNKS", block)
            written = _write_all(Path(tmp), {"a.txt": chunks, "b.txt": iter(chunks)})
            assert [p.read_bytes() for p in written] == ["".join(chunks).encode("utf-8")] * 2
            assert sorted(os.listdir(tmp)) == ["a.txt", "b.txt"]

    def test_one_write_per_block(self, tmp_path, monkeypatch):
        """Four blocks of the package's size: the second is a multi-byte
        letter split from its word at the block edge, then empty chunks."""
        n = WRITE_BLOCK_CHUNKS
        chunks = ["x"] * (n - 1) + ["Caf", "é"] + [""] * n + ["寺"] * (n + 5)
        writes = []
        real_open = Path.open

        def counting_writes(path, *args, **kwargs):
            handle = real_open(path, *args, **kwargs)
            write = handle.write
            handle.write = lambda text: writes.append(text) or write(text)
            return handle

        monkeypatch.setattr(Path, "open", counting_writes)
        (path,) = _write_all(tmp_path, {"map.geojson": iter(chunks)})
        assert path.read_bytes() == "".join(chunks).encode("utf-8")
        assert writes == ["x" * (n - 1) + "Caf", "é", "寺" * (n - 1), "寺" * 6]
