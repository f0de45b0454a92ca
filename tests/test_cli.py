import contextlib
import csv
import io
import json
import math
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tourval import cli, pipeline, render
from tourval.errors import NumericError


def invoke(*argv):
    return cli.main(list(argv))


class TestParser:
    def test_missing_subcommand_exits(self):
        with pytest.raises(SystemExit):
            cli.main([])

    def test_missing_config_exits(self):
        with pytest.raises(SystemExit):
            cli.main(["run"])


class TestValidate:
    def test_reports_counts(self, sample_dir, capsys):
        code = invoke("validate", "--config", str(sample_dir / "config.json"))
        out = capsys.readouterr().out
        assert code == 0
        assert "factors: 20" in out
        assert "attractions: 10" in out
        assert "evaluations: 600 judgement rows, complete for 10 attractions" in out
        assert "OK" in out

    def test_schema_error_exits_2(self, dataset_builder, capsys):
        config_path = dataset_builder(evaluations=[
            ("p1", "ghost", "e1", 1.0, 2.0, 3.0),
        ])
        code = invoke("validate", "--config", str(config_path))
        assert code == 2
        assert "ghost" in capsys.readouterr().err

    def test_thresholds_outside_target_exit_3(self, dataset_builder, capsys):
        config_path = dataset_builder(config_extra={"target": [0, 1]})
        code = invoke("validate", "--config", str(config_path))
        assert code == 3
        assert "tier_thresholds" in capsys.readouterr().err

    def test_config_error_exits_3(self, dataset_builder, capsys):
        config_path = dataset_builder(config_extra={"no_such_option": 1})
        code = invoke("validate", "--config", str(config_path))
        assert code == 3
        assert "no_such_option" in capsys.readouterr().err

    @pytest.mark.parametrize("key, entry", [
        ("kde.bandwidth_m", '"kde": {"bandwidth_m": Infinity}'),
        ("kde.cell_m", '"kde": {"cell_m": Infinity}'),
        ("tour.dwell_minutes", '"tour": {"dwell_minutes": [0, 0, 1e309]}'),
        ("target", '"target": [0, Infinity]'),
    ], ids=["kde.bandwidth_m", "kde.cell_m", "tour.dwell_minutes", "target"])
    def test_non_finite_setting_exits_3(self, dataset_builder, capsys, key, entry):
        """JSON numbers that Python reads as infinite are configuration
        errors naming their key, before anything is read or written."""
        config_path = dataset_builder()
        text = config_path.read_text(encoding="utf-8").rstrip().removesuffix("}")
        config_path.write_text(f"{text}, {entry}}}", encoding="utf-8")
        code = invoke("run", "--config", str(config_path))
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error:") and key in err
        assert not (config_path.parent / "out").exists()


class TestRun:
    def test_more_hotspots_than_the_planner_takes_exit_3(self, dataset_builder, capsys):
        """13 isolated High attractions make 13 hotspots, one over the
        exact tour planner's limit: a configuration error naming the knob
        to turn, not a traceback."""
        ids = [f"p{i:02d}" for i in range(13)]
        config_path = dataset_builder(
            evaluations=[row for i in ids for row in (
                (i, "f1", "e1", 4.0, 4.5, 5.0), (i, "f2", "e1", -1.0, -0.5, 0.0))],
            attractions=[(i, i, -75.8 + 0.01 * k, 20.0) for k, i in enumerate(ids)],
            config_extra={"kde": {"hotspot_percentile": 1}})
        code = invoke("run", "--config", str(config_path))
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: 13 hotspots") and "kde.merge_radius_m" in err
        assert "Traceback" not in err
    def test_writes_three_artifacts(self, sample_dir, tmp_path, capsys):
        out_dir = tmp_path / "result"
        code = invoke("run", "--config", str(sample_dir / "config.json"),
                      "--out", str(out_dir))
        assert code == 0
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "map.geojson", "results.csv", "results.json"]
        stdout = capsys.readouterr().out
        assert "3 above 66" in stdout
        assert "tour: H1" in stdout

    def test_ftv_writes_two_artifacts(self, sample_dir, tmp_path):
        out_dir = tmp_path / "result"
        code = invoke("ftv", "--config", str(sample_dir / "config.json"),
                      "--out", str(out_dir))
        assert code == 0
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "results.csv", "results.json"]

    def test_strict_fails_on_out_of_range_then_clamp_passes(self, dataset_builder,
                                                            tmp_path, capsys):
        evaluations = [
            ("p1", "f1", "e1", 1.0, 2.0, 5.5),
            ("p1", "f2", "e1", -3.0, -2.0, -1.0),
            ("p2", "f1", "e1", 3.0, 4.0, 5.0),
            ("p2", "f2", "e1", -2.0, -1.0, 0.0),
        ]
        config_path = dataset_builder(evaluations=evaluations)
        code = invoke("run", "--config", str(config_path))
        assert code == 2
        assert "outside source range" in capsys.readouterr().err
        code = invoke("run", "--config", str(config_path), "--clamp",
                      "--out", str(tmp_path / "clamped"))
        assert code == 0

    def test_range_policy_applies_to_each_judgement(self, dataset_builder, tmp_path,
                                                     capsys):
        """hi=5.5 and hi=4.5 average to 5.0, inside [0, 5]; the policy
        still sees the 5.5 and names its line, attraction, factor and
        component, and clamp saturates it before the experts are averaged."""
        evaluations = [
            ("p1", "f1", "e1", 1.0, 2.0, 5.5),
            ("p1", "f1", "e2", 1.0, 2.0, 4.5),
            ("p1", "f2", "e1", -3.0, -2.0, -1.0),
            ("p2", "f1", "e1", 3.0, 4.0, 5.0),
            ("p2", "f2", "e1", -2.0, -1.0, 0.0),
        ]
        config_path = dataset_builder(evaluations=evaluations)
        code = invoke("run", "--config", str(config_path))
        assert code == 2
        err = capsys.readouterr().err
        assert "evaluations.csv:2: attraction 'p1', factor 'f1': hi=5.5 outside" in err

        out_dir = tmp_path / "clamped"
        assert invoke("ftv", "--config", str(config_path), "--clamp",
                      "--out", str(out_dir)) == 0
        with open(out_dir / "results.csv", newline="", encoding="utf-8") as fh:
            rows = {row["attraction_id"]: row for row in csv.DictReader(fh)}
        # f1 hi: mean(5.0, 4.5) = 4.75 -> 95; f2 hi: -1 -> 80; weights 0.5 each
        assert rows["p1"]["ftv_hi"] == "87.5"

    def test_weights_above_one_exit_2(self, dataset_builder, capsys):
        config_path = dataset_builder(
            factors=[("f1", "A", 0.0, 5.0, 0.505), ("f2", "B", 0.0, 5.0, 0.5)],
            evaluations=[
                ("p1", "f1", "e1", 5, 5, 5), ("p1", "f2", "e1", 5, 5, 5),
                ("p2", "f1", "e1", 1, 2, 3), ("p2", "f2", "e1", 1, 2, 3),
            ])
        code = invoke("ftv", "--config", str(config_path))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: attraction 'p1': value 100.5")
        assert "weights sum to 1.005" in err

    def test_out_under_a_regular_file_exits_5(self, sample_dir, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory", encoding="utf-8")
        code = invoke("run", "--config", str(sample_dir / "config.json"),
                      "--out", str(blocker / "out"))
        assert code == 5
        assert capsys.readouterr().err.startswith("error: ")

    def test_failed_write_keeps_previous_outputs(self, sample_dir, tmp_path,
                                                 monkeypatch, capsys):
        out_dir = tmp_path / "result"
        assert invoke("run", "--config", str(sample_dir / "config.json"),
                      "--out", str(out_dir)) == 0
        previous = {p.name: p.read_bytes() for p in out_dir.iterdir()}

        # same inputs, other tiers and bandwidth: every artifact would change
        config = json.loads((sample_dir / "config.json").read_text(encoding="utf-8"))
        for key in ("factors", "evaluations", "attractions"):
            config[key] = str(sample_dir / config[key])
        config.update(tier_thresholds=[20, 50], kde={"bandwidth_m": 150.0})
        changed = tmp_path / "changed.json"
        changed.write_text(json.dumps(config), encoding="utf-8")

        real_open = Path.open

        def disk_full_on_map(path, *args, **kwargs):
            handle = real_open(path, *args, **kwargs)
            if "map.geojson" in path.name:
                def disk_full(text):
                    raise OSError(28, "No space left on device")
                handle.write = disk_full
            return handle

        with monkeypatch.context() as patch:
            patch.setattr(Path, "open", disk_full_on_map)
            assert invoke("run", "--config", str(changed), "--out", str(out_dir)) == 5
        assert "No space left" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == previous

        assert invoke("run", "--config", str(changed), "--out", str(out_dir)) == 0
        current = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        assert sorted(current) == sorted(previous)
        assert all(current[name] != previous[name] for name in previous)

    def test_map_failing_midway_keeps_previous_outputs(self, sample_dir, tmp_path,
                                                        monkeypatch, capsys):
        """The map's chunks are made while it is written: a fault after some
        of them leaves the previous outputs and no temporary file."""
        out_dir = tmp_path / "result"
        config = str(sample_dir / "config.json")
        assert invoke("run", "--config", config, "--out", str(out_dir)) == 0
        previous = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        real_map = render.map_geojson
        staged = []

        def fails_midway(*args):
            chunks = real_map(*args)
            for _ in range(20):
                yield next(chunks)
            staged.extend(out_dir.glob(".map.geojson.*.tmp"))
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(render, "map_geojson", fails_midway)
        assert invoke("run", "--config", config, "--out", str(out_dir)) == 5
        assert "No space left" in capsys.readouterr().err
        assert len(staged) == 1
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == previous

    def test_overflowing_judgement_sum_exits_4(self, dataset_builder, capsys):
        """Finite judgements inside their range whose sum exceeds the largest
        float: a numeric failure naming the file, attraction and factor."""
        config_path = dataset_builder(
            factors=[("f1", "Condition", 0.0, 1.7e308, 1.0)],
            evaluations=[("p1", "f1", "e1", 1e308, 1e308, 1e308),
                         ("p1", "f1", "e2", 1e308, 1e308, 1e308),
                         ("p2", "f1", "e1", 1.0, 2.0, 3.0)])
        code = invoke("run", "--config", str(config_path))
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith("error:") and "Traceback" not in err
        assert "evaluations.csv" in err and "'p1'" in err and "'f1'" in err
        assert not (config_path.parent / "out").exists()

    def test_numeric_failure_exits_4(self, sample_dir, tmp_path, monkeypatch):
        def boom(config, allow_inconsistent=False):
            raise NumericError("did not converge")

        monkeypatch.setattr(pipeline, "run_pipeline", boom)
        code = invoke("run", "--config", str(sample_dir / "config.json"),
                      "--out", str(tmp_path / "x"))
        assert code == 4


class TestWeights:
    @pytest.fixture()
    def pairwise_config(self, dataset_builder, tmp_path):
        config_path = dataset_builder(
            factors=[("f1", "A", 0.0, 5.0), ("f2", "B", 0.0, 5.0)],
            factor_columns=("id", "name", "x", "y"),
            evaluations=[
                ("p1", "f1", "e1", 1, 2, 3), ("p1", "f2", "e1", 1, 2, 3),
                ("p2", "f1", "e1", 2, 3, 4), ("p2", "f2", "e1", 2, 3, 4),
            ],
            config_extra={"pairwise": "pairwise.csv"})
        with open(tmp_path / "pairwise.csv", "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([["f1", "f2"], [1.0, 4.0], [0.25, 1.0]])
        return config_path

    def test_report_on_stdout(self, pairwise_config, capsys):
        code = invoke("weights", "--config", str(pairwise_config))
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["weights"]["f1"] == pytest.approx(0.8)
        assert report["weights"]["f2"] == pytest.approx(0.2)
        assert report["inconsistent"] is False

    def test_without_pairwise_entry_exits_3(self, dataset_builder, capsys):
        config_path = dataset_builder()
        code = invoke("weights", "--config", str(config_path))
        assert code == 3
        assert "pairwise" in capsys.readouterr().err


class TestWritingCommands:
    def test_stage_looked_up_at_call_time(self, sample_dir, tmp_path, monkeypatch, capsys):
        """ftv, run and tour call whatever tourval.pipeline holds under the
        stage's name when the command runs, so a wrapper set there sees it."""
        calls = []
        for name in ("run_valuation", "run_pipeline", "run_tour"):
            def wrapped(*args, _stage=getattr(pipeline, name), _name=name, **kwargs):
                calls.append(_name)
                return _stage(*args, **kwargs)
            monkeypatch.setattr(pipeline, name, wrapped)
        for command in ("ftv", "run", "tour"):
            assert invoke(command, "--config", str(sample_dir / "config.json"),
                          "--out", str(tmp_path / "out")) == 0
        assert calls == ["run_valuation", "run_pipeline", "run_tour"]


class TestTour:
    def test_roundtrip_after_run(self, sample_dir, tmp_path, capsys):
        out_dir = tmp_path / "result"
        assert invoke("run", "--config", str(sample_dir / "config.json"),
                      "--out", str(out_dir)) == 0
        (out_dir / "map.geojson").unlink()
        code = invoke("tour", "--config", str(sample_dir / "config.json"),
                      "--out", str(out_dir))
        assert code == 0
        assert (out_dir / "map.geojson").is_file()

    @pytest.mark.parametrize("column, text", [
        ("rank", "nan"),
        ("rank", "inf"),
        ("rank", "1.7"),
        ("rank", "0"),
        ("ftv_lo", "99"),
        ("crisp", "inf"),
        # tour reads back only the tiers run writes
        ("tier", "Bogus"),
        ("tier", ""),
        ("tier", "high"),
        # the tier is the one the printed crisp value falls in, on the target
        ("tier", "Low"),
        ("crisp", "20"),
        ("crisp", "100.001"),
    ])
    def test_bad_results_row_exits_2(self, sample_dir, tmp_path, capsys, column, text):
        out_dir = tmp_path / "result"
        config = str(sample_dir / "config.json")
        assert invoke("run", "--config", config, "--out", str(out_dir)) == 0
        previous_map = (out_dir / "map.geojson").read_bytes()
        results = out_dir / "results.csv"
        with open(results, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        rows[2][column] = text
        with open(results, "w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        capsys.readouterr()
        assert invoke("tour", "--config", config, "--out", str(out_dir)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {results}:4: ") and "Traceback" not in err
        if column == "tier" and text != "Low":
            assert err.startswith(f"error: {results}:4: column 'tier' must be ")
        if (column, text) in {("tier", "Low"), ("crisp", "20")}:
            assert err.startswith(f"error: {results}:4: column 'tier' is ")
            assert "tier_thresholds [33, 66]" in err and "re-run ftv or run" in err
        assert (out_dir / "map.geojson").read_bytes() == previous_map

    def test_value_printed_past_the_target_end_is_read(self, sample_dir, tmp_path):
        """On a target whose end has more than 6 digits, a value just below
        the end prints above it; tour reads it back and keeps its tier."""
        config = json.loads((sample_dir / "config.json").read_text(encoding="utf-8"))
        for key in ("factors", "evaluations", "attractions"):
            config[key] = str(sample_dir / config[key])
        config.update(target=[0, 99.9999995], out_dir=str(tmp_path / "out"))
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert invoke("ftv", "--config", str(config_path)) == 0
        results = tmp_path / "out" / "results.csv"
        text = results.read_text(encoding="utf-8")
        assert ",80.7383,High,1\n" in text
        results.write_text(text.replace(",80.7383,High,1\n", ",100,High,1\n"), encoding="utf-8")
        assert invoke("tour", "--config", str(config_path)) == 0
        assert '"crisp": 100.0,' in (tmp_path / "out" / "map.geojson").read_text(encoding="utf-8")

    def test_repeated_attraction_exits_2(self, sample_dir, tmp_path, capsys):
        out_dir = tmp_path / "result"
        config = str(sample_dir / "config.json")
        assert invoke("run", "--config", config, "--out", str(out_dir)) == 0
        results = out_dir / "results.csv"
        lines = results.read_text(encoding="utf-8").splitlines(keepends=True)
        results.write_text("".join(lines + [lines[1]]), encoding="utf-8")
        capsys.readouterr()
        assert invoke("tour", "--config", config, "--out", str(out_dir)) == 2
        err = capsys.readouterr().err
        assert f"results.csv:{len(lines) + 1}: duplicate attraction id 'a01'" in err

    def test_without_prior_results_exits_2(self, sample_dir, tmp_path, capsys):
        code = invoke("tour", "--config", str(sample_dir / "config.json"),
                      "--out", str(tmp_path / "nothing"))
        assert code == 2
        assert "results.csv" in capsys.readouterr().err


class TestEncoding:
    """Every input file is UTF-8; a leading byte-order mark is dropped."""

    FILES = ["factors.csv", "evaluations.csv", "attractions.csv", "pairwise.csv",
             "results.csv"]

    @pytest.fixture()
    def inputs(self, dataset_builder, tmp_path):
        """A pairwise-weighted input set and the run's output directory,
        after one ``run`` into it."""
        config_path = dataset_builder(
            factors=[("f1", "Condition", 0.0, 5.0), ("f2", "Impact", -5.0, 0.0)],
            factor_columns=("id", "name", "x", "y"),
            config_extra={"pairwise": "pairwise.csv"})
        (tmp_path / "pairwise.csv").write_text("f1,f2\n1,3\n0.3333333333333333,1\n",
                                               encoding="utf-8")
        assert invoke("run", "--config", str(config_path)) == 0
        return config_path, tmp_path / "out"

    @staticmethod
    def _command(name):
        return "tour" if name == "results.csv" else "run"

    @pytest.mark.parametrize("name, code", [(name, 2) for name in FILES] + [("config.json", 3)])
    def test_file_not_utf8_exits(self, inputs, capsys, name, code):
        config_path, out_dir = inputs
        path = (out_dir if name == "results.csv" else config_path.parent) / name
        path.write_bytes(path.read_bytes() + "Café\n".encode("latin-1"))
        capsys.readouterr()
        assert invoke(self._command(name), "--config", str(config_path)) == code
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and "utf-8" in err.lower()
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", FILES)
    def test_byte_order_mark_ignored(self, inputs, name):
        config_path, out_dir = inputs
        path = (out_dir if name == "results.csv" else config_path.parent) / name
        before = {p.name: p.read_bytes() for p in out_dir.iterdir() if p != path}
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert invoke(self._command(name), "--config", str(config_path)) == 0
        assert {p.name: p.read_bytes() for p in out_dir.iterdir() if p != path} == before


class TestSpansAndDurations:
    @pytest.mark.parametrize("extra, factor, argv, code, message", [
        ({"target": [-1e308, 1e308], "tier_thresholds": [0, 1], "filter_threshold": 1},
         None, [], 3, "target range [-1e+308, 1e+308] must "),
        ({}, (-1e308, 1e308), [], 2, "factors.csv:2: source range [-1e+308, 1e+308] must "),
        ({}, (0.0, 5e-324), ["--clamp"], 2, "factors.csv:2: source range [0.0, 5e-324] must "),
        ({}, (0.0, 1e-308), ["--clamp"], 2, "factors.csv:2: source range [0.0, 1e-308] must "),
    ], ids=["target", "factor-range", "subnormal-factor-span", "subnormal-finite-reciprocal"])
    def test_overflow_exits_with_its_code(self, dataset_builder, tmp_path, capsys, extra,
                                          factor, argv, code, message):
        """A span or a duration that would overflow, or divide by a span
        whose reciprocal overflows, is an error, and nothing is written."""
        factors = None if factor is None else [
            ("f1", "Condition", *factor, 0.5), ("f2", "Impact", -5.0, 0.0, 0.5)]
        config_path = dataset_builder(factors=factors, config_extra=extra)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert invoke("run", "--config", str(config_path), *argv) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "out").exists()

    def test_subnormal_target_span_exits_3(self, sample_dir, tmp_path, capsys):
        """A target span below the smallest normal float has a finite
        reciprocal but too few significant bits: on it the sample's FTVs
        would lose digits (a01's mode 80.5979 on [0, 100] would print as
        8.05978e-309 on [0, 1e-308]), so it is a config error."""
        config = json.loads((sample_dir / "config.json").read_text(encoding="utf-8"))
        for key in ("factors", "evaluations", "attractions"):
            config[key] = str(sample_dir / config[key])
        config.update(out_dir=str(tmp_path / "out"), target=[0, 1e-308],
                      tier_thresholds=[3.3e-309, 6.6e-309], filter_threshold=6.6e-309)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert invoke("ftv", "--config", str(config_path)) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config_path}: target range [0, 1e-308] must increase "
                              f"by a finite span of at least {sys.float_info.min} ")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_infinite_tour_duration_exits_3(self, sample_dir, tmp_path, capsys):
        """A walking speed so slow that the sample's tour would take
        infinitely long: no Infinity is written, nothing is."""
        config = json.loads((sample_dir / "config.json").read_text(encoding="utf-8"))
        for key in ("factors", "evaluations", "attractions"):
            config[key] = str(sample_dir / config[key])
        config.update(out_dir=str(tmp_path / "out"), tour={"walk_speed_kmh": 1e-320})
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert invoke("run", "--config", str(config_path)) == 3
        assert capsys.readouterr().err.startswith("error: walk_speed_kmh 1e-320 ")
        assert not (tmp_path / "out").exists()


class TestNegativeScale:
    @pytest.mark.parametrize("command", ["run", "tour"])
    def test_negative_retained_value_exits_3(self, sample_dir, tmp_path, capsys, command):
        """On a target of [-100, 0] a filter threshold below 0 keeps negative
        values, which cannot weigh the density surface: a configuration
        error naming the attraction and the threshold, and nothing written."""
        config = json.loads((sample_dir / "config.json").read_text(encoding="utf-8"))
        for key in ("factors", "evaluations", "attractions"):
            config[key] = str(sample_dir / config[key])
        config.update(target=[-100, 0], tier_thresholds=[-66, -33], filter_threshold=-34,
                      out_dir=str(tmp_path / "out"))
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        if command == "tour":
            assert invoke("ftv", "--config", str(config_path)) == 0
        before = sorted((tmp_path / "out").glob("*"))
        capsys.readouterr()
        assert invoke(command, "--config", str(config_path)) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: attraction 'a01'") and "-19.0617" in err
        assert "filter_threshold (-34)" in err and "Traceback" not in err
        assert sorted((tmp_path / "out").glob("*")) == before


class TestTopOfTheFloatRange:
    def test_target_at_the_largest_float_exits_4(self, sample_dir, tmp_path):
        """A target whose upper end is the largest float: the valuation runs
        without a numpy overflow, even with RuntimeWarning made an error, and
        the kept values then sum past the largest float in the density
        surface, a numeric failure."""
        config = json.loads((sample_dir / "config.json").read_text(encoding="utf-8"))
        for key in ("factors", "evaluations", "attractions"):
            config[key] = str(sample_dir / config[key])
        config.update(target=[0, sys.float_info.max], tier_thresholds=[1, 2])
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "tourval.cli", "run",
             "--config", str(config_path), "--out", str(tmp_path / "out")],
            capture_output=True, text=True)
        assert proc.returncode == 4, proc.stderr
        assert proc.stderr == "error: the weights of the 10 points sum past the largest float\n"
        assert not (tmp_path / "out").exists()


class TestEntryPoint:
    def test_module_invocation(self, sample_dir, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "tourval.cli", "run",
             "--config", str(sample_dir / "config.json"),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "wrote" in proc.stdout

    def test_sample_run_leaves_numpy_ma_unimported(self, sample_dir, tmp_path):
        """numpy.ma costs a cold run about 9 ms to import, and nothing of
        ``run`` needs it."""
        script = ("import sys; from tourval.cli import main; "
                  f"code = main(['run', '--config', {str(sample_dir / 'config.json')!r}, "
                  f"'--out', {str(tmp_path / 'out')!r}]); "
                  "print(code, 'numpy.ma' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.stdout.splitlines()[-1] == "0 False", proc.stderr


# Each generated example replaces one config value or one CSV cell of the
# sample with one of these.  kde.cell_m, kde.bandwidth_m and the coordinates
# are never replaced, so no example can make the KDE allocate a large grid.
EXTREMES = [0.0, -0.0, 5e-324, 1e-320, 1e308, -1e308, math.inf, -math.inf, math.nan,
            10 ** 400, True, False, "x", [1]]
CONFIG_SLOTS = [("target",), ("target", 0), ("target", 1), ("tier_thresholds", 0),
                ("tier_thresholds", 1), ("filter_threshold",), ("defuzzify",),
                ("range_policy",), ("kde", "hotspot_percentile"), ("kde", "merge_radius_m"),
                ("tour", "walk_speed_kmh"), ("tour", "dwell_minutes"),
                ("tour", "dwell_minutes", 0), ("tour", "dwell_minutes", 2)]
CSV_SLOTS = {"factors.csv": ("x", "y", "weight"), "evaluations.csv": ("lo", "mode", "hi")}


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON (RFC 8259, section 6)")


class TestGeneratedInputs:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_exit_code_error_line_and_finite_artifacts(self, sample_dir, data):
        """Any single extreme value exits 0, 2, 3, 4 or 5 with no exception
        escaping ``main`` and no RuntimeWarning; a failure ends stderr with an
        ``error:`` line, a success writes JSON without Infinity or NaN."""
        value = data.draw(st.sampled_from(EXTREMES))
        argv = data.draw(st.sampled_from([["run"], ["run", "--clamp"], ["ftv"]]))
        name = data.draw(st.sampled_from(["config.json", *CSV_SLOTS]))
        with tempfile.TemporaryDirectory() as scratch:
            scratch = Path(scratch)
            config = json.loads((sample_dir / "config.json").read_text(encoding="utf-8"))
            for key in ("factors", "evaluations", "attractions"):
                config[key] = str(sample_dir / config[key])
            config["out_dir"] = str(scratch / "out")
            if name == "config.json":
                *parents, last = data.draw(st.sampled_from(CONFIG_SLOTS))
                node = config
                for key in parents:
                    node = node[key]
                node[last] = value
            else:
                with open(sample_dir / name, encoding="utf-8", newline="") as handle:
                    rows = list(csv.reader(handle))
                row = data.draw(st.integers(1, len(rows) - 1))
                rows[row][rows[0].index(data.draw(st.sampled_from(CSV_SLOTS[name])))] = \
                    str(value)
                with open(scratch / name, "w", encoding="utf-8", newline="") as handle:
                    csv.writer(handle).writerows(rows)
                config[name.removesuffix(".csv")] = str(scratch / name)
            config_path = scratch / "config.json"
            config_path.write_text(json.dumps(config), encoding="utf-8")
            stdout, stderr = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                warnings.simplefilter("error", RuntimeWarning)
                code = cli.main([*argv, "--config", str(config_path)])
            assert code in (0, 2, 3, 4, 5)
            if code:
                assert stderr.getvalue().splitlines()[-1].startswith("error: ")
            for artifact in (scratch / "out").glob("*.json*"):
                json.loads(artifact.read_text(encoding="utf-8"),
                           parse_constant=_reject_constant)
            if name == "config.json" and isinstance(value, bool):
                assert code == 3
