import csv
import json
from pathlib import Path

import pytest
from hypothesis import strategies as st

from tourval import TriangularFuzzyNumber as TFN
from tourval.datasets import santiago_sample_dir


def finite_floats(lo=-1e4, hi=1e4):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


@st.composite
def tfns(draw, lo=-1e4, hi=1e4):
    a, b, c = sorted(draw(st.tuples(*[finite_floats(lo, hi)] * 3)))
    return TFN(a, b, c)


@st.composite
def spans(draw, lo=-1e4, hi=1e4, min_width=1e-3):
    """(low, high) with a floor on the width so divisions stay tame."""
    a = draw(finite_floats(lo, hi - min_width))
    b = draw(finite_floats(a + min_width, hi))
    return a, b


@pytest.fixture(scope="session")
def sample_dir() -> Path:
    return santiago_sample_dir()


@pytest.fixture
def dataset_builder(tmp_path):
    """Write a minimal, valid input set into tmp_path and hand back the
    config path; individual tests then corrupt single aspects of it."""

    def build(factors=None, evaluations=None, attractions=None, config_extra=None,
              factor_columns=("id", "name", "x", "y", "weight")):
        factors = factors if factors is not None else [
            ("f1", "Condition", 0.0, 5.0, 0.5),
            ("f2", "Impact", -5.0, 0.0, 0.5),
        ]
        evaluations = evaluations if evaluations is not None else [
            ("p1", "f1", "e1", 1.0, 2.0, 3.0),
            ("p1", "f2", "e1", -3.0, -2.0, -1.0),
            ("p2", "f1", "e1", 3.0, 4.0, 5.0),
            ("p2", "f2", "e1", -2.0, -1.0, 0.0),
        ]
        attractions = attractions if attractions is not None else [
            ("p1", "First Court", -75.8267, 20.0211),
            ("p2", "Second Court", -75.8238, 20.0198),
        ]
        with open(tmp_path / "factors.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(factor_columns)
            writer.writerows(factors)
        with open(tmp_path / "evaluations.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["attraction_id", "factor_id", "expert_id", "lo", "mode", "hi"])
            writer.writerows(evaluations)
        with open(tmp_path / "attractions.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "name", "lon", "lat"])
            writer.writerows(attractions)
        config = {
            "factors": "factors.csv",
            "evaluations": "evaluations.csv",
            "attractions": "attractions.csv",
            "out_dir": str(tmp_path / "out"),
        }
        config.update(config_extra or {})
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")
        return config_path

    return build
