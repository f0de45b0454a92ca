"""Bundled reference data from a field assessment of the historic centre of
Santiago de Cuba.

Ships the twenty-factor experiential catalogue (source ranges, elicited
weights, and the surveyed mean ratings per factor) together with the five
top-valued attractions it produced, plus a small synthetic sample dataset
wired for the batch pipeline.  The tables are read from the package
directory (so an on-disk install is needed) by the pipeline's own CSV
reader, ``load_factor_table`` and ``_records``, and follow the rules of
every input file.
"""

from __future__ import annotations

from pathlib import Path

from .fuzzy import TriangularFuzzyNumber
from .pipeline import _records, load_factor_table
from .rescale import TargetRange
from .valuation import FactorCatalogue

__all__ = [
    "santiago_catalogue",
    "santiago_factor_means",
    "santiago_reference_ftv",
    "santiago_sample_dir",
]

_DATA = Path(__file__).with_name("data")


def santiago_catalogue(target: tuple[float, float] = (0.0, 100.0)) -> FactorCatalogue:
    """The twenty-factor catalogue with its published weights.

    The weights sum to 0.998 as published, inside the catalogue's default
    0.01 tolerance.
    """
    factors, _ = load_factor_table(_DATA / "santiago_factors.csv")
    return FactorCatalogue(factors=factors, target=TargetRange(*target))


def santiago_factor_means() -> dict[str, TriangularFuzzyNumber]:
    """Surveyed mean rating per factor, keyed by factor id.

    Note the historical_value mean sits below its declared range minimum;
    rescaling it requires the clamp policy.
    """
    return {factor_id: TriangularFuzzyNumber(*map(float, mean))
            for _, (factor_id, *mean) in _records(
                _DATA / "santiago_factors.csv", ("id", "mean_lo", "mean_mode", "mean_hi"))}


def santiago_reference_ftv() -> list[tuple[str, TriangularFuzzyNumber]]:
    """The five top-valued attractions with their published FTV triplets,
    in published order (House of the Trova first)."""
    return [(name, TriangularFuzzyNumber(*map(float, ftv)))
            for _, (name, *ftv) in _records(
                _DATA / "santiago_reference_ftv.csv", ("name", "lo", "mode", "hi"))]


def santiago_sample_dir() -> Path:
    """Directory of the synthetic sample dataset (config.json plus CSVs).

    The sample is generated, not surveyed: ten attractions scored by three
    experts across the full catalogue, with exactly three attractions
    valued above the High threshold.
    """
    return _DATA / "santiago_sample"
