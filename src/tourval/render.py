"""The text of the three artifacts: results.csv, results.json and map.geojson.

The pipeline decides what goes in; every byte it writes is printed here.
Numbers are rounded to 6 significant digits and coordinates ([lon, lat],
RFC 7946) to 6 decimal places, about 0.1 m, so output is byte-stable across
platforms.  Each JSON document is what ``json.dumps(indent=2,
sort_keys=True, ensure_ascii=False)`` prints, plus a final newline: one
splice, ``_document``, puts its list's items into the outer document, as
one ``itertools.chain`` of chunks read as they are written.  The few
hotspot and tour features are dicts passed to ``_indented``.  Every
per-item record (an attraction or density feature, a ``results`` row) is
filled column by column instead (``_filled``): its ``_template`` pieces,
split once at import, joined with one list of ``_encode``d field texts per
field, with no dict built for ``json`` and no Python frame per record.
"""

from __future__ import annotations

import csv
import io
import json
import math
import operator
import re
from dataclasses import asdict
from itertools import chain, compress, count, repeat
from json.encoder import encode_basestring
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Iterator

import numpy as np

from .ahp import WeightReport
from .rounding import format_number, round6
from .spatial import DensityGrid, GeoPoint, HotSpot, Tour
from .valuation import FactorCatalogue, ValuationResult

if TYPE_CHECKING:
    from .pipeline import IngestResult, RunConfig

__all__ = ["RESULT_COLUMNS", "result_columns", "results_csv", "results_json", "map_geojson",
           "weight_diagnostics"]

RESULT_COLUMNS = ("attraction_id", "ftv_lo", "ftv_mode", "ftv_hi", "crisp", "tier", "rank")


def _coord(p: GeoPoint) -> list[float]:
    return [round(p.lon, 6), round(p.lat, 6)]


def _feature(geometry: dict[str, Any], properties: dict[str, Any]) -> dict[str, Any]:
    return {"type": "Feature", "geometry": geometry, "properties": properties}


def _hotspot_feature(hotspot: HotSpot) -> dict[str, Any]:
    return _feature({"type": "Point", "coordinates": _coord(hotspot.center)},
                    {"feature_type": "hotspot", "label": hotspot.label,
                     "score": round6(hotspot.score)})


def _tour_feature(tour: Tour) -> dict[str, Any]:
    """The closed circuit as a LineString whose last position repeats the
    first."""
    coords = [_coord(h.center) for h in tour.stops]
    coords.append(coords[0])
    properties: dict[str, Any] = {
        "feature_type": "tour",
        "stops": [h.label for h in tour.stops],
        "length_km": round6(tour.length_km),
    }
    for bound, hours in zip(("min", "avg", "max"), tour.duration_hours or ()):
        properties[f"duration_hours_{bound}"] = round6(hours)
    return _feature({"type": "LineString", "coordinates": coords}, properties)


def _indented(record: dict[str, Any]) -> str:
    """``record`` as ``json.dumps(indent=2, sort_keys=True,
    ensure_ascii=False)`` prints it as an item of a top-level key's list
    (4 spaces deep): a FeatureCollection's ``features`` or
    ``results.json``'s ``results``."""
    text = json.dumps(record, indent=2, sort_keys=True, ensure_ascii=False)
    return "    " + text.replace("\n", "\n    ")


def _template(record: dict[str, Any]) -> list[str]:
    """``record`` as ``_indented`` prints it, split at its fields: each string
    value ``"<name>"`` is the field ``name``.  The constant pieces are at
    the even positions and the field names, in print order, at the odd
    ones; putting a text at each odd position and joining fills it."""
    return re.split(r'"<(\w+)>"', _indented(record))


def _filled(slots: list[str], columns: dict[str, list[str]]) -> Iterator[str]:
    """The ``_template`` ``slots`` filled lazily, record ``i`` with text ``i``
    of each field's list in ``columns``, with no Python frame per record."""
    pieces = [iter(columns[piece]) if i % 2 else repeat(piece) for i, piece in enumerate(slots)]
    return map("".join, zip(*pieces))


def _encode(value: Any) -> str:
    """``value`` as ``json.dumps(ensure_ascii=False)`` prints it."""
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    if type(value) is int:
        return repr(value)
    if isinstance(value, str):
        return encode_basestring(value)
    return json.dumps(value)


def _document(outer: dict[str, Any], key: str, items: Iterable[str]) -> Iterator[str]:
    """``outer`` with the list of ``items`` at ``key``, in chunks whose join
    is what ``json.dumps(indent=2, sort_keys=True, ensure_ascii=False)``
    prints for it, plus a final newline.  Each item is its text as
    ``_indented`` prints it.  The first item is read now, the others as the
    chunks are; separators are chunks of their own."""
    text = json.dumps({**outer, key: []}, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    items = iter(items)
    first = next(items, None)
    if first is None:
        return iter((text,))
    # a newline and two spaces begin a top-level key only: a string prints no newline
    marker = f"\n  {encode_basestring(key)}: ["
    cut = text.index(marker + "]") + len(marker)
    return chain((text[:cut] + "\n", first), chain.from_iterable(zip(repeat(",\n"), items)),
                 ("\n  " + text[cut:],))


def result_columns(ranked: list[ValuationResult], names: dict[str, str],
                   ranks: dict[str, int]) -> dict[str, list[str]]:
    """The results' ids, names, 6-digit FTVs and crisp values, tiers and
    ranks, in order, as ``_encode`` prints them, by ``_template`` field:
    made once per run for both the ``results.json`` rows and the
    attraction features."""
    ids = [r.attraction_id for r in ranked]
    values = {"id": ids, "name": [names[i] for i in ids], "rank": [ranks[i] for i in ids],
              "lo": [round6(r.ftv.lo) for r in ranked], "hi": [round6(r.ftv.hi) for r in ranked],
              "mode": [round6(r.ftv.mode) for r in ranked],
              "crisp": [round6(r.crisp) for r in ranked], "tier": [r.tier for r in ranked]}
    return {field: list(map(_encode, column)) for field, column in values.items()}


# --- results.csv and results.json -------------------------------------------


def results_csv(ranked: list[ValuationResult], ranks: dict[str, int]) -> str:
    """One row of ``RESULT_COLUMNS`` per result, in order, under that header."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(RESULT_COLUMNS)
    for r in ranked:
        writer.writerow([
            r.attraction_id, format_number(r.ftv.lo), format_number(r.ftv.mode),
            format_number(r.ftv.hi), format_number(r.crisp), r.tier, ranks[r.attraction_id],
        ])
    return buffer.getvalue()


def _config_echo(config: RunConfig) -> dict[str, Any]:
    return {key: str(value) if isinstance(value, Path) else value
            for key, value in asdict(config).items()}


def weight_diagnostics(report: WeightReport) -> dict[str, Any]:
    """A pairwise report's diagnostics as results.json and ``tourval weights`` print them."""
    return {
        "lambda_max": round6(report.lambda_max),
        "consistency_index": round6(report.consistency_index),
        "consistency_ratio": round6(report.consistency_ratio),
        "inconsistent": report.inconsistent,
    }


def _weights_block(catalogue: FactorCatalogue, source: str,
                   report: WeightReport | None) -> dict[str, Any]:
    return {"source": source, "values": {f.id: round6(f.weight) for f in catalogue.factors},
            **(weight_diagnostics(report) if report is not None else {})}


# one row of results.json's "results" array
_RESULT_ROW = _template({
    "attraction_id": "<id>", "name": "<name>", "ftv_lo": "<lo>", "ftv_mode": "<mode>",
    "ftv_hi": "<hi>", "crisp": "<crisp>", "tier": "<tier>", "rank": "<rank>"})


def results_json(config: RunConfig, ingested: IngestResult, columns: dict[str, list[str]],
                 retained: list[ValuationResult],
                 hotspots: tuple[HotSpot, ...], tour: Tour | None) -> Iterator[str]:
    """The config echo, weight report, results, filter outcome, hotspots
    and tour, in text chunks (``_document``); the rows of the ``results``
    array are the ``result_columns`` filled into ``_RESULT_ROW``."""
    document: dict[str, Any] = {
        "config": _config_echo(config),
        "weights": _weights_block(ingested.catalogue, ingested.weight_source,
                                  ingested.weight_report),
        "filter": {
            "threshold": round6(config.filter_threshold),
            "retained": [r.attraction_id for r in retained],
            "count": len(retained),
        },
        "spatial": {
            "hotspots": [
                {"label": h.label, "score": round6(h.score),
                 "lon": round(h.center.lon, 6), "lat": round(h.center.lat, 6)}
                for h in hotspots
            ],
            "tour": None if tour is None else {
                "stops": [h.label for h in tour.stops],
                "length_km": round6(tour.length_km),
                "duration_hours": [round6(d) for d in tour.duration_hours],
            },
        },
    }
    return _document(document, "results", _filled(_RESULT_ROW, columns))


# --- map.geojson -------------------------------------------------------------


# one attraction feature
_ATTRACTION = _template(_feature(
    {"type": "Point", "coordinates": ["<lon>", "<lat>"]},
    {"feature_type": "attraction", "id": "<id>", "name": "<name>", "ftv_lo": "<lo>",
     "ftv_mode": "<mode>", "ftv_hi": "<hi>", "crisp": "<crisp>", "rank": "<rank>",
     "tier": "<tier>"}))


def _attraction_features(columns: dict[str, list[str]], points: list[GeoPoint]
                         ) -> Iterator[str]:
    """One Point Feature per result, in order, as ``_indented`` text: its
    ``result_columns`` and its location in ``points``."""
    return _filled(_ATTRACTION, {**columns,
                                 "lon": [_encode(round(p.lon, 6)) for p in points],
                                 "lat": [_encode(round(p.lat, 6)) for p in points]})


# One density feature: its ring's corners from the south-west, then its density.
_DENSITY_FEATURE = _template(_feature(
    {"type": "Polygon", "coordinates": [[["<west>", "<south>"], ["<east>", "<south>"],
                                         ["<east>", "<north>"], ["<west>", "<north>"],
                                         ["<west>", "<south>"]]]},
    {"feature_type": "density", "density": "<density>"}))


def _density_features(grid: DensityGrid) -> Iterator[str]:
    """One square Polygon Feature per cell with positive density, in
    row-major order, as ``_indented`` text, made as it is read; zero cells
    are skipped to keep files small.  Rings are counter-clockwise from the
    south-west corner and closed.  Each edge coordinate is rounded and
    encoded once and shared by the cells along it.  Each density is printed
    as ``_encode(round6(value))`` prints it."""
    lons, lats = grid.edges()
    lons = [_encode(round(v, 6)) for v in lons]
    lats = [_encode(round(v, 6)) for v in lats]
    rows, cols = np.nonzero(grid.values > 0.0)
    # A 6-digit text with a point and no exponent is already the shortest text
    # that reads back as its float.  Only the others, those whose "has a point"
    # is at most their "has an exponent" (an exponent, or an integral value,
    # which prints with ".0"), are printed again.
    densities = list(map(format, grid.values[rows, cols].tolist(), repeat(".6g")))
    redo = map(operator.le, *(map(operator.contains, densities, repeat(c)) for c in ".e"))
    for i in list(compress(count(), redo)):
        densities[i] = float.__repr__(float(densities[i]))
    rows, cols = rows.tolist(), cols.tolist()
    return _filled(_DENSITY_FEATURE, {
        "west": list(map(lons.__getitem__, cols)), "east": list(map(lons[1:].__getitem__, cols)),
        "south": list(map(lats.__getitem__, rows)),
        "north": list(map(lats[1:].__getitem__, rows)), "density": densities})


def map_geojson(columns: dict[str, list[str]], points: list[GeoPoint],
                grid: DensityGrid | None, hotspots: tuple[HotSpot, ...],
                tour: Tour | None) -> Iterator[str]:
    """The FeatureCollection of the attraction, hotspot, tour and density
    features, in that order, in text chunks (``_document``), each feature
    made as its chunk is.  The attractions are the results' ``columns``
    (``result_columns``) at ``points``, their locations in the same order."""
    features = chain(
        _attraction_features(columns, points),
        (_indented(_hotspot_feature(h)) for h in hotspots),
        () if tour is None else (_indented(_tour_feature(tour)),),
        () if grid is None else _density_features(grid))
    return _document({"type": "FeatureCollection"}, "features", features)
