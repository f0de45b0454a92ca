"""The text of the three artifacts: results.csv, results.json and map.geojson.

The pipeline decides what goes in; every byte it writes is printed here.
Numbers are rounded to 6 significant digits and coordinates ([lon, lat],
RFC 7946) to 6 decimal places, about 0.1 m, so output is byte-stable across
platforms.  Each JSON document is what ``json.dumps(separators=(",", ":"),
sort_keys=True, ensure_ascii=False)`` prints, except that each item of its
list (``results.json``'s ``results``, a FeatureCollection's ``features``) is
on a line of its own, plus a final newline: one splice, ``_document``, puts
the list's items into the outer document, as one ``itertools.chain`` of
chunks read as they are written.  The few hotspot and tour features are
dicts passed to ``_compact``.  Every per-item record (an attraction or
density feature, a ``results`` row) is filled column by column instead
(``_filled``): its ``_template`` pieces, split once at import (a density
feature's once per grid row), with one list of texts per field, each
printed a column at a time by its type (``rounding.print_column`` and
``print_decimals``), joined in blocks of ``_BLOCK_RECORDS`` records
with no dict built for ``json`` and no Python frame per record.
"""

from __future__ import annotations

import csv
import io
import json
import re
from itertools import chain, count, islice, repeat
from json.encoder import encode_basestring
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Iterator

import numpy as np

from .ahp import WeightReport
from .record import Record
from .rounding import print_column, print_decimals, round6
from .spatial import DensityGrid, GeoPoint, HotSpot, Tour
from .valuation import FactorCatalogue, Valuation

if TYPE_CHECKING:
    from .pipeline import IngestResult, RunConfig

__all__ = ["RESULT_COLUMNS", "result_columns", "results_csv", "results_json", "map_geojson",
           "weight_diagnostics"]

RESULT_COLUMNS = ("attraction_id", "ftv_lo", "ftv_mode", "ftv_hi", "crisp", "tier", "rank")

# records joined into one text by ``_filled``: about 120 KB of map text
_BLOCK_RECORDS = 512


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


def _compact(value: Any) -> str:
    """``value`` as ``json.dumps(separators=(",", ":"), sort_keys=True,
    ensure_ascii=False)`` prints it, on one line: the text of an item of a
    JSON artifact's list."""
    return json.dumps(value, separators=(",", ":"), sort_keys=True, ensure_ascii=False)


def _template(text: str) -> list[str]:
    """``text``, a record as ``_compact`` prints it, split at its fields: each
    string value ``"<name>"`` is the field ``name``.  The constant pieces are at
    the even positions and the field names, in print order, at the odd
    ones; putting a text at each odd position and joining fills it."""
    return re.split(r'"<(\w+)>"', text)


def _filled(groups: Iterable[tuple[list[str], dict[str, list[str]]]]) -> Iterator[str]:
    """Each group's ``_template`` slots filled lazily, record ``i`` with text
    ``i`` of each field's list in its columns, in blocks of
    ``_BLOCK_RECORDS`` records, ``",\\n"`` between two records as between
    ``_document``'s items: one join per block, no Python frame per record."""
    records = chain.from_iterable(
        zip(repeat(",\n"), *(iter(columns[piece]) if i % 2 else repeat(piece)
                             for i, piece in enumerate(slots)))
        for slots, columns in groups)
    for first in records:
        rest = chain.from_iterable(islice(records, _BLOCK_RECORDS - 1))
        yield "".join(chain(first[1:], rest))


def _document(outer: dict[str, Any], key: str, items: Iterable[str]) -> Iterator[str]:
    """``outer`` with the list of ``items`` at ``key``, in chunks whose join
    is what ``_compact`` prints for it with a newline before the first item,
    ``",\\n"`` between two items and a newline after the last, plus a final
    newline.  Each item is its text as ``_compact`` prints it.  The first
    item is read now, the others as the chunks are; separators are chunks of
    their own."""
    text = _compact({**outer, key: []}) + "\n"
    items = iter(items)
    first = next(items, None)
    if first is None:
        return iter((text,))
    # the keys that sort before ``key`` print first, each entry as it prints alone:
    # ``key``'s "[" is the last character but two of their document with ``key``,
    # wherever else ``key`` is nested or quoted
    cut = len(_compact({k: v for k, v in outer.items() if k < key} | {key: []})) - 2
    return chain((text[:cut] + "\n", first), chain.from_iterable(zip(repeat(",\n"), items)),
                 ("\n" + text[cut:],))


def result_columns(valuation: Valuation, names: dict[str, str]
                   ) -> tuple[dict[str, list[str]], tuple[list[str], ...]]:
    """The rows' fields in rank order, as JSON prints them, by ``_template``
    field, for the ``results.json`` rows and the attraction features; and
    their FTVs' and crisp values' texts, for ``results_csv``.  The crisp
    column is the one ``valuation`` printed."""
    texts, json_texts = zip(*map(print_column, valuation.ftv.T))
    columns = {"id": list(map(encode_basestring, valuation.ids)),
               "name": [encode_basestring(names[i]) for i in valuation.ids],
               "rank": list(map(str, range(1, len(valuation.ids) + 1))),
               "tier": list(map(encode_basestring, valuation.tiers)),
               **dict(zip(("lo", "mode", "hi"), json_texts)), "crisp": valuation.crisp_json}
    return columns, (*texts, valuation.crisp_texts)


# --- results.csv and results.json -------------------------------------------


def results_csv(valuation: Valuation, numbers: tuple[list[str], ...]) -> str:
    """One row of ``RESULT_COLUMNS`` per row of ``valuation``, under that header,
    with the ``numbers`` texts of ``result_columns``."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(RESULT_COLUMNS)
    writer.writerows(zip(valuation.ids, *numbers, valuation.tiers, count(1)))
    return buffer.getvalue()


def _config_echo(settings: Record) -> dict[str, Any]:
    """The run settings as results.json echoes them: records as objects, paths as text."""
    return {key: _config_echo(value) if isinstance(value, Record)
            else str(value) if isinstance(value, Path) else value
            for key, value in zip(settings.__slots__, settings._values())}


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
_RESULT_ROW = _template(_compact({
    "attraction_id": "<id>", "name": "<name>", "ftv_lo": "<lo>", "ftv_mode": "<mode>",
    "ftv_hi": "<hi>", "crisp": "<crisp>", "tier": "<tier>", "rank": "<rank>"}))


def results_json(config: RunConfig, ingested: IngestResult, columns: dict[str, list[str]],
                 retained: tuple[str, ...], hotspots: tuple[HotSpot, ...],
                 tour: Tour | None) -> Iterator[str]:
    """The config echo, weight report, results, filter outcome (``retained``
    ids), hotspots and tour, in text chunks (``_document``); the rows of the
    ``results`` array are the ``result_columns`` filled into ``_RESULT_ROW``."""
    document: dict[str, Any] = {
        "config": _config_echo(config),
        "weights": _weights_block(ingested.catalogue, ingested.weight_source,
                                  ingested.weight_report),
        "filter": {
            "threshold": round6(config.filter_threshold),
            "retained": list(retained),
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
    return _document(document, "results", _filled([(_RESULT_ROW, columns)]))


# --- map.geojson -------------------------------------------------------------


# one attraction feature
_ATTRACTION = _template(_compact(_feature(
    {"type": "Point", "coordinates": ["<lon>", "<lat>"]},
    {"feature_type": "attraction", "id": "<id>", "name": "<name>", "ftv_lo": "<lo>",
     "ftv_mode": "<mode>", "ftv_hi": "<hi>", "crisp": "<crisp>", "rank": "<rank>",
     "tier": "<tier>"})))


def _attraction_features(columns: dict[str, list[str]], points: list[GeoPoint]
                         ) -> Iterator[str]:
    """One Point Feature per result, in order, as ``_compact`` text: its
    ``result_columns`` and its location in ``points``."""
    return _filled([(_ATTRACTION, {**columns, "lon": print_decimals([p.lon for p in points]),
                                   "lat": print_decimals([p.lat for p in points])})])


# One density feature, as ``_compact`` prints it: its ring's corners from the
# south-west, then its density.
_DENSITY_FEATURE = _compact(_feature(
    {"type": "Polygon", "coordinates": [[["<west>", "<south>"], ["<east>", "<south>"],
                                         ["<east>", "<north>"], ["<west>", "<north>"],
                                         ["<west>", "<south>"]]]},
    {"feature_type": "density", "density": "<density>"}))


def _density_features(grid: DensityGrid) -> Iterator[str]:
    """One square Polygon Feature per cell with positive density (the
    grid's ``positive`` cells), in row-major order, as ``_compact`` text,
    made as it is read; zero cells are skipped to keep files small.  Rings
    are counter-clockwise from the south-west corner and closed.  Each edge
    coordinate is rounded and printed once and shared by the cells along
    it; a grid row's south and north edges are filled into the template
    once.  Each density is printed as JSON prints its ``round6``
    (``print_column``)."""
    lons, lats = map(print_decimals, grid.edges())
    _, densities = print_column(grid.values.take(grid.positive))
    cols = (grid.positive % grid.ncols).tolist()
    west, east = list(map(lons.__getitem__, cols)), list(map(lons[1:].__getitem__, cols))
    starts = np.searchsorted(grid.positive, np.arange(grid.nrows + 1) * grid.ncols).tolist()
    return _filled(
        (_template(_DENSITY_FEATURE.replace('"<south>"', lats[row])
                   .replace('"<north>"', lats[row + 1])),
         {"west": west[start:end], "east": east[start:end], "density": densities[start:end]})
        for row, (start, end) in enumerate(zip(starts, starts[1:])) if start < end)


def map_geojson(columns: dict[str, list[str]], points: list[GeoPoint],
                grid: DensityGrid | None, hotspots: tuple[HotSpot, ...],
                tour: Tour | None) -> Iterator[str]:
    """The FeatureCollection of the attraction, hotspot, tour and density
    features, in that order, in text chunks (``_document``), each feature
    made as its chunk is.  The attractions are the results' ``columns``
    (``result_columns``) at ``points``, their locations in the same order."""
    features = chain(
        _attraction_features(columns, points),
        (_compact(_hotspot_feature(h)) for h in hotspots),
        () if tour is None else (_compact(_tour_feature(tour)),),
        () if grid is None else _density_features(grid))
    return _document({"type": "FeatureCollection"}, "features", features)
