"""In-memory span tracing for the benchmark's traced run.

The tracer wraps tourval's public functions under the names tourval.cli,
tourval.pipeline and tourval.geojson call them, so a span opens and closes
at each layer boundary without any change to the program.  Each span holds
its name, start, end, parent and run id.  Its counts (rows, cells, bytes,
and derived ones such as how many point-cell pairs lie inside the kernel's
support) are computed after the run from the arguments and result kept for
it, so no span includes the cost of counting.

A wrapped name that a later version of the program no longer has is
reported as absent and its metrics read 0; it never stops the run.
"""

from __future__ import annotations

import importlib
import json
import math
import statistics
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable

import numpy as np

EARTH_RADIUS_M = 6371008.8


def _rows(args, kwargs, result) -> dict:
    return {"rows": sum(len(v) for by_factor in result.values() for v in by_factor.values())}


def _kde(args, kwargs, result) -> dict:
    """Points, cells, positive cells and point-cell pairs within one
    bandwidth of each other.  The support count is computed here from the
    grid's geometry, not taken from the program."""
    points = list(args[0])
    bandwidth = kwargs.get("bandwidth_m", args[1] if len(args) > 1 else 100.0)
    values = np.asarray(result.values)
    nrows, ncols = values.shape
    cell, center = result.cell_m, result.center
    cx = result.x0 + (np.arange(ncols) + 0.5) * cell
    cy = result.y0 + (np.arange(nrows) + 0.5) * cell
    scale_x = EARTH_RADIUS_M * math.cos(math.radians(center.lat))
    support = 0
    for p in points:
        px = scale_x * math.radians(p.point.lon - center.lon)
        py = EARTH_RADIUS_M * math.radians(p.point.lat - center.lat)
        dy2 = (cy - py) ** 2
        half = np.sqrt(np.maximum(bandwidth ** 2 - dy2, 0.0))[dy2 < bandwidth ** 2]
        support += int((np.searchsorted(cx, px + half, "left")
                        - np.searchsorted(cx, px - half, "right")).sum())
    return {"points": len(points), "cells": int(values.size),
            "positive_cells": int((values > 0).sum()), "support_pairs": support}


def _length(key: str) -> Callable:
    return lambda args, kwargs, result: {key: len(result)}


def _stops(args, kwargs, result) -> dict:
    return {"stops": len(result.stops)}


def _json_bytes(args, kwargs, result) -> dict:
    return {"bytes": len(result.encode("utf-8"))}


# (module, attribute as that module's code looks it up, span name, counter)
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("tourval.cli", "load_config", "cli.load_config", None),
    ("tourval.pipeline", "run_pipeline", "pipeline.run_pipeline", None),
    ("tourval.pipeline", "run_tour", "pipeline.run_tour", None),
    ("tourval.pipeline", "ingest", "pipeline.ingest", None),
    ("tourval.pipeline", "load_evaluations", "pipeline.load_evaluations", _rows),
    ("tourval.pipeline", "evaluate_attraction", "valuation.evaluate_attraction", None),
    ("tourval.pipeline", "kde_heatmap", "spatial.kde_heatmap", _kde),
    ("tourval.pipeline", "detect_hotspots", "spatial.detect_hotspots", _length("found")),
    ("tourval.pipeline", "merge_hotspots", "spatial.merge_hotspots", _length("kept")),
    ("tourval.pipeline", "plan_tour", "spatial.plan_tour", _stops),
    ("tourval.geojson", "attraction_feature", "geojson.attraction_feature", None),
    ("tourval.geojson", "hotspot_feature", "geojson.hotspot_feature", None),
    ("tourval.geojson", "tour_feature", "geojson.tour_feature", None),
    ("tourval.geojson", "density_features", "geojson.density_features", _length("polygons")),
    ("tourval.geojson", "feature_collection", "geojson.feature_collection", None),
    ("tourval.pipeline", "json.dumps", "pipeline.json_dumps", _json_bytes),
)


class _Namespace:
    """Stands in for a module: the overridden names, then the module's own."""

    def __init__(self, module, overrides: dict[str, Any]):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name: str):
        return getattr(self._module, name)


class Tracer:
    """Spans of one run, kept in memory until the run ends."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._deferred: list[tuple] = []

    def wrap(self, fn: Callable, name: str, counter: Callable | None = None) -> Callable:
        def traced(*args, **kwargs):
            span = {"run": self.run_id, "id": len(self.spans), "name": name,
                    "parent": self._stack[-1] if self._stack else None, "counts": {}}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start_ns"] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end_ns"] = perf_counter_ns()
                self._stack.pop()
            if counter is not None:
                self._deferred.append((span, counter, args, kwargs, result))
            return result
        return traced

    def install(self, targets=TARGETS) -> tuple[list[tuple[Any, str, Any]], list[str]]:
        """Wrap every target still present.  Returns (undo list, absent
        names); pass the undo list to ``uninstall``."""
        undo, absent = [], []
        for module_name, attribute, name, counter in targets:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                absent.append(name)
                continue
            head, _, tail = attribute.partition(".")
            target = getattr(owner, head, None)
            if tail:
                inner = getattr(target, tail, None)
                if inner is None:
                    absent.append(name)
                    continue
                # the module looks up `head.tail` at call time, so a stand-in
                # for `head` intercepts exactly that module's calls
                undo.append((owner, head, target))
                setattr(owner, head, _Namespace(target, {tail: self.wrap(inner, name, counter)}))
            elif callable(target):
                undo.append((owner, head, target))
                setattr(owner, head, self.wrap(target, name, counter))
            else:
                absent.append(name)
        return undo, absent

    @staticmethod
    def uninstall(undo: list[tuple[Any, str, Any]]) -> None:
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)

    def finish(self) -> None:
        """Compute the deferred counts, now that no span is open.  A counter
        that no longer fits the program's types leaves its counts empty."""
        for span, counter, args, kwargs, result in self._deferred:
            try:
                span["counts"] = counter(args, kwargs, result)
            except (AttributeError, TypeError, ValueError, IndexError):
                span["counts"] = {}
        self._deferred.clear()


def covered_ns(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of half-open intervals."""
    total, end = 0, None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def self_ns(spans: list[dict]) -> dict[int, int]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start_ns"], s["end_ns"]))
    out = {}
    for s in spans:
        start, end = s["start_ns"], s["end_ns"]
        clipped = [(max(a, start), min(b, end)) for a, b in children[s["id"]]
                   if min(b, end) > max(a, start)]
        out[s["id"]] = end - start - covered_ns(clipped)
    return out


def summarize(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds, self seconds, summed counts."""
    own = self_ns(spans)
    table: dict[str, dict] = {}
    for s in spans:
        row = table.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                           "counts": defaultdict(int)})
        row["calls"] += 1
        row["total_s"] += (s["end_ns"] - s["start_ns"]) / 1e9
        row["self_s"] += own[s["id"]] / 1e9
        for key, value in s["counts"].items():
            row["counts"][key] += value
    return table


def layer_metrics(table: dict[str, dict]) -> dict[str, float]:
    """The per-layer metrics of one traced run, except the overhead ratio,
    which compares traced and untraced runs."""
    def total(name):
        return table[name]["total_s"] if name in table else 0.0

    def calls(name):
        return table[name]["calls"] if name in table else 0

    def count(name, key):
        return table[name]["counts"].get(key, 0) if name in table else 0

    ingest_s = total("pipeline.ingest")
    rows = count("pipeline.load_evaluations", "rows")
    pairs = count("spatial.kde_heatmap", "points") * count("spatial.kde_heatmap", "cells")
    return {
        "cli.main_s": total("cli.main"),
        "cli.load_config_s": total("cli.load_config"),
        "pipeline.ingest_s": ingest_s,
        "pipeline.ingest_rows": rows,
        "pipeline.ingest_rows_per_s": rows / ingest_s if ingest_s else 0.0,
        "valuation.evaluate_s": total("valuation.evaluate_attraction"),
        "valuation.evaluate_calls": calls("valuation.evaluate_attraction"),
        "spatial.kde_s": total("spatial.kde_heatmap"),
        "spatial.kde_points": count("spatial.kde_heatmap", "points"),
        "spatial.kde_cells": count("spatial.kde_heatmap", "cells"),
        "spatial.kde_positive_cells": count("spatial.kde_heatmap", "positive_cells"),
        "spatial.kde_pairs": pairs,
        "spatial.kde_support_ratio":
            count("spatial.kde_heatmap", "support_pairs") / pairs if pairs else 0.0,
        "spatial.hotspots_s": total("spatial.detect_hotspots"),
        "spatial.hotspots_found": count("spatial.detect_hotspots", "found"),
        "spatial.merge_s": total("spatial.merge_hotspots"),
        "spatial.hotspots_kept": count("spatial.merge_hotspots", "kept"),
        "spatial.tour_s": total("spatial.plan_tour"),
        "spatial.tour_stops": count("spatial.plan_tour", "stops"),
        "geojson.features_s": sum(row["total_s"] for name, row in table.items()
                                  if name.startswith("geojson.")),
        "geojson.polygons": count("geojson.density_features", "polygons"),
        "pipeline.json_dumps_s": total("pipeline.json_dumps"),
        "pipeline.json_bytes": count("pipeline.json_dumps", "bytes"),
        "pipeline.self_s": sum(table[name]["self_s"] for name in
                               ("pipeline.run_pipeline", "pipeline.run_tour") if name in table),
    }


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(run[name] for run in runs) for name in runs[0]}


def write_spans(path: Path, spans: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span, sort_keys=True) + "\n")


def format_table(table: dict[str, dict], absent: list[str]) -> list[str]:
    lines = [f"{'span':34} {'calls':>6} {'total_s':>10} {'self_s':>10}  counts"]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["total_s"]):
        counts = " ".join(f"{k}={v}" for k, v in sorted(row["counts"].items()))
        lines.append(f"{name:34} {row['calls']:6d} {row['total_s']:10.4f} "
                     f"{row['self_s']:10.4f}  {counts}")
    lines += [f"{name:34} absent" for name in absent]
    return lines
