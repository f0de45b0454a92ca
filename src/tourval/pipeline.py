"""Batch front door: CSV/JSON ingestion, valuation, spatial analysis, and
the write of the artifacts, whose text ``render`` prints.

Input layout (CSV with a header row, every file opened by ``_lines`` and read
once: UTF-8 with an optional byte-order mark, a line of blank cells skipped
anywhere; numpy's C reader parses each plain block of evaluations.csv lines,
and ``_rows`` reads on from the first block it cannot; its rules are checked
once, after the read):
  factors.csv       id,name,x,y[,weight]
  evaluations.csv   attraction_id,factor_id,expert_id,lo,mode,hi  (long format,
                    one row per expert judgement)
  attractions.csv   id,name,lon,lat
  pairwise.csv      square matrix, header row of factor ids (only needed when
                    factors.csv carries no weight column)

This module decides: what is read, valued, kept and mapped.  Each artifact
is written under a temporary name as the stream of text chunks ``render``
yields for it, most of them blocks of records, each written as it is made;
no output is replaced until every artifact is written, so a failed write
leaves the previous outputs intact.  ``run_tour`` reads results.csv back
under the rules ``run`` writes it by: its rows in rank order, each rank
the row's position, and a tier one of ``TIERS``.
"""

from __future__ import annotations

import csv
import json
import math
import operator
import os
from array import array
from itertools import chain, islice
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from . import fuzzy, render
from .ahp import CR_LIMIT, WeightReport, derive_weights
from .errors import (ConfigError, InputError, NumericError, require_choice,
                     require_number, require_numbers)
from .record import Record
from .rescale import (COMPONENTS, RANGE_POLICIES, SourceRange, TargetRange,
                      apply_range_policy)
from .rounding import format_number, round6
from .spatial import (GeoPoint, HotSpot, ScoredPoint, Tour,
                      detect_hotspots, estimate_duration, kde_heatmap,
                      merge_hotspots, plan_tour, require_dwell, require_percentile,
                      require_positive)
from .valuation import (DEFAULT_SCALE, DEFAULT_THRESHOLDS, TIERS, FactorCatalogue,
                        FactorDefinition, Valuation, classify, evaluate_attractions)

__all__ = [
    "KdeSettings",
    "TourSettings",
    "RunConfig",
    "load_config",
    "IngestResult",
    "ingest",
    "PipelineOutput",
    "run_pipeline",
    "run_valuation",
    "run_tour",
]


class KdeSettings(Record):
    __slots__ = ("bandwidth_m", "cell_m", "hotspot_percentile", "merge_radius_m")

    def __init__(self, bandwidth_m: float = 100.0, cell_m: float = 10.0,
                 hotspot_percentile: float = 90.0, merge_radius_m: float = 0.0):
        require_positive(bandwidth_m, "kde.bandwidth_m")
        require_positive(cell_m, "kde.cell_m")
        require_percentile(hotspot_percentile, "kde.hotspot_percentile")
        require_number(merge_radius_m, "kde.merge_radius_m")
        if not 0 <= merge_radius_m < math.inf:
            raise ConfigError(
                f"kde.merge_radius_m must be finite and not negative, got {merge_radius_m}")
        self._set(bandwidth_m, cell_m, hotspot_percentile, merge_radius_m)


class TourSettings(Record):
    __slots__ = ("walk_speed_kmh", "dwell_minutes")

    def __init__(self, walk_speed_kmh: float = 4.0,
                 dwell_minutes: tuple[float, float, float] = (0.0, 0.0, 0.0)):
        require_positive(walk_speed_kmh, "tour.walk_speed_kmh")
        self._set(walk_speed_kmh, require_dwell(dwell_minutes, "tour.dwell_minutes"))


# the lines ``_lines`` reads at a time, so the evaluations.csv rows that
# ``load_evaluations`` parses at a time: numpy's C reader a plain block at
# once, or the row reader a block's number cells, held as text (about
# 0.7 MB) before it parses them into floats
_NUMBER_BLOCK_ROWS = 4096

# a row of evaluations.csv as numpy's C reader holds it: the three ids as
# bytes, unstripped, then (lo, mode, hi); an id that fills its width may be cut
_ID_BYTES = 32
_EVALUATION_ROW = np.dtype([("ids", f"S{_ID_BYTES}", (3,)), ("tfn", "f8", (3,))])
# an id's hash: each of its four 8-byte words times its own odd multiplier,
# summed with wrapping; a row's words are checked against its hash's first row
_ID_HASH = np.array([0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9,
                     0xD6E8FEB86659FD93], np.uint64)
# what keeps a block from numpy's C reader: NUL, which the ``S`` dtype drops at
# the end of an id and ``str.strip`` keeps, and the ASCII separators, which
# ``str.strip`` removes (a differential check found numpy and ``_rows`` to read
# them alike; no test pins that, so they stay out)
_STRIP_DISAGREES = ("\0", "\x1c", "\x1d", "\x1e", "\x1f")

# the input files, whose relative paths ``load_config`` takes from the config's
# directory; the first three have no default
_INPUTS = ("factors", "evaluations", "attractions", "pairwise")
_REQUIRED = _INPUTS[:3]


def _require_path(value, name: str) -> None:
    """The rule of every path setting: text, a ``str`` or an ``os.PathLike``
    of one, without a NUL character, which no file name holds."""
    text = os.fspath(value) if isinstance(value, (str, os.PathLike)) else None
    if not isinstance(text, str) or "\0" in text:
        raise ConfigError(f"{name} must be a path string, got {value!r}")


class RunConfig(Record):
    """Resolved run configuration; out_dir is made absolute against the
    working directory, the input files must exist."""

    __slots__ = ("factors", "evaluations", "attractions", "pairwise", "target", "defuzzify",
                 "range_policy", "tier_thresholds", "filter_threshold", "kde", "tour", "out_dir")

    def __init__(self, factors: Path, evaluations: Path, attractions: Path,
                 pairwise: Path | None = None, target: tuple[float, float] = DEFAULT_SCALE,
                 defuzzify: str = "centroid", range_policy: str = "strict",
                 tier_thresholds: tuple[float, float] = DEFAULT_THRESHOLDS,
                 filter_threshold: float = DEFAULT_THRESHOLDS[1],
                 kde: KdeSettings = KdeSettings(), tour: TourSettings = TourSettings(),
                 out_dir: Path = Path("out")):
        paths = (factors, evaluations, attractions, pairwise)
        for name, value in zip((*_INPUTS, "out_dir"), (*paths, out_dir)):
            if value is not None or name != "pairwise":   # None: weights from factors.csv
                _require_path(value, name)
        target = require_numbers(target, "target")
        t = require_numbers(tier_thresholds, "tier_thresholds")
        require_number(filter_threshold, "filter_threshold")
        self._set(*paths, target, defuzzify, range_policy, t, float(filter_threshold), kde,
                  tour, Path(out_dir).resolve())
        if len(target) != 2:
            raise ConfigError(f"target must be a pair (m, M), got {target}")
        try:
            TargetRange(*target)
        except ValueError as e:
            raise ConfigError(str(e)) from None
        require_choice(defuzzify, fuzzy.DEFUZZIFY_METHODS, "defuzzify")
        require_choice(range_policy, RANGE_POLICIES, "range_policy")
        if len(t) != 2 or not t[0] < t[1]:
            raise ConfigError(f"tier_thresholds must be increasing, got {t}")
        m, big_m = target
        if not (m <= t[0] and t[1] <= big_m and m <= self.filter_threshold <= big_m):
            raise ConfigError(f"tier_thresholds {t} and filter_threshold "
                              f"{self.filter_threshold} must lie inside target {target}")
        for p in paths:
            if p is not None and not Path(p).is_file():
                raise ConfigError(f"referenced file does not exist: {p}")


def _present(raw: Any, settings: type, prefix: str = "") -> dict[str, Any]:
    """The keys of a JSON config object that are not null (null means the
    default), after checking that it names only fields of ``settings``;
    ``prefix`` is the dotted name of an object nested in the config."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{prefix.rstrip('.') or 'the config'} must be a JSON object")
    unknown = sorted(prefix + key for key in set(raw) - set(settings.__slots__))
    if unknown:
        raise ConfigError(f"unknown keys: {', '.join(unknown)}")
    return {key: value for key, value in raw.items() if value is not None}


def load_config(path: Path | str) -> RunConfig:
    """Read a JSON run configuration.  Relative input paths are taken
    relative to the config file's directory; a relative out_dir is taken
    relative to the working directory, so a config shipped in a read-only
    location still writes where the caller stands.  Unknown keys are
    rejected rather than ignored; a key set to null takes its default."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8-sig"))
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise ConfigError(f"{path}: invalid JSON: {e}") from e
    base = path.resolve().parent
    try:
        present = _present(raw, RunConfig)
        missing = [key for key in _REQUIRED if key not in present]
        if missing:
            raise ConfigError(f"missing keys: {', '.join(missing)}")
        for key in _INPUTS:
            if key in present:
                _require_path(present[key], key)
                present[key] = (base / present[key]).resolve()
        for key, settings in (("kde", KdeSettings), ("tour", TourSettings)):
            if key in present:
                present[key] = settings(**_present(present[key], settings, f"{key}."))
        return RunConfig(**present)
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from e


# --- ingestion -------------------------------------------------------------


def _number(text: str, column: str, where: str) -> float:
    text = text.strip()
    if not text:
        raise InputError(f"{where}: missing value in column {column!r}")
    try:
        return float(text)
    except ValueError:
        raise InputError(f"{where}: column {column!r} is not a number: {text!r}") from None


def _lines(path: Path) -> Iterator[list[str]]:
    """A CSV file's lines, ends kept, ``_NUMBER_BLOCK_ROWS`` at a time: the
    only code that opens an input CSV, so every input file is UTF-8 (a
    leading byte-order mark dropped), its lines ending at LF, CR LF or a
    lone CR.  Other text raises ``InputError`` after the lines before it."""
    with open(path, encoding="utf-8-sig", newline="") as handle:
        block: list[str] = []
        try:
            # ``extend`` returns None, and keeps the lines it took before a fault
            while block.extend(islice(handle, _NUMBER_BLOCK_ROWS)) or block:
                yield block
                block = []
        except UnicodeDecodeError as e:
            yield block   # perhaps empty
            raise InputError(f"{path}: not UTF-8 text ({e.reason})") from None


def _rows(path: Path, lines: Iterable[str] | None = None, line_offset: int = 0
          ) -> Iterator[tuple[int, list[str]]]:
    """``(line, cells)`` per record of ``lines`` (by default the file's), the
    header included, if some cell holds more than whitespace: the line the
    record ends on, counted on from ``line_offset``, and its unstripped cells."""
    reader = csv.reader(chain.from_iterable(_lines(path)) if lines is None else lines)
    try:
        for row in reader:
            # the first cell settles almost every record without scanning the rest
            if row and (row[0].strip() or any(map(str.strip, row))):
                yield line_offset + reader.line_num, row
    except csv.Error as e:
        raise InputError(f"{path}:{line_offset + reader.line_num}: not read as CSV: {e}") from None


def _columns(path: Path, header: list[str], columns: tuple[str, ...]) -> list[int]:
    """Each of ``columns``' position in ``header``, the last if repeated."""
    missing = [c for c in columns if c not in header]
    if missing:
        raise InputError(f"{path}: missing required columns: {', '.join(missing)}")
    position = {name: i for i, name in enumerate(header)}
    return [position[c] for c in columns]


def _cells(rows: Iterable[tuple[int, list[str]]], positions: list[int], width: int
           ) -> Iterator[tuple[int, tuple[str, ...]]]:
    """``(line, cells)`` per record: its unstripped cells at the two or more
    ``positions``, those beyond a record's end (``width`` at most) ``""``."""
    pick = operator.itemgetter(*positions)
    padding = [""] * width
    for line, row in rows:
        yield line, pick(row + padding)


def _records(path: Path, columns: tuple[str, ...]) -> Iterator[tuple[int, tuple[str, ...]]]:
    """``_cells`` of ``columns`` per record below the header."""
    rows = _rows(path)
    header = next(rows, (0, []))[1]
    return _cells(rows, _columns(path, header, columns), len(header))


def load_factor_table(path: Path) -> tuple[tuple[FactorDefinition, ...], bool]:
    """Factor rows in file order.  Returns (factors, has_weight_column);
    without a weight column every definition carries weight 0 and the
    caller must supply weights from a pairwise matrix."""
    rows = _rows(path)
    header = next(rows, (0, []))[1]
    has_weights = "weight" in header
    factors: list[FactorDefinition] = []
    seen: set[str] = set()
    columns = ("id", "name", "x", "y", "weight") if has_weights else ("id", "name", "x", "y")
    positions = _columns(path, header, columns)
    for line, (factor_id, name, x, y, *weight) in _cells(rows, positions, len(header)):
        where = f"{path}:{line}"
        factor_id = factor_id.strip()
        if factor_id in seen:
            raise InputError(f"{where}: duplicate factor id {factor_id!r}")
        seen.add(factor_id)
        try:
            src = SourceRange(_number(x, "x", where), _number(y, "y", where))
            factors.append(FactorDefinition(
                id=factor_id, name=name.strip() or factor_id, src=src,
                weight=_number(weight[0], "weight", where) if has_weights else 0.0))
        except ValueError as e:
            raise InputError(f"{where}: {e}") from e
    if not factors:
        raise InputError(f"{path}: no factors defined")
    return tuple(factors), has_weights


def _id_mismatch(have: Iterable[str], want: Iterable[str]) -> str:
    """The ids of ``want`` that ``have`` lacks and those it adds, as text;
    empty when the two sets agree."""
    have, want = set(have), set(want)
    return "; ".join(f"{label}: {', '.join(sorted(ids))}"
                     for label, ids in (("missing", want - have), ("unknown", have - want)) if ids)


def load_pairwise(path: Path, expected_ids: Iterable[str]) -> tuple[list[str], WeightReport]:
    """Weights derived from a square pairwise matrix with a header row of
    factor ids.  The id set must match the catalogue exactly; row order
    follows the header."""
    rows = list(_rows(path))
    if not rows:
        raise InputError(f"{path}: empty pairwise matrix file")
    ids = [c.strip() for c in rows[0][1]]
    detail = _id_mismatch(ids, expected_ids)
    if detail or len(ids) != len(set(ids)):
        raise InputError(f"{path}: header does not match factor catalogue"
                         + (f" (ids {detail})" if detail else ""))
    n = len(ids)
    if len(rows) != n + 1:
        raise InputError(f"{path}: expected {n} data rows after the header, got {len(rows) - 1}")
    matrix: list[list[float]] = []
    for line, row in rows[1:]:
        if len(row) != n:
            raise InputError(f"{path}:{line}: expected {n} entries, got {len(row)}")
        matrix.append([_number(cell, column, f"{path}:{line}") for cell, column in zip(row, ids)])
    try:
        return ids, derive_weights(matrix)
    except ValueError as e:
        raise InputError(f"{path}: {e}") from e


def _header(path: Path, blocks: Iterator[list[str]]) -> tuple[int, list[str], Iterator]:
    """The first record ``_rows`` reads from ``blocks``: the line it ends on,
    its cells, and the blocks below it, first what is left of its last one."""
    read: list[list[str]] = []
    line, header = next(_rows(path, chain.from_iterable(read.append(b) or b for b in blocks)),
                        (0, []))
    unread = sum(map(len, read)) - line   # the lines of the last block read below the header
    return line, header, chain([read[-1][len(read[-1]) - unread:]] if read else [], blocks)


def _parse_in_c(block: list[str], usecols: list[int], codes: tuple[dict[str, int], ...],
                columns: tuple[array, ...]) -> bool:
    """Append to ``columns`` the three codes and the numbers of a block of
    evaluations.csv lines, parsed by numpy's C reader, if it reads the block
    as ``_rows`` would; otherwise return False, having appended nothing and
    coded no id."""
    text = "".join(block)
    # ASCII, so a character is a byte; a blank first line would make
    # ``np.loadtxt`` warn if the block held no data
    if not text.isascii() or block[0].isspace() or any(map(text.__contains__, _STRIP_DISAGREES)):
        return False
    # no line is longer than csv's field limit, which ``np.loadtxt`` does not keep:
    # a line end in every window of ``half`` characters keeps each line within it
    limit = csv.field_size_limit()
    half = limit // 2 + 1
    if len(text) > limit and any(text.find("\n", i, i + half) < 0
                                 and text.find("\r", i, i + half) < 0
                                 for i in range(0, len(text), half)):
        return False
    try:
        # no quote is left open at the block's end, which ``np.loadtxt`` would close
        next(csv.reader(block[-1:], strict=True))
        rows = np.loadtxt(block, _EVALUATION_ROW, delimiter=",", comments=None, quotechar='"',
                          usecols=usecols, ndmin=1)
    except (ValueError, csv.Error):
        return False
    # one row a line: no record was blank, whitespace only or on two lines
    if len(rows) != len(block):
        return False
    words = rows["ids"].view(np.uint64).reshape(len(rows), 3, len(_ID_HASH))
    hashes = words @ _ID_HASH   # array arithmetic wraps silently
    distinct = []   # per column: the order of first appearance, each row's index, the raw ids
    for column in range(3):
        _, first, inverse = np.unique(hashes[:, column], return_index=True, return_inverse=True)
        order = np.argsort(first)
        raw = rows["ids"][first[order], column].tolist()
        # two raw ids with one hash, or an id that may have been cut
        if ((words[first, column].take(inverse, axis=0) != words[:, column]).any()
                or max(map(len, raw)) >= _ID_BYTES):
            return False
        distinct.append((order, inverse, raw))
    for (order, inverse, raw), seen, out in zip(distinct, codes, columns):
        code = np.empty(len(raw), np.int64)
        code[order] = [seen.setdefault(i.decode().strip(), len(seen)) for i in raw]
        out.frombytes(code[inverse].tobytes())
    columns[3].frombytes(rows["tfn"].tobytes())   # a contiguous copy of the numbers
    return True


def _parse_by_row(rows: Iterator[tuple[int, tuple[str, ...]]], codes: tuple[dict[str, int], ...],
                  columns: tuple[array, ...]) -> tuple[list[int], list[str]] | None:
    """Append to ``columns`` the codes, lines and numbers of ``_cells``'
    evaluations.csv records, a block at a time; return the lines and number
    cells of the first block whose numbers do not parse (its numbers and
    all later ones are left out)."""
    by_attraction, by_factor, by_expert = codes
    attractions, factors, experts, tfns, all_lines = columns
    bad_block = None
    while True:
        lines, numbers = [], []
        for line, (attraction, factor, expert, lo, mode, hi) in islice(rows, _NUMBER_BLOCK_ROWS):
            attractions.append(by_attraction.setdefault(attraction.strip(), len(by_attraction)))
            factors.append(by_factor.setdefault(factor.strip(), len(by_factor)))
            experts.append(by_expert.setdefault(expert.strip(), len(by_expert)))
            lines.append(line)
            numbers += lo, mode, hi
        try:
            tfns.fromlist([] if bad_block else list(map(float, map(str.strip, numbers))))
        except ValueError:
            bad_block = lines, numbers
        all_lines.fromlist(lines)
        if len(lines) < _NUMBER_BLOCK_ROWS:
            return bad_block


def load_evaluations(path: Path, catalogue_ids: Iterable[str]
                     ) -> tuple[list[str], np.ndarray, np.ndarray, array, np.ndarray]:
    """Long-format expert judgements in file order: the distinct attraction
    ids in order of first appearance, each row's index into them, factor
    catalogue indices, file lines (an ``array('l')``) and an (n, 3) array of
    (lo, mode, hi).  Errors name their line.

    The file is read once, to its end, before any rule is checked, so a
    read error comes first: below the header, numpy's C reader parses each
    block of lines that it reads as ``_rows`` would, and the row reader
    reads on from the first that it does not.  Then each rule is checked
    here, over the whole file, reporting its first offending line: the id
    rules (three non-empty ids, a known factor), the duplicates, the numbers
    and the TFN rule, in that order."""
    known = {factor_id: k for k, factor_id in enumerate(catalogue_ids)}
    # the id -> code dicts of the attraction, factor (seeded from the catalogue,
    # so an unknown factor or "" gets a code of its own) and expert columns
    codes: tuple[dict[str, int], ...] = ({}, dict(known), {})
    # the three codes, the numbers and the lines of the rows read
    columns = (array("q"), array("q"), array("q"), array("d"), array("l"))
    line, header, blocks = _header(path, _lines(path))
    usecols = _columns(path, header, ("attraction_id", "factor_id", "expert_id") + COMPONENTS)
    for block in filter(None, blocks):
        if not _parse_in_c(block, usecols, codes, columns):
            blocks = chain([block], blocks)
            break
        columns[4].frombytes(np.arange(line + 1, line + len(block) + 1, dtype="l").tobytes())
        line += len(block)
    # the row reader reads on from the first block that numpy's C reader cannot, if any
    rows = _rows(path, chain.from_iterable(blocks), line)
    bad_block = _parse_by_row(_cells(rows, usecols, len(header)), codes, columns)
    attractions, factors, experts = (np.frombuffer(c, np.int64) for c in columns[:3])
    tfns, lines = np.frombuffer(columns[3]).reshape(-1, 3), columns[4]

    empty = [c.get("", -1) for c in codes]   # the code of "" in each column, if any
    if len(codes[1]) > len(known) or max(empty) >= 0:
        blank = [column == code for column, code in zip((attractions, factors, experts), empty)]
        at = np.flatnonzero(np.logical_or.reduce(blank) | (factors >= len(known)))[0]
        if any(column[at] for column in blank):
            raise InputError(f"{path}:{lines[at]}: attraction_id, factor_id and expert_id "
                             "must all be non-empty")
        raise InputError(f"{path}:{lines[at]}: unknown factor id {list(codes[1])[factors[at]]!r}")

    # one integer per (attraction, factor, expert); a key seen before is a duplicate
    keys = (attractions * len(known) + factors) * len(codes[2]) + experts
    keys.sort()
    if (keys[1:] == keys[:-1]).any():
        _, first, inverse = np.unique((attractions * len(known) + factors) * len(codes[2])
                                      + experts, return_index=True, return_inverse=True)
        at = np.flatnonzero(first[inverse] != np.arange(len(lines)))[0]
        raise InputError(f"{path}:{lines[at]}: duplicate judgement for attraction "
                         f"{list(codes[0])[attractions[at]]!r}, "
                         f"factor {list(known)[factors[at]]!r}, "
                         f"expert {list(codes[2])[experts[at]]!r}")

    for at, text in enumerate(bad_block[1] if bad_block else []):   # the first bad cell raises
        _number(text, COMPONENTS[at % 3], f"{path}:{bad_block[0][at // 3]}")
    bad = np.flatnonzero(~fuzzy.is_tfn(*tfns.T))
    if bad.size:
        raise InputError(f"{path}:{lines[bad[0]]}: not a TFN (finite, lo <= mode <= hi): "
                         f"{tuple(tfns[bad[0]].tolist())}")
    return list(codes[0]), attractions, factors, lines, tfns


def load_attractions(path: Path) -> tuple[dict[str, str], dict[str, GeoPoint]]:
    """Attraction display names and WGS84 locations keyed by id."""
    names: dict[str, str] = {}
    locations: dict[str, GeoPoint] = {}
    for line, (attraction_id, name, lon, lat) in _records(path, ("id", "name", "lon", "lat")):
        where = f"{path}:{line}"
        attraction_id = attraction_id.strip()
        if not attraction_id:
            raise InputError(f"{where}: empty attraction id")
        if attraction_id in names:
            raise InputError(f"{where}: duplicate attraction id {attraction_id!r}")
        try:
            point = GeoPoint(_number(lon, "lon", where), _number(lat, "lat", where))
        except ValueError as e:
            raise InputError(f"{where}: {e}") from e
        names[attraction_id] = name.strip() or attraction_id
        locations[attraction_id] = point
    if not names:
        raise InputError(f"{path}: no attractions")
    return names, locations


class IngestResult(Record):
    # scores: (attractions, factors, 3) expert-mean TFNs, in names order;
    # judgements: evaluations.csv rows read
    __slots__ = ("catalogue", "scores", "names", "locations", "weight_source",
                 "weight_report", "judgements")

    def __init__(self, catalogue: FactorCatalogue, scores: np.ndarray, names: dict[str, str],
                 locations: dict[str, GeoPoint], weight_source: str,
                 weight_report: WeightReport | None, judgements: int):
        self._set(catalogue, scores, names, locations, weight_source, weight_report, judgements)


def _exact_sums(rows: np.ndarray, order: np.ndarray, counts: np.ndarray,
                locate: Callable[[tuple[int, int]], str]) -> np.ndarray:
    """``math.fsum`` of each column over each run of ``rows[order]``: run
    ``i`` is the next ``counts[i]`` rows (at least one), and gives row ``i``
    of the result, bit for bit as ``math.fsum`` would.

    A TwoSum chain adds the runs' rows one step at a time, all runs at once
    (longest runs first, so the runs still open at a step are a prefix and
    nothing is padded), and a second TwoSum chain sums the first chain's
    rounding errors (Ogita, Rump and Oishi, SIAM J. Sci. Comput. 26, 2005).
    Where every residual of the second chain is 0, the sum ``s`` plus the
    error total ``t`` is the exact sum, so ``s + t`` is its correctly
    rounded value, which is what ``math.fsum`` returns.  Any other entry, or
    a non-finite one, is summed again by ``math.fsum`` alone; an overflow
    there raises ``NumericError`` prefixed by ``locate((run, column))``."""
    longest = np.argsort(-counts, kind="stable")
    first = (np.cumsum(counts) - counts)[longest]
    total = rows[order[first]]   # the first step, from 0.0, is exact
    errors = np.zeros_like(total)
    scratch = np.empty((3,) + total.shape)   # reused by every step
    # open_runs[j]: how many runs have more than j rows
    open_runs = len(counts) - np.cumsum(np.bincount(counts))
    with np.errstate(over="ignore", invalid="ignore"):   # non-finite entries are redone
        for j, m in enumerate(open_runs[1:-1].tolist(), 1):
            b, s, t = scratch[:, :m]
            np.take(rows, order[first[:m] + j], axis=0, out=b)
            # TwoSum (Knuth, TAOCP vol. 2, 4.2.2) in place, into each chain: ``a``
            # becomes a + b rounded and ``b`` its error, so that a + b is unchanged
            for a in total[:m], errors[:m]:
                np.add(a, b, out=s)
                b -= np.subtract(s, a, out=t)   # b - b_part
                b += np.subtract(a, np.subtract(s, t, out=t), out=t)   # + (a - a_part)
                a[...] = s
            errors[:m][b != 0.0] = math.nan   # a residual left: math.fsum redoes the entry
        total += errors
    for run, column in zip(*np.nonzero(~np.isfinite(total))):
        run_rows = order[first[run]:first[run] + counts[longest[run]]]
        try:
            total[run, column] = math.fsum(rows[run_rows, column])
        except OverflowError:
            raise NumericError(f"{locate((longest[run], column))}overflows a float") from None
    sums = np.empty_like(total)
    sums[longest] = total
    return sums


def _expert_means(config: RunConfig, catalogue: FactorCatalogue, names: dict[str, str],
                  judgements: tuple[list[str], np.ndarray, np.ndarray, array, np.ndarray]
                  ) -> np.ndarray:
    """Apply the range policy to each judgement, then average the experts per
    (attraction, factor) into an (attractions, factors, 3) array.  The sums
    are exact, as ``math.fsum`` gives them (``_exact_sums``)."""
    ids, codes, factors, lines, tfns = judgements
    factor_ids = catalogue.ids
    n, k = len(names), len(factor_ids)
    unknown = sorted(set(ids).difference(names))
    if unknown:
        raise InputError(f"{config.evaluations}: judgements for attractions absent "
                         f"from {config.attractions}: {', '.join(unknown)}")
    position = {attraction_id: i for i, attraction_id in enumerate(names)}
    cells = (np.array([position[i] for i in ids], dtype=np.intp) * k)[codes] + factors
    counts = np.bincount(cells, minlength=n * k)
    if not counts.all():
        for attraction_id, row in zip(names, counts.reshape(n, k).tolist()):
            missing = [f for f, count in zip(factor_ids, row) if not count]
            if missing:
                raise InputError(
                    f"{config.evaluations}: attraction {attraction_id!r} lacks judgements "
                    f"for: {', '.join(missing)}")

    x, y = catalogue.source_ranges
    admitted = apply_range_policy(
        tfns, x[factors], y[factors], config.range_policy,
        lambda at: f"{config.evaluations}:{lines[at[0]]}: attraction {ids[codes[at[0]]]!r}, "
                   f"factor {factor_ids[factors[at[0]]]!r}: {COMPONENTS[at[1]]}=")

    # every cell has at least one judgement, so the sorted runs are the cells in order
    sums = _exact_sums(
        admitted, np.argsort(cells, kind="stable"), counts,
        lambda at: f"{config.evaluations}: attraction {list(names)[at[0] // k]!r}, "
                   f"factor {factor_ids[at[0] % k]!r}: the sum of the {COMPONENTS[at[1]]} "
                   "judgements ")
    return np.divide(sums, counts[:, None], out=sums).reshape(n, k, 3)


def ingest(config: RunConfig) -> IngestResult:
    """Load and cross-validate all inputs; aggregate expert judgements,
    each admitted by the range policy, to one mean TFN per (attraction,
    factor).

    The attraction universe is attractions.csv: every listed attraction
    must be fully scored, and judgements for unlisted attractions are
    errors.  Weight precedence: factor weight column, else pairwise matrix,
    else a configuration error.
    """
    factors, has_weights = load_factor_table(config.factors)
    factor_ids = [f.id for f in factors]

    weight_source = "column"
    report: WeightReport | None = None
    if not has_weights:
        if config.pairwise is None:
            raise ConfigError(
                f"{config.factors} has no weight column and no pairwise matrix is "
                "configured; supply one of the two")
        ids, report = load_pairwise(config.pairwise, factor_ids)
        by_id = dict(zip(ids, report.weights))
        factors = tuple(f.replace(weight=by_id[f.id]) for f in factors)
        weight_source = "pairwise"

    catalogue = FactorCatalogue(factors=factors, target=TargetRange(*config.target))

    names, locations = load_attractions(config.attractions)
    judgements = load_evaluations(config.evaluations, factor_ids)
    scores = _expert_means(config, catalogue, names, judgements)
    return IngestResult(catalogue, scores, names, locations, weight_source, report,
                        len(judgements[3]))


# --- the run itself --------------------------------------------------------


class PipelineOutput(Record):
    """What a run decided, for the CLI's summary, and the paths it wrote."""

    # weight_source is None for ``run_tour``, which reads no weights
    __slots__ = ("results", "retained", "weight_source", "weight_report", "hotspots", "tour",
                 "written")

    def __init__(self, results: Valuation, retained: tuple[str, ...], weight_source: str | None,
                 weight_report: WeightReport | None, hotspots: tuple[HotSpot, ...],
                 tour: Tour | None, written: tuple[Path, ...]):
        self._set(results, retained, weight_source, weight_report, hotspots, tour, written)


def _gate_consistency(report: WeightReport | None, allow_inconsistent: bool) -> None:
    if report is not None and report.inconsistent and not allow_inconsistent:
        raise InputError(
            f"pairwise judgements are inconsistent (CR = {report.consistency_ratio:.4f} "
            f"> {CR_LIMIT}); re-elicit them or pass --allow-inconsistent")


def _spatial_analysis(config: RunConfig, valuation: Valuation, retained: list[int],
                      locations: dict[str, GeoPoint]):
    # weighted by the crisp value as results.csv prints it, which is what
    # ``run_tour`` reads back, so both paths build the same surface
    # the first retained value below 0, if any
    for i in (i for i in retained if valuation.printed[i] < 0):
        raise ConfigError(f"attraction {valuation.ids[i]!r} is kept with the negative value "
                          f"{format_number(valuation.crisp[i])}, which cannot weigh the density "
                          f"surface; filter_threshold ({format_number(config.filter_threshold)}) "
                          "must be 0 or above")
    points = [ScoredPoint(locations[valuation.ids[i]], valuation.printed[i]) for i in retained]
    grid = kde_heatmap(points, bandwidth_m=config.kde.bandwidth_m, cell_m=config.kde.cell_m)
    hotspots = detect_hotspots(grid, percentile=config.kde.hotspot_percentile)
    hotspots = merge_hotspots(hotspots, config.kde.merge_radius_m)
    tour = None
    if hotspots:
        tour = plan_tour(hotspots)
        duration = estimate_duration(tour, config.tour.walk_speed_kmh,
                                     config.tour.dwell_minutes)
        tour = tour.replace(duration_hours=duration)
    return grid, tuple(hotspots), tour


def _write_all(out_dir: Path, payloads: dict[str, Iterable[str]]) -> tuple[Path, ...]:
    """Write every payload, an iterable of text chunks, to a hidden
    temporary file in ``out_dir``, then move each into place with
    ``os.replace``.  Each chunk is written as it is made, so a payload is
    never held whole.  A failure while writing, or while a payload makes its
    chunks, leaves the previous outputs as they were; the temporary files
    are always removed."""
    out_dir.mkdir(parents=True, exist_ok=True)
    staged = [(out_dir / f".{name}.{os.urandom(8).hex()}.tmp", out_dir / name)
              for name in payloads]
    try:
        for (temporary, _), chunks in zip(staged, payloads.values()):
            with temporary.open("w", encoding="utf-8", newline="") as handle:
                handle.writelines(chunks)
        for temporary, target in staged:
            os.replace(temporary, target)
    finally:
        for temporary, _ in staged:
            temporary.unlink(missing_ok=True)
    return tuple(target for _, target in staged)


def run_valuation(config: RunConfig, allow_inconsistent: bool = False) -> PipelineOutput:
    """Valuation stage only: results.csv and results.json, no map."""
    return _run(config, allow_inconsistent, with_spatial=False)


def run_pipeline(config: RunConfig, allow_inconsistent: bool = False) -> PipelineOutput:
    """Full run: valuation, filtering, spatial analysis, all three artifacts."""
    return _run(config, allow_inconsistent, with_spatial=True)


def _run(config: RunConfig, allow_inconsistent: bool, with_spatial: bool) -> PipelineOutput:
    ingested = ingest(config)
    _gate_consistency(ingested.weight_report, allow_inconsistent)
    valuation = evaluate_attractions(
        list(ingested.names), ingested.scores, ingested.catalogue, method=config.defuzzify,
        thresholds=config.tier_thresholds)
    return _finish(config, valuation, ingested.names, ingested.locations, ingested, with_spatial)


def _finish(config: RunConfig, valuation: Valuation, names: dict[str, str],
            locations: dict[str, GeoPoint], ingested: IngestResult | None,
            with_spatial: bool) -> PipelineOutput:
    """Filter, spatial stage, render, write.  ``ingested`` is None when the
    valuation was read back from results.csv: then only the map is written
    and the weight source is unknown."""
    retained = valuation.above(config.filter_threshold)
    grid, hotspots, tour = None, (), None
    if with_spatial:
        grid, hotspots, tour = _spatial_analysis(config, valuation, retained, locations)

    payloads = {}
    columns, numbers = render.result_columns(valuation, names)
    kept = tuple(valuation.ids[i] for i in retained)
    if ingested is not None:
        payloads["results.csv"] = (render.results_csv(valuation, numbers),)
        payloads["results.json"] = render.results_json(config, ingested, columns, kept,
                                                       hotspots, tour)
    if with_spatial:
        payloads["map.geojson"] = render.map_geojson(
            columns, [locations[i] for i in valuation.ids], grid, hotspots, tour)
    written = _write_all(config.out_dir, payloads)
    return PipelineOutput(valuation, kept, ingested.weight_source if ingested else None,
                          ingested.weight_report if ingested else None,
                          hotspots, tour, written)


def run_tour(config: RunConfig) -> PipelineOutput:
    """Spatial stage alone, fed from a previous run's results.csv in
    config.out_dir; rewrites map.geojson only."""
    results_path = config.out_dir / "results.csv"
    if not results_path.is_file():
        raise InputError(f"{results_path}: not found; run the pipeline (or the "
                         "valuation stage) first")
    names, locations = load_attractions(config.attractions)

    rows: dict[str, tuple[list[float], float]] = {}
    # the printed value of a crisp value on the target lies between the printed ends
    scale = (round6(config.target[0]), round6(config.target[1]))
    for line, (attraction_id, lo, mode, hi, crisp, tier, rank_text) in _records(
            results_path, render.RESULT_COLUMNS):
        where = f"{results_path}:{line}"
        attraction_id = attraction_id.strip()
        if attraction_id in rows:
            raise InputError(f"{where}: duplicate attraction id {attraction_id!r}")
        if attraction_id not in locations:
            raise InputError(f"{where}: attraction {attraction_id!r} has no "
                             f"coordinates in {config.attractions}")
        ftv = [_number(text, f"ftv_{c}", where) for text, c in zip((lo, mode, hi), COMPONENTS)]
        if not fuzzy.is_tfn(*ftv):
            raise InputError(f"{where}: not a TFN (finite, lo <= mode <= hi): {tuple(ftv)}")
        crisp = _number(crisp, "crisp", where)
        if not math.isfinite(crisp):
            raise InputError(f"{where}: column 'crisp' is not a finite number: {crisp}")
        if rank_text.strip() != str(len(rows) + 1):   # the rows are in rank order
            raise InputError(f"{where}: column 'rank' is not the row's position, {len(rows) + 1}")
        tier = tier.strip()
        require_choice(tier, TIERS, f"{where}: column 'tier'", InputError)
        try:
            expected = classify(crisp, config.tier_thresholds, scale)
        except ValueError as e:
            raise InputError(f"{where}: column 'crisp': {e}") from e
        if tier != expected:
            thresholds = ", ".join(map(format_number, config.tier_thresholds))
            raise InputError(f"{where}: column 'tier' is {tier!r}, but crisp "
                             f"{format_number(crisp)} is {expected!r} under tier_thresholds "
                             f"[{thresholds}]; after changing tier_thresholds, re-run ftv "
                             "or run")
        rows[attraction_id] = (ftv, crisp)
    if not rows:
        raise InputError(f"{results_path}: no result rows")
    ftv, crisp = zip(*rows.values())
    # each row's tier is checked above to be the one this valuation gives it
    valuation = Valuation(tuple(rows), np.array(ftv), np.array(crisp), config.tier_thresholds)
    return _finish(config, valuation, names, locations, ingested=None, with_spatial=True)
