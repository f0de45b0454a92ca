"""Batch front door: CSV/JSON ingestion, valuation, spatial analysis, and
the write of the artifacts, whose text ``render`` prints.

Input layout (CSV with a header row, every file read by ``_rows``: UTF-8 with
an optional byte-order mark, a line of blank cells skipped anywhere):
  factors.csv       id,name,x,y[,weight]
  evaluations.csv   attraction_id,factor_id,expert_id,lo,mode,hi  (long format,
                    one row per expert judgement)
  attractions.csv   id,name,lon,lat
  pairwise.csv      square matrix, header row of factor ids (only needed when
                    factors.csv carries no weight column)

This module decides: what is read, valued, kept and mapped.  Each artifact
is written under a temporary name as the stream of text chunks ``render``
yields for it, one ``write`` per block of ``WRITE_BLOCK_CHUNKS`` chunks, and
no output is replaced until every artifact is written, so a failed write
leaves the previous outputs intact.  ``run_tour`` reads results.csv back
under the rules ``run`` writes it by: a tier is one of ``TIERS``.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import operator
import os
import sys
from dataclasses import dataclass, field, fields, replace
from itertools import islice
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from . import fuzzy, render
from .ahp import CR_LIMIT, WeightReport, derive_weights
from .errors import ConfigError, InputError, NumericError, require_choice
from .fuzzy import TFN
from .rescale import (COMPONENTS, RANGE_POLICIES, SourceRange, TargetRange,
                      apply_range_policy)
from .rounding import format_number, round6
from .spatial import (GeoPoint, HotSpot, ScoredPoint, Tour,
                      detect_hotspots, estimate_duration, kde_heatmap,
                      merge_hotspots, plan_tour, require_dwell, require_percentile,
                      require_positive)
from .valuation import (DEFAULT_SCALE, DEFAULT_THRESHOLDS, TIERS, FactorCatalogue,
                        FactorDefinition, ValuationResult, classify, evaluate_attractions,
                        filter_high, id_mismatch, rank)

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

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class KdeSettings:
    bandwidth_m: float = 100.0
    cell_m: float = 10.0
    hotspot_percentile: float = 90.0
    merge_radius_m: float = 0.0

    def __post_init__(self):
        require_positive(self.bandwidth_m, "kde.bandwidth_m")
        require_positive(self.cell_m, "kde.cell_m")
        require_percentile(self.hotspot_percentile, "kde.hotspot_percentile")
        if not 0 <= self.merge_radius_m < math.inf:
            raise ConfigError(
                f"kde.merge_radius_m must be finite and not negative, got {self.merge_radius_m}")


@dataclass(frozen=True)
class TourSettings:
    walk_speed_kmh: float = 4.0
    dwell_minutes: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        object.__setattr__(self, "dwell_minutes", tuple(self.dwell_minutes))
        require_positive(self.walk_speed_kmh, "tour.walk_speed_kmh")
        require_dwell(self.dwell_minutes, "tour.dwell_minutes")


# text chunks joined into one ``write`` by ``_write_all``: about 330 KB of map text
WRITE_BLOCK_CHUNKS = 1024

# the input files, whose relative paths ``load_config`` takes from the config's directory
_INPUTS = ("factors", "evaluations", "attractions", "pairwise")


@dataclass(frozen=True)
class RunConfig:
    """Resolved run configuration; out_dir is made absolute against the
    working directory, the input files must exist."""

    factors: Path
    evaluations: Path
    attractions: Path
    pairwise: Path | None = None
    target: tuple[float, float] = DEFAULT_SCALE
    defuzzify: str = "centroid"
    range_policy: str = "strict"
    tier_thresholds: tuple[float, float] = DEFAULT_THRESHOLDS
    filter_threshold: float = DEFAULT_THRESHOLDS[1]
    kde: KdeSettings = field(default_factory=KdeSettings)
    tour: TourSettings = field(default_factory=TourSettings)
    out_dir: Path = Path("out")

    def __post_init__(self):
        object.__setattr__(self, "target", tuple(self.target))
        object.__setattr__(self, "tier_thresholds", tuple(self.tier_thresholds))
        if isinstance(self.filter_threshold, str):   # float() would read it as a number
            raise ConfigError(f"filter_threshold must be a number, got {self.filter_threshold!r}")
        object.__setattr__(self, "filter_threshold", float(self.filter_threshold))
        object.__setattr__(self, "out_dir", Path(str(self.out_dir)).resolve())
        if len(self.target) != 2:
            raise ConfigError(f"target must be a pair (m, M), got {self.target}")
        TargetRange(*self.target)
        require_choice(self.defuzzify, fuzzy.DEFUZZIFY_METHODS, "defuzzify")
        require_choice(self.range_policy, RANGE_POLICIES, "range_policy")
        t = self.tier_thresholds
        if len(t) != 2 or not t[0] < t[1]:
            raise ConfigError(f"tier_thresholds must be increasing, got {t}")
        m, big_m = self.target
        if not (m <= t[0] and t[1] <= big_m and m <= self.filter_threshold <= big_m):
            raise ConfigError(f"tier_thresholds {t} and filter_threshold "
                              f"{self.filter_threshold} must lie inside target {self.target}")
        for p in (getattr(self, key) for key in _INPUTS):
            if p is not None and not Path(p).is_file():
                raise ConfigError(f"referenced file does not exist: {p}")


def _present(raw: Any, settings: type, where: str) -> dict[str, Any]:
    """The keys of a JSON config object that are not null (null means the
    default), after checking that it names only fields of ``settings``."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: expected a JSON object")
    unknown = sorted(set(raw) - {f.name for f in fields(settings)})
    if unknown:
        raise ConfigError(f"{where}: unknown keys: {', '.join(unknown)}")
    for key, value in raw.items():
        # Python reads true as the number 1 and keeps an integer past the float range exact
        if any(isinstance(v, bool) or isinstance(v, int) and abs(v) > sys.float_info.max
               for v in (value if isinstance(value, list) else [value])):
            raise ConfigError(f"{where}: {key} takes no true, false or integer beyond the "
                              f"float range, got {json.dumps(value)}")
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
    present = _present(raw, RunConfig, str(path))
    base = path.resolve().parent
    try:
        for key in _INPUTS:
            if key in present:
                present[key] = (base / str(present[key])).resolve()
        for key, settings in (("kde", KdeSettings), ("tour", TourSettings)):
            if key in present:
                present[key] = settings(**_present(present[key], settings, f"{path}: {key}"))
        return RunConfig(**present)
    except (TypeError, ValueError) as e:
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


def _rows(path: Path) -> Iterator[tuple[int, list[str]]]:
    """``(line, cells)`` per record of a CSV file, the header included: the
    line the record ends on and its unstripped cells.  The only code that
    opens an input CSV, so its rules are every input file's: UTF-8, a
    leading byte-order mark dropped (other text raises ``InputError``), and
    a record is read only if some cell holds more than whitespace."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as handle:
            reader = csv.reader(handle)
            for row in reader:
                # the first cell settles almost every record without scanning the rest
                if row and (row[0].strip() or any(map(str.strip, row))):
                    yield reader.line_num, row
    except UnicodeDecodeError as e:
        raise InputError(f"{path}: not UTF-8 text ({e.reason})") from None


def _records(path: Path, columns: tuple[str, ...]) -> Iterator[tuple[int, tuple[str, ...]]]:
    """``(line, cells)`` per record below the header: its unstripped cells
    of the two or more ``columns``, in that order.  Missing cells read
    ``""``; a repeated name means its last column."""
    rows = _rows(path)
    header = next(rows, (0, []))[1]
    missing = [c for c in columns if c not in header]
    if missing:
        raise InputError(f"{path}: missing required columns: {', '.join(missing)}")
    position = {name: i for i, name in enumerate(header)}
    pick = operator.itemgetter(*(position[c] for c in columns))
    padding = [""] * len(header)
    for line, row in rows:
        yield line, pick(row + padding)


def load_factor_table(path: Path) -> tuple[tuple[FactorDefinition, ...], bool]:
    """Factor rows in file order.  Returns (factors, has_weight_column);
    without a weight column every definition carries weight 0 and the
    caller must supply weights from a pairwise matrix."""
    has_weights = "weight" in next(_rows(path), (0, []))[1]
    factors: list[FactorDefinition] = []
    seen: set[str] = set()
    columns = ("id", "name", "x", "y", "weight") if has_weights else ("id", "name", "x", "y")
    for line, (factor_id, name, x, y, *weight) in _records(path, columns):
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


def load_pairwise(path: Path, expected_ids: Iterable[str]) -> tuple[list[str], WeightReport]:
    """Weights derived from a square pairwise matrix with a header row of
    factor ids.  The id set must match the catalogue exactly; row order
    follows the header."""
    rows = list(_rows(path))
    if not rows:
        raise InputError(f"{path}: empty pairwise matrix file")
    ids = [c.strip() for c in rows[0][1]]
    detail = id_mismatch(ids, expected_ids)
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


def load_evaluations(path: Path, catalogue_ids: Iterable[str]
                     ) -> tuple[list[str], np.ndarray, np.ndarray, list[int], np.ndarray]:
    """Long-format expert judgements in file order: the distinct attraction
    ids in order of first appearance, each row's index into them, factor
    catalogue indices, file lines and an (n, 3) array of (lo, mode, hi).
    Errors name their line.  The id rules are checked row by row; then the
    duplicates, the numbers and the TFN rule, in that order, each over the
    whole file and reporting its first offending line."""
    known = {factor_id: k for k, factor_id in enumerate(catalogue_ids)}
    attraction_codes: dict[str, int] = {}
    expert_codes: dict[str, int] = {}
    attractions, factors, experts, lines, numbers = [], [], [], [], []
    for line, (attraction, factor, expert, lo, mode, hi) in _records(
            path, ("attraction_id", "factor_id", "expert_id") + COMPONENTS):
        attraction, factor, expert = attraction.strip(), factor.strip(), expert.strip()
        k = known.get(factor)
        if not attraction or not factor or not expert:
            raise InputError(f"{path}:{line}: attraction_id, factor_id and expert_id "
                             "must all be non-empty")
        if k is None:
            raise InputError(f"{path}:{line}: unknown factor id {factor!r}")
        attractions.append(attraction_codes.setdefault(attraction, len(attraction_codes)))
        factors.append(k)
        experts.append(expert_codes.setdefault(expert, len(expert_codes)))
        lines.append(line)
        numbers.append(lo)
        numbers.append(mode)
        numbers.append(hi)
    n = len(lines)
    codes = np.array(attractions, dtype=np.intp)
    factor_index = np.array(factors, dtype=np.intp)

    # one integer per (attraction, factor, expert); a key seen before is a duplicate
    _, first, inverse = np.unique((codes * len(known) + factor_index) * len(expert_codes)
                                  + experts, return_index=True, return_inverse=True)
    repeats = np.flatnonzero(first[inverse] != np.arange(n))
    if repeats.size:
        at = repeats[0]
        raise InputError(f"{path}:{lines[at]}: duplicate judgement for attraction "
                         f"{list(attraction_codes)[attractions[at]]!r}, "
                         f"factor {list(known)[factors[at]]!r}, "
                         f"expert {list(expert_codes)[experts[at]]!r}")

    try:
        tfns = np.fromiter(map(float, map(str.strip, numbers)), float, 3 * n).reshape(n, 3)
    except ValueError:
        for at, text in enumerate(numbers):  # the first bad cell, in file order
            _number(text, COMPONENTS[at % 3], f"{path}:{lines[at // 3]}")
        raise
    bad = np.flatnonzero(~fuzzy.is_tfn(*tfns.T))
    if bad.size:
        raise InputError(f"{path}:{lines[bad[0]]}: not a TFN (finite, lo <= mode <= hi): "
                         f"{tuple(tfns[bad[0]].tolist())}")
    return list(attraction_codes), codes, factor_index, lines, tfns


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


@dataclass(frozen=True)
class IngestResult:
    catalogue: FactorCatalogue
    scores: np.ndarray   # (attractions, factors, 3) expert-mean TFNs, in names order
    names: dict[str, str]
    locations: dict[str, GeoPoint]
    weight_source: str
    weight_report: WeightReport | None
    judgements: int      # evaluations.csv rows read


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(a + b, e)`` with ``a + b + e`` exactly the real sum (Knuth's TwoSum,
    TAOCP vol. 2, 4.2.2), elementwise, barring overflow."""
    s = a + b
    b_part = s - a
    return s, (a - (s - b_part)) + (b - b_part)


def _exact_sums(rows: np.ndarray, counts: np.ndarray,
                locate: Callable[[tuple[int, int]], str]) -> np.ndarray:
    """``math.fsum`` of each column over each run of ``rows``: run ``i`` is
    the next ``counts[i]`` rows (at least one), and gives row ``i`` of the
    result, bit for bit as ``math.fsum`` would.

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
    total = np.zeros((len(counts),) + rows.shape[1:])
    errors = np.zeros_like(total)
    exact = np.ones(total.shape, dtype=bool)
    # open_runs[j]: how many runs have more than j rows
    open_runs = len(counts) - np.cumsum(np.bincount(counts))
    with np.errstate(over="ignore", invalid="ignore"):   # non-finite entries are redone
        for j, m in enumerate(open_runs[:-1].tolist()):
            total[:m], error = _two_sum(total[:m], rows[first[:m] + j])
            errors[:m], residual = _two_sum(errors[:m], error)
            exact[:m] &= residual == 0.0
        total += errors
    for run, column in zip(*np.nonzero(~(exact & np.isfinite(total)))):
        start = first[run]
        try:
            total[run, column] = math.fsum(rows[start:start + counts[longest[run]], column])
        except OverflowError:
            raise NumericError(f"{locate((longest[run], column))}overflows a float") from None
    sums = np.empty_like(total)
    sums[longest] = total
    return sums


def _expert_means(config: RunConfig, catalogue: FactorCatalogue, names: dict[str, str],
                  judgements: tuple[list[str], np.ndarray, np.ndarray, list[int], np.ndarray]
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
    cells = np.array([position[i] for i in ids], dtype=np.intp)[codes] * k + factors
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
        admitted[np.argsort(cells, kind="stable")], counts,
        lambda at: f"{config.evaluations}: attraction {list(names)[at[0] // k]!r}, "
                   f"factor {factor_ids[at[0] % k]!r}: the sum of the {COMPONENTS[at[1]]} "
                   "judgements ")
    return (sums / counts[:, None]).reshape(n, k, 3)


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
    if has_weights:
        if config.pairwise is not None:
            log.info("factor file carries weights; ignoring pairwise matrix %s",
                     config.pairwise)
    else:
        if config.pairwise is None:
            raise ConfigError(
                f"{config.factors} has no weight column and no pairwise matrix is "
                "configured; supply one of the two")
        ids, report = load_pairwise(config.pairwise, factor_ids)
        by_id = dict(zip(ids, report.weights))
        factors = tuple(replace(f, weight=by_id[f.id]) for f in factors)
        weight_source = "pairwise"

    catalogue = FactorCatalogue(factors=factors, target=TargetRange(*config.target))

    names, locations = load_attractions(config.attractions)
    judgements = load_evaluations(config.evaluations, factor_ids)
    scores = _expert_means(config, catalogue, names, judgements)
    return IngestResult(catalogue, scores, names, locations, weight_source, report,
                        len(judgements[3]))


# --- the run itself --------------------------------------------------------


@dataclass(frozen=True)
class PipelineOutput:
    """What a run decided, for the CLI's summary, and the paths it wrote."""

    results: tuple[ValuationResult, ...]
    ranks: dict[str, int]
    retained: tuple[str, ...]
    weight_source: str | None   # None for ``run_tour``, which reads no weights
    weight_report: WeightReport | None
    hotspots: tuple[HotSpot, ...]
    tour: Tour | None
    written: tuple[Path, ...]


def _gate_consistency(report: WeightReport | None, allow_inconsistent: bool) -> None:
    if report is not None and report.inconsistent and not allow_inconsistent:
        raise InputError(
            f"pairwise judgements are inconsistent (CR = {report.consistency_ratio:.4f} "
            f"> {CR_LIMIT}); re-elicit them or pass --allow-inconsistent")


def _spatial_analysis(config: RunConfig, retained: list[ValuationResult],
                      locations: dict[str, GeoPoint]):
    # weighted by the crisp value as results.csv prints it, which is what
    # ``run_tour`` reads back, so both paths build the same surface
    # the first retained value below 0, if any
    for r in (r for r in retained if round6(r.crisp) < 0):
        raise ConfigError(f"attraction {r.attraction_id!r} is kept with the negative value "
                          f"{format_number(r.crisp)}, which cannot weigh the density surface; "
                          f"filter_threshold ({format_number(config.filter_threshold)}) "
                          "must be 0 or above")
    points = [ScoredPoint(locations[r.attraction_id], round6(r.crisp)) for r in retained]
    grid = kde_heatmap(points, bandwidth_m=config.kde.bandwidth_m, cell_m=config.kde.cell_m)
    hotspots = detect_hotspots(grid, percentile=config.kde.hotspot_percentile)
    hotspots = merge_hotspots(hotspots, config.kde.merge_radius_m)
    tour = None
    if hotspots:
        tour = plan_tour(hotspots)
        duration = estimate_duration(tour, config.tour.walk_speed_kmh,
                                     config.tour.dwell_minutes)
        tour = replace(tour, duration_hours=duration)
    return grid, tuple(hotspots), tour


def _write_all(out_dir: Path, payloads: dict[str, Iterable[str]]) -> tuple[Path, ...]:
    """Write every payload, an iterable of text chunks, to a hidden
    temporary file in ``out_dir``, then move each into place with
    ``os.replace``.  The chunks are joined in blocks of
    ``WRITE_BLOCK_CHUNKS``, one ``write`` per block, so a payload is never
    held whole.  A failure while writing, or while a payload makes its
    chunks, leaves the previous outputs as they were; the temporary files
    are always removed."""
    out_dir.mkdir(parents=True, exist_ok=True)
    staged = [(out_dir / f".{name}.{os.urandom(8).hex()}.tmp", out_dir / name)
              for name in payloads]
    try:
        for (temporary, _), chunks in zip(staged, payloads.values()):
            chunks = iter(chunks)
            with temporary.open("w", encoding="utf-8", newline="") as handle:
                while block := list(islice(chunks, WRITE_BLOCK_CHUNKS)):
                    handle.write("".join(block))
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
    ranked = rank(evaluate_attractions(
        list(ingested.names), ingested.scores, ingested.catalogue, method=config.defuzzify,
        thresholds=config.tier_thresholds))
    ranks = {r.attraction_id: i + 1 for i, r in enumerate(ranked)}
    return _finish(config, ranked, ranks, ingested.names, ingested.locations, ingested,
                   with_spatial)


def _finish(config: RunConfig, ranked: list[ValuationResult], ranks: dict[str, int],
            names: dict[str, str], locations: dict[str, GeoPoint],
            ingested: IngestResult | None, with_spatial: bool) -> PipelineOutput:
    """Filter, spatial stage, render, write.  ``ingested`` is None when the
    valuation was read back from results.csv: then only the map is written
    and the weight source is unknown."""
    retained = filter_high(ranked, threshold=config.filter_threshold)
    grid, hotspots, tour = None, (), None
    if with_spatial:
        grid, hotspots, tour = _spatial_analysis(config, retained, locations)

    payloads = {}
    columns = render.result_columns(ranked, names, ranks)
    if ingested is not None:
        payloads["results.csv"] = (render.results_csv(ranked, ranks),)
        payloads["results.json"] = render.results_json(config, ingested, columns, retained,
                                                       hotspots, tour)
    if with_spatial:
        payloads["map.geojson"] = render.map_geojson(
            columns, [locations[r.attraction_id] for r in ranked], grid, hotspots, tour)
    written = _write_all(config.out_dir, payloads)
    return PipelineOutput(tuple(ranked), ranks, tuple(r.attraction_id for r in retained),
                          ingested.weight_source if ingested else None,
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

    results: list[ValuationResult] = []
    ranks: dict[str, int] = {}
    # the printed value of a crisp value on the target lies between the printed ends
    scale = (round6(config.target[0]), round6(config.target[1]))
    for line, (attraction_id, lo, mode, hi, crisp, tier, rank_text) in _records(
            results_path, render.RESULT_COLUMNS):
        where = f"{results_path}:{line}"
        attraction_id = attraction_id.strip()
        if attraction_id in ranks:
            raise InputError(f"{where}: duplicate attraction id {attraction_id!r}")
        if attraction_id not in locations:
            raise InputError(f"{where}: attraction {attraction_id!r} has no "
                             f"coordinates in {config.attractions}")
        try:
            ftv = TFN(_number(lo, "ftv_lo", where), _number(mode, "ftv_mode", where),
                      _number(hi, "ftv_hi", where))
        except ValueError as e:
            raise InputError(f"{where}: {e}") from e
        crisp = _number(crisp, "crisp", where)
        if not math.isfinite(crisp):
            raise InputError(f"{where}: column 'crisp' is not a finite number: {crisp}")
        rank_text = rank_text.strip()
        if not (rank_text.isascii() and rank_text.isdigit()) or int(rank_text) == 0:
            raise InputError(f"{where}: column 'rank' is not a positive integer: "
                             f"{rank_text!r}")
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
        results.append(ValuationResult(attraction_id, ftv, crisp, tier))
        ranks[attraction_id] = int(rank_text)
    if not results:
        raise InputError(f"{results_path}: no result rows")
    return _finish(config, results, ranks, names, locations, ingested=None, with_spatial=True)
