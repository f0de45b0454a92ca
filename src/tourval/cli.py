"""Command-line interface.

Subcommands::

    tourval validate --config cfg.json          schema check, writes nothing
    tourval weights  --config cfg.json          pairwise matrix -> weight report
    tourval ftv      --config cfg.json          valuation only (results.csv/.json)
    tourval run      --config cfg.json          full pipeline incl. map.geojson
    tourval tour     --config cfg.json          spatial stage from prior results

Exit codes: 0 success, 2 input/schema error, 3 configuration error,
4 numeric failure, 5 operating-system error reading or writing a file.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import sys
from pathlib import Path

from . import pipeline, render
from .ahp import CR_LIMIT
from .errors import ConfigError, TourvalError
from .pipeline import RunConfig, load_config
from .rounding import format_number, round6

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tourval",
        description="Fuzzy experiential valuation of tourist attractions: "
                    "rescaling, weighting, ranking, and hotspot/tour analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, *, tweaks: bool = False,
            out: bool = False) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, type=Path,
                       help="JSON run configuration")
        if tweaks:
            p.add_argument("--allow-inconsistent", action="store_true",
                           help=f"proceed although the pairwise matrix has CR > {CR_LIMIT}")
            p.add_argument("--clamp", action="store_true",
                           help="saturate out-of-range scores instead of failing")
        if out:
            p.add_argument("--out", type=Path, default=None,
                           help="output directory (overrides the config)")
        return p

    add("validate", "check all input files and report what they contain")
    add("weights", "derive factor weights from the pairwise matrix and print "
                   "the report as JSON")
    add("ftv", "value and rank the attractions (results.csv, results.json)",
        tweaks=True, out=True)
    add("run", "full pipeline: valuation plus density, hotspots and tour "
               "(adds map.geojson)", tweaks=True, out=True)
    add("tour", "recompute the spatial stage from an existing results.csv",
        out=True)
    return parser


def _effective_config(args: argparse.Namespace) -> RunConfig:
    config = load_config(args.config)
    if getattr(args, "clamp", False):
        config = config.replace(range_policy="clamp")
    if getattr(args, "out", None) is not None:
        config = config.replace(out_dir=args.out)
    return config


def _cmd_validate(args: argparse.Namespace) -> int:
    config = _effective_config(args)
    ingested = pipeline.ingest(config)
    print(f"factors: {len(ingested.catalogue.factors)} (weights from "
          f"{ingested.weight_source})")
    print(f"attractions: {len(ingested.names)}")
    print(f"evaluations: {ingested.judgements} judgement rows, complete for "
          f"{len(ingested.scores)} attractions")
    if ingested.weight_report is not None and ingested.weight_report.inconsistent:
        print(f"warning: pairwise CR = {ingested.weight_report.consistency_ratio:.4f} "
              f"> {CR_LIMIT}", file=sys.stderr)
    print("OK")
    return 0


def _cmd_weights(args: argparse.Namespace) -> int:
    config = _effective_config(args)
    if config.pairwise is None:
        raise ConfigError("config has no 'pairwise' entry")
    factors, _ = pipeline.load_factor_table(config.factors)
    ids, report = pipeline.load_pairwise(config.pairwise, [f.id for f in factors])
    document = {
        "factors": ids,
        "weights": {i: round6(w) for i, w in zip(ids, report.weights)},
        **render.weight_diagnostics(report),
    }
    print(json.dumps(document, indent=2, sort_keys=True, ensure_ascii=False))
    return 0


# the pipeline function behind each writing command, looked up on the module
# at call time so that a wrapper installed there sees the call
_STAGES = {"ftv": "run_valuation", "run": "run_pipeline", "tour": "run_tour"}


def _cmd_write(args: argparse.Namespace) -> int:
    config = _effective_config(args)
    stage = getattr(pipeline, _STAGES[args.command])
    output = (stage(config) if args.command == "tour"
              else stage(config, allow_inconsistent=args.allow_inconsistent))
    retained = ", ".join(output.retained) or "(none)"
    print(f"valued {len(output.results.ids)} attractions; {len(output.retained)} above "
          f"{format_number(config.filter_threshold)}: {retained}")
    if output.hotspots:
        print(f"hotspots: {', '.join(h.label for h in output.hotspots)}")
    if output.tour is not None:
        dmin, davg, dmax = output.tour.duration_hours
        print(f"tour: {' -> '.join(h.label for h in output.tour.stops)}, "
              f"{format_number(output.tour.length_km)} km, "
              f"{format_number(dmin)}-{format_number(dmax)} h "
              f"(avg {format_number(davg)})")
    for path in output.written:
        print(f"wrote {path}")
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "weights": _cmd_weights,
    **dict.fromkeys(_STAGES, _cmd_write),
}


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and return its exit code.

    Each call also registers ``gc.freeze`` as an exit hook, once per process
    however often ``main`` is called.  Exit hooks run before the
    interpreter's final collections, so a CLI process, or an embedder that
    calls ``main()``, ends with every object in the collector's permanent
    generation, and those collections skip the import heap.  Nothing is
    frozen while ``main`` runs.
    """
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except TourvalError as e:
        print(f"error: {e}", file=sys.stderr)
        return getattr(e, "exit_code", 2)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
