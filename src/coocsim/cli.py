"""Command-line driver: run simulations, generate matrices, analyze reports.

Subcommands:

* ``run``        parse configs, simulate, write per-tick reports and metadata
* ``gen-matrix`` turn an edge list into rules and matrix files
* ``analyze``    list populations standing out of a report CSV

All outputs are reproducible: the seed defaults to a fixed constant and no
wall-clock information is recorded.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

from . import __version__
from .dynamics import ConfigurationFault, run
from .io import (
    ParseError,
    build_relation_model,
    format_matrix,
    format_rules,
    parse_edge_list,
    parse_matrix,
    parse_rules,
    parse_sizes,
    read_report_csv,
    render_snapshot,
    write_report_csv,
)
from .metrics import crowding_indices, neighborhood_counts, significant_from_counts
from .model import DEFAULT_SEED, PopulationSpec, build_model


def _read(path: str, parse, *args):
    """``parse(text, *args)`` of the UTF-8 file at ``path``; a file that is not
    UTF-8 or does not parse is refused naming the file (and the line)."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"), *args)
    except (ParseError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def _write(path: Path, write) -> None:
    """``write(sink)`` into a new binary file at ``path``; every ``OSError`` names a file."""
    try:
        with open(path, "wb") as sink:
            write(sink)
    except OSError as exc:
        exc.filename = exc.filename or str(path)
        raise


def _parse_ticks(raw: str, steps: int) -> list[int]:
    try:
        ticks = sorted({int(tok) for tok in raw.split(",") if tok.strip()})
    except ValueError:
        raise ValueError(f"invalid report ticks {raw!r}") from None
    bad = [t for t in ticks if t < 0 or t > steps]
    if bad:
        raise ValueError(f"report ticks {bad} outside [0, {steps}]")
    return ticks


def _cmd_run(args: argparse.Namespace) -> int:
    if not 0 < args.distance < float("inf"):
        raise ValueError(f"--distance must be a finite positive number, got {args.distance}")
    model = build_model(
        _read(args.rules, parse_rules), _read(args.matrix, parse_matrix), side=args.side,
        sizes=args.size, beta=args.beta, seed=args.seed, max_ticks=args.steps,
    )
    if args.sizes:  # the file's sizes over --size
        sizes = _read(args.sizes, parse_sizes, model.population_names)
        model = replace(model, populations=tuple(
            PopulationSpec(p.name, sizes.get(p.name, p.size)) for p in model.populations))
    for diag in sorted(model.diagnostics, key=lambda d: d.is_error):  # warnings first
        print(diag, file=sys.stderr)
    if any(d.is_error for d in model.diagnostics):
        return 1
    if args.target not in model.population_names:
        raise ValueError(f"target population {args.target!r} not present in the matrix")

    ticks = ([args.steps] if args.report_ticks is None  # the final tick by default
             else _parse_ticks(args.report_ticks, args.steps))  # "" writes no report
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    def write_outputs(state, _model):
        report = neighborhood_counts(state, args.target, args.distance)
        _write(out / f"report_t{state.tick}.csv", lambda sink: write_report_csv(report, sink))
        if args.snapshots:
            _write(out / f"snapshot_t{state.tick}.ppm", lambda sink: render_snapshot(state, sink))
        return state.tick

    run(model, report_ticks=ticks, observers=[write_outputs])

    meta = {
        "version": __version__,
        "rules_path": args.rules,
        "matrix_path": args.matrix,
        "lattice_side": args.side,
        "sizes": model.population_sizes(),
        "steps": args.steps,
        "seed": args.seed,
        "beta": args.beta,
        "report_ticks": ticks,
        "target": args.target,
        "distance": args.distance,
        "snapshots": bool(args.snapshots),
        "crowding": asdict(crowding_indices(model.lattice, sum(p.size for p in model.populations))),
    }
    text = json.dumps(meta, sort_keys=True, indent=2) + "\n"
    _write(out / "run_meta.json", lambda sink: sink.write(text.encode("utf-8")))
    return 0


def _cmd_gen_matrix(args: argparse.Namespace) -> int:
    rules_out, matrix_out = Path(args.rules_out), Path(args.matrix_out)
    for out in (rules_out, matrix_out):  # each refusal comes before either file is written
        if out.is_dir() or not out.parent.is_dir():
            raise ValueError(f"{out}: not a file name in an existing directory")
    if len({path.resolve() for path in (rules_out, matrix_out, Path(args.edges))}) < 3:
        raise ValueError(f"--rules-out {rules_out}, --matrix-out {matrix_out} and the edge "
                         f"list {args.edges} must be three different files")
    relation = build_relation_model(
        _read(args.edges, parse_edge_list), args.target, kind=args.kind,
        distance=args.distance, symmetric=args.symmetric,
    )
    rules_out.write_text(format_rules(relation.rules), encoding="utf-8")
    matrix_out.write_text(format_matrix(relation.matrix), encoding="utf-8")
    print(f"populations: {len(relation.populations)}")
    print(f"relations: {relation.relation_count}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    counts, average = _read(args.report, read_report_csv)
    for name in significant_from_counts(counts, average, args.factor):
        print(f"{name} {counts[name]}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coocsim",
        description="Aggregation simulator for co-occurrence networks on a toroidal lattice",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a model and write reports")
    p_run.add_argument("--rules", required=True, help="interaction rules file")
    p_run.add_argument("--matrix", required=True, help="interaction matrix file")
    p_run.add_argument("--side", type=int, default=31, help="patches per lattice side")
    p_run.add_argument("--size", type=int, default=100, help="uniform population size")
    p_run.add_argument("--sizes", help="optional per-population size file (name size lines)")
    p_run.add_argument("--steps", type=int, default=1000, help="ticks to simulate")
    p_run.add_argument("--seed", type=int, default=DEFAULT_SEED, help="root seed")
    p_run.add_argument("--beta", type=float, default=1.0, help="field bias strength")
    p_run.add_argument("--report-ticks", default=None,
                       help="comma-separated ticks to report at (default: final tick)")
    p_run.add_argument("--target", required=True, help="population the reports centre on")
    p_run.add_argument("--distance", type=float, default=2.0, help="neighbourhood distance")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--snapshots", action="store_true", help="also write P6 snapshots")
    p_run.set_defaults(func=_cmd_run)

    p_gen = sub.add_parser("gen-matrix", help="generate rules and matrix from an edge list")
    p_gen.add_argument("edges", help="edge list file, one 'name name' pair per line")
    p_gen.add_argument("--target", required=True, help="population at the centre of the context")
    p_gen.add_argument("--kind", choices=("restricted", "extended"), default="restricted")
    p_gen.add_argument("--distance", type=float, default=2.0, help="interaction distance")
    p_gen.add_argument("--symmetric", action="store_true", help="emit both directions per edge")
    p_gen.add_argument("--rules-out", required=True)
    p_gen.add_argument("--matrix-out", required=True)
    p_gen.set_defaults(func=_cmd_gen_matrix)

    p_an = sub.add_parser("analyze", help="list populations standing out of a report")
    p_an.add_argument("report", help="report CSV produced by 'run'")
    p_an.add_argument("--factor", type=float, default=2.0,
                      help="significance threshold relative to the average")
    p_an.set_defaults(func=_cmd_analyze)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand. A ``ValueError`` (every ``ParseError`` too),
    ``ConfigurationFault``, ``OSError`` or ``MemoryError`` is one ``error:``
    line on stderr and exit code 1; any other exception keeps its traceback."""
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        message = f"{exc.filename}: {exc.strerror or exc}" if exc.filename else str(exc)
    except MemoryError as exc:
        message = f"out of memory: {exc}" if str(exc) else "out of memory"
    except (ValueError, ConfigurationFault) as exc:
        message = str(exc)
    print(f"error: {message}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
