"""Command-line front end: ``pod``, ``select``, ``reconstruct``, ``benchmark``.

Exit statuses are stable: 0 ok, 1 I/O failure, 2 file/config parse error,
3 dimension or constraint violation, 4 missing required option, 5 numerical
singularity or non-convergence.
"""

from __future__ import annotations

import argparse
import sys

from . import fileio, linalg
from .evaluate import build_model, reconstruct, reconstruction_error
from .experiments import ExperimentConfig, run_random_benchmark
from .pod import SnapshotMatrix, _stacked_components, compute_pod
from .selection import (
    METHOD_RANDOM,
    METHOD_SCALAR_GREEDY,
    METHOD_VECTOR_GREEDY,
    METHODS,
    ExhaustionError,
    SensorSelection,
    _candidate_array,
    select_convex,
    select_random,
    select_scalar_greedy,
    select_vector_greedy,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_PARSE = 2
EXIT_DIMENSION = 3
EXIT_MISSING_OPTION = 4
EXIT_NUMERICAL = 5

# Benchmark config keys and the parser of each value; a parser raises
# ValueError on a malformed value.
_CONFIG_KEYS = {
    "n_per_component": int,
    "components": int,
    "r_values": lambda value: tuple(int(tok) for tok in value.split(",")),
    "trials": int,
    "base_seed": int,
    "methods": lambda value: tuple(tok.strip() for tok in value.split(",")),
}


class MissingOptionError(ValueError):
    pass


def _fail(message: str) -> None:
    print(f"sensorplace: error: {message}", file=sys.stderr)


def _cmd_pod(args) -> int:
    data = fileio.read_matrix(args.snapshots, header=args.header)
    snapshots = SnapshotMatrix(data, components=args.components)
    basis = compute_pod(snapshots, args.rank, center=not args.no_center)
    fileio.write_matrix(args.out_modes, basis.modes)
    fileio.write_matrix(args.out_sigma, basis.singular_values.reshape(-1, 1))
    return EXIT_OK


def _cmd_select(args) -> int:
    modes = fileio.read_matrix(args.modes, header=args.header)
    s = args.components
    if args.method == METHOD_VECTOR_GREEDY:
        sel = select_vector_greedy(modes, args.count, components=s)
    elif args.method == METHOD_SCALAR_GREEDY:
        sel = select_scalar_greedy(modes, args.count)
    elif args.method == METHOD_RANDOM:
        if args.seed is None:
            raise MissingOptionError("--seed is required for the random method")
        _candidate_array(modes, args.count, s)
        sel = select_random(modes.shape[0] // s, args.count, seed=args.seed, components=s)
    else:  # METHOD_CONVEX; argparse choices admit nothing else
        sel = select_convex(modes, args.count, components=s)
    fileio.write_selection(args.out, sel)
    return EXIT_OK


def _selection_from_entries(entries, n_rows: int) -> SensorSelection:
    s = _stacked_components(n_rows, len(entries[0][1]))
    selection = SensorSelection(
        locations=tuple(loc for loc, _ in entries), components=s,
        dof_per_component=n_rows // s, method="file",
    )
    expected = selection.selected_rows
    for k, (location, rows) in enumerate(entries):
        if tuple(rows) != expected[k * s : (k + 1) * s]:
            raise ValueError(
                f"row indices {rows} for location {location} do not follow the "
                f"stacked layout with {n_rows // s} locations per component"
            )
    return selection


def _cmd_reconstruct(args) -> int:
    modes = fileio.read_matrix(args.modes, header=args.header)
    entries = fileio.read_selection(args.selection)
    observations = fileio.read_matrix(args.observations, header=args.header)
    selection = _selection_from_entries(entries, modes.shape[0])
    model = build_model(modes, selection)
    result = reconstruct(model, observations)
    if result.rank_deficient:
        _fail(f"measurement matrix is rank-deficient (condition number {model.cond:.3e})")
        return EXIT_NUMERICAL
    if args.true_amplitudes is not None:  # read and checked before anything is written
        truth = fileio.read_matrix(args.true_amplitudes, header=args.header)
        error = reconstruction_error(truth, result.amplitudes)
    fileio.write_matrix(args.out_amplitudes, result.amplitudes)
    if args.true_amplitudes is not None:
        print(f"{error:.17g}")
    return EXIT_OK


def _parse_benchmark_config(path) -> ExperimentConfig:
    raw: dict[str, tuple[int, str]] = {}  # key -> (line, raw value)
    for lineno, text in fileio._text_lines(path):
        if text.startswith("#"):
            continue
        if "=" not in text:
            raise fileio.ParseError("expected 'key = value'", line=lineno)
        key, _, value = text.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise fileio.ParseError(f"unknown config key {key!r}", line=lineno)
        if key in raw:
            raise fileio.ParseError(f"repeated config key {key!r}", line=lineno)
        raw[key] = (lineno, value.strip())
    if "base_seed" not in raw:
        raise MissingOptionError("config must set base_seed")
    if "r_values" not in raw:
        raise fileio.ParseError("config must set r_values")
    kwargs = {}
    for key, (lineno, value) in raw.items():
        try:
            kwargs[key] = _CONFIG_KEYS[key](value)
        except ValueError as exc:
            raise fileio.ParseError(f"bad config value: {exc}", line=lineno) from None
    try:
        return ExperimentConfig(**kwargs)
    except ValueError as exc:
        raise fileio.ParseError(str(exc)) from None


def _cmd_benchmark(args) -> int:
    cfg = _parse_benchmark_config(args.config)
    report = run_random_benchmark(cfg)
    report.write_json(f"{args.out}.json")
    report.write_csv(f"{args.out}.csv")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sensorplace",
        description="Sparse sensor placement over mode bases and least-squares "
        "state reconstruction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    header = argparse.ArgumentParser(add_help=False)
    header.add_argument("--header", action="store_true",
                        help="input files carry one header line to skip")
    components = argparse.ArgumentParser(add_help=False)
    components.add_argument("-s", "--components", type=int, default=1,
                            help="number of stacked vector components (default 1)")

    p_pod = sub.add_parser("pod", parents=[header, components],
                           help="compute a truncated mode basis from snapshots")
    p_pod.add_argument("snapshots", help="CSV snapshot matrix (rows: dof, cols: time)")
    p_pod.add_argument("out_modes", help="output CSV for the n x r mode matrix")
    p_pod.add_argument("out_sigma", help="output CSV for the r singular values")
    p_pod.add_argument("-r", "--rank", type=int, required=True,
                       help="number of modes to keep")
    p_pod.add_argument("--no-center", action="store_true",
                       help="skip temporal mean subtraction")
    p_pod.set_defaults(func=_cmd_pod)

    p_sel = sub.add_parser("select", parents=[header, components],
                           help="select sensor locations from a mode matrix")
    p_sel.add_argument("modes", help="CSV mode / candidate matrix (n x r)")
    p_sel.add_argument("out", help="output selection CSV")
    p_sel.add_argument("-m", "--method", required=True,
                       choices=METHODS,
                       help="selection strategy (scalar-greedy picks individual "
                       "rows and ignores --components)")
    p_sel.add_argument("-p", "--count", type=int, required=True,
                       help="number of sensors to place")
    p_sel.add_argument("--seed", type=int, default=None,
                       help="RNG seed (required for the random method)")
    p_sel.set_defaults(func=_cmd_select)

    p_rec = sub.add_parser("reconstruct", parents=[header],
                           help="recover mode amplitudes from sparse observations")
    p_rec.add_argument("modes", help="CSV mode matrix (n x r)")
    p_rec.add_argument("selection", help="selection CSV from 'select'")
    p_rec.add_argument("observations", help="CSV observation matrix (s*p x N)")
    p_rec.add_argument("out_amplitudes", help="output CSV for the r x N amplitudes")
    p_rec.add_argument("--true-amplitudes", default=None,
                       help="CSV of true amplitudes; prints the relative error")
    p_rec.set_defaults(func=_cmd_reconstruct)

    p_bench = sub.add_parser("benchmark",
                             help="run the random-candidate selection benchmark")
    p_bench.add_argument("config", help="key = value config file")
    p_bench.add_argument("-o", "--out", required=True,
                         help="output path prefix; writes <out>.json and <out>.csv")
    p_bench.set_defaults(func=_cmd_benchmark)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "seed", None) is not None and not 0 <= args.seed < 2**64:
        _fail("--seed must be a non-negative 64-bit integer")
        return EXIT_PARSE
    try:
        return args.func(args)
    except fileio.ParseError as exc:
        _fail(str(exc))
        return EXIT_PARSE
    except MissingOptionError as exc:
        _fail(str(exc))
        return EXIT_MISSING_OPTION
    except linalg.NonConvergenceError as exc:
        _fail(str(exc))
        return EXIT_NUMERICAL
    except (ExhaustionError, ValueError) as exc:
        _fail(str(exc))
        return EXIT_DIMENSION
    except OSError as exc:
        _fail(str(exc))
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
