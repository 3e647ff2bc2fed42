"""Command-line interface.

Subcommands: ``prefixes``, ``encode``, ``solve``, ``optimize``, ``verify``,
``render``, ``solver-build``.  The solver is ``default_config``'s: the
SORTNETSAT_SOLVER command, else the bundled CDCL solver compiled on first
use, else the builtin DPLL.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from sortnetsat import csolver
from sortnetsat.catalog import ResultCatalog
from sortnetsat.encoding import EncodeOptions, EncodingError, build_instance
from sortnetsat.networks import Network, is_sorting_network
from sortnetsat.render import render_svg
from sortnetsat.search import optimize, run_task, SearchTask
from sortnetsat.solving import (
    SAT,
    UNSAT,
    SolverBackendError,
    SolverConfig,
    default_config,
    write_dimacs,
)
from sortnetsat.words import (
    WordError,
    count_prefixes,
    format_sentence,
    generate_prefixes,
    parse_sentence,
)


class UsageError(Exception):
    """Command-line arguments that the command cannot run with."""


def _encode_options(args: argparse.Namespace) -> EncodeOptions:
    return EncodeOptions(
        redundant_sorts=not args.no_redundant_sorts,
        last_layer=not args.no_last_layer,
        sigma1=not args.no_sigma1,
        sigma2=not args.no_sigma2,
        sigma3=not args.no_sigma3,
    ).with_prefix(parse_sentence(args.prefix) if args.prefix else None)


def _add_encode_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--prefix", help="two-layer prefix sentence, e.g. '(012,12211221c)'")
    p.add_argument("--no-redundant-sorts", action="store_true")
    p.add_argument("--no-last-layer", action="store_true")
    p.add_argument("--no-sigma1", action="store_true")
    p.add_argument("--no-sigma2", action="store_true")
    p.add_argument("--no-sigma3", action="store_true")


def _solver_config(args: argparse.Namespace) -> SolverConfig:
    if not 0 < args.timeout < float("inf"):
        raise UsageError(f"--timeout must be positive and finite, got {args.timeout:g}")
    try:
        return default_config(timeout=args.timeout)
    except ValueError as exc:  # a SORTNETSAT_SOLVER that cannot run
        raise UsageError(str(exc)) from None


def _check_output(path: str | None) -> None:
    """Refuse an output path that is a directory or whose directory does not
    exist.  Commands check their outputs before any work, so a mistyped path
    costs no solve."""
    if path is None:
        return
    if Path(path).is_dir():
        raise UsageError(f"cannot write {path}: it is a directory")
    if not Path(path).parent.is_dir():
        raise UsageError(f"cannot write {path}: no directory {Path(path).parent}")


def cmd_prefixes(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise UsageError(f"n must be positive, got {args.n}")
    if args.count_only:
        print(count_prefixes(args.n, args.variant))
        return 0
    ps = generate_prefixes(args.n, args.variant)
    for sentence in ps.sentences:
        print(format_sentence(sentence))
    print(f"count: {len(ps)} (n={ps.n}, variant={ps.variant})")
    return 0


def cmd_encode(args: argparse.Namespace) -> int:
    _check_output(args.output)
    _check_output(args.map)
    formula, vm = build_instance(args.n, args.d, args.s, _encode_options(args))
    if args.output:
        with open(args.output, "w") as fh:
            write_dimacs(formula, fh)
        print(f"wrote {formula.num_vars} vars, {formula.num_clauses} clauses to {args.output}")
    else:
        write_dimacs(formula, sys.stdout)
    if args.map:
        Path(args.map).write_text(vm.dump_map())
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    _check_output(args.output)
    _check_output(args.catalog)
    task = SearchTask(args.n, args.d, args.s, _encode_options(args), _solver_config(args))
    catalog = ResultCatalog(args.catalog) if args.catalog else None
    res = run_task(task, catalog)
    print(f"status: {res.status} ({res.solver}, {res.how(2)})")
    if res.network is not None:
        print(f"witness: size={res.network.size} depth={res.network.depth}")
        if args.output:
            Path(args.output).write_text(res.network.to_json() + "\n")
            print(f"wrote witness to {args.output}")
    return 0 if res.status in (SAT, UNSAT) else 3


def cmd_optimize(args: argparse.Namespace) -> int:
    if args.n < 2:
        raise UsageError(f"optimize needs n >= 2, got {args.n}")
    if args.mode == "size" and args.depth is None:
        raise UsageError("optimize --mode size needs --depth")
    if args.mode == "depth" and args.size is None:
        raise UsageError("optimize --mode depth needs --size")
    if args.depth is not None and args.depth < 1:
        raise UsageError(f"--depth must be at least 1, got {args.depth}")
    if args.jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {args.jobs}")
    _check_output(args.save_witness)
    _check_output(args.catalog)
    mode = {
        "size": "min_size_given_depth",
        "depth": "min_depth_given_size",
        "pareto": "pareto",
    }[args.mode]
    config = _solver_config(args)
    catalog = ResultCatalog(args.catalog) if args.catalog else None
    claim = optimize(
        args.n,
        mode,
        depth=args.depth,
        size=args.size,
        config=config,
        prefixes=args.prefixes,
        catalog=catalog,
        jobs=args.jobs,
    )
    print(claim.summary())
    if claim.note:
        print(claim.note)
    for k, res in enumerate(claim.witnesses):
        tag = f" prefix={format_sentence(res.prefix)}" if res.prefix else ""
        print(f"witness[{k}]: size={res.network.size} depth={res.network.depth}{tag}")
    if args.save_witness and claim.witnesses:
        Path(args.save_witness).write_text(claim.witnesses[0].network.to_json() + "\n")
        print(f"wrote witness to {args.save_witness}")
    return 0 if claim.proven else 3


def _read_network(path: str) -> Network:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from exc
    try:
        return Network.from_json(text)
    except KeyError as exc:
        raise UsageError(f"{path}: network file lacks the field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{path}: not a network file: {exc}") from exc


def cmd_verify(args: argparse.Namespace) -> int:
    net = _read_network(args.network)
    ok = is_sorting_network(net)
    trimmed = net.trimmed()
    verdict = "is a sorting network" if ok else "does NOT sort"
    print(f"{args.network}: n={net.n} size={net.size} depth={trimmed.depth}: {verdict}")
    return 0 if ok else 1


def cmd_render(args: argparse.Namespace) -> int:
    _check_output(args.output)
    net = _read_network(args.network)
    svg = render_svg(net)
    Path(args.output).write_text(svg)
    print(f"wrote {args.output}")
    return 0


def cmd_solver_build(args: argparse.Namespace) -> int:
    path = csolver.ensure_built()
    print(path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sortnetsat",
        description="size-depth optimal sorting networks via SAT",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prefixes", help="emit a complete two-layer prefix set")
    p.add_argument("n", type=int)
    p.add_argument("--variant", default="Tprime", choices=["H", "T", "Tprime", "G"])
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(fn=cmd_prefixes)

    p = sub.add_parser("encode", help="emit the DIMACS CNF for (n, d, s)")
    p.add_argument("n", type=int)
    p.add_argument("d", type=int)
    p.add_argument("s", type=int)
    _add_encode_flags(p)
    p.add_argument("-o", "--output")
    p.add_argument("--map", help="write the variable map file here")
    p.set_defaults(fn=cmd_encode)

    p = sub.add_parser("solve", help="build and solve one instance")
    p.add_argument("n", type=int)
    p.add_argument("d", type=int)
    p.add_argument("s", type=int)
    _add_encode_flags(p)
    p.add_argument("--timeout", type=float, default=3600.0)
    p.add_argument("--catalog")
    p.add_argument("-o", "--output", help="write the witness network JSON here")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("optimize", help="prove an optimality claim")
    p.add_argument("n", type=int)
    p.add_argument("--mode", required=True, choices=["size", "depth", "pareto"])
    p.add_argument("--depth", type=int, help="fixed depth for --mode size")
    p.add_argument("--size", type=int, help="fixed size for --mode depth")
    p.add_argument("--prefixes", default="auto", choices=["auto", "none", "tprime"])
    p.add_argument("--timeout", type=float, default=3600.0)
    p.add_argument("--catalog")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes; a level that stops at its first SAT runs "
                        "its prefixes in batches of this size")
    p.add_argument("--save-witness")
    p.set_defaults(fn=cmd_optimize)

    p = sub.add_parser("verify", help="check a network JSON file sorts")
    p.add_argument("network")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("render", help="draw a network JSON file as SVG")
    p.add_argument("network")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_render)

    p = sub.add_parser("solver-build", help="compile the bundled CDCL solver")
    p.set_defaults(fn=cmd_solver_build)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (EncodingError, WordError, UsageError) as exc:
        parser.error(str(exc))
    except (SolverBackendError, csolver.BuildError) as exc:
        # the arguments were fine, the solver was not: no usage text
        parser.exit(1, f"{parser.prog}: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
