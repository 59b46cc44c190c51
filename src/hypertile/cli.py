"""Command-line front end.

Subcommands: invariants, construct, tile, probe, sweep, verify. Structured
results go to stdout as JSON with sorted keys; timings and diagnostics go to
stderr, so stdout is byte-identical across runs with the same inputs.

Exit codes: 0 success, 1 bad input, 2 verification failure, 3 budget exceeded.
A usage error (an unknown command, a missing or malformed argument) exits 1
with argparse's usage line and message on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import NoReturn, Sequence

from . import experiments
from .budget import resolve_budget
from .constructions import (LabeledConstruction, barrier_graph, complete_k_partite,
                            cone_graph, field_product_graph, fortified_barrier,
                            k_st, mirrored_product_graph)
from .core import Hypergraph, Partition
from .errors import BudgetExceededError, HypertileError, ValidationError
from .experiments import rational_json
from .hgio import load_hg, save_hg, write_hg
from .invariants import invariants, mycroft_threshold
from .probes import (classify_goodness, close_threshold, count_connectors,
                     extremal_witness, has_transferral, robust_vectors)
from .solver import copies_of_type, has_perfect_tiling, max_tiling


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _emit_timings(timings: Sequence[tuple[str, float]]) -> None:
    for label, seconds in timings:
        print(f"[time] {label}: {seconds:.3f}s", file=sys.stderr)


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"expected a rational like 1/10 or 0.1, got {text!r}") from None


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def _index_pair(text: str) -> tuple[int, ...]:
    pair = _int_list(text)
    if len(pair) != 2:
        raise argparse.ArgumentTypeError(f"expected two part indices j,l, got {text!r}")
    return pair


def _load_partition(path: str, graph: Hypergraph) -> Partition:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ValidationError(f"{path}: unreadable as UTF-8 JSON: {exc}") from None
    if isinstance(data, dict):
        data = data.get("parts")
    if isinstance(data, dict):
        # construction sidecar shape: part name -> vertex list, in label order
        data = list(data.values())
    if not isinstance(data, list) or not all(isinstance(p, list) for p in data):
        raise ValidationError(f"{path}: expected a JSON list of vertex lists")
    return Partition(data, graph.n)


# -- subcommand handlers -------------------------------------------------------


def _cmd_invariants(args: argparse.Namespace) -> int:
    graph = load_hg(args.pattern)
    report = invariants(graph)
    payload: dict = {
        "k": report.k,
        "vertices": report.vertices,
        "class_sizes": list(report.s_set),
        "class_differences": list(report.d_set),
        "gcd": report.gcd,
        "sigma": rational_json(report.sigma),
        "realisations": report.realisation_count,
    }
    if args.n is not None:
        t = mycroft_threshold(graph, args.n, args.alpha)
        payload["threshold"] = {
            "case": t.case_tag,
            "n": t.n,
            "alpha": rational_json(t.alpha),
            "value": t.value,
            "smallest_prime": t.smallest_prime,
        }
    _emit(payload)
    return 0


_BUILDERS = {
    "barrier": (barrier_graph, ("a", "b")),
    "cone": (cone_graph, ("x", "y", "k")),
    "complete": (complete_k_partite, None),
    "kst": (k_st, ("k", "s", "t")),
    "fieldprod": (field_product_graph, ("q",)),
    "mirrorprod": (mirrored_product_graph, ("q",)),
    "fortified": (fortified_barrier, ("a", "b", "q")),
}


def _cmd_construct(args: argparse.Namespace) -> int:
    builder, arity = _BUILDERS[args.name]
    if arity is None:
        construction: LabeledConstruction = builder(list(args.params))
    else:
        if len(args.params) != len(arity):
            raise ValidationError(
                f"{args.name} takes {len(arity)} parameters ({', '.join(arity)}), "
                f"got {len(args.params)}")
        construction = builder(*args.params)
    graph = construction.graph
    comment = f"{construction.name} {construction.params}"
    if args.output is None:
        sys.stdout.write(write_hg(graph, comments=(comment,)))
        return 0
    save_hg(graph, args.output, comments=(comment,))
    sidecar = {
        "format_version": experiments.FORMAT_VERSION,
        "construction": construction.name,
        "params": construction.params,
        "vertices": graph.n,
        "edges": graph.edge_count,
        "parts": {name: list(construction.part(name))
                  for name in construction.part_names},
    }
    with open(args.output + ".json", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(sidecar, sort_keys=True, indent=2) + "\n")
    print(f"wrote {args.output} and {args.output}.json", file=sys.stderr)
    return 0


def _cmd_tile(args: argparse.Namespace) -> int:
    if (args.type is None) != (args.partition is None):
        raise ValidationError("--type requires --partition" if args.partition is None
                              else "--partition requires --type")
    host = load_hg(args.host)
    pattern = load_hg(args.pattern)
    if args.type is not None:
        partition = _load_partition(args.partition, host)
        sets = copies_of_type(host, pattern, partition, args.type, budget=args.budget)
        _emit({
            "result": "copies",
            "type": list(args.type),
            "count": len(sets),
            "sets": [list(s) for s in sets],
        })
        return 0
    if args.max:
        size, certificate = max_tiling(host, pattern, budget=args.budget)
        _emit({
            "result": "max-tiling",
            "size": size,
            "copies": [list(e.images) for e in certificate.embeddings],
            "covered": list(certificate.covered),
        })
        return 0
    outcome = has_perfect_tiling(host, pattern, budget=args.budget)
    if outcome.certificate is None:
        _emit({"result": "none", "reason": outcome.reason})
        return 0
    _emit({
        "result": "tiling",
        "copies": [list(e.images) for e in outcome.certificate.embeddings],
        "covered": list(outcome.certificate.covered),
    })
    return 0


def _probe_connectors(args: argparse.Namespace) -> int:
    host = load_hg(args.host)
    pattern = load_hg(args.pattern)
    count = count_connectors(host, pattern, args.x, args.y, args.i, budget=args.budget)
    _emit({"count": count, "x": args.x, "y": args.y, "i": args.i})
    return 0


def _probe_close(args: argparse.Namespace) -> int:
    host = load_hg(args.host)
    pattern = load_hg(args.pattern)
    threshold = close_threshold(host, pattern, args.i, args.eta)
    count = count_connectors(host, pattern, args.x, args.y, args.i, budget=args.budget)
    _emit({
        "close": count >= threshold,
        "count": count,
        "eta": rational_json(args.eta),
        "threshold": rational_json(threshold),
    })
    return 0


def _probe_robust(args: argparse.Namespace) -> int:
    host = load_hg(args.host)
    pattern = load_hg(args.pattern)
    partition = _load_partition(args.partition, host)
    report = robust_vectors(host, pattern, partition, args.mu, budget=args.budget)
    payload: dict = {
        "counts": {",".join(map(str, tv)): c for tv, c in sorted(report.counts.items())},
        "robust": [list(tv) for tv in report.robust],
        "mu": rational_json(report.mu),
        "total": report.total,
    }
    if args.transferral is not None:
        j, l = args.transferral
        payload["transferral"] = {"j": j, "l": l, "member": has_transferral(report, j, l)}
    _emit(payload)
    return 0


def _probe_goodness(args: argparse.Namespace) -> int:
    host = load_hg(args.host)
    against = load_hg(args.against)
    report = classify_goodness(host, against, args.alpha)
    _emit({
        "good": list(report.good),
        "difference_degrees": list(report.difference_degrees),
        "threshold": rational_json(report.threshold),
    })
    return 0


def _probe_extremal(args: argparse.Namespace) -> int:
    witness = extremal_witness(load_hg(args.host), args.gamma)
    _emit({
        "witness": None if witness.partition is None
        else [list(p) for p in witness.partition.parts],
        "exhaustive": witness.exhaustive,
        "missing_edges": witness.missing_edges,
    })
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    report = experiments.sweep_extremal(args.n_min, args.n_max, args.m,
                                        budget=args.budget, tile=not args.no_tile)
    _emit(report.to_jsonable())
    if args.timings:
        _emit_timings(report.timings)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    claims = None if args.claims is None else args.claims.split(",")
    report = experiments.verify_suite(seed=args.seed, budget=args.budget,
                                      claims=claims)
    _emit(report.to_jsonable())
    _emit_timings(report.timings)
    return 0 if report.passed else 2


# -- wiring --------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hypertile",
                                     description="Exact hypergraph tiling checks at desk scale.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="partite invariants of a pattern graph")
    p.add_argument("pattern", help="pattern .hg file")
    p.add_argument("--n", type=int, default=None,
                   help="also report the codegree threshold at this host order")
    p.add_argument("--alpha", type=_rational, default=Fraction(0),
                   help="threshold slack term (rational, default 0)")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("construct", help="generate a named graph family member")
    p.add_argument("name", choices=sorted(_BUILDERS))
    p.add_argument("params", nargs="*", type=int)
    p.add_argument("-o", "--output", default=None,
                   help="write here (plus a .json sidecar) instead of stdout")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("tile", help="perfect tiling, max tiling, or typed copies")
    p.add_argument("host", help="host .hg file")
    p.add_argument("--pattern", required=True, help="pattern .hg file")
    p.add_argument("--max", action="store_true", help="maximum tiling instead")
    p.add_argument("--type", type=_int_list, default=None,
                   help="comma-separated type vector for copy listing")
    p.add_argument("--partition", default=None,
                   help="JSON file with the host partition (list of vertex lists), "
                        "for --type")
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=_cmd_tile)

    p = sub.add_parser("probe", help="absorption-style exact probes")
    probe_sub = p.add_subparsers(dest="probe", required=True)

    def connector_probe(name, func):
        q = probe_sub.add_parser(name)
        q.add_argument("host")
        q.add_argument("--pattern", required=True)
        q.add_argument("-x", type=int, required=True)
        q.add_argument("-y", type=int, required=True)
        q.add_argument("-i", type=int, default=1)
        q.set_defaults(func=func)
        return q

    q = connector_probe("connectors", _probe_connectors)
    q.add_argument("--budget", type=int, default=None)
    q = connector_probe("close", _probe_close)
    q.add_argument("--eta", type=_rational, required=True)
    q.add_argument("--budget", type=int, default=None)

    q = probe_sub.add_parser("robust")
    q.add_argument("host")
    q.add_argument("--pattern", required=True)
    q.add_argument("--partition", required=True)
    q.add_argument("--mu", type=_rational, required=True)
    q.add_argument("--transferral", type=_index_pair, default=None,
                   help="two part indices j,l to test for a transferral")
    q.add_argument("--budget", type=int, default=None)
    q.set_defaults(func=_probe_robust)

    q = probe_sub.add_parser("goodness")
    q.add_argument("host")
    q.add_argument("--against", required=True, help="comparison .hg file")
    q.add_argument("--alpha", type=_rational, required=True)
    q.set_defaults(func=_probe_goodness)

    q = probe_sub.add_parser("extremal")
    q.add_argument("host")
    q.add_argument("--gamma", type=_rational, required=True)
    q.set_defaults(func=_probe_extremal)

    p = sub.add_parser("sweep", help="codegree and factor sweep over barrier graphs")
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("-m", type=int, default=2, help="tile size parameter (default 2)")
    p.add_argument("--no-tile", action="store_true", help="codegrees only")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--timings", action="store_true", help="per-row timings to stderr")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify", help="run the verification battery")
    p.add_argument("--seed", type=int, default=experiments.DEFAULT_SEED)
    p.add_argument("--claims", default=None,
                   help="comma-separated subset of claims to run")
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0  # argparse exits 2 on a usage error; 2 means a failed claim
    try:
        if hasattr(args, "budget"):
            resolve_budget(args.budget)  # a bad --budget or HYPERTILE_BUDGET fails before any work
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"hypertile: budget: {exc}", file=sys.stderr)
        return 3
    except (HypertileError, OSError) as exc:
        print(f"hypertile: error: {exc}", file=sys.stderr)
        return 1


def entry() -> NoReturn:
    """Run `main`, flush its output and end with `os._exit`, skipping interpreter
    teardown. A failed write to stdout is reported as any OSError is: exit 1."""
    code = main()
    try:
        sys.stdout.flush()
    except OSError as exc:
        print(f"hypertile: error: {exc}", file=sys.stderr)
        code = 1
    try:
        sys.stderr.flush()
    except OSError:
        pass
    os._exit(code)


if __name__ == "__main__":
    entry()
