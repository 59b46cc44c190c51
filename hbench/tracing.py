"""Per-layer spans for the traced benchmark run.

`install(tracer)` wraps hypertile's public layer functions and installs each
wrapper in every module namespace that binds the function (for example
`has_perfect_tiling` is bound in solver, probes, experiments, cli and the
package root), so calls through any import path are seen. A span records
its name, its duration and the span that was open when it started; spans
are aggregated in memory per (name, parent) and written out once.

Run as a script, this file is the traced stand-in for `python -m
hypertile.cli`:

    python3 hbench/tracing.py OUT.json ARGS...

runs the CLI on ARGS with tracing installed and writes the aggregated spans,
counts and the CLI import time to OUT.json.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import re
import sys
import time
from typing import Any, Callable

from checks import SWEEP_ORDERS, VERIFY_CLAIMS

Hook = Callable[["Tracer", tuple, dict, Any], None]


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


def _enumerate_hook(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    host, pattern = _arg(args, kwargs, 0, "host"), _arg(args, kwargs, 1, "pattern")
    if pattern.n <= host.n:
        tracer.add("solver.enumerate_copy_sets.subsets", math.comb(host.n, pattern.n))
    tracer.add("solver.enumerate_copy_sets.copy_sets", len(result.sets))


def _tiling_hook(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    tracer.add(f"solver.has_perfect_tiling.{result.reason}", 1)


def _contains_hook(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    tracer.add("solver.contains_copy.found", result is not None)


def _connectors_hook(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    host, pattern = _arg(args, kwargs, 0, "host"), _arg(args, kwargs, 1, "pattern")
    i = _arg(args, kwargs, 4, "i")
    tracer.add("probes.count_connectors.candidates", math.comb(host.n - 2, pattern.n * i - 1))
    tracer.add("probes.count_connectors.connectors", result)


def _load_hook(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    tracer.add("hgio.load_hg.bytes", os.path.getsize(_arg(args, kwargs, 0, "path")))


def _charge_hook(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    tracer.add("budget.charge.candidates", _arg(args, kwargs, 0, "candidates"))


BUILDERS = ("barrier_graph", "cone_graph", "complete_k_partite", "k_st",
            "field_product_graph", "mirrored_product_graph", "fortified_barrier")

# (module, attribute path, span name, count hook)
TARGETS: tuple[tuple[str, str, str, Hook | None], ...] = (
    ("solver", "enumerate_copy_sets", "solver.enumerate_copy_sets", _enumerate_hook),
    ("solver", "has_perfect_tiling", "solver.has_perfect_tiling", _tiling_hook),
    ("solver", "max_tiling", "solver.max_tiling", None),
    ("solver", "copies_of_type", "solver.copies_of_type", None),
    ("solver", "contains_copy", "solver.contains_copy", _contains_hook),
    ("probes", "count_connectors", "probes.count_connectors", _connectors_hook),
    ("probes", "robust_vectors", "probes.robust_vectors", None),
    ("core", "Hypergraph.induced", "core.Hypergraph.induced", None),
    ("core", "Hypergraph.degree", "core.Hypergraph.degree", None),
    ("core", "Hypergraph.min_s_degree", "core.Hypergraph.min_s_degree", None),
    ("core", "Hypergraph.__init__", "core.Hypergraph.__init__", None),
    ("fields", "GF.__init__", "fields.GF", None),
    ("invariants", "invariants", "invariants.invariants", None),
    ("invariants", "realisations", "invariants.realisations", None),
    ("invariants", "mycroft_threshold", "invariants.mycroft_threshold", None),
    ("experiments", "naive_perfect_tiling", "experiments.naive_perfect_tiling", None),
    ("hgio", "load_hg", "hgio.load_hg", _load_hook),
    ("budget", "charge", "budget.charge", _charge_hook),
) + tuple(("constructions", b, f"constructions.{b}", None) for b in BUILDERS)


class Tracer:
    """Aggregated spans keyed by (name, parent name) plus named counts."""

    def __init__(self) -> None:
        self.spans: dict[tuple[str, str | None], list] = {}   # -> [calls, total_s, self_s]
        self.counts: dict[str, float] = {}
        self._open: list[list] = []                            # [name, child seconds]

    def add(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn: Callable, hook: Hook | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1][0] if self._open else None
            frame = [name, 0.0]
            self._open.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._open.pop()
                if self._open:
                    self._open[-1][1] += elapsed
                entry = self.spans.setdefault((name, parent), [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[1]
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def dump(self) -> dict:
        return {"spans": [[name, parent, *entry] for (name, parent), entry in self.spans.items()],
                "counts": self.counts}


def _rebind(namespace: dict, original: Any, wrapped: Any, undo: list,
            nested: bool = False) -> None:
    """Replace `original` in a module namespace, and inside the dicts and
    tuples it holds (such as the CLI's table of construction builders)."""
    for key, value in list(namespace.items()):
        if value is original:
            undo.append((namespace, key, value))
            namespace[key] = wrapped
        elif isinstance(value, tuple) and any(v is original for v in value):
            undo.append((namespace, key, value))
            namespace[key] = tuple(wrapped if v is original else v for v in value)
        elif isinstance(value, dict) and not nested and key != "__builtins__":
            _rebind(value, original, wrapped, undo, nested=True)


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every target in every hypertile namespace; return the undo."""
    importlib.import_module("hypertile")
    importlib.import_module("hypertile.cli")
    modules = [m for name, m in sys.modules.items()
               if name == "hypertile" or name.startswith("hypertile.")]
    undo: list[tuple[Any, str, Any]] = []
    for module_name, path, span, hook in TARGETS:
        owner: Any = importlib.import_module(f"hypertile.{module_name}")
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        if classes:
            original = owner.__dict__[attr]
            undo.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(span, original, hook))
            continue
        original = getattr(owner, attr)
        wrapped = tracer.wrap(span, original, hook)
        for module in modules:
            _rebind(vars(module), original, wrapped, undo)

    def uninstall() -> None:
        for target, key, value in reversed(undo):
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)

    return uninstall


def merge(dumps: list[dict]) -> dict:
    """Sum span and count dumps from several traced processes."""
    spans: dict[tuple[str, str | None], list] = {}
    counts: dict[str, float] = {}
    for d in dumps:
        for name, parent, calls, total, self_s in d["spans"]:
            entry = spans.setdefault((name, parent), [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += self_s
        for name, value in d["counts"].items():
            counts[name] = counts.get(name, 0) + value
    return {"spans": [[n, p, *e] for (n, p), e in spans.items()], "counts": counts}


TIMING_LINE = re.compile(r"^\[time\] (\S+): ([0-9.]+)s$")


def layer_metrics(merged: dict, stderr_lines: list[str], stdout_bytes: int,
                  overhead_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit), from merged spans and
    counts, the CLI's own `[time]` lines on stderr, and the stdout size."""
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    for name, parent, c, t, s in merged["spans"]:
        calls[name] = calls.get(name, 0) + c
        total[name] = total.get(name, 0.0) + t
        own[name] = own.get(name, 0.0) + s
    counts = merged["counts"]
    out: dict[str, tuple[float, str]] = {}

    def timed(name: str, seconds: str) -> None:
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
        out[f"{name}.{seconds}"] = ((total if seconds == "total_s" else own).get(name, 0.0), "s")

    def count(name: str) -> float:
        return counts.get(name, 0)

    def ratio(num: float, den: float) -> tuple[float, str]:
        return (num / den if den else 0.0, "ratio")

    enum = "solver.enumerate_copy_sets"
    timed(enum, "self_s")
    out[f"{enum}.subsets"] = (count(f"{enum}.subsets"), "count")
    out[f"{enum}.copy_sets"] = (count(f"{enum}.copy_sets"), "count")
    out[f"{enum}.yield"] = ratio(count(f"{enum}.copy_sets"), count(f"{enum}.subsets"))
    tiling = "solver.has_perfect_tiling"
    timed(tiling, "self_s")
    for reason in ("found", "exhausted", "divisibility"):
        out[f"{tiling}.{reason}"] = (count(f"{tiling}.{reason}"), "count")
    timed("solver.max_tiling", "self_s")
    timed("solver.copies_of_type", "self_s")
    timed("solver.contains_copy", "self_s")
    out["solver.contains_copy.found"] = (count("solver.contains_copy.found"), "count")
    conn = "probes.count_connectors"
    timed(conn, "self_s")
    out[f"{conn}.candidates"] = (count(f"{conn}.candidates"), "count")
    out[f"{conn}.connectors"] = (count(f"{conn}.connectors"), "count")
    out[f"{conn}.yield"] = ratio(count(f"{conn}.connectors"), count(f"{conn}.candidates"))
    inner = sum(c for name, parent, c, _, _ in merged["spans"]
                if name == tiling and parent == conn)
    out["probes.tilings_per_candidate"] = ratio(inner, count(f"{conn}.candidates"))
    timed("probes.robust_vectors", "self_s")
    for method in ("induced", "degree", "min_s_degree", "__init__"):
        timed(f"core.Hypergraph.{method}", "total_s")
    for builder in BUILDERS:
        timed(f"constructions.{builder}", "self_s")
    timed("fields.GF", "total_s")
    for fn in ("invariants", "realisations", "mycroft_threshold"):
        timed(f"invariants.{fn}", "self_s")
    claims = dict.fromkeys(VERIFY_CLAIMS, 0.0)
    sweep = dict.fromkeys(SWEEP_ORDERS, 0.0)
    for line in stderr_lines:
        match = TIMING_LINE.match(line)
        if match is None:
            continue
        label, seconds = match.group(1), float(match.group(2))
        if label in claims:
            claims[label] += seconds
        elif label.startswith("n=") and int(label[2:]) in sweep:
            sweep[int(label[2:])] += seconds
    for claim, seconds in claims.items():
        out[f"experiments.claim.{claim}_s"] = (seconds, "s")
    for n, seconds in sweep.items():
        out[f"experiments.sweep.n{n}_s"] = (seconds, "s")
    timed("experiments.naive_perfect_tiling", "total_s")
    timed("hgio.load_hg", "total_s")
    out["hgio.load_hg.bytes"] = (count("hgio.load_hg.bytes"), "B")
    out["cli.import_s"] = (count("cli.import_s"), "s")
    out["cli.main.self_s"] = (own.get("cli.main", 0.0), "s")
    out["cli.stdout_bytes"] = (stdout_bytes, "B")
    out["budget.charge.calls"] = (calls.get("budget.charge", 0), "count")
    out["budget.charge.candidates"] = (count("budget.charge.candidates"), "count")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    start = time.perf_counter()
    cli = importlib.import_module("hypertile.cli")
    import_s = time.perf_counter() - start
    tracer = Tracer()
    install(tracer)
    try:
        return tracer.wrap("cli.main", cli.main)(cli_args)
    finally:
        sys.stdout.flush()
        dump = tracer.dump()
        dump["counts"]["cli.import_s"] = import_s
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(dump, fh)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
