"""Time the tiling layer on a fixed list of instances, split by layer.

Run from the repository root:

    PYTHONPATH=src python3 scripts/bench_tiling.py [--repeat N] [ROW ...]

Each row prints one JSON line: the row's name and the code it runs, the best
CPU seconds over the repeats (`total_s`), the part of it spent in copy-set
enumeration (`enumeration_s`) and in the searches over the copy sets
(`cover_s`: time inside `has_perfect_tiling` and `max_tiling` minus the
enumeration they run), the answer, and the SHA-256 of the answer's JSON
(for the sweep row, of the command's stdout). The split comes from wrappers
on the package's public functions, so the script runs unchanged against any
revision with the same public API.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import random
import sys
import time

from hypertile import (barrier_graph, build, cli, complete_k_partite, experiments,
                       k_st, solver)


class _Clock:
    """CPU seconds spent inside wrapped calls, per field."""

    def __init__(self):
        self.enumeration = self.tiling = 0.0

    def wrap(self, fn, field):
        def timed(*args, **kwargs):
            started = time.process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                setattr(self, field, getattr(self, field) + time.process_time() - started)
        return timed


def _planted_host(seed: int, n: int, p: float):
    """Random 3-graph plus a hidden perfect K(1,1,2)-tiling on a random split."""
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    edges = {e for e in itertools.combinations(range(n), 3) if rng.random() < p}
    for i in range(0, n - n % 4, 4):
        x, y, z, w = order[i:i + 4]
        edges |= {tuple(sorted((x, y, z))), tuple(sorted((x, y, w)))}
    return build(3, n, edges)


def _tiling(host, pattern):
    out = solver.has_perfect_tiling(host, pattern)
    return {"reason": out.reason,
            "copies": [list(e.images) for e in out.certificate.embeddings] if out.found else None}


def _max(host, pattern):
    size, cert = solver.max_tiling(host, pattern)
    return {"size": size, "copies": [list(e.images) for e in cert.embeddings]}


def _sweep():
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        cli.main(["sweep", "--n-min", "12", "--n-max", "18", "-m", "2"])
    return {"stdout_sha256": hashlib.sha256(buffer.getvalue().encode()).hexdigest()}


K222 = complete_k_partite((2, 2, 2)).graph
ROWS = {
    "barrier99-k222": ("has_perfect_tiling(barrier_graph(9, 9), complete_k_partite((2, 2, 2)))",
                       lambda: _tiling(barrier_graph(9, 9).graph, K222)),
    "barrier99-kst322": ("has_perfect_tiling(barrier_graph(9, 9), k_st(3, 2, 2))",
                         lambda: _tiling(barrier_graph(9, 9).graph, k_st(3, 2, 2).graph)),
    "sweep-12-18-m2": ("hypertile sweep --n-min 12 --n-max 18 -m 2", _sweep),
    "k666-k222": ("has_perfect_tiling(complete_k_partite((6, 6, 6)), complete_k_partite((2, 2, 2)))",
                  lambda: _tiling(complete_k_partite((6, 6, 6)).graph, K222)),
    "planted20-max": ("max_tiling(planted n=20 p=0.3 seed 0, complete_k_partite((1, 1, 2)))",
                      lambda: _max(_planted_host(0, 20, 0.3), complete_k_partite((1, 1, 2)).graph)),
}


def measure(name: str, repeat: int) -> dict:
    """The row's fastest run, with its layer split and its answer."""
    code, run = ROWS[name]
    # Every module binding of the tiling entry points gets a wrapper around
    # the original function, so no call is counted twice.
    originals = {(m, f): getattr(m, f) for m in (solver, experiments, cli)
                 for f in ("enumerate_copy_sets", "has_perfect_tiling", "max_tiling")
                 if hasattr(m, f)}
    best = None
    for _ in range(repeat):
        clock = _Clock()
        solver.enumerate_copy_sets = clock.wrap(originals[solver, "enumerate_copy_sets"],
                                                "enumeration")
        for (module, field), fn in originals.items():
            if field != "enumerate_copy_sets":
                setattr(module, field, clock.wrap(fn, "tiling"))
        try:
            started = time.process_time()
            answer = run()
            total = time.process_time() - started
        finally:
            for (module, field), fn in originals.items():
                setattr(module, field, fn)
        if best is None or total < best["total_s"]:
            best = {"row": name, "code": code, "total_s": round(total, 3),
                    "enumeration_s": round(clock.enumeration, 3),
                    "cover_s": round(clock.tiling - clock.enumeration, 3),
                    "answer": {k: v for k, v in answer.items() if k != "copies"},
                    "answer_sha256": hashlib.sha256(
                        json.dumps(answer, sort_keys=True).encode()).hexdigest()}
    return best


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rows", nargs="*", metavar="ROW",
                        help=f"rows to run (default: all): {', '.join(ROWS)}")
    parser.add_argument("--repeat", type=int, default=1, help="runs per row; the fastest counts")
    args = parser.parse_args()
    unknown = [r for r in args.rows if r not in ROWS]
    if unknown or args.repeat < 1:
        parser.error(f"unknown rows {unknown}" if unknown else "--repeat must be positive")
    for name in args.rows or ROWS:
        print(json.dumps(measure(name, args.repeat)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
