"""Time the tiling and probe layers on a fixed list of instances.

Run from the repository root:

    PYTHONPATH=src python3 scripts/bench_tiling.py [--repeat N] [ROW ...]

Each row prints one JSON line: the row's name, its layer and the code it
runs, the best CPU seconds over the repeats (`total_s`), the part of it spent
in copy-set enumeration (`enumeration_s`; these and `cover_s` to 6 decimals,
the fastest picked on unrounded seconds), the answer, the SHA-256 of the
answer's JSON (the sweep and `probe close` answers hold the SHA-256 of the
command's stdout), and the line count and git revision of the package it
imported.
Tiling rows add the time of the searches over the copy sets (`cover_s`:
time inside `has_perfect_tiling` and `max_tiling` minus the enumeration they
run); probe rows add the number of enumerations and of `has_perfect_tiling`
calls. The split comes from wrappers on the package's public functions, so
the script runs unchanged against any revision with the same public API.
Tiling and probe rows also give `cover_calls`: the nodes of the exact
cover, which calls `options_at` in `solver.py` once per node, counted with
`sys.setprofile` in one extra run that is not timed, so a speed-up reads as
fewer nodes or as cheaper ones.  The max packing runs as one loop with no
call per node, so its nodes are not counted: `planted20-max` reads 0.
Tiling, probe and enumeration rows give `embeddings`, the candidates that
the embedder's leaf received (`solver._place`, wrapped by this script), and
`copy_sets`, the distinct vertex sets they span, summed over the searches
of one untimed run, so a speed-up of the enumeration reads as fewer
embeddings per copy set or as cheaper ones.
Tiling, copy-search and enumeration rows give `link_lookups`, the host link
lookups that the embedder made (`solver._links` handing out a counting
dict), summed over one more untimed run, so a speed-up of the embedder
reads as fewer lookups or as cheaper ones.
The "verify checkers" rows time searches of `hypertile verify` and give
`search_nodes` in place of the split: the calls of `place` (the C4-free
branch and bound in `experiments.py`), counted the same way in an untimed
run before the timed ones.  The realisation search in `invariants.py` is one
loop with no call per node, so its rows (`sigma-census`,
`invariants-sparse14`) read null; their untimed run builds the census graphs
outside the timing.
The "twin classes" rows time the host twin-class search alone
(`core._twin_classes`, bypassing its cache where it has one) on a twin-rich
and a twin-free host and have no split; one untimed run before the timed
ones builds the host and its link table (`core._links`), which the search
reads, and one more traces the search with `tracemalloc` and adds
`held_kb` and `peak_kb` beside the answer, as the construction row does.
Their answer is the class sizes.
The "copy search" rows time one `contains_copy` each, K(1,2,2) in
`field_product_graph(11)` and `(13)` and in the A-A-B class of
`fortified_barrier(97, 95, 11)` (its edges with two vertices in A), and
the "enumeration" rows the copy-set enumerations of the barrier-parity
claim of `hypertile verify`, of K(7,7,7) in itself and of K(3,5,7) in
K(4,6,8); an untimed run before the timed ones builds their hosts and
compiles the pattern's plan.
The copy searches reuse the host's link table from that run; the 60 parity
hosts outnumber the link tables the solver keeps, so each enumeration
builds its own.
The "degree queries" row times one `min_s_degree(2)` with the solver's
link tables emptied before each run (`solver._links.cache_clear()`), so it
counts the build of the host's link table, which the codegrees read; an
untimed run before the timed ones builds the host.  It has no split.
The "census" row times the sigma census of the threshold claim of
`hypertile verify` (`experiments.three_partite_sigma_census`, n = 3..6) and
the `fieldprod13-edges` row `field_product_graph(13)` whole, its answer the
edges; an untimed run before the timed ones builds what they read, the
census's triple lists and the field tables.  They have no split.  The other "construction" rows, `host-barrier6059` and
`host-fortified979511`, time `barrier_graph(60, 59)` and
`fortified_barrier(97, 95, 11)` whole, and `host-shuffled80` one `build`
from a list made untimed: the edges of a random host (n = 80, p = 0.5,
seed 0) with every second edge repeated, shuffled by `random.Random(1)` and
each edge's vertices reversed, the one kind of input that no builder hands
over.  Their answer is the edge count; one more untimed run traces the
build with `tracemalloc` and adds `held_kb`, what the returned construction
holds, and `peak_kb`, the most the build held at once, beside the answer.
The `probe-exactness` row runs the probe-exactness claim of `hypertile
verify --seed 1`: 438 connector probes over 20 hosts, with a robust-vector
count and a goodness check per host.
The other probe rows empty the copy-set table that connector probes keep
for their last host (`probes._connector_table`) before each run, so each
run times a probe that builds its table.
The "plan" row times one `contains_copy` with the solver's plan cache
emptied before each run, so it counts the pattern's analysis and compile
(`solver._plan`) with the search; it has no split and runs no cover.
The `cli-import` and `cli-command` rows are the exceptions: `total_s` is
the median wall time of 21 fresh processes, started in the caller's
environment.  `cli-import` runs `python -c "import hypertile.cli"`, and its
answer is the list of `hypertile` modules that the import loads, whether
those processes write no bytecode (`sys.dont_write_bytecode`, set by
`PYTHONDONTWRITEBYTECODE` or `-B`) and whether the package had a
`__pycache__` when the first one started.  Without a bytecode cache every
process compiles the package's source, so the row's time depends on both.
`cli-command` runs a whole short command, `python -m hypertile.cli probe
connectors` on a fixed random host written to a temporary directory, with
stdout to a file; it adds `cpu_s`, the median CPU seconds of the processes
(`os.wait4`), so it counts the import, the command and the exit.  Its answer
is the exit code and the SHA-256 of stdout.  Every row states its `unit`.

Every row also gives `reference_s`: the fastest CPU seconds, of
REFERENCE_REPEATS runs, of a fixed pure-Python loop run just before the
row. It follows the speed of the shared core at that moment, so rows
measured minutes apart, or on two revisions, can be compared as
`total_s / reference_s`; it catches slow spells that outlast the loop, not
shorter ones.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import itertools
import json
import os
import pathlib
import random
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc

import hypertile
from hypertile import (barrier_graph, build, cli, complete_k_partite, core,
                       experiments, field_product_graph, fortified_barrier, hgio, k_st, probes,
                       solver)


class _Clock:
    """CPU seconds spent inside wrapped calls, and their number, per field."""

    def __init__(self):
        self.enumeration = self.tiling = 0.0
        self.calls = {"enumeration": 0, "tiling": 0}

    def wrap(self, fn, field):
        def timed(*args, **kwargs):
            self.calls[field] += 1
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


def _random_host(seed: int, n: int, p: float):
    rng = random.Random(seed)
    return build(3, n, [e for e in itertools.combinations(range(n), 3) if rng.random() < p])


def _thinned_barrier(a: int, b: int, seed: int, p: float):
    """barrier_graph(a, b) with each edge, in order, dropped with probability p."""
    rng = random.Random(seed)
    return build(3, a + b, [e for e in barrier_graph(a, b).graph.edges if rng.random() >= p])


def _complete_host(n: int):
    return build(3, n, itertools.combinations(range(n), 3))


def _forget_connector_table():
    """Empty the copy-set table that connector probes keep for their last
    host, in a revision that keeps one, so that a probe row times a cold
    probe in every run."""
    kept = getattr(probes, "_connector_table", None)
    if kept is not None:
        kept.cache_clear()


def _connectors(host, pattern, i):
    _forget_connector_table()
    return {"count": probes.count_connectors(host, pattern, 0, 1, i)}


def _probe_close(host, pattern):
    _forget_connector_table()
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, name) for name in ("host.hg", "pattern.hg")]
        hgio.save_hg(host, paths[0])
        hgio.save_hg(pattern, paths[1])
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            cli.main(["probe", "close", paths[0], "--pattern", paths[1],
                      "-x", "0", "-y", "1", "-i", "2", "--eta", "1/1000"])
    out = buffer.getvalue()
    return {**json.loads(out), "stdout_sha256": hashlib.sha256(out.encode()).hexdigest()}


def _tiling(host, pattern):
    out = solver.has_perfect_tiling(host, pattern)
    return {"reason": out.reason,
            "copies": [list(e.images) for e in out.certificate.embeddings] if out.found else None}


def _max(host, pattern):
    size, cert = solver.max_tiling(host, pattern)
    return {"size": size, "copies": [list(e.images) for e in cert.embeddings]}


PROCESSES = 21


def _cli_import():
    """Median wall seconds of fresh interpreters that import the CLI; the
    hypertile modules one of them loads, whether it writes no bytecode, and
    whether the package had a bytecode cache before the first one ran."""
    cached = (pathlib.Path(hypertile.__file__).parent / "__pycache__").is_dir()
    times = []
    for _ in range(PROCESSES):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import hypertile.cli"], check=True)
        times.append(time.perf_counter() - started)
    no_bytecode, *modules = subprocess.run(
        [sys.executable, "-c", "import sys, hypertile.cli; print(sys.dont_write_bytecode, "
         "*sorted(m for m in sys.modules if m.split('.')[0] == 'hypertile'))"],
        capture_output=True, text=True, check=True).stdout.split()
    return {"total_s": round(statistics.median(times), 4)}, {
        "modules": modules, "dont_write_bytecode": no_bytecode == "True",
        "pycache_at_start": cached}


def _cli_command():
    """Median wall and CPU seconds of fresh `probe connectors` processes, and
    the exit codes and stdout SHA-256s they gave."""
    walls, cpus, answers = [], [], set()
    with tempfile.TemporaryDirectory() as tmp:
        host, pattern, out = (os.path.join(tmp, name) for name in ("host.hg", "k111.hg", "out"))
        hgio.save_hg(_random_host(0, 14, 0.5), host)
        hgio.save_hg(K111, pattern)
        argv = [sys.executable, "-m", "hypertile.cli", "probe", "connectors", host,
                "--pattern", pattern, "-x", "0", "-y", "1", "-i", "1"]
        for _ in range(PROCESSES):
            with open(out, "wb") as fh:
                started = time.perf_counter()
                proc = subprocess.Popen(argv, stdout=fh)
                _, status, usage = os.wait4(proc.pid, 0)
                walls.append(time.perf_counter() - started)
            proc.returncode = os.waitstatus_to_exitcode(status)
            cpus.append(usage.ru_utime + usage.ru_stime)
            with open(out, "rb") as fh:
                answers.add((proc.returncode, hashlib.sha256(fh.read()).hexdigest()))
    return ({"total_s": round(statistics.median(walls), 4),
             "cpu_s": round(statistics.median(cpus), 4)},
            [{"exit_code": code, "stdout_sha256": sha} for code, sha in sorted(answers)])


def _sweep():
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        cli.main(["sweep", "--n-min", "12", "--n-max", "18", "-m", "2"])
    return {"stdout_sha256": hashlib.sha256(buffer.getvalue().encode()).hexdigest()}


@functools.lru_cache(maxsize=None)
def _census_graphs():
    """Every graph of the threshold claim's census, n = 3..6, in its order."""
    return tuple(build(3, n, experiments.edges_from_mask(n, mask)) for n in range(3, 7)
                 for mask in sorted(experiments.three_partite_sigma_census(n)))


@functools.lru_cache(maxsize=None)
def _barrier_host(a: int, b: int):
    return barrier_graph(a, b).graph


@functools.lru_cache(maxsize=None)
def _field_product_host(q: int):
    return field_product_graph(q).graph


@functools.lru_cache(maxsize=None)
def _parity_hosts():
    """The hosts of the barrier-parity claim: barrier_graph(a, b) for
    a, b <= PARITY_SIDE_MAX with a + b at least the pattern's order."""
    side = range(experiments.PARITY_SIDE_MAX + 1)
    return tuple(barrier_graph(a, b).graph for a in side for b in side
                 if a + b >= KST322.n)


def _parity_sets(hosts):
    return {"hosts": len(hosts),
            "copy_sets": sum(len(solver.enumerate_copy_sets(h, KST322).sets) for h in hosts)}


def _fresh_plan_copy(host, pattern):
    solver._plan.cache_clear()
    return {"copy": solver.contains_copy(host, pattern)}


def _cold_min_codegree(host):
    solver._links.cache_clear()
    return {"min_codegree": host.min_s_degree(2)}


def _census_build():
    """The census sizes, and per order the sum of each graph's mask times its
    smallest class (n * sigma): a digest that costs less than the census."""
    census = {n: experiments.three_partite_sigma_census(n) for n in range(3, 7)}
    return {"graphs": sum(map(len, census.values())),
            "mask_by_smallest_class": [sum(mask * (n * s.numerator // s.denominator)
                                           for mask, s in c.items())
                                       for n, c in census.items()]}


def _product_edges(q):
    edges = field_product_graph(q).graph.edges
    return {"edges": len(edges), "edges_sha256": hashlib.sha256(repr(edges).encode()).hexdigest()}


@functools.lru_cache(maxsize=None)
def _shuffled80():
    """The random n = 80 host's edges, every second one twice, shuffled and
    each with its vertices reversed."""
    edges = _random_host(0, 80, 0.5).edges
    stream = [*edges, *edges[::2]]
    random.Random(1).shuffle(stream)
    return [e[::-1] for e in stream]


def _probe_claim(seed):
    ok, details = experiments._claim_probe_exactness(seed, None)
    return {"passed": ok, **details}


@functools.lru_cache(maxsize=None)
def _random100():
    return experiments.random_hypergraph(random.Random(0), 3, 100, 0.5)


def _twin_class_sizes(host):
    search = getattr(core._twin_classes, "__wrapped__", core._twin_classes)
    return {"class_sizes": [c.bit_count() for c in search(host)]}


@functools.lru_cache(maxsize=None)
def _aab_host(a: int, b: int, q: int):
    """The A-A-B class of fortified_barrier(a, b, q): its edges with two
    vertices in A, the first a vertices."""
    g = fortified_barrier(a, b, q).graph
    return build(3, g.n, (e for e in g.edges if sum(v < a for v in e) == 2))


def _link_lookups(run) -> int:
    """The embedder's host link lookups during one run()."""
    links, lookups = solver._links, 0

    class Counted(dict):
        def get(self, key, default=None):
            nonlocal lookups
            lookups += 1
            return super().get(key, default)

    solver._links = lambda host: Counted(links(host))
    try:
        run()
    finally:
        solver._links = links
    return lookups


def _leaf_counts(run) -> dict:
    """One run() with the leaf of every embedder search wrapped: the leaf
    candidates reached (`embeddings`) and, per search, the distinct vertex
    masks they span (`copy_sets`), summed over the run's searches."""
    place = solver._place
    counts = {"embeddings": 0, "copy_sets": 0}

    def counted(host, pattern, leaf, *args, **kwargs):
        masks = set()

        def counting_leaf(bits, used, candidates):
            counts["embeddings"] += candidates.bit_count()
            scan = candidates
            while scan:
                low = scan & -scan
                masks.add(used | low)
                scan ^= low
            return leaf(bits, used, candidates)

        try:
            return place(host, pattern, counting_leaf, *args, **kwargs)
        finally:
            counts["copy_sets"] += len(masks)

    solver._place = counted
    try:
        run()
    finally:
        solver._place = place
    return counts


def _sigma_census(graphs):
    reports = [hypertile.invariants(g) for g in graphs]
    return {"graphs": len(reports),
            "realisations": sum(r.realisation_count for r in reports),
            "reports_sha256": hashlib.sha256(repr(reports).encode()).hexdigest()}


def _invariant_report(pattern):
    report = hypertile.invariants(pattern)
    return {**report._asdict(), "sigma": str(report.sigma)}


CHECKERS = "verify checkers"
TWINS = "twin classes"
COPY_SEARCH = "copy search"
ENUMERATION = "enumeration"
PLAN = "plan"
DEGREE = "degree queries"
CENSUS = "census"
CONSTRUCTION = "construction"
# layers timed as fresh processes, by wall time
IMPORT = "import"
PROCESS = "process"
# layers whose inputs an untimed run builds first, and that run no cover
PREPARED = (CHECKERS, TWINS, COPY_SEARCH, ENUMERATION, DEGREE, CENSUS, CONSTRUCTION)
K222 = complete_k_partite((2, 2, 2)).graph
K111 = complete_k_partite((1, 1, 1)).graph
K112 = complete_k_partite((1, 1, 2)).graph
K122 = complete_k_partite((1, 2, 2)).graph
K666 = complete_k_partite((6, 6, 6)).graph
K777 = complete_k_partite((7, 7, 7)).graph
K357 = complete_k_partite((3, 5, 7)).graph
K468 = complete_k_partite((4, 6, 8)).graph
KST322 = k_st(3, 2, 2).graph
# one edge and eleven isolated vertices
SPARSE14 = build(3, 14, [(0, 1, 2)])
RANDOM14 = "random n=14 p=0.5 seed 0"
DENSE100 = "random n=100 p=0.5 seed 0"
SPARSE100 = "random n=100 p=0.002 seed 0"
COMPLETE18 = "complete 3-graph n=18"
# name: (layer, code, run)
ROWS = {
    "barrier99-k222": ("tiling", "has_perfect_tiling(barrier_graph(9, 9), complete_k_partite((2, 2, 2)))",
                       lambda: _tiling(barrier_graph(9, 9).graph, K222)),
    # Deep K(1,1,1) "none"s: many families of copies leave the same vertices
    # uncovered, and the cover searches each such state once.
    "barrier87-k111": ("tiling", "has_perfect_tiling(barrier_graph(8, 7), complete_k_partite((1, 1, 1)))",
                       lambda: _tiling(barrier_graph(8, 7).graph, K111)),
    "barrier99-k111": ("tiling", "has_perfect_tiling(barrier_graph(9, 9), complete_k_partite((1, 1, 1)))",
                       lambda: _tiling(barrier_graph(9, 9).graph, K111)),
    # n = 24: the failed profiles over two twin classes end the search.
    "barrier1311-k222": ("tiling", "has_perfect_tiling(barrier_graph(13, 11), complete_k_partite((2, 2, 2)))",
                         lambda: _tiling(barrier_graph(13, 11).graph, K222)),
    # Thinned so that no two vertices are twins: the failed states are
    # keyed by their raw mask all the way down.
    "thinned1011-k111": ("tiling", "has_perfect_tiling(barrier_graph(10, 11) less each edge with"
                                   " random.Random(0).random() < 0.1, complete_k_partite((1, 1, 1)))",
                         lambda: _tiling(_thinned_barrier(10, 11, 0, 0.1), K111)),
    "barrier99-kst322": ("tiling", "has_perfect_tiling(barrier_graph(9, 9), k_st(3, 2, 2))",
                         lambda: _tiling(barrier_graph(9, 9).graph, k_st(3, 2, 2).graph)),
    "sweep-12-18-m2": ("tiling", "hypertile sweep --n-min 12 --n-max 18 -m 2", _sweep),
    # Complete hosts: growth reaches each copy set once per copy on it.
    "complete18-k222": ("tiling", f"has_perfect_tiling({COMPLETE18}, complete_k_partite((2, 2, 2)))",
                        lambda: _tiling(_complete_host(18), K222)),
    "complete18-kst322": ("tiling", f"has_perfect_tiling({COMPLETE18}, k_st(3, 2, 2))",
                          lambda: _tiling(_complete_host(18), k_st(3, 2, 2).graph)),
    "k666-k222": ("tiling", "has_perfect_tiling(complete_k_partite((6, 6, 6)), complete_k_partite((2, 2, 2)))",
                  lambda: _tiling(complete_k_partite((6, 6, 6)).graph, K222)),
    # No twins (every class one vertex): the twin search is pure overhead.
    "planted20-tile": ("tiling", "has_perfect_tiling(planted n=20 p=0.3 seed 0, complete_k_partite((1, 1, 2)))",
                       lambda: _tiling(_planted_host(0, 20, 0.3), K112)),
    "planted20-max": ("tiling", "max_tiling(planted n=20 p=0.3 seed 0, complete_k_partite((1, 1, 2)))",
                      lambda: _max(_planted_host(0, 20, 0.3), K112)),
    "connectors14-k112-i2": (
        "probe", f"count_connectors({RANDOM14}, complete_k_partite((1, 1, 2)), 0, 1, 2)",
        lambda: _connectors(_random_host(0, 14, 0.5), K112, 2)),
    "close14-k111-i2": (
        "probe", f"hypertile probe close <{RANDOM14}> --pattern <K(1,1,1)> -x 0 -y 1 -i 2"
                 " --eta 1/1000",
        lambda: _probe_close(_random_host(0, 14, 0.5), K111)),
    # Large hosts at i = 1: C(n-2, 2) candidates against one C(n, 3) enumeration.
    "connectors100-k111-i1": (
        "probe", f"count_connectors({DENSE100}, complete_k_partite((1, 1, 1)), 0, 1, 1)",
        lambda: _connectors(_random_host(0, 100, 0.5), K111, 1)),
    # One table per host serves every pair's probe.
    "probe-exactness": ("probe", "experiments._claim_probe_exactness(1, None)",
                        lambda: _probe_claim(1)),
    # Twin-rich at i = 3: 495 candidates, whose covers meet the same states.
    "connectors77-k111-i3": (
        "probe", "count_connectors(barrier_graph(7, 7), complete_k_partite((1, 1, 1)), 0, 1, 3)",
        lambda: _connectors(_barrier_host(7, 7), K111, 3)),
    "connectors100sparse-k111-i1": (
        "probe", f"count_connectors({SPARSE100}, complete_k_partite((1, 1, 1)), 0, 1, 1)",
        lambda: _connectors(_random_host(0, 100, 0.002), K111, 1)),
    # n = 192, two classes: the size of the quotient decision's hosts.
    "twins-barrier9795": (TWINS, "core._twin_classes(barrier_graph(97, 95))",
                          lambda: _twin_class_sizes(_barrier_host(97, 95))),
    # Twin-free: every candidate pair fails.
    "twins-random100": (TWINS, f"core._twin_classes({DENSE100})",
                        lambda: _twin_class_sizes(_random100())),
    # The two searches of `hypertile verify` that spend the most time in
    # the embedder: the product-graph-free and barrier-parity claims.
    "fieldprod11-k122": (COPY_SEARCH, "contains_copy(field_product_graph(11), complete_k_partite((1, 2, 2)))",
                         lambda: {"copy": solver.contains_copy(_field_product_host(11), K122)}),
    # 144 vertices, 37,224 edges.
    "fieldprod13-k122": (COPY_SEARCH, "contains_copy(field_product_graph(13), complete_k_partite((1, 2, 2)))",
                         lambda: {"copy": solver.contains_copy(_field_product_host(13), K122)}),
    # n = 192: the K(1,2,2)-freeness check at the paper's first order.
    "aab979511-k122": (COPY_SEARCH, "contains_copy(<the A-A-B class of fortified_barrier(97, 95, 11)>,"
                                    " complete_k_partite((1, 2, 2)))",
                       lambda: {"copy": solver.contains_copy(_aab_host(97, 95, 11), K122)}),
    "parity-kst322": (ENUMERATION, "enumerate_copy_sets(barrier_graph(a, b), k_st(3, 2, 2))"
                                   " over the barrier-parity claim's 60 hosts",
                      lambda: _parity_sets(_parity_hosts())),
    # The paper's K^3(m): 21 positions, one copy set.
    "k777-self": (ENUMERATION, "enumerate_copy_sets(complete_k_partite((7, 7, 7)), complete_k_partite((7, 7, 7)))",
                  lambda: {"copy_sets": len(solver.enumerate_copy_sets(K777, K777).sets)}),
    # Unequal parts: no equal-part bound, and the one-vertex-per-part order
    # is slower here than the most-constrained order.  192 copy sets.
    "k357-in-k468": (ENUMERATION, "enumerate_copy_sets(complete_k_partite((4, 6, 8)), complete_k_partite((3, 5, 7)))",
                     lambda: {"copy_sets": len(solver.enumerate_copy_sets(K468, K357).sets)}),
    # A 14-vertex pattern with 3^11 realisations, none of them complete partite.
    "plan-sparse14": (PLAN, "contains_copy(complete_k_partite((6, 6, 6)), build(3, 14, [(0, 1, 2)]))"
                            " with an empty plan cache",
                      lambda: _fresh_plan_copy(K666, SPARSE14)),
    # The pair codegrees of the product-graph-free claim, with the link
    # table built inside the timing.
    "codegree-fieldprod11": (DEGREE, "field_product_graph(11).graph.min_s_degree(2)"
                                     " after solver._links.cache_clear()",
                             lambda: _cold_min_codegree(_field_product_host(11))),
    # The threshold claim's reference sigmas, 4,666 graphs at n = 6.
    "sigma-census-build": (CENSUS, "experiments.three_partite_sigma_census(n) for n = 3..6",
                           _census_build),
    # 144 vertices, 37,224 edges.
    "fieldprod13-edges": (CONSTRUCTION, "field_product_graph(13).graph.edges",
                          lambda: _product_edges(13)),
    # 119 vertices, 136,880 edges: what a host holds per edge.
    "host-barrier6059": (CONSTRUCTION, "barrier_graph(60, 59)",
                         lambda: {"edges": barrier_graph(60, 59).graph.edge_count}),
    # 192 vertices: the barrier(97, 95) edges and the mirrored ones of GF(11).
    "host-fortified979511": (CONSTRUCTION, "fortified_barrier(97, 95, 11)",
                             lambda: {"edges": fortified_barrier(97, 95, 11).graph.edge_count}),
    # 61,731 edge lines, 41,154 of them distinct: what sorting one list
    # costs on input that arrives in no order.
    "host-shuffled80": (CONSTRUCTION, "build(3, 80, <random n=80 p=0.5 seed 0, every second edge"
                                      " twice, shuffled by random.Random(1), vertices reversed>)",
                        lambda: {"edges": build(3, 80, _shuffled80()).edge_count}),
    "cli-import": (IMPORT, 'python -c "import hypertile.cli"', _cli_import),
    "cli-command": (PROCESS, f"python -m hypertile.cli probe connectors <{RANDOM14}>"
                             " --pattern <K(1,1,1)> -x 0 -y 1 -i 1",
                    _cli_command),
    # The two exhaustive searches of `hypertile verify` that are not tilings.
    "c4free-7": (CHECKERS, "experiments.four_cycle_free_max_edges(7)",
                 lambda: {"edges": experiments.four_cycle_free_max_edges(7)}),
    "sigma-census": (CHECKERS, "invariants(g) over the n = 3..6 sigma-census graphs",
                     lambda: _sigma_census(_census_graphs())),
    # 3^11 realisations: one for the edge, times where 11 isolated vertices go.
    "invariants-sparse14": (CHECKERS, "invariants(build(3, 14, [(0, 1, 2)]))",
                            lambda: _invariant_report(SPARSE14)),
}

# Rows whose untimed run also traces the memory of one call: name: call.
HELD = {"host-barrier6059": lambda: barrier_graph(60, 59),
        "host-fortified979511": lambda: fortified_barrier(97, 95, 11),
        "host-shuffled80": lambda: build(3, 80, _shuffled80()),
        "twins-barrier9795": ROWS["twins-barrier9795"][2],
        "twins-random100": ROWS["twins-random100"][2]}


# A loop of about 0.17 s (2-vCPU shared VM, Python 3.11.7): over 8 processes
# of `barrier99-kst322` its time correlated with the row's at 0.66, where a
# loop of 0.02 s did not (0.08).
REFERENCE_REPEATS = 3
REFERENCE_STEPS = 2_000_000


def _reference_s() -> float:
    """Fastest CPU seconds of a fixed integer loop, over REFERENCE_REPEATS runs."""
    best = float("inf")
    for _ in range(REFERENCE_REPEATS):
        started = time.process_time()
        acc = 0
        for i in range(REFERENCE_STEPS):
            acc = (acc * 31 + i) & 0xFFFF
        best = min(best, time.process_time() - started)
    return round(best, 4)


def _package_meta() -> dict:
    """Line count and git revision of the imported package's source."""
    src = pathlib.Path(hypertile.__file__).parent
    lines = sum(len(p.read_text().splitlines()) for p in sorted(src.glob("*.py")))
    try:
        revision = subprocess.run(
            ["git", "-C", str(src), "describe", "--always", "--dirty", "--abbrev=40"],
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        revision = None
    return {"src_lines": lines, "git_revision": revision}


SEARCHES = ("options_at",)
# The node function of each verify-checker row that has one in
# `experiments.py`: the C4-free branch and bound.
CHECKER_NODES = {"c4free-7": "place"}


def _search_calls(run, names=SEARCHES, files=(solver.__file__,)) -> int:
    """Calls of the named inner functions of the given files during one run()."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        code = frame.f_code
        if event == "call" and code.co_name in names and code.co_filename in files:
            calls += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def _held_kb(build) -> dict:
    """KB that build()'s result holds and the most that its build held at
    once, traced by tracemalloc."""
    tracemalloc.start()
    try:
        kept = build()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del kept
    return {"held_kb": round(held / 1024, 1), "peak_kb": round(peak / 1024, 1)}


def measure(name: str, repeat: int) -> dict:
    """The row's fastest run (the process rows: their medians), with its layer
    split and its answer."""
    layer, code, run = ROWS[name]
    reference = _reference_s()
    if layer in (IMPORT, PROCESS):
        times, answer = run()
        return {"row": name, "layer": layer, "code": code,
                "unit": f"s wall, median of {PROCESSES} processes",
                **times, "reference_s": reference, "answer": answer,
                "answer_sha256": hashlib.sha256(json.dumps(answer, sort_keys=True).encode()).hexdigest(),
                **_package_meta()}
    # Every module binding of the tiling entry points gets a wrapper around
    # the original function, so no call is counted twice.
    originals = {(m, f): getattr(m, f) for m in (solver, experiments, cli, probes)
                 for f in ("enumerate_copy_sets", "has_perfect_tiling", "max_tiling")
                 if hasattr(m, f)}
    nodes = leaves = None
    if name in CHECKER_NODES:
        # Counted before the timed runs, which also builds a row's cached inputs.
        nodes = _search_calls(run, (CHECKER_NODES[name],), (experiments.__file__,))
    elif layer == ENUMERATION:
        leaves = _leaf_counts(run)      # also builds the hosts, link tables and plan untimed
    elif layer in PREPARED:
        run()                   # builds the hosts, their link tables and the plan untimed
    held = _held_kb(HELD[name]) if name in HELD else {}
    best = best_total = None
    for _ in range(repeat):
        clock = _Clock()
        for (module, field), fn in originals.items():
            setattr(module, field, clock.wrap(
                fn, "enumeration" if field == "enumerate_copy_sets" else "tiling"))
        try:
            started = time.process_time()
            answer = run()
            total = time.process_time() - started
        finally:
            for (module, field), fn in originals.items():
                setattr(module, field, fn)
        if best is None or total < best_total:
            best_total = total
            best = {"row": name, "layer": layer, "code": code,
                    "unit": f"s CPU, fastest of {repeat}", "total_s": round(total, 6),
                    "reference_s": reference}
            if layer == CHECKERS:
                best["search_nodes"] = nodes
            elif layer not in (TWINS, COPY_SEARCH, PLAN, DEGREE, CENSUS, CONSTRUCTION):
                best["enumeration_s"] = round(clock.enumeration, 6)
            if layer == "tiling":
                best["cover_s"] = round(clock.tiling - clock.enumeration, 6)
            elif layer == "probe":
                best["enumerations"] = clock.calls["enumeration"]
                best["tilings"] = clock.calls["tiling"]
            best["answer"] = {k: v for k, v in answer.items() if k != "copies"}
            best["answer_sha256"] = hashlib.sha256(
                json.dumps(answer, sort_keys=True).encode()).hexdigest()
    if layer not in (PLAN, *PREPARED):
        best["cover_calls"] = _search_calls(run)
        leaves = _leaf_counts(run)
    if layer in ("tiling", COPY_SEARCH, ENUMERATION):
        best["link_lookups"] = _link_lookups(run)
    return {**best, **held, **(leaves or {}), **_package_meta()}


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
