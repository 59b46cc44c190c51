"""Benchmark inputs and command lists, generated from a workload seed.

`build(name, seed, directory)` writes the workload's `.hg` hosts and
patterns (with `.json` partition sidecars) into `directory` and returns the
commands to run there, each paired with the check of its stdout. The
graphs come from hypertile's construction builders; relabelling, random
hosts and file writing are the benchmark's own code, so a change to the
program cannot change its inputs. The same seed always gives the same files.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import checks
from checks import Graph
from hypertile import constructions

CONNECTOR_HOSTS = 2                # random n = 14 hosts per connectors pass
LINK_PAIRS = 3                     # i = 1 connector commands per connectors pass
FOUND_HOSTS = 3                    # planted n = 20 hosts per found pass
CLOSE_ETA = Fraction(1, 1000)
ROBUST_MU = Fraction(1, 100000)


@dataclass(frozen=True)
class Command:
    """Arguments after `python -m hypertile.cli`, and the check of its stdout
    (None when correct, else the reason)."""

    argv: tuple[str, ...]
    check: Callable[[str], str | None]


def _graph(construction) -> Graph:
    g = construction.graph
    return Graph.of(g.k, g.n, g.edges)


def _relabel(construction, rng: random.Random) -> tuple[Graph, list[list[int]]]:
    """The construction under a seeded vertex permutation, with its parts."""
    g = construction.graph
    perm = list(range(g.n))
    rng.shuffle(perm)
    host = Graph.of(g.k, g.n, (tuple(perm[v] for v in e) for e in g.edges))
    parts = [sorted(perm[v] for v in part) for part in construction.part_map.parts]
    return host, parts


def _random_host(rng: random.Random, n: int, p: float) -> Graph:
    return Graph.of(3, n, (e for e in itertools.combinations(range(n), 3)
                           if rng.random() < p))


def _planted_host(rng: random.Random, n: int, p: float) -> Graph:
    """Random 3-graph plus a hidden perfect K(1,1,2)-tiling on a random split."""
    order = list(range(n))
    rng.shuffle(order)
    planted = []
    for i in range(0, n - n % 4, 4):
        x, y, z, w = order[i:i + 4]
        planted += [(x, y, z), (x, y, w)]
    noise = _random_host(rng, n, p)
    return Graph.of(3, n, set(noise.edges) | {tuple(sorted(e)) for e in planted})


class _Writer:
    """Writes graphs as `.hg` files (and parts as `.json` sidecars)."""

    def __init__(self, directory: Path):
        self.directory = directory

    def graph(self, stem: str, graph: Graph, parts: list[list[int]] | None = None) -> str:
        lines = [f"{graph.k} {graph.n}"] + [" ".join(map(str, e)) for e in sorted(graph.edges)]
        (self.directory / f"{stem}.hg").write_text("\n".join(lines) + "\n", encoding="utf-8")
        if parts is not None:
            (self.directory / f"{stem}.json").write_text(
                json.dumps({"parts": parts}, sort_keys=True) + "\n", encoding="utf-8")
        return f"{stem}.hg"


def _verify(rng: random.Random, seed: int, out: _Writer) -> list[Command]:
    return [Command(("verify", "--seed", str(seed)),
                    lambda s: checks.verify_error(seed, s))]


def _extremal(rng: random.Random, seed: int, out: _Writer) -> list[Command]:
    patterns = {m: {"complete": _graph(constructions.complete_k_partite([m, m, m])),
                    "kst": _graph(constructions.k_st(3, m, m))} for m in (1, 2)}
    orders = checks.SWEEP_ORDERS
    commands = [Command(("sweep", "--n-min", str(orders[0]), "--n-max", str(orders[-1]),
                         "-m", str(m), "--timings"),
                        lambda s, m=m: checks.sweep_error(patterns[m], s))
                for m in (1, 2)]
    # Three relabellings of the largest host: how long its exhaustive search
    # takes depends on the labels (7 to 8.7 s over three seeds), and a sum
    # of three spreads less from seed to seed than one.
    barrier99 = constructions.barrier_graph(9, 9)
    instances = ((barrier99, "k222", patterns[2]["complete"]),
                 (barrier99, "k222", patterns[2]["complete"]),
                 (barrier99, "k222", patterns[2]["complete"]),
                 (constructions.barrier_graph(8, 7), "k111", patterns[1]["complete"]),
                 (constructions.barrier_graph(8, 7), "kst311", patterns[1]["kst"]))
    for idx, (construction, pattern_name, pattern) in enumerate(instances):
        host, parts = _relabel(construction, rng)
        b_part = parts[1]
        hg = out.graph(f"barrier{idx}", host, parts)
        commands.append(Command(
            ("tile", hg, "--pattern", out.graph(pattern_name, pattern)),
            lambda s, h=host, p=pattern, b=b_part: checks.tile_none_error(h, p, b, s)))
    return commands


def _found(rng: random.Random, seed: int, out: _Writer) -> list[Command]:
    k222 = _graph(constructions.complete_k_partite([2, 2, 2]))
    k112 = _graph(constructions.complete_k_partite([1, 1, 2]))
    kst322 = _graph(constructions.k_st(3, 2, 2))
    k222_hg, k112_hg, kst322_hg = (out.graph(stem, g) for stem, g in
                                   (("k222", k222), ("k112", k112), ("kst322", kst322)))
    host, _ = _relabel(constructions.complete_k_partite([6, 6, 6]), rng)
    commands = [Command(("tile", out.graph("k666", host), "--pattern", k222_hg),
                        lambda s, h=host: checks.tiling_error(h, k222, s))]
    for idx in range(FOUND_HOSTS):
        host = _planted_host(rng, 20, 0.3)
        hg = out.graph(f"planted{idx}", host)
        commands += [
            Command(("tile", hg, "--pattern", k112_hg),
                    lambda s, h=host: checks.tiling_error(h, k112, s)),
            Command(("tile", hg, "--pattern", k112_hg, "--max"),
                    lambda s, h=host: checks.max_error(h, k112, s)),
        ]
    host, _ = _relabel(constructions.barrier_graph(7, 7), rng)
    commands.append(Command(("tile", out.graph("barrier77", host), "--pattern", k112_hg, "--max"),
                            lambda s, h=host: checks.max_error(h, k112, s)))
    barrier, parts = _relabel(constructions.barrier_graph(8, 7), rng)
    hg = out.graph("barrier87", barrier, parts)
    type_vector = (2, 4)
    # Computed at the first check, not here, so that set-up time holds no checking.
    expected = functools.cache(lambda: checks.typed_sets(barrier, kst322, parts, type_vector))
    commands += [
        Command(("tile", hg, "--pattern", kst322_hg, "--type", "2,4",
                 "--partition", "barrier87.json"),
                lambda s: checks.typed_error(expected(), type_vector, s)),
        Command(("probe", "robust", hg, "--pattern", kst322_hg, "--partition",
                 "barrier87.json", "--mu", str(ROBUST_MU), "--transferral", "0,1"),
                lambda s: checks.robust_error(barrier, kst322, parts, ROBUST_MU, (0, 1),
                                              {type_vector: len(expected())}, s)),
    ]
    return commands


def _connectors(rng: random.Random, seed: int, out: _Writer) -> list[Command]:
    k111 = _graph(constructions.complete_k_partite([1, 1, 1]))
    k112 = _graph(constructions.complete_k_partite([1, 1, 2]))
    k111_hg, k112_hg = out.graph("k111", k111), out.graph("k112", k112)
    hosts = [_random_host(rng, 14, 0.5) for _ in range(CONNECTOR_HOSTS)]
    files = [out.graph(f"random{idx}", h) for idx, h in enumerate(hosts)]
    commands = []
    for host, hg in zip(hosts, files):
        x, y = sorted(rng.sample(range(host.n), 2))
        commands.append(Command(
            ("probe", "connectors", hg, "--pattern", k112_hg,
             "-x", str(x), "-y", str(y), "-i", "2"),
            lambda s, h=host, x=x, y=y: checks.connectors_error(
                checks.connector_count(h, k112, x, y, 2), s)))
    first, hg = hosts[0], files[0]
    x, y = sorted(rng.sample(range(first.n), 2))
    commands.append(Command(
        ("probe", "close", hg, "--pattern", k111_hg, "-x", str(x), "-y", str(y), "-i", "2",
         "--eta", str(CLOSE_ETA)),
        lambda s, x=x, y=y: checks.close_error(
            checks.connector_count(first, k111, x, y, 2), first, k111, 2, CLOSE_ETA, s)))
    for _ in range(LINK_PAIRS):
        x, y = sorted(rng.sample(range(first.n), 2))
        commands.append(Command(
            ("probe", "connectors", hg, "--pattern", k111_hg,
             "-x", str(x), "-y", str(y), "-i", "1"),
            lambda s, x=x, y=y: checks.connectors_error(checks.common_link_size(first, x, y), s)))
    return commands


WORKLOADS: dict[str, Callable[[random.Random, int, _Writer], list[Command]]] = {
    "verify": _verify,
    "extremal": _extremal,
    "found": _found,
    "connectors": _connectors,
}


def build(name: str, seed: int, directory: Path) -> list[Command]:
    """Write the inputs of one workload into `directory`; return its commands."""
    directory.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), seed, _Writer(directory))
