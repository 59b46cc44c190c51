"""Self-tests for the benchmark's answer checks and its tracer.

    python3 hbench/selftest.py

The checks must reject tampered answers, not only accept good ones, the
tracer must see calls made through every module that binds a traced
function, and the launcher must report a command's own memory and kill it
at its timeout.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import sys
import tempfile
import time
import unittest
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from checks import Graph  # noqa: E402

K111 = Graph.of(3, 3, [(0, 1, 2)])
K112 = Graph.of(3, 4, [(0, 1, 2), (0, 1, 3)])


def tiling(copies: list[list[int]]) -> str:
    return json.dumps({"result": "tiling", "copies": copies,
                       "covered": sorted(v for c in copies for v in c)})


class CheckTests(unittest.TestCase):
    host = Graph.of(3, 8, [(0, 1, 2), (0, 1, 3), (4, 5, 6), (4, 5, 7), (2, 3, 4)])

    def test_accepts_a_valid_certificate(self):
        self.assertIsNone(checks.tiling_error(self.host, K112, tiling([[0, 1, 2, 3], [4, 5, 6, 7]])))

    def test_rejects_tampered_certificates(self):
        bad = {
            "non-edge": [[0, 1, 2, 3], [4, 6, 5, 7]],
            "overlap": [[0, 1, 2, 3], [0, 5, 6, 7]],
            "not covering": [[0, 1, 2, 3]],
            "out of range": [[0, 1, 2, 3], [4, 5, 6, 8]],
        }
        for what, copies in bad.items():
            with self.subTest(what):
                self.assertIsNotNone(checks.tiling_error(self.host, K112, tiling(copies)))
        wrong_cover = json.dumps({"result": "tiling", "copies": [[0, 1, 2, 3], [4, 5, 6, 7]],
                                  "covered": list(range(7))})
        self.assertIsNotNone(checks.tiling_error(self.host, K112, wrong_cover))

    def test_max_tiling_must_reach_the_bound(self):
        short = json.dumps({"result": "max-tiling", "size": 1, "copies": [[0, 1, 2, 3]],
                            "covered": [0, 1, 2, 3]})
        self.assertIsNotNone(checks.max_error(self.host, K112, short))

    def test_accepts_a_none_the_parity_obstruction_proves(self):
        host, b_part = checks.barrier(3, 3)
        none = json.dumps({"result": "none", "reason": "exhausted"})
        self.assertIsNone(checks.tile_none_error(host, K111, b_part, none))

    def test_rejects_wrong_nones(self):
        none = json.dumps({"result": "none", "reason": "exhausted"})
        host, b_part = checks.barrier(4, 2)          # |B| even: a perfect matching exists
        self.assertIsNotNone(checks.tile_none_error(host, K111, b_part, none))
        host, b_part = checks.barrier(5, 3)          # K(1,1,2) has copies meeting B oddly
        self.assertIsNotNone(checks.tile_none_error(host, K112, b_part, none))
        host, b_part = checks.barrier(3, 3)
        divisibility = json.dumps({"result": "none", "reason": "divisibility"})
        self.assertIsNotNone(checks.tile_none_error(host, K111, b_part, divisibility))

    def test_rejects_wrong_connector_counts(self):
        host = Graph.of(3, 7, [(0, 2, 3), (1, 2, 3), (0, 4, 5), (1, 4, 5), (0, 2, 6),
                               (3, 4, 6), (2, 5, 6), (0, 1, 6)])
        links = checks.common_link_size(host, 0, 1)
        self.assertEqual(links, checks.connector_count(host, K111, 0, 1, 1))
        self.assertIsNone(checks.connectors_error(links, json.dumps({"count": links})))
        self.assertIsNotNone(checks.connectors_error(links, json.dumps({"count": links + 1})))

    def test_connector_count_agrees_with_hypertile_on_a_small_host(self):
        from hypertile import build, count_connectors
        rng = random.Random(7)
        edges = [e for e in itertools.combinations(range(9), 3) if rng.random() < 0.6]
        host = Graph.of(3, 9, edges)
        for pattern, i in ((K111, 2), (K112, 1)):
            with self.subTest(pattern=pattern.n, i=i):
                program = count_connectors(build(3, 9, edges), build(3, pattern.n, pattern.edges),
                                           0, 1, i)
                self.assertEqual(program, checks.connector_count(host, pattern, 0, 1, i))

    def test_close_checks_count_and_threshold(self):
        host = Graph.of(3, 7, [(0, 2, 3), (1, 2, 3), (0, 4, 5), (1, 4, 5)])
        good = json.dumps({"close": True, "count": 2, "threshold": {"num": 1, "den": 1}})
        self.assertIsNone(checks.close_error(2, host, K111, 1, Fraction(1, 49), good))
        wrong = json.dumps({"close": True, "count": 3, "threshold": {"num": 1, "den": 1}})
        self.assertIsNotNone(checks.close_error(2, host, K111, 1, Fraction(1, 49), wrong))

    def test_lattice_membership(self):
        self.assertTrue(checks.lattice_member([(2, 4), (3, 3)], (1, -1)))
        self.assertFalse(checks.lattice_member([(2, 4), (4, 2)], (1, -1)))
        self.assertFalse(checks.lattice_member([], (1, -1)))
        self.assertTrue(checks.lattice_member([(6, 0, 0), (4, 2, 0), (0, 3, 3)], (2, -2, 0)))


class TracerTests(unittest.TestCase):
    def setUp(self):
        import hypertile  # noqa: F401
        self.tracer = tracing.Tracer()
        self.uninstall = tracing.install(self.tracer)
        self.addCleanup(self.uninstall)

    def test_every_binding_is_wrapped_and_restored(self):
        from hypertile import cli, experiments, probes, solver
        original = solver.has_perfect_tiling.__wrapped__
        for module in (solver, probes, experiments, cli, sys.modules["hypertile"]):
            with self.subTest(module=module.__name__):
                self.assertIsNot(module.has_perfect_tiling, original)
                self.assertIs(module.has_perfect_tiling.__wrapped__, original)
        self.assertIs(cli._BUILDERS["barrier"][0], experiments.barrier_graph)
        self.uninstall()
        for module in (solver, probes, experiments, cli, sys.modules["hypertile"]):
            self.assertIs(module.has_perfect_tiling, original)

    def test_calls_through_probes_have_the_right_parent(self):
        from hypertile import build, probes
        host = build(3, 7, [(0, 2, 3), (1, 2, 3), (0, 4, 5), (1, 4, 5)])
        edge = build(3, 3, [(0, 1, 2)])
        probes.count_connectors(host, edge, 0, 1, 1)
        probes.has_perfect_tiling(build(3, 3, [(0, 1, 2)]), edge)
        spans = self.tracer.spans
        self.assertGreater(spans[("solver.has_perfect_tiling", "probes.count_connectors")][0], 0)
        self.assertEqual(spans[("solver.has_perfect_tiling", None)][0], 1)
        self.assertIn(("solver.enumerate_copy_sets", "solver.has_perfect_tiling"), spans)

    def test_self_time_excludes_child_spans(self):
        inner = self.tracer.wrap("inner", lambda: time.sleep(0.02))
        outer = self.tracer.wrap("outer", lambda: (inner(), time.sleep(0.01)))
        outer()
        calls, total, own = self.tracer.spans[("outer", None)]
        self.assertEqual(calls, 1)
        self.assertGreaterEqual(total, 0.03)
        self.assertLess(own, total - 0.019)


class LauncherTests(unittest.TestCase):
    def setUp(self):
        self.launcher = run.Launcher(dict(os.environ))
        self.addCleanup(self.launcher.close)
        directory = tempfile.TemporaryDirectory()
        self.addCleanup(directory.cleanup)
        self.cwd = Path(directory.name)

    def test_reports_the_commands_own_memory(self):
        ballast = bytearray(64 << 20)       # the runner grows well past any small command
        ballast[::4096] = b"1" * len(ballast[::4096])
        grow = "x = bytearray(32 << 20); x[::4096] = b'1' * len(x[::4096])"
        small = self.launcher.spawn([sys.executable, "-c", "print('ok')"], self.cwd, 30, "a")
        large = self.launcher.spawn([sys.executable, "-c", grow], self.cwd, 30, "b")
        del ballast
        self.assertEqual((small.code, small.stdout, small.timed_out), (0, b"ok\n", False))
        self.assertLess(small.rss_mb, 40)
        self.assertGreater(large.rss_mb, small.rss_mb + 25)

    def test_a_command_past_its_timeout_is_killed(self):
        start = time.perf_counter()
        result = self.launcher.spawn([sys.executable, "-c", "import time; time.sleep(30)"],
                                     self.cwd, 0.5, "c")
        self.assertTrue(result.timed_out)
        self.assertLess(time.perf_counter() - start, 10)


if __name__ == "__main__":
    unittest.main()
