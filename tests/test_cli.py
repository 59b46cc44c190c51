import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hypertile
from hypertile import build, field_product_graph, load_hg, parse_hg, save_hg, write_hg
from hypertile.cli import main

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(hypertile.__file__).resolve().parent.parent


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_process(argv, cwd=None, **kwargs):
    """`python -m hypertile.cli` in a fresh interpreter, so through `cli.entry`,
    with stdout block-buffered as it is for a user who redirects it."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(SRC)
    return subprocess.run([sys.executable, "-m", "hypertile.cli", *argv],
                          cwd=cwd, env=env, **kwargs)


def write_pattern(tmp_path, name, k, n, edges):
    path = tmp_path / name
    save_hg(build(k, n, edges), str(path))
    return str(path)


@pytest.fixture
def c4_path(tmp_path):
    from hypertile import k_st
    path = tmp_path / "c4.hg"
    save_hg(k_st(3, 2, 2).graph, str(path))
    return str(path)


@pytest.fixture
def k222_path(tmp_path):
    from hypertile import complete_k_partite
    path = tmp_path / "k222.hg"
    save_hg(complete_k_partite((2, 2, 2)).graph, str(path))
    return str(path)


@pytest.fixture
def b75_path(tmp_path):
    from hypertile import barrier_graph
    path = tmp_path / "b75.hg"
    save_hg(barrier_graph(7, 5).graph, str(path))
    return str(path)


def test_invariants_report(capsys, c4_path):
    code, out, _ = run(capsys, ["invariants", c4_path])
    assert code == 0
    doc = json.loads(out)
    assert doc["k"] == 3 and doc["vertices"] == 6
    assert doc["class_sizes"] == [2]
    assert doc["class_differences"] == [0]
    assert doc["gcd"] is None
    assert doc["sigma"] == {"num": 1, "den": 3}
    assert doc["realisations"] == 2
    assert "threshold" not in doc


def test_invariants_with_threshold(capsys, c4_path):
    code, out, _ = run(capsys, ["invariants", c4_path, "--n", "12",
                                "--alpha", "1/4"])
    assert code == 0
    doc = json.loads(out)
    assert doc["threshold"]["case"] == "sizes_one_or_gcd_sizes_gt1"
    assert doc["threshold"]["value"] == pytest.approx(9.0, rel=1e-9)
    assert doc["threshold"]["alpha"] == {"num": 1, "den": 4}
    assert doc["threshold"]["smallest_prime"] is None


def test_construct_to_stdout(capsys):
    code, out, _ = run(capsys, ["construct", "barrier", "4", "3"])
    assert code == 0
    g = parse_hg(out)
    assert g.n == 7 and g.edge_count == 16


def test_construct_writes_file_and_sidecar(capsys, tmp_path):
    out_path = tmp_path / "b43.hg"
    code, out, err = run(capsys, ["construct", "barrier", "4", "3",
                                  "-o", str(out_path)])
    assert code == 0
    assert out == ""
    assert "wrote" in err
    g = load_hg(str(out_path))
    assert g.edge_count == 16
    side = json.loads((tmp_path / "b43.hg.json").read_text())
    assert side["construction"] == "barrier"
    assert side["params"] == {"a": 4, "b": 3}
    assert side["vertices"] == 7 and side["edges"] == 16
    assert side["parts"]["B"] == [4, 5, 6]
    assert side["format_version"] == 1


def test_construct_golden_stability(capsys):
    code, out, _ = run(capsys, ["construct", "fieldprod", "5"])
    assert code == 0
    golden = (GOLDEN / "g5.hg").read_text()

    def body(text):
        return [ln for ln in text.splitlines() if not ln.startswith("#")]

    # comment headers differ; the graph body must match byte for byte
    assert body(out) == body(golden)


def test_tile_perfect(capsys, tmp_path):
    host = write_pattern(tmp_path, "host.hg", 3, 6,
                         [(0, 1, 2), (3, 4, 5), (0, 1, 3)])
    pattern = write_pattern(tmp_path, "edge.hg", 3, 3, [(0, 1, 2)])
    code, out, _ = run(capsys, ["tile", host, "--pattern", pattern])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"] == "tiling"
    assert len(doc["copies"]) == 2
    assert doc["covered"] == list(range(6))


def test_tile_none(capsys, b75_path, k222_path):
    code, out, _ = run(capsys, ["tile", b75_path, "--pattern", k222_path])
    assert code == 0
    doc = json.loads(out)
    assert doc == {"result": "none", "reason": "exhausted"}


def test_tile_max(capsys, b75_path, k222_path):
    code, out, _ = run(capsys, ["tile", b75_path, "--pattern", k222_path,
                                "--max"])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"] == "max-tiling" and doc["size"] == 1
    assert len(doc["copies"]) == 1 and len(doc["covered"]) == 6


def test_tile_max_prints_first_embedding_witnesses(capsys, tmp_path, k222_path):
    # each copy is the first embedding the embedder reached, read in
    # pattern-vertex order; K(2,2,2) places one vertex per part in turn
    from hypertile import barrier_graph
    host = tmp_path / "b108.hg"
    save_hg(barrier_graph(10, 8).graph, str(host))
    code, out, _ = run(capsys, ["tile", str(host), "--pattern", k222_path, "--max"])
    assert code == 0
    doc = json.loads(out)
    assert doc["copies"] == [[0, 3, 1, 4, 2, 5], [6, 7, 10, 12, 11, 13],
                             [8, 9, 14, 16, 15, 17]]
    assert doc["covered"] == list(range(18))


def test_tile_typed_copies(capsys, tmp_path, b75_path, k222_path):
    parts = tmp_path / "parts.json"
    parts.write_text(json.dumps([list(range(0, 7)), list(range(7, 12))]))
    code, out, _ = run(capsys, ["tile", b75_path, "--pattern", k222_path,
                                "--type", "6,0", "--partition", str(parts)])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"] == "copies" and doc["count"] == 7
    assert doc["type"] == [6, 0] and len(doc["sets"]) == 7


def test_tile_partition_accepts_sidecar_shape(capsys, tmp_path, b75_path, k222_path):
    # the .hg.json sidecar stores parts as name -> vertices; usable directly
    parts = tmp_path / "parts.json"
    parts.write_text(json.dumps({"construction": "barrier",
                                 "parts": {"A": list(range(0, 7)),
                                           "B": list(range(7, 12))}}))
    code, out, _ = run(capsys, ["tile", b75_path, "--pattern", k222_path,
                                "--type", "6,0", "--partition", str(parts)])
    assert code == 0
    assert json.loads(out)["count"] == 7


def test_tile_past_the_recursion_limit(tmp_path):
    # 1050 copies are past a fresh interpreter's recursion limit of 1000;
    # C(2100, 2) stays under the default budget
    matching = [[2 * j, 2 * j + 1] for j in range(1050)]
    host = write_pattern(tmp_path, "matching.hg", 2, 2100, matching)
    edge = write_pattern(tmp_path, "edge.hg", 2, 2, [(0, 1)])
    for extra in ([], ["--max"]):
        done = run_process(["tile", host, "--pattern", edge, *extra],
                           capture_output=True, text=True)
        assert done.returncode == 0 and done.stderr == ""
        doc = json.loads(done.stdout)
        assert doc["copies"] == matching and doc["covered"] == list(range(2100))


def test_tile_type_requires_partition(capsys, tmp_path, b75_path, k222_path):
    # checked before any file is read, so a missing host is not reported
    for host in (b75_path, str(tmp_path / "missing.hg")):
        code, out, err = run(capsys, ["tile", host, "--pattern", k222_path, "--type", "6,0"])
        assert code == 1 and out == ""
        assert err == "hypertile: error: --type requires --partition\n"


def test_tile_partition_requires_type(capsys, tmp_path, b75_path, k222_path):
    parts = tmp_path / "parts.json"
    parts.write_text(json.dumps([list(range(0, 7)), list(range(7, 12))]))
    code, out, err = run(capsys, ["tile", b75_path, "--pattern", k222_path,
                                  "--partition", str(parts)])
    assert code == 1 and out == ""
    assert "--partition requires --type" in err


BAD_PARTITIONS = {
    "malformed-json": b"[[0, 1, 2, 3, 4, 5, 6], [7, 8",
    "not-utf8": b"\xff\xfe[[0, 1, 2, 3, 4, 5, 6], [7, 8, 9, 10, 11]]",
    "too-deep-json": b"[" * 100_000 + b"]" * 100_000,
    "float-vertex": b"[[0, 1, 2, 3, 4, 5, 6], [7, 8, 9, 10, 11.5]]",
    "bool-vertex": b"[[false, true, 2, 3, 4, 5, 6], [7, 8, 9, 10, 11]]",
}


@pytest.mark.parametrize("content", BAD_PARTITIONS.values(), ids=BAD_PARTITIONS)
def test_bad_partition_file_is_an_input_error(capsys, tmp_path, b75_path, k222_path, content):
    parts = tmp_path / "parts.json"
    parts.write_bytes(content)
    for argv in (["tile", b75_path, "--pattern", k222_path, "--type", "6,0"],
                 ["probe", "robust", b75_path, "--pattern", k222_path, "--mu", "0"]):
        code, out, err = run(capsys, argv + ["--partition", str(parts)])
        assert code == 1 and out == ""
        assert err.startswith("hypertile: error: ") and err.count("\n") == 1
        assert str(parts) in err or "is not an integer" in err


def test_probe_connectors(capsys, tmp_path):
    host = write_pattern(tmp_path, "k333.hg", 3, 9,
                         [(a, b, c) for a in range(3)
                          for b in range(3, 6) for c in range(6, 9)])
    pattern = write_pattern(tmp_path, "edge.hg", 3, 3, [(0, 1, 2)])
    code, out, _ = run(capsys, ["probe", "connectors", host,
                                "--pattern", pattern, "-x", "0", "-y", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc == {"count": 9, "x": 0, "y": 1, "i": 1}

    code, out, _ = run(capsys, ["probe", "close", host, "--pattern", pattern,
                                "-x", "0", "-y", "1", "--eta", "1/9"])
    doc = json.loads(out)
    assert code == 0 and doc["close"] is True and doc["count"] == 9


def test_probe_close_counts_connectors_once(capsys, tmp_path, monkeypatch):
    import hypertile.cli as cli
    from fractions import Fraction
    from hypertile import count_connectors
    from hypertile.probes import close_threshold
    host = write_pattern(tmp_path, "k333.hg", 3, 9,
                         [(a, b, c) for a in range(3)
                          for b in range(3, 6) for c in range(6, 9)])
    pattern = write_pattern(tmp_path, "edge.hg", 3, 3, [(0, 1, 2)])
    g, f = load_hg(host), load_hg(pattern)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return count_connectors(*args, **kwargs)

    monkeypatch.setattr(cli, "count_connectors", counted)
    argv = ["probe", "close", host, "--pattern", pattern, "-x", "0", "-y", "1"]
    # 9 connectors against thresholds 9 and 81/8
    for eta, close in (("1/9", True), ("1/8", False)):
        calls.clear()
        code, out, _ = run(capsys, argv + ["--eta", eta])
        doc = json.loads(out)
        assert code == 0 and len(calls) == 1
        assert doc["count"] == count_connectors(g, f, 0, 1, 1) == 9
        assert doc["close"] is close is (9 >= close_threshold(g, f, 1, Fraction(eta)))
    calls.clear()
    code, out, err = run(capsys, argv + ["--eta=-1/9"])
    assert code == 1 and out == "" and "eta must be nonnegative" in err
    assert calls == []


def test_probe_robust_and_transferral(capsys, tmp_path, b75_path):
    pattern = write_pattern(tmp_path, "edge.hg", 3, 3, [(0, 1, 2)])
    parts = tmp_path / "parts.json"
    parts.write_text(json.dumps({"parts": [list(range(0, 7)),
                                           list(range(7, 12))]}))
    code, out, _ = run(capsys, ["probe", "robust", b75_path,
                                "--pattern", pattern,
                                "--partition", str(parts),
                                "--mu", "0", "--transferral", "0,1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["counts"] == {"3,0": 35, "1,2": 70}
    assert doc["total"] == 105
    assert sorted(doc["robust"]) == [[1, 2], [3, 0]]
    assert doc["transferral"] == {"j": 0, "l": 1, "member": False}


@pytest.mark.parametrize("indices", ["0", "0,1,2"])
def test_probe_robust_transferral_needs_two_indices(capsys, tmp_path, b75_path,
                                                    monkeypatch, indices):
    import hypertile.probes
    import hypertile.solver

    def unreachable(*args, **kwargs):
        raise AssertionError("copy sets enumerated before the arguments were checked")

    monkeypatch.setattr(hypertile.solver, "enumerate_copy_sets", unreachable)
    monkeypatch.setattr(hypertile.probes, "enumerate_copy_sets", unreachable)
    pattern = write_pattern(tmp_path, "edge.hg", 3, 3, [(0, 1, 2)])
    parts = tmp_path / "parts.json"
    parts.write_text(json.dumps([list(range(0, 7)), list(range(7, 12))]))
    code, out, err = run(capsys, ["probe", "robust", b75_path, "--pattern", pattern,
                                  "--partition", str(parts), "--mu", "0",
                                  "--transferral", indices])
    assert code == 1 and out == "" and "Traceback" not in err
    assert err.endswith("hypertile probe robust: error: argument --transferral: "
                        f"expected two part indices j,l, got {indices!r}\n")


def test_probe_goodness(capsys, tmp_path, b75_path):
    code, out, _ = run(capsys, ["probe", "goodness", b75_path,
                                "--against", b75_path, "--alpha", "0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["good"] == [True] * 12
    assert doc["difference_degrees"] == [0] * 12


def test_probe_extremal(capsys, tmp_path):
    from hypertile import barrier_graph
    host = tmp_path / "b67.hg"
    save_hg(barrier_graph(6, 7).graph, str(host))
    code, out, _ = run(capsys, ["probe", "extremal", str(host),
                                "--gamma", "0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["witness"] == [list(range(6)), list(range(6, 13))]
    assert doc["exhaustive"] is True and doc["missing_edges"] == 0


def test_sweep_rows(capsys):
    code, out, _ = run(capsys, ["sweep", "--n-min", "12", "--n-max", "13",
                                "-m", "2", "--no-tile"])
    assert code == 0
    doc = json.loads(out)
    rows = doc["rows"]
    assert [r["n"] for r in rows] == [12, 13]
    first = rows[0]
    assert (first["a"], first["b"]) == (7, 5)
    assert first["min_codegree"] == 4
    assert first["expected_codegree"] == 4
    assert first["matches_pattern"] is True
    assert first["divisible"] is True
    assert "factors" not in first


def test_sweep_with_tiling(capsys):
    code, out, _ = run(capsys, ["sweep", "--n-min", "12", "--n-max", "12",
                                "-m", "2"])
    assert code == 0
    doc = json.loads(out)
    factors = doc["rows"][0]["factors"]
    assert factors["complete"]["verdict"] == "none"
    assert factors["kst"]["verdict"] == "none"
    assert factors["complete"]["reason"] == "exhausted"


def test_verify_single_claim(capsys):
    code, out, err = run(capsys, ["verify", "--claims", "kst-turan"])
    assert code == 0
    doc = json.loads(out)
    assert doc["experiment"] == "verification-battery"
    assert doc["format_version"] == 1
    assert [r["claim"] for r in doc["rows"]] == ["kst-turan"]
    assert all(r["passed"] for r in doc["rows"])
    assert "[time]" in err


def test_verify_unknown_claim_exits_one(capsys):
    assert main(["verify", "--claims", "no-such-claim"]) == 1


def test_verify_reports_failure_with_exit_two(capsys, monkeypatch):
    import hypertile.experiments as exp
    monkeypatch.setattr(
        exp, "_CLAIMS",
        (("always-red", lambda seed, budget: (False, {"note": "forced"})),))
    code, out, _ = run(capsys, ["verify"])
    assert code == 2
    doc = json.loads(out)
    assert doc["rows"][0]["passed"] is False


def test_exit_codes(capsys, tmp_path, b75_path, k222_path):
    assert main(["invariants", str(tmp_path / "missing.hg")]) == 1
    assert main(["invariants", b75_path, "--alpha", "bogus", "--n", "9"]) == 1
    assert main(["tile", b75_path, "--pattern", k222_path,
                 "--budget", "5"]) == 3
    # argparse usage errors are remapped to a plain 1
    assert main(["no-such-command"]) == 1
    assert main(["tile"]) == 1  # missing required arguments


def test_usage_error_in_a_probe_subcommand(capsys, tmp_path):
    code, out, err = run(capsys, ["probe", "close", str(tmp_path / "h.hg"),
                                  "--pattern", str(tmp_path / "p.hg"), "-x", "0", "-y", "1"])
    assert code == 1 and out == ""
    usage, message = err.split("\nhypertile probe close: error: ")
    assert usage.startswith("usage: hypertile probe close [-h] --pattern PATTERN")
    assert message == "the following arguments are required: --eta\n"


@pytest.mark.parametrize("argv, message", [
    (["invariants", "{b75}", "--alpha", "bogus"],
     "argument --alpha: expected a rational like 1/10 or 0.1, got 'bogus'"),
    (["tile", "{b75}", "--pattern", "{k222}", "--type", "2,x"],
     "argument --type: expected comma-separated integers, got '2,x'"),
], ids=["alpha", "type"])
def test_bad_argument_values_are_reported_in_their_own_words(capsys, b75_path, k222_path,
                                                            argv, message):
    argv = [a.format(b75=b75_path, k222=k222_path) for a in argv]
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert err.endswith(f"hypertile {argv[0]}: error: {message}\n")


def _leaf_commands(parser, path=()):
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        yield path, parser
    for action in subparsers:
        for name, child in action.choices.items():
            yield from _leaf_commands(child, (*path, name))


def test_every_subcommand_has_its_own_handler_and_help(capsys):
    from hypertile.cli import _build_parser
    leaves = dict(_leaf_commands(_build_parser()))
    assert len(leaves) == 10
    for path, parser in leaves.items():
        assert callable(parser.get_default("func")), path
    assert len({p.get_default("func") for p in leaves.values()}) == len(leaves)
    for path in [(), ("probe",), *leaves]:
        assert main([*path, "--help"]) == 0, path
        assert capsys.readouterr().out.startswith(f"usage: {' '.join(('hypertile', *path))}")


def test_connector_probes_share_their_arguments_in_order():
    from hypertile.cli import _build_parser
    leaves = dict(_leaf_commands(_build_parser()))
    shared = [["host"], ["--pattern"], ["-x"], ["-y"], ["-i"]]
    for name, own in (("connectors", [["--budget"]]), ("close", [["--eta"], ["--budget"]])):
        actions = leaves["probe", name]._actions
        assert [a.option_strings or [a.dest] for a in actions] == [["-h", "--help"], *shared, *own]


def test_budget_env_var(capsys, b75_path, k222_path, monkeypatch):
    monkeypatch.setenv("HYPERTILE_BUDGET", "5")
    assert main(["tile", b75_path, "--pattern", k222_path]) == 3
    monkeypatch.setenv("HYPERTILE_BUDGET", "1000000")
    capsys.readouterr()
    assert main(["tile", b75_path, "--pattern", k222_path]) == 0


def test_bad_budget_fails_before_a_divisibility_answer(capsys, tmp_path):
    host = write_pattern(tmp_path, "host.hg", 3, 5, [(0, 1, 2)])
    pattern = write_pattern(tmp_path, "edge.hg", 3, 3, [(0, 1, 2)])
    code, out, err = run(capsys, ["tile", host, "--pattern", pattern, "--budget", "-3"])
    assert code == 1
    assert out == ""
    assert "budget must be positive, got -3" in err


def test_bad_budget_fails_on_a_claim_that_charges_nothing(capsys):
    code, out, err = run(capsys, ["verify", "--claims", "kst-turan", "--budget", "0"])
    assert code == 1
    assert out == ""
    assert "budget must be positive, got 0" in err


def test_bad_budget_fails_before_any_claim_runs(capsys, monkeypatch):
    import hypertile.experiments as exp
    ran = []
    monkeypatch.setattr(
        exp, "_CLAIMS",
        (("recorded", lambda seed, budget: (ran.append(budget) or True, {})),))
    code, out, err = run(capsys, ["verify", "--budget", "0"])
    assert code == 1
    assert ran == []
    monkeypatch.setenv("HYPERTILE_BUDGET", "0")
    code, out, err = run(capsys, ["verify"])
    assert code == 1
    assert ran == []
    assert "HYPERTILE_BUDGET must be positive, got 0" in err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "invariants" in out and "verify" in out


_TIMING = re.compile(r"^(\[time\] .*: )\d+\.\d{3}s$", re.MULTILINE)


@pytest.mark.parametrize("argv, expected", [
    (["tile", "host.hg", "--pattern", "edge.hg"], 0),
    (["tile", "missing.hg", "--pattern", "edge.hg"], 1),
    (["tile", "b75.hg", "--pattern", "k222.hg", "--budget", "1"], 3),
    (["verify", "--claims", "kst-turan"], 0),
    (["--help"], 0),
], ids=["tiling", "missing-host", "budget", "verify", "help"])
def test_a_command_process_ends_as_main_returns(capsys, tmp_path, monkeypatch, b75_path,
                                                k222_path, argv, expected):
    # entry() ends the process with os._exit: the process must still write
    # every byte that main() writes, and exit with main()'s code
    write_pattern(tmp_path, "host.hg", 3, 6, [(0, 1, 2), (3, 4, 5), (0, 1, 3)])
    write_pattern(tmp_path, "edge.hg", 3, 3, [(0, 1, 2)])
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps --help to the terminal's width
    os.rename(b75_path, "b75.hg")
    os.rename(k222_path, "k222.hg")
    done = run_process(argv, tmp_path, capture_output=True)
    code, out, err = run(capsys, argv)
    assert done.returncode == code == expected
    assert done.stdout == out.encode() and (out != "") == (code == 0)
    # the [time] lines of verify differ only in their seconds
    assert _TIMING.sub(r"\1", done.stderr.decode()) == _TIMING.sub(r"\1", err)
    assert (err != "") == (code != 0 or argv[0] == "verify")


def test_a_large_output_reaches_a_pipe_whole(tmp_path):
    construction = field_product_graph(11)
    comment = f"{construction.name} {construction.params}"
    done = run_process(["construct", "fieldprod", "11"], tmp_path, capture_output=True)
    assert done.returncode == 0 and done.stderr == b""
    assert done.stdout == write_hg(construction.graph, comments=(comment,)).encode()


def test_construct_process_writes_the_files_main_writes(capsys, tmp_path, monkeypatch):
    argv = ["construct", "barrier", "7", "5", "-o", "out.hg"]
    for side in ("process", "main"):
        (tmp_path / side).mkdir()
    done = run_process(argv, tmp_path / "process", capture_output=True, text=True)
    monkeypatch.chdir(tmp_path / "main")
    code, out, err = run(capsys, argv)
    assert (done.returncode, done.stdout, done.stderr) == (code, out, err) == (
        0, "", "wrote out.hg and out.hg.json\n")
    for name in ("out.hg", "out.hg.json"):
        assert (tmp_path / "process" / name).read_bytes() == (tmp_path / "main" / name).read_bytes()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ["construct", "barrier", "4", "3"],    # held in stdout's buffer until main returns
    ["construct", "fieldprod", "11"],      # larger than the buffer: fails inside main
], ids=["buffered", "large"])
def test_a_failed_write_to_stdout_exits_one(tmp_path, argv):
    with open("/dev/full", "w") as full:
        done = run_process(argv, tmp_path, stdout=full, stderr=subprocess.PIPE, text=True)
    assert done.returncode == 1
    assert done.stderr == "hypertile: error: [Errno 28] No space left on device\n"
