"""Benchmark runner for the hypertile CLI.

    python3 hbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The runner builds the workload's inputs
from the seed (see workloads.py), then runs the workload's `hypertile`
commands one process at a time, one after another: a closed loop with a
single client. Every answer is checked by the benchmark's own code
(checks.py). The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.

--trace 0 repeats the command list for S seconds and reports the
end-to-end metrics: wall and CPU seconds (each command's median over
passes, summed), the peak RSS of any command process, and the median time
of the set-ups run before and between the passes. Times are scaled by the
measured speed of the shared core they ran on (see Probe).
--trace 1 runs one untraced pass and one pass under tracing.py and reports
the per-layer metrics. The metric names and units are those
in BENCHMARK.json at the checkout root.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS_PER_PASS = 2     # set-ups between passes, so their median samples the whole run
COMMAND_TIMEOUT_S = 60
RUN_DEADLINE_S = 150        # no command starts or runs past this, so a run ends inside 180 s
PROBE_PERIOD_S = 0.05       # one probe loop per 50 ms of a command or set-up
PROBE_REF_S = 0.0004        # the probe loop's time on an unloaded core of the 2-vCPU Xeon
                            # the benchmark was written on; figures are scaled to that core
_PROBE_TRIPLES = list(itertools.combinations(range(12), 3))


def probe_once() -> float:
    """Time a fixed pure-Python loop of tuple hashing and dict inserts, the
    kind of work hypertile does. It stays in the core's own cache: a loop
    over a table as large as a command's working set tracked the commands'
    slowdown far worse, as its cache misses depend on the command itself."""
    start = time.perf_counter()
    for _ in range(16):
        seen = {}
        for triple in _PROBE_TRIPLES:
            seen[triple] = len(seen)
    return time.perf_counter() - start


class Probe:
    """Samples the speed of this process's core while other work runs on it.

    Neighbours on a shared host slow a core by up to 1.7x, in bursts and for
    minutes at a time; no steal time shows it, and it hits CPU time as much
    as wall time. The benchmark and its commands are pinned to one core, and
    this thread runs `probe_once` on that core every PROBE_PERIOD_S. A time
    multiplied by `scale` reads as if the core had run at its unloaded speed:
    wall and CPU seconds at the reference core, so the slowdown from the
    neighbours cancels out."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self) -> "Probe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        while not self._stop.wait(PROBE_PERIOD_S):
            self.samples.append(probe_once())

    @property
    def scale(self) -> float:
        if not self.samples:            # shorter than one period: probe once after
            self.samples.append(probe_once())
        return PROBE_REF_S / statistics.fmean(self.samples)


@dataclass
class Result:
    """One finished (or killed) command process."""

    stdout: bytes
    stderr: str
    code: int | None
    wall: float
    cpu: float
    rss_mb: float
    timed_out: bool
    scale: float = 1.0      # Probe.scale over the process's lifetime

    @property
    def scaled_wall(self) -> float:
        return self.wall * self.scale

    @property
    def scaled_cpu(self) -> float:
        return self.cpu * self.scale


@dataclass
class Pass:
    results: list[Result]
    wall: float


class Launcher:
    """The process that starts every command (launcher.py), kept small so
    that a command's max RSS is its own and not the runner's. It lives in a
    session of its own: closing it kills whatever it is still running."""

    def __init__(self, env: dict) -> None:
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launcher.py")], env=env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, start_new_session=True)

    def spawn(self, cmd: list[str], cwd: Path, timeout: float, name: str) -> Result:
        """Run one process to completion, killing it after `timeout` seconds."""
        if timeout <= 0:
            return Result(b"", "", None, 0.0, 0.0, 0.0, True)
        out_path, err_path = cwd / f"{name}.out", cwd / f"{name}.err"
        request = {"argv": cmd, "cwd": str(cwd), "stdout": str(out_path),
                   "stderr": str(err_path), "timeout": timeout}
        with Probe() as probe:
            start = time.perf_counter()
            self.proc.stdin.write(json.dumps(request) + "\n")
            self.proc.stdin.flush()
            reply = self.proc.stdout.readline()
            wall = time.perf_counter() - start
        if not reply:
            raise RuntimeError("the launcher exited")
        done = json.loads(reply)
        return Result(out_path.read_bytes(),
                      err_path.read_text(encoding="utf-8", errors="replace"),
                      done["code"], wall, done["cpu"], done["rss_mb"], done["timed_out"],
                      probe.scale)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.proc.stdout.close()


class Judge:
    """Checks each command's answer once per distinct stdout, and demands
    the same stdout bytes from every pass (the CLI promises byte-stability)."""

    def __init__(self, commands: list) -> None:
        self.commands = commands
        self.digests: dict[int, str] = {}
        self.verdicts: dict[int, str | None] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def judge(self, done: Pass) -> None:
        for idx, result in enumerate(done.results):
            self.attempted += 1
            reason = self._reason(idx, result)
            if reason is not None:
                self.failures.append(f"{' '.join(self.commands[idx].argv)}: {reason}")

    def _reason(self, idx: int, result: Result) -> str | None:
        if result.timed_out:
            return "timed out"
        if result.code != 0:
            return f"exit code {result.code}: {result.stderr.strip()[-300:]}"
        digest = hashlib.sha256(result.stdout).hexdigest()
        if idx not in self.digests:
            self.digests[idx] = digest
            try:
                self.verdicts[idx] = self.commands[idx].check(result.stdout.decode("utf-8"))
            except (ValueError, KeyError, TypeError, AttributeError, IndexError) as exc:
                self.verdicts[idx] = f"malformed output ({type(exc).__name__}: {exc})"
        elif digest != self.digests[idx]:
            return "stdout differs from an earlier pass"
        return self.verdicts[idx]


def run_pass(commands: list, cwd: Path, launcher: Launcher, deadline: float,
             trace_dir: Path | None = None) -> Pass:
    """Every command once, in order; traced through tracing.py if trace_dir.
    The pass's wall time runs from the first launch to the last exit."""
    results = []
    start = time.perf_counter()
    for idx, command in enumerate(commands):
        if trace_dir is None:
            cmd = [sys.executable, "-m", "hypertile.cli", *command.argv]
        else:
            cmd = [sys.executable, str(HERE / "tracing.py"),
                   str(trace_dir / f"{idx}.json"), *command.argv]
        timeout = min(COMMAND_TIMEOUT_S, deadline - time.perf_counter())
        results.append(launcher.spawn(cmd, cwd, timeout, f"cmd{idx}"))
    return Pass(results, time.perf_counter() - start)


def per_command_median(passes: list[Pass], field: str) -> float:
    """The command list's time with each command at its median over passes."""
    return sum(statistics.median(getattr(p.results[idx], field) for p in passes)
               for idx in range(len(passes[0].results)))


def inputs_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def set_up(workloads, name: str, seed: int, directory: Path, env: dict, deadline: float,
           tracer: tracing.Tracer | None = None) -> tuple[float, list, str]:
    """Make the program ready (a fresh interpreter imports hypertile.cli,
    which also fills the bytecode cache) and build the inputs into
    `directory`. Returns the time taken (scaled as in Probe), the commands
    and an inputs digest."""
    with Probe() as probe:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import hypertile.cli"], cwd=directory.parent,
                       env=env, check=True, timeout=min(COMMAND_TIMEOUT_S, deadline - start))
        uninstall = None if tracer is None else tracing.install(tracer)
        try:
            commands = workloads.build(name, seed, directory)
        finally:
            if uninstall is not None:
                uninstall()
        seconds = time.perf_counter() - start
    return seconds * probe.scale, commands, inputs_digest(directory)


def metadata() -> dict:
    """Facts about the build being measured; recorded, never scored."""
    revision = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        revision = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            packed = ROOT / ".git" / "packed-refs"
            if ref_file.is_file():
                revision = ref_file.read_text().strip()
            elif packed.is_file():
                for line in packed.read_text().splitlines():
                    if line.endswith(" " + ref[5:]):
                        revision = line.split()[0]
    src_lines = sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py"))
    return {"git_revision": revision, "python": sys.version.split()[0],
            "nproc": os.cpu_count(), "src_lines": src_lines}


def declared(spec: dict, key: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec[key]}


def emit(spec_units: dict[str, str], values: dict[str, tuple[float, str]]) -> dict:
    """Metrics in BENCHMARK.json order; refuse any drift in names or units."""
    got = {name: unit for name, (_, unit) in values.items()}
    if got != spec_units:
        missing = sorted(set(spec_units) ^ set(got))
        raise RuntimeError(f"metrics disagree with BENCHMARK.json: {missing or 'units'}")
    return {name: {"value": values[name][0], "unit": unit} for name, unit in spec_units.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "hypertile" / "cli.py").is_file():
        print(f"hbench: no hypertile sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"hbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    # The checkout's own sources only, and no user budget that could change an answer.
    env = {k: v for k, v in os.environ.items() if k != "HYPERTILE_BUDGET"}
    env["PYTHONPATH"] = str(SRC)
    # One core for the runner, its probe thread and every command it starts.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = ROOT / ".hbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    deadline = time.perf_counter() + RUN_DEADLINE_S
    launcher = Launcher(env)
    try:
        if args.trace:
            tracer = tracing.Tracer()
            cwd = work / "inputs"
            _, commands, inputs = set_up(workloads, args.workload, args.seed, cwd, env,
                                         deadline, tracer)
            plain = run_pass(commands, cwd, launcher, deadline)
            dumps_dir = work / "spans"
            dumps_dir.mkdir()
            traced = run_pass(commands, cwd, launcher, deadline, dumps_dir)
            passes = [plain, traced]
            dumps = [tracer.dump()] + [json.loads(p.read_text()) for p in dumps_dir.iterdir()]
            values = tracing.layer_metrics(
                tracing.merge(dumps),
                [line for r in plain.results for line in r.stderr.splitlines()],
                sum(len(r.stdout) for r in plain.results),
                traced.wall - plain.wall)
            metrics = emit(declared(spec, "per_layer"), values)
        else:
            cwd = work / "inputs0"
            setup_s, commands, inputs = set_up(workloads, args.workload, args.seed, cwd,
                                               env, deadline)
            setup_times = [setup_s]
            passes = []
            started = time.perf_counter()
            while True:
                passes.append(run_pass(commands, cwd, launcher, deadline))
                for _ in range(SETUP_REPS_PER_PASS):
                    seconds, _, digest = set_up(workloads, args.workload, args.seed,
                                                work / f"inputs{len(setup_times)}", env, deadline)
                    if digest != inputs:
                        raise RuntimeError("the same seed built different inputs")
                    setup_times.append(seconds)
                typical = statistics.median(p.wall for p in passes)
                if (any(r.timed_out for r in passes[-1].results)
                        or time.perf_counter() - started + typical > args.seconds):
                    break
            metrics = emit(declared(spec, "end_to_end"), {
                "wall_s": (per_command_median(passes, "scaled_wall"), "s"),
                "cpu_s": (per_command_median(passes, "scaled_cpu"), "s"),
                "setup_s": (statistics.median(setup_times), "s"),
                "peak_rss_mb": (max(r.rss_mb for p in passes for r in p.results), "MB"),
            })
        judge = Judge(commands)
        for done in passes:
            judge.judge(done)
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "meta": metadata(), "inputs_sha256": inputs, "passes": len(passes),
              "commands": [{"argv": list(c.argv), "stdout_sha256": judge.digests.get(i)}
                           for i, c in enumerate(commands)]}
    records = ROOT / ".hbench" / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for idx, command in enumerate(commands):
        walls = [p.results[idx].wall for p in passes]
        scales = [p.results[idx].scale for p in passes]
        print(f"hbench: {statistics.median(walls):8.3f} s at core speed "
              f"{statistics.median(scales):.2f}  {' '.join(command.argv)}",
              file=sys.stderr)
    for failure in judge.failures:
        print(f"hbench: FAILED {failure}", file=sys.stderr)
    print(f"hbench: {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"error_rate {len(judge.failures)}/{judge.attempted}", file=sys.stderr)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": not judge.failures, "attempted": judge.attempted,
                      "failed": len(judge.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
