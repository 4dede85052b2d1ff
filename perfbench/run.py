"""Closed-loop CLI benchmark for polybernoulli: one client, fixed request lists.

    python3 perfbench/run.py --workload tables|zeta|verify --seed N --seconds S --trace 0|1

The process imports `polybernoulli.cli` once and forks a template process,
which forks one child per request.  Every request thus starts from the state
of a fresh CLI process (modules imported, caches cold), and its latency
leaves out interpreter start and import, which `setup_s` reports.  A round
serves the workload's whole list, one request at a time, in an order drawn
from the seed.  Rounds repeat while another one brings the time spent in
rounds nearer to S seconds, so every run attempts whole rounds.  Each output
is checked against oracle.py after its round, outside the timed region.

Other tenants share the host, and it runs the same code up to twice as
slowly in spells of seconds to minutes.  So every timing is scaled to a fixed
host speed: the template times a fixed pure-Python reference kernel, which
uses nothing of the package, four times right before and four times right
after each request, and an untraced child times it once more after every
SAMPLE_EVERY_S of its CPU time.  The request's wall time, less those timings
inside it, is multiplied by REFERENCE_S over the median of all of them.
Set-up samples are scaled by the timings around them.  Raw wall times go to
the detail file.  The run pins itself, and so every process
it starts, to one CPU: the host's CPUs slow down apart from each other, so
the kernel must run where the request runs.

With --trace 0 the last stdout line carries the end-to-end metrics.  With
--trace 1 rounds alternate untraced and traced, and it carries the per-layer
metrics of the traced rounds plus the tracing overhead.  Per-request detail
goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import checks
import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
ZETA_REFS = HERE / "zeta_refs.json"

SETUP_SAMPLES = 5  # before the first round and after each round
# No round starts that would end after this much of the run, and a request
# still running then is ended by SIGALRM, so a run ends well within 180 s.
DEADLINE_S = 150.0
CHILD_CRASH = 70
# The reference kernel's time at the host speed all timings are scaled to:
# about its fastest time on the machine the baseline was measured on.
REFERENCE_S = 0.004
# CPU time between two kernel timings inside an untraced request: long
# requests see the host's speed change while they run.
SAMPLE_EVERY_S = 0.1


def _reference_kernel() -> None:
    acc = Fraction(0)
    for i in range(1, 480):
        acc += Fraction(i, i * i + 1)
    n = 3**4000
    for _ in range(80):
        n = (n * 7 + 1) % 5**5000


def reference_times() -> list:
    """Four timings of the reference kernel: the host's speed now."""
    times = []
    for _ in range(4):
        start = time.perf_counter()
        _reference_kernel()
        times.append(time.perf_counter() - start)
    return times


def scaled(wall: float, timings: list) -> float:
    """wall, scaled to the host speed at which the kernel takes REFERENCE_S."""
    return wall * REFERENCE_S / statistics.median(timings)


def _sample_speed(samples: list) -> None:
    """Time the kernel after every SAMPLE_EVERY_S of this process's CPU time."""

    def sample(signum, frame):
        start = time.perf_counter()
        _reference_kernel()
        samples.append(time.perf_counter() - start)

    signal.signal(signal.SIGPROF, sample)
    signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)


@dataclass
class Served:
    latency: float  # wall time scaled to the reference host speed
    wall: float
    exit_code: int
    stdout: str
    stderr: str
    rss_mb: float
    trace: dict | None = None


@dataclass
class Run:
    zeta_refs: dict
    verified: dict = field(default_factory=dict)  # request line -> checked stdout
    reported: set = field(default_factory=set)
    attempted: int = 0
    failed: int = 0
    correct: bool = True

    def account(self, request, served: Served) -> None:
        self.attempted += 1
        if served.exit_code == 0 and self.verified.get(request.line) == served.stdout:
            return  # byte-identical to an output this run has already checked
        problem = checks.check(request, served.exit_code, served.stdout, self.zeta_refs)
        if problem is None:
            self.verified[request.line] = served.stdout
            return
        self.failed += 1
        excused = problem.kind == request.known_fault
        if not excused:
            self.correct = False
        if (request.line, problem.kind) not in self.reported:
            self.reported.add((request.line, problem.kind))
            label = "known fault" if excused else "FAILED"
            print(f"{label}: {request.line}: {problem.kind}: {problem.detail}", file=sys.stderr)
            if served.stderr.strip():
                print(served.stderr.rstrip(), file=sys.stderr)


def time_setup(samples: int) -> list:
    """Wall times of fresh interpreters importing polybernoulli.cli, scaled
    to the reference host speed."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import polybernoulli.cli"]
    times = []
    gc.disable()  # a collection over the checks' caches would land in a kernel timing
    try:
        for _ in range(samples):
            before = reference_times()
            start = time.perf_counter()
            subprocess.run(cmd, env=env, cwd=ROOT, check=True)
            wall = time.perf_counter() - start
            times.append(scaled(wall, before + reference_times()))
    finally:
        gc.enable()
    return times


def _child(cli, argv: list, traced: bool, io_dir: str, seconds_left: float) -> None:
    """Serve one request in a fresh child of the template process."""
    code = CHILD_CRASH
    try:
        gc.enable()
        signal.alarm(max(1, math.ceil(seconds_left)))  # SIGALRM ends a request past the deadline
        for fd, name in ((1, "stdout"), (2, "stderr")):
            target = os.open(os.path.join(io_dir, name), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
            os.dup2(target, fd)
            os.close(target)
        if traced:
            caches = tracing.lru_caches()
            tracer = tracing.Tracer()
            tracing.install(tracer)
            code = tracer.span(tracing.ROOT, cli.main)(argv)
            tracer.counts["caches.entries"] = sum(c.cache_info().currsize for c in caches)
            report = {"self_s": dict(tracer.self_s), "counts": dict(tracer.counts)}
            with open(os.path.join(io_dir, "trace.json"), "w") as fh:
                json.dump(report, fh)
        else:
            samples = []
            _sample_speed(samples)
            code = cli.main(argv)
            signal.setitimer(signal.ITIMER_PROF, 0)
            with open(os.path.join(io_dir, "speed.json"), "w") as fh:
                json.dump(samples, fh)
        sys.stdout.flush()
        sys.stderr.flush()
    except BaseException:
        traceback.print_exc()
        sys.stderr.flush()
        code = CHILD_CRASH
    finally:
        os._exit(code)


def _template_loop(cli, commands_fd: int, replies_fd: int) -> None:
    """Fork one child per command line; reply with its exit code, wall
    time, peak resident set and scaled latency once it has ended."""
    gc.disable()
    with os.fdopen(commands_fd) as commands, os.fdopen(replies_fd, "w") as replies:
        for line in commands:
            argv, traced, io_dir, seconds_left = json.loads(line)
            speed_path = os.path.join(io_dir, "speed.json")
            if os.path.exists(speed_path):
                os.unlink(speed_path)
            before = reference_times()
            gc.freeze()  # the child's collector starts from empty generations
            start = time.perf_counter()
            pid = os.fork()
            if pid == 0:
                _child(cli, argv, traced, io_dir, seconds_left)
            _, status, usage = os.wait4(pid, 0)
            wall = time.perf_counter() - start
            inside = []
            if os.path.exists(speed_path):
                with open(speed_path) as fh:
                    inside = json.load(fh)
            latency = scaled(wall - sum(inside), before + inside + reference_times())
            reply = [os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss, latency]
            replies.write(json.dumps(reply) + "\n")
            replies.flush()


class Template:
    """A process forked right after `import polybernoulli.cli` that does
    nothing but fork one child per request.  Every request therefore starts
    from the same state as a freshly started CLI, whatever this process has
    built up since, and a child's peak resident set holds nothing of the
    benchmark's own data.  Outputs travel through files in io_dir."""

    def __init__(self, cli, io_dir: Path):
        self.io_dir = io_dir
        commands_r, commands_w = os.pipe()
        replies_r, replies_w = os.pipe()
        sys.stdout.flush()
        sys.stderr.flush()
        self.pid = os.fork()
        if self.pid == 0:
            os.close(commands_w)
            os.close(replies_r)
            code = 0
            try:
                _template_loop(cli, commands_r, replies_w)
            except BaseException:
                traceback.print_exc()
                code = CHILD_CRASH
            finally:
                os._exit(code)
        os.close(commands_r)
        os.close(replies_w)
        self.commands = os.fdopen(commands_w, "w")
        self.replies = os.fdopen(replies_r)

    def serve(self, request, traced: bool, seconds_left: float) -> Served:
        trace_path = self.io_dir / "trace.json"
        trace_path.unlink(missing_ok=True)
        self.commands.write(json.dumps([list(request.argv), traced, str(self.io_dir), seconds_left]) + "\n")
        self.commands.flush()
        reply = self.replies.readline()
        if not reply:
            raise RuntimeError("the template process has ended")
        exit_code, wall, maxrss_kib, latency = json.loads(reply)
        trace = json.loads(trace_path.read_text()) if traced and trace_path.exists() else None
        if trace:
            trace["self_s"] = {name: t * latency / wall for name, t in trace["self_s"].items()}
        return Served(
            latency=latency,
            wall=wall,
            exit_code=exit_code,
            stdout=(self.io_dir / "stdout").read_text(),
            stderr=(self.io_dir / "stderr").read_text(errors="replace"),
            rss_mb=maxrss_kib / 1024,
            trace=trace,
        )

    def close(self) -> None:
        self.commands.close()  # end of input ends the template's loop
        os.waitpid(self.pid, 0)
        self.replies.close()


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (SRC / "polybernoulli" / "cli.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    run_start = time.monotonic()
    deadline = run_start + DEADLINE_S
    zeta_refs = json.loads(ZETA_REFS.read_text())
    if not args.trace:
        time_setup(1)  # writes the bytecode caches

    sys.path.insert(0, str(SRC))
    import polybernoulli.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "polybernoulli":
        print(f"error: imported {cli.__file__}, not the checkout's package", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS) as io_dir:
        template = Template(cli, Path(io_dir))
        try:
            result = measure(args, template, zeta_refs, deadline)
        finally:
            template.close()
    print(json.dumps(result))
    return 0


def measure(args, template: Template, zeta_refs: dict, deadline: float) -> dict:
    order = list(WORKLOADS[args.workload])
    random.Random(args.seed).shuffle(order)
    run = Run(zeta_refs)
    modes = [False, True] if args.trace else [False]
    latencies = {traced: {r.line: [] for r in order} for traced in modes}
    per_round_layers = []
    peak_rss = 0.0
    peak_caches = 0
    serving = 0.0
    last_round = 0.0
    log = []
    # Set-up samples are spread over the run, so that their median, like the
    # request figures, reflects the whole run and not a two-second window.
    setup_times = [] if args.trace else time_setup(SETUP_SAMPLES)
    # As many whole rounds as bring the time spent in rounds nearest to --seconds.
    while not log or (serving + last_round / 2 < args.seconds and time.monotonic() + last_round < deadline):
        round_start = time.perf_counter()
        for traced in modes:
            served = [template.serve(r, traced, deadline - time.monotonic()) for r in order]
            layers = dict.fromkeys(tracing.SELF_METRICS, 0.0) | dict.fromkeys(tracing.COUNT_METRICS, 0)
            for request, s in zip(order, served):
                run.account(request, s)
                peak_rss = max(peak_rss, s.rss_mb)
                latencies[traced][request.line].append(s.latency)
                if s.trace:
                    for name, value in s.trace["self_s"].items():
                        layers[name] += value
                    for name, value in s.trace["counts"].items():
                        if name == "caches.entries":
                            peak_caches = max(peak_caches, value)
                        else:
                            layers[name] += value
                log.append(
                    {"traced": traced, "request": request.line, "latency_s": s.latency,
                     "wall_s": s.wall, "exit_code": s.exit_code, "rss_mb": s.rss_mb, "trace": s.trace}
                )
            if traced:
                per_round_layers.append(layers)
        last_round = time.perf_counter() - round_start
        serving += last_round
        if not args.trace:
            setup_times += time_setup(SETUP_SAMPLES)

    # A round's time is estimated request by request, from each request's
    # median latency over the rounds, so that a slow spell on the host that
    # hits part of one round does not decide the figure.
    medians = {traced: {line: statistics.median(v) for line, v in lat.items()} for traced, lat in latencies.items()}
    round_s = {traced: sum(m.values()) for traced, m in medians.items()}
    if args.trace:
        metrics = {name: _metric(statistics.median(r[name] for r in per_round_layers), "s")
                   for name in tracing.SELF_METRICS}
        for name in tracing.COUNT_METRICS:
            metrics[name] = _metric(statistics.median(r[name] for r in per_round_layers), "count")
        metrics["caches.entries"] = _metric(peak_caches, "count")
        metrics["trace.overhead_s"] = _metric(round_s[True] - round_s[False], "s")
    else:
        metrics = {
            "setup_s": _metric(statistics.median(setup_times), "s"),
            "run_s": _metric(round_s[False], "s"),
            "latency_p50_s": _metric(statistics.median(medians[False].values()), "s"),
            "peak_rss_mb": _metric(peak_rss, "MB"),
        }
    result = {"correct": run.correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    detail = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(
        json.dumps({"args": vars(args), "result": result, "setup_s": setup_times, "requests": log}, indent=1) + "\n"
    )
    return result


if __name__ == "__main__":
    sys.exit(main())
