"""Run one nilgrade benchmark workload and print its metrics.

    python3 bench/run.py --workload search-ladder --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout: it imports the program from ./src and
drives the public CLI entry point `nilgrade.cli.main(argv)` in this one
process and thread, as a closed loop with a single client.  A pass is the
workload's full list of queries.  Pass 1 runs every query; later rounds
re-run the cheaper queries that did not fail (see `measure`) until
--seconds are used, and each query's time is the mean of the faster half
of its samples.  The answers are checked after the timed
passes.

--trace 0 prints the end-to-end metrics; --trace 1 runs one untraced and
one traced pass and prints the per-layer metrics (see README.md).
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import check
import workloads
from spans import Tracer

# CPU seconds; a query that runs past it has failed.  It lies near the
# geometric mean of the slowest query that passes (about 2 s) and the
# fastest known one that fails by running long (about 9 s).
QUERY_LIMIT_S = 4.5
TRACED_LIMIT_S = 6.0  # room for the tracing overhead; both passes of --trace 1 use it
QUERY_BUDGET_S = 1.0  # a query is re-run while its samples add up to less
SETUP_SAMPLES = 15
# median wall time of a fresh `python3 -c "import numpy"` on the machine
# that defined the benchmark; set-up times are reported at this speed
SETUP_REF_S = 0.19
# calibrate()'s median time on the machine that defined the benchmark (an
# Intel Xeon VM with 2 vCPUs, Python 3.11); times are reported at this speed
CAL_REF_S = 0.0055
CAL_WINDOW = 9  # queries whose calibrations give one query's speed

END_TO_END = (
    ("setup_s", "s"),
    ("verdicts_per_s", "1/s"),
    ("verdict_p50_ms", "ms"),
    ("verdict_p90_ms", "ms"),
    ("decided_ratio", "ratio"),
    ("failed_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)

# span self times reported one by one; "grading.find_weights" and
# "serialize" add up the self times of several functions
LAYER_TIMES = (
    "linineq.minimal_integer_point",
    "linineq.feasible",
    "liealg.derivations",
    "matrices.rref",
    "liealg.is_characteristically_nilpotent",
    "liealg.validate",
    "liealg.nilpotency_class",
    "liealg.is_automorphism",
    "specmaps.is_expanding",
    "specmaps.schur_all_inside",
    "specmaps.semisimple_part",
    "specmaps.norm_profile",
    "matrices.charpoly",
    "matrices.minpoly",
    "matrices.det",
    "polynomials.factor_over_q",
    "matrices.primary_decomposition",
    "grading.find_weights",
    "grading.verify_grading",
    "grading.phi_p",
    "holonomy.close_group",
    "holonomy.equivariant_weight_search",
    "latpow.power_into_lattice",
    "matrices.order_mod",
    "latpow.orbit_escapes_lattice",
    "cli.main",
    "cli.build_parser",
    "serialize",
    "verdict.to_json",
)
GROUPS = {
    "grading.find_weights": ("grading.find_positive_weights", "grading.find_nonneg_nontrivial_weights"),
}
LAYER_COUNTS = (
    ("linineq.minimal_integer_point.shells", "count"),
    ("linineq.feasible.calls", "count"),
    ("liealg.derivations.system_cells", "count"),
    ("matrices.rref.calls", "count"),
    ("matrices.rref.cells", "count"),
    ("liealg.is_characteristically_nilpotent.undecided", "count"),
    ("specmaps.is_expanding.charpoly_bits", "bit"),
    ("polynomials.factor_over_q.calls", "count"),
    ("polynomials.factor_over_q.max_degree", "degree"),
    ("latpow.power_into_lattice.k_sum", "count"),
    ("matrices.order_mod.order_sum", "count"),
)
TRACE_TOTALS = (
    ("other.self_s", "s"),
    ("bench.query.self_s", "s"),
    ("trace.self_sum_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.accounted_share", "ratio"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
)
PER_LAYER = tuple((f"{n}.self_s", "s") for n in LAYER_TIMES) + LAYER_COUNTS + TRACE_TOTALS


class QueryTimeout(BaseException):
    """Ends a query past its CPU-time limit.  Not an Exception, so the
    program under test cannot catch it."""


def install_timeout(src: Path):
    """Make SIGPROF end the running query where that is safe.

    Raising from the signal handler itself can crash the interpreter: numpy
    polls for signals inside its object-array loops and does not survive an
    exception raised there (seen with numpy 2.4 on Python 3.11).  So the
    handler only installs a profile hook, and the hook raises QueryTimeout
    at the next call made from the program's own code, which numpy never
    calls back into.
    """
    root = os.path.realpath(src / "nilgrade") + os.sep
    ours: dict = {}

    def hook(frame, event, arg):
        code = frame.f_code
        if code not in ours:
            ours[code] = os.path.realpath(code.co_filename).startswith(root)
        if ours[code] and event in ("call", "c_call"):
            sys.setprofile(None)
            raise QueryTimeout()

    signal.signal(signal.SIGPROF, lambda signum, frame: sys.setprofile(hook))


def calibrate() -> float:
    """Wall time of a fixed exact-arithmetic kernel that calls no nilgrade
    code.  The machine's speed swings by a quarter within seconds; this
    kernel, run before every query, tracks it."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 1500):
        total += Fraction(1, i % 97 + 1)
    return time.perf_counter() - start


@dataclass
class Outcome:
    status: str  # "ok", "exit 2", "timeout" or "raised <type>"
    stdout: str
    seconds: float  # wall time of the main(argv) call
    cal: float  # calibrate() just before it
    scaled: float = 0.0  # seconds at the reference speed (see scale_to_reference)


class Runner:
    """Calls the CLI in-process, one query at a time, under a CPU limit.

    `cli` is the nilgrade.cli module; `cli.main` is looked up per call, so
    a traced run goes through the tracer's wrapper.
    """

    def __init__(self, cli, limit: float, tracer=None, calibrated: bool = True):
        self.cli = cli
        self.limit = limit
        self.tracer = tracer
        self.calibrated = calibrated
        self.history: list[Outcome] = []  # every outcome, in the order run

    def query(self, argv: list[str]) -> Outcome:
        cal = calibrate() if self.calibrated else 0.0
        out = io.StringIO()
        status = "ok"
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_PROF, self.limit)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                if self.tracer is None:
                    code = self.cli.main(argv)
                else:
                    code = self.tracer.span("bench.query", self.cli.main, argv)
            if code not in (0, 1):
                status = f"exit {code}"
        except QueryTimeout:
            status = "timeout"
        except KeyboardInterrupt:
            raise
        except BaseException as exc:  # the program raised: a failed query
            status = f"raised {type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            sys.setprofile(None)
        seconds = time.perf_counter() - start
        if self.tracer is not None:
            self.tracer.clear_stack()
        outcome = Outcome(status, out.getvalue(), seconds, cal)
        self.history.append(outcome)
        return outcome

    def run_pass(self, queries) -> tuple[float, list[Outcome]]:
        start = time.perf_counter()
        outcomes = []
        for i, q in enumerate(queries):
            if self.tracer is not None:
                self.tracer.query = i
            outcomes.append(self.query(q.argv))
        return time.perf_counter() - start, outcomes

    def replay(self, argv: list[str]) -> dict | None:
        """One untimed call for the answer checks: the verdict, or None."""
        outcome = self.query(argv)
        return json.loads(outcome.stdout) if outcome.status == "ok" else None


def scale_to_reference(history: list[Outcome], limit: float):
    """Set each outcome's time at the reference speed: its wall time times
    CAL_REF_S over the median calibration of the CAL_WINDOW outcomes
    around it.  A timed-out query counts the limit."""
    cals = [o.cal for o in history]
    half = CAL_WINDOW // 2
    for j, o in enumerate(history):
        speed = CAL_REF_S / statistics.median(cals[max(0, j - half) : j + half + 1])
        o.scaled = limit if o.status == "timeout" else o.seconds * speed


class SetupTimer:
    """Wall time of a fresh interpreter importing nilgrade.cli, at the
    reference speed.

    Each import is followed by a calibration import of numpy alone (no
    nilgrade code), which the machine's speed swings slow down alike, and
    is scaled by SETUP_REF_S over that time.  calibrate(), run in this
    process, does not track a child's start-up.  `tick()`, called between
    queries, takes one of SETUP_SAMPLES scaled imports spread evenly over
    the run, and `median()` is their median.
    """

    def __init__(self, src: Path, seconds: float):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), self.env.get("PYTHONPATH")) if p)
        self.cmd = [sys.executable, "-c", "import nilgrade.cli"]
        self.ref = [sys.executable, "-c", "import numpy"]
        self._wall(self.cmd)  # compiles the bytecode once
        self.every = seconds / SETUP_SAMPLES
        self.due = time.perf_counter()
        self.times: list[float] = []
        self.raw: list[float] = []

    def _wall(self, cmd) -> float:
        start = time.perf_counter()
        subprocess.run(cmd, env=self.env, check=True)
        return time.perf_counter() - start

    def sample(self):
        wall = self._wall(self.cmd)
        self.raw.append(wall)
        self.times.append(wall * SETUP_REF_S / self._wall(self.ref))

    def tick(self):
        if len(self.times) < SETUP_SAMPLES and time.perf_counter() >= self.due:
            self.sample()
            self.due += self.every

    def median(self) -> float:
        while len(self.times) < SETUP_SAMPLES:
            self.sample()
        print(f"set-up: {SETUP_SAMPLES} imports, unscaled median {statistics.median(self.raw):.4f} s")
        return statistics.median(self.times)


class Verdicts:
    """Checks each distinct output of each query once; tallies failures."""

    def __init__(self, queries, checker):
        self.queries = queries
        self.checker = checker
        self.seen: dict[tuple[int, str], list[str]] = {}
        self.wrong: list[str] = []
        self.failures: list[str] = []

    def judge(self, i: int, outcome: Outcome) -> tuple[bool, bool]:
        """(failed, decided) for one outcome of query i."""
        q = self.queries[i]
        if outcome.status != "ok":
            self.failures.append(f"{q.label}: {outcome.status}")
            return True, False
        verdict = json.loads(outcome.stdout)
        key = (i, outcome.stdout)
        if key not in self.seen:
            self.seen[key] = self.checker.problems(q, verdict)
            self.wrong.extend(f"{q.label}: {p}" for p in self.seen[key])
        if self.seen[key]:
            return True, False
        return False, check.answer(q.argv, verdict) not in check.UNDECIDED


def faster_half(samples: list[float]) -> float:
    """A query's time: the mean of the faster half of its samples (the
    faster one of two).  Other load on the machine only ever adds time, so
    this is a steadier estimate of the query's own time than the median."""
    return statistics.mean(sorted(samples)[: (len(samples) + 1) // 2])


def weighted_quantile(values: list[float], weights: list[float], q: float) -> float:
    """The q-quantile of a weighted sample: each value sits at the middle
    of its weight on the cumulative scale, linear in between (with equal
    weights, value i of n sorted ones sits at (i + 1/2) / n)."""
    pairs = sorted(zip(values, weights))
    total = sum(weights)
    xs, ps, acc = [], [], 0.0
    for v, w in pairs:
        xs.append(v)
        ps.append((acc + w / 2) / total)
        acc += w
    if q <= ps[0]:
        return xs[0]
    for j in range(1, len(xs)):
        if q <= ps[j]:
            return xs[j - 1] + (xs[j] - xs[j - 1]) * (q - ps[j - 1]) / (ps[j] - ps[j - 1])
    return xs[-1]


def measure(runner: Runner, queries, seconds: float, setup: SetupTimer) -> list[list[Outcome]]:
    """Every query's outcomes.

    Pass 1 runs every query.  Later rounds re-run, in pass order, each
    query that has not failed and has used less than QUERY_BUDGET_S in
    total, until the next one is not expected to end within `seconds` of
    the start; the last round may stop part-way.  So a cheap query, whose
    time the machine's speed swings move most, gets many samples, and a
    query that takes seconds gets one.  The set-up imports are taken
    between queries.
    """
    start = time.perf_counter()
    samples = []
    for q in queries:
        samples.append([runner.query(q.argv)])
        setup.tick()

    def due() -> list[int]:
        return [
            i
            for i, outs in enumerate(samples)
            if outs[0].status == "ok" and sum(o.seconds for o in outs) < QUERY_BUDGET_S
        ]

    rerun = due()
    while rerun:
        for i in rerun:
            if time.perf_counter() - start + samples[i][-1].seconds > seconds:
                return samples
            samples[i].append(runner.query(queries[i].argv))
            setup.tick()
        rerun = due()
    return samples


def judge_all(samples, verdicts: Verdicts) -> tuple[list[bool], list[bool]]:
    """Per query: failed in any pass, and decided (in pass 1, not failed)."""
    failed, decided = [], []
    for i, outcomes in enumerate(samples):
        judged = [verdicts.judge(i, o) for o in outcomes]
        failed.append(any(f for f, _ in judged))
        decided.append(not failed[-1] and judged[0][1])
    return failed, decided


def end_to_end(samples, queries, failed, decided, setup_s: float, rss_mb: float) -> dict:
    """The end-to-end metrics of a pass, each query counted with its weight."""
    times = [faster_half([o.scaled for o in outcomes]) for outcomes in samples]
    raw = [faster_half([o.seconds for o in outcomes]) for outcomes in samples]
    w = [q.weight for q in queries]
    total = sum(w)
    runs = sum(len(outcomes) for outcomes in samples)
    print(
        f"{len(samples)} queries a pass (total weight {total:g}), {runs} query runs;"
        f" latency samples: {len(samples)} per-query medians"
    )
    print(
        f"unscaled wall time: p50 {1000 * weighted_quantile(raw, w, 0.5):.2f} ms,"
        f" p90 {1000 * weighted_quantile(raw, w, 0.9):.2f} ms, pass {sum(raw):.2f} s"
    )
    return {
        "setup_s": setup_s,
        "verdicts_per_s": sum(wi for wi, f in zip(w, failed) if not f) / sum(wi * t for wi, t in zip(w, times)),
        "verdict_p50_ms": 1000 * weighted_quantile(times, w, 0.5),
        "verdict_p90_ms": 1000 * weighted_quantile(times, w, 0.9),
        "decided_ratio": sum(wi for wi, d in zip(w, decided) if d) / total,
        "failed_ratio": sum(wi for wi, f in zip(w, failed) if f) / total,
        "peak_rss_mb": rss_mb,
    }


def per_layer(tracer, traced_wall: float, untraced_wall: float) -> dict:
    self_s = tracer.self_s
    values = {}
    reported = set()
    for name in LAYER_TIMES:
        if name == "serialize":
            members = [n for n in self_s if n.startswith("serialize.")]
        else:
            members = GROUPS.get(name, (name,))
        reported.update(members)
        values[f"{name}.self_s"] = sum(self_s.get(n, 0.0) for n in members)
    for name, _ in LAYER_COUNTS:
        base, key = name.rsplit(".", 1)
        values[name] = tracer.calls[base] if key == "calls" else tracer.counts[name]
    total_self = sum(self_s.values())
    values["other.self_s"] = sum(v for n, v in self_s.items() if n not in reported and n != "bench.query")
    values["bench.query.self_s"] = self_s.get("bench.query", 0.0)
    values["trace.self_sum_s"] = total_self
    values["trace.wall_s"] = traced_wall
    values["trace.accounted_share"] = total_self / traced_wall
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["trace.spans"] = len(tracer.spans)
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "nilgrade" / "cli.py").is_file():
        print(f"error: no nilgrade sources under {src}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    from nilgrade import cli

    install_timeout(src)
    work = workloads.WorkDir(root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        queries = workloads.WORKLOADS[args.workload](args.seed, work, root)
        # a traced run reports plain wall times and needs no calibration
        runner = Runner(cli, TRACED_LIMIT_S if args.trace else QUERY_LIMIT_S, calibrated=not args.trace)
        if args.trace:
            untraced_wall, first = runner.run_pass(queries)
            tracer = Tracer()
            tracer.install()
            try:
                traced_wall, traced = Runner(cli, TRACED_LIMIT_S, tracer, calibrated=False).run_pass(queries)
            finally:
                tracer.uninstall()
            samples = [[a, b] for a, b in zip(first, traced)]
        else:
            setup = SetupTimer(src, args.seconds)
            samples = measure(runner, queries, args.seconds, setup)
            setup_s = setup.median()
            scale_to_reference(runner.history, runner.limit)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        verdicts = Verdicts(queries, check.Checker(runner.replay, check.load_decisions(), work))
        failed, decided = judge_all(samples, verdicts)
        if args.trace:
            values = per_layer(tracer, traced_wall, untraced_wall)
            units = dict(PER_LAYER)
            out_dir = root / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.json")
        else:
            values = end_to_end(samples, queries, failed, decided, setup_s, rss_mb)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work.root, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.root.parent.rmdir()

    for line in verdicts.failures:
        print(f"failed: {line}", file=sys.stderr)
    for line in verdicts.wrong:
        print(f"WRONG: {line}", file=sys.stderr)
    for name, value in values.items():
        print(f"{args.workload:16s} {name:52s} {value:14.6g} {units[name]}")
    result = {
        "correct": not verdicts.wrong,
        "attempted": len(queries),
        "failed": sum(failed),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
