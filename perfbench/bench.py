"""The benchmark proper: set-up, calls, checks, measurement and report.

``run.py`` is the entry point; it puts the checkout's ``src/`` on the path
before this module is imported.
"""

from __future__ import annotations

import itertools
import json
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib.metadata import version
from pathlib import Path

import cases
import probe
from vcspkit import binary_solvers, cfc, formats, renaming
from vcspkit.costs import format_cost
from vcspkit.errors import ClassViolation, FormatError
from vcspkit.instances import BinaryInstance, evaluate_binary, evaluate_count

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN = HERE / "run.py"
CHILD_ENV = {**os.environ, "PYTHONPATH": str(SRC)}
CHILD_TIMEOUT_S = 120.0
NPROC = len(os.sched_getaffinity(0))
SETUP_REPEATS = 3
START_REPEATS = 5
FORMAT_REPEATS = 3
# End-to-end times are reported as seconds on a machine where one
# ``calibrate`` loop takes this long.
CALIBRATION_REFERENCE_S = 0.010
# the traced run takes at least this many traced passes, and as many
# untraced ones, so that every per-layer value is a median
MIN_TRACED_PASSES = 3
# A traced CLI process runs the command through this instead of
# ``-m vcspkit.cli`` and writes when its first statement ran, when the
# import of vcspkit.cli ended and when the command returned, to argv[1].
CLI_SHIM = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import vcspkit.cli\n"
    "t1 = time.perf_counter()\n"
    "code = vcspkit.cli.main(sys.argv[2:])\n"
    "sys.stdout.flush()\n"
    "with open(sys.argv[1], 'w') as f:\n"
    "    f.write(f'{t0!r} {t1!r} {time.perf_counter()!r}')\n"
    "sys.exit(code)\n"
)

CALLS = {
    "dispatch": (binary_solvers, "dispatch"),
    "solve_cfc": (cfc, "solve_cfc"),
    "solve_renamable": (renaming, "solve_renamable"),
}
END_TO_END = (
    ("wall_s", "s"),
    ("call_s.p50", "s"),
    ("call_s.p90", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class Child:
    code: int
    stdout: bytes
    stderr: bytes
    start: float
    seconds: float
    rss_mb: float


def run_child(argv):
    """Run one process to its end with the checkout's sources; time it and
    read its peak resident memory.  A process past the timeout is killed."""
    cases.INPUT_DIR.mkdir(parents=True, exist_ok=True)
    out_path, err_path = cases.INPUT_DIR / "child.out", cases.INPUT_DIR / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                cwd=ROOT, env=CHILD_ENV)
        pidfd = os.pidfd_open(proc.pid)
        try:
            if not select.select([pidfd], [], [], CHILD_TIMEOUT_S)[0]:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, out_path.read_bytes(), err_path.read_bytes(),
                 start, seconds, usage.ru_maxrss / 1024)


# ---------------------------------------------------------------------------
# inputs


def calibrate():
    """Seconds of a fixed pure-Python loop, timed between the timed work.

    On a machine shared with other work, the speed one process gets drifts
    by a fifth or more from one minute to the next, and calls slow by up to
    half in episodes of a few seconds.  Each timed call or set-up process
    lies between two of these loops, and its seconds are scaled by
    CALIBRATION_REFERENCE_S over their mean: times so scaled vary less
    from run to run than raw seconds (quartile spreads of 0.09 against 0.17
    over eight 15 s runs of the same binary-dispatch inputs, 0.05 against
    0.17 on cfc-laminar).  The loop is the benchmark's own code, so a change
    to vcspkit cannot alter it.
    """
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return time.perf_counter() - start


class Calibration:
    """Calibration marks between timed pieces of work; a mark is the median
    of ``loops`` calibration loops."""

    def __init__(self, loops=1):
        self.per_mark = loops
        self.marks = []
        self.mark()

    def mark(self):
        self.marks.append(statistics.median(calibrate() for _ in range(self.per_mark)))

    def scale(self, seconds):
        """Seconds of work that began after the last mark and has just
        ended, scaled by the mean of that mark and a new one."""
        self.mark()
        return seconds * CALIBRATION_REFERENCE_S / statistics.mean(self.marks[-2:])


def set_up(workload, seed):
    """(seconds of each set-up process, the same scaled, median mark); the
    processes run one after another, between marks of three loops."""
    raw, scaled, cal = [], [], Calibration(loops=3)
    for _ in range(SETUP_REPEATS):
        child = run_child([sys.executable, str(RUN), "--make-inputs",
                           "--workload", workload, "--seed", str(seed)])
        if child.code != 0:
            sys.exit(f"perfbench: set-up failed:\n{child.stderr.decode(errors='replace')}")
        raw.append(child.seconds)
        scaled.append(cal.scale(child.seconds))
    return raw, scaled, statistics.median(cal.marks)


@dataclass
class Input:
    case: cases.Case
    path: Path
    text: str
    inst: object
    problem: str | None  # set when every call on this input must count as failed


def input_problem(case, inst, ref):
    if cases.digest(inst) != ref["digest"]:
        return "input differs from the reference input; rebuild refs.json"
    if formats.parse_instance(formats.serialize_instance(inst)) != inst:
        return "serialise then parse does not give the same instance"
    if case.route is not None and not cases.has_route_shape(case, inst):
        return f"input lacks the shape of the {case.route} route"
    return None


def load_inputs(workload, refs):
    """Parse the inputs the set-up wrote and check them against the
    references: instance digest, round trip, and the workload's claimed
    shape."""
    inputs = []
    for case in cases.workload_cases(workload):
        if case.kind == "fixture":
            path = ROOT / "fixtures" / f"{case.id}.json"
        else:
            path = cases.INPUT_DIR / workload / f"{case.id}.json"
        text = path.read_text("utf-8")
        try:
            inst = formats.parse_instance(text)
        except FormatError as exc:
            inst, problem = None, f"input does not parse: {exc}"
        else:
            problem = input_problem(case, inst, refs[case.id])
        inputs.append(Input(case, path, text, inst, problem))
    if workload in cases.NON_LAMINAR_SHARE:
        want = cases.NON_LAMINAR_SHARE[workload]
        share = sum(i.inst is None or not cases.is_laminar(i.inst) for i in inputs) / len(inputs)
        if share != want:
            for i in inputs:
                i.problem = i.problem or f"non-laminar share {share}, expected {want}"
    return inputs


# ---------------------------------------------------------------------------
# calls


class SolveCall:
    """One in-process call of a public solving function on one input."""

    span = None  # the probe wraps the function itself

    def __init__(self, inp, ref):
        self.module, self.name = CALLS[inp.case.call]
        self.id = inp.case.id
        self.inp = inp
        self.ref = ref
        self.count = not isinstance(inp.inst, BinaryInstance)
        self.evaluate = evaluate_count if self.count else evaluate_binary
        self.verified = set()

    def invoke(self, tracer):
        # looked up per call, so that the probe's wrapper is used when installed
        return getattr(self.module, self.name)(self.inp.inst)

    def check(self, res):
        if self.inp.problem:
            return self.inp.problem
        if res.cost is None:
            return f"unsolved by {res.solver}"
        if self.count and res.cost.is_infinite:
            return "infinite optimum on a count instance"
        cost = format_cost(res.cost)
        if cost != self.ref["cost"]:
            return f"cost {cost}, reference {self.ref['cost']}"
        if res.solver != self.ref["solver"]:
            return f"route {res.solver}, expected {self.ref['solver']}"
        if res.assignment not in self.verified:
            got = self.evaluate(self.inp.inst, res.assignment)
            if got != res.cost:
                return f"assignment evaluates to {format_cost(got)}, reported {cost}"
            self.verified.add(res.assignment)
        return None


class CliCall:
    """One ``vcspkit`` process on one input file."""

    def __init__(self, inp, command, ref):
        self.id = f"{inp.case.id}: {' '.join(command)}"
        self.span = f"cli.{command[0]}"
        self.argv = [sys.executable, "-m", "vcspkit.cli", command[0], str(inp.path),
                     *command[1:]]
        self.command = command
        self.inp = inp
        self.ref = ref
        self.peak_mb = 0.0
        self.inprocess_cost = None
        if inp.inst is not None:
            try:
                self.inprocess_cost = inprocess_cost(command, inp.inst)
            except Exception as exc:  # the CLI's answer then cannot match
                self.inprocess_cost = f"in-process call raised {type(exc).__name__}: {exc}"

    def invoke(self, tracer):
        if tracer is None:
            child = run_child(self.argv)
        else:
            child = self.invoke_traced(tracer)
        self.peak_mb = max(self.peak_mb, child.rss_mb)
        return child

    def invoke_traced(self, tracer):
        """Run the command through CLI_SHIM and record, inside the open
        top-level span, the spans of its interpreter start, import, command
        and exit (interpreter teardown until the process has ended).  The
        clock is system-wide, so the child's readings compare with ours."""
        stamps = cases.INPUT_DIR / "child.spans"
        stamps.unlink(missing_ok=True)
        child = run_child([sys.executable, "-c", CLI_SHIM, str(stamps), *self.argv[3:]])
        if stamps.is_file():
            t0, t1, t2 = map(float, stamps.read_text().split())
            tracer.record("cli.start", child.start, t0)
            tracer.record("cli.import", t0, t1)
            tracer.record("cli.command", t1, t2)
            tracer.record("cli.exit", t2, child.start + child.seconds)
        return child

    def check(self, child):
        if self.inp.problem:
            return self.inp.problem
        if child.code != 0:
            return f"exit code {child.code}: {child.stderr.decode(errors='replace')[-300:]}"
        try:
            doc = json.loads(child.stdout)
        except ValueError:
            return "stdout is not exactly one JSON document"
        answer = cases.cli_answer(self.command, doc)
        if answer != self.ref:
            return f"answer {answer}, reference {self.ref}"
        if "cost" in answer and answer["cost"] != self.inprocess_cost:
            return f"cost {answer['cost']}, in-process {self.inprocess_cost}"
        return None


def inprocess_cost(command, inst):
    """The cost the public solving function gives for a command that
    reports one."""
    name = command[0]
    if name == "solve":
        return format_cost(binary_solvers.dispatch(inst).cost)
    if name == "solve-cfc":
        return format_cost(cfc.solve_cfc(inst).cost)
    if name == "rename":
        try:
            return format_cost(renaming.solve_renamable(inst).cost)
        except ClassViolation:
            return None
    return None


def make_calls(workload, inputs, refs):
    if workload != "cli-small":
        return [SolveCall(i, refs[i.case.id]) for i in inputs]
    return [CliCall(i, command, refs[i.case.id]["cli"][" ".join(command)])
            for i in inputs for command in cases.cli_commands(i.case)]


# ---------------------------------------------------------------------------
# measurement


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def record(self, call_id, error):
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(f"{call_id}: {error}")


def attempt(call, tracer):
    """(seconds, error or None) of one call; a call that raises has failed."""
    start = time.perf_counter()
    try:
        if tracer is not None and call.span:
            with tracer.span(call.span):
                out = call.invoke(tracer)
        else:
            out = call.invoke(tracer)
    except Exception as exc:  # any exception is a failed call
        return time.perf_counter() - start, f"raised {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    try:
        return seconds, call.check(out)
    except Exception as exc:  # a malformed answer is a failed call
        return seconds, f"check raised {type(exc).__name__}: {exc}"


def run_pass(calls, samples, tally, tracer=None):
    """One call of each, in order; appends each call's seconds to its samples."""
    for c in calls:
        elapsed, error = attempt(c, tracer)
        samples[c.id].append(elapsed)
        tally.record(c.id, error)


def measure(calls, seconds, tally):
    """Calls in order, round after round, between calibration marks, until
    ``seconds`` have passed and every call has run at least once; (the
    seconds of each call, per call; the same scaled; median mark)."""
    raw = {c.id: [] for c in calls}
    scaled = {c.id: [] for c in calls}
    cal = Calibration()
    start = time.perf_counter()
    for k, c in enumerate(itertools.cycle(calls)):
        if k >= len(calls) and time.perf_counter() - start >= seconds:
            return raw, scaled, statistics.median(cal.marks)
        elapsed, error = attempt(c, None)
        raw[c.id].append(elapsed)
        scaled[c.id].append(cal.scale(elapsed))
        tally.record(c.id, error)


def per_call(samples):
    """Each call's seconds, as its median over the passes."""
    return [statistics.median(v) for v in samples.values()]


def wall(samples):
    """Seconds to solve the instance set once."""
    return sum(per_call(samples))


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def times(samples, setup_seconds):
    calls_s = per_call(samples)
    taken = sum(len(v) for v in samples.values())
    return {
        "wall_s": (sum(calls_s), taken),
        "call_s.p50": (statistics.median(calls_s), taken),
        "call_s.p90": (percentile(calls_s, 90), taken),
        "setup_s": (statistics.median(setup_seconds), len(setup_seconds)),
    }


def end_to_end(workload, calls, measured, set_up_):
    """(metrics from the scaled times, the raw times and median marks)."""
    raw, scaled, mark = measured
    setup_raw, setup_scaled, setup_mark = set_up_
    metrics = times(scaled, setup_scaled)
    taken = metrics["wall_s"][1]
    if workload == "cli-small":
        metrics["peak_rss_mb"] = (max(c.peak_mb for c in calls), taken)
    else:
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    unscaled = {m: value for m, (value, _) in times(raw, setup_raw).items()}
    unscaled.update(calibration_s=mark, setup_calibration_s=setup_mark)
    return metrics, unscaled


def median_start(argv):
    return statistics.median(run_child(argv).seconds for _ in range(START_REPEATS))


def format_seconds(inputs):
    """Median seconds to parse every input text, and to dump every input's
    document, in-process."""
    texts = [i.text for i in inputs]
    docs = [formats.binary_to_doc(i.inst) if isinstance(i.inst, BinaryInstance)
            else formats.count_to_doc(i.inst) for i in inputs if i.inst is not None]

    def timed(fn, items):
        start = time.perf_counter()
        for item in items:
            fn(item)
        return time.perf_counter() - start

    parse = statistics.median(timed(formats.parse_instance, texts) for _ in range(FORMAT_REPEATS))
    dumps = statistics.median(timed(formats.dumps, docs) for _ in range(FORMAT_REPEATS))
    return parse, dumps


def per_layer(calls, inputs, seconds, tally):
    """Per-layer values, each the median over the traced passes, which take
    half of the measured time; at least MIN_TRACED_PASSES of them."""
    untraced = {c.id: [] for c in calls}
    traced = {c.id: [] for c in calls}
    tracer = probe.Probe()
    start = time.perf_counter()
    # untraced and traced passes alternate, and so does their order, so
    # that drift during the run does not show as tracing overhead
    while (len(tracer.passes) < MIN_TRACED_PASSES
           or time.perf_counter() - start < seconds):
        for on in (False, True) if len(tracer.passes) % 2 == 0 else (True, False):
            if on:
                with tracer:
                    run_pass(calls, traced, tally, tracer)
                tracer.end_pass()
            else:
                run_pass(calls, untraced, tally)
    passes = [probe.pass_metrics(stats, counts) for stats, counts, _, _ in tracer.passes]
    n = len(passes)
    out = {m: (statistics.median(v[m] for v in passes), n) for m in passes[0]}
    covered = [inside / top for _, _, top, inside in tracer.passes]
    out["trace.coverage"] = (statistics.median(covered), n)
    out["trace.overhead"] = (wall(traced) / wall(untraced) - 1, n)

    interpreter = median_start([sys.executable, "-c", "pass"])
    imported = median_start([sys.executable, "-c", "import vcspkit.cli"])
    out["cli.interpreter_s"] = (interpreter, START_REPEATS)
    out["cli.import_s"] = (imported - interpreter, START_REPEATS)
    parse, dumps = format_seconds(inputs)
    out["formats.parse_instance_s"] = (parse, FORMAT_REPEATS)
    out["formats.dumps_s"] = (dumps, FORMAT_REPEATS)
    return out, tracer.absent()


# ---------------------------------------------------------------------------
# report


def environment(seed, refs_commit):
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), platform.machine())
    except OSError:
        cpu = platform.machine()
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = "unknown"
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": NPROC,
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "networkx": version("networkx"),
        "commit": commit,
        "refs_commit": refs_commit,
        "seed": seed,
        "slot": seed % cases.SLOTS,
        "default_seed": cases.DEFAULT_SEED,
        "held_out_seed": cases.HELD_OUT_SEED,
    }


def check_declared(trace):
    """Exit unless the metrics this run reports are the ones BENCHMARK.json
    declares, in the same order and units."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    if trace:
        want = [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]]
        have = [(m, unit, better) for m, unit, better, _, _ in probe.METRICS]
    else:
        want = [(m["name"], m["unit"]) for m in declared["end_to_end"]]
        have = list(END_TO_END)
    if want != have:
        sys.exit(f"perfbench: BENCHMARK.json declares {want}, the runner reports {have}")


def report(env, metrics, units, tally, absent, unscaled, out_path):
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, n) in metrics.items():
        print(f"{name:<52} {value:>14.6g} {units[name]:<6} n={n}")
    if unscaled:
        print(f"times above are scaled to a {CALIBRATION_REFERENCE_S} s calibration loop; "
              "unscaled " + json.dumps(unscaled))
    print(f"fail_ratio {tally.failed}/{tally.attempted}")
    for error in tally.errors:
        print(f"failed: {error}")
    for name in absent:
        print(f"absent: {name}: what it reads is gone; left out of the result")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in metrics.items() if name not in absent},
    }
    if out_path is not None:
        doc = {"environment": env, "result": result, "errors": tally.errors, "absent": absent,
               "samples": {name: n for name, (_, n) in metrics.items()}, "unscaled": unscaled}
        out_path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))


def run(workload, seed, seconds, trace, out_path):
    check_declared(trace)
    # One CPU for this process and every process it starts, so that the
    # calibration loops run where the timed work runs: the CPUs of a shared
    # machine are slowed by other work independently of each other.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not Path(sys.modules["vcspkit"].__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: vcspkit was imported from outside {SRC}")
    refs, refs_commit = cases.load_refs(workload, seed)
    setup = set_up(workload, seed)
    inputs = load_inputs(workload, refs)
    calls = make_calls(workload, inputs, refs)

    tally = Tally()
    if workload == "cli-small":
        # a pass of CLI processes is long; one process per command warms
        # the file cache and the compiled bytecode
        first = {}
        for c in calls:
            first.setdefault(c.command[0], c)
        warm = list(first.values())
    else:
        warm = calls
    run_pass(warm, {c.id: [] for c in warm}, tally)
    if trace:
        metrics, absent = per_layer(calls, inputs, seconds, tally)
        units = {m: unit for m, unit, _, _, _ in probe.METRICS}
        metrics = {m: metrics[m] for m in units}
        unscaled = None
    else:
        metrics, unscaled = end_to_end(workload, calls, measure(calls, seconds, tally), setup)
        absent = []
        units = dict(END_TO_END)
    report(environment(seed, refs_commit), metrics, units, tally, absent, unscaled, out_path)
