"""ptcompat benchmark: one workload at one seed, end to end or traced.

Run from the repository root (no build step; the package is imported
from ``src``):

    python3 perfbench/run.py --workload region-ball --seed 1 --seconds 30 --trace 0

Workloads: ``region-ball``, ``small-mix`` and ``cli-cold`` (see
``workloads.py`` and README.md).  Each runs as a closed loop with one
client: the next question starts when the previous answer is back.

``--trace 0`` asks questions for ``--seconds`` seconds and reports the
end-to-end metrics, with times scaled to a host of fixed speed
(``HostScale``).  ``--trace 1`` asks a fixed number of questions,
each untraced and then traced, and reports the per-layer metrics and
the tracing overhead.  Every answer is checked after the timed part by
``checks.py``; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
HERE = Path(__file__).resolve().parent

# traced runs ask a fixed number of questions, so their counts depend
# only on the seed
TRACE_QUESTIONS = {"region-ball": 3, "small-mix": 300, "cli-cold": 20}
# peak memory is read after this many questions, before the answers that
# the run keeps for its checks grow with throughput; cli-cold reports its
# largest child process, at the end
MEMORY_QUESTIONS = {"region-ball": 4, "small-mix": 300}
SETUP_PROBES = 11
FLOOR_PROBES = 5
# end-to-end times are scaled to a host that runs reference_loop_ms() in
# REFERENCE_MS (see HostScale)
REFERENCE_MS = 8.0
PROBE_EVERY_S = 1.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ptcompat" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'ptcompat'}; run from a ptcompat checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    questions = workloads.setup(args.workload, args.seed)
    import ptcompat

    if Path(ptcompat.__file__).resolve().parent != SRC / "ptcompat":
        print(f"error: imported ptcompat from {ptcompat.__file__}, not {SRC}", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, questions)
    _report("machine", machine())
    _report("workload", {"name": args.workload, "seed": args.seed,
                         "size": workloads.WORKLOADS[args.workload][0],
                         "why": workloads.WORKLOADS[args.workload][1],
                         "loop": "closed, one client, one process"})
    if args.trace:
        metrics = run.traced(TRACE_QUESTIONS[args.workload])
    else:
        metrics = run.timed(args.seconds)
    correct = run.failed == 0 and run.problems == []
    for problem in run.problems:
        _report("problem", problem)
    _report("failed_ratio", {"failed": run.failed, "attempted": run.attempted,
                             "value": run.failed / run.attempted})
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def _report(label, doc):
    print(f"{label}: {json.dumps(doc)}")


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "implementation": platform.python_implementation()}


def reference_loop_ms(repeats=3):
    """Median time of one fixed pure-Python loop: how fast the host runs now.

    Half of it is small-integer arithmetic and half is ``Fraction``
    arithmetic, which allocates and takes gcds as the package does.  On
    the host this was tuned on, the slow state slowed the integer half by
    1.5 times, the ``Fraction`` half by 1.9 times and a fixed block of
    ``small-mix`` questions by 1.66 times; the whole loop slows by about
    1.7 times.  It uses nothing from the package, so a change to the
    package cannot change it.
    """
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        total = 0
        for i in range(50_000):
            total += i * i % 7
        for i in range(1, 750):
            total += Fraction(i, 7) * Fraction(3, i + 1) + Fraction(1, i)
        times.append(1000.0 * (time.perf_counter() - t0))
    return statistics.median(times)


class HostScale:
    """Scales measured times to a host of fixed speed.

    The shared host this benchmark was tuned on switches, every few
    seconds to half a minute, between a fast state and a slow one in
    which the same work takes up to 1.7 times as long, and a run's
    median follows the states it meets.  So the reference loop is timed
    while the run measures: after every question that runs in a child
    process, and every PROBE_EVERY_S seconds from a timer signal inside
    questions that run in this one.  The time between two probes is
    scaled by REFERENCE_MS over the median of those two probes and their
    two neighbours, so that one stray probe moves little, and time spent
    in a probe counts for nothing: a measured interval becomes the time
    it would take on a host that runs the reference loop in REFERENCE_MS.
    The unscaled figures are printed on the ``raw:`` line.
    """

    def __init__(self):
        self.probes = []  # (start, end, reference ms)
        self._clock = None

    def probe(self):
        start = time.perf_counter()
        ms = reference_loop_ms()
        self.probes.append((start, time.perf_counter(), ms))
        self._clock = None

    @contextlib.contextmanager
    def probing(self):
        """Probe from a timer signal every PROBE_EVERY_S while the body
        runs.  The timer is re-armed after each probe, so probes never
        nest, and a signal still pending at the end does nothing."""
        active = True

        def on_timer(*_):
            if active:
                self.probe()
                signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)

        signal.signal(signal.SIGALRM, on_timer)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)
        try:
            yield
        finally:
            active = False
            signal.setitimer(signal.ITIMER_REAL, 0)

    def between(self, start, end):
        """(unscaled, scaled) seconds from ``start`` to ``end``, without
        the probes in between; both lie after the first probe and before
        the last."""
        if self._clock is None:
            probe_ms = [ms for _, _, ms in self.probes]
            ends, rates, unscaled, scaled = [], [], [0.0], [0.0]
            for i, ((_, end_i, _), (start_j, _, _)) in enumerate(zip(self.probes, self.probes[1:])):
                ends.append(end_i)
                rates.append(REFERENCE_MS / statistics.median(probe_ms[max(0, i - 1):i + 3]))
                unscaled.append(unscaled[-1] + start_j - end_i)
                scaled.append(scaled[-1] + (start_j - end_i) * rates[-1])
            self._clock = ends, rates, unscaled, scaled

        ends, rates, unscaled, scaled = self._clock

        def at(t):
            i = bisect.bisect_right(ends, t) - 1
            gap = t - ends[i]
            return unscaled[i] + gap, scaled[i] + gap * rates[i]

        (u0, s0), (u1, s1) = at(start), at(end)
        return u1 - u0, s1 - s0

    def report(self):
        probes = [ms for _, _, ms in self.probes]
        _report("host", {"reference_loop_ms": {"median": statistics.median(probes),
                                               "min": min(probes), "max": max(probes),
                                               "probes": len(probes)},
                         "scaled_to_ms": REFERENCE_MS})


@contextlib.contextmanager
def one_processor():
    """Keep this process, and the children it starts, on one processor.

    A host probe measures the processor it runs on, and on a shared host
    two processors can run at different speeds: without the pin, a
    question could move to the other one between probes, and a child
    started while this process waits for it often lands there.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class Run:
    def __init__(self, name, seed, questions):
        from ptcompat import compat

        self.name = name
        self.seed = seed
        self.questions = questions
        self.compat = compat
        self.attempted = 0
        self.failed = 0
        self.problems = []

    # -- asking questions -------------------------------------------------

    def ask(self, question, in_process=False):
        """Answer one question; returns the answer or the exception raised."""
        kind, payload, extra = question
        compat = self.compat
        try:
            if kind == "scan":
                return compat.region_boundary_scan(list(payload), [extra])[0]
            if kind == "check":
                return compat.check_compatible(list(payload))
            if kind == "index":
                return compat.compat_index(*payload)
            if kind == "membership":
                return compat.region_membership(list(payload), extra)
            if in_process:
                from ptcompat import cli

                return (0, cli.execute(_run_config(payload))[0].encode())
            done = subprocess.run([sys.executable, "-m", "ptcompat.cli", *payload],
                                  cwd=ROOT, env=child_env(), capture_output=True)
            return (done.returncode, done.stdout)
        except Exception as exc:  # a question that raises counts as failed
            return exc

    def loop(self, seconds, host, rss_after=None):
        """Closed loop over the question stream for ``seconds``, and on to
        the end of the block then under way.

        Returns [(question, answer, start, end)] and the peak resident
        memory in MB after ``rss_after`` questions, or at the end if that
        many were not asked.
        """
        stream = self.questions
        block = workloads.BLOCK_SIZE[self.name]
        in_child = self.name == "cli-cold"
        results = []
        peak_rss_mb = None
        # a child is probed after it ends; a question in this process is
        # probed by the timer inside it
        with one_processor():
            host.probe()
            with contextlib.nullcontext() if in_child else host.probing():
                started = time.perf_counter()
                while time.perf_counter() - started < seconds or len(results) % block:
                    if len(results) == rss_after:
                        peak_rss_mb = _peak_rss_mb(self.name)
                    question = stream[len(results) % len(stream)]
                    t0 = time.perf_counter()
                    answer = self.ask(question)
                    results.append((question, answer, t0, time.perf_counter()))
                    # the answers kept for the checks leave the collector's
                    # reach, so that its full passes cost what the next
                    # question allocates, not what the run has kept
                    gc.freeze()
                    if in_child:
                        host.probe()
            host.probe()
        if peak_rss_mb is None:
            peak_rss_mb = _peak_rss_mb(self.name)
        return results, peak_rss_mb

    # -- end to end -------------------------------------------------------

    def timed(self, seconds):
        if self.name == "cli-cold":  # fill .pyc caches before timing
            for args, _ in workloads.CLI_COMMANDS:
                self.ask(("cli", args, None))
        host = HostScale()
        results, peak_rss_mb = self.loop(seconds, host, MEMORY_QUESTIONS.get(self.name))
        # set-up is probed in fresh processes, before the checks load scipy;
        # each is scaled by the probes just before and after it
        probe = (f"import sys; sys.path.insert(0, {str(HERE)!r}); import workloads; "
                 f"workloads.setup({self.name!r}, {self.seed})")
        setups = []
        with one_processor():
            for _ in range(SETUP_PROBES):
                host.probe()
                t0 = time.perf_counter()
                inside = _child_seconds(probe, timed_inside=True)
                t1 = time.perf_counter()
                host.probe()
                unscaled, scaled = host.between(t0, t1)
                setups.append((inside, inside * scaled / unscaled))
        self.check_all(results)
        self.tamper_self_test()

        spans = [host.between(t0, t1) for _, _, t0, t1 in results]
        raw_ms = [1000.0 * unscaled for unscaled, _ in spans]
        times_ms = [1000.0 * scaled for _, scaled in spans]
        block = workloads.BLOCK_SIZE[self.name]
        tail, percentile = tail_latency(times_ms, block)
        _report("question_ms_tail", {"percentile": percentile, "questions": len(times_ms),
                                     "rule": "highest percentile with at least ten questions "
                                             "beyond it; with fewer than 50 questions, the "
                                             "median over blocks of each block's slowest"})
        host.report()
        _report("raw", {"setup_s": statistics.median(inside for inside, _ in setups),
                        "questions_per_s": 1000.0 * len(raw_ms) / sum(raw_ms),
                        "question_ms_p50": statistics.median(raw_ms),
                        "question_ms_tail": tail_latency(raw_ms, block)[0]})
        return {
            "setup_s": (statistics.median(scaled for _, scaled in setups), "s"),
            "questions_per_s": (1000.0 * len(times_ms) / sum(times_ms), "1/s"),
            "question_ms_p50": (statistics.median(times_ms), "ms"),
            "question_ms_tail": (tail, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    # -- traced -----------------------------------------------------------

    def traced(self, count):
        from tracing import COUNT_KEYS, Tracer

        # each question is asked untraced and traced, back to back and in
        # alternating order, so that drift in machine speed and warm-up
        # cancel out of the overhead ratio
        tracer = Tracer()
        plain, results = [], []
        origin = time.perf_counter()
        for i in range(count):
            question = self.questions[i % len(self.questions)]
            tracer.question = i
            for traced in (False, True) if i % 2 == 0 else (True, False):
                with tracer.installed() if traced else contextlib.nullcontext():
                    t0 = time.perf_counter()
                    answer = self.ask(question, in_process=True)
                    elapsed = time.perf_counter() - t0
                (results if traced else plain).append((question, answer, elapsed))
        plain_s = sum(seconds for _, _, seconds in plain)
        traced_s = sum(seconds for _, _, seconds in results)
        layers = tracer.layer_metrics(count)
        self.check_all(plain + results)
        self.tamper_self_test()

        counts = {key: layers[key] for key in COUNT_KEYS}
        self.compare_counts(counts)
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{self.name}-{self.seed}.json", origin)

        layers["cli.interpreter_ms"] = 1000.0 * statistics.median(
            _child_seconds("pass", timed_inside=False) for _ in range(FLOOR_PROBES))
        layers["cli.import_ms"] = 1000.0 * statistics.median(
            _child_seconds("import ptcompat.cli", timed_inside=True) for _ in range(FLOOR_PROBES))
        layers["trace.overhead_ratio"] = traced_s / plain_s
        _report("trace", {"questions": count, "untraced_s": plain_s, "traced_s": traced_s,
                          "spans": len(tracer.spans)})
        _report("check_mix", {"incompatible_of_checks_by_theory": tracer.incompatible_by_theory()})
        return {name: (value, _layer_unit(name)) for name, value in layers.items()}

    def compare_counts(self, counts):
        """Counts must repeat exactly at one seed for one source tree."""
        digest = hashlib.sha256()
        for path in sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py")):
            digest.update(path.read_bytes())
        OUT.mkdir(exist_ok=True)
        path = OUT / f"counts-{self.name}-{self.seed}-{digest.hexdigest()[:16]}.json"
        if path.exists():
            before = json.loads(path.read_text())
            same = before == counts
            _report("counts_repeat", {"previous_run": str(path.name), "identical": same})
            if not same:
                self.problems.append(f"counts differ from an earlier run at this seed: "
                                     f"{before} != {counts}")
        else:
            path.write_text(json.dumps(counts, sort_keys=True) + "\n")
            _report("counts_repeat", {"previous_run": None, "recorded": str(path.name)})

    # -- checks -----------------------------------------------------------

    def check_all(self, results):
        outputs = {}
        for question, answer, *_ in results:
            self.attempted += 1
            try:
                ok = not isinstance(answer, Exception) and self.check(question, answer)
            except Exception:
                self.problems.append(traceback.format_exc(limit=3))
                ok = False
            if isinstance(answer, Exception):
                self.problems.append(f"{question[0]} raised {answer!r}")
            if question[0] == "cli" and ok:
                outputs.setdefault(question[1], set()).add(answer[1])
            if not ok:
                self.failed += 1
                if len(self.problems) < 10:
                    self.problems.append(f"answer to {question[0]} question failed its check")
        for args, seen in outputs.items():
            if len(seen) != 1:
                self.problems.append(f"`{' '.join(args)}` printed {len(seen)} different outputs")
                self.failed += 1

    def check(self, question, answer) -> bool:
        kind, payload, extra = question
        if kind == "cli":
            code, stdout = answer
            return code == 0 and check_cli(payload, stdout)
        if kind == "scan":
            noises = [None if n is None else n.probs for n in answer.noises]
            return checks.scan_ok(payload, extra, answer.reach, answer.boundary, noises,
                                  _cells(answer.joint))
        if kind == "check":
            if isinstance(answer, self.compat.Compatible):
                return checks.verdict_ok(payload, cells=_cells(answer.witness))
            return checks.verdict_ok(payload, farkas=answer.certificate.farkas)
        if kind == "index":
            noise = None if answer.noise_witness is None else answer.noise_witness.probs
            return checks.index_ok(payload, answer.lambda_star, noise, _cells(answer.joint))
        # membership: the corner simplex lies inside every region, so the
        # answer must be a witness
        return (isinstance(answer, self.compat.Compatible)
                and checks.membership_ok(payload, extra, _cells(answer.witness)))

    def tamper_self_test(self):
        """One perturbed witness coefficient and one perturbed Farkas
        multiplier must each fail the checks, so that zero failures
        cannot hold vacuously."""
        pairs = workloads.cli_observables()
        compatible = pairs[("gbit-square", "D1", "D2")]
        incompatible = pairs[("gbit-square", "X", "Y")]
        cells = _cells(self.compat.check_compatible(list(compatible)).witness)
        farkas = list(self.compat.check_compatible(list(incompatible)).certificate.farkas)
        bad_cells = [list(c) for c in cells]
        bad_cells[0][0] += Fraction(1, 7)
        bad_farkas = list(farkas)
        bad_farkas[0] += Fraction(1, 7)
        verdicts = {
            "witness": checks.verdict_ok(compatible, cells=cells),
            "farkas": checks.verdict_ok(incompatible, farkas=farkas),
            "tampered witness": not checks.verdict_ok(compatible, cells=bad_cells),
            "tampered farkas": not checks.verdict_ok(incompatible, farkas=bad_farkas),
        }
        _report("tamper_self_test", verdicts)
        for name, ok in verdicts.items():
            if not ok:
                self.problems.append(f"tamper self-test: {name} was judged wrongly")


def _child_seconds(code, timed_inside):
    """Wall time of a fresh interpreter running ``code``, or with
    ``timed_inside`` only the time ``code`` itself takes in it."""
    if timed_inside:
        code = (f"import time; t = time.perf_counter(); {code}; "
                "print(repr(time.perf_counter() - t))")
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                          check=True, capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    return float(done.stdout) if timed_inside else elapsed


def _peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _cells(joint):
    return [e.coeffs for e in joint.effects]


def _run_config(args):
    from ptcompat.cli import RunConfig

    command, _, theory, first, second, *rest = args
    directions = int(rest[1]) if rest else 16
    return RunConfig(command=command, inputs=(first, second), theory=theory,
                     directions=directions, fmt="csv" if command == "region" else "json")


def check_cli(args, stdout: bytes) -> bool:
    """Compare one CLI answer with its hand-written expectation."""
    expected = dict(workloads.CLI_COMMANDS)[args]
    command, _, theory, first, second = args[:5]
    pair = workloads.cli_observables()[(theory, first, second)]
    text = stdout.decode()
    if command == "region":
        rows = [[Fraction(v) for v in line.split(",")[:5]] for line in text.splitlines()[1:]]
        return len(rows) == expected and all(r[2] == 1 and r[3:5] == r[0:2] for r in rows)
    doc = json.loads(text)
    if command == "check":
        if doc["verdict"] == "compatible":
            return expected == "compatible" and checks.verdict_ok(
                pair, cells=_rationals(doc["witness"]["effects"]))
        return expected == "incompatible" and checks.verdict_ok(
            pair, farkas=_rationals([doc["certificate"]["farkas"]])[0])
    if command == "index":
        lam = Fraction(str(doc["lambda_star"]))
        noise = doc["noise_witness"] and _rationals([doc["noise_witness"]])[0]
        return lam == expected and checks.index_ok(pair, lam, noise,
                                                   _rationals(doc["joint"]["effects"]))
    interval = doc["interval"]
    return Fraction(str(interval["lo"])) == 0 and Fraction(str(interval["hi"])) == expected


def _rationals(rows):
    """JSON rationals (integers or "num/den" strings) to Fraction tuples."""
    return [tuple(Fraction(str(c)) for c in row) for row in rows]


def tail_latency(times_ms, block):
    """(value, percentile): the highest percentile with at least ten
    samples beyond it.  With fewer than 50 samples that percentile would
    say little about the tail; then it is the median over the blocks of
    ``block`` questions of each block's slowest question, and the
    percentile is None."""
    n = len(times_ms)
    if n < 50:
        return statistics.median(max(times_ms[i:i + block]) for i in range(0, n, block)), None
    return sorted(times_ms)[n - 11], 100.0 * (n - 10) / n


def _layer_unit(name):
    if name.endswith(".calls") or name.startswith(("lp.rows_in", "lp.vars_in")):
        return "count"
    if name == "lp.input_bits.max":
        return "bits"
    if name.endswith("_share") or name == "trace.overhead_ratio":
        return "ratio"
    if name in ("cli.interpreter_ms", "cli.import_ms"):
        return "ms/process"
    if name.endswith("_p50") or name == "cli.execute.ms":
        return "ms/call"
    return "ms/question"


if __name__ == "__main__":
    sys.exit(main())
