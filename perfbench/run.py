"""One benchmark for In-Net's users.

Run from the repository root::

    python3 perfbench/run.py --workload admit-churn --seed 1 --seconds 28 --trace 0

Workloads (``BENCHMARK.json`` says why each was chosen):

* ``admit-churn``    -- tenant admissions, kills and operator policy
  edits on a long middlebox chain fanning out to 16 platforms;
* ``trace-replay``   -- MAWI-calibrated packet bursts through three
  admitted tenant modules;
* ``shard-failover`` -- committed admissions and kills on a 2-shard
  federation with ~1k journaled residents per shard, failing and
  reviving a shard every 10 operations.

Each run measures for ``--seconds``.  Every run reports every gated
end-to-end metric, so the metrics the named workload does not exercise
come from *companion* passes of the other two workloads at reduced
state (``small=True``), labelled ``from=<workload>`` in the output;
``perfbench/FINDINGS.md`` lists which operation each metric times on
each workload.  Each companion lives in its own process, so its garbage
and collector passes never land in the named workload's timings; the
parent drives it in lock-step, so only one process runs at a time.  The
time is split into slots of :data:`SLOT_S`; in each the named workload
runs one round for :data:`FOCUS_SHARE` of the slot and every companion
one round in an equal part of the rest.  Times are reported at a
reference machine pace: a calibration kernel that runs none of the
program's code is timed right before every operation, and each
operation's wall time is scaled by ``PACE_REF`` over the kernel's time
(see ``workloads.Workload``); the text output also prints the kernel's
quartiles over the run.

``setup_s`` is always the named workload's own set-up: the median of
:data:`SETUPS` fresh set-ups, each scaled by the mean kernel time
around it.  The first is the one the run uses; the others run in a
child process, lock-stepped between rounds and spread over the whole
run, so the measuring process builds its state once and
``rss_peak_mb`` (its peak RSS once the named workload has made
``rss_steps`` operations) shows what the run itself adds.

``--trace 1`` runs the named workload untraced and then traced for
equal times, reports the per-layer metrics (span self times and counter
deltas) and the tracing overhead, and writes Chrome trace-event JSON
plus a per-layer self-time table under ``.perfbench/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run in a
directory without the program's source exits with status 2 and prints
no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: Fresh set-ups per run; ``setup_s`` is their median.
SETUPS = 9

#: The measured time is split into slots of about this many seconds.
#: In each, the named workload runs one round for FOCUS_SHARE of the
#: slot and every companion one round in an equal part of the rest.
#: Interleaving spreads every workload's rounds over the whole run, so
#: each sees the machine's fast and slow stretches alike.
SLOT_S = 0.4
FOCUS_SHARE = 0.75

#: Workload -> companions that fill the metrics it does not produce.
COMPANIONS = {
    "admit-churn": ("shard-failover", "trace-replay"),
    "trace-replay": ("shard-failover", "admit-churn"),
    "shard-failover": ("admit-churn", "trace-replay"),
}

#: (metric, unit) -- the gated end-to-end metrics, in output order.
END_TO_END = (
    ("setup_s", "s"),
    ("admit_p50_ms", "ms"),
    ("admit_p95_ms", "ms"),
    ("reverify_p50_ms", "ms"),
    ("ctl_ops_per_s", "ops/s"),
    ("failover_p50_ms", "ms"),
    ("handback_p50_ms", "ms"),
    ("pkt_per_s", "pkt/s"),
    ("batch_p50_us", "us"),
    ("batch_p99_us", "us"),
    ("rss_peak_mb", "MB"),
)


def machine() -> dict:
    """Cores, CPU model, Python and numpy versions."""
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"cores": os.cpu_count(), "cpu": model,
            "python": platform.python_version(), "numpy": numpy_version}


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=sorted(COMPANIONS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: run as one of the parent's lock-stepped children.
    parser.add_argument("--child", choices=("companion", "setups"),
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def pin_hash_seed(argv) -> None:
    """Re-execute under ``PYTHONHASHSEED=0`` (set iteration order in the
    verifier depends on it), as the repository's gates do."""
    if os.environ.get("PYTHONHASHSEED") == "0":
        return
    env = dict(os.environ, PYTHONHASHSEED="0")
    os.execve(sys.executable,
              [sys.executable, os.path.abspath(__file__)] + list(argv), env)


def timed_setup(workload) -> tuple:
    """(machine pace, wall seconds) of one fresh set-up of
    ``workload``; input generation is not timed."""
    from workloads import machine_pace

    workload.generate()
    # Start every timed region from the same collector state.
    gc.collect()
    before = machine_pace()
    started = time.perf_counter()
    workload.setup()
    elapsed = time.perf_counter() - started
    pace = (before + machine_pace()) / 2.0
    gc.collect()
    return pace, elapsed


def setup_main(conn, name: str, seed: int) -> None:
    """Make one timed fresh set-up of ``name`` per ``setup`` command, in
    a throwaway process; each is dropped once timed."""
    from workloads import WORKLOADS

    conn.send("ready")
    while conn.recv()[0] == "setup":
        conn.send(timed_setup(WORKLOADS[name](seed)))


def setup_seconds(times) -> float:
    """``setup_s`` from (pace, seconds) pairs: the median of the
    set-up times scaled to the reference pace."""
    from workloads import PACE_REF

    return statistics.median(
        seconds * PACE_REF / pace for pace, seconds in times)


def traced_phase(workload, seconds, recorders, rounds=1):
    """Run ``workload`` traced for ``seconds`` (in ``rounds`` rounds);
    returns its per-layer metrics."""
    from layers import (Tracing, controller_counters, counter_delta,
                        layer_metrics)
    from spans import Recorder
    from repro.symexec import tuning

    recorder = Recorder()
    tracing = Tracing(recorder, getattr(workload, "runtime_names", None))
    caches_before = controller_counters(workload.controllers())
    symexec_before = tuning.counters()
    workload.mark()
    started = time.perf_counter()
    tracing.install()
    try:
        for _ in range(rounds):
            workload.run(time.perf_counter() + seconds / rounds,
                         recorder=recorder)
    finally:
        tracing.remove()
    extras = dict(workload.layer_extras(),
                  phase_s=time.perf_counter() - started)
    caches = counter_delta(caches_before,
                           controller_counters(workload.controllers()))
    symexec_after = tuning.counters()
    symexec = {key: symexec_after[key] - symexec_before[key]
               for key in symexec_after}
    recorders.append((workload.name, recorder))
    return layer_metrics(recorder, symexec, caches, extras)


def companion_main(conn, name: str, seed: int) -> None:
    """Host one companion workload in its own process.

    Its own heap keeps its garbage, and the collector passes that
    garbage triggers, out of the named workload's timings.  The parent
    drives it in lock-step over ``conn``, so the two never compete for
    a core.
    """
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, small=True)
    timed_setup(workload)
    conn.send("ready")
    recorders = []
    while True:
        command, seconds = conn.recv()
        if command == "run":
            workload.run(time.perf_counter() + seconds)
            conn.send(None)
        elif command == "trace":
            conn.send(traced_phase(workload, seconds, recorders))
        elif command == "stop":
            return
        else:
            if command == "finish":
                workload.top_up()
            workload.verify()
            conn.send({
                "metrics": workload.metrics() if command == "finish" else {},
                "attempted": workload.attempted,
                "failures": workload.failures,
                "recorders": recorders,
            })
            return


class Channel:
    """Pickled messages over a pair of byte streams (a child's stdin and
    stdout, seen from either end)."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    def send(self, message) -> None:
        pickle.dump(message, self.writer, protocol=pickle.HIGHEST_PROTOCOL)
        self.writer.flush()

    def recv(self):
        return pickle.load(self.reader)


class Companion:
    """Parent-side handle of a lock-stepped child process: a companion
    workload (``companion_main``) or the extra set-ups (``setup_main``).

    The child is this script re-run with ``--child``; it talks over its
    stdin and stdout, and ends when told to or when its stdin closes.
    No other helper process is started, and :meth:`close` waits for the
    child to exit.
    """

    def __init__(self, name: str, seed: int, role: str = "companion"):
        self.name = name
        self.process = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--child", role,
             "--workload", name, "--seed", str(seed), "--seconds", "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.conn = Channel(self.process.stdout, self.process.stdin)
        self.report: dict = {}

    def call(self, command: str, seconds: float = 0.0):
        self.conn.send((command, seconds))
        return self.conn.recv()

    def close(self) -> None:
        if self.process.poll() is None:
            try:
                self.conn.send(("stop", 0.0))
            except OSError:
                pass
        for stream in (self.process.stdin, self.process.stdout):
            try:
                stream.close()
            except OSError:
                pass
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()


def child_main(args) -> int:
    """Entry point of a child: replies go to the real stdout, anything
    the program prints goes to stderr."""
    conn = Channel(sys.stdin.buffer, sys.stdout.buffer)
    sys.stdout = sys.stderr
    target = companion_main if args.child == "companion" else setup_main
    try:
        target(conn, args.workload, args.seed)
    except EOFError:
        # The parent went away; nothing is left to report to.
        return 1
    return 0


def measure(args, focus, companions, setups=None, setup_times=None):
    """Run the named workload in rounds, lock-stepped with its
    companions and, untraced, with the extra set-ups, which are
    appended to ``setup_times``.

    Returns ``(values, sources, recorders)``: metric -> value (a
    ``(value, unit, n)`` triple untraced, a number traced), metric ->
    the workload that produced it, and the traced phases' recorders.
    """
    recorders = []
    produced = {}
    if args.trace:
        # Untraced, then traced, in equal rounds; the overhead compares
        # the two phases' scaled rates.
        share = args.seconds * (1.0 - FOCUS_SHARE) / len(companions)
        half = args.seconds * FOCUS_SHARE / 2.0
        rounds = max(1, round(args.seconds / SLOT_S / 2))
        first = focus.steps
        for _ in range(rounds):
            focus.run(time.perf_counter() + half / rounds)
        untraced = range(first + 1, focus.steps + 1)
        produced[focus.name] = traced_phase(focus, half, recorders, rounds)
        traced = range(untraced.stop, focus.steps + 1)
        produced[focus.name]["bench.trace_overhead_frac"] = (
            focus.rate("", untraced)[0] / focus.rate("", traced)[0] - 1.0)
        for companion in companions:
            produced[companion.name] = companion.call("trace", share)
            companion.report = companion.call("verify")
            recorders.extend(companion.report["recorders"])
    else:
        # Slots until the wall clock runs out: the pace timings and the
        # extra set-ups fall inside --seconds too.
        started = time.perf_counter()
        end = started + args.seconds
        setup_at = [started + (k + 0.5) * args.seconds / (SETUPS - 1)
                    for k in range(SETUPS - 1)]
        share = SLOT_S * (1.0 - FOCUS_SHARE) / len(companions)
        while time.perf_counter() < end:
            focus.run(time.perf_counter() + SLOT_S * FOCUS_SHARE)
            for companion in companions:
                companion.call("run", share)
            if setup_at and time.perf_counter() >= setup_at[0]:
                setup_at.pop(0)
                setup_times.append(setups.call("setup"))
        while len(setup_times) < SETUPS:
            setup_times.append(setups.call("setup"))
        focus.top_up()
        while focus.rss_mb is None:
            focus.run(time.perf_counter() + SLOT_S)
        produced[focus.name] = focus.metrics()
        for companion in companions:
            companion.report = companion.call("finish")
            produced[companion.name] = companion.report["metrics"]
    values, sources = {}, {}
    for name in [focus.name] + [c.name for c in companions]:
        for key, value in produced[name].items():
            if key not in values and value is not None:
                values[key] = value
                sources[key] = name
    return values, sources, recorders


def stop_on_sigterm(_signum, _frame):
    # Unwind through the ``finally`` that stops the children.
    sys.exit(143)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    pin_hash_seed(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("perfbench: program source not found at %s" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.child:
        return child_main(args)
    signal.signal(signal.SIGTERM, stop_on_sigterm)
    from workloads import PACE_REF, WORKLOADS

    info = machine()
    print("machine: cores=%(cores)s cpu=%(cpu)s python=%(python)s "
          "numpy=%(numpy)s" % info)
    children = []
    try:
        for name in COMPANIONS[args.workload]:
            children.append(Companion(name, args.seed))
        companions = list(children)
        setups = None
        if not args.trace:
            setups = Companion(args.workload, args.seed, role="setups")
            children.append(setups)
        # Children finish their own set-up before the named workload's
        # set-up is timed, so nothing else runs while it is.
        for child in children:
            if child.conn.recv() != "ready":
                raise RuntimeError("child %s failed" % child.name)
        focus = WORKLOADS[args.workload](args.seed)
        setup_times = [timed_setup(focus)]
        values, sources, recorders = measure(
            args, focus, companions, setups, setup_times)
    finally:
        for child in children:
            child.close()
    focus.verify()
    attempted = focus.attempted + sum(
        c.report["attempted"] for c in companions)
    failures = [(focus.name, f) for f in focus.failures] + [
        (c.name, f) for c in companions for f in c.report["failures"]]
    for name, failure in failures[:20]:
        print("FAIL %s: %s" % (name, failure), file=sys.stderr)
    print("fail_frac = %.6f ratio (n=%d)" % (
        len(failures) / attempted, attempted))
    # The kernel runs none of the program's code: its pace tells a slow
    # stretch of a shared machine apart from a slower program.
    print("steps: %d operations of %s" % (focus.steps, focus.name))
    low, middle, high = focus.pace_summary()
    print("pace: calibration kernel quartiles %.1f / %.1f / %.1f us over "
          "all operations (times are scaled to %.0f us)" % (
              low * 1e6, middle * 1e6, high * 1e6, PACE_REF * 1e6))

    if args.trace:
        from layers import PER_LAYER, UNREACHABLE

        wanted = [(name, unit) for name, unit, _better in PER_LAYER]
        for name, note in sorted(UNREACHABLE.items()):
            print("note %s: %s" % (name, note))
        values = {key: (value, None, None) for key, value in values.items()}
    else:
        wanted = END_TO_END
        values["setup_s"] = (setup_seconds(setup_times), "s", SETUPS)
        sources["setup_s"] = args.workload
        # The named workload's process only: companions and the extra
        # set-ups run in their own.
        values["rss_peak_mb"] = (focus.rss_mb, "MB", focus.rss_steps)
        sources["rss_peak_mb"] = args.workload
    metrics = {}
    for name, unit in wanted:
        if name not in values:
            print("perfbench: metric %s not measured" % name,
                  file=sys.stderr)
            return 1
        value, _unit, count = values[name]
        metrics[name] = {"value": value, "unit": unit}
        print("metric %-36s %14.6g %-9s n=%-7s from=%s" % (
            name, value, unit, count if count is not None else "-",
            sources[name]))
    if args.trace:
        write_trace_outputs(args, recorders, info, metrics)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }, sort_keys=True))
    return 0


def write_trace_outputs(args, recorders, info, metrics) -> None:
    """Chrome trace-event JSON and the per-layer self-time table, under
    ``.perfbench/`` in the working directory."""
    from spans import layer_table, render_table, write_chrome_trace

    out_dir = os.path.join(os.getcwd(), ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, "%s-seed%d" % (args.workload, args.seed))
    write_chrome_trace(stem + ".trace.json",
                       [(name, recorder.spans) for name, recorder in recorders],
                       {"machine": info, "workload": args.workload,
                        "seed": args.seed, "metrics": metrics})
    text = "\n\n".join(
        "== %s\n%s" % (name, render_table(layer_table(recorder.spans)))
        for name, recorder in recorders
    )
    with open(stem + ".layers.txt", "w") as handle:
        handle.write(text + "\n")
    print(text)


if __name__ == "__main__":
    sys.exit(main())
