"""Benchmark of junctionflow: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
src/. The run sets up the workload eleven times in fresh interpreters (the
median is setup_s), then repeats rounds of the workload's operations until
S seconds have passed, checking every output. With --trace 1 the rounds run
traced, and the run reports the per-layer metrics and the tracing overhead
(traced calls times the cost of a wrapper) instead. The last line of
standard output is the JSON result; per-run files go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
NAMES = ("prop511", "fields", "audit", "oracles")
SETUP_REPEATS = 11
RSS_PERIOD_S = 0.1


class Run:
    """State of one benchmark run: timers, operation outcomes and caches."""

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.out_dir = out_dir
        self.tracer = None
        self.round_s = 0.0
        self.last_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.unexpected = []
        self.faults = defaultdict(list)
        self.figures = defaultdict(list)
        self.cache = {}
        self.child_traces = []

    @contextmanager
    def timed(self):
        """Time a call into the program; it counts toward the round's program time."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.last_s = time.perf_counter() - t0
            self.round_s += self.last_s

    @contextmanager
    def checking(self):
        """Checks call the program too; keep those calls out of the trace."""
        tracer = self.tracer
        if tracer is not None:
            tracer.enabled = False
        try:
            yield
        finally:
            if tracer is not None:
                tracer.enabled = True

    def record(self, op, failures, fault=None, known=()):
        """Count one operation; it failed if any of its checks failed.

        `known` holds the failures of the one check that the known fault
        `fault` breaks; every failure in `failures` is unexpected.
        """
        self.attempted += 1
        if not failures and not known:
            return
        self.failed += 1
        if failures:
            self.unexpected.append(f"{op}: " + "; ".join(failures))
        if known:
            self.faults[fault].append(f"{op}: " + "; ".join(known))


class RssSampler(threading.Thread):
    """Peak summed resident memory of this process and all its descendants,
    sampled every RSS_PERIOD_S seconds."""

    def __init__(self):
        super().__init__(daemon=True)
        self.peak_kib = 0
        self._stop_event = threading.Event()
        self._page_kib = os.sysconf("SC_PAGE_SIZE") // 1024

    def _tree_kib(self):
        children = defaultdict(list)
        for entry in os.listdir("/proc"):
            if entry.isdigit():
                try:
                    with open(f"/proc/{entry}/stat") as fh:
                        ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
                except (OSError, IndexError, ValueError):
                    continue
                children[ppid].append(int(entry))
        total, todo = 0, [os.getpid()]
        while todo:
            pid = todo.pop()
            todo.extend(children.get(pid, ()))
            try:
                with open(f"/proc/{pid}/statm") as fh:
                    total += int(fh.read().split()[1]) * self._page_kib
            except (OSError, IndexError, ValueError):
                pass
        return total

    def run(self):
        while not self._stop_event.wait(RSS_PERIOD_S):
            self.peak_kib = max(self.peak_kib, self._tree_kib())

    def stop(self):
        self._stop_event.set()
        self.join()
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return max(self.peak_kib, own) / 1024.0


def steal_seconds():
    """CPU time the host gave to others while the guest's CPUs were ready
    to run (the steal column of /proc/stat), summed over CPUs."""
    try:
        with open("/proc/stat") as fh:
            return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def setup_seconds(workload, seed):
    """Median wall time of a fresh interpreter importing junctionflow and
    building the workload's inputs."""
    code = ("import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
            "workloads.WORKLOADS[sys.argv[3]][0](int(sys.argv[4]))")
    cmd = [sys.executable, "-c", code, str(ROOT / "src"), str(BENCH_DIR), workload, str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        subprocess.run(cmd, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure(workload, seed, seconds, trace, out_dir):
    import tracer as tracing
    import workloads

    setup_s = setup_seconds(workload, seed)
    round_fn = workloads.WORKLOADS[workload][1]
    run = Run(seed, out_dir)
    sampler = RssSampler()
    sampler.start()
    rounds = []
    steal0 = steal_seconds()
    t_start = time.perf_counter()
    try:
        if trace:
            tracer = run.tracer = tracing.Tracer().install(also=[workloads])
        while not rounds or time.perf_counter() - t_start < seconds:
            rounds.append(_one_round(run, round_fn, len(rounds)))
    finally:
        if run.tracer is not None:
            tracer.uninstall()
            run.tracer = None
        peak_mib = sampler.stop()
    steal = steal_seconds() - steal0

    if trace:
        names, spans, counts = _merged_trace(tracer, run.child_traces,
                                             out_dir / f"trace-{workload}-s{seed}.json.gz")
        metrics = tracing.layer_metrics(names, spans, counts, len(rounds))
        metrics["trace.overhead_s"] = (tracing.overhead_s(counts) / len(rounds), "s")
        print(f"{len(spans)} spans recorded")
    else:
        metrics = dict(setup_s=(setup_s, "s"), peak_rss_mib=(peak_mib, "MiB"),
                       program_s=(statistics.median(rounds), "s"))
        for key, (val, unit) in workloads.figures(workload, run.figures).items():
            print(f"figure {workload}.{key} = {val:.6g} {unit}")
    for fault, lines in run.faults.items():
        print(f"{fault} (known fault, counted as failed): {len(lines)} of {run.attempted} operations; "
              f"{lines[0]}")
    for line in run.unexpected:
        print(f"UNEXPECTED FAILURE {line}")
    print(f"rounds {len(rounds)}, program seconds per round {[round(r, 3) for r in rounds]}; "
          f"host steal during them {steal:.2f} s")
    return dict(
        correct=not run.unexpected,
        attempted=run.attempted,
        failed=run.failed,
        metrics={k: dict(value=float(v), unit=u) for k, (v, u) in metrics.items()},
    )


def _one_round(run, round_fn, k):
    """Run round k; return the seconds its calls into the program took."""
    run.round_s = 0.0
    round_fn(run, k)
    return run.round_s


def _merged_trace(tracer, child_traces, path):
    """The run's own spans, plus those of traced child processes, written to path."""
    import tracer as tracing

    names, spans, counts = list(tracer.names), list(tracer.spans), defaultdict(int, tracer.counts)
    for child in child_traces:
        data = tracing.load(child)
        remap = []
        for n in data["names"]:
            if n not in names:
                names.append(n)
            remap.append(names.index(n))
        base = len(spans)
        spans.extend([remap[s[0]], s[1], s[2], s[3] + base if s[3] >= 0 else -1] for s in data["spans"])
        for key, val in data["counts"].items():
            counts[key] += val
    tracing.write(path, names, spans, counts)
    return names, spans, counts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a SIGTERM unwinds like an error, so the child processes are killed and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "junctionflow" / "__init__.py").is_file():
        print(f"error: no junctionflow sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), out_dir)
    line = json.dumps(result)
    (out_dir / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
