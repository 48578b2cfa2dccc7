"""Benchmark of the racah package.

    python3 bench/run.py --workload classify --seed 3 --seconds 12 --trace 0

Runs one workload (classify, verify, intertwine, rewrite; see
bench/README.md) in a closed loop, one item at a time, checks every output
by a second route, and prints human-readable lines followed by one JSON
object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 the same items run under the span tracer and the metrics are the
per-layer ones, with the spans written to .bench_out/.

The package is imported from src/ next to this directory; nothing needs to
be installed.  The run exits 2 without a result when src/racah is missing.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from multiprocessing import get_context
from pathlib import Path

import tracing

try:
    import workloads as wl
except ImportError as exc:  # no src/racah next to this directory
    wl, _IMPORT_ERROR = None, exc

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
DIGESTS = HERE / "digests.json"

SETUP_PROBES = 7
PARALLEL_JOBS = 2
PARALLEL_ROUNDS = 3
P90_MIN_BEYOND = 10

# The machine-speed probe: a fixed piece of stdlib rational arithmetic run
# between items at most every PROBE_EVERY_S.  PROBE_REF_S is what it takes
# on a quiet 2-core machine of the kind the benchmark was built on.
PROBE_EVERY_S = 0.1
PROBE_WINDOW_S = 0.3
PROBE_REF_S = 0.0016
# The same probe run five times over in two forked processes at once, for
# timings that use both cores; the reference is that work on a quiet machine.
PAIR_REPEAT = 5
PAIR_REF_S = 0.008


# ------------------------------------------------------------ statistics

def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def beyond(values, q: float) -> int:
    """Number of samples strictly above the q-th percentile."""
    cut = percentile(values, q)
    return sum(1 for v in values if v > cut)


# ------------------------------------------------------- machine speed

def _probe_work() -> Fraction:
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
    return total


class Speed:
    """Follows the machine's speed through a run.

    Shared virtual machines have spells of several seconds in which all
    code runs 1.5-2x slower.  Every timing the benchmark reports is scaled
    to the reference speed by the probe times measured around it, so a
    spell moves the scale factor rather than the metric.  The probe uses only the
    standard library, so no change to racah can change it."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self.pair_took: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        _probe_work()
        end = time.perf_counter()
        self.at.append((start + end) / 2)
        self.took.append(end - start)

    def sample_pair(self) -> None:
        """Time PAIR_REPEAT probes in each of two forked processes at once,
        each timing itself: the speed of the slower of the two cores."""
        children = []
        for _ in range(PARALLEL_JOBS):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child reports its time and leaves at once
                try:
                    os.close(read_end)
                    start = time.perf_counter()
                    for _ in range(PAIR_REPEAT):
                        _probe_work()
                    os.write(write_end, repr(time.perf_counter() - start).encode())
                finally:
                    os._exit(0)
            os.close(write_end)
            children.append((pid, read_end))
        took = []
        for pid, read_end in children:
            with os.fdopen(read_end) as fh:
                took.append(float(fh.read()))
            os.waitpid(pid, 0)
        self.pair_took.append(max(took))

    def pair_factor(self, first: int) -> float:
        """How much slower than the reference both cores ran, from the pair
        samples taken since index `first`."""
        return statistics.median(self.pair_took[first:]) / PAIR_REF_S

    def maybe_sample(self) -> None:
        if not self.at or time.perf_counter() - self.at[-1] >= PROBE_EVERY_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """How much slower than the reference the machine ran over
        [start, end]: the median probe time near it over PROBE_REF_S."""
        lo = bisect.bisect_left(self.at, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.at, end + PROBE_WINDOW_S)
        return statistics.median(self.took[max(0, lo - 1) : hi + 1]) / PROBE_REF_S

    def scaled(self, seconds: float, start: float, end: float) -> float:
        return seconds / self.factor(start, end)


# ------------------------------------------------------------- the loop

class ItemTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ItemTimeout(f"item exceeded the {wl.ITEM_CAP_S:.0f} s cap")


class Run:
    """One workload run: its items, timings, output texts and failures.
    Result objects are dropped once checked, so the heap (and the garbage
    collector's work) does not grow with the run."""

    def __init__(self, workload: str, seed: int, rounds: list[list[tuple]]):
        self.workload = workload
        self.seed = seed
        self.rounds = rounds
        self.items = [it for rnd in rounds for it in rnd]
        self.durations: dict[int, float] = {}
        self.windows: dict[int, tuple[float, float]] = {}
        self.texts: dict[int, str] = {}
        self.failed: dict[int, str] = {}
        self.speed = Speed()

    def label(self, index: int) -> str:
        r, i = self.position(index)
        return f"round {r} item {i}"

    def position(self, index: int) -> tuple[int, int]:
        """(round, position in the round) of an item."""
        return next((r, index - span.start) for r, span in enumerate(self.spans()) if index in span)

    def fail(self, index: int, stage: str, exc: BaseException | str) -> None:
        """Count the item as failed and report it on one line."""
        if isinstance(exc, BaseException):
            tb = exc.__traceback__
            while tb is not None and tb.tb_next is not None:
                tb = tb.tb_next
            where = f" at {Path(tb.tb_frame.f_code.co_filename).name}:{tb.tb_lineno}" if tb else ""
            exc = f"{type(exc).__name__}: {' '.join(str(exc).split())}{where}"
        self.failed.setdefault(index, stage)
        print(
            f"FAILED workload={self.workload} seed={self.seed} {self.label(index)} "
            f"stage={stage} [{wl.describe(self.items[index])}]: {exc}",
            file=sys.stderr,
            flush=True,
        )

    def timed(self, index: int, call=None) -> tuple[float, object] | None:
        """Run one item under the per-item cap; keep its text and return its
        duration and result, or count it as failed and return None."""
        item = self.items[index]
        call = call or wl.run_item
        self.speed.maybe_sample()
        signal.setitimer(signal.ITIMER_REAL, wl.ITEM_CAP_S)
        try:
            start = time.perf_counter()
            result, text = call(item)
            end = time.perf_counter()
        except Exception as exc:  # failure isolation: report and go on
            self.fail(index, "timeout" if isinstance(exc, ItemTimeout) else "run", exc)
            return None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        self.texts[index] = text
        self.windows[index] = (start, end)
        return end - start, result

    def check(self, index: int, result) -> None:
        try:
            wl.check_item(self.items[index], result)
        except Exception as exc:
            self.fail(index, "check", exc)

    def check_digests(self) -> str:
        """Compare per-item digests with the stored ones for the default
        seed; a mismatch fails the item.  Returns a one-word verdict."""
        if self.seed != wl.DEFAULT_SEED:
            return "not-stored-for-seed"
        stored = _load_digests().get(self.workload)
        if stored is None:
            return "not-stored"
        compared = 0
        for index, text in sorted(self.texts.items()):
            r, i = self.position(index)
            if r < len(stored) and i < len(stored[r]):
                compared += 1
                if wl.digest(text) != stored[r][i]:
                    self.fail(index, "digest", "output differs from the stored digest")
        return f"compared-{compared}"

    def combined_digest(self) -> str:
        return wl.digest("".join(wl.digest(self.texts.get(i, "")) for i in range(len(self.items))))

    def spans(self) -> list[range]:
        """The item indices of each round."""
        out, start = [], 0
        for rnd in self.rounds:
            out.append(range(start, start + len(rnd)))
            start += len(rnd)
        return out

    def completed(self, indices, scaled: bool = True) -> list[float]:
        """Durations of the items that completed, scaled to the reference
        machine speed unless scaled is False."""
        done = [i for i in indices if i in self.durations and i not in self.failed]
        if not scaled:
            return [self.durations[i] for i in done]
        return [self.speed.scaled(self.durations[i], *self.windows[i]) for i in done]

    def parallel(self, indices) -> float:
        """The given items again, with two worker processes and pool
        start-up included; outputs must equal the one-process outputs byte
        for byte.  classify goes through cli.run_sweep(jobs=2), the others
        through a pool mapping the same item function.  Items go in order of
        their one-process time, longest first, so the two workers finish
        together and the rate does not hang on which item happened to come
        last.  Returns items per second."""
        indices = sorted(indices, key=lambda i: -self.durations.get(i, 0.0))
        items = [self.items[i] for i in indices]
        first = len(self.speed.pair_took)
        self.speed.sample_pair()
        start = time.perf_counter()
        try:
            if self.workload == "classify":
                doc = wl.cli.run_sweep([(it[1], it[2]) for it in items], jobs=PARALLEL_JOBS)
                texts = [wl.serialize.dumps(row) for row in doc["points"]]
            else:
                # fork, as cli.run_sweep's pool does, so that pool start-up
                # costs the same in every workload
                with ProcessPoolExecutor(PARALLEL_JOBS, mp_context=get_context("fork")) as pool:
                    texts = list(pool.map(wl.parallel_item, items))
        except Exception as exc:
            for index in indices:
                self.fail(index, "parallel", exc)
            return len(items) / (time.perf_counter() - start)
        end = time.perf_counter()
        self.speed.sample_pair()
        for index, text in zip(indices, texts):
            if index in self.texts and text != self.texts[index]:
                self.fail(index, "parallel", "jobs=2 output differs from jobs=1 output")
        return len(items) * self.speed.pair_factor(first) / (end - start)


def _load_digests() -> dict:
    if not DIGESTS.is_file():
        return {}
    return json.loads(DIGESTS.read_text())


def probe_setup(workload: str, seed: int, speed: Speed) -> float:
    """Seconds from starting a fresh interpreter until it has imported
    racah and generated its first round, i.e. is ready to time an item;
    scaled to the reference machine speed."""
    cmd = [sys.executable, str(HERE / "run.py"), "--probe-setup", "--workload", workload, "--seed", str(seed)]
    speed.sample()
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        end = time.perf_counter()
        proc.stdout.read()
    speed.sample()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe exited with {proc.returncode}")
    return speed.scaled(end - start, start, end)


# -------------------------------------------------------------- reports

def environment(workload: str, seed: int, seconds: float, run: Run) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "backend": wl.racah.rational.BACKEND,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "rounds": len(run.rounds),
        "inputs": wl.input_properties(workload, run.items, run.texts),
    }


def end_to_end(run: Run, setup: list[float], parallel_rates: list[float]) -> tuple[dict, list[str]]:
    """Timings scaled to the reference machine speed.  items_per_s and
    item_p50_ms are medians over rounds of each round's value, so what the
    probe does not catch of a slow spell moves only the rounds it covers;
    rounds share one composition, so their values compare.  item_p90_ms is
    taken over all items of the run, for at least 10 samples beyond it."""
    per_round = [d for d in (run.completed(r) for r in run.spans()) if d]
    if not per_round:
        raise RuntimeError("no item completed")
    rates = [len(d) / sum(d) for d in per_round]
    unscaled = [len(d) / sum(d) for d in (run.completed(r, scaled=False) for r in run.spans()) if d]
    p50s = [percentile(d, 0.50) * 1e3 for d in per_round]
    done = [t for d in per_round for t in d]
    n_beyond = beyond(done, 0.90)
    metrics = {
        "items_per_s": (statistics.median(rates), "1/s"),
        "item_p50_ms": (statistics.median(p50s), "ms"),
        "item_p90_ms": (percentile(done, 0.90) * 1e3, "ms"),
        "parallel_items_per_s": (statistics.median(parallel_rates), "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }

    def listing(values):
        return " ".join(f"{v:.4g}" for v in values)

    notes = {
        "items_per_s": f"median of {len(rates)} rounds: {listing(rates)}; "
        f"unscaled {statistics.median(unscaled):.4g}, probe at {statistics.median(run.speed.took) / PROBE_REF_S:.3g}x "
        f"the reference time",
        "item_p50_ms": f"median of {len(p50s)} rounds, n={len(done)}: {listing(p50s)}",
        "item_p90_ms": f"n={len(done)}, {n_beyond} beyond",
        "parallel_items_per_s": f"jobs={PARALLEL_JOBS}, median of {len(parallel_rates)} pools "
        f"including start-up: {listing(parallel_rates)}",
        "setup_s": f"median of {len(setup)} fresh interpreters: {listing(setup)}",
    }
    lines = [
        f"{name} {value:.6g} {unit}" + (f" ({notes[name]})" if name in notes else "")
        for name, (value, unit) in metrics.items()
    ]
    if n_beyond < P90_MIN_BEYOND:
        lines.append(f"warning: only {n_beyond} samples beyond p90")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines


def measure(run: Run) -> None:
    for index in range(len(run.items)):
        outcome = run.timed(index)
        if outcome is not None:
            run.durations[index] = outcome[0]
            run.check(index, outcome[1])


def measure_traced(run: Run) -> dict:
    """Every item traced.  Each item of round 0 also runs once untraced
    just before, with the wrappers removed; trace.overhead is the traced
    over the untraced time of those items, minus 1.  The two runs of an
    item are adjacent in time, so a slow spell of the machine hits both."""
    tracer = tracing.Tracer()
    first = len(run.rounds[0])
    untraced = traced = 0.0
    for index in range(len(run.items)):
        plain = run.timed(index) if index < first else None
        tracer.install()
        tracer.enabled = True
        try:
            outcome = run.timed(index, lambda item: tracer.span_item(index, wl.run_item, item))
        finally:
            tracer.enabled = False
            tracer.uninstall()
        if outcome is not None:
            run.durations[index] = outcome[0]
            run.check(index, outcome[1])
            if plain is not None:
                untraced += plain[0]
                traced += outcome[0]
    metrics = tracer.metrics()
    metrics["trace.overhead"] = traced / untraced - 1 if untraced else 0.0
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"spans-{run.workload}-seed{run.seed}.jsonl"
    count = tracer.write(path)
    traced_rate = len(run.durations) / sum(run.durations.values()) if run.durations else 0.0
    print(f"spans {count} written to {os.path.relpath(path, ROOT)}")
    print(f"traced items_per_s {traced_rate:.6g} 1/s; tracing overhead {metrics['trace.overhead']:.3%} on round 0")
    units = tracing.metric_units()
    return {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-digests", action="store_true",
        help="store this run's per-item output digests (default seed only)",
    )
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if wl is None:
        print(f"bench: {_IMPORT_ERROR}", file=sys.stderr)
        return 2
    if args.workload not in wl.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(wl.WORKLOADS)}")
    if args.probe_setup:
        wl.make_round(args.workload, args.seed, 0)
        print("ready", flush=True)
        return 0

    signal.signal(signal.SIGALRM, _on_alarm)
    n = wl.n_rounds(args.workload, args.seconds)
    run = Run(args.workload, args.seed, [wl.make_round(args.workload, args.seed, r) for r in range(n)])
    setup = [] if args.trace else [probe_setup(args.workload, args.seed, run.speed) for _ in range(SETUP_PROBES)]

    if args.trace:
        metrics = measure_traced(run)
        lines = []
    else:
        measure(run)
        parallel_rates = [run.parallel(r) for r in run.spans()[:PARALLEL_ROUNDS]]
        metrics, lines = end_to_end(run, setup, parallel_rates)

    if args.record_digests:
        if args.seed != wl.DEFAULT_SEED or run.failed:
            print("bench: digests are recorded only from a clean default-seed run", file=sys.stderr)
            return 2
        stored = _load_digests()
        hashes = iter(wl.digest(run.texts[i]) for i in range(len(run.items)))
        stored[args.workload] = [[next(hashes) for _ in rnd] for rnd in run.rounds]
        DIGESTS.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
        verdict = "recorded"
    else:
        verdict = run.check_digests()

    attempted = len(run.items)
    failed = len(run.failed)
    print("env " + json.dumps(environment(args.workload, args.seed, args.seconds, run)))
    for line in lines:
        print(line)
    print(f"error_rate {failed / attempted:.6g} ({failed} of {attempted} items failed)")
    print(f"digest {run.combined_digest()} ({verdict})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
