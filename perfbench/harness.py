"""Shared pieces of the benchmark: the checkout, clocks, memory and referee glue."""

from __future__ import annotations

import gc
import json
import os
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
CAPACITY = "mb_max_n=7,cw_max_n=6"  # the n=7 thresholds; the n=6 Client-Waiter solve


class SetupError(Exception):
    """The checkout cannot run the benchmark (for example, no oddcycle sources)."""


def import_oddcycle():
    """Import oddcycle from this checkout's src/ and nowhere else."""
    if not (SRC / "oddcycle" / "__init__.py").is_file():
        raise SetupError(f"no oddcycle sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import oddcycle

    if Path(oddcycle.__file__).resolve().parent != SRC / "oddcycle":
        raise SetupError(f"oddcycle imported from {oddcycle.__file__}, not {SRC}")
    return oddcycle


def child_env() -> dict:
    """Environment for subprocesses: this checkout's sources, the capacity override."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["ODDCYCLE_CAPACITY_OVERRIDE"] = CAPACITY
    return env


def boot_clock() -> float:
    """Seconds since boot; comparable across processes and with /proc start times."""
    return time.clock_gettime(time.CLOCK_BOOTTIME)


def process_start() -> float:
    """Boot-clock time at which this process started (10 ms resolution)."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return int(fields[19]) / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return _IMPORTED_AT


_IMPORTED_AT = boot_clock()


# The kernel's time at the reference speed.  Each timed operation is scaled by
# (REFERENCE_KERNEL_S / kernel time while it ran) ** exponent, where the
# exponent is the workload's `speed_exponent`: oddcycle's operations slow down
# less than the kernel, and by how much depends on the operation.  With the
# kernel sampled during each of 38 interleaved executions on the reference
# machine, log(operation time) against log(kernel time) had slope 0.93-0.96
# for the mb-free games, 0.78 for an mb-connected game, 0.76 and 0.90 for a
# verification and minimize_f (correlation 0.93-0.98).
REFERENCE_KERNEL_S = 0.005
# how often the kernel interrupts an operation to time the machine's speed
SAMPLE_PERIOD_S = 0.1


def _kernel() -> float:
    """Seconds taken by a fixed pure-Python loop that runs no oddcycle code.

    The collector is off so the program's heap cannot change the loop's cost.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc, seen, counts, table = 0, set(), {}, list(range(512))
        for i in range(35_000):
            j = table[i & 511]
            counts[j] = counts.get(j, 0) + 1
            if j & 1:
                seen.add(j)
            else:
                seen.discard(j)
            acc += len(seen)
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def speed_sample(repeats: int = 1, all_cpus: bool = False) -> float:
    """Mean time of `repeats` kernel runs.

    The reference machine's speed drifts by up to 2.5x, for seconds to
    minutes at a time, so the kernel is timed around and during every
    operation.  With `all_cpus` it runs pinned to each CPU this process may
    use in turn: the speed of work spread over all of them.
    """
    if not all_cpus:
        return sum(_kernel() for _ in range(repeats)) / repeats
    allowed = os.sched_getaffinity(0)
    try:
        times = []
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            times.extend(_kernel() for _ in range(repeats))
    finally:
        os.sched_setaffinity(0, allowed)
    return sum(times) / len(times)


class SpeedProbe:
    """Times operations together with the speed the machine ran them at.

    The kernel is timed just before and just after each operation and, with
    `during`, every SAMPLE_PERIOD_S while it runs: an interval timer
    interrupts the operation, and the interruptions are left out of its
    time.  Work done in other processes is not interrupted so; for it the
    samples around the operation run on every CPU with `all_cpus`.
    """

    def __init__(self, during: bool = True, all_cpus: bool = False, repeats: int = 2):
        self.during = during
        self.all_cpus = all_cpus
        self.repeats = repeats
        self.samples: list[float] = []  # the mean kernel time of each operation

    def time_op(self, fn):
        """Run fn(); return (result, error, seconds, kernel seconds)."""
        kernels = [speed_sample(self.repeats, self.all_cpus)]
        spent = 0.0

        def interrupt(signum, frame):
            nonlocal spent
            t0 = time.perf_counter()
            kernels.append(_kernel())
            spent += time.perf_counter() - t0

        if self.during:
            previous = signal.signal(signal.SIGALRM, interrupt)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        t0 = time.perf_counter()
        try:
            result, error = fn(), None
        except Exception as exc:  # a failed operation is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        finally:
            if self.during:
                signal.setitimer(signal.ITIMER_REAL, 0, 0)
            seconds = time.perf_counter() - t0 - spent
            if self.during:
                signal.signal(signal.SIGALRM, previous)
        kernels.append(speed_sample(self.repeats, self.all_cpus))
        kernel_s = sum(kernels) / len(kernels)
        self.samples.append(kernel_s)
        return result, error, seconds, kernel_s


def at_reference_speed(seconds: float, kernel_s: float, exponent: float) -> float:
    return seconds * (REFERENCE_KERNEL_S / kernel_s) ** exponent


def middle_mean(values) -> float:
    """Mean of the middle half of the values: robust to a few slow rounds,
    steadier than the median (the median when there are fewer than four)."""
    values = sorted(values)
    if len(values) < 4:
        return statistics.median(values)
    cut = len(values) // 4
    return statistics.fmean(values[cut:len(values) - cut])


def op_seconds(rounds: list[dict], exponent: float) -> tuple[list[float], list[float]]:
    """Each operation's time in one round: (at the reference speed, raw).

    An operation's time in a round is scaled by the kernel's mean time
    around and during it, and the middle mean over the run's rounds is
    kept; the raw figure is the middle mean of the unscaled times.
    """
    scaled, raw = [], []
    for i in range(len(rounds[0]["ops"])):
        ops = [r["ops"][i] for r in rounds]
        scaled.append(middle_mean(at_reference_speed(op["s"], op["kernel_s"], exponent)
                                  for op in ops))
        raw.append(middle_mean(op["s"] for op in ops))
    return scaled, raw


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    """Peak resident set size in MB (Linux reports ru_maxrss in KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def transcript_doc(transcript) -> dict:
    """The transcript as the referee sees it: its canonical JSON, parsed."""
    return json.loads(transcript.to_json())
