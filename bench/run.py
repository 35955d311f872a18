"""Benchmark for monocert: one seeded workload, one closed-loop caller, checked outputs.

Run from the repository root:

    python3 bench/run.py --workload campaign --seed 1 --seconds 30 --trace 0

With --trace 0 the run measures the end-to-end metrics: each item's median
latency over the run, scaled by a Yardstick (a fixed stdlib-only loop timed
between the ops) to one reference speed of the machine.  With --trace 1 it
runs the ops untraced for half the time, replays the same ops with every
layer's public functions wrapped in spans (bench/spans.py), requires the
replayed outputs to equal the untraced ones, and reports per-layer metrics.

Every op's output is checked outside the timed region (bench/check.py); a
wrong output counts as failed.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the line before
it records the environment, the sample counts and the Yardstick's timings
(divide a time by its scale to get the time as the clock read it).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 10  # before the timed ops, and as many again after them
KEPT_ROUNDS = 16  # an item keeps between 16 and 32 latencies once a run makes 16 rounds
REFERENCE_S = 100e-6  # scaled times are times at the speed at which the reference loop takes this long
REFERENCE_EVERY_S = 0.02  # op time between two timings of the reference loop
REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def import_monocert():
    """A fresh import of the package (every monocert module dropped from sys.modules first)."""
    for key in [k for k in sys.modules if k == "monocert" or k.startswith("monocert.")]:
        del sys.modules[key]
    return importlib.import_module("monocert")


def reference_loop() -> int:
    """Fixed interpreter work that calls nothing in monocert: polynomial products mod p, big-int squaring, tuple keys."""
    a, b, p = list(range(1, 16)), list(range(5, 20)), 10007
    product = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            product[i + j] = (product[i + j] + x * y) % p
    x, counts = 12345678901234567, {}
    for i in range(120):
        x = (x * x + i) % 1000000007
        key = (i % 7, x % 13)
        counts[key] = counts.get(key, 0) + len(str(x))
    return sum(product) + sum(counts.values())


class Yardstick:
    """Timings of the reference loop, spread over a phase of the run: the machine's speed in that phase.

    The machine is shared, and for minutes at a time its speed drops by a
    third or more, so raw times follow the neighbours more than the program.
    The reference loop slows with it (not always by the same share as the
    ops); dividing by its median time scales a phase's times to the speed at
    which the loop takes REFERENCE_S.  A change to monocert cannot move the
    loop, so it moves the scaled times in full.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.due = 0.0

    def sample(self) -> None:
        reference_loop()  # untimed: caches and branch history then hold the loop, not the op before it
        t0 = time.perf_counter()
        reference_loop()
        self.samples.append(time.perf_counter() - t0)

    def after(self, op_s: float) -> None:
        """Call after each op with the phase's op time so far."""
        if op_s >= self.due:
            self.sample()
            self.due = op_s + REFERENCE_EVERY_S

    def scale(self) -> float:
        """Multiply a time measured in this phase by this factor."""
        return REFERENCE_S / statistics.median(self.samples)


def set_up(workload, items, repeats, yardstick):
    """Time `repeats` fresh imports plus the workload's program-side objects, each followed by 5 Yardstick samples; keep the last."""
    samples = []
    for _ in range(repeats):
        gc.collect()  # start each sample without the previous import's garbage
        t0 = time.perf_counter()
        mc = import_monocert()
        objects = workload.build(mc, items)
        samples.append(time.perf_counter() - t0)
        for _ in range(5):
            yardstick.sample()
    return mc, objects, samples


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def summarise(workload, out):
    """Hashable summary of an op's output, or of the exception it raised."""
    if isinstance(out, BaseException):
        return ("raised", type(out).__name__, str(out))
    return workload.summary(out)


class Verifier:
    """Checks each distinct schedule item once; later outputs of the item must repeat its summary."""

    def __init__(self, workload, mc, seed, reference):
        self.workload = workload
        self.mc = mc
        self.seen: dict[int, tuple] = {}
        own = reference.get(workload.name, {})
        self.digests = own.get("digests", {}) if own.get("seed") == seed else {}
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def __call__(self, key: int, item, out) -> bool:
        """Record one op; returns whether it ended in a checked conclusive answer."""
        self.attempted += 1
        summary = summarise(self.workload, out)
        if key in self.seen:
            ok, decided = self.seen[key][0] == summary, self.seen[key][1]
        else:
            ok, decided = self.workload.check(self.mc, item, out)
            expected = self.digests.get(str(key))
            if expected is not None and expected != check.digest(summary):
                ok = False
            if ok:
                self.seen[key] = (summary, decided)
        if not ok:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"item {key} {item!r}: {summary!r}"[:400])
                if isinstance(out, BaseException):
                    traceback.print_exception(out, file=sys.stderr)
        return ok and decided


def run_ops(workload, mc, objects, items, verify, yardstick, stop_s=None, count=None):
    """Closed loop over the schedule from its start: count ops, or at least stop_s seconds of op time and one round.

    Returns latencies of every item, the number of ops, their total time and
    how many ended decided.  The items are taken round-robin, so an item's
    repeats are spread over the run.  An item keeps the latencies of rounds
    0, s, 2s, ... only, s doubling whenever it holds 2 * KEPT_ROUNDS of them,
    so memory stays bounded however many rounds a run makes.
    """
    times: list[list[float]] = [[] for _ in items]
    stride = 1
    ops = decided = 0
    total = 0.0
    op = workload.op
    while ops < count if count is not None else (total < stop_s or ops < len(items)):
        rnd, key = divmod(ops, len(items))
        item = items[key]
        t0 = time.perf_counter()
        try:
            out = op(mc, objects, item)
        except Exception as exc:  # checked like any output: the documented rejection or a failure
            out = exc
        dt = time.perf_counter() - t0
        if rnd % stride == 0:
            times[key].append(dt)
        if key == len(items) - 1 and rnd + 1 == 2 * KEPT_ROUNDS * stride:
            times = [t[::2] for t in times]
            stride *= 2
        total += dt
        yardstick.after(total)
        ops += 1
        decided += verify(key, item, out)
    return times, ops, total, decided


def end_to_end(times, ops, decided, setup, scale, setup_scale):
    """name -> (value, unit, samples) with tracing off, from each item's median latency.

    Op times are multiplied by scale and set-up times by setup_scale, the
    factors of the Yardsticks timed between the ops and between the set-ups.

    Besides the minutes-long swings the Yardstick follows, the same op takes
    from about half to several times its usual time in bursts of well under a
    second.  An item's median over its repeats is its cost at the machine's
    usual speed; its fastest repeat, or a mean over all ops, moves with how
    many bursts a run happens to catch.
    """
    typical = [statistics.median(t) * scale for t in times]
    return {
        "setup_s": (statistics.median(setup) * setup_scale, "s", len(setup)),
        "ops_per_s": (len(typical) / sum(typical), "1/s", ops),
        "op_p50_ms": (statistics.median(typical) * 1e3, "ms", len(typical)),
        "op_p90_ms": (statistics.quantiles(typical, n=10, method="inclusive")[8] * 1e3, "ms", len(typical)),
        "decided_frac": (decided / ops, "frac", ops),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
    }


def per_layer(rec, untraced_s):
    """name -> (value, unit, samples) from the traced replay; samples is the number of ops replayed."""
    c = rec.counters

    def per_call(key, name):
        calls = rec.calls.get(name, 0)
        return c.get(key, 0) / calls if calls else 0.0

    metrics = {
        "trace_overhead_frac": (rec.op_s / untraced_s - 1, "frac"),
        "op.self_frac": (rec.self_s.get(spans.OP, 0.0) / rec.op_s, "frac"),
    }
    for name in spans.SPANS:
        metrics[f"{name}.calls_per_op"] = (rec.calls.get(name, 0) / rec.ops, "1/op")
        metrics[f"{name}.self_frac"] = (rec.self_s.get(name, 0.0) / rec.op_s, "frac")
    metrics.update(
        {
            "arith.factorize.repeat_frac": (per_call("arith.factorize.repeats", "arith.factorize"), "frac"),
            "ore.ore_split.exact_frac": (per_call("ore.ore_split.exact", "ore.ore_split"), "frac"),
            "ore.common_index_divisor.hit_frac": (per_call("ore.common_index_divisor.hits", "ore.common_index_divisor"), "frac"),
            "purefield.theorem_general_test.fire_frac": (
                per_call("purefield.theorem_general_test.fires", "purefield.theorem_general_test"),
                "frac",
            ),
            "polygon.phi_expand.parts_per_call": (per_call("polygon.phi_expand.parts", "polygon.phi_expand"), "1/call"),
            "polygon.phi_expand.max_degree": (c.get("polygon.phi_expand.max_degree", 0), "degree"),
            "cns.encode.steps_per_call": (per_call("cns.encode.steps", "cns.encode"), "1/call"),
        }
    )
    return {name: (value, unit, rec.ops) for name, (value, unit) in metrics.items()}


def declared_directions() -> dict:
    """Metric name -> the direction BENCHMARK.json (in the working directory) counts as better."""
    try:
        with open("BENCHMARK.json", encoding="utf-8") as fh:
            declared = json.load(fh)
    except OSError:
        return {}
    return {m["name"]: m["better"] for m in declared["end_to_end"] + declared["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "monocert", "__init__.py")):
        print("error: src/monocert not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    load_before = os.getloadavg()
    workload = WORKLOADS[args.workload]
    items = workload.generate(args.seed, import_monocert())
    setup_yardstick, op_yardstick = Yardstick(), Yardstick()
    mc, objects, setup = set_up(workload, items, SETUP_REPEATS, setup_yardstick)
    reference = {}
    if os.path.isfile(REFERENCE_FILE):
        with open(REFERENCE_FILE, encoding="utf-8") as fh:
            reference = json.load(fh)
    verify = Verifier(workload, mc, args.seed, reference)

    run_ops(workload, mc, objects, items, verify, Yardstick(), count=workload.warmup)
    measure_s = args.seconds / 2 if args.trace else args.seconds
    times, ops, untraced_s, decided = run_ops(workload, mc, objects, items, verify, op_yardstick, stop_s=measure_s)

    problems = []
    if args.trace:
        rec = spans.Recorder()
        with spans.patched(rec):
            for i in range(ops):
                out, _ = rec.run_op(workload.op, mc, objects, items[i % len(items)])
                verify(i % len(items), items[i % len(items)], out)
        problems += [f"still patched: {name}" for name in spans.leftover_wrappers()]
        problems += [
            f"span {name} never fired" for name, meant in spans.SPANS.items() if workload.name in meant and not rec.calls.get(name)
        ]
        metrics = per_layer(rec, untraced_s)
        yardsticks = {"ops": op_yardstick}
    else:
        setup += set_up(workload, items, SETUP_REPEATS, setup_yardstick)[2]  # a second moment of the machine's speed
        metrics = end_to_end(times, ops, decided, setup, op_yardstick.scale(), setup_yardstick.scale())
        yardsticks = {"setup": setup_yardstick, "ops": op_yardstick}

    load_after = os.getloadavg()
    problems += verify.reasons
    for line in problems:
        print(f"problem: {line}", file=sys.stderr)
    better = declared_directions()
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": {
            "ops": ops,
            "items": len(items),
            "rounds": ops / len(items),
            "warmup_ops_excluded": workload.warmup,
        },
        "metrics": {name: {"unit": unit, "samples": n, "better": better.get(name)} for name, (_, unit, n) in metrics.items()},
        "yardstick": {
            phase: {"samples": len(y.samples), "median_ms": statistics.median(y.samples) * 1e3, "scale": y.scale()}
            for phase, y in yardsticks.items()
        },
        "env": {
            "python": platform.python_version(),
            "cpu_model": cpu_model(),
            "nproc": os.cpu_count(),
            "loadavg_before": load_before,
            "loadavg_after": load_after,
        },
    }
    print(json.dumps(record, sort_keys=True))
    result = {
        "correct": not problems and verify.failed == 0,
        "attempted": verify.attempted,
        "failed": verify.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
