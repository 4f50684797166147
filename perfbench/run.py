"""oscal benchmark: seeded workloads, one caller in a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root.  The package is imported from ``src/`` next
to this directory; nothing is installed.  ``--trace 0`` times about
``--seconds`` of whole cycles and prints the end-to-end metrics;
``--trace 1`` runs one cycle untraced, the same cycle traced, and once
more under cProfile, and prints the per-layer metrics and the tracing
overhead.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  A result file with the host record goes to
``perfbench/results/``.  See ``perfbench/README.md`` for the workloads.
"""

from __future__ import annotations

import argparse
import cProfile
import fractions
import importlib
import json
import math
import os
import platform
import pstats
import resource
import shutil
import socket
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Capped, CliItem, Context, Mismatch, child_env  # noqa: E402

SETUPS = 9
PROBES = 5
MODULES = ("rationals", "errors", "space", "func", "transfinite", "simplex",
           "oracle", "seqlab", "extraction", "documents", "cli", "sampling")
# standard-library modules the package imports, loaded before the first
# timed set-up so that every set-up imports the same amount of code
STDLIB = ("argparse", "dataclasses", "enum", "itertools", "json", "math",
          "random", "typing")


class Oscal:
    """The package's modules, imported fresh from ``src/``."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "oscal" or m.startswith("oscal.")]:
            del sys.modules[name]
        for name in MODULES:
            setattr(self, name, importlib.import_module("oscal." + name))
        where = Path(self.cli.__file__).resolve()
        if SRC.resolve() not in where.parents:
            raise RuntimeError("imported oscal from %s, not from %s" % (where, SRC))

    def all_modules(self):
        return [getattr(self, name) for name in MODULES]


class Outcomes:
    """Per-item results: latency of the verified ones, and every failure."""

    def __init__(self):
        self.latencies: list[float] = []
        self.labels: list[str] = []
        self.failures: list[dict] = []

    @property
    def attempted(self) -> int:
        return len(self.latencies) + len(self.failures)

    @property
    def correct(self) -> bool:
        """No wrong answer and no crash.  A reported cap is a failure of the
        computation, not a wrong answer, so it leaves this true."""
        return all(f["kind"] == "capped" for f in self.failures)

    def run(self, items, tracer=None) -> None:
        for item in items:
            if tracer is not None:
                tracer.item = item.label
            start = time.perf_counter()
            try:
                item.run()
            except Capped as exc:
                self._fail(item, "capped", str(exc))
            except Mismatch as exc:
                self._fail(item, "mismatch", str(exc))
            except Exception:  # an item that crashes is counted, never skipped
                self._fail(item, "error", traceback.format_exc(limit=4))
            else:
                self.latencies.append(time.perf_counter() - start)
                self.labels.append(item.label)

    def by_label_ms(self) -> dict[str, float]:
        """Median latency of each kind of item (the label up to a colon)."""
        groups: dict[str, list[float]] = {}
        for label, seconds in zip(self.labels, self.latencies):
            groups.setdefault(label.split(":")[0], []).append(seconds)
        return {k: round(1000 * statistics.median(v), 3) for k, v in groups.items()}

    def _fail(self, item, kind, detail) -> None:
        self.failures.append({"item": item.label, "kind": kind, "detail": detail})


def host_record() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "hostname": socket.gethostname(),
        "platform": platform.platform(),
        "note": "absolute times compare only between runs on one host",
    }


def cycle_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / WORKLOADS[workload][1]))


def setup(workload: str, seed: int, cycles: int, tiny: bool, workdir: Path):
    """Import, generate the inputs, render the documents, warm up."""
    mods = Oscal()
    ctx = Context(mods, seed, cycles, tiny, ROOT, workdir)
    built = WORKLOADS[workload][0](ctx)
    Outcomes().run(built[0][:1])
    return mods, built


def beta_mass(a: float, b: float, lo: float, hi: float, steps: int = 32) -> float:
    """Mass of the Beta(a, b) density on [lo, hi], by Simpson's rule."""
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x: float) -> float:
        x = min(max(x, 1e-12), 1 - 1e-12)
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    h = (hi - lo) / steps
    inner = sum((4 if k % 2 else 2) * density(lo + k * h) for k in range(1, steps))
    return h / 3 * (density(lo) + inner + density(hi))


def quantile(xs: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of sorted ``xs``: the mean of
    all order statistics, weighted by the Beta(p(n+1), (1-p)(n+1)) mass on
    their slot.  Items come in kinds of very different cost, so a single
    order statistic jumps whenever the quantile sits where two kinds meet;
    the weighted mean moves smoothly with the whole sample."""
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    weights = [beta_mass(a, b, i / n, (i + 1) / n) for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it:
    (value, percentile, sample count).  Below eleven samples, the max."""
    xs = sorted(latencies)
    n = len(xs)
    if n == 0:
        return 0.0, 0.0, 0
    if n <= 10:
        return xs[-1], 100.0, n
    p = (n - 10) / n
    return quantile(xs, p), 100.0 * p, n


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli_invocations" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def measure(workload, cycles, setup_times) -> tuple[Outcomes, dict, dict]:
    """Run every cycle once, back to back.  Throughput is verified items
    over the whole timed wall time: on a host whose speed drifts over tens
    of seconds, the mean over the full run is steadier than the median of
    per-cycle rates."""
    out = Outcomes()
    cycle_s = []
    start = time.perf_counter()
    for cycle in cycles:
        began = time.perf_counter()
        out.run(cycle)
        cycle_s.append(time.perf_counter() - began)
    wall = time.perf_counter() - start
    tail_v, tail_p, tail_n = tail(out.latencies)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "items_per_s": len(out.latencies) / wall,
        "item_p50_ms": 1000 * quantile(sorted(out.latencies), 0.5) if out.latencies else 0.0,
        "item_tail_ms": 1000 * tail_v,
        "peak_rss_mb": peak_rss_mb(workload),
    }
    extra = {
        "failed_frac": len(out.failures) / out.attempted,
        "tail_percentile": tail_p,
        "tail_samples": tail_n,
        "cycles": len(cycles),
        "wall_s": wall,
        "cycle_s": cycle_s,
        "setup_times_s": setup_times,
        "latency_by_label_ms": out.by_label_ms(),
        "latencies_ms": [round(1000 * x, 3) for x in out.latencies],
        "latency_labels": out.labels,
    }
    return out, metrics, extra


def probe_ms(code: str) -> float:
    env = child_env(ROOT)
    times = []
    for _ in range(PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       capture_output=True, timeout=120)
        times.append(time.perf_counter() - start)
    return 1000 * statistics.median(times)


def fraction_ops(items) -> tuple[int, Outcomes]:
    """Calls into fractions.Fraction code while the items run once."""
    prof = cProfile.Profile()
    out = Outcomes()
    prof.enable()
    try:
        out.run(items)
    finally:
        prof.disable()
    where = os.path.realpath(fractions.__file__)
    calls = sum(nc for (path, _, _), (_, nc, _, _, _) in pstats.Stats(prof).stats.items()
                if os.path.realpath(path) == where)
    return calls, out


def trace(mods, cycles, span_path) -> tuple[list[Outcomes], dict, dict]:
    items = cycles[0]
    for item in items:  # the traced cli handler runs in this process
        if isinstance(item, CliItem):
            item.in_process = True
    plain = Outcomes()
    start = time.perf_counter()
    plain.run(items)
    untraced = time.perf_counter() - start

    tracer = Tracer(mods)
    traced = Outcomes()
    tracer.install()
    try:
        start = time.perf_counter()
        traced.run(items, tracer)
        traced_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    tracer.write(span_path)

    ops, profiled = fraction_ops(items)
    interpreter = probe_ms("pass")
    metrics["rationals.fraction_ops"] = ops
    metrics["cli.interpreter_ms"] = interpreter
    metrics["cli.import_ms"] = probe_ms("import oscal.cli") - interpreter
    metrics["trace.items"] = len(items)
    metrics["trace.overhead_s"] = traced_s - untraced
    extra = {"untraced_s": untraced, "traced_s": traced_s, "spans": len(tracer.spans),
             "span_file": str(span_path.relative_to(ROOT))}
    return [plain, traced, profiled], metrics, extra


def load_declared() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def run_one(args) -> int:
    if not (SRC / "oscal" / "__init__.py").is_file():
        print("perfbench: no package at %s; run from a full checkout" % SRC, file=sys.stderr)
        return 2
    os.environ.pop("OSCAL_CAP", None)
    for name in STDLIB:
        importlib.import_module(name)
    declared = load_declared()
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    workdir = HERE / "work" / ("%s-%d" % (args.workload, os.getpid()))
    workdir.mkdir(parents=True, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    try:
        setup_times = []
        count = 1 if args.trace else cycle_count(args.workload, args.seconds)
        for _ in range(1 if args.trace else SETUPS):
            start = time.perf_counter()
            mods, cycles = setup(args.workload, args.seed, count, args.tiny, workdir)
            setup_times.append(time.perf_counter() - start)
        if args.trace:
            runs, metrics, extra = trace(mods, cycles, results / (stem + "-spans.jsonl"))
            units = declared["per_layer"]
        else:
            out, metrics, extra = measure(args.workload, cycles, setup_times)
            runs = [out]
            units = declared["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in runs)
    failures = [f for r in runs for f in r.failures]
    correct = all(r.correct for r in runs)
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError("metrics not measured: %s" % ", ".join(missing))
    host = host_record()
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host, "correct": correct,
        "attempted": attempted, "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "extra": extra, "failures": failures[:50],
    }
    (results / (stem + ".json")).write_text(json.dumps(report, indent=2) + "\n")

    print("host: python %s, nproc %d, hostname %s"
          % (host["python"], host["nproc"], host["hostname"]))
    print("workload %s, seed %d: %d attempted, %d failed, failed_frac %.4f"
          % (args.workload, args.seed, attempted, len(failures), report["failed_frac"]))
    for f in failures[:5]:
        print("  failed %s (%s): %s" % (f["item"], f["kind"], f["detail"].splitlines()[-1]))
    for name, unit in units.items():
        line = "%-32s %14.6g %s" % (name, metrics[name], unit)
        if name == "item_tail_ms":
            line += "  (p%.1f of %d items)" % (extra["tail_percentile"], extra["tail_samples"])
        print(line)
    if args.trace:
        print("tracing overhead: %.3f s (traced %.3f s - untraced %.3f s)"
              % (metrics["trace.overhead_s"], extra["traced_s"], extra["untraced_s"]))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one summary table."""
    status = 0
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode:
            status = proc.returncode
            continue
        rows.append((name, json.loads(proc.stdout.splitlines()[-1])))
    for name, res in rows:
        failed_frac = res["failed"] / res["attempted"]
        cells = ["%s=%.6g%s" % (k, v["value"], v["unit"]) for k, v in res["metrics"].items()]
        print("%-18s failed_frac=%.4f %s" % (name, failed_frac, " ".join(cells)))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="one small cycle per workload, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
