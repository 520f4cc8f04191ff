"""Report-pipeline benchmark for quiverhh.

    python3 perfbench/run.py --workload grid-q --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20

Run it from the root of a checkout; the engine is imported from ``./src``.
One report is what ``quiverhh report --out json`` prints: ``cli.build_report``
on a fresh engine, encoded by the CLI's own encoder, timed from outside the
engine.  Every document is checked against ``reference.json`` and against
the invariants its input carries; any mismatch or exception counts as a
failed report and makes the run exit 1.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes over the inputs, prints the per-layer metrics of
``tracer.py`` and writes the spans to ``perfbench/out/``.  ``--workload all``
runs every workload in a fresh process, one after the other, and prints each
metric with its unit.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import hostspeed
import tracer
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference.json"
OUT = HERE / "out"
ENGINE_MODULES = ("fields", "quiver", "dsl", "rewrite", "hochschild", "families", "sl2", "cli")
# complex_complete is left out: it says whether the degree window reaches the
# top of the complex, which is False on cyclic quivers without being an error
VERDICT_CHECKS = ("d_squared_zero", "small_bar_agree", "euler_consistent")
TRACED_BUILDS = 5
MIN_PASSES = 3
SETUP_ROUNDS = 3
CHILD_TIMEOUT_S = 600

END_TO_END = (
    ("report_s", "s", "lower"),
    ("report_s.p90", "s", "lower"),
    ("reports_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def engine_modules():
    return SimpleNamespace(**{n: importlib.import_module("quiverhh." + n) for n in ENGINE_MODULES})


def load_engine(src=SRC):
    """Import quiverhh afresh from ``src``, as a new process would."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "quiverhh" or m.startswith("quiverhh.")]:
        del sys.modules[name]
    pkg = importlib.import_module("quiverhh")
    if Path(pkg.__file__).resolve().parent != (src / "quiverhh").resolve():
        raise ImportError(f"quiverhh came from {pkg.__file__}, not from {src}")
    return engine_modules()


def setup(workload, seed):
    """Import the engine afresh and build the workload's inputs."""
    mods = load_engine()
    return mods, workloads.build(mods, workload, seed)


def render(mods, item):
    """The bytes ``quiverhh report --out json`` prints for one input."""
    doc = mods.cli.build_report(item.presentation, item.nmax, item.field, family=item.family,
                                params=item.params, seed=item.seed)
    buf = io.StringIO()
    mods.cli._emit(doc, "json", buf)
    return buf.getvalue().encode()


def digest(data):
    return hashlib.sha256(data).hexdigest()


def invariant_problems(item, data):
    doc = json.loads(data)
    problems = [f"check {k} is {doc['checks'][k]}" for k in VERDICT_CHECKS
                if doc["checks"][k] not in (True, None)]
    seen = {"hh": doc["hh"], "cup_rank": doc["cup"]["rank"],
            "bracket_rank": doc["bracket"]["hh1_bracket_rank"]}
    problems += [f"{k} {seen[k]} != {v}" for k, v in item.expect.items() if seen[k] != v]
    return problems


def problems(item, data, reference):
    """Why a report document is wrong; empty when it is right."""
    want = reference.get(item.name)
    got = digest(data)
    out = invariant_problems(item, data)
    if want is None:
        out.append("no reference digest")
    elif got != want:
        out.append(f"digest {got[:12]} differs from reference {want[:12]}")
    return out


class Runner:
    """Renders and checks reports, counting attempts and failures.

    Traced and untraced reports are checked against the same reference
    digest, so a traced document that differs from the untraced one fails.
    """

    def __init__(self, mods, items, reference):
        self.mods = mods
        self.items = items
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def report(self, item):
        """When one report started and ended, or None if it raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            data = render(self.mods, item)
        except Exception:
            self.failed += 1
            print(f"{item.name}: report raised", file=sys.stderr)
            traceback.print_exc()
            return None
        t1 = time.perf_counter()
        found = problems(item, data, self.reference)
        if found:
            self.failed += 1
            print(f"{item.name}: {'; '.join(found)}", file=sys.stderr)
        return t0, t1

    def one_pass(self, trace=None):
        """One report per input; returns the wall times and the report ids."""
        walls, ids = [], []
        for item in self.items:
            if trace is not None:
                trace.report = self.attempted
                ids.append(self.attempted)
            span = self.report(item)
            if span is None:
                continue
            walls.append(span[1] - span[0])
            if trace is not None:
                trace.walls[ids[-1]] = walls[-1]
        if trace is not None:
            trace.report = None
        return walls, ids


def input_quantile(medians, q):
    """The q-quantile of the per-input medians, interpolated between inputs."""
    xs = sorted(medians)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def measure(runner, seconds, setup_round):
    """End-to-end metrics over whole passes, until ``seconds`` have passed.

    Every timing is in reference-host seconds (``hostspeed.py``).  Every
    input is reported once per pass, and its reports are reduced to their
    median over the passes; the report metrics are taken from these
    per-input medians.  ``setup_round()`` sets up afresh; it runs
    ``SETUP_ROUNDS`` times after every pass, outside the timed passes, and
    ``setup_s`` is the median of all of them, so that it samples the whole
    run rather than one moment.  Raw wall times go to standard error.
    """
    spans = [[] for _ in runner.items]
    setups = []
    passes = 0
    loop = 0.0
    # the benchmark's own long-lived objects (engine modules, inputs,
    # reference) are set aside, so that no report pays for collecting them
    gc.collect()
    gc.freeze()
    try:
        with hostspeed.HostClock() as clock:
            while passes < MIN_PASSES or loop < seconds:
                t0 = time.perf_counter()
                for k, item in enumerate(runner.items):
                    span = runner.report(item)
                    if span is not None:
                        spans[k].append(span)
                loop += time.perf_counter() - t0
                passes += 1
                for _ in range(SETUP_ROUNDS):
                    t0 = time.perf_counter()
                    setup_round()
                    setups.append((t0, time.perf_counter()))
    finally:
        gc.unfreeze()
    if not any(spans):
        raise RuntimeError("no report completed")

    def metrics(seconds):
        medians = [statistics.median(seconds(*s) for s in ss) for ss in spans if ss]
        return {
            "report_s": statistics.median(medians),
            "report_s.p90": input_quantile(medians, 0.9),
            "reports_per_s": len(medians) / sum(medians),
            "setup_s": statistics.median(seconds(*s) for s in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    raw = metrics(clock.wall)
    print(f"raw wall: {passes} passes, probe {clock.probe_s() * 1000:.3f} ms, "
          + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()), file=sys.stderr)
    return metrics(clock.seconds)


def measure_traced(runner, seconds, build, spans_path):
    """Per-layer metrics: untraced and traced passes alternate."""
    trace = tracer.Tracer(runner.mods)
    setup_builds = []
    for k in range(TRACED_BUILDS):
        trace.report = -1 - k
        setup_builds.append([trace.report])
        build(trace.span)
    trace.report = None
    passes, traced, untraced = [], [], []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        untraced += runner.one_pass()[0]
        trace.install()
        try:
            walls, ids = runner.one_pass(trace)
        finally:
            trace.uninstall()
        traced += walls
        passes.append(ids)
    if not traced or not untraced:
        raise RuntimeError("no report completed")
    trace.write(spans_path)
    return trace.metrics(setup_builds, passes, traced, untraced)


def result(runner, metrics, table):
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in table},
    }


def run(workload, seed, seconds, trace):
    mods, items = setup(workload, seed)
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))["digests"]
    runner = Runner(mods, items, reference)
    if trace:
        spans_path = OUT / f"spans-{workload}-seed{seed}.json"
        metrics = measure_traced(
            runner, seconds, lambda span: workloads.build(mods, workload, seed, span), spans_path
        )
        return result(runner, metrics, tracer.METRICS)
    metrics = measure(runner, seconds, lambda: setup(workload, seed))
    return result(runner, metrics, END_TO_END)


def run_all(seed, seconds, trace):
    """Every workload in its own process; prints a table and a summary."""
    summary = {}
    ok = True
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        res = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if proc.returncode != 0 or res is None or not res["correct"]:
            ok = False
        if res is None:
            print(f"{workload}: exit {proc.returncode}, no result")
            continue
        summary[workload] = res
        print(f"{workload}: attempted {res['attempted']}, failed {res['failed']}, "
              f"failed_frac {res['failed'] / res['attempted']:.4f}")
        for name, m in res["metrics"].items():
            print(f"  {name:38s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": ok, "workloads": summary}))
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    try:
        res = run(args.workload, args.seed, args.seconds, args.trace)
    except (ImportError, OSError) as exc:
        print(f"error: cannot run the benchmark here: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(res))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
