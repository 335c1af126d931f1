"""trikoszul benchmark: seeded workloads driven through the public API.

    python3 benchmarks/run.py                                  # every workload, untraced
    python3 benchmarks/run.py --workload wide-n --seed 3 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload deep-dim --trace 1    # per-layer numbers

One process and one caller in a closed loop: the next request starts when
the previous one has returned and been checked.  A request is one ideal:
one `run_audit(cfg, 1)` call for audit-mix, one `classify` call otherwise.
Only the call is timed; checking each output against the committed
reference and the structural checks run outside the timed region.  Each
time is scaled by the machine speed measured around it (calibration.py);
the table also shows the raw wall-clock figures.

With --trace 0 a run measures for --seconds (default: BENCHMARK.json's
run_seconds; at least 100 requests) and prints the end-to-end metrics.  With
--trace 1 it makes the workload's fixed number of requests three times
(untraced and traced in alternation, then with field arithmetic counted) and
prints the per-layer metrics.

With --workload, the last line of output is the run's result object, with
exactly the keys correct, attempted, failed and metrics.  Without it, every
workload runs in a child process of its own and the last line is one object
{"seed": s, "workloads": {name: result object, or null when the child
printed none}}, unless no child printed a result.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from collections import deque
from pathlib import Path
from time import perf_counter

from calibration import SpeedGauge
from tracing import FieldCounting, Instrumentation, ResolutionCapture, Tracer, layer_metrics
from workloads import (
    ROOT,
    WARMUP_SEED,
    WORKLOADS,
    ProgramMissing,
    digest,
    load_program,
    load_reference,
)

# Set-up is repeated this many times, spread over the run, and the median
# reported; the requests keep using the program of the first set-up.
SETUP_SAMPLES = 5
CHUNK = 32
# A run stops issuing requests after this much wall time even below the
# request floor, so that a pathologically slow program still ends in time.
MAX_LOOP_S = 120.0
SHOWN_PROBLEMS = 5


def set_up(wl, seed: int):
    """Import the program, make the first inputs and warm up on a stream no
    run measures.  Returns (program, first inputs, seconds taken)."""
    t0 = perf_counter()
    prog = load_program()
    items = wl.inputs(prog, seed, 0, CHUNK)
    for item in wl.inputs(prog, WARMUP_SEED, 0, wl.warmup_requests):
        wl.run(prog, item, wl.field)
    return prog, items, perf_counter() - t0


def set_up_again(wl, seed: int) -> float:
    """Time one more set-up, then put back the modules of the program the
    run uses, so that its requests never see the new copy."""
    kept = {name: m for name, m in sys.modules.items() if name.split(".")[0] == "trikoszul"}
    took = set_up(wl, seed)[2]
    sys.modules.update(kept)
    return took


class Checker:
    """Checks outputs and counts failures; a failed request is one that
    raised or whose output failed a check."""

    def __init__(self, wl, prog, seed: int):
        self.wl = wl
        self.prog = prog
        ref = load_reference().get(wl.name)
        self.expected = ref["digests"] if ref and ref["seed"] == seed else []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, k: int, item, output, error, captured=None) -> str | None:
        """Check request k; returns the output digest, None on error.
        captured is the (ideal, resolution) the request's classify used."""
        self.attempted += 1
        if error is not None:
            self.fail(f"request {k} raised {type(error).__name__}: {error}")
            return None
        found = self.wl.check(self.prog, item, output, captured)
        got = digest(self.wl.to_doc(output))
        if k < len(self.expected) and got != self.expected[k]:
            found.append(f"request {k}: output digest {got} != reference {self.expected[k]}")
        if found:
            self.fail("; ".join(found))
        return got

    def replayed(self, label: str, outputs, digests) -> None:
        """Outputs of a second pass over the same requests must equal the
        untraced pass's outputs, given by their digests."""
        for k, (output, error, _) in enumerate(outputs):
            self.attempted += 1
            if error is not None:
                self.fail(f"{label} request {k} raised {type(error).__name__}: {error}")
            elif digest(self.wl.to_doc(output)) != digests[k]:
                self.fail(f"{label} request {k}: output differs from the untraced pass")

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < SHOWN_PROBLEMS:
            self.problems.append(message)


def timed(wl, prog, item):
    """One request; returns (output, error, seconds)."""
    t0 = perf_counter()
    try:
        output, error = wl.run(prog, item, wl.field), None
    except Exception as exc:  # a failing request is counted, not fatal
        output, error = None, exc
    return output, error, perf_counter() - t0


def run_untraced(wl, seed: int, seconds: float) -> tuple[dict, dict, Checker]:
    """Returns (metrics, wall-clock figures for the table, checker)."""
    gauge = SpeedGauge()
    prog, items, took = set_up(wl, seed)
    raw_setups = [took]
    setups = [took * gauge.factor(took)]
    checker = Checker(wl, prog, seed)
    pending = deque(items)
    raw: list[float] = []
    latencies: list[float] = []
    busy = 0.0
    start = perf_counter()
    k = 0
    with ResolutionCapture(prog) as capture:
        while (busy < seconds or k < wl.min_requests) and perf_counter() - start < MAX_LOOP_S:
            if len(setups) < SETUP_SAMPLES and busy >= seconds * len(setups) / SETUP_SAMPLES:
                took = set_up_again(wl, seed)
                raw_setups.append(took)
                setups.append(took * gauge.factor(took))
            if not pending:
                pending.extend(wl.inputs(prog, seed, k, CHUNK))
            item = pending.popleft()
            output, error, took = timed(wl, prog, item)
            busy += took
            raw.append(took)
            latencies.append(took * gauge.factor(took))
            checker.record(k, item, output, error, capture.take())
            k += 1
    while len(setups) < SETUP_SAMPLES:
        took = set_up_again(wl, seed)
        raw_setups.append(took)
        setups.append(took * gauge.factor(took))
    metrics = {
        "throughput_ideals_per_s": ((k - checker.failed) / sum(latencies), "ideals/s"),
        "latency_ms_p50": (statistics.median(latencies) * 1e3, "ms"),
        "latency_ms_p90": (statistics.quantiles(latencies, n=10)[8] * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    wall = {
        "wall.throughput_ideals_per_s": ((k - checker.failed) / busy, "ideals/s"),
        "wall.latency_ms_p50": (statistics.median(raw) * 1e3, "ms"),
        "wall.latency_ms_p90": (statistics.quantiles(raw, n=10)[8] * 1e3, "ms"),
        "wall.setup_s": (statistics.median(raw_setups), "s"),
        "calibration.slice_ms": (statistics.median(gauge.slice_times) * 1e3, "ms"),
    }
    return metrics, wall, checker


def run_traced(wl, seed: int, spans_path: str | None) -> tuple[dict, dict, Checker]:
    """The workload's fixed requests, each run untraced (the reference time)
    and traced (self times and counters) back to back, in alternating order
    so both see the same machine speed; then once more with field
    arithmetic counted."""
    prog, _, _ = set_up(wl, seed)
    items = wl.inputs(prog, seed, 0, wl.trace_requests)
    checker = Checker(wl, prog, seed)
    tracer = Tracer()
    instrumentation = Instrumentation(prog, tracer)
    capture = ResolutionCapture(prog)
    gauge = SpeedGauge()
    untraced = traced = 0.0
    digests, outputs = [], []
    for k, item in enumerate(items):
        for traced_turn in (k % 2, 1 - k % 2):
            if traced_turn:
                with instrumentation:
                    outputs.append(tracer.request(wl.run, prog, item, wl.field))
            else:
                with capture:
                    output, error, took = timed(wl, prog, item)
                digests.append(checker.record(k, item, output, error, capture.take()))
        # both runs of request k share the machine speed measured around them
        traced_took = outputs[-1][2]
        factor = gauge.factor(took + traced_took)
        tracer.commit(factor)
        untraced += took * factor
        traced += traced_took * factor
    checker.replayed("traced", outputs, digests)
    with FieldCounting(prog, prog.fields.get_field(wl.field)) as counting:
        replay = [timed(wl, prog, item) for item in items]
    checker.replayed("field-counting", replay, digests)

    if spans_path:
        with open(spans_path, "w", encoding="utf-8") as fh:
            for trace_id, name, parent, t0, t1 in tracer.spans:
                fh.write(json.dumps({"trace": trace_id, "span": name, "parent": parent,
                                     "start_s": t0, "end_s": t1}) + "\n")
    metrics = layer_metrics(tracer, counting.counts["fields.ops"], len(items), traced, untraced)
    return metrics, {}, checker


def report(wl, seed: int, metrics: dict, wall: dict, checker: Checker) -> dict:
    """Print the human-readable table and return the result object."""
    print(f"workload {wl.name}  seed {seed}  field {wl.field}")
    print(f"  requests {checker.attempted}, failed {checker.failed}")
    for problem in checker.problems:
        print(f"  FAILED: {problem}")
    rows = dict(metrics)
    rows["failed_frac"] = (checker.failed / checker.attempted, "ratio")
    rows.update(wall)
    for name, (value, unit) in rows.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def last_json(text: str):
    """The JSON object on the last line of text, or None."""
    lines = text.rstrip("\n").split("\n")
    try:
        doc = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return doc if isinstance(doc, dict) else None


def run_all(args) -> int:
    """Every workload, one child process each, so peak RSS is per workload;
    ends with one object holding every workload's result by name."""
    worst = 0
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(cmd, check=False, stdout=subprocess.PIPE, text=True)
        print(child.stdout, end="", flush=True)
        results[name] = last_json(child.stdout)
        worst = max(worst, child.returncode, 0 if results[name] else 1)
    if any(results.values()):
        print(json.dumps({"seed": args.seed, "workloads": results}))
    return worst


def default_seconds() -> float:
    """run_seconds of BENCHMARK.json, the length of a run the benchmark's
    contract states."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return float(json.load(fh)["run_seconds"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), help="default: every workload")
    ap.add_argument("--seed", type=int, default=0, help="input seed; 0 has a committed reference")
    ap.add_argument("--seconds", type=float, help="timed seconds of an untraced run "
                    "(default: run_seconds in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="with --trace 1, write every span as a JSON line here")
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = default_seconds()
    if args.workload is None:
        return run_all(args)
    wl = WORKLOADS[args.workload]
    try:
        if args.trace:
            metrics, wall, checker = run_traced(wl, args.seed, args.spans)
        else:
            metrics, wall, checker = run_untraced(wl, args.seed, args.seconds)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = report(wl, args.seed, metrics, wall, checker)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
