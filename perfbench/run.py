"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload compile-corpus --seed 1 \\
        --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from ``src``.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics, measured by spans around the benchmark's calls into
the program, and writes those spans as a Chrome trace under
``perfbench/.out/``.  See perfbench/README.md for what each workload and
metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

perf = time.perf_counter
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join("perfbench", ".out")

#: Fresh interpreters whose set-up time makes one setup_s reading.
SETUP_SAMPLES = 3
#: ``calibrate.calibrate()`` on the reference host (2-core Xeon, Python
#: 3.11.7).  Times are reported in that host's seconds (see Scaler), so
#: that the host's speed, which on a shared machine drifts by a fifth
#: within seconds, drops out.  Standard error carries the unscaled
#: medians.
CALIBRATION_REFERENCE_S = 0.0200
#: Cold one-file ``python -m repro batch`` runs per cli_batch_s reading.
CLI_SAMPLES = 5


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up, print READY, tear down "
                             "(one setup_s sample)")
    return parser.parse_args(argv)


def import_program() -> float:
    """Import ``repro`` from this checkout's ``src``; returns the seconds
    the import took.  Exits with status 1 when the checkout holds no
    program."""
    package = os.path.join(ROOT, "src", "repro", "__init__.py")
    if not os.path.isfile(package):
        sys.exit(f"perfbench: no program to measure: {package} is missing")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    started = perf()
    import repro

    elapsed = perf() - started
    if os.path.dirname(os.path.abspath(repro.__file__)) \
            != os.path.dirname(package):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from this checkout")
    return elapsed


def setup_sample(args) -> float:
    """Seconds from spawning a fresh interpreter until it has set the
    workload up (import, set-up compiles, translation, daemon ready)."""
    started = perf()
    child = subprocess.Popen(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--setup-only", "--workload", args.workload, "--seed",
         str(args.seed), "--seconds", str(args.seconds)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = child.stdout.readline()
        elapsed = perf() - started
        child.stdout.read()
    finally:
        code = child.wait(timeout=120)
    if line.strip() != "READY" or code != 0:
        raise RuntimeError(f"set-up child failed (exit {code}): {line!r}")
    return elapsed


class Scaler:
    """Scales what the bench times to reference-host seconds, block by
    block.  A probe of the calibration loop opens and closes every block,
    and what the block timed is multiplied by CALIBRATION_REFERENCE_S over
    the mean of its two probes.  A round is one block unless its workload
    calls ``bench.boundary()`` inside it, as the long rounds do: on a
    shared host the loop's time can halve within one three-second round,
    so probes only at a round's ends misjudge its stages."""

    def __init__(self, bench, calibrate) -> None:
        self.bench = bench
        self.calibrate = calibrate
        #: The samples before scaling, for standard error.
        self.raw = defaultdict(list)
        #: This round's stage seconds (``round_stage``), scaled.
        self.stage = defaultdict(float)
        #: Wall seconds the probes inside this round took.
        self.probe_s = 0.0

    def _probe(self) -> float:
        started = perf()
        with self.bench.tracer.span("calibrate"):
            value = self.calibrate()
        self.probe_s += perf() - started
        self.bench.samples["calibration_s"].append(value)
        return value

    def around(self, action) -> float:
        """Run *action* as a block of its own; returns reference-host
        seconds per measured second."""
        before = self._probe()
        action()
        return CALIBRATION_REFERENCE_S * 2 / (before + self._probe())

    def open_round(self) -> None:
        self.bench.round_stage.clear()
        self.stage.clear()
        self._mark(self._probe())
        self.probe_s = 0.0

    def boundary(self) -> None:
        """Close the running block, scaling what it timed, and open the
        next one."""
        probe = self._probe()
        speed = CALIBRATION_REFERENCE_S * 2 / (self.probe + probe)
        bench = self.bench
        for key, mark in self.marks.items():
            values = bench.samples[key]
            self.raw[key].extend(values[mark:])
            values[mark:] = [value * speed for value in values[mark:]]
        bench.totals["scaled_compile_s"] += \
            (bench.totals["compile_s"] - self.compile_s) * speed
        for key, value in bench.round_stage.items():
            if key.endswith("_s"):
                self.stage[key] += (value - self.stage_marks.get(key, 0.0)) \
                    * speed
        self._mark(probe)

    def _mark(self, probe: float) -> None:
        bench = self.bench
        self.probe = probe
        self.marks = {key: len(bench.samples[key])
                      for key in ("compile_ms", "request_ms")}
        self.compile_s = bench.totals["compile_s"]
        self.stage_marks = dict(bench.round_stage)


def main(argv) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    import_s = import_program()
    from calibrate import Calibrator
    from harness import Bench, median
    from workloads import WORKLOADS

    workdir = os.path.join(OUT, f"run-{os.getpid()}")
    bench = Bench(ROOT, bool(args.trace))
    workload = WORKLOADS[args.workload](bench, args.seed, workdir)
    if args.setup_only:
        try:
            workload.setup()
            print("READY", flush=True)
        finally:
            workload.teardown()
            bench.close()
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    host = bench.samples["calibration_s"]
    calibrate = Calibrator()
    scaler = Scaler(bench, calibrate)
    bench.boundary = scaler.boundary
    raw = scaler.raw
    setup_s = []
    # Round seconds, traced and untraced; round 0 (interpreter oracle,
    # cold daemon) is left out of both.
    round_s = {True: [], False: []}
    bench.count_rounds = workload.count_rounds
    # Round 0 sends the persistent workloads' programs cold, so serve
    # figures need one round after it.
    min_rounds = max(workload.count_rounds, 2) + 2 * bench.trace
    bench.instrument_translation()

    def run_round() -> None:
        # A traced run alternates traced and untraced rounds: the
        # difference of their medians is the tracing overhead.
        traced = bench.trace and bench.round_index % 2 == 0
        bench.tracer.enabled = traced
        scaler.open_round()
        round_started = perf()
        with bench.tracer.span("round", index=bench.round_index):
            workload.round()
        elapsed = perf() - round_started - scaler.probe_s
        scaler.boundary()
        if bench.round_index > 0:
            round_s[traced].append(elapsed)
        bench.tracer.enabled = False

    samples, totals = bench.samples, bench.totals

    def cli_sample() -> None:
        speed = scaler.around(lambda: bench.cli_batch(workload.cli_file))
        raw["cli_batch_s"].append(samples["cli_batch_s"][-1])
        samples["cli_batch_s"][-1] *= speed

    try:
        for _ in range(SETUP_SAMPLES):
            speed = scaler.around(lambda: setup_s.append(setup_sample(args)))
            raw["setup_s"].append(setup_s[-1])
            setup_s[-1] *= speed
        workload.setup()
        # Set-up garbage is collected and what survives it is frozen, so
        # the collector's passes during the rounds do not re-walk it.
        gc.collect()
        gc.freeze()
        bench.round_index = 0
        started = perf()
        while bench.round_index < min_rounds \
                or perf() - started < args.seconds:
            run_round()
            if bench.round_index > 0:
                # Round 0 sends the persistent workloads' programs cold.
                totals["serve_s"] += bench.round_stage["serve_s"]
                totals["scaled_serve_s"] += scaler.stage["serve_s"]
                totals["requests"] += bench.round_stage["requests"]
            for stage in ("simulate", "native", "telemetry"):
                raw[f"{stage}_run_s"].append(bench.round_stage[f"{stage}_s"])
                samples[f"{stage}_run_s"].append(scaler.stage[f"{stage}_s"])
            bench.round_index += 1
            # Cold CLI runs are spread over the run, between rounds, so
            # that their median does not rest on one stretch of time.
            taken = len(samples["cli_batch_s"])
            if taken < CLI_SAMPLES and perf() - started \
                    >= taken * args.seconds / CLI_SAMPLES:
                cli_sample()
        while len(samples["cli_batch_s"]) < CLI_SAMPLES:
            cli_sample()
    finally:
        try:
            workload.teardown()
        finally:
            calibrate.close()
            bench.close()
            shutil.rmtree(workdir, ignore_errors=True)
    rss = workload.peak_rss_mb()

    if args.trace:
        metrics = layer_metrics(bench, import_s, round_s,
                                CALIBRATION_REFERENCE_S / median(host))
        path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json")
        count = bench.tracer.write_chrome(path)
        print(f"trace: {count} spans in {path}", file=sys.stderr)
    else:
        metrics = {
            "setup_s": (median(setup_s), "s"),
            "compile_fns_per_s": (totals["compile_fns"]
                                  / totals["scaled_compile_s"], "fn/s"),
            "compile_p50_ms": (median(samples["compile_ms"]), "ms"),
            "cli_batch_s": (median(samples["cli_batch_s"]), "s"),
            "code_instructions": (totals["code_instructions"], "count"),
            "cycles": (totals["cycles"], "count"),
            "pipelined_cycles": (totals["pipelined_cycles"], "count"),
            "heap_allocations": (totals["heap_allocations"], "count"),
            "simulate_run_s": (median(samples["simulate_run_s"]), "s"),
            "native_run_s": (median(samples["native_run_s"]), "s"),
            "native_telemetry_run_s": (median(samples["telemetry_run_s"]),
                                       "s"),
            "request_p50_ms": (median(samples["request_ms"]), "ms"),
            "requests_per_s": (totals["requests"]
                               / totals["scaled_serve_s"], "req/s"),
            "peak_rss_mb": (rss, "MB"),
        }
    print(f"{args.workload}: {bench.round_index} rounds, median "
          f"{median(round_s[True] + round_s[False]):.3f} s (unscaled); "
          f"host calibration median {median(host):.5f} s",
          file=sys.stderr)
    print("  unscaled medians: " + " ".join(
        f"{name}={value:.4g}" for name, value in (
            ("setup_s", median(raw["setup_s"])),
            ("compile_fns_per_s", totals["compile_fns"]
             / max(totals["compile_s"], 1e-9)),
            ("compile_p50_ms", median(raw["compile_ms"])),
            ("cli_batch_s", median(raw["cli_batch_s"])),
            ("simulate_run_s", median(raw["simulate_run_s"])),
            ("native_run_s", median(raw["native_run_s"])),
            ("native_telemetry_run_s", median(raw["telemetry_run_s"])),
            ("request_p50_ms", median(raw["request_ms"])),
            ("requests_per_s", totals["requests"]
             / max(totals["serve_s"], 1e-9)))),
        file=sys.stderr)
    for key in ("compile_ms", "request_ms", "simulate_run_s",
                "native_run_s", "cli_batch_s", "calibration_s"):
        values = samples[key]
        if len(values) > 1:
            print(f"  {key}: n={len(values)} deciles "
                  + " ".join(f"{q:.4g}" for q in
                             statistics.quantiles(values, n=10)),
                  file=sys.stderr)
    for problem in bench.wrong[:20]:
        print(f"WRONG: {problem}", file=sys.stderr)
    for failure in bench.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not bench.wrong,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def layer_metrics(bench, import_s, round_s, speed):
    """The per-layer metrics: per traced round, except import.seconds
    (once per interpreter) and the trace's own overhead.  Times are
    scaled by *speed*, the run's reference-host seconds per second."""
    from harness import median, percentile

    rounds = (bench.round_index + 1) // 2
    layer, samples = bench.layer, bench.layer_samples

    def per_round(key):
        return layer[key] / rounds

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {"import.seconds": (import_s, "s")}
    for name in ("reader", "ir", "analysis", "optimizer", "cse",
                 "annotate", "tnbind", "codegen", "peephole"):
        metrics[f"{name}.seconds"] = (per_round(f"{name}.seconds"), "s")
    metrics["reader.forms_per_s"] = (
        ratio(layer["reader.forms"], layer["reader.seconds"]), "1/s")
    for key in ("ir.nodes", "optimizer.rule_fires", "optimizer.nodes_out",
                "tnbind.tns", "codegen.instructions",
                "peephole.instructions_removed", "machine.instructions",
                "machine.calls", "machine.special_lookups",
                "machine.native.fallback_cycles",
                "machine.heap.adopt_calls",
                "machine.heap.allocations.number-box",
                "machine.heap.allocations.cons",
                "machine.heap.allocations.closure",
                "machine.heap.allocations.cell",
                "machine.heap.live_objects",
                "machine.timing.stall_data", "machine.timing.stall_control",
                "machine.timing.stall_structural"):
        metrics[key] = (per_round(key), "count")
    simulate_s = per_round("machine.simulate.seconds")
    native_s = per_round("machine.native.seconds")
    metrics["machine.simulate.seconds"] = (simulate_s, "s")
    metrics["machine.simulate.instructions_per_s"] = (
        ratio(layer["machine.instructions"],
              layer["machine.simulate.seconds"]), "1/s")
    metrics["machine.native.seconds"] = (native_s, "s")
    metrics["machine.native.instructions_per_s"] = (
        ratio(layer["machine.native.instructions"],
              layer["machine.native.seconds"]), "1/s")
    metrics["machine.native.translate_s"] = (
        layer["machine.native.translate_setup_s"]
        + per_round("machine.native.translate_round_s"), "s")
    metrics["machine.native.ic_hit_ratio"] = (
        ratio(layer["machine.native.ic_hits"],
              layer["machine.native.ic_hits"]
              + layer["machine.native.ic_misses"]), "ratio")
    metrics["machine.heap.adopt_s"] = (per_round("machine.heap.adopt_s"),
                                       "s")
    metrics["cache.hit_ratio"] = (bench.daemon_cache_hit_ratio, "ratio")
    metrics["cache.lookup_ms"] = (median(samples["cache.lookup_ms"]), "ms")
    metrics["serve.queue_wait_ms"] = (median(samples["serve.queue_wait_ms"]),
                                      "ms")
    metrics["serve.execute_ms"] = (median(samples["serve.execute_ms"]), "ms")
    metrics["serve.response_cache_hit_ratio"] = (
        ratio(layer["serve.response_cache_hits"], layer["serve.responses"]),
        "ratio")
    metrics["client.wire_ms"] = (median(samples["client.wire_ms"]), "ms")
    metrics["interp.seconds"] = (
        bench.totals["interp_s"] / max(bench.round_index, 1), "s")
    traced, untraced = median(round_s[True]), median(round_s[False])
    metrics["trace.round_s"] = (untraced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    metrics = {name: (value * speed if unit in ("s", "ms")
                      else value / speed if unit == "1/s" else value, unit)
               for name, (value, unit) in metrics.items()}
    # Already scaled round by round, like the end-to-end metrics.
    base = median(bench.samples["native_run_s"])
    metrics["telemetry.base_s"] = (base, "s")
    metrics["telemetry.overhead_ratio"] = (
        ratio(median(bench.samples["telemetry_run_s"]), base), "ratio")
    # Tails: measured like their end-to-end siblings, but they move by a
    # quarter or more from run to run, so they carry no bound.
    metrics["compile_p95_ms"] = (
        percentile(bench.samples["compile_ms"], 0.95), "ms")
    metrics["request_p99_ms"] = (
        percentile(bench.samples["request_ms"], 0.99), "ms")
    metrics["host.calibration_s"] = (
        median(bench.samples["calibration_s"]), "s")
    return metrics


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
