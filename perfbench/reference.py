"""Print the host fingerprint and the reference figures quoted in
perfbench/README.md.

    python3 perfbench/reference.py

Run from the root of a checkout.  Takes about a minute; the sort-list
growth rows dominate.
"""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
perf = time.perf_counter


def cold(argv, runs=5):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    times = []
    for _ in range(runs):
        started = perf()
        subprocess.run(argv, cwd=ROOT, env=env, check=True,
                       capture_output=True)
        times.append(perf() - started)
    return min(times), max(times)


def main() -> None:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    print(f"host: Python {platform.python_version()}, nproc "
          f"{os.cpu_count()}, {cpu}, {platform.system()} "
          f"{platform.release()}")

    py = sys.executable
    print("import repro: %.2f-%.2f s" % cold([py, "-c", "import repro"]))
    print("bare interpreter: %.2f-%.2f s" % cold([py, "-c", "pass"]))
    print("cold one-file batch: %.2f-%.2f s"
          % cold([py, "-m", "repro", "batch", "examples/iterative.lisp"]))

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from inputs import int_program
    from repro import Compiler
    from repro.datum import from_list, sym

    phases, functions, started = {}, 0, perf()
    for index in range(100):
        program = int_program(("reference", index), "p", 4)
        result = Compiler().compile(program.source, expression=False)
        functions += len(result.defined)
        for record in result.diagnostics.phases:
            phases[record.phase] = phases.get(record.phase, 0.0) \
                + record.duration_s
    elapsed = perf() - started
    print(f"100 seeded 4-function programs: {functions / elapsed:.0f} fn/s; "
          f"optimizer {phases['optimizer']:.2f} s of "
          f"{sum(phases.values()):.2f} s phase time")

    program = int_program(("reference", 0), "p", 4)
    for tier in ("simulate", "native"):
        compiler = Compiler()
        compiler.compile(program.source, expression=False)
        machine = compiler.machine()
        machine.tier = tier
        started = perf()
        for call in program.calls:
            machine.run(sym(call.fn), list(call.args))
        print(f"one-shot 4-function program, {tier}: "
              f"{perf() - started:.4f} s (translation included)")

    compiler = Compiler()
    compiler.compile("(defun fib (n) (if (< n 2) n "
                     "(+ (fib (- n 1)) (fib (- n 2)))))", expression=False)
    for tier in ("simulate", "native"):
        machine = compiler.machine()
        machine.tier = tier
        machine.run(sym("fib"), [10])
        started = perf()
        machine.run(sym("fib"), [18])
        print(f"fib 18, {tier}: {perf() - started:.3f} s")

    compiler = Compiler()
    compiler.load_prelude()
    compiler.compile("(defun la-sort (lst) "
                     "(sort-list (lambda (a b) (< a b)) lst))",
                     expression=False)
    for n in (500, 1000, 2000):
        machine = compiler.machine()
        machine.tier = "native"
        adopt, spent = machine.heap.adopt, [0.0]

        def timed_adopt(value, adopt=adopt, spent=spent):
            began = perf()
            adopt(value)
            spent[0] += perf() - began

        machine.heap.adopt = timed_adopt
        started = perf()
        machine.run(sym("la-sort"), [from_list(list(range(n, 0, -1)))])
        print(f"sort-list {n}, native: {perf() - started:.2f} s, "
              f"{spent[0]:.2f} s in Heap.adopt")

    from harness import Daemon
    from repro.api import request_fingerprint
    from repro import CompilerOptions

    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = os.path.join("perfbench", ".out")
    os.makedirs(out, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as scratch:
        started = perf()
        daemon = Daemon(scratch, env)
        ready = perf() - started
        try:
            sources = [int_program(("reference-daemon", i), "p", 4).source
                       for i in range(40)]
            keys = [request_fingerprint(s, CompilerOptions())
                    for s in sources]
            cold_ms, warm_ms = [], []
            for times in (cold_ms, warm_ms, warm_ms):
                for source, key in zip(sources, keys):
                    began = perf()
                    daemon.client.compile(source, listing=True,
                                          cache_key=key)
                    times.append((perf() - began) * 1e3)
        finally:
            daemon.stop()
    print(f"daemon: {ready:.2f} s to ready; cold median "
          f"{statistics.median(cold_ms):.1f} ms, warm median "
          f"{statistics.median(warm_ms):.1f} ms (one connection)")


if __name__ == "__main__":
    os.chdir(ROOT)
    main()
