"""The measuring half of the benchmark: spans, operation accounting, and
the four stages every workload's round is made of.

A *round* runs, in order, the stages a workload defines:

* compile -- one fresh ``Compiler`` per program (``Compiler.compile``),
* execute -- every call of a compiled program on four machine set-ups:
  the simulator, the native tier (after translation), the native tier
  with telemetry on, and the native tier under ``timing="pipelined"``,
* serve -- ``compile`` requests to the daemon over two closed-loop
  connections (``ServiceClient.compile``).

Every output is checked against the Python oracle in ``inputs`` (or, for
the daemon, against properties that need no stored copy).  Spans are
recorded only in traced rounds; they wrap the benchmark's own calls into
the program's public functions and add nothing inside ``src/repro``.
"""

from __future__ import annotations

import json
import os
import re
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from inputs import Call, Program, results_match

perf = time.perf_counter


# ---------------------------------------------------------------------------
# spans


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    def __init__(self, tracer: "Tracer", name: str, args: Dict[str, Any]):
        self.tracer = tracer
        self.name = name
        self.args = args

    def __enter__(self):
        stack = self.tracer._stack()
        self.parent = stack[-1] if stack else None
        self.id = self.tracer._next_id()
        stack.append(self.id)
        self.start = perf()
        return self

    def __exit__(self, *exc):
        end = perf()
        self.tracer._stack().pop()
        self.tracer.record(self.name, self.start, end, self.parent,
                           self.id, self.args)
        return False


class Tracer:
    """In-memory spans (name, start, end, parent), written out as a Chrome
    trace when the run ends.  Disabled, ``span`` costs one attribute test
    and returns a shared no-op context."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Dict[str, Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = 0

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _next_id(self) -> int:
        with self._lock:
            self._ids += 1
            return self._ids

    def span(self, name: str, **args: Any):
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, args)

    def record(self, name: str, start: float, end: float,
               parent: Optional[int], span_id: Optional[int] = None,
               args: Optional[Dict[str, Any]] = None) -> None:
        if span_id is None:
            span_id = self._next_id()
        self.spans.append({
            "name": name, "start": start, "end": end, "id": span_id,
            "parent": parent, "thread": threading.get_ident(),
            "args": args or {}})

    def write_chrome(self, path: str) -> int:
        threads: Dict[int, int] = {}
        events = []
        for span in self.spans:
            tid = threads.setdefault(span["thread"], len(threads) + 1)
            events.append({
                "name": span["name"], "ph": "X", "pid": 1, "tid": tid,
                "ts": span["start"] * 1e6,
                "dur": max(span["end"] - span["start"], 0.0) * 1e6,
                "args": dict(span["args"], id=span["id"],
                             parent=span["parent"])})
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      handle)
        return len(events)


# ---------------------------------------------------------------------------
# Lisp <-> Python


def to_lisp(value: Any) -> Any:
    from repro.datum import Cons, from_list

    if isinstance(value, list):
        return from_list([to_lisp(item) for item in value])
    if isinstance(value, tuple):
        return Cons(to_lisp(value[0]), to_lisp(value[1]))
    return value


def to_python(value: Any) -> Any:
    from repro.datum import NIL, Cons
    from repro.machine.values import pointer_to_lisp

    value = pointer_to_lisp(value)
    if value is NIL:
        return []
    if isinstance(value, Cons):
        items = []
        while isinstance(value, Cons):
            items.append(to_python(value.car))
            value = pointer_to_lisp(value.cdr)
        if value is not NIL:
            return (items, to_python(value))
        return items
    return value


# ---------------------------------------------------------------------------
# listings

_LABEL_DEF = re.compile(r"^(\S+):\s*$", re.MULTILINE)
_GENSYM = re.compile(r"#:[^\s()]+")


def canonical_listing(text: str) -> str:
    """*text* with its labels and uninterned symbols renamed in order of
    appearance.  The compiler numbers both from process-wide counters, so
    two compiles of one source differ only in these names."""
    labels = {label: f"L{index}" for index, label
              in enumerate(dict.fromkeys(_LABEL_DEF.findall(text)))}
    if labels:
        pattern = re.compile(r"(?<![\w-])(" + "|".join(
            re.escape(label) for label in sorted(labels, key=len,
                                                 reverse=True))
            + r")(?![\w-])")
        text = pattern.sub(lambda match: labels[match.group(1)], text)
    symbols: Dict[str, str] = {}
    return _GENSYM.sub(lambda match: symbols.setdefault(
        match.group(0), f"#:G{len(symbols)}"), text)


# ---------------------------------------------------------------------------
# percentiles


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in (0, 1])."""
    ordered = sorted(values)
    rank = max(1, min(len(ordered), int(-(-share * len(ordered) // 1))))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# the four machine set-ups

#: (label, tier, telemetry, timing).  The pipelined model runs on the
#: native tier: its cycle count is identical on both tiers, and the
#: native tier keeps the set-up cheap.
MACHINE_SETUPS = (
    ("simulate", "simulate", False, "single"),
    ("native", "native", False, "single"),
    ("telemetry", "native", True, "single"),
    ("pipelined", "native", False, "pipelined"),
)


class Machines:
    """One compiled program's four machines (or its simulator alone)."""

    def __init__(self, bench: "Bench", compiler: Any, native: bool = True):
        self.by_label: Dict[str, Any] = {}
        for label, tier, telemetry, timing in MACHINE_SETUPS:
            if tier == "native" and not native:
                continue
            machine = compiler.machine()
            machine.tier = tier
            if timing != machine.timing:
                machine.set_timing(timing)
            if telemetry:
                machine.enable_telemetry()
            bench.instrument_heap(machine.heap)
            self.by_label[label] = machine


# ---------------------------------------------------------------------------
# the daemon


class Daemon:
    """``python -m repro serve`` in a fresh cache directory, spawned from
    the checkout root with ``src`` on the path."""

    def __init__(self, workdir: str, env: Dict[str, str]):
        from repro.client import ServiceClient

        os.makedirs(workdir, exist_ok=True)
        # A relative socket path keeps AF_UNIX's 108-byte limit whatever
        # the checkout's absolute path is; client and daemon share a cwd.
        self.socket = os.path.join(workdir, "d.sock")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket",
             self.socket, "--jobs", "2", "--cache-dir",
             os.path.join(workdir, "cache")],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        self.rusage = None
        self.client = ServiceClient(self.socket, timeout=60.0)
        if not self.client.wait_ready(timeout=60.0, interval=0.005):
            self.stop()
            raise RuntimeError("daemon did not answer within 60 s")

    def running(self) -> bool:
        """Whether the daemon has not exited.  Unlike ``Popen.poll`` this
        leaves an exited daemon unreaped, so ``stop`` still reads its
        resource usage."""
        if self.process.returncode is not None:
            return False
        return os.waitid(os.P_PID, self.process.pid, os.WEXITED
                         | os.WNOHANG | os.WNOWAIT) is None

    def stop(self) -> None:
        """Shut the daemon down and reap it; keeps its resource usage."""
        if self.process.returncode is not None:
            return
        try:
            self.client.shutdown()
        except Exception:  # noqa: BLE001 - it may already be gone
            self.process.terminate()
        deadline = time.monotonic() + 30.0
        while True:
            pid, status, rusage = os.wait4(self.process.pid, os.WNOHANG)
            if pid:
                self.rusage = rusage
                self.process.returncode = os.waitstatus_to_exitcode(status)
                return
            if time.monotonic() > deadline:
                self.process.kill()
                _, status, self.rusage = os.wait4(self.process.pid, 0)
                self.process.returncode = os.waitstatus_to_exitcode(status)
                return
            time.sleep(0.01)

    def peak_rss_mb(self) -> float:
        return self.rusage.ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# the bench: operation accounting, stages, per-layer accumulators

PHASE_LAYERS = {
    "ir conversion": "ir", "analysis": "analysis",
    "optimizer": "optimizer", "cse": "cse", "annotate": "annotate",
    "tnbind": "tnbind", "codegen": "codegen", "peephole": "peephole",
}


class Bench:
    def __init__(self, root: str, trace: bool):
        self.root = root
        self.trace = trace
        self.tracer = Tracer()
        self.attempted = 0
        self.failed = 0
        self.wrong: List[str] = []
        self.failures: List[str] = []
        #: -1 during set-up, then the index of the running round.
        self.round_index = -1
        #: Rounds whose inputs define the count metrics (code size,
        #: cycles, allocations); set by the workload.  Every run completes
        #: at least this many rounds, so the counts cover the same inputs
        #: whatever the run length or host speed.
        self.count_rounds = 1
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.totals: Dict[str, float] = defaultdict(float)
        #: Per-layer accumulators, filled in traced rounds only.
        self.layer: Dict[str, float] = defaultdict(float)
        self.layer_samples: Dict[str, List[float]] = defaultdict(list)
        self.round_stage: Dict[str, float] = defaultdict(float)
        #: Called by a workload between the blocks of a round, to have
        #: each block scaled by the host's speed while it ran; the runner
        #: sets it.
        self.boundary: Callable[[], None] = lambda: None
        self.env = dict(os.environ,
                        PYTHONPATH=os.path.join(root, "src"))
        self._pool = None
        #: Compilation-cache hits / probes the daemon reported at the end.
        self.daemon_cache_hit_ratio = 0.0

    # -- accounting ---------------------------------------------------------

    def op(self, what: str, ok: bool, wrong: Optional[str] = None) -> None:
        """One attempted operation: *ok* False means it raised; *wrong* is
        set when it returned a value its oracle rejects."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 8:
                self.failures.append(what)
        elif wrong is not None:
            self.wrong.append(f"{what}: {wrong}")

    def check(self, what: str, condition: bool, detail: str = "") -> None:
        """A correctness check that is not an operation of its own."""
        if not condition:
            self.wrong.append(f"{what}: {detail}")

    @property
    def counting(self) -> bool:
        return 0 <= self.round_index < self.count_rounds

    def path(self, relative: str) -> str:
        return os.path.join(self.root, relative)

    def read(self, relative: str) -> str:
        with open(self.path(relative), "r", encoding="utf-8") as handle:
            return handle.read()

    # -- instrumentation wrappers (installed on instances, never in src) ----

    def instrument_heap(self, heap: Any) -> None:
        if not self.trace:
            return
        tracer, layer = self.tracer, self.layer
        adopt, collect = heap.adopt, heap.collect

        def timed_adopt(value):
            if not tracer.enabled:
                return adopt(value)
            started = perf()
            try:
                return adopt(value)
            finally:
                layer["machine.heap.adopt_s"] += perf() - started
                layer["machine.heap.adopt_calls"] += 1

        def timed_collect(roots, reason="explicit"):
            with tracer.span("Heap.collect"):
                return collect(roots, reason)

        heap.adopt = timed_adopt
        heap.collect = timed_collect

    def instrument_translation(self) -> None:
        """Time ``repro.machine.native.translate`` (the machine looks it up
        on the module at each translation)."""
        if not self.trace:
            return
        import repro.machine.native as native

        translate, bench = native.translate, self

        def timed_translate(*args, **kwargs):
            started = perf()
            try:
                return translate(*args, **kwargs)
            finally:
                if bench.round_index < 0:
                    bench.layer["machine.native.translate_setup_s"] += \
                        perf() - started
                elif bench.tracer.enabled:
                    bench.layer["machine.native.translate_round_s"] += \
                        perf() - started

        native.translate = timed_translate

    # -- compile stage ----------------------------------------------------------

    def compile(self, program: Program, options: Any,
                label: str = "default") -> Optional[Any]:
        """One fresh, timed ``Compiler`` for *program*; returns it, or None
        when the compile raised."""
        from repro import Compiler, read_all
        from repro.errors import ReproError

        tracer = self.tracer
        if tracer.enabled:
            with tracer.span("read_all", program=program.label):
                started = perf()
                forms = read_all(program.source)
                self.layer["reader.seconds"] += perf() - started
                self.layer["reader.forms"] += len(forms)
        compiler = Compiler(options)
        with tracer.span("Compiler.compile", program=program.label,
                         options=label) as span:
            started = perf()
            try:
                result = compiler.compile(program.source, expression=False)
            except ReproError as err:
                self.op(f"compile {program.label} [{label}]: "
                        f"{type(err).__name__}: {err}", False)
                return None
            elapsed = perf() - started
        self.samples["compile_ms"].append(elapsed * 1e3)
        self.totals["compile_s"] += elapsed
        self.totals["compile_fns"] += len(result.defined)
        defined = [str(name) for name in result.defined]
        self.op(f"compile {program.label} [{label}]", True,
                None if defined == program.defuns
                else f"defined {defined}, expected {program.defuns}")
        if self.counting and label == "default":
            self.totals["code_instructions"] += sum(
                len(f.code.instructions) for f in result.functions.values())
        if tracer.enabled:
            self._phase_layers(result.diagnostics, span.id)
        return compiler

    def _phase_layers(self, diagnostics: Any, parent: int) -> None:
        layer = self.layer
        for record in diagnostics.phases:
            name = PHASE_LAYERS.get(record.phase)
            if name is None:
                continue
            layer[f"{name}.seconds"] += record.duration_s
            if record.started_s is not None:
                self.tracer.record(f"phase:{record.phase}", record.started_s,
                                   record.started_s + record.duration_s,
                                   parent, args={"function": record.function})
            if name == "ir" and record.nodes_after:
                layer["ir.nodes"] += record.nodes_after
            elif name == "optimizer" and record.nodes_after:
                layer["optimizer.nodes_out"] += record.nodes_after
            elif name == "tnbind" and record.nodes_after:
                layer["tnbind.tns"] += record.nodes_after
            elif name == "codegen" and record.nodes_after:
                layer["codegen.instructions"] += record.nodes_after
            elif name == "peephole" and record.nodes_before is not None:
                layer["peephole.instructions_removed"] += \
                    record.nodes_before - (record.nodes_after or 0)
        layer["optimizer.rule_fires"] += sum(
            count for rule, count in diagnostics.rule_fires.items()
            if not rule.startswith("PEEPHOLE-"))

    # -- execute stage -----------------------------------------------------------

    def run_call(self, machine: Any, call: Call, what: str,
                 count: bool = True) -> Tuple[bool, float]:
        """Run one call; returns (completed, seconds).  With *count* False
        it is a warm-up: checked, but not an operation."""
        from repro.datum import sym
        from repro.errors import ReproError

        args = [to_lisp(arg) for arg in call.args]
        with self.tracer.span("Machine.run", fn=call.fn, setup=what):
            started = perf()
            try:
                got = machine.run(sym(call.fn), args)
            except ReproError as err:
                if count:
                    self.op(f"{what} ({call.fn} ...): "
                            f"{type(err).__name__}: {err}", False)
                else:
                    self.check(what, False, f"{type(err).__name__}: {err}")
                return False, 0.0
            elapsed = perf() - started
        value = to_python(got)
        wrong = None if results_match(value, call) \
            else f"({call.fn} ...) gave {value!r}, expected {call.expected!r}"
        if count:
            self.op(what, True, wrong)
        else:
            self.check(what, wrong is None, wrong or "")
        return True, elapsed

    def execute(self, program: Program, machines: Machines,
                only: Optional[str] = None) -> None:
        """Every call of *program* once on each machine set-up, or on the
        set-up labelled *only*."""
        for label, machine in machines.by_label.items():
            if only is not None and label != only:
                continue
            before = _machine_counts(machine)
            if label == "telemetry" and self.tracer.enabled:
                inline_before = _telemetry_counts(machine.telemetry)
            seconds = 0.0
            for call in program.calls:
                _, elapsed = self.run_call(machine, call,
                                           f"{program.label} on {label}")
                seconds += elapsed
            self.round_stage[f"{label}_s"] += seconds
            after = _machine_counts(machine)
            delta = {key: after[key] - before[key] for key in after}
            if self.counting:
                if label == "simulate":
                    self.totals["cycles"] += delta["cycles"]
                    self.totals["heap_allocations"] += delta["allocations"]
                elif label == "pipelined":
                    self.totals["pipelined_cycles"] += delta["cycles"]
            if self.tracer.enabled:
                self._machine_layers(label, machine, delta, seconds)
                if label == "telemetry":
                    inline_after = _telemetry_counts(machine.telemetry)
                    for key, now, then in zip(
                            ("ic_hits", "ic_misses", "fallback_cycles"),
                            inline_after, inline_before):
                        self.layer[f"machine.native.{key}"] += now - then

    def warm(self, program: Program, machines: Machines,
             calls: Optional[Sequence[Call]] = None) -> None:
        """Translate every function the calls reach: one unmeasured run of
        each call (or of *calls*) on the native set-ups."""
        for label, machine in machines.by_label.items():
            if machine.tier == "native":
                for call in calls if calls is not None else program.calls:
                    self.run_call(machine, call,
                                  f"{program.label} warm-up on {label}",
                                  count=False)

    def _machine_layers(self, label: str, machine: Any,
                        delta: Dict[str, int], seconds: float) -> None:
        layer = self.layer
        if label == "simulate":
            layer["machine.simulate.seconds"] += seconds
            layer["machine.instructions"] += delta["instructions"]
            layer["machine.calls"] += delta["calls"]
            layer["machine.special_lookups"] += delta["special_lookups"]
            for kind in ("number-box", "cons", "closure", "cell"):
                layer[f"machine.heap.allocations.{kind}"] += delta[kind]
            layer["machine.heap.live_objects"] += machine.heap.live_count()
        elif label == "native":
            layer["machine.native.seconds"] += seconds
            layer["machine.native.instructions"] += delta["instructions"]
        elif label == "pipelined":
            for kind in ("data", "control", "structural"):
                layer[f"machine.timing.stall_{kind}"] += delta[
                    f"stall_{kind}"]

    def collect(self, machines: Machines) -> None:
        """Reclaim what a round left on the persistent machines' heaps so
        every round starts from the same heap."""
        for machine in machines.by_label.values():
            machine.collect_garbage("round")

    # -- the interpreter oracle --------------------------------------------------

    def interpret(self, program: Program, prelude: bool = False) -> None:
        """Cross-check the Python oracle with the reference interpreter
        (outside every timed region; not an operation)."""
        from repro import Interpreter
        from repro.compiler import prelude_source
        from repro.datum import sym
        from repro.errors import ReproError

        with self.tracer.span("Interpreter", program=program.label):
            started = perf()
            interp = Interpreter()
            # The interpreter recurses on the Python stack, several frames
            # per Lisp call: the list workload's non-tail recursion over
            # hundreds of elements needs more than the default limit.
            limit = sys.getrecursionlimit()
            sys.setrecursionlimit(max(limit, 50_000))
            try:
                if prelude:
                    interp.eval_source(prelude_source())
                interp.eval_source(program.source)
                for call in program.calls:
                    got = interp.apply_function(
                        interp.global_functions[sym(call.fn)],
                        [to_lisp(arg) for arg in call.args])
                    value = to_python(got)
                    self.check(f"interpreter {program.label}",
                               results_match(value, call),
                               f"({call.fn} ...) gave {value!r}, "
                               f"expected {call.expected!r}")
            except ReproError as err:
                self.check(f"interpreter {program.label}", False,
                           f"{type(err).__name__}: {err}")
            finally:
                sys.setrecursionlimit(limit)
            self.totals["interp_s"] += perf() - started

    # -- serve stage ---------------------------------------------------------------

    def serve(self, daemon: Daemon,
              requests: Sequence[Tuple[Program, str, Optional[Dict]]],
              listings: Dict[str, str]) -> None:
        """Send every request over two closed-loop connections; then check
        each response.  *listings* maps a program label to the first
        listing the daemon gave for it."""
        from concurrent.futures import ThreadPoolExecutor
        from repro.client import ServiceError, ServiceUnavailable

        if self._pool is None:
            self._pool = ThreadPoolExecutor(2, thread_name_prefix="client")
        client, tracer = daemon.client, self.tracer
        traced = tracer.enabled
        results: List[Any] = [None] * len(requests)
        latencies: List[float] = [0.0] * len(requests)
        cursor = iter(range(len(requests)))
        cursor_lock = threading.Lock()

        def connection() -> None:
            while True:
                with cursor_lock:
                    index = next(cursor, None)
                if index is None:
                    return
                program, key, options = requests[index]
                with tracer.span("ServiceClient.compile",
                                 program=program.label):
                    started = perf()
                    try:
                        if traced:
                            response, record = client.compile_traced(
                                program.source, listing=True,
                                cache_key=key, options=options,
                                diagnostics=True)
                        else:
                            response = client.compile(
                                program.source, listing=True,
                                cache_key=key, options=options)
                            record = None
                    except (ServiceError, ServiceUnavailable) as err:
                        response = err
                        record = None
                    latencies[index] = perf() - started
                results[index] = (response, record)

        started = perf()
        futures = [self._pool.submit(connection) for _ in range(2)]
        for future in futures:
            future.result()
        self.round_stage["serve_s"] += perf() - started
        self.round_stage["requests"] += len(requests)
        for index, (program, _, _) in enumerate(requests):
            response, record = results[index]
            what = f"request {program.label}"
            if isinstance(response, Exception):
                self.op(f"{what}: {type(response).__name__}: {response}",
                        False)
                continue
            self.samples["request_ms"].append(latencies[index] * 1e3)
            self.op(what, True, self._response_problem(
                program, response, listings))
            if traced:
                self._serve_layers(response, record, latencies[index])

    def _response_problem(self, program: Program, response: Dict[str, Any],
                          listings: Dict[str, str]) -> Optional[str]:
        if response.get("defined") != program.defuns:
            return (f"defined {response.get('defined')}, expected "
                    f"{program.defuns}")
        listing = canonical_listing(response.get("listing") or "")
        first = listings.setdefault(program.label, listing)
        if listing != first:
            return "listing differs from the program's first listing"
        return None

    def _serve_layers(self, response: Dict[str, Any],
                      record: Dict[str, Any], latency: float) -> None:
        layer, samples = self.layer, self.layer_samples
        timing = record.get("server_timing") or {}
        queue = timing.get("queue_wait_s", 0.0)
        execute = timing.get("execute_s", 0.0)
        samples["serve.queue_wait_ms"].append(queue * 1e3)
        samples["serve.execute_ms"].append(execute * 1e3)
        samples["client.wire_ms"].append((latency - queue - execute) * 1e3)
        layer["serve.responses"] += 1
        if response.get("served_from") == "response-cache":
            layer["serve.response_cache_hits"] += 1
            return
        diagnostics = response.get("diagnostics") or {}
        for phase in diagnostics.get("phases", ()):
            if phase.get("phase") == "cache":
                samples["cache.lookup_ms"].append(
                    phase.get("duration_s", 0.0) * 1e3)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    # -- the cold CLI --------------------------------------------------------------

    def cli_batch(self, relative: str) -> None:
        """One cold ``python -m repro batch FILE`` process."""
        started = perf()
        done = subprocess.run(
            [sys.executable, "-m", "repro", "batch", relative],
            cwd=self.root, env=self.env, capture_output=True, text=True,
            timeout=120)
        self.samples["cli_batch_s"].append(perf() - started)
        self.check(f"batch {relative}",
                   done.returncode == 0 and "1 ok / 0 failed" in done.stdout,
                   done.stdout + done.stderr)


def _machine_counts(machine: Any) -> Dict[str, int]:
    stats = machine.stats()
    allocations = stats["heap_allocations"]
    stalls = stats["stall_cycles"]
    return {
        "instructions": stats["instructions"],
        "cycles": stats["cycles"],
        "calls": stats["calls"],
        "special_lookups": stats["special_lookups"],
        "allocations": stats["total_heap_allocations"],
        "number-box": allocations.get("number-box", 0),
        "cons": allocations.get("cons", 0),
        "closure": allocations.get("closure", 0),
        "cell": allocations.get("cell", 0),
        "stall_data": stalls["data"],
        "stall_control": stalls["control"],
        "stall_structural": stalls["structural"],
    }


def _telemetry_counts(telemetry: Any) -> Tuple[int, int, int]:
    """(inline-cache hits, misses, fallback cycles) so far."""
    hits = sum(cell[0] for cell in telemetry.ic_sites.values())
    misses = sum(cell[1] for cell in telemetry.ic_sites.values())
    return hits, misses, sum(telemetry.fallback_cycles.values())
