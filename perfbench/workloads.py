"""The four workloads.  Each one is a set-up plus a round; the runner
repeats whole rounds until the run's time is up.

Every round passes through all three stages (compile, execute, serve),
so every workload reports every end-to-end metric, but each workload's
inputs make a different layer dominate:

* ``compile-corpus`` -- fresh seeded integer programs every round: the
  compiler's phases do nearly all the work, the machine almost none,
  and each program's first daemon request is a cache write.
* ``numeric-kernels`` -- the Table 4 TESTFN drive loop, fib, the prog/go
  loops and the float polynomial code: machine dispatch, inline caches,
  BOXF/UNBOX and hazard stalls dominate; the heap only boxes numbers.
* ``list-alloc`` -- the prelude's list code over seeded lists of a few
  hundred to a few thousand elements: cons allocation and
  ``Heap.adopt`` dominate.
* ``daemon`` -- first-seen programs beside Zipf-skewed repeats: the
  wire, the request queue and the response caches dominate.
"""

from __future__ import annotations

import os
import re
from typing import Any, Dict, List, Optional, Tuple

from harness import MACHINE_SETUPS, Bench, Daemon, Machines, canonical_listing
from inputs import (
    CSE_REPRODUCER,
    LIST_WRAPPERS,
    TARGETS,
    WARM_SIZES,
    Program,
    daemon_programs,
    daemon_repeats,
    example_programs,
    int_program,
    list_calls,
    numeric_programs,
)

CORPUS_PROGRAMS_PER_ROUND = 10
CORPUS_FUNCTIONS = 4


def defun_names(source: str) -> List[str]:
    """The names a source file defines, read with a regular expression so
    the check does not rest on the compiler's own reader."""
    return re.findall(r"^\(defun\s+([^\s()]+)", source, re.MULTILINE)


def options_for(target: str, **extra: Any) -> Any:
    from repro import CompilerOptions

    return CompilerOptions(target=target, **extra)


def wire_options(program: Program) -> Optional[Dict[str, Any]]:
    return None if program.target == "s1" else {"target": program.target}


def request_key(program: Program) -> str:
    from repro.api import request_fingerprint

    return request_fingerprint(program.source, options_for(program.target))


def listing_of(compiler: Any, program: Program) -> str:
    """The listing a daemon ``compile`` of *program* must return, up to
    label and gensym names."""
    from repro.datum import sym

    return canonical_listing("\n\n".join(
        compiler.functions[sym(name)].listing() for name in program.defuns))


class Workload:
    name = ""
    #: The example file the cold one-file CLI batch compiles.
    cli_file = "examples/iterative.lisp"
    #: Rounds whose inputs the count metrics cover: enough seeded
    #: programs that the counts vary little from seed to seed.
    count_rounds = 1
    #: How many times a round sends each of its programs to the daemon,
    #: all of them once before any is repeated.  The persistent workloads
    #: have three to five programs, and a run has five to twenty rounds:
    #: sent once a round, list-alloc's five-seed spreads of
    #: ``requests_per_s`` and ``request_p50_ms`` were 0.27 and 0.31, over
    #: their 0.25 bound.  These counts give every workload about a
    #: thousand requests a run (the daemon workload gets them from its
    #: own traffic).
    repeat_requests = 1

    def __init__(self, bench: Bench, seed: int, workdir: str):
        self.bench = bench
        self.seed = seed
        self.workdir = workdir
        self.daemon: Optional[Daemon] = None
        #: Program label -> the listing every daemon response must carry.
        self.listings: Dict[str, str] = {}

    def setup(self) -> None:
        self.daemon = Daemon(os.path.join(self.workdir, "daemon"),
                             self.bench.env)

    def round(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        from repro.client import ServiceError, ServiceUnavailable

        if self.daemon is None:
            return
        try:
            self.bench.check("daemon", self.daemon.running(),
                             "exited before the run ended")
            stats = self.daemon.client.stats()
            self.bench.daemon_cache_hit_ratio = stats["cache_hit_ratio"]
        except (ServiceError, ServiceUnavailable) as err:
            self.bench.check("daemon stats", False,
                             f"{type(err).__name__}: {err}")
        finally:
            self.daemon.stop()

    def peak_rss_mb(self) -> float:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- shared stage helpers ----------------------------------------------------

    def compile_and_execute(self, programs: List[Program],
                            native: bool = True) -> None:
        """Compile each program fresh, keep its listing for the daemon
        checks, and run its calls on all four machine set-ups (on the
        simulator alone when *native* is false)."""
        bench = self.bench
        for program in programs:
            compiler = bench.compile(program, options_for(program.target))
            if compiler is None:
                continue
            self.listings[program.label] = listing_of(compiler, program)
            machines = Machines(bench, compiler, native)
            bench.warm(program, machines)
            bench.execute(program, machines)

    def requests(self, programs: List[Program]
                 ) -> List[Tuple[Program, str, Optional[Dict[str, Any]]]]:
        """Each program repeat_requests times, all of them once before
        any is repeated."""
        keyed = [(p, request_key(p), wire_options(p)) for p in programs]
        return keyed * self.repeat_requests


class CompileCorpus(Workload):
    name = "compile-corpus"
    count_rounds = 12
    repeat_requests = 10

    def setup(self) -> None:
        super().setup()
        self.examples = example_programs(self.bench.read, self.seed)

    def round(self) -> None:
        bench, r = self.bench, self.bench.round_index
        corpus = [int_program(("corpus", self.seed, r, i), f"c{r}.{i}",
                              CORPUS_FUNCTIONS, TARGETS[i % len(TARGETS)])
                  for i in range(CORPUS_PROGRAMS_PER_ROUND)]
        # The generated programs run once on the simulator; the examples
        # and the reproducer on every set-up.  Translating each fresh
        # program three times would take a third of the round.
        self.compile_and_execute(corpus, native=False)
        units = corpus + self.examples + [CSE_REPRODUCER]
        self.compile_and_execute(units[len(corpus):])
        for index, program in enumerate(units):
            # The optional phases.  Only the fixed programs' builds run:
            # optimizer/cse.py reuses an expression across an assignment
            # to one of its variables, so a generated program that does
            # (setq s (* a s)) and then (* a s) computes a wrong value
            # under enable_cse, on some seeds and not others.
            compiler = bench.compile(
                program, options_for(program.target, enable_cse=True,
                                     enable_peephole=True),
                label="cse+peephole")
            if compiler is not None and index >= len(corpus):
                machine = compiler.machine()
                for call in program.calls:
                    bench.run_call(machine, call,
                                   f"{program.label} [cse+peephole]")
        bench.boundary()
        for program in units:
            bench.interpret(program)
        bench.boundary()
        bench.serve(self.daemon, self.requests(corpus), self.listings)


class _Persistent(Workload):
    """Programs compiled once in set-up and run on warm machines every
    round; each round also recompiles them (compile stage) and sends them
    to the daemon (serve stage), where after round 0 they are repeats."""

    def programs(self) -> List[Program]:
        raise NotImplementedError

    def exec_units(self) -> List[Tuple[Program, Any, Optional[List]]]:
        """(program whose calls run, set-up compiler it runs on, warm-up
        calls or None for the program's own)."""
        raise NotImplementedError

    def setup(self) -> None:
        self.units = self.programs()
        bench = self.bench
        self.machines = []
        for program, compiler, warm_calls in self.exec_units():
            machines = Machines(bench, compiler)
            bench.warm(program, machines, warm_calls)
            bench.collect(machines)
            self.machines.append((program, machines))
        self.traffic = self.requests(self.units)
        super().setup()

    def round(self) -> None:
        bench = self.bench
        for program in self.units:
            compiler = bench.compile(program, options_for(program.target))
            if compiler is not None and bench.round_index == 0:
                self.listings[program.label] = listing_of(compiler, program)
        # One block per stage and per machine set-up, each scaled by the
        # host's speed while it ran.
        for label, *_ in MACHINE_SETUPS:
            bench.boundary()
            for program, machines in self.machines:
                bench.execute(program, machines, only=label)
        bench.boundary()
        bench.serve(self.daemon, self.traffic, self.listings)
        for _, machines in self.machines:
            bench.collect(machines)
        if bench.round_index == 0:
            self.interpret_all()

    def interpret_all(self) -> None:
        for program, _ in self.machines:
            self.bench.interpret(program)


def _setup_compiler(source_programs: List[Program], prelude: bool) -> Any:
    from repro import Compiler

    compiler = Compiler()
    if prelude:
        compiler.load_prelude()
    for program in source_programs:
        compiler.compile(program.source, expression=False)
    return compiler


class NumericKernels(_Persistent):
    name = "numeric-kernels"
    cli_file = "examples/polynomial.lisp"
    repeat_requests = 20

    def programs(self) -> List[Program]:
        return numeric_programs(self.bench.read, self.seed)

    def exec_units(self) -> List[Tuple[Program, Any, Optional[List]]]:
        return [(p, _setup_compiler([p], False), None) for p in self.units]


class ListAlloc(_Persistent):
    name = "list-alloc"
    cli_file = "examples/list-utils.lisp"
    repeat_requests = 60

    def programs(self) -> List[Program]:
        from repro.compiler import prelude_source

        read = self.bench.read
        sources = [("prelude", prelude_source()),
                   ("examples/list-utils.lisp",
                    read("examples/list-utils.lisp")),
                   ("list-wrappers", LIST_WRAPPERS)]
        return [Program(label, source, defun_names(source))
                for label, source in sources]

    def exec_units(self) -> List[Tuple[Program, Any, Optional[List]]]:
        lists = Program("lists", "", [], list_calls(self.seed))
        return [(lists, _setup_compiler(self.units[1:], True),
                 list_calls(self.seed, WARM_SIZES))]

    def interpret_all(self) -> None:
        program = self.machines[0][0]
        source = "\n".join(p.source for p in self.units[1:])
        self.bench.interpret(Program(program.label, source, [],
                                     program.calls), prelude=True)


class DaemonTraffic(Workload):
    name = "daemon"
    count_rounds = 40

    def setup(self) -> None:
        super().setup()
        self.sent: List[Tuple[Program, str, Optional[Dict[str, Any]]]] = []

    def peak_rss_mb(self) -> float:
        return self.daemon.peak_rss_mb()

    def round(self) -> None:
        bench = self.bench
        new = daemon_programs(self.seed, bench.round_index)
        if bench.round_index == 0:
            # The examples open the traffic, so they are the most popular
            # programs, and the round's runs allocate.
            new = example_programs(bench.read, self.seed) + new
        self.compile_and_execute(new)
        for program in new:
            bench.interpret(program)
        self.sent.extend(self.requests(new))
        repeats = daemon_repeats(self.seed, bench.round_index,
                                 len(self.sent), len(new))
        requests = self.sent[-len(new):] + [self.sent[i] for i in repeats]
        bench.serve(self.daemon, requests, self.listings)


WORKLOADS = {cls.name: cls for cls in
             (CompileCorpus, NumericKernels, ListAlloc, DaemonTraffic)}
