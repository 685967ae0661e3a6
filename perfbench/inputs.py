"""Seeded inputs for the benchmark and the oracles that check them.

Nothing here imports ``repro``: every expected value is computed in
Python, apart from the compiler, so a compiler fault cannot hide in its
own oracle.  Every generator takes the workload seed (and, where a
workload draws fresh inputs each round, the round number) and returns
the same inputs for the same arguments.

* The integer-program grammar is a frozen copy of ``repro.fuzz``'s (terms
  over ``+ - * max min 1+ 1- abs zerop not``, comparisons, ``if``,
  ``let`` and ``setq``).  It builds a tree, renders it as source and
  evaluates it in Python, so a later change to ``repro.fuzz`` cannot
  change a workload.
* Float kernels are checked within ``FLOAT_REL_TOL``.  The compiler's
  ``sin$f`` goes through Section 7's 9-digit ``SINC_FACTOR``
  (0.159154942), which moves the TESTFN drive of 4000 iterations from
  10395.27034903303 (exact) to 10395.270320305293: a relative error of
  2.8e-9.  The tolerance leaves a factor of 30 above that.
* Integer and list results are compared exactly with Python
  computations: ``sorted``, closed-form sums, ``math.gcd``, list slicing.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

FLOAT_REL_TOL = 1e-7

TARGETS = ("s1", "vax", "pdp10")


@dataclass
class Call:
    """One call of a compiled function and what it must return."""

    fn: str
    #: Python values; lists become Lisp lists, tuples dotted pairs.
    args: Sequence[Any]
    expected: Any
    #: True when the result is a float checked within FLOAT_REL_TOL.
    approx: bool = False


@dataclass
class Program:
    """One compilation unit: source text, its defuns and the calls that
    check it."""

    label: str
    source: str
    defuns: List[str]
    calls: List[Call] = field(default_factory=list)
    target: str = "s1"


def results_match(got: Any, call: Call) -> bool:
    """``got`` is the machine result already converted by ``to_python``."""
    if call.approx:
        return isinstance(got, float) and math.isclose(
            got, call.expected, rel_tol=FLOAT_REL_TOL)
    return got == call.expected and type(got) is type(call.expected)


# ---------------------------------------------------------------------------
# the frozen integer grammar

_UNARY_OPS = ("1+", "1-", "abs", "zerop", "not")
_BINARY_OPS = ("+", "-", "*", "max", "min")
_COMPARE_OPS = ("<", ">", "=", "<=", ">=")

_BINARY = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "max": max,
    "min": min,
}
_UNARY = {"1+": lambda a: a + 1, "1-": lambda a: a - 1, "abs": abs}
_COMPARE = {
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "=": lambda a, b: a == b,
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
}


def _gen_expr(rng: random.Random, env: Sequence[str], depth: int) -> tuple:
    # The draws happen in exactly repro.fuzz's order, so for one seed
    # this grammar yields the program repro.fuzz yielded when copied.
    if depth <= 0 or rng.random() < 0.25:
        if env and rng.random() < 0.6:
            return ("var", rng.choice(list(env)))
        return ("num", rng.randint(-30, 30))
    choice = rng.random()
    if choice < 0.30:
        op = rng.choice(_BINARY_OPS)
        left = _gen_expr(rng, env, depth - 1)
        return ("bin", op, left, _gen_expr(rng, env, depth - 1))
    if choice < 0.45:
        op = rng.choice(_UNARY_OPS)
        inner = _gen_expr(rng, env, depth - 1)
        if op in ("zerop", "not"):
            return ("flag", op, inner)
        return ("un", op, inner)
    if choice < 0.70:
        test = _gen_test(rng, env, depth - 1)
        then = _gen_expr(rng, env, depth - 1)
        return ("if", test, then, _gen_expr(rng, env, depth - 1))
    if choice < 0.85:
        var = f"v{rng.randint(0, 99)}"
        value = _gen_expr(rng, env, depth - 1)
        return ("let", var, value, _gen_expr(rng, list(env) + [var],
                                             depth - 1))
    var = f"s{rng.randint(0, 99)}"
    init = _gen_expr(rng, env, depth - 1)
    update = _gen_expr(rng, list(env) + [var], depth - 1)
    body = _gen_expr(rng, list(env) + [var], depth - 1)
    return ("setq", var, init, update, body)


def _gen_test(rng: random.Random, env: Sequence[str], depth: int) -> tuple:
    op = rng.choice(_COMPARE_OPS)
    left = _gen_expr(rng, env, depth)
    return ("cmp", op, left, _gen_expr(rng, env, depth))


def render(tree: tuple) -> str:
    kind = tree[0]
    if kind in ("var", "num"):
        return str(tree[1])
    if kind == "bin":
        return f"({tree[1]} {render(tree[2])} {render(tree[3])})"
    if kind == "flag":
        return f"(if ({tree[1]} {render(tree[2])}) 1 0)"
    if kind == "un":
        return f"({tree[1]} {render(tree[2])})"
    if kind == "cmp":
        return f"({tree[1]} {render(tree[2])} {render(tree[3])})"
    if kind == "if":
        return (f"(if {render(tree[1])} {render(tree[2])} "
                f"{render(tree[3])})")
    if kind == "let":
        return f"(let (({tree[1]} {render(tree[2])})) {render(tree[3])})"
    _, var, init, update, body = tree
    return (f"(let (({var} {render(init)})) "
            f"(progn (setq {var} {render(update)}) {render(body)}))")


def evaluate(tree: tuple, env: Dict[str, int]) -> Any:
    kind = tree[0]
    if kind == "var":
        return env[tree[1]]
    if kind == "num":
        return tree[1]
    if kind == "bin":
        return _BINARY[tree[1]](evaluate(tree[2], env),
                                evaluate(tree[3], env))
    if kind == "flag":
        # Integers are never nil, so (not x) is always false.
        value = evaluate(tree[2], env)
        return int(value == 0) if tree[1] == "zerop" else 0
    if kind == "un":
        return _UNARY[tree[1]](evaluate(tree[2], env))
    if kind == "cmp":
        return _COMPARE[tree[1]](evaluate(tree[2], env),
                                 evaluate(tree[3], env))
    if kind == "if":
        branch = tree[2] if evaluate(tree[1], env) else tree[3]
        return evaluate(branch, env)
    if kind == "let":
        inner = dict(env)
        inner[tree[1]] = evaluate(tree[2], env)
        return evaluate(tree[3], inner)
    _, var, init, update, body = tree
    inner = dict(env)
    inner[var] = evaluate(init, env)
    inner[var] = evaluate(update, inner)
    return evaluate(body, inner)


def int_function(rng: random.Random, name: str,
                 max_depth: int = 4) -> Tuple[str, Call]:
    n_args = rng.randint(1, 3)
    params = [f"a{i}" for i in range(n_args)]
    body = _gen_expr(rng, params, rng.randint(2, max_depth))
    source = f"(defun {name} ({' '.join(params)}) {render(body)})"
    args = [rng.randint(-20, 20) for _ in params]
    expected = evaluate(body, dict(zip(params, args)))
    return source, Call(name, args, expected)


def int_program(seed_parts: Sequence[Any], label: str, n_functions: int,
                target: str = "s1") -> Program:
    """A program of *n_functions* seeded integer defuns; every one of them
    is called once with its own arguments."""
    rng = random.Random(":".join(str(part) for part in seed_parts))
    sources, calls = [], []
    for index in range(n_functions):
        name = "f" if index == 0 else f"aux{index}"
        source, call = int_function(rng, name)
        sources.append(source)
        calls.append(call)
    return Program(label, "\n".join(sources), [c.fn for c in calls], calls,
                   target)


# ---------------------------------------------------------------------------
# the ROADMAP item 1 reproducer: CSE hoists (car a) out of both guarded
# arms, so the call signals under enable_cse although it is total.

CSE_REPRODUCER = Program(
    "cse-reproducer",
    "(defun f (a b) (list (if (numberp a) a (+ b (car a)))"
    " (if (numberp a) 1 (+ b (car a)))))",
    ["f"], [Call("f", [5, 7], [5, 1])])


# ---------------------------------------------------------------------------
# examples/*.lisp with oracles


def _fib(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def _poly_eval(x: float, n: int) -> float:
    acc = 0.0
    for _ in range(n):
        acc = acc * x + 1.0
    return acc


def _count_atoms(tree: Any) -> int:
    if isinstance(tree, list) and tree:
        return _count_atoms(tree[0]) + _count_atoms(tree[1:])
    return 1


def _flatten(tree: Any) -> List[Any]:
    if isinstance(tree, list):
        out: List[Any] = []
        for item in tree:
            out.extend(_flatten(item))
        return out
    return [tree]


def _random_tree(values: random.Random, leaves: int,
                 shape: Optional[random.Random] = None) -> Any:
    """A nested list of *leaves* leaves: integers drawn from *values*, and
    about one in ten an empty list.  The shape (and so the work done on
    the tree) comes from *shape*, by default a fixed generator, so that
    every seed gets a tree of the same shape."""
    shape = shape or random.Random(f"tree-shape:{leaves}")
    if leaves <= 1:
        return values.randint(0, 999) if shape.random() < 0.9 else []
    parts = shape.randint(2, 4)
    cuts = sorted(shape.sample(range(1, leaves), min(parts - 1, leaves - 1)))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [leaves])]
    return [_random_tree(values, size, shape) for size in sizes]


def example_programs(read: Callable[[str], str], seed: int,
                     scale: int = 1) -> List[Program]:
    """examples/iterative.lisp, polynomial.lisp and list-utils.lisp with
    seeded calls.  *read* returns a repository file's text; *scale*
    multiplies the loop and list sizes."""
    rng = random.Random(f"examples:{seed}")
    m = rng.randint(2, 999)
    k = 20 + 4 * scale
    n_tri = 200 * scale + rng.randint(0, 9)
    x = rng.uniform(0.90, 1.00)
    n_poly = 40 * scale
    a, b, c, xq = (rng.uniform(-4.0, 4.0) for _ in range(4))
    items = [rng.randint(0, 999) for _ in range(30 * scale)]
    more = [rng.randint(0, 999) for _ in range(30 * scale)]
    tree = _random_tree(rng, 20 * scale)
    iterative = Program(
        "examples/iterative.lisp", read("examples/iterative.lisp"),
        ["triangle", "gcd&", "fib"],
        [Call("triangle", [n_tri], n_tri * (n_tri + 1) // 2),
         Call("gcd&", [_fib(k + 1) * m, _fib(k) * m], m),
         Call("fib", [8 + scale], _fib(8 + scale))])
    polynomial = Program(
        "examples/polynomial.lisp", read("examples/polynomial.lisp"),
        ["poly-eval", "quadratic", "average3"],
        [Call("poly-eval", [x, n_poly], _poly_eval(x, n_poly), True),
         Call("quadratic", [a, b, c, xq], a * xq * xq + b * xq + c, True),
         Call("average3", [a, b, c], (a + b + c) / 3.0, True)])
    list_utils = Program(
        "examples/list-utils.lisp", read("examples/list-utils.lisp"),
        ["my-length", "my-append", "my-reverse", "count-atoms"],
        [Call("my-length", [items], len(items)),
         Call("my-append", [items, more], items + more),
         Call("my-reverse", [items], items[::-1]),
         Call("count-atoms", [tree], _count_atoms(tree))])
    return [iterative, polynomial, list_utils]


# ---------------------------------------------------------------------------
# numeric kernels: Table 4 TESTFN + drive, fib, the examples' loops

# The Section 7 function in the prog form benchmarks/test_p12_native.py
# drives, with its `drive` loop.  The seed picks testfn's arguments, never
# the iteration count, so every seed does the same amount of work.
TESTFN_TEMPLATE = """
(defun frotz (d e m) nil)

(defun testfn (a &optional (b 3.0) (c a))
  (prog (d (e 0.0))
    (setq d (*$f 3.0 (sin$f (*$f a b))))
    (cond ((>$f d e)
           (setq e (max$f d (abs$f c)))))
    (frotz d e 0.0)
    (return (+$f d e))))

(defun drive (n)
  (do ((i 0 (1+ i))
       (acc 0.0))
      ((= i n) acc)
    (setq acc (+$f acc (testfn {a!r} {b!r})))))
"""

# Table 4's own form of the function, as the paper lists its code.
TABLE4_SOURCE = """
(defun frotz (d e m) nil)

(defun testfn (a &optional (b 3.0) (c a))
  (let ((d (+$f a b c)) (e (*$f a b c)))
    (let ((q (sin$f e)))
      (frotz d e (max$f d e))
      q)))
"""

FIB_SOURCE = """
(defun fib (n)
  (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))
"""


def _testfn(a: float, b: float) -> float:
    d = 3.0 * math.sin(a * b)
    e = 0.0
    if d > e:
        e = max(d, abs(a))
    return d + e


def numeric_programs(read: Callable[[str], str], seed: int) -> List[Program]:
    rng = random.Random(f"numeric:{seed}")
    a = round(rng.uniform(1.0, 2.0), 6)
    b = round(rng.uniform(0.1, 0.4), 6)
    # The one-argument call takes sin of 3a: kept within (0.6, 2.4), away
    # from sin's zeros, where a relative tolerance would be meaningless.
    a1 = round(rng.uniform(0.2, 0.8), 6)
    drive_n = 1500
    per_call = _testfn(a, b)
    acc = 0.0
    for _ in range(drive_n):
        acc += per_call
    testfn = Program(
        "table4-testfn", TESTFN_TEMPLATE.format(a=a, b=b),
        ["frotz", "testfn", "drive"],
        [Call("testfn", [a, b], per_call, True),
         Call("testfn", [a1], _testfn(a1, 3.0), True),
         Call("drive", [drive_n], acc, True)])
    # sin's argument a*b*c stays within (0.6, 2.4), away from its zeros.
    abc = [round(rng.uniform(0.9, 1.3), 6) for _ in range(3)]
    table4 = Program(
        "table4-listing", TABLE4_SOURCE, ["frotz", "testfn"],
        [Call("testfn", abc, math.sin(abc[0] * abc[1] * abc[2]), True)])
    fib = Program("fib", FIB_SOURCE, ["fib"], [Call("fib", [15], _fib(15))])
    m = rng.randint(2, 99_999)
    n_tri = 3000 + rng.randint(0, 99)
    iterative = Program(
        "examples/iterative.lisp", read("examples/iterative.lisp"),
        ["triangle", "gcd&", "fib"],
        [Call("triangle", [n_tri], n_tri * (n_tri + 1) // 2),
         Call("gcd&", [_fib(61) * m, _fib(60) * m], m),
         Call("fib", [14], _fib(14))])
    x = rng.uniform(0.95, 1.0)
    n_poly = 1200
    quads = [tuple(rng.uniform(-4.0, 4.0) for _ in range(4))
             for _ in range(3)]
    polynomial = Program(
        "examples/polynomial.lisp", read("examples/polynomial.lisp"),
        ["poly-eval", "quadratic", "average3"],
        [Call("poly-eval", [x, n_poly], _poly_eval(x, n_poly), True)]
        + [Call("quadratic", list(q), q[0] * q[3] * q[3] + q[1] * q[3]
                + q[2], True) for q in quads]
        + [Call("average3", list(q[:3]), sum(q[:3]) / 3.0, True)
           for q in quads])
    return [testfn, table4, fib, iterative, polynomial]


# ---------------------------------------------------------------------------
# list allocation: the prelude's list code over seeded lists

LIST_WRAPPERS = """
(defun la-iota (n) (iota n))
(defun la-map (lst k) (mapcar1 (lambda (x) (+ (* x 3) k)) lst))
(defun la-filter (lst k) (filter (lambda (x) (> x k)) lst))
(defun la-sum (lst) (reduce1 (lambda (acc x) (+ acc x)) 0 lst))
(defun la-sort (lst) (sort-list (lambda (a b) (< a b)) lst))
(defun la-merge (a b) (merge-lists (lambda (x y) (< x y)) a b))
(defun la-take (n lst) (take n lst))
(defun la-flatten (tree) (flatten tree))
(defun la-alist (keys probe)
  (let ((al nil))
    (prog (ks)
      (setq ks keys)
      loop
      (if (null ks) (return nil))
      (setq al (alist-put (car ks) (* (car ks) 10) al))
      (setq ks (cdr ks))
      (go loop))
    (list (alist-keys al)
          (mapcar1 (lambda (k) (alist-get k al -1)) probe))))
"""

#: List sizes per operation.  Fixed across seeds so that every seed does
#: the same amount of work; the seed picks the elements.
LIST_SIZES = {
    "iota": 300, "map": 200, "filter": 300, "sum": 2000, "sort": 150,
    "merge": 100, "take": 200, "flatten": 200, "alist": 50,
    "append": 150, "reverse": 250, "length": 1000, "atoms": 600,
}
#: The same calls on short lists: enough to reach (and so translate)
#: every function the measured calls reach.
WARM_SIZES = {name: 4 for name in LIST_SIZES}


def _alist(keys: Sequence[int], probe: Sequence[int]) -> List[Any]:
    al: List[Tuple[int, int]] = []
    for key in keys:
        al = [(key, key * 10)] + [entry for entry in al if entry[0] != key]
    table = dict(al)
    return [[key for key, _ in al], [table.get(p, -1) for p in probe]]


def list_calls(seed: int, size: Dict[str, int] = LIST_SIZES) -> List[Call]:
    rng = random.Random(f"lists:{seed}")

    def ints(n: int, hi: int = 9999) -> List[int]:
        return [rng.randint(0, hi) for _ in range(n)]

    # Where the amount of allocation could depend on the values, the
    # values are drawn so that it does not: the filter keeps exactly the
    # upper half of distinct values, both merged lists end in a large
    # sentinel, the alist keys are distinct, and tree shapes are fixed.
    mapped, k_map = ints(size["map"]), rng.randint(-50, 50)
    filtered = rng.sample(range(10_000), size["filter"])
    k_filter = sorted(filtered)[size["filter"] // 2]
    summed = ints(size["sum"])
    unsorted = ints(size["sort"])
    left = sorted(ints(size["merge"])) + [10_000]
    right = sorted(ints(size["merge"])) + [10_001]
    taken = ints(size["take"] * 2)
    tree = _random_tree(rng, size["flatten"])
    keys = rng.sample(range(2 * size["alist"]), size["alist"])
    probe = ints(size["alist"] // 2, hi=2 * size["alist"])
    front, back = ints(size["append"]), ints(size["append"])
    reversed_ = ints(size["reverse"])
    counted = ints(size["length"])
    atoms = _random_tree(rng, size["atoms"])
    merged = sorted(left + right)
    return [
        Call("la-iota", [size["iota"]], list(range(size["iota"]))),
        Call("la-map", [mapped, k_map], [x * 3 + k_map for x in mapped]),
        Call("la-filter", [filtered, k_filter],
             [x for x in filtered if x > k_filter]),
        Call("la-sum", [summed], sum(summed)),
        Call("la-sort", [unsorted], sorted(unsorted)),
        Call("la-merge", [left, right], merged),
        Call("la-take", [size["take"], taken], taken[:size["take"]]),
        Call("la-flatten", [tree], _flatten(tree)),
        Call("la-alist", [keys, probe], _alist(keys, probe)),
        Call("my-append", [front, back], front + back),
        Call("my-reverse", [reversed_], reversed_[::-1]),
        Call("my-length", [counted], len(counted)),
        Call("count-atoms", [atoms], _count_atoms(atoms)),
    ]


# ---------------------------------------------------------------------------
# daemon traffic: first-seen programs and Zipf-skewed repeats
#
# The mix is the one observed on the daemon when this suite was specified:
# 60 first-seen to 180 repeat requests, three repeats per first-seen
# program.  No popularity figures exist for compile traffic, so repeats
# follow Zipf's law in its plain, parameter-free form (exponent 1):
# the k-th oldest program is requested in proportion to 1/k.

DAEMON_NEW_PER_ROUND = 8
DAEMON_REPEATS_PER_NEW = 3


def daemon_programs(seed: int, round_index: int) -> List[Program]:
    """The round's first-seen programs."""
    return [int_program(("daemon", seed, round_index, i),
                        f"d{round_index}.{i}", 2,
                        TARGETS[(round_index + i) % len(TARGETS)])
            for i in range(DAEMON_NEW_PER_ROUND)]


def daemon_repeats(seed: int, round_index: int, pool: int,
                   new: int) -> List[int]:
    """Indices, into the *pool* programs sent so far (this round's *new*
    ones included), of the round's repeat requests: older programs are
    hotter."""
    weights = [1.0 / (rank + 1) for rank in range(pool)]
    rng = random.Random(f"daemon-repeats:{seed}:{round_index}")
    return rng.choices(range(pool), weights=weights,
                       k=DAEMON_REPEATS_PER_NEW * new)
