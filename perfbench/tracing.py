"""Spans and counters recorded around slitlogic's public functions.

The tracer patches functions from the outside, so the program under test is
unchanged. A module that imported a name binds its own reference (``nogo``
holds ``bridge`` and the degree functions, ``probability`` holds
``as_value``, ``cli`` holds ``run_nogo`` and ``scan_grid``), so every module
namespace that binds a wrapped function is patched, and methods are patched
on their class. :meth:`Tracer.uninstall` restores every original.

A span is kept in memory as (name, start, end, parent span, op id); self
time is a span's duration minus the time its child spans cover. Recursive
functions (``render``, ``desugar_xor``) get one span per outermost call.
``as_value`` is only counted: a span per call would cost more than the call.
"""

from __future__ import annotations

import importlib
from array import array
from collections import Counter
from time import perf_counter

PACKAGE = "slitlogic"
MODULES = ("lattice", "formula", "valuation", "probability", "nogo", "cli")

# Metric group -> the functions whose spans it sums, as "module:attribute".
GROUPS = {
    "lattice.build": ("lattice:build_from_order",),
    "lattice.verify": ("lattice:verify_axioms",),
    "lattice.op": ("lattice:Lattice.index", "lattice:Lattice.join",
                   "lattice:Lattice.meet", "lattice:Lattice.involute"),
    "formula.parse": ("formula:parse",),
    "formula.render": ("formula:render",),
    "formula.desugar": ("formula:desugar_xor",),
    "valuation.enumerate": ("valuation:enumerate_truth_functions",),
    "valuation.degree": ("valuation:lukasiewicz_neg", "valuation:lukasiewicz_or",
                         "valuation:lukasiewicz_and"),
    "valuation.admits": ("valuation:ValueSystem.admits",),
    "valuation.evaluate": ("valuation:evaluate_lattice", "valuation:evaluate_degrees",
                           "valuation:evaluate_supervaluation", "valuation:formula_element"),
    "probability.bridge": ("probability:bridge",),
    "probability.interference": ("probability:interference_term",
                                 "probability:amplitude_interference"),
    "nogo.check": ("nogo:check_assignment",),
    "nogo.run": ("nogo:run_nogo",),
    "nogo.scan": ("nogo:scan_grid",),
    "cli.dispatch": ("cli:dispatch",),
    "cli.render": ("cli:Report.render",),
}
_RECURSIVE = {"formula:render", "formula:desugar_xor"}
_GENERATORS = {"valuation:enumerate_truth_functions"}
_COUNTED = ("valuation:as_value",)


class Tracer:
    """Records spans and counters while installed; one op at a time."""

    def __init__(self):
        self.modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        self.namespaces = [importlib.import_module(PACKAGE)] + list(self.modules.values())
        self.span_names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.names = array("H")
        self.parents = array("l")
        self.ops = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.op = -1
        self.counts: Counter = Counter()
        self.lattice_inputs: set = set()
        self.check_pairs: set = set()
        self.classes: set = set()
        self.bound = None
        self._saved: list = []

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        for targets in GROUPS.values():
            for target in targets:
                module, attr = target.split(":")
                owner = self.modules[module]
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(owner, cls_name)
                    orig = cls.__dict__[method]
                    self._patch_attr(cls, method, self._wrapper(target, orig))
                else:
                    orig = getattr(owner, attr)
                    self._patch_everywhere(orig, self._wrapper(target, orig))
        for target in _COUNTED:
            module, attr = target.split(":")
            orig = getattr(self.modules[module], attr)
            self._patch_everywhere(orig, self._counter(target, orig))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _patch_attr(self, owner, attr, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _patch_everywhere(self, orig, replacement) -> None:
        for module in self.namespaces:
            for attr, value in list(vars(module).items()):
                if value is orig:
                    self._patch_attr(module, attr, replacement)

    # ------------------------------------------------------------ wrappers

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        return self.name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.starts)
        self.names.append(name_id)
        self.parents.append(self.stack[-1])
        self.ops.append(self.op)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self.stack.append(idx)
        return idx

    def _wrapper(self, target: str, fn):
        name_id = self._name_id(target)
        before = getattr(self, "_before_" + target.split(":")[1].replace(".", "_"), None)
        after = getattr(self, "_after_" + target.split(":")[1].replace(".", "_"), None)
        clock = perf_counter
        tracer = self

        if target in _GENERATORS:
            def generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    idx = tracer._open(name_id)
                    start = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.ends[idx] = clock()
                        tracer.starts[idx] = start
                        tracer.stack.pop()
                    after(item)
                    yield item
            return generator

        active = [0]

        def wrapper(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            if before is not None:
                args = before(args)
            idx = tracer._open(name_id)
            if target in _RECURSIVE:
                active[0] = 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[idx] = clock()
                tracer.starts[idx] = start
                tracer.stack.pop()
                active[0] = 0
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counter(self, target: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[target] += 1
            return fn(*args, **kwargs)

        return counted

    # ---------------------------------------------- per-function counters

    def _before_build_from_order(self, args):
        elements, order, involution = (list(a) for a in args)
        self.lattice_inputs.add((
            tuple(elements),
            tuple(tuple(p) for p in order),
            tuple(tuple(p) for p in involution),
        ))
        return (elements, order, involution)

    def _after_build_from_order(self, args, lattice):
        self.counts["lattice.elements_built"] += len(lattice.elements)

    def _before_parse(self, args):
        self.counts["formula.parse_chars"] += len(args[0])
        return args

    def _after_check_assignment(self, args, violation):
        self.check_pairs.add((self.op, args[1], args[2]))
        if violation is not None:
            self.counts["nogo.violations"] += 1
            self.counts["nogo.trace_steps"] += len(violation.trace)

    def _before_run_nogo(self, args):
        self.bound = args[0].bound_elements
        return args

    def _after_run_nogo(self, args, certificate):
        self.bound = None

    def _after_enumerate_truth_functions(self, tf):
        self.counts["valuation.truth_functions"] += 1
        if self.bound is not None:
            e1, e2 = self.bound
            self.classes.add((self.op, tf.values[e1], tf.values[e2]))

    # ------------------------------------------------------------- results

    def self_times(self) -> tuple[Counter, Counter]:
        """(calls, self seconds) per span name."""
        n = len(self.starts)
        child = [0.0] * n
        starts, ends, parents = self.starts, self.ends, self.parents
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls: Counter = Counter()
        seconds: Counter = Counter()
        for i in range(n):
            name = self.span_names[self.names[i]]
            calls[name] += 1
            seconds[name] += ends[i] - starts[i] - child[i]
        return calls, seconds

    def layer_metrics(self) -> dict:
        """Every per-layer metric, as name -> (value, unit)."""
        calls, seconds = self.self_times()

        def group(name):
            targets = GROUPS[name]
            return sum(calls[t] for t in targets), sum(seconds[t] for t in targets)

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for name in GROUPS:
            n_calls, secs = group(name)
            out[f"{name}_calls"] = (n_calls, "count")
            out[f"{name}_s"] = (secs, "s")
        build_calls = out["lattice.build_calls"][0]
        checks = out["nogo.check_calls"][0]
        out.update({
            "lattice.elements_built": (self.counts["lattice.elements_built"], "count"),
            "lattice.distinct_input_ratio": (ratio(len(self.lattice_inputs), build_calls), "ratio"),
            "formula.parse_chars": (self.counts["formula.parse_chars"], "chars"),
            "valuation.truth_functions": (self.counts["valuation.truth_functions"], "count"),
            "valuation.classes": (len(self.classes), "count"),
            "valuation.as_value_calls": (self.counts["valuation:as_value"], "count"),
            "nogo.distinct_pairs": (len(self.check_pairs), "count"),
            "nogo.useful_check_ratio": (ratio(len(self.check_pairs), checks), "ratio"),
            "nogo.violations": (self.counts["nogo.violations"], "count"),
            "nogo.trace_steps": (self.counts["nogo.trace_steps"], "count"),
        })
        return out

    def write_spans(self, path: str) -> None:
        """Write every span as a tab-separated line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            names = self.span_names
            for i in range(len(self.starts)):
                fh.write(
                    f"{names[self.names[i]]}\t{self.starts[i]!r}\t{self.ends[i]!r}\t"
                    f"{self.parents[i]}\t{self.ops[i]}\n"
                )
