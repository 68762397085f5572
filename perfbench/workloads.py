"""Seeded workload decks for the slitlogic benchmark.

A deck is a fixed list of slots. A slot fixes the structure of one command
(subcommand, input size, output format and the switches that change the
verdict); the seed shuffles the slot order and draws the details (bindings,
amplitudes, formulas, element names). Every seed therefore gives the same
amount of work per pass, which keeps the figures comparable across seeds,
while no two ops repeat an input.

Each workload builds several variants of its deck. Variant ``v`` fills the
same slots in the same order with fresh details, so pass ``v`` of the timed
loop repeats no input of an earlier pass.

Every op carries a check built from :mod:`oracle`, which never calls the
engine. Flag values are always passed as ``--flag=value``: argparse reads a
separate value that starts with ``-`` (``--amp1 -1/2,0``) as a missing
argument.
"""

from __future__ import annotations

import json
import os
import random
import string
from fractions import Fraction

import oracle
from oracle import ONE, ZERO

WORKLOADS = ("certify", "sweep", "audit", "evaluate")


class Op:
    """One CLI command: its argv and the oracle check for its report.

    ``check(report)`` returns None when the report is right, else a reason.
    """

    __slots__ = ("label", "argv", "check")

    def __init__(self, label: str, argv: list, check):
        self.label = label
        self.argv = argv
        self.check = check


def build(workload: str, seed: int, variants: int, workdir: str) -> list:
    """``variants`` decks of the workload; lattice files go under ``workdir``."""
    specs = _SLOTS[workload]()
    order = list(range(len(specs)))
    random.Random(f"{workload}:{seed}:order").shuffle(order)
    decks = []
    for v in range(variants):
        rng = random.Random(f"{workload}:{seed}:{v}")
        deck = []
        for slot in order:
            label, make = specs[slot]
            argv, check = make(rng, os.path.join(workdir, f"v{v}-s{slot}.json"))
            deck.append(Op(label, argv, check))
        decks.append(deck)
    return decks


# ------------------------------------------------------------ shared parts


def _fraction(rng, low=0, high=1, denominators=(2, 3, 4, 5, 6, 8, 10, 12)) -> Fraction:
    m = rng.choice(denominators)
    return Fraction(rng.randint(int(low * m), int(high * m)), m)


def _interference_args(rng, direct: bool):
    """Random detection inputs with a nonzero interference term, as argv
    and as the expected (p_or, p1, p2)."""
    while True:
        if direct:
            probs = tuple(_fraction(rng) for _ in range(3))
            args = [f"--p-or={probs[0]}", f"--p1={probs[1]}", f"--p2={probs[2]}"]
        else:
            # components within [-1/2, 1/2] keep every induced probability <= 1
            a1 = (_fraction(rng, -0.5, 0.5), _fraction(rng, -0.5, 0.5))
            a2 = (_fraction(rng, -0.5, 0.5), _fraction(rng, -0.5, 0.5))
            probs = oracle.amplitude_probabilities(a1, a2)
            args = [f"--amp1={a1[0]},{a1[1]}", f"--amp2={a2[0]},{a2[1]}"]
        if oracle.interference(*probs) != 0:
            return args, probs


def _scenario(rng, lattice_ref, elements, equal_priors, direct):
    """argv for a scenario command plus (bound elements, expected I12)."""
    e1, e2 = rng.sample(elements, 2)
    args, probs = _interference_args(rng, direct)
    argv = [f"--lattice={lattice_ref}", f"--bind=X1={e1},X2={e2}"] + args
    if not equal_priors:
        argv.append("--no-equal-priors")
    return argv, (e1, e2), oracle.interference(*probs)


def _expect(report, exit_code, verdict=None, verdict_prefix=None):
    if report.exit_code != exit_code:
        return f"exit {report.exit_code}, expected {exit_code} ({report.verdict})"
    if verdict is not None and report.payload.get("verdict") != verdict:
        return f"verdict {report.payload.get('verdict')!r}, expected {verdict!r}"
    if verdict_prefix is not None and not str(report.payload.get("verdict")).startswith(verdict_prefix):
        return f"verdict {report.payload.get('verdict')!r}, expected {verdict_prefix!r}..."
    return None


def _constraint(entry):
    violation = entry["violation"]
    return violation["constraint"] if violation else None


# ---------------------------------------------------------------- certify
# nogo on builtin lattices: 1 to 4096 bivalent truth functions per op.
# Heavy sizes get fewer slots so one pass stays a few seconds long.

_CERTIFY_SIZES = (
    [("boolean", n) for n in (2, 3)]
    + [("chain", n) for n in range(1, 7)]
    + [("lantern", n) for n in range(2, 7)]
)
# (format, equal priors): text and JSON split evenly, a quarter without equal
# priors, which turns the verdict to "no-go fails".
_ALL_COMBOS = (("text", True), ("json", True), ("text", True), ("json", False))
_CERTIFY_COMBOS = {("lantern", 5): (("text", True), ("json", False)), ("lantern", 6): (("json", True),)}


def _certify_slots():
    specs = []
    for family, n in _CERTIFY_SIZES:
        for fmt, equal in _CERTIFY_COMBOS.get((family, n), _ALL_COMBOS):
            direct = len(specs) % 2 == 1
            label = f"nogo {family}:{n} {fmt}{'' if equal else ' no-equal-priors'}"
            specs.append((label, _nogo_maker(family, n, fmt, equal, direct)))
    return specs


def _nogo_maker(family, n, fmt, equal, direct):
    model = oracle.builtin_model(family, n)
    # Bound elements that are both free split the functions evenly over the
    # four corners; binding an extreme would skew the mix of trace lengths,
    # and with it the op's cost, from seed to seed.
    elements = model.middles() if len(model.middles()) >= 2 else model.names

    def make(rng, _path):
        args, (e1, e2), i12 = _scenario(rng, f"builtin:{family}:{n}", elements, equal, direct)
        argv = ["nogo"] + args + [f"--format={fmt}"]
        return argv, lambda report: _check_nogo(report, e1, e2, equal, i12, len(model.names))

    return make


def _check_nogo(report, e1, e2, equal, i12, size):
    bad = _expect(report, 0 if equal else 1, "no-go holds" if equal else "no-go fails")
    if bad:
        return bad
    p = report.payload
    if p["scenario"]["interference"]["i12"] != str(i12):
        return f"I12 {p['scenario']['interference']['i12']}, expected {i12}"
    corners = [
        (c["assignment"]["X1"], c["assignment"]["X2"], _constraint(c)) for c in p["corners"]
    ]
    want = [
        (str(v1), str(v2), oracle.corner_constraint(v1, v2, equal))
        for v1 in (ZERO, ONE) for v2 in (ZERO, ONE)
    ]
    if corners != want:
        return f"corners {corners}, expected {want}"
    functions = p["truth_functions"]
    if len(functions) != 2 ** (size - 2) or p["enumerated"] != len(functions) + 4:
        return f"{len(functions)} truth functions, expected {2 ** (size - 2)}"
    for f in functions:
        v1, v2 = f["values"][e1], f["values"][e2]
        if (f["assignment"]["X1"], f["assignment"]["X2"]) != (v1, v2):
            return f"function {f['values']} checked as {f['assignment']}"
        if _constraint(f) != oracle.corner_constraint(Fraction(v1), Fraction(v2), equal):
            return f"function {f['values']} -> {_constraint(f)}"
    return None


# ------------------------------------------------------------------ sweep
# scan over the rational grid k/d and over finite N-value systems. The scan
# cost grows as d^3 (an O(d) membership test per pair), so the graded sizes
# decide the pass length.

_DENOMINATORS = (10, 15, 20, 30, 40, 50, 60, 75, 100)
_VALUE_COUNTS = (3, 4, 5, 6, 8, 10, 12, 15, 20, 25, 30, 40)
_SWEEP_LATTICES = ("boolean:2", "chain:3", "lantern:2", "boolean:3", "chain:2")


def _sweep_slots():
    specs = []
    grids = [("denominator", d, ("json", "text")[i % 2]) for i, d in enumerate(_DENOMINATORS)]
    grids += [("values", n, fmt) for n in _VALUE_COUNTS for fmt in ("text", "json")]
    for i, (flag, size, fmt) in enumerate(grids):
        equal = i % 2 == 0
        direct = i // 2 % 2 == 1
        lattice = _SWEEP_LATTICES[i % len(_SWEEP_LATTICES)]
        label = f"scan --{flag}={size} {fmt}{'' if equal else ' no-equal-priors'}"
        specs.append((label, _scan_maker(flag, size, fmt, equal, direct, lattice)))
    return specs


def _scan_maker(flag, size, fmt, equal, direct, lattice):
    family, n = lattice.split(":")
    elements = oracle.builtin_model(family, int(n)).names
    if flag == "denominator":
        grid = [str(Fraction(k, size)) for k in range(size + 1)]
    else:
        grid = [str(Fraction(k, size - 1)) for k in range(size)]

    def make(rng, _path):
        args, _, i12 = _scenario(rng, f"builtin:{lattice}", elements, equal, direct)
        argv = ["scan", f"--{flag}={size}"] + args + [f"--format={fmt}"]
        return argv, lambda report: _check_scan(report, grid, equal, i12)

    return make


def _check_scan(report, grid, equal, i12):
    n = len(grid)
    consistent = oracle.scan_consistent(n, equal)
    corners_violated = 4 if equal else 2
    verdict = f"corners violated: {corners_violated}/4; consistent: {consistent}/{n * n}"
    bad = _expect(report, 0 if equal else 1, verdict)
    if bad:
        return bad
    p = report.payload
    if p["values"] != grid:
        return f"grid {p['values'][:5]}..., expected {grid[:5]}..."
    if p["scenario"]["interference"]["i12"] != str(i12):
        return f"I12 {p['scenario']['interference']['i12']}, expected {i12}"
    if len(p["results"]) != n * n or len(p["consistent"]) != consistent:
        return f"{len(p['results'])} results, {len(p['consistent'])} consistent"
    want = {
        f"({v1}, {v2})": oracle.corner_constraint(v1, v2, equal) or "consistent"
        for v1 in (ZERO, ONE) for v2 in (ZERO, ONE)
    }
    if p["corners"] != want:
        return f"corners {p['corners']}, expected {want}"
    return None


# ------------------------------------------------------------------ audit
# lattice-check on builtins and on lattice files written at set-up. Files
# are relabelled per op, so an in-process memo keyed on the input never
# hits, as it never would across one-shot CLI processes.

_AUDIT_BUILTINS = (
    [("boolean", n) for n in (3, 4, 5, 6)]
    + [("chain", n) for n in (4, 8, 16, 32)]
    + [("lantern", n) for n in (4, 8, 16, 32)]
)
_AUDIT_FILES = (
    [("chains", ab) for ab in ((2, 2), (2, 3), (3, 3), (3, 4), (4, 5), (5, 6))]
    + [("lantern", n) for n in (3, 6, 10, 16, 24)]
    + [("boolean", n) for n in (2, 3, 4, 5)]
)
_AUDIT_BROKEN = (("chains", (3, 3)), ("lantern", 6), ("boolean", 3))
_DEFECTS = ("cycle", "missing-bound", "bad-involution")


def _audit_slots():
    specs = []
    for i, (family, n) in enumerate(_AUDIT_BUILTINS):
        fmt = ("text", "json")[i % 2]
        specs.append((f"lattice-check builtin:{family}:{n} {fmt}", _builtin_check_maker(family, n, fmt)))
    for i, (family, size) in enumerate(_AUDIT_FILES):
        fmt = ("json", "text")[i % 2]
        specs.append((f"lattice-check file {family}:{size} {fmt}", _file_check_maker(family, size, fmt, None)))
    for i, defect in enumerate(_DEFECTS):
        for j, (family, size) in enumerate(_AUDIT_BROKEN):
            fmt = ("text", "json")[(i + j) % 2]
            label = f"lattice-check file {family}:{size} {defect} {fmt}"
            specs.append((label, _file_check_maker(family, size, fmt, defect)))
    return specs


def _check_valid_lattice(report, names, bottom, top):
    bad = _expect(report, 0, verdict_prefix="ok: all lattice laws hold")
    if bad:
        return bad
    p = report.payload
    if p["elements"] != names or p["bottom"] != bottom or p["top"] != top or p["violations"]:
        return f"lattice {p['elements'][:4]}... bottom {p['bottom']} top {p['top']}"
    return None


def _builtin_check_maker(family, n, fmt):
    model = oracle.builtin_model(family, n)

    def make(_rng, _path):
        argv = ["lattice-check", f"builtin:{family}:{n}", f"--format={fmt}"]
        return argv, lambda r: _check_valid_lattice(r, model.names, model.bottom, model.top)

    return make


def _fresh_names(rng, count):
    names: dict = {}  # a dict keeps draw order; a set's order varies per process
    while len(names) < count:
        names["".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(4, 8)))] = None
    return list(names)


# The error each broken file must produce, as a fragment of its message.
_DEFECT_MESSAGE = {
    "cycle": "are below each other",
    "missing-bound": "bound for",
    "bad-involution": "involution",
}


def _file_check_maker(family, size, fmt, defect):
    def make(rng, path):
        n, covers, involution = oracle.structure(family, size)
        names = _fresh_names(rng, n)
        keep = list(range(n))
        if defect == "cycle":
            lesser, greater = rng.choice(covers)
            covers = covers + [(greater, lesser)]
        elif defect == "missing-bound":
            gone = rng.choice((0, n - 1))
            keep.remove(gone)
            covers = [c for c in covers if gone not in c]
            involution = [p for p in involution if gone not in p]
        elif defect == "bad-involution":
            # pair the bottom with a middle element and the top with its
            # complement: still a self-inverse total map, but not swapping
            # the extremes
            y, z = rng.choice([p for p in involution if 0 not in p])
            involution = [p for p in involution if p not in ((0, n - 1), (y, z))]
            involution += [(0, y), (z, n - 1)]
        data = {
            "elements": [names[k] for k in rng.sample(keep, len(keep))],
            "order": [[names[a], names[b]] for a, b in rng.sample(covers, len(covers))],
            "involution": [
                [names[a], names[b]] if rng.random() < 0.5 else [names[b], names[a]]
                for a, b in rng.sample(involution, len(involution))
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        argv = ["lattice-check", path, f"--format={fmt}"]
        if defect is None:
            return argv, lambda r: _check_valid_lattice(r, data["elements"], names[0], names[n - 1])
        return argv, lambda r: _check_error(r, _DEFECT_MESSAGE[defect])

    return make


def _check_error(report, fragment):
    bad = _expect(report, 2, verdict_prefix="error:")
    if bad:
        return bad
    if fragment not in report.payload.get("error", ""):
        return f"error {report.payload.get('error')!r} lacks {fragment!r}"
    return None


# --------------------------------------------------------------- evaluate
# parse, eval in all three modes, super and interference on small lattices.
# Formulas end in a left-nested xor chain of graded depth: desugaring copies
# both operands of every xor, so the depth sets the evaluation cost.

_PARSE_GRADES = ((10, 0), (25, 1), (50, 1), (100, 2), (200, 2), (400, 3))
_DEGREE_GRADES = ((10, 0), (50, 1), (100, 2), (200, 2), (400, 3), (400, 4))
_LATTICE_GRADES = ((10, 0, "boolean:2"), (50, 1, "chain:3"), (100, 2, "lantern:2"), (200, 3, "boolean:3"))
_SUPER_GRADES = ((10, 1, "lantern:3"), (50, 1, "boolean:2"), (100, 2, "chain:4"), (200, 2, "boolean:3"))
_SUPER_LATTICES = ("lantern:2", "boolean:2", "chain:3", "boolean:3")
_MALFORMED = ("unclosed", "doubled", "dangling", "stray")


def _evaluate_slots():
    specs = []
    for fmt in ("text", "json"):
        for size, depth in _PARSE_GRADES:
            specs.append((f"parse {size}/xor{depth} {fmt}", _parse_maker(size, depth, fmt)))
        for size, depth in _DEGREE_GRADES:
            label = f"eval lukasiewicz {size}/xor{depth} {fmt}"
            specs.append((label, _degree_maker(size, depth, fmt)))
        for mode, grades in (("lattice", _LATTICE_GRADES), ("super", _SUPER_GRADES)):
            for size, depth, lattice in grades:
                label = f"eval {mode} {lattice} {size}/xor{depth} {fmt}"
                specs.append((label, _element_maker(mode, size, depth, lattice, fmt)))
    for i, lattice in enumerate(_SUPER_LATTICES):
        fmt = ("text", "json")[i % 2]
        specs.append((f"super {lattice} {fmt}", _super_maker(lattice, fmt)))
    for i in range(4):
        fmt, direct = ("text", "json")[i % 2], i >= 2
        label = f"interference {'direct' if direct else 'amplitudes'} {fmt}"
        specs.append((label, _interference_maker(direct, fmt)))
    for i, defect in enumerate(_MALFORMED):
        command = ("parse", "eval")[i % 2]
        specs.append((f"{command} malformed {defect}", _malformed_maker(command, defect)))
    return specs


def _atom_names(rng):
    count = rng.randint(2, 6)
    return ["".join(rng.choice(string.ascii_letters) for _ in range(rng.randint(1, 3))) + str(k) for k in range(count)]


def _parse_maker(size, depth, fmt):
    def make(rng, _path):
        f = oracle.graded_formula(rng, size, depth, _atom_names(rng))
        canonical = oracle.render(f)
        desugared = oracle.render(oracle.desugar(f))
        argv = ["parse", oracle.noisy_text(f, rng), f"--format={fmt}"]

        def check(report):
            bad = _expect(report, 0, f"ok: {canonical}")
            if bad:
                return bad
            if report.payload["desugared"] != desugared:
                return "desugared text differs from the canonical desugaring"
            return None

        return argv, check

    return make


def _degree_maker(size, depth, fmt):
    def make(rng, _path):
        f = oracle.graded_formula(rng, size, depth, _atom_names(rng))
        values = {a: _fraction(rng) for a in oracle.atoms_of(f)}
        assign = ",".join(f"{a}={v}" for a, v in values.items())
        argv = ["eval", f"--formula={oracle.noisy_text(f, rng)}", "--mode=lukasiewicz",
                f"--assign={assign}", f"--format={fmt}"]
        value = str(oracle.fold_degrees(f, values))
        canonical = oracle.render(f)

        def check(report):
            bad = _expect(report, 0, f"value: {value}")
            if bad:
                return bad
            if report.payload["formula"] != canonical:
                return "formula text differs from the canonical rendering"
            return None

        return argv, check

    return make


def _element_maker(mode, size, depth, lattice, fmt):
    family, n = lattice.split(":")
    model = oracle.builtin_model(family, int(n))

    def make(rng, _path):
        f = oracle.graded_formula(rng, size, depth, _atom_names(rng))
        binding = {a: rng.choice(model.names) for a in oracle.atoms_of(f)}
        argv = ["eval", f"--formula={oracle.noisy_text(f, rng)}", f"--mode={mode}",
                f"--lattice=builtin:{lattice}",
                "--assign=" + ",".join(f"{a}={e}" for a, e in binding.items())]
        element = oracle.fold_lattice(f, binding, model)
        if mode == "lattice":
            entries = {e: (oracle.UNDEFINED if rng.random() < 0.2 else _fraction(rng)) for e in model.middles()}
            argv.append("--values=" + ",".join(f"{e}={v}" for e, v in entries.items()))
        else:
            entries = {e: oracle.UNDEFINED for e in model.middles()}
        entries.update({model.bottom: ZERO, model.top: ONE})
        value = oracle.value_text(entries[element])
        argv.append(f"--format={fmt}")

        def check(report):
            bad = _expect(report, 0, f"value: {value}")
            if bad:
                return bad
            if report.payload.get("element") != element:
                return f"element {report.payload.get('element')}, expected {element}"
            return None

        return argv, check

    return make


def _super_maker(lattice, fmt):
    family, n = lattice.split(":")
    model = oracle.builtin_model(family, int(n))

    def make(rng, _path):
        args, (e1, e2), _ = _scenario(rng, f"builtin:{lattice}", model.middles(), True, rng.random() < 0.5)
        argv = ["super"] + args + [f"--format={fmt}"]
        element = oracle.fold_lattice(("xor", ("atom", "X1"), ("atom", "X2")), {"X1": e1, "X2": e2}, model)
        value = {model.bottom: "0", model.top: "1"}.get(element, oracle.UNDEFINED)
        want = {
            "atoms": {"X1": oracle.UNDEFINED, "X2": oracle.UNDEFINED},
            "compound_element": element,
            "compound_value": value,
            "bridges_fired": False,
            "consistent": True,
        }

        def check(report):
            bad = _expect(report, 0, "supervaluation consistent")
            if bad:
                return bad
            got = {k: report.payload.get(k) for k in want}
            return None if got == want else f"super payload {got}, expected {want}"

        return argv, check

    return make


def _interference_maker(direct, fmt):
    def make(rng, _path):
        args, probs = _interference_args(rng, direct)
        i12 = oracle.interference(*probs)
        argv = ["interference"] + args + [f"--format={fmt}"]

        def check(report):
            bad = _expect(report, 0, f"I12 = {i12}")
            if bad:
                return bad
            got = [report.payload[k] for k in ("p_or", "p1", "p2")]
            return None if got == [str(p) for p in probs] else f"probabilities {got}, expected {probs}"

        return argv, check

    return make


def _malformed_maker(command, defect):
    def make(rng, _path):
        names = _atom_names(rng)
        text = oracle.render(oracle.graded_formula(rng, 20, 1, names))
        cut = rng.randint(0, len(text))
        text = {
            "unclosed": f"({text}",
            "doubled": f"{text} && {names[0]}",
            "dangling": f"{text} |",
            "stray": f"{text[:cut]} $ {text[cut:]}",
        }[defect]
        if command == "parse":
            argv = ["parse", text, "--format=json"]
        else:
            argv = ["eval", f"--formula={text}", "--mode=lukasiewicz",
                    "--assign=" + ",".join(f"{a}=1/2" for a in names)]
        return argv, lambda report: _expect(report, 2, verdict_prefix="error:")

    return make


_SLOTS = {
    "certify": _certify_slots,
    "sweep": _sweep_slots,
    "audit": _audit_slots,
    "evaluate": _evaluate_slots,
}
