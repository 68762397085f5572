"""Command-line front end.

Subcommands: lattice-check, parse, eval, interference, nogo, scan, super.
Every run builds one JSON payload. ``--format json`` prints it; the text
report, a verdict line plus a body, is rendered from it, so both forms carry
the same facts. Exit codes: 0 for pass/consistent, 1 when a check fails
(no-go fails, corners survive a scan, a supervaluation is inconsistent), 2
for rejected input, a ``SlitlogicError`` or ``OSError``; any other exception
propagates. Output is deterministic: identical inputs give byte-identical reports.
"""

from __future__ import annotations

import argparse
import io
import os
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain, compress, count, product, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Sequence

from . import lattice as lattice_mod
from .errors import SlitlogicError
from .formula import _DESUGARED_TEXT, _TEXT, Atom, Not, Xor, _negated, parse, render
from .nogo import (
    Certificate,
    Scenario,
    TraceStep,
    check_supervaluation,
    run_nogo,
    scan_grid,
)
from .probability import (
    InterferenceInputs,
    amplitude_interference,
    interference_term,
)
from .valuation import (
    UNDEFINED,
    TruthFunction,
    ValueSystem,
    _exact,
    evaluate_degrees,
    formula_element,
    supervalue,
)

__all__ = ["Report", "dispatch", "main", "UsageError"]


class UsageError(SlitlogicError):
    """Bad flags, malformed option values, or input above a stated limit."""


class _ArgumentParser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # every Action that add_argument or add_subparsers returned, -h first
        self.arguments = []
        super().__init__(*args, **kwargs)
        # No option of this CLI looks like a number, so an argument such as
        # "-1/2,0" or "-.5" is a value, as in "--amp1 -1/2,0".
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.arguments.append(action)
        return action

    def add_subparsers(self, **kwargs):
        action = super().add_subparsers(**kwargs)
        self.arguments.append(action)
        return action

    def error(self, message):
        raise UsageError(message)


@dataclass
class Report:
    """One command's outcome. ``payload`` holds every fact of the report;
    ``render`` prints it as JSON, byte for byte as ``json.dumps(payload,
    indent=2)`` would but written a column at a time (see :func:`_json_chunks`),
    or derives the text report from it."""

    payload: dict
    exit_code: int
    format: str = "text"

    @property
    def verdict(self) -> str:
        return self.payload["verdict"]

    def chunks(self) -> list[str]:
        """The rendering in pieces, in order: ``render`` joins them, and
        :func:`main` writes them a batch at a time."""
        if self.format == "json":
            return _json_chunks(self.payload)
        # an error payload has no command and renders as its verdict
        body = _TEXT_BODIES.get(self.payload.get("command"))
        lines = [self.verdict, *(body(self.payload) if body else ())]
        out = ["\n"] * (2 * len(lines) - 1)
        out[::2] = lines
        return out

    def render(self) -> str:
        return "".join(self.chunks())


# A column of fewer values is written value by value: below this many, its
# setup costs more than it saves.
_JSON_COLUMN_MIN = 16


def _json_chunks(value) -> list[str]:
    """The pieces of ``json.dumps(value, indent=2)``, in order, for dicts with
    str keys, lists, str, int, bool and None.

    The text is written a column at a time. :func:`_json_column` encodes in
    one call all the values that sit at one indent under one key path: all
    rows of a listing, then all their ``assignment`` dicts, then all their
    ``X1`` values. A value alone at its key path, such as the payload or a
    node of a parse tree, and the values of a column too short to pay for
    its setup, are written one at a time by :func:`_json_write`. Each item of
    a list that is written as a column is one chunk, so no row is copied
    again into the text of its list; a row that holds a container repeated
    in its column, as ``nogo``'s rows hold their corner's sub-dicts, is its
    pieces, so the repeated text is held once. Sharing is held one level
    down only: deeper, each sighting's text is a copy. ``"key": `` heads and
    str leaves are encoded once per call, in dicts local to it."""
    out = []
    _json_write(value, "", out, {}, {})
    return out


def _json_write(value, pad: str, out: list, heads: dict, leaves: dict) -> None:
    """Append the JSON text of ``value``, whose line is indented by ``pad``,
    to ``out``. ``heads`` maps an indent to the heads of the keys met at it,
    and ``leaves`` maps a str to its encoding. Each chunk a container writes
    starts with its separator, a comma, a newline and the indent, and the
    first one becomes the opening bracket. A dict writes its values one at a
    time, as does a list shorter than ``_JSON_COLUMN_MIN``; a longer list of
    str only is encoded with one ``map``, and any other longer list hands its
    items to :func:`_json_column` as one column and appends each item's text
    as one chunk, or each piece of a split text. This recurses
    once per level of nesting, as ``json`` does."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
        return
    if value is None or value is True or value is False:
        out.append("null" if value is None else "true" if value else "false")
        return
    if isinstance(value, int):
        out.append(int.__repr__(value))
        return
    is_dict = isinstance(value, dict)
    if not (is_dict or isinstance(value, list)):
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not value:
        out.append("{}" if is_dict else "[]")
        return
    inner = pad + "  "
    append = out.append
    if is_dict:
        start = len(out)
        for k, v in value.items():
            append(_json_head(heads, inner, k))
            if type(v) is str:
                text = leaves.get(v)
                if text is None:
                    text = leaves[v] = encode_basestring_ascii(v)
                append(text)
            elif v is None:
                append("null")
            else:
                _json_write(v, inner, out, heads, leaves)
        out[start] = "{" + out[start][1:]
        append("\n" + pad + "}")
        return
    sep = ",\n" + inner
    start = len(out)
    if len(value) < _JSON_COLUMN_MIN:
        for v in value:
            append(sep)
            _json_write(v, inner, out, heads, leaves)
    elif set(map(type, value)) == {str}:
        # labels, such as a lattice's elements or a scan's values, do not
        # repeat: a column's type split and leaf cache would cost more
        out += chain.from_iterable(zip(repeat(sep), map(encode_basestring_ascii, value)))
    else:
        texts, _ = _json_column(value, inner, heads, leaves)
        if type(texts[0]) is tuple:
            out += chain.from_iterable(chain.from_iterable(zip(repeat((sep,)), texts)))
        else:
            out += chain.from_iterable(zip(repeat(sep), texts))
    out[start] = "[\n" + inner
    append("\n" + pad + "]")


def _json_column(values, pad: str, heads: dict, leaves: dict) -> tuple[list, bool]:
    """The JSON texts of ``values``, whose lines are all indented by ``pad``,
    one per value in order, and whether the column repeats a container.

    The values are split by type, each part is encoded with C-level ``map``,
    ``zip`` and ``str.join``, and the parts are merged back in order. Str
    and null values are encoded as a part; ints, bools and values of a type
    JSON refuses are written one at a time by :func:`_json_write`. A
    container met more than once in the column is encoded once. Containers
    are grouped by shape, a dict's keys or a list's length. In a group of
    dicts, the values of each key form the next column, and each dict's text
    joins the keys' heads with its values' texts. In a group of lists, all
    items form the next column, whose texts are cut back into lists of the
    group's length and joined with their separator. A next column shorter
    than ``_JSON_COLUMN_MIN`` is written value by value by
    :func:`_json_write`. This recurses once per level of nesting.

    A dict whose own next column repeats a container is split: its text is
    the tuple of its heads and its values' texts, not their join, so the
    repeated text is held once, as ``nogo``'s rows hold their corner's
    sub-dicts. Split texts that come up from a next column are joined, so
    sharing is held one level down and no deeper. Either all texts of a
    column are str or all are tuples."""
    kinds, types = _json_groups(values, type)
    inner = pad + "  "
    repeated = False
    for kind, part in kinds.items():
        if issubclass(kind, str):
            missing = set(part).difference(leaves)
            leaves.update(zip(missing, map(encode_basestring_ascii, missing)))
            kinds[kind] = list(map(leaves.__getitem__, part))
            continue
        if kind is type(None):
            kinds[kind] = ["null"] * len(part)
            continue
        is_dict = issubclass(kind, dict)
        if not (is_dict or issubclass(kind, list)):  # one chunk per leaf, or TypeError
            kinds[kind] = texts = []
            for v in part:
                _json_write(v, pad, texts, heads, leaves)
            continue
        ids = None
        if len(set(map(id, part))) < len(part):
            ids = list(map(id, part))
            distinct = dict(zip(ids, part))
            part = list(distinct.values())
            repeated = True
        groups, shapes = _json_groups(part, tuple if is_dict else len)
        close = "\n" + pad + ("}" if is_dict else "]")
        for shape, members in groups.items():
            if not shape:
                groups[shape] = ["{}" if is_dict else "[]"] * len(members)
                continue
            if is_dict:
                openers = [_json_head(heads, inner, k) for k in shape]
                openers[0] = "{" + openers[0][1:]
                columns = [list(map(dict.__getitem__, members, repeat(k))) for k in shape]
            else:
                openers = ["[\n" + inner]
                columns = [list(chain.from_iterable(members))]
            pieces, held = [], False
            for opener, column in zip(openers, columns):
                if len(column) >= _JSON_COLUMN_MIN:
                    texts, holds = _json_column(column, inner, heads, leaves)
                    if type(texts[0]) is tuple:
                        texts = list(map("".join, texts))
                else:
                    texts, holds = [], False
                    for v in column:
                        chunks = []
                        _json_write(v, inner, chunks, heads, leaves)
                        texts.append("".join(chunks))
                if is_dict:
                    held |= holds
                else:  # cut the items' texts back into lists
                    texts = map((",\n" + inner).join, zip(*[iter(texts)] * shape))
                pieces.append((opener, texts))
            rows = zip(*chain.from_iterable((repeat(o), t) for o, t in pieces), repeat(close))
            # a dict whose next column repeats a container is the tuple of its pieces
            groups[shape] = list(rows) if held else list(map("".join, rows))
        _json_split(groups)
        texts = _json_merge(groups, shapes)
        if ids is not None:  # each sighting of a repeated container takes its text
            texts = list(map(dict(zip(distinct, texts)).__getitem__, ids))
        kinds[kind] = texts
    _json_split(kinds)
    return _json_merge(kinds, types), repeated


def _json_split(parts: dict) -> None:
    """When one text list among the values of ``parts`` is split, split
    the others too: a str becomes the tuple of itself."""
    if any(type(texts[0]) is tuple for texts in parts.values()):
        for key, texts in parts.items():
            if type(texts[0]) is not tuple:
                parts[key] = list(zip(texts))


def _json_groups(values, key) -> tuple[dict, list | None]:
    """``values`` grouped by ``key(value)``, in the order the keys are first
    met, and the key of each value in order, or None when they share one."""
    groups = dict.fromkeys(map(key, values))
    if len(groups) == 1:
        groups[next(iter(groups))] = values
        return groups, None
    keys = list(map(key, values))
    for k in groups:
        groups[k] = []
    for k, value in zip(keys, values):
        groups[k].append(value)
    return groups, keys


def _json_merge(groups: dict, keys: list | None) -> list:
    """The texts of :func:`_json_groups`' groups back in the values' order."""
    if keys is None:
        return next(iter(groups.values()))
    parts = {k: iter(texts) for k, texts in groups.items()}
    return list(map(next, map(parts.__getitem__, keys)))


def _json_head(heads: dict, inner: str, key) -> str:
    """The chunk that leads a dict's item ``key`` at indent ``inner``: a comma,
    a newline, the indent, the encoded key and a colon, encoded once per
    indent and key."""
    at = heads.get(inner)
    if at is None:
        at = heads[inner] = {}
    head = at.get(key)
    if head is None:  # a key that is no str raises TypeError here
        head = at[key] = ",\n" + inner + encode_basestring_ascii(key) + ": "
    return head


def _jsonable(value):
    if value is UNDEFINED:
        return "undefined"
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _parse_pairs(text: str, what: str) -> list[tuple[str, str]]:
    pairs = []
    seen = set()
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        key, eq, val = chunk.partition("=")
        key, val = key.strip(), val.strip()
        if not (key and eq and val):
            raise UsageError(f"{what} entry {chunk!r} is not of the form name=value")
        if key in seen:
            raise UsageError(f"{what} assigns {key!r} twice")
        seen.add(key)
        pairs.append((key, val))
    if not pairs:
        raise UsageError(f"{what} is empty")
    return pairs


def _amplitude(text: str, what: str) -> tuple[Fraction, Fraction]:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"{what} must be re,im")
    return (_exact(parts[0], what), _exact(parts[1], what))


def _resolve_lattice(ref: str) -> lattice_mod.Lattice:
    if ref.startswith("builtin:"):
        parts = ref.split(":")
        if len(parts) != 3:
            raise UsageError("builtin lattice reference must be builtin:family:n")
        try:
            n = int(parts[2])
        except ValueError:
            raise UsageError(f"builtin size {parts[2]!r} is not an integer") from None
        return lattice_mod.builtin(parts[1], n)
    return lattice_mod.load(ref)


def _interference_from_args(ns) -> InterferenceInputs:
    direct = [ns.p_or, ns.p1, ns.p2]
    if any(v is not None for v in direct):
        if not all(v is not None for v in direct):
            raise UsageError("give all of --p-or, --p1, --p2 or none")
        return InterferenceInputs(
            _exact(ns.p_or, "--p-or"),
            _exact(ns.p1, "--p1"),
            _exact(ns.p2, "--p2"),
        )
    return amplitude_interference(
        _amplitude(ns.amp1, "--amp1"), _amplitude(ns.amp2, "--amp2")
    )


def _scenario_from_args(ns) -> Scenario:
    lattice = _resolve_lattice(ns.lattice)
    binding = _parse_pairs(ns.bind, "--bind")
    if len(binding) != 2:
        raise UsageError("--bind must name exactly two atoms")
    inputs = _interference_from_args(ns)
    return Scenario.build(
        lattice,
        binding,
        inputs,
        equal_priors=ns.equal_priors,
        allow_degenerate=ns.allow_degenerate,
    )


# ---------------------------------------------------------------- handlers


def _lattice_fields(lat: lattice_mod.Lattice) -> dict:
    return {"elements": list(lat.elements), "bottom": lat.bottom, "top": lat.top}


def _cmd_lattice_check(ns) -> Report:
    # build_from_order rejects every order or involution that breaks a law
    lat = _resolve_lattice(ns.lattice_ref)
    payload = {
        "command": "lattice-check",
        "verdict": f"ok: all lattice laws hold ({_elements_text(lat.elements)})",
        **_lattice_fields(lat),
        "violations": [],  # kept in the report's schema; always empty
    }
    return Report(payload, 0, ns.format)


# A chain of k xors desugars to about 2^k nodes; parse prints no more than this.
_DESUGARED_NODE_LIMIT = 10**6
# The JSON writer recurses once per level of the tree; parse prints no deeper JSON.
_JSON_DEPTH_LIMIT = 500
# nogo lists each of the 2^(n - 2) bivalent truth functions of an n-element
# lattice; it lists no more than this, so lattices of up to 18 elements.
_LISTED_FUNCTION_LIMIT = 2**16


def _cmd_parse(ns) -> Report:
    """Echo a formula: its text, its tree and the text of its desugared form.

    One walk over the tree's postfix program gives each subtree's desugared
    size, depth, text, desugared text and payload tree. A subtree without an
    xor desugars to itself, so it keeps one text for both. The size is checked
    before the desugared text is made, since an xor doubles it: a long xor
    chain stops at the cap, and a size error comes before a depth error.
    """
    f = parse(ns.text)
    limit = _DESUGARED_NODE_LIMIT
    too_large = f"the desugared form has more than {limit} nodes"
    # per subtree: (desugared size, depth, (text, binds), (desugared text, binds), tree)
    stack: list = []
    for item in f._program:
        if type(item) is Atom:
            text = item.name, 4  # an atom binds like "!"
            stack.append((1, 1, text, text, {"node": "Atom", "name": item.name}))
            continue
        if item is Not:
            size, depth, text, sugar, tree = stack[-1]
            if size + 1 > limit:
                raise UsageError(too_large)
            negated = _negated(text)
            stack[-1] = (size + 1, depth + 1, negated,
                         negated if sugar is text else _negated(sugar),
                         {"node": "Not", "child": tree})
            continue
        rsize, rdepth, rtext, rsugar, rtree = stack.pop()
        size, depth, text, sugar, tree = stack[-1]
        # (y | z) & !(y & z) holds each operand twice, under four more nodes
        size = 2 * (size + rsize) + 4 if item is Xor else size + rsize + 1
        if size > limit:
            raise UsageError(too_large)
        joined = _TEXT[item](text, rtext)
        if sugar is text and rsugar is rtext and item is not Xor:
            sugar = joined
        else:
            sugar = _DESUGARED_TEXT[item](sugar, rsugar)
        stack[-1] = (size, max(depth, rdepth) + 1, joined, sugar,
                     {"node": item.__name__, "left": tree, "right": rtree})
    _, depth, (text, _), (desugared, _), tree = stack[0]
    if ns.format == "json" and depth > _JSON_DEPTH_LIMIT:
        raise UsageError(f"the formula nests {depth} levels deep; --format json "
                         f"prints at most {_JSON_DEPTH_LIMIT}")
    payload = {
        "command": "parse",
        "verdict": f"ok: {text}",
        "formula": text,
        "tree": tree,
        "desugared": desugared,
    }
    return Report(payload, 0, ns.format)


def _cmd_eval(ns) -> Report:
    f = parse(ns.formula)
    assigns = _parse_pairs(ns.assign, "--assign")
    element = None
    if ns.mode == "lukasiewicz":
        atom_values = {k: _exact(v, f"value for {k}") for k, v in assigns}
        value = evaluate_degrees(f, atom_values)
        # Literals over coprime denominators add up to a denominator with the
        # digits of them all; the value lies in [0, 1], so its numerator is no
        # longer. Python before 3.10.7 prints ints of any length.
        limit = getattr(sys, "get_int_max_str_digits", int)()
        if limit and value.denominator >= 10**limit:
            raise UsageError(f"the value has a denominator of more than {limit} digits, "
                             "more than this interpreter prints")
    else:
        if ns.lattice is None:
            raise UsageError(f"--mode {ns.mode} needs --lattice")
        lat = _resolve_lattice(ns.lattice)
        binding = dict(assigns)
        element = formula_element(f, binding, lat)
        if ns.mode == "super":
            value = supervalue(element, lat)
        else:
            entries = dict(_parse_pairs(ns.values, "--values")) if ns.values else {}
            tf_values: dict[str, object] = {
                lat.bottom: Fraction(0),
                lat.top: Fraction(1),
            }
            for el, raw in entries.items():
                tf_values[el] = (
                    UNDEFINED if raw == "undefined" else _exact(raw, f"value for {el}")
                )
            missing = [e for e in lat.elements if e not in tf_values]
            if missing:
                raise UsageError(
                    "--mode lattice needs --values entries for " + ", ".join(missing)
                )
            # evaluate_lattice would reduce the formula a second time
            value = TruthFunction(lat, tf_values)(element)
    value = _jsonable(value)
    payload = {
        "command": "eval",
        "verdict": f"value: {value}",
        "mode": ns.mode,
        "formula": render(f),
        "value": value,
    }
    if element is not None:
        payload["element"] = element
    return Report(payload, 0, ns.format)


def _cmd_interference(ns) -> Report:
    inputs = _interference_from_args(ns)
    term = interference_term(inputs)
    payload = {
        "command": "interference",
        "verdict": f"I12 = {term}",
        "p_or": _jsonable(inputs.p_or),
        "p1": _jsonable(inputs.p1),
        "p2": _jsonable(inputs.p2),
        "i12": _jsonable(term),
    }
    return Report(payload, 0, ns.format)


def _violation_payload(violation) -> dict | None:
    if violation is None:
        return None
    return {
        "constraint": violation.constraint,
        "also_violates": list(violation.also_violates),
        "assignment": {a: _jsonable(v) for a, v in violation.assignment},
        "trace": [
            {
                "rule": s.rule,
                "operands": _jsonable(s.operands),
                "result": _jsonable(s.result),
                "note": s.note,
            }
            for s in violation.trace
        ],
    }


def _scenario_payload(scenario: Scenario) -> dict:
    return {
        "lattice": _lattice_fields(scenario.lattice),
        "binding": {a: e for a, e in scenario.binding},
        "interference": {
            "p_or": _jsonable(scenario.interference.p_or),
            "p1": _jsonable(scenario.interference.p1),
            "p2": _jsonable(scenario.interference.p2),
            "i12": _jsonable(scenario.observed_interference()),
        },
        "equal_priors": scenario.equal_priors,
    }


def _result_payload(atoms, pair, violation) -> dict:
    return {
        "assignment": {a: _jsonable(v) for a, v in zip(atoms, pair)},
        "violation": _violation_payload(violation),
    }


def _certificate_payload(cert: Certificate) -> dict:
    """The nogo JSON payload. It lists every bivalent truth function with the
    result of its corner (v(e1), v(e2)). A function's values are read off
    string axes, the bottom's "0", the top's "1" and "0" or "1" for every
    other element, in the order of ``enumerate_truth_functions``, and no
    value is formatted per function. Every function in a corner's class
    shares that corner's ``assignment`` and ``violation`` sub-dicts, so the
    payload must be treated as read-only."""
    atoms = cert.scenario.atom_names
    corners = {(str(v1), str(v2)): _result_payload(atoms, (v1, v2), v)
               for (v1, v2), v in cert.corner_results}
    lattice = cert.scenario.lattice
    elements = lattice.elements
    i1, i2 = (lattice.index(e) for e in cert.scenario.bound_elements)
    pinned = {lattice.bottom: ("0",), lattice.top: ("1",)}
    axes = [pinned.get(e, ("0", "1")) for e in elements]
    functions = [{"values": dict(zip(elements, row)), **corners[row[i1], row[i2]]}
                 for row in product(*axes)]
    return {
        "command": "nogo",
        "verdict": cert.verdict,
        "scenario": _scenario_payload(cert.scenario),
        "enumerated": len(corners) + cert.functions_covered,
        "corners": list(corners.values()),
        "truth_functions": functions,
    }


def _cmd_nogo(ns) -> Report:
    cert = run_nogo(_scenario_from_args(ns))
    if cert.functions_covered > _LISTED_FUNCTION_LIMIT:
        free = len(cert.scenario.lattice.elements) - 2
        raise UsageError(f"nogo would list 2^{free} bivalent truth functions; "
                         f"it lists at most 2^{_LISTED_FUNCTION_LIMIT.bit_length() - 1}")
    return Report(_certificate_payload(cert), 0 if cert.holds else 1, ns.format)


def _cmd_scan(ns) -> Report:
    if ns.values is not None and ns.denominator is not None:
        raise UsageError("give --values or --denominator, not both")
    if ns.values is not None:
        system = ValueSystem.finite(ns.values)
    else:
        system = ValueSystem.infinite(ns.denominator if ns.denominator is not None else 10)
    scenario = _scenario_from_args(ns)
    report = scan_grid(scenario, system)
    a1, a2 = scenario.atom_names
    corner_results = report.corner_results()
    corners_violated = sum(1 for _, v in corner_results if v)
    # each grid value is formatted once; every cell is consistent but the
    # few violating ones, which are set afterwards, highest index first
    labels = [str(v) for v in system.values]
    results = [{"assignment": {a1: l1, a2: l2}, "violation": None}
               for l1, l2 in product(labels, repeat=2)]
    consistent = list(map(list, product(labels, repeat=2)))
    for k, violation in reversed(report.violations):
        results[k]["violation"] = _violation_payload(violation)
        del consistent[k]
    payload = {
        "command": "scan",
        "verdict": (
            f"corners violated: {corners_violated}/{len(corner_results)}; "
            f"consistent: {len(consistent)}/{len(results)}"
        ),
        "scenario": _scenario_payload(scenario),
        "value_system": system.kind,
        "values": labels,
        "results": results,
        "consistent": consistent,
        "corners": {
            f"({v1}, {v2})": v.constraint if v else "consistent"
            for (v1, v2), v in corner_results
        },
    }
    code = 0 if corners_violated == len(corner_results) else 1
    return Report(payload, code, ns.format)


def _cmd_super(ns) -> Report:
    scenario = _scenario_from_args(ns)
    report = check_supervaluation(scenario)
    payload = {
        "command": "super",
        "verdict": f"supervaluation {'consistent' if report.consistent else 'inconsistent'}",
        "scenario": _scenario_payload(scenario),
        "atoms": {a: _jsonable(v) for a, v in report.atom_values},
        "compound_element": report.compound_element,
        "compound_value": _jsonable(report.compound_value),
        "bridges_fired": report.bridges_fired,
        "consistent": report.consistent,
    }
    return Report(payload, 0 if report.consistent else 1, ns.format)


# ---------------------------------------------------------------- text bodies
#
# Each formatter reads only its payload, so a payload that went through
# json.dumps and json.loads renders to the same text.


def _tree_text(tree: dict) -> list[str]:
    lines, stack = [], [(tree, 0)]
    while stack:
        node, depth = stack.pop()
        label = f"Atom {node['name']}" if node["node"] == "Atom" else node["node"]
        lines.append("  " * depth + label)
        stack += [(node[k], depth + 1) for k in ("right", "left", "child") if k in node]
    return lines


def _elements_text(elements: Sequence[str]) -> str:
    return f"{len(elements)} elements [{', '.join(elements)}]"


def _binding_text(scenario: dict) -> str:
    return "binding: " + ", ".join(f"{a}={e}" for a, e in scenario["binding"].items())


def _scenario_text(scenario: dict) -> list[str]:
    inp = scenario["interference"]
    return [
        f"lattice: {_elements_text(scenario['lattice']['elements'])}",
        _binding_text(scenario),
        (
            f"observed: P[R|both]={inp['p_or']}, P[R|path1]={inp['p1']}, "
            f"P[R|path2]={inp['p2']}, I12={inp['i12']}"
        ),
        f"equal priors: {'yes' if scenario['equal_priors'] else 'no'}",
    ]


def _result_text(result: dict) -> str:
    line = "(" + ", ".join(map("=".join, result["assignment"].items())) + ") -> "
    v = result["violation"]
    if v is None:
        return line + "consistent"
    line += f"violates {v['constraint']}"
    if v["also_violates"]:
        line += f" (also: {', '.join(v['also_violates'])})"
    return line


def _parse_text(p: dict) -> list[str]:
    return _tree_text(p["tree"]) + [f"desugared: {p['desugared']}"]


def _eval_text(p: dict) -> list[str]:
    return [f"element: {p['element']}"] if "element" in p else []


def _interference_text(p: dict) -> list[str]:
    return [f"p_or = {p['p_or']}; p1 = {p['p1']}; p2 = {p['p2']}"]


def _nogo_text(p: dict) -> list[str]:
    corners = [_result_text(c) for c in p["corners"]]
    functions = p["truth_functions"]
    lines = _scenario_text(p["scenario"])
    lines += ["", f"corner assignments ({len(corners)}):"]
    lines += [f"  {c}" for c in corners]
    lines += ["", f"bivalent truth functions ({len(functions)}):"]
    # a function shares its corner's sub-dicts (see _certificate_payload), so
    # each corner's result is formatted once; rows that share nothing, as
    # after json.loads, are formatted one by one
    results = {}
    for f in functions:
        values = ", ".join(map("=".join, f["values"].items()))
        key = (id(f["assignment"]), id(f["violation"]))
        result = results.get(key)
        if result is None:
            result = results[key] = _result_text(f)
        lines.append(f"  {{{values}}} -> {result}")
    lines += ["", "derivation traces:"]
    for corner, text in zip(p["corners"], corners):
        lines.append(f"  {text}")
        if corner["violation"]:
            lines += [
                f"    {TraceStep(s['rule'], tuple(s['operands']), s['result'], s['note'])}"
                for s in corner["violation"]["trace"]
            ]
    return lines


def _scan_text(p: dict) -> list[str]:
    results = p["results"]
    violated = len(results) - len(p["consistent"])
    consistent = "), (".join(map(", ".join, p["consistent"]))
    lines = _scenario_text(p["scenario"])
    lines += [
        f"value system: {p['value_system']} over {{{', '.join(p['values'])}}}",
        (
            f"assignments checked: {len(results)}; "
            f"violated: {violated}; consistent: {len(p['consistent'])}"
        ),
        "corners: " + "; ".join(f"{pair} -> {c}" for pair, c in p["corners"].items()),
        f"consistent: ({consistent})" if consistent else "consistent: none",
        "table:",
    ]
    # every row as a consistent one, then the few violating rows again
    start = len(lines)
    lines += [f"  ({', '.join(map('='.join, r['assignment'].items()))}) -> consistent"
              for r in results]
    for k in compress(count(), map(itemgetter("violation"), results)):
        lines[start + k] = f"  {_result_text(results[k])}"
    return lines


def _super_text(p: dict) -> list[str]:
    return [
        _binding_text(p["scenario"]),
        *(f"{atom} -> {value}" for atom, value in p["atoms"].items()),
        f"compound reduces to element: {p['compound_element']}",
        f"compound value: {p['compound_value']}",
        f"bridges fired: {'yes' if p['bridges_fired'] else 'no'}",
    ]


_TEXT_BODIES = {
    "parse": _parse_text,
    "eval": _eval_text,
    "interference": _interference_text,
    "nogo": _nogo_text,
    "scan": _scan_text,
    "super": _super_text,
}


# ---------------------------------------------------------------- parser


_FORMATS = ("text", "json")


def _add_format(p) -> None:
    p.add_argument("--format", choices=_FORMATS, default="text")


def _requested_format(argv: Sequence[str]) -> str:
    """The format of the error report of an argv that does not parse: the
    last ``--format X`` or ``--format=X`` of argv, or text when that is
    absent or not a choice."""
    fmt = "text"
    for flag, value in zip(argv, [*argv[1:], None]):
        if flag == "--format":
            fmt = value
        elif flag.startswith("--format="):
            fmt = flag[len("--format="):]
    return fmt if fmt in _FORMATS else "text"


def _add_interference_args(p) -> None:
    p.add_argument("--amp1", default="1/2,1/2", help="path 1 amplitude as re,im")
    p.add_argument("--amp2", default="1/2,1/2", help="path 2 amplitude as re,im")
    p.add_argument("--p-or", dest="p_or", default=None, help="P[R|both paths open]")
    p.add_argument("--p1", default=None, help="P[R|path 1]")
    p.add_argument("--p2", default=None, help="P[R|path 2]")


def _add_scenario_args(p) -> None:
    p.add_argument("--lattice", default="builtin:boolean:2")
    p.add_argument("--bind", default="X1=a,X2=b", help="atom=element pairs, e.g. X1=a,X2=b")
    _add_interference_args(p)
    p.add_argument("--equal-priors", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--allow-degenerate", action="store_true",
                   help="accept a scenario with zero interference")


def _add_lattice_check_args(p) -> None:
    p.add_argument("lattice_ref", help="lattice file path or builtin:family:n")


def _add_parse_args(p) -> None:
    p.add_argument("text")


def _add_eval_args(p) -> None:
    p.add_argument("--formula", required=True)
    p.add_argument("--mode", choices=("lattice", "lukasiewicz", "super"), required=True)
    p.add_argument("--lattice", default=None)
    p.add_argument("--assign", required=True,
                   help="atom=element (lattice/super) or atom=value (lukasiewicz) pairs")
    p.add_argument("--values", default=None,
                   help="element=value truth-function entries for --mode lattice")


def _add_scan_args(p) -> None:
    p.add_argument("--values", type=int, default=None,
                   help="finite system with N equally spaced values")
    p.add_argument("--denominator", type=int, default=None,
                   help="rational grid k/d standing in for the unit interval")
    _add_scenario_args(p)


# subcommand -> (help line, adder of its arguments); the handler of "x-y" is
# _cmd_x_y, looked up on every run, so a replaced handler is the one that runs
_COMMANDS = {
    "lattice-check": ("verify every lattice law of a lattice file", _add_lattice_check_args),
    "parse": ("echo a formula as a tree plus its desugared form", _add_parse_args),
    "eval": ("evaluate a formula under one of the semantics", _add_eval_args),
    "interference": ("compute the two-path interference term", _add_interference_args),
    "nogo": ("certify all bivalent assignments of a scenario", _add_scenario_args),
    "scan": ("sweep every admissible value pair of a grid", _add_scan_args),
    "super": ("evaluate the scenario with no-value atoms", _add_scenario_args),
}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command line, built once per process: argparse
    keeps no state of a parse on its parsers, so each parse starts afresh."""
    parser = _ArgumentParser(prog="slitlogic", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_ArgumentParser)
    for name, (help_line, add_args) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        add_args(p)
        _add_format(p)
    return parser


@cache
def _plain_commands() -> dict[str, tuple]:
    """subcommand -> what :func:`_read_plain` reads its command lines with,
    taken from the Actions of :func:`build_parser`'s subparsers: the flags
    that take a value, each with its Action; the flags that take none, each
    with the dest and the value it stores; the defaults; the dests of the
    required flags; and the dests of the positionals, in order."""
    commands = {}
    top = next(a for a in build_parser().arguments if a.dest == "command")
    for name, sub in top.choices.items():
        flags, switches, defaults, required, positionals = {}, {}, {"command": name}, set(), []
        for action in sub.arguments:
            if action.default is argparse.SUPPRESS:  # -h, whose help argparse prints
                continue
            defaults[action.dest] = action.default
            if not action.option_strings:
                positionals.append(action.dest)
            elif action.nargs == 0:  # store_true, or BooleanOptionalAction's --x and --no-x
                for flag in action.option_strings:
                    switches[flag] = action.dest, (action.const if action.const is not None
                                                   else not flag.startswith("--no-"))
            else:
                flags.update(dict.fromkeys(action.option_strings, action))
                if action.required:
                    required.add(action.dest)
        commands[name] = flags, switches, defaults, frozenset(required), tuple(positionals)
    return commands


def _read_plain(argv: Sequence[str]) -> argparse.Namespace | None:
    """The namespace that argparse gives a plain command line, read without
    it; None leaves argv to argparse.

    A command line is plain when its first word names a subcommand and each
    later word is one of: an exact flag of that subcommand that takes a
    value, written ``--flag=value`` or ``--flag value``; an exact flag that
    takes none; or a positional that does not start with "-". A value given
    as the next word does not start with "-", and a value is not exactly
    "--", which argparse before 3.13 stores as []. Each value passes its
    flag's type and choices, every required flag is given, and the
    positionals are as many as the subcommand takes. Help, abbreviations
    such as ``--form``, ``--``, and every command line that argparse refuses
    go to argparse."""
    command = _plain_commands().get(argv[0]) if argv else None
    if command is None:
        return None
    flags, switches, defaults, required, positionals = command
    values, seen, given = dict(defaults), set(), []
    words = iter(argv[1:])
    for word in words:
        if word[:1] != "-":
            given.append(word)
            continue
        flag, eq, value = word.partition("=")
        if flag in switches:
            if eq:
                return None
            dest, const = switches[flag]
            values[dest] = const
            continue
        action = flags.get(flag)
        if action is None:
            return None
        if not eq:
            value = next(words, None)
            if value is None or value[:1] == "-":
                return None
        elif value == "--":
            return None
        if action.type is not None:
            try:
                value = action.type(value)
            except (TypeError, ValueError):
                return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
        seen.add(action.dest)
    if len(given) != len(positionals) or not required <= seen:
        return None
    values.update(zip(positionals, given))
    return argparse.Namespace(**values)


_INPUT_ERRORS = (SlitlogicError, OSError)


def dispatch(argv: Sequence[str]) -> Report:
    """Read argv and run its subcommand; rejected input becomes an exit-2
    report, in the format of the parsed command line, or of
    :func:`_requested_format` when argv does not parse. A plain command line
    (see :func:`_read_plain`) is read directly, and any other is parsed by
    argparse."""
    ns = None
    try:
        ns = _read_plain(argv)
        if ns is None:
            ns = build_parser().parse_args(list(argv))
            if ns.command is None:
                raise UsageError("a subcommand is required (see --help)")
            # argparse before 3.13 stores an option value of exactly "--",
            # as in --bind=--, as []
            for flag, action in _plain_commands()[ns.command][0].items():
                if type(getattr(ns, action.dest)) is list:
                    raise UsageError(f"argument {flag}: expected one argument")
        return globals()["_cmd_" + ns.command.replace("-", "_")](ns)
    except _INPUT_ERRORS as exc:
        message = str(exc) or type(exc).__name__
        verdict = f"error: {message}"
        fmt = getattr(ns, "format", None) or _requested_format(argv)
        return Report({"verdict": verdict, "error": message}, 2, fmt)


# chunks joined into one write to stdout
_WRITE_BATCH = 4096


def _unwritten(reason: str) -> int:
    """Say on stderr, when there is one, that the report was not written,
    and return exit code 2."""
    if sys.stderr is not None:
        try:
            print(f"error: {reason}", file=sys.stderr, flush=True)
        except OSError:
            pass
    return 2


def main(argv: Sequence[str] | None = None) -> int:
    """Print the report of argv, or of the process's arguments, and return
    its exit code. The report's chunks are written a batch at a time, so a
    run holds no copy of the whole text nor of its encoding.

    A character that stdout's encoding cannot hold is written as a
    backslash escape (``\\u03b1`` for ``α`` in ASCII), as JSON output
    escapes it. A reader that closes the pipe early keeps the report's exit
    code; a missing stdout, or any other failed write, exits 2 with one line
    on stderr."""
    report = dispatch(sys.argv[1:] if argv is None else list(argv))
    chunks = report.chunks()
    out = sys.stdout
    if out is None:
        return _unwritten("standard output is closed")
    if isinstance(out, io.TextIOWrapper):
        out.reconfigure(errors="backslashreplace")
    try:
        for start in range(0, len(chunks), _WRITE_BATCH):
            out.write("".join(chunks[start:start + _WRITE_BATCH]))
        out.write("\n")
        out.flush()
    except OSError as exc:
        # devnull takes what is left for the flush at interpreter exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
        if not isinstance(exc, BrokenPipeError):
            return _unwritten(f"cannot write the report: {exc}")
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
