"""One exception root: every rejected input is a SlitlogicError, the CLI
reports exactly those (and OSError) as exit 2, and anything else escapes."""

import json
import string
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from slitlogic import cli, lattice, valuation
from slitlogic.cli import dispatch
from slitlogic.errors import SlitlogicError, _shown

def test_cli_catches_the_root_and_os_errors_only():
    assert cli._INPUT_ERRORS == (SlitlogicError, OSError)
    named = {n for n, v in vars(cli).items() if isinstance(v, type) and issubclass(v, BaseException)}
    assert named == {"SlitlogicError", "UsageError"}


@pytest.mark.parametrize("argv", [
    ["lattice-check", "builtin:boolean:2"],
    ["parse", "A"],
    ["eval", "--formula", "A", "--mode", "lukasiewicz", "--assign", "A=1"],
    ["interference"],
    ["nogo"],
    ["scan"],
    ["super"],
], ids=lambda argv: argv[0])
def test_a_fault_in_a_handler_propagates(monkeypatch, argv):
    def fault(ns):
        raise ValueError("a fault of the program")

    # dispatch looks the handler up on every run, so the patch is seen
    monkeypatch.setattr(cli, "_cmd_" + argv[0].replace("-", "_"), fault)
    with pytest.raises(ValueError, match="a fault of the program"):
        dispatch(argv)


# every other file below is smaller than this
_TEST_FILE_CAP = 1 << 19
_LATTICE_FILES = {
    "integer-elements": (json.dumps({"elements": [0, 1], "order": [[0, 1]],
                                     "involution": [[0, 1]]}), "'elements'"),
    "list-elements": (json.dumps({"elements": [["a"], "b"], "order": [],
                                  "involution": []}), "'elements'"),
    "list-in-order": (json.dumps({"elements": ["a", "b"], "order": [[["a"], "b"]],
                                  "involution": [["a", "b"]]}), "'order'"),
    "integer-in-involution": (json.dumps({"elements": ["a", "b"], "order": [["a", "b"]],
                                          "involution": [[0, 1]]}), "'involution'"),
    "null": ("null", "must be an object"),
    "deep-nesting": ("[" * 200_000 + "]" * 200_000, "nests too deeply"),
    "not-utf-8": (b"\xff\xfe{}", "can't decode byte 0xff"),
    "5000-digit-integer": ("1" * 5000, "Exceeds the limit"),
    # a lawful lattice padded one byte past the cap the test sets
    "oversized": (json.dumps(lattice.builtin("boolean", 2).to_dict()).ljust(_TEST_FILE_CAP + 1),
                  f"the lattice file has more than the {_TEST_FILE_CAP} bytes allowed"),
}


@pytest.mark.parametrize("case", sorted(_LATTICE_FILES))
@pytest.mark.parametrize("fmt", ("text", "json"))
def test_malformed_lattice_files_exit_2_with_one_line(monkeypatch, tmp_path, case, fmt):
    monkeypatch.setattr(lattice, "MAX_FILE_BYTES", _TEST_FILE_CAP)
    content, fragment = _LATTICE_FILES[case]
    path = tmp_path / "lattice.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content, encoding="utf-8")
    report = dispatch(["lattice-check", str(path), f"--format={fmt}"])
    assert report.exit_code == 2
    message = report.payload["error"]
    assert "\n" not in message
    assert fragment in message
    for internal in ("unhashable", "expected str instance", "recursion"):
        assert internal not in message
    assert report.render()


# ------------------------------------------------ every argv ends in a report

_ALPHABET = string.digits + "/-.,=" + string.ascii_letters + "!&^|() "
# Drawn sizes stay small: nogo lists 2^(elements - 2) truth functions, which
# takes seconds at its cap of 2^16, and scan checks (values)^2 pairs. The
# builtins above nogo's cap are refused by nogo at once and take the other
# subcommands milliseconds; no size at the cap is drawn.
_SIZES = {"boolean": 3, "chain": 6, "lantern": 3}
_ABOVE_NOGO_CAP = ("builtin:boolean:5", "builtin:boolean:6", "builtin:lantern:9",
                   "builtin:chain:18")
_NAMES = ("0", "a", "b", "c", "1")
_VALID_FILES = (
    {"elements": ["0", "a", "b", "1"], "order": [["0", "a"], ["0", "b"], ["a", "1"], ["b", "1"]],
     "involution": [["0", "1"], ["a", "b"]]},
    {"elements": ["0", "a", "1"], "order": [["0", "a"], ["a", "1"]],
     "involution": [["0", "1"], ["a", "a"]]},
)
_FILE = "<lattice file>"  # stands for the path the property writes the file to

# "-h" or a prefix of "--help" would print the help and exit
_text = st.text(_ALPHABET, max_size=8).filter(lambda t: not t.startswith(("-h", "--h")))


def _or_junk(*valid):
    """One of ``valid`` three draws in four, short junk text or "--" the
    fourth. argparse before 3.13 stores an option value of exactly "--" as []."""
    return st.one_of(*valid * 3, _text | st.just("--"))


_name = st.one_of(st.sampled_from(_NAMES), st.sampled_from(_NAMES), st.integers(-1, 3),
                  st.none(), st.just(["a"]))
_entries = st.lists(st.one_of(st.tuples(_name, _name).map(list), st.lists(_name, max_size=3)),
                    max_size=5)
_file_content = _or_junk(
    st.fixed_dictionaries({"elements": st.lists(_name, max_size=5),
                           "order": _entries, "involution": _entries}),
    st.sampled_from(_VALID_FILES), st.none(), st.integers(),
)
_lattice = _or_junk(
    st.sampled_from(sorted(_SIZES)).flatmap(
        lambda family: st.integers(-1, _SIZES[family]).map(lambda n: f"builtin:{family}:{n}")),
    st.sampled_from(_ABOVE_NOGO_CAP), st.just(_FILE), st.just(_FILE),
)
_rational = st.fractions(0, 1, max_denominator=6).map(str)
_amplitude = _or_junk(st.tuples(_rational, _rational).map(",".join))
_formula = _or_junk(st.sampled_from(("X1 ^ X2", "A", "!(A & B) | A")),
                    st.text("ABX12!&^|() ", max_size=8))


def _pairs(keys, values):
    return _or_junk(st.lists(st.tuples(st.sampled_from(keys), values).map("=".join),
                             min_size=1, max_size=3).map(",".join))


_INTERFERENCE = {"--amp1": _amplitude, "--amp2": _amplitude, "--p-or": _or_junk(_rational),
                 "--p1": _or_junk(_rational), "--p2": _or_junk(_rational)}
_SCENARIO = {
    **_INTERFERENCE,
    "--lattice": _lattice,
    "--bind": _pairs(("X1", "X2"), st.sampled_from(_NAMES + ("a1", "a2", "m1"))),
    "--equal-priors": None, "--no-equal-priors": None, "--allow-degenerate": None,
}
# 502 and 10**9 lie above the grid cap and are refused before any work
_COUNT = _or_junk(st.one_of(st.integers(-1, 30), st.sampled_from((502, 10**9))).map(str))
# subcommand -> (positional arguments, options drawn every time, other options)
_COMMANDS = {
    "lattice-check": ([_lattice], {}, {}),
    "parse": ([_formula], {}, {}),
    "eval": ([], {
        "--formula": _formula,
        "--mode": _or_junk(st.sampled_from(("lattice", "lukasiewicz", "super"))),
        "--assign": _pairs(("X1", "X2", "A", "B"), st.one_of(st.sampled_from(_NAMES), _rational)),
        "--lattice": _lattice,
    }, {
        "--values": _pairs(_NAMES, st.one_of(_rational, st.just("undefined"))),
    }),
    "interference": ([], {}, _INTERFERENCE),
    "nogo": ([], {}, _SCENARIO),
    "scan": ([], {}, {**_SCENARIO, "--values": _COUNT, "--denominator": _COUNT}),
    "super": ([], {}, _SCENARIO),
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    positionals, required, optional = _COMMANDS[command]
    options = {**required, **optional, "--format": _or_junk(st.sampled_from(("text", "json")))}
    flags = draw(st.lists(st.sampled_from(sorted(options)), max_size=6))
    argv = [command] + [draw(p) for p in positionals]
    for flag in flags + list(required):
        if options[flag] is None:
            argv.append(flag)
        elif draw(st.booleans()):
            argv.append(f"{flag}={draw(options[flag])}")
        else:
            argv += [flag, draw(options[flag])]
    return argv


@settings(max_examples=300, deadline=None)
@given(content=_file_content, argv=_argv())
def test_every_argv_ends_in_a_report(tmp_path_factory, content, argv):
    path = tmp_path_factory.getbasetemp() / "fuzz-lattice.json"
    # text is written as it is, so most of it is not JSON
    path.write_text(content if isinstance(content, str) else json.dumps(content), encoding="utf-8")
    argv = [a.replace(_FILE, str(path)) for a in argv]
    report = dispatch(argv)
    assert report.exit_code in (0, 1, 2)
    text = report.render()
    assert isinstance(text, str) and text
    if report.exit_code == 2:
        assert "\n" not in report.verdict


# argparse before 3.13 stores an option value of exactly "--" as []; on every
# release each of these ends in exit 2 with one line
@pytest.mark.parametrize("argv", [
    ["nogo", "--bind=--"],
    ["interference", "--amp1=--"],
    ["eval", "--formula=X", "--mode=lukasiewicz", "--assign=--"],
    ["nogo", "--lattice=--"],
    ["nogo", "--format=--"],
])
def test_an_option_value_of_two_dashes_exits_2_with_one_line(argv):
    report = dispatch(argv)
    assert report.exit_code == 2
    assert report.render() == report.verdict and "\n" not in report.verdict


# ---------------------------------------- every well-formed argv reaches an engine

# Builtins that build in milliseconds. nogo lists 2^(elements - 2) truth
# functions: 256 for lantern:4, the largest drawn.
_WELL_FORMED_SIZES = {"boolean": 3, "chain": 8, "lantern": 4}
_ATOMS = ("X1", "X2", "A", "B")
_unit = st.fractions(0, 1, max_denominator=6)
_part = st.fractions(-1, 1, max_denominator=4)


def _formulas(atoms):
    return st.recursive(st.sampled_from(atoms), lambda inner: st.one_of(
        inner.map("!{}".format),
        st.tuples(inner, st.sampled_from((" & ", " | ", " ^ ")), inner).map("".join).map("({})".format),
    ), max_leaves=8)


def _probabilities_in_range(parts):
    re1, im1, re2, im2 = parts
    return max(re1**2 + im1**2, re2**2 + im2**2, ((re1 + re2) ** 2 + (im1 + im2) ** 2) / 2) <= 1


@st.composite
def _well_formed_lattice(draw, non_extremes=0):
    """A builtin with at least ``non_extremes`` non-extreme elements, and
    its reference: the builtin's name, or the file that holds its to_dict."""
    family = draw(st.sampled_from(sorted(_WELL_FORMED_SIZES)))
    n = draw(st.integers(1, _WELL_FORMED_SIZES[family]))
    lat = lattice.builtin(family, n)
    assume(len(lat.non_extremes()) >= non_extremes)
    return lat, _FILE if draw(st.booleans()) else f"builtin:{family}:{n}"


@st.composite
def _interference_options(draw):
    """Amplitudes whose probabilities lie in [0, 1], the probabilities
    themselves, or neither (the default amplitudes); and the interference
    term they give."""
    kind = draw(st.sampled_from(("amplitudes", "probabilities", "defaults")))
    if kind == "amplitudes":
        parts = draw(st.tuples(_part, _part, _part, _part))
        # parts in [-1, 1] give probabilities of at most 4; halving the parts
        # quarters them, so no draw is thrown away
        re1, im1, re2, im2 = parts if _probabilities_in_range(parts) else (x / 2 for x in parts)
        return {"--amp1": f"{re1},{im1}", "--amp2": f"{re2},{im2}"}, re1 * re2 + im1 * im2
    if kind == "probabilities":
        p_or, p1, p2 = draw(st.tuples(_unit, _unit, _unit))
        return {"--p-or": str(p_or), "--p1": str(p1), "--p2": str(p2)}, p_or - p1 / 2 - p2 / 2
    return {}, Fraction(1, 2)


@st.composite
def _above_cap_lattice(draw, non_extremes=0):
    """A builtin above nogo's listing cap, each with more than two
    non-extreme elements, and its reference: its name or the file."""
    ref = draw(st.sampled_from(_ABOVE_NOGO_CAP))
    _, family, n = ref.split(":")
    return lattice.builtin(family, int(n)), _FILE if draw(st.booleans()) else ref


@st.composite
def _distinct_pair(draw, choices):
    """Two distinct items of ``choices``: one at a drawn index and one at a
    nonzero offset from it, modulo the length, so no draw is thrown away."""
    i = draw(st.integers(0, len(choices) - 1))
    j = (i + draw(st.integers(1, len(choices) - 1))) % len(choices)
    return choices[i], choices[j]


@st.composite
def _scenario_options(draw, command, lattices=_well_formed_lattice):
    # super leaves both atoms without a value, so it binds them to non-extremes:
    # an atom at an extreme has a value, and super refuses it
    lat, ref = draw(lattices(2 if command == "super" else 0))
    elements = lat.non_extremes() if command == "super" else lat.elements
    (e1, e2), (a1, a2) = (draw(_distinct_pair(choices)) for choices in (elements, _ATOMS))
    options, term = draw(_interference_options())
    options.update({"--lattice": ref, "--bind": f"{a1}={e1},{a2}={e2}"})
    flags = ("--equal-priors", "--no-equal-priors", "--allow-degenerate")
    options.update(dict.fromkeys(draw(st.lists(st.sampled_from(flags), unique=True))))
    if term == 0:  # a scenario without interference is refused unless allowed
        options["--allow-degenerate"] = None
    grid = draw(st.sampled_from((None, "--values", "--denominator"))) if command == "scan" else None
    if grid:
        options[grid] = str(draw(st.integers(2 if grid == "--values" else 1, 24)))
    return options, lat


@st.composite
def _eval_options(draw):
    atoms = draw(st.lists(st.sampled_from(_ATOMS), min_size=1, max_size=3, unique=True))
    mode = draw(st.sampled_from(("lattice", "lukasiewicz", "super")))
    options = {"--formula": draw(_formulas(atoms)), "--mode": mode}
    if mode == "lukasiewicz":
        options["--assign"] = ",".join(f"{a}={draw(_rational)}" for a in atoms)
        return options, None
    lat, options["--lattice"] = draw(_well_formed_lattice())
    options["--assign"] = ",".join(f"{a}={draw(st.sampled_from(lat.elements))}" for a in atoms)
    # --mode lattice needs a value for every element but the extremes
    if mode == "lattice" and lat.non_extremes():
        value = _rational | st.just("undefined")
        options["--values"] = ",".join(f"{e}={draw(value)}" for e in lat.non_extremes())
    return options, lat


@st.composite
def _well_formed_argv(draw):
    """A command built from valid values only, the lattice whose file it
    may name (or None), and the exit codes its verdict may give."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    positionals, options, lat = [], {}, None
    if command == "lattice-check":
        lat, ref = draw(_well_formed_lattice())
        positionals = [ref]
    elif command == "parse":
        positionals = [draw(_formulas(_ATOMS))]
    elif command == "eval":
        options, lat = draw(_eval_options())
    elif command == "interference":
        options = draw(_interference_options())[0]
    else:
        options, lat = draw(_scenario_options(command))
    argv = draw(_spelled(command, positionals, options))
    return argv, lat, (0, 1) if command in ("nogo", "scan", "super") else (0,)


@st.composite
def _spelled(draw, command, positionals, options):
    """The argv of ``options`` in any order, each value joined to its flag
    by "=" or given as the next word."""
    argv = [command, *positionals]
    for flag in draw(st.permutations(sorted(options))):
        if options[flag] is None:
            argv.append(flag)
        elif draw(st.booleans()):
            argv.append(f"{flag}={options[flag]}")
        else:
            argv += [flag, options[flag]]
    return argv


@settings(max_examples=150, deadline=None)
# the grid at its cap, 501 values
@example(drawn=(["scan", "--values=501"], None, (0, 1)))
@given(drawn=_well_formed_argv())
def test_every_well_formed_argv_reaches_an_engine(tmp_path_factory, drawn):
    argv, lat, codes = drawn
    if lat is not None:
        path = tmp_path_factory.getbasetemp() / "well-formed-lattice.json"
        path.write_text(json.dumps(lat.to_dict()), encoding="utf-8")
        argv = [a.replace(_FILE, str(path)) for a in argv]
    text, as_json = (dispatch(argv + [f"--format={fmt}"]) for fmt in ("text", "json"))
    event(f"{argv[0]} exit {text.exit_code}")
    assert text.exit_code in codes, text.verdict
    assert as_json.exit_code == text.exit_code
    assert text.render().startswith(text.verdict)
    assert json.loads(as_json.render())["verdict"] == text.verdict


# --------------------- every valid scenario on a big lattice runs or meets the cap


@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from(("nogo", "scan", "super")), fmt=st.sampled_from(("text", "json")),
       data=st.data())
def test_every_valid_scenario_argv_on_a_big_lattice_runs_or_meets_the_listing_cap(
        tmp_path_factory, command, fmt, data):
    # test_every_argv_ends_in_a_report draws junk for most options, so it
    # seldom builds a whole scenario command for one of these lattices
    options, lat = data.draw(_scenario_options(command, _above_cap_lattice))
    argv = data.draw(_spelled(command, [], {**options, "--format": fmt}))
    path = tmp_path_factory.getbasetemp() / "big-lattice.json"
    path.write_text(json.dumps(lat.to_dict()), encoding="utf-8")
    report = dispatch([a.replace(_FILE, str(path)) for a in argv])
    event(f"{command} exit {report.exit_code}")
    if command == "nogo":
        assert report.exit_code == 2
        assert report.payload["error"] == (f"nogo would list 2^{len(lat.elements) - 2} bivalent "
                                           "truth functions; it lists at most 2^16")
    else:
        assert report.exit_code in (0, 1), report.verdict
    text = report.render()
    assert text.startswith("{" if fmt == "json" else report.verdict)


@pytest.mark.parametrize("argv", [
    ["interference", "--p-or", "1", "--p1", "1e5000", "--p2", "0"],
    ["interference", "--amp1", "1e-3000,0", "--amp2", "0,0"],
    ["eval", "--formula", "A", "--mode", "lukasiewicz", "--assign", "A=1E-5000"],
    ["interference", "--amp1", "1_0/2_0,0", "--amp2", "1/2,0"],
    ["interference", "--p-or", "1", "--p1", "0.2_5", "--p2", "0"],
    ["interference", "--amp1", "1 / 2,0", "--amp2", "1/2,0"],
    ["eval", "--formula", "A", "--mode", "lukasiewicz", "--assign", "A=1 / 2"],
])
def test_exponent_literals_are_refused(argv):
    # a short exponent would stand for an integer too long to print; and
    # Fraction reads underscores from Python 3.11 on and spaces around the
    # slash from 3.12 on, which the command line reads on no release
    report = dispatch(argv)
    assert report.exit_code == 2
    assert report.verdict.startswith("error: cannot read ")
    assert report.verdict.endswith(" as an exact rational")


@pytest.mark.parametrize("text, value", [
    ("1/2", Fraction(1, 2)), ("-1/2", Fraction(-1, 2)), ("+1/2", Fraction(1, 2)),
    (".5", Fraction(1, 2)), ("0.", Fraction(0)), (" 1/2 ", Fraction(1, 2)), ("-0.25", Fraction(-1, 4)),
])
def test_rational_literals_are_read_exactly(text, value):
    assert valuation._exact(text) == value


def _literal_of(digits: int, base: int) -> str:
    # a small value over the largest power of base with fewer digits
    power = base
    while len(str(power * base)) < digits:
        power *= base
    return f"{10 ** (digits - len(str(power)) - 1)}/{power}"


@pytest.mark.parametrize("command", [["interference"], ["nogo"], ["scan", "--values=3"], ["super"]])
def test_literals_at_the_digit_limit_print(command):
    # coprime denominators make the interference term's denominator as long as it gets
    limit = valuation._LITERAL_DIGIT_LIMIT
    re1, im1, re2, im2 = (_literal_of(limit, base) for base in (3, 7, 11, 13))
    assert all(sum(map(str.isdigit, x)) == limit for x in (re1, im1, re2, im2))
    argv = command + [f"--amp1={re1},{im1}", f"--amp2={re2},{im2}"]
    for fmt in ("text", "json"):
        report = dispatch(argv + [f"--format={fmt}"])
        assert report.exit_code == 0
        assert report.render()


@pytest.mark.parametrize("argv, what, literal", [
    (["interference", "--amp1={},0", "--amp2=0,0"], "--amp1", "0." + "0" * 3000 + "1"),
    (["interference", "--p-or=1", "--p1={}", "--p2=0"], "--p1", "0." + "3" * 500),
    (["eval", "--formula=A", "--mode=lukasiewicz", "--assign=A={}"], "value for A", "1/" + "7" * 500),
    (["eval", "--formula=A", "--mode=lattice", "--lattice=builtin:chain:3", "--assign=A=m1",
      "--values=m1={},m2=1/2"], "value for m1", "1" * 250 + "/" + "3" * 251),
])
def test_literals_over_the_digit_limit_are_refused(argv, what, literal):
    digits = sum(map(str.isdigit, literal))
    assert digits == valuation._LITERAL_DIGIT_LIMIT + 1 or digits > 3000
    for fmt in ("text", "json"):
        report = dispatch([a.format(literal) for a in argv] + [f"--format={fmt}"])
        assert report.exit_code == 2
        assert report.verdict == (f"error: {what} has a literal of {digits} digits; "
                                  f"a rational literal has at most {valuation._LITERAL_DIGIT_LIMIT}")


def _sum_of_literals(digits: int) -> list[str]:
    # "eval" on A0 | A1 | ..., each atom 1/d over coprime d: the value's
    # denominator is the product of the d, here of exactly `digits` digits
    primes = [p for p in range(3, 1000, 2) if all(p % q for q in range(3, p, 2))]
    dens, product = [], 1
    while product * 10**100 < 10 ** (digits - 300):
        power = primes[len(dens)]
        while power < 10**99:
            power *= primes[len(dens)]
        dens.append(power)
        product *= power
    power = 1
    while product * power < 10 ** (digits - 1):
        power *= 2
    dens.append(power)
    return ["eval", "--mode=lukasiewicz", "--formula=" + " | ".join(f"A{i}" for i in range(len(dens))),
            "--assign=" + ",".join(f"A{i}=1/{d}" for i, d in enumerate(dens))]


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(),
                    reason="this interpreter prints ints of any length")
def test_a_sum_of_literals_prints_up_to_the_interpreter_limit():
    limit = sys.get_int_max_str_digits()
    for fmt in ("text", "json"):
        report = dispatch(_sum_of_literals(limit) + [f"--format={fmt}"])
        assert report.exit_code == 0
        assert report.render()
        report = dispatch(_sum_of_literals(limit + 1) + [f"--format={fmt}"])
        assert report.exit_code == 2
        assert report.render() and report.verdict == (
            f"error: the value has a denominator of more than {limit} digits, "
            "more than this interpreter prints")


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(),
                    reason="this interpreter prints ints of any length")
@pytest.mark.parametrize("over", [1, 2, 700, 6000, 60000])
def test_a_value_too_long_to_print_is_named_by_its_digit_count(over):
    # the least and the greatest numbers of that many digits, where a count
    # estimated from the bit length would go wrong first
    digits = sys.get_int_max_str_digits() + over
    for value in (10 ** (digits - 1), 1 - 10**digits):
        assert _shown(value) == f"a number of {digits} digits"
    assert _shown(Fraction(-7, 10**digits - 1)) == f"a number of {digits + 1} digits"
    assert _shown(Fraction(10**digits, 3)) == f"a number of {digits + 2} digits"
    assert _shown(10**400) == str(10**400)


# ------------------------------------------------ the lattice element cap


@pytest.mark.parametrize("family, at_cap", [("boolean", 10), ("chain", 1023), ("lantern", 511)])
def test_builtins_exit_2_one_past_the_element_cap(family, at_cap):
    report = dispatch(["lattice-check", f"builtin:{family}:{at_cap}", "--format=json"])
    assert report.exit_code == 0
    assert len(report.payload["elements"]) == lattice.MAX_ELEMENTS
    over = dispatch(["lattice-check", f"builtin:{family}:{at_cap + 1}"])
    assert over.exit_code == 2
    assert over.render() == (
        f"error: {family}({at_cap + 1}) has more than the {lattice.MAX_ELEMENTS} elements allowed"
    )


@pytest.mark.parametrize("size, code", [(lattice.MAX_ELEMENTS, 0), (lattice.MAX_ELEMENTS + 1, 2)])
def test_lattice_files_exit_2_one_past_the_element_cap(tmp_path, size, code):
    names = [f"e{i}" for i in range(size)]
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({
        "elements": names,
        "order": [[y, z] for y, z in zip(names, names[1:])],
        "involution": [[names[i], names[-1 - i]] for i in range((size + 1) // 2)],
    }))
    report = dispatch(["lattice-check", str(path)])
    assert report.exit_code == code
    if code:
        assert report.render() == (
            f"error: the lattice has {size} elements, more than the {lattice.MAX_ELEMENTS} allowed"
        )


# ------------------------------------------------------ the nogo listing cap


def _refuse(*args, **kwargs):
    raise AssertionError("nogo listed functions above its cap")


@pytest.mark.parametrize("ref, bind, free", [
    ("builtin:boolean:5", "X1=a,X2=b", 30),
    ("builtin:lantern:9", "X1=a1,X2=a2", 18),
    ("builtin:chain:18", "X1=m1,X2=m2", 17),
])
def test_nogo_exits_2_above_2_16_listed_functions(monkeypatch, ref, bind, free):
    # refused before the payload, which lists the functions, is built
    monkeypatch.setattr(cli, "_certificate_payload", _refuse)
    report = dispatch(["nogo", f"--lattice={ref}", f"--bind={bind}"])
    assert report.exit_code == 2
    assert report.render() == (
        f"error: nogo would list 2^{free} bivalent truth functions; it lists at most 2^16"
    )


def test_nogo_runs_at_its_cap():
    # chain:17 has 18 elements, so 2^16 functions, each listed
    assert cli._LISTED_FUNCTION_LIMIT == 2**16
    report = dispatch(["nogo", "--lattice=builtin:chain:17", "--bind=X1=m1,X2=m2"])
    assert report.exit_code == 0
    assert report.payload["enumerated"] == 4 + 2**16
    assert len(report.payload["truth_functions"]) == 2**16


# ------------------------------------------------------- the grid value cap


@pytest.mark.parametrize("flag, system", [("--values", "finite"), ("--denominator", "infinite")])
def test_a_grid_far_above_the_cap_exits_2_at_once(flag, system):
    report = dispatch(["scan", flag, "1000000000"])
    assert report.exit_code == 2
    assert report.render() == (
        f"error: {system}(1000000000) has more than the {valuation.MAX_GRID_VALUES} values allowed"
    )
