"""Dispatch, report formats, exit codes, and byte determinism."""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import slitlogic
from slitlogic import cli
from slitlogic.cli import Report, dispatch
from slitlogic.lattice import builtin
from test_errors import _argv

NOGO_ARGS = [
    "nogo",
    "--lattice", "builtin:boolean:2",
    "--bind", "X1=a,X2=b",
    "--amp1", "1/2,1/2",
    "--amp2", "1/2,1/2",
]


def test_nogo_default_run():
    report = dispatch(NOGO_ARGS)
    assert report.exit_code == 0
    assert report.verdict == "no-go holds"
    assert "(X1=0, X2=1) -> violates C-INT" in report.render()
    assert "(X1=1, X2=1) -> violates C-COLLAPSE" in report.render()
    assert "derivation traces:" in report.render()


def test_nogo_defaults_match_explicit_flags():
    assert dispatch(["nogo"]).render() == dispatch(NOGO_ARGS).render()


def test_nogo_json_payload_round_trips():
    report = dispatch(NOGO_ARGS + ["--format", "json"])
    text = report.render()
    payload = json.loads(text)
    assert json.loads(json.dumps(payload)) == payload
    assert payload["verdict"] == "no-go holds"
    corners = {
        tuple(c["assignment"].values()): c["violation"]["constraint"]
        for c in payload["corners"]
    }
    assert corners == {
        ("0", "0"): "C-TRUE",
        ("0", "1"): "C-INT",
        ("1", "0"): "C-INT",
        ("1", "1"): "C-COLLAPSE",
    }


def test_nogo_degenerate_scenario_fails():
    report = dispatch(["nogo", "--amp2", "0,0", "--allow-degenerate"])
    assert report.exit_code == 1
    assert report.verdict == "no-go fails"


def test_nogo_rejects_degenerate_without_flag():
    report = dispatch(["nogo", "--amp2", "0,0"])
    assert report.exit_code == 2
    assert report.verdict.startswith("error:")


def test_nogo_direct_probability_inputs():
    report = dispatch(["nogo", "--p-or", "1", "--p1", "1/2", "--p2", "1/2"])
    assert report.exit_code == 0
    assert "I12=1/2" in report.render()


def test_scan_values_3():
    report = dispatch(["scan", "--values", "3"])
    assert report.exit_code == 0
    assert report.verdict == "corners violated: 4/4; consistent: 5/9"
    assert "(X1=1/2, X2=1/2) -> consistent" in report.render()
    payload = dispatch(["scan", "--values", "3", "--format", "json"]).payload
    assert ["1/2", "1/2"] in payload["consistent"]
    assert payload["corners"] == {
        "(0, 0)": "C-TRUE",
        "(0, 1)": "C-INT",
        "(1, 0)": "C-INT",
        "(1, 1)": "C-COLLAPSE",
    }


def test_scan_default_denominator_is_10():
    report = dispatch(["scan"])
    assert report.exit_code == 0
    assert "infinite(10)" in report.render()
    assert "assignments checked: 121" in report.render()


def test_scan_rejects_conflicting_grid_flags():
    report = dispatch(["scan", "--values", "3", "--denominator", "4"])
    assert report.exit_code == 2


def test_parse_command():
    report = dispatch(["parse", "(X1 | X2) & !(X1 & X2)"])
    assert report.exit_code == 0
    lines = report.render().splitlines()[1:]
    assert lines[0] == "And"
    assert "  Or" in lines
    assert report.payload["desugared"] == "(X1 | X2) & !(X1 & X2)"


def test_parse_reports_syntax_error():
    report = dispatch(["parse", "X1 &"])
    assert report.exit_code == 2
    assert "position" in report.verdict


def test_eval_lukasiewicz():
    report = dispatch([
        "eval", "--formula", "X1 ^ X2", "--mode", "lukasiewicz",
        "--assign", "X1=0.5,X2=0.5",
    ])
    assert report.exit_code == 0
    assert report.verdict == "value: 1"


def test_eval_super_mode():
    report = dispatch([
        "eval", "--formula", "X1", "--mode", "super",
        "--lattice", "builtin:boolean:2", "--assign", "X1=a",
    ])
    assert report.verdict == "value: undefined"
    report = dispatch([
        "eval", "--formula", "X1 ^ X2", "--mode", "super",
        "--lattice", "builtin:boolean:2", "--assign", "X1=a,X2=b",
    ])
    assert report.verdict == "value: 1"
    assert report.payload["element"] == "1"


def test_eval_lattice_mode_with_values():
    report = dispatch([
        "eval", "--formula", "X1 | X2", "--mode", "lattice",
        "--lattice", "builtin:boolean:2", "--assign", "X1=a,X2=b",
        "--values", "a=1/2,b=1/2",
    ])
    assert report.verdict == "value: 1"
    assert report.payload["element"] == "1"


def test_eval_lattice_mode_needs_values():
    report = dispatch([
        "eval", "--formula", "X1", "--mode", "lattice",
        "--lattice", "builtin:boolean:2", "--assign", "X1=a",
    ])
    assert report.exit_code == 2
    assert "--values" in report.verdict


def test_eval_mode_lattice_needs_lattice():
    report = dispatch([
        "eval", "--formula", "X1", "--mode", "super", "--assign", "X1=a",
    ])
    assert report.exit_code == 2


def test_interference_direct_and_amplitudes():
    report = dispatch(["interference", "--p-or", "1", "--p1", "1/4", "--p2", "1/4"])
    assert report.verdict == "I12 = 3/4"
    report = dispatch(["interference", "--amp1", "1/2,1/2", "--amp2", "1/2,1/2"])
    assert report.verdict == "I12 = 1/2"
    assert report.payload["p_or"] == "1"


def test_interference_reads_negative_amplitude_as_separate_argument():
    report = dispatch(["interference", "--amp1", "-1/2,0", "--amp2", "1/2,0"])
    assert report.exit_code == 0
    assert report.verdict == "I12 = -1/4"
    report = dispatch(["interference", "--amp1", "--amp2", "1/2,0"])
    assert report.exit_code == 2
    assert "expected one argument" in report.verdict


def test_interference_rejects_oversized_amplitudes():
    report = dispatch(["interference", "--amp1", "1,0", "--amp2", "1,0"])
    assert report.exit_code == 2
    assert "exceeds 1" in report.verdict


def test_lattice_check_builtin_and_file(tmp_path):
    report = dispatch(["lattice-check", "builtin:lantern:2"])
    assert report.exit_code == 0
    assert report.verdict.startswith("ok:")

    path = tmp_path / "diamond.json"
    path.write_text(json.dumps(builtin("boolean", 2).to_dict()))
    report = dispatch(["lattice-check", str(path)])
    assert report.exit_code == 0

    bad = tmp_path / "poset.json"
    bad.write_text(json.dumps({
        "elements": ["0", "x", "y"],
        "order": [["0", "x"], ["0", "y"]],
        "involution": [["0", "x"], ["y", "y"]],
    }))
    report = dispatch(["lattice-check", str(bad)])
    assert report.exit_code == 2  # not even a lattice: construction fails


def test_lattice_check_missing_file():
    report = dispatch(["lattice-check", "no-such-file.json"])
    assert report.exit_code == 2


def test_super_command():
    report = dispatch(["super"])
    assert report.exit_code == 0
    assert report.verdict == "supervaluation consistent"
    assert "X1 -> undefined" in report.render()
    assert "compound value: 1" in report.render()


def test_super_rejects_extreme_binding():
    report = dispatch(["super", "--bind", "X1=0,X2=b"])
    assert report.exit_code == 2
    assert "extreme" in report.verdict


def test_usage_errors_are_exit_2():
    assert dispatch([]).exit_code == 2
    assert dispatch(["frobnicate"]).exit_code == 2
    assert dispatch(["nogo", "--amp1", "not-a-number,0"]).exit_code == 2
    assert dispatch(["nogo", "--bind", "X1=a"]).exit_code == 2
    assert dispatch(["nogo", "--bind", "X1=a,X1=b"]).exit_code == 2
    assert dispatch(["scan", "--values", "x"]).exit_code == 2


def _parse_outcome(parser, args):
    """The namespace that parsing ``args`` gives, or its usage error, or the
    exit code and text of the help it prints."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return vars(parser.parse_args(args))
    except cli.UsageError as exc:
        return f"error: {exc}"
    except SystemExit as exc:
        return exc.code, out.getvalue()


# tokens that are no valid argument, or abbreviate one, or ask for help
_STRAY = st.sampled_from(("--nope", "extra", "--", "-", "-x", "--form", "--equal-pri",
                          "--he", "-h", "-1/2,0", "--format=xml", "nogo"))


@given(argv=_argv(), earlier=_argv(), stray=st.lists(st.tuples(st.integers(0, 12), _STRAY), max_size=2))
def test_a_subcommand_parser_alone_parses_as_the_full_parser(argv, earlier, stray):
    """After earlier parses, the one parser, built once per process, parses
    argv and stray tokens as a freshly built parser does."""
    for at, token in stray:
        argv.insert(at, token)
    parser = cli.build_parser()
    _parse_outcome(parser, earlier)
    fresh = cli.build_parser.__wrapped__()
    assert fresh is not parser
    assert _parse_outcome(parser, list(argv)) == _parse_outcome(fresh, list(argv))


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_a_subcommand_parser_alone_prints_the_same_help(command):
    """Each subcommand's help, through the one parser, as a fresh parser prints it."""
    code, text = _parse_outcome(cli.build_parser(), [command, "-h"])
    assert code == 0 and text.startswith(f"usage: slitlogic {command} [-h]")
    assert (code, text) == _parse_outcome(cli.build_parser.__wrapped__(), [command, "-h"])


def test_the_parser_is_built_once(monkeypatch):
    dispatch(["interference"])
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert dispatch(["parse", "X1 & X2"]).exit_code == 0
    assert dispatch(["lattice-check", "builtin:boolean:2"]).exit_code == 0
    assert dispatch(["scan", "--values", "x"]).exit_code == 2
    report = dispatch(["nogo", "--format=json", "--no-equal-priors"])
    assert (report.exit_code, report.format) == (1, "json")
    assert built == []
    report = dispatch(["nogo"])
    assert (report.exit_code, report.format) == (0, "text")
    assert "equal priors: yes" in report.render()


def test_the_full_parser_lists_every_subcommand():
    code, text = _parse_outcome(cli.build_parser(), ["-h"])
    assert code == 0
    assert all(f"    {command}" in text for command in cli._COMMANDS)


def test_reports_are_byte_identical_across_runs():
    for argv in (NOGO_ARGS, ["scan", "--values", "3"], ["super"]):
        first = dispatch(list(argv))
        second = dispatch(list(argv))
        assert first.render() == second.render()
        assert json.dumps(first.payload) == json.dumps(second.payload)


def test_builtin_reference_validation():
    assert dispatch(["lattice-check", "builtin:boolean"]).exit_code == 2
    assert dispatch(["lattice-check", "builtin:boolean:x"]).exit_code == 2
    assert dispatch(["lattice-check", "builtin:pentagon:2"]).exit_code == 2


def test_scan_degenerate_corners_survive():
    report = dispatch(["scan", "--values", "3", "--amp2", "0,0", "--allow-degenerate"])
    assert report.exit_code == 1
    assert "(X1=1, X2=0) -> consistent" in report.render()


@pytest.mark.parametrize("argv, fmt", [
    (["nogo", "--format", "text", "--lattice", "json"], "text"),
    (["nogo", "--format=json", "--lattice", "nope"], "json"),
    (["nogo", "--format", "json", "--lattice", "nope"], "json"),
    (["nogo", "--format=json", "--format", "xml"], "text"),
    (["nogo", "--lattice", "nope"], "text"),
    # argparse takes "--form" for "--format"; the parsed command line asks for json
    (["nogo", "--form", "json", "--bind", "X1=a"], "json"),
])
def test_error_report_takes_the_last_format_flag(argv, fmt):
    report = dispatch(argv)
    assert report.exit_code == 2
    assert report.format == fmt
    if fmt == "json":
        assert json.loads(report.render())["verdict"] == report.verdict
    else:
        assert report.render() == report.verdict


@pytest.mark.parametrize("argv, code", [
    (["lattice-check", "builtin:lantern:2"], 0),
    (["parse", "(X1 | X2) & !(X1 ^ X2)"], 0),
    (["eval", "--formula", "X1 ^ X2", "--mode", "lukasiewicz", "--assign", "X1=1/2,X2=1/3"], 0),
    (["eval", "--formula", "X1 | X2", "--mode", "lattice", "--lattice", "builtin:boolean:2",
      "--assign", "X1=a,X2=b", "--values", "a=1/2,b=undefined"], 0),
    (["interference", "--amp1", "3/5,0", "--amp2", "0,4/5"], 0),
    (NOGO_ARGS + ["--lattice", "builtin:lantern:2", "--bind", "X1=a1,X2=b2"], 0),
    (["nogo", "--amp2", "0,0", "--allow-degenerate", "--no-equal-priors"], 1),
    (["scan", "--values", "4"], 0),
    (["scan", "--values", "3", "--amp2", "0,0", "--allow-degenerate"], 1),
    (["super"], 0),
    (["parse", "X1 &"], 2),
])
def test_text_report_is_rendered_from_the_json_payload(argv, code):
    text = dispatch(argv)
    assert text.exit_code == code
    payload = json.loads(dispatch(argv + ["--format=json"]).render())
    assert Report(payload, code, "text").render() == text.render()


SCAN_HEAD = """\
lattice: 4 elements [0, a, b, 1]
binding: X1=a, X2=b
observed: P[R|both]=1, P[R|path1]=1/2, P[R|path2]=1/2, I12=1/2
"""


@pytest.mark.parametrize("argv, text", [
    (["parse", "(X1 ^ !X2) & X3"], """\
ok: (X1 ^ !X2) & X3
And
  Xor
    Atom X1
    Not
      Atom X2
  Atom X3
desugared: (X1 | !X2) & !(X1 & !X2) & X3"""),
    (["eval", "--formula=X1 ^ X2", "--mode=super", "--lattice=builtin:boolean:2",
      "--assign=X1=a,X2=b"], "value: 1\nelement: 1"),
    (["interference", "--p-or=1", "--p1=1/4", "--p2=1/2"],
     "I12 = 5/8\np_or = 1; p1 = 1/4; p2 = 1/2"),
    (["scan", "--values=2"], "corners violated: 4/4; consistent: 0/4\n" + SCAN_HEAD + """\
equal priors: yes
value system: finite(2) over {0, 1}
assignments checked: 4; violated: 4; consistent: 0
corners: (0, 0) -> C-TRUE; (0, 1) -> C-INT; (1, 0) -> C-INT; (1, 1) -> C-COLLAPSE
consistent: none
table:
  (X1=0, X2=0) -> violates C-TRUE
  (X1=0, X2=1) -> violates C-INT
  (X1=1, X2=0) -> violates C-INT
  (X1=1, X2=1) -> violates C-COLLAPSE (also: C-TRUE)"""),
    (["scan", "--values=2", "--no-equal-priors"],
     "corners violated: 2/4; consistent: 2/4\n" + SCAN_HEAD + """\
equal priors: no
value system: finite(2) over {0, 1}
assignments checked: 4; violated: 2; consistent: 2
corners: (0, 0) -> C-TRUE; (0, 1) -> consistent; (1, 0) -> consistent; (1, 1) -> C-COLLAPSE
consistent: (0, 1), (1, 0)
table:
  (X1=0, X2=0) -> violates C-TRUE
  (X1=0, X2=1) -> consistent
  (X1=1, X2=0) -> consistent
  (X1=1, X2=1) -> violates C-COLLAPSE (also: C-TRUE)"""),
    (["super", "--amp2=1/2,0"], """\
supervaluation consistent
binding: X1=a, X2=b
X1 -> undefined
X2 -> undefined
compound reduces to element: 1
compound value: 1
bridges fired: no"""),
])
def test_text_reports_keep_their_layout(argv, text):
    assert dispatch(argv).render() == text


# ------------------------------------------------ deep, exponential, closed stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["parse", "(" * 3000 + "A" + ")" * 3000],
        ["parse", "!" * 5000 + "A"],
        ["eval", "--formula=" + "(" * 3000 + "A" + ")" * 3000, "--mode=lukasiewicz",
         "--assign=A=1/2"],
    ],
    ids=["parentheses", "negations", "eval-parentheses"],
)
def test_deeply_nested_formulas_exit_zero(argv):
    report = dispatch(argv)
    assert report.exit_code == 0
    report.render()


def test_parse_refuses_a_desugared_form_above_the_limit():
    chain = " ^ ".join(f"X{i}" for i in range(61))
    report = dispatch(["parse", chain])
    assert report.exit_code == 2
    assert report.verdict == "error: the desugared form has more than 1000000 nodes"


def test_parse_refuses_a_long_xor_chain_in_one_line():
    # the count, 7 * 2^k - 6 nodes, would have more digits than str prints
    report = dispatch(["parse", " ^ ".join(["a"] * 14400)])
    assert report.exit_code == 2
    assert report.render() == "error: the desugared form has more than 1000000 nodes"


def test_parse_json_depth_limit_both_sides():
    limit = cli._JSON_DEPTH_LIMIT
    at_limit = dispatch(["parse", "!" * (limit - 1) + "A", "--format=json"])
    assert at_limit.exit_code == 0
    # the writer recurses once per level down to the limit
    assert at_limit.render() == json.dumps(at_limit.payload, indent=2)
    assert json.loads(at_limit.render())["formula"].endswith("!A")
    over = dispatch(["parse", "!" * limit + "A", "--format=json"])
    assert over.exit_code == 2
    assert json.loads(over.render())["error"] == (
        f"the formula nests {limit + 1} levels deep; --format json prints at most {limit}"
    )
    # text output has no depth limit
    assert dispatch(["parse", "!" * limit + "A"]).exit_code == 0


@pytest.mark.parametrize("limit, code", [(8, 0), (7, 2)])
def test_parse_limit_counts_the_desugared_nodes(monkeypatch, limit, code):
    # "(a | b) & !(a & b)" has 8 nodes
    monkeypatch.setattr(cli, "_DESUGARED_NODE_LIMIT", limit)
    assert dispatch(["parse", "a ^ b"]).exit_code == code


def test_closed_stdout_keeps_the_exit_code_and_prints_no_traceback():
    env = dict(os.environ, PYTHONPATH=str(Path(slitlogic.__file__).parents[1]))
    argv = ["nogo", "--lattice", "builtin:lantern:5", "--bind", "X1=a1,X2=a2", "--format", "json"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "slitlogic.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait(timeout=60) == 0
    assert stderr == b""


@pytest.mark.parametrize("argv", [
    ["nogo", "--lattice", "builtin:lantern:4", "--bind", "X1=a1,X2=a2", "--format", "json"],
    ["nogo", "--lattice", "builtin:lantern:4", "--bind", "X1=a1,X2=a2"],
    ["scan", "--denominator", "20", "--format", "json"],
    # above the listing cap: an exit-2 error report
    ["nogo", "--lattice", "builtin:boolean:5", "--format", "json"],
])
def test_main_prints_the_rendering_and_a_newline(monkeypatch, argv):
    report = dispatch(argv)
    want = report.render() + "\n"
    env = dict(os.environ, PYTHONPATH=str(Path(slitlogic.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "slitlogic.cli", *argv],
                          capture_output=True, env=env, timeout=60)
    assert proc.returncode == report.exit_code
    assert proc.stdout == want.encode()
    assert proc.stderr == b""
    # in batches of a few chunks, the last one short
    monkeypatch.setattr(cli, "_WRITE_BATCH", 7)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == report.exit_code
    assert len(report.chunks()) % 7
    assert out.getvalue() == want


# ---------------------------------------------------------------- JSON writer

def _json_text(value) -> str:
    return "".join(cli._json_chunks(value))


class _Text(str):
    """A str subclass: the writer encodes it on its general path, not inline."""


_TEXTS = st.text(st.sampled_from('a"\\/\b\f\n\r\t\x00\x1f\x7f\x80 é€\u2028\U0001f600') | st.characters())
_SCALARS = (
    st.none() | st.booleans() | _TEXTS | _TEXTS.map(_Text)
    # bools next to the ints they equal
    | st.sampled_from([False, True, 0, 1, -1, 2])
    | st.integers(min_value=-2**63, max_value=2**63) | st.integers(min_value=-10**300, max_value=10**300)
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_TEXTS | _TEXTS.map(_Text), inner, max_size=4),
    max_leaves=24,
)
# a record's values: null next to dicts, empty containers, str subclasses,
# and bools next to the ints they equal
_FIELDS = (
    st.none() | st.just({}) | st.just([]) | _TEXTS | _TEXTS.map(_Text)
    | st.sampled_from([False, True, 0, 1])
    | st.dictionaries(st.sampled_from(["k", _Text("m"), "n"]), st.none() | _TEXTS, max_size=2)
    | st.lists(st.none() | _TEXTS.map(_Text), max_size=3)
)


@st.composite
def _records(draw):
    """2-20 dicts drawn from a few key tuples, some of them met more than once."""
    keys = st.lists(st.sampled_from(["a", _Text("b"), "c", "d"]), unique=True, max_size=3)
    shapes = draw(st.lists(keys, min_size=1, max_size=3))
    records = []
    for _ in range(draw(st.integers(min_value=2, max_value=20))):
        if records and draw(st.booleans()):
            records.append(draw(st.sampled_from(records)))
        else:
            records.append({key: draw(_FIELDS) for key in draw(st.sampled_from(shapes))})
    return records


def test_json_writer_writes_a_long_mixed_column_as_json_dumps():
    # every kind of value in one column, each kind more than once, and
    # containers grouped by shape, some of them repeated
    shared = {"k": [], "m": None}
    column = [None, True, False, 0, 1, -2, "s", _Text("t"), {}, [], [[]], {"k": {}},
              shared, [True, 1], ["u", None], shared, {"m": [0, False]}, [[], {}]] * 2
    payload = {"column": column, "rows": [{"value": v} for v in column]}
    assert _json_text(payload) == json.dumps(payload, indent=2)


def _nest(depth, wrap):
    value = "x"
    for level in range(depth):
        value = wrap(value, level)
    return value


@pytest.mark.parametrize("wrap", [
    lambda value, level: [value],
    lambda value, level: [value] if level % 2 else {"k": value},
    # each list long enough to be written as a column
    lambda value, level: [value, *range(16)] if level % 2 else {"k": value, "n": None},
], ids=["list-in-list", "dict-in-list", "long-lists"])
def test_json_writer_writes_500_levels_as_json_dumps(wrap):
    value = _nest(500, wrap)
    assert _json_text(value) == json.dumps(value, indent=2)


def test_json_writer_appends_one_chunk_per_item_of_a_long_list():
    rows = [{"a": str(i % 3), "b": None} for i in range(16)]
    payload = {"rows": rows, "few": [{"a": "1"}, ["x"], "y", None]}
    out, heads, leaves = [], {}, {}
    cli._json_write(payload, "", out, heads, leaves)
    assert "".join(out) == json.dumps(payload, indent=2)
    # 16 rows make a column: each row's text is one chunk after its separator
    texts = ['{\n      "a": "%d",\n      "b": null\n    }' % (i % 3) for i in range(16)]
    assert out[:33] == ['{\n  "rows": ', "[\n    ", texts[0],
                        *[chunk for text in texts[1:] for chunk in (",\n    ", text)]]
    # a shorter list writes its items in place, one chunk at a time
    assert out[33:] == [
        "\n  ]",
        ',\n  "few": ',
        "[\n    ", '{\n      "a": ', '"1"', "\n    }",
        ",\n    ", "[\n      ", '"x"', "\n    ]",
        ",\n    ", '"y"',
        ",\n    ", "null",
        "\n  ]",
        "\n}",
    ]
    # each key's head, per indent, and each str of a column or a dict value
    # is encoded once
    assert heads == {"  ": {"rows": ',\n  "rows": ', "few": ',\n  "few": '},
                     "      ": {"a": ',\n      "a": ', "b": ',\n      "b": '}}
    assert leaves == {"0": '"0"', "1": '"1"', "2": '"2"'}


def test_json_writer_holds_a_dict_shared_by_the_rows_of_a_listing_once():
    shared = {"x": "1", "y": None}
    listings = [
        # rows that hold it, lists that hold it, and rows that hold it one
        # level down, next to a null; with the indent of its text
        ({"rows": [{"i": str(i), "shared": shared} for i in range(16)]}, 6),
        ({"pairs": [[str(i), shared] for i in range(16)]}, 6),
        ({"deep": [{"x": {"s": shared}} for _ in range(16)] + [None]}, 8),
    ]
    for payload, indent in listings:
        out = cli._json_chunks(payload)
        assert "".join(out) == json.dumps(payload, indent=2)
        # each row is its pieces: the shared dict's text is one str object
        # that every row refers to, not a copy joined into each row's text
        text = json.dumps(shared, indent=2).replace("\n", "\n" + " " * indent)
        sightings = [id(chunk) for chunk in out if chunk == text]
        assert len(sightings) == 16
        assert len(set(sightings)) == 1


def test_json_writer_encodes_a_container_repeated_in_a_column_once(monkeypatch):
    columns, writes = [], []
    column, write = cli._json_column, cli._json_write

    def spy_column(values, pad, *rest):
        columns.append((pad, [id(v) for v in values]))
        return column(values, pad, *rest)

    def spy_write(value, pad, *rest):
        writes.append((pad, id(value)))
        return write(value, pad, *rest)

    monkeypatch.setattr(cli, "_json_column", spy_column)
    monkeypatch.setattr(cli, "_json_write", spy_write)
    shared = {"x": ["1", "2"]}
    others = [{"x": [str(i)]} for i in range(20)]
    rows = [shared, *others[:10], shared, *others[10:], shared]
    assert _json_text(rows) == json.dumps(rows, indent=2)
    # the 23 rows are one column; shared's list is met three times in the
    # column of the x values and encoded once, with the other 20 lists
    assert columns[0] == ("  ", [id(row) for row in rows])
    assert columns[1] == ("    ", [id(shared["x"])] + [id(o["x"]) for o in others])
    # a container met at two indents is written at each, with its own indent
    nested = [shared, [shared] * 16, {"y": shared}] * 6
    columns.clear()
    writes.clear()
    assert _json_text(nested) == json.dumps(nested, indent=2)
    pads = {pad for pad, ids in columns if id(shared) in ids}
    pads |= {pad for pad, key in writes if key == id(shared)}
    assert pads == {"  ", "    "}


@pytest.mark.parametrize("argv", [
    ["lattice-check", "builtin:lantern:2"],
    ["parse", "(X1 | X2) & !(X1 ^ X2)"],
    ["eval", "--formula", "X1 ^ X2", "--mode", "lukasiewicz", "--assign", "X1=1/2,X2=1/3"],
    ["eval", "--formula", "X1 | X2", "--mode", "super", "--lattice", "builtin:boolean:2",
     "--assign", "X1=a,X2=b"],
    ["interference", "--amp1", "3/5,0", "--amp2", "0,4/5"],
    ["nogo", "--lattice", "builtin:lantern:4", "--bind", "X1=a1,X2=a2"],
    ["nogo", "--amp2", "0,0", "--allow-degenerate", "--no-equal-priors"],
    ["scan", "--denominator", "20"],
    ["super"],
    ["parse", "X1 &"],
    # 4096 rows that share their corners' sub-dicts
    ["nogo", "--lattice", "builtin:lantern:6", "--bind", "X1=a1,X2=b1"],
    # 10 201 result rows, each joined into one chunk as it is written
    ["scan", "--denominator", "100"],
])
def test_json_report_is_json_dumps_of_the_payload(argv):
    report = dispatch(argv + ["--format=json"])
    # not `assert a == b`: pytest would diff two renderings of up to 1.5 MB for minutes
    difference = _text_difference(report.render(), json.dumps(report.payload, indent=2))
    assert not difference, difference


def _text_difference(got: str, want: str) -> str:
    """Empty when the texts are equal; else their lengths and the first
    offset at which they differ, with the text around it."""
    if got == want:
        return ""
    at = len(os.path.commonprefix([got, want]))
    start = max(at - 60, 0)
    return (f"lengths {len(got)} and {len(want)}, first difference at offset {at}: "
            f"{got[start:at + 60]!r} != {want[start:at + 60]!r}")


@pytest.mark.parametrize("payload", [
    {"verdict": "v", "value": Fraction(1, 2)},
    {"verdict": "v", "values": [["1", Fraction(0)]]},
    {"verdict": "v", "value": 0.5},
    {"verdict": "v", "pair": ("0", "1")},
    {"verdict": "v", "table": {1: "a"}},
])
def test_json_writer_refuses_other_types(payload):
    with pytest.raises(TypeError):
        Report(payload, 0, "json").render()


@given(_VALUES, _VALUES, _records())
def test_json_writer_matches_json_dumps(shared, value, records):
    assert _json_text(value) == json.dumps(value, indent=2)
    # one object met three times at one depth and once at another
    payload = {"a": [shared, shared], "b": {"c": [shared]}, "d": [value, shared], "e": {}}
    assert _json_text(payload) == json.dumps(payload, indent=2)
    # a list item at two indents, in turn, and a dict value between them
    nested = [shared, [shared, [shared]], {"f": shared}, shared, [shared]]
    assert _json_text(nested) == json.dumps(nested, indent=2)
    # records as rows, shallow copies of them as longer rows, and records as
    # the values of one key of rows
    rows = {"rows": records, "copies": [dict(r) for r in records * 8],
            "cells": [{"cell": r} for r in records * 8]}
    assert _json_text(rows) == json.dumps(rows, indent=2)
