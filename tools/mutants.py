"""A standing mutation gate: every mutant in the table must fail its tests.

Each row of ``MUTANTS`` names a file under ``src/``, an exact text that
occurs there once, the text that replaces it, and the pytest node ids
(``file::test``) of the tests that kill the result, each of which kills it
alone. For each row the script copies ``src/`` to a temporary directory,
applies the one replacement, and runs ``pytest -x -q`` on the named tests
with that copy first on ``PYTHONPATH``. It exits 1 when a mutant survives,
when its tests cannot run (a renamed or deleted test is "not found"), or
when an old text is not found exactly once, so the table cannot go stale
silently.

Standard library only. Run it from anywhere:

    python tools/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

LATTICE = "src/slitlogic/lattice.py"
LATTICE_TESTS = "tests/test_lattice.py"
CLI = "src/slitlogic/cli.py"
CLI_TESTS = "tests/test_cli.py"
NOGO = "src/slitlogic/nogo.py"
NOGO_TESTS = "tests/test_nogo.py"
VALUATION = "src/slitlogic/valuation.py"
VALUATION_TESTS = "tests/test_valuation.py"
FORMULA = "src/slitlogic/formula.py"
FORMULA_TESTS = "tests/test_formula.py"
ERRORS = "src/slitlogic/errors.py"
ERRORS_TESTS = "tests/test_errors.py"


def node_ids(test_file: str, *tests: str) -> tuple[str, ...]:
    """The pytest node ids of the named tests in one test file."""
    return tuple(f"{test_file}::{test}" for test in tests)


# (name, file, exact old text, new text, pytest node ids of the tests that kill it)
MUTANTS = [
    ("join looked up on the union of the up-sets", LATTICE,
     "self._by_up.get(self.up[self.index(y)] & self.up[self.index(z)])",
     "self._by_up.get(self.up[self.index(y)] | self.up[self.index(z)])",
     node_ids(LATTICE_TESTS, "test_diamond_build")),
    ("meet looked up on the intersection of the up-sets", LATTICE,
     "self._down[self.index(y)] & self._down[self.index(z)]",
     "self.up[self.index(y)] & self.up[self.index(z)]",
     node_ids(LATTICE_TESTS, "test_diamond_build")),
    ("the bound scan: a join looked up on the union of the up-sets", LATTICE,
     "if up_i & up[j] not in by_up:", "if up_i | up[j] not in by_up:",
     node_ids(LATTICE_TESTS, "test_verify_axioms_on_clean_builtins")),
    ("the joins-only check: a join looked up on the union of the up-sets", LATTICE,
     "map(has, map(up_i.__and__, up[i + 1:]))", "map(has, map(up_i.__or__, up[i + 1:]))",
     node_ids(LATTICE_TESTS, "test_a_lattice_is_accepted_on_its_joins_alone")),
    ("the joins-only check always passes", LATTICE,
     "all(map(has, map(up_i.__and__, up[i + 1:])))", "True",
     node_ids(LATTICE_TESTS, "test_no_unique_bound_at_build")),
    ("the least-element condition dropped", LATTICE,
     "if full not in by_up or not all(", "if not all(",
     node_ids(LATTICE_TESTS, "test_no_unique_bound_at_build")),
    ("bottom and top swapped", LATTICE,
     "bottom, top = by_up[full], by_down[full]", "bottom, top = by_down[full], by_up[full]",
     node_ids(LATTICE_TESTS, "test_diamond_build")),
    ("a missing meet taken as element 0", LATTICE,
     "self._by_down.get(self._down[self.index(y)] & self._down[self.index(z)])",
     "self._by_down.get(self._down[self.index(y)] & self._down[self.index(z)], 0)",
     node_ids(LATTICE_TESTS, "test_a_pair_without_a_bound_raises_on_a_hand_built_lattice")),
    ("the bound check: a missing meet not reported", LATTICE,
     "if down_i & down[j] not in by_down:", "if False:",
     node_ids(LATTICE_TESTS, "test_no_unique_bound_at_build")),
    ("no antisymmetry check", LATTICE,
     "both = (up[i] & down[i]) ^ (1 << i)", "both = 0",
     node_ids(LATTICE_TESTS, "test_not_a_partial_order")),
    ("no transitive closure: each up-set holds its listed neighbours only", LATTICE,
     "u |= up[k]", "u |= 1 << k",
     node_ids(LATTICE_TESTS, "test_diamond_build")),
    ("the cycle scan: no transitive closure", LATTICE,
     "up[i] |= above_k", "pass",
     node_ids(LATTICE_TESTS, "test_not_a_partial_order")),
    ("the topological walk skips the first element", LATTICE,
     "for i in reversed(ranked):", "for i in reversed(ranked[1:]):",
     node_ids(LATTICE_TESTS, "test_diamond_build")),
    ("the topological walk ignores a cycle", LATTICE,
     "if len(ranked) < n:", "if False:",
     node_ids(LATTICE_TESTS, "test_not_a_partial_order")),
    ("the down-set pass keeps one lower neighbour's down-set only", LATTICE,
     "down[j] |= d", "down[j] = d | 1 << j",
     node_ids(LATTICE_TESTS, "test_diamond_build")),
    ("from_dict: the names in pairs not checked to be strings", LATTICE,
     "all(map(isinstance, chain.from_iterable(pairs), repeat(str)))", "True",
     node_ids(ERRORS_TESTS, "test_malformed_lattice_files_exit_2_with_one_line")),
    ("no extremes check on the involution", LATTICE,
     "if inv[bottom] != top:", "if False:",
     node_ids(LATTICE_TESTS, "test_bad_involution_variants")),
    ("no two-pairs check on the involution", LATTICE,
     "if inv.get(yi, zi) != zi or inv.get(zi, yi) != yi:", "if False:",
     node_ids(LATTICE_TESTS, "test_bad_involution_variants")),
    ("JSON: a repeated container given another container's text", CLI,
     "dict(zip(distinct, texts))", "dict(zip(distinct, [*texts[1:], texts[0]]))",
     node_ids(CLI_TESTS, "test_json_writer_encodes_a_container_repeated_in_a_column_once")),
    ("JSON: a column's children written at the parent's indent", CLI,
     "texts, holds = _json_column(column, inner, heads, leaves)",
     "texts, holds = _json_column(column, pad, heads, leaves)",
     node_ids(CLI_TESTS, "test_json_writer_writes_a_long_mixed_column_as_json_dumps")),
    ("JSON: list items regrouped with a wrong length", CLI,
     "zip(*[iter(texts)] * shape)", "zip(*[iter(texts)] * (shape - 1))",
     node_ids(CLI_TESTS, "test_json_writer_writes_a_long_mixed_column_as_json_dumps")),
    ("JSON: the first key's head keeping its comma", CLI,
     'openers[0] = "{" + openers[0][1:]', 'openers[0] = "{" + openers[0]',
     node_ids(CLI_TESTS, "test_json_writer_writes_a_long_mixed_column_as_json_dumps")),
    ("JSON: an empty list in a column written as {}", CLI,
     '["{}" if is_dict else "[]"] * len(members)', '["{}"] * len(members)',
     node_ids(CLI_TESTS, "test_json_writer_writes_a_long_mixed_column_as_json_dumps")),
    ("JSON: a column of ints, bools or refused types written with repr", CLI,
     "_json_write(v, pad, texts, heads, leaves)", "texts.append(repr(v))",
     node_ids(CLI_TESTS, "test_json_writer_writes_a_long_mixed_column_as_json_dumps",
              "test_json_writer_refuses_other_types")),
    ("JSON: split texts from a next column not joined", CLI,
     'texts = list(map("".join, texts))', "pass",
     node_ids(CLI_TESTS, "test_json_writer_writes_a_long_mixed_column_as_json_dumps")),
    ("JSON: a row whose next column repeats a container joined into one text", CLI,
     "held |= holds", "pass",
     node_ids(CLI_TESTS, "test_json_writer_holds_a_dict_shared_by_the_rows_of_a_listing_once",
              "test_nogo_json_refers_to_each_corners_violation_text_once")),
    ("JSON: every row of a column split into its pieces", CLI,
     'groups[shape] = list(rows) if held else list(map("".join, rows))',
     "groups[shape] = list(rows)",
     node_ids(CLI_TESTS, "test_json_writer_appends_one_chunk_per_item_of_a_long_list")),
    ("JSON: shared rows joined into one text per row", CLI,
     "            part = list(distinct.values())\n            repeated = True\n",
     "            part = list(distinct.values())\n",
     node_ids(CLI_TESTS, "test_json_writer_holds_a_dict_shared_by_the_rows_of_a_listing_once")),
    ("JSON: a long list that holds a str written as a list of str", CLI,
     "elif set(map(type, value)) == {str}:", "elif str in set(map(type, value)):",
     node_ids(CLI_TESTS, "test_json_writer_writes_a_long_mixed_column_as_json_dumps")),
    ("main: a failed write not handled", CLI,
     "    except OSError as exc:\n", "    except BrokenPipeError as exc:\n",
     node_ids(CLI_TESTS, "test_a_failed_write_exits_2_with_one_line")),
    ("main: a missing stdout not handled", CLI,
     "    if out is None:\n", "    if False:\n",
     node_ids(CLI_TESTS, "test_a_closed_stdout_exits_2_with_one_line")),
    ("main: text that stdout cannot encode not escaped", CLI,
     'out.reconfigure(errors="backslashreplace")', 'out.reconfigure(errors="strict")',
     node_ids(CLI_TESTS, "test_text_that_stdout_cannot_encode_is_written_escaped")),
    ("dispatch: the parser rebuilt on every run", CLI,
     "@cache\ndef build_parser()", "def build_parser()",
     node_ids(CLI_TESTS, "test_the_parser_is_built_once")),
    ("dispatch: no check for a missing subcommand", CLI,
     "        if ns.command is None:\n", "        if False:\n",
     node_ids(CLI_TESTS, "test_usage_errors_are_exit_2")),
    ("dispatch: an error report ignores the parsed format", CLI,
     'getattr(ns, "format", None) or _requested_format(argv)', "_requested_format(argv)",
     node_ids(CLI_TESTS, "test_error_report_takes_the_last_format_flag")),
    ("dispatch: an option value that argparse stores as [] let through", CLI,
     "if type(getattr(ns, action.dest)) is list:", "if False:",
     node_ids(CLI_TESTS, "test_an_option_value_that_argparse_drops_is_refused_naming_its_flag")),
    ("the reader: a =value read on a flag that takes none", CLI,
     "            if eq:\n                return None\n            dest, const", "            dest, const",
     node_ids(CLI_TESTS, "test_the_reader_leaves_these_command_lines_to_argparse",
              "test_the_reader_reads_as_argparse_or_defers")),
    ("the reader: choices not checked", CLI,
     "if action.choices is not None and value not in action.choices:", "if False:",
     node_ids(CLI_TESTS, "test_the_reader_leaves_these_command_lines_to_argparse",
              "test_the_reader_reads_as_argparse_or_defers")),
    ("the reader: type not applied", CLI,
     "                value = action.type(value)\n", "                action.type(value)\n",
     node_ids(CLI_TESTS, "test_the_reader_reads_every_plain_line_of_the_identity_corpus",
              "test_the_reader_reads_as_argparse_or_defers")),
    ("the reader: a missing required flag not detected", CLI,
     "if len(given) != len(positionals) or not required <= seen:",
     "if len(given) != len(positionals):",
     node_ids(CLI_TESTS, "test_the_reader_leaves_these_command_lines_to_argparse",
              "test_the_reader_reads_as_argparse_or_defers")),
    ("the reader: a separate value that starts with - taken", CLI,
     'if value is None or value[:1] == "-":', "if value is None:",
     node_ids(CLI_TESTS, "test_the_reader_leaves_these_command_lines_to_argparse",
              "test_the_reader_reads_as_argparse_or_defers")),
    ("the reader: --no-equal-priors read as true", CLI,
     'else not flag.startswith("--no-")', "else True",
     node_ids(CLI_TESTS, "test_the_reader_reads_every_plain_line_of_the_identity_corpus",
              "test_the_parser_is_built_once")),
    ("the reader: a value of exactly -- not left to argparse", CLI,
     '        elif value == "--":\n            return None\n', "",
     node_ids(CLI_TESTS, "test_the_reader_leaves_these_command_lines_to_argparse")),
    ("parse: an xor's desugared size counted as one node", CLI,
     "2 * (size + rsize) + 4 if item is Xor else size + rsize + 1", "size + rsize + 1",
     node_ids(CLI_TESTS, "test_parse_refuses_a_desugared_form_above_the_limit",
              "test_parse_refuses_a_long_xor_chain_in_one_line")),
    ("parse: the size of a Not not checked", CLI,
     "if size + 1 > limit:", "if False:",
     node_ids(CLI_TESTS, "test_parse_reports_what_the_separate_passes_give")),
    ("parse: an xor desugared as its own text", CLI,
     "if sugar is text and rsugar is rtext and item is not Xor:",
     "if sugar is text and rsugar is rtext:",
     node_ids(CLI_TESTS, "test_parse_reports_what_the_separate_passes_give")),
    ("parse: a Not's desugared text taken from its text", CLI,
     "negated if sugar is text else _negated(sugar)", "negated",
     node_ids(CLI_TESTS, "test_parse_reports_what_the_separate_passes_give")),
    ("parse: a binary node's depth read off its left child", CLI,
     "max(depth, rdepth) + 1", "depth + 1",
     node_ids(CLI_TESTS, "test_parse_reports_what_the_separate_passes_give")),
    ("parse: the depth cap applied to text output", CLI,
     'if ns.format == "json" and depth > _JSON_DEPTH_LIMIT:', "if depth > _JSON_DEPTH_LIMIT:",
     node_ids(CLI_TESTS, "test_parse_json_depth_limit_both_sides",
              "test_parse_reports_what_the_separate_passes_give")),
    ("cover_pairs not strict: each element covers itself", LATTICE,
     ".bit_count() == 2", ".bit_count() <= 2",
     node_ids(LATTICE_TESTS, "test_cover_pairs_are_the_hasse_edges")),
    ("the element cap on a build compared with >=", LATTICE,
     "if n > MAX_ELEMENTS:", "if n >= MAX_ELEMENTS:",
     node_ids(ERRORS_TESTS, "test_lattice_files_exit_2_one_past_the_element_cap")),
    ("the element cap on a build dropped", LATTICE,
     "if n > MAX_ELEMENTS:", "if False:",
     node_ids(LATTICE_TESTS, "test_the_element_cap_is_checked_before_any_work")),
    ("the element cap on a builtin compared with >=", LATTICE,
     "if size(n) > MAX_ELEMENTS:", "if size(n) >= MAX_ELEMENTS:",
     node_ids(ERRORS_TESTS, "test_builtins_exit_2_one_past_the_element_cap")),
    ("the lattice file cap compared with >=", LATTICE,
     "if len(raw) > MAX_FILE_BYTES:", "if len(raw) >= MAX_FILE_BYTES:",
     node_ids(LATTICE_TESTS, "test_a_lattice_file_is_read_up_to_the_byte_cap")),
    ("a lattice file without a size read one byte only", LATTICE,
     "st_size or MAX_FILE_BYTES", "st_size",
     node_ids(LATTICE_TESTS, "test_a_lattice_file_is_read_up_to_the_byte_cap")),
    ("literals: any text handed to Fraction", VALUATION,
     "if isinstance(value, str) and not _RATIONAL.fullmatch(value):", "if False:",
     node_ids(ERRORS_TESTS, "test_exponent_literals_are_refused")
     + node_ids(VALUATION_TESTS, "test_the_library_refuses_the_literals_the_command_line_refuses")),
    ("literals: no space read around a literal", VALUATION,
     r're.compile(r"\s*[+-]?', r're.compile(r"[+-]?',
     node_ids(ERRORS_TESTS, "test_rational_literals_are_read_exactly")
     + node_ids(VALUATION_TESTS, "test_the_library_reads_a_literal_as_its_value")),
    ("literals: a Decimal infinity not caught", VALUATION,
     "except (ValueError, ZeroDivisionError, OverflowError) as exc:",
     "except (ValueError, ZeroDivisionError) as exc:",
     node_ids(VALUATION_TESTS, "test_unreadable_values_raise_typed_errors")),
    ("messages: a value too long to print handed to str alone", ERRORS,
     "    except ValueError:\n", "    except TypeError:\n",
     node_ids(VALUATION_TESTS, "test_unreadable_values_raise_typed_errors")
     + node_ids(LATTICE_TESTS, "test_the_element_cap_is_checked_before_any_work")
     + node_ids(ERRORS_TESTS, "test_a_value_too_long_to_print_is_named_by_its_digit_count")),
    ("messages: the digit count one too high below a power of ten", ERRORS,
     "return k + (n >= 10**k)", "return k + 1",
     node_ids(ERRORS_TESTS, "test_a_value_too_long_to_print_is_named_by_its_digit_count")),
    ("a finite grid's cap compared with >=", VALUATION,
     "if n > MAX_GRID_VALUES:", "if n >= MAX_GRID_VALUES:",
     node_ids(VALUATION_TESTS, "test_value_systems_stop_at_the_grid_cap")),
    ("a denominator grid's cap one value too high", VALUATION,
     "if denominator >= MAX_GRID_VALUES:", "if denominator > MAX_GRID_VALUES:",
     node_ids(VALUATION_TESTS, "test_value_systems_stop_at_the_grid_cap")),
    ("corners: an entry with or and and swapped", NOGO,
     "    return or12, and12, neg_and, x12, bridges, total, total / 2",
     "    return and12, or12, neg_and, x12, bridges, total, total / 2",
     node_ids(NOGO_TESTS, "test_each_corner_matches_the_steps_recomputed_on_each_call")),
    ("corners: a pair's entry read with its values swapped", NOGO,
     "_CORNERS[v1.numerator, v2.numerator]", "_CORNERS[v2.numerator, v1.numerator]",
     node_ids(NOGO_TESTS, "test_each_corner_matches_the_steps_recomputed_on_each_call")),
    ("a finite grid's values validated a second time", VALUATION,
     'return cls._built(f"finite({n})", ', 'return cls(f"finite({n})", ',
     node_ids(VALUATION_TESTS, "test_the_grid_constructors_build_exact_values_once")),
    ("C-COLLAPSE moved to the (0, 0) corner", NOGO,
     "(C_COLLAPSE, (C_TRUE,)) if v1 else", "(C_COLLAPSE, (C_TRUE,)) if not v1 else",
     node_ids(NOGO_TESTS, "test_corner_one_one_is_collapse_violation")),
    ("C-TRUE moved off the (1, 1) corner", NOGO,
     "(C_COLLAPSE, (C_TRUE,)) if v1 else", "(C_COLLAPSE, ()) if v1 else",
     node_ids(NOGO_TESTS, "test_corner_one_one_is_collapse_violation")),
    ("C-INT moved to unequal priors", NOGO,
     "elif scenario.equal_priors and", "elif not scenario.equal_priors and",
     node_ids(NOGO_TESTS, "test_corner_one_zero_is_interference_violation")),
    ("functions_covered off by a factor of 2", NOGO,
     "functions_covered=2 ** (len(scenario.lattice.elements) - 2)",
     "functions_covered=2 ** (len(scenario.lattice.elements) - 1)",
     node_ids(NOGO_TESTS, "test_run_nogo_checks_only_the_four_corners")),
    ("the atom type check dropped from Scenario.build", NOGO,
     "if not isinstance(atom, str):", "if False:",
     node_ids(NOGO_TESTS, "test_scenario_requires_distinct_elements")),
    ("nogo: a function's corner read with its bound values swapped", CLI,
     "corners[row[i1], row[i2]]", "corners[row[i2], row[i1]]",
     node_ids(NOGO_TESTS, "test_nogo_rows_match_the_enumerated_truth_functions")),
    ("scan: the grid's items over the values reversed", NOGO,
     "enumerate(product(self.value_system.values, repeat=2))",
     "enumerate(product(self.value_system.values[::-1], repeat=2))",
     node_ids(NOGO_TESTS, "test_scan_three_valued_grid_exactly")),
    ("a result's atom names swapped", CLI,
     "{a: _jsonable(v) for a, v in zip(atoms, pair)}",
     "{a: _jsonable(v) for a, v in zip(atoms[::-1], pair)}",
     node_ids(CLI_TESTS, "test_nogo_default_run")),
    ("scan: a violating pair also listed as consistent", CLI,
     "        del consistent[k]\n", "",
     node_ids(CLI_TESTS, "test_scan_values_3",
              "test_scan_report_matches_a_cell_by_cell_reference")),
    ("scan: violating cells deleted lowest index first", CLI,
     "for k, violation in reversed(report.violations):",
     "for k, violation in report.violations:",
     node_ids(CLI_TESTS, "test_text_reports_keep_their_layout",
              "test_scan_report_matches_a_cell_by_cell_reference")),
    ("scan text: the wrong separator in the consistent: line", CLI,
     'consistent = "), (".join(map(", ".join, p["consistent"]))',
     'consistent = "),(".join(map(", ".join, p["consistent"]))',
     node_ids(CLI_TESTS, "test_text_reports_keep_their_layout",
              "test_scan_report_matches_a_cell_by_cell_reference")),
    ("scan text: a violating row written over the line of its index", CLI,
     "lines[start + k] = ", "lines[k] = ",
     node_ids(CLI_TESTS, "test_text_reports_keep_their_layout",
              "test_scan_report_matches_a_cell_by_cell_reference")),
    ("the auditor: transitivity not checked", LATTICE,
     "if missing := up[j] & ~up_i:", "if missing := 0:",
     node_ids(LATTICE_TESTS, "test_verify_reports_a_chain_that_does_not_close")),
    ("the auditor: meets looked up among the up-sets", LATTICE,
     "_missing_bounds(up, down, lat._by_up, lat._by_down)",
     "_missing_bounds(up, down, lat._by_up, lat._by_up)",
     node_ids(LATTICE_TESTS, "test_verify_axioms_on_clean_builtins")),
    ("the auditor: bottom-least never reported", LATTICE,
     "if not up[b] >> i & 1:", "if False:",
     node_ids(LATTICE_TESTS, "test_verify_reports_a_bottom_that_is_not_least")),
    ("the auditor: an involution entry 1.0 taken as an index", LATTICE,
     "isinstance(e, int) and 0 <= e < n", "0 <= e < n",
     node_ids(LATTICE_TESTS, "test_verify_reports_a_non_int_entry_as_malformed")),
    ("degrees: the conjunction floored at 1", VALUATION,
     "max(s + t - d, 0)", "max(s + t - d, 1)",
     node_ids(VALUATION_TESTS, "test_degrees_route_corner_values")),
    ("degrees: one UNDEFINED let through", VALUATION,
     "if any(v is UNDEFINED for v in values.values()):",
     "if all(v is UNDEFINED for v in values.values()):",
     node_ids(VALUATION_TESTS, "test_degrees_route_undefined_atom_absorbs")),
    ("degrees: negation as t in place of D - t", VALUATION,
     "lambda t: d - t", "lambda t: t",
     node_ids(VALUATION_TESTS, "test_degrees_route_half_half")),
    ("degrees: the disjunction capped at D - 1", VALUATION,
     "min(s + t, d)", "min(s + t, d - 1)",
     node_ids(VALUATION_TESTS, "test_degrees_route_corner_values")),
    ("lexer: an error offset off by one", FORMULA,
     "return starts[k] if k < len(starts)", "return starts[k] + 1 if k < len(starts)",
     node_ids(FORMULA_TESTS, "test_parse_errors_carry_position")),
    ("lexer: a character that starts no token reported after a syntax error", FORMULA,
     "    return _stray(text, tokens) or ParseError(", "    return ParseError(",
     node_ids(FORMULA_TESTS, "test_parse_agrees_with_the_character_loop",
              "test_parse_errors_carry_position")),
    ("lexer: a token that starts no name read as one", FORMULA,
     "    if not _TOKEN_STARTS.issuperset(", "    if False and not _TOKEN_STARTS.issuperset(",
     node_ids(FORMULA_TESTS, "test_parse_agrees_with_the_character_loop",
              "test_parse_errors_carry_position")),
    ("parse: a ')' with no '(' open pops the sentinel", FORMULA,
     "elif pending[-1] == 0:", "elif pending[-1] == 0 or code == 5:",
     node_ids(FORMULA_TESTS, "test_parse_agrees_with_the_character_loop",
              "test_parse_errors_carry_position")),
    ("parse: ')' reduces past '('", FORMULA,
     "binds = code if binary else 1", "binds = code if binary else 0",
     node_ids(FORMULA_TESTS, "test_parse_agrees_with_the_character_loop",
              "test_a_parsed_tree_survives_pickle_and_copy")),
    ("parse: '(' closed by a token other than ')'", FORMULA,
     "            if code != 5:\n                raise _refusal(", "            if False:\n                raise _refusal(",
     node_ids(FORMULA_TESTS, "test_parse_agrees_with_the_character_loop",
              "test_parse_errors_carry_position")),
    ("parse: '!' or '(' after an operand taken as a binary operator", FORMULA,
     "binary = 0 < code < 4", "binary = code < 5",
     node_ids(FORMULA_TESTS, "test_parse_agrees_with_the_character_loop",
              "test_parse_errors_carry_position")),
    ("parse: the '&' and '^' codes swapped", FORMULA,
     '"^": 2, "&": 3', '"^": 3, "&": 2',
     node_ids(FORMULA_TESTS, "test_precedence", "test_xor_is_left_associative")),
    ("parse: one Atom node for the names that share a first letter", FORMULA,
     "atom = named.get(tok)", "atom = named.get(tok[:1])",
     node_ids(FORMULA_TESTS, "test_atoms_first_appearance_order")),
    ("parse: a binary class recorded before its operands", FORMULA,
     "program.append(kind)", "program.insert(-2, kind)",
     node_ids(FORMULA_TESTS, "test_parse_records_the_program_of_the_tree_it_builds",
              "test_precedence")),
    ("parse: a Not left out of the recorded program", FORMULA,
     "program.append(Not)", "pass",
     node_ids(FORMULA_TESTS, "test_parse_records_the_program_of_a_rendered_tree",
              "test_precedence")),
    ("atoms: the program read in reverse", FORMULA,
     "for item in formula._program if type(item) is Atom",
     "for item in reversed(formula._program) if type(item) is Atom",
     node_ids(FORMULA_TESTS, "test_atoms_first_appearance_order")),
    ("nodes: equality falls back to tuple equality", FORMULA,
     "return False if isinstance(other, tuple) else NotImplemented", "return NotImplemented",
     node_ids(FORMULA_TESTS, "test_a_node_is_not_equal_to_a_tuple_or_list_of_its_fields")),
    ("nodes: != is tuple's, which compares the fields", FORMULA,
     "    __ne__ = object.__ne__", "    __ne__ = tuple.__ne__",
     node_ids(FORMULA_TESTS, "test_a_node_is_not_equal_to_a_tuple_or_list_of_its_fields")),
    ("nodes: pickle and copy use tuple's reduction", FORMULA,
     "    def __reduce__(self):", "    def _reduce(self):",
     node_ids(FORMULA_TESTS, "test_a_parsed_tree_survives_pickle_and_copy")),
    ("nodes: len and order leak from tuple", FORMULA,
     "__len__ = __iter__ = __contains__ = __add__ = __mul__ = __rmul__ = _not_a_sequence",
     "__iter__ = __contains__ = __add__ = __mul__ = __rmul__ = _not_a_sequence",
     node_ids(FORMULA_TESTS, "test_a_node_has_no_length_order_or_arithmetic")),
]


def run_mutant(path: str, old: str, new: str, tests: tuple[str, ...]) -> tuple[str, str]:
    """Apply one mutant to a copy of ``src/`` and run its tests there. The
    outcome is "killed", "survived", "stale" (the old text is not found
    exactly once) or "error" (the tests could not run), with the output."""
    source = (ROOT / path).read_text(encoding="utf-8")
    found = source.count(old)
    if found != 1:
        return "stale", f"the old text occurs {found} times in {path}"
    with tempfile.TemporaryDirectory(prefix="mutant-") as scratch:
        copy = Path(scratch) / "src"
        shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        (Path(scratch) / path).write_text(source.replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy), PYTHONDONTWRITEBYTECODE="1")
        # an installed slitlogic must not stand in for the mutated copy
        where = subprocess.run(
            [sys.executable, "-c", "import slitlogic; print(slitlogic.__file__)"],
            cwd=scratch, env=env, capture_output=True, text=True,
        )
        if not where.stdout.startswith(str(copy)):
            return "error", f"slitlogic is imported from {where.stdout.strip() or where.stderr}"
        # run from the copy's directory, so Hypothesis keeps its example
        # database there and not in the repository
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *(str(ROOT / test) for test in tests)],
            cwd=scratch, env=env, capture_output=True, text=True,
        )
    output = result.stdout + result.stderr
    outcome = {0: "survived", 1: "killed"}.get(result.returncode, "error")
    return outcome, output


def main() -> int:
    bad = 0
    start = time.perf_counter()
    for name, path, old, new, tests in MUTANTS:
        began = time.perf_counter()
        outcome, output = run_mutant(path, old, new, tests)
        print(f"{outcome:8}  {name}  ({time.perf_counter() - began:.1f} s)", flush=True)
        if outcome != "killed":
            bad += 1
            print("\n".join(output.splitlines()[-15:]), flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
