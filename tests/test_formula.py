"""Formula parsing, rendering, and the exclusive-disjunction rewrite."""

import contextlib
import copy
import pickle
import random
import re
from fractions import Fraction
from functools import partial
from itertools import product

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from slitlogic.formula import (
    And,
    Atom,
    Not,
    Or,
    ParseError,
    Xor,
    atoms,
    desugar_xor,
    fold,
    parse,
    render,
    render_desugared,
)
from slitlogic.lattice import builtin
from slitlogic.valuation import UNDEFINED, evaluate_degrees, formula_element

X1, X2, X3 = Atom("X1"), Atom("X2"), Atom("X3")
EXACTLY_ONE_TEXT = "(X1 | X2) & !(X1 & X2)"
EXACTLY_ONE = And(Or(X1, X2), Not(And(X1, X2)))


def classical(f, env):
    """Bivalent truth-table evaluation; the oracle for the xor rewrite."""
    if isinstance(f, Atom):
        return env[f.name]
    if isinstance(f, Not):
        return not classical(f.child, env)
    if isinstance(f, And):
        return classical(f.left, env) and classical(f.right, env)
    if isinstance(f, Or):
        return classical(f.left, env) or classical(f.right, env)
    return classical(f.left, env) != classical(f.right, env)


def test_parse_exactly_one_compound():
    assert parse(EXACTLY_ONE_TEXT) == EXACTLY_ONE
    assert repr(EXACTLY_ONE) == (
        "And(left=Or(left=Atom(name='X1'), right=Atom(name='X2')), "
        "right=Not(child=And(left=Atom(name='X1'), right=Atom(name='X2'))))"
    )


def test_parse_single_atom():
    assert parse("X1") == X1


def test_xor_is_left_associative():
    assert parse("X1 ^ X2 ^ X3") == Xor(Xor(X1, X2), X3)


def test_precedence():
    a, b, c = Atom("a"), Atom("b"), Atom("c")
    assert parse("a | b & c") == Or(a, And(b, c))
    assert parse("!a & b") == And(Not(a), b)
    assert parse("a ^ b | c") == Or(Xor(a, b), c)
    assert parse("a & b ^ c") == Xor(And(a, b), c)
    assert parse("!!a") == Not(Not(a))


def test_parentheses_override_precedence():
    a, b, c = Atom("a"), Atom("b"), Atom("c")
    assert parse("(a | b) & c") == And(Or(a, b), c)
    assert parse("a ^ (b ^ c)") == Xor(a, Xor(b, c))


_EXPECTED_OPERAND = "expected an atom, '!', or '(', found"
_PARSE_ERRORS = [
    ("X1 &", 4, f"{_EXPECTED_OPERAND} end of input"),
    ("(X1", 3, "expected ')'"),
    ("X1 @ X2", 3, "unexpected character '@'"),
    ("| X1", 0, f"{_EXPECTED_OPERAND} '|'"),
    ("X1 X2", 3, "unexpected trailing 'X2'"),
    ("(X1 | X2", 8, "expected ')'"),
    ("", 0, f"{_EXPECTED_OPERAND} end of input"),
    ("(X1 X2", 4, "expected ')'"),
    ("X1 )", 3, "unexpected trailing ')'"),
    ("!", 1, f"{_EXPECTED_OPERAND} end of input"),
    ("X1 && X2", 4, f"{_EXPECTED_OPERAND} '&'"),
    # "!" and "(" after an operand are no binary operators
    ("X1 !X2", 3, "unexpected trailing '!'"),
    ("X1 (X2)", 3, "unexpected trailing '('"),
    ("(X1 !X2)", 4, "expected ')'"),
    # ")" closes one "(" only
    ("(X1))", 4, "unexpected trailing ')'"),
    # a character that starts no token comes first: after a syntax error, or
    # where the loop would read it as a name
    ("X1 ) @", 5, "unexpected character '@'"),
    ("X1 & 1", 5, "unexpected character '1'"),
    ("X1 & _y", 5, "unexpected character '_'"),
]


@pytest.mark.parametrize(
    "text,position,message",
    _PARSE_ERRORS,
    ids=[f"{text}-{position}" for text, position, _ in _PARSE_ERRORS],
)
def test_parse_errors_carry_position(text, position, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.position == position
    assert str(err.value) == f"{message} (at position {position})"


def test_desugar_single_xor():
    assert desugar_xor(Xor(X1, X2)) == EXACTLY_ONE


def test_desugar_is_identity_on_xor_free_input():
    assert desugar_xor(X1) == X1
    assert desugar_xor(EXACTLY_ONE) == EXACTLY_ONE


def has_xor(f):
    if isinstance(f, Atom):
        return False
    if isinstance(f, Not):
        return has_xor(f.child)
    if isinstance(f, Xor):
        return True
    return has_xor(f.left) or has_xor(f.right)


def test_desugar_nested_xor_semantics():
    # oracle: compare truth tables over all 8 assignments
    f = Xor(Xor(X1, X2), X3)
    g = desugar_xor(f)
    assert not has_xor(g)
    for bits in product([False, True], repeat=3):
        env = dict(zip(["X1", "X2", "X3"], bits))
        assert classical(f, env) == classical(g, env)


def random_formula(rng, names, depth):
    if depth == 0 or rng.random() < 0.25:
        return Atom(rng.choice(names))
    kind = rng.randrange(4)
    if kind == 0:
        return Not(random_formula(rng, names, depth - 1))
    ctor = (And, Or, Xor)[kind - 1]
    return ctor(
        random_formula(rng, names, depth - 1),
        random_formula(rng, names, depth - 1),
    )


def test_desugar_preserves_classical_semantics_exhaustively():
    rng = random.Random(1105)
    names = ["a", "b", "c", "d"]
    for _ in range(200):
        f = random_formula(rng, names, 5)
        g = desugar_xor(f)
        assert not has_xor(g)
        for bits in product([False, True], repeat=len(names)):
            env = dict(zip(names, bits))
            assert classical(f, env) == classical(g, env)


def test_atoms_first_appearance_order():
    assert atoms(EXACTLY_ONE) == ("X1", "X2")
    assert atoms(parse("b & a | b ^ c")) == ("b", "a", "c")
    # names that share a first letter, or where one starts the other, stay apart
    assert atoms(parse("a & ab | a_1 ^ a")) == ("a", "ab", "a_1")


def test_render_exactly_one_compound():
    assert render(EXACTLY_ONE) == EXACTLY_ONE_TEXT


def test_render_respects_associativity():
    a, b, c = Atom("a"), Atom("b"), Atom("c")
    assert render(Or(Or(a, b), c)) == "a | b | c"
    assert render(Or(a, Or(b, c))) == "a | (b | c)"
    assert render(Not(Not(a))) == "!!a"


def test_parse_render_round_trip_1000_random_formulas():
    rng = random.Random(20240810)
    names = ["X1", "X2", "y", "theta_3", "p"]
    for _ in range(1000):
        f = random_formula(rng, names, 8)
        assert parse(render(f)) == f


_names = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,5}", fullmatch=True)
_formulas = st.recursive(
    st.builds(Atom, _names),
    lambda children: st.one_of(
        st.builds(Not, children),
        st.builds(And, children, children),
        st.builds(Or, children, children),
        st.builds(Xor, children, children),
    ),
    max_leaves=25,
)


@given(_formulas)
def test_parse_render_round_trip_property(f):
    assert parse(render(f)) == f


# ------------------------------------------------ the lexer against the loop it replaced

_REFERENCE_ATOM = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


def _reference_tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "!&^|()":
            tokens.append((c, c, i))
            i += 1
            continue
        m = _REFERENCE_ATOM.match(text, i)
        if m:
            tokens.append(("atom", m.group(0), i))
            i = m.end()
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", len(text)))
    return tokens


_REFERENCE_BINARY = {"&": And, "^": Xor, "|": Or}
_REFERENCE_BINDS = {"!": 4, "&": 3, "^": 2, "|": 1}


def reference_parse(text):
    """The parser over a character-by-character tokenizer, which the
    one-regex lexer replaced."""
    operands = []
    pending = []
    expect_operand = True
    for kind, tok, pos in _reference_tokenize(text):
        if expect_operand:
            if kind == "atom":
                operands.append(Atom(tok))
                expect_operand = False
            elif kind in ("!", "("):
                pending.append(kind)
            else:
                found = repr(tok) if tok else "end of input"
                raise ParseError(f"expected an atom, '!', or '(', found {found}", pos)
            continue
        binds = _REFERENCE_BINDS[kind] if kind in _REFERENCE_BINARY else 0
        while pending and pending[-1] != "(" and _REFERENCE_BINDS[pending[-1]] >= binds:
            op = pending.pop()
            if op == "!":
                operands[-1] = Not(operands[-1])
            else:
                right = operands.pop()
                operands[-1] = _REFERENCE_BINARY[op](operands[-1], right)
        if kind in _REFERENCE_BINARY:
            pending.append(kind)
            expect_operand = True
        elif pending and kind == ")":
            pending.pop()
        elif pending:
            raise ParseError("expected ')'", pos)
        elif kind != "end":
            raise ParseError(f"unexpected trailing {tok!r}", pos)
    return operands[0]


def _parse_outcome(parser, text):
    try:
        return parser(text)
    except ParseError as exc:
        return str(exc), exc.position


# atom names and their pieces, operators, unbalanced parentheses, ASCII and
# Unicode spaces (U+001C is a space to str.isspace), Unicode letters and
# digits, and characters that start no token
_PIECES = st.sampled_from([
    "X1", "y_2", "a", "Zz9", "_", "1", "42", "!", "&", "^", "|", "(", ")", "((", "))",
    " ", "\t", "\n", "\x1c", "\u00a0", "\u2003", "\u3000",
    "\u00e9", "\u03a9", "\u00df", "\u212a", "\u0663", "x\u0301", "@", "#", "-", ".", "\U0001d400",
])


@st.composite
def _formula_texts_with_one_piece(draw):
    text = render(draw(_formulas))
    at = draw(st.integers(0, len(text)))
    return text[:at] + draw(_PIECES) + text[at:]


@st.composite
def _long_texts_with_one_piece(draw):
    """A flat chain, or a run of negations or parentheses, of 41 to 400
    tokens or pairs, with one piece put in anywhere."""
    n = draw(st.integers(41, 400))
    run = draw(st.sampled_from(["chain", "!", "(", "!("]))
    if run == "chain":
        links = st.lists(st.sampled_from([" & b", " | c", "^a", " ^ (b)"]), min_size=n, max_size=n)
        text = "a" + "".join(draw(links))
    else:
        text = run * n + "a" + ")" * (n if "(" in run else 0)
    at = draw(st.integers(0, len(text)))
    return text[:at] + draw(_PIECES) + text[at:]


_TEXTS = st.one_of(
    st.lists(_PIECES, max_size=40).map("".join),
    st.text(max_size=30),
    _formula_texts_with_one_piece(),
    _long_texts_with_one_piece(),
)


@given(_TEXTS)
# a character that starts no token, where the loop reads a name, in a text
# that would otherwise parse
@example("(1)")
@example("!a & _")
def test_parse_agrees_with_the_character_loop(text):
    assert _parse_outcome(parse, text) == _parse_outcome(reference_parse, text)


def test_a_tree_keeps_one_program_on_its_root():
    f = parse("!(a & b) ^ (c | a)")
    twin = parse("!(a & b) ^ (c | a)")
    # parse leaves the program on the root before anything folds the tree
    program = vars(f)["_program"]
    assert "_program" in vars(twin)
    assert f == twin and hash(f) == hash(twin) and repr(f)
    render(f)
    evaluate_degrees(f, dict.fromkeys("abc", Fraction(1, 2)))
    atoms(f)
    # equality, hashing, repr and folds leave a program on the roots alone
    subtrees = [f.left, f.left.child, f.left.child.left, f.right, f.right.right]
    assert not any("_program" in vars(node) for node in subtrees)
    # and reuse the one that parse recorded: the same list object
    assert vars(f)["_program"] is program


def _walked_program(f):
    """The program of ``f`` from the stack walk, without caching it."""
    return type(f)._program.func(f)


def _assert_parse_records_the_walked_program(text):
    f = parse(text)
    recorded = vars(f)["_program"]
    # the tree's own nodes, in the order of the walk
    walked = _walked_program(f)
    assert len(recorded) == len(walked)
    assert all(r is w for r, w in zip(recorded, walked))
    # and equal item for item to the program of the same tree built by hand
    rebuilt = reference_parse(text)
    assert "_program" not in vars(rebuilt)
    assert recorded == rebuilt._program


@given(_TEXTS)
def test_parse_records_the_program_of_the_tree_it_builds(text):
    # both parsers refuse the same texts: test_parse_agrees_with_the_character_loop
    with contextlib.suppress(ParseError):
        _assert_parse_records_the_walked_program(text)


@given(_formulas)
def test_parse_records_the_program_of_a_rendered_tree(f):
    assert vars(parse(render(f)))["_program"] == f._program


# Parsed when a test runs, not at import: a parser fault then fails the tests
# that use it, and does not stop this module, or test_cli that imports it,
# from being collected.
_PARSED = partial(parse, "!(a & b) ^ (c | a) & !!d")


@pytest.mark.parametrize("copier", [
    *(lambda f, p=p: pickle.loads(pickle.dumps(f, protocol=p))
      for p in range(pickle.HIGHEST_PROTOCOL + 1)),
    copy.copy, copy.deepcopy,
], ids=[*(f"pickle-{p}" for p in range(pickle.HIGHEST_PROTOCOL + 1)), "copy", "deepcopy"])
def test_a_parsed_tree_survives_pickle_and_copy(copier):
    parsed = _PARSED()
    clone = copier(parsed)
    assert clone == parsed and hash(clone) == hash(parsed) and repr(clone) == repr(parsed)
    assert type(clone.left.child) is And and clone.right.right.child.child.name == "d"
    assert render(clone) == render(parsed)


_FIELDS = [
    (Atom("A"), ("A",)),
    (Not(X1), (X1,)),
    (And(X1, X2), (X1, X2)),
    (Or(X1, X2), (X1, X2)),
    (Xor(X1, X2), (X1, X2)),
]


@pytest.mark.parametrize("node,fields", _FIELDS, ids=[type(n).__name__ for n, _ in _FIELDS])
def test_a_node_is_not_equal_to_a_tuple_or_list_of_its_fields(node, fields):
    for other in (fields, list(fields)):
        assert not node == other and not other == node
        assert node != other and other != node
    assert node == copy.copy(node) and not node != copy.copy(node)


@pytest.mark.parametrize("node", [n for n, _ in _FIELDS], ids=[type(n).__name__ for n, _ in _FIELDS])
def test_a_node_has_no_length_order_or_arithmetic(node):
    for op in (len, iter, lambda n: X1 in n, lambda n: n + n, lambda n: n * 2, lambda n: 2 * n,
               lambda n: n < n, lambda n: n <= n, lambda n: n > ("A",), lambda n: ("A",) >= n):
        with pytest.raises(TypeError):
            op(node)


@pytest.mark.parametrize("node,field", [
    (Atom("A"), "name"), (Not(X1), "child"), (And(X1, X2), "left"), (Xor(X1, X2), "right"),
    (_PARSED, "left"), (_PARSED, "_program"), (X1, "extra"),
])
def test_node_fields_cannot_be_assigned(node, field):
    if node is _PARSED:
        node = _PARSED()
    with pytest.raises(AttributeError):
        setattr(node, field, X3)
    with pytest.raises(AttributeError):
        delattr(node, field)


def test_empty_atom_name_rejected():
    for make in (lambda: Atom(""), lambda: Atom(name="")):
        with pytest.raises(ValueError, match="atom name must be nonempty"):
            make()


# ------------------------------------------------ xor valued once, no depth limit


def _desugared_size(f):
    def add_one(left, right):
        return left + right + 1

    return fold(f, lambda a: 1, lambda child: child + 1, add_one, add_one)


_VALUES = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1), UNDEFINED)


@given(_formulas, st.data())
def test_degrees_value_xor_as_its_desugaring(f, data):
    # the desugared tree is walked node by node, so keep it small
    assume(_desugared_size(f) <= 5000)
    values = {name: data.draw(st.sampled_from(_VALUES)) for name in atoms(f)}
    assert evaluate_degrees(f, values) == evaluate_degrees(desugar_xor(f), values)


@pytest.mark.parametrize("ref", ["boolean:2", "lantern:2"])
@given(f=_formulas, data=st.data())
def test_lattice_route_values_xor_as_its_desugaring(ref, f, data):
    assume(_desugared_size(f) <= 5000)
    family, n = ref.split(":")
    lattice = builtin(family, int(n))
    binding = {name: data.draw(st.sampled_from(lattice.elements)) for name in atoms(f)}
    assert formula_element(f, binding, lattice) == formula_element(
        desugar_xor(f), binding, lattice
    )


@given(_formulas)
def test_render_desugared_is_the_render_of_the_desugared_tree(f):
    assume(_desugared_size(f) <= 5000)
    assert render_desugared(f) == render(desugar_xor(f))


@pytest.mark.parametrize(
    "text,rendered,element,degree",
    [
        ("(" * 3000 + "A" + ")" * 3000, "A", "a", Fraction(1, 2)),
        ("!" * 5000 + "A", "!" * 5000 + "A", "a", Fraction(1, 2)),
        ("A & " * 3000 + "A", "A & " * 3000 + "A", "a", Fraction(0)),
        ("A & (" * 3000 + "A" + ")" * 3000, "A & (" * 2999 + "A & A" + ")" * 2999, "a", Fraction(0)),
    ],
    ids=["parentheses", "negations", "left-chain", "right-chain"],
)
def test_deep_formulas_need_no_recursion(text, rendered, element, degree):
    _assert_parse_records_the_walked_program(text)
    f = parse(text)
    assert render(f) == rendered
    assert render(parse(rendered)) == rendered
    assert render(desugar_xor(f)) == rendered
    assert render_desugared(f) == rendered
    assert atoms(f) == ("A",)
    assert formula_element(f, {"A": "a"}, builtin("boolean", 2)) == element
    assert evaluate_degrees(f, {"A": Fraction(1, 2)}) == degree
    twin = parse(text)
    assert f == twin and f is not twin and f != parse(text.replace("A", "B", 1))
    assert hash(f) == hash(twin)
    assert repr(f).count("Atom(name='A')") == text.count("A")
