"""Propositional formulas over named atoms.

Connectives: negation, conjunction, disjunction, exclusive disjunction.
The text syntax uses ``!``, ``&``, ``^``, ``|`` with that binding order
(``!`` tightest) and left-associative binary operators:

    formula  = or-expr
    or-expr  = xor-expr ("|" xor-expr)*
    xor-expr = and-expr ("^" and-expr)*
    and-expr = unary ("&" unary)*
    unary    = "!" unary | name | "(" formula ")"

Atom names match ``[A-Za-z][A-Za-z0-9_]*``. Formula trees are immutable;
equality is structural.
"""

from __future__ import annotations

import re
from functools import cached_property
from operator import itemgetter
from typing import Union

from .errors import SlitlogicError

__all__ = [
    "Atom",
    "Not",
    "And",
    "Or",
    "Xor",
    "Formula",
    "ParseError",
    "parse",
    "render",
    "render_desugared",
    "atoms",
    "desugar_xor",
    "fold",
]


class ParseError(SlitlogicError):
    """Syntax error in the formula text, carrying the character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Node(tuple):
    """A node is the tuple of its fields, built in one call to ``tuple.__new__``,
    with the tuple's sequence protocol hidden. Equality, hashing and the repr
    are computed from the postfix program, so no tree is too deep for them."""

    @cached_property
    def _program(self) -> list:
        """The tree in postfix order: its Atom nodes, and the classes Not,
        And, Or and Xor for the nodes above them. :func:`parse` records it as
        it reduces; a tree built by hand walks it once, on its first fold."""
        out: list = []
        todo: list = [self]
        while todo:
            item = todo.pop()
            if type(item) is Atom or isinstance(item, type):
                # a leaf, or the class put on the stack under a node's children
                out.append(item)
            else:
                todo += (type(item), *item[::-1])
        return out

    def __eq__(self, other):
        if isinstance(other, _Node):
            return _postfix(self) == _postfix(other)
        # a plain tuple of the same fields is not a formula
        return False if isinstance(other, tuple) else NotImplemented

    __ne__ = object.__ne__  # the negated __eq__, where tuple's compares the fields

    def __hash__(self):
        return hash(tuple(_postfix(self)))

    def __repr__(self):
        return fold(self, *_REPR)

    def __reduce__(self):
        # pickle and copy rebuild the node through its constructor
        return type(self), self[:]

    def _frozen(self, name, *value):
        raise AttributeError(f"cannot assign to field {name!r}")

    __setattr__ = __delattr__ = _frozen

    def _not_a_sequence(self, *args):
        raise TypeError(f"{type(self).__name__} is a formula node, not a sequence")

    __len__ = __iter__ = __contains__ = __add__ = __mul__ = __rmul__ = _not_a_sequence
    __lt__ = __le__ = __gt__ = __ge__ = _not_a_sequence


_new = tuple.__new__


class Atom(_Node):
    __match_args__ = ("name",)
    name = property(itemgetter(0))

    def __new__(cls, name: str):
        if not name:
            raise ValueError("atom name must be nonempty")
        return _new(cls, (name,))


class Not(_Node):
    __match_args__ = ("child",)
    child = property(itemgetter(0))

    def __new__(cls, child: "Formula"):
        return _new(cls, (child,))


class _Binary(_Node):
    __match_args__ = ("left", "right")
    left = property(itemgetter(0))
    right = property(itemgetter(1))

    def __new__(cls, left: "Formula", right: "Formula"):
        return _new(cls, (left, right))


class And(_Binary):
    pass


class Or(_Binary):
    pass


class Xor(_Binary):
    pass


Formula = Union[Atom, Not, And, Or, Xor]

# One token per operator, parenthesis and atom name; any other non-space
# character is a token of its own that no rule accepts.
_TOKEN = re.compile(r"[!&^|()]|[A-Za-z][A-Za-z0-9_]*|\S")
_TOKEN_STARTS = frozenset("!&^|()ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")


def _offset(text: str, k: int) -> int:
    """The character offset of token ``k``, or of the end of the text."""
    starts = [m.start() for m in _TOKEN.finditer(text)]
    return starts[k] if k < len(starts) else len(text)


_BINARY = {"&": And, "^": Xor, "|": Or}
_BINDS = {"!": 4, "&": 3, "^": 2, "|": 1}


def parse(text: str) -> Formula:
    """Parse formula text into a tree, or raise :class:`ParseError`.

    One operator-precedence loop over a stack of subtrees and a stack of
    pending operators and parentheses, so nesting depth is bounded by memory.
    A character that starts no token is reported before any syntax error.
    """
    tokens = _TOKEN.findall(text)
    if not _TOKEN_STARTS.issuperset(tok[0] for tok in set(tokens)):
        k = next(k for k, tok in enumerate(tokens) if tok[0] not in _TOKEN_STARTS)
        raise ParseError(f"unexpected character {tokens[k]!r}", _offset(text, k))
    tokens.append("")  # the end of the input
    operands: list[Formula] = []
    pending: list[str] = []
    program: list = []  # the tree in postfix order, as the loop reduces it
    expect_operand = True
    for k, tok in enumerate(tokens):
        if expect_operand:
            if tok == "!" or tok == "(":
                pending.append(tok)
            elif tok in _BINDS or tok == ")" or not tok:
                found = repr(tok) if tok else "end of input"
                raise ParseError(f"expected an atom, '!', or '(', found {found}",
                                 _offset(text, k))
            else:
                # the token pattern admits no empty name
                atom = _new(Atom, (tok,))
                operands.append(atom)
                program.append(atom)
                expect_operand = False
            continue
        # an operand has ended: apply the pending operators that bind at least as tightly
        binds = _BINDS[tok] if tok in _BINARY else 0
        while pending and pending[-1] != "(" and _BINDS[pending[-1]] >= binds:
            op = pending.pop()
            if op == "!":
                operands[-1] = _new(Not, (operands[-1],))
                program.append(Not)
            else:
                kind = _BINARY[op]
                right = operands.pop()
                operands[-1] = _new(kind, (operands[-1], right))
                program.append(kind)
        if tok in _BINARY:
            pending.append(tok)
            expect_operand = True
        elif pending and tok == ")":
            pending.pop()
        elif pending:
            raise ParseError("expected ')'", _offset(text, k))
        elif tok:
            raise ParseError(f"unexpected trailing {tok!r}", _offset(text, k))
    root = operands[0]
    vars(root)["_program"] = program
    return root


def fold(formula: Formula, atom, neg, conj, disj, xor=None):
    """Value a formula bottom-up, left to right, without recursion.

    ``atom`` values each leaf; ``neg``, ``conj``, ``disj`` and ``xor``
    combine the values of a node's children. The default ``xor`` is the
    definition ``conj(disj(y, z), neg(conj(y, z)))``, so each operand of an
    exclusive disjunction is valued once. One step per node of the tree's
    postfix program, which is kept on ``formula`` for its next fold.
    """
    if xor is None:
        def xor(y, z):
            return conj(disj(y, z), neg(conj(y, z)))

    combine = {And: conj, Or: disj, Xor: xor}
    values: list = []
    for item in formula._program:
        # an Atom node, or the class of the node whose children were just valued
        if type(item) is Atom:
            values.append(atom(item))
        elif item is Not:
            values[-1] = neg(values[-1])
        else:
            right = values.pop()
            values[-1] = combine[item](values[-1], right)
    return values[0]


def _postfix(formula: Formula) -> list:
    """The tree in postfix order: atom names and node classes. The classes'
    arities make the sequence name exactly one tree."""
    return [item.name if type(item) is Atom else item for item in formula._program]


def _branch_repr(kind: str):
    return lambda left, right: f"{kind}(left={left}, right={right})"


_REPR = (lambda a: f"Atom(name={a.name!r})", lambda child: f"Not(child={child})",
         _branch_repr("And"), _branch_repr("Or"), _branch_repr("Xor"))


def _negated(child: tuple[str, int]) -> tuple[str, int]:
    # a subtree renders to (text, how tightly its top binds); atoms bind like "!"
    text, binds = child
    return (f"!{text}" if binds == 4 else f"!({text})"), 4


def _infix(symbol: str):
    binds = _BINDS[symbol]

    def text(left: tuple[str, int], right: tuple[str, int]) -> tuple[str, int]:
        (ltext, lbinds), (rtext, rbinds) = left, right
        ltext = ltext if lbinds >= binds else f"({ltext})"
        rtext = rtext if rbinds > binds else f"({rtext})"
        return f"{ltext} {symbol} {rtext}", binds

    return text


_RENDER = (lambda a: (a.name, 4), _negated, _infix("&"), _infix("|"), _infix("^"))


def render(formula: Formula) -> str:
    """Formula text that parses back to the identical tree.

    Parentheses are emitted only where precedence or left-associativity
    would otherwise regroup the tree.
    """
    return fold(formula, *_RENDER)[0]


def atoms(formula: Formula) -> tuple[str, ...]:
    """Atom names in first-appearance order, read off the postfix program."""
    return tuple(dict.fromkeys(item.name for item in formula._program if type(item) is Atom))


def desugar_xor(formula: Formula) -> Formula:
    """Rewrite every ``a ^ b`` to ``(a | b) & !(a & b)``, innermost first."""
    return fold(formula, lambda a: a, Not, And, Or)


def render_desugared(formula: Formula) -> str:
    """``render(desugar_xor(formula))``, in one fold that builds no tree:
    :func:`fold`'s default ``xor`` combines the rendered operands as the
    desugared node would."""
    return fold(formula, *_RENDER[:4])[0]
