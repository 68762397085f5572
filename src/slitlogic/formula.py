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
from dataclasses import dataclass
from functools import cached_property
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


class _Node:
    """Structural equality, hashing and the dataclass repr, computed from
    the postfix program, so that no tree is too deep for them."""

    __slots__ = ()

    @cached_property
    def _program(self) -> list:
        """The tree in postfix order: its Atom nodes, and the classes Not,
        And, Or and Xor for the nodes above them. Built by one stack walk
        the first time the tree is folded, and kept on its root."""
        out: list = []
        todo: list = [self]
        while todo:
            item = todo.pop()
            kind = type(item)
            if kind is Atom:
                out.append(item)
            elif kind is Not:
                todo += (Not, item.child)
            elif kind in _BINARY_CLASSES:
                todo += (kind, item.right, item.left)
            else:
                # a class, put on the stack under the node's children
                out.append(item)
        return out

    def __eq__(self, other):
        if not isinstance(other, _Node):
            return NotImplemented
        return _postfix(self) == _postfix(other)

    def __hash__(self):
        return hash(tuple(_postfix(self)))

    def __repr__(self):
        return fold(self, *_REPR)


@dataclass(frozen=True, eq=False, repr=False)
class Atom(_Node):
    name: str

    def __post_init__(self):
        if not self.name:
            raise ValueError("atom name must be nonempty")


@dataclass(frozen=True, eq=False, repr=False)
class Not(_Node):
    child: "Formula"


@dataclass(frozen=True, eq=False, repr=False)
class And(_Node):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, eq=False, repr=False)
class Or(_Node):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, eq=False, repr=False)
class Xor(_Node):
    left: "Formula"
    right: "Formula"


Formula = Union[Atom, Not, And, Or, Xor]

_BINARY_CLASSES = (And, Or, Xor)

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
                operands.append(Atom(tok))
                expect_operand = False
            continue
        # an operand has ended: apply the pending operators that bind at least as tightly
        binds = _BINDS[tok] if tok in _BINARY else 0
        while pending and pending[-1] != "(" and _BINDS[pending[-1]] >= binds:
            op = pending.pop()
            if op == "!":
                operands[-1] = Not(operands[-1])
            else:
                right = operands.pop()
                operands[-1] = _BINARY[op](operands[-1], right)
        if tok in _BINARY:
            pending.append(tok)
            expect_operand = True
        elif pending and tok == ")":
            pending.pop()
        elif pending:
            raise ParseError("expected ')'", _offset(text, k))
        elif tok:
            raise ParseError(f"unexpected trailing {tok!r}", _offset(text, k))
    return operands[0]


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
    """Atom names in first-appearance order."""
    seen: dict[str, None] = {}

    def skip(*values) -> None:
        return None

    fold(formula, lambda a: seen.setdefault(a.name), skip, skip, skip, skip)
    return tuple(seen)


def desugar_xor(formula: Formula) -> Formula:
    """Rewrite every ``a ^ b`` to ``(a | b) & !(a & b)``, innermost first."""
    return fold(formula, lambda a: a, Not, And, Or)


def render_desugared(formula: Formula) -> str:
    """``render(desugar_xor(formula))``, in one fold that builds no tree:
    :func:`fold`'s default ``xor`` combines the rendered operands as the
    desugared node would."""
    return fold(formula, *_RENDER[:4])[0]
