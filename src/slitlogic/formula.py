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
    """Structural equality, hashing and the dataclass repr, computed by
    :func:`fold`, so that no tree is too deep for them."""

    __slots__ = ()

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

_ATOM_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
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
        m = _ATOM_RE.match(text, i)
        if m:
            tokens.append(("atom", m.group(0), i))
            i = m.end()
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", len(text)))
    return tokens


_BINARY = {"&": And, "^": Xor, "|": Or}
_BINDS = {"!": 4, "&": 3, "^": 2, "|": 1}


def parse(text: str) -> Formula:
    """Parse formula text into a tree, or raise :class:`ParseError`.

    One operator-precedence loop over a stack of subtrees and a stack of
    pending operators and parentheses, so nesting depth is bounded by memory.
    """
    operands: list[Formula] = []
    pending: list[str] = []
    expect_operand = True
    for kind, tok, pos in _tokenize(text):
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
        # an operand has ended: apply the pending operators that bind at least as tightly
        binds = _BINDS[kind] if kind in _BINARY else 0
        while pending and pending[-1] != "(" and _BINDS[pending[-1]] >= binds:
            op = pending.pop()
            if op == "!":
                operands[-1] = Not(operands[-1])
            else:
                right = operands.pop()
                operands[-1] = _BINARY[op](operands[-1], right)
        if kind in _BINARY:
            pending.append(kind)
            expect_operand = True
        elif pending and kind == ")":
            pending.pop()
        elif pending:
            raise ParseError("expected ')'", pos)
        elif kind != "end":
            raise ParseError(f"unexpected trailing {tok!r}", pos)
    return operands[0]


def fold(formula: Formula, atom, neg, conj, disj, xor=None):
    """Value a formula bottom-up, left to right, without recursion.

    ``atom`` values each leaf; ``neg``, ``conj``, ``disj`` and ``xor``
    combine the values of a node's children. The default ``xor`` is the
    definition ``conj(disj(y, z), neg(conj(y, z)))``, so each operand of an
    exclusive disjunction is valued once.
    """
    if xor is None:
        def xor(y, z):
            return conj(disj(y, z), neg(conj(y, z)))

    combine = {And: conj, Or: disj, Xor: xor}
    values: list = []
    # nodes still to value, and the class Not or a combiner of the last two
    # values, to apply once the values are there
    todo: list = [formula]
    while todo:
        item = todo.pop()
        kind = type(item)
        if kind is Atom:
            values.append(atom(item))
        elif kind is Not:
            todo += (Not, item.child)
        elif kind in combine:
            todo += (combine[kind], item.right, item.left)
        elif item is Not:
            values[-1] = neg(values[-1])
        else:
            right = values.pop()
            values[-1] = item(values[-1], right)
    return values[0]


def _postfix(formula: Formula) -> list:
    """The tree in postfix order: atom names and node classes. The classes'
    arities make the sequence name exactly one tree."""
    out: list = []

    def mark(kind):
        return lambda *values: out.append(kind)

    fold(formula, lambda a: out.append(a.name), mark(Not), mark(And), mark(Or), mark(Xor))
    return out


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
