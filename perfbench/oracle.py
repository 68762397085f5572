"""The benchmark's own model of slitlogic's results, written without the engine.

Every workload op carries an expectation computed here: lattice structure
from the family definitions, formula values from a fold over the generator's
own tree, and the paper's closed forms for the no-go and scan verdicts. The
engine under test is never consulted, so a wrong answer from it cannot hide
behind a matching wrong answer from the oracle.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)
UNDEFINED = "undefined"

# ------------------------------------------------------------------ lattices


class LatticeModel:
    """A finite lattice with involution over explicit element names.

    ``leq`` and ``inv`` work on element indices; ``join``, ``meet`` and
    ``inv`` the method work on names, as the CLI does.
    """

    def __init__(self, names, leq, inv):
        self.names = list(names)
        self._pos = {name: i for i, name in enumerate(self.names)}
        self._leq = leq  # leq(i, j) on indices
        self._inv = inv  # inv(i) -> index
        n = len(self.names)
        self.bottom = next(self.names[i] for i in range(n) if all(leq(i, j) for j in range(n)))
        self.top = next(self.names[i] for i in range(n) if all(leq(j, i) for j in range(n)))

    def _bound(self, y, z, upper):
        i, j = self._pos[y], self._pos[z]
        n = len(self.names)
        if upper:
            cands = [k for k in range(n) if self._leq(i, k) and self._leq(j, k)]
            best = [k for k in cands if all(self._leq(k, c) for c in cands)]
        else:
            cands = [k for k in range(n) if self._leq(k, i) and self._leq(k, j)]
            best = [k for k in cands if all(self._leq(c, k) for c in cands)]
        return self.names[best[0]]

    def join(self, y, z):
        return self._bound(y, z, upper=True)

    def meet(self, y, z):
        return self._bound(y, z, upper=False)

    def inv(self, y):
        return self.names[self._inv(self._pos[y])]

    def middles(self):
        return [e for e in self.names if e not in (self.bottom, self.top)]


_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def builtin_model(family: str, n: int) -> LatticeModel:
    """Model of ``builtin:family:n`` with the CLI's documented element names."""
    if family == "boolean":
        full = (1 << n) - 1
        masks = sorted(range(1 << n), key=lambda m: (bin(m).count("1"), [i for i in range(n) if m >> i & 1]))

        def name(m):
            if m == 0:
                return "0"
            if m == full:
                return "1"
            return "".join(_LETTERS[i] for i in range(n) if m >> i & 1)

        return LatticeModel(
            [name(m) for m in masks],
            lambda i, j: masks[i] & ~masks[j] == 0,
            lambda i: masks.index(full & ~masks[i]),
        )
    if family == "chain":
        names = ["0"] + [f"m{i}" for i in range(1, n)] + ["1"]
        return LatticeModel(names, lambda i, j: i <= j, lambda i: n - i)
    if family == "lantern":
        names = ["0"]
        for i in range(1, n + 1):
            names += [f"a{i}", f"b{i}"]
        names.append("1")
        last = len(names) - 1

        def leq(i, j):
            return i == j or i == 0 or j == last

        def inv(i):
            if i in (0, last):
                return last - i
            return i + 1 if i % 2 else i - 1

        return LatticeModel(names, leq, inv)
    raise ValueError(f"unknown family {family!r}")


def structure(family: str, size):
    """Index form of a lattice for a lattice file: (element count, covering
    pairs, involution pairs). Index 0 is the bottom and the last index the
    top. ``chains`` takes a pair (a, b): the product of chains 0..a and
    0..b with the order-reversing involution."""
    if family == "chains":
        a, b = size
        cell = lambda i, j: i * (b + 1) + j  # noqa: E731
        covers = [(cell(i, j), cell(i + 1, j)) for i in range(a) for j in range(b + 1)]
        covers += [(cell(i, j), cell(i, j + 1)) for i in range(a + 1) for j in range(b)]
        inv = [(cell(i, j), cell(a - i, b - j)) for i in range(a + 1) for j in range(b + 1)]
        n = (a + 1) * (b + 1)
    elif family == "lantern":
        n = 2 * size + 2
        covers = [(0, k) for k in range(1, n - 1)] + [(k, n - 1) for k in range(1, n - 1)]
        inv = [(0, n - 1)] + [(k, k + 1) for k in range(1, n - 1, 2)]
    elif family == "boolean":
        n = 1 << size
        covers = [(m, m | 1 << i) for m in range(n) for i in range(size) if not m >> i & 1]
        inv = [(m, (n - 1) ^ m) for m in range(n)]
    else:
        raise ValueError(f"unknown family {family!r}")
    return n, covers, [(y, z) for y, z in inv if y <= z]


# ------------------------------------------------------------------ formulas
# A formula is a tuple: ("atom", name), ("not", child) or (op, left, right)
# with op in "and", "or", "xor". Precedence follows the documented grammar.

_PREC = {"or": 1, "xor": 2, "and": 3, "not": 4, "atom": 4}
_SYMBOL = {"or": "|", "xor": "^", "and": "&"}


def render(f) -> str:
    """Canonical text: parentheses only where the grammar would regroup."""
    kind = f[0]
    if kind == "atom":
        return f[1]
    if kind == "not":
        inner = render(f[1])
        return f"!({inner})" if _PREC[f[1][0]] < 4 else f"!{inner}"
    p = _PREC[kind]
    left, right = render(f[1]), render(f[2])
    if _PREC[f[1][0]] < p:
        left = f"({left})"
    if _PREC[f[2][0]] <= p:
        right = f"({right})"
    return f"{left} {_SYMBOL[kind]} {right}"


def noisy_text(f, rng) -> str:
    """Text that parses to ``f`` but differs from the canonical form:
    random spacing and some redundant parentheses."""
    kind = f[0]
    if kind == "atom":
        text = f[1]
    elif kind == "not":
        text = "!" + _wrap(noisy_text(f[1], rng), _PREC[f[1][0]] < 4 or rng.random() < 0.1)
    else:
        p = _PREC[kind]
        left = _wrap(noisy_text(f[1], rng), _PREC[f[1][0]] < p or rng.random() < 0.1)
        right = _wrap(noisy_text(f[2], rng), _PREC[f[2][0]] <= p or rng.random() < 0.1)
        gap = " " if rng.random() < 0.7 else ""
        text = f"{left}{gap}{_SYMBOL[kind]}{gap}{right}"
    return text


def _wrap(text: str, paren: bool) -> str:
    return f"({text})" if paren else text


def desugar(f):
    """Rewrite a ^ b to (a | b) & !(a & b), innermost first."""
    kind = f[0]
    if kind == "atom":
        return f
    if kind == "not":
        return ("not", desugar(f[1]))
    left, right = desugar(f[1]), desugar(f[2])
    if kind == "xor":
        return ("and", ("or", left, right), ("not", ("and", left, right)))
    return (kind, left, right)


def fold_degrees(f, values):
    """Value under the bounded-sum degree functions, xor read through its
    desugaring. ``values`` maps atom names to Fractions."""
    kind = f[0]
    if kind == "atom":
        return values[f[1]]
    if kind == "not":
        return ONE - fold_degrees(f[1], values)
    s, t = fold_degrees(f[1], values), fold_degrees(f[2], values)
    if kind == "and":
        return max(s + t - ONE, ZERO)
    if kind == "or":
        return min(s + t, ONE)
    either, both = min(s + t, ONE), max(s + t - ONE, ZERO)
    return max(either + (ONE - both) - ONE, ZERO)


def fold_lattice(f, binding, lat: LatticeModel) -> str:
    """The element a formula reduces to under join, meet and involution."""
    kind = f[0]
    if kind == "atom":
        return binding[f[1]]
    if kind == "not":
        return lat.inv(fold_lattice(f[1], binding, lat))
    y, z = fold_lattice(f[1], binding, lat), fold_lattice(f[2], binding, lat)
    if kind == "and":
        return lat.meet(y, z)
    if kind == "or":
        return lat.join(y, z)
    return lat.meet(lat.join(y, z), lat.inv(lat.meet(y, z)))


def atoms_of(f, out=None) -> list:
    out = [] if out is None else out
    if f[0] == "atom":
        if f[1] not in out:
            out.append(f[1])
    else:
        for child in f[1:]:
            atoms_of(child, out)
    return out


def random_tree(rng, connectives: int, atom_names):
    """A random xor-free formula with exactly ``connectives`` connectives."""
    if connectives == 0:
        return ("atom", rng.choice(atom_names))
    if rng.random() < 0.2:
        return ("not", random_tree(rng, connectives - 1, atom_names))
    left = rng.randint(0, connectives - 1)
    return (
        rng.choice(("and", "or")),
        random_tree(rng, left, atom_names),
        random_tree(rng, connectives - 1 - left, atom_names),
    )


def graded_formula(rng, connectives: int, xor_depth: int, atom_names):
    """A formula of ``connectives`` connectives whose top is a left-nested
    chain of ``xor_depth`` xors over equal-sized xor-free operands, so the
    desugared size, and with it the evaluation cost, is set by the grade."""
    parts = xor_depth + 1
    rest = connectives - xor_depth
    sizes = [rest // parts + (1 if k < rest % parts else 0) for k in range(parts)]
    f = random_tree(rng, sizes[0], atom_names)
    for size in sizes[1:]:
        f = ("xor", f, random_tree(rng, size, atom_names))
    return f


def value_text(v) -> str:
    return UNDEFINED if v == UNDEFINED else str(v)


# ---------------------------------------------------------- closed forms


def amplitude_probabilities(a1, a2):
    """(p_or, p1, p2) induced by two (re, im) path amplitudes."""
    (r1, i1), (r2, i2) = a1, a2
    return (((r1 + r2) ** 2 + (i1 + i2) ** 2) / 2, r1 * r1 + i1 * i1, r2 * r2 + i2 * i2)


def interference(p_or, p1, p2) -> Fraction:
    return p_or - p1 / 2 - p2 / 2


def corner_constraint(v1, v2, equal_priors: bool):
    """The constraint the paper's argument breaks at a bivalent pair, or None."""
    if v1 == v2:
        return "C-TRUE" if v1 == ZERO else "C-COLLAPSE"
    return "C-INT" if equal_priors else None


def scan_consistent(n_values: int, equal_priors: bool) -> int:
    """Consistent pairs in an n-value scan: every non-corner pair, plus the
    two mixed corners when equal priors is off."""
    return n_values * n_values - (4 if equal_priors else 2)
