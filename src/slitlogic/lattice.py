"""Finite bounded lattices carrying an involution.

The carrier structure for the rest of the package: a finite set of named
elements, a partial order in which every pair has a least upper bound (join)
and a greatest lower bound (meet), and a self-inverse unary map that swaps
the least and greatest elements.

The order is stored once, as each element's up-set held as a Python int,
after Aït-Kaci, Boyer, Lincoln & Nasr, "Efficient implementation of lattice
operations" (ACM TOPLAS 11(1), 1989). A build takes Kahn's topological order
of the listed pairs (Kahn, "Topological sorting of large networks", CACM
5(11), 1962) and walks it once each way: an up-set is the element's bit
and its upper neighbours' up-sets, a down-set dually, so the transitive
closure is one OR per listed pair. The upper bounds of y and z have a
least member exactly when they form that member's up-set (Birkhoff,
*Lattice Theory*), so the join of y and z is the element whose up-set is
``up[y] & up[z]``, found in a dict keyed by up-set, and the pair has no
least upper bound when no element has that up-set; meets look up the
intersection of the down-sets. Join and meet are not stored: each query is
one such lookup. A finite order with a least element in which every pair
has a join is a lattice, so a build checks the joins alone: O(n^2)
operations on n-bit integers, at most a quarter of a second at the cap of
:data:`MAX_ELEMENTS` elements. It keeps only O(n) ints: the up-sets, the
down-sets and the two dicts. Instances are immutable and safe to share
between threads.

:func:`verify_axioms` audits a hand-built ``Lattice`` with a walk over the
pairs that looks up both bounds, so it too takes O(n^2) operations on n-bit
integers.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress, repeat
from typing import Iterable, Iterator, Sequence

from .errors import SlitlogicError, _shown

__all__ = [
    "MAX_ELEMENTS",
    "MAX_FILE_BYTES",
    "Lattice",
    "LawViolation",
    "build_from_order",
    "builtin",
    "verify_axioms",
    "from_dict",
    "load",
    "LatticeError",
    "NotAPartialOrder",
    "NoUniqueBound",
    "BadInvolution",
    "UnknownElement",
    "UnsupportedFamily",
]


# The most elements a lattice may have, from a file or a builtin family.
MAX_ELEMENTS = 1024

# The most bytes a lattice file may have, so that /dev/zero is refused; the
# full order of chain:1023, all 523 776 pairs, is 9.35 MB with short names.
MAX_FILE_BYTES = 64 << 20


class LatticeError(SlitlogicError, ValueError):
    """Base class for lattice construction, lookup and file failures."""


class NotAPartialOrder(LatticeError):
    """The declared order has a cycle or breaks antisymmetry."""


class NoUniqueBound(LatticeError):
    """Some pair lacks a least upper or greatest lower bound."""


class BadInvolution(LatticeError):
    """The involution is not a self-inverse total map swapping the extremes."""


class UnknownElement(LatticeError):
    """Reference to an element name the lattice does not contain."""


class UnsupportedFamily(LatticeError):
    """Unknown built-in lattice family name."""


@dataclass(frozen=True)
class LawViolation:
    """A failed lattice law together with the witnessing elements."""

    law: str
    elements: tuple[str, ...]
    message: str

    def __str__(self) -> str:
        return f"{self.law} at ({', '.join(self.elements)}): {self.message}"


@dataclass(frozen=True)
class Lattice:
    """A finite bounded lattice with involution.

    ``up[i]``, element ``i``'s up-set, has bit ``j`` set when element ``i``
    lies below element ``j``; the involution stores element indices. Join and
    meet look up the element whose up-set (down-set) is the intersection of
    the pair's; the down-sets and the lookup dicts are kept from the build,
    or derived from ``up`` when first needed. Use :func:`build_from_order` or
    :func:`builtin` for validated instances; hand-assembled ones can be
    audited with :func:`verify_axioms`, and on them a pair without a bound
    raises :class:`NoUniqueBound`.
    """

    elements: tuple[str, ...]
    up: tuple[int, ...]
    involution: tuple[int, ...]
    bottom: str
    top: str
    # name -> position; the first occurrence wins, as with tuple.index
    _positions: dict[str, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        positions: dict[str, int] = {}
        for i, e in enumerate(self.elements):
            positions.setdefault(e, i)
        object.__setattr__(self, "_positions", positions)

    @cached_property
    def _down(self) -> list[int]:
        return _down_sets(self.up)

    @cached_property
    def _by_up(self) -> dict[int, int]:
        return {u: i for i, u in enumerate(self.up)}

    @cached_property
    def _by_down(self) -> dict[int, int]:
        return {d: i for i, d in enumerate(self._down)}

    def index(self, element: str) -> int:
        try:
            return self._positions[element]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            raise UnknownElement(f"{element!r} is not an element of this lattice") from None

    def join(self, y: str, z: str) -> str:
        k = self._by_up.get(self.up[self.index(y)] & self.up[self.index(z)])
        if k is None:
            raise NoUniqueBound(f"no least upper bound for ({y}, {z})")
        return self.elements[k]

    def meet(self, y: str, z: str) -> str:
        k = self._by_down.get(self._down[self.index(y)] & self._down[self.index(z)])
        if k is None:
            raise NoUniqueBound(f"no greatest lower bound for ({y}, {z})")
        return self.elements[k]

    def involute(self, y: str) -> str:
        return self.elements[self.involution[self.index(y)]]

    def non_extremes(self) -> tuple[str, ...]:
        return tuple(e for e in self.elements if e != self.bottom and e != self.top)

    def cover_pairs(self) -> list[tuple[str, str]]:
        """The covering pairs only (the Hasse diagram edges), in (i, j)
        order: j covers i when i lies strictly below j and no element lies
        strictly between, that is when i's up-set and j's down-set share
        exactly the two bits i and j."""
        n, down = len(self.up), self._down
        return [
            (self.elements[i], self.elements[j])
            for i, up_i in enumerate(self.up)
            for j in _members(up_i, n)
            if (up_i & down[j]).bit_count() == 2
        ]

    def involution_pairs(self) -> list[tuple[str, str]]:
        """Each complement pair once, fixed points as (y, y)."""
        return [
            (self.elements[i], self.elements[j])
            for i, j in enumerate(self.involution)
            if i <= j
        ]

    def to_dict(self) -> dict:
        return {
            "elements": list(self.elements),
            "order": [list(p) for p in self.cover_pairs()],
            "involution": [list(p) for p in self.involution_pairs()],
        }


def _down_sets(up: Sequence[int]) -> list[int]:
    """The down-sets of the order whose up-sets are ``up``: each up-set is
    written as a row of binary digits, and each column read back as an int."""
    n = len(up)
    rows = [format(u, f"0{n}b")[::-1] for u in up]
    return [int("".join(column)[::-1], 2) for column in zip(*rows)]


def _members(bits: int, n: int) -> Iterator[int]:
    """The positions of the set bits of ``bits``, an int below 2^n, in
    ascending order."""
    return compress(range(n), map("1".__eq__, format(bits, f"0{n}b")[::-1]))


def _missing_bounds(
    up: Sequence[int], down: Sequence[int], by_up: dict[int, int], by_down: dict[int, int]
) -> Iterator[tuple[int, int, str]]:
    """The pairs (i, j > i) without a least upper or a greatest lower bound,
    in that order and the join before the meet, as (i, j, the bound that is
    missing). The upper bounds of i and j have a least member k exactly when
    they are k's up-set, so the join is a lookup of that set in ``by_up``;
    meets dually. No pair (i, i) can miss, since up[i] is a key itself, and
    the pairs (j, i) give the same intersections."""
    for i, (up_i, down_i) in enumerate(zip(up, down)):
        for j in range(i + 1, len(up)):
            if up_i & up[j] not in by_up:
                yield i, j, "least upper bound"
            if down_i & down[j] not in by_down:
                yield i, j, "greatest lower bound"


def _refuse_cycle(names: Sequence[str], above: Sequence[list[int]]) -> None:
    """Raise :class:`NotAPartialOrder` for an order with a cycle, naming the
    first pair (i, j > i) of elements below each other: the closure is a
    Warshall pass over the up-sets, which only a refused input pays for."""
    n = len(names)
    up = [1 << i for i in range(n)]
    for i, js in enumerate(above):
        for j in js:
            up[i] |= 1 << j
    # what lies above k lies above all below k
    for k in range(n):
        bit, above_k = 1 << k, up[k]
        for i in range(n):
            if up[i] & bit:
                up[i] |= above_k
    down = _down_sets(up)
    # An i below each other with some j < i would have raised at j, so the
    # first i to raise has only partners j > i: its lowest partner is the
    # pair that a scan over (i, j > i) names first.
    for i in range(n):
        both = (up[i] & down[i]) ^ (1 << i)
        if both:
            j = (both & -both).bit_length() - 1
            raise NotAPartialOrder(
                f"{names[i]!r} and {names[j]!r} are below each other"
            )


def build_from_order(
    elements: Sequence[str],
    order_pairs: Iterable[Sequence[str]],
    involution_pairs: Iterable[Sequence[str]],
) -> Lattice:
    """Build a validated lattice from an order relation and complement pairs.

    ``order_pairs`` lists (lesser, greater) pairs; either the covering
    relation or any subset of the full order works, the transitive closure
    is taken internally. ``involution_pairs`` must mention every element in
    exactly one pair (fixed points as (y, y)).

    The closure walks Kahn's topological order of the pairs, one OR per
    pair; only pairs with a cycle, which have no such order, pay for a
    Warshall closure. An order with a least element is accepted on its joins
    alone, since the meet of a pair is then the join of its lower bounds
    (Davey & Priestley, *Introduction to Lattices and Order*, ch. 2).

    Raises :class:`NotAPartialOrder`, :class:`NoUniqueBound`, or
    :class:`BadInvolution` rather than returning a structure that breaks a
    lattice invariant.
    """
    names = tuple(elements)
    if not names:
        raise LatticeError("element set must be nonempty")
    n = len(names)
    if n > MAX_ELEMENTS:
        raise LatticeError(f"the lattice has {n} elements, more than the {MAX_ELEMENTS} allowed")
    if len(set(names)) != n:
        raise LatticeError("duplicate element names")
    pos = {e: i for i, e in enumerate(names)}

    # the listed upper neighbours of each element, and how many lower ones;
    # a pair (y, y) says only that y lies below itself
    above: list[list[int]] = [[] for _ in range(n)]
    indegree = [0] * n
    for lesser, greater in order_pairs:
        try:
            i, j = pos[lesser], pos[greater]
        except KeyError as exc:
            raise UnknownElement(f"order pair mentions unknown element {exc.args[0]!r}") from None
        if i != j:
            above[i].append(j)
            indegree[j] += 1

    # Kahn's topological order, walked as it grows: an element is ranked
    # once every element listed below it is, and its down-set, complete by
    # then, is passed to its upper neighbours. The up-sets are gathered
    # walking the order back down. down[i] (up[i]) holds bit j when element
    # j lies below (above) element i.
    down = [1 << i for i in range(n)]
    ranked = [i for i, d in enumerate(indegree) if not d]
    for i in ranked:
        d = down[i]
        for j in above[i]:
            down[j] |= d
            indegree[j] -= 1
            if not indegree[j]:
                ranked.append(j)
    if len(ranked) < n:
        _refuse_cycle(names, above)
    up = [0] * n
    for i in reversed(ranked):
        u = 1 << i
        for k in above[i]:
            u |= up[k]
        up[i] = u

    # a least element and every join: a lattice. Else the scan of both
    # bounds names the first pair (i, j > i) without one, join before meet.
    full = (1 << n) - 1
    by_up = {u: i for i, u in enumerate(up)}
    by_down = {d: i for i, d in enumerate(down)}
    has = by_up.__contains__
    if full not in by_up or not all(
        all(map(has, map(up_i.__and__, up[i + 1:]))) for i, up_i in enumerate(up)
    ):
        for i, j, what in _missing_bounds(up, down, by_up, by_down):
            raise NoUniqueBound(f"no {what} for ({names[i]}, {names[j]})")

    # Every pair has a join and a meet, so the order has one least and one
    # greatest element: the one whose up-set, and the one whose down-set,
    # holds every element.
    bottom, top = by_up[full], by_down[full]

    inv: dict[int, int] = {}
    for y, z in involution_pairs:
        if y not in pos or z not in pos:
            raise BadInvolution(f"involution pair ({y}, {z}) mentions unknown element")
        yi, zi = pos[y], pos[z]
        if inv.get(yi, zi) != zi or inv.get(zi, yi) != yi:
            raise BadInvolution(f"element {y!r} or {z!r} appears in two involution pairs")
        inv[yi] = zi
        inv[zi] = yi
    missing = [names[i] for i in range(n) if i not in inv]
    if missing:
        raise BadInvolution(f"involution does not cover {', '.join(missing)}")
    if inv[bottom] != top:
        raise BadInvolution(
            f"involution must swap {names[bottom]!r} and {names[top]!r}"
        )

    lat = Lattice(
        elements=names,
        up=tuple(up),
        involution=tuple(inv[i] for i in range(n)),
        bottom=names[bottom],
        top=names[top],
    )
    # the bound check built what join and meet look up: keep it, so that no
    # query derives it again from ``up``
    vars(lat).update(_down=down, _by_up=by_up, _by_down=by_down)
    return lat


_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _boolean(n: int) -> Lattice:
    full = (1 << n) - 1

    def members(mask: int) -> list[int]:
        return [i for i in range(n) if mask >> i & 1]

    masks = sorted(range(1 << n), key=lambda m: (m.bit_count(), members(m)))
    name = {m: "".join(_LETTERS[i] for i in members(m)) for m in masks}
    name[0], name[full] = "0", "1"
    # the covers only: a subset lies below itself plus one more member
    order = [(name[m], name[m | 1 << i]) for m in masks for i in range(n) if not m >> i & 1]
    seen: set[int] = set()
    involution = []
    for m in masks:
        if m not in seen:
            seen.update((m, full ^ m))
            involution.append((name[m], name[full ^ m]))
    return build_from_order([name[m] for m in masks], order, involution)


def _chain(n: int) -> Lattice:
    names = ["0"] + [f"m{i}" for i in range(1, n)] + ["1"]
    order = [(names[i], names[i + 1]) for i in range(n)]
    involution = [(names[k], names[n - k]) for k in range(n // 2 + 1)]
    return build_from_order(names, order, involution)


def _lantern(n: int) -> Lattice:
    names = ["0"]
    involution = [("0", "1")]
    order = []
    for i in range(1, n + 1):
        a, b = f"a{i}", f"b{i}"
        names.extend([a, b])
        involution.append((a, b))
        order.extend([("0", a), (a, "1"), ("0", b), (b, "1")])
    names.append("1")
    return build_from_order(names, order, involution)


_FAMILIES = {
    # family: (builder, element count; saturated above the cap for boolean)
    "boolean": (_boolean, lambda n: 1 << min(n, MAX_ELEMENTS.bit_length())),
    "chain": (_chain, lambda n: n + 1),
    "lantern": (_lantern, lambda n: 2 * n + 2),
}


def builtin(family: str, n: int) -> Lattice:
    """Construct a stock lattice: ``boolean`` (powerset with complement),
    ``chain`` (linear order of n+1 elements, order-reversing involution), or
    ``lantern`` (bottom, top, and n incomparable complement pairs). A size
    that would give more than :data:`MAX_ELEMENTS` elements is refused
    before any work."""
    if n < 1:
        raise LatticeError("size parameter must be >= 1")
    if family not in _FAMILIES:
        raise UnsupportedFamily(f"no builtin lattice family {family!r}")
    make, size = _FAMILIES[family]
    if size(n) > MAX_ELEMENTS:
        raise LatticeError(f"{family}({_shown(n)}) has more than the {MAX_ELEMENTS} elements allowed")
    return make(n)


def _shape_violations(lat: Lattice) -> list[LawViolation]:
    bad: list[LawViolation] = []
    n = len(lat.elements)
    if n == 0:
        return [LawViolation("malformed", (), "empty element set")]
    if len(set(lat.elements)) != n:
        bad.append(LawViolation("malformed", lat.elements, "duplicate element names"))
    if len(lat.up) != n or any(not isinstance(u, int) or not 0 <= u < 1 << n for u in lat.up):
        bad.append(LawViolation("malformed", (), "up-sets are not one int in [0, 2^n) per element"))
    # a number in range that is no int, such as 1.0, indexes no tuple
    if len(lat.involution) != n or not all(isinstance(e, int) and 0 <= e < n for e in lat.involution):
        bad.append(LawViolation("malformed", (), "involution is not a total map on the elements"))
    for label, el in (("bottom", lat.bottom), ("top", lat.top)):
        if el not in lat.elements:
            bad.append(LawViolation("malformed", (el,), f"{label} is not an element"))
    return bad


def verify_axioms(lat: Lattice) -> list[LawViolation]:
    """Check every lattice law on the stored order; report, never raise.

    Covers the order laws, read off the up-sets and down-sets as bits; that
    each pair (i, j > i) has a least upper and a greatest lower bound, which
    holds exactly when some element's up-set (down-set) is the intersection
    of the pair's; boundedness; and the involution laws. Join and meet are
    looked up from the order, so they commute by construction, and
    idempotence, absorption and associativity follow from these (Birkhoff,
    *Lattice Theory*): they can fail only beside a violation already
    reported, and are not checked again. An empty result means a bounded
    lattice with involution, and whatever :func:`build_from_order`,
    :func:`builtin` or :func:`load` returns passes; this is the auditor for a
    ``Lattice`` assembled by hand.
    """
    out = _shape_violations(lat)
    if out:
        return out

    names, up, down = lat.elements, lat.up, lat._down
    n = len(names)

    for i in range(n):
        if not up[i] >> i & 1:
            out.append(LawViolation("reflexivity", (names[i],), "element is not below itself"))
    for i in range(n):
        # the elements j > i both below and above i
        for j in _members(up[i] & down[i] & -(2 << i), n):
            out.append(LawViolation(
                "antisymmetry", (names[i], names[j]), "distinct elements below each other"))
    for i in range(n):
        up_i = up[i]
        for j in _members(up_i, n):
            if missing := up[j] & ~up_i:
                for k in _members(missing, n):
                    out.append(LawViolation(
                        "transitivity", (names[i], names[j], names[k]),
                        "chain does not close"))

    out += [LawViolation("no-unique-bound", (names[i], names[j]), f"pair has no {what}")
            for i, j, what in _missing_bounds(up, down, lat._by_up, lat._by_down)]

    b, t = lat.index(lat.bottom), lat.index(lat.top)
    for i in range(n):
        if not up[b] >> i & 1:
            out.append(LawViolation("bottom-least", (names[i],), "element is not above the bottom"))
        if not up[i] >> t & 1:
            out.append(LawViolation("top-greatest", (names[i],), "element is not below the top"))

    inv = lat.involution
    for i in range(n):
        if inv[inv[i]] != i:
            out.append(LawViolation(
                "involution-self-inverse", (names[i],),
                f"double application gives {names[inv[inv[i]]]}"))
    if inv[b] != t:
        out.append(LawViolation("involution-extremes", (lat.bottom,), "bottom does not map to top"))
    if inv[t] != b:
        out.append(LawViolation("involution-extremes", (lat.top,), "top does not map to bottom"))

    return out


def from_dict(data: dict) -> Lattice:
    """Build a lattice from the file format: keys ``elements`` (list of
    strings), ``order`` (list of [lesser, greater]), ``involution`` (list of
    [y, complement])."""
    if not isinstance(data, dict):
        raise LatticeError("lattice description must be an object")
    for key in ("elements", "order", "involution"):
        if key not in data:
            raise LatticeError(f"lattice description is missing {key!r}")
        if not isinstance(data[key], list):
            raise LatticeError(f"lattice description field {key!r} must be a list")
    if not all(map(isinstance, data["elements"], repeat(str))):
        raise LatticeError("lattice description field 'elements' must list strings")
    for key in ("order", "involution"):
        # whole-list passes: every entry a list, of length 2, of names
        pairs = data[key]
        if not (all(map(isinstance, pairs, repeat((list, tuple))))
                and all(map((2).__eq__, map(len, pairs)))
                and all(map(isinstance, chain.from_iterable(pairs), repeat(str)))):
            raise LatticeError(f"{key!r} entries must be 2-element lists of element names")
    return build_from_order(data["elements"], data["order"], data["involution"])


def load(path: str) -> Lattice:
    with open(path, "rb") as fh:
        # a read allocates its whole size up front, 64 MiB at the cap, so a
        # regular file is read to its size; /dev/zero and pipes report 0
        size = os.fstat(fh.fileno()).st_size or MAX_FILE_BYTES
        raw = fh.read(min(size, MAX_FILE_BYTES) + 1)
    if len(raw) > MAX_FILE_BYTES:
        raise LatticeError(f"the lattice file has more than the {MAX_FILE_BYTES} bytes allowed")
    try:
        data = json.loads(raw.decode("utf-8"))
    except RecursionError:
        raise LatticeError("lattice file nests too deeply to read") from None
    except ValueError as exc:  # bad JSON or UTF-8, or an integer too long
        raise LatticeError(str(exc)) from exc
    return from_dict(data)
