"""Every lattice of up to seven elements, each once up to isomorphism: the
brute-force case list for the lattice references.

A lattice is a tuple of up-sets as ints, bit j of ``up[i]`` set when element
i lies below element j, with the bottom at index 0 and the top last.

Every (n+1)-element lattice is an n-element lattice with one new coatom:
removing a coatom c changes no meet of the rest, since two elements other
than c lie above c only if both are the top, so the rest is a finite
meet-semilattice with a top, a lattice. So each level extends the one below
by a new coatom whose strict down-set is a down-set of the old lattice
without its top, keeps each extension that has every join and meet, and
merges isomorphs by a canonical form: the least tuple of up-sets over the
permutations of the elements strictly between bottom and top. The counts,
1, 1, 1, 2, 5, 15, 53 for 1 to 7 elements, are OEIS A006966 (Heitzig &
Reinhold, "Counting finite lattices", *Algebra Universalis* 48, 2002). Up
to 7 elements this takes a fraction of a second; the 222 lattices of 8
elements take seconds, and no test asks for them.
"""

from __future__ import annotations

from functools import cache
from itertools import permutations

# OEIS A006966: the number of lattices on n unlabelled elements, n = 1 to 7
A006966 = (1, 1, 1, 2, 5, 15, 53)


def _bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def down_sets(up: tuple[int, ...]) -> list[int]:
    """The down-sets of the order whose up-sets are ``up``."""
    return [sum(1 << j for j, u in enumerate(up) if u >> i & 1) for i in range(len(up))]


def is_lattice(up: tuple[int, ...]) -> bool:
    """Every pair has a least upper bound and a greatest lower bound: some
    element's up-set (down-set) is the pair's common upper (lower) bounds."""
    downs = down_sets(up)
    ups, lows = set(up), set(downs)
    return all(a & b in ups for a in up for b in up) and all(
        a & b in lows for a in downs for b in downs)


def canonical(up: tuple[int, ...]) -> tuple[int, ...]:
    """The least relabelling of ``up`` that keeps the bottom first and the
    top last: two lattices are isomorphic exactly when these are equal."""
    n = len(up)
    if n <= 2:
        return up
    best = None
    for middle in permutations(range(1, n - 1)):
        order = (0, *middle, n - 1)
        where = {old: new for new, old in enumerate(order)}
        relabelled = tuple(sum(1 << where[j] for j in _bits(up[old])) for old in order)
        if best is None or relabelled < best:
            best = relabelled
    return best


def _extensions(up: tuple[int, ...]):
    """The orders of ``up`` with one new coatom: the old top moves to the
    last index and the coatom takes its place, above a down-set ``below``
    of the old elements other than the top."""
    n = len(up)
    top, down = n - 1, down_sets(up)
    for below in range(1 << top):
        if any(down[i] & ~below for i in _bits(below)):
            continue  # not a down-set
        # the old top's bit moves from n - 1 to n
        moved = [u & ~(1 << top) | (u >> top & 1) << n for u in up[:top]]
        new = [u | (below >> i & 1) << top for i, u in enumerate(moved)]
        yield (*new, 1 << top | 1 << n, 1 << n)


@cache
def lattices(n: int) -> tuple[tuple[int, ...], ...]:
    """The lattices of ``n`` elements, one per isomorphism class, in a fixed
    order."""
    if n == 1:
        return ((1,),)
    found = {canonical(up) for smaller in lattices(n - 1)
             for up in _extensions(smaller) if is_lattice(up)}
    return tuple(sorted(found))


def cover_pairs(up: tuple[int, ...]) -> list[tuple[int, int]]:
    """The pairs (i, j) where j covers i: i lies strictly below j, and no
    element lies strictly between."""
    n, down = len(up), down_sets(up)
    return [(i, j) for i in range(n) for j in _bits(up[i])
            if i != j and (up[i] & down[j]).bit_count() == 2]
