"""Lattice construction, builtin families, and the law checker."""

import json
import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import catalogue
from slitlogic import lattice as lattice_module
from slitlogic.lattice import (
    MAX_ELEMENTS,
    MAX_FILE_BYTES,
    BadInvolution,
    Lattice,
    LatticeError,
    LawViolation,
    NoUniqueBound,
    NotAPartialOrder,
    UnknownElement,
    UnsupportedFamily,
    _shape_violations,
    build_from_order,
    builtin,
    from_dict,
    load,
    verify_axioms,
)

DIAMOND_ELEMENTS = ["0", "a", "b", "1"]
DIAMOND_ORDER = [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")]
DIAMOND_INVOLUTION = [("0", "1"), ("a", "b")]


def brute_lub(lat, y, z):
    """Least upper bound recomputed from the order matrix alone."""
    uppers = [w for w in lat.elements if lat.is_leq(y, w) and lat.is_leq(z, w)]
    least = [u for u in uppers if all(lat.is_leq(u, w) for w in uppers)]
    return least[0] if least else None


def brute_glb(lat, y, z):
    lowers = [w for w in lat.elements if lat.is_leq(w, y) and lat.is_leq(w, z)]
    greatest = [u for u in lowers if all(lat.is_leq(w, u) for w in lowers)]
    return greatest[0] if greatest else None


def test_diamond_build():
    lat = build_from_order(DIAMOND_ELEMENTS, DIAMOND_ORDER, DIAMOND_INVOLUTION)
    assert lat.bottom == "0"
    assert lat.top == "1"
    assert lat.join("a", "b") == "1"
    assert lat.meet("a", "b") == "0"
    assert lat.involute("a") == "b"
    assert lat.involute(lat.involute("a")) == "a"
    assert verify_axioms(lat) == []


def test_two_chain_build():
    lat = build_from_order(["0", "1"], [("0", "1")], [("0", "1")])
    # join and meet are boolean or/and
    assert lat.join("0", "1") == "1"
    assert lat.meet("0", "1") == "0"
    assert lat.join("0", "0") == "0"
    assert lat.meet("1", "1") == "1"
    # declared top first and bottom last: the declaration order need not
    # list lesser elements first
    flipped = build_from_order(["1", "0"], [("0", "1")], [("1", "0")])
    assert (flipped.bottom, flipped.top) == ("0", "1")
    names = flipped.elements
    assert [[flipped.join(y, z) for z in names] for y in names] == [["1", "1"], ["1", "0"]]
    assert [[flipped.meet(y, z) for z in names] for y in names] == [["1", "0"], ["0", "0"]]
    assert flipped.involution == (1, 0)
    # one element is both the bottom and the top, and its own complement
    point = build_from_order(["e"], [], [("e", "e")])
    assert point.bottom == point.top == "e"
    assert (point.join("e", "e"), point.meet("e", "e"), point.involution) == ("e", "e", (0,))
    assert verify_axioms(flipped) == verify_axioms(point) == []


def test_fixed_point_involution_is_accepted():
    # a linear order with an involution fixing the two middles: the lattice
    # laws hold (the constructor only demands self-inversion and swapped
    # extremes); the degree-function incompatibility surfaces later in the
    # valuational axiom check.
    lat = build_from_order(
        ["0", "a", "b", "1"],
        [("0", "a"), ("a", "b"), ("b", "1")],
        [("0", "1"), ("a", "a"), ("b", "b")],
    )
    assert lat.involute("a") == "a"
    assert verify_axioms(lat) == []


def test_identity_laws_on_builtins():
    for lat in (builtin("boolean", 2), builtin("chain", 3), builtin("lantern", 2)):
        for y in lat.elements:
            assert lat.join(y, lat.bottom) == y
            assert lat.meet(y, lat.top) == y


def test_unknown_element_queries():
    lat = builtin("boolean", 2)
    with pytest.raises(UnknownElement):
        lat.join("a", "zz")
    with pytest.raises(UnknownElement):
        lat.involute("zz")


def test_not_a_partial_order():
    with pytest.raises(NotAPartialOrder):
        build_from_order(["a", "b"], [("a", "b"), ("b", "a")], [("a", "b")])
    # a longer cycle collapses the same way after closure
    with pytest.raises(NotAPartialOrder):
        build_from_order(
            ["a", "b", "c"],
            [("a", "b"), ("b", "c"), ("c", "a")],
            [("a", "a"), ("b", "b"), ("c", "c")],
        )


# posets that are not lattices, each with the message for its first pair
# without a bound; the pairs are scanned as (i, j >= i), join before meet
_NO_UNIQUE_BOUND_CASES = [
    # two incomparable minimal upper bounds for (x, y)
    (
        ["0", "x", "y", "t1", "t2"],
        [("0", "x"), ("0", "y"), ("x", "t1"), ("y", "t1"), ("x", "t2"), ("y", "t2")],
        [("0", "t1"), ("x", "y"), ("t2", "t2")],
        "no least upper bound for (x, y)",
    ),
    # two maximal elements: (a, b) has no upper bound at all
    (["0", "a", "b"], [("0", "a"), ("0", "b")], [("0", "a"), ("b", "b")],
     "no least upper bound for (a, b)"),
    # two minimal elements: (a, b) has a join but no lower bound at all;
    # every pair has a join, so only the missing least element shows it
    (["a", "b", "1"], [("a", "1"), ("b", "1")], [("a", "1"), ("b", "b")],
     "no greatest lower bound for (a, b)"),
]


def test_no_unique_bound_at_build():
    for elements, order, involution, message in _NO_UNIQUE_BOUND_CASES:
        with pytest.raises(NoUniqueBound) as raised:
            build_from_order(elements, order, involution)
        assert str(raised.value) == message


def test_bad_involution_variants():
    with pytest.raises(BadInvolution):  # does not cover every element
        build_from_order(DIAMOND_ELEMENTS, DIAMOND_ORDER, [("0", "1")])
    with pytest.raises(BadInvolution):  # element in two pairs
        build_from_order(
            DIAMOND_ELEMENTS, DIAMOND_ORDER, [("0", "1"), ("a", "b"), ("a", "1")]
        )
    with pytest.raises(BadInvolution):  # extremes not swapped
        build_from_order(
            DIAMOND_ELEMENTS, DIAMOND_ORDER, [("0", "0"), ("1", "1"), ("a", "b")]
        )
    with pytest.raises(BadInvolution):  # unknown element
        build_from_order(DIAMOND_ELEMENTS, DIAMOND_ORDER, [("0", "1"), ("a", "zz")])


def test_order_pairs_reference_declared_elements_only():
    with pytest.raises(UnknownElement):
        build_from_order(["a", "b"], [("a", "zz")], [("a", "b")])


def test_builtin_boolean_1_is_two_chain():
    lat = builtin("boolean", 1)
    assert lat.elements == ("0", "1")
    assert lat.join("0", "1") == "1"
    assert lat.involute("0") == "1"


def test_builtin_boolean_2_is_diamond_with_complement():
    lat = builtin("boolean", 2)
    assert lat.elements == ("0", "a", "b", "1")
    assert lat.involute("a") == "b"
    assert lat.join("a", "b") == "1"
    assert lat.meet("a", "b") == "0"


def test_builtin_chain_names_and_involution():
    lat = builtin("chain", 4)
    assert lat.elements == ("0", "m1", "m2", "m3", "1")
    # order-reversing involution pairs elements symmetric about the middle
    assert lat.involute("m1") == "m3"
    assert lat.involute("m2") == "m2"
    assert verify_axioms(lat) == []


def test_builtin_lantern_2():
    lat = builtin("lantern", 2)
    assert len(lat.elements) == 6
    assert verify_axioms(lat) == []
    # atoms of distinct pairs join to the top, meet at the bottom
    assert lat.join("a1", "a2") == "1"
    assert lat.join("a1", "b2") == "1"
    assert lat.meet("a1", "a2") == "0"
    # complementary pairs
    assert lat.involute("a1") == "b1"
    assert lat.join("a1", "b1") == "1"
    assert lat.meet("a1", "b1") == "0"


def test_builtin_rejects_unknown_family_and_bad_size():
    with pytest.raises(UnsupportedFamily):
        builtin("pentagon", 1)
    with pytest.raises(ValueError):
        builtin("chain", 0)


@pytest.mark.parametrize(
    "family,n",
    [("boolean", 1), ("boolean", 2), ("boolean", 3), ("chain", 1), ("chain", 4), ("lantern", 1), ("lantern", 3)],
)
def test_tables_match_brute_force_bounds(family, n):
    lat = builtin(family, n)
    for y in lat.elements:
        for z in lat.elements:
            assert lat.join(y, z) == brute_lub(lat, y, z)
            assert lat.meet(y, z) == brute_glb(lat, y, z)


@pytest.mark.parametrize(
    "family,n",
    [("boolean", 2), ("boolean", 3), ("chain", 5), ("lantern", 3)],
)
def test_algebraic_laws_exhaustive(family, n):
    lat = builtin(family, n)
    els = lat.elements
    for y in els:
        assert lat.involute(lat.involute(y)) == y
        for z in els:
            assert lat.join(y, z) == lat.join(z, y)
            assert lat.meet(y, z) == lat.meet(z, y)
            assert lat.join(y, lat.meet(y, z)) == y
            assert lat.meet(y, lat.join(y, z)) == y
    for x in els:
        for y in els:
            for z in els:
                assert lat.join(lat.join(x, y), z) == lat.join(x, lat.join(y, z))
                assert lat.meet(lat.meet(x, y), z) == lat.meet(x, lat.meet(y, z))
    assert lat.involute(lat.bottom) == lat.top


@pytest.mark.parametrize(
    "family,n",
    [("boolean", 1), ("boolean", 3), ("chain", 2), ("chain", 6), ("lantern", 2)],
)
def test_round_trip_through_extracted_order(family, n):
    lat = builtin(family, n)
    names = lat.elements
    order = [(y, z) for y in names for z in names if lat.is_leq(y, z)]
    rebuilt = build_from_order(names, order, lat.involution_pairs())
    assert rebuilt == lat
    assert [[rebuilt.join(y, z) for z in names] for y in names] == [
        [lat.join(y, z) for z in names] for y in names]
    # covers alone carry the same information
    from_covers = build_from_order(lat.elements, lat.cover_pairs(), lat.involution_pairs())
    assert from_covers == lat


def test_cover_pairs_are_the_hasse_edges():
    assert builtin("boolean", 2).cover_pairs() == [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")]
    for family, n in (("boolean", 3), ("chain", 4), ("lantern", 3)):
        lat = builtin(family, n)
        assert lat.cover_pairs() == reference_cover_pairs(lat)


def test_verify_axioms_on_clean_builtins():
    assert verify_axioms(builtin("boolean", 3)) == []
    assert verify_axioms(builtin("chain", 4)) == []


def test_chain_4_brute_force_all_laws():
    # independent re-derivation of every law over the 5 elements
    lat = builtin("chain", 4)
    els = lat.elements
    for y in els:
        for z in els:
            assert lat.is_leq(y, z) or lat.is_leq(z, y)  # total order
            assert lat.join(y, z) == (z if lat.is_leq(y, z) else y)
            assert lat.meet(y, z) == (y if lat.is_leq(y, z) else z)
    assert verify_axioms(lat) == []


def test_verify_reports_missing_bound():
    # hand-built structure over the poset 0 < x, 0 < y: the pair (x, y) has
    # no least upper bound
    elements = ("0", "x", "y")
    up = (0b111, 0b010, 0b100)  # bit j of up[i]: element i lies below element j
    lat = Lattice(
        elements=elements,
        up=up,
        involution=(0, 2, 1),
        bottom="0",
        top="x",
    )
    found = [v for v in verify_axioms(lat) if v.law == "no-unique-bound"]
    assert len(found) == 1
    assert found[0].elements == ("x", "y")


def test_a_pair_without_a_bound_raises_on_a_hand_built_lattice():
    # 0 < x and 0 < y: (x, y) has a meet and no join
    lat = Lattice(("0", "x", "y"), (0b111, 0b010, 0b100), (0, 2, 1), "0", "x")
    assert lat.meet("x", "y") == "0"
    with pytest.raises(NoUniqueBound, match=r"^no least upper bound for \(x, y\)$"):
        lat.join("x", "y")
    # x < 1 and y < 1: (x, y) has a join and no meet
    vee = Lattice(("x", "y", "1"), (0b101, 0b110, 0b100), (1, 0, 2), "x", "1")
    assert vee.join("x", "y") == "1"
    with pytest.raises(NoUniqueBound, match=r"^no greatest lower bound for \(x, y\)$"):
        vee.meet("x", "y")


def test_verify_reports_broken_involution():
    lat = builtin("boolean", 2)
    broken = Lattice(
        elements=lat.elements,
        up=lat.up,
        involution=(0, 1, 2, 3),  # identity map: extremes no longer swap
        bottom=lat.bottom,
        top=lat.top,
    )
    laws = {v.law for v in verify_axioms(broken)}
    assert "involution-extremes" in laws


def test_file_round_trip(tmp_path):
    lat = builtin("lantern", 2)
    path = tmp_path / "lantern2.json"
    path.write_text(json.dumps(lat.to_dict()))
    loaded = load(str(path))
    assert loaded == lat


def test_a_lattice_file_is_read_up_to_the_byte_cap(monkeypatch, tmp_path):
    assert MAX_FILE_BYTES == 64 * 2**20
    lat = builtin("lantern", 2)
    path = tmp_path / "lantern2.json"
    path.write_text(json.dumps(lat.to_dict()))
    size = path.stat().st_size
    monkeypatch.setattr(lattice_module, "MAX_FILE_BYTES", size)
    assert load(str(path)) == lat
    monkeypatch.setattr(lattice_module, "MAX_FILE_BYTES", size - 1)
    for endless in (False, True):
        # a file without end reports no size and is read up to the cap
        with pytest.raises(LatticeError, match=rf"^the lattice file has more than the {size - 1} bytes allowed$"):
            load("/dev/zero" if endless else str(path))


def test_from_dict_validates_shape():
    with pytest.raises(ValueError):
        from_dict({"elements": ["a"]})
    with pytest.raises(ValueError):
        from_dict({"elements": ["a"], "order": [["a"]], "involution": []})
    with pytest.raises(ValueError):
        from_dict([1, 2])


def test_duplicate_and_empty_elements_rejected():
    with pytest.raises(ValueError):
        build_from_order([], [], [])
    with pytest.raises(ValueError):
        build_from_order(["a", "a"], [], [("a", "a")])


def test_verify_reports_malformed_shape():
    lat = Lattice(
        elements=("0", "1"),
        up=(1,),
        involution=(0,),
        bottom="0",
        top="1",
    )
    laws = {v.law for v in verify_axioms(lat)}
    assert laws == {"malformed"}
    # one up-set per element, but one of them names a third element
    chain = builtin("chain", 1)
    wide = Lattice(chain.elements, (0b11, 0b110), chain.involution, chain.bottom, chain.top)
    assert [str(v) for v in verify_axioms(wide)] == [
        "malformed at (): up-sets are not one int in [0, 2^n) per element"]


@pytest.mark.parametrize("field", ["up", "involution"])
@pytest.mark.parametrize("entry", [1.0, Fraction(1), "1", None])
def test_verify_reports_a_non_int_entry_as_malformed(field, entry):
    lat = builtin("boolean", 1)
    bad = replace(lat, **{field: (getattr(lat, field)[0], entry)})
    assert [v.law for v in verify_axioms(bad)] == ["malformed"]


def test_verify_reports_a_chain_that_does_not_close():
    # 0 < m1 < 1 with the bit "0 lies below 1" cleared: the order is no
    # longer transitive, and the bounds and extremes that rest on it go too
    chain = builtin("chain", 2)
    broken = replace(chain, up=(chain.up[0] & ~0b100, *chain.up[1:]))
    assert [str(v) for v in verify_axioms(broken)] == [
        "transitivity at (0, m1, 1): chain does not close",
        "no-unique-bound at (0, m1): pair has no least upper bound",
        "no-unique-bound at (0, 1): pair has no least upper bound",
        "no-unique-bound at (0, 1): pair has no greatest lower bound",
        "no-unique-bound at (m1, 1): pair has no greatest lower bound",
        "top-greatest at (0): element is not below the top",
        "bottom-least at (1): element is not above the bottom",
    ]


def test_verify_reports_a_bottom_that_is_not_least():
    lat = builtin("boolean", 2)
    assert [str(v) for v in verify_axioms(replace(lat, bottom="a"))] == [
        "bottom-least at (0): element is not above the bottom",
        "bottom-least at (b): element is not above the bottom",
        "involution-extremes at (a): bottom does not map to top",
        "involution-extremes at (1): top does not map to bottom",
    ]


# ------------------------------------------- construction is the law check


def _matching(draw, names):
    """Involution pairs that cover every name once, some of them fixed points."""
    shuffled = draw(st.permutations(names))
    cut = draw(st.integers(0, len(names) // 2))
    return list(zip(shuffled[:cut], shuffled[cut:2 * cut])) + [(y, y) for y in shuffled[2 * cut:]]


@st.composite
def _random_orders(draw):
    """Random relations, most of them no lattice; or, as often, a lattice:
    the subsets of a k-set closed under intersection, plus the whole set."""
    if draw(st.booleans()):
        return draw(_meet_closed_subsets())
    names = [f"e{i}" for i in range(draw(st.integers(1, 8)))]
    pairs = st.tuples(st.sampled_from(names), st.sampled_from(names))
    order = draw(st.lists(pairs, max_size=12))
    involution = _matching(draw, names) if draw(st.booleans()) else draw(st.lists(pairs, max_size=6))
    return names, order, involution, False


@st.composite
def _meet_closed_subsets(draw):
    """Up to 16 subsets of {0, ..., k - 1}, k <= 4, closed under intersection
    and holding the whole set: a lattice. Its elements are relabelled and
    listed, and its cover pairs given, in drawn orders; the involution swaps
    bottom and top and pairs or fixes the rest."""
    full = (1 << draw(st.integers(1, 4))) - 1
    masks = set(draw(st.lists(st.integers(0, full), max_size=10))) | {full}
    while len(meets := {a & b for a in masks for b in masks} | masks) > len(masks):
        masks = meets
    masks = draw(st.permutations(sorted(masks)))
    name = {m: f"e{i}" for i, m in enumerate(draw(st.permutations(masks)))}
    below = {m: [c for c in masks if c != m and c & m == c] for m in masks}
    covers = [(name[c], name[m]) for m in masks for c in below[m]
              if not any(c in below[d] for d in below[m])]
    bottom = min(masks, key=int.bit_count)
    rest = [name[m] for m in masks if m not in (bottom, full)]
    involution = [(name[bottom], name[full]), *_matching(draw, rest)]
    return [name[m] for m in masks], draw(st.permutations(covers)), involution, True


_RELABELLED_SIZES = {"boolean": 4, "chain": 10, "lantern": 8}


@st.composite
def _relabelled_builtins(draw):
    family = draw(st.sampled_from(sorted(_RELABELLED_SIZES)))
    data = builtin(family, draw(st.integers(1, _RELABELLED_SIZES[family]))).to_dict()
    labels = draw(st.permutations([f"x{i}" for i in range(len(data["elements"]))]))
    rename = dict(zip(data["elements"], labels))
    names = draw(st.permutations([rename[e] for e in data["elements"]]))
    order = draw(st.permutations([(rename[y], rename[z]) for y, z in data["order"]]))
    involution = [
        (rename[z], rename[y]) if draw(st.booleans()) else (rename[y], rename[z])
        for y, z in data["involution"]
    ]
    # unchanged, it is a builtin again; else lose an order or involution
    # pair, add an order pair, or pair the elements afresh
    change = draw(st.sampled_from(
        ["none", "none", "drop-order", "drop-involution", "add-order", "rematch"]))
    if change == "drop-order" and order:
        order.pop(draw(st.integers(0, len(order) - 1)))
    elif change == "drop-involution":
        involution.pop(draw(st.integers(0, len(involution) - 1)))
    elif change == "add-order":
        order.append((draw(st.sampled_from(names)), draw(st.sampled_from(names))))
    elif change == "rematch":
        involution = _matching(draw, names)
    return names, order, involution, change == "none"


@settings(max_examples=300)
@given(_random_orders() | _relabelled_builtins())
def test_what_construction_accepts_passes_every_law(spec):
    *arguments, lawful = spec
    try:
        lat = build_from_order(*arguments)
    except LatticeError as exc:
        assert not lawful
        event(f"rejected: {type(exc).__name__}")
        return
    event("accepted")
    assert verify_axioms(lat) == []


# ------------------------------------- the bitset build against the old search


def _lub(leq, i, j):
    """The least upper bound of ``i`` and ``j`` under the boolean matrix
    ``leq``, or None. Over the transposed order, ``tuple(zip(*leq))``, it is
    the greatest lower bound."""
    n = len(leq)
    uppers = [k for k in range(n) if leq[i][k] and leq[j][k]]
    for k in uppers:
        if all(leq[k][u] for u in uppers):
            return k
    return None


def reference_order(names, order_pairs):
    """The order as a boolean matrix: a Warshall closure of the pairs."""
    pos = {e: i for i, e in enumerate(names)}
    n = len(names)
    leq = [[i == j for j in range(n)] for i in range(n)]
    for lesser, greater in order_pairs:
        for name in (lesser, greater):
            if name not in pos:
                raise UnknownElement(f"order pair mentions unknown element {name!r}")
        leq[pos[lesser]][pos[greater]] = True
    for k in range(n):
        for i in range(n):
            if leq[i][k]:
                for j in range(n):
                    if leq[k][j]:
                        leq[i][j] = True
    return leq


def reference_build(elements, order_pairs, involution_pairs):
    """The construction before bitsets: a Warshall closure over a boolean
    matrix and a brute-force bound search per pair, O(n^4) in all. Returns
    the ``Lattice``, whose up-sets are read off the matrix, with the join
    and meet tables that the search found, as element indices."""
    names = tuple(elements)
    if not names:
        raise LatticeError("element set must be nonempty")
    if len(set(names)) != len(names):
        raise LatticeError("duplicate element names")
    pos = {e: i for i, e in enumerate(names)}
    n = len(names)

    leq = reference_order(names, order_pairs)
    for i in range(n):
        for j in range(i + 1, n):
            if leq[i][j] and leq[j][i]:
                raise NotAPartialOrder(f"{names[i]!r} and {names[j]!r} are below each other")

    leq = tuple(tuple(row) for row in leq)
    geq = tuple(zip(*leq))
    join_table = [[0] * n for _ in range(n)]
    meet_table = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            up = _lub(leq, i, j)
            if up is None:
                raise NoUniqueBound(f"no least upper bound for ({names[i]}, {names[j]})")
            down = _lub(geq, i, j)
            if down is None:
                raise NoUniqueBound(f"no greatest lower bound for ({names[i]}, {names[j]})")
            join_table[i][j] = join_table[j][i] = up
            meet_table[i][j] = meet_table[j][i] = down
    bottom = next(i for i in range(n) if all(leq[i][j] for j in range(n)))
    top = next(i for i in range(n) if all(leq[j][i] for j in range(n)))

    inv = {}
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
        raise BadInvolution(f"involution must swap {names[bottom]!r} and {names[top]!r}")
    lat = Lattice(
        elements=names,
        up=tuple(sum(1 << j for j in range(n) if leq[i][j]) for i in range(n)),
        involution=tuple(inv[i] for i in range(n)),
        bottom=names[bottom],
        top=names[top],
    )
    return lat, join_table, meet_table


def reference_cover_pairs(lat):
    """The covering pairs as they were read before bitsets: a triple loop
    over the order matrix, O(n^3)."""
    n = len(lat.elements)
    leq = [[lat.is_leq(y, z) for z in lat.elements] for y in lat.elements]
    covers = []
    for i in range(n):
        for j in range(n):
            if i == j or not leq[i][j]:
                continue
            if any(k != i and k != j and leq[i][k] and leq[k][j] for k in range(n)):
                continue
            covers.append((lat.elements[i], lat.elements[j]))
    return covers


def _outcome(build, arguments):
    """What a build gives: its result and None, or None and the type and
    message of the error it raised."""
    try:
        return build(*arguments), None
    except LatticeError as exc:
        return None, (type(exc), str(exc))


def assert_builds_as_the_reference(arguments):
    """``build_from_order`` and ``reference_build`` give the same error, or
    the same lattice with the same joins, meets, covers and order. Returns
    the error's type and message, or None."""
    expected, error = _outcome(reference_build, arguments)
    built, built_error = _outcome(build_from_order, arguments)
    assert built_error == error
    if error:
        return error
    lat, join_table, meet_table = expected
    assert built == lat
    names = built.elements
    assert [[built.join(y, z) for z in names] for y in names] == [
        [names[k] for k in row] for row in join_table]
    assert [[built.meet(y, z) for z in names] for y in names] == [
        [names[k] for k in row] for row in meet_table]
    assert built.cover_pairs() == reference_cover_pairs(built)
    leq = reference_order(names, arguments[1])
    assert [[built.is_leq(y, z) for z in names] for y in names] == leq
    return None


@settings(max_examples=300)
@given(_random_orders() | _relabelled_builtins())
def test_bitset_build_matches_the_reference(spec):
    *arguments, _ = spec
    error = assert_builds_as_the_reference(arguments)
    event(f"outcome: {error[0].__name__ if error else 'lattice'}")


# --------------------------------------- every lattice of up to 7 elements


def test_the_catalogue_counts_the_lattices_of_oeis_a006966():
    counts = tuple(len(catalogue.lattices(n)) for n in range(1, 8))
    assert counts == catalogue.A006966 == (1, 1, 1, 2, 5, 15, 53)
    for n in range(1, 8):
        for up in catalogue.lattices(n):
            assert catalogue.is_lattice(up)
            assert up[0] == (1 << n) - 1 and up[-1] == 1 << (n - 1)


def _perturbed(up):
    """A catalogue lattice's elements and covering pairs, as indices: as
    they are; then with each cover in turn reversed, listed both ways (a
    cycle of two) or dropped; with the top also listed below the bottom (a
    cycle through every element); and with the bottom removed."""
    covers = catalogue.cover_pairs(up)
    n = len(up)
    elements = list(range(n))
    yield "lattice", elements, covers
    for k, (i, j) in enumerate(covers):
        yield "cover reversed", elements, [*covers[:k], (j, i), *covers[k + 1:]]
        yield "cycle", elements, [*covers, (j, i)]
        yield "cover dropped", elements, covers[:k] + covers[k + 1:]
    if n > 1:
        yield "cycle", elements, [*covers, (n - 1, 0)]
    yield "bottom removed", elements[1:], [c for c in covers if 0 not in c]


def _named(rng, n, elements, covers):
    """build_from_order's arguments: fresh names, the elements, the covers
    and the involution pairs each shuffled. The involution swaps bottom and
    top and pairs or fixes the rest; a pair that names a removed element is
    left out."""
    names = [f"{rng.choice('uvwxyz')}{k}" for k in rng.sample(range(100), n)]
    middle = rng.sample(range(1, n - 1), n - 2) if n > 2 else []
    cut = rng.randint(0, len(middle) // 2)
    involution = [(0, n - 1), *zip(middle[:cut], middle[cut:2 * cut])]
    involution += [(k, k) for k in middle[2 * cut:]]
    kept = set(elements)
    return (
        [names[k] for k in rng.sample(elements, len(elements))],
        [(names[i], names[j]) for i, j in rng.sample(covers, len(covers))],
        [(names[y], names[z]) if rng.random() < 0.5 else (names[z], names[y])
         for y, z in rng.sample(involution, len(involution)) if {y, z} <= kept],
    )


def _kind(error):
    """An outcome's kind: "lattice", the error's type, or which bound."""
    if error is None:
        return "lattice"
    return error[1][:error[1].index(" for ")] if error[0] is NoUniqueBound else error[0].__name__


@pytest.mark.parametrize("n", range(1, 8))
def test_the_build_matches_the_reference_on_every_small_lattice(n):
    rng = random.Random(n)
    outcomes = set()
    for up in catalogue.lattices(n):
        for perturbation, elements, covers in _perturbed(up):
            for _ in range(2):
                error = assert_builds_as_the_reference(_named(rng, n, elements, covers))
                outcomes.add((perturbation, _kind(error)))
    assert {kind for perturbation, kind in outcomes if perturbation == "lattice"} == {"lattice"}
    assert {kind for perturbation, kind in outcomes if perturbation == "cycle"} <= {"NotAPartialOrder"}
    if n == 7:
        # each perturbation reaches the outcomes it can have
        assert {
            ("cycle", "NotAPartialOrder"),
            ("cover reversed", "lattice"),
            ("cover reversed", "no least upper bound"),
            ("cover reversed", "no greatest lower bound"),
            ("cover dropped", "lattice"),
            ("cover dropped", "no least upper bound"),
            ("cover dropped", "no greatest lower bound"),
            ("bottom removed", "no greatest lower bound"),
            ("bottom removed", "BadInvolution"),
        } <= outcomes


def test_a_lattice_is_accepted_on_its_joins_alone(monkeypatch):
    # the two-sided scan names the pair a refused order lacks a bound for;
    # a lattice never needs it
    def scan(*args):
        raise AssertionError("the two-sided bound scan ran")

    monkeypatch.setattr(lattice_module, "_missing_bounds", scan)
    for n in range(1, 8):
        for up in catalogue.lattices(n):
            build_from_order(*_named(random.Random(n), n, *next(_perturbed(up))[1:]))
    for family, n in (("boolean", 4), ("chain", 9), ("lantern", 6)):
        builtin(family, n)


@pytest.mark.parametrize("n", range(1, 7))
def test_boolean_from_covers_equals_the_all_pairs_build(n):
    subsets = sorted(
        (frozenset(i for i in range(n) if mask >> i & 1) for mask in range(1 << n)),
        key=lambda s: (len(s), sorted(s)),
    )
    full = frozenset(range(n))

    def name(s):
        return "0" if not s else "1" if s == full else "".join("abcdef"[i] for i in sorted(s))

    order = [(name(a), name(b)) for a in subsets for b in subsets if a < b]
    involution = [(name(s), name(full - s)) for s in subsets]  # each pair both ways
    assert builtin("boolean", n) == build_from_order([name(s) for s in subsets], order, involution)


def test_index_answers_as_tuple_index():
    lat = builtin("lantern", 2)
    assert [lat.index(e) for e in lat.elements] == list(range(len(lat.elements)))
    with pytest.raises(UnknownElement, match=r"^'zz' is not an element of this lattice$"):
        lat.index("zz")
    with pytest.raises(UnknownElement, match="is not an element of this lattice"):
        lat.index(["a1"])
    # a hand-assembled lattice may repeat a name: the first position wins
    twice = Lattice(("0", "a", "a", "1"), lat.up[:4], (3, 2, 1, 0), "0", "1")
    assert twice.index("a") == ("0", "a", "a", "1").index("a") == 1
    assert "_positions" not in repr(lat)


def test_the_element_cap_is_checked_before_any_work():
    # boolean(10**6) would list 2^(10**6) subsets
    with pytest.raises(LatticeError, match=r"^boolean\(1000000\) has more than the 1024 elements allowed$"):
        builtin("boolean", 10**6)
    # the order pair names no element, and is never read
    with pytest.raises(LatticeError, match="^the lattice has 1025 elements, more than the 1024 allowed$"):
        build_from_order([f"e{i}" for i in range(MAX_ELEMENTS + 1)], [("x", "y")], [])


def test_a_256_element_lattice_keeps_no_table_of_its_pairs():
    # join and meet tables of all 256 x 256 pairs took 1.1 MiB; the up-sets,
    # the down-sets and their two lookup dicts take about 0.1 MiB. (At the
    # cap, 1024 elements, CI checks a fresh build's peak RSS.)
    tracemalloc.start()
    try:
        lat = builtin("lantern", 127)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(lat.elements) == 256
    assert kept < 2**18, kept


# ------------------------------------- the auditor against the old matrix search


def reference_verify_axioms(lat):
    """The auditor before it read the up-sets as bits: the order expanded
    into a boolean matrix, each pair's bounds searched by :func:`_lub`, and
    idempotence, absorption and associativity checked over all triples of
    the bounds found, O(n^4) in all."""
    out = _shape_violations(lat)
    if out:
        return out

    names = lat.elements
    n = len(names)
    leq = tuple(tuple(bool(u >> j & 1) for j in range(n)) for u in lat.up)
    geq = tuple(zip(*leq))

    for i in range(n):
        if not leq[i][i]:
            out.append(LawViolation("reflexivity", (names[i],), "element is not below itself"))
    for i in range(n):
        for j in range(i + 1, n):
            if leq[i][j] and leq[j][i]:
                out.append(LawViolation(
                    "antisymmetry", (names[i], names[j]), "distinct elements below each other"))
    for i in range(n):
        for j in range(n):
            if not leq[i][j]:
                continue
            for k in range(n):
                if leq[j][k] and not leq[i][k]:
                    out.append(LawViolation(
                        "transitivity", (names[i], names[j], names[k]), "chain does not close"))

    # the bounds as tables of indices, None where a pair has none
    jt = [[_lub(leq, i, j) for j in range(n)] for i in range(n)]
    mt = [[_lub(geq, i, j) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i, n):
            if jt[i][j] is None:
                out.append(LawViolation(
                    "no-unique-bound", (names[i], names[j]), "pair has no least upper bound"))
            if mt[i][j] is None:
                out.append(LawViolation(
                    "no-unique-bound", (names[i], names[j]), "pair has no greatest lower bound"))

    # the laws implied by the bounds, wherever the bounds they name exist
    for i in range(n):
        if jt[i][i] not in (i, None):
            out.append(LawViolation("join-idempotent", (names[i],), f"y join y gives {names[jt[i][i]]}"))
        if mt[i][i] not in (i, None):
            out.append(LawViolation("meet-idempotent", (names[i],), f"y meet y gives {names[mt[i][i]]}"))
    for i in range(n):
        for j in range(n):
            if mt[i][j] is not None and jt[i][mt[i][j]] not in (i, None):
                out.append(LawViolation("absorption", (names[i], names[j]), "y join (y meet z) is not y"))
            if jt[i][j] is not None and mt[i][jt[i][j]] not in (i, None):
                out.append(LawViolation("absorption", (names[i], names[j]), "y meet (y join z) is not y"))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if None not in (jt[i][j], jt[j][k]) and jt[jt[i][j]][k] != jt[i][jt[j][k]]:
                    out.append(LawViolation(
                        "join-associative", (names[i], names[j], names[k]), "grouping changes the join"))
                if None not in (mt[i][j], mt[j][k]) and mt[mt[i][j]][k] != mt[i][mt[j][k]]:
                    out.append(LawViolation(
                        "meet-associative", (names[i], names[j], names[k]), "grouping changes the meet"))

    b, t = lat.index(lat.bottom), lat.index(lat.top)
    for i in range(n):
        if not leq[b][i]:
            out.append(LawViolation("bottom-least", (names[i],), "element is not above the bottom"))
        if not leq[i][t]:
            out.append(LawViolation("top-greatest", (names[i],), "element is not below the top"))

    inv = lat.involution
    for i in range(n):
        if inv[inv[i]] != i:
            out.append(LawViolation(
                "involution-self-inverse", (names[i],), f"double application gives {names[inv[inv[i]]]}"))
    if inv[b] != t:
        out.append(LawViolation("involution-extremes", (lat.bottom,), "bottom does not map to top"))
    if inv[t] != b:
        out.append(LawViolation("involution-extremes", (lat.top,), "top does not map to bottom"))
    return out


# the laws that follow from the order laws and the bounds
_IMPLIED_LAWS = {"join-idempotent", "meet-idempotent", "absorption", "join-associative", "meet-associative"}
_ORDER_LAWS = {"reflexivity", "antisymmetry", "transitivity"}
_PERTURBED_SIZES = {"boolean": 4, "chain": 15, "lantern": 7}


@st.composite
def _perturbed_lattices(draw):
    """A lattice of at most 16 elements, a builtin or a meet-closed family,
    with one to three stored facts changed: an up-set bit, an involution
    entry, or the bottom or top."""
    if draw(st.booleans()):
        family = draw(st.sampled_from(sorted(_PERTURBED_SIZES)))
        lat = builtin(family, draw(st.integers(1, _PERTURBED_SIZES[family])))
    else:
        *arguments, _ = draw(_meet_closed_subsets())
        lat = build_from_order(*arguments)
    index = st.integers(0, len(lat.elements) - 1)
    up, involution = list(lat.up), list(lat.involution)
    ends = {"bottom": lat.bottom, "top": lat.top}
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["up", "involution", "bottom", "top"]))
        event(f"perturbed: {kind}")
        if kind == "up":
            up[draw(index)] ^= 1 << draw(index)
        elif kind == "involution":
            involution[draw(index)] = draw(index)
        else:
            ends[kind] = lat.elements[draw(index)]
    return replace(lat, up=tuple(up), involution=tuple(involution), **ends)


def assert_audits_as_the_matrix_search(lat):
    """``verify_axioms`` and the matrix search agree on whether ``lat`` is
    lawful, and on a partial order they differ only by the implied laws.
    Returns whether it is lawful."""
    expected = reference_verify_axioms(lat)
    found = verify_axioms(lat)
    assert (found == []) == (expected == [])
    if not any(v.law in _ORDER_LAWS for v in expected):
        assert found == [v for v in expected if v.law not in _IMPLIED_LAWS]
    return not expected


@settings(max_examples=300)
@given(_perturbed_lattices())
def test_verify_axioms_agrees_with_the_matrix_search(lat):
    event("lawful" if assert_audits_as_the_matrix_search(lat) else "lawless")


@pytest.mark.parametrize("n", range(1, 8))
def test_verify_axioms_agrees_with_the_matrix_search_on_every_small_lattice(n):
    # each catalogue lattice as built, then with an up-set bit flipped, an
    # involution entry moved, or the bottom and top swapped
    rng = random.Random(n)
    for up in catalogue.lattices(n):
        lat = build_from_order(*_named(rng, n, *next(_perturbed(up))[1:]))
        assert assert_audits_as_the_matrix_search(lat)
        for _ in range(3):
            flipped = list(lat.up)
            flipped[rng.randrange(n)] ^= 1 << rng.randrange(n)
            moved = list(lat.involution)
            moved[rng.randrange(n)] = rng.randrange(n)
            for wrong in (replace(lat, up=tuple(flipped)), replace(lat, involution=tuple(moved))):
                assert_audits_as_the_matrix_search(wrong)
        assert_audits_as_the_matrix_search(replace(lat, bottom=lat.top, top=lat.bottom))
