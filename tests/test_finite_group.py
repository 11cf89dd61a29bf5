"""Tests for table groups, homomorphism enumeration, and conjugacy helpers."""
import itertools
import random
import re

import pytest

from gogkit import finite_group
from gogkit.errors import NoIdentity, NonAssociative, NotPermutationRow
from gogkit.finite_group import (
    MAX_GROUP_ORDER,
    FiniteGroup,
    Subgroup,
    _extend_hom,
    enumerate_homs,
    hom_defect,
    is_conjugate_into,
    make_group,
    subgroup_closure,
)

from _oracles import (
    count_embeddings_brute,
    cyclic_reference,
    dicyclic_reference,
    dihedral_reference,
    extend_hom_reference,
    generating_sequence_reference,
    product_reference,
    subgroup_closure_reference,
    symmetric_reference,
    validate_table_scan,
)


def test_cyclic_basics():
    g = make_group("cyclic 6")
    assert g.order == 6
    assert g.identity == 0
    assert g.mul(4, 5) == 3
    assert g.inv(2) == 4
    assert g.element_order(2) == 3
    assert g.label(1) == "x"


def test_dihedral_relations():
    """r has order n, s has order 2, and s·r·s = r⁻¹."""
    d = make_group("dihedral 4")
    assert d.order == 8
    r, s = 1, 4
    assert d.element_order(r) == 4
    assert d.element_order(s) == 2
    assert d.mul(d.mul(s, r), s) == d.inv(r)


def test_symmetric_composition():
    s3 = make_group("symmetric 3")
    assert s3.order == 6
    # Labels are one-line images: p maps i to label[i].
    perms = [tuple(int(c) for c in s3.label(i)) for i in range(6)]
    for i in range(6):
        for j in range(6):
            composed = tuple(perms[i][perms[j][k]] for k in range(3))
            assert perms[s3.mul(i, j)] == composed


def test_product_group():
    g = make_group(["cyclic 2", "cyclic 3"])
    assert g.order == 6
    assert sorted(g.element_order(i) for i in range(6)) == [1, 2, 3, 3, 6, 6]


def test_table_validation_errors():
    with pytest.raises(NotPermutationRow):
        make_group({"table": [[0, 1], [1, 1]]})
    with pytest.raises(NoIdentity):
        make_group({"table": [[0, 1, 2], [2, 0, 1], [1, 2, 0]]})
    # The rotation table of order 3 relabelled to break associativity while
    # keeping rows and columns Latin and an identity in place.
    with pytest.raises(NonAssociative):
        make_group(
            {
                "table": [
                    [0, 1, 2, 3, 4],
                    [1, 0, 3, 4, 2],
                    [2, 4, 0, 1, 3],
                    [3, 2, 4, 0, 1],
                    [4, 3, 1, 2, 0],
                ]
            }
        )
    with pytest.raises(ValueError):
        make_group("unitary 3")
    with pytest.raises(ValueError, match="'name' must be a string"):
        make_group({"table": [[0]], "name": 5})


def test_subgroup_closure():
    c6 = make_group("cyclic 6")
    assert subgroup_closure(c6, [2]).elements == (0, 2, 4)
    assert subgroup_closure(c6, [3]).elements == (0, 3)
    assert subgroup_closure(c6, []).elements == (0,)
    d4 = make_group("dihedral 4")
    assert subgroup_closure(d4, [4]).elements == (0, 4)


@pytest.mark.parametrize("spec", ["cyclic 1", "cyclic 6", "dihedral 4", "dicyclic 3", "symmetric 4"])
def test_subgroup_closure_matches_two_sided_reference(spec):
    group = make_group(spec)
    seed_sets = [()] + [(a,) for a in range(group.order)]
    seed_sets += list(itertools.combinations(range(group.order), 2))
    for seeds in seed_sets:
        assert subgroup_closure(group, seeds).elements == subgroup_closure_reference(group, seeds)


@pytest.mark.parametrize(
    "source, target, expected",
    [
        ("cyclic 2", "cyclic 4", 1),
        ("cyclic 2", "cyclic 6", 1),
        ("cyclic 3", "cyclic 4", 0),
        ("cyclic 2", "symmetric 3", 3),
        ("cyclic 3", "symmetric 3", 2),
    ],
)
def test_embedding_counts(source, target, expected):
    src, tgt = make_group(source), make_group(target)
    found = [h for h in enumerate_homs(src, tgt) if len(set(h)) == len(h)]
    assert len(found) == expected
    assert count_embeddings_brute(src.table, tgt.table) == expected


def test_embeddings_match_brute_force_on_mixed_pairs():
    pairs = [
        ("cyclic 4", "dihedral 4"),
        ("cyclic 6", "symmetric 3"),
        (["cyclic 2", "cyclic 2"], "dihedral 4"),
        ("symmetric 3", "symmetric 3"),
    ]
    for a, b in pairs:
        src, tgt = make_group(a), make_group(b)
        embeddings = [h for h in enumerate_homs(src, tgt) if len(set(h)) == len(h)]
        assert len(embeddings) == count_embeddings_brute(src.table, tgt.table)


def test_hom_enumeration_is_complete_and_sorted():
    c3, s3 = make_group("cyclic 3"), make_group("symmetric 3")
    homs = enumerate_homs(c3, s3)
    assert len(homs) == 3  # trivial plus the two embeddings
    assert homs == sorted(homs)
    for h in homs:
        for i in range(3):
            for j in range(3):
                assert h[c3.mul(i, j)] == s3.mul(h[i], h[j])


HOM_SOURCES = [f"cyclic {n}" for n in range(1, 7)] + [
    "dihedral 3", "dihedral 4", "dicyclic 2", "symmetric 3", ["cyclic 2", "cyclic 2"],
    {"table": [[1, 0], [0, 1]]},
]
HOM_TARGETS = [f"cyclic {n}" for n in range(1, 9)] + [
    "dihedral 4", "dicyclic 3", "symmetric 3", "symmetric 4",
]


@pytest.mark.parametrize("source", HOM_SOURCES, ids=str)
def test_hom_enumeration_is_strictly_increasing(source):
    # Quotient searches take their first hit from this order, unsorted:
    # it holds only while the generating sequence stays greedy.
    src = make_group(source)
    for spec in HOM_TARGETS:
        images = enumerate_homs(src, make_group(spec))
        assert all(a < b for a, b in zip(images, images[1:])), (source, spec)


@pytest.mark.parametrize("source", HOM_SOURCES, ids=str)
def test_extend_hom_matches_reference(source):
    # Every generator-image tuple, homs or not, for the extension that
    # enumerate_homs relies on.
    src = make_group(source)
    gens = finite_group._greedy_generators(src.table, src.identity)
    for spec in HOM_TARGETS:
        tgt = make_group(spec)
        for images in itertools.product(range(tgt.order), repeat=len(gens)):
            expected = extend_hom_reference(src, tgt, gens, list(images))
            assert _extend_hom(src, tgt, gens, list(images)) == expected, (source, spec, images)


def test_hom_lists_are_fresh_per_call():
    c3, s3 = make_group("cyclic 3"), make_group("symmetric 3")
    homs = enumerate_homs(c3, s3)
    homs.append(homs[0])
    homs[0] = None
    again = enumerate_homs(c3, s3)
    assert len(again) == 3
    assert again == sorted(again)


def test_equal_tables_share_hash_and_hom_lists():
    spec = {"table": [[(i + j) % 4 for j in range(4)] for i in range(4)]}
    a, b = make_group(spec), make_group(spec)
    assert a is not b
    assert a == b and hash(a) == hash(b)
    s4 = make_group("symmetric 4")
    assert enumerate_homs(a, s4) == enumerate_homs(b, s4)
    assert enumerate_homs(s4, a) == enumerate_homs(s4, b)


def test_hash_is_kept_from_construction_and_not_compared():
    a = make_group("symmetric 4")
    assert hash(a) == hash((a.identity, a.inverse))
    b = FiniteGroup(a.table, a.identity, a.inverse, a.labels, a.name)
    object.__setattr__(b, "_hash", hash(a) + 1)
    assert a == b and hash(b) == hash(a) + 1
    assert "_hash" not in repr(a)


def test_default_pool_hashes_are_stable():
    from gogkit.quotients import default_targets

    specs = [f"cyclic {n}" for n in range(2, 25)] + [f"symmetric {n}" for n in range(3, 7)]
    for spec, group in zip(specs, default_targets()):
        assert make_group(spec) == group
        assert hash(make_group(spec)) == hash(make_group(spec)) == hash(group)


def test_conjugacy_helpers():
    s3 = make_group("symmetric 3")
    # Order-2 subgroups of S3 are all conjugate.
    twos = [i for i in range(6) if s3.element_order(i) == 2]
    assert len(twos) == 3
    a = subgroup_closure(s3, [twos[0]])
    b = subgroup_closure(s3, [twos[1]])
    h = is_conjugate_into(a, b, s3)
    assert h is not None
    assert {s3.conjugate(s, h) for s in a.elements} <= set(b.elements)
    # C3 does not fit inside an order-2 subgroup.
    c3 = subgroup_closure(s3, [t for t in range(6) if s3.element_order(t) == 3][:1])
    assert is_conjugate_into(c3, a, s3) is None


def test_conjugate_convention():
    """x^g means g⁻¹·x·g throughout."""
    s3 = make_group("symmetric 3")
    for x in range(6):
        for g in range(6):
            assert s3.conjugate(x, g) == s3.mul(s3.mul(s3.inv(g), x), g)


@pytest.fixture
def no_tables(monkeypatch):
    """Fail every table builder, so a spec over the cap is never built."""

    def refuse(*args):
        raise AssertionError("a group table was built")

    for builder in ("_cyclic", "_dihedral", "_dicyclic", "_symmetric", "_product", "_validate_table",
                    "_cayley_rows", "_greedy_generators"):
        monkeypatch.setattr(finite_group, builder, refuse)


C31 = make_group("cyclic 31")


@pytest.mark.parametrize(
    "spec",
    [
        "cyclic 30000",
        "dihedral 361",
        "dicyclic 181",
        "symmetric 7",
        "symmetric 1000000000000",
        [C31] * 6,
        {"product": [C31, C31]},
        {"table": [[0]] * 721},
    ],
)
def test_make_group_refuses_orders_over_the_cap(no_tables, spec):
    with pytest.raises(ValueError, match=f"more than {MAX_GROUP_ORDER} elements"):
        make_group(spec)


def test_make_group_refuses_an_empty_cyclic_group():
    with pytest.raises(ValueError, match=r"^cyclic parameter must be >= 1$"):
        make_group("cyclic 0")


def test_make_group_builds_up_to_the_cap():
    # S6 is the largest default quotient target.
    assert make_group("symmetric 6").order == MAX_GROUP_ORDER == 720
    assert make_group("cyclic 720").order == 720


@pytest.mark.parametrize("specs", [
    [],
    ["cyclic 1", "symmetric 3"],
    ["cyclic 3", "cyclic 1"],
    ["cyclic 2", "dihedral 3", "cyclic 3"],
    [{"table": [[1, 0], [0, 1]]}, "dicyclic 2", "cyclic 2"],
    ["cyclic 4", "symmetric 3"],
    ["symmetric 5", "cyclic 2"],
], ids=str)
def test_product_matches_the_mixed_radix_builder(specs):
    factors = [make_group(spec) for spec in specs]
    built, expected = finite_group._product(factors), product_reference(factors)
    assert built.table == expected.table
    assert built.labels == expected.labels
    assert built.name == expected.name
    assert built.identity == expected.identity
    assert make_group(specs) == expected


SHORTHANDS = (
    [("cyclic", n) for n in [*range(1, 65), 720]]
    + [("dihedral", n) for n in [*range(1, 33), 360]]
    + [("dicyclic", n) for n in [*range(2, 17), 180]]
    + [("symmetric", n) for n in range(1, 7)]
)
REFERENCE_BUILDERS = {
    "cyclic": (finite_group._cyclic, cyclic_reference),
    "dihedral": (finite_group._dihedral, dihedral_reference),
    "dicyclic": (finite_group._dicyclic, dicyclic_reference),
    "symmetric": (finite_group._symmetric, symmetric_reference),
}


@pytest.mark.parametrize("kind, n", SHORTHANDS, ids=str)
def test_shorthand_tables_match_the_cell_by_cell_builders(kind, n):
    # Table, identity, inverse, labels and name: the dataclass compares them all.
    built, reference = (build(n) for build in REFERENCE_BUILDERS[kind])
    assert built.table == reference.table
    assert built == reference


def _verdict(check, rows):
    try:
        return check(rows)
    except NonAssociative as ex:
        return ex


def _swap_intercalate(rng, rows, identity):
    """Swap a and b in a 2×2 subsquare [[a, b], [b, a]] away from the identity's row
    and column, which keeps the table Latin with the same identity; False if none was found."""
    others = [x for x in range(len(rows)) if x != identity]
    for _ in range(50):
        r1, r2, c1 = rng.choice(others), rng.choice(others), rng.choice(others)
        a = rows[r1][c1]
        c2 = rows[r2].index(a)
        b = rows[r1][c2]
        if r1 != r2 and c2 != identity and rows[r2][c1] == b:
            rows[r1][c1], rows[r1][c2], rows[r2][c1], rows[r2][c2] = b, a, a, b
            return True
    return False


def _mutants(count, seed=20):
    """Relabelled tables of groups of order at most 24, each after 0 to 2 intercalate swaps."""
    specs = [f"cyclic {n}" for n in range(2, 25, 2)] + [f"dihedral {n}" for n in range(2, 13)]
    specs += [f"dicyclic {n}" for n in range(2, 7)] + ["symmetric 3", "symmetric 4"]
    specs += [["cyclic 2", "cyclic 2"], ["cyclic 2"] * 3, ["cyclic 2"] * 4, ["cyclic 2", "cyclic 4"],
              ["cyclic 2", "dihedral 4"], ["cyclic 2", "dicyclic 3"], ["cyclic 3", "symmetric 3"]]
    groups = [make_group(spec) for spec in specs]
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        g = rng.choice(groups)
        label = list(range(g.order))
        rng.shuffle(label)
        rows = [[0] * g.order for _ in range(g.order)]
        for x, row in enumerate(g.table):
            for y, xy in enumerate(row):
                rows[label[x]][label[y]] = label[xy]
        swaps = rng.choice((0, 1, 1, 2))
        if sum(_swap_intercalate(rng, rows, label[g.identity]) for _ in range(swaps)) == swaps:
            out.append(rows)
    return out


def test_light_test_agrees_with_the_cubic_scan():
    five = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    tables = [five, [[1, 0], [0, 1]]] + _mutants(1200)
    failing = 0
    for rows in tables:
        light = _verdict(finite_group._validate_table, tuple(map(tuple, rows)))
        scan = _verdict(validate_table_scan, rows)
        if isinstance(scan, NonAssociative):
            failing += 1
            assert isinstance(light, NonAssociative), rows
            x, s, y = map(int, re.fullmatch(r"\((\d+)·(\d+)\)·(\d+) != .*", str(light)).groups())
            assert rows[rows[x][s]][y] != rows[x][rows[s][y]], (rows, str(light))
        else:
            assert light == scan, rows
    # Both verdicts are well represented.
    assert 300 < failing < len(tables) - 300


def test_the_greedy_generators_match_the_closure_by_closure_sequence():
    # enumerate_homs' first-hit order rests on this sequence; the group-axiom
    # check walks the same one on tables that are not yet known to be groups.
    groups = [make_group(f"{kind} {n}") for kind, n in SHORTHANDS if n <= 32]
    groups += [make_group(specs) for specs in (["cyclic 2"] * 4, ["cyclic 2", "symmetric 3"],
                                               ["symmetric 5", "cyclic 2"])]
    for g in groups:
        assert finite_group._greedy_generators(g.table, g.identity) == generating_sequence_reference(g), g
    for rows in _mutants(300, seed=21):
        identity = rows.index(list(range(len(rows))))
        table = tuple(map(tuple, rows))
        loose = FiniteGroup(table=table, identity=identity, inverse=())
        assert finite_group._greedy_generators(table, identity) == generating_sequence_reference(loose)


def test_hom_defect_finds_the_first_failing_pair_row_by_row():
    rng = random.Random(22)
    target = make_group("symmetric 4")
    for spec in ("cyclic 4", "symmetric 3", "dihedral 4", ["cyclic 2", "cyclic 2"]):
        source = make_group(spec)
        homs = enumerate_homs(source, target)
        arrays = homs + [[rng.randrange(target.order) for _ in range(source.order)] for _ in range(100)]
        for images in arrays:
            pairs = itertools.product(range(source.order), repeat=2)
            first = next(((i, j) for i, j in pairs
                          if images[source.mul(i, j)] != target.mul(images[i], images[j])), None)
            assert hom_defect(source, images, target.table) == first

