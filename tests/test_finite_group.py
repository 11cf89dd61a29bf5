"""Tests for table groups, homomorphism enumeration, and conjugacy helpers."""
import itertools

import pytest

from gogkit import finite_group
from gogkit.errors import NoIdentity, NonAssociative, NotPermutationRow
from gogkit.finite_group import (
    MAX_GROUP_ORDER,
    Subgroup,
    _extend_hom,
    _generating_sequence,
    enumerate_homs,
    is_conjugate_into,
    make_group,
    subgroup_closure,
)

from _oracles import (
    count_embeddings_brute,
    extend_hom_reference,
    product_reference,
    subgroup_closure_reference,
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
    gens = _generating_sequence(src)
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

    for builder in ("_cyclic", "_dihedral", "_dicyclic", "_symmetric", "_product", "_validate_table"):
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
], ids=str)
def test_product_matches_the_mixed_radix_builder(specs):
    factors = [make_group(spec) for spec in specs]
    built, expected = finite_group._product(factors), product_reference(factors)
    assert built.table == expected.table
    assert built.labels == expected.labels
    assert built.name == expected.name
    assert built.identity == expected.identity
    assert make_group(specs) == expected
