"""Tests for finite-quotient search, certificates, and the coset functional."""
import random
import time

import pytest

import gogkit.quotients
from _oracles import (
    factors_through_reference,
    iter_quotients_brute,
    iter_quotients_product,
    search_quotient_unfiltered,
)
from gogkit.acceptance import _sl23, separation_targets
from gogkit.derivation import accessibility_derivation, evaluate
from gogkit.documents import parse_document
from gogkit.errors import Exhausted, MalformedWord, MixedOwners
from gogkit.finite_group import FiniteGroup, Subgroup, make_group, subgroup_closure
from gogkit.gog import LETTER, VERTEX, Subgraph, Word, ball, identity, invert, multiply, nf
from gogkit.quotients import (
    FiniteQuotient,
    NonkernelCertificate,
    certify_nonkernel,
    check_certificate,
    coset_complement_functional,
    default_targets,
    quotient_data,
    quotient_from_data,
    quotient_from_images,
    search_quotient,
    subgraph_gog,
    _factors_through,
    _iter_quotients,
)


def test_default_target_pool_order(c4c6):
    pool = default_targets()
    assert [t.order for t in pool[:4]] == [2, 3, 4, 5]
    assert pool[22].name == "C24"
    assert [t.name for t in pool[23:]] == ["S3", "S4", "S5", "S6"]


def test_iter_quotients_deterministic(c2c2):
    target = make_group("cyclic 2")
    images = [
        (q.vertex_images["u"], q.vertex_images["w"])
        for q in _iter_quotients(c2c2, target)
    ]
    assert images == [
        ((0, 0), (0, 0)),
        ((0, 0), (0, 1)),
        ((0, 1), (0, 0)),
        ((0, 1), (0, 1)),
    ]


def test_separate_single_generator(c4c6):
    # the first vertex-injective hit needs 4 and 6 to divide the target order
    q = search_quotient(c4c6, "separate", elements=[nf(c4c6, "v:g1")])
    assert q.target.name == "C12"
    assert q.vertex_images == {"v": (0, 3, 6, 9), "w": (0, 2, 4, 6, 8, 10)}
    assert q.is_vertex_injective()
    assert q.image_of(nf(c4c6, "v:g1")) == 3


def test_separate_rejects_identity(c4c6):
    with pytest.raises(ValueError):
        search_quotient(c4c6, "separate", elements=[nf(c4c6, "1")])
    with pytest.raises(ValueError):
        search_quotient(c4c6, "separate", elements=[])


def test_separate_commutator_needs_nonabelian(c4c6):
    a, b = nf(c4c6, "v:g1"), nf(c4c6, "w:g1")
    comm = multiply(multiply(a, b), multiply(invert(a), invert(b)))
    with pytest.raises(Exhausted):
        search_quotient(c4c6, "separate", elements=[comm], targets=["cyclic 12", "cyclic 24"])
    q = search_quotient(c4c6, "separate", elements=[comm], targets=["dicyclic 3"])
    assert q.target.name == "Dic3"
    assert q.image_of(comm) != q.target.identity
    assert q.is_vertex_injective()


def test_separate_stable_letter(c6hnn):
    q = search_quotient(c6hnn, "separate", elements=[nf(c6hnn, "t(t)")])
    assert q.target.name == "C6"
    assert q.vertex_images["v"] == (0, 1, 2, 3, 4, 5)
    assert q.letter_images["t"] == 1


def test_embed_subgroup(c4c6):
    group = c4c6.vertex_groups["v"].group
    sub = subgroup_closure(group, [1])
    q = search_quotient(c4c6, "embed", vertex="v", subgroup=sub)
    # injectivity is only demanded on the designated subgroup, so C4 suffices
    assert q.target.name == "C4"
    assert q.vertex_images["v"] == (0, 1, 2, 3)
    assert q.vertex_images["w"] == (0, 2, 0, 2, 0, 2)
    with pytest.raises(Exhausted):
        search_quotient(c4c6, "embed", vertex="v", subgroup=sub, targets=["cyclic 2"])


def test_refine_factors_given_quotient(c4c6):
    sub = Subgraph.of({"v"})
    subg = subgraph_gog(c4c6, sub)
    given = quotient_from_images(subg, make_group("cyclic 2"), {"v": (0, 1, 0, 1)}, {})
    assert given is not None
    q = search_quotient(c4c6, "refine", subgraph=sub, given=given)
    assert q.target.name == "C2"
    assert q.vertex_images["v"] == (0, 1, 0, 1)

    # demanding the full C4 quotient forces a target where C4 survives intact
    full = quotient_from_images(subg, make_group("cyclic 4"), {"v": (0, 1, 2, 3)}, {})
    q2 = search_quotient(c4c6, "refine", subgraph=sub, given=full)
    assert q2.target.name == "C4"
    assert q2.vertex_images["v"] == (0, 1, 2, 3)


def test_refine_verdict_matches_reference(c4c6):
    sub = Subgraph.of({"v"})
    subg = subgraph_gog(c4c6, sub)
    givens = [p for spec in ("cyclic 2", "cyclic 4") for p in _iter_quotients(subg, make_group(spec))]
    verdicts = set()
    for spec in ("cyclic 2", "cyclic 4", "cyclic 12", "symmetric 3"):
        for q in _iter_quotients(c4c6, make_group(spec)):
            for given in givens:
                verdict = _factors_through(c4c6, q, sub, given)
                assert verdict == factors_through_reference(c4c6, q, sub, given), (q, given)
                verdicts.add(verdict)
    assert verdicts == {True, False}


def test_unknown_goal_and_missing_args(c4c6):
    with pytest.raises(ValueError):
        search_quotient(c4c6, "shrink")
    with pytest.raises(ValueError):
        search_quotient(c4c6, "embed", vertex="v")
    with pytest.raises(ValueError):
        search_quotient(c4c6, "refine", subgraph=Subgraph.of({"v"}))


def test_quotients_never_separate_equal_words(c4c6):
    q = search_quotient(c4c6, "separate", elements=[nf(c4c6, "v:g1")])
    pairs = [("v:g2", "w:g3"), ("w:g4", "w:g1 * v:g2"), ("v:g1 * v:g3", "1")]
    for lhs, rhs in pairs:
        assert q.image_of(nf(c4c6, lhs)) == q.image_of(nf(c4c6, rhs))
    rng = random.Random(7)
    elements = ball(c4c6, 2)
    for _ in range(50):
        x, y = rng.choice(elements), rng.choice(elements)
        assert q.image_of(multiply(x, y)) == q.target.mul(q.image_of(x), q.image_of(y))


def test_certificate_amalgam(c4c6):
    d = accessibility_derivation(c4c6, "v", 5)
    b = nf(c4c6, "w:g1")
    cert = certify_nonkernel(d, b)
    # first hit: C3 kills a and sends b to 1, leaving 2·[1] - 2·[0] mod 5
    assert cert.quotient.target.name == "C3"
    assert cert.quotient.vertex_images == {"v": (0, 0, 0, 0), "w": (0, 1, 2, 0, 1, 2)}
    assert cert.component == 0
    assert cert.pushed == {0: 3, 1: 2}
    assert check_certificate(cert, d, b)


def test_certificate_stable_letter(c6hnn):
    d = accessibility_derivation(c6hnn, "v", 5)
    t = nf(c6hnn, "t(t)")
    cert = certify_nonkernel(d, t)
    assert cert.quotient.target.name == "C2"
    assert cert.quotient.vertex_images == {"v": (0, 0, 0, 0, 0, 0)}
    assert cert.quotient.letter_images == {"t": 1}
    assert cert.pushed == {0: 3, 1: 2}
    assert check_certificate(cert, d, t)


def test_certificate_zero_value_is_exhausted(c4c6):
    d = accessibility_derivation(c4c6, "v", 5)
    with pytest.raises(Exhausted):
        certify_nonkernel(d, nf(c4c6, "w:g3"))


def test_certificate_tampering_detected(c4c6):
    d = accessibility_derivation(c4c6, "v", 5)
    b = nf(c4c6, "w:g1")
    cert = certify_nonkernel(d, b)
    forged = NonkernelCertificate(cert.quotient, cert.component, {0: 1})
    assert not check_certificate(forged, d, b)


def test_coset_functional_values(c4c6):
    d = accessibility_derivation(c4c6, "v", 5)
    q = search_quotient(c4c6, "separate", elements=[nf(c4c6, "v:g1")])
    D = set(q.vertex_images["v"])
    assert coset_complement_functional(q, D, {}, 5) == 0
    assert coset_complement_functional(q, D, {0: 2, 6: 3}, 5) == 0
    pushed = q.push(evaluate(d, nf(c4c6, "w:g1"))[0])
    assert pushed == {0: 4, 2: 1, 6: 4, 8: 1}
    assert coset_complement_functional(q, D, pushed, 5) == 2


def test_coset_functional_accepts_subgroup(c4c6):
    q = search_quotient(c4c6, "separate", elements=[nf(c4c6, "v:g1")])
    sub = subgroup_closure(q.target, [3])
    assert coset_complement_functional(q, sub, {2: 1, 3: 4, 8: 1}, 5) == 2


def test_quotient_serialization_round_trip(c4c6):
    q = search_quotient(c4c6, "separate", elements=[nf(c4c6, "v:g1")])
    data = quotient_data(q)
    assert data["target"] == "cyclic 12"
    q2 = quotient_from_data(c4c6, data)
    assert q2.vertex_images == q.vertex_images
    assert q2.letter_images == q.letter_images


def test_quotient_from_data_rejects_non_homomorphism(c4c6):
    data = {
        "target": "cyclic 12",
        "vertex_images": {"v": [0, 1, 2, 3], "w": [0, 2, 4, 6, 8, 10]},
        "letter_images": {"e": 0},
    }
    with pytest.raises(ValueError):
        quotient_from_data(c4c6, data)


def test_quotient_from_images_checks_tree_letters(c4c6):
    q = quotient_from_images(
        c4c6,
        make_group("cyclic 12"),
        {"v": (0, 3, 6, 9), "w": (0, 2, 4, 6, 8, 10)},
        {"e": 1},
    )
    assert q is None


def test_subgraph_gog_restriction(c4c2c4):
    sub = Subgraph.of({"u", "m"}, {"e1"})
    restricted = subgraph_gog(c4c2c4, sub)
    assert sorted(restricted.graph.vertices) == ["m", "u"]
    assert list(restricted.graph.edges) == ["e1"]
    assert restricted.basepoint == "m"
    assert nf(restricted, "u:g2").text() == "m:g1"


@pytest.mark.parametrize(
    "name, count", [("c4c6", 96), ("c6hnn", 264), ("c4c2c4", 112), ("c2c2", 100)]
)
def test_search_filter_agrees_with_certifier(name, count, request):
    # The search filters on its own relator check; the certifier reads the
    # presentation.  Every hom the search yields must pass the certifier.
    g = request.getfixturevalue(name)
    s4 = make_group("symmetric 4")
    homs = list(_iter_quotients(g, s4))
    assert len(homs) == count
    for q in homs:
        assert quotient_from_images(g, s4, q.vertex_images, q.letter_images) == q


@pytest.mark.parametrize(
    "name, vertex_images, letter_images",
    [
        pytest.param("c6hnn", {"v": (0, 2, 4, 6, 8, 10)}, {"t": 12}, id="12"),
        pytest.param("c6hnn", {"v": (0, 2, 4, 6, 8, 10)}, {"t": -1}, id="-1"),
        pytest.param(
            "c4c6", {"v": (0, 3, 6, 99), "w": (0, 2, 4, 6, 8, 10)}, {"e": 0}, id="vertex-99"
        ),
    ],
)
def test_quotient_from_images_rejects_letter_out_of_range(
    name, vertex_images, letter_images, request
):
    g = request.getfixturevalue(name)
    c12 = make_group("cyclic 12")
    assert quotient_from_images(g, c12, vertex_images, letter_images) is None


def test_quotient_from_images_rejects_non_hom_vertex_images(c4c6):
    # v:g2 and w:g3 both map to 6, so every relator dies, but 3 + 6 ≠ 1.
    c12 = make_group("cyclic 12")
    vertex_images = {"v": (0, 3, 6, 1), "w": (0, 2, 4, 6, 8, 10)}
    assert quotient_from_images(c4c6, c12, vertex_images, {"e": 0}) is None


def test_quotient_from_images_refuses_a_bool_handle(c4c6):
    c12 = make_group("cyclic 12")
    vertex_images = {"v": (0, 3, 6, 9), "w": (0, 2, 4, 6, 8, 10)}
    assert quotient_from_images(c4c6, c12, vertex_images, {"e": 0}) is not None
    assert quotient_from_images(c4c6, c12, vertex_images, {"e": False}) is None
    vertex_images["v"] = (False, 3, 6, 9)
    assert quotient_from_images(c4c6, c12, vertex_images, {"e": 0}) is None


def test_a_vertex_image_that_is_no_sequence_defines_no_quotient(c4c6):
    c2 = make_group("cyclic 2")
    with pytest.raises(ValueError, match="^image tables do not define a homomorphism$"):
        FiniteQuotient(c4c6, c2, {"v": 5, "w": (0,) * 6}, {"e": 0})
    assert quotient_from_images(c4c6, c2, {"v": 5, "w": (0,) * 6}, {"e": 0}) is None


@pytest.mark.parametrize("vertex_images, letter_images", [
    ({"v": (0,) * 4, "w": (0,) * 6}, [("e", 0)]),
    ([("v", (0,) * 4), ("w", (0,) * 6)], {"e": 0}),
], ids=["letters", "vertices"])
def test_image_maps_that_are_no_mappings_define_no_quotient(c4c6, vertex_images, letter_images):
    c2 = make_group("cyclic 2")
    assert quotient_from_images(c4c6, c2, {"v": (0,) * 4, "w": (0,) * 6}, {"e": 0}) is not None
    with pytest.raises(ValueError, match="^image tables do not define a homomorphism$"):
        FiniteQuotient(c4c6, c2, vertex_images, letter_images)
    assert quotient_from_images(c4c6, c2, vertex_images, letter_images) is None


DIFFERENTIAL_TARGETS = [f"cyclic {n}" for n in range(2, 25)] + ["symmetric 3", "symmetric 4"]


@pytest.mark.parametrize("name", ["c4c6", "c6hnn", "c4c2c4", "c2c2"])
def test_iter_quotients_matches_brute_force(name, request):
    # Same quotients in the same order as one product over every generator
    # image; c4c2c4 -> S5 (736 homs) is left to the benchmark's count check.
    g = request.getfixturevalue(name)
    targets = [make_group(spec) for spec in DIFFERENTIAL_TARGETS] + [_sl23()]
    if name in ("c2c2", "c4c6", "c6hnn"):
        targets.append(make_group("symmetric 5"))
    for target in targets:
        assert list(_iter_quotients(g, target)) == list(iter_quotients_brute(g, target)), target


def _vertex_filters(g):
    """The walk's ``keep`` data for no filter, the ``separate`` filter and
    every cyclic-subgroup ``embed`` filter."""
    groups = {vid: g.vertex_groups[vid].group for vid in sorted(g.graph.vertices)}
    filters = [(), tuple((vid, tuple(range(group.order))) for vid, group in groups.items())]
    for vid, group in groups.items():
        for cyclic in sorted({subgroup_closure(group, [h]).elements for h in range(group.order)}):
            filters.append(((vid, cyclic),))
    return filters


def _distinct_on(keep, q) -> bool:
    return all(len({q.vertex_images[vid][h] for h in hs}) == len(hs) for vid, hs in keep)


@pytest.mark.parametrize("name", ["c4c6", "c6hnn", "c4c2c4", "c2c2"])
def test_walk_matches_the_product_walk(name, request):
    # The pruned walk yields what the product of every choice kept, in the
    # same order, c4c2c4 -> S5 included.  A vertex filter drops factors of
    # the product, which keeps the relative order of the rest, so each
    # filtered walk equals the product walk's output filtered the same way.
    g = request.getfixturevalue(name)
    targets = [*separation_targets(), make_group("symmetric 4"), make_group("symmetric 5")]
    filters = _vertex_filters(g)
    for target in targets:
        full = list(iter_quotients_product(g, target))
        for keep in filters:
            expected = [q for q in full if _distinct_on(keep, q)]
            assert list(_iter_quotients(g, target, keep)) == expected, (target, keep)


@pytest.mark.parametrize(
    "name, count", [("c4c6", 576), ("c6hnn", 3000), ("c4c2c4", 736), ("c2c2", 676)]
)
def test_hom_counts_into_s5(name, count, request):
    # The counts into S4 are pinned by test_search_filter_agrees_with_certifier.
    g = request.getfixturevalue(name)
    assert sum(1 for _ in _iter_quotients(g, make_group("symmetric 5"))) == count


def test_the_product_oracle_filters_before_the_product(c4c6):
    s4 = make_group("symmetric 4")
    injective = list(iter_quotients_product(c4c6, s4, lambda vid, images: len(set(images)) == len(images)))
    assert injective == [q for q in iter_quotients_product(c4c6, s4) if q.is_vertex_injective()]
    assert len(injective) == sum(1 for q in _iter_quotients(c4c6, s4) if q.is_vertex_injective())


def test_separation_pool_is_built_once():
    first, second = separation_targets(), separation_targets()
    assert first is second
    assert all(isinstance(t, FiniteGroup) for t in first)
    assert [t.order for t in first] == list(range(2, 25)) + [12, 6, 24, 24, 24, 24]


def test_default_pool_builds_targets_as_reached(c4c6, monkeypatch):
    requested = []

    def recording(spec):
        requested.append(spec)
        return make_group(spec)

    monkeypatch.setattr(gogkit.quotients, "make_group", recording)
    q = search_quotient(c4c6, "separate", elements=[nf(c4c6, "v:g1")])
    assert q.target.name == "C12"
    assert requested == [f"cyclic {n}" for n in range(2, 13)]


def _first_hit(search, g, goal, **kwargs):
    try:
        return search(g, goal, **kwargs)
    except Exhausted:
        return None


def _power(x, n: int):
    out = identity(x.owner)
    for _ in range(n):
        out = multiply(out, x)
    return out


@pytest.mark.parametrize("name", ["c4c6", "c6hnn", "c4c2c4", "c2c2"])
def test_filtered_search_matches_unfiltered_search(name, request):
    # Dropping vertex homs before the product keeps the order of the
    # quotients that survive, so first hits and Exhausted verdicts agree.
    g = request.getfixturevalue(name)
    pool = separation_targets()
    elements = [x for x in ball(g, 3) if x.syllables]
    for i, x in enumerate(elements):
        for targets in (pool, None) if i < 25 else (pool,):
            kwargs = {"elements": [x], "targets": targets}
            assert _first_hit(search_quotient, g, "separate", **kwargs) == _first_hit(
                search_quotient_unfiltered, g, "separate", **kwargs
            ), (x.text(), targets)
    for vid in sorted(g.graph.vertices):
        group = g.vertex_groups[vid].group
        for cyclic in sorted({subgroup_closure(group, [h]).elements for h in range(group.order)}):
            kwargs = {"vertex": vid, "subgroup": Subgroup(group, cyclic)}
            assert _first_hit(search_quotient, g, "embed", **kwargs) == _first_hit(
                search_quotient_unfiltered, g, "embed", **kwargs
            ), (vid, cyclic)


def test_filtered_search_exhausts_like_unfiltered(c4c6):
    y = _power(nf(c4c6, "v:g1 * w:g1"), 60)
    for search in (search_quotient, search_quotient_unfiltered):
        with pytest.raises(Exhausted):
            search(c4c6, "separate", elements=[y], targets=["symmetric 4"])


@pytest.mark.parametrize("name, word", [("c4c6", "v:g1 * w:g1"), ("c4c2c4", "u:g1 * w:g1")])
def test_exhausted_search_reports_how_far_it_got(name, word, request):
    g = request.getfixturevalue(name)
    s4 = make_group("symmetric 4")
    injective = sum(1 for q in _iter_quotients(g, s4) if q.is_vertex_injective())
    y = _power(nf(g, word), 60)
    with pytest.raises(Exhausted, match=rf"\(1 target, {injective} quotients tried\)"):
        search_quotient(g, "separate", elements=[y], targets=["symmetric 4"])


def test_a_search_past_the_walk_cap_is_exhausted(monkeypatch):
    # Three C2 vertex groups on a path: (a0·a1)^60 dies in every pool group,
    # and walking the whole pool takes 444,744 choices.
    g = parse_document({"graph": {
        "vertices": [{"id": f"a{i}", "group": "cyclic 2"} for i in range(3)],
        "edges": [{"id": f"e{i}", "from": f"a{i}", "to": f"a{i + 1}", "group": "cyclic 1",
                   "d0_images": [0], "d1_images": [0]} for i in range(2)],
    }}).gog
    monkeypatch.setattr(gogkit.quotients, "WALK_CAP", 10**4)
    x = _power(nf(g, "a0:g1 * a1:g1"), 60)
    start = time.process_time()
    with pytest.raises(Exhausted) as info:
        search_quotient(g, "separate", elements=[x])
    assert time.process_time() - start < 1
    assert str(info.value) == (
        "the quotient walk exceeds its cap of 10000 choices (26 targets, 9493 quotients tried)"
    )


def test_exhausted_certifier_reports_how_far_it_got(c4c6):
    # C1 has one quotient; into C2 the C6 generator must die (w:g3 = v:g2).
    d = accessibility_derivation(c4c6, "v", 5)
    with pytest.raises(Exhausted, match=r"\(2 targets, 3 quotients tried\)"):
        certify_nonkernel(d, nf(c4c6, "w:g1"), targets=["cyclic 1", "cyclic 2"])


def test_exhausted_texts_name_the_goal(c4c6):
    with pytest.raises(Exhausted) as info:
        search_quotient(c4c6, "separate", elements=[nf(c4c6, "v:g1")], targets=["cyclic 1"])
    assert str(info.value) == (
        "no quotient in the candidate pool achieves goal 'separate' (1 target, 0 quotients tried)"
    )
    d = accessibility_derivation(c4c6, "v", 5)
    with pytest.raises(Exhausted) as info:
        certify_nonkernel(d, nf(c4c6, "w:g1"), targets=["cyclic 1", "cyclic 2"])
    assert str(info.value) == (
        "no candidate quotient shows a nonzero push; inconclusive (2 targets, 3 quotients tried)"
    )


def test_embed_rejects_unknown_vertex(c4c6):
    sub = subgroup_closure(c4c6.vertex_groups["v"].group, [1])
    with pytest.raises(ValueError, match="^unknown vertex 'zz'$"):
        search_quotient(c4c6, "embed", vertex="zz", subgroup=sub)


def test_separate_refuses_an_element_of_another_graph(c4c6, c6hnn):
    with pytest.raises(MixedOwners):
        search_quotient(c4c6, "separate", elements=[nf(c6hnn, "t(t)")])


@pytest.mark.parametrize("parent, elements, message", [
    ("cyclic 6", (0, 2, 4), "χ must be a subgroup of the vertex group at the given vertex"),
    ("v", (0, 1), "handles [0, 1] are not a subgroup at 'v'; they generate [0, 1, 2, 3]"),
    ("v", (0, 9), "element index 9 out of range at 'v'"),
], ids=["foreign-parent", "not-closed", "out-of-range"])
def test_embed_checks_its_subgroup(c4c6, parent, elements, message):
    # The vertex group at v is C4; a C6 subgroup once raised IndexError, and
    # {0, 1} once gave a C2 quotient that does not embed ⟨1⟩ = C4.
    group = c4c6.vertex_groups["v"].group if parent == "v" else make_group(parent)
    with pytest.raises(ValueError) as info:
        search_quotient(c4c6, "embed", vertex="v", subgroup=Subgroup(group, elements))
    assert str(info.value) == message


def test_explicit_groups_are_taken_as_they_are(c4c6, monkeypatch):
    # Groups pass through unbuilt; specs are still built, and first hits agree.
    x = nf(c4c6, "v:g1 * w:g1")
    specs = ["cyclic 2", "cyclic 12", "cyclic 24"]
    by_spec = search_quotient(c4c6, "separate", elements=[x], targets=specs)
    groups = [make_group(s) for s in specs]
    built = []
    monkeypatch.setattr(gogkit.quotients, "make_group", lambda spec: built.append(spec) or make_group(spec))
    by_group = search_quotient(c4c6, "separate", elements=[x], targets=groups)
    assert built == [] and by_group == by_spec and by_group.target is groups[1]
    search_quotient(c4c6, "separate", elements=[x], targets=[groups[0], "cyclic 12"])
    assert built == ["cyclic 12"]


def test_a_bad_spec_among_groups_fails_before_any_search(c4c6, monkeypatch):
    def walk(*args):
        raise AssertionError("a search started")

    monkeypatch.setattr(gogkit.quotients, "_iter_quotients", walk)
    with pytest.raises(ValueError, match="unrecognized group shorthand"):
        search_quotient(c4c6, "separate", elements=[nf(c4c6, "v:g1")],
                        targets=[make_group("cyclic 12"), "cyclic twelve"])


@pytest.mark.parametrize("degree", [7, 12])
def test_a_degree_past_the_cap_fails_before_any_search(c4c6, degree, monkeypatch):
    # S7 and up pass MAX_GROUP_ORDER, so a pool that reaches them can never be built.
    def walk(*args):
        raise AssertionError("a search started")

    monkeypatch.setattr(gogkit.quotients, "_iter_quotients", walk)
    error = f"^group 'symmetric {degree}' has more than 720 elements$"
    with pytest.raises(ValueError, match=error):
        search_quotient(c4c6, "separate", elements=[nf(c4c6, "v:g1")], targets=degree)
    with pytest.raises(ValueError, match=error):
        certify_nonkernel(accessibility_derivation(c4c6, "v", 5), nf(c4c6, "w:g1"), degree)


def test_a_pool_up_to_degree_six_stays_lazy(c4c6, monkeypatch):
    built = []
    monkeypatch.setattr(gogkit.quotients, "make_group", lambda spec: built.append(spec) or make_group(spec))
    q = search_quotient(c4c6, "separate", elements=[nf(c4c6, "v:g1")], targets=6)
    assert q.target.name == "C12" and built == [f"cyclic {n}" for n in range(2, 13)]


def test_image_of_checks_its_word_as_evaluate_does(c4c6, c6hnn, monkeypatch):
    q = search_quotient(c4c6, "separate", elements=[nf(c4c6, "v:g1")])
    for word in (((VERTEX, "w", 9),), ((LETTER, "e", 5),), Word(((VERTEX, "nope", 0),)), nf(c6hnn, "t(t)")):
        with pytest.raises(MalformedWord):
            q.image_of(word)
    assert q.image_of(((VERTEX, "w", 1), (LETTER, "e", -1))) == q.image_of(nf(c4c6, "w:g1 * t(e)^-1"))
    # An own normal form passes on the identity test alone.
    import gogkit.gog

    monkeypatch.setattr(gogkit.gog, "_check_word", None)
    assert q.image_of(nf(c4c6, "v:g1")) == 3
