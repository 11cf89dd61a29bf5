"""Independent reference models used to cross-check the library.

Everything here is deliberately built on different representations than the
package itself: integer matrices, affine maps, and a hand-rolled free-product
reducer.  Words are fed to both sides and the verdicts compared.  Some
exceptions keep an earlier design of the package as the reference: the
brute-force quotient enumerator reuses the package's generating sequence, but
walks one product over every generator image instead of per-vertex hom lists,
extends each vertex hom by re-walking every known element and checking all
pairs, and tests the edge relators by hand instead of through the
presentation; the product quotient walk tests every relator on every
combination of vertex homs and letter images, where the package walks them
depth first and tests each edge's relators once its ends are assigned; the
subgroup factoring test has its own Cayley-graph walk; the unfiltered
quotient search tests every goal on whole quotients, where the package drops
vertex homs before the walk; the three-pass reducer realizes
a word as a path, then cancels pinches, then normalizes, where the package
does it in one stack pass, and its coset loop and tree BFS run afresh on
every call, where the package memoises transversals and tree paths; the
two-step derivation evaluator reduces each syllable on its own before
multiplying it onto the suffix, and moves each value by that normalized
suffix, where the package moves each term by the raw tail of the word; the
brute-force coset tree multiplies a representative by every element of a
vertex or edge group and walks every vertex element to find neighbours,
removing duplicate edges in a dict, where the package reads handles and one
transversal, and tries every coset member at the base vertex too, where the
package drops the final base carry; the subgroup closure multiplies on both
sides and inverts, where the package only multiplies on the right by the
seeds; the fixed-vertex search closes the subgroup by multiplication, then
tests each vertex by the action and sorts every level of its walk, where the
package reads the vertex off the elements' tree geodesics; the ball
malnormality check tests every element of a ball, where the package tests
only the vertices two edges from the base; the relator, sampler-alphabet,
ball-alphabet and nested-generator lists are each enumerated by hand, where
the package reads them all off one presentation; the direct-product builder
splits and joins mixed-radix indices by hand, where the package folds the
factors' rows pairwise; the shorthand table builders compute every cell, and
the group-axiom check scans all n³ triples for associativity, where the
package composes rows from generator rows and applies Light's test to a
generating set; the breadth-first ball multiplies every element by every
letter, where the package skips the products that land in earlier levels;
the witness translation expands and checks every syllable's image on every
call, where the package keeps one image table per call; the derivation
well-definedness check samples random equal-word pairs besides the
relators, which is all the package evaluates.
"""
from __future__ import annotations

import itertools
from functools import partial

from gogkit.errors import MalformedWord, NoIdentity, NonAssociative, NotPermutationRow
from gogkit.finite_group import FiniteGroup, subgroup_closure
from gogkit.gog import LETTER, VERTEX, TableVertexGroup, multiply

# ---------------------------------------------------------------------------
# 2x2 integer matrices

I2 = ((1, 0), (0, 1))


def mat_mul(p, q):
    return (
        (p[0][0] * q[0][0] + p[0][1] * q[1][0], p[0][0] * q[0][1] + p[0][1] * q[1][1]),
        (p[1][0] * q[0][0] + p[1][1] * q[1][0], p[1][0] * q[0][1] + p[1][1] * q[1][1]),
    )


def mat_inv(p):
    ((a, b), (c, d)) = p
    det = a * d - b * c
    assert det == 1, "only unimodular matrices are inverted here"
    return ((d, -b), (-c, a))


def mat_pow(p, n):
    if n < 0:
        return mat_pow(mat_inv(p), -n)
    out = I2
    for _ in range(n):
        out = mat_mul(out, p)
    return out


# The amalgam C4 *_{C2} C6 is SL(2,Z): a -> S of order 4, b -> U of order 6,
# with S^2 = U^3 = -1 realizing the identified C2.
S_MAT = ((0, -1), (1, 0))
U_MAT = ((0, -1), (1, 1))

# Two order-4 matrices sharing the central -1, with |tr(S·B)| = 3, so they
# generate C4 *_{C2} C4 faithfully (the image in PSL(2,Z) is an infinite
# dihedral group because the product is hyperbolic).
B_MAT = ((1, -2), (1, -1))


def c4c6_matrix(syllables) -> tuple:
    """Evaluate a c4c6 word (sequence of ('v'|'w', exponent)) in SL(2,Z)."""
    out = I2
    for vid, k in syllables:
        out = mat_mul(out, mat_pow(S_MAT if vid == "v" else U_MAT, k))
    return out


def c4c2c4_matrix(syllables) -> tuple:
    """Evaluate a c4c2c4 word (sequence of ('u'|'m'|'w', exponent)) in SL(2,Z)."""
    base = {"u": S_MAT, "m": mat_pow(S_MAT, 2), "w": B_MAT}
    out = I2
    for vid, k in syllables:
        out = mat_mul(out, mat_pow(base[vid], k))
    return out


# ---------------------------------------------------------------------------
# Infinite dihedral group as affine maps n -> a*n + b with a = ±1

AFFINE_ID = (1, 0)


def affine_mul(p, q):
    # (p∘q)(n) = p(q(n))
    return (p[0] * q[0], p[0] * q[1] + p[1])


def c2c2_affine(syllables) -> tuple:
    """Evaluate a c2c2 word (sequence of ('u'|'w', exponent)) as an affine map."""
    base = {"u": (-1, 0), "w": (-1, 1)}
    out = AFFINE_ID
    for vid, k in syllables:
        for _ in range(k % 2):
            out = affine_mul(out, base[vid])
    return out


# ---------------------------------------------------------------------------
# The HNN extension of C6 over its central C2 splits as (C3 * Z) x C2:
# with c = b^2, z = b^3 one has b = c^2 z, and t commutes with z.  Elements
# are a reduced alternating word in the free product <c> * <t> plus a parity.


def _free_push(stack, gen, exp):
    mod = 3 if gen == "c" else 0
    if mod:
        exp %= mod
    if exp == 0:
        return
    if stack and stack[-1][0] == gen:
        prev = stack.pop()[1] + exp
        if mod:
            prev %= mod
        if prev != 0:
            stack.append((gen, prev))
    else:
        stack.append((gen, exp))


def c6hnn_model(syllables) -> tuple:
    """Evaluate a c6hnn word (sequence of ('b', k) and ('t', ±1)) in (C3*Z) x C2."""
    stack: list[tuple[str, int]] = []
    parity = 0
    for gen, k in syllables:
        if gen == "b":
            _free_push(stack, "c", 2 * k)
            parity = (parity + k) % 2
        else:
            _free_push(stack, "t", k)
    return tuple(stack), parity


def c6hnn_in_vertex(model_value) -> bool:
    """Whether a model value lies in the C6 vertex group."""
    stack, parity = model_value
    if not stack:
        return True
    return len(stack) == 1 and stack[0][0] == "c"


# ---------------------------------------------------------------------------
# Brute-force embedding counter for small groups given as full tables


def count_embeddings_brute(source_table, target_table) -> int:
    """Count injective homomorphisms by trying every injection (small orders only)."""
    n, m = len(source_table), len(target_table)
    if n > m:
        return 0
    count = 0
    for images in itertools.permutations(range(m), n):
        ok = True
        for i in range(n):
            for j in range(n):
                if images[source_table[i][j]] != target_table[images[i]][images[j]]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


# ---------------------------------------------------------------------------
# Two-sided subgroup closure


def subgroup_closure_reference(group, seeds) -> tuple:
    """Multiply every new element by every known one on both sides, and invert it."""
    seen = {group.identity}
    frontier = [group.identity]
    for s in seeds:
        if s not in seen:
            seen.add(s)
            frontier.append(s)
    while frontier:
        nxt = []
        for x in frontier:
            for y in list(seen):
                for z in (group.mul(x, y), group.mul(y, x), group.inv(x)):
                    if z not in seen:
                        seen.add(z)
                        nxt.append(z)
        frontier = nxt
    return tuple(sorted(seen))


# ---------------------------------------------------------------------------
# Brute-force quotient enumerator: one product over every generator image


def extend_hom_reference(source, target, gens, gen_images):
    """Grow generator images to a full image array, or None on conflict.

    Re-walks every element found so far on each round, then checks all pairs.
    """
    images = {source.identity: target.identity}
    frontier = [source.identity]
    for g, im in zip(gens, gen_images):
        if g in images:
            if images[g] != im:
                return None
        else:
            images[g] = im
            frontier.append(g)
    while frontier:
        nxt = []
        for x in list(images):
            for g, im in zip(gens, gen_images):
                y = source.mul(x, g)
                v = target.mul(images[x], im)
                if y in images:
                    if images[y] != v:
                        return None
                else:
                    images[y] = v
                    nxt.append(y)
        if len(images) == source.order:
            break
        if not nxt:
            break
        frontier = nxt
    if len(images) != source.order:
        return None
    arr = tuple(images[i] for i in range(source.order))
    for i in range(source.order):
        row = source.table[i]
        for j in range(source.order):
            if arr[row[j]] != target.mul(arr[i], arr[j]):
                return None
    return arr


def relators_die(g, t, vertex_images, letter_images) -> bool:
    """Edge relators die under the image maps into ``t``; the search maps tree
    letters to the identity itself."""
    for eid in g.graph.edges:
        timg = letter_images[eid]
        for k in range(g.edge_groups[eid].order):
            lhs = vertex_images[g.graph.d1[eid]][g.incl(eid, 1, k)]
            rhs = t.mul(t.mul(t.inv(timg), vertex_images[g.graph.d0[eid]][g.incl(eid, 0, k)]), timg)
            if lhs != rhs:
                return False
    return True


def factors_through_reference(g, q, sub, given) -> bool:
    """Whether the given subgraph quotient factors through q's restriction."""
    pairs = {q.target.identity: given.target.identity}
    gen_pairs = []
    for vid in sorted(sub.vertices):
        vg = g.vertex_groups[vid]
        for h in vg.generator_handles():
            gen_pairs.append((q.vertex_images[vid][h], given.vertex_images[vid][h]))
    for eid in sorted(sub.edges):
        if eid not in g.tree.edges:
            gen_pairs.append((q.letter_images[eid], given.letter_images[eid]))
    frontier = [q.target.identity]
    while frontier:
        nxt = []
        for a in frontier:
            for ga, gb in gen_pairs:
                b = q.target.mul(a, ga)
                v = given.target.mul(pairs[a], gb)
                if b in pairs:
                    if pairs[b] != v:
                        return False
                else:
                    pairs[b] = v
                    nxt.append(b)
        frontier = nxt
    return True


def iter_quotients_brute(g, target):
    """Quotients onto ``target`` in lexicographic generator-image order.

    Each vertex generator ranges over the target elements whose order divides
    its own, each non-tree letter over the whole target; every combination
    extends each vertex hom afresh and keeps the ones killing the edge relators;
    only those are built as quotients.
    """
    from gogkit.finite_group import _greedy_generators
    from gogkit.quotients import FiniteQuotient

    vertex_ids = sorted(g.graph.vertices)
    gens = []
    for vid in vertex_ids:
        vg = g.vertex_groups[vid]
        if not isinstance(vg, TableVertexGroup):
            return
        gens.append((vid, _greedy_generators(vg.group.table, vg.group.identity)))
    candidate_lists = []
    for vid, seq in gens:
        group = g.vertex_groups[vid].group
        for s in seq:
            o = group.element_order(s)
            candidate_lists.append(
                [t for t in range(target.order) if o % target.element_order(t) == 0]
            )
    letters = [e for e in sorted(g.graph.edges) if e not in g.tree.edges]
    for e in letters:
        candidate_lists.append(list(range(target.order)))
    for combo in itertools.product(*candidate_lists):
        vertex_images = {}
        pos = 0
        for vid, seq in gens:
            images = combo[pos : pos + len(seq)]
            pos += len(seq)
            group = g.vertex_groups[vid].group
            if not seq:
                arr = (target.identity,) * group.order
            else:
                arr = extend_hom_reference(group, target, seq, list(images))
            if arr is None:
                break
            vertex_images[vid] = arr
        else:
            letter_images = {e: target.identity for e in g.graph.edges if e in g.tree.edges}
            letter_images.update(zip(letters, combo[pos:]))
            if relators_die(g, target, vertex_images, letter_images):
                yield FiniteQuotient(g, target, vertex_images, letter_images)


def iter_quotients_product(g, target, keep=None):
    """All quotients onto a fixed target, in lexicographic image order.

    A product over the homs of each vertex group (``enumerate_homs``, sorted
    vertex ids) and one target element per non-tree letter (sorted edge ids),
    kept, and only then built, when every relator of ``presentation(g)`` maps
    to the identity under the image maps (``quotients._image``).  Each
    hom list is ordered by image array, so quotients come out ordered by
    (vertex image arrays, letter images).
    When given, ``keep(vertex id, image array)`` drops vertex homs before the
    product; the surviving quotients come out in the same relative order.
    """
    from gogkit.finite_group import enumerate_homs
    from gogkit.gog import residues
    from gogkit.quotients import FiniteQuotient, _image

    if not g.all_tables():
        return
    vertex_ids = sorted(g.graph.vertices)
    letters = [e for e in sorted(g.graph.edges) if e not in g.tree.edges]
    choices = [
        [
            h
            for h in enumerate_homs(g.vertex_groups[v].group, target)
            if keep is None or keep(v, h)
        ]
        for v in vertex_ids
    ]
    choices += [range(target.order)] * len(letters)
    tree_images = {e: target.identity for e in g.graph.edges if e in g.tree.edges}
    for combo in itertools.product(*choices):
        letter_images = {**tree_images, **dict(zip(letters, combo[len(vertex_ids):]))}
        vertex_images = dict(zip(vertex_ids, combo))
        image = partial(_image, target, vertex_images, letter_images)
        if next(residues(g, image, target.identity), None) is None:
            yield FiniteQuotient(g, target, vertex_images, letter_images)


def search_quotient_unfiltered(g, goal, *, elements=None, vertex=None, subgroup=None, targets=None):
    """The first quotient for ``separate`` or ``embed``, every goal tested on
    whole quotients: no vertex hom is dropped before the product."""
    from gogkit.errors import Exhausted
    from gogkit.finite_group import make_group
    from gogkit.quotients import _iter_quotients, default_targets

    if goal == "separate":

        def accept(q):
            if not q.is_vertex_injective():
                return False
            return all(q.image_of(x) != q.target.identity for x in elements)

    elif goal == "embed":

        def accept(q):
            images = [q.vertex_images[vertex][h] for h in subgroup.elements]
            return len(set(images)) == len(images)

    else:
        raise ValueError(f"unknown goal {goal!r}")

    pool = default_targets() if targets is None else [make_group(t) for t in targets]
    for target in pool:
        for q in _iter_quotients(g, target):
            if accept(q):
                return q
    raise Exhausted(f"no quotient in the candidate pool achieves goal {goal!r}")


# ---------------------------------------------------------------------------
# Three-pass reducer: the library's reduction before it became one stack pass


def reduce_three_pass(g, w, base: str) -> tuple:
    """Normal form syllables of ``w`` read as a loop at ``base``.

    Realizes the word as a path with a fresh tree BFS per crossing, eliminates
    pinches on a stack, then normalizes the whole path left to right.
    """
    return _normalize(g, _pinch_reduce(g, _word_to_path(g, w, base)), base)


def _tree_adjacency(t) -> dict[str, list[tuple[str, str]]]:
    adj: dict[str, list[tuple[str, str]]] = {v: [] for v in t.graph.vertices}
    for e in sorted(t.edges):
        a, b = t.graph.d0[e], t.graph.d1[e]
        adj[a].append((e, b))
        adj[b].append((e, a))
    return adj


def _tree_path_bfs(t, v: str, w: str) -> list[tuple[str, int]]:
    """The unique tree path v → w as (edge, direction) pairs.

    Direction +1 means the edge is crossed from d0 to d1.
    """
    if v == w:
        return []
    adj = _tree_adjacency(t)
    prev: dict[str, tuple[str, str]] = {}
    seen = {v}
    frontier = [v]
    while frontier and w not in seen:
        nxt = []
        for x in frontier:
            for e, y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    prev[y] = (e, x)
                    nxt.append(y)
        frontier = nxt
    if w not in seen:
        raise ValueError(f"no tree path between {v!r} and {w!r}")
    path = []
    cur = w
    while cur != v:
        e, parent = prev[cur]
        direction = 1 if t.graph.d0[e] == parent else -1
        path.append((e, direction))
        cur = parent
    return path[::-1]


def _word_to_path(g, w, base: str) -> list[tuple]:
    """Realize a word as a based loop: Elem moves plus tree/letter crossings.

    Items are ("x", edge, dir) crossings and ("e", vertex, handle) elements.
    """
    path: list[tuple] = []
    cur = base

    def walk_to(target: str):
        nonlocal cur
        for e, direction in _tree_path_bfs(g.tree, cur, target):
            path.append(("x", e, direction))
        cur = target

    for syl in w.syllables:
        if syl[0] == VERTEX:
            _, vid, h = syl
            if not g.vertex_groups[vid].contains_handle(h):
                raise MalformedWord(f"bad element handle {h!r} at vertex {vid!r}")
            walk_to(vid)
            path.append(("e", vid, h))
        else:
            _, eid, exp = syl
            start = g.graph.d0[eid] if exp > 0 else g.graph.d1[eid]
            end = g.graph.d1[eid] if exp > 0 else g.graph.d0[eid]
            walk_to(start)
            path.append(("x", eid, exp))
            cur = end
    walk_to(base)
    return path


def _vertex_mul(vg, a, b):
    """a·b in a vertex group by ``FiniteGroup.mul`` or ``multiply``, never
    through the ``rows`` the package reads."""
    return vg.group.mul(a, b) if isinstance(vg, TableVertexGroup) else multiply(a, b)


def _pinch_reduce(g, path: list[tuple]) -> list[tuple]:
    """Eliminate pinches t_e⁻¹·(∂0 image)·t_e and t_e·(∂1 image)·t_e⁻¹."""
    stack: list[tuple] = []

    def push_elem(vid: str, h):
        vg = g.vertex_groups[vid]
        if stack and stack[-1][0] == "e" and stack[-1][1] == vid:
            h = _vertex_mul(vg, stack.pop()[2], h)
        if h != vg.identity():
            stack.append(("e", vid, h))

    for item in path:
        if item[0] == "e":
            push_elem(item[1], item[2])
            continue
        _, eid, direction = item
        # A crossing may close a pinch with the previous crossing of the same
        # edge in the opposite direction, with an optional image element between.
        middle = None
        prev = None
        if stack and stack[-1][0] == "x":
            prev = stack[-1]
        elif len(stack) >= 2 and stack[-1][0] == "e" and stack[-2][0] == "x":
            middle, prev = stack[-1], stack[-2]
        if prev is not None and prev[1] == eid and prev[2] == -direction:
            src_side = 0 if direction > 0 else 1
            dst_side = 1 - src_side
            h = middle[2] if middle is not None else g.vertex_groups[
                g.graph.d0[eid] if src_side == 0 else g.graph.d1[eid]
            ].identity()
            k = g.incl_preimage(eid, src_side, h)
            if k is not None:
                if middle is not None:
                    stack.pop()
                stack.pop()
                dst_vertex = g.graph.d1[eid] if dst_side == 1 else g.graph.d0[eid]
                push_elem(dst_vertex, g.incl(eid, dst_side, k))
                continue
        stack.append(item)
    return stack


def _normalize(g, path: list[tuple], base: str) -> tuple[tuple, ...]:
    """Left-to-right transversal normalization of a pinch-free path."""
    syllables: list[tuple] = []
    cur = base
    carry = g.vertex_groups[base].identity()
    for item in path:
        if item[0] == "e":
            carry = _vertex_mul(g.vertex_groups[cur], carry, item[2])
            continue
        _, eid, direction = item
        src_side = 0 if direction > 0 else 1
        dst_side = 1 - src_side
        vg = g.vertex_groups[cur]
        best_rep, best_k = coset_rep_loop(g, cur, eid, src_side, carry)
        if best_rep != vg.identity():
            syllables.append((VERTEX, cur, best_rep))
        if eid not in g.tree.edges:
            syllables.append((LETTER, eid, direction))
        cur = g.graph.d1[eid] if dst_side == 1 else g.graph.d0[eid]
        carry = g.incl(eid, dst_side, best_k)
    if carry != g.vertex_groups[cur].identity():
        syllables.append((VERTEX, cur, carry))
    return tuple(syllables)


def coset_rep_loop(g, vid: str, eid: str, side: int, x):
    """The least rep of x·∂side(𝒢(eid)) in 𝒢(vid) by ``sort_key`` and the k with
    x = rep·∂side(k), by a fresh loop over the edge group on every call."""
    vg = g.vertex_groups[vid]
    best_k, best_rep, best_key = None, None, None
    for k in range(g.edge_groups[eid].order):
        rep = _vertex_mul(vg, x, vg.inv(g.incl(eid, side, k)))
        key = vg.sort_key(rep)
        if best_key is None or key < best_key:
            best_k, best_rep, best_key = k, rep, key
    return best_rep, best_k


# ---------------------------------------------------------------------------
# Two-step derivation evaluation: each syllable reduced, then multiplied on


def _generator_value(g, comp, mod: int, syl: tuple):
    """The value of one syllable, f(t⁻¹) = −f(t)·α(t⁻¹) included."""
    from gogkit.derivation import _act
    from gogkit.gog import stable_letter
    from gogkit.group_ring import ring_zero, scale

    zero = ring_zero(g, mod)
    if syl[0] == VERTEX:
        return comp.values.get((VERTEX, syl[1], syl[2]), zero)
    _, eid, exp = syl
    vec = comp.values.get((LETTER, eid), zero)
    if exp > 0:
        return vec
    return scale(_act(g, vec, stable_letter(g, eid, -1), comp.action), -1)


def evaluate_two_step(d, x) -> list:
    """Every component of ``d`` on a word or normal form.

    Walks the syllables right to left, reducing each one on its own and then
    multiplying it onto the suffix.
    """
    from gogkit.derivation import _act
    from gogkit.gog import Word, identity, multiply, reduce, vertex_element
    from gogkit.group_ring import add, ring_zero

    g = d.owner
    syllables = x.syllables if hasattr(x, "syllables") else tuple(x)
    out = []
    for comp in d.components:
        value = ring_zero(g, d.mod)
        suffix = identity(g)
        for syl in reversed(syllables):
            vec = _generator_value(g, comp, d.mod, syl)
            value = add(value, _act(g, vec, suffix, comp.action))
            if syl[0] == VERTEX:
                elem = vertex_element(g, syl[1], syl[2])
            else:
                elem = reduce(g, Word((syl,)))
            suffix = multiply(elem, suffix)
        out.append(value)
    return out


# ---------------------------------------------------------------------------
# Brute-force coset tree: every group element multiplied on, neighbours deduplicated


def least_coset_rep_brute(x, members):
    """The least of x·m over the member normal forms, by (syllables, text)."""
    from gogkit.gog import multiply

    best = None
    for m in members:
        cand = multiply(x, m)
        key = (len(cand.syllables), cand.text())
        if best is None or key < best[0]:
            best = (key, cand)
    return best[1]


def vertex_group_elements_brute(g, vid):
    from gogkit.gog import vertex_element

    return [vertex_element(g, vid, h) for h in g.vertex_groups[vid].handles()]


def edge_group_elements_brute(g, eid):
    from gogkit.gog import vertex_element

    d0v = g.graph.d0[eid]
    return [vertex_element(g, d0v, g.incl(eid, 0, k)) for k in range(g.edge_groups[eid].order)]


def tree_vertex_brute(g, vid, x):
    from gogkit.structure_tree import TreeVertex

    return TreeVertex(vid, least_coset_rep_brute(x, vertex_group_elements_brute(g, vid)))


def tree_edge_brute(g, eid, x):
    from gogkit.structure_tree import TreeEdge

    return TreeEdge(eid, least_coset_rep_brute(x, edge_group_elements_brute(g, eid)))


def neighbors_brute(g, tv):
    """Tree edges at tv with far endpoints: one candidate per vertex element."""
    from gogkit.gog import multiply, stable_letter

    out = {}
    v, rep = tv.vertex_id, tv.rep
    for eid in g.graph.incident(v):
        letter = stable_letter(g, eid)
        if g.graph.d0[eid] == v:
            for a in vertex_group_elements_brute(g, v):
                E = tree_edge_brute(g, eid, multiply(rep, a))
                if E not in out:
                    out[E] = tree_vertex_brute(g, g.graph.d1[eid], multiply(E.rep, letter))
        if g.graph.d1[eid] == v:
            letter_inv = stable_letter(g, eid, -1)
            for a in vertex_group_elements_brute(g, v):
                E = tree_edge_brute(g, eid, multiply(multiply(rep, a), letter_inv))
                if E not in out:
                    out[E] = tree_vertex_brute(g, g.graph.d0[eid], E.rep)
    return sorted(
        out.items(), key=lambda kv: (kv[0].edge_id, len(kv[0].rep.syllables), kv[0].rep.text())
    )


def fixed_vertex_by_action(g, elements, radius=8):
    """The first vertex, level by level out to ``radius``, that every element
    moves onto itself under ``act``; each level is sorted by (vertex id, text)."""
    from gogkit.structure_tree import _neighbors, act, tree_vertex

    _close_finite(g, elements)
    origin = tree_vertex(g, g.basepoint)
    seen = {origin}
    frontier = [origin]
    for _ in range(radius + 1):
        for tv in frontier:
            if all(act(g, x, tv) == tv for x in elements):
                return tv
        nxt = []
        for tv in frontier:
            for E, far_end in _neighbors(g, tv):
                far = far_end(g, E)
                if far not in seen:
                    seen.add(far)
                    nxt.append(far)
        frontier = sorted(nxt, key=lambda t: (t.vertex_id, t.rep.text()))
        if not frontier:
            break
    return None


def fixed_vertex_pairwise(g, elements):
    """``fixed_vertex`` checking every x and every pair product x·y for
    ellipticity (Serre, *Trees*, §I.6.5) before it returns the deepest
    midpoint: n(n−1)/2 products for n elements."""
    from gogkit.gog import multiply
    from gogkit.structure_tree import _elliptic_crossings, _midpoint

    geodesics = [_elliptic_crossings(g, x) for x in elements]
    for i, x in enumerate(elements):
        for y in elements[i + 1:]:
            _elliptic_crossings(g, multiply(x, y))
    return _midpoint(g, max(geodesics, key=len, default=[]))


MAX_EXHAUSTIVE_ORDER = 256


def _close_finite(g, elements) -> None:
    """Raise NotFinite unless the elements generate a subgroup of order ≤ the cap."""
    from gogkit.errors import NotFinite
    from gogkit.gog import identity, multiply

    closure = {identity(g)}
    frontier = [identity(g)]
    while frontier:
        nxt = []
        for x in frontier:
            for s in elements:
                y = multiply(x, s)
                if y not in closure:
                    closure.add(y)
                    nxt.append(y)
                    if len(closure) > MAX_EXHAUSTIVE_ORDER:
                        raise NotFinite(
                            "elements generate a subgroup larger than "
                            f"{MAX_EXHAUSTIVE_ORDER}; treating as infinite"
                        )
        frontier = nxt


def malnormality_by_ball(g, h_vertex, chi, radius) -> bool:
    """Whether H ∩ sHs⁻¹ lies in some H-conjugate of χ for every s outside H
    in the radius ball: the sampled check the exact one replaced."""
    from gogkit.finite_group import Subgroup, is_conjugate_into
    from gogkit.gog import ball, invert, multiply, vertex_element, vertex_group_membership

    H = g.vertex_groups[h_vertex].group
    for s in ball(g, radius):
        if vertex_group_membership(g, h_vertex, s):
            continue
        s_inv = invert(s)
        meet = [
            i for i in range(H.order)
            if vertex_group_membership(
                g, h_vertex, multiply(multiply(s_inv, vertex_element(g, h_vertex, i)), s)
            )
        ]
        if is_conjugate_into(Subgroup(H, tuple(meet)), chi, H) is None:
            return False
    return True


# ---------------------------------------------------------------------------
# Generator and relator enumerations written out per caller, as they were
# before ``gog.presentation`` became their one source


def _relators(g):
    """(edge, k, word): t_e per tree edge (k None), then ∂1(k)⁻¹·t_e⁻¹·∂0(k)·t_e per k."""
    from gogkit.gog import Word

    for eid in sorted(g.graph.edges):
        if eid in g.tree.edges:
            yield eid, None, Word(((LETTER, eid, 1),))
    for eid in sorted(g.graph.edges):
        d1v = g.graph.d1[eid]
        d0v = g.graph.d0[eid]
        vg1 = g.vertex_groups[d1v]
        for k in range(g.edge_groups[eid].order):
            yield eid, k, Word(
                (
                    (VERTEX, d1v, vg1.inv(g.incl(eid, 1, k))),
                    (LETTER, eid, -1),
                    (VERTEX, d0v, g.incl(eid, 0, k)),
                    (LETTER, eid, 1),
                )
            )


def _generator_alphabet(g) -> list[tuple]:
    """The presentation's generators, each stable letter followed by its inverse."""
    from gogkit.gog import Word, invert_word, presentation

    out: list[tuple] = []
    for gen in presentation(g).generators:
        out.append(gen)
        if gen[0] == LETTER:
            out.extend(invert_word(g, Word((gen,))).syllables)
    return out


def ball_generators(g) -> list:
    """The one-syllable words ``ball`` multiplied by: vertex generators, then
    each non-tree letter and its inverse."""
    from gogkit.gog import Word

    gens = []
    for vid in sorted(g.graph.vertices):
        for h in g.vertex_groups[vid].generator_handles():
            gens.append(Word(((VERTEX, vid, h),)))
    for eid in sorted(g.graph.edges):
        if eid not in g.tree.edges:
            gens.append(Word(((LETTER, eid, 1),)))
            gens.append(Word(((LETTER, eid, -1),)))
    return gens


def composite_generator_handles(self) -> list:
    """A nested vertex group's generators: its vertex elements, then its stable letters."""
    from gogkit.gog import stable_letter, vertex_element

    out = []
    for vid in sorted(self.sub.graph.vertices):
        vg = self.sub.vertex_groups[vid]
        for h in vg.generator_handles():
            out.append(vertex_element(self.sub, vid, h))
    for eid in sorted(self.sub.graph.edges):
        if eid not in self.sub.tree.edges:
            out.append(stable_letter(self.sub, eid))
    return out


def product_reference(factors):
    """The direct product of table groups, indexed in mixed radix (first factor
    most significant), as the package built it before ``itertools.product``."""
    from gogkit.finite_group import _from_table

    orders = [g.order for g in factors]
    total = 1
    for o in orders:
        total *= o

    def split(i: int) -> list[int]:
        parts = []
        for o in reversed(orders):
            parts.append(i % o)
            i //= o
        return parts[::-1]

    def join(parts: list[int]) -> int:
        i = 0
        for o, p in zip(orders, parts):
            i = i * o + p
        return i

    table = []
    for i in range(total):
        pi = split(i)
        row = []
        for j in range(total):
            pj = split(j)
            row.append(join([g.mul(a, b) for g, a, b in zip(factors, pi, pj)]))
        table.append(row)
    labels = [
        "|".join(g.label(p) for g, p in zip(factors, split(i))) for i in range(total)
    ]
    name = "x".join(g.name or "?" for g in factors)
    return _from_table(table, labels, name)


# ---------------------------------------------------------------------------
# Table groups cell by cell: the shorthand builders and the n³ group-axiom
# check as the package had them before tables were composed from generator rows


def validate_table_scan(
    table: list[list[int]], check_associativity: bool = True
) -> tuple[int, tuple[int, ...]]:
    """Check the group axioms, returning (identity index, inverse array)."""
    n = len(table)
    idx = set(range(n))
    for i, row in enumerate(table):
        if len(row) != n or set(row) != idx:
            raise NotPermutationRow(f"row {i} is not a permutation of 0..{n - 1}")
    for j in range(n):
        col = {table[i][j] for i in range(n)}
        if col != idx:
            raise NotPermutationRow(f"column {j} is not a permutation of 0..{n - 1}")
    identity = None
    for e in range(n):
        if all(table[e][i] == i and table[i][e] == i for i in range(n)):
            identity = e
            break
    if identity is None:
        raise NoIdentity("table has no two-sided identity element")
    if check_associativity:
        # The n³ scan is the expensive part; builders whose tables come from
        # an associative model (residues, permutations, products) skip it.
        for i in range(n):
            for j in range(n):
                ij = table[i][j]
                row_j = table[j]
                row_ij = table[ij]
                for k in range(n):
                    if row_ij[k] != table[i][row_j[k]]:
                        raise NonAssociative(f"({i}·{j})·{k} != {i}·({j}·{k})")
    inverse = [0] * n
    for i in range(n):
        for j in range(n):
            if table[i][j] == identity:
                inverse[i] = j
                break
    return identity, tuple(inverse)


def from_table_reference(
    table: list[list[int]], labels: list[str] | None, name: str, trusted: bool = False
) -> FiniteGroup:
    identity, inverse = validate_table_scan(table, check_associativity=not trusted)
    return FiniteGroup(
        table=tuple(tuple(row) for row in table),
        identity=identity,
        inverse=inverse,
        labels=tuple(labels) if labels is not None else None,
        name=name,
    )


def cyclic_reference(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("cyclic parameter must be >= 1")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    labels = ["e"] + [f"x{'' if i == 1 else i}" for i in range(1, n)]
    return from_table_reference(table, labels, f"C{n}", trusted=True)


def dihedral_reference(n: int) -> FiniteGroup:
    """Dihedral group of order 2n; index k + n·s encodes r^k s^s."""
    if n < 1:
        raise ValueError("dihedral parameter must be >= 1")

    def mul(i: int, j: int) -> int:
        k1, s1 = i % n, i // n
        k2, s2 = j % n, j // n
        k = (k1 + (k2 if s1 == 0 else -k2)) % n
        return k + n * (s1 ^ s2)

    table = [[mul(i, j) for j in range(2 * n)] for i in range(2 * n)]
    labels = [f"r{k}" for k in range(n)] + [f"s{k}" for k in range(n)]
    return from_table_reference(table, labels, f"D{n}", trusted=True)


def dicyclic_reference(n: int) -> FiniteGroup:
    """Dicyclic group of order 4n; index k + 2n·s encodes a^k b^s, b² = aⁿ."""
    if n < 2:
        raise ValueError("dicyclic parameter must be >= 2")

    def mul(i: int, j: int) -> int:
        k1, s1 = i % (2 * n), i // (2 * n)
        k2, s2 = j % (2 * n), j // (2 * n)
        k = (k1 + (k2 if s1 == 0 else -k2) + (n if s1 and s2 else 0)) % (2 * n)
        return k + 2 * n * (s1 ^ s2)

    table = [[mul(i, j) for j in range(4 * n)] for i in range(4 * n)]
    labels = [f"a{k}" for k in range(2 * n)] + [f"b{k}" for k in range(2 * n)]
    return from_table_reference(table, labels, f"Dic{n}", trusted=True)


def symmetric_reference(n: int) -> FiniteGroup:
    """Symmetric group on n letters; permutations in lexicographic order."""
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}

    def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
        # (p·q)(i) = p(q(i))
        return tuple(p[q[i]] for i in range(n))

    table = [[index[compose(p, q)] for q in perms] for p in perms]
    labels = ["".join(str(v) for v in p) for p in perms]
    return from_table_reference(table, labels, f"S{n}", trusted=True)


def generating_sequence_reference(group: FiniteGroup) -> list[int]:
    """A short generating sequence, chosen greedily and deterministically."""
    gens: list[int] = []
    current = {group.identity}
    while len(current) < group.order:
        for i in range(group.order):
            if i not in current:
                gens.append(i)
                current = set(subgroup_closure(group, gens).elements)
                break
    return gens


# ---------------------------------------------------------------------------
# Balls and witness translation as they were before the ball skipped known
# products and before witness maps kept a per-call image table


def ball_bfs(g, radius: int) -> list:
    """Breadth-first closure under right multiplication by every letter of
    ``alphabet(g)``; deterministic order (syllable count, then word text)."""
    import gogkit.gog as gog_module
    from gogkit.errors import BallTooLarge, NotFinite
    from gogkit.gog import _normal_form, alphabet, identity

    if radius < 0:
        raise ValueError("radius must be non-negative")
    if not g.all_tables():
        raise NotFinite("ball enumeration requires finite table vertex groups")
    cap = gog_module.BALL_CAP
    letters = alphabet(g)
    seen = {identity(g)}
    frontier = [identity(g)]
    for _ in range(radius):
        nxt = []
        for x in frontier:
            for s in letters:
                y = _normal_form(g, x.syllables + (s,))
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
                    if len(seen) > cap:
                        raise BallTooLarge(f"ball exceeds cap of {cap} elements")
        frontier = nxt
        if not frontier:
            break
    return sorted(seen, key=lambda x: (len(x.syllables), x.text()))


def c08_witnesses() -> list[tuple[str, object]]:
    """(label, witness) for every rewrite the c08 acceptance check makes."""
    from gogkit.acceptance import CHECKS, _witnesses
    from gogkit.fixtures import load_fixture

    names = dict(CHECKS)["c08-surgery-witnesses"][0]
    return [pair for name in names for pair in _witnesses(name, load_fixture(name))]


def translate_concatenated(witness_map: dict, g_from, g_to, w):
    """Apply a generator↦word map: expand every syllable's image afresh, then
    check and reduce the whole concatenation."""
    from gogkit.gog import NormalForm, Word, invert_word, reduce
    from gogkit.surgery import _atoms

    syllables = w.syllables if isinstance(w, (Word, NormalForm)) else tuple(w)
    out: list[tuple] = []
    for syl in syllables:
        for key, sign in _atoms(g_from, syl):
            image = witness_map[key]
            if sign < 0:
                image = invert_word(g_to, image)
            out.extend(image.syllables)
    return reduce(g_to, Word(tuple(out)))


# ---------------------------------------------------------------------------
# Derivations


def check_well_defined(d, samples: int = 500, seed: int = 0):
    """Relator evaluation plus sampled equal-word pairs; zero everywhere passes."""
    import random
    from functools import partial

    from gogkit.derivation import evaluate
    from gogkit.gog import Report, Word, alphabet, presentation, reduce, residues, word_text
    from gogkit.group_ring import ring_zero

    g = d.owner
    report = Report()
    zero = [ring_zero(g, d.mod)] * d.rank
    for _, _, rel, values in residues(g, partial(evaluate, d), zero):
        for i, v in enumerate(values):
            if not v.is_zero():
                report.fail(
                    f"component {i}: relator {word_text(g, rel)} evaluates to {v.text()}"
                )
    rng = random.Random(seed)
    letters = alphabet(g)
    for _ in range(samples):
        sylls = tuple(rng.choice(letters) for _ in range(rng.randint(0, 8)))
        w = Word(sylls)
        x = reduce(g, w)
        lhs = evaluate(d, w)
        rhs = evaluate(d, x)
        if lhs != rhs:
            report.fail(
                f"law breaks on word {word_text(g, w)} vs its normal form {x.text()}"
            )
            break
    report.counts["relators"] = len(presentation(g).relators)
    report.counts["sampled_pairs"] = samples
    return report
