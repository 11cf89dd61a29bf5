"""Independent reference models used to cross-check the library.

Everything here is deliberately built on different representations than the
package itself: integer matrices, affine maps, and a hand-rolled free-product
reducer.  Words are fed to both sides and the verdicts compared.  The one
exception is the brute-force quotient enumerator: it reuses the package's
generating sequence and hom extension, but walks one product over every
generator image instead of per-vertex hom lists.
"""
from __future__ import annotations

import itertools

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
# Brute-force quotient enumerator: one product over every generator image


def iter_quotients_brute(g, target):
    """Quotients onto ``target`` in lexicographic generator-image order.

    Each vertex generator ranges over the target elements whose order divides
    its own, each non-tree letter over the whole target; every combination
    extends each vertex hom afresh and keeps the ones killing the edge relators.
    """
    from gogkit.finite_group import _extend_hom, _generating_sequence
    from gogkit.gog import TableVertexGroup
    from gogkit.quotients import FiniteQuotient, _relators_die

    vertex_ids = sorted(g.graph.vertices)
    gens = []
    for vid in vertex_ids:
        vg = g.vertex_groups[vid]
        if not isinstance(vg, TableVertexGroup):
            return
        gens.append((vid, _generating_sequence(vg.group)))
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
                arr = _extend_hom(group, target, seq, list(images))
            if arr is None:
                break
            vertex_images[vid] = arr
        else:
            letter_images = {e: target.identity for e in g.graph.edges if e in g.tree.edges}
            letter_images.update(zip(letters, combo[pos:]))
            q = FiniteQuotient(g, target, vertex_images, letter_images)
            if _relators_die(g, q):
                yield q
