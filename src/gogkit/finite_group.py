"""Finite groups as multiplication tables: subgroups, homomorphisms, conjugacy."""
from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field

from .errors import NoIdentity, NonAssociative, NotPermutationRow, cut, quote

# The largest group ``make_group`` builds: S6, the largest default quotient
# target.  An order-n table holds n² entries, and its check reads n² for each
# of its few generators, so larger specs are refused before anything is built.
MAX_GROUP_ORDER = 720


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group given by its full multiplication table.

    Elements are the indices 0..order-1; ``table[i][j]`` is the index of the
    product of i and j.  ``identity`` and ``inverse`` are derived during
    validation.  ``labels`` is optional display text per element.
    """

    table: tuple[tuple[int, ...], ...]
    identity: int
    inverse: tuple[int, ...]
    labels: tuple[str, ...] | None = None
    name: str = ""
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # O(n) once, where the generated hash walks the n² table; equal groups agree.
        object.__setattr__(self, "_hash", hash((self.identity, self.inverse)))

    @property
    def order(self) -> int:
        return len(self.table)

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inv(self, i: int) -> int:
        return self.inverse[i]

    def element_order(self, i: int) -> int:
        k, x = 1, i
        while x != self.identity:
            x = self.mul(x, i)
            k += 1
        return k

    def label(self, i: int) -> str:
        if self.labels is not None:
            return self.labels[i]
        return str(i)

    def conjugate(self, x: int, g: int) -> int:
        """x^g = g⁻¹ x g."""
        return self.mul(self.mul(self.inv(g), x), g)

    def __repr__(self) -> str:
        tag = self.name or "group"
        return f"FiniteGroup({tag}, order={self.order})"

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of a table group, stored as a sorted index tuple."""

    parent: FiniteGroup
    elements: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, i: int) -> bool:
        return i in self.elements


def _validate_table(rows: tuple[tuple[int, ...], ...]) -> tuple[int, tuple[int, ...]]:
    """Check the group axioms, returning (identity index, inverse array).  Associativity is
    Light's test: (x·s)·y = x·(s·y), row against row, for each s of a generating set."""
    n = len(rows)
    idx = set(range(n))
    for i, row in enumerate(rows):
        if len(row) != n or set(row) != idx:
            raise NotPermutationRow(f"row {i} is not a permutation of 0..{n - 1}")
    for j, col in enumerate(zip(*rows)):
        if len(set(col)) != n:  # every entry is in 0..n-1 once the rows pass
            raise NotPermutationRow(f"column {j} is not a permutation of 0..{n - 1}")
    one = tuple(range(n))
    identity = next((e for e, row in enumerate(rows)
                     if row == one and tuple(r[e] for r in rows) == one), None)
    if identity is None:
        raise NoIdentity("table has no two-sided identity element")
    for s in _greedy_generators(rows, identity):
        through_s = operator.itemgetter(*rows[s])
        for x, row in enumerate(rows):
            xs_row, x_sy = rows[row[s]], through_s(row)
            if xs_row != x_sy:
                y = next(y for y in range(n) if xs_row[y] != x_sy[y])
                raise NonAssociative(f"({x}·{s})·{y} != {x}·({s}·{y})")
    return identity, tuple(row.index(identity) for row in rows)


def _from_table(table, labels: list[str] | None, name: str) -> FiniteGroup:
    rows = tuple(map(tuple, table))
    identity, inverse = _validate_table(rows)
    return FiniteGroup(table=rows, identity=identity, inverse=inverse,
                       labels=tuple(labels) if labels is not None else None, name=name)


def _cayley_rows(order: int, generator_rows) -> tuple[tuple[int, ...], ...]:
    """The table that ``generator_rows`` generate, identity at 0, by a walk over the
    Cayley graph: row(p·s) is row(p) read at the entries of row(s)."""
    rows = [tuple(range(order))] + [None] * (order - 1)
    steps = [(row[0], operator.itemgetter(*row)) for row in generator_rows if row[0] != 0]
    reached = [0]
    for p in reached:
        for s, through_s in steps:
            q = rows[p][s]
            if rows[q] is None:
                rows[q] = through_s(rows[p])
                reached.append(q)
    return tuple(rows)


def _cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("cyclic parameter must be >= 1")
    table = _cayley_rows(n, [[(1 + j) % n for j in range(n)]])
    labels = ["e"] + [f"x{'' if i == 1 else i}" for i in range(1, n)]
    return _from_table(table, labels, f"C{n}")


def _dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n; index k + n·s encodes r^k s^s."""
    if n < 1:
        raise ValueError("dihedral parameter must be >= 1")

    def mul(i: int, j: int) -> int:
        k1, s1 = i % n, i // n
        k2, s2 = j % n, j // n
        k = (k1 + (k2 if s1 == 0 else -k2)) % n
        return k + n * (s1 ^ s2)

    table = _cayley_rows(2 * n, [[mul(g, j) for j in range(2 * n)] for g in (1, n)])
    labels = [f"r{k}" for k in range(n)] + [f"s{k}" for k in range(n)]
    return _from_table(table, labels, f"D{n}")


def _dicyclic(n: int) -> FiniteGroup:
    """Dicyclic group of order 4n; index k + 2n·s encodes a^k b^s, b² = aⁿ."""
    if n < 2:
        raise ValueError("dicyclic parameter must be >= 2")

    def mul(i: int, j: int) -> int:
        k1, s1 = i % (2 * n), i // (2 * n)
        k2, s2 = j % (2 * n), j // (2 * n)
        k = (k1 + (k2 if s1 == 0 else -k2) + (n if s1 and s2 else 0)) % (2 * n)
        return k + 2 * n * (s1 ^ s2)

    table = _cayley_rows(4 * n, [[mul(g, j) for j in range(4 * n)] for g in (1, 2 * n)])
    labels = [f"a{k}" for k in range(2 * n)] + [f"b{k}" for k in range(2 * n)]
    return _from_table(table, labels, f"Dic{n}")


def _symmetric(n: int) -> FiniteGroup:
    """Symmetric group on n letters; permutations in lexicographic order."""
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}

    # The transposition of the last two letters and the n-cycle i ↦ i+1
    # generate Sn; (g·q)(i) = g(q(i)).
    gens = perms[1:2] + [tuple(range(1, n)) + (0,)[:n]]
    table = _cayley_rows(len(perms), [[index[tuple(map(g.__getitem__, q))] for q in perms]
                                      for g in gens])
    labels = ["".join(str(v) for v in p) for p in perms]
    return _from_table(table, labels, f"S{n}")


def _check_order(order: int, what: str) -> None:
    if order > MAX_GROUP_ORDER:
        raise ValueError(f"{what} has more than {MAX_GROUP_ORDER} elements")


def _product(factors: list[FiniteGroup]) -> FiniteGroup:
    """The direct product; elements are index tuples in lexicographic order.  Folded
    pairwise: (a, b) is a·m + b, so row (a, b) is row b shifted by c·m per entry c of row a."""
    table: tuple[tuple[int, ...], ...] = ((0,),)
    for g in factors:
        m = g.order
        shifted = [[tuple(c * m + d for d in row_b) for c in range(len(table))]
                   for row_b in g.table]
        table = tuple(tuple(itertools.chain.from_iterable(map(blocks.__getitem__, row_a)))
                      for row_a in table for blocks in shifted)
    labels = ["|".join(p) for p in itertools.product(
        *([g.label(a) for a in range(g.order)] for g in factors))]
    name = "x".join(g.name or "?" for g in factors)
    return _from_table(table, labels, name)


@functools.lru_cache(maxsize=None)
def _shorthand_group(kind: str, n: int) -> FiniteGroup:
    # FiniteGroup is immutable, so sharing cached instances is safe.  n! is
    # only computed for n up to the cap: past it, (cap)! is over the cap.
    sizes = {"cyclic": n, "dihedral": 2 * n, "dicyclic": 4 * n,
             "symmetric": math.factorial(min(n, MAX_GROUP_ORDER))}
    spec = cut(f"{kind} {n}")
    _check_order(sizes.get(kind, 0), f"group '{spec}'")
    if kind == "cyclic":
        return _cyclic(n)
    if kind == "dihedral":
        return _dihedral(n)
    if kind == "dicyclic":
        return _dicyclic(n)
    if kind == "symmetric":
        return _symmetric(n)
    raise ValueError(f"unrecognized group shorthand: {spec}")


def make_group(spec) -> FiniteGroup:
    """Build a finite group from a shorthand spec or an explicit table.

    Accepted forms: "cyclic N", "dihedral N", "dicyclic N", "symmetric N"; a
    list of specs (direct product); or a dict {"table": [[...]],
    "labels": [...]} / {"product": [spec, ...]}.
    """
    if isinstance(spec, FiniteGroup):
        return spec
    if isinstance(spec, str):
        parts = spec.split()
        if len(parts) != 2 or not parts[1].isdigit():
            raise ValueError(f"unrecognized group shorthand: {quote(spec)}")
        return _shorthand_group(parts[0], int(parts[1]))
    if isinstance(spec, dict) and "product" in spec:
        spec = spec["product"]
        if not isinstance(spec, list):
            raise ValueError("group spec 'product' must be a list of specs")
    if isinstance(spec, list):
        factors = [make_group(s) for s in spec]
        _check_order(math.prod(f.order for f in factors), f"product of {len(factors)} groups")
        return _product(factors)
    if isinstance(spec, dict):
        if "table" in spec:
            table = spec["table"]
            if not isinstance(table, list) or not all(isinstance(row, list) for row in table):
                raise ValueError("group spec 'table' must be a list of lists")
            _check_order(len(table), "group table")
            if not all(type(x) is int for row in table for x in row):
                raise ValueError("group spec 'table' entries must be integers")
            labels = spec.get("labels")
            if labels is not None and not (
                isinstance(labels, list) and len(labels) == len(table)
                and all(isinstance(label, str) for label in labels)
            ):
                raise ValueError("group spec 'labels' must be a list of one string per element")
            name = spec.get("name", "")
            if not isinstance(name, str):
                raise ValueError(f"group spec 'name' must be a string, got {quote(name)}")
            return _from_table(table, labels, name)
    raise ValueError(f"unrecognized group spec: {quote(spec)}")


def subgroup_as_group(sub: Subgroup) -> tuple[FiniteGroup, dict[int, int]]:
    """The subgroup as a standalone group, plus the parent→local index map."""
    parent = sub.parent
    local = {p: i for i, p in enumerate(sub.elements)}
    try:
        table = [[local[parent.table[a][b]] for b in sub.elements] for a in sub.elements]
    except KeyError:
        raise ValueError("element set is not closed under multiplication") from None
    labels = [parent.label(p) for p in sub.elements]
    name = f"{parent.name}:{len(sub.elements)}" if parent.name else ""
    return _from_table(table, labels, name), local


def subgroup_closure(group: FiniteGroup, seeds) -> Subgroup:
    """Smallest subgroup of ``group`` containing all seed indices.

    Their span under right multiplication, which a finite group closes under inverses.
    """
    seeds = list(seeds)
    span = extend_on_span(group, seeds, seeds, group.mul, group.identity)
    return Subgroup(group, tuple(sorted(span)))


def _greedy_generators(rows, identity: int) -> list[int]:
    """A short generating sequence of a table, chosen greedily and deterministically:
    each is the least element outside the right-multiplication span of those before.
    ``enumerate_homs``' order rests on this sequence."""
    gens: list[int] = []
    span, seen = [identity], {identity}
    for i in range(len(rows)):
        if i not in seen:
            gens.append(i)
            # The old span is closed under the old generators, so it needs only ·i;
            # what it gains, appended while it is walked, needs every generator.
            old = len(span)
            for k, x in enumerate(span):
                for y in map(rows[x].__getitem__, (i,) if k < old else gens):
                    if y not in seen:
                        seen.add(y)
                        span.append(y)
    return gens


def extend_on_span(
    source: FiniteGroup, gens: list[int], gen_images: list, mul, one
) -> dict | None:
    """The map on ⟨gens⟩ sending each generator to its image, or None on a conflict.

    A frontier walk over the Cayley graph of ⟨gens⟩ that checks every edge
    x → x·s, so the returned map is a homomorphism on the span (von Dyck).
    ``mul`` and ``one`` are the product and identity where the images live.
    """
    images = {source.identity: one}
    frontier = [source.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for s, t in zip(gens, gen_images):
                y = source.mul(x, s)
                v = mul(images[x], t)
                if y in images:
                    if images[y] != v:
                        return None
                else:
                    images[y] = v
                    nxt.append(y)
        frontier = nxt
    return images


def hom_defect(source: FiniteGroup, images, rows) -> tuple[int, int] | None:
    """The first pair (i, j), row by row, with images[i·j] ≠ images[i]·images[j], or None;
    ``rows[a][b]`` is the product a·b where the images live (a table, or a
    vertex group's ``rows``)."""
    for i, row in enumerate(source.table):
        left = rows[images[i]]
        for j, ij in enumerate(row):
            if images[ij] != left[images[j]]:
                return i, j
    return None


def _extend_hom(
    source: FiniteGroup, target: FiniteGroup, gens: list[int], gen_images: list[int]
) -> tuple[int, ...] | None:
    """Grow generator images to a full image array, or None on conflict."""
    images = extend_on_span(source, gens, gen_images, target.mul, target.identity)
    if images is None or len(images) != source.order:
        return None
    return tuple(images[i] for i in range(source.order))


def enumerate_homs(source: FiniteGroup, target: FiniteGroup) -> list[tuple[int, ...]]:
    """All homomorphisms source → target as image arrays, in ascending order.

    No sort is needed: ``_greedy_generators`` is greedy, so every index below
    the (i+1)-th generator lies in the span of the first i and its image is
    fixed by theirs.  Generator-image order is therefore image-array order,
    and distinct generator images give distinct arrays.  Quotient searches
    rely on this order for their first hit.  Each (source, target) pair is
    enumerated once per process; every call gets a fresh list.
    """
    return list(_homs(source, target))


@functools.lru_cache(maxsize=None)
def _homs(source: FiniteGroup, target: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    # Groups and image arrays are immutable, so sharing cached ones is safe.
    gens = _greedy_generators(source.table, source.identity)
    if not gens:
        return ((target.identity,) * source.order,)
    candidates: list[list[int]] = []
    for g in gens:
        o = source.element_order(g)
        candidates.append([t for t in range(target.order) if o % target.element_order(t) == 0])
    out = []
    for combo in itertools.product(*candidates):
        arr = _extend_hom(source, target, gens, list(combo))
        if arr is not None:
            out.append(arr)
    return tuple(out)


def is_conjugate_into(sub: Subgroup, other: Subgroup, group: FiniteGroup) -> int | None:
    """Least h with sub^h ⊆ other, or None."""
    if sub.order > other.order or other.order % sub.order != 0:
        return None
    target = set(other.elements)
    for h in range(group.order):
        if all(group.conjugate(s, h) in target for s in sub.elements):
            return h
    return None
