"""The acceptance checks behind `gogkit verify all`, shared with the test suite.

Each check is property-based at desk scale: exhaustive where the domain is
finite, seeded sampling where it is not, and zero tolerance either way.

A check is one body, ``check_x(name, g, report)``, that runs on one fixture
and adds to the report's counts, plus one ``CHECKS`` row naming the fixtures
it runs on.  `run_check` runs the body on each listed fixture that ``only``
admits, loading each once, and times the whole; a check with no fixture left
reports ``skipped=1``.
"""
from __future__ import annotations

import functools
import itertools
import random
import time
from collections import Counter
from dataclasses import dataclass, field

from .derivation import (
    Derivation,
    _act,
    accessibility_derivation,
    dunwoody_derivation,
    evaluate,
    is_zero,
    kernel_scan,
)
from .errors import Exhausted
from .finite_group import FiniteGroup, Subgroup, make_group
from .fixtures import load_fixture
from .gog import (
    VERTEX,
    Report,
    Word,
    ball,
    invert,
    multiply,
    nf,
    presentation,
    reduce,
    residues,
    vertex_element,
    vertex_group_membership,
    verify_relative_malnormality,
    word_text,
)
from .group_ring import add, ring_zero
from .quotients import _first_quotient, coset_complement_functional, search_quotient
from .structure_tree import act, edge_d0, edge_d1, fixed_vertex, tree_ball, tree_vertex
from .surgery import (
    attach_amalgam_vertex,
    collapse_tree_edge,
    compose_witness,
    expand_vertex,
    find_delta_conjugators,
    reverse_edge,
    validate_witness,
)


@dataclass
class CheckResult:
    """Outcome of one named acceptance check."""

    name: str
    ok: bool
    counts: dict[str, int] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    seconds: float = 0.0


TABLE_FIXTURES = ("c4c6", "c6hnn", "c4c2c4", "c2c2")

# The base vertex and the Dunwoody target (None for none) of each table
# fixture's constructed derivations.
DERIVATIONS = {
    "c4c6": ("v", "w"),
    "c6hnn": ("v", None),
    "c4c2c4": ("m", "w"),
    "c2c2": ("u", "w"),
}


def _derivations(g, name: str) -> list[tuple[str, Derivation]]:
    """The constructed derivations for one fixture, labeled for reporting."""
    base, target = DERIVATIONS[name]
    out = []
    if target is not None:
        out.append((f"dunwoody {base}→{target}", dunwoody_derivation(g, base, target, 5)))
    out.append((f"access {base}", accessibility_derivation(g, base, 5)))
    return out


# ---------------------------------------------------------------------------
# 1. The derivation law on sampled ball pairs


def check_derivation_law(name: str, g, report: Report):
    elements = ball(g, 3)
    for label, d in _derivations(g, name):
        rng = random.Random(f"law:{name}:{label}")
        for _ in range(1000):
            u = rng.choice(elements)
            v = rng.choice(elements)
            lhs = evaluate(d, multiply(u, v))
            eu, ev = evaluate(d, u), evaluate(d, v)
            for i, comp in enumerate(d.components):
                rhs = add(_act(g, eu[i], v, comp.action), ev[i])
                if lhs[i] != rhs:
                    report.fail(
                        f"{name} [{label}] component {i}: law breaks on "
                        f"u={u.text()!r}, v={v.text()!r}"
                    )
        report.counts["pairs"] += 1000


# ---------------------------------------------------------------------------
# 2. Gluing residues on every edge relator


def check_gluing_residues(name: str, g, report: Report):
    for label, d in _derivations(g, name):
        report.counts["residues"] += len(presentation(g).relators) * d.rank
        zero = [ring_zero(g, d.mod)] * d.rank
        for _, _, rel, values in residues(g, functools.partial(evaluate, d), zero):
            for i, value in enumerate(values):
                if not value.is_zero():
                    report.fail(
                        f"{name} [{label}] component {i}: relator "
                        f"{word_text(g, rel)} leaves residue {value.text()}"
                    )


# ---------------------------------------------------------------------------
# 3. Kernel scans against the designated subgroup

# Fixture -> (base vertex, scan radius).
KERNEL_SCANS = {
    "c4c6": ("v", 6),
    "c6hnn": ("v", 5),
    "c4c2c4": ("m", 5),
}


def check_kernel_scans(name: str, g, report: Report):
    base, radius = KERNEL_SCANS[name]
    scan = kernel_scan(accessibility_derivation(g, base, 5), base, radius)
    report.counts[f"{name}_elements"] = scan.counts["elements"]
    if scan.counts["mismatches"]:
        report.fail(f"{name}: {scan.counts['mismatches']} kernel mismatches")
        report.problems.extend(scan.problems)


# ---------------------------------------------------------------------------
# 4. The vertex derivation vanishes exactly on the edge image

# Fixture -> (base vertex, Dunwoody target, edge into the target).
VERTEX_KERNELS = {
    "c4c6": ("v", "w", "e"),
    "c4c2c4": ("m", "w", "e2"),
}


def check_dunwoody_vertex_kernel(name: str, g, report: Report):
    base, target, eid = VERTEX_KERNELS[name]
    d = dunwoody_derivation(g, base, target, 5)
    image = set(g.inclusions[eid][1])
    for h in range(g.vertex_groups[target].group.order):
        x = vertex_element(g, target, h)
        zero = is_zero(evaluate(d, x))
        if zero != (h in image):
            verb = "vanishes outside" if zero else "detects"
            report.fail(f"{name}: f {verb} the edge image at {x.text()}")
        report.counts["elements"] += 1


# ---------------------------------------------------------------------------
# 5. Structure-tree axioms: tree shape, incidence formulas, equivariance


def check_structure_tree(name: str, g, report: Report):
    tb = tree_ball(g, 4)
    if not tb.is_tree():
        report.fail(f"{name}: radius-4 ball is not a tree")
    for E in tb.edges:
        if set(tb.incidence[E]) != {edge_d0(g, E), edge_d1(g, E)}:
            report.fail(f"{name}: incidence formula fails on {E.text()}")
        report.counts["edges"] += 1
    rng = random.Random(f"tree:{name}")
    elements = ball(g, 3)
    items = tb.vertices + tb.edges
    for _ in range(500):
        x = rng.choice(elements)
        item = rng.choice(items)
        moved = act(g, x, item)
        ends = (edge_d0, edge_d1) if hasattr(item, "edge_id") else ()
        if any(act(g, x, end(g, item)) != end(g, moved) for end in ends):
            report.fail(f"{name}: action not equivariant at {item.text()}")
        report.counts["samples"] += 1


# ---------------------------------------------------------------------------
# 6. Fixed points for conjugated finite subgroups


def _finite_subgroup_words(g, name: str):
    """Vertex groups and edge images of a fixture, as normal-form lists."""
    out = []
    for vid in sorted(g.graph.vertices):
        order = g.vertex_groups[vid].group.order
        out.append([vertex_element(g, vid, h) for h in range(order)])
    for eid in sorted(g.graph.edges):
        for side, vid in enumerate((g.graph.d0[eid], g.graph.d1[eid])):
            out.append([vertex_element(g, vid, h) for h in g.inclusions[eid][side]])
    return out


def check_fixed_points(name: str, g, report: Report):
    pools = _finite_subgroup_words(g, name)
    elements = ball(g, 3)
    rng = random.Random(f"fix:{name}")
    for _ in range(20):
        base = rng.choice(pools)
        c = rng.choice(elements)
        c_inv = invert(c)
        conjugated = [multiply(multiply(c_inv, x), c) for x in base]
        # The answer is read off geodesics; check it through the action
        # instead, so the two tests stay independent.
        found = fixed_vertex(g, conjugated)
        tv = tree_vertex(g, found.vertex_id, found.rep)
        for x in conjugated:
            if act(g, x, tv) != tv:
                report.fail(f"{name}: {x.text()} moves {tv.text()}")
        report.counts["trials"] += 1


# ---------------------------------------------------------------------------
# 7. Relative malnormality of the amalgam factors

# Fixture -> (factor vertex, edge whose d0 image is the subgroup).
MALNORMAL = {
    "c4c6": ("v", "e"),
    "c2c2": ("u", "e"),
}


def check_relative_malnormality(name: str, g, report: Report):
    h_vertex, eid = MALNORMAL[name]
    chi = Subgroup(g.vertex_groups[h_vertex].group, tuple(sorted(set(g.inclusions[eid][0]))))
    inner = verify_relative_malnormality(g, h_vertex, chi)
    report.counts[f"{name}_checked"] = inner.counts.get("checked", 0)
    if not inner.ok:
        report.fail(f"{name}: {inner.problems[0]}")


# ---------------------------------------------------------------------------
# 8. Surgery witnesses all validate


def _witnesses(name: str, g):
    """(label, witness) for each rewrite the check replays on one fixture."""
    if name == "c4c6":
        yield "reverse c4c6", reverse_edge(g, "e")[1]
        chi = Subgroup(g.vertex_groups["v"].group, (0, 2))
        att, w1 = attach_amalgam_vertex(g, "v", chi, find_delta_conjugators(g, "v", chi))
        yield "attach c4c6", w1
        w2 = collapse_tree_edge(att, "e")[1]
        yield "collapse after attach", w2
        yield "attach round trip", compose_witness(w1, w2)
    elif name == "c6hnn":
        yield "reverse c6hnn", reverse_edge(g, "t")[1]
    elif name == "c4c2c4":
        yield "collapse c4c2c4", collapse_tree_edge(g, "e1")[1]
    elif name == "expand_demo":
        yield "expand demo", expand_vertex(g, "m")[1]


def check_surgery_witnesses(name: str, g, report: Report):
    for label, witness in _witnesses(name, g):
        inner = validate_witness(witness)
        report.counts["witnesses"] += 1
        if not inner.ok:
            report.fail(f"{label}: {inner.problems[0]}")


# ---------------------------------------------------------------------------
# 9. Finite quotients separate all small normal forms


def _sl23() -> FiniteGroup:
    """SL(2,3) as an explicit table: 2×2 matrices over F3 with determinant 1."""
    quads = itertools.product(range(3), repeat=4)
    mats = [(a, b, c, d) for a, b, c, d in quads if (a * d - b * c) % 3 == 1]
    index = {m: i for i, m in enumerate(mats)}

    def mul(m, n):
        (a, b, c, d), (e, f, g, h) = m, n
        product = (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
        return index[tuple(x % 3 for x in product)]

    table = [[mul(m, n) for n in mats] for m in mats]
    labels = ["".join(map(str, m)) for m in mats]
    return make_group({"table": table, "labels": labels, "name": "SL23"})


@functools.cache
def separation_targets() -> tuple[FiniteGroup, ...]:
    """Candidate quotients of order at most 24 for the separation sweep, built once."""
    specs: list = [f"cyclic {n}" for n in range(2, 25)]
    specs.extend(["dicyclic 3", "symmetric 3", "symmetric 4", "dicyclic 6"])
    specs.append(["cyclic 4", "symmetric 3"])
    specs.append(_sl23())
    return tuple(make_group(spec) for spec in specs)


def check_residual_finiteness(name: str, g, report: Report):
    targets = separation_targets()
    elements = ball(g, 3)
    found: list = []
    for i, x in enumerate(elements):
        for y in elements[i + 1 :]:
            diff = multiply(x, invert(y))
            report.counts["pairs"] += 1
            if any(q.image_of(diff) != q.target.identity for q in found):
                continue
            try:
                q = search_quotient(g, "separate", elements=[diff], targets=targets)
            except Exhausted:
                report.fail(
                    f"{name}: no quotient of order ≤ 24 separates "
                    f"{x.text()!r} from {y.text()!r}"
                )
                continue
            if q.target.order > 24:
                report.fail(f"{name}: found quotient has order {q.target.order}")
            found.append(q)
    report.counts[f"{name}_quotients"] = len(found)
    if name == "c4c6":
        q = search_quotient(g, "separate", elements=[nf(g, "v:g1")])
        if (q.target.order, q.vertex_images["v"][1], q.vertex_images["w"][1]) != (12, 3, 2):
            report.fail(
                f"separating the C4 generator found {q.target.name} "
                f"with images {dict(q.vertex_images)}"
            )
        report.counts["separate_a_order"] = q.target.order


# ---------------------------------------------------------------------------
# 10. The coset-complement functional reproduces |K|


def _alternating_words(g, rng, count: int):
    """Reduced words with interior syllables outside the edge images."""
    v_outside = (1, 3)  # C4 elements outside {0, 2}
    w_outside = (1, 2, 4, 5)  # C6 elements outside {0, 3}
    words = []
    while len(words) < count:
        sylls: list[tuple] = []
        if rng.random() < 0.5:
            sylls.append((VERTEX, "v", rng.choice(v_outside)))
        blocks = rng.randint(1, 3)
        for i in range(blocks):
            sylls.append((VERTEX, "w", rng.choice(w_outside)))
            if i + 1 < blocks:
                sylls.append((VERTEX, "v", rng.choice(v_outside)))
        if rng.random() < 0.5:
            sylls.append((VERTEX, "v", rng.choice(v_outside)))
        x = reduce(g, Word(tuple(sylls)))
        if not vertex_group_membership(g, "v", x):
            words.append(x)
    return words


def _factor_avoiding_quotient(g, x, found: list):
    """A quotient whose image of x lands outside the image of the v factor."""

    def suits(q) -> bool:
        return q.image_of(x) not in set(q.vertex_images["v"])

    for q in found:
        if suits(q):
            return q
    try:
        q, _ = _first_quotient(g, None, suits, failure="no quotient pushes x off the v factor")
    except Exhausted:
        return None
    found.append(q)
    return q


def check_coset_functional(name: str, g, report: Report):
    d = dunwoody_derivation(g, "v", "w", 5)
    rng = random.Random("coset-functional")
    found: list = []
    k_order = g.edge_groups["e"].order
    for x in _alternating_words(g, rng, 50):
        q = _factor_avoiding_quotient(g, x, found)
        if q is None:
            report.fail(f"no quotient pushes {x.text()!r} off the factor")
            continue
        pushed = q.push(evaluate(d, x)[0])
        value = coset_complement_functional(q, q.vertex_images["v"], pushed, 5)
        if value != k_order % 5:
            report.fail(
                f"functional returns {value} ≠ {k_order} on {x.text()!r} "
                f"through {q.target.name}"
            )
    report.counts["words"] = 50
    report.counts["quotients"] = len(found)


# ---------------------------------------------------------------------------
# Registry: name -> (the fixtures the check runs on, its per-fixture body)


CHECKS: tuple[tuple[str, tuple], ...] = (
    ("c01-derivation-law", (("c4c6", "c6hnn", "c4c2c4"), check_derivation_law)),
    ("c02-gluing-residues", (TABLE_FIXTURES, check_gluing_residues)),
    ("c03-kernel-scans", (tuple(KERNEL_SCANS), check_kernel_scans)),
    ("c04-dunwoody-vertex-kernel", (tuple(VERTEX_KERNELS), check_dunwoody_vertex_kernel)),
    ("c05-structure-tree-axioms", (TABLE_FIXTURES, check_structure_tree)),
    ("c06-fixed-points", (("c4c6", "c4c2c4"), check_fixed_points)),
    ("c07-relative-malnormality", (tuple(MALNORMAL), check_relative_malnormality)),
    (
        "c08-surgery-witnesses",
        (("c4c6", "c6hnn", "c4c2c4", "expand_demo"), check_surgery_witnesses),
    ),
    ("c09-residual-finiteness", (("c4c6", "c2c2"), check_residual_finiteness)),
    ("c10-coset-functional", (("c4c6",), check_coset_functional)),
)


def run_check(name: str, only: str | None = None) -> CheckResult:
    """Run one check on each of its fixtures that ``only`` admits (all when None)."""
    table = dict(CHECKS)
    if name not in table:
        raise ValueError(f"unknown check {name!r}")
    fixtures, body = table[name]
    start = time.perf_counter()
    report = Report(counts=Counter())
    admitted = [f for f in fixtures if only in (None, f)]
    for fixture in admitted:
        body(fixture, load_fixture(fixture), report)
    if not admitted:
        report.counts["skipped"] = 1
    return CheckResult(
        name=name,
        ok=report.ok,
        counts=dict(report.counts),
        problems=list(report.problems),
        seconds=time.perf_counter() - start,
    )


def run_checks(only: str | None = None) -> list[CheckResult]:
    """All acceptance checks in name order."""
    return [run_check(name, only) for name, _ in CHECKS]
