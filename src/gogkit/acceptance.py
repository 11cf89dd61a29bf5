"""The acceptance checks behind `gogkit verify all`, shared with the test suite.

Each check is property-based at desk scale: exhaustive where the domain is
finite, seeded sampling where it is not, and zero tolerance either way.
"""
from __future__ import annotations

import functools
import random
import time
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
from .quotients import (
    _first_quotient,
    coset_complement_functional,
    search_quotient,
)
from .structure_tree import (
    act,
    conjugate_finite_into_vertex,
    edge_d0,
    edge_d1,
    tree_ball,
    tree_vertex,
)
from .surgery import (
    attach_amalgam_vertex,
    collapse_tree_edge,
    compose_witness,
    expand_vertex,
    find_delta_conjugators,
    reverse_edge,
    validate_witness,
)

TABLE_FIXTURES = ("c4c6", "c6hnn", "c4c2c4", "c2c2")


@dataclass
class CheckResult:
    """Outcome of one named acceptance check."""

    name: str
    ok: bool
    counts: dict[str, int] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    seconds: float = 0.0


def _skip(report: Report):
    report.counts.clear()
    report.counts["skipped"] = 1
    return report


def _wanted(only: str | None, names) -> list[str]:
    return [n for n in names if only is None or n == only]


def _derivations(name: str) -> list[tuple[str, Derivation]]:
    """The constructed derivations for one fixture, labeled for reporting."""
    g = load_fixture(name)
    out = []
    if name == "c4c6":
        out.append(("dunwoody v→w", dunwoody_derivation(g, "v", "w", 5)))
        out.append(("access v", accessibility_derivation(g, "v", 5)))
    elif name == "c6hnn":
        out.append(("access v", accessibility_derivation(g, "v", 5)))
    elif name == "c4c2c4":
        out.append(("dunwoody m→w", dunwoody_derivation(g, "m", "w", 5)))
        out.append(("access m", accessibility_derivation(g, "m", 5)))
    elif name == "c2c2":
        out.append(("dunwoody u→w", dunwoody_derivation(g, "u", "w", 5)))
        out.append(("access u", accessibility_derivation(g, "u", 5)))
    return out


# ---------------------------------------------------------------------------
# 1. The derivation law on sampled ball pairs


def check_derivation_law(only: str | None = None) -> Report:
    report = Report()
    pairs = 0
    for name in _wanted(only, ("c4c6", "c6hnn", "c4c2c4")):
        for label, d in _derivations(name):
            g = d.owner
            elements = ball(g, 3)
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
                pairs += 1
    report.counts["pairs"] = pairs
    if not pairs:
        return _skip(report)
    return report


# ---------------------------------------------------------------------------
# 2. Gluing residues on every edge relator


def check_gluing_residues(only: str | None = None) -> Report:
    report = Report()
    checked = 0
    for name in _wanted(only, TABLE_FIXTURES):
        for label, d in _derivations(name):
            g = d.owner
            checked += len(presentation(g).relators) * d.rank
            zero = [ring_zero(g, d.mod)] * d.rank
            for _, _, rel, values in residues(g, functools.partial(evaluate, d), zero):
                for i, value in enumerate(values):
                    if not value.is_zero():
                        report.fail(
                            f"{name} [{label}] component {i}: relator "
                            f"{word_text(g, rel)} leaves residue {value.text()}"
                        )
    report.counts["residues"] = checked
    if not checked:
        return _skip(report)
    return report


# ---------------------------------------------------------------------------
# 3. Kernel scans against the designated subgroup


def check_kernel_scans(only: str | None = None) -> Report:
    report = Report()
    jobs = {
        "c4c6": ("v", 6),
        "c6hnn": ("v", 5),
        "c4c2c4": ("m", 5),
    }
    for name in _wanted(only, tuple(jobs)):
        base, radius = jobs[name]
        g = load_fixture(name)
        d = accessibility_derivation(g, base, 5)
        scan = kernel_scan(d, base, radius)
        report.counts[f"{name}_elements"] = scan.counts["elements"]
        if scan.counts["mismatches"]:
            report.fail(f"{name}: {scan.counts['mismatches']} kernel mismatches")
            report.problems.extend(scan.problems)
    if not report.counts:
        return _skip(report)
    return report


# ---------------------------------------------------------------------------
# 4. The vertex derivation vanishes exactly on the edge image


def check_dunwoody_vertex_kernel(only: str | None = None) -> Report:
    report = Report()
    jobs = {
        "c4c6": ("v", "w", "e"),
        "c4c2c4": ("m", "w", "e2"),
    }
    checked = 0
    for name in _wanted(only, tuple(jobs)):
        base, target, eid = jobs[name]
        g = load_fixture(name)
        d = dunwoody_derivation(g, base, target, 5)
        image = {g.incl(eid, 1, k) for k in range(g.edge_groups[eid].order)}
        order = g.vertex_groups[target].group.order
        for h in range(order):
            x = vertex_element(g, target, h)
            zero = is_zero(evaluate(d, x))
            if zero != (h in image):
                verb = "vanishes outside" if zero else "detects"
                report.fail(f"{name}: f {verb} the edge image at {x.text()}")
            checked += 1
    report.counts["elements"] = checked
    if not checked:
        return _skip(report)
    return report


# ---------------------------------------------------------------------------
# 5. Structure-tree axioms: tree shape, incidence formulas, equivariance


def check_structure_tree(only: str | None = None) -> Report:
    report = Report()
    edges = 0
    samples = 0
    for name in _wanted(only, TABLE_FIXTURES):
        g = load_fixture(name)
        tb = tree_ball(g, 4)
        if not tb.is_tree():
            report.fail(f"{name}: radius-4 ball is not a tree")
        for E in tb.edges:
            ends = {edge_d0(g, E), edge_d1(g, E)}
            if set(tb.incidence[E]) != ends:
                report.fail(f"{name}: incidence formula fails on {E.text()}")
            edges += 1
        rng = random.Random(f"tree:{name}")
        elements = ball(g, 3)
        items = tb.vertices + tb.edges
        for _ in range(500):
            x = rng.choice(elements)
            item = rng.choice(items)
            moved = act(g, x, item)
            if hasattr(item, "edge_id"):
                if act(g, x, edge_d0(g, item)) != edge_d0(g, moved) or act(
                    g, x, edge_d1(g, item)
                ) != edge_d1(g, moved):
                    report.fail(f"{name}: action not equivariant at {item.text()}")
            samples += 1
    report.counts["edges"] = edges
    report.counts["samples"] = samples
    if not samples:
        return _skip(report)
    return report


# ---------------------------------------------------------------------------
# 6. Fixed points for conjugated finite subgroups


def _finite_subgroup_words(g, name: str):
    """Vertex groups and edge images of a fixture, as normal-form lists."""
    out = []
    for vid in sorted(g.graph.vertices):
        order = g.vertex_groups[vid].group.order
        out.append([vertex_element(g, vid, h) for h in range(order)])
    for eid in sorted(g.graph.edges):
        for side in (0, 1):
            vid = g.graph.d0[eid] if side == 0 else g.graph.d1[eid]
            out.append(
                [
                    vertex_element(g, vid, g.incl(eid, side, k))
                    for k in range(g.edge_groups[eid].order)
                ]
            )
    return out


def check_fixed_points(only: str | None = None) -> Report:
    report = Report()
    trials = 0
    for name in _wanted(only, ("c4c6", "c4c2c4")):
        g = load_fixture(name)
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
            conj, vid = conjugate_finite_into_vertex(g, conjugated)
            tv = tree_vertex(g, vid, conj)
            for x in conjugated:
                if act(g, x, tv) != tv:
                    report.fail(f"{name}: {x.text()} moves {tv.text()}")
            trials += 1
    report.counts["trials"] = trials
    if not trials:
        return _skip(report)
    return report


# ---------------------------------------------------------------------------
# 7. Relative malnormality of the amalgam factors


def check_relative_malnormality(only: str | None = None) -> Report:
    report = Report()
    jobs = {
        "c4c6": ("v", "e"),
        "c2c2": ("u", "e"),
    }
    for name in _wanted(only, tuple(jobs)):
        h_vertex, eid = jobs[name]
        g = load_fixture(name)
        group = g.vertex_groups[h_vertex].group
        chi = Subgroup(
            group,
            tuple(sorted({g.incl(eid, 0, k) for k in range(g.edge_groups[eid].order)})),
        )
        inner = verify_relative_malnormality(g, h_vertex, chi)
        report.counts[f"{name}_checked"] = inner.counts.get("checked", 0)
        if not inner.ok:
            report.fail(f"{name}: {inner.problems[0]}")
    if not report.counts:
        return _skip(report)
    return report


# ---------------------------------------------------------------------------
# 8. Surgery witnesses all validate


def check_surgery_witnesses(only: str | None = None) -> Report:
    report = Report()
    witnesses = 0

    def take(label: str, witness):
        nonlocal witnesses
        inner = validate_witness(witness)
        witnesses += 1
        if not inner.ok:
            report.fail(f"{label}: {inner.problems[0]}")

    if only in (None, "c4c6"):
        g = load_fixture("c4c6")
        _, w = reverse_edge(g, "e")
        take("reverse c4c6", w)
        chi = Subgroup(g.vertex_groups["v"].group, (0, 2))
        table = find_delta_conjugators(g, "v", chi)
        att, w1 = attach_amalgam_vertex(g, "v", chi, table)
        take("attach c4c6", w1)
        _, w2 = collapse_tree_edge(att, "e")
        take("collapse after attach", w2)
        take("attach round trip", compose_witness(w1, w2))
    if only in (None, "c6hnn"):
        g = load_fixture("c6hnn")
        _, w = reverse_edge(g, "t")
        take("reverse c6hnn", w)
    if only in (None, "c4c2c4"):
        g = load_fixture("c4c2c4")
        _, w = collapse_tree_edge(g, "e1")
        take("collapse c4c2c4", w)
    if only in (None, "expand_demo"):
        g = load_fixture("expand_demo")
        _, w = expand_vertex(g, "m")
        take("expand demo", w)
    report.counts["witnesses"] = witnesses
    if not witnesses:
        return _skip(report)
    return report


# ---------------------------------------------------------------------------
# 9. Finite quotients separate all small normal forms


def _sl23() -> FiniteGroup:
    """SL(2,3) as an explicit table: 2×2 matrices over F3 with determinant 1."""
    mats = [
        (a, b, c, d)
        for a in range(3)
        for b in range(3)
        for c in range(3)
        for d in range(3)
        if (a * d - b * c) % 3 == 1
    ]
    index = {m: i for i, m in enumerate(mats)}
    table = []
    for m in mats:
        row = []
        for n in mats:
            row.append(
                index[
                    (
                        (m[0] * n[0] + m[1] * n[2]) % 3,
                        (m[0] * n[1] + m[1] * n[3]) % 3,
                        (m[2] * n[0] + m[3] * n[2]) % 3,
                        (m[2] * n[1] + m[3] * n[3]) % 3,
                    )
                ]
            )
        table.append(row)
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


def check_residual_finiteness(only: str | None = None) -> Report:
    report = Report()
    pairs = 0
    targets = separation_targets()
    for name in _wanted(only, ("c4c6", "c2c2")):
        g = load_fixture(name)
        elements = ball(g, 3)
        found: list = []
        for i, x in enumerate(elements):
            for y in elements[i + 1 :]:
                diff = multiply(x, invert(y))
                pairs += 1
                if any(
                    q.image_of(diff) != q.target.identity for q in found
                ):
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
    report.counts["pairs"] = pairs
    if not pairs:
        return _skip(report)
    if only in (None, "c4c6"):
        g = load_fixture("c4c6")
        q = search_quotient(g, "separate", elements=[nf(g, "v:g1")])
        if (
            q.target.order != 12
            or q.vertex_images["v"][1] != 3
            or q.vertex_images["w"][1] != 2
        ):
            report.fail(
                f"separating the C4 generator found {q.target.name} "
                f"with images {q.vertex_images}"
            )
        report.counts["separate_a_order"] = q.target.order
    return report


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


def check_coset_functional(only: str | None = None) -> Report:
    report = Report()
    if only is not None and only != "c4c6":
        return _skip(report)
    g = load_fixture("c4c6")
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
    return report


# ---------------------------------------------------------------------------
# Registry


CHECKS: tuple[tuple[str, object], ...] = (
    ("c01-derivation-law", check_derivation_law),
    ("c02-gluing-residues", check_gluing_residues),
    ("c03-kernel-scans", check_kernel_scans),
    ("c04-dunwoody-vertex-kernel", check_dunwoody_vertex_kernel),
    ("c05-structure-tree-axioms", check_structure_tree),
    ("c06-fixed-points", check_fixed_points),
    ("c07-relative-malnormality", check_relative_malnormality),
    ("c08-surgery-witnesses", check_surgery_witnesses),
    ("c09-residual-finiteness", check_residual_finiteness),
    ("c10-coset-functional", check_coset_functional),
)


def run_check(name: str, only: str | None = None) -> CheckResult:
    table = dict(CHECKS)
    if name not in table:
        raise ValueError(f"unknown check {name!r}")
    start = time.perf_counter()
    report = table[name](only)
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
