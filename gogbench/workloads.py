"""The benchmark's three workloads: a seeded round of checked operations on gogkit.

An operation is one closed-loop query: the library calls and the check of
their output.  Operations reach gogkit only through ``call(span name, fn,
*args)`` (see ``spans.py``), so a traced run can time every layer without a
change to the library.  Calls made only to check an output are named
``<layer>.check``.

A workload is one round of operations, run over and over.  The seed picks
the operands and the order; the kinds of operation and their numbers are the
same for every seed, so runs with different seeds do the same amount of each
kind of work.  The numbers copy the acceptance checks each workload stands
for; ``mix.py`` measures those checks, and README.md records the figures.
"""
from __future__ import annotations

import hashlib
import json
import random
import string

from gogkit.acceptance import separation_targets
from gogkit.derivation import (
    accessibility_derivation,
    dunwoody_derivation,
    evaluate,
    kernel_scan,
)
from gogkit.documents import document_to_json, parse_document
from gogkit.errors import Exhausted
from gogkit.finite_group import Subgroup, make_group, subgroup_closure
from gogkit.fixtures import fixture_text, load_fixture
from gogkit.gog import (
    LETTER,
    VERTEX,
    Word,
    ball,
    equal,
    identity,
    invert,
    multiply,
    reduce,
    validate,
    word_text,
)
from gogkit.group_ring import act_right, add
from gogkit.quotients import (
    _iter_quotients,
    certify_nonkernel,
    check_certificate,
    default_targets,
    quotient_from_images,
    search_quotient,
)
from gogkit.structure_tree import TreeEdge, act, edge_d0, edge_d1, tree_ball
from gogkit.surgery import (
    attach_amalgam_vertex,
    collapse_tree_edge,
    compose_witness,
    expand_vertex,
    find_delta_conjugators,
    replay_transcript,
    reverse_edge,
    validate_witness,
    witness_ball_report,
    witness_transcript,
)

from spans import NoTrace, check

TABLE_FIXTURES = ("c4c6", "c6hnn", "c4c2c4", "c2c2")

# Exact counts measured when the benchmark was written.  They are invariants
# of the groups, so a different value is a wrong answer, not a slower one.
BALL_SIZES = {
    ("c4c6", 3): 28,
    ("c4c6", 4): 44,
    ("c4c6", 5): 68,
    ("c4c6", 6): 100,
    ("c4c6", 8): 212,
    ("c4c6", 9): 308,
    ("c4c6", 10): 436,
    ("c6hnn", 3): 80,
    ("c6hnn", 4): 212,
    ("c6hnn", 5): 552,
    ("c4c2c4", 3): 14,
    ("c4c2c4", 4): 18,
    ("c4c2c4", 5): 22,
    ("c4c2c4", 6): 26,
    ("c2c2", 3): 7,
    ("c2c2", 4): 9,
    ("c2c2", 6): 13,
}
TREE_BALL_VERTICES = {"c4c6": 19, "c6hnn": 937, "c4c2c4": 9, "c2c2": 9}
HOM_COUNTS = {
    ("c4c6", "symmetric 4"): 96,
    ("c4c6", "symmetric 5"): 576,
    ("c6hnn", "symmetric 4"): 264,
    ("c6hnn", "symmetric 5"): 3000,
    ("c4c2c4", "symmetric 4"): 112,
    ("c4c2c4", "symmetric 5"): 736,
    ("c2c2", "symmetric 4"): 100,
    ("c2c2", "symmetric 5"): 676,
}


class Op:
    """One operation: ``fn(call, *args)`` raises CheckFailed on a wrong output."""

    __slots__ = ("kind", "fn", "args", "desc")

    def __init__(self, kind: str, fn, args: tuple, desc: str):
        self.kind = kind
        self.fn = fn
        self.args = args
        self.desc = desc


class Workload:
    """The round of ops, the untimed warm-up ops run during set-up, and the
    untimed check ops each run makes once after set-up."""

    def __init__(self, ops: list[Op], warmup: list[Op], checks: list[Op] = ()):
        self.ops = ops
        self.warmup = warmup
        self.checks = list(checks)
        self.digest = hashlib.sha256("\n".join(op.desc for op in ops).encode()).hexdigest()


class Dealer:
    """Draws from pools the way cards are dealt: every element of a pool once
    per pass, each pass in a new seeded order.

    Elements differ in cost (one separation needs S5, another is done in
    C2), so drawing with replacement would let the seed change how much
    work a round holds; dealt, every seed draws each element equally often
    to within one.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.hands: dict[int, list] = {}

    def choice(self, pool):
        hand = self.hands.get(id(pool))
        if not hand:
            hand = self.hands[id(pool)] = list(pool)
            self.rng.shuffle(hand)
        return hand.pop()


def setup(name: str, seed: int, call) -> Workload:
    """Build the long-lived inputs and the seeded round, then warm up."""
    builders = {"reads": _reads, "quotients": _quotients, "surgery": _surgery}
    rng = random.Random(f"gogbench:{name}:{seed}")
    workload = builders[name](rng, call)
    plain = NoTrace()
    for op in workload.warmup:
        op.fn(plain, *op.args)
    return workload


# ---------------------------------------------------------------------------
# Shared inputs


def _load(call, name: str):
    return call("documents.parse", parse_document, fixture_text(name)).gog


def _ball(call, g, name: str, radius: int):
    elements = call("gog.ball", ball, g, radius)
    expected = BALL_SIZES.get((name, radius))
    check(expected is None or len(elements) == expected, "gog",
          f"{name} ball({radius}) has {len(elements)} elements, expected {expected}")
    return elements


def _alphabet(g) -> list[tuple]:
    """Every one-syllable word: non-identity vertex elements and edge letters."""
    out = []
    for vid in sorted(g.graph.vertices):
        out.extend((VERTEX, vid, h) for h in g.vertex_groups[vid].generator_handles())
    for eid in sorted(g.graph.edges):
        out.extend(((LETTER, eid, 1), (LETTER, eid, -1)))
    return out


def _derivations(g, name: str) -> list:
    """The derivations the acceptance checks use on each fixture."""
    base = {"c4c6": "v", "c6hnn": "v", "c4c2c4": "m", "c2c2": "u"}[name]
    out = [accessibility_derivation(g, base, 5)]
    if name != "c6hnn":
        out.append(dunwoody_derivation(g, base, "w", 5))
    return out


# ---------------------------------------------------------------------------
# reads: queries against long-lived graphs


def op_reduce(call, g, word):
    x = call("gog.reduce", reduce, g, word)
    # Reduction is a homomorphism: reducing the halves and multiplying agrees.
    half = len(word) // 2
    a = call("gog.check", reduce, g, Word(word.syllables[:half]))
    b = call("gog.check", reduce, g, Word(word.syllables[half:]))
    check(call("gog.equal", equal, call("gog.check", multiply, a, b), x), "gog",
          f"reduce is not multiplicative on {word_text(g, word)}")


def op_multiply(call, x, y):
    z = call("gog.multiply", multiply, x, y)
    back = call("gog.check", multiply, call("gog.check", invert, x), z)
    check(call("gog.equal", equal, back, y), "gog", f"x⁻¹·(x·y) != y for {x.text()}, {y.text()}")


def op_invert(call, x):
    xi = call("gog.invert", invert, x)
    one = call("gog.check", multiply, x, xi)
    check(call("gog.equal", equal, one, identity(x.owner)), "gog", f"x·x⁻¹ != 1 for {x.text()}")


def op_ball(call, g, name, radius):
    elements = call("gog.ball", ball, g, radius)
    call.count("gog.ball.elements", len(elements))
    check(len(elements) == BALL_SIZES[(name, radius)], "gog",
          f"{name} ball({radius}) has {len(elements)} elements")


def op_law(call, d, u, v):
    """The derivation law f(uv) = f(u)·v + f(v), componentwise."""
    uv = call("gog.multiply", multiply, u, v)
    lhs = call("derivation.evaluate", evaluate, d, uv)
    fu = call("derivation.evaluate", evaluate, d, u)
    fv = call("derivation.evaluate", evaluate, d, v)
    for i in range(d.rank):
        rhs = call("group_ring.add", add, call("group_ring.act_right", act_right, fu[i], v), fv[i])
        check(lhs[i] == rhs, "derivation", f"law breaks on u={u.text()}, v={v.text()}")


def op_kernel_scan(call, d, name, base, radius):
    report = call("derivation.kernel_scan", kernel_scan, d, base, radius)
    call.count("derivation.kernel_scan.elements", report.counts["elements"])
    call.count("derivation.kernel_scan.mismatches", report.counts["mismatches"])
    check(report.counts["mismatches"] == 0, "derivation", f"{name}: {report.problems[:1]}")
    check(report.counts["elements"] == BALL_SIZES[(name, radius)], "gog",
          f"{name}: kernel scan saw {report.counts['elements']} elements")


def op_tree_ball(call, g, name):
    tb = call("structure_tree.tree_ball", tree_ball, g, 4)
    call.count("structure_tree.tree_ball.vertices", len(tb.vertices))
    check(call("structure_tree.check", tb.is_tree), "structure_tree", f"{name}: not a tree")
    check(len(tb.vertices) == TREE_BALL_VERTICES[name], "structure_tree",
          f"{name}: tree_ball(4) has {len(tb.vertices)} vertices")
    # The incidence formula on every edge, as c05 checks it.
    for E in tb.edges:
        ends = {call("structure_tree.check", edge_d0, g, E), call("structure_tree.check", edge_d1, g, E)}
        check(set(tb.incidence[E]) == ends, "structure_tree", f"{name}: incidence fails at {E.text()}")


def op_act(call, g, x, item):
    """Equivariance of the action: endpoints of x·E are x·(endpoints of E)."""
    moved = call("structure_tree.act", act, g, x, item)
    if isinstance(item, TreeEdge):
        for end in (edge_d0, edge_d1):
            lhs = call("structure_tree.check", act, g, x, call("structure_tree.check", end, g, item))
            check(lhs == call("structure_tree.check", end, g, moved), "structure_tree",
                  f"action not equivariant at {item.text()} by {x.text()}")
    else:
        back = call("structure_tree.check", act, g, call("gog.check", invert, x), moved)
        check(back == item, "structure_tree", f"x⁻¹·(x·V) != V at {item.text()}")


# The round of `reads` is c01, c03 and c05 at full size, with seeded operands:
# c01's law jobs (fixture, derivation), 1000 pairs each; c03's kernel scans;
# c05's radius-4 tree balls and 500 action samples per fixture.
LAW_JOBS = (("c4c6", 0), ("c4c6", 1), ("c6hnn", 0), ("c4c2c4", 0), ("c4c2c4", 1))
LAW_PAIRS = 1000
KERNEL_SCANS = (("c4c6", "v", 6), ("c6hnn", "v", 5), ("c4c2c4", "m", 5))
ACT_SAMPLES = 500
# Probes that no check calls directly, one set per round: large balls, and
# reduce, multiply and invert as single queries (README.md gives their share).
BALL_PROBES = (("c4c6", 8), ("c4c6", 9), ("c4c6", 10), ("c6hnn", 4), ("c6hnn", 5))
WORD_LENGTHS = (8, 16, 32, 64)
POINT_PROBES = 4  # per fixture and kind (and per word length)


def _reads(rng, call) -> Workload:
    graphs = {n: _load(call, n) for n in TABLE_FIXTURES + ("expand_demo",)}
    alphabets = {n: _alphabet(g) for n, g in graphs.items()}
    ball3 = {n: _ball(call, graphs[n], n, 3) for n in TABLE_FIXTURES}
    ball4 = {n: _ball(call, graphs[n], n, 4) for n in TABLE_FIXTURES}
    derivs = {n: _derivations(graphs[n], n) for n in TABLE_FIXTURES}
    items = {}
    for n in TABLE_FIXTURES:
        tb = call("structure_tree.tree_ball", tree_ball, graphs[n], 4)
        items[n] = tb.vertices + tb.edges

    def word_op(r, name, cls, length):
        g = graphs[name]
        word = Word(tuple(r.choice(alphabets[name]) for _ in range(length)))
        return Op(f"reduce.{cls}", op_reduce, (g, word), f"reduce {name} {word_text(g, word)}")

    def pair_op(r, name, kind):
        x, y = r.choice(ball4[name]), r.choice(ball4[name])
        if kind == "multiply":
            return Op(kind, op_multiply, (x, y), f"multiply {name} {x.text()} | {y.text()}")
        return Op(kind, op_invert, (x,), f"invert {name} {x.text()}")

    def law_op(r, name, i):
        u, v = r.choice(ball3[name]), r.choice(ball3[name])
        return Op("law", op_law, (derivs[name][i], u, v), f"law {name} {i} {u.text()} | {v.text()}")

    def act_op(r, name):
        x, item = r.choice(ball3[name]), r.choice(items[name])
        return Op("act", op_act, (graphs[name], x, item), f"act {name} {x.text()} | {item.text()}")

    def scan_op(n, base, rad):
        return Op("kernel_scan", op_kernel_scan, (derivs[n][0], n, base, rad), f"kernel_scan {n} {base} {rad}")

    def make_round(rng):
        r = Dealer(rng)
        ops = [law_op(r, n, i) for n, i in LAW_JOBS for _ in range(LAW_PAIRS)]
        ops.extend(scan_op(n, base, rad) for n, base, rad in KERNEL_SCANS)
        for n in TABLE_FIXTURES:
            ops.append(Op("tree_ball", op_tree_ball, (graphs[n], n), f"tree_ball {n} 4"))
            ops.extend(act_op(r, n) for _ in range(ACT_SAMPLES))
        ops.extend(Op("ball", op_ball, (graphs[n], n, rad), f"ball {n} {rad}") for n, rad in BALL_PROBES)
        for n in TABLE_FIXTURES:
            for length in WORD_LENGTHS:
                ops.extend(word_op(r, n, f"L{length}", length) for _ in range(POINT_PROBES))
            ops.extend(pair_op(r, n, kind) for kind in ("multiply", "invert") for _ in range(POINT_PROBES))
        ops.extend(word_op(r, "expand_demo", "nested", 16) for _ in range(POINT_PROBES * 4))
        rng.shuffle(ops)
        return ops

    w = random.Random("gogbench:reads:warmup")
    warmup = [word_op(w, n, f"L{length}", length) for n in TABLE_FIXTURES for length in (8, 64)]
    warmup += [word_op(w, "expand_demo", "nested", 16)]
    warmup += [pair_op(w, n, k) for n in TABLE_FIXTURES for k in ("multiply", "invert")]
    warmup += [law_op(w, n, i) for n, i in LAW_JOBS] + [act_op(w, n) for n in TABLE_FIXTURES]
    warmup += [
        Op("ball", op_ball, (graphs["c6hnn"], "c6hnn", 4), ""),
        scan_op("c4c2c4", "m", 5),
        Op("tree_ball", op_tree_ball, (graphs["c2c2"], "c2c2"), ""),
    ]
    return Workload(make_round(rng), warmup)


# ---------------------------------------------------------------------------
# quotients: first-hit and exhausting searches for finite quotients


def _check_quotient(call, g, q):
    """A found quotient must be a homomorphism: it kills every relator."""
    rebuilt = call("quotients.check", quotient_from_images,
                   g, q.target, q.vertex_images, q.letter_images)
    check(rebuilt is not None, "quotients", f"{q.target.name} images are not a homomorphism")


def op_separate(call, g, x, targets):
    call.count("quotients.searches")
    q = call("quotients.first_hit", search_quotient, g, "separate", elements=[x], targets=targets)
    call.count("quotients.hits")
    check(q.is_vertex_injective(), "quotients", "separating quotient is not vertex-injective")
    check(q.image_of(x) != q.target.identity, "quotients", f"{q.target.name} kills {x.text()}")
    _check_quotient(call, g, q)


def op_embed(call, g, vertex, subgroup):
    call.count("quotients.searches")
    q = call("quotients.first_hit", search_quotient, g, "embed", vertex=vertex, subgroup=subgroup)
    call.count("quotients.hits")
    images = [q.vertex_images[vertex][h] for h in subgroup.elements]
    check(len(set(images)) == len(images), "quotients", f"{q.target.name} does not embed {vertex}")
    _check_quotient(call, g, q)


def op_certify(call, d, x):
    call.count("quotients.searches")
    cert = call("quotients.certify", certify_nonkernel, d, x)
    call.count("quotients.hits")
    check(call("quotients.check", check_certificate, cert, d, x), "quotients",
          f"certificate for {x.text()} does not re-derive")


def op_exhaust(call, g, y, target):
    """Separating y⁶⁰ from 1 walks every hom into S4 or S5 (exponents 12 and 60)."""
    call.count("quotients.searches")
    try:
        q = call("quotients.exhaust", search_quotient, g, "separate", elements=[y], targets=[target])
    except Exhausted:
        return
    check(False, "quotients", f"{q.target.name} separates a 60th power")


def _power(call, x, n: int):
    out, base = identity(x.owner), x
    while n:
        if n & 1:
            out = call("gog.multiply", multiply, out, base)
        base = call("gog.multiply", multiply, base, base)
        n >>= 1
    return out


# The round of `quotients` takes its shares of time from c09 and c10 with
# every table built (README.md): first-hit separation as c09, nonkernel
# certificates for c10's derivation values, and exhausting walks for c10's
# walks through whole hom spaces.  Embedding searches are a probe.
SEPARATE_OPS = 320  # per fixture
CERTIFY_OPS = 425  # per fixture
EMBED_OPS = 4  # per fixture
# Every exhausting search into S4 or S5 but c4c2c4 -> S5, which alone would
# take most of a round; the traced run walks that hom space in its checks.
EXHAUSTS = (
    ("c2c2", "symmetric 4"),
    ("c4c6", "symmetric 4"),
    ("c6hnn", "symmetric 4"),
    ("c4c2c4", "symmetric 4"),
    ("c2c2", "symmetric 5"),
    ("c4c6", "symmetric 5"),
    ("c6hnn", "symmetric 5"),
)


def op_hom_count(call, g, name, spec, ys):
    """Walk every hom into the target: each kills the relators, none separates
    the elements ``ys`` (so searches separating them rightly end in
    Exhausted), and their number is the one recorded in HOM_COUNTS."""
    target = make_group(spec)
    homs = 0
    for q in call("quotients.check", list, _iter_quotients(g, target)):
        homs += 1
        _check_quotient(call, g, q)
        if q.is_vertex_injective():
            check(all(q.image_of(y) == target.identity for y in ys), "quotients",
                  f"a hom {name} -> {spec} separates a 60th power")
    check(homs == HOM_COUNTS[(name, spec)], "quotients",
          f"{name} -> {spec} has {homs} homs, expected {HOM_COUNTS[(name, spec)]}")


def _quotients(rng, call) -> Workload:
    graphs = {n: _load(call, n) for n in TABLE_FIXTURES}
    # Every table a search may reach is built here, not inside a timed op:
    # the separation pool (with SL(2,3)) and the default pool up to S6.
    targets = [call("finite_group.make_group", make_group, s) for s in separation_targets()]
    defaults = call("finite_group.make_group", default_targets)
    for group in {id(g): g for g in targets + defaults}.values():
        call.count("finite_group.table_entries", group.order**2)

    ball3 = {n: _ball(call, graphs[n], n, 3) for n in TABLE_FIXTURES}
    pool = {n: [x for x in _ball(call, graphs[n], n, 4) if x.syllables] for n in TABLE_FIXTURES}
    derivs = {n: _derivations(graphs[n], n)[0] for n in TABLE_FIXTURES}
    nonzero = {
        n: [x for x in ball3[n]
            if not all(v.is_zero() for v in call("derivation.evaluate", evaluate, derivs[n], x))]
        for n in TABLE_FIXTURES
    }
    # 60th powers of infinite-order elements, all of one length per fixture so
    # the seed does not change how long an exhausting search takes.
    powers = {}
    for n in TABLE_FIXTURES:
        by_length: dict[int, list] = {}
        for x in ball3[n]:
            y = _power(call, x, 60)
            if y.syllables:
                by_length.setdefault(len(y), []).append(y)
        powers[n] = max(by_length.values(), key=len)
    subgroups = {}
    for n in TABLE_FIXTURES:
        g = graphs[n]
        for vid in sorted(g.graph.vertices):
            group = g.vertex_groups[vid].group
            subgroups.setdefault(n, []).extend(
                (vid, subgroup_closure(group, [h]))
                for h in range(group.order)
                if h != group.identity
            )

    def separate_op(r, n):
        x = r.choice(pool[n])
        return Op("separate", op_separate, (graphs[n], x, targets), f"separate {n} {x.text()}")

    def embed_op(r, n):
        vid, sub = r.choice(subgroups[n])
        return Op("embed", op_embed, (graphs[n], vid, sub), f"embed {n} {vid} {sub.elements}")

    def certify_op(r, n):
        x = r.choice(nonzero[n])
        return Op("certify", op_certify, (derivs[n], x), f"certify {n} {x.text()}")

    def exhaust_op(r, n, spec):
        y = r.choice(powers[n])
        return Op("exhaust", op_exhaust, (graphs[n], y, make_group(spec)), f"exhaust {n} {spec} {y.text()}")

    deal, ops = Dealer(rng), []
    for n in TABLE_FIXTURES:
        ops.extend(separate_op(deal, n) for _ in range(SEPARATE_OPS))
        ops.extend(embed_op(deal, n) for _ in range(EMBED_OPS))
        ops.extend(certify_op(deal, n) for _ in range(CERTIFY_OPS))
    exhausts = [exhaust_op(deal, n, spec) for n, spec in EXHAUSTS]
    ops.extend(exhausts)
    rng.shuffle(ops)

    # Untimed checks, run once after set-up: every hom space the round
    # exhausts, walked and counted.
    checks = [
        Op("quotients.hom_count", op_hom_count, (graphs[n], n, spec, [op.args[1]]), f"hom_count {n} {spec}")
        for (n, spec), op in zip(EXHAUSTS, exhausts)
    ]
    w = random.Random("gogbench:quotients:warmup")
    warmup = [separate_op(w, n) for n in TABLE_FIXTURES] + [embed_op(w, n) for n in TABLE_FIXTURES]
    warmup += [certify_op(w, n) for n in TABLE_FIXTURES] + [exhaust_op(w, "c2c2", "symmetric 4")]
    return Workload(ops, warmup, checks)


def hom_count_checks() -> list[Op]:
    """Checks of the hom spaces the round does not exhaust, for the traced run."""
    out = []
    for name, spec in HOM_COUNTS:
        if (name, spec) not in EXHAUSTS:
            g = load_fixture(name)
            out.append(Op("quotients.hom_count", op_hom_count, (g, name, spec, []), f"hom_count {name} {spec}"))
    return out


# ---------------------------------------------------------------------------
# surgery: rewrites of freshly parsed, short-lived graphs


def _renamed(name: str, rng) -> tuple[str, dict[str, str]]:
    """The fixture with seeded vertex and edge ids, and the old → new id map."""
    data = json.loads(fixture_text(name))
    graph = data["graph"]
    old = [v["id"] for v in graph["vertices"]] + [e["id"] for e in graph["edges"]]
    fresh = set()
    while len(fresh) < len(old):
        fresh.add("".join(rng.choice(string.ascii_lowercase) for _ in range(4)))
    ids = dict(zip(old, sorted(fresh)))
    for v in graph["vertices"]:
        v["id"] = ids[v["id"]]
    for e in graph["edges"]:
        e["id"], e["from"], e["to"] = ids[e["id"]], ids[e["from"]], ids[e["to"]]
    data["spanning_tree"] = [ids[e] for e in data["spanning_tree"]]
    data["basepoint"] = ids[data["basepoint"]]
    return json.dumps(data), ids


def _rewrite(call, g, plan: tuple):
    """Apply one rewrite plan; returns (output graph, witness)."""
    kind = plan[0]
    if kind == "reverse":
        return call("surgery.rewrite", reverse_edge, g, plan[1])
    if kind == "collapse":
        return call("surgery.rewrite", collapse_tree_edge, g, plan[1])
    if kind == "expand":
        return call("surgery.rewrite", expand_vertex, g, plan[1])
    # attach, then for "attach-collapse" and "attach-compose" collapse an edge
    # of the result: the witness is that of the collapse, or the composite.
    vertex, chi_elements = plan[1], plan[2]
    chi = Subgroup(g.vertex_groups[vertex].group, chi_elements)
    table = call("surgery.rewrite", find_delta_conjugators, g, vertex, chi)
    out, w1 = call("surgery.rewrite", attach_amalgam_vertex, g, vertex, chi, table)
    if kind == "attach":
        return out, w1
    out2, w2 = call("surgery.rewrite", collapse_tree_edge, out, plan[3])
    if kind == "attach-collapse":
        return out2, w2
    return out2, call("surgery.rewrite", compose_witness, w1, w2)


def op_surgery(call, text, plan, radius):
    doc = call("documents.parse", parse_document, text)
    report = call("gog.validate", validate, doc.gog)
    check(report.ok, "gog", f"document does not validate: {report.problems[:1]}")
    out, witness = _rewrite(call, doc.gog, plan)
    checked = call("surgery.validate_witness", validate_witness, witness)
    check(checked.ok, "surgery", f"{plan[0]} witness fails: {checked.problems[:1]}")
    call.count("surgery.relators_checked",
               checked.counts["source_relators"] + checked.counts["target_relators"])
    balls = call("surgery.ball_report", witness_ball_report, witness, radius)
    check(balls.ok, "surgery", f"{plan[0]} witness collapses a ball: {balls.problems[:1]}")
    transcript = json.dumps(call("surgery.transcript", witness_transcript, plan[0], witness))
    replayed = call("surgery.replay", replay_transcript, transcript)
    check(replayed.ok, "surgery", f"{plan[0]} transcript does not replay: {replayed.problems[:1]}")
    saved = call("documents.serialize", document_to_json, out)
    again = call("documents.parse", parse_document, saved)
    check(call("documents.check", document_to_json, again.gog) == saved, "documents",
          f"{plan[0]} output does not survive a JSON round trip")


# The witnesses c08 validates, one plan each: (fixture, rewrite plan with
# fixture ids).
SURGERIES = (
    ("c4c6", ("reverse", "e")),
    ("c4c6", ("attach", "v", (0, 2))),
    ("c4c6", ("attach-collapse", "v", (0, 2), "e")),
    ("c4c6", ("attach-compose", "v", (0, 2), "e")),
    ("c6hnn", ("reverse", "t")),
    ("c4c2c4", ("collapse", "e1")),
    ("expand_demo", ("expand", "m")),
)


def _surgery(rng, call) -> Workload:
    def surgery_op(r, name, plan, radius):
        text, ids = _renamed(name, r)
        plan = tuple(ids.get(p, p) if isinstance(p, str) else p for p in plan)
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        return Op(f"surgery.{plan[0]}", op_surgery, (text, plan, radius),
                  f"surgery {name} {plan} r{radius} {digest}")

    # Each plan five times with a radius-2 ball report and five times with
    # radius 3, on ten differently renamed copies of its fixture.
    ops = [surgery_op(rng, n, plan, radius)
           for n, plan in SURGERIES for radius in (2, 3) for _ in range(5)]
    rng.shuffle(ops)
    w = random.Random("gogbench:surgery:warmup")
    warmup = [surgery_op(w, n, plan, 2) for n, plan in SURGERIES]
    return Workload(ops, warmup)
