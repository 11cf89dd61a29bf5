"""Same-behaviour digests of gogkit: one ``surface lines sha256`` line per surface.

    python3 tools/parity.py                  # this tree's digests
    python3 tools/parity.py --parent HEAD~1  # both trees', naming the surfaces that differ

A surface is one text the library or its CLI writes: ``verify all`` stdout,
ball lists, tree balls as DOT, normal forms at every base, ``coset_rep``
choices, document error texts, rewritten documents and their transcripts,
first-hit quotients and ``Exhausted`` texts, derivation values on ball
elements, derivation data.  Every input is fixed here, the random ones by
seeds, so two trees that behave alike print the same lines.  The last line
digests all the others.

With ``--parent REV``, REV is extracted by ``git archive``, as
``tools/bench_pairs.py`` does, and this script runs once against each tree's
``src/`` (``--src``).  It exits 1 when a surface differs.  It calls only
public functions and a few long-standing private ones (``_reduce_from``,
``acceptance._witnesses``, ``acceptance._derivations``), so an older tree
runs it as it is.
"""
from __future__ import annotations

import argparse
import contextlib
import copy
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TABLE_FIXTURES = ("c4c6", "c6hnn", "c4c2c4", "c2c2")
TARGETS = 4  # cyclic groups of order 2 to 24, then S3 and S4


def _cli(*argv: str) -> list[str]:
    from gogkit import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return out.getvalue().splitlines() + [f"exit {code}"]


def _error_text(call) -> str:
    """What ``call()`` returns, or the type and text of the error it raises."""
    from gogkit.errors import GogkitError

    try:
        return str(call())
    except (GogkitError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _handles(vg):
    """A vertex group's handles, its radius-3 ball when it is nested."""
    from gogkit.gog import ball

    return vg.handles() if vg.order is not None else ball(vg.sub, 3)


def _balls():
    from gogkit.fixtures import load_fixture
    from gogkit.gog import ball

    for name in TABLE_FIXTURES:
        g = load_fixture(name)
        for r in range(5 if name == "c6hnn" else 6):
            yield f"ball/{name}/r{r}", [x.text() for x in ball(g, r)]


def _normal_forms():
    """Seeded words over every handle and letter, reduced at every vertex."""
    from gogkit.fixtures import FIXTURE_NAMES, load_fixture
    from gogkit.gog import LETTER, VERTEX, Word, _reduce_from, word_text

    for name in FIXTURE_NAMES:
        g = load_fixture(name)
        rng = random.Random(f"nf {name}")
        letters = [(VERTEX, v, h) for v in sorted(g.graph.vertices)
                   for h in _handles(g.vertex_groups[v])]
        letters += [(LETTER, e, s) for e in sorted(g.graph.edges) for s in (1, -1)]
        lines = []
        for _ in range(60):
            word = tuple(rng.choice(letters) for _ in range(rng.randrange(11)))
            lines.append(word_text(g, Word(word)))
            lines += [f"  {base}: {word_text(g, Word(_reduce_from(g, word, base)))}"
                      for base in sorted(g.graph.vertices)]
        yield f"reduce/{name}", lines


def _coset_reps():
    """``coset_rep`` on every edge, side and handle, nested carries included."""
    from gogkit.fixtures import FIXTURE_NAMES, load_fixture
    from gogkit.gog import coset_rep

    for name in FIXTURE_NAMES:
        g = load_fixture(name)
        lines = []
        for eid in sorted(g.graph.edges):
            for side, vid in enumerate((g.graph.d0[eid], g.graph.d1[eid])):
                vg = g.vertex_groups[vid]
                for x in _handles(vg):
                    rep, k = coset_rep(g, eid, side, x)
                    lines.append(f"{eid} {side} {vg.text(x)}: {vg.text(rep)} {k}")
        yield f"coset_rep/{name}", lines


def _broken_inclusions():
    """Error texts of seeded inclusion arrays, on table and nested edges."""
    from gogkit.documents import parse_document
    from gogkit.fixtures import fixture_text, load_fixture

    def verdict(doc) -> str:
        return _error_text(lambda: parse_document(doc) and "ok")

    for name in TABLE_FIXTURES:
        base = json.loads(fixture_text(name))
        g = load_fixture(name)
        orders = {v: g.vertex_groups[v].order for v in g.graph.vertices}
        rng = random.Random(f"inclusions {name}")
        lines = []
        for i, edge in enumerate(base["graph"]["edges"]):
            n = len(edge["d0_images"])
            for key, end in (("d0_images", "from"), ("d1_images", "to")):
                for _ in range(12):
                    doc = copy.deepcopy(base)
                    images = [rng.randrange(orders[edge[end]]) for _ in range(n)]
                    doc["graph"]["edges"][i][key] = images
                    lines.append(f"{edge['id']} {key} {images}: {verdict(doc)}")
        yield f"inclusions/{name}", lines
    base = json.loads(fixture_text("expand_demo"))
    words = ["1", "u:g1", "w:g1", "u:g1 * w:g1", "w:g1 * u:g1", "u:g1 * w:g1 * u:g1"]
    rng = random.Random("inclusions expand_demo")
    lines = []
    for order in (2, 4):
        for _ in range(20):
            doc = copy.deepcopy(base)
            doc["graph"]["vertices"][0]["group"] = f"cyclic {order}"
            edge = doc["graph"]["edges"][0]
            edge["group"] = f"cyclic {order}"
            edge["d0_images"] = list(range(order))
            edge["d1_images"] = [rng.choice(words) for _ in range(order)]
            lines.append(f"C{order} {edge['d1_images']}: {verdict(doc)}")
    yield "inclusions/expand_demo", lines


def _rewrites():
    """Each c08 rewrite and each tree-edge collapse: output document and transcript."""
    from gogkit.acceptance import _witnesses
    from gogkit.documents import document_to_json
    from gogkit.fixtures import FIXTURE_NAMES, load_fixture
    from gogkit.surgery import collapse_tree_edge, witness_transcript

    def written(label, witness) -> str:
        transcript = json.dumps(witness_transcript(label, witness), indent=1, sort_keys=True)
        return document_to_json(witness.target) + transcript

    for name in ("c4c6", "c6hnn", "c4c2c4", "expand_demo"):
        for label, witness in _witnesses(name, load_fixture(name)):
            yield f"c08/{label.replace(' ', '_')}", written(label, witness).splitlines()
    for name in FIXTURE_NAMES:
        g = load_fixture(name)
        for eid in sorted(g.tree.edges):
            text = _error_text(lambda: written("collapse", collapse_tree_edge(g, eid)[1]))
            yield f"collapse/{name}/{eid}", text.splitlines()


def _searches():
    """First hits and Exhausted texts of seeded separate, embed and certify searches."""
    from gogkit.acceptance import _derivations
    from gogkit.finite_group import subgroup_closure
    from gogkit.fixtures import load_fixture
    from gogkit.gog import ball, invert, multiply
    from gogkit.quotients import certify_nonkernel, quotient_data, search_quotient

    def hit(search) -> str:
        return _error_text(lambda: json.dumps(quotient_data(search()), sort_keys=True))

    for name in TABLE_FIXTURES:
        g = load_fixture(name)
        rng = random.Random(f"searches {name}")
        pool = ball(g, 3)[1:]
        lines = []
        # Commutators die in every abelian target, so some searches exhaust.
        commutators = [multiply(multiply(x, y), invert(multiply(y, x)))
                       for x, y in (rng.sample(pool, 2) for _ in range(6))]
        for i in range(18):
            elements = rng.sample(pool, rng.randrange(1, 4)) if i < 12 else [commutators[i - 12]]
            lines.append("separate " + "; ".join(x.text() for x in elements) + ": " + hit(
                lambda: search_quotient(g, "separate", elements=elements, targets=TARGETS)))
        for vid in sorted(g.graph.vertices):
            group = g.vertex_groups[vid].group
            for h in range(group.order):
                sub = subgroup_closure(group, [h])
                lines.append(f"embed {vid} {list(sub.elements)}: " + hit(lambda: search_quotient(
                    g, "embed", vertex=vid, subgroup=sub, targets=TARGETS)))
        for label, d in _derivations(g, name):
            for x in rng.sample(pool, 6):
                def certify():
                    cert = certify_nonkernel(d, x, TARGETS)
                    return json.dumps([quotient_data(cert.quotient), cert.component,
                                       sorted(cert.pushed.items())], sort_keys=True)
                lines.append(f"certify {label} {x.text()}: " + _error_text(certify))
        yield f"search/{name}", lines


def _evaluations():
    """``evaluate`` of each ``acceptance._derivations`` job on seeded ball elements."""
    from gogkit.acceptance import _derivations
    from gogkit.derivation import evaluate
    from gogkit.fixtures import load_fixture
    from gogkit.gog import ball

    for name in TABLE_FIXTURES:
        g = load_fixture(name)
        elements = ball(g, 4)
        for label, d in _derivations(g, name):
            rng = random.Random(f"evaluate {name} {label}")
            yield f"evaluate/{name}/{label.split()[0]}", [
                f"{x.text()}: " + " | ".join(v.text() for v in evaluate(d, x))
                for x in rng.sample(elements, min(16, len(elements)))
            ]


def _derivation_data():
    from gogkit.acceptance import DERIVATIONS

    for name, (base, target) in DERIVATIONS.items():
        yield f"deriv/{name}/access", _cli("deriv", "access", name, "--base", base, "--mod", "5")
        if target is not None:
            yield f"deriv/{name}/dunwoody", _cli(
                "deriv", "dunwoody", name, "--base", base, "--target", target, "--mod", "5")


def surfaces():
    """(name, lines) for every surface, in a fixed order."""
    yield "verify_all", _cli("verify", "all")
    yield from _balls()
    for name in TABLE_FIXTURES:
        yield f"tree_dot/{name}", _cli("tree", "ball", name, "--radius", "3", "--dot")
    yield from _normal_forms()
    yield from _coset_reps()
    yield from _broken_inclusions()
    yield from _rewrites()
    yield from _searches()
    yield from _evaluations()
    yield from _derivation_data()


def digest_lines() -> list[str]:
    """One ``name lines sha256`` line per surface, then ``all`` over those lines."""
    out = []
    for name, lines in surfaces():
        text = "\n".join(lines) + "\n"
        out.append(f"{name} {len(lines)} {hashlib.sha256(text.encode()).hexdigest()}")
    combined = hashlib.sha256(("\n".join(out) + "\n").encode()).hexdigest()
    return out + [f"all {len(out)} {combined}"]


def _digests_of(src: str) -> list[str]:
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--src", src],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"parity: the run against {src} failed:\n{proc.stderr}")
    return proc.stdout.splitlines()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="the src/ directory whose gogkit is digested")
    parser.add_argument("--parent", help="git revision to compare this tree against")
    args = parser.parse_args(argv)
    if args.parent is None:
        sys.path.insert(0, os.path.abspath(args.src))
        print("\n".join(digest_lines()))
        return 0
    from bench_pairs import extract

    with tempfile.TemporaryDirectory(prefix="parity_") as scratch:
        parent = _digests_of(os.path.join(extract(args.parent, os.path.join(scratch, "p")), "src"))
    change = _digests_of(args.src)
    print("\n".join(change))
    old, new = ({line.split()[0]: line for line in lines[:-1]} for lines in (parent, change))
    differ = [name for name in {**old, **new} if old.get(name) != new.get(name)]
    print(f"parent {args.parent}: " + ("every surface equal" if not differ else
                                       "differ: " + ", ".join(differ)))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
