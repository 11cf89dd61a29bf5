"""One test per acceptance check, with its stated time budget."""
import pytest

from gogkit import acceptance
from gogkit.acceptance import CheckResult, run_check, run_checks
from gogkit.fixtures import FIXTURE_NAMES


def _run(name: str) -> CheckResult:
    result = run_check(name)
    status = "PASS" if result.ok else "FAIL"
    counts = ", ".join(f"{k}={v}" for k, v in sorted(result.counts.items()))
    print(f"{status} {result.name} ({counts}) {result.seconds:.2f}s")
    for problem in result.problems:
        print(f"  {problem}")
    return result


def test_criterion_01_derivation_law():
    result = _run("c01-derivation-law")
    assert result.ok, result.problems
    assert result.counts["pairs"] == 5000
    assert result.seconds < 60


def test_criterion_02_gluing_residues():
    result = _run("c02-gluing-residues")
    assert result.ok, result.problems
    assert result.counts["residues"] == 30
    assert result.seconds < 10


def test_criterion_03_kernel_scans():
    result = _run("c03-kernel-scans")
    assert result.ok, result.problems
    assert result.counts["c4c6_elements"] == 100
    assert result.counts["c6hnn_elements"] == 552
    assert result.counts["c4c2c4_elements"] == 22
    assert result.seconds < 300


def test_criterion_04_dunwoody_vertex_kernel():
    result = _run("c04-dunwoody-vertex-kernel")
    assert result.ok, result.problems
    assert result.counts["elements"] == 10
    assert result.seconds < 10


def test_criterion_05_structure_tree_axioms():
    result = _run("c05-structure-tree-axioms")
    assert result.ok, result.problems
    assert result.counts["samples"] == 2000
    assert result.counts["edges"] > 0
    assert result.seconds < 60


def test_criterion_06_fixed_points():
    result = _run("c06-fixed-points")
    assert result.ok, result.problems
    assert result.counts["trials"] == 40
    assert result.seconds < 60


def test_criterion_07_relative_malnormality():
    result = _run("c07-relative-malnormality")
    assert result.ok, result.problems
    assert result.counts["c4c6_checked"] > 0
    assert result.counts["c2c2_checked"] > 0
    assert result.seconds < 120


def test_criterion_08_surgery_witnesses():
    result = _run("c08-surgery-witnesses")
    assert result.ok, result.problems
    assert result.counts["witnesses"] == 7
    assert result.seconds < 60


def test_criterion_09_residual_finiteness():
    result = _run("c09-residual-finiteness")
    assert result.ok, result.problems
    assert result.counts["pairs"] == 378 + 21
    assert result.counts["separate_a_order"] == 12
    assert result.seconds < 300


def test_criterion_10_coset_functional():
    result = _run("c10-coset-functional")
    assert result.ok, result.problems
    assert result.counts["words"] == 50
    assert result.seconds < 60


def test_fixture_filter_skips_cleanly():
    results = run_checks("c6hnn")
    by_name = {r.name: r for r in results}
    assert len(results) == 10
    assert all(r.ok for r in results)
    assert by_name["c07-relative-malnormality"].counts == {"skipped": 1}
    assert by_name["c03-kernel-scans"].counts == {"c6hnn_elements": 552}


ALL_CHECKS = {f"c{i:02d}" for i in range(1, 11)}


@pytest.mark.parametrize(
    "only, skipped",
    [
        ("c4c6", set()),
        ("c6hnn", {"c04", "c06", "c07", "c09", "c10"}),
        ("c4c2c4", {"c07", "c09", "c10"}),
        ("c2c2", {"c01", "c03", "c04", "c06", "c08", "c10"}),
        ("expand_demo", ALL_CHECKS - {"c08"}),
        ("zz", ALL_CHECKS),
    ],
)
def test_fixture_filter_skips_the_checks_without_that_fixture(only, skipped):
    results = run_checks(only)
    assert all(r.ok for r in results)
    assert {r.name[:3] for r in results if r.counts == {"skipped": 1}} == skipped
    assert all("skipped" not in r.counts for r in results if r.name[:3] not in skipped)


def test_registry_keeps_the_shape_gogbench_mix_reads():
    # gogbench/mix.py iterates ``for check, _ in CHECKS`` and wraps these
    # helpers by name, so the checks must reach them through module globals.
    for row in acceptance.CHECKS:
        assert isinstance(row, tuple) and len(row) == 2
        fixtures, body = row[1]
        assert callable(body) and set(fixtures) <= set(FIXTURE_NAMES)
    for name in ("_derivations", "_finite_subgroup_words", "_alternating_words"):
        assert callable(vars(acceptance)[name])


def test_unknown_check_name_rejected():
    with pytest.raises(ValueError, match="unknown check"):
        run_check("c99-nope")
