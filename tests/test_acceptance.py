"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line.  The criteria reuse the claim implementations behind the
``tnrank verify`` command, so the CLI report and this suite cannot drift."""

import time

import pytest

from tnrank import verify


def _run(filter_substr: str, criterion: str, require_findings_hold: bool = True):
    t0 = time.time()
    records = verify.run_claims(filter_substr)
    assert records, f"no claims matched {filter_substr!r}"
    gated_bad = [r["id"] for r in records if r["gated"] and r["status"] != "pass"]
    finding_bad = [r["id"] for r in records if not r["gated"] and not r["holds"]]
    ok = not gated_bad and (not require_findings_hold or not finding_bad)
    stamp = "PASS" if ok else "FAIL"
    print(f"{stamp}  {criterion}  ({len(records)} claims, {time.time() - t0:.1f}s)")
    assert not gated_bad, f"failed claims: {gated_bad}"
    if require_findings_hold:
        assert not finding_bad, f"findings did not hold on committed seeds: {finding_bad}"
    return records


def test_criterion_01_tt_rank_of_w():
    _run("tt-rank-w-", "criterion 1: train rank of W_d is (2,...,2), d=3..6")


def test_criterion_02_tt_rank_of_ghz():
    _run("tt-rank-ghz-", "criterion 2: train rank of GHZ_d is (2,...,2), d=3..6")


def test_criterion_03_strassen_tt_rank():
    _run("tt-rank-strassen-", "criterion 3: train rank of the matmul tensor is (mn, mp)")


def test_criterion_04_strassen_multilinear_rank():
    _run("mrank-strassen-", "criterion 4: multilinear rank of the matmul tensor is (mn, np, mp)")


def test_criterion_05_strassen_cycle_construction_and_bound():
    _run("c3-strassen-", "criterion 5: cycle factors contract exactly; bound accepts (m,n,p) only")


def test_criterion_06_ring_constructions():
    _run("ring-construction-", "criterion 6: ring factor states contract to GHZ_d and W_d, d=3..6")


def test_criterion_07_generic_ranks():
    _run("generic-", "criterion 7: generic train rank (2,4,2) and star rank (n_2,n_3,n_4)")


def test_criterion_08_universal_embedding():
    _run("universal-embed-", "criterion 8: universal embedding round trips exactly")


def test_criterion_09_tree_property_suite():
    _run("tree-property-suite", "criterion 9: minimality/inheritance/invariance/intersection/roundtrip")


def test_criterion_10_reduction_equivalences():
    _run("reduction-", "criterion 10: degree-one and unit-edge reductions agree on 100 samples")


def test_criterion_11_dimension_oracle():
    _run("dims-", "criterion 11: train formula matches Jacobian; ring conflict adjudicated")


def test_criterion_12_als():
    _run("als-", "criterion 12: ALS refit, GHZ on (1,2,2), best rank-one vs grid oracle")


def test_criterion_13_border_demonstration():
    _run("border-probe-", "criterion 13 (finding): border targets met with growing factor entries")


# The registry, pinned: how claims are registered may change, but not their
# ids or which of them gate the verify exit code.
GATED_CLAIMS = (
    "als-ghz3-c3-122", "als-refit-c3", "als-w3-best-rank-one",
    "c3-strassen-222", "c3-strassen-232", "c3-strassen-333",
    "dims-tt-formula-vs-jacobian",
    "generic-star-rank-3x2x2x2", "generic-tt-rank-2x2x2x2",
    "mrank-strassen-222", "mrank-strassen-232", "mrank-strassen-333",
    "parameter-report-n2", "parameter-report-n3",
    "reduction-degree-one-p3", "reduction-unit-edge-c3",
    "ring-construction-ghz-d3", "ring-construction-ghz-d4",
    "ring-construction-ghz-d5", "ring-construction-ghz-d6",
    "ring-construction-w-d3", "ring-construction-w-d4",
    "ring-construction-w-d5", "ring-construction-w-d6",
    "tree-property-suite",
    "tt-rank-ghz-d3", "tt-rank-ghz-d4", "tt-rank-ghz-d5", "tt-rank-ghz-d6",
    "tt-rank-strassen-222", "tt-rank-strassen-232", "tt-rank-strassen-333",
    "tt-rank-w-d3", "tt-rank-w-d4", "tt-rank-w-d5", "tt-rank-w-d6",
    "universal-embed-ghz4-complete", "universal-embed-ghz4-cycle",
    "universal-embed-ghz4-path", "universal-embed-ghz4-star",
    "universal-embed-strassen222-cycle", "universal-embed-strassen222-path",
    "universal-embed-strassen222-star",
    "universal-embed-w3-cycle", "universal-embed-w3-path", "universal-embed-w3-star",
)
FINDINGS = ("border-probe-c3", "border-probe-control", "dims-mps-c3-conflict", "dims-tt-alt-index-reading")


def test_claim_registry_is_pinned():
    assert len(GATED_CLAIMS) == 46
    pinned = sorted([(c, True) for c in GATED_CLAIMS] + [(c, False) for c in FINDINGS])
    assert [(c.id, c.gated) for c in verify.claims()] == pinned


def test_dims_tt_rows_are_shared_within_one_run_only(monkeypatch):
    from tnrank import geometry
    from tnrank.graph import path_graph
    from tnrank.network import ProblemSpec

    specs = [ProblemSpec(path_graph(2), (1,), (2, 2)), ProblemSpec(path_graph(2), (2,), (3, 3))]
    monkeypatch.setattr(verify, "_critical_path_specs", lambda: iter(specs))
    calls = []
    real = geometry.jacobian_dimension
    monkeypatch.setattr(geometry, "jacobian_dimension", lambda *a: calls.append(a) or real(*a))
    for run in (1, 2):
        records = verify.run_claims("dims-tt-")
        assert [r["computed"]["specs_checked"] for r in records] == [2, 2]
        assert len(calls) == 2 * run  # once per spec per run, for both claims


@pytest.fixture(scope="session", autouse=True)
def _summary_header():
    print("\nacceptance criteria:")
    yield
