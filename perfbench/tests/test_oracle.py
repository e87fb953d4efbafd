"""Response checks: shape, exact agreement, recall."""

import json

import numpy as np

import oracle


def body(results, n=100, **extra):
    return json.dumps({"epoch": 0, "n_documents": n, "results": results, **extra}).encode()


def test_well_formed_response_passes():
    rows = [[3, 0.9, "d3"], [1, 0.5, "d1"]]
    doc, problem = oracle.parse_search(body(rows), top=2, id_of=lambda i: f"d{i}")
    assert problem == "" and doc["results"] == rows


def test_shape_problems_are_named():
    assert oracle.parse_search(b"nope", top=2)[1] == "unparseable"
    assert oracle.parse_search(body([[1, 0.5, "d1"]]), top=2)[1].startswith("1 results")
    assert oracle.parse_search(body([[1, 0.4], [2, 0.5]]), top=2)[1] == "bad ranking"
    assert oracle.parse_search(body([[1, 0.5, "d9"]]), top=1, id_of=lambda i: f"d{i}")[1] == "doc id mismatch"
    assert oracle.parse_search(body([[1, 0.5]], partial=True), top=1)[1] == "partial"
    assert oracle.parse_search(body([[1, 0.5]], tenant="t1"), top=1, tenant="t0")[1] == "wrong tenant"


def test_exact_agreement_allows_only_rounding():
    expected = [(4, 0.75), (2, 0.5)]
    assert oracle.same_ranking([[4, 0.75 + 1e-13, "d4"], [2, 0.5, "d2"]], expected)
    assert not oracle.same_ranking([[4, 0.75 + 1e-9, "d4"], [2, 0.5, "d2"]], expected)
    assert not oracle.same_ranking([[2, 0.5, "d2"], [4, 0.75, "d4"]], expected)


def test_recall_and_ann_score_checks():
    exact = [(i, 1.0 - i / 100) for i in range(10)]
    served = [[i, 1.0 - i / 100] for i in (0, 1, 2, 3, 4, 5, 6, 7, 8, 42)]
    assert oracle.recall_at(served, exact) == 0.9
    scores = np.array([1.0 - i / 100 for i in range(100)])
    assert oracle.ann_scores_exact(served, scores)
    assert not oracle.ann_scores_exact([[3, 0.5]], scores)
