"""Checks of the benchmark's own reference code on hand-computed graphs.

Run with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
from stats import percentile_rank  # noqa: E402

ROOT6 = np.sqrt(6.0)


def _csr(dense):
    return sp.csr_matrix(np.asarray(dense, dtype=np.float64))


def _artifact(adjacency, features, weight, bias, k_hops, mapping=None):
    return SimpleNamespace(adjacency=_csr(adjacency),
                           features=np.asarray(features, dtype=np.float64),
                           weight=np.asarray(weight, dtype=np.float64),
                           bias=np.asarray(bias, dtype=np.float64),
                           k_hops=k_hops,
                           mapping=None if mapping is None else _csr(mapping))


def test_eq3_one_hop_on_a_path():
    # base 0-1, new node 2 attached to node 1: degrees with self-loops 2, 3, 2
    art = _artifact([[0, 1], [1, 0]], [[1.0], [2.0]], [[2.0]], [1.0], 1)
    logits = oracle.request_logits(art, _csr([[0, 1]]), [[3.0]])
    assert np.isclose(logits[0, 0], 2 * (2 / ROOT6 + 1.5) + 1, rtol=1e-14)


def test_eq3_two_hops_and_diagonal_replaced():
    # a stored self-loop of weight 5 must be replaced by 1, not added to
    art = _artifact([[5, 1], [1, 0]], [[1.0], [2.0]], [[1.0]], [0.0], 2)
    logits = oracle.request_logits(art, _csr([[0, 1]]), [[3.0]])
    h1_mid = 1 / ROOT6 + 2 / 3 + 3 / ROOT6
    h1_new = 2 / ROOT6 + 1.5
    assert np.isclose(logits[0, 0], h1_mid / ROOT6 + h1_new / 2, rtol=1e-14)


def test_eq3_graph_mode_intra_edges():
    # two new nodes joined to each other and to base node 0
    art = _artifact([[0]], [[1.0]], [[1.0]], [0.0], 1)
    inc = _csr([[1], [0]])
    intra = _csr([[0, 1], [1, 0]])
    logits = oracle.request_logits(art, inc, [[2.0], [4.0]], intra)
    # degrees: base 2, first new 3, second new 2
    first = 1 / ROOT6 + 2 / 3 + 4 / ROOT6
    second = 2 / ROOT6 + 4 / 2
    assert np.allclose(logits[:, 0], [first, second], rtol=1e-14)


def test_eq11_converts_edges_through_the_mapping():
    mapping = [[1, 0], [0.5, 0.5], [0, 1]]
    art = _artifact([[0, 0.5], [0.5, 0]], [[1.0], [3.0]], [[1.0]], [0.0], 1,
                    mapping=mapping)
    logits = oracle.request_logits(art, _csr([[1, 0, 1]]), [[2.0]])
    # aM = [1, 1]; degrees 2.5, 2.5, 3
    expected = (1 + 3) / np.sqrt(7.5) + 2 / 3
    assert np.isclose(logits[0, 0], expected, rtol=1e-14)


def test_narrow_requests_are_padded_with_zero_columns():
    art = _artifact([[0, 1, 0], [1, 0, 0], [0, 0, 0]], [[1.0], [2.0], [5.0]],
                    [[1.0]], [0.0], 1)
    wide = oracle.request_logits(art, _csr([[0, 1, 0]]), [[3.0]])
    narrow = oracle.request_logits(art, _csr([[0, 1]]), [[3.0]])
    assert np.array_equal(wide, narrow)


def test_delta_application():
    graph = oracle.OracleGraph(_csr([[0, 1, 0], [1, 0, 1], [0, 1, 0]]),
                               [[0.0], [1.0], [2.0]])
    delta = SimpleNamespace(
        add_features=np.array([[9.0]]), add_edges=np.array([[3, 0], [0, 1]]),
        add_weights=np.array([2.0, 1.0]), remove_edges=np.array([[1, 2]]),
        update_index=np.array([2]), update_features=np.array([[7.0]]),
        symmetric=True)
    graph.apply(delta)
    expected = [[0, 2, 0, 2], [2, 0, 0, 0], [0, 0, 0, 0], [2, 0, 0, 0]]
    assert np.array_equal(graph.adjacency.toarray(), expected)
    assert np.array_equal(graph.features[:, 0], [0.0, 1.0, 7.0, 9.0])


def test_removing_an_absent_edge_is_refused():
    graph = oracle.OracleGraph(_csr([[0, 1], [1, 0]]), [[0.0], [1.0]])
    delta = SimpleNamespace(
        add_features=None, add_edges=np.empty((0, 2)),
        add_weights=np.empty(0), remove_edges=np.array([[0, 0]]),
        update_index=None, update_features=None, symmetric=True)
    try:
        graph.apply(delta)
    except ValueError:
        return
    raise AssertionError("an absent edge was removed silently")


def test_cosine_topk_up_to_ties():
    base = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    scores = oracle.cosine_scores(np.array([[1.0, 0.0]]), base)
    assert np.allclose(scores, [[1, 1, 0, 1 / np.sqrt(2)]], rtol=1e-15)
    # ids 0 and 1 tie for first place: either order is a correct answer
    assert oracle.topk_agrees([[0, 1]], [[1.0, 1.0]], scores)
    assert oracle.topk_agrees([[1, 0]], [[1.0, 1.0]], scores)
    assert not oracle.topk_agrees([[0, 3]], [[1.0, 1 / np.sqrt(2)]], scores)
    assert not oracle.topk_agrees([[0, 0]], [[1.0, 1.0]], scores)


def test_relative_error_is_normwise():
    expected = np.array([[1e-12, 10.0]])
    assert oracle.max_relative_error(expected * (1 + 1e-12), expected) < 1e-9
    assert oracle.max_relative_error(expected + 1e-6, expected) > 1e-9


def test_percentile_rank_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile_rank(values, 90) == 90


def test_calibration_kernel_imports_nothing_from_the_program():
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]);"
        "from calibration import Calibrator; Calibrator().run(3);"
        "print(sorted(m for m in sys.modules"
        " if m == 'repro' or m.startswith('repro.')))")
    out = subprocess.run([sys.executable, "-c", probe, str(HERE)],
                         capture_output=True, text=True, check=True,
                         timeout=60)
    assert out.stdout.strip() == "[]"


def test_benchmark_json_declares_the_reported_metrics():
    import json

    from metrics import END_TO_END, PER_LAYER

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
