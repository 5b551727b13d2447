"""An independent reference for what the serving stack must answer.

Written with numpy and scipy only, from the paper's equations, so that a
fault in the program cannot also be a fault in the check:

- Eq. 3: attach the new nodes to the original graph, replace the
  diagonal with 1, normalize symmetrically, propagate K hops, apply the
  linear head;
- Eq. 11: the same on the synthetic graph, after converting the new
  nodes' edges to original nodes into edges to synthetic nodes through
  the mapping, ``a M``;
- a ``GraphDelta`` applied to the oracle's own copy of the graph;
- brute-force cosine top-k over the base nodes' embeddings.

Artifacts are read straight from their ``.npz`` members with
``numpy.load``; nothing here imports the program.  Only the SGC model
(``logits = Â^K X W + b``) is covered, which is what the benchmark
deploys.
"""

from __future__ import annotations

import json

import numpy as np
import scipy.sparse as sp

__all__ = ["Artifact", "OracleGraph", "normalize", "attach", "sgc_embed",
           "request_logits", "request_embeddings", "cosine_scores",
           "topk_agrees", "max_relative_error"]


def normalize(adjacency) -> sp.csr_matrix:
    """``D^-1/2 (A with its diagonal set to 1) D^-1/2``."""
    adj = sp.csr_matrix(adjacency, dtype=np.float64)
    adj = adj - sp.diags(adj.diagonal()) + sp.identity(adj.shape[0])
    degree = np.asarray(adj.sum(axis=1)).ravel()
    inv = np.zeros_like(degree)
    inv[degree > 0] = degree[degree > 0] ** -0.5
    return sp.csr_matrix(sp.diags(inv) @ adj @ sp.diags(inv))


def attach(base, incremental, intra=None) -> sp.csr_matrix:
    """The augmented adjacency ``[[A, a^T], [a, E]]`` of Eq. 3.

    ``incremental`` may be narrower than the base (a request built
    before nodes were appended); the missing columns are zero.
    """
    base = sp.csr_matrix(base, dtype=np.float64)
    inc = sp.csr_matrix(incremental, dtype=np.float64)
    n, width = inc.shape
    if width < base.shape[0]:
        inc = sp.hstack([inc, sp.csr_matrix((n, base.shape[0] - width))])
    if intra is None:
        intra = sp.csr_matrix((n, n))
    return sp.csr_matrix(sp.bmat([[base, inc.T], [inc, intra]]))


def sgc_embed(adjacency, features: np.ndarray, k_hops: int) -> np.ndarray:
    """``Â^K X`` on the whole graph."""
    operator = normalize(adjacency)
    h = np.asarray(features, dtype=np.float64)
    for _ in range(k_hops):
        h = operator @ h
    return h


class Artifact:
    """The members of a saved deployment bundle the oracle needs."""

    def __init__(self, path) -> None:
        with np.load(path, allow_pickle=False) as archive:
            meta = json.loads(str(archive["meta_json"]))
            if meta["model_name"] != "sgc":
                raise ValueError(
                    f"the oracle covers SGC only, got {meta['model_name']!r}")
            self.deployment = meta["deployment"]
            self.k_hops = int(meta["model_config"].get("k_hops", 2))
            self.weight = np.asarray(archive["param::classifier.weight"],
                                     dtype=np.float64)
            self.bias = np.asarray(archive["param::classifier.bias"],
                                   dtype=np.float64)
            self.mapping = None
            if self.deployment == "synthetic":
                self.adjacency = sp.csr_matrix(
                    np.asarray(archive["condensed::adjacency"],
                               dtype=np.float64))
                self.features = np.asarray(archive["condensed::features"],
                                           dtype=np.float64)
                shape = tuple(int(v) for v in archive["condensed::mapping_shape"])
                self.mapping = sp.csr_matrix(
                    (archive["condensed::mapping_data"],
                     (archive["condensed::mapping_row"],
                      archive["condensed::mapping_col"])), shape=shape)
            else:
                shape = tuple(int(v) for v in archive["base::adj_shape"])
                self.adjacency = sp.csr_matrix(
                    (archive["base::adj_data"],
                     (archive["base::adj_row"], archive["base::adj_col"])),
                    shape=shape)
                self.features = np.asarray(archive["base::features"],
                                           dtype=np.float64)


def _served_graph(artifact: Artifact, graph: "OracleGraph | None"):
    if graph is not None:
        return graph.adjacency, graph.features
    return artifact.adjacency, artifact.features


def _augmented(artifact: Artifact, incremental, features, intra, graph):
    base_adj, base_x = _served_graph(artifact, graph)
    inc = sp.csr_matrix(incremental, dtype=np.float64)
    if artifact.mapping is not None:
        inc = sp.csr_matrix(inc @ artifact.mapping)  # Eq. 11: a M
    adjacency = attach(base_adj, inc, intra)
    stacked = np.vstack([base_x, np.asarray(features, dtype=np.float64)])
    return adjacency, stacked, base_adj.shape[0]


def request_embeddings(artifact: Artifact, incremental, features,
                       intra=None, graph: "OracleGraph | None" = None):
    """``Â^K X`` rows of the new nodes (Eq. 3 or Eq. 11)."""
    adjacency, stacked, base = _augmented(artifact, incremental, features,
                                          intra, graph)
    return sgc_embed(adjacency, stacked, artifact.k_hops)[base:]


def request_logits(artifact: Artifact, incremental, features, intra=None,
                   graph: "OracleGraph | None" = None) -> np.ndarray:
    """Logits of the new nodes, served on the artifact's deployed graph
    (or on ``graph``, the oracle's evolved copy of it)."""
    hidden = request_embeddings(artifact, incremental, features, intra, graph)
    return hidden @ artifact.weight + artifact.bias


def cosine_scores(queries: np.ndarray, base: np.ndarray) -> np.ndarray:
    """Cosine similarity of every query row with every base row; a zero
    row scores 0 against everything."""
    def unit(matrix):
        matrix = np.asarray(matrix, dtype=np.float64)
        norms = np.linalg.norm(matrix, axis=1, keepdims=True)
        return np.divide(matrix, norms, out=np.zeros_like(matrix),
                         where=norms > 0)
    return unit(queries) @ unit(base).T


def topk_agrees(ids: np.ndarray, scores: np.ndarray, oracle: np.ndarray,
                tol: float = 1e-9) -> bool:
    """Whether served top-k ``ids``/``scores`` rows are a correct top-k of
    the ``oracle`` score matrix, up to ties: distinct ids, descending
    scores equal to the oracle's, and none below the true k-th best."""
    ids = np.asarray(ids)
    k = ids.shape[1]
    for row, row_ids, row_scores in zip(oracle, ids, scores):
        if not np.array_equal(row_ids, np.round(row_ids)):
            return False
        picked = row_ids.astype(np.int64)
        if np.unique(picked).size != k or picked.min() < 0 \
                or picked.max() >= row.size:
            return False
        kth = np.sort(row)[::-1][k - 1]
        if np.any(row[picked] < kth - tol):
            return False
        if np.any(np.abs(row[picked] - row_scores) > tol):
            return False
        if np.any(np.diff(row_scores) > tol):
            return False
    return True


def max_relative_error(served: np.ndarray, expected: np.ndarray) -> float:
    """``max |served - expected| / max |expected|`` (normwise, so logits
    near zero do not inflate it)."""
    served = np.asarray(served, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    if served.shape != expected.shape:
        return float("inf")
    scale = max(float(np.max(np.abs(expected))), 1e-300)
    return float(np.max(np.abs(served - expected))) / scale


class OracleGraph:
    """The oracle's own evolving copy of an original graph.

    :meth:`apply` follows the delta semantics the stream promises:
    appended nodes take ids ``[N, N+m)``; added edges add to an existing
    weight (duplicates in one delta sum); removed edges must exist; with
    ``symmetric`` every change is mirrored, self-loops once; feature
    updates overwrite rows.
    """

    def __init__(self, adjacency, features) -> None:
        self.adjacency = sp.csr_matrix(adjacency, dtype=np.float64)
        self.features = np.array(features, dtype=np.float64)

    @property
    def num_nodes(self) -> int:
        return self.adjacency.shape[0]

    @staticmethod
    def _mirrored(edges, weights, symmetric):
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        weights = np.asarray(weights, dtype=np.float64)
        if symmetric:
            off = edges[:, 0] != edges[:, 1]
            edges = np.vstack([edges, edges[off][:, ::-1]])
            weights = np.concatenate([weights, weights[off]])
        return edges, weights

    def apply(self, delta) -> None:
        old = self.num_nodes
        added = (0 if delta.add_features is None
                 else int(delta.add_features.shape[0]))
        size = old + added
        coo = self.adjacency.tocoo()
        rows, cols, data = coo.row.astype(np.int64), coo.col, coo.data
        removed, _ = self._mirrored(delta.remove_edges,
                                    np.zeros(len(delta.remove_edges)),
                                    delta.symmetric)
        if removed.size:
            keys = rows * size + cols
            gone = np.isin(keys, removed[:, 0] * size + removed[:, 1])
            if int(gone.sum()) != np.unique(removed, axis=0).shape[0]:
                raise ValueError("a removed edge is not in the graph")
            rows, cols, data = rows[~gone], cols[~gone], data[~gone]
        edges, weights = self._mirrored(delta.add_edges, delta.add_weights,
                                        delta.symmetric)
        self.adjacency = sp.csr_matrix(
            (np.concatenate([data, weights]),
             (np.concatenate([rows, edges[:, 0]]),
              np.concatenate([cols, edges[:, 1]]))), shape=(size, size))
        if added:
            self.features = np.vstack([self.features, delta.add_features])
        if delta.update_index is not None:
            self.features[np.asarray(delta.update_index)] = \
                delta.update_features
