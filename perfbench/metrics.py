"""The metrics the benchmark reports, with their units.

``BENCHMARK.json`` at the repository root declares the same names; the
tests keep the two in step.  A traced run reports every per-layer
metric on every workload: a layer that a workload does not run reads 0
there (0 calls, 0 time), which is the prediction for any change to it.
"""

from __future__ import annotations

__all__ = ["END_TO_END", "PER_LAYER", "OFFLINE_LAYERS"]

#: name -> unit of the metrics a user of the system sees (untraced runs).
END_TO_END = {
    "setup_s": "s",
    "offline_time": "cal",
    "accuracy": "fraction",
    "artifact_bytes": "bytes",
    "latency_p50": "cal",
    "loaded_throughput": "requests/cal",
    "peak_rss_mb": "MB",
}

#: Layers of the offline phase, timed per offline operation, as
#: (metric name, module, attribute, class or None, report calls).
OFFLINE_LAYERS = (
    ("condense.reduce", "repro.condense.mcond", "reduce", "MCondReducer",
     False),
    ("condense.gradient_matching_loss", "repro.condense.losses",
     "gradient_matching_loss", None, True),
    ("condense.structure_loss", "repro.condense.losses", "structure_loss",
     None, True),
    ("condense.transductive_loss", "repro.condense.losses",
     "transductive_loss", None, True),
    ("condense.inductive_loss", "repro.condense.losses", "inductive_loss",
     None, True),
    ("tensor.grad", "repro.tensor.tensor", "grad", None, True),
    ("tensor.matmul", "repro.tensor.tensor", "matmul", None, True),
    ("tensor.scatter_rows_add", "repro.tensor.tensor", "scatter_rows_add",
     None, True),
    ("tensor.spmm", "repro.tensor.sparse", "spmm", None, True),
    ("tensor.concat", "repro.tensor.tensor", "concat", None, True),
    ("tensor.add", "repro.tensor.tensor", "add", None, True),
    ("nn.adam_step", "repro.nn.optim", "step", "Adam", True),
    ("nn.train_node_classifier", "repro.nn.trainer",
     "train_node_classifier", None, False),
    ("utils.save_npz", "repro.utils.artifacts", "save_npz", None, True),
)

#: name -> unit of the per-layer metrics (traced runs).
PER_LAYER = {"graph.load_dataset": "cal"}
for _name, _module, _attr, _owner, _calls in OFFLINE_LAYERS:
    PER_LAYER[_name] = "cal"
    if _calls:
        PER_LAYER[f"{_name}.calls"] = "count"
PER_LAYER.update({
    "latency_tail": "cal",
    "condense.mapping_nnz": "count",
    "condense.adjacency_nnz": "count",
    "prepared.serve": "cal",
    "prepared.attach_normalize": "cal",
    "prepared.operator_nnz": "count",
    "nn.forward": "cal",
    "runtime.overhead": "cal",
    "runtime.queue_wait": "cal",
    "runtime.batch_requests": "count",
    "prepared.apply_delta": "cal",
    "stream.apply": "cal",
    "runtime.ingest_visible": "ms",
    "runtime.ingest_wait": "ms",
    "prepared.delta_rebuilds": "fraction",
    "prepared.delta_affected_rows": "count",
    "fleet.overhead": "cal",
    "fleet.ready_s": "s",
    "gateway.overhead": "cal",
    "protocol.encode_serve_request": "cal",
    "protocol.decode_reply": "cal",
    "embeddings.topk": "cal",
    "trace.overhead": "ratio",
    "calibration.kernel_ms": "ms",
    "prepared.serve_ms": "ms",
    "runtime.latency_ms": "ms",
    "fleet.latency_ms": "ms",
    "gateway.latency_ms": "ms",
})
