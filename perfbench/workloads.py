"""The benchmark's three workloads, driven through the public API.

- ``condense``: the paper's offline phase (MCond on pubmed-sim, budget
  60, quick profile, then SGC trained on the synthetic graph and the
  compressed artifact saved), repeated; then that artifact served
  in-process (S→S, graph batch mode) through ``api.open_runtime``.
- ``original-stream``: a whole-graph SGC served on the original
  pubmed-sim graph at scale 4 through ``api.open_stream`` in graph batch
  mode, with a ``make_delta_trace`` delta ingested after every 10th
  request.
- ``synthetic-gateway``: the MCond artifact saved in the mmap layout
  with its embedding-index sidecar, served by ``api.open_gateway`` (one
  replica) over one ``GatewayClient`` connection in node mode, predict
  and top-k mixed 3:1.

The dataset, MCond's initialisation and training are the same in every
run (seed 0), so every run does the same offline work and serves the
same model; the run's seed drives the traffic: which test nodes form
each 8-node request, the order requests are sent in, and the delta
trace.  Every serving workload has two phases: one request in flight
(service time, latency and accuracy), then closed-loop blocks with four
requests in flight from one thread (loaded throughput).  Every timed
figure is divided by the calibration kernel's duration measured next to
it, in the same thread and never concurrently (see :mod:`calibration`).
Every reply is checked against :mod:`oracle` after its phase, so the
checks neither take time from the phase nor disturb the caches and the
allocator between timed requests.
"""

from __future__ import annotations

import gc
import importlib
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import deque
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import scipy.sparse as sp

import oracle
from calibration import Calibrator, stolen_seconds
from metrics import END_TO_END, OFFLINE_LAYERS, PER_LAYER
from stats import local_ratios, percentile_rank
from tracing import LayerTrace

from repro import api
from repro.experiments.pipeline import ExperimentContext, prepare_dataset
from repro.experiments.settings import QUICK
from repro.graph.datasets import IncrementalBatch
from repro.graph.stream import StreamingGraph, make_delta_trace
from repro.nn.models import SGC
from repro.nn.optim import Adam
from repro.serving import EmbeddingIndex, ServeTask, protocol
from repro.serving.prepared import PreparedDeployment

__all__ = ["WORKLOADS", "Run"]

DATASET = "pubmed-sim"
DATA_SEED = 0
BUDGET = 60
REQUEST_NODES = 8
IN_FLIGHT = 4
#: Set-ups per run, and kernel runs before and after each: a single
#: set-up moved by ±15% in cal within a run; the median of nine, each
#: over forty kernel runs, moved by under ±5% between runs.
SETUP_REPEATS = 9
SETUP_KERNEL_RUNS = 20
#: Offline operations per run: repeated so that their median holds still.
OFFLINE_OPERATIONS = 3
#: Every serving phase serves at least this many requests with one in
#: flight.
MIN_SAMPLES = 200
TAIL = 95  # at least ten of MIN_SAMPLES=200 beyond it
MIN_BLOCKS = 4
#: Share of a serving window given to phase A (one request in flight).
PHASE_A_SHARE = 0.6
STREAM_SCALE = 4.0
DELTA_EVERY = 10
#: One delta after every 10th of the first ``MIN_SAMPLES`` requests.
DELTA_TRACE = dict(num_deltas=MIN_SAMPLES // DELTA_EVERY, nodes_per_delta=4,
                   edges_per_delta=4, removals_per_delta=2,
                   updates_per_delta=2)
TOPK = 5
TOPK_EVERY = 4  # every 4th request is a top-k: predict and top-k 3:1
#: Relative error allowed between a served float64 answer and the oracle.
TOLERANCE = 1e-9
#: Pause after a reply before the kernel runs, so the serving threads'
#: bookkeeping after the reply has ended and cannot overlap the kernel.
SETTLE_SECONDS = 0.001
TIMEOUT = 60.0
#: Requests per tier in a traced run's tier ladder.
LADDER_SAMPLES = 100
#: ``setup_s`` is calibrated like every other time, then given in
#: seconds at this nominal kernel duration (about the kernel's time on
#: the reference 2-vCPU host), so host drift does not move it.
NOMINAL_KERNEL_SECONDS = 1e-3


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


class Run:
    """One benchmark run: its inputs, its clock, and what it found."""

    def __init__(self, seed: int, seconds: float, traced: bool,
                 work: Path) -> None:
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.rng = np.random.default_rng(seed)
        self.cal = Calibrator()
        self.cal.run(50)  # warm the kernel's caches before it is a unit
        self.trace = LayerTrace(self.cal) if traced else None
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.end_to_end: dict[str, float] = {}
        self.per_layer: dict[str, float] = dict.fromkeys(PER_LAYER, 0.0)
        #: A traced gateway run's fleet-tier p50, the gateway's base.
        self.fleet_p50 = 0.0

    def attempt(self, what: str, operation, *args, **kwargs):
        """Run one operation; a failure is counted and logged, not raised."""
        self.attempted += 1
        try:
            return operation(*args, **kwargs)
        except Exception:  # noqa: BLE001 — counted in `failed`; run goes on
            self.failed += 1
            log(f"{what} failed:\n{traceback.format_exc()}")
            return None

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            log(f"check failed: {what}")
            self.correct = False

    def calibrate(self, times: int = 1) -> int:
        """Run the kernel after a reply; returns its first sample index."""
        time.sleep(SETTLE_SECONDS)
        index = self.cal.mark()
        self.cal.run(times)
        return index

    def result(self) -> dict:
        if self.trace is not None:
            self.per_layer["calibration.kernel_ms"] = self.cal.median() * 1e3
            chosen = {name: (self.per_layer[name], unit)
                      for name, unit in PER_LAYER.items()}
        else:
            chosen = {name: (self.end_to_end[name], unit)
                      for name, unit in END_TO_END.items()}
        return {"correct": bool(self.correct), "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {name: {"value": float(value), "unit": unit}
                            for name, (value, unit) in chosen.items()}}


# ----------------------------------------------------------------------
# Shared measurement pieces
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    """Highest resident memory of this process and of any child it waited
    for (replica processes included), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def dataset(scale: float = 1.0):
    return prepare_dataset(DATASET, seed=DATA_SEED, scale=scale)


def package(model, deployment: str, *, condensed=None, base=None,
            scale: float = 1.0) -> api.DeploymentBundle:
    """A trained model as a deployment bundle, with the fields and
    metadata ``api.deploy`` gives it.  The benchmark trains through a
    fresh ``ExperimentContext`` per operation instead of ``api.deploy``,
    whose memoized dataset and training would make operations differ."""
    return api.DeploymentBundle(
        model_name=model.registry_name,
        model_config=dict(model.build_config), state=model.state_dict(),
        deployment=deployment, condensed=condensed, base=base,
        metadata={"dataset": DATASET, "seed": DATA_SEED, "scale": scale,
                  "method": "whole" if condensed is None
                  else condensed.method,
                  "budget": None if condensed is None
                  else condensed.num_nodes,
                  "train_on": "synthetic" if condensed is not None
                  else "original",
                  "profile": QUICK.name})


@contextmanager
def kernel_at_optimizer_steps(cal: Calibrator):
    """Interleave the kernel after every ``Adam.step``: the public
    boundary the offline phase crosses a few hundred times per run."""
    original = Adam.step

    def step(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        cal.run(1)
        return result

    Adam.step = step
    try:
        yield
    finally:
        Adam.step = original


def timed_offline(run: Run, operation):
    """Run one offline operation with the kernel interleaved; returns
    ``(result, time in cal)``, the kernel's time and steal left out."""
    gc.collect()
    mark = run.cal.mark()
    kernel_before = run.cal.total
    stolen = stolen_seconds()
    with kernel_at_optimizer_steps(run.cal):
        start = time.perf_counter()
        result = operation()
        elapsed = time.perf_counter() - start
    elapsed -= stolen_seconds() - stolen
    elapsed -= run.cal.total - kernel_before
    return result, elapsed / run.cal.median(mark)


def repeated_offline(run: Run, operation, times: int, check):
    """``times`` offline operations, each result passed to ``check``
    outside the timed span; a traced run leaves the first operation
    untraced (the base of its overhead) and traces the rest.  Returns the
    last result and the operations' times in cal."""
    units, result, mark = [], None, None
    while len(units) < times:
        if run.trace is not None and len(units) == 1:
            mark = install_offline_trace(run)
        outcome = run.attempt("offline operation", timed_offline, run,
                              operation)
        if outcome is None:
            raise RuntimeError("the offline phase failed")
        result, cal_units = outcome
        units.append(cal_units)
        check(result)
    if run.trace is not None:
        report_offline_trace(run, times - 1, mark)
        run.per_layer["trace.overhead"] = (statistics.median(units[1:])
                                           / units[0])
    return result, units


def install_offline_trace(run: Run) -> int:
    """Wrap the offline layers; returns the kernel mark to take the unit
    of the traced operations from."""
    for name, module, attr, owner, _ in OFFLINE_LAYERS:
        if owner is None:
            run.trace.function(module, attr, name)
        else:
            cls = getattr(importlib.import_module(module), owner)
            run.trace.method(cls, attr, name)
    return run.cal.mark()


def report_offline_trace(run: Run, operations: int, mark: int) -> None:
    """Per-layer offline times (cal per operation) and call counts; the
    wrappers are removed afterwards."""
    unit = run.cal.median(mark)
    for name, _module, _attr, _owner, calls in OFFLINE_LAYERS:
        run.per_layer[name] = (run.trace.seconds.get(name, 0.0) / unit
                               / operations)
        if calls:
            run.per_layer[f"{name}.calls"] = (run.trace.calls.get(name, 0)
                                              / operations)
    run.trace.remove()
    run.trace.reset()


def install_serving_trace(run: Run) -> None:
    trace = run.trace
    trace.method(PreparedDeployment, "serve_task", "prepared.serve",
                 per_call=True)
    trace.method(PreparedDeployment, "attach_normalize",
                 "prepared.attach_normalize", per_call=True,
                 observe=lambda out: out[0].nnz)
    trace.method(SGC, "forward", "nn.forward", per_call=True)
    trace.method(PreparedDeployment, "apply_delta", "prepared.apply_delta",
                 per_call=True)
    trace.method(StreamingGraph, "apply", "stream.apply", per_call=True)
    trace.method(EmbeddingIndex, "topk", "embeddings.topk", per_call=True)


def report_serving_trace(run: Run, unit: float) -> None:
    """Per-call medians of the prepared layers, in cal."""
    for name in ("prepared.serve", "prepared.attach_normalize",
                 "nn.forward", "prepared.apply_delta", "stream.apply",
                 "embeddings.topk"):
        values = run.trace.samples.get(name)
        if values:
            run.per_layer[name] = statistics.median(values) / unit
    serve = run.trace.samples.get("prepared.serve")
    if serve:
        run.per_layer["prepared.serve_ms"] = statistics.median(serve) * 1e3
    nnz = run.trace.observed.get("prepared.attach_normalize")
    if nnz:
        run.per_layer["prepared.operator_nnz"] = statistics.median(nnz)


def request_batches(batch: IncrementalBatch, rng) -> list[IncrementalBatch]:
    """The batch's nodes in a seeded order, cut into requests."""
    order = rng.permutation(batch.num_nodes)
    count = batch.num_nodes // REQUEST_NODES
    return [batch.subset(np.sort(order[i * REQUEST_NODES:
                                       (i + 1) * REQUEST_NODES]))
            for i in range(count)]


def check_logits(run: Run, served, expected, what: str) -> None:
    error = oracle.max_relative_error(served, expected)
    run.check(error <= TOLERANCE,
              f"{what}: served logits differ from the oracle by {error:.3g}")


def setup_seconds(run: Run, open_once):
    """Time ``open_once`` ``SETUP_REPEATS`` times, in calibrated seconds;
    every service it opened but the last is closed.  Returns the last
    ``(close, service)``."""
    times = []
    opened = None
    for _ in range(SETUP_REPEATS):
        if opened is not None:
            opened[0]()
            opened = None
            gc.collect()  # the previous service is gone before timing
        mark = run.calibrate(SETUP_KERNEL_RUNS)
        start = time.perf_counter()
        opened = run.attempt("set-up", open_once)
        elapsed = time.perf_counter() - start
        run.calibrate(SETUP_KERNEL_RUNS)
        if opened is None:
            raise RuntimeError("set-up failed; there is nothing to measure")
        times.append(elapsed / run.cal.median(mark)
                     * NOMINAL_KERNEL_SECONDS)
    run.end_to_end["setup_s"] = statistics.median(times)
    return opened


class Latencies:
    """One-in-flight samples: seconds, and the kernel run after each."""

    def __init__(self) -> None:
        self.seconds: list[float] = []
        self.kernel_index: list[int] = []

    def add(self, seconds: float, kernel_index: int) -> None:
        self.seconds.append(seconds)
        self.kernel_index.append(kernel_index)

    def cal(self, run: Run, start: int = 0, stop: int | None = None):
        return local_ratios(self.seconds[start:stop],
                            self.kernel_index[start:stop], run.cal.samples)

    def p50(self, run: Run, start: int = 0, stop: int | None = None):
        return statistics.median(self.cal(run, start, stop))


def one_in_flight(run: Run, requests, serve, until: float, *,
                  count: int = MIN_SAMPLES, events=None, after=None,
                  on_sample=None) -> Latencies:
    """Serve one request at a time, at least ``count`` of them and until
    ``until``; the kernel runs after every reply.  Each served reply is
    appended to ``events`` as ``("request", i, request, reply)``."""
    gc.collect()
    lat = Latencies()
    i = 0
    while i < count or time.perf_counter() < until:
        if on_sample is not None:
            on_sample(i)
        request = requests[i % len(requests)]
        start = time.perf_counter()
        reply = run.attempt("request", serve, i, request)
        elapsed = time.perf_counter() - start
        kernel = run.calibrate()
        if reply is not None:
            lat.add(elapsed, kernel)
            if events is not None:
                events.append(("request", i, request, reply))
        i += 1
        if after is not None:
            after(i)
    return lat


def loaded_blocks(run: Run, block, requests, until: float,
                  block_size: int) -> tuple[float, list]:
    """Closed-loop blocks of ``block_size`` requests with ``IN_FLIGHT``
    outstanding; the kernel runs between blocks only.  Returns the
    phase's throughput in requests per cal: every request over the
    blocks' time less steal, in the phase's median kernel time (a few
    runs per block would make a noisier unit than the drift it cancels
    over a phase of seconds), and each block's replies."""
    gc.collect()
    outcomes = []
    busy = stolen_total = 0.0
    phase = run.cal.mark()
    cursor = 0
    while len(outcomes) < MIN_BLOCKS or time.perf_counter() < until:
        picked = [(cursor + j, requests[(cursor + j) % len(requests)])
                  for j in range(block_size)]
        cursor += block_size
        run.calibrate(3)
        run.attempted += block_size
        stolen = stolen_seconds()
        start = time.perf_counter()
        try:
            replies = block(picked)
        except Exception:  # noqa: BLE001 — counted in `failed`; run goes on
            run.failed += block_size
            log(f"loaded block failed:\n{traceback.format_exc()}")
            continue
        elapsed = time.perf_counter() - start
        stolen = stolen_seconds() - stolen
        run.calibrate(3)
        busy += elapsed - stolen
        stolen_total += stolen
        outcomes.append((picked, replies))
    log(f"loaded blocks: {len(outcomes)}, steal "
        f"{stolen_total / (busy + stolen_total):.1%} of their time")
    return (len(outcomes) * block_size / busy * run.cal.median(phase),
            outcomes)


def report_latency(run: Run, lat: Latencies) -> None:
    """Phase-A p50 (end to end) and p95 (per layer: it was not steady
    enough to carry a bound, see the README)."""
    run.end_to_end["latency_p50"] = lat.p50(run)
    run.per_layer["latency_tail"] = percentile_rank(lat.cal(run), TAIL)


def phase_deadlines(window_end: float):
    """Deadlines of phase A and phase B, splitting what is left of the
    window."""
    now = time.perf_counter()
    left = max(window_end - now, 0.0)
    return now + PHASE_A_SHARE * left, now + left


def check_accuracy(run: Run, hits: int, total: int, labels) -> None:
    run.end_to_end["accuracy"] = hits / total
    majority = np.bincount(labels).max() / labels.size
    run.check(hits / total > majority,
              f"accuracy {hits / total:.3f} is not above the test batch's "
              f"majority-class rate {majority:.3f}")


# ----------------------------------------------------------------------
# In-process runtime serving (condense, original-stream)
# ----------------------------------------------------------------------
def serve_runtime(run: Run, runtime, path: Path, requests, labels,
                  window_end, *, deltas=(), block_size: int = 24) -> None:
    """Phase A (one in flight; ``deltas`` ingested one after every
    ``DELTA_EVERY`` requests, so every run applies all of them), then
    phase B (four in flight), then the oracle checks of both against the
    artifact at ``path``."""
    until_a, until_b = phase_deadlines(window_end)
    pending = deque(deltas)
    events, visible_ms, reports = [], [], []

    def serve(_, request):
        return runtime.submit(ServeTask(batch=request)).result(
            timeout=TIMEOUT)

    def after(i):
        if not pending or i % DELTA_EVERY:
            return
        delta = pending.popleft()
        start = time.perf_counter()
        report = run.attempt(
            "delta", lambda: runtime.ingest(delta).result(timeout=TIMEOUT))
        elapsed = time.perf_counter() - start
        run.calibrate()
        if report is not None:
            visible_ms.append(elapsed * 1e3)
            reports.append(report)
            events.append(("delta", delta))

    traced_from = MIN_SAMPLES // 2

    def on_sample(i):
        if run.trace is not None and i == traced_from:
            install_serving_trace(run)

    mark = run.cal.mark()
    lat = one_in_flight(run, requests, serve, until_a, events=events,
                        after=after, on_sample=on_sample)
    unit_a = run.cal.median(mark)
    report_latency(run, lat)
    if run.trace is not None:
        # the prepared layers are reported one in flight, like the
        # untraced p50 they are subtracted from: the trace ends here
        untraced = lat.p50(run, 0, traced_from)
        run.per_layer["trace.overhead"] = (lat.p50(run, traced_from)
                                           / untraced)
        run.per_layer["runtime.latency_ms"] = statistics.median(
            lat.seconds[:traced_from]) * 1e3
        report_serving_trace(run, unit_a)
        run.per_layer["runtime.overhead"] = (untraced
                                             - run.per_layer["prepared.serve"])
        run.trace.remove()
        run.trace.reset()

    def block(picked):
        futures = []
        queue = deque()
        for _, request in picked:
            if len(queue) == IN_FLIGHT:
                oldest = queue.popleft()
                oldest.result(timeout=TIMEOUT)
                futures.append(oldest)
            queue.append(runtime.submit(ServeTask(batch=request)))
        while queue:
            oldest = queue.popleft()
            oldest.result(timeout=TIMEOUT)
            futures.append(oldest)
        return futures

    mark_b = run.cal.mark()
    run.end_to_end["loaded_throughput"], blocks = loaded_blocks(
        run, block, requests, until_b, block_size)
    unit_b = run.cal.median(mark_b)
    run.end_to_end["peak_rss_mb"] = peak_rss_mb()  # before the oracle runs

    # oracle checks, replaying the deltas in the order they were applied
    art = oracle.Artifact(path)
    graph = (oracle.OracleGraph(art.adjacency, art.features)
             if art.deployment == "original" else None)
    hits = total = 0
    for event in events:
        if event[0] == "delta":
            graph.apply(event[1])
            continue
        _, i, request, logits = event
        expected = oracle.request_logits(art, request.incremental,
                                         request.features, request.intra,
                                         graph)
        check_logits(run, logits, expected, "one-in-flight request")
        if i < len(requests):  # each test node once: its first reply
            hits += int(np.sum(logits.argmax(axis=1) == request.labels))
            total += request.num_nodes
    check_accuracy(run, hits, total, labels)
    records = []
    for picked, futures in blocks:
        # FIFO from one thread: a micro-batch of size b is the next b
        start = 0
        while start < len(futures):
            size = futures[start].record.batch_size
            group = [request for _, request in picked[start:start + size]]
            expected = oracle.request_logits(
                art, sp.vstack([r.incremental for r in group]).tocsr(),
                np.vstack([r.features for r in group]),
                sp.block_diag([r.intra for r in group]).tocsr(), graph)
            served = np.vstack([f.result()
                                for f in futures[start:start + size]])
            check_logits(run, served, expected, "loaded micro-batch")
            records.extend(f.record for f in futures[start:start + size])
            start += size

    if run.trace is None:
        return
    run.per_layer["runtime.queue_wait"] = statistics.median(
        r.queue_seconds for r in records) / unit_b
    run.per_layer["runtime.batch_requests"] = statistics.mean(
        r.batch_size for r in records)
    if reports:
        applies = [r.seconds * 1e3 for r in reports]
        run.per_layer["runtime.ingest_visible"] = statistics.median(
            visible_ms)
        run.per_layer["runtime.ingest_wait"] = statistics.median(
            v - a for v, a in zip(visible_ms, applies))
        run.per_layer["prepared.delta_rebuilds"] = (
            sum(r.mode == "rebuild" for r in reports) / len(reports))
        run.per_layer["prepared.delta_affected_rows"] = statistics.median(
            r.affected_rows for r in reports)


# ----------------------------------------------------------------------
# condense
# ----------------------------------------------------------------------
_SETUP_PROBE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from repro import api
from repro.experiments.pipeline import prepare_dataset
prepare_dataset(sys.argv[2], seed=int(sys.argv[3]), scale=1.0)
print(time.perf_counter() - start)
"""


def fresh_setup(run: Run, src: Path) -> float:
    """Imports plus dataset generation in a fresh interpreter, in
    calibrated seconds (the kernel runs here before and after it)."""
    mark = run.calibrate(SETUP_KERNEL_RUNS)
    out = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, str(src), DATASET,
         str(DATA_SEED)], capture_output=True, text=True, check=True,
        timeout=120)
    run.calibrate(SETUP_KERNEL_RUNS)
    seconds = float(out.stdout.strip().splitlines()[-1])
    return seconds / run.cal.median(mark) * NOMINAL_KERNEL_SECONDS


def check_condensed(run: Run, condensed, result, num_classes: int) -> None:
    adjacency = condensed.adjacency
    run.check(np.array_equal(adjacency, adjacency.T),
              "the condensed adjacency is not symmetric")
    run.check(bool(np.all(adjacency >= 0)),
              "the condensed adjacency has negative entries")
    mapping = condensed.mapping
    threshold = 1.0 / BUDGET  # Eq. 14's delta at its adaptive default
    run.check(bool(np.all(mapping.data >= threshold)),
              "a stored mapping entry is below the sparsification threshold")
    counts = np.bincount(condensed.labels, minlength=num_classes)
    run.check(int(counts.sum()) == BUDGET == condensed.num_nodes,
              f"per-class synthetic counts {counts} do not sum to {BUDGET}")
    # one mapping phase per outer loop, each on a fixed synthetic graph
    steps = QUICK.mapping_steps
    losses = result.mapping_losses
    run.check(len(losses) == QUICK.outer_loops * steps,
              f"{len(losses)} mapping-phase losses recorded")
    for first in range(0, len(losses), steps):
        run.check(losses[first + steps - 1] < losses[first],
                  "a mapping phase's loss did not end below where it started")


def condensed_offline(run: Run, prepared, save, times: int):
    """``times`` offline operations of MCond, SGC trained on the
    synthetic graph, and ``save(bundle)``; each condensed graph is
    checked.  Returns the last ``(condensed, saved)`` and the times in
    cal."""

    def operation():
        context = ExperimentContext(prepared, QUICK)
        condensed = context.reduce("mcond", BUDGET, seed=DATA_SEED)
        model = context.train("synthetic", condensed=condensed,
                              validate_deployment="synthetic",
                              seed=DATA_SEED)
        bundle = package(model, "synthetic", condensed=condensed)
        return (condensed, context.mcond_result(BUDGET, seed=DATA_SEED),
                save(bundle))

    def check(result):
        condensed, history, _ = result
        check_condensed(run, condensed, history, prepared.split.num_classes)

    (condensed, _, saved), units = repeated_offline(run, operation, times,
                                                    check)
    return (condensed, saved), units


def run_condense(run: Run, src: Path) -> None:
    times = [run.attempt("set-up", fresh_setup, run, src)
             for _ in range(SETUP_REPEATS)]
    run.end_to_end["setup_s"] = statistics.median(
        t for t in times if t is not None)
    if run.trace is not None:
        run.trace.function("repro.graph.datasets", "load_dataset",
                           "graph.load_dataset", per_call=True)
        mark = run.cal.mark()
        for _ in range(SETUP_REPEATS):
            dataset()
            run.calibrate()
        run.per_layer["graph.load_dataset"] = statistics.median(
            run.trace.samples["graph.load_dataset"]) / run.cal.median(mark)
        run.trace.remove()
        run.trace.reset()
    prepared = dataset()

    counter = iter(range(OFFLINE_OPERATIONS))
    (condensed, path), units = condensed_offline(
        run, prepared,
        lambda bundle: bundle.save(run.work / f"condensed-{next(counter)}"),
        OFFLINE_OPERATIONS)
    run.end_to_end["offline_time"] = statistics.median(units)
    run.end_to_end["artifact_bytes"] = path.stat().st_size
    if run.trace is not None:
        overhead = run.per_layer["trace.overhead"]
        run.per_layer["condense.mapping_nnz"] = condensed.mapping.nnz
        run.per_layer["condense.adjacency_nnz"] = np.count_nonzero(
            condensed.adjacency)

    # S→S: serve the artifact just saved, in graph batch mode
    requests = request_batches(prepared.test_batch, run.rng)
    runtime = api.open_runtime(path, batch_mode="graph").start()
    try:
        serve_runtime(run, runtime, path, requests,
                      prepared.test_batch.labels,
                      time.perf_counter() + 0.4 * run.seconds, block_size=32)
    finally:
        runtime.stop()
    if run.trace is not None:
        # the offline phase is this workload's cost: its ratio is the
        # tracing overhead reported
        run.per_layer["trace.overhead"] = overhead


# ----------------------------------------------------------------------
# original-stream
# ----------------------------------------------------------------------
def run_original_stream(run: Run, src: Path) -> None:
    del src
    prepared = dataset(STREAM_SCALE)
    path = run.work / "original.npz"

    def operation():
        model = ExperimentContext(prepared, QUICK).train("original",
                                                         seed=DATA_SEED)
        bundle = package(model, "original", base=prepared.original,
                         scale=STREAM_SCALE)
        return bundle, bundle.save(path)

    (bundle, saved), units = repeated_offline(run, operation,
                                              OFFLINE_OPERATIONS,
                                              lambda result: None)
    run.end_to_end["offline_time"] = statistics.median(units)
    run.end_to_end["artifact_bytes"] = saved.stat().st_size

    requests = request_batches(prepared.test_batch, run.rng)
    deltas = make_delta_trace(bundle.base, prepared.val_batch,
                              seed=run.seed, **DELTA_TRACE)

    def open_once():
        runtime = api.open_stream(api.DeploymentBundle.load(saved),
                                  batch_mode="graph").start()
        runtime.submit(ServeTask(batch=requests[0])).result(timeout=TIMEOUT)
        return runtime.stop, runtime

    close, runtime = setup_seconds(run, open_once)
    try:
        serve_runtime(run, runtime, saved, requests,
                      prepared.test_batch.labels,
                      time.perf_counter() + run.seconds, deltas=deltas,
                      block_size=24)
    finally:
        close()


# ----------------------------------------------------------------------
# synthetic-gateway
# ----------------------------------------------------------------------
def task_for(i: int, request: IncrementalBatch) -> ServeTask:
    if i % TOPK_EVERY == TOPK_EVERY - 1:
        return ServeTask(batch=request, task="topk", k=TOPK)
    return ServeTask(batch=request)


class SyntheticChecker:
    """Checks node-mode replies: predict logits against Eq. 11, top-k
    against brute-force cosine over the synthetic nodes' embeddings."""

    def __init__(self, run: Run, art) -> None:
        self.run = run
        self.art = art
        self.base = oracle.sgc_embed(art.adjacency, art.features, art.k_hops)
        self.hits = 0
        self.total = 0
        self.scored: set[int] = set()

    def __call__(self, i: int, request: IncrementalBatch, result) -> None:
        if i % TOPK_EVERY == TOPK_EVERY - 1:
            queries = oracle.request_embeddings(
                self.art, request.incremental, request.features)
            scores = oracle.cosine_scores(queries, self.base)
            self.run.check(oracle.topk_agrees(result[:, :TOPK],
                                              result[:, TOPK:], scores),
                           "top-k ids differ from brute-force cosine")
            return
        expected = oracle.request_logits(self.art, request.incremental,
                                         request.features)
        check_logits(self.run, result, expected, "node-mode request")
        if id(request) not in self.scored:  # each test node once
            self.scored.add(id(request))
            self.hits += int(np.sum(result.argmax(axis=1) == request.labels))
            self.total += request.num_nodes

    def replay(self, events) -> None:
        for _, i, request, result in events:
            self(i, request, result)


def gateway_reply(client, task: ServeTask) -> np.ndarray:
    reply = client.serve_batch(task)
    if not reply.ok:
        raise RuntimeError(f"gateway answered {reply.status}: {reply.error}")
    return reply.logits


def tier_p50(run: Run, requests, serve, art) -> tuple[float, float]:
    """One-in-flight p50 of one tier over ``LADDER_SAMPLES`` requests, in
    cal and in raw milliseconds; its replies are checked too."""
    events = []
    lat = one_in_flight(run, requests, serve, 0.0, count=LADDER_SAMPLES,
                        events=events)
    SyntheticChecker(run, art).replay(events)
    return lat.p50(run), statistics.median(lat.seconds) * 1e3


def tier_ladder(run: Run, path: Path, index: Path, requests) -> None:
    """Traced runs only: the same requests through each tier below the
    gateway, one in flight, so that every tier's overhead over the
    prepared deployment is measured from outside."""
    art = oracle.Artifact(path)
    runtime = api.open_runtime(path, batch_mode="node").start()
    try:
        runtime_p50, runtime_ms = tier_p50(
            run, requests, lambda i, r: runtime.submit(
                task_for(i, r)).result(timeout=TIMEOUT), art)
    finally:
        runtime.stop()
    start = time.perf_counter()
    fleet = api.open_fleet(path, replicas=1, batch_mode="node")
    run.per_layer["fleet.ready_s"] = time.perf_counter() - start
    try:
        fleet_p50, fleet_ms = tier_p50(
            run, requests, lambda i, r: fleet.submit(
                task_for(i, r)).result(timeout=TIMEOUT), art)
    finally:
        fleet.close()
    prepared = api.DeploymentBundle.load(path, mmap=True).prepare()
    prepared.attach_embedding_index(EmbeddingIndex.load(index, mmap=True))
    install_serving_trace(run)
    mark = run.cal.mark()
    prepared_p50, _ = tier_p50(
        run, requests, lambda i, r: prepared.serve_task(
            task_for(i, r), batch_mode="node")[0], art)
    report_serving_trace(run, run.cal.median(mark))
    run.trace.remove()
    run.trace.reset()
    run.per_layer["runtime.overhead"] = runtime_p50 - prepared_p50
    run.per_layer["fleet.overhead"] = fleet_p50 - prepared_p50
    run.per_layer["runtime.latency_ms"] = runtime_ms
    run.per_layer["fleet.latency_ms"] = fleet_ms
    run.fleet_p50 = fleet_p50


def run_synthetic_gateway(run: Run, src: Path) -> None:
    del src
    prepared = dataset()
    target = run.work / "synthetic.npz"

    def save(bundle):
        saved = bundle.save(target, layout="mmap")
        return saved, api.save_embedding_index(bundle, saved)

    (_, (saved, index)), units = condensed_offline(run, prepared, save,
                                                   OFFLINE_OPERATIONS)
    run.end_to_end["offline_time"] = statistics.median(units)
    run.end_to_end["artifact_bytes"] = (saved.stat().st_size
                                        + index.stat().st_size)

    requests = request_batches(prepared.test_batch, run.rng)
    if run.trace is not None:
        tier_ladder(run, saved, index, requests)

    def open_once():
        gateway = api.open_gateway(saved, replicas=1, batch_mode="node")
        client = protocol.GatewayClient(*gateway.address)
        gateway_reply(client, ServeTask(batch=requests[0]))

        def close():
            client.close()
            gateway.close()
        return close, client

    close, client = setup_seconds(run, open_once)
    try:
        serve_gateway(run, client, saved, requests,
                      prepared.test_batch.labels,
                      time.perf_counter() + run.seconds)
    finally:
        close()


def serve_gateway(run: Run, client, path: Path, requests, labels,
                  window_end) -> None:
    until_a, until_b = phase_deadlines(window_end)
    traced_from = MIN_SAMPLES // 2

    def on_sample(i):
        if run.trace is not None and i == traced_from:
            for attr in ("encode_serve_request", "decode_reply"):
                run.trace.function("repro.serving.protocol", attr,
                                   f"protocol.{attr}", per_call=True)

    events = []
    mark = run.cal.mark()
    lat = one_in_flight(
        run, requests, lambda i, r: gateway_reply(client, task_for(i, r)),
        until_a, events=events, on_sample=on_sample)
    unit_a = run.cal.median(mark)
    report_latency(run, lat)
    if run.trace is not None:
        untraced = lat.p50(run, 0, traced_from)
        run.per_layer["trace.overhead"] = (lat.p50(run, traced_from)
                                           / untraced)
        run.per_layer["gateway.overhead"] = untraced - run.fleet_p50
        run.per_layer["gateway.latency_ms"] = statistics.median(
            lat.seconds[:traced_from]) * 1e3
        for name in ("protocol.encode_serve_request",
                     "protocol.decode_reply"):
            run.per_layer[name] = (statistics.median(run.trace.samples[name])
                                   / unit_a)
        run.trace.remove()

    def block(picked):
        replies = {}
        sent = []
        for i, request in picked:
            if len(sent) - len(replies) == IN_FLIGHT:
                replies.update(client.drain(1))
            sent.append(client.submit(task_for(i, request)))
        while len(replies) < len(sent):
            replies.update(client.drain(1))
        return [replies[request_id] for request_id in sent]

    run.end_to_end["loaded_throughput"], blocks = loaded_blocks(
        run, block, requests, until_b, block_size=48)
    run.end_to_end["peak_rss_mb"] = peak_rss_mb()  # before the oracle runs

    checker = SyntheticChecker(run, oracle.Artifact(path))
    checker.replay(events)
    check_accuracy(run, checker.hits, checker.total, labels)
    for picked, replies in blocks:
        for (i, request), reply in zip(picked, replies):
            run.check(reply.ok, f"gateway answered {reply.status}")
            if reply.ok:
                checker(i, request, reply.logits)


WORKLOADS = {
    "condense": run_condense,
    "original-stream": run_original_stream,
    "synthetic-gateway": run_synthetic_gateway,
}
