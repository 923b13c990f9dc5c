"""The four workloads: what each one sets up, drives, times and checks.

All four use the APRI hierarchy (three end nodes; two under a gateway,
one directly under the root) at the repository's bench scale: D=4000,
2500 training rows, 15 retraining epochs, dense associative search and
the ``ServeConfig`` defaults (32-query micro-batches, 2 ms window, inbox
depth 64, ``block`` backpressure), escalating over 802.11ac.

The trained system is the same for every seed (dataset seed 7): the
dataset seed alone moves the share of queries that escalate at
threshold 0.55 between 6% and 29%, so runs of different seeds would
measure different systems. The workload seed draws the inputs: the
order of the tiled test set (each of the 248 test rows 16 times, 3968
queries), every query's entry leaf and the arrival schedule.

Serving workloads alternate rounds of a fixed-rate segment (open-loop
Poisson arrivals generated in this process, 1000 requests) and a
saturation pass offered far above capacity, until the run's time is
up. Latency is measured from each request's scheduled arrival, so a
generator that falls behind shows up as latency. Percentiles and
saturation throughput are medians over rounds: the host is shared, and
a burst of outside load then spoils a round rather than the run.

Every workload reports every end-to-end metric, each measured on its
own work: serving workloads train through ``TopologyController.fit`` in
their set-up, time the offline walk that checks their answers, and
write checkpoints of the served system between rounds and finish with
two restore / join / drain rounds; ``fleet-ops`` repeats those operations as its workload and
answers single queries with the offline walk for its latency metrics.
"""

from __future__ import annotations

import multiprocessing
import os
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.config import EdgeHDConfig
from repro.data import DATASETS, load_dataset, partition_features
from repro.hierarchy import (
    EdgeHDFederation,
    HierarchicalInference,
    TopologyController,
    build_tree,
)
from repro.network.medium import get_medium
from repro.serve import (
    ClusterConfig,
    ClusterRuntime,
    ServeConfig,
    ServeWorkload,
    ServingRuntime,
)

import tracer as tr
from tracer import Tracer

DATASET = "APRI"
N_END_NODES = DATASETS[DATASET].n_end_nodes
DATA_SEED = 7
DATA_SCALE, MAX_TRAIN, MAX_TEST = 0.2, 2500, 700
DIMENSION, RETRAIN_EPOCHS, BATCH_SIZE = 4000, 15, 10
MEDIUM = "wifi-802.11ac"
#: tiles of the test set in the query pool (16 x 248 = 3968 queries).
POOL_TILES = 16
#: a request answered later than this misses the SLO.
SLO_MS = 100.0
#: set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: queries served at saturation during set-up, before any timing.
WARMUP_QUERIES = 512
#: fixed-rate requests per round: its p99 has ten samples beyond it.
ROUND_REQUESTS = 1000
#: rounds (or fleet cycles) per run at the least; medians need three.
MIN_ROUNDS = 3
#: offered rate of the saturation passes: far above any capacity here.
SATURATION_RPS = 200_000.0
#: checkpoints written per fleet cycle. A serving run writes a few
#: after every round instead: one write takes ~8 ms and moves with the
#: host's state, so the writes should sample the whole run.
CHECKPOINTS_PER_CYCLE = 20
CHECKPOINTS_PER_ROUND = 4
#: restore -> join -> drain repeats closing a serving run.
SERVING_RESTORES = 2
#: fleet cycles share the single-query walks of the whole pool, so
#: every run times the same queries (up to entry leaves).
SINGLE_QUERY_SHARE = 1.0 / MIN_ROUNDS


@dataclass(frozen=True)
class ServingSpec:
    threshold: float
    rate_rps: float
    #: queries per saturation pass (about half a second of work each).
    pass_queries: int
    #: worker processes; 0 serves in-process through ServingRuntime.
    workers: int = 0


SERVING = {
    "serve-local": ServingSpec(threshold=0.55, rate_rps=1500.0, pass_queries=3968),
    "serve-escalate": ServingSpec(threshold=0.95, rate_rps=500.0, pass_queries=992),
    # 200 rather than 250 req/s: at 250 the micro-batches held ~1.4
    # requests and the per-round p99 swung between 30 and 123 ms with
    # the speed of the shared 2-core host.
    "cluster-2w": ServingSpec(threshold=0.8, rate_rps=200.0, pass_queries=992, workers=2),
}
FLEET_THRESHOLD = 0.8


# ----------------------------------------------------------------------
# inputs and the system under test
# ----------------------------------------------------------------------
@dataclass
class Pool:
    """The seed's queries: feature rows, entry leaves, true labels."""

    x: np.ndarray
    leaves: np.ndarray
    y: np.ndarray

    def indices(self, n: int, offset: int) -> np.ndarray:
        return (offset + np.arange(n)) % len(self.y)

    def workload(self, n: int, offset: int = 0) -> ServeWorkload:
        idx = self.indices(n, offset)
        return ServeWorkload(
            features=self.x[idx], start_leaves=self.leaves[idx], labels=self.y[idx]
        )


def make_pool(data, seed: int) -> Pool:
    rng = np.random.default_rng([seed, 1])
    rows = rng.permutation(np.tile(np.arange(len(data.test_y)), POOL_TILES))
    leaves = np.asarray(build_tree(N_END_NODES).leaves())
    entry = leaves[rng.integers(0, len(leaves), size=rows.size)]
    return Pool(x=data.test_x[rows], leaves=entry, y=data.test_y[rows])


def poisson_schedule(n: int, rate_rps: float, seed: int, stream: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 2, stream])
    return np.cumsum(rng.exponential(1.0 / rate_rps, size=n))


def load_data():
    data = load_dataset(
        DATASET, scale=DATA_SCALE, max_train=MAX_TRAIN, max_test=MAX_TEST,
        seed=DATA_SEED,
    )
    return data, partition_features(data.n_features, N_END_NODES)


def new_controller(data, partition) -> TopologyController:
    config = EdgeHDConfig(
        dimension=DIMENSION, retrain_epochs=RETRAIN_EPOCHS,
        batch_size=BATCH_SIZE, seed=DATA_SEED,
    )
    federation = EdgeHDFederation(
        build_tree(N_END_NODES), partition, data.n_classes, config
    )
    return TopologyController(federation, data.train_x, data.train_y)


def timed(fn: Callable, *args):
    start = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - start


# ----------------------------------------------------------------------
# measurement record
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """What one run measured, checked and counted."""

    e2e: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    detail: Dict[str, object] = field(default_factory=dict)
    failed_checks: List[str] = field(default_factory=list)
    #: raw per-request values, written to the run's record file only.
    samples: Dict[str, list] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.failed_checks.append(message)
        return bool(ok)


def pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mb(pids: List[int]) -> float:
    """Sum of each process's peak resident memory (VmHWM), MiB.

    Pages a forked worker still shares with the router count in both.
    """
    total_kib = 0
    for pid in pids:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    total_kib += int(line.split()[1])
    return total_kib / 1024.0


# ----------------------------------------------------------------------
# fleet operations (timed in every workload)
# ----------------------------------------------------------------------
class Checkpoints:
    """The checkpoint files one run writes, each to a new path.

    A new file per checkpoint, as versioned checkpoints would be:
    rewriting one file in place makes the filesystem flush it on
    truncation, which is not the program's cost.
    """

    def __init__(self, stem: Path) -> None:
        self.stem = stem
        self.paths: List[Path] = []

    def write(self, out: Outcome, controller: TopologyController, count: int,
              timings: Dict[str, List[float]]) -> None:
        for _ in range(count):
            path = self.stem.with_name(f"{self.stem.name}-{len(self.paths)}.npz")
            self.paths.append(path)
            timings["checkpoint_s"].append(timed(controller.checkpoint, path)[1])
        out.attempted += count

    def remove(self) -> None:
        for path in self.paths:
            path.unlink(missing_ok=True)
        self.paths = []


def restore_join_drain(out: Outcome, path: Path, fingerprint: str, data,
                       timings: Dict[str, List[float]], label: str) -> int:
    """Restore ``path``, then join a leaf under the root and drain it.

    The restored controller must carry ``fingerprint``, the one taken
    before the checkpoint. Returns the nodes refit by join plus drain.
    """
    restored, seconds = timed(TopologyController.restore, path, data.train_x, data.train_y)
    timings["restore_s"].append(seconds)
    out.attempted += 3
    if not out.check(restored.fingerprint() == fingerprint,
                     f"{label}: restored fingerprint differs from the checkpointed one"):
        out.failed += 1
    joined, seconds = timed(restored.join, restored.federation.hierarchy.root_id)
    timings["join_s"].append(seconds)
    drained, seconds = timed(restored.drain, joined.node_id)
    timings["drain_s"].append(seconds)
    return len(joined.refit_nodes) + len(drained.refit_nodes)


FLEET_METRICS = ("fit_s", "walk_qps", "checkpoint_s", "restore_s", "join_s", "drain_s")


# ----------------------------------------------------------------------
# serving
# ----------------------------------------------------------------------
class ScheduledRuntime(ServingRuntime):
    """ServingRuntime that records when each request was really submitted.

    ``serve_open_loop`` sleeps until each scheduled arrival and then
    calls :meth:`submit`, which stamps ``arrival_s``; the gap between
    the two is how late the generator ran, which the runtime's own
    latency (timed from ``arrival_s``) leaves out.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.submitted_s: Dict[int, float] = {}

    async def submit(self, req) -> None:
        await super().submit(req)
        # ``_t0`` is the run-start clock serve_open_loop schedules against.
        self.submitted_s[req.index] = req.arrival_s - self._t0


@dataclass
class Phase:
    """One serve_open_loop call, what it returned and where its spans are."""

    result: object
    pool_idx: np.ndarray
    arrivals: np.ndarray
    wall_s: float
    latency_ms: np.ndarray
    late_ms: np.ndarray
    ok: np.ndarray
    spans: Tuple[int, int] = (0, 0)
    batches: Tuple[int, int] = (0, 0)
    poll_s: float = 0.0


def serve_phase(runtime, pool: Pool, n: int, offset: int, rate_rps: float,
                seed: int, stream: int, tracer: Optional[Tracer]) -> Phase:
    workload = pool.workload(n, offset)
    arrivals = poisson_schedule(n, rate_rps, seed, stream)
    scheduled = isinstance(runtime, ScheduledRuntime)
    if scheduled:
        runtime.submitted_s = {}
    marks = (tracer.mark(), len(tracer.batch_sizes), tracer.poll_s) if tracer else (0, 0, 0.0)
    start = time.perf_counter()
    result = runtime.serve_open_loop(workload, rate_rps=rate_rps, arrivals=arrivals)
    wall = time.perf_counter() - start
    responses = result.responses
    total = np.array([r.timings.total_ms for r in responses])
    if scheduled:
        submitted = np.array([runtime.submitted_s[r.index] for r in responses])
        late = (submitted - arrivals[[r.index for r in responses]]) * 1e3
    else:
        # The cluster router already times each request from its
        # scheduled arrival.
        late = np.zeros(len(responses))
    ok = np.array([not (r.shed or r.degraded or r.rejected) for r in responses])
    phase = Phase(result, pool.indices(n, offset), arrivals, wall, total + late, late, ok)
    if tracer is not None:
        phase.spans = (marks[0], tracer.mark())
        phase.batches = (marks[1], len(tracer.batch_sizes))
        phase.poll_s = tracer.poll_s - marks[2]
    return phase


def check_phase(out: Outcome, phase: Phase, ref, label: str) -> None:
    """Exactly one response per request, each equal to the offline walk."""
    responses = phase.result.responses
    n = len(phase.arrivals)
    indices = np.array([r.index for r in responses])
    if not out.check(len(responses) == n and np.array_equal(indices, np.arange(n)),
                     f"{label}: {len(responses)} responses for {n} requests"):
        return
    idx = phase.pool_idx[phase.ok]
    labels = np.array([r.label for r in responses])[phase.ok]
    nodes = np.array([r.deciding_node for r in responses])[phase.ok]
    conf = np.array([r.confidence for r in responses])[phase.ok]
    out.check(np.array_equal(labels, ref.labels[idx]),
              f"{label}: served labels differ from the offline walk")
    out.check(np.array_equal(nodes, ref.deciding_node[idx]),
              f"{label}: served deciding nodes differ from the offline walk")
    out.check(np.allclose(conf, ref.confidence[idx]),
              f"{label}: served confidences differ from the offline walk")


def start_serving(spec: ServingSpec, pool: Pool, data, partition, timings):
    """Train, start the runtime and warm it up: the timed set-up."""
    controller = new_controller(data, partition)
    timings["fit_s"].append(timed(controller.fit)[1])
    inference = HierarchicalInference(
        controller.federation, confidence_threshold=spec.threshold
    )
    medium = get_medium(MEDIUM)
    if spec.workers:
        runtime = ClusterRuntime(
            inference, medium, ServeConfig(), cluster=ClusterConfig(workers=spec.workers)
        )
        runtime.start()
    else:
        runtime = ScheduledRuntime(inference, medium, ServeConfig())
    try:
        runtime.serve_open_loop(
            pool.workload(WARMUP_QUERIES), rate_rps=SATURATION_RPS,
            arrivals=poisson_schedule(WARMUP_QUERIES, SATURATION_RPS, 0, 0),
        )
    except BaseException:
        if spec.workers:
            runtime.close()
        raise
    return controller, inference, runtime


def run_serving(name: str, seed: int, seconds: float, tracer: Optional[Tracer],
                out_dir: Path) -> Outcome:
    spec = SERVING[name]
    out = Outcome()
    timings: Dict[str, List[float]] = {op: [] for op in FLEET_METRICS}
    runtime = None
    checkpoints = Checkpoints(out_dir / f"{name}-{seed}-{os.getpid()}")
    try:
        setups = []
        setup_mark = tracer.mark() if tracer else 0
        for _ in range(1 if tracer else SETUP_REPEATS):
            if runtime is not None and spec.workers:
                runtime.close()
            start = time.perf_counter()
            data, partition = load_data()
            pool = make_pool(data, seed)
            controller, inference, runtime = start_serving(spec, pool, data, partition, timings)
            setups.append(time.perf_counter() - start)
        setup_spans = tracer.window(setup_mark, tracer.mark()) if tracer else []

        overhead = None
        if tracer is not None:
            overhead = trace_overhead(tracer, lambda: serve_phase(
                runtime, pool, spec.pass_queries, 0, SATURATION_RPS, seed, 9, None).wall_s)

        deadline = time.perf_counter() + seconds
        fixed: List[Phase] = []
        passes: List[Phase] = []
        offset = 0
        while len(fixed) < MIN_ROUNDS or time.perf_counter() < deadline:
            stream = 2 * len(fixed)
            fixed.append(serve_phase(runtime, pool, ROUND_REQUESTS, offset,
                                     spec.rate_rps, seed, stream, tracer))
            offset += ROUND_REQUESTS
            passes.append(serve_phase(runtime, pool, spec.pass_queries, offset,
                                      SATURATION_RPS, seed, stream + 1, tracer))
            offset += spec.pass_queries
            checkpoints.write(out, controller, CHECKPOINTS_PER_ROUND, timings)
        phases = fixed + passes

        closing_mark = tracer.mark() if tracer else 0
        ref, walk_s = timed(inference.run, pool.x, pool.leaves)
        timings["walk_qps"].append(len(pool.y) / walk_s)
        for i, phase in enumerate(fixed):
            check_phase(out, phase, ref, f"fixed-rate round {i}")
        for i, phase in enumerate(passes):
            check_phase(out, phase, ref, f"saturation pass {i}")

        n_requests = sum(len(p.arrivals) for p in phases)
        n_ok = sum(int(p.ok.sum()) for p in phases)
        out.attempted += n_requests
        out.failed += n_requests - n_ok
        correct = 0
        for p in phases:
            labels = np.array([r.label for r in p.result.responses])
            truth = pool.y[p.pool_idx[[r.index for r in p.result.responses]]]
            correct += int(np.sum((labels == truth) & p.ok))
        sat = [p.result.n_answered / p.result.makespan_s for p in passes]
        p50 = [pct(p.latency_ms[p.ok], 50) for p in fixed]
        p99 = [pct(p.latency_ms[p.ok], 99) for p in fixed]
        in_slo = sum(int(np.sum(p.ok & (p.latency_ms <= SLO_MS))) for p in fixed)
        fingerprint = controller.fingerprint()
        for _ in range(SERVING_RESTORES):
            refit = restore_join_drain(out, checkpoints.paths[-1], fingerprint, data,
                                       timings, "served system")
        pids = [os.getpid()] + [p.pid for p in multiprocessing.active_children()]
        out.e2e.update({
            "setup_s": statistics.median(setups),
            "p50_ms": statistics.median(p50),
            "p99_ms": statistics.median(p99),
            "sat_rps": statistics.median(sat),
            "slo_frac": in_slo / (ROUND_REQUESTS * len(fixed)),
            "ok_frac": 1.0 - out.failed / out.attempted,
            "accuracy": correct / n_requests,
            "peak_rss_mb": peak_rss_mb(pids),
            **{op: statistics.median(v) for op, v in timings.items()},
        })
        out.detail.update({
            "threshold": spec.threshold,
            "fixed_rate_rps": spec.rate_rps,
            "rounds": len(fixed),
            "latency_samples_per_round": ROUND_REQUESTS,
            "round_p50_ms": p50,
            "round_p99_ms": p99,
            "saturation_pass_queries": spec.pass_queries,
            "saturation_passes_rps": sat,
            "setup_runs_s": setups,
            "fleet_op_runs": timings,
            "fail_frac": out.failed / out.attempted,
            "rss_processes": len(pids),
        })
        out.samples["fixed_latency_ms"] = [p.latency_ms.round(3).tolist() for p in fixed]
        if tracer is not None:
            serving_layers(out, name, tracer, runtime, fixed, passes, setup_spans,
                           tracer.window(closing_mark), overhead, refit)
    finally:
        checkpoints.remove()
        if runtime is not None and spec.workers:
            runtime.close()
    return out


def trace_overhead(tracer: Tracer, timed_pass: Callable[[], float]) -> float:
    """Traced over untraced wall time of the same pass, minus one.

    Alternates untraced and traced passes (U T T U) so drift between
    the first and the last pass cancels.
    """
    untraced = traced = 0.0
    for traced_pass in (False, True, True, False):
        if traced_pass:
            tracer.install()
            traced += timed_pass()
        else:
            tracer.uninstall()
            untraced += timed_pass()
    tracer.install()
    return traced / untraced - 1.0


# ----------------------------------------------------------------------
# per-layer metrics (traced runs)
# ----------------------------------------------------------------------
def attribution(out: Outcome, tracer: Tracer, spans, wall: float, poll_s: float) -> None:
    """Per-layer self-time shares of ``wall``; they sum to 1 with the rest."""
    by_layer: Dict[str, float] = {}
    for name, seconds in tracer.self_time(spans).items():
        layer = tr.layer_of(name)
        by_layer[layer] = by_layer.get(layer, 0.0) + seconds
    attributed = sum(by_layer.values()) + poll_s
    for layer in tr.LAYERS:
        out.layers[f"{layer}.self_share"] = by_layer.get(layer, 0.0) / wall
    out.layers["serve.runtime.poll_share"] = poll_s / wall
    out.layers["serve.runtime.unattributed_share"] = 1.0 - attributed / wall
    out.detail["trace_wall_s"] = wall
    out.detail["trace_attributed_s"] = attributed
    # More self time than wall time would mean spans overlap, i.e. some
    # time is counted twice.
    out.check(attributed <= wall * 1.001,
              f"layer self times ({attributed:.3f} s) exceed wall time ({wall:.3f} s)")


def per_request_layers(out: Outcome, tracer: Tracer, spans, n_requests: int, wall: float) -> None:
    t = tracer.self_time(spans)
    out.layers.update({
        "core.encoding.rows_per_req": tr.rows(spans, "core.encoding.encode") / n_requests,
        "core.encoding.self_ms_per_req": t.get("core.encoding.encode", 0.0) * 1e3 / n_requests,
        "core.projection.calls_per_req": tr.calls(spans, "core.projection.project") / n_requests,
        "core.projection.rows_per_req": tr.rows(spans, "core.projection.project") / n_requests,
        "core.classifier.predict_self_share": t.get("core.classifier.predict", 0.0) / wall,
        "hierarchy.federation.encode_at_calls_per_req":
            tr.calls(spans, "hierarchy.federation.encode_at") / n_requests,
        "hierarchy.federation.encode_at_self_share":
            t.get("hierarchy.federation.encode_at", 0.0) / wall,
    })


def serving_layers(out: Outcome, name: str, tracer: Tracer, runtime, fixed: List[Phase],
                   passes: List[Phase], setup_spans, closing_spans, overhead: float,
                   refit: int) -> None:
    """Per-layer metrics of a traced serving run.

    Shares and per-request counts cover every measured phase; queueing,
    lateness, batching and cluster stages cover the fixed-rate rounds,
    whose latency they explain; training and projection builds come
    from the set-up; the offline walk and restore times from the
    checking walk and fleet operations that close the run, checkpoint
    writes from between the rounds.
    """
    phases = fixed + passes
    spans = [s for p in phases for s in tracer.window(*p.spans)]
    fixed_spans = [s for p in fixed for s in tracer.window(*p.spans)]
    wall = sum(p.wall_s for p in phases)
    n_requests = sum(len(p.arrivals) for p in phases)
    attribution(out, tracer, spans, wall, sum(p.poll_s for p in phases))
    per_request_layers(out, tracer, spans, n_requests, wall)
    cluster = isinstance(runtime, ClusterRuntime)
    ok = np.concatenate([p.ok for p in fixed])
    timings = [r.timings for p in fixed for r in p.result.responses]
    queue_wait = np.array([t.queue_wait_ms for t in timings])
    late = np.concatenate([p.late_ms for p in fixed])
    batches = [b for p in fixed for b in tracer.batch_sizes[slice(*p.batches)]]
    dispatched = [s[6] for s in fixed_spans if s[1] == "serve.cluster.dispatch"]
    setup_self = tracer.self_time(setup_spans)
    out.layers.update({
        "core.projection.build_s": sum(tr.durations(setup_spans, "core.projection.build")),
        "core.classifier.retrain_s": setup_self.get("core.classifier.retrain", 0.0),
        "hierarchy.inference.run_self_s":
            tracer.self_time(closing_spans).get("hierarchy.inference.run", 0.0),
        "hierarchy.checkpoint.save_s": statistics.median(
            tr.durations(tracer.spans, "hierarchy.checkpoint.save")),
        "hierarchy.checkpoint.load_s": statistics.median(
            tr.durations(closing_spans, "hierarchy.checkpoint.load")),
        "hierarchy.control.refit_nodes": float(refit),
        "serve.batcher.fill_ratio":
            float(np.mean(batches)) / ServeConfig().max_batch if batches else 0.0,
        "serve.queueing.wait_p50_ms": pct(queue_wait[ok], 50),
        "serve.queueing.wait_p99_ms": pct(queue_wait[ok], 99),
        "serve.queueing.high_water":
            float(max(max(p.result.queue_high_water.values()) for p in fixed)),
        "serve.runtime.gen_late_p50_ms": pct(late, 50),
        "serve.runtime.gen_late_p99_ms": pct(late, 99),
        "network.medium.hops_per_req":
            sum(sum(p.result.escalations.values()) for p in phases) / n_requests,
        "network.medium.wire_bytes_per_req": sum(p.result.wire_bytes for p in phases) / n_requests,
        "network.medium.transfer_ms_per_req":
            sum(r.timings.escalation_rtt_ms for p in phases for r in p.result.responses) / n_requests,
        "serve.cluster.queue_wait_p50_ms": 0.0,
        "serve.cluster.worker_encode_ms": 0.0,
        "serve.cluster.worker_walk_ms": 0.0,
        "serve.cluster.router_ipc_p50_ms": 0.0,
        "serve.cluster.batch_mean": 0.0,
        "serve.shard.publish_s": sum(tr.durations(setup_spans, "serve.shard.publish")),
        "serve.shard.bytes": float(runtime.topology()["shared_memory_bytes"]) if cluster else 0.0,
        "trace.overhead_frac": overhead,
    })
    if cluster:
        enc = np.array([t.encode_ms for t in timings])
        walk = np.array([t.search_ms for t in timings])
        rtt = np.array([t.escalation_rtt_ms for t in timings])
        total = np.array([t.total_ms for t in timings])
        # Router IPC is what the worker-reported stages and the
        # simulated escalation round trip leave of each request's total.
        ipc = total - queue_wait - enc - walk - rtt
        out.layers.update({
            "serve.cluster.queue_wait_p50_ms": pct(queue_wait[ok], 50),
            "serve.cluster.worker_encode_ms": pct(enc[ok], 50),
            "serve.cluster.worker_walk_ms": pct(walk[ok], 50),
            "serve.cluster.router_ipc_p50_ms": pct(ipc[ok], 50),
            "serve.cluster.batch_mean": float(np.mean(dispatched)) if dispatched else 0.0,
        })
        out.detail["cluster_stage_p50_ms"] = {
            "total": pct(total[ok], 50), "queue_wait": pct(queue_wait[ok], 50),
            "encode": pct(enc[ok], 50), "walk": pct(walk[ok], 50),
            "escalation_rtt": pct(rtt[ok], 50), "router_ipc": pct(ipc[ok], 50),
        }
    coverage(out, setup_spans + spans, REQUIRED_SPANS[name])


# ----------------------------------------------------------------------
# fleet operations as the workload
# ----------------------------------------------------------------------
def fleet_cycle(out: Outcome, data, partition, pool: Pool, stem: Path, cycle: int,
                timings: Dict[str, List[float]], single_ms: List[float]):
    """fit -> offline walk -> single-query walks -> checkpoint -> restore -> join -> drain."""
    controller = new_controller(data, partition)
    timings["fit_s"].append(timed(controller.fit)[1])
    fingerprint = controller.fingerprint()
    inference = HierarchicalInference(
        controller.federation, confidence_threshold=FLEET_THRESHOLD
    )
    walk, seconds = timed(inference.run, pool.x, pool.leaves)
    timings["walk_qps"].append(len(pool.y) / seconds)
    per_cycle = int(len(pool.y) * SINGLE_QUERY_SHARE)
    for i in pool.indices(per_cycle, cycle * per_cycle):
        one, seconds = timed(inference.run, pool.x[i:i + 1], pool.leaves[i:i + 1])
        single_ms.append(seconds * 1e3)
        if not out.check(one.labels[0] == walk.labels[i],
                         f"cycle {cycle}: single query {i} answered unlike the batch walk"):
            out.failed += 1
    checkpoints = Checkpoints(stem)
    try:
        checkpoints.write(out, controller, CHECKPOINTS_PER_CYCLE, timings)
        refit = restore_join_drain(out, checkpoints.paths[-1], fingerprint, data,
                                   timings, f"cycle {cycle}")
    finally:
        checkpoints.remove()
    return fingerprint, walk, refit


def run_fleet(seed: int, seconds: float, tracer: Optional[Tracer], out_dir: Path) -> Outcome:
    out = Outcome()
    stem = out_dir / f"fleet-ops-{seed}-{os.getpid()}"
    setups = []
    setup_mark = tracer.mark() if tracer else 0
    for _ in range(1 if tracer else SETUP_REPEATS):
        start = time.perf_counter()
        data, partition = load_data()
        pool = make_pool(data, seed)
        # Warm-up: one training pass and a short walk (BLAS, the
        # projection's float64 operand, first-call imports).
        warm = new_controller(data, partition)
        warm.fit()
        inference = HierarchicalInference(
            warm.federation, confidence_threshold=FLEET_THRESHOLD
        )
        inference.run(pool.x[:WARMUP_QUERIES], pool.leaves[:WARMUP_QUERIES])
        setups.append(time.perf_counter() - start)
    setup_spans = tracer.window(setup_mark, tracer.mark()) if tracer else []

    overhead = None
    if tracer is not None:
        overhead = trace_overhead(
            tracer, lambda: timed(inference.run, pool.x, pool.leaves)[1]
        )

    timings: Dict[str, List[float]] = {op: [] for op in FLEET_METRICS}
    single_ms: List[float] = []
    deadline = time.perf_counter() + seconds
    mark = tracer.mark() if tracer else 0
    start = time.perf_counter()
    cycles = []
    while len(cycles) < MIN_ROUNDS or time.perf_counter() < deadline:
        cycles.append(fleet_cycle(out, data, partition, pool, stem, len(cycles),
                                  timings, single_ms))
    wall = time.perf_counter() - start
    until = tracer.mark() if tracer else 0

    first_fp, first_walk, _ = cycles[0]
    for i, (fp, walk, _) in enumerate(cycles):
        out.attempted += 2
        same_fit = out.check(fp == first_fp,
                             f"cycle {i}: same-seed fit fingerprint differs from cycle 0")
        same_walk = out.check(
            np.array_equal(walk.labels, first_walk.labels)
            and np.allclose(walk.confidence, first_walk.confidence),
            f"cycle {i}: offline walk answers differ from cycle 0")
        out.failed += (not same_fit) + (not same_walk)
    out.attempted += len(single_ms)
    single = np.asarray(single_ms)
    out.e2e.update({
        "setup_s": statistics.median(setups),
        "p50_ms": pct(single, 50),
        "p99_ms": pct(single, 99),
        "sat_rps": len(single) / (single.sum() / 1e3),
        "slo_frac": float(np.mean(single <= SLO_MS)),
        "ok_frac": 1.0 - out.failed / out.attempted,
        "accuracy": first_walk.accuracy(pool.y),
        "peak_rss_mb": peak_rss_mb([os.getpid()]),
        **{op: statistics.median(v) for op, v in timings.items()},
    })
    out.detail.update({
        "threshold": FLEET_THRESHOLD,
        "cycles": len(cycles),
        "walk_queries": len(pool.y),
        "single_queries": len(single_ms),
        "setup_runs_s": setups,
        "fleet_op_runs": timings,
        "fail_frac": out.failed / out.attempted,
    })

    if tracer is not None:
        spans = tracer.window(mark, until)
        attribution(out, tracer, spans, wall, 0.0)
        run_ids = {s[0] for s in spans if s[1] == "hierarchy.inference.run"}
        walk_spans = [s for s in spans if s[5] in run_ids]
        walk_wall = sum(tr.durations(spans, "hierarchy.inference.run"))
        n_walked = len(pool.y) * len(cycles) + len(single_ms)
        per_request_layers(out, tracer, walk_spans, n_walked, walk_wall)
        self_t = tracer.self_time(spans)
        n = len(cycles)
        out.layers.update({
            "core.projection.build_s": sum(tr.durations(spans, "core.projection.build")) / n,
            "core.classifier.retrain_s": self_t.get("core.classifier.retrain", 0.0) / n,
            "hierarchy.inference.run_self_s": self_t.get("hierarchy.inference.run", 0.0) / n,
            "hierarchy.checkpoint.save_s": statistics.median(
                tr.durations(spans, "hierarchy.checkpoint.save")),
            "hierarchy.checkpoint.load_s": statistics.median(
                tr.durations(spans, "hierarchy.checkpoint.load")),
            "hierarchy.control.refit_nodes": float(statistics.median(c[2] for c in cycles)),
            "trace.overhead_frac": overhead,
        })
        for metric in NOT_IN_FLEET:
            out.layers[metric] = 0.0
        coverage(out, setup_spans + spans, REQUIRED_SPANS["fleet-ops"])
    return out


#: serving-only per-layer metrics; fleet-ops has none of this work.
NOT_IN_FLEET = (
    "serve.batcher.fill_ratio", "serve.queueing.wait_p50_ms",
    "serve.queueing.wait_p99_ms", "serve.queueing.high_water",
    "serve.runtime.gen_late_p50_ms", "serve.runtime.gen_late_p99_ms",
    "network.medium.hops_per_req", "network.medium.wire_bytes_per_req",
    "network.medium.transfer_ms_per_req", "serve.cluster.queue_wait_p50_ms",
    "serve.cluster.worker_encode_ms", "serve.cluster.worker_walk_ms",
    "serve.cluster.router_ipc_p50_ms", "serve.cluster.batch_mean",
    "serve.shard.publish_s", "serve.shard.bytes",
)

#: spans each workload must record; a wrapper that a call path bypasses
#: leaves its span missing and fails the run.
_SERVE_COMMON = (
    "core.encoding.encode", "core.classifier.predict",
    "hierarchy.federation.encode_at", "hierarchy.federation.encode_leaf",
    "hierarchy.control.fit", "hierarchy.federation.fit_offline",
    "core.classifier.retrain", "core.projection.build",
    "network.medium.transfer_time",
)
REQUIRED_SPANS = {
    "serve-local": _SERVE_COMMON,
    "serve-escalate": _SERVE_COMMON + (
        "core.projection.project", "hierarchy.federation.combine_children",
    ),
    "cluster-2w": (
        "hierarchy.control.fit", "hierarchy.federation.fit_offline",
        "serve.shard.publish", "serve.cluster.dispatch",
        "network.medium.transfer_time",
    ),
    "fleet-ops": (
        "hierarchy.control.fit", "hierarchy.federation.fit_offline",
        "core.classifier.retrain", "core.encoding.encode",
        "core.projection.build", "core.projection.project",
        "hierarchy.inference.run", "hierarchy.control.checkpoint",
        "hierarchy.checkpoint.save", "hierarchy.control.restore",
        "hierarchy.checkpoint.load", "hierarchy.control.join",
        "hierarchy.control.drain",
    ),
}


def coverage(out: Outcome, spans, required) -> None:
    seen = tr.names(spans)
    missing = [name for name in required if not seen.get(name)]
    out.detail["span_counts"] = seen
    out.check(not missing, f"wrapped entry points recorded no span: {missing}")
