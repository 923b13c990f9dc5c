"""Hierarchical inference with confidence-based escalation (Sec. IV-C).

A query enters the system at an end node (the device the user touched).
The node classifies locally; if the softmax confidence of the winning
class clears the user-configurable threshold, it answers immediately —
zero communication. Otherwise the query *escalates*: it ships its
node's forward encoding upward, the parent concatenates it with its
other children's encodings and projects them, and repeats the decision
with its richer model, up to the central node. One vectorized
:meth:`HierarchicalInference.step` per node and cohort makes that
decision for every executor — the offline :meth:`~HierarchicalInference.run`
and the serving runtimes alike.

Escalated query hypervectors are shipped in *compressed* bundles of
``m`` queries bound with position hypervectors (Sec. IV-C /
:mod:`repro.core.compression`), cutting the per-query wire cost by
roughly ``m`` (integer bundle elements vs ``m`` bipolar vectors).
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.obs as obs
from repro.core.compression import compressed_bundle_bytes
from repro.core.search import SearchSpec, resolve_search
from repro.hierarchy.federation import EdgeHDFederation
from repro.network.message import Message, MessageKind
from repro.utils.rng import derive_rng
from repro.utils.validation import check_labels, check_matrix

__all__ = [
    "HierarchicalInference",
    "InferenceOutcome",
    "NodeStep",
    "PREDICTION_BYTES",
]

logger = logging.getLogger(__name__)

#: bytes of one downstream prediction (a class index).
PREDICTION_BYTES = 4


@dataclass
class NodeStep:
    """One node's verdict on its cohort (:meth:`HierarchicalInference.step`)."""

    #: per-row action: ``"answer"`` with this node's decision,
    #: ``"answer_cached"`` with an earlier node's, ``"escalate"`` to the
    #: parent, or ``"to_root"`` (the above-cap fallback).
    action: np.ndarray
    #: this node's decision per row; label -1 where it made none.
    labels: np.ndarray
    confidence: np.ndarray
    #: the node's forward encoding of every row — the upward bundle
    #: escalating rows carry; None when no row escalates.
    forward: Optional[np.ndarray] = None
    #: wire bytes of the compressed bundles the escalating rows fill.
    bundle_bytes: int = 0
    #: seconds spent encoding (damage included) and searching.
    encode_s: float = 0.0
    search_s: float = 0.0


@dataclass
class InferenceOutcome:
    """Result of running a test batch through hierarchical inference."""

    labels: np.ndarray
    #: node that produced each answer.
    deciding_node: np.ndarray
    #: hierarchy level of the deciding node.
    deciding_level: np.ndarray
    #: top-class confidence at the deciding node.
    confidence: np.ndarray
    #: end node where each query entered the system.
    start_leaf: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    messages: List[Message] = field(default_factory=list)
    #: queries escalated over each (child -> parent) edge; additive
    #: across sub-batches, so the serving cluster can merge counts from
    #: worker processes and rebuild the exact offline message list via
    #: :meth:`HierarchicalInference.escalation_messages`.
    escalations: Dict[tuple[int, int], int] = field(default_factory=dict)

    @property
    def total_bytes(self) -> int:
        return sum(m.payload_bytes for m in self.messages)

    def level_frequency(self, depth: int) -> Dict[int, float]:
        """Fraction of queries answered at each level (Fig. 8c).

        ``depth`` must cover every recorded ``deciding_level``; passing
        the depth of a different hierarchy would silently report
        zero-frequency levels (and drop the real ones), so that case
        raises instead.
        """
        n = len(self.labels)
        if n == 0:
            raise ValueError("no inference outcomes recorded")
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        recorded = np.unique(self.deciding_level)
        outside = recorded[(recorded < 1) | (recorded > depth)]
        if outside.size:
            raise ValueError(
                f"recorded deciding levels {outside.tolist()} fall outside "
                f"range [1, {depth}]; pass the depth of the hierarchy that "
                f"produced this outcome (levels seen: {recorded.tolist()})"
            )
        return {
            level: float(np.mean(self.deciding_level == level))
            for level in range(1, depth + 1)
        }

    def accuracy(self, labels: np.ndarray) -> float:
        y = np.asarray(labels)
        if y.shape != self.labels.shape:
            raise ValueError("label shape mismatch")
        return float(np.mean(self.labels == y))


class HierarchicalInference:
    """Escalation-based inference over a trained federation."""

    def __init__(
        self,
        federation: EdgeHDFederation,
        confidence_threshold: Optional[float] = None,
        compression_count: Optional[int] = None,
        min_level: int = 1,
        backend: Optional[str] = None,
        search: Optional[SearchSpec] = None,
    ) -> None:
        self.federation = federation
        cfg = federation.config
        self.confidence_threshold = (
            cfg.confidence_threshold if confidence_threshold is None else confidence_threshold
        )
        if not 0.0 <= self.confidence_threshold <= 1.0:
            raise ValueError("confidence_threshold must be in [0, 1]")
        self.compression_count = (
            cfg.compression_count if compression_count is None else compression_count
        )
        if self.compression_count < 1:
            raise ValueError("compression_count must be >= 1")
        if min_level < 1:
            raise ValueError("min_level must be >= 1")
        #: lowest level allowed to answer (PECAN runs classification on
        #: house level and above — appliances only sense, Sec. VI-C).
        self.min_level = int(min_level)
        #: associative-search configuration used at every node
        #: (see :class:`repro.core.classifier.HDClassifier`); the
        #: serving runtime reads the same spec, so served answers stay
        #: bit-identical to this offline walk.
        self.search = resolve_search(
            search, backend, owner="HierarchicalInference"
        )

    @property
    def backend(self) -> str:
        """Backend field of :attr:`search` (legacy accessor)."""
        return self.search.backend

    @backend.setter
    def backend(self, value: str) -> None:
        self.search = resolve_search(
            None, value, default=self.search,
            owner="HierarchicalInference.backend",
        )

    # ------------------------------------------------------------------
    def step(
        self,
        node_id: int,
        features: np.ndarray,
        carried: Sequence[Optional[Tuple[int, np.ndarray]]],
        has_decision: np.ndarray,
        *,
        cap: int,
        min_level: Optional[int] = None,
        own: Optional[np.ndarray] = None,
        search: Optional[SearchSpec] = None,
        damage: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
    ) -> NodeStep:
        """One node's escalation decision for its whole cohort.

        The single decision rule every executor runs: :meth:`run` loops
        over it offline and each node server of :mod:`repro.serve`
        calls it once per micro-batch. Row ``i`` of the cohort is
        ``features[i]``, the ``(node, forward encoding)`` it brought up
        from its previous hop (``carried[i]``, None when it carries
        none) and whether some node below already decided it
        (``has_decision[i]``). Per row the node then

        * below ``min_level`` — encodes and escalates without deciding;
        * within ``[min_level, cap]`` — decides, and answers when
          confident, at the cap or at the root; otherwise escalates;
        * above ``cap`` (ragged hierarchies) — answers with the earlier
          decision, or hands the row to the root, whose model decides
          what no capable node did.

        Escalating rows carry :attr:`NodeStep.forward` upward, so a
        parent encodes only the children a row does not carry (see
        :meth:`EdgeHDFederation.encode_at`). ``own`` replaces the node's
        own encoding of the cohort (precomputed by the caller);
        ``damage(rows, own)`` may alter the own encoding of cohort
        ``rows`` before search without touching the forwarded copy;
        ``min_level`` overrides :attr:`min_level`.
        """
        node = self.federation.hierarchy.nodes[node_id]
        min_level = self.min_level if min_level is None else min_level
        n = features.shape[0]
        if node.level > cap:
            action = np.where(has_decision, "answer_cached", "to_root").astype(object)
            labels = np.full(n, -1, dtype=np.int64)
            confidence = np.zeros(n, dtype=np.float64)
            rows = np.flatnonzero(~has_decision)
            if node.parent is not None or not rows.size:
                return NodeStep(action, labels, confidence)
            # At the root the fallback decides the undecided rows, as if
            # the cap were here.
            sub = self.step(
                node_id, features[rows], [carried[i] for i in rows],
                has_decision[rows],
                cap=node.level, min_level=min_level,
                own=None if own is None else own[rows], search=search,
                damage=(
                    None if damage is None
                    else lambda sub_rows, enc: damage(rows[sub_rows], enc)
                ),
            )
            action[rows] = "answer"
            labels[rows] = sub.labels
            confidence[rows] = sub.confidence
            return NodeStep(
                action, labels, confidence,
                encode_s=sub.encode_s, search_s=sub.search_s,
            )
        t0 = time.perf_counter()
        if own is not None:
            encoded = own
        else:
            bundles: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
            for child in node.children:
                picked = [
                    (i, c[1]) for i, c in enumerate(carried)
                    if c is not None and c[0] == child
                ]
                if picked:
                    bundles[child] = (
                        np.array([i for i, _ in picked]),
                        np.stack([vec for _, vec in picked]),
                    )
            encoded = self.federation.encode_at(
                node_id, features, carried=bundles
            )
        if node.level < min_level:
            assert node.parent is not None, "the root always decides"
            return NodeStep(
                np.full(n, "escalate", dtype=object),
                np.full(n, -1, dtype=np.int64),
                np.zeros(n, dtype=np.float64),
                forward=self.federation.forward_view(node_id, encoded),
                bundle_bytes=self.bundle_bytes(node.parent, n),
                encode_s=time.perf_counter() - t0,
            )
        query = encoded if damage is None else damage(np.arange(n), encoded)
        t1 = time.perf_counter()
        result = self.federation.classifiers[node_id].predict(
            query, search=self.search if search is None else search
        )
        t2 = time.perf_counter()
        confidence = result.top_confidence
        action = np.full(n, "answer", dtype=object)
        out = NodeStep(
            action, result.labels, confidence, encode_s=t1 - t0, search_s=t2 - t1
        )
        if node.level < cap and node.parent is not None:
            up = ~(confidence >= self.confidence_threshold)
            count = int(up.sum())
            if count:
                action[up] = "escalate"
                out.forward = self.federation.forward_view(node_id, encoded)
                out.bundle_bytes = self.bundle_bytes(node.parent, count)
        return out

    def run(
        self,
        features: np.ndarray,
        start_leaves: Optional[np.ndarray] = None,
        max_level: Optional[int] = None,
        seed: int = 0,
        encodings: Optional[Dict[int, np.ndarray]] = None,
    ) -> InferenceOutcome:
        """Classify a test batch with escalation.

        ``start_leaves`` assigns each query an initiating end node
        (leaf ids); by default queries are spread uniformly over the
        leaves. ``max_level`` caps escalation (e.g. 2 = stop at the
        gateways), used by the Fig. 11 level sweep. ``encodings`` maps
        nodes to precomputed own encodings with one row per query
        (e.g. ``encode_all(features)`` or a subset of it); a node found
        there classifies with those rows instead of encoding. Only the
        rows of queries that visit the node are read, so a caller may
        fill just those — the serving cluster encodes each query at its
        own entry leaf and nowhere else.

        The walk is a loop over :meth:`step`, one vectorized call per
        node and cohort (using the kernel selected by ``self.search``),
        so each node encodes each query at most once and the decisions
        are identical to walking queries one at a time.
        """
        hierarchy = self.federation.hierarchy
        mat = check_matrix(
            "features", features, cols=self.federation.partition.n_features
        )
        n = mat.shape[0]
        leaves = hierarchy.leaves()
        if start_leaves is None:
            # Intentionally the same tag as serve.workload.entry_plan:
            # the served path must draw *identical* start leaves for the
            # offline == served equivalence tests to hold bit-for-bit.
            rng = derive_rng(seed, "start-leaves")  # repro-lint: disable=REPRO113
            start_leaves = np.asarray(leaves)[rng.integers(0, len(leaves), size=n)]
        else:
            start_leaves = np.asarray(start_leaves)
            if start_leaves.shape != (n,):
                raise ValueError("start_leaves must have one entry per query")
            unknown = set(start_leaves.tolist()) - set(leaves)
            if unknown:
                raise ValueError(f"start_leaves contains non-leaf ids {unknown}")
        unknown_nodes = set(encodings or ()) - set(hierarchy.nodes)
        if unknown_nodes:
            raise KeyError(f"encodings reference unknown nodes {sorted(unknown_nodes)}")
        cap = self.effective_cap(max_level)

        with obs.span("hierarchical_inference", n=n, cap=cap):
            #: queries escalated over each (child -> parent) edge.
            escalations: Dict[tuple[int, int], int] = {}
            #: per-query current position in the walk.
            current = np.asarray(start_leaves, dtype=np.int64).copy()
            #: last decision-capable node each query visited; -1 until
            #: the cohort reaches its first node at level >= min_level.
            chosen = np.full(n, -1, dtype=np.int64)
            best_label = np.empty(n, dtype=np.int64)
            best_conf = np.empty(n, dtype=np.float64)
            #: the upward bundle: the node each query last left and its
            #: forward encoding there.
            carried: List[Optional[Tuple[int, np.ndarray]]] = [None] * n
            pending = np.arange(n, dtype=np.int64)
            while pending.size:
                advancing: list[np.ndarray] = []
                for node_id in np.unique(current[pending]).tolist():
                    rows = pending[current[pending] == node_id]
                    step = self.step(
                        node_id, mat[rows], [carried[i] for i in rows],
                        chosen[rows] >= 0,
                        cap=cap,
                        own=(
                            encodings[node_id][rows]
                            if encodings is not None and node_id in encodings
                            else None
                        ),
                    )
                    decided = step.labels >= 0
                    here = rows[decided]
                    chosen[here] = node_id
                    best_label[here] = step.labels[decided]
                    best_conf[here] = step.confidence[decided]
                    up = step.action == "escalate"
                    if up.any():
                        parent = hierarchy.nodes[node_id].parent
                        assert parent is not None and step.forward is not None
                        esc = rows[up]
                        edge = (node_id, parent)
                        escalations[edge] = escalations.get(edge, 0) + esc.size
                        current[esc] = parent
                        for i, vec in zip(esc.tolist(), step.forward[up]):
                            carried[i] = (node_id, vec)
                        advancing.append(esc)
                    if hierarchy.nodes[node_id].level <= cap:
                        continue
                    fallback = rows[step.action == "to_root"]
                    if fallback.size:
                        current[fallback] = hierarchy.root_id
                        for i in fallback.tolist():
                            carried[i] = None
                        advancing.append(fallback)
                pending = (
                    np.concatenate(advancing)
                    if advancing
                    else np.empty(0, dtype=np.int64)
                )

            # Per-query outputs were recorded at decision time; only the
            # level lookup remains.
            deciding_level = np.empty(n, dtype=np.int64)
            for node_id in np.unique(chosen):
                rows = np.flatnonzero(chosen == node_id)
                deciding_level[rows] = hierarchy.nodes[node_id].level

            messages = self.escalation_messages(escalations)
        if obs.enabled():
            self._record_metrics(escalations, deciding_level, best_conf)
        return InferenceOutcome(
            labels=best_label,
            deciding_node=chosen,
            deciding_level=deciding_level,
            confidence=best_conf,
            start_leaf=np.asarray(start_leaves, dtype=np.int64),
            messages=messages,
            escalations=dict(escalations),
        )

    def _record_metrics(
        self,
        escalations: Dict[tuple[int, int], int],
        deciding_level: np.ndarray,
        confidence: np.ndarray,
    ) -> None:
        """Feed the metrics registry (only called when obs is enabled).

        Per-level counters use the level the query *left* (escalations)
        and the level that answered (decisions); the confidence
        histogram records the deciding node's top-class confidence,
        the quantity Fig. 8b tracks.
        """
        hierarchy = self.federation.hierarchy
        obs.incr("hierarchy.inference.queries", deciding_level.size)
        levels, counts = np.unique(deciding_level, return_counts=True)
        for level, count in zip(levels, counts):
            obs.incr(f"hierarchy.decided.l{int(level)}", int(count))
        for (child, _parent), count in escalations.items():
            level = hierarchy.nodes[child].level
            obs.incr(f"hierarchy.escalations.l{level}", count)
        for value in confidence:
            obs.observe(
                "hierarchy.confidence", float(value), bounds=obs.UNIT_BUCKETS
            )
        logger.debug(
            "inference: %d queries, %d escalation edges",
            deciding_level.size, len(escalations),
        )

    def effective_cap(self, max_level: Optional[int] = None) -> int:
        """Highest level allowed to answer (``max_level`` vs depth).

        Shared by :meth:`run` and the serving runtime
        (:mod:`repro.serve`) so both apply the same escalation ceiling.
        """
        depth = self.federation.hierarchy.depth
        cap = depth if max_level is None else min(max_level, depth)
        if cap < 1:
            raise ValueError("max_level must be >= 1")
        if self.min_level > cap:
            raise ValueError(
                f"min_level {self.min_level} exceeds the effective "
                f"escalation cap {cap}"
            )
        return cap

    def bundle_bytes(self, parent: int, count: int) -> int:
        """Wire bytes of ``count`` queries escalated to ``parent``.

        When a node hands a query to its parent, the parent needs the
        hierarchically-encoded query of the *whole subtree it covers*,
        i.e. the children ship their encodings upward. We charge the
        parent's input dimensionality per query, divided across
        ``ceil(count / m)`` compressed bundles of ``m`` queries with
        narrow packed elements (see compressed_bundle_bytes).
        """
        hierarchy = self.federation.hierarchy
        m = self.compression_count
        parent_in_dim = sum(
            hierarchy.nodes[c].dimension for c in hierarchy.nodes[parent].children
        )
        return -(-count // m) * compressed_bundle_bytes(parent_in_dim, m)

    def escalation_messages(
        self, escalations: Dict[tuple[int, int], int]
    ) -> List[Message]:
        """Charge compressed query bundles for the escalated queries.

        One uplink message of :meth:`bundle_bytes` per escalation edge
        plus the predictions travelling back down. Also used by the
        serving runtimes (:mod:`repro.serve`) to rebuild an
        offline-comparable message list from their escalation counts.
        """
        messages: List[Message] = []
        for (child, parent), count in sorted(escalations.items()):
            payload = self.bundle_bytes(parent, count)
            obs.incr("hierarchy.escalation.compressed_bytes", payload)
            messages.append(
                Message(
                    source=child,
                    destination=parent,
                    kind=MessageKind.COMPRESSED_QUERY,
                    payload_bytes=payload,
                )
            )
            # The answer travels back down (a class index — negligible
            # but accounted for completeness).
            messages.append(
                Message(
                    source=parent,
                    destination=child,
                    kind=MessageKind.PREDICTION,
                    payload_bytes=PREDICTION_BYTES * count,
                )
            )
        return messages

    # ------------------------------------------------------------------
    def evaluate(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        **kwargs: Any,
    ) -> tuple[float, InferenceOutcome]:
        """Run and score in one call."""
        y = check_labels("labels", labels, n_classes=self.federation.n_classes)
        outcome = self.run(features, **kwargs)
        return outcome.accuracy(y), outcome
