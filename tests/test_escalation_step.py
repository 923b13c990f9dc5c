"""One escalation step for every executor.

The offline walk (``HierarchicalInference.run``), the asyncio node
servers and the cluster workers all decide through
``HierarchicalInference.step``, and an escalating query carries its
node's forward encoding upward, so a parent encodes only the children
the query does not carry. Pinned here:

* each node encodes each query at most once, served and offline;
* served answers equal the offline walk under level caps (including
  the above-cap root fallback), on deep and ragged trees, at a
  dimension that does not fill a 64-bit word.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.config import EdgeHDConfig
from repro.core.projection import TernaryProjection
from repro.data import partition_features
from repro.hierarchy import (
    EdgeHDFederation,
    HierarchicalInference,
    build_deep_tree,
    build_tree,
)
from repro.hierarchy.topology import Hierarchy
from repro.network.medium import get_medium
from repro.serve import (
    ClusterConfig,
    ClusterRuntime,
    ServeConfig,
    ServingRuntime,
    make_workload,
)

#: not a multiple of 64, so packed words are partly filled.
DIMENSION = 200
#: queries per served run.
N_QUERIES = 40


def _ragged_tree() -> Hierarchy:
    """Root (level 4) over a level-3 gateway and a leaf.

    The gateway holds a level-2 gateway with two leaves and one leaf of
    its own, so two leaves jump levels: one to a non-root node, one to
    the root.
    """
    h = Hierarchy()
    root = h.add_node()
    upper = h.add_node(parent=root)
    lower = h.add_node(parent=upper)
    h.add_node(parent=lower, leaf_index=0)
    h.add_node(parent=lower, leaf_index=1)
    h.add_node(parent=upper, leaf_index=2)
    h.add_node(parent=root, leaf_index=3)
    return h.finalize()


@pytest.fixture(scope="module")
def federations(apri_small):
    config = EdgeHDConfig(
        dimension=DIMENSION, batch_size=10, retrain_epochs=3, seed=17
    )
    out = {}
    for name, hierarchy in (
        ("tree3", build_tree(3)),
        ("deep5x4", build_deep_tree(5, 4)),
        ("ragged", _ragged_tree()),
    ):
        partition = partition_features(
            apri_small.n_features, len(hierarchy.leaves())
        )
        federation = EdgeHDFederation(
            hierarchy, partition, apri_small.n_classes, config
        )
        federation.fit_offline(apri_small.train_x, apri_small.train_y)
        out[name] = federation
    return out


def _serve(inference, x, seed, max_level):
    workload = make_workload(x, inference, seed=seed)
    runtime = ServingRuntime(
        inference,
        get_medium("wired-1gbps"),
        ServeConfig(
            max_batch=8, max_wait_ms=0.5, queue_depth=256, max_level=max_level
        ),
    )
    return runtime.serve_open_loop(workload, rate_rps=5000.0, seed=seed)


def _assert_same_walk(result, offline):
    out = result.to_outcome()
    assert np.array_equal(out.labels, offline.labels)
    assert np.array_equal(out.deciding_node, offline.deciding_node)
    assert np.array_equal(out.deciding_level, offline.deciding_level)
    assert result.escalations == offline.escalations
    assert np.allclose(out.confidence, offline.confidence)


class TestEncodeOncePerNode:
    """APRI tree, no cap, threshold 0.99: most queries reach the root.

    Rebuilding each hop's subtree from raw features encoded a query up
    to six times at the leaves and three times in projections; carrying
    the forward encoding bounds both by the node counts (3 leaves, 2
    internal nodes).
    """

    def _bounded(self, count_rows, walk, n):
        leaf_rows = count_rows(EdgeHDFederation, "encode_leaf")
        projected = count_rows(TernaryProjection, "project")
        walk()
        assert sum(leaf_rows) <= 3 * n
        assert sum(projected) <= 2 * n

    def test_offline_walk(self, trained_federation, count_rows):
        federation, _, data = trained_federation
        inference = HierarchicalInference(federation, confidence_threshold=0.99)
        x = data.test_x
        self._bounded(count_rows, lambda: inference.run(x, seed=3), len(x))

    def test_served_walk(self, trained_federation, count_rows):
        federation, _, data = trained_federation
        inference = HierarchicalInference(federation, confidence_threshold=0.99)
        x = data.test_x
        self._bounded(
            count_rows, lambda: _serve(inference, x, seed=3, max_level=None),
            len(x),
        )


@settings(max_examples=23, deadline=None)
@given(
    layout=st.sampled_from(["tree3", "deep5x4", "ragged"]),
    max_level=st.integers(1, 4),
    min_level=st.integers(1, 4),
    threshold=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
)
# Both cap fallbacks, pinned: on the ragged tree a leaf skips the cap to
# a non-root gateway, which hands its queries to the root; on the APRI
# tree the leaf under the root skips the cap to the root itself.
@example(layout="ragged", max_level=2, min_level=2, threshold=0.9, seed=1)
@example(layout="tree3", max_level=2, min_level=2, threshold=0.9, seed=1)
def test_served_equals_offline_under_caps(
    federations, apri_small, layout, max_level, min_level, threshold, seed
):
    federation = federations[layout]
    assume(min_level <= min(max_level, federation.hierarchy.depth))
    inference = HierarchicalInference(
        federation, confidence_threshold=threshold, min_level=min_level
    )
    x = apri_small.test_x[:N_QUERIES]
    offline = inference.run(x, max_level=max_level, seed=seed)
    _assert_same_walk(_serve(inference, x, seed, max_level), offline)


def test_cluster_worker_root_fallback(federations, apri_small):
    """min_level = max_level = 2 on the APRI tree: the leaf under the
    root skips the cap and the root answers in its fallback role."""
    federation = federations["tree3"]
    inference = HierarchicalInference(
        federation, confidence_threshold=0.9, min_level=2
    )
    x = apri_small.test_x[:N_QUERIES]
    workload = make_workload(x, inference, seed=4)
    offline = inference.run(x, start_leaves=workload.start_leaves, max_level=2)
    assert federation.root_id in offline.deciding_node
    with ClusterRuntime(
        inference,
        get_medium("wired-1gbps"),
        ServeConfig(max_batch=8, max_wait_ms=0.5, queue_depth=256, max_level=2),
        cluster=ClusterConfig(workers=1),
    ) as runtime:
        result = runtime.serve_open_loop(workload, rate_rps=2000.0, seed=4)
    _assert_same_walk(result, offline)
