"""Shared fixtures: small datasets and trained federations.

Fixtures are deliberately small (hundreds of samples, D in the low
hundreds) so the full suite stays fast; the benchmarks exercise
paper-scale parameters.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import EdgeHDConfig
from repro.data import load_dataset, make_classification, partition_features
from repro.hierarchy import EdgeHDFederation, build_tree


@pytest.fixture(scope="session")
def small_data():
    """A small non-linearly separable dataset (features, labels)."""
    return make_classification(
        n_samples=400, n_features=20, n_classes=3, seed=11, name="fixture"
    )


@pytest.fixture(scope="session")
def small_split(small_data):
    """(train_x, train_y, test_x, test_y) split of small_data."""
    x, y = small_data
    return x[:300], y[:300], x[300:], y[300:]


@pytest.fixture(scope="session")
def apri_small():
    """Scaled-down APRI stand-in (36 features, 2 classes, 3 end nodes)."""
    return load_dataset("APRI", scale=0.1, max_train=900, max_test=300, seed=5)


@pytest.fixture(scope="session")
def small_config():
    return EdgeHDConfig(
        dimension=1024, batch_size=10, retrain_epochs=8, seed=17
    )


@pytest.fixture(scope="session")
def trained_federation(apri_small, small_config):
    """A 3-end-node TREE federation trained on the APRI stand-in."""
    partition = partition_features(apri_small.n_features, 3)
    hierarchy = build_tree(3)
    federation = EdgeHDFederation(
        hierarchy, partition, apri_small.n_classes, small_config
    )
    report = federation.fit_offline(apri_small.train_x, apri_small.train_y)
    return federation, report, apri_small


@pytest.fixture()
def rng():
    return np.random.default_rng(123)


@pytest.fixture()
def count_rows(monkeypatch):
    """Wrap a method to record the row count of every call.

    ``count_rows(Owner, "name")`` returns the list the wrapper appends
    to. The matrix must be the method's last positional argument
    (``encode_leaf(leaf, features)``, ``project(hypervectors)``).
    """

    def install(owner, name):
        calls: list = []
        original = getattr(owner, name)

        def counted(self, *args, **kwargs):
            calls.append(np.asarray(args[-1]).shape[0])
            return original(self, *args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    return install
