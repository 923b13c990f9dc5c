"""Micro-benchmarks of the core HD kernels.

These time the primitive operations the whole system is built on:
encoding throughput, associative search, ternary projection, and
position-hypervector compression — the counterparts of the FPGA
pipeline stages of Sec. V.
"""

import numpy as np
import pytest

from repro.core.classifier import HDClassifier
from repro.core.compression import PositionCodebook
from repro.core.encoding import RBFEncoder
from repro.core.hypervector import random_bipolar
from repro.core.projection import TernaryProjection


@pytest.fixture(scope="module")
def features():
    return np.random.default_rng(1).standard_normal((256, 75))


def bench_rbf_encoding_dense(benchmark, features):
    encoder = RBFEncoder(75, 4000, seed=1)
    benchmark(encoder.encode, features)


def bench_rbf_encoding_sparse(benchmark, features):
    encoder = RBFEncoder(75, 4000, sparsity=0.8, seed=1)
    benchmark(encoder.encode, features)


def bench_associative_search(benchmark):
    clf = HDClassifier(5, 4000)
    clf.set_model(
        random_bipolar(4000, count=5, seed=2).astype(float)
    )
    queries = random_bipolar(4000, count=256, seed=3).astype(float)
    benchmark(clf.predict_labels, queries)


def bench_retrain_epoch(benchmark, features):
    encoder = RBFEncoder(75, 4000, sparsity=0.8, seed=4)
    encoded = encoder.encode(features).astype(float)
    labels = np.arange(256) % 5
    clf = HDClassifier(5, 4000).fit_initial(encoded, labels)
    benchmark(clf.retrain, encoded, labels, 1)


@pytest.fixture(scope="module")
def root_projection():
    return TernaryProjection(4000, 4000, zero_fraction=1 - 64 / 4000, seed=5)


# 1 and 32: serving micro-batches; 256: an offline-walk cohort; 2500: a
# training set.
@pytest.mark.parametrize("batch", [1, 32, 256, 2500])
def bench_ternary_projection(benchmark, root_projection, batch):
    queries = random_bipolar(4000, count=batch, seed=6).astype(float)
    benchmark(root_projection.project, queries)


def bench_compression_roundtrip(benchmark):
    book = PositionCodebook(4000, 25, seed=7)
    queries = random_bipolar(4000, count=25, seed=8).astype(float)

    def roundtrip():
        return book.decompress(book.compress(queries))

    benchmark(roundtrip)
