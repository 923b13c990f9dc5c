"""Ternary random projection for holographic hierarchical encoding.

Section IV-A: a gateway concatenates the hypervectors received from its
children and multiplies the concatenation by a random matrix with
elements drawn from {-1, 0, +1}, then binarizes with ``sign()``. The
projection mixes every input dimension into every output dimension, so
the result is *holographic* — losing any subset of output dimensions
degrades all features uniformly instead of wiping out one child's
information (the robustness experiment of Fig. 12 hinges on this).

The matrix is sparse by design (``EdgeHDConfig.projection_nonzeros``
per row), so it is generated, stored and applied as a CSR matrix: only
the non-zero entries cost memory or an add, as on the paper's FPGA
(Sec. V). Each output element sums its row's non-zeros in column order,
so a projected row depends on that input row alone — never on the
batch around it or on a BLAS thread count.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.core.hypervector import sign_binarize
from repro.utils.rng import SeedLike, derive_rng
from repro.utils.validation import check_matrix, check_probability

__all__ = ["TernaryProjection", "concatenate_hypervectors"]

#: Input rows multiplied per sparse product. Bounds the transposed
#: operand copy and keeps each non-zero's row of it in cache.
PROJECT_BLOCK_ROWS = 128

#: Uniform draws held at once while generating the matrix (~4 MiB).
_GENERATE_CHUNK_ELEMENTS = 1 << 19


def concatenate_hypervectors(parts: list[np.ndarray]) -> np.ndarray:
    """Concatenate per-child hypervectors along the last axis.

    Accepts a list of 1-D hypervectors (one query) or of 2-D stacks with
    equal row counts (a batch per child). This is the *non-holographic*
    aggregation used as the ablation baseline in Fig. 12.
    """
    if not parts:
        raise ValueError("need at least one hypervector to concatenate")
    arrays = [np.asarray(p) for p in parts]
    ndims = {a.ndim for a in arrays}
    if ndims == {1}:
        return np.concatenate(arrays)
    if ndims == {2}:
        rows = {a.shape[0] for a in arrays}
        if len(rows) != 1:
            raise ValueError(f"children sent unequal batch sizes: {sorted(rows)}")
        return np.concatenate(arrays, axis=1)
    raise ValueError("all parts must be 1-D, or all 2-D with equal rows")


def _ternary_csr(
    rng: np.random.Generator, out_dimension: int, in_dimension: int,
    zero_fraction: float,
) -> sparse.csr_matrix:
    """Draw the {-1, 0, +1} matrix straight into CSR form.

    Reproduces ``rng.choice([-1, 0, 1], size=(out, in), p=[nz, zf, nz])``
    bit for bit: that call compares one ``rng.random`` double per entry,
    in row-major order, against the normalized cdf of ``p``. Drawing the
    same doubles a block of output rows at a time consumes the stream
    identically without ever holding the dense matrix.
    """
    nonzero = (1.0 - zero_fraction) / 2.0
    cdf = np.cumsum(np.array([nonzero, zero_fraction, nonzero]))
    cdf /= cdf[-1]
    chunk_rows = max(1, _GENERATE_CHUNK_ELEMENTS // in_dimension)
    counts: list[np.ndarray] = []
    columns: list[np.ndarray] = []
    values: list[np.ndarray] = []
    for start in range(0, out_dimension, chunk_rows):
        rows = min(chunk_rows, out_dimension - start)
        uniform = rng.random((rows, in_dimension))
        # searchsorted(cdf, u, side="right") is 0 below cdf[0] (-1),
        # 2 from cdf[1] on (+1) and 1 in between (0); u < 1 = cdf[2].
        negative = uniform < cdf[0]
        nonzeros = negative | (uniform >= cdf[1])
        counts.append(np.count_nonzero(nonzeros, axis=1))
        columns.append(np.nonzero(nonzeros)[1].astype(np.int32))
        values.append(np.where(negative[nonzeros], -1.0, 1.0))
    indptr = np.zeros(out_dimension + 1, dtype=np.int32)
    np.cumsum(np.concatenate(counts), out=indptr[1:])
    return sparse.csr_matrix(
        (np.concatenate(values), np.concatenate(columns), indptr),
        shape=(out_dimension, in_dimension),
    )


class TernaryProjection:
    """Random {-1, 0, +1} projection with ``sign()`` binarization.

    The matrix lives only as CSR (float64 ±1 data, int32 indices); the
    dense int8 :attr:`matrix` is materialized on demand for tests and
    hardware export.

    Parameters
    ----------
    in_dimension, out_dimension:
        Input (concatenated) and output dimensionalities. In the paper
        the projection is square (output keeps ``d_1 + d_2``), but a
        rectangular projection is allowed so parents can re-target any
        dimensionality.
    zero_fraction:
        Probability of a zero entry; the remaining mass splits evenly
        between -1 and +1. Sparse projections are cheaper on the FPGA.
    seed:
        Deterministic basis seed — all replicas of a gateway regenerate
        the same matrix offline.
    """

    def __init__(
        self,
        in_dimension: int,
        out_dimension: int,
        zero_fraction: float = 1.0 / 3.0,
        seed: SeedLike = None,
        binarize: bool = True,
    ) -> None:
        if in_dimension <= 0 or out_dimension <= 0:
            raise ValueError(
                f"dimensions must be positive, got {in_dimension}, {out_dimension}"
            )
        check_probability("zero_fraction", zero_fraction)
        if zero_fraction >= 1.0:
            raise ValueError("zero_fraction must be < 1 (matrix would be all-zero)")
        self.in_dimension = int(in_dimension)
        self.out_dimension = int(out_dimension)
        self.zero_fraction = float(zero_fraction)
        self.binarize = bool(binarize)
        self._csr = _ternary_csr(
            derive_rng(seed, "ternary-projection"),
            self.out_dimension, self.in_dimension, self.zero_fraction,
        )
        # Variance-preserving scale: each output element sums
        # ~in_dim * (1 - zero_fraction) random +/-1 contributions, so
        # dividing by sqrt of that keeps the element variance of the
        # input. Without it, projected values drown any un-projected
        # sibling hypervector they are later concatenated with.
        self._scale = 1.0 / np.sqrt(in_dimension * (1.0 - zero_fraction))

    @property
    def matrix(self) -> np.ndarray:
        """Dense read-only int8 view of the projection, built per access."""
        dense = np.zeros((self.out_dimension, self.in_dimension), dtype=np.int8)
        rows = np.repeat(np.arange(self.out_dimension), np.diff(self._csr.indptr))
        dense[rows, self._csr.indices] = self._csr.data
        dense.flags.writeable = False
        return dense

    def project(self, hypervectors: np.ndarray) -> np.ndarray:
        """Project (a batch of) concatenated hypervectors.

        Returns bipolar int8 when ``binarize`` is set, otherwise the
        variance-preserving real projection. 1-D input yields 1-D
        output.
        """
        arr = np.asarray(hypervectors)
        single = arr.ndim == 1
        mat = check_matrix("hypervectors", arr, cols=self.in_dimension)
        projected = np.empty((mat.shape[0], self.out_dimension))
        for start in range(0, mat.shape[0], PROJECT_BLOCK_ROWS):
            block = mat[start:start + PROJECT_BLOCK_ROWS]
            projected[start:start + block.shape[0]] = (
                self._csr @ np.ascontiguousarray(block.T)
            ).T
        projected *= self._scale
        out = sign_binarize(projected) if self.binarize else projected
        return out[0] if single else out

    def multiplies_per_vector(self) -> int:
        """Non-zero multiply-accumulates per projected hypervector."""
        return int(self._csr.nnz)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TernaryProjection({self.in_dimension}->{self.out_dimension}, "
            f"zero_fraction={self.zero_fraction:.2f})"
        )
