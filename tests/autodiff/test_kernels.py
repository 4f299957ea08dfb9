"""Oracle tests for the exact fast kernels of :mod:`repro.autodiff.ops`.

Two batch-rule kernels are rewritten for speed under the promise of exact
results; each is checked here, signed zeros included, against the formula
whose bits it keeps:

* the per-example outer-product branch of the ``matmul`` rule (an einsum
  that sums over no index) against the GEMM the recorded ``matmul`` runs on
  each example, and against the broadcast product ``a * b`` it replaced
  (equal values; ``a * b`` alone keeps the sign of a -0.0 product);
* the col2im scatter-add ``_scatter_add_2d`` (a k-major gather summed plane
  by plane in numpy's pairwise order) against the innermost-axis
  ``np.take(extended, pos, axis=1).sum(axis=2)``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autodiff.ops import BATCH_RULES, _pairwise_plane_sum, _scatter_add_2d, _scatter_plan


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _with_signed_zeros(values: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    values[rng.random(values.shape) < 0.15] = 0.0
    values[rng.random(values.shape) < 0.15] = -0.0
    return values


def _operand(rng, shape, layout):
    """A float64 array of ``shape`` in a contiguous or a strided layout."""
    values = _with_signed_zeros(rng.normal(size=shape) * 10.0 ** rng.integers(-5, 5, size=shape), rng)
    if layout == "contiguous":
        return values
    if layout == "strided":
        wide = np.zeros(shape[:-1] + (2 * shape[-1],))
        wide[..., ::2] = values
        return wide[..., ::2]
    # batch axis innermost in memory
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(values, 0, -1)), -1, 0)


@settings(max_examples=60, deadline=None)
@given(
    batch=st.sampled_from([1, 2, 4, 7]),
    rows=st.sampled_from([1, 2, 9, 64]),
    cols=st.sampled_from([1, 3, 10]),
    layouts=st.tuples(*[st.sampled_from(["contiguous", "strided", "batch-minor"])] * 2),
    seed=st.integers(0, 2**31 - 1),
)
def test_outer_product_rule_matches_the_per_example_gemm(batch, rows, cols, layouts, seed):
    rng = np.random.default_rng(seed)
    a = _operand(rng, (batch, rows, 1), layouts[0])
    b = _operand(rng, (batch, 1, cols), layouts[1])
    got = BATCH_RULES["matmul"]((), ((a, True), (b, True)), (rows, cols))
    per_example = np.stack([np.ascontiguousarray(a[i]) @ np.ascontiguousarray(b[i]) for i in range(batch)])
    assert _same_bits(got, per_example)
    assert _same_bits(got, 0.0 + a * b)
    assert np.array_equal(got, a * b)


def _random_indices(rng, kmax, size):
    counts = rng.integers(0, kmax + 1, size=size)
    counts[rng.integers(size)] = kmax
    return rng.permutation(np.repeat(np.arange(size), counts)).astype(np.int64)


@settings(max_examples=80, deadline=None)
@given(
    kmax=st.integers(1, 20),
    size=st.integers(1, 40),
    rows=st.sampled_from([1, 4, 16]),
    seed=st.integers(0, 2**31 - 1),
)
def test_scatter_add_matches_the_innermost_axis_sum(kmax, size, rows, seed):
    rng = np.random.default_rng(seed)
    indices = _random_indices(rng, kmax, size)
    data = _with_signed_zeros(
        rng.normal(size=(rows, indices.size)) * 10.0 ** rng.integers(-6, 6, size=(rows, indices.size)),
        rng,
    )
    extended = np.concatenate([data, np.zeros((rows, 1))], axis=1)
    pos = _scatter_plan(indices, size).T
    oracle = np.take(extended, pos, axis=1).sum(axis=2)
    got = _scatter_add_2d(data, indices, size)
    assert _same_bits(got, oracle)
    reference = np.zeros((rows, size))
    for row in range(rows):
        np.add.at(reference[row], indices, data[row])
    np.testing.assert_allclose(got, reference, rtol=1e-12, atol=1e-300)


def test_scatter_add_of_negative_zeros_is_positive_zero():
    """numpy's reduction starts from +0.0, so a target whose terms are all
    -0.0 sums to +0.0, padded or not."""
    indices = np.repeat(np.arange(3), [9, 9, 4]).astype(np.int64)
    got = _scatter_add_2d(np.full((2, indices.size), -0.0), indices, 3)
    assert not np.signbit(got).any()


@settings(max_examples=30, deadline=None)
@given(count=st.integers(1, 300), seed=st.integers(0, 2**31 - 1))
def test_pairwise_plane_sum_follows_numpy_past_one_block(count, seed):
    """Runs longer than one pairwise block split the way numpy's do."""
    rng = np.random.default_rng(seed)
    terms = rng.normal(size=(2, count, 3)) * 10.0 ** rng.integers(-8, 8, size=(2, count, 3))
    oracle = np.ascontiguousarray(terms.transpose(0, 2, 1)).sum(axis=2)
    assert _same_bits(_pairwise_plane_sum(terms, 0, count) + 0.0, oracle)
