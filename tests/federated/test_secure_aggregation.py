"""Tests for the pairwise-masking secure aggregation simulation, which masks
only the cohort that actually participates in a round."""

from __future__ import annotations

import numpy as np
import pytest

from repro.federated.secure_aggregation import RoundSecureAggregator


def _updates(rng, clients, shapes=((3, 3), (4,))):
    return [[rng.normal(size=s) for s in shapes] for _ in range(clients)]


def test_round_aggregator_masks_cancel_over_the_cohort(rng):
    participants = [4, 1, 7]  # unsorted on purpose: order must not matter
    aggregator = RoundSecureAggregator(participants, seed=3, round_index=2)
    updates = _updates(rng, 3)
    masked = [
        aggregator.mask_update(client, update)
        for client, update in zip(participants, updates)
    ]
    for layer in range(2):
        got = np.sum([m[layer] for m in masked], axis=0)
        want = np.sum([u[layer] for u in updates], axis=0)
        np.testing.assert_allclose(got, want, atol=1e-8)
    # each individual upload is hidden under the pairwise masks
    for upload, update in zip(masked, updates):
        difference = np.concatenate([np.ravel(m - u) for m, u in zip(upload, update)])
        assert np.std(difference) > 5.0


def test_round_aggregator_is_deterministic_and_keyed_on_round(rng):
    update = _updates(rng, 1)[0]
    first = RoundSecureAggregator([0, 1, 2], seed=9, round_index=4).mask_update(1, update)
    again = RoundSecureAggregator([0, 1, 2], seed=9, round_index=4).mask_update(1, update)
    for a, b in zip(first, again):
        np.testing.assert_array_equal(a, b)
    # a different round (and a different seed) gives independent masks
    other_round = RoundSecureAggregator([0, 1, 2], seed=9, round_index=5).mask_update(1, update)
    other_seed = RoundSecureAggregator([0, 1, 2], seed=10, round_index=4).mask_update(1, update)
    assert any(not np.allclose(a, b) for a, b in zip(first, other_round))
    assert any(not np.allclose(a, b) for a, b in zip(first, other_seed))


def test_round_aggregator_single_participant_degenerates_to_no_mask(rng):
    update = _updates(rng, 1)[0]
    masked = RoundSecureAggregator([3], seed=0, round_index=0).mask_update(3, update)
    for layer, original in zip(masked, update):
        np.testing.assert_array_equal(layer, original)


def test_round_aggregator_validation(rng):
    with pytest.raises(ValueError):
        RoundSecureAggregator([0, 0, 1], seed=0, round_index=0)  # duplicate ids
    with pytest.raises(ValueError):
        RoundSecureAggregator([0, 1], seed=0, round_index=0, mask_scale=0.0)
    aggregator = RoundSecureAggregator([0, 1], seed=0, round_index=0)
    with pytest.raises(ValueError):
        aggregator.mask_update(5, _updates(rng, 1)[0])  # non-participant


def test_secure_aggregation_does_not_protect_client_side_leakage(rng):
    """The paper's point: masking hides uploads from the server, but the true
    update still exists in the clear at the client (type-1/2 surfaces)."""
    aggregator = RoundSecureAggregator([0, 1, 2], seed=0, round_index=0)
    update = _updates(rng, 1)[0]
    upload = aggregator.mask_update(0, update)
    # the server-side view differs from the client's true update...
    assert any(not np.allclose(m, t) for m, t in zip(upload, update))
    # ...because the client adds its mask to the update it holds in the
    # clear, which is what a type-1 adversary at the client reads
    mask = aggregator.round_mask(0, [np.shape(layer) for layer in update])
    for masked, mask_layer, true in zip(upload, mask, update):
        np.testing.assert_allclose(masked - mask_layer, true, atol=1e-10)
