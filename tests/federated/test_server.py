"""Direct tests for the FederatedServer round logic, driven through a
SerialClientExecutor (sanitiser hook, compression, per-client streams)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np
import pytest

from repro.federated import (
    FederatedConfig,
    FederatedServer,
    SerialClientExecutor,
    spawn_client_seeds,
)
from repro.federated.executor import client_id_seed_sequence


@dataclass
class _FakeUpdate:
    delta: List[np.ndarray]
    local_weights: List[np.ndarray]
    num_examples: int = 10
    mean_loss: float = 1.0
    mean_gradient_norm: float = 2.0
    time_per_iteration_ms: float = 3.0
    metadata: Dict[str, float] = field(default_factory=dict)


class _FakeClient:
    """Client returning a constant update, recording how often it was asked
    and the first draw of the RNG stream it was handed."""

    def __init__(self, delta):
        self.delta = delta
        self.calls = 0
        self.first_draws: List[float] = []

    def local_update(self, global_weights, round_index, rng):
        self.calls += 1
        self.first_draws.append(float(rng.random()))
        return _FakeUpdate(
            delta=[np.array(d, copy=True) for d in self.delta],
            local_weights=[w + d for w, d in zip(global_weights, self.delta)],
            metadata={"round": float(round_index)},
        )


def _make_clients(deltas):
    return [_FakeClient(d) for d in deltas]


def _server(clients, global_weights, *, update_sanitizer=None, **overrides):
    overrides.setdefault("participation_fraction", 1.0)
    config = FederatedConfig(num_clients=len(clients), seed=7, **overrides)
    return FederatedServer(
        config,
        global_weights,
        SerialClientExecutor(clients),
        update_sanitizer=update_sanitizer,
    )


def test_run_round_fedsgd_averages_updates(rng):
    global_weights = [np.zeros((2, 2)), np.zeros(3)]
    clients = _make_clients([[np.ones((2, 2)), np.ones(3)], [3 * np.ones((2, 2)), 3 * np.ones(3)]])
    server = _server(clients, global_weights, aggregation="fedsgd")
    result = server.run_round(round_index=0, rng=rng)
    np.testing.assert_allclose(server.global_weights[0], 2 * np.ones((2, 2)))
    np.testing.assert_allclose(server.global_weights[1], 2 * np.ones(3))
    assert result.selected_clients == [0, 1]
    assert result.mean_loss == pytest.approx(1.0)
    assert result.mean_gradient_norm == pytest.approx(2.0)
    assert result.mean_time_per_iteration_ms == pytest.approx(3.0)
    assert result.metadata["round"] == 0.0


def test_run_round_fedavg_matches_fedsgd():
    global_weights = [np.full((2,), 5.0)]
    deltas = [[np.array([1.0, -1.0])], [np.array([3.0, 1.0])]]
    sgd_server = _server(_make_clients(deltas), global_weights, aggregation="fedsgd")
    avg_server = _server(_make_clients(deltas), global_weights, aggregation="fedavg")
    sgd_server.run_round(0, np.random.default_rng(0))
    avg_server.run_round(0, np.random.default_rng(0))
    np.testing.assert_allclose(sgd_server.global_weights[0], avg_server.global_weights[0])


def test_run_round_applies_update_sanitizer(rng):
    calls = []

    def sanitizer(delta, round_index, generator):
        calls.append(round_index)
        return [np.zeros_like(layer) for layer in delta]

    server = _server(_make_clients([[np.ones(4)]]), [np.zeros(4)], update_sanitizer=sanitizer)
    server.run_round(3, rng)
    # the sanitizer zeroed every update, so the global model is unchanged
    np.testing.assert_allclose(server.global_weights[0], np.zeros(4))
    assert calls == [3]


def test_run_round_applies_compression(rng):
    server = _server(_make_clients([[np.arange(1.0, 11.0)]]), [np.zeros(10)], compression_ratio=0.8)
    server.run_round(0, rng)
    # only the largest ~20% of entries survive pruning
    nonzero = np.count_nonzero(server.global_weights[0])
    assert nonzero <= 3


def test_run_round_subsamples_clients(rng):
    clients = _make_clients([[np.ones(2)] for _ in range(10)])
    server = _server(clients, [np.zeros(2)], participation_fraction=0.4)
    result = server.run_round(0, rng)
    assert len(result.selected_clients) == 4
    assert sum(c.calls for c in clients) == 4


def _first_draw(seed_sequence) -> float:
    return float(np.random.default_rng(seed_sequence).random())


def test_fixed_sampling_trains_each_participant_on_its_slot_stream(rng):
    clients = _make_clients([[np.ones(2)] for _ in range(10)])
    server = _server(clients, [np.zeros(2)], participation_fraction=0.5)
    result = server.run_round(4, rng)
    slot_seeds = spawn_client_seeds(7, 4, len(result.selected_clients))
    for slot, client_id in enumerate(result.selected_clients):
        assert clients[client_id].first_draws == [_first_draw(slot_seeds[slot])]


def test_poisson_sampling_keys_each_participant_stream_on_its_client_id(rng):
    clients = _make_clients([[np.ones(2)] for _ in range(10)])
    server = _server(clients, [np.zeros(2)], participation_fraction=0.5, client_sampling="poisson")
    result = server.run_round(2, rng)
    assert result.participating_clients
    for client_id in result.participating_clients:
        expected = _first_draw(client_id_seed_sequence(7, 2, client_id))
        assert clients[client_id].first_draws == [expected]


def test_dropout_keeps_the_survivors_slot_streams():
    # the same selection with and without dropout: every survivor is handed
    # the stream of its selection slot either way
    deltas = [[np.ones(2)] for _ in range(10)]
    reliable_clients, flaky_clients = _make_clients(deltas), _make_clients(deltas)
    reliable = _server(reliable_clients, [np.zeros(2)], participation_fraction=0.8)
    flaky = _server(flaky_clients, [np.zeros(2)], participation_fraction=0.8, dropout_rate=0.5)
    expected = reliable.run_round(1, np.random.default_rng(3))
    result = flaky.run_round(1, np.random.default_rng(3))
    assert result.selected_clients == expected.selected_clients
    assert result.dropped_clients and result.participating_clients
    for client_id in result.participating_clients:
        assert flaky_clients[client_id].first_draws == reliable_clients[client_id].first_draws


def test_round_without_participants_is_skipped(rng):
    clients = _make_clients([[np.ones(2)] for _ in range(4)])
    server = _server(clients, [np.full(2, 5.0)], dropout_rate=1.0)
    result = server.run_round(0, rng)
    assert result.skipped
    assert sorted(result.dropped_clients) == result.selected_clients == [0, 1, 2, 3]
    assert np.isnan(result.mean_loss)
    assert result.mean_gradient_norm == 0.0 and result.metadata == {}
    assert sum(c.calls for c in clients) == 0
    np.testing.assert_array_equal(server.global_weights[0], np.full(2, 5.0))
