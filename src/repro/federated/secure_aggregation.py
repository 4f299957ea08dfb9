"""Secure aggregation via pairwise additive masking (Bonawitz et al., CCS 2017).

The paper's threat model assumes encrypted client-server communication and
cites secure aggregation / SMC as complementary protections, while pointing
out their limitation: they "do not secure the client data prior to encryption
for transport or after decryption for the server aggregation" — i.e. they can
hide individual updates from a type-0 (server) adversary, but do nothing about
type-1/type-2 leakage at the client.  :class:`RoundSecureAggregator`
simulates the pairwise-masking protocol over one round's participating
cohort so that claim can be exercised and tested:

* every pair of participants ``(i, j)`` with ``i < j`` derives a shared mask
  from a common seed (standing in for the Diffie-Hellman agreed secret);
* client ``i`` uploads ``update_i + sum_{j > i} mask_ij - sum_{j < i} mask_ji``;
* the server's sum of the masked updates equals the sum of the true updates,
  while each individual masked update is statistically independent of the true
  update (the masks are large Gaussian noise).

Masks pair up only the clients that actually participate, so a dropped
client never leaves an uncancelled mask behind; mask recovery via secret
sharing is therefore not simulated.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.rng import domain_seed_sequence

__all__ = ["RoundSecureAggregator", "SECURE_AGGREGATION_DOMAIN"]


#: Domain-separation tag for the per-round pairwise mask streams (sibling of
#: the client-training, availability, attack and shard domains — see
#: :mod:`repro.federated.executor`).  Masks are keyed on ``(config seed,
#: domain, round, low id, high id)``, so they are independent of the
#: execution backend, of cohort ordering, and of how many rounds ran before
#: (exact checkpoint resume).
SECURE_AGGREGATION_DOMAIN = 0x5EC4A66


class RoundSecureAggregator:
    """Pairwise masking for one federated round's *participating* cohort.

    The :class:`~repro.federated.server.FederatedServer` wires this in when
    ``config.secure_aggregation`` is on: masks pair up the clients that
    actually participate this round (so every mask introduced is also
    cancelled, dropout or not), and each pair's mask stream comes from
    :func:`repro.rng.domain_seed_sequence` under
    :data:`SECURE_AGGREGATION_DOMAIN` — deterministic across processes,
    backends and resume.

    A single-participant round degenerates gracefully: with no pairs there
    are no masks, and the upload is the bare update (nobody to hide among).
    """

    def __init__(
        self,
        participants: Sequence[int],
        seed: int,
        round_index: int,
        mask_scale: float = 10.0,
    ) -> None:
        if mask_scale <= 0:
            raise ValueError("mask_scale must be positive")
        self.participants = [int(c) for c in participants]
        if len(set(self.participants)) != len(self.participants):
            raise ValueError("participants must be distinct client ids")
        self.seed = int(seed)
        self.round_index = int(round_index)
        self.mask_scale = float(mask_scale)

    # ------------------------------------------------------------------
    def _pair_mask(
        self, first: int, second: int, shapes: Sequence[Tuple[int, ...]]
    ) -> List[np.ndarray]:
        low, high = sorted((int(first), int(second)))
        rng = np.random.default_rng(
            domain_seed_sequence(self.seed, SECURE_AGGREGATION_DOMAIN, self.round_index, low, high)
        )
        return [rng.normal(0.0, self.mask_scale, size=shape) for shape in shapes]

    def round_mask(self, client_id: int, shapes: Sequence[Tuple[int, ...]]) -> List[np.ndarray]:
        """The net mask ``client_id`` adds to its upload this round."""
        client_id = int(client_id)
        if client_id not in self.participants:
            raise ValueError(f"client {client_id} does not participate in this round")
        total = [np.zeros(shape, dtype=np.float64) for shape in shapes]
        for other in self.participants:
            if other == client_id:
                continue
            sign = 1.0 if client_id < other else -1.0
            for layer_index, layer in enumerate(self._pair_mask(client_id, other, shapes)):
                total[layer_index] = total[layer_index] + sign * layer
        return total

    def mask_update(self, client_id: int, update: Sequence[np.ndarray]) -> List[np.ndarray]:
        """The masked update ``client_id`` uploads to the server."""
        shapes = [np.shape(layer) for layer in update]
        mask = self.round_mask(client_id, shapes)
        return [
            np.asarray(layer, dtype=np.float64) + mask_layer
            for layer, mask_layer in zip(update, mask)
        ]
