"""Moments accountant for the subsampled Gaussian mechanism.

The paper computes its privacy spending (Table VI) with the moments
accountant of Abadi et al. (their Definition 5), via TensorFlow Privacy's
``compute_dp_sgd_privacy``.  That implementation tracks Renyi differential
privacy (RDP) of the *subsampled Gaussian mechanism* at a set of orders and
converts the composed RDP guarantee to an ``(epsilon, delta)`` statement.  We
re-implement the same accountant from scratch here:

* :func:`compute_rdp_subsampled_gaussian` — RDP at integer orders ``alpha``
  of one step of the Poisson-subsampled Gaussian mechanism with sampling rate
  ``q`` and noise multiplier ``sigma``, using the binomial-expansion upper
  bound of Mironov et al. / Abadi et al., memoised per ``(q, sigma, orders)``
  so that charging a round costs one vector add;
* :func:`rdp_to_epsilon` — conversion of composed RDP to ``(epsilon, delta)``;
* :class:`MomentsAccountant` — stateful accumulation over training steps, the
  object the federated trainers use;
* :func:`compute_dp_sgd_epsilon` — the one-shot convenience mirroring
  TF-Privacy's ``compute_dp_sgd_privacy(N, batch, noise, epochs, delta)``
  interface in terms of ``(q, sigma, steps, delta)``;
* :func:`abadi_asymptotic_epsilon` — the closed-form bound
  ``epsilon = c2 * q * sqrt(T log(1/delta)) / sigma`` quoted as Equation (2)
  in the paper, kept for cross-checking the scaling behaviour.
"""

from __future__ import annotations

import functools
import math
from typing import List, Sequence, Tuple

import numpy as np
from scipy import special

__all__ = [
    "DEFAULT_RDP_ORDERS",
    "compute_rdp_subsampled_gaussian",
    "rdp_to_epsilon",
    "compute_dp_sgd_epsilon",
    "abadi_asymptotic_epsilon",
    "MomentsAccountant",
]


#: Default Renyi orders, matching the grid used by TF-Privacy.
DEFAULT_RDP_ORDERS: Tuple[float, ...] = tuple(range(2, 64)) + (128.0, 256.0, 512.0)


def _log_add(a: float, b: float) -> float:
    """Numerically stable ``log(exp(a) + exp(b))``."""
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    return max(a, b) + math.log1p(math.exp(-abs(a - b)))


def _rdp_gaussian(sigma: float, alpha: float) -> float:
    """RDP of the (un-subsampled) Gaussian mechanism: ``alpha / (2 sigma^2)``."""
    return alpha / (2.0 * sigma * sigma)


def _rdp_subsampled_gaussian_int(q: float, sigma: float, alpha: int) -> float:
    """RDP upper bound at an integer order for the subsampled Gaussian mechanism.

    Uses the binomial expansion

    ``A(alpha) = sum_{j=0}^{alpha} C(alpha, j) (1-q)^{alpha-j} q^j exp(j(j-1)/(2 sigma^2))``

    and returns ``log(A) / (alpha - 1)``.
    """
    log_a = -math.inf
    for j in range(alpha + 1):
        log_coef = (
            float(special.gammaln(alpha + 1) - special.gammaln(j + 1) - special.gammaln(alpha - j + 1))
            + j * math.log(q)
            + (alpha - j) * math.log1p(-q)
        )
        log_term = log_coef + (j * j - j) / (2.0 * sigma * sigma)
        log_a = _log_add(log_a, log_term)
    return log_a / (alpha - 1)


def compute_rdp_subsampled_gaussian(
    q: float, sigma: float, orders: Sequence[float] = DEFAULT_RDP_ORDERS
) -> np.ndarray:
    """Per-step RDP of the subsampled Gaussian mechanism at each order.

    Parameters
    ----------
    q:
        Sampling rate (probability that a given example participates in the
        step); ``q = 1`` reduces to the plain Gaussian mechanism.
    sigma:
        Noise multiplier (noise stddev divided by the L2 sensitivity).
    orders:
        Renyi orders; non-integer orders are handled by rounding up to the
        next integer, which only loosens (never understates) the guarantee.

    Curves are memoised per ``(q, sigma, orders)`` for the life of the
    process, so the returned array is read-only; scale it (``steps * curve``)
    rather than updating it in place.
    """
    if not 0.0 < q <= 1.0:  # also rejects NaN and inf
        raise ValueError(f"sampling rate q must lie in (0, 1], got {q}")
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise ValueError(f"noise multiplier sigma must be positive and finite, got {sigma}")
    key = tuple(float(alpha) for alpha in orders)
    for alpha in key:
        if not (math.isfinite(alpha) and alpha > 1):
            raise ValueError(f"RDP orders must be finite and exceed 1, got {alpha}")
    return _rdp_curve(float(q), float(sigma), key)


#: Memo bound: a run needs one curve per distinct (rate, noise) pair, and a
#: disjoint partition of N examples has at most ~sqrt(2N) distinct shard sizes,
#: so 4096 entries cover every run up to ~8M examples.
_RDP_CURVE_CACHE_SIZE = 4096


@functools.lru_cache(maxsize=_RDP_CURVE_CACHE_SIZE)
def _rdp_curve(q: float, sigma: float, orders: Tuple[float, ...]) -> np.ndarray:
    """Validated, memoised body of :func:`compute_rdp_subsampled_gaussian`."""
    values: List[float] = []
    for alpha in orders:
        if q == 1.0:
            values.append(_rdp_gaussian(sigma, alpha))
            continue
        values.append(_rdp_subsampled_gaussian_int(q, sigma, int(math.ceil(alpha))))
    curve = np.asarray(values, dtype=np.float64)
    curve.setflags(write=False)
    return curve


def rdp_to_epsilon(
    orders: Sequence[float], rdp: Sequence[float], delta: float
) -> Tuple[float, float]:
    """Convert a composed RDP curve to an ``(epsilon, delta)`` guarantee.

    Returns ``(epsilon, best_order)`` where ``epsilon`` is minimised over the
    orders via ``epsilon = rdp(alpha) + log(1/delta) / (alpha - 1)``.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    orders = np.asarray(orders, dtype=np.float64)
    rdp = np.asarray(rdp, dtype=np.float64)
    if orders.shape != rdp.shape:
        raise ValueError("orders and rdp must have the same length")
    candidates = rdp + math.log(1.0 / delta) / (orders - 1.0)
    index = int(np.argmin(candidates))
    return float(max(candidates[index], 0.0)), float(orders[index])


def compute_dp_sgd_epsilon(
    sampling_rate: float,
    noise_multiplier: float,
    steps: int,
    delta: float,
    orders: Sequence[float] = DEFAULT_RDP_ORDERS,
) -> float:
    """Epsilon spent after ``steps`` subsampled-Gaussian steps (moments accountant).

    This mirrors the interface the paper uses ("privacy spending epsilon is
    computed when T, sigma, delta, and q are given").
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    if steps == 0:
        return 0.0
    rdp = compute_rdp_subsampled_gaussian(sampling_rate, noise_multiplier, orders) * steps
    epsilon, _ = rdp_to_epsilon(orders, rdp, delta)
    return epsilon


def abadi_asymptotic_epsilon(
    sampling_rate: float,
    noise_multiplier: float,
    steps: int,
    delta: float,
    c2: float = 1.0,
) -> float:
    """Closed-form bound of Equation (2): ``c2 q sqrt(T log(1/delta)) / sigma``."""
    if steps < 0:
        raise ValueError("steps must be non-negative")
    if not 0.0 < sampling_rate <= 1.0:
        raise ValueError("sampling rate must lie in (0, 1]")
    if noise_multiplier <= 0:
        raise ValueError("noise multiplier must be positive")
    return c2 * sampling_rate * math.sqrt(steps * math.log(1.0 / delta)) / noise_multiplier


class MomentsAccountant:
    """Stateful moments accountant accumulating RDP over heterogeneous steps.

    The federated trainers call :meth:`accumulate` once per noise-injection
    step (per round for Fed-SDP, per local iteration for Fed-CDP); epsilon for
    a target delta is available at any time via :meth:`get_epsilon`.

    The accountant also enforces the paper's validity condition for the
    moments-accountant bound, ``q < 1 / (16 sigma)``, emitting the check via
    :meth:`check_sampling_condition`.

    As the default entry of the accountant registry
    (:data:`repro.privacy.ledger.ACCOUNTANTS`) it additionally implements the
    pluggable round-charging interface: :meth:`bind_context` attaches the
    equal-shard sampling rates of a run, after which :meth:`charge_round`
    accepts a declarative :class:`~repro.privacy.ledger.RoundCharge` (the
    participant list is ignored — this is the paper's equal-shard model,
    which charges the full population rate whenever anything was released).
    """

    name = "moments"

    def __init__(self, orders: Sequence[float] = DEFAULT_RDP_ORDERS) -> None:
        self.orders = tuple(float(order) for order in orders)
        self._rdp = np.zeros(len(self.orders), dtype=np.float64)
        self._steps = 0
        #: equal-shard rates of the bound run (an ``AccountingContext``); the
        #: accountant stays usable standalone via :meth:`accumulate` without it
        self._context = None

    @property
    def steps(self) -> int:
        """Number of accumulated mechanism invocations."""
        return self._steps

    def accumulate(self, sampling_rate: float, noise_multiplier: float, steps: int = 1) -> None:
        """Add ``steps`` invocations of the subsampled Gaussian mechanism."""
        if steps < 0:
            raise ValueError("steps must be non-negative")
        if steps == 0:
            return
        self._rdp = self._rdp + steps * compute_rdp_subsampled_gaussian(
            sampling_rate, noise_multiplier, self.orders
        )
        self._steps += steps

    def get_epsilon(self, delta: float) -> float:
        """Current epsilon for the requested delta (0 if nothing accumulated)."""
        if self._steps == 0:
            return 0.0
        epsilon, _ = rdp_to_epsilon(self.orders, self._rdp, delta)
        return epsilon

    # ------------------------------------------------------------------
    # Pluggable-accountant interface (see repro.privacy.ledger)
    # ------------------------------------------------------------------
    def bind_context(self, context) -> None:
        """Attach a run's :class:`~repro.privacy.ledger.AccountingContext`."""
        self._context = context

    def _rate_for_level(self, level: str) -> float:
        if self._context is None:
            raise RuntimeError(
                "MomentsAccountant is unbound; call bind_context(...) before "
                "charge_round (the simulation does this at construction)"
            )
        return self._context.rate_for_level(level)

    def charge_round(self, charge, participants: Sequence[int]) -> None:
        """Charge one round at the equal-shard rate for the charge's level.

        ``participants`` is accepted for interface compatibility and ignored:
        the paper's model charges the population-level rate whenever a round
        released anything (the caller never charges skipped rounds).
        """
        del participants
        self.accumulate(
            sampling_rate=self._rate_for_level(charge.level),
            noise_multiplier=charge.noise_multiplier,
            steps=charge.steps,
        )

    def projected_epsilon(self, charge, delta: float) -> float:
        """Epsilon *if* one more round like ``charge`` were accumulated.

        Used for budget-driven early stopping: the release is withheld when
        the projection exceeds the budget.
        """
        rdp = self._rdp + charge.steps * compute_rdp_subsampled_gaussian(
            self._rate_for_level(charge.level), charge.noise_multiplier, self.orders
        )
        epsilon, _ = rdp_to_epsilon(self.orders, rdp, delta)
        return epsilon

    @staticmethod
    def check_sampling_condition(sampling_rate: float, noise_multiplier: float) -> bool:
        """The paper's applicability condition ``q < 1 / (16 sigma)`` (Definition 5)."""
        if noise_multiplier <= 0:
            raise ValueError("noise multiplier must be positive")
        return sampling_rate < 1.0 / (16.0 * noise_multiplier)

    def reset(self) -> None:
        """Forget all accumulated privacy spending."""
        self._rdp = np.zeros(len(self.orders), dtype=np.float64)
        self._steps = 0

    # ------------------------------------------------------------------
    # Serialization (simulation checkpoints)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-serialisable snapshot of the accumulated RDP state."""
        return {
            "orders": list(self.orders),
            "rdp": self._rdp.tolist(),
            "steps": self._steps,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`state_dict`."""
        orders = tuple(float(order) for order in state["orders"])
        rdp = np.asarray(state["rdp"], dtype=np.float64)
        if rdp.shape != (len(orders),):
            raise ValueError("rdp vector length does not match the order grid")
        self.orders = orders
        self._rdp = rdp
        self._steps = int(state["steps"])
