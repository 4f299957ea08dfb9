"""repro — reproduction of "Gradient-Leakage Resilient Federated Learning" (ICDCS 2021).

The package implements, from scratch on top of numpy/scipy:

* ``repro.autodiff`` — reverse-mode autodiff with higher-order gradients;
* ``repro.nn``       — neural network layers, losses and optimizers;
* ``repro.data``     — synthetic stand-ins for the paper's five benchmark datasets;
* ``repro.privacy``  — Gaussian mechanism, clipping policies and the pluggable
  privacy accountants (equal-shard moments + heterogeneity-aware per-client ledger);
* ``repro.federated``— the federated-learning simulation framework;
* ``repro.core``     — the paper's contribution: Fed-CDP, Fed-CDP(decay), Fed-SDP and baselines;
* ``repro.attacks``  — type-0/1/2 gradient-leakage (reconstruction) attacks;
* ``repro.experiments`` — runners that regenerate every table and figure in the paper.

Quickstart::

    from repro.experiments.harness import quick_config
    from repro.federated.simulation import FederatedSimulation

    sim = FederatedSimulation(quick_config("mnist", method="fed_cdp"))
    history = sim.run()
    print(history.final_accuracy)
"""

__version__ = "1.0.0"

__all__ = [
    "autodiff",
    "nn",
    "data",
    "privacy",
    "federated",
    "core",
    "attacks",
    "experiments",
]
