"""Ablation — attack-seed initialization and attack budget.

Section III notes that the initialization of the dummy input has "significant
impact ... on the attack success rate and attack cost", and that all paper
experiments use the patterned random seed.  This ablation attacks the same
non-private per-example gradient with each seed kind and compares attack cost
(iterations to succeed) and reconstruction quality, plus the effect of halving
the attack-iteration budget.
"""

from __future__ import annotations

import numpy as np
from conftest import run_once

from repro.attacks import AttackConfig, MultiRestartReconstruction, SEED_KINDS
from repro.autodiff import Tensor, grad
from repro.data import generate_dataset, get_dataset_spec
from repro.experiments import format_table
from repro.nn import CrossEntropyLoss, build_model_for_dataset


def _run_seed_ablation(seed: int = 0, max_iterations: int = 120):
    spec = get_dataset_spec("mnist")
    data = generate_dataset(spec, 4, seed=seed)
    model = build_model_for_dataset(spec, seed=seed, scale=0.3)
    loss_fn = CrossEntropyLoss()
    x, y = data.features[:1], data.labels[:1]
    target = [g.numpy() for g in grad(loss_fn(model(Tensor(x)), y), model.parameters())]

    results = {}
    rows = []
    for kind in SEED_KINDS:
        attack = MultiRestartReconstruction(
            model, AttackConfig(max_iterations=max_iterations, seed_kind=kind)
        )
        outcome = attack.run(target, x.shape[1:], [np.random.default_rng(seed)], ground_truth=x[0], labels=y)
        results[kind] = outcome
        rows.append([kind, outcome.succeeded, outcome.num_iterations, outcome.reconstruction_distance])

    # budget ablation: the patterned seed with half the iteration budget
    short_budget = MultiRestartReconstruction(
        model, AttackConfig(max_iterations=max_iterations // 4, seed_kind="patterned")
    ).run(target, x.shape[1:], [np.random.default_rng(seed)], ground_truth=x[0], labels=y)
    rows.append(["patterned (1/4 budget)", short_budget.succeeded, short_budget.num_iterations,
                 short_budget.reconstruction_distance])
    table = format_table(
        rows, ["seed", "succeeded", "iterations", "reconstruction distance"],
        title="Ablation: attack seed initialization (non-private MNIST gradient)",
    )
    return results, short_budget, table


def test_ablation_attack_seed_initialization(benchmark, report):
    results, short_budget, table = run_once(benchmark, _run_seed_ablation, seed=0)
    report("Ablation: attack-seed initialization", table)

    # the paper's patterned seed succeeds against the non-private gradient
    assert results["patterned"].succeeded
    assert results["patterned"].reconstruction_distance < 0.1

    # at least one alternative seed also succeeds (the attack is not an artefact
    # of one initialization), and the patterned seed is never the slowest option
    other_successes = [kind for kind in ("uniform", "constant", "zeros") if results[kind].succeeded]
    assert other_successes
    iterations = {kind: results[kind].num_iterations for kind in results}
    assert iterations["patterned"] <= max(iterations.values())

    # reconstruction quality from the reduced budget is no better than the full budget
    assert short_budget.reconstruction_distance >= results["patterned"].reconstruction_distance - 1e-6
