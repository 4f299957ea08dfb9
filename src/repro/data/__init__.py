"""Dataset substrate: synthetic benchmark stand-ins, containers and partitioning."""

from .dataset import Dataset
from .partition import (
    PARTITION_STRATEGIES,
    ClassShardPlan,
    dirichlet_partition_indices,
    iid_partition_indices,
    quantity_skew_partition_indices,
)
from .population import LazyClientPopulation
from .registry import DATASET_REGISTRY, DatasetSpec, get_dataset_spec, list_datasets
from .synthetic import (
    generate_dataset,
    generate_image_dataset,
    generate_tabular_dataset,
    generate_train_val,
)

__all__ = [
    "Dataset",
    "ClassShardPlan",
    "LazyClientPopulation",
    "DatasetSpec",
    "DATASET_REGISTRY",
    "get_dataset_spec",
    "list_datasets",
    "generate_dataset",
    "generate_image_dataset",
    "generate_tabular_dataset",
    "generate_train_val",
    "iid_partition_indices",
    "dirichlet_partition_indices",
    "quantity_skew_partition_indices",
    "PARTITION_STRATEGIES",
]
