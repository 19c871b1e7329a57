"""Spanning-forest clustering engine.

Clusters data by the integrated posterior of the node partition under a
spanning-forest graphical model: per block, the marginal over latent trees
and roots is a graph-Laplacian determinant, so the whole partition
posterior is available in closed form up to normalization.  Small
problems are solved exactly by enumeration/dynamic programming, larger
ones by MCMC, and the determinant identities behind the closed form are
numerically verifiable through the ``verify`` suite.
"""

from .data import Dataset, IngestionError
from .kernels import KernelSpec, log_gaussian_kernel, spd_geodesic_distance
from .partitions import Partition, canonicalize, hamming_distance
from .posterior import BsfConfig, PosteriorTable, exact_posterior
from .sampler import ChainSummary, run_chain

__all__ = [
    "Dataset",
    "IngestionError",
    "KernelSpec",
    "log_gaussian_kernel",
    "spd_geodesic_distance",
    "Partition",
    "canonicalize",
    "hamming_distance",
    "BsfConfig",
    "PosteriorTable",
    "exact_posterior",
    "ChainSummary",
    "run_chain",
]

__version__ = "0.1.0"
