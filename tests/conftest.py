import hypothesis
import numpy as np

from zenocool import DensityMatrix

hypothesis.settings.register_profile(
    "default", deadline=None, max_examples=30,
    suppress_health_check=[hypothesis.HealthCheck.too_slow])
hypothesis.settings.load_profile("default")


def random_density(dim: int, seed: int, dims=None) -> DensityMatrix:
    """Full-rank random state via a Ginibre matrix."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return DensityMatrix(rho, dims if dims is not None else (dim,))


def random_hermitian(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


def clear_caches():
    """Empty every cache that the engine keeps from one run to the next."""
    from zenocool import protocol

    for cached in (protocol._sectors, protocol._sector_eigh, protocol._prepared,
                   protocol._support_blocks, protocol._open_generator):
        cached.cache_clear()
