import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


def class_probabilities(table) -> dict[tuple[int, ...], float]:
    """``{labels: probability}`` over the classes of a retained posterior table."""
    return {tuple(row): table.probability_of_log_weight(lw)
            for row, lw in zip(table.labels.tolist(), table.log_weights.tolist())}


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
