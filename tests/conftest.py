import numpy as np
import pytest

from lebquad import SampleSet, datagen


@pytest.fixture
def two_atom():
    """Atoms at +-1 with unit weights, f = x, g = -x."""
    return SampleSet(
        x=np.array([-1.0, 1.0]),
        w=np.ones(2),
        f=np.array([-1.0, 1.0]),
        g=np.array([1.0, -1.0]),
    )


@pytest.fixture(scope="session")
def scenario_samples():
    """Generated sample sets for every built-in scenario, shared per session."""
    return {
        name: datagen.generate(datagen.load_scenario(name))
        for name in datagen.builtin_scenario_names()
    }
