import os
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable
# pyproject's pythonpath reaches only this process; the external-backend
# tests start Python children that import petseg too
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

from petseg.volume import Volume3D, VolumeKind


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that leaves a thread it started alive, such as a
    ThreadPoolExecutor worker of the ensemble or of ``evaluate --jobs``."""
    before = set(threading.enumerate())
    yield
    leaked = [t.name for t in threading.enumerate() if t not in before]
    assert not leaked, f"threads left running: {leaked}"


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(params=["C", "F"])
def layout(request):
    """The memory order of a test's input arrays: "C", or "F", x fastest as
    NIfTI reads return them. Results must not depend on it."""
    return request.param


def random_volume(rng, shape=(5, 6, 7), spacing=(2.0, 1.5, 3.0), kind=VolumeKind.PET_SUV,
                  lo=0.0, hi=10.0):
    data = rng.uniform(lo, hi, size=shape)
    return Volume3D(data, spacing, kind)
