import numpy as np
import pytest
import scipy.sparse.linalg

from pairsolve import HamiltonianAction


@pytest.fixture
def unconverged_eigsh(monkeypatch):
    """Make eigsh fail while carrying exact eigenpairs in descending order.

    Call the fixture with (model, basis); it patches
    ``scipy.sparse.linalg.eigsh`` to raise ArpackNoConvergence with the
    two lowest eigenpairs of that sector, highest first, and returns
    their energies in ascending order.
    """

    def install(model, basis):
        h = HamiltonianAction(model, basis).dense_matrix()
        vals, vecs = np.linalg.eigh(h)

        def fail(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence(
                "ARPACK error -1: No convergence", vals[1::-1], vecs[:, 1::-1]
            )

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", fail)
        return vals[:2]

    return install
