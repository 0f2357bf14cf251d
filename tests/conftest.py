from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

FIXTURES = Path(__file__).parent / "fixtures"

# property tests draw the same examples on every machine and run, and no
# local example database replays an earlier run's failures
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_operator(rng, m, n, scale=1.0):
    from tikmor import as_operator

    return as_operator(scale * rng.standard_normal((m, n)))


def counting_operator(A):
    """(op, calls): a DenseOperator of A whose to_dense, matvec and rmatvec
    calls are counted in the dict ``calls``; ``ntm.gram_spectrum`` forms A^T A
    from one to_dense."""
    from tikmor import DenseOperator

    op = DenseOperator(np.asarray(A, dtype=float))
    calls = {"to_dense": 0, "matvec": 0, "rmatvec": 0}

    def counted(name):
        method = getattr(op, name)

        def spy(*args):
            calls[name] += 1
            return method(*args)

        return spy

    op.to_dense, op.matvec, op.rmatvec = counted("to_dense"), counted("matvec"), counted("rmatvec")
    return op, calls
