import numpy as np
import pytest

from mdpvcg import GeneratorSpec, generate_model


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(module, name)`` wraps that attribute for the test and
    returns a list that grows by one entry per call: its positional arguments."""
    def install(module, name):
        calls = []
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    return install


@pytest.fixture
def small_model():
    return generate_model(GeneratorSpec(S=3, n=2, alpha=0.1, A=3), seed=7)


def random_policy(S, A, rng):
    p = rng.dirichlet(np.ones(A), size=S)
    return p


def deterministic_policies(S, A):
    """All A^S deterministic stationary policies as one-hot tables."""
    out = []
    for code in range(A ** S):
        pi = np.zeros((S, A))
        c = code
        for s in range(S):
            pi[s, c % A] = 1.0
            c //= A
        out.append(pi)
    return out
