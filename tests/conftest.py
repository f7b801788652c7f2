import pytest

from uncoiledtl import projectors
from uncoiledtl.diagrams import identity
from uncoiledtl.scalars import sample_env


@pytest.fixture(scope="session")
def env_atl5():
    return sample_env(11, "aTL", 5)


@pytest.fixture
def singular_oracle(monkeypatch):
    """singular_oracle(kind, n) makes the oracle's system at that kind and
    size singular: one constraint row gets its identity-column entry
    doubled.  Q is nonzero on the identity, so it no longer solves the
    system, and nothing else does."""
    def apply(kind, n):
        real = projectors._annihilator_rows

        def doubled(alg, basis):
            rows = real(alg, basis)
            if (alg.variant.kind, alg.n) == (kind, n):
                i = basis.index(identity(n))
                row = next(r for r in rows if r[i])
                row[i] *= 2
            return rows
        monkeypatch.setattr(projectors, "_annihilator_rows", doubled)
    return apply
