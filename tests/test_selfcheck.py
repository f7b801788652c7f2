"""Every check of the registry passes on the real code, and fails on a
hand-made fault with the fault's witness in its detail."""

from fractions import Fraction

import pytest

from uncoiledtl import selfcheck
from uncoiledtl.algebra import Algebra, AlgebraVariant, basis_enumerate
from uncoiledtl.diagrams import Diagram
from uncoiledtl.projectors import (build_projector_Q, gamma_solve,
                                   projector_checks, sector_of)
from uncoiledtl.scalars import sample_env


class _DoubledE1(Algebra):
    """An algebra whose generator e_1 is off by a factor of two."""

    def e(self, j):
        ej = super().e(j)
        return 2 * ej if j == 1 else ej


def _plus(extra):
    """A fault: the real function's result plus extra(*args, **kw)."""
    return lambda real: lambda *args, **kw: real(*args, **kw) + extra(*args)


def _bumped_conjecture(real):
    def fake(v, n, r, env):
        table = real(v, n, r, env)
        if (v.kind, n) == ("upTL2", 4):
            table.entries[(1, 0)] += 1
        return table
    return fake


# (check, its arguments, the registry name it binds, the fault, the witness)
CASES = {
    "dimensions": (
        selfcheck.check_dimensions, (4,), "dimension_closed_form",
        _plus(lambda v: (v.kind, v.n) == ("upTL1", 4)), "upTL1 n=4"),
    "defining-relations": (
        selfcheck.check_relations, (4, 0), "Algebra",
        lambda real: _DoubledE1, "e_0 e_1 e_0, n=3"),
    "quotient-relations": (
        selfcheck.check_quotient_relations, (4, 0), "Algebra",
        lambda real: _DoubledE1, "unwinding upTL n=3"),
    "wenzl-jones": (
        selfcheck.check_wenzl_jones, (4, 0), "wenzl_jones_P",
        _plus(lambda m, alg: (m == 3) * Fraction(1, 7) * alg.one()),
        "P_3^2 != P_3"),
    "gamma-solver-vs-conjecture": (
        selfcheck.check_gamma, (4, (0, 1)), "gamma_table_conjecture",
        _bumped_conjecture, "(k, l2)=(1, 0), upTL2 n=4 seed=0"),
    "projectors": (
        selfcheck.check_projectors, (3, 2, 3, 0), "build_projector_Q",
        _plus(lambda tbl: (tbl.variant.kind == "upTL1")
              * Fraction(1, 3) * Algebra(tbl.variant, tbl.env).e(0)),
        "Q^2 != Q at Diagram('<>', mid=0, '<>'), upTL1 n=2"),
    "e0Z-expansion": (
        selfcheck.check_e0Z_grids, (4, 0), "check_e0Z",
        _plus(lambda alg, k, l2:
              ((alg.variant.kind, k, l2) == ("uaTL2", 1, 1)) * alg.one()),
        "uaTL2 n=4 (k, l2)=(1, 1)"),
    "central-elements": (
        selfcheck.check_central, (3, 3, 6, 0), "central_eigenvalue",
        _plus(lambda which, mod, k=None: (which, mod.d) == ("Fbar", 1)),
        "Fbar n=3 d=1"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_check_passes_on_the_real_code(name):
    check, args, _, _, _ = CASES[name]
    got, passed, detail = check(*args)
    assert (got, passed) == (name, True), detail


@pytest.mark.parametrize("name", sorted(CASES))
def test_check_fails_on_a_fault_and_names_its_witness(monkeypatch, name):
    check, args, attr, fault, witness = CASES[name]
    monkeypatch.setattr(selfcheck, attr, fault(getattr(selfcheck, attr)))
    got, passed, detail = check(*args)
    assert (got, passed) == (name, False)
    assert witness in detail, detail


def test_projector_witness_names_the_generator_and_its_side():
    env = sample_env(0, "upTL", 3)
    alg = Algebra(AlgebraVariant("upTL", 3), env)
    assert projector_checks(alg.one(), False) == \
        {"idempotent": None, "annihilated": "e_0 Q != 0"}
    # e_0 (1 - e_1 e_0) = e_0 - e_0 e_1 e_0 = 0, but (1 - e_1 e_0) e_0 != 0
    assert projector_checks(alg.one() - alg.e(1) * alg.e(0), False) == \
        {"idempotent": None, "annihilated": "Q e_0 != 0"}


@pytest.mark.parametrize("kind,n", [("upTL", 3), ("uaTL1", 4)])
def test_oracle_witness_names_the_one_changed_diagram(kind, n):
    env = sample_env(0, kind, n)
    v = AlgebraVariant(kind, n)
    alg = Algebra(v, env)
    q = build_projector_Q(gamma_solve(v, n, sector_of(kind, env, n), env))
    assert projector_checks(q, True)["matches_oracle"] is None
    basis = sorted(basis_enumerate(v), key=Diagram.sort_key)
    # the first, a middle and the last diagram, in or out of Q's support
    for dia in (basis[0], basis[len(basis) // 2], basis[-1]):
        changed = q + Fraction(1, 5) * alg.from_diagram(dia)
        assert projector_checks(changed, True)["matches_oracle"] == \
            f"Q != oracle at {dia!r}"


@pytest.mark.parametrize("kind,n", [("upTL", 3), ("uaTL1", 4), ("upTL2", 4)])
def test_a_singular_oracle_system_names_its_kind_and_size(singular_oracle,
                                                         kind, n):
    singular_oracle(kind, n)
    name, passed, detail = selfcheck.check_projectors(n, n, n, 1)
    assert (name, passed) == ("projectors", False)
    assert detail == ("oracle: annihilator has dimension 0, expected 1, "
                      f"{kind} n={n}")


def test_relations_below_their_size_are_reported_skipped():
    # aTL's defining relations start at n = 3; below that nothing is checked
    name, passed, detail = selfcheck.check_relations(2, 0)
    assert (name, passed) == ("defining-relations", True)
    assert detail.startswith("skipped") and "n >= 3" in detail, detail
    assert "skipped" not in selfcheck.check_relations(3, 0)[2]
