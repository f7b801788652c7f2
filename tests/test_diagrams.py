import copy
import math
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as hst

from uncoiledtl.algebra import Algebra, AlgebraVariant, basis_enumerate
from uncoiledtl.diagrams import (DEFECT, Diagram, LinkState, _state_pool,
                                 act_on_state, all_defect, e, flip, identity,
                                 link_states, multiply_raw, omega, omega_inv,
                                 parity)
from uncoiledtl.scalars import ALL_KINDS, UNCOILED_KINDS, sample_env
from uncoiledtl.selfcheck import legal_sizes

D = DEFECT


def st(*nodes):
    return LinkState(nodes)


def test_link_state_counts():
    for n in range(1, 9):
        for d in range(n % 2, n + 1, 2):
            assert len(link_states(n, d)) == math.comb(n, (n - d) // 2)
    with pytest.raises(ValueError):
        link_states(5, 2)


def test_b51_matches_displayed_set():
    want = {
        st(D, (2, False), (1, False), (4, False), (3, False)),
        st((4, True), D, (3, False), (2, False), (0, True)),
        st((1, False), (0, False), D, (4, False), (3, False)),
        st((4, True), (2, False), (1, False), D, (0, True)),
        st((1, False), (0, False), (3, False), (2, False), D),
        st(D, (4, False), (3, False), (2, False), (1, False)),
        st((2, True), D, (0, True), (4, False), (3, False)),
        st((4, True), (3, True), D, (1, True), (0, True)),
        st((1, False), (0, False), (4, True), D, (2, True)),
        st((3, False), (2, False), (1, False), (0, False), D),
    }
    assert set(link_states(5, 1)) == want


def test_b53_matches_displayed_set():
    want = {
        st(D, D, D, (4, False), (3, False)),
        st(D, D, (3, False), (2, False), D),
        st(D, (2, False), (1, False), D, D),
        st((1, False), (0, False), D, D, D),
        st((4, True), D, D, D, (0, True)),
    }
    assert set(link_states(5, 3)) == want


def test_all_defect_state():
    assert link_states(4, 4) == (all_defect(4),)


def test_parity_convention():
    # the inverted literature convention: 0 for odd, 1 for even crossings
    assert parity(all_defect(5)) == 1
    wrapped = st(D, (4, False), (3, False), (2, False), (1, False))
    assert parity(wrapped) == 1  # zero crossing arcs
    one_wrap = st((4, True), D, (3, False), (2, False), (0, True))
    assert parity(one_wrap) == 0
    two_wrap = st((4, True), (3, True), D, (1, True), (0, True))
    assert parity(two_wrap) == 1


def test_planarity_rejected():
    pooled = len(_state_pool)
    # {0,1} and {2,3} both crossing the seam would intersect
    with pytest.raises(ValueError):
        LinkState([(1, True), (0, True), (3, True), (2, True)])
    # overarched defect
    with pytest.raises(ValueError):
        LinkState([(2, False), D, (0, False)])
    # non-involutive pairing
    with pytest.raises(ValueError):
        LinkState([(1, False), (0, True)])
    assert len(_state_pool) == pooled  # a rejected state is not interned


DIAGRAM_JSON = e(4, 0).to_json()


@pytest.mark.parametrize("build, arg", [
    (LinkState, [(1.5, False), (0, False)]),         # float partner
    (LinkState, [("1", False), (0, False)]),         # string partner
    (LinkState, [(True, False), (0, False)]),        # bool partner
    (LinkState, [(2, False), D, (0, False, 0)]),     # three-entry descriptor
    (LinkState, [1, 0]),                             # bare int descriptors
    (LinkState, [(1, 2), (0, 2)]),                   # seam flag 2
    (LinkState, [(1, 1), (0, 1)]),                   # seam flag 1
    (LinkState, [(2, False), D]),                    # partner out of range
    (LinkState.from_json, [{"seam": False}, {"p": 0, "seam": False}]),
    (LinkState.from_json, [{"p": 1}, {"p": 0, "seam": False}]),
    (LinkState.from_json, [5, "D"]),                 # neither "D" nor a dict
    (LinkState.from_json, "DD"),                     # not a list
    (LinkState.from_json, [{"p": 1, "seam": 0}, {"p": 0, "seam": 0}]),
    (Diagram.from_json,
     {k: v for k, v in DIAGRAM_JSON.items() if k != "mid"}),
    (Diagram.from_json, dict(DIAGRAM_JSON, mid="0")),
    (Diagram.from_json, dict(DIAGRAM_JSON, mid=0.0)),
    (Diagram.from_json, dict(DIAGRAM_JSON, bottom=None)),
    (Diagram.from_json, [DIAGRAM_JSON]),
])
def test_outside_input_is_rejected_with_value_error(build, arg):
    pooled = len(_state_pool)
    with pytest.raises(ValueError):
        build(arg)
    assert len(_state_pool) == pooled  # a rejected state is not interned


def _assert_descriptor_built(v):
    # the stored cover positions and the descriptors are one state
    w = LinkState(v.nodes)
    assert w == v and hash(w) == hash(v) and w.sort_key() == v.sort_key()


def test_descriptors_rebuild_every_enumerated_state():
    for n in range(1, 13):
        for d in range(n % 2, n + 1, 2):
            for v in link_states(n, d):
                _assert_descriptor_built(v)
                assert LinkState(v.nodes).art() == v.art()
                assert LinkState.from_json(v.to_json()) == v


def test_every_state_is_the_interned_one():
    for n in range(1, 9):
        for d in range(n % 2, n + 1, 2):
            for v in link_states(n, d):
                assert LinkState(v.nodes) is v
                assert LinkState.from_json(v.to_json()) is v
                assert pickle.loads(pickle.dumps(v)) is v
                assert copy.copy(v) is v and copy.deepcopy(v) is v


def test_diagrams_built_apart_are_one_key():
    n = 4
    alg = Algebra(AlgebraVariant("uaTL1", n), sample_env(0, "uaTL1", n))
    x = alg.e(1) + 3 * alg.e(0) * alg.e(2) + alg.omega()
    for dia in x.nums:
        built = [Diagram(LinkState(dia.bottom.nodes), LinkState(dia.top.nodes),
                         dia.mid),
                 Diagram.from_json(dia.to_json()),
                 pickle.loads(pickle.dumps(dia)), copy.deepcopy(dia)]
        for other in built:
            assert other is not dia
            assert other == dia and hash(other) == hash(dia)
            assert x.nums[other] == x.nums[dia]
            assert other in x.nums and dia in {other: 1}
    assert Diagram(e(n, 1).bottom, e(n, 1).top, 1) != e(n, 1)


def _descriptor_sort_key(v):
    """The order of link states as first stated: per node, (0, 0, 0) at a
    defect and (1, partner, crosses) at an arc end."""
    return tuple((0, 0, 0) if x is DEFECT else (1, x[0], int(x[1]))
                 for x in v.nodes)


def test_sort_key_orders_states_as_the_descriptor_key():
    rng = random.Random(0)
    count = 0
    for n in range(1, 11):
        for d in range(n % 2, n + 1, 2):
            states = list(link_states(n, d))
            rng.shuffle(states)
            assert (sorted(states, key=LinkState.sort_key)
                    == sorted(states, key=_descriptor_sort_key))
            count += len(states)
    assert count == 1198


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_traced_faces_equal_descriptor_built_states(kind):
    """The faces from_cover (multiply_raw) and outer_face (mul) write as
    cover positions are the states their descriptors build."""
    rng = random.Random(kind)
    for n in range(1, 8):
        try:
            variant = AlgebraVariant(kind, n)
        except ValueError:
            continue
        if kind in ("aTL", "pTL"):
            pool = [Diagram(b, t, m) for d in range(n % 2, n + 1, 2)
                    for b in link_states(n, d) for t in link_states(n, d)
                    for m in (range(-d, d + 1) if d else range(2))]
            pool = [c for c in pool if kind == "aTL" or c.is_even()]
        else:
            pool = basis_enumerate(variant)
        alg = Algebra(variant, sample_env(0, kind, n))
        for _ in range(60):
            a, b = rng.choice(pool), rng.choice(pool)
            dias = [multiply_raw(a, b)[0]]
            dias += (alg.from_diagram(a) * alg.from_diagram(b)).terms
            for dia in dias:
                _assert_descriptor_built(dia.bottom)
                _assert_descriptor_built(dia.top)


def test_generators():
    assert identity(4) == Diagram(all_defect(4), all_defect(4), 0)
    assert omega(4).mid == 1
    e1 = e(4, 1)
    assert e1.bottom == st((1, False), (0, False), D, D)
    assert e1.d == 2 and e1.mid == 0
    e0 = e(4, 0)
    assert e0.bottom == st((3, True), D, D, (0, True))
    with pytest.raises(ValueError):
        e(4, 4)


def test_diagram_rejects_mismatched_faces():
    two = st((1, False), (0, False), D, D)
    with pytest.raises(ValueError, match="size mismatch"):
        Diagram(two, all_defect(3), 0)
    with pytest.raises(ValueError, match="defect count mismatch"):
        Diagram(two, all_defect(4), 0)
    cups = st((1, False), (0, False), (3, False), (2, False))
    with pytest.raises(ValueError, match="loop count"):
        Diagram(cups, cups, -1)
    assert Diagram(two, two, -1).d == 2  # a negative winding is fine


def test_omega_inverse_product():
    c, be, nc = multiply_raw(omega(4), omega_inv(4))
    assert c == identity(4) and be == 0 and nc == 0


def test_displayed_n6_product():
    # the worked product of the two displayed n = 6 connectivities
    c1 = Diagram(
        st((5, False), (2, False), (1, False), (4, False), (3, False), (0, False)),
        st((1, False), (0, False), (5, True), (4, False), (3, False), (2, True)),
        1)  # one non-contractible loop
    c2 = Diagram(
        st(D, D, (5, False), (4, False), (3, False), (2, False)),
        st((5, True), D, (3, False), (2, False), D, (0, True)),
        0)
    got, beta_exp, nc_gained = multiply_raw(c1, c2)
    want = Diagram(
        st((5, False), (2, False), (1, False), (4, False), (3, False), (0, False)),
        st((5, True), (4, False), (3, False), (2, False), (1, False), (0, True)),
        2)
    assert got == want
    assert beta_exp == 1
    assert nc_gained == 1  # one new loop; the result carries two in total
    # parities: even * odd = odd
    assert c1.is_even() and not c2.is_even() and not got.is_even()


def test_ej_squared():
    for n in (2, 3, 5):
        for j in range(n):
            c, be, nc = multiply_raw(e(n, j), e(n, j))
            assert c == e(n, j) and be == 1 and nc == 0


def test_eee_relation():
    for n in range(3, 9):
        for j in range(n):
            for pm in (1, -1):
                k = (j + pm) % n
                c1, b1, _ = multiply_raw(e(n, j), e(n, k))
                c2, b2, _ = multiply_raw(c1, e(n, j))
                assert c2 == e(n, j) and b1 + b2 == 0


def test_omega_conjugation_and_braid_relation():
    for n in range(3, 9):
        for j in range(n):
            c, _, _ = multiply_raw(omega(n), e(n, j))
            c, _, _ = multiply_raw(c, omega_inv(n))
            assert c == e(n, (j - 1) % n)
        lhs, bl, _ = multiply_raw(omega(n, 2), e(n, 1))
        rhs = e(n, n - 1)
        btot = 0
        for j in range(n - 2, 0, -1):
            rhs, b, _ = multiply_raw(rhs, e(n, j))
            btot += b
        assert lhs == rhs and bl == 0 and btot == 0


def test_e0_omega_e0_n2():
    c1, b1, n1 = multiply_raw(e(2, 0), omega(2))
    c2, b2, n2 = multiply_raw(c1, e(2, 0))
    assert c2.bottom == e(2, 0).bottom and c2.top == e(2, 0).top
    assert c2.mid == 1 and b1 + b2 == 0 and n1 + n2 == 1


def test_flip():
    for n in (3, 4):
        for j in range(1, n):
            assert flip(e(n, j)) == e(n, j)
        assert flip(omega(n)) == omega_inv(n)


def test_flip_involution_and_antihomomorphism():
    rng = random.Random(4)
    for _ in range(200):
        n = rng.choice((2, 3, 4, 5, 6, 7, 8))
        pool = [identity(n), omega(n), omega_inv(n)] + \
            [e(n, j) for j in range(n)]
        a, b = rng.choice(pool), rng.choice(pool)
        ab, beta1, nc1 = multiply_raw(a, b)
        assert flip(flip(ab)) == ab
        ba, beta2, nc2 = multiply_raw(flip(b), flip(a))
        assert flip(ab) == ba and beta1 == beta2 and nc1 == nc2


def test_associativity_random_triples():
    rng = random.Random(9)
    for _ in range(200):
        n = rng.choice((2, 3, 4, 5, 6))
        pool = [identity(n), omega(n), omega_inv(n)] + \
            [e(n, j) for j in range(n)]
        a, b, c = (rng.choice(pool) for _ in range(3))
        x, b1, n1 = multiply_raw(a, b)
        x, b1b, n1b = multiply_raw(x, c)
        y, b2, n2 = multiply_raw(b, c)
        y, b2b, n2b = multiply_raw(a, y)
        assert x == y
        assert b1 + b1b == b2 + b2b and n1 + n1b == n2 + n2b


def _diagram_pool(kind, n):
    """The sandwich basis of an uncoiled kind; for aTL, every pair of faces
    with winding -2d .. 2d (d > 0) or with 0 .. 3 loops (d = 0)."""
    if kind != "aTL":
        return basis_enumerate(AlgebraVariant(kind, n))
    return [Diagram(b, t, mid) for d in range(n % 2, n + 1, 2)
            for b in link_states(n, d) for t in link_states(n, d)
            for mid in (range(-2 * d, 2 * d + 1) if d else range(4))]


DIAGRAM_POOLS = [(kind, n) for kind in UNCOILED_KINDS
                 for n in legal_sizes(kind, 6)] + \
    [("aTL", n) for n in range(1, 7)]


@pytest.mark.parametrize("kind, n", DIAGRAM_POOLS)
def test_pairwise_product_is_associative(kind, n):
    # the reference tracer on its own, over every face pair and winding
    pool = _diagram_pool(kind, n)
    rng = random.Random(f"{kind} {n}")
    for _ in range(200):
        a, b, c = (rng.choice(pool) for _ in range(3))
        ab, k1, m1 = multiply_raw(a, b)
        bc, k3, m3 = multiply_raw(b, c)
        # planar faces, checked as outside input is, before a second trace
        for x in (ab, bc):
            assert LinkState(x.bottom.nodes) == x.bottom, (a, b, c)
            assert LinkState(x.top.nodes) == x.top, (a, b, c)
        abc, k2, m2 = multiply_raw(ab, c)
        a_bc, k4, m4 = multiply_raw(a, bc)
        assert abc == a_bc, (a, b, c)
        assert (k1 + k2, m1 + m2) == (k3 + k4, m3 + m4), (a, b, c)


@pytest.mark.parametrize("kind, n", DIAGRAM_POOLS)
def test_pairwise_product_flips_to_the_reversed_product(kind, n):
    pool = _diagram_pool(kind, n)
    rng = random.Random(f"{kind} {n}")
    for _ in range(200):
        a, b = rng.choice(pool), rng.choice(pool)
        ab, k, m = multiply_raw(a, b)
        assert flip(flip(ab)) == ab
        assert multiply_raw(flip(b), flip(a)) == (flip(ab), k, m), (a, b)


@given(hst.data())
@settings(max_examples=400, deadline=None)
def test_action_is_half_a_product(data):
    """c . w is read off the pairwise product c * (w, 0, w): it vanishes
    exactly when the product loses defects, and otherwise carries the same
    loops, winding and bottom face."""
    n = data.draw(hst.integers(1, 7), label="n")
    sectors = range(n % 2, n + 1, 2)
    d = data.draw(hst.sampled_from(sectors), label="d")
    mid = data.draw(hst.integers(-2 * d, 2 * d) if d else hst.integers(0, 2),
                    label="mid")
    c = Diagram(data.draw(hst.sampled_from(link_states(n, d))),
                data.draw(hst.sampled_from(link_states(n, d))), mid)
    w = data.draw(hst.sampled_from(
        link_states(n, data.draw(hst.sampled_from(sectors)))), label="w")
    res, k, nc = multiply_raw(c, Diagram(w, w, 0))
    got = act_on_state(c, w)
    if res.d < w.d:
        assert got is None
    else:
        assert got == (k, nc, res.mid if w.d else 0, res.bottom)


def test_evenness_closure():
    for n in range(2, 7):
        evens = [identity(n)] + [e(n, j) for j in range(n)]
        for a in evens:
            for b in evens:
                c, _, _ = multiply_raw(a, b)
                assert c.is_even()


def test_canonicity_and_serialization():
    rng = random.Random(1)
    for _ in range(60):
        n = rng.choice((2, 4, 5))
        pool = [identity(n), omega(n)] + [e(n, j) for j in range(n)]
        c, _, _ = multiply_raw(rng.choice(pool), rng.choice(pool))
        assert Diagram.from_json(c.to_json()) == c


def test_art_rendering():
    v = e(5, 0).bottom
    assert v.art() == "<|||>"
    assert "O^1" in omega(3).art()
