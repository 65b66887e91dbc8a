import itertools
import random
from fractions import Fraction
from math import factorial

import pytest

from symprod import fixtures
from symprod.tensors import (
    ArityError,
    Perm,
    TensorElement,
    act,
    elementary,
    signed_arrangements,
    sorted_slots_with_sign,
    sym_element,
    symmetrize,
    tensor_multiply,
)


def brute_symmetrize(t):
    """Oracle: the (1/n!) sum over the whole group, term by term."""
    total = TensorElement.zero(t.ring, t.n)
    for sigma in Perm.all(t.n):
        total = total + act(sigma, t)
    return Fraction(1, factorial(t.n)) * total


@pytest.fixture
def torus():
    return fixtures.torus_ring()


@pytest.fixture
def sphere():
    return fixtures.sphere2_ring()


def test_perm_basics():
    s = Perm((1, 0, 2))
    assert s.inverse() == s
    assert (s * s) == Perm(range(3))
    with pytest.raises(ValueError):
        Perm((0, 0, 1))


def test_act_identity(torus):
    t = elementary(torus, ["a1", "b"]) + 3 * elementary(torus, ["a2", None])
    assert act(Perm(range(2)), t) == t


def test_act_swap_two_odds(torus):
    # both slots degree 1: one odd transposition, sign -1
    t = elementary(torus, ["a1", "a2"])
    assert act(Perm((1, 0)), t) == -elementary(torus, ["a2", "a1"])


def test_act_swap_even_past_unit(torus):
    t = elementary(torus, ["b", None])
    assert act(Perm((1, 0)), t) == elementary(torus, [None, "b"])


def test_act_three_cycle_two_odd_moves(torus):
    # moving a degree-1 slot past two degree-1 slots gives sign +1
    t = elementary(torus, ["a1", "a2", "a1"])
    sigma = Perm((1, 2, 0))
    assert act(sigma, t) == elementary(torus, ["a2", "a1", "a1"])


def test_act_arity_mismatch(torus):
    with pytest.raises(ArityError):
        act(Perm(range(3)), elementary(torus, ["a1", "a2"]))


def test_right_action_group_law_exhaustive(torus):
    # act(tau, act(sigma, t)) == act(sigma * tau, t), all pairs, n <= 4
    supports = {
        2: [["a1", "a2"], ["b", None]],
        3: [["a1", "a2", "b"], ["a1", None, "a2"]],
        4: [["a1", "a2", "b", None], ["a1", "b", "a2", "a1"]],
    }
    for n, slot_lists in supports.items():
        tensors = [elementary(torus, s) for s in slot_lists]
        t = tensors[0] + Fraction(2, 3) * tensors[1]
        for sigma in Perm.all(n):
            for tau in Perm.all(n):
                assert act(tau, act(sigma, t)) == act(sigma * tau, t)


def test_tensor_multiply_unit_slots(torus):
    a = elementary(torus, ["a1", None])
    b = elementary(torus, [None, "a2"])
    assert tensor_multiply(a, b) == elementary(torus, ["a1", "a2"])


def test_tensor_multiply_odd_past_odd(torus):
    # (1 (x) a1) * (a2 (x) 1) = -(a2 (x) a1)
    a = elementary(torus, [None, "a1"])
    b = elementary(torus, ["a2", None])
    assert tensor_multiply(a, b) == -elementary(torus, ["a2", "a1"])


def test_square_of_spread_class_on_sphere(sphere):
    # (b(x)1 + 1(x)b)^2 = 2 b(x)b since b^2 = 0
    t = elementary(sphere, ["b", None]) + elementary(sphere, [None, "b"])
    assert tensor_multiply(t, t) == 2 * elementary(sphere, ["b", "b"])


def test_multiply_arity_and_ring_mismatch(torus):
    with pytest.raises(ArityError):
        tensor_multiply(elementary(torus, ["a1"]), elementary(torus, ["a1", None]))
    other = fixtures.torus_ring()
    with pytest.raises(ArityError):
        tensor_multiply(elementary(torus, ["a1"]), elementary(other, ["a1"]))


def test_equivariance_of_multiplication(torus):
    # act(sigma, u*v) == act(sigma,u) * act(sigma,v) for all sigma, n <= 4
    rng = random.Random(4242)
    names = ["a1", "a2", "b", None]
    for n in (2, 3, 4):
        for _ in range(8):
            u = elementary(torus, [rng.choice(names) for _ in range(n)],
                           rng.choice([1, -2, 3]))
            v = elementary(torus, [rng.choice(names) for _ in range(n)],
                           rng.choice([1, 2, -1]))
            uv = tensor_multiply(u, v)
            for sigma in Perm.all(n):
                assert act(sigma, uv) == tensor_multiply(act(sigma, u), act(sigma, v))


def test_multiply_graded_commutative(torus):
    rng = random.Random(77)
    names = ["a1", "a2", "b", None]
    for n in (2, 3):
        for _ in range(12):
            u = elementary(torus, [rng.choice(names) for _ in range(n)])
            v = elementary(torus, [rng.choice(names) for _ in range(n)])
            du, dv = u.degree(), v.degree()
            sign = -1 if (du % 2 and dv % 2) else 1
            assert tensor_multiply(u, v) == sign * tensor_multiply(v, u)


def test_symmetrize_two_term_orbit(torus):
    got = symmetrize(elementary(torus, ["b", None]))
    want = Fraction(1, 2) * (elementary(torus, ["b", None])
                             + elementary(torus, [None, "b"]))
    assert got == want


def test_symmetrize_repeated_odd_vanishes(torus):
    assert symmetrize(elementary(torus, ["a1", "a1"])).is_zero()


def test_symmetrize_idempotent_and_fixes_invariants(torus):
    t = elementary(torus, ["a1", "b", None]) - 2 * elementary(torus, ["a2", "a1", "a2"])
    s = symmetrize(t)
    assert s.is_symmetric()
    assert symmetrize(s) == s


def test_symmetrize_matches_group_sum_oracle(torus):
    rng = random.Random(1618)
    names = ["a1", "a2", "b", None]
    for n in (2, 3, 4):
        for _ in range(6):
            t = (elementary(torus, [rng.choice(names) for _ in range(n)],
                            rng.choice([1, 2, -3]))
                 + elementary(torus, [rng.choice(names) for _ in range(n)]))
            assert symmetrize(t) == brute_symmetrize(t)


def test_sym_element_matches_padded_group_sum(torus):
    # (1/(n-m)!) sum over sigma of the padded tensor, against the fast path
    a1, a2, b = torus.gen("a1"), torus.gen("a2"), torus.gen("b")
    for n, factors in [(2, [a1]), (3, [a1, a2]), (3, [b]), (4, [a1, b])]:
        m = len(factors)
        slots = [next(iter(f.terms)) for f in factors]
        padded = TensorElement(
            torus, n, {tuple(slots) + (torus.unit_slot,) * (n - m): Fraction(1)})
        oracle = TensorElement.zero(torus, n)
        for sigma in Perm.all(n):
            oracle = oracle + act(sigma, padded)
        oracle = Fraction(1, factorial(n - m)) * oracle
        assert sym_element(torus, n, factors) == oracle


def test_sym_element_spread_class(torus):
    got = sym_element(torus, 3, [torus.gen("a1")])
    want = (elementary(torus, ["a1", None, None])
            + elementary(torus, [None, "a1", None])
            + elementary(torus, [None, None, "a1"]))
    assert got == want


def test_unit_tensor_is_multiplicative_identity(torus):
    one = TensorElement.unit(torus, 3)
    t = elementary(torus, ["a1", "b", None]) + 5 * elementary(torus, ["a2", None, None])
    assert tensor_multiply(one, t) == t
    assert tensor_multiply(t, one) == t


def test_signed_arrangements_match_distinct_permutations():
    ring = fixtures.surface_ring(2)
    slots = range(ring.unit_slot + 1)
    rng = random.Random(2718)
    for _ in range(200):
        multiset = tuple(sorted(rng.choice(slots) for _ in range(rng.randint(0, 6))))
        want = [(arr, sorted_slots_with_sign(ring, arr)[1])
                for arr in sorted(set(itertools.permutations(multiset)))]
        assert list(signed_arrangements(ring, multiset)) == want


def test_koszul_signs_equal_brute_force_inversion_parity():
    # every permutation carrying a multiset with distinct odd slots to an
    # arrangement inverts its odd entries the same number of times mod 2;
    # that parity, read from the degrees, is the arrangement's sign
    ring = fixtures.surface_ring(2)
    slots = range(ring.unit_slot + 1)
    odd = [s for s in slots if ring.slot_degree(s) % 2]
    even = [s for s in slots if not ring.slot_degree(s) % 2]
    rng = random.Random(1618)
    for _ in range(150):
        multiset = tuple(sorted(rng.sample(odd, rng.randint(0, len(odd)))
                                + [rng.choice(even) for _ in range(rng.randint(0, 3))]))
        want: dict[tuple[int, ...], set[int]] = {}
        for perm in itertools.permutations(range(len(multiset))):
            inversions = sum(1 for p, q in itertools.combinations(perm, 2)
                             if p > q and multiset[p] in odd and multiset[q] in odd)
            arr = tuple(multiset[p] for p in perm)
            want.setdefault(arr, set()).add(-1 if inversions % 2 else 1)
        assert all(len(signs) == 1 for signs in want.values())
        got = dict(signed_arrangements(ring, multiset))
        assert got == {arr: sign for arr, (sign,) in want.items()}
        for arr, sign in got.items():
            assert sorted_slots_with_sign(ring, arr) == (multiset, sign)


def test_signed_arrangements_cost_the_orbit_not_the_group(sphere):
    # (b, 1^13): 14 arrangements out of 14! permutations
    b, one = sphere.position["b"], sphere.unit_slot
    arrangements = list(signed_arrangements(sphere, (b,) + (one,) * 13))
    assert len(arrangements) == 14
    assert [arr.index(b) for arr, _ in arrangements] == list(range(14))
    assert {sign for _, sign in arrangements} == {1}
