"""Permutation primitives against their algebraic laws."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minasym.perms import (
    compose,
    cycles,
    from_cycles,
    identity,
    inverse,
    is_identity,
    is_involution,
    order,
    power,
    random_perm,
    transposition,
    validate,
)


def perms(n_max=8):
    return st.integers(1, n_max).flatmap(
        lambda n: st.permutations(list(range(n))).map(tuple)
    )


def test_identity_basics():
    assert identity(4) == (0, 1, 2, 3)
    assert is_identity(identity(7))
    assert not is_identity((1, 0))
    assert order(identity(5)) == 1


@given(p=perms())
def test_inverse_cancels(p):
    n = len(p)
    assert compose(p, inverse(p)) == identity(n)
    assert compose(inverse(p), p) == identity(n)


@given(p=perms(), q=perms())
def test_compose_is_application_order(p, q):
    if len(p) != len(q):
        return
    r = compose(p, q)
    for i in range(len(p)):
        assert r[i] == p[q[i]]


@given(p=perms())
def test_order_annihilates(p):
    d = order(p)
    acc = identity(len(p))
    for _ in range(d):
        acc = compose(p, acc)
    assert is_identity(acc)
    assert d >= 1


def test_power_of_a_six_cycle():
    c = from_cycles(6, [range(6)])
    assert power(c, 0) == identity(6)
    assert power(c, 1) == c
    assert power(c, 2) == from_cycles(6, [(0, 2, 4), (1, 3, 5)])
    assert power(c, 3) == from_cycles(6, [(0, 3), (1, 4), (2, 5)])
    assert power(c, 6) == power(c, 12) == identity(6)
    assert power(c, 7) == c


@given(p=perms(), e=st.integers(0, 12))
def test_power_is_repeated_composition(p, e):
    acc = identity(len(p))
    for _ in range(e):
        acc = compose(p, acc)
    assert power(p, e) == acc


@given(p=perms())
def test_cycles_roundtrip(p):
    assert from_cycles(len(p), cycles(p)) == p


def test_transposition():
    t = transposition(5, 1, 3)
    assert t == (0, 3, 2, 1, 4)
    assert is_involution(t)
    assert not is_involution(identity(5))
    assert not is_involution((1, 2, 0))


def test_validate_rejects_non_bijections():
    with pytest.raises(ValueError):
        validate((0, 0, 1), 3)
    with pytest.raises(ValueError):
        validate((0, 3, 1), 3)
    with pytest.raises(ValueError):
        validate((0, 1), 3)
    validate((2, 0, 1), 3)


@settings(max_examples=30)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 9))
def test_random_perm_is_valid(seed, n):
    p = random_perm(n, random.Random(seed))
    validate(p, n)
    assert len(p) == n
