import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caexp.errors import UsageError
from caexp.lattice import Z, Z2, free, lattice_by_kind, reduce_word

F2 = free(2)


def test_z2_add():
    assert Z2.add((3, -2), (-1, 5)) == (2, 3)


def test_free_add_reduces():
    # a.b * b^-1.a = a.a
    assert F2.add((1, 2), (-2, 1)) == (1, 1)


def test_identity_is_neutral():
    rng = random.Random(0)
    for lat in (Z, Z2, F2):
        for _ in range(20):
            s = rng.choice(lat.origin_ball(4))
            assert lat.add(s, lat.origin) == s
            assert lat.add(lat.origin, s) == s


def test_norms():
    assert Z2.norm((3, -2)) == 5
    assert F2.norm((1, 1, 2, -1)) == 4
    for lat in (Z, Z2, F2):
        assert lat.norm(lat.origin) == 0


def test_size_norm_is_linf_on_z2():
    assert Z2.size_norm((3, -2)) == 3
    assert Z.size_norm(-7) == 7
    assert F2.size_norm((1, 2)) == 2


@pytest.mark.parametrize("r", range(5))
def test_ball_cardinalities(r):
    assert len(Z.origin_ball(r)) == Z.ball_size(r) == 2 * r + 1
    assert len(Z2.origin_ball(r)) == Z2.ball_size(r) == 2 * r * r + 2 * r + 1
    f3 = free(3)
    n = 3
    expected = 1 if r == 0 else 1 + 2 * n * ((2 * n - 1) ** r - 1) // (2 * n - 2)
    assert len(f3.origin_ball(r)) == expected
    assert f3.ball_size(r) == expected


sites_z2 = st.tuples(st.integers(-30, 30), st.integers(-30, 30))
words = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=12).map(reduce_word)


@settings(max_examples=150, deadline=None)
@given(a=words, b=words)
def test_triangle_inequality_free(a, b):
    assert F2.norm(F2.add(a, b)) <= F2.norm(a) + F2.norm(b)


@settings(max_examples=150, deadline=None)
@given(a=sites_z2, b=sites_z2)
def test_triangle_inequality_z2(a, b):
    assert Z2.norm(Z2.add(a, b)) <= Z2.norm(a) + Z2.norm(b)


@settings(max_examples=150, deadline=None)
@given(a=words)
def test_norm_of_inverse(a):
    assert F2.norm(F2.neg(a)) == F2.norm(a)
    assert F2.add(a, F2.neg(a)) == ()


@settings(max_examples=150, deadline=None)
@given(letters=st.lists(st.sampled_from([1, -1, 2, -2]), max_size=14))
def test_reduction_idempotent_and_confluent(letters):
    reduced = reduce_word(letters)
    assert reduce_word(reduced) == reduced
    # reducing any split order agrees with reducing the whole word
    for cut in range(len(letters) + 1):
        left = reduce_word(letters[:cut])
        right = reduce_word(letters[cut:])
        assert reduce_word(left + right) == reduced


def test_site_text_roundtrip():
    assert Z.parse_site("7") == 7
    assert Z2.parse_site("3,-2") == (3, -2)
    assert F2.parse_site("a b A") == (1, 2, -1)
    assert F2.parse_site("e") == ()
    for lat, s in ((Z, -4), (Z2, (0, 9)), (F2, (1, -2, 1))):
        assert lat.parse_site(lat.format_site(s)) == s
    with pytest.raises(UsageError):
        F2.parse_site("q")
    with pytest.raises(UsageError):
        Z2.parse_site("3")


def test_identity_is_spelled_by_no_letter():
    # e is generator 5 from F_5 on; on F_1 to F_4 it still reads as identity
    for n in (1, 4, 5, 26):
        lat = free(n)
        assert lat.format_site(()) == "1" and lat.parse_site("1") == ()
        assert lat.parse_site("e") == (() if n < 5 else (5,))
        assert lat.parse_site(lat.format_site(lat.neg((n,)))) == (-n,)
    with pytest.raises(UsageError):
        free(2).parse_site("1 a")


def test_validate_site():
    with pytest.raises(UsageError):
        F2.validate_site((1, -1))   # unreduced
    with pytest.raises(UsageError):
        F2.validate_site((3,))      # generator outside F_2
    with pytest.raises(UsageError):
        Z2.validate_site((1, 2, 3))


def test_lattice_by_kind():
    assert lattice_by_kind("z") is Z
    assert lattice_by_kind("free:2") is F2
    with pytest.raises(UsageError):
        lattice_by_kind("hexagonal")
