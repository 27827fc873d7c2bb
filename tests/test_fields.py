import pytest

from koszulkit.errors import InputError
from koszulkit.fields import DEFAULT_MODULUS, MAX_MODULUS, PrimeField, QQ, is_prime


def test_rational_arithmetic_is_exact():
    third = QQ.of(1) / QQ.of(3)
    sixth = QQ.of(1) / QQ.of(6)
    assert third + sixth == QQ.of(1) / QQ.of(2)
    assert third * QQ.of(3) == QQ.one
    assert QQ.zero + QQ.one == QQ.one


def test_prime_field_inverses():
    gf = PrimeField(7)
    for v in range(1, 7):
        a = gf.of(v)
        assert a * (gf.one / a) == gf.one
    assert gf.of(7) == gf.zero
    assert gf.of(-1) == gf.of(6)


def test_default_modulus_is_prime():
    assert is_prime(DEFAULT_MODULUS)
    assert PrimeField().p == DEFAULT_MODULUS


def test_non_prime_modulus_rejected():
    with pytest.raises(InputError):
        PrimeField(4)
    with pytest.raises(InputError):
        PrimeField(1)


def test_primality_matches_trial_division():
    def by_division(n):
        return n >= 2 and all(n % f for f in range(2, int(n ** 0.5) + 1))
    assert [n for n in range(3000) if is_prime(n)] == \
        [n for n in range(3000) if by_division(n)]
    # strong pseudoprimes to the prime bases up to 7 and up to 31
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)


def test_large_prime_modulus():
    assert PrimeField(10**18 + 3).p == 10**18 + 3
    assert 101 * 9901 * 999999000001 == 10**18 + 1
    with pytest.raises(InputError):
        PrimeField(10**18 + 1)
    # MAX_MODULUS is the least strong pseudoprime to all twelve bases
    for p in (MAX_MODULUS, MAX_MODULUS + 2, 2**89 - 1):
        with pytest.raises(InputError):
            PrimeField(p)


def test_field_equality_and_hash():
    assert PrimeField(7) == PrimeField(7)
    assert PrimeField(7) != PrimeField(11)
    assert len({PrimeField(7), PrimeField(7), QQ}) == 2
