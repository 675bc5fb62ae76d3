"""Exact integer polynomials in N."""

import pytest

from weightsys.ribbon import IntPolynomial


def test_zero_coefficients_are_dropped():
    p = IntPolynomial({3: 2, 1: 0})
    assert p.coefficient(1) == 0
    assert p.coefficient(3) == 2
    assert p == IntPolynomial({3: 2})


def test_duplicate_exponents_accumulate():
    p = IntPolynomial([(2, 1), (2, 2), (0, 5), (0, -5)])
    assert p == IntPolynomial({2: 3})


def test_negative_exponents_rejected():
    with pytest.raises(ValueError):
        IntPolynomial({-1: 4})


def test_immutable():
    p = IntPolynomial({1: 1})
    with pytest.raises(AttributeError):
        p._coeffs = {}


def test_degree_and_zero():
    assert IntPolynomial({5: 1, 2: -3}).degree == 5
    assert IntPolynomial().degree == -1
    assert IntPolynomial({0: 0}) == IntPolynomial()
    assert IntPolynomial({0: 2}) != IntPolynomial()


def test_evaluation():
    p = IntPolynomial({3: 2, 1: -2})
    assert p(2) == 12
    assert p(1) == 0
    assert p(-1) == 0
    assert p(10) == 1980


def test_equality_with_ints():
    # A polynomial is never equal to an int, the constant ones included,
    # so a stray "== 0" cannot pass by accident.
    assert IntPolynomial() != 0
    assert IntPolynomial({0: 7}) != 7
    assert IntPolynomial({1: 1}) != 1


def test_hash_consistency():
    a = IntPolynomial({3: 2, 1: -2})
    b = IntPolynomial({1: -2, 3: 2})
    assert a == b and hash(a) == hash(b)


def test_items_descending():
    p = IntPolynomial({1: -2, 6: 1, 3: 4})
    assert p.terms == ((6, 1), (3, 4), (1, -2))


@pytest.mark.parametrize("coeffs,text", [
    ({}, "0"),
    ({0: -5}, "-5"),
    ({1: 1}, "N"),
    ({1: -1}, "-N"),
    ({3: 2, 1: -2}, "2*N^3 - 2*N"),
    ({2: -1, 0: 3}, "-N^2 + 3"),
    ({6: 2, 4: 22, 2: -24}, "2*N^6 + 22*N^4 - 24*N^2"),
])
def test_str(coeffs, text):
    assert str(IntPolynomial(coeffs)) == text


def test_json_round_trip():
    p = IntPolynomial({6: 2, 4: 22, 2: -24})
    blob = p.to_json()
    assert blob == {"6": "2", "4": "22", "2": "-24"}
    assert all(isinstance(k, str) and isinstance(v, str) for k, v in blob.items())
    assert IntPolynomial().to_json() == {}


def test_json_big_coefficients_survive():
    p = IntPolynomial({2: 10 ** 40})
    assert p.to_json() == {"2": "1" + "0" * 40}


def test_pickle_round_trip():
    # Crossing process boundaries must work despite the setattr block.
    import pickle
    p = IntPolynomial({3: 2, 1: -2})
    assert pickle.loads(pickle.dumps(p)) == p
    assert pickle.loads(pickle.dumps(IntPolynomial())) == IntPolynomial()


def test_pickle_keeps_the_hash():
    import pickle
    for p in (IntPolynomial({3: 2, 1: -2}), IntPolynomial()):
        q = pickle.loads(pickle.dumps(p))
        assert q == p and hash(q) == hash(p)


@pytest.mark.parametrize("name", ["terms", "_coeffs", "degree", "extra"])
def test_no_attribute_can_be_set(name):
    p = IntPolynomial({1: 1})
    with pytest.raises(AttributeError):
        setattr(p, name, ())
    assert p == IntPolynomial({1: 1})
