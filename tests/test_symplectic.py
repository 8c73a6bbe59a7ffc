import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from catlab import (SymplecticMatrix, admissible_N, char_poly, is_symplectic,
                    phi_A, quantization_admissible, quantum_period)
from catlab.symplectic import form_matrix

CAT = [[2, 1], [1, 1]]
BLOCK = [[0, 0, 2, 1], [0, 0, 1, 1], [-2, -1, 0, 0], [-1, -1, 0, 0]]


def test_is_symplectic_examples():
    assert is_symplectic([[1, 0], [0, 1]])
    assert is_symplectic(CAT)
    assert is_symplectic(BLOCK)
    assert not is_symplectic([[2, 0], [0, 1]])
    with pytest.raises(ValueError):
        is_symplectic([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_constructor_rejects_non_symplectic():
    # det 1 but not symplectic: x2 += x1 with no compensating xi1 -= xi2
    shear = [[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 1, 0], [0, 0, 0, 1]]
    for entries in ([[2, 0], [0, 1]], shear, [[1, 0], [0, -1]],
                    [[0, 1], [1, 0]]):
        with pytest.raises(ValueError):
            SymplecticMatrix(entries)


def test_char_poly_matches_sympy_on_sampled_matrices():
    import sympy
    from catlab import sample_sp
    x = sympy.Symbol("x")
    for n in (1, 2, 3):
        for A in sample_sp(n, 12, 10, seed=n):
            for M in (A, A.power(3)):
                ref = sympy.Matrix([list(r) for r in M.entries]).charpoly(x)
                assert char_poly(M).coeffs == tuple(
                    int(c) for c in ref.all_coeffs())


def test_inverse_and_products_stay_symplectic():
    A = SymplecticMatrix(CAT)
    B = SymplecticMatrix(BLOCK)
    assert (A @ A).entries == ((5, 3), (3, 2))
    assert is_symplectic([list(r) for r in (B @ B).entries])
    ident = A @ A.inverse()
    assert ident.entries == ((1, 0), (0, 1))


def test_char_poly_examples():
    assert char_poly(SymplecticMatrix([[1, 0], [0, 1]])).coeffs == (1, -2, 1)
    cp = char_poly(SymplecticMatrix(CAT))
    assert cp.coeffs == (1, -3, 1)
    assert cp.reciprocal
    blk = SymplecticMatrix(BLOCK)
    assert char_poly(blk).coeffs == (1, 0, 7, 0, 1)
    assert char_poly(blk.power(2)).coeffs == (1, 14, 51, 14, 1)  # (x^2+7x+1)^2


def test_parity_vector_identity_and_uniqueness():
    assert phi_A(SymplecticMatrix([[1, 0], [0, 1]])) == (0, 0)
    # brute-force oracle values for the two standard examples
    assert phi_A(SymplecticMatrix(CAT)) == (0, 1)
    assert phi_A(SymplecticMatrix([[1, 1], [0, 1]])) == (1, 0)


def test_quantization_admissibility():
    A = SymplecticMatrix(CAT)
    assert quantization_admissible(A, 144)
    assert quantization_admissible(A, 2)
    assert not quantization_admissible(A, 3)  # odd N, phi has an odd entry
    I = SymplecticMatrix([[1, 0], [0, 1]])
    from fractions import Fraction
    assert quantization_admissible(I, 10, (Fraction(1, 3), Fraction(2, 7)))
    with pytest.raises(ValueError):
        quantization_admissible(A, 4, (0.5, 0.0))


def test_quantum_period_examples():
    A = SymplecticMatrix(CAT)
    assert quantum_period(A, 144) == 12
    assert quantum_period(A, 3) == 4
    assert quantum_period(A, 1) == 1
    with pytest.raises(ValueError):
        quantum_period(SymplecticMatrix([[1, 1], [0, 1]]), 5)


@given(st.integers(2, 40), st.integers(2, 6))
@settings(max_examples=20, deadline=None)
def test_quantum_period_divides_period_of_multiples(N, m):
    A = SymplecticMatrix(CAT)
    assert quantum_period(A, m * N) % quantum_period(A, N) == 0


def test_admissible_N_values_and_flags():
    A = SymplecticMatrix(CAT)
    assert admissible_N(A, 1).value == 1
    assert admissible_N(A, 2).value == 3
    nk = admissible_N(A, 6)
    assert (nk.value, nk.even, nk.admissible) == (144, True, True)
    assert admissible_N(A, 12).value == 46368
    assert not admissible_N(A, 4).admissible  # odd trace needs k = 0 mod 6
    B = SymplecticMatrix([[5, 2], [2, 1]])  # even trace: k = 0 mod 2
    nk = admissible_N(B, 6)
    assert (nk.value, nk.admissible) == (6930, True)


def test_admissible_N_parity_pattern():
    A = SymplecticMatrix(CAT)  # odd trace
    for k in range(1, 31):
        even = admissible_N(A, k).even
        assert even == (k % 3 == 0)
    B = SymplecticMatrix([[5, 2], [2, 1]])  # even trace
    for k in range(1, 31):
        assert admissible_N(B, k).even == (k % 2 == 0)


@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
@settings(max_examples=30, deadline=None)
def test_random_transvection_products_are_symplectic(a, b, c):
    arr = (np.array([[1, a], [0, 1]], dtype=object)
           @ np.array([[1, 0], [b, 1]], dtype=object)
           @ np.array([[1, c], [0, 1]], dtype=object))
    A = SymplecticMatrix(arr.tolist())
    J = form_matrix(1)
    assert (A.array().T @ J @ A.array() == J).all()
    assert char_poly(A).reciprocal
