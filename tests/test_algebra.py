"""Structure tensors: constructors, validation, basis changes."""

from fractions import Fraction

import pytest

from weightsys import algebra
from weightsys.algebra import (MetrizedLieAlgebra, algebra_by_name,
                               change_basis, make_abelian, make_gl, make_sl2,
                               make_so3, scale_metric, validate_algebra)


def _freeze2(m):
    return tuple(tuple(r) for r in m)


def _freeze3(m):
    return tuple(tuple(tuple(r) for r in p) for p in m)


def _antisym(dim, entries):
    """Totally antisymmetric tensor from a few seed entries."""
    f = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for (a, b, c), val in entries.items():
        for (x, y, z), s in (((a, b, c), 1), ((b, c, a), 1), ((c, a, b), 1),
                             ((a, c, b), -1), ((c, b, a), -1), ((b, a, c), -1)):
            f[x][y][z] = s * val
    return f


@pytest.mark.parametrize("alg", [
    make_gl(1), make_gl(2), make_gl(3),
    make_so3(), make_sl2(),
    make_abelian(1), make_abelian(3),
])
def test_builtins_are_valid(alg):
    assert validate_algebra(alg) is None


def test_gl_trace_form_is_a_self_inverse_permutation():
    alg = make_gl(2)
    assert alg.dim == 4
    assert alg.t == alg.t_inv
    # <E_00, E_00> = 1, <E_01, E_10> = 1, <E_01, E_01> = 0
    assert alg.t[0][0] == 1
    assert alg.t[1][2] == 1
    assert alg.t[1][1] == 0


def test_gl_bracket_samples():
    alg = make_gl(2)
    # <E_00, [E_01, E_10]> = 1 and swapping the bracket negates it.
    E00, E01, E10 = 0, 1, 2
    assert alg.f[E00][E01][E10] == 1
    assert alg.f[E00][E10][E01] == -1
    assert alg.f[E00][E00][E01] == 0


# Each entry is "abc" for f[a][b][c]; every other entry is 0.
@pytest.mark.parametrize("n,plus,minus", [
    (2, "012 120 132 201 213 321", "021 102 123 210 231 312"),
    (3, "013 026 130 143 156 260 273 286 301 314 327 431 "
        "457 561 574 587 602 615 628 732 745 758 862 875",
        "031 062 103 134 165 206 237 268 310 341 372 413 "
        "475 516 547 578 620 651 682 723 754 785 826 857"),
])
def test_gl_bracket_nonzero_entries_are_pinned(n, plus, minus):
    f = make_gl(n).f
    dim = n * n
    nonzero = {(a, b, c): f[a][b][c] for a in range(dim) for b in range(dim)
               for c in range(dim) if f[a][b][c]}
    expected = {**{tuple(map(int, abc)): 1 for abc in plus.split()},
                **{tuple(map(int, abc)): -1 for abc in minus.split()}}
    assert nonzero == expected


def test_so3_is_identity_metric_with_epsilon_bracket():
    alg = make_so3()
    assert alg.t == alg.t_inv
    assert alg.f[0][1][2] == 1
    assert alg.f[0][2][1] == -1
    assert alg.f[0][0][1] == 0


def test_sl2_halves_the_metric_and_bracket():
    alg = make_sl2()
    assert alg.t[0][0] == Fraction(1, 2)
    assert alg.t_inv[0][0] == 2
    assert alg.f[0][1][2] == Fraction(1, 2)


def test_abelian_has_zero_bracket():
    alg = make_abelian(4)
    assert all(x == 0 for p in alg.f for r in p for x in r)


@pytest.mark.parametrize("name,dim", [
    ("so3", 3), ("sl2", 3), ("gl:1", 1), ("gl:3", 9), ("abelian:2", 2),
])
def test_algebra_by_name(name, dim):
    alg = algebra_by_name(name)
    assert alg.name == name
    assert alg.dim == dim


@pytest.mark.parametrize("name", ["su2", "gl:0", "gl:x", "abelian:0", "gl:", ""])
def test_algebra_by_name_rejects(name):
    with pytest.raises(ValueError):
        algebra_by_name(name)


@pytest.mark.parametrize("name,built", [
    ("gl:6", ("gl", 6)), ("gl:7", None), ("abelian:36", ("abelian", 36)),
    ("abelian:37", None), ("gl:10000000000", None),
])
def test_algebra_by_name_refuses_dimensions_over_the_limit(monkeypatch, name,
                                                           built):
    # Stand-ins for the constructors: the refusal must come first, and the
    # limit itself must still resolve, without building a large algebra.
    made = []
    monkeypatch.setattr(algebra, "make_gl", lambda n: made.append(("gl", n)))
    monkeypatch.setattr(algebra, "make_abelian",
                        lambda n: made.append(("abelian", n)))
    if built:
        algebra_by_name(name)
        assert made == [built]
    else:
        with pytest.raises(ValueError, match="over the limit 36"):
            algebra_by_name(name)
        assert made == []


def test_validate_reports_asymmetric_t():
    base = make_so3()
    t = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
    broken = MetrizedLieAlgebra("x", 3, _freeze2(t), base.t_inv, base.f)
    assert "not symmetric" in validate_algebra(broken)


def test_validate_reports_wrong_inverse():
    base = make_so3()
    ti = [[2 if a == b else 0 for b in range(3)] for a in range(3)]
    broken = MetrizedLieAlgebra("x", 3, base.t, _freeze2(ti), base.f)
    assert "not the identity" in validate_algebra(broken)


def test_validate_reports_wrong_shape():
    base = make_so3()
    broken = MetrizedLieAlgebra("x", 4, base.t, base.t_inv, base.f)
    assert "shape" in validate_algebra(broken)


def test_validate_reports_broken_symmetry_of_f():
    base = make_so3()
    f = [[list(r) for r in p] for p in base.f]
    f[0][1][2] = 7  # breaks cyclicity against f[1][2][0] = 1
    broken = MetrizedLieAlgebra("x", 3, base.t, base.t_inv, _freeze3(f))
    assert "cyclic" in validate_algebra(broken)


def test_validate_reports_jacobi_failure():
    # Totally antisymmetric and metric-compatible, but two epsilon blocks
    # sharing one axis do not close under the bracket.
    eye = _freeze2([[int(a == b) for b in range(5)] for a in range(5)])
    f = _antisym(5, {(0, 1, 2): 1, (2, 3, 4): 1})
    broken = MetrizedLieAlgebra("x", 5, eye, eye, _freeze3(f))
    assert validate_algebra(broken).startswith("Jacobi fails")


def test_change_basis_identity_is_noop():
    alg = make_so3()
    eye = [[int(a == b) for b in range(3)] for a in range(3)]
    same = change_basis(alg, eye)
    assert same.t == alg.t
    assert same.t_inv == alg.t_inv
    assert same.f == alg.f


def test_change_basis_swap_negates_epsilon():
    alg = make_so3()
    swap = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    swapped = change_basis(alg, swap)
    assert swapped.f[0][1][2] == -1
    assert validate_algebra(swapped) is None


def test_change_basis_scaling_axis():
    alg = make_so3()
    p = [[2, 0, 0], [0, 1, 0], [0, 0, 1]]
    scaled = change_basis(alg, p)
    assert scaled.name == "so3'"
    assert scaled.t[0][0] == 4
    assert scaled.t_inv[0][0] == Fraction(1, 4)
    assert scaled.f[0][1][2] == 2
    assert validate_algebra(scaled) is None


def test_change_basis_keeps_validity_for_gl2():
    p = [[1, 2, 0, 0], [0, 1, 0, 0], [3, 0, 1, 0], [0, 0, 0, 1]]
    assert validate_algebra(change_basis(make_gl(2), p)) is None


def test_change_basis_rejects_bad_matrices():
    alg = make_so3()
    with pytest.raises(ValueError, match="shape"):
        change_basis(alg, [[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="singular"):
        change_basis(alg, [[1, 1, 0], [1, 1, 0], [0, 0, 1]])


def test_scale_metric():
    alg = scale_metric(make_so3(), 3)
    assert alg.name == "so3*3"
    assert alg.t[1][1] == 3
    assert alg.t_inv[1][1] == Fraction(1, 3)
    assert alg.f[0][1][2] == 3
    assert validate_algebra(alg) is None


def test_scale_metric_rejects_zero():
    with pytest.raises(ValueError):
        scale_metric(make_so3(), 0)
