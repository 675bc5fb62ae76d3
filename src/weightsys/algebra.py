"""Metrized Lie algebras over the rationals, given by structure tensors.

An algebra of dimension ``dim`` carries

* ``t[a][b]``     — the invariant scalar product ⟨L_a, L_b⟩,
* ``t_inv[a][b]`` — its inverse matrix,
* ``f[a][b][c]``  — the fully lowered bracket tensor ⟨L_a, [L_b, L_c]⟩,

all with exact entries (``int`` or ``Fraction``).  Nothing else about the
algebra is consulted; any tensor pair with the right symmetries works,
which is all the state sum needs.

``validate_algebra`` checks the symmetries (t symmetric, t·t_inv = id,
f cyclic and antisymmetric, Jacobi) and reports the first violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product


Scalar = int | Fraction


@dataclass(frozen=True)
class MetrizedLieAlgebra:
    name: str
    dim: int
    t: tuple[tuple[Scalar, ...], ...]
    t_inv: tuple[tuple[Scalar, ...], ...]
    f: tuple[tuple[tuple[Scalar, ...], ...], ...]

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The hash of the fields, taken once: the state sum's cache hashes
        the algebra on every call, and that walks all dim^3 bracket
        entries, whose Fractions hash in Python code."""
        return hash((self.name, self.dim, self.t, self.t_inv, self.f))


def _freeze2(m) -> tuple[tuple[Scalar, ...], ...]:
    return tuple(tuple(row) for row in m)


def _freeze3(m) -> tuple[tuple[tuple[Scalar, ...], ...], ...]:
    return tuple(tuple(tuple(row) for row in plane) for plane in m)


def make_gl(n: int) -> MetrizedLieAlgebra:
    """gl(n) with the trace form ⟨x, y⟩ = tr(xy) on matrix units.

    Basis vector ``(i, j)`` (flattened to ``i*n + j``) is the matrix unit
    E_ij.  Then ⟨E_ij, E_kl⟩ = δ_jk δ_il, a permutation matrix equal to
    its own inverse, and

        ⟨E_ij, [E_kl, E_mn]⟩ = δ_jk δ_lm δ_ni − δ_jm δ_nk δ_li.
    """
    if n < 1:
        raise ValueError("gl(n) needs n >= 1")
    dim = n * n
    t = [[0] * dim for _ in range(dim)]
    f = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for i, j, k in product(range(n), repeat=3):
        # One δ-term each: ⟨E_ij, [E_jk, E_ki]⟩ and ⟨E_ij, [E_ki, E_jk]⟩.
        ij, jk, ki = i * n + j, j * n + k, k * n + i
        t[ij][j * n + i] = 1
        f[ij][jk][ki] += 1
        f[ij][ki][jk] -= 1
    tt = _freeze2(t)
    return MetrizedLieAlgebra(f"gl:{n}", dim, tt, tt, _freeze3(f))


_EPS = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
        (0, 2, 1): -1, (2, 1, 0): -1, (1, 0, 2): -1}


def make_so3() -> MetrizedLieAlgebra:
    """so(3) in the basis where the metric is the identity and the
    bracket tensor is the Levi-Civita symbol."""
    eye = _freeze2([[int(a == b) for b in range(3)] for a in range(3)])
    f = [[[_EPS.get((a, b, c), 0) for c in range(3)]
          for b in range(3)] for a in range(3)]
    return MetrizedLieAlgebra("so3", 3, eye, eye, _freeze3(f))


def make_sl2() -> MetrizedLieAlgebra:
    """sl(2) presented on the orthogonal so(3)-style axis basis.

    The matrix trace form of 2×2 traceless matrices restricts on that
    basis to ½·id, which forces the lowered bracket tensor down to
    ½·ε as well (one metric contraction deep).  Nothing about the
    relation to the so(3) normalization is hard-coded here; it comes
    out of evaluation.
    """
    half = Fraction(1, 2)
    t = [[half if a == b else 0 for b in range(3)] for a in range(3)]
    t_inv = [[2 if a == b else 0 for b in range(3)] for a in range(3)]
    f = [[[half * _EPS[(a, b, c)] if (a, b, c) in _EPS else 0
           for c in range(3)] for b in range(3)] for a in range(3)]
    return MetrizedLieAlgebra("sl2", 3, _freeze2(t), _freeze2(t_inv),
                              _freeze3(f))


def make_abelian(n: int) -> MetrizedLieAlgebra:
    """R^n with the standard inner product and zero bracket."""
    if n < 1:
        raise ValueError("abelian:n needs n >= 1")
    eye = _freeze2([[int(a == b) for b in range(n)] for a in range(n)])
    f = _freeze3([[[0] * n for _ in range(n)] for _ in range(n)])
    return MetrizedLieAlgebra(f"abelian:{n}", n, eye, eye, f)


# The largest algebra dimension algebra_by_name builds: gl:6 and
# abelian:36.  validate_algebra grows about as dim^4.4 (pure Python:
# 2.1 s at gl:5, 10.6 s at gl:6), and the dense bracket table holds dim^3
# entries, about 6 GB at gl:30.
MAX_ALGEBRA_DIM = 36


def algebra_by_name(name: str) -> MetrizedLieAlgebra:
    """Resolve ``gl:<n>``, ``so3``, ``sl2``, ``abelian:<n>``; a named
    dimension over MAX_ALGEBRA_DIM is refused before anything is built."""
    if name == "so3":
        return make_so3()
    if name == "sl2":
        return make_sl2()
    if name.startswith("gl:"):
        n = _positive_suffix(name)
        _check_dim(name, n * n)
        return make_gl(n)
    if name.startswith("abelian:"):
        n = _positive_suffix(name)
        _check_dim(name, n)
        return make_abelian(n)
    raise ValueError(f"unknown algebra {name!r}")


def _positive_suffix(name: str) -> int:
    suffix = name.split(":", 1)[1]
    if not (suffix.isascii() and suffix.isdigit()) or int(suffix) < 1:
        raise ValueError(f"bad dimension parameter in {name!r}")
    return int(suffix)


def _check_dim(name: str, dim: int) -> None:
    if dim > MAX_ALGEBRA_DIM:
        raise ValueError(f"algebra {name!r} has dimension {dim}, over the "
                         f"limit {MAX_ALGEBRA_DIM}")


def _mat_inverse(m) -> list[list[Fraction]]:
    """Exact Gauss-Jordan inverse; raises ValueError if singular."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            raise ValueError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        scale = 1 / a[col][col]
        a[col] = [x * scale for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                c = a[r][col]
                a[r] = [x - c * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def validate_algebra(alg: MetrizedLieAlgebra) -> str | None:
    """Return None if all invariants hold, else a description of the
    first violation found (with 0-based indices).

    Checked in order: tensor shapes; t symmetric; t·t_inv = identity;
    f cyclic (f_abc = f_bca) and antisymmetric in adjacent slots;
    the Jacobi identity with one index raised through t_inv.
    """
    d = alg.dim
    t, ti, f = alg.t, alg.t_inv, alg.f
    if len(t) != d or any(len(r) != d for r in t):
        return "t has wrong shape"
    if len(ti) != d or any(len(r) != d for r in ti):
        return "t_inv has wrong shape"
    if len(f) != d or any(len(p) != d for p in f) or \
            any(len(r) != d for p in f for r in p):
        return "f has wrong shape"
    for a in range(d):
        for b in range(d):
            if t[a][b] != t[b][a]:
                return f"t not symmetric at ({a},{b})"
    for a in range(d):
        for b in range(d):
            prod = sum(t[a][e] * ti[e][b] for e in range(d) if t[a][e])
            if prod != int(a == b):
                return f"t*t_inv is not the identity at ({a},{b})"
    for a in range(d):
        for b in range(d):
            for c in range(d):
                if f[a][b][c] != f[b][c][a]:
                    return f"f not cyclic at ({a},{b},{c})"
                if f[a][b][c] != -f[a][c][b]:
                    return f"f not antisymmetric at ({a},{b},{c})"
    # Jacobi, paired against every basis vector d:
    #   sum over cyclic (x,y,z) of  f_exy t^{ee'} f_{e'zd}  must vanish.
    for a in range(d):
        for b in range(d):
            for c in range(d):
                for dd in range(d):
                    total = 0
                    for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                        for e in range(d):
                            if not f[x][y][e]:
                                continue
                            for ee in range(d):
                                w = ti[e][ee]
                                if w:
                                    total += f[x][y][e] * w * f[ee][z][dd]
                    if total:
                        return f"Jacobi fails at ({a},{b},{c},{dd})"
    return None


def change_basis(alg: MetrizedLieAlgebra, p) -> MetrizedLieAlgebra:
    """Rewrite the tensors in the new basis ``y_a = Σ_i p[a][i] x_i``.

    Both lowered tensors transform covariantly (two resp. three factors
    of P); the stored inverse metric is recomputed by exact inversion,
    which also rejects a singular P.
    """
    d = alg.dim
    if len(p) != d or any(len(r) != d for r in p):
        raise ValueError("basis matrix has wrong shape")
    b = [[Fraction(x) for x in row] for row in p]
    t_new = [[sum(b[a][i] * alg.t[i][j] * b[c][j]
                  for i in range(d) for j in range(d)
                  if b[a][i] and alg.t[i][j])
              for c in range(d)] for a in range(d)]
    t_inv_new = _mat_inverse(t_new)
    f_new = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    for i in range(d):
        for j in range(d):
            for k in range(d):
                fv = alg.f[i][j][k]
                if not fv:
                    continue
                for a in range(d):
                    bai = b[a][i]
                    if not bai:
                        continue
                    for c in range(d):
                        bcj = b[c][j]
                        if not bcj:
                            continue
                        w = bai * bcj * fv
                        for e in range(d):
                            if b[e][k]:
                                f_new[a][c][e] += w * b[e][k]
    return MetrizedLieAlgebra(f"{alg.name}'", d, _freeze2(t_new),
                              _freeze2(t_inv_new), _freeze3(f_new))


def scale_metric(alg: MetrizedLieAlgebra,
                 factor: Scalar) -> MetrizedLieAlgebra:
    """The same underlying Lie algebra with metric multiplied by ``factor``.

    t picks up the factor, t_inv divides by it, and the lowered bracket
    tensor (one metric contraction deep) picks up one factor too.
    """
    if not factor:
        raise ValueError("metric scale factor must be nonzero")
    lam = Fraction(factor)
    t = [[x * lam for x in row] for row in alg.t]
    ti = [[x / lam for x in row] for row in alg.t_inv]
    f = [[[x * lam for x in row] for row in plane] for plane in alg.f]
    return MetrizedLieAlgebra(f"{alg.name}*{factor}", alg.dim,
                              _freeze2(t), _freeze2(ti), _freeze3(f))
