"""Marking expansion: boundary counts, the gl(N) polynomial, planarity."""

from pathlib import Path

import pytest

from weightsys import kernels
from weightsys.algebra import make_gl
from weightsys.graphs import (TrivalentGraph, face_orbits, flip_vertices,
                              parse_graph)
from weightsys.ribbon import (IntPolynomial, MarkingProfile, genus,
                              marking_profile, rotation_of_marking)
from weightsys.statesum import evaluate_weight
from oracles import first_spherical_by_flips, lagrange_int_poly

DATA = Path(__file__).parent / "data"

THETA = TrivalentGraph(2, (4, 3, 5, 1, 0, 2))
THETA_TWISTED = TrivalentGraph(2, (3, 4, 5, 0, 1, 2))


def load(name):
    return parse_graph((DATA / name).read_bytes())


def test_rotation_of_marking_is_selective_flipping():
    assert rotation_of_marking(THETA, (1, 1)) == THETA
    assert rotation_of_marking(THETA, (-1, 1)) == flip_vertices(THETA, (0,))
    k4 = load("k4.tgf")
    assert rotation_of_marking(k4, (-1, 1, -1, 1)) == \
        flip_vertices(flip_vertices(k4, (0,)), (2,))


def test_rotation_of_marking_length_check():
    with pytest.raises(ValueError):
        rotation_of_marking(THETA, (1, 1, 1))


@pytest.mark.parametrize("m,bad", [
    ((1, 1, 1, 0), "0"), ((2, 1, -1, 1), "2"), ((1, -2, 1, 1), "-2"),
])
def test_rotation_of_marking_refuses_entries_other_than_plus_minus_one(m, bad):
    with pytest.raises(ValueError, match=f"^marking entry {bad} is not"):
        rotation_of_marking(load("k4.tgf"), m)


def test_boundary_count_theta():
    # The boundary circles of a marking's surface are the faces of the
    # re-oriented rotation system.
    counts = [len(face_orbits(rotation_of_marking(THETA, m)))
              for m in ((1, 1), (-1, 1), (1, -1), (-1, -1))]
    assert counts == [3, 1, 1, 3]


def test_genus_zero_markings_are_the_spherical_ones():
    # Markings in binary-counter order, vertex 0 least significant.
    for name in ("theta", "dumbbell", "k4", "k33"):
        g = load(name + ".tgf")
        v = g.vertex_count
        markings = [tuple(-1 if (mask >> i) & 1 else 1 for i in range(v))
                    for mask in range(1 << v)]
        spherical = [m for m in markings
                     if genus(rotation_of_marking(g, m)) == 0]
        profile = marking_profile(g)
        assert len(spherical) == profile.spherical
        assert (spherical[0] if spherical else None) == profile.first


@pytest.mark.parametrize("name,coeffs", [
    ("theta", {3: 2, 1: -2}),
    ("dumbbell", {}),
    ("k4", {4: 2, 2: -2}),
    ("cube", {6: 2, 4: 22, 2: -24}),
    ("k33", {}),
])
def test_wgl_polynomial_goldens(name, coeffs):
    assert marking_profile(load(name + ".tgf")).wgl == IntPolynomial(coeffs)


def negated(p):
    return IntPolynomial((e, -c) for e, c in p.terms)


def test_wgl_negates_under_a_single_flip():
    assert marking_profile(THETA_TWISTED).wgl == \
        negated(marking_profile(THETA).wgl)
    k4 = load("k4.tgf")
    assert marking_profile(flip_vertices(k4, (2,))).wgl == \
        negated(marking_profile(k4).wgl)


@pytest.mark.parametrize("name,top,spherical,planar", [
    ("theta", 2, 2, True),
    ("dumbbell", 0, 4, True),
    ("k4", 2, 2, True),
    ("cube", 2, 2, True),
    ("k33", 0, 0, False),
])
def test_top_and_spherical_goldens(name, top, spherical, planar):
    profile = marking_profile(load(name + ".tgf"))
    assert profile.top == top
    assert profile.spherical == spherical
    assert (profile.spherical > 0) is planar


def test_first_spherical_marking_theta():
    assert marking_profile(THETA).first == (1, 1)
    assert marking_profile(THETA_TWISTED).first == (-1, 1)


def test_first_spherical_marking_dumbbell_and_k33():
    assert marking_profile(load("dumbbell.tgf")).first == (1, 1)
    assert marking_profile(load("k33.tgf")).first is None


@pytest.mark.parametrize("name", ["theta", "dumbbell", "k4", "cube", "k33"])
def test_first_spherical_marking_matches_flip_oracle(name):
    g = load(name + ".tgf")
    assert marking_profile(g).first == first_spherical_by_flips(g)


def test_first_spherical_marking_matches_flip_oracle_on_catalog(catalog_v8):
    assert len(catalog_v8) == 95
    for g in catalog_v8:
        assert marking_profile(g).first == first_spherical_by_flips(g), g


def test_marking_profile_agrees_with_pieces():
    # Each field comes from the one scan; w_top is the N^(v/2+2)
    # coefficient of the scan's histogram.
    for name in ("theta", "dumbbell", "k4", "cube", "k33"):
        g = load(name + ".tgf")
        v = g.vertex_count
        signed_by_b, spherical, first_mask = kernels.marking_scan(g.alpha, v)
        profile = marking_profile(g)
        assert profile.wgl == IntPolynomial(enumerate(signed_by_b))
        assert profile.spherical == spherical
        assert profile.top == signed_by_b[v // 2 + 2]
        assert (profile.first is None) == (first_mask < 0)


def test_marking_profile_fields():
    profile = marking_profile(load("k4.tgf"))
    assert isinstance(profile, MarkingProfile)
    assert profile == (IntPolynomial({4: 2, 2: -2}), 2, 2, (1, 1, 1, 1))
    assert profile._fields == ("wgl", "spherical", "top", "first")


def test_marking_profile_of_the_empty_graph():
    # Refused as the graph is built, before any scan; the kernels refuse
    # raw v = 0 arrays too.
    with pytest.raises(ValueError, match="positive"):
        marking_profile(TrivalentGraph(0, ()))


def test_requires_connected():
    two_thetas = TrivalentGraph(4, (4, 3, 5, 1, 0, 2, 10, 9, 11, 7, 6, 8))
    with pytest.raises(ValueError,
                       match="graph is not connected"):
        marking_profile(two_thetas)


def test_exponent_parity():
    # b = v/2 + 2 - 2g, so every exponent has the parity of v/2.
    for name in ("theta", "k4", "cube"):
        g = load(name + ".tgf")
        for e, c in marking_profile(g).wgl.terms:
            assert c != 0
            assert e % 2 == (g.vertex_count // 2) % 2


@pytest.mark.parametrize("name,points", [
    ("theta", (1, 2, 3, 4)),
    ("k4", (1, 2, 3, 4, 5)),
])
def test_polynomial_interpolates_the_tensor_route(name, points):
    # deg wgl <= v/2 + 2 and wgl(N) is the gl(N) weight, so interpolating
    # the tensor values at v/2 + 2 points must reproduce the polynomial.
    g = load(name + ".tgf")
    samples = [(n, evaluate_weight(g, make_gl(n))) for n in points]
    assert lagrange_int_poly(samples) == dict(marking_profile(g).wgl.terms)


def test_face_orbits_of_marking():
    faces = face_orbits(rotation_of_marking(THETA, (-1, 1)))
    assert faces == [(0, 5, 2, 4, 1, 3)]
