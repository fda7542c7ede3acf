"""Exact linear algebra and reduced homology over chosen coefficients."""

from __future__ import annotations

import pytest

from hyperbetti import (
    GF2,
    GF3,
    QQ,
    FieldSpec,
    ParameterError,
    SimplicialComplex,
    parse_field,
    reduced_homology_dims,
)
from hyperbetti.homology import rank_over_field


def test_field_labels():
    assert QQ.label == "q"
    assert GF2.label == "gf2"
    assert FieldSpec(7).label == "gf7"


def test_parse_field_spellings():
    assert parse_field("q") == QQ
    assert parse_field("rational") == QQ
    assert parse_field("gf2") == GF2
    assert parse_field("gfP:3") == GF3
    assert parse_field("gfP:13") == FieldSpec(13)


def test_parse_field_rejects_junk():
    for bad in ("gf4", "gfP:4", "gfP:x", "zf2", ""):
        with pytest.raises(ParameterError):
            parse_field(bad)


def test_large_prime_characteristics():
    """Primality is decided exactly up to 2^64; nothing larger is taken."""
    assert FieldSpec(2**61 - 1).label == "gf2305843009213693951"
    with pytest.raises(ParameterError, match="prime"):
        FieldSpec((2**31 - 1) ** 2)
    with pytest.raises(ParameterError, match="below 2\\^64"):
        FieldSpec(2**64 + 13)


def test_rank_depends_on_characteristic():
    """A matrix of determinant 2 drops rank exactly over GF(2)."""
    rows = [{0: 1, 1: 1}, {0: 1, 1: -1}]
    assert rank_over_field(rows, QQ) == 2
    assert rank_over_field([dict(r) for r in rows], GF2) == 1
    assert rank_over_field([dict(r) for r in rows], GF3) == 2


def test_rank_sees_through_scaling():
    """Fraction-free elimination: proportional integer rows are dependent."""
    rows = [{0: 2, 1: 4, 7: 6}, {0: 1, 1: 2, 7: 3}]
    assert rank_over_field(rows, QQ) == 1


def test_hollow_triangle_is_a_circle():
    c = SimplicialComplex.from_faces(3, [[0, 1], [1, 2], [0, 2]])
    assert reduced_homology_dims(c, QQ) == {1: 1}


def test_hollow_tetrahedron_is_a_sphere():
    faces = [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]
    c = SimplicialComplex.from_faces(4, faces)
    assert reduced_homology_dims(c, GF2) == {2: 1}


def test_two_points_have_reduced_h0():
    c = SimplicialComplex.from_faces(2, [[0], [1]])
    assert reduced_homology_dims(c, QQ) == {0: 1}


def test_empty_complex_carries_degree_minus_one():
    """The complex whose only face is empty has one unit in degree -1."""
    c = SimplicialComplex(2, frozenset({0}))
    assert reduced_homology_dims(c, QQ) == {-1: 1}


def test_full_simplex_is_acyclic():
    c = SimplicialComplex.from_faces(4, [[0, 1, 2, 3]])
    assert reduced_homology_dims(c, GF3) == {}


def test_projective_plane_detects_characteristic_two():
    """Six-vertex closed surface: torsion shows up only over GF(2)."""
    rp2 = [
        [0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 5], [0, 1, 5],
        [1, 2, 4], [1, 3, 4], [1, 3, 5], [2, 3, 5], [2, 4, 5],
    ]
    c = SimplicialComplex.from_faces(6, rp2)
    assert reduced_homology_dims(c, QQ) == {}
    assert reduced_homology_dims(c, GF3) == {}
    assert reduced_homology_dims(c, GF2) == {1: 1, 2: 1}
