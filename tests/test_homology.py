"""Exact linear algebra and reduced homology over chosen coefficients."""

from __future__ import annotations

import copy
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperbetti import (
    GF2,
    GF3,
    QQ,
    FieldSpec,
    ParameterError,
    SimplicialComplex,
    SizeBudgetError,
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


FIELDS = [GF2, GF3, FieldSpec(7), FieldSpec(2**61 - 1), QQ]


def _dense_rank(rows, p):
    """Gauss-Jordan elimination on a dense copy: Fractions over Q, residues
    mod p over GF(p)."""
    cols = sorted({c for row in rows for c in row})
    if p is None:
        m = [[Fraction(row.get(c, 0)) for c in cols] for row in rows]
    else:
        m = [[row.get(c, 0) % p for c in cols] for row in rows]
    rank = 0
    for j in range(len(cols)):
        pivot = next((i for i in range(rank, len(m)) if m[i][j]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][j] if p is None else pow(m[rank][j], -1, p)
        for i in range(len(m)):
            if i != rank and m[i][j]:
                f = m[i][j] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
                if p is not None:
                    m[i] = [a % p for a in m[i]]
        rank += 1
    return rank


@st.composite
def sparse_matrices(draw):
    """Rows over a few column labels up to bit 62, entries in -3..3 (zeros
    kept), some rows empty and some repeated as the same dict object."""
    labels = draw(st.lists(st.integers(0, (1 << 63) - 1), min_size=1, max_size=7, unique=True))
    row = st.dictionaries(st.sampled_from(labels), st.integers(-3, 3), max_size=len(labels))
    rows = draw(st.lists(row, max_size=8))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    return draw(st.permutations(rows))


_SHARED = {1 << 62: -1, 5: 2, 0: 3}


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.label)
@settings(max_examples=150, deadline=None)
@given(rows=sparse_matrices())
@example(rows=[{}, {7: 2, 1 << 40: 1}, _SHARED, _SHARED, {}, {5: -3, 0: 3}, {7: -2}])
def test_rank_agrees_with_dense_elimination(field, rows):
    """Each field's kernel against Gauss-Jordan on a dense copy: even
    entries vanish over GF(2), multiples of 3 over GF(3), and leading
    entries of +-2 and +-3 take Q's fraction-free step."""
    assert rank_over_field(rows, field) == _dense_rank(rows, field.p)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.label)
@settings(max_examples=40, deadline=None)
@given(rows=sparse_matrices())
@example(rows=[_SHARED, _SHARED, {5: 1, 1 << 62: 1}, {0: -1}, {0: 2, 5: -1}])
def test_rank_leaves_its_rows_unchanged(field, rows):
    """Rows go in as the caller's dicts, some of them one object twice; no
    kernel may reduce them in place or keep one as a pivot."""
    before = copy.deepcopy(rows)
    rank_over_field(rows, field)
    assert rows == before


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


def test_face_enumeration_past_the_face_budget_is_refused():
    """The full simplex on 23 vertices has 2^23 faces, twice the budget:
    refused before any is listed."""
    c = SimplicialComplex.from_faces(23, [list(range(23))])
    with pytest.raises(
        SizeBudgetError,
        match="^face enumeration cost 8388608 exceeds the face budget 4194304$",
    ):
        reduced_homology_dims(c, GF2)


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
