"""Monomial ideals, colon steps, quotient orders, and dual shellings."""

from __future__ import annotations

from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperbetti import (
    Hypergraph,
    MonomialIdeal,
    ParameterError,
    PreconditionError,
    edge_ideal,
    make_line,
    make_star_overlap,
    search_d_quotients,
    search_d_shelling,
    stanley_reisner_ideal,
    verify_d_quotients,
    verify_d_shelling,
)
from hyperbetti.bitsets import mask_of
from hyperbetti.complexes import SimplicialComplex, independence_complex
from hyperbetti.ideal import (
    QuotientCertificate,
    QuotientRefusal,
    ShellingCertificate,
    ShellingRefusal,
    colon_by_generator,
    duality_bridge,
    extend_ring,
    quotient_order_from_shelling,
    shelling_order_from_quotient,
    sr_complex,
)


def _ideal(n, *supports):
    return MonomialIdeal.from_supports(n, supports)


def test_minimalize_drops_multiples():
    raw = MonomialIdeal(4, (0b0011, 0b0111, 0b1100))
    assert raw.minimalize().generators == (0b0011, 0b1100)


def test_export_text_one_product_per_line():
    ideal = _ideal(4, [0, 1, 2], [1, 2, 3])
    assert ideal.export_text() == "x1*x2*x3\nx2*x3*x4"


def test_export_text_of_zero_ideal():
    assert MonomialIdeal(3, ()).export_text() == ""


def test_edge_ideal_and_stanley_reisner_agree():
    """The edge ideal equals the face ideal of the independence complex."""
    h = make_line(2, 3, 1)
    assert edge_ideal(h) == stanley_reisner_ideal(independence_complex(h))


def test_sr_complex_inverts_stanley_reisner():
    c = SimplicialComplex.from_faces(4, [[0, 1], [1, 2], [2, 3]])
    assert sr_complex(stanley_reisner_ideal(c)) == c


def test_colon_divides_away_shared_support():
    ideal = _ideal(5, [0, 1, 2])
    colon = colon_by_generator(ideal, mask_of([2, 3, 4]))
    assert colon.generators == (mask_of([0, 1]),)


def test_star_ideal_has_degree_two_quotients():
    """Arms through a common core colon down to their free pairs."""
    ideal = edge_ideal(make_star_overlap(3, 3, 1))
    ordering = search_d_quotients(ideal, 2)
    assert ordering is not None
    cert = verify_d_quotients(ideal, ordering, 2)
    assert not isinstance(cert, QuotientRefusal)
    assert cert.colon_generators[0] == ()
    assert [len(step) for step in cert.colon_generators] == [0, 1, 2]


def test_line_with_far_edges_has_no_degree_two_quotients():
    """Disjoint supports leave a full-degree colon generator at some step."""
    ideal = edge_ideal(make_line(3, 3, 1))
    assert search_d_quotients(ideal, 2) is None


def test_disjoint_generators_are_refused_strictly():
    """Right colon degree, but the union covers the whole ring."""
    ideal = _ideal(4, [0, 1], [2, 3])
    refusal = verify_d_quotients(ideal, (0, 1), 2)
    assert isinstance(refusal, QuotientRefusal)
    assert refusal.step == 1
    assert search_d_quotients(ideal, 2) is None


def test_embedding_recovers_classical_quotients():
    """One spare variable turns the strict refusal into the classical call."""
    embedded = extend_ring(_ideal(4, [0, 1], [2, 3]))
    ordering = search_d_quotients(embedded, 2)
    assert ordering is not None
    cert = verify_d_quotients(embedded, ordering, 2)
    assert not isinstance(cert, QuotientRefusal)


def test_quotient_certificate_serializes():
    ideal = edge_ideal(make_star_overlap(3, 3, 1))
    ordering = search_d_quotients(ideal, 2)
    cert = verify_d_quotients(ideal, ordering, 2)
    obj = cert.to_json_obj()
    assert set(obj) == {"d", "ordering", "colon_generators"}
    assert obj["d"] == 2


def test_shelling_of_two_triangles():
    c = SimplicialComplex.from_faces(4, [[0, 1, 2], [1, 2, 3]])
    order = search_d_shelling(c, 1)
    assert order is not None
    cert = verify_d_shelling(c, order, 1)
    assert not isinstance(cert, ShellingRefusal)
    assert cert.removed_sets[0] == ()


def test_shelling_refusal_names_the_step():
    c = SimplicialComplex.from_faces(5, [[0, 1, 2], [2, 3, 4]])
    refusal = verify_d_shelling(c, sorted(c.facets), 1)
    assert isinstance(refusal, ShellingRefusal)
    assert refusal.step == 1


def test_shelling_search_budget():
    from hyperbetti import SizeBudgetError

    c = SimplicialComplex.from_faces(6, [[i, j] for i in range(6) for j in range(i + 1, 6)])
    with pytest.raises(SizeBudgetError):
        search_d_shelling(c, 1, max_facets=5)


def test_duality_bridge_swaps_quotients_and_shellings():
    """A quotient order of the ideal is a shelling of the complement complex."""
    ideal = edge_ideal(make_star_overlap(3, 3, 1))
    ordering = search_d_quotients(ideal, 2)
    complex_ = duality_bridge(ideal)
    facet_order = shelling_order_from_quotient(ideal, ordering)
    cert = verify_d_shelling(complex_, facet_order, 2)
    assert not isinstance(cert, ShellingRefusal)
    assert quotient_order_from_shelling(ideal, facet_order) == tuple(ordering)


def test_negative_node_budgets_are_refused():
    ideal = edge_ideal(make_line(3, 3, 1))
    with pytest.raises(ParameterError, match="node budget must be nonnegative"):
        search_d_quotients(ideal, 2, node_budget=-1)
    with pytest.raises(ParameterError, match="node budget must be nonnegative"):
        search_d_shelling(duality_bridge(ideal), 2, node_budget=-5)


def test_extend_ring_keeps_generators():
    ideal = _ideal(3, [0, 1])
    assert extend_ring(ideal).n_vertices == 4
    assert extend_ring(ideal).generators == ideal.generators


def test_ideal_json_roundtrip():
    ideal = _ideal(4, [0, 2], [1, 3])
    assert MonomialIdeal.from_json(ideal.to_json()) == ideal


def test_non_minimal_generators_are_rejected_for_quotients():
    raw = MonomialIdeal(4, (0b0011, 0b0111))
    with pytest.raises(PreconditionError):
        verify_d_quotients(raw, (0, 1), 2)


@pytest.mark.parametrize("d", [0, -1])
def test_searches_refuse_codimension_below_one(d):
    """The searches refuse d < 1 as the order checks do, instead of
    reporting that no order exists."""
    ideal = _ideal(4, [0, 1], [1, 2])
    with pytest.raises(ParameterError, match="d must be positive"):
        search_d_quotients(ideal, d)
    with pytest.raises(ParameterError, match="d must be positive"):
        search_d_shelling(duality_bridge(ideal), d)


@st.composite
def _equigenerated(draw):
    """A squarefree ideal of up to 5 generators of one degree on up to 6
    variables, with a quotient degree d from 1 to 3."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, n))
    supports = [mask_of(c) for c in combinations(range(n), k)]
    gens = draw(st.lists(st.sampled_from(supports), min_size=1, max_size=5, unique=True))
    return MonomialIdeal(n, tuple(gens)), draw(st.integers(1, 3))


@settings(max_examples=150, deadline=None)
@given(_equigenerated())
def test_ordering_searches_match_every_permutation(case):
    """The searches find an ordering exactly when some permutation passes
    the step-by-step verifiers, and what they return passes them."""
    ideal, d = case
    t = len(ideal.generators)
    passing = [
        order for order in permutations(range(t))
        if isinstance(verify_d_quotients(ideal, order, d), QuotientCertificate)
    ]
    found = search_d_quotients(ideal, d)
    assert (found is None) == (not passing)
    if found is not None:
        assert isinstance(verify_d_quotients(ideal, found, d), QuotientCertificate)

    dual = duality_bridge(ideal)
    shellings = [
        order for order in permutations(sorted(dual.facets))
        if isinstance(verify_d_shelling(dual, order, d), ShellingCertificate)
    ]
    shelling = search_d_shelling(dual, d, max_facets=t)
    assert (shelling is None) == (not shellings)
    if shelling is not None:
        assert isinstance(verify_d_shelling(dual, shelling, d), ShellingCertificate)

