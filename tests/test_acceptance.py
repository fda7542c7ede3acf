"""Acceptance gate: ten criteria, one pass/fail line each (run with -s).

Every expected number here was frozen from the restriction-homology
oracle over exact arithmetic before the closed forms were trusted; the
battery criteria replay entire registered cross-check grids and demand
zero mismatches.
"""

from __future__ import annotations

import hashlib
import time

from hyperbetti import (
    GF2,
    GF3,
    QQ,
    THEOREM_IDS,
    Hypergraph,
    MonomialIdeal,
    clique_ideal_betti,
    connectivity,
    edge_ideal,
    edge_ideal_betti,
    ideal_betti,
    run_check,
    rsequence_betti_table,
    search_d_quotients,
    star_betti_closed_form,
    verify_d_quotients,
)
from hyperbetti.betti import BettiTable
from hyperbetti.bitsets import bits_of, mask_of
from hyperbetti.hypergraph import canonical_json
from hyperbetti.ideal import colon_by_generator


def _ok(num: int, text: str) -> None:
    print(f"PASS criterion {num}: {text}")


def _ideal_table(ideal: MonomialIdeal) -> BettiTable:
    return ideal_betti(ideal, QQ)


def test_criterion_01_overlapping_pair_second_betti():
    """Two triples sharing a pair: the non-edge ideal has a lone second syzygy."""
    started = time.perf_counter()
    h = Hypergraph(4, frozenset({mask_of([0, 1, 2]), mask_of([1, 2, 3])}))
    for fld in (QQ, GF2, GF3):
        table = clique_ideal_betti(h, 3, fld)
        assert table.beta(2, 4) == 1
        assert table.total(2) == 1
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _ok(1, f"beta_2 = 1 over q, gf2, gf3 in {elapsed:.3f}s")


def test_criterion_02_single_vertex_overlap_and_growth():
    """One shared vertex: beta_3 = 4, and edge additions push connectivity up."""
    started = time.perf_counter()
    h = Hypergraph(5, frozenset({mask_of([0, 1, 2]), mask_of([2, 3, 4])}))
    table = clique_ideal_betti(h, 3, QQ)
    assert table.total(3) == 4
    # connectivity narrative frozen from the homology oracle
    additions = [
        ((0, 2, 3), 0),
        ((1, 2, 4), 0),
        ((0, 1, 3), 0),
        ((0, 1, 4), 1),
    ]
    edges = set(h.edges)
    assert connectivity(Hypergraph(5, frozenset(edges)), QQ, 3) == 0
    for verts, expected_con in additions:
        edges.add(mask_of(verts))
        assert connectivity(Hypergraph(5, frozenset(edges)), QQ, 3) == expected_con
    assert additions[-1][1] > 0
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _ok(2, f"beta_3 = 4 and connectivity ends above zero in {elapsed:.2f}s")


def test_criterion_03_quotients_colons_and_splitting():
    """Four far-flung triples: 2-quotients, colon tables, and the splitting sum."""
    started = time.perf_counter()
    supports = ({0, 1, 2}, {2, 3, 4}, {1, 4, 5}, {0, 3, 5})
    gens = tuple(sorted(mask_of(s) for s in supports))
    ideal = MonomialIdeal(6, gens)

    assert search_d_quotients(ideal, 2) is not None
    cert = verify_d_quotients(ideal, (0, 1, 2, 3), 2)
    assert cert.__class__.__name__ == "QuotientCertificate"
    assert [len(step) for step in cert.colon_generators] == [0, 1, 2, 3]

    table = edge_ideal_betti(Hypergraph(6, frozenset(gens)), QQ)
    assert [table.total(i) for i in (1, 2, 3)] == [4, 6, 3]

    expected_triples = [(1, 0, 0), (2, 1, 0), (3, 2, 0)]
    for step, want in zip(range(1, 4), expected_triples):
        prefix = MonomialIdeal(6, gens[:step])
        colon = colon_by_generator(prefix, gens[step])
        totals = _ideal_table(colon).as_ideal().totals()
        assert tuple(totals.get(i, 0) for i in range(3)) == want

    # splitting along the first variable: I = J + K with the connecting term
    j_part = [g for g in gens if g & 1]
    k_part = [g for g in gens if not g & 1]
    bridge = MonomialIdeal.from_supports(
        6, [bits_of(a | b) for a in j_part for b in k_part]
    ).minimalize()
    total_i = _ideal_table(ideal).as_ideal().totals()
    total_j = _ideal_table(MonomialIdeal(6, tuple(j_part))).as_ideal().totals()
    total_k = _ideal_table(MonomialIdeal(6, tuple(k_part))).as_ideal().totals()
    total_b = _ideal_table(bridge).as_ideal().totals()
    for i in range(0, 6):
        lhs = total_i.get(i, 0)
        rhs = total_j.get(i, 0) + total_k.get(i, 0) + (total_b.get(i - 1, 0) if i else 0)
        assert lhs == rhs
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _ok(3, f"quotients, colon triples, and splitting identity in {elapsed:.3f}s")


def test_criterion_04_star_profile_formula():
    """Four arms through one core: binomial-sum Betti numbers on a lattice."""
    started = time.perf_counter()
    arms = ({0, 1, 2}, {2, 3, 4}, {2, 5, 6}, {2, 7, 8})
    h = Hypergraph(9, frozenset(mask_of(s) for s in arms))
    table = edge_ideal_betti(h, QQ)
    assert [table.total(i) for i in (1, 2, 3, 4)] == [4, 6, 4, 1]
    for i in (1, 2, 3, 4):
        assert table.beta(i, 2 * i + 1) == table.total(i)
    assert star_betti_closed_form(4, 3, 1).entries == table.entries
    assert rsequence_betti_table((1, 2, 3), 2, 3, 9).entries == table.entries
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _ok(4, f"betti totals (4, 6, 4, 1) on the shifted lattice in {elapsed:.3f}s")


# The registered checks each battery criterion replays on its default grid.
BATTERIES = {
    5: ["P", "PI", "betti1", "to", "star", "b1", "b", "knd-complement", "betti", "u",
        "free-split"],
    6: ["l", "k"],
    7: ["dquot-dshell", "betti-splitting", "rsequence", "lin-quot"],
    8: ["conn-depth", "homconn", "cm-froberg"],
    9: ["graph-corollary", "two-gluing", "diameter", "hypergraph", "Td-shellable"],
    10: ["AdRd"],
}


# sha256 of each check's canonical report on its default grid: any change
# to an instance, a label, a verdict or a message shows here.
REPORT_DIGESTS = {
    "betti": "75035c98f6f86ae88a1b1ce6da781c400d1a8b256b70aeec7c9a9f8834e2cc91",
    "u": "a568c14b03d77cc9e181caa0ce24332b3d4a755bb93df9defe18125fba0d390a",
    "b1": "0f8e40fefe60ce5ab8e46d4849c958efb5fb35df9bf7237c8aa600e8093046cd",
    "l": "6fa3dfa2848b40a9033b1fef10569443d2e407a5976ad7d611fdb4fd771d3653",
    "P": "6309f52f2e1d8ff119d49c958db4f96d13e797fa1fbf9353d3b0aaea8c62271b",
    "PI": "ff79532ee6d3211e1880bd29e8a662964bf77054d2d3b7f51ffea49df3aa9ed4",
    "b": "19c9c3b740376038e1beaa2c22b09e8b3f6a4af655a9ce9cba9845e243e85608",
    "k": "35140f280ed8c9ecfd09da65ed53b89d17ae3118b229292f01b7a7a52a3d6ede",
    "betti1": "add4cfc7b542bb8d2beec0e77acf39fed1198873e76e41c15bbc6dfeb79ea2cf",
    "to": "cb1085a04e10efa9c5f22d0e96cb7b635d2b202fd91d0bd1073df75750f4fdf3",
    "star": "7129c3d4ed8833e8fa6a574bbe86b8ad2942ee9563b11677ca58915b5df488a2",
    "free-split": "1cfcc4563eb74a48a9287d9d3d729cc3cb2f06b12946fe44406572f3fa9f18bd",
    "hypergraph": "0c3df3444ebb7a9d445824259e648a85973eb06f03c8bc8473fa2bb2b9725be6",
    "graph-corollary": "f53d7edcfaedc4491e4c40767be837c1ee8667420f2114a9131826f0b349ec56",
    "Td-shellable": "e4b27285df3a9120a87d35e8d65976d850204ea95d0676004ffac376b4aeb1ec",
    "two-gluing": "3d2d71b2425c2f0b753d1183121da7dcc34e49b800de30c58d26db09fff82605",
    "diameter": "c9f9b3a229e61c39b9d3d78249984d1d1913e64f9e6894e705a5550bbc0822ec",
    "AdRd": "be9607ec6fd8a994d432ecf48caf181a126beb343c5d333e3f05a8201cd5f79c",
    "conn-depth": "9ad2faa20d115752f012067c1e862ccddd801efd030872d366b4bd8e2514310d",
    "homconn": "6bc7180796a82fe5df056e1e5b6775dfe8542fc09748b1975b3d956639c21be6",
    "cm-froberg": "235d15410f5d104a7136b0b05261d5caa01185f0954500fcf0e951f7f249039e",
    "knd-complement": "cdaac5fdf659e8e2d32c39021b777e456b0efb564cea3b591ba3c185d7b4fd5d",
    "dquot-dshell": "591ee6e2aad27410cf1b7ea9feeca9d4bbd56c5d0d84a8fde335d9a69790182e",
    "betti-splitting": "e2f6889726d8eecdd4036e6e03f501250592e729839a14e484922d6813407bc2",
    "rsequence": "678ba49c58308a6cd2fa78eccb519e4e96b2a295652ff73c429df04ebe74374d",
    "lin-quot": "71049a74fdc66942d1b8eddc79b9cb0329bb1a6fa4e8e719187dadc9bfece538",
}


def test_batteries_cover_every_registered_check():
    ids = [theorem for battery in BATTERIES.values() for theorem in battery]
    assert sorted(ids) == sorted(THEOREM_IDS)
    assert sorted(REPORT_DIGESTS) == sorted(THEOREM_IDS)


def _battery(num: int, budget_s: float, text: str) -> None:
    started = time.perf_counter()
    for theorem in BATTERIES[num]:
        report = run_check(theorem)
        summary = report.summary_line()
        assert report.ok, f"{theorem} reported a mismatch: {summary}"
        assert report.to_json_obj()["summary"]["instances"] > 0
        digest = hashlib.sha256(canonical_json(report.to_json_obj()).encode()).hexdigest()
        assert digest == REPORT_DIGESTS[theorem], f"{theorem} report bytes changed"
    elapsed = time.perf_counter() - started
    assert elapsed < budget_s
    _ok(num, f"{text} in {elapsed:.1f}s")


def test_criterion_05_closed_forms_vs_restriction_sum():
    """Every family and free-vertex formula, and the splitting route of the
    edge ideal, against the homology sum, three fields."""
    _battery(5, 600.0, "ten closed-form checks and the splitting route, zero mismatches")


def test_criterion_06_counting_lemmas_vs_brute_force():
    """Placement-counting formulas against explicit enumeration."""
    _battery(6, 120.0, "both counting lemmas, zero mismatches")


def test_criterion_07_quotient_shelling_duality():
    """Quotient orders and dual shellings coincide across the small world;
    the Betti splitting, regular-sequence tables and linear resolutions
    follow from quotient orders."""
    _battery(7, 900.0, "duality sweep and quotient consequences, zero mismatches")


def test_criterion_08_connectivity_depth_theorem():
    """Connectivity formula and its depth reformulation, families plus
    random, and the vanishing criterion for Cohen-Macaulayness."""
    _battery(8, 600.0, "both connectivity routes and both depth routes agree")


def test_criterion_09_chordality_corollaries():
    """Graph corollary, two-piece gluings, the diameter bound, linear
    quotients of built hypergraphs and shellings of one-vertex builds."""
    _battery(9, 600.0, "all chordality corollaries, zero mismatches")


def test_criterion_10_reduction_attachment_roundtrip():
    """Rebuilding from the reduced complex restores every built instance."""
    _battery(10, 300.0, "attachment/reduction roundtrip, zero mismatches")
