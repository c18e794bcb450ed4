import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdrevents.inference import (
    AttendanceRow,
    attendance_probability,
    contact_counts,
    cumulative_attendance_probability,
    linear_fit,
)
from cdrevents.model import ContactGraph
from helpers import attendance_oracle, random_graph_and_attendees


def graph_of(*edges):
    nodes = {u for e in edges for u in e}
    return ContactGraph(nodes, edges)


# --- contact counts ---------------------------------------------------------


def test_empty_attendee_set_counts_nothing():
    graph = graph_of(("A", "B"))
    assert contact_counts(graph, set()) == {}


def test_attendee_never_counts_itself():
    triangle = graph_of(("A", "B"), ("B", "C"), ("A", "C"))
    assert contact_counts(triangle, {"A"}) == {"B": 1, "C": 1}


def test_counts_by_hand():
    graph = graph_of(("A", "B"), ("A", "C"), ("B", "C"), ("C", "D"))
    assert contact_counts(graph, {"A", "B"}) == {"A": 1, "B": 1, "C": 2}


def test_unknown_attendees_are_harmless():
    graph = graph_of(("A", "B"))
    assert contact_counts(graph, {"X"}) == {}


# --- attendance tables --------------------------------------------------------


def test_closed_pair_probability_one():
    table = attendance_probability(graph_of(("A", "B")), {"A", "B"})
    row = table.rows[1]
    assert (row.numerator, row.denominator, row.p) == (2, 2, 1.0)


def test_star_center_attending_gives_zero():
    star = graph_of(("C", "L1"), ("C", "L2"), ("C", "L3"), ("C", "L4"))
    table = attendance_probability(star, {"C"})
    row = table.rows[1]
    assert (row.numerator, row.denominator, row.p) == (0, 4, 0.0)


def test_path_middle_pair():
    path = graph_of(("A", "B"), ("B", "C"), ("C", "D"))
    table = attendance_probability(path, {"B", "C"})
    row = table.rows[1]
    assert (row.numerator, row.denominator, row.p) == (2, 4, 0.5)
    assert set(table.rows) == {1}


@pytest.mark.parametrize("numerator,denominator", [(3, 2), (-1, 2), (1, 0)])
def test_attendance_row_needs_a_numerator_within_its_denominator(numerator, denominator):
    assert AttendanceRow(1, 2, 2).p == 1.0
    with pytest.raises(ValueError, match=f"bad row k=1: {numerator}/{denominator}"):
        AttendanceRow(1, numerator, denominator)


def test_empty_attendee_set_is_an_error():
    with pytest.raises(ValueError):
        attendance_probability(graph_of(("A", "B")), set())
    with pytest.raises(ValueError):
        cumulative_attendance_probability(graph_of(("A", "B")), set())


def test_cumulative_examples():
    pair = cumulative_attendance_probability(graph_of(("A", "B")), {"A", "B"})
    assert pair[1].p == 1.0
    path = graph_of(("A", "B"), ("B", "C"), ("C", "D"))
    cumulative = cumulative_attendance_probability(path, {"B", "C"})
    assert cumulative[1].p == 0.5


def test_cumulative_fills_k_without_exact_row():
    # X has 3 attending contacts, everyone else at most 1: no k = 2 row
    graph = graph_of(("A", "X"), ("B", "X"), ("C", "X"), ("A", "Y"), ("A", "B"))
    table = attendance_probability(graph, {"A", "B", "C"})
    assert sorted(table.rows) == [1, 3]
    cumulative = table.cumulative()
    assert {k: (r.numerator, r.denominator) for k, r in cumulative.items()} == {
        1: (2, 4),
        2: (0, 1),
        3: (0, 1),
    }
    assert list(cumulative) == [1, 2, 3]


def test_tables_match_the_oracle_when_no_attendee_has_a_contact():
    # the one attendee has no edge, so no user has an attending contact
    graph = ContactGraph(["a", "b", "c"], [("a", "b")])
    exact, cumulative = attendance_oracle(graph.nodes, [("a", "b")], {"c"})
    assert exact == cumulative == {}
    table = attendance_probability(graph, {"c"})
    assert table.rows == {} and table.cumulative() == {} and table.points() == []
    assert cumulative_attendance_probability(graph, {"c"}) == {}


def test_points_filter_by_denominator():
    star = graph_of(*[("C", f"L{i}") for i in range(4)])
    table = attendance_probability(star, {"C"})
    assert table.points(min_denominator=5) == []
    assert table.points(min_denominator=4) == [(1, 0.0)]


# --- oracle equivalence -------------------------------------------------------


@given(st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_tables_match_brute_force_oracle(seed):
    rng = random.Random(seed)
    graph, edge_list, attendees = random_graph_and_attendees(rng, max_nodes=60)
    exact, cumulative = attendance_oracle(graph.nodes, edge_list, attendees)
    if not exact:
        return
    table = attendance_probability(graph, attendees)
    assert {k: (r.numerator, r.denominator) for k, r in table.rows.items()} == exact
    got_cumulative = cumulative_attendance_probability(graph, attendees)
    assert {
        k: (r.numerator, r.denominator) for k, r in got_cumulative.items()
    } == cumulative


@given(st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_cumulative_is_suffix_sum_of_exact(seed):
    rng = random.Random(seed)
    graph, _, attendees = random_graph_and_attendees(rng, max_nodes=60)
    ks = contact_counts(graph, attendees)
    if not ks:
        return
    table = attendance_probability(graph, attendees)
    cumulative = cumulative_attendance_probability(graph, attendees)
    for big_k, row in cumulative.items():
        num = sum(r.numerator for k, r in table.rows.items() if k >= big_k)
        den = sum(r.denominator for k, r in table.rows.items() if k >= big_k)
        assert (row.numerator, row.denominator) == (num, den)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_table_invariant_under_relabeling(seed):
    rng = random.Random(seed)
    graph, edge_list, attendees = random_graph_and_attendees(rng, max_nodes=40)
    relabel = {u: f"user-{u}" for u in graph.nodes}
    relabeled = ContactGraph(
        relabel.values(),
        [(relabel[u], relabel[v]) for u, v in edge_list],
    )
    relabeled_attendees = {relabel.get(u, u) for u in attendees}
    if not contact_counts(graph, attendees):
        return
    a = attendance_probability(graph, attendees)
    b = attendance_probability(relabeled, relabeled_attendees)
    assert {k: (r.numerator, r.denominator) for k, r in a.rows.items()} == {
        k: (r.numerator, r.denominator) for k, r in b.rows.items()
    }


# --- linear fit ---------------------------------------------------------------


def test_exact_line_recovered():
    fit = linear_fit([(1, 0.1), (2, 0.2), (3, 0.3)])
    assert fit.slope == pytest.approx(0.1, abs=1e-9)
    assert fit.intercept == pytest.approx(0.0, abs=1e-9)
    assert fit.r == pytest.approx(1.0, abs=1e-9)
    assert not fit.degenerate


def test_flat_response_is_degenerate():
    fit = linear_fit([(1, 0.5), (2, 0.5)])
    assert fit.slope == 0.0
    assert fit.intercept == 0.5
    assert fit.r == 0.0
    assert fit.degenerate


def test_three_point_case_by_hand():
    # independent closed-form check: slope 1/5, intercept -1/6, r = sqrt(12/13)
    fit = linear_fit([(1, 0.0), (2, 0.3), (3, 0.4)])
    assert fit.slope == pytest.approx(0.2, abs=1e-9)
    assert fit.intercept == pytest.approx(-1 / 6, abs=1e-9)
    assert fit.r == pytest.approx(0.9607689228305228, abs=1e-9)


def test_fit_requires_two_distinct_x():
    with pytest.raises(ValueError):
        linear_fit([(1, 0.1)])
    with pytest.raises(ValueError):
        linear_fit([(2, 0.1), (2, 0.9)])


@given(st.permutations([(1, 0.0), (2, 0.3), (3, 0.4), (5, 0.9)]))
def test_fit_invariant_under_point_order(points):
    fit = linear_fit(points)
    reference = linear_fit([(1, 0.0), (2, 0.3), (3, 0.4), (5, 0.9)])
    assert fit.slope == pytest.approx(reference.slope, rel=1e-12)
    assert fit.intercept == pytest.approx(reference.intercept, rel=1e-12)
    assert fit.r == pytest.approx(reference.r, rel=1e-12)
