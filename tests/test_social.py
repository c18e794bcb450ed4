import datetime as dt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cdrevents.model import ContactGraph, DatasetCalendar, build_contact_graph
from cdrevents.social import (
    EventWindow,
    attenders,
    component_size_histogram,
    induce_subgraph,
)
from helpers import OUT, rec

CAL = DatasetCalendar(dt.date(2012, 1, 2), n_weeks=2)
T0 = CAL.start_epoch_seconds


def window_ts(dow, hour, week=0, minute=0):
    return T0 + ((week * 7 + dow) * 24 + hour) * 3600 + minute * 60


def test_window_validation():
    with pytest.raises(ValueError):
        EventWindow("L1", 0, 0, 22, 18)
    with pytest.raises(ValueError):
        EventWindow("L1", 0, 0, 18, 25)
    with pytest.raises(ValueError):
        EventWindow("L1", 0, 7, 18, 22)
    with pytest.raises(ValueError, match="bad week -1"):
        EventWindow("L1", -1, 0, 18, 22)


def test_no_records_no_attenders():
    window = EventWindow("L1", 0, 3)
    assert attenders([], window, {"A"}, CAL) == set()


def test_attenders_filters_clients_and_dedups():
    records = [
        rec("A", "B", OUT, window_ts(3, 19)),
        rec("A", "C", OUT, window_ts(3, 20)),
        rec("Z", "B", OUT, window_ts(3, 19)),  # non-client
        rec("A", "B", OUT, window_ts(3, 19), antenna="L2"),  # other antenna
    ]
    window = EventWindow("L1", 0, 3)
    assert attenders(records, window, {"A", "B"}, CAL) == {"A"}


def test_attender_window_is_half_open():
    records = [
        rec("B", "C", OUT, window_ts(3, 22)),  # 22:00 sharp, excluded
        rec("A", "C", OUT, window_ts(3, 21, minute=59)),
    ]
    window = EventWindow("L1", 0, 3, 18, 22)
    assert attenders(records, window, {"A", "B"}, CAL) == {"A"}


def test_other_party_is_never_present():
    records = [rec("A", "B", OUT, window_ts(3, 19))]
    window = EventWindow("L1", 0, 3)
    assert attenders(records, window, {"A", "B"}, CAL) == {"A"}


def test_induce_empty():
    graph = ContactGraph({"A", "B"}, [("A", "B")])
    sub = induce_subgraph(graph, set())
    assert sub.attenders == frozenset()
    assert sub.edges == frozenset()
    assert component_size_histogram(sub) == {}


def test_induce_triangle_pair():
    graph = ContactGraph({"A", "B", "C"}, [("A", "B"), ("B", "C"), ("A", "C")])
    sub = induce_subgraph(graph, {"A", "B"})
    assert sub.attenders == {"A", "B"}
    assert sub.edges == {("A", "B")}
    assert sub.social_attenders == {"A", "B"}
    assert sub.singlets == frozenset()


def test_induce_hand_enumerated():
    graph = ContactGraph(
        {"A", "B", "C", "D", "E"}, [("A", "B"), ("B", "C"), ("D", "E")]
    )
    sub = induce_subgraph(graph, {"A", "B", "C", "F"})
    assert len(sub.attenders) == 4
    assert sub.edges == {("A", "B"), ("B", "C")}
    assert sub.social_attenders == {"A", "B", "C"}
    assert sub.singlets == {"F"}
    assert sub.degree == {"A": 1, "B": 2, "C": 1, "F": 0}


def test_unknown_users_become_singlets():
    graph = ContactGraph({"A", "B"}, [("A", "B")])
    sub = induce_subgraph(graph, {"A", "X"})
    assert sub.singlets == {"A", "X"}


def test_histogram_pair_plus_singlet():
    graph = ContactGraph({"A", "B", "C"}, [("A", "B")])
    sub = induce_subgraph(graph, {"A", "B", "C"})
    assert component_size_histogram(sub) == {2: 1}
    assert len(sub.singlets) == 1


def test_histogram_path_and_pair():
    graph = ContactGraph(
        "ABCDE", [("A", "B"), ("B", "C"), ("D", "E")]
    )
    sub = induce_subgraph(graph, {"A", "B", "C", "D", "E"})
    assert component_size_histogram(sub) == {3: 1, 2: 1}


def test_inducing_all_nodes_recovers_graph():
    graph = ContactGraph(
        "ABCDEF", [("A", "B"), ("C", "D"), ("E", "F"), ("A", "F")]
    )
    sub = induce_subgraph(graph, graph.nodes)
    assert sub.edges == graph.edges


node_sets = st.sets(st.sampled_from("ABCDEFGH"), max_size=8)
edge_sets = st.sets(
    st.tuples(st.sampled_from("ABCDEFGH"), st.sampled_from("ABCDEFGH")).filter(
        lambda uv: uv[0] < uv[1]
    ),
    max_size=12,
)


@given(edge_sets, node_sets, node_sets)
def test_monotonicity_of_induced_edges(edges, u1, extra):
    nodes = set("ABCDEFGH")
    graph = ContactGraph(nodes, edges)
    u2 = u1 | extra
    e1 = induce_subgraph(graph, u1).edges
    e2 = induce_subgraph(graph, u2).edges
    assert e1 <= e2


@given(edge_sets, node_sets)
def test_histogram_accounts_for_every_attender(edges, users):
    graph = ContactGraph(set("ABCDEFGH"), edges)
    sub = induce_subgraph(graph, users)
    histogram = component_size_histogram(sub)
    covered = sum(size * count for size, count in histogram.items())
    assert covered + len(sub.singlets) == len(sub.attenders)
    assert all(size >= 2 for size in histogram)


@given(st.randoms())
def test_attenders_order_independent(rnd):
    records = [
        rec("A", "B", OUT, window_ts(2, 19)),
        rec("B", "C", OUT, window_ts(2, 20)),
        rec("C", "D", OUT, window_ts(2, 21)),
    ]
    shuffled = records[:]
    rnd.shuffle(shuffled)
    window = EventWindow("L1", 0, 2)
    clients = {"A", "B", "C"}
    assert attenders(records, window, clients, CAL) == attenders(
        shuffled, window, clients, CAL
    )


def test_pipeline_from_records():
    # attenders→induce over a corpus built from raw records
    records = [
        rec("A", "B", OUT, window_ts(5, 19)),
        rec("B", "A", OUT, window_ts(5, 20)),
        rec("C", "D", OUT, window_ts(5, 20)),
        rec("A", "C", OUT, T0 + 3600),  # off-window call wires A-C
    ]
    clients = {"A", "B", "C"}
    graph = build_contact_graph(records, clients)
    window = EventWindow("L1", 0, 5)
    present = attenders(records, window, clients, CAL)
    assert present == {"A", "B", "C"}
    sub = induce_subgraph(graph, present)
    assert sub.edges == {("A", "B"), ("A", "C")}
    assert component_size_histogram(sub) == {3: 1}
