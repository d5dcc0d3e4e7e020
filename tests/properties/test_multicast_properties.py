"""Property-based tests for multicast tree compilation."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.multicast import compile_pattern
from repro.topology import Torus3D

shapes = st.sampled_from([(2, 2, 2), (4, 4, 4), (8, 8, 8), (4, 2, 8), (8, 1, 1)])
clients = st.sampled_from(["slice0", "slice1", "htis", "accum0"])


@st.composite
def pattern_cases(draw):
    shape = draw(shapes)
    t = Torus3D(*shape)
    src = draw(st.integers(0, t.num_nodes - 1))
    n_dest = draw(st.integers(1, min(12, t.num_nodes)))
    dest_ranks = draw(
        st.lists(
            st.integers(0, t.num_nodes - 1),
            min_size=n_dest, max_size=n_dest, unique=True,
        )
    )
    dests = {t.coord(r): [draw(clients)] for r in dest_ranks}
    return t, t.coord(src), dests


@given(pattern_cases())
@settings(max_examples=150, deadline=None)
def test_pattern_reaches_all_destinations_exactly(case):
    t, src, dests = case
    p = compile_pattern(t, src, dests)
    expected = {(n, c) for n, cl in dests.items() for c in cl}
    assert p.reached_clients() == expected


@given(pattern_cases())
@settings(max_examples=150, deadline=None)
def test_tree_is_acyclic_single_inbound(case):
    t, src, dests = case
    p = compile_pattern(t, src, dests)
    inbound = {}
    for node, entry in p.entries.items():
        for dim, sign in entry.forward:
            nxt = t.neighbor(node, dim, sign)
            assert nxt not in inbound
            inbound[nxt] = node
    assert src not in inbound
    # Every forwarded-to node must be reachable from the source.
    seen = {src}
    frontier = [src]
    while frontier:
        cur = frontier.pop()
        for dim, sign in p.entries[cur].forward:
            nxt = t.neighbor(cur, dim, sign)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    assert set(p.entries) == seen


@given(pattern_cases())
@settings(max_examples=150, deadline=None)
def test_traversals_bounded_by_unicast_cost(case):
    """A multicast tree never uses more link crossings than the sum of
    unicast routes, and at least the hops to the farthest destination."""
    t, src, dests = case
    p = compile_pattern(t, src, dests)
    unicast = sum(t.hops(src, n) for n in dests)
    farthest = max(t.hops(src, n) for n in dests)
    assert farthest <= p.total_link_traversals <= unicast or unicast == 0


@st.composite
def repeated_destination_cases(draw):
    """Destinations that name a client twice, on one node under two
    keys (rank and coordinate), and the source itself."""
    t = Torus3D(*draw(shapes))
    src = draw(st.integers(0, t.num_nodes - 1))
    picks = draw(st.lists(
        st.tuples(st.integers(0, t.num_nodes - 1),
                  st.lists(clients, min_size=1, max_size=3),
                  st.booleans()),
        min_size=1, max_size=12,
    ))
    dests = {}
    for rank, names, by_coord in picks:
        dests[t.coord(rank) if by_coord else rank] = names
    return t, src, dests


@given(repeated_destination_cases())
@settings(max_examples=150, deadline=None)
def test_pattern_delivery_count_matches_entries(case):
    t, src, dests = case
    p = compile_pattern(t, src, dests)
    assert p.deliveries == sum(
        len(e.local_clients) for e in p.entries.values()
    )
    assert p.deliveries == sum(len(names) for names in dests.values())
