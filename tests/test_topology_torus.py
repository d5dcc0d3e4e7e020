"""Unit tests for the 3-D torus topology."""

import pytest

from repro.topology import NodeCoord, Torus3D


def test_rank_coord_roundtrip():
    t = Torus3D(4, 3, 2)
    for rank in range(t.num_nodes):
        assert t.rank(t.coord(rank)) == rank


def test_coord_accepts_tuple_and_wraps():
    t = Torus3D(4, 4, 4)
    assert t.coord((5, -1, 4)) == NodeCoord(1, 3, 0)


def test_bad_rank_rejected():
    t = Torus3D(2, 2, 2)
    with pytest.raises(ValueError):
        t.coord(8)
    with pytest.raises(ValueError):
        t.rank(-1)


def test_invalid_shape():
    with pytest.raises(ValueError):
        Torus3D(0, 2, 2)


def test_hop_vector_uses_shortest_wraparound():
    t = Torus3D(8, 8, 8)
    assert t.hop_vector((0, 0, 0), (7, 0, 0)) == (-1, 0, 0)
    assert t.hop_vector((0, 0, 0), (3, 0, 0)) == (3, 0, 0)
    # Exact halfway ties break positive.
    assert t.hop_vector((0, 0, 0), (4, 0, 0)) == (4, 0, 0)


def test_hops_symmetry():
    t = Torus3D(8, 4, 8)
    a, b = t.coord((1, 2, 3)), t.coord((6, 0, 7))
    assert t.hops(a, b) == t.hops(b, a)


def test_max_hops_matches_paper():
    # "Twelve hops is the maximum distance between two nodes in an
    # 8x8x8 configuration" (Fig. 5 caption).
    assert Torus3D(8, 8, 8).max_hops() == 12


def test_route_is_dimension_ordered():
    t = Torus3D(8, 8, 8)
    route = t.route((0, 0, 0), (2, 1, 1))
    dims = [h.dim for h in route]
    assert dims == ["x", "x", "y", "z"]


def test_route_length_equals_hops():
    t = Torus3D(8, 8, 8)
    for dst in [(1, 0, 0), (4, 4, 4), (7, 7, 7), (0, 5, 2)]:
        assert len(t.route((0, 0, 0), dst)) == t.hops((0, 0, 0), dst)


def test_path_nodes_endpoints():
    t = Torus3D(4, 4, 4)
    path = t.path_nodes((0, 0, 0), (2, 3, 1))
    assert path[0] == t.coord((0, 0, 0))
    assert path[-1] == t.coord((2, 3, 1))
    assert len(path) == t.hops((0, 0, 0), (2, 3, 1)) + 1


def test_neighbor_wraps():
    t = Torus3D(4, 4, 4)
    assert t.neighbor((3, 0, 0), "x", 1) == NodeCoord(0, 0, 0)
    assert t.neighbor((0, 0, 0), "y", -1) == NodeCoord(0, 3, 0)
    with pytest.raises(ValueError):
        t.neighbor((0, 0, 0), "w", 1)
    with pytest.raises(ValueError):
        t.neighbor((0, 0, 0), "x", 2)


def test_face_neighbors_count():
    t = Torus3D(4, 4, 4)
    assert len(t.face_neighbors((0, 0, 0))) == 6


def test_moore_neighbors_large_torus():
    t = Torus3D(4, 4, 4)
    n = t.moore_neighbors((1, 1, 1))
    assert len(n) == 26
    assert t.coord((1, 1, 1)) not in n


def test_moore_neighbors_degenerate_torus():
    # On a 2x2x2 torus the 26 offsets alias down to 7 distinct nodes.
    t = Torus3D(2, 2, 2)
    assert len(t.moore_neighbors((0, 0, 0))) == 7


def test_axis_peers():
    t = Torus3D(8, 4, 2)
    peers = t.axis_peers((3, 2, 1), "x")
    assert len(peers) == 7
    assert all(p.y == 2 and p.z == 1 for p in peers)
    assert len(t.axis_peers((3, 2, 1), "z")) == 1


def test_nodes_iterates_all_in_rank_order():
    t = Torus3D(3, 2, 2)
    nodes = list(t.nodes())
    assert len(nodes) == 12
    assert [t.rank(n) for n in nodes] == list(range(12))


def test_routes_share_the_six_interned_hops():
    """Every hop ``route`` returns is one of the six shared ``HOPS``."""
    from repro.topology.torus import HOPS

    assert len(HOPS) == 6
    interned = {id(h) for h in HOPS.values()}
    for shape in [(4, 4, 4), (3, 4, 5), (2, 1, 7)]:
        t = Torus3D(*shape)
        for src in t.nodes():
            for dst in t.nodes():
                for hop in t.route(src, dst):
                    assert id(hop) in interned
                    assert HOPS[(hop.dim, hop.sign)] is hop
