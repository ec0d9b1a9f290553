import os
import sys

import pytest

import routes

# literal class counts, each also reached by the routes that finish on its cell
KNOWN = {"circle-star_to_z2": 2, "circle-star_to_z3": 3, "circle-star_to_s3": 3, "circle-aut_z3": 2,
         "boundary3-z2_to_point": 2, "boundary3-z4_to_point": 4, "full2-z2_to_point": 1,
         "full2-star_to_z2": 1, "full2-z4_over_z2": 1}


@pytest.mark.parametrize("name", routes.CELLS)
def test_finishing_routes_agree(name):
    counts = routes.finished(name)
    assert len(set(counts.values())) <= 1, counts
    if name in KNOWN:
        assert set(counts.values()) == {KNOWN[name]}, counts


def test_route_coverage_is_pinned():
    # a route that stops finishing on a cell, or a cell left with one route, moves these
    finished = [routes.finished(name) for name in routes.CELLS]
    assert len(finished) == 112
    assert sum(len(counts) >= 2 for counts in finished) == 98
    assert {route: sum(route in counts for counts in finished) for route in routes.ROUTES} == {
        "brute": 96, "abelian": 40, "smith": 96, "full_enumeration": 44, "degree_one": 14}


def test_a_route_off_by_one_is_named():
    target = "circle-aut_z3"
    count = routes.finished(target)["brute"]

    def off_by_one(K, cmx):
        return count + 1 if (K, cmx) == routes.cell(target) else None

    assert routes.disagreements() == []
    assert routes.disagreements({**routes.ROUTES, "off_by_one": off_by_one}) == [target]


def test_benchmark_frontier_counts_match_the_routes():
    # the z4_over_z2 rows come from smith, the star_to_s3 rows from brute and
    # the others from every route that finishes
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    assert len(workloads.FRONTIER) == 6
    for kname, cmname, want in workloads.FRONTIER:
        assert set(routes.finished(f"{kname}-{cmname}").values()) == {want}, (kname, cmname)
