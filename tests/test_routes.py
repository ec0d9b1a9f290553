import os
import sys

import pytest

import routes

# literal class counts and gauge orders, each also reached by the routes that
# report it on its cell or case; on a point, GSTAR = |G|
KNOWN = {"circle-star_to_z2": 2, "circle-star_to_z3": 3, "circle-star_to_s3": 3, "circle-aut_z3": 2,
         "boundary3-z2_to_point": 2, "boundary3-z4_to_point": 4, "full2-z2_to_point": 1,
         "full2-star_to_z2": 1, "full2-z4_over_z2": 1,
         # k = 0 and k != 0 with the same pi0, pi1 and action: a route that
         # reads only those three fails one of these
         "rp26-twisted": 3, "rp26-untwisted": 4,
         "point-z2_trivial-trivial": {"GSTAR": 2}, "point-z4_over_z2-trivial": {"GSTAR": 2},
         "circle-aut_z3-trivial": {"GSTAR": 54, "HSTAR": 27, "PI0": 6, "PI1": 3}}


@pytest.mark.parametrize("name", routes.CELLS + routes.GAUGE_CASES)
def test_finishing_routes_agree(name):
    values = routes.reported(name)
    assert all(len(v) == 1 for v in values.values()), routes.finished(name)
    for quantity, want in routes.quantities(KNOWN.get(name, {})).items():
        assert values[quantity] == {want}, routes.finished(name)


def test_route_coverage_is_pinned():
    # a route that stops finishing on a cell, or a cell left with one route, moves these
    finished = [routes.finished(name) for name in routes.CELLS]
    assert len(finished) == 114
    assert sum(len(counts) >= 2 for counts in finished) == 98
    assert {route: sum(route in counts for counts in finished) for route in routes.ROUTES} == {
        "brute": 98, "abelian": 40, "smith": 96, "full_enumeration": 44, "degree_one": 14}
    # and per gauge quantity, the cases where two or more routes report it;
    # `crossed_module` and `orders` both read GSTAR off the stabilizer, so
    # GSTAR's independent second route is `functors`, on 50 cases
    finished = [routes.finished(name) for name in routes.GAUGE_CASES]
    assert len(finished) == 147
    assert {q: sum(sum(q in got for got in f.values()) >= 2 for f in finished)
            for q in ("GSTAR", "HSTAR", "PI0", "PI1")} == {
        "GSTAR": 147, "HSTAR": 147, "PI0": 147, "PI1": 147}
    assert {route: sum(route in f for f in finished) for route in routes.GAUGE_ROUTES} == {
        "crossed_module": 147, "orders": 147, "functors": 50, "mapping": 143,
        "twisted_h0": 147, "transformations": 147}


def test_a_route_off_by_one_is_named():
    target = "circle-aut_z3"
    count = routes.finished(target)["brute"]

    def off_by_one(K, cmx):
        return count + 1 if (K, cmx) == routes.case(target) else None

    assert routes.disagreements() == []
    assert routes.disagreements({**routes.ROUTES, "off_by_one": off_by_one}) == [target]
    # and one gauge quantity on one case
    gauge_target = "circle-twisted-trivial"
    pi1 = routes.finished(gauge_target)["twisted_h0"]["PI1"]

    def pi1_off_by_one(z, name):
        return {"PI1": pi1 + 1} if name == gauge_target else None

    cases = routes.GAUGE_CASES
    assert routes.disagreements(routes.GAUGE_ROUTES, cases) == []
    assert routes.disagreements({**routes.GAUGE_ROUTES, "off_by_one": pi1_off_by_one},
                                cases) == [gauge_target]


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
