import itertools

import pytest

from cechmod import (
    automorphism_group,
    conjugation_action,
    crossed_module,
    cyclic_group,
    group_from_operation,
    kernel_of_beta,
    power_group,
    quotient_by_image,
    symmetric_group,
    trivial_action,
    trivial_group,
    two_group_from_crossed_module,
    validate_group,
)
from cechmod.algebra import AUT_SEARCH_BOUND, _bijective_homs, abelian_invariants
from cechmod.errors import (
    EquivarianceFailure,
    NoIdentity,
    NoInverse,
    NotAssociative,
    PeifferFailure,
    TooLarge,
)
from cechmod.catalog import CM_BUILDERS
from conftest import assert_image_normal_and_kernel_central, cm


def find_isomorphism(G1, G2):
    """An isomorphism G1 -> G2 by exhaustive search, or None."""
    return next(_bijective_homs(G1, G2), None)


def semidirect_product(cmx):
    """The group on pairs (h, g) with (h,g)*(h',g') = (h * (g.h'), g*g')."""
    H, G = cmx.H, cmx.G
    pairs = [(h, g) for h in H.elements() for g in G.elements()]

    def op(a, b):
        (h, g), (h2, g2) = a, b
        return (H.mul(h, cmx.act(g, h2)), G.mul(g, g2))

    grp, _ = group_from_operation(pairs, op, f"{H.name}x{G.name}")
    return grp


def test_z2_addition_table():
    g = validate_group(2, [[0, 1], [1, 0]])
    assert g.identity == 0
    assert g.inv(1) == 1


def test_broken_associativity_names_witness():
    # swap a row of the Z3 table; verify the witness against a raw scan
    table = [[0, 1, 2], [2, 0, 1], [1, 2, 0]]
    with pytest.raises(NotAssociative) as exc:
        validate_group(3, table)
    a, b, c = exc.value.witness
    assert table[table[a][b]][c] != table[a][table[b][c]]


def test_no_inverse():
    with pytest.raises(NoInverse):
        validate_group(2, [[0, 1], [1, 1]])


def test_no_identity():
    # left-projection semigroup: associative, but no two-sided unit
    with pytest.raises(NoIdentity):
        validate_group(2, [[0, 0], [1, 1]])


def _perm_compose(p, q):
    return tuple(p[q[i]] for i in range(len(p)))


def test_s3_matches_permutation_composition_oracle():
    # independent construction straight from permutation composition
    perms = sorted(itertools.permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms)}
    table = [[idx[_perm_compose(p, q)] for q in perms] for p in perms]
    oracle = validate_group(6, table)
    assert oracle.identity == 0
    assert symmetric_group(3).mul_table == oracle.mul_table


def dihedral_group(n):
    """D_n on (rotation, reflection) pairs, from the composition rule."""
    return group_from_operation(
        [(r, s) for s in range(2) for r in range(n)],
        lambda x, y: ((x[0] + (-y[0] if x[1] else y[0])) % n, (x[1] + y[1]) % 2),
        f"D{n}")[0]


def quaternion_group():
    """Q8 on (sign, unit) pairs, units 1, i, j, k multiplied by Hamilton's rules."""
    rules = {"ii": (-1, "1"), "jj": (-1, "1"), "kk": (-1, "1"), "ij": (1, "k"),
             "jk": (1, "i"), "ki": (1, "j"), "ji": (-1, "k"), "kj": (-1, "i"),
             "ik": (-1, "j")}

    def op(x, y):
        if "1" in (x[1], y[1]):
            return x[0] * y[0], y[1] if x[1] == "1" else x[1]
        sign, unit = rules[x[1] + y[1]]
        return x[0] * y[0] * sign, unit

    return group_from_operation([(s, u) for s in (1, -1) for u in "1ijk"], op, "Q8")[0]


@pytest.mark.parametrize("build,count", [
    (lambda: cyclic_group(4), 2),
    (lambda: cyclic_group(2), 1),
    (lambda: symmetric_group(3), 6),
    pytest.param(lambda: power_group(cyclic_group(2), 2)[0], 6, id="C2^2-6"),
    pytest.param(lambda: power_group(cyclic_group(2), 3)[0], 168, id="C2^3-168"),
    pytest.param(lambda: _cyclic_product(2, 4), 8, id="C2xC4-8"),
    pytest.param(lambda: dihedral_group(4), 8, id="D4-8"),
    pytest.param(quaternion_group, 24, id="Q8-24"),
])
def test_automorphism_counts_against_raw_enumeration(build, count):
    H = build()
    aut, action = automorphism_group(H)
    assert aut.order == count
    # independent oracle: filter all bijections by the homomorphism property
    raw = 0
    for img in itertools.permutations(range(H.order)):
        if all(img[H.mul(a, b)] == H.mul(img[a], img[b])
               for a in H.elements() for b in H.elements()):
            raw += 1
    assert raw == count
    assert action.is_faithful()


def test_automorphism_group_of_s4():
    # |Aut(S4)| = 24 = AUT_SEARCH_BOUND, where 24! bijections leave no raw oracle
    assert symmetric_group(4).order == AUT_SEARCH_BOUND
    assert automorphism_group(symmetric_group(4))[0].order == 24


def test_automorphism_bound():
    big = power_group(cyclic_group(2), 5)[0]  # order 32
    with pytest.raises(TooLarge):
        automorphism_group(big)
    assert big.order > AUT_SEARCH_BOUND


def test_automorphism_count_bound():
    # Z2^4 passes the order bound, but a Cayley table of its 20160
    # automorphisms would hold 4.1e8 entries: the search stops first
    H = power_group(cyclic_group(2), 4)[0]
    assert H.order <= AUT_SEARCH_BOUND
    with pytest.raises(TooLarge) as exc:
        automorphism_group(H)
    assert (exc.value.order, exc.value.bound) == (AUT_SEARCH_BOUND ** 2 + 1, AUT_SEARCH_BOUND ** 2)


def test_semidirect_direct_product_case():
    g = semidirect_product(cm("z2_trivial"))
    assert g.order == 4
    assert g.is_abelian()


def test_semidirect_inversion_action_gives_s3():
    Z3, Z2 = cyclic_group(3), cyclic_group(2)
    inversion = [[0, 1, 2], [0, 2, 1]]
    cmx = crossed_module(Z2, Z3, [0, 0, 0], inversion)
    g = semidirect_product(cmx)
    assert g.order == 6
    assert not g.is_abelian()
    assert find_isomorphism(g, symmetric_group(3)) is not None


def test_semidirect_identity_is_pair_of_identities():
    for name in ("z2_trivial", "z4_over_z2", "conj_s3"):
        cmx = cm(name)
        pairs = [(h, g) for h in cmx.H.elements() for g in cmx.G.elements()]
        grp, items = group_from_operation(
            pairs, lambda a, b: (cmx.H.mul(a[0], cmx.act(a[1], b[0])),
                                 cmx.G.mul(a[1], b[1])))
        assert items[grp.identity] == (cmx.H.identity, cmx.G.identity)


def test_crossed_module_valid_examples():
    cm("z2_trivial")
    cm("z4_over_z2")  # Z4 onto Z2, trivial action


def test_peiffer_failure_for_trivial_base_nonabelian_fiber():
    S3, one = symmetric_group(3), trivial_group()
    with pytest.raises(PeifferFailure) as exc:
        crossed_module(one, S3, [0] * 6, trivial_action(one, S3).table)
    h, h2 = exc.value.witness
    assert S3.mul(h, h2) != S3.mul(h2, h)


def test_equivariance_failure_for_trivial_action_identity_beta():
    S3 = symmetric_group(3)
    with pytest.raises(EquivarianceFailure):
        crossed_module(S3, S3, list(range(6)), trivial_action(S3, S3).table)


def test_non_normal_image_fails_equivariance():
    # beta(Z2) = <(0 1)> is not normal in S3; the equivariance check rejects
    # it, at a g that conjugates beta(h) out of the image
    Z2, S3 = cyclic_group(2), symmetric_group(3)
    beta = [S3.identity, 2]  # 2 is (1, 0, 2), the transposition (0 1)
    with pytest.raises(EquivarianceFailure) as exc:
        crossed_module(S3, Z2, beta, trivial_action(S3, Z2).table)
    g, h = exc.value.witness
    assert S3.conj(g, beta[h]) not in beta


@pytest.mark.parametrize("cmname", list(CM_BUILDERS))
def test_catalog_image_normal_and_kernel_central(cmname):
    cmx = cm(cmname)
    assert_image_normal_and_kernel_central(cmx)
    assert kernel_of_beta(cmx)[1] == cmx.beta.kernel_indices()


def test_two_group_structure():
    tg = two_group_from_crossed_module(cm("z2_trivial"))
    assert len(list(tg.objects())) == 2
    assert len(list(tg.morphisms())) == 4
    assert tg.target(tg.encode(1, 0)) == 1
    for g in tg.objects():
        assert tg.identity(g) == tg.encode(0, g)


def test_two_group_composable_count_by_direct_scan():
    for name in ("z2_trivial", "z4_over_z2", "conj_s3"):
        cmx = cm(name)
        tg = two_group_from_crossed_module(cmx)
        n = sum(1 for m1 in tg.morphisms() for m2 in tg.morphisms()
                if tg.source(m2) == tg.target(m1))
        assert n == cmx.H.order ** 2 * cmx.G.order


def test_quotient_by_image():
    K, proj = quotient_by_image(cm("z4_over_z2"))
    assert K.order == 1  # beta surjective
    K, proj = quotient_by_image(cm("z2_into_z4"))  # beta(1) = 2 in Z4
    assert K.order == 2
    assert find_isomorphism(K, cyclic_group(2)) is not None
    cmx = cm("z2_to_point")  # wrong direction; use trivial beta into Z2 instead
    Z2 = cyclic_group(2)
    trivial_beta = crossed_module(Z2, Z2, [0, 0], trivial_action(Z2, Z2).table)
    K, proj = quotient_by_image(trivial_beta)
    assert K.order == 2
    assert proj.image == (0, 1)


def test_quotient_after_beta_is_constant_identity():
    for name in ("z2_trivial", "z4_over_z2", "z2_into_z4", "conj_s3"):
        cmx = cm(name)
        K, proj = quotient_by_image(cmx)
        for h in cmx.H.elements():
            assert proj(cmx.beta_of(h)) == K.identity


def test_kernel_of_beta():
    A, inc = kernel_of_beta(cm("z2_trivial"))  # beta injective
    assert A.order == 1
    A, inc = kernel_of_beta(cm("z4_over_z2"))  # Z4 -> Z2
    assert A.order == 2 and inc == [0, 2]
    Z4 = cyclic_group(4)
    one = trivial_group()
    beta_trivial = crossed_module(one, Z4, [0] * 4, trivial_action(one, Z4).table)
    A, inc = kernel_of_beta(beta_trivial)
    assert A.order == 4 and inc == [0, 1, 2, 3]


def test_kernel_central_when_beta_surjective():
    cmx = cm("z4_over_z2")
    A, inc = kernel_of_beta(cmx)
    for a in inc:
        for h in cmx.H.elements():
            assert cmx.H.mul(a, h) == cmx.H.mul(h, a)


def test_isomorphism_utility():
    Z4 = cyclic_group(4)
    klein = power_group(cyclic_group(2), 2)[0]
    assert find_isomorphism(Z4, klein) is None
    z6 = cyclic_group(6)
    z2xz3 = group_from_operation(
        [(a, b) for a in range(2) for b in range(3)],
        lambda x, y: ((x[0] + y[0]) % 2, (x[1] + y[1]) % 3))[0]
    assert find_isomorphism(z6, z2xz3) is not None
    assert find_isomorphism(dihedral_group(4), quaternion_group()) is None
    assert find_isomorphism(dihedral_group(3), symmetric_group(3)) is not None


def test_conjugation_action_is_valid_and_two_group_checks(s3):
    tg = two_group_from_crossed_module(cm("conj_s3"))
    # target map agrees with the beta table on every morphism
    for m in tg.morphisms():
        h, g = tg.decode(m)
        assert tg.target(m) == s3.mul(cm("conj_s3").beta_of(h), g)


def _cyclic_product(*ns):
    return group_from_operation(
        list(itertools.product(*map(range, ns))),
        lambda x, y: tuple((a + b) % n for a, b, n in zip(x, y, ns)),
        "x".join(f"Z{n}" for n in ns))[0]


def test_abelian_invariants():
    for ns, factors in [((1,), []), ((4,), [4]), ((6,), [6]), ((2, 2), [2, 2]),
                        ((2, 4), [4, 2]), ((2, 6), [6, 2]), ((2, 2, 2), [2, 2, 2]),
                        ((3, 9), [9, 3])]:
        A = _cyclic_product(*ns)
        orders, coords = abelian_invariants(A)
        assert orders == factors
        assert all(n % m == 0 for n, m in zip(orders, orders[1:]))
        # a bijective homomorphism onto (+) Z/n_r
        assert sorted(coords.values()) == list(itertools.product(*map(range, orders)))
        assert all(coords[A.mul(a, b)] == tuple((x + y) % n for x, y, n in
                                                zip(coords[a], coords[b], orders))
                   for a in A.elements() for b in A.elements())

    def powers(A):
        coords = abelian_invariants(A)[1]
        return sorted(coords, key=coords.get)

    # a cyclic group's coordinates order its elements as powers of a generator
    assert powers(cyclic_group(4)) == [0, 1, 2, 3]
    assert powers(trivial_group()) == [0]
    Z6 = cyclic_group(6)
    power = powers(Z6)
    assert sorted(power) == list(range(6))
    assert all(Z6.mul(power[t], power[1]) == power[(t + 1) % 6] for t in range(6))




# -- validate_action on generators ---------------------------------------------------

def _exhaustive_validate_action(actor, space, table):
    """validate_action as it was before it checked on generators: every row
    bijective and multiplicative at every pair, and the action law at every
    pair of actor elements.  Returns nothing; raises SemanticError."""
    from cechmod.errors import SemanticError
    table = tuple(tuple(row) for row in table)
    if len(table) != actor.order or any(len(r) != space.order for r in table):
        raise SemanticError("action table has wrong shape")
    ident = tuple(range(space.order))
    if table[actor.identity] != ident:
        raise SemanticError("identity does not act trivially")
    for g in actor.elements():
        row = table[g]
        if sorted(row) != list(ident):
            raise SemanticError(f"element {g} does not act bijectively")
        for h in space.elements():
            for h2 in space.elements():
                if row[space.mul(h, h2)] != space.mul(row[h], row[h2]):
                    raise SemanticError(f"element {g} does not act by automorphisms")
    for g1 in actor.elements():
        for g2 in actor.elements():
            for h in space.elements():
                if table[g1][table[g2][h]] != table[actor.mul(g1, g2)][h]:
                    raise SemanticError(f"action is not associative at ({g1}, {g2}, {h})")


def _verdict(check, *args):
    from cechmod.errors import SemanticError
    try:
        check(*args)
    except SemanticError:
        return False
    return True


def _seeded_action_tables():
    """Seeded tables on small actors and spaces, as (actor, space, rows),
    whose rows are drawn from the automorphisms of the space (an action
    exactly when the rows form a homomorphism into Aut), from its
    permutations, or copied from a valid action with a few rows swapped."""
    import random
    rng = random.Random("validate_action")
    S3 = symmetric_group(3)
    spaces = [cyclic_group(2), cyclic_group(3), cyclic_group(4), _cyclic_product(2, 2), S3]
    actors = [trivial_group(), cyclic_group(2), cyclic_group(3), cyclic_group(4),
              _cyclic_product(2, 2), S3]
    for space in spaces:
        auts = automorphism_group(space)[1].table
        perms = list(itertools.permutations(range(space.order)))
        for actor in actors:
            # the valid actions through homomorphisms actor -> Aut(space) that
            # an actor of this size has, beside the trivial one
            valid = [trivial_action(actor, space).table]
            if actor is S3 and space is S3:
                valid.append(conjugation_action(S3).table)
            for _ in range(12):
                kind = rng.randrange(3)
                if kind == 0:
                    rows = [rng.choice(auts) for _ in actor.elements()]
                elif kind == 1:
                    rows = [rng.choice(perms) for _ in actor.elements()]
                else:
                    rows = list(rng.choice(valid))
                    for _ in range(rng.randrange(3)):
                        a, b = rng.randrange(actor.order), rng.randrange(actor.order)
                        rows[a], rows[b] = rows[b], rows[a]
                rows[actor.identity] = tuple(space.elements())
                yield actor, space, rows


def test_validate_action_matches_exhaustive_reference():
    # on the seeded tables both checks accept the same tables
    from cechmod import validate_action
    verdicts = set()
    for actor, space, rows in _seeded_action_tables():
        want = _verdict(_exhaustive_validate_action, actor, space, rows)
        assert _verdict(validate_action, actor, space, rows) == want
        verdicts.add(want)
    assert verdicts == {True, False}


def test_validate_action_catches_a_wrong_row_off_the_generators(s3):
    # S3 acting on itself by conjugation, with the row of w, a word of length
    # three in the two generating transpositions, replaced by the identity
    # automorphism: every generator row is still an automorphism and the
    # action law holds at every pair of generators, so the law fails only
    # at products g x with g not a generator
    from cechmod import validate_action
    from cechmod.algebra import generating_set
    from cechmod.errors import SemanticError
    table = [list(row) for row in conjugation_action(s3).table]
    gens = generating_set(s3.elements(), s3.mul_table, s3.identity)
    products = {s3.mul(g, x) for g in gens for x in gens}
    w = next(g for g in s3.elements() if g not in gens and g not in products)
    assert table[w] != list(s3.elements())
    table[w] = list(s3.elements())
    assert all(table[s3.mul(g, x)][h] == table[g][table[x][h]]
               for g in gens for x in gens for h in s3.elements())
    with pytest.raises(SemanticError, match="not associative"):
        _exhaustive_validate_action(s3, s3, table)
    with pytest.raises(SemanticError, match="not associative"):
        validate_action(s3, s3, table)
    validate_action(s3, s3, conjugation_action(s3).table)



def _generator_loop_validate_action(actor, space, table):
    """`validate_action` as it stood with per-entry loops on generators: each
    generator row bijective and multiplicative at every (h, y), y a
    generator of the space, then the action law at every (g, x, h) in
    order.  Returns the outcome as the SemanticError message or the table."""
    from cechmod.algebra import generating_set
    table = tuple(tuple(row) for row in table)
    if len(table) != actor.order or any(len(r) != space.order for r in table):
        return "action table has wrong shape"
    ident = tuple(range(space.order))
    if table[actor.identity] != ident:
        return "identity does not act trivially"
    gens = generating_set(actor.elements(), actor.mul_table, actor.identity)
    space_gens = generating_set(space.elements(), space.mul_table, space.identity)
    smul = space.mul_table
    for x in gens:
        row = table[x]
        if sorted(row) != list(ident):
            return f"element {x} does not act bijectively"
        for h in space.elements():
            for y in space_gens:
                if row[smul[h][y]] != smul[row[h]][row[y]]:
                    return f"element {x} does not act by automorphisms"
    for g in actor.elements():
        tg = table[g]
        for x in gens:
            tx, tgx = table[x], table[actor.mul(g, x)]
            for h in space.elements():
                if tg[tx[h]] != tgx[h]:
                    return f"action is not associative at ({g}, {x}, {h})"
    return table


def _action_outcome(actor, space, table):
    from cechmod import validate_action
    from cechmod.errors import SemanticError
    try:
        return validate_action(actor, space, table).table
    except SemanticError as exc:
        return str(exc)


def test_validate_action_names_the_generator_loops_witness_on_seeded_tables():
    # the row comparisons accept the tables the per-entry loops accept, and
    # a failure carries the same message, with the same first (g, x, h)
    kinds = set()
    for actor, space, rows in _seeded_action_tables():
        want = _generator_loop_validate_action(actor, space, rows)
        assert _action_outcome(actor, space, rows) == want, (actor.name, space.name, rows)
        kinds.add(want.split(" at ")[0] if isinstance(want, str) else "action")
    assert {"action", "action is not associative"} <= kinds


def test_validate_action_names_the_generator_loops_witness_on_single_row_mutants(s3):
    # conjugation on S3 with one row replaced by any map S3 -> S3 that is a
    # permutation, or constant: every failure of the per-entry loops,
    # including the action law off the generators, names the same witness
    conj = conjugation_action(s3).table
    rows = list(itertools.permutations(s3.elements()))
    rows += [(h,) * s3.order for h in s3.elements()]
    kinds = set()
    for g in s3.elements():
        for row in rows:
            table = list(conj)
            table[g] = row
            want = _generator_loop_validate_action(s3, s3, table)
            assert _action_outcome(s3, s3, table) == want, (g, row)
            kinds.add(want.split(" at ")[0] if isinstance(want, str) else "action")
    assert kinds == {"action", "identity does not act trivially", "action is not associative",
                     "element 1 does not act bijectively",
                     "element 1 does not act by automorphisms",
                     "element 2 does not act bijectively",
                     "element 2 does not act by automorphisms"}


def test_order_one_groups_actors_and_spaces_pass():
    # a one-index row getter returns a 1-tuple, so the row comparisons read
    # order-1 tables as the per-entry loops did
    from cechmod import validate_action
    one, z3, s3 = trivial_group(), cyclic_group(3), symmetric_group(3)
    assert (one.identity, one.inv_table) == (0, (0,))
    assert validate_group(1, [[0]]).mul_table == ((0,),)
    for actor, space in [(one, one), (z3, one), (one, s3), (s3, one)]:
        table = trivial_action(actor, space).table
        assert validate_action(actor, space, table).table == table
        assert _generator_loop_validate_action(actor, space, table) == table
    assert two_group_from_crossed_module(crossed_module(one, one, [0], [[0]]))


@pytest.mark.parametrize("grp", [cyclic_group(4), symmetric_group(3)], ids=["Z4", "S3"])
def test_out_of_range_entries_name_the_first_in_row_order(grp):
    # the range scan reads each row's min and max, and walks a row only to
    # name its first entry out of range; -1 and the order, alone or two at
    # once, give the message of the entry-by-entry scan
    from cechmod.errors import SemanticError
    n = grp.order
    cells = [(0, 0), (0, n - 1), (1, 2), (n - 1, 0), (n - 1, n - 1)]
    cases = [[(cell, v)] for cell in cells for v in (-1, n)]
    cases += [[(c1, -1), (c2, n)] for c1, c2 in itertools.permutations(cells, 2)]
    for case in cases:
        table = [list(row) for row in grp.mul_table]
        for (a, b), v in case:
            table[a][b] = v
        first = next(v for row in table for v in row if not 0 <= v < n)
        with pytest.raises(SemanticError) as exc:
            validate_group(n, table)
        assert str(exc.value) == f"table entry {first} out of range", case


def _reference_validate_group(order, table):
    """`validate_group` as it stood with the exhaustive associativity scan:
    every triple (a, b, c) in lexicographic order, then the identity, then
    the inverses.  Returns the outcome as (exception type, args) or as
    (identity, inverse table)."""
    for a in range(order):
        for b in range(order):
            for c in range(order):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return NotAssociative, (a, b, c)
    identity = next((e for e in range(order)
                     if all(table[e][a] == a and table[a][e] == a for a in range(order))), None)
    if identity is None:
        return NoIdentity, ()
    inv = []
    for a in range(order):
        b = next((b for b in range(order)
                  if table[a][b] == identity and table[b][a] == identity), None)
        if b is None:
            return NoInverse, (a,)
        inv.append(b)
    return identity, tuple(inv)


def _outcome(order, table):
    try:
        grp = validate_group(order, table)
    except NotAssociative as exc:
        return NotAssociative, exc.witness
    except NoInverse as exc:
        return NoInverse, (exc.witness,)
    except NoIdentity:
        return NoIdentity, ()
    return grp.identity, grp.inv_table


@pytest.mark.parametrize("grp", [
    cyclic_group(4), power_group(cyclic_group(2), 2)[0], symmetric_group(3)],
    ids=["Z4", "Z2xZ2", "S3"])
def test_light_test_matches_exhaustive_scan_on_every_single_entry_mutant(grp):
    # Light's test on a magma generating set decides associativity exactly,
    # so every table with one entry changed gives the outcome of the scan
    # over all triples: the same first failing triple, or the same identity
    # and inverses (or the same failure to have them).  On these three groups
    # every single-entry mutant turns out non-associative, so the passing
    # branch is read on the unmutated table
    n = grp.order
    kinds = set()
    for a, b in itertools.product(range(n), repeat=2):
        for v in range(n):
            if v == grp.mul_table[a][b]:
                continue
            table = [list(row) for row in grp.mul_table]
            table[a][b] = v
            want = _reference_validate_group(n, table)
            assert _outcome(n, table) == want, (a, b, v)
            kinds.add(want[0] if isinstance(want[0], type) else "group")
    assert NotAssociative in kinds
    assert _outcome(n, grp.mul_table) == (grp.identity, grp.inv_table)



def test_validate_group_matches_the_reference_on_every_table_of_order_two_and_three():
    # every magma on 2 and on 3 elements: the row comparisons give the
    # reference's first failing triple, its identity and inverses, or its
    # failure to have them.  The right-projection magmas a b = b are
    # associative with every row the identity map, so only the column
    # comparison finds that they have no identity
    kinds = set()
    for n in (2, 3):
        for entries in itertools.product(range(n), repeat=n * n):
            table = [list(entries[a * n:(a + 1) * n]) for a in range(n)]
            want = _reference_validate_group(n, table)
            assert _outcome(n, table) == want, table
            kinds.add(want[0] if isinstance(want[0], type) else "group")
        right_projection = [list(range(n))] * n
        assert _outcome(n, right_projection) == (NoIdentity, ())
    assert kinds == {NotAssociative, NoIdentity, NoInverse, "group"}

# -- validate_hom and validate_crossed_module on generators ----------------------------

def _reference_validate_hom(source, target, image):
    """`validate_hom` as it stood with the scan over every pair (a, b) in
    order.  Returns the outcome as the SemanticError message or the GroupHom."""
    from cechmod.algebra import GroupHom
    image = tuple(image)
    if len(image) != source.order:
        return "image table has wrong length"
    for v in image:
        if not (0 <= v < target.order):
            return f"image entry {v} out of range"
    if image[source.identity] != target.identity:
        return "identity is not preserved"
    for a in source.elements():
        for b in source.elements():
            if image[source.mul(a, b)] != target.mul(image[a], image[b]):
                return f"not a homomorphism at ({a}, {b})"
    return GroupHom(source, target, image)


def _hom_outcome(source, target, image):
    from cechmod.algebra import validate_hom
    from cechmod.errors import SemanticError
    try:
        return validate_hom(source, target, image)
    except SemanticError as exc:
        return str(exc)


@pytest.mark.parametrize("kind", ["z4_onto_z2", "sign", "inclusion"])
def test_validate_hom_matches_the_pair_scan_on_every_single_entry_mutant(kind, s3):
    # f(e) = e and f(y x) = f(y) f(x) on generators x decide a homomorphism
    # exactly, so every image table with one entry changed gives the outcome
    # of the scan over all pairs: the same message, naming the same first
    # pair, or the same GroupHom.  Z2 -> S3 moved to another transposition is
    # again a homomorphism, so the passing branch is read on mutants too
    Z2, Z4 = cyclic_group(2), cyclic_group(4)
    source, target, image = {
        "z4_onto_z2": (Z4, Z2, [a % 2 for a in range(4)]),
        "sign": (s3, Z2, [0, 1, 1, 0, 0, 1]),  # S3 is the permutations in lexicographic order
        "inclusion": (Z2, s3, [s3.identity, 1]),  # 1 is (0, 2, 1), the transposition (1 2)
    }[kind]
    assert _hom_outcome(source, target, image) == _reference_validate_hom(source, target, image)
    assert not isinstance(_hom_outcome(source, target, image), str)
    kinds = set()
    for a in source.elements():
        for v in target.elements():
            if v == image[a]:
                continue
            mutant = list(image)
            mutant[a] = v
            want = _reference_validate_hom(source, target, mutant)
            assert _hom_outcome(source, target, mutant) == want, (a, v)
            kinds.add(want if isinstance(want, str) else "hom")
    assert "identity is not preserved" in kinds
    assert any(k.startswith("not a homomorphism") for k in kinds)
    assert ("hom" in kinds) == (kind == "inclusion")


def _all_homs(src, dst):
    """Every homomorphism src -> dst as an image tuple: each choice of images
    of `generating_set(src)`, extended along y -> y x, kept when the pair
    scan accepts it."""
    from cechmod.algebra import generating_set
    gens = generating_set(src.elements(), src.mul_table, src.identity)
    homs = []
    for images in itertools.product(dst.elements(), repeat=len(gens)):
        img = {src.identity: dst.identity}
        walk = [src.identity]
        for y in walk:
            for x, fx in zip(gens, images):
                if src.mul(y, x) not in img:
                    img[src.mul(y, x)] = dst.mul(img[y], fx)
                    walk.append(src.mul(y, x))
        f = tuple(img[a] for a in src.elements())
        if not isinstance(_reference_validate_hom(src, dst, f), str):
            homs.append(f)
    return homs


def _reference_validate_crossed_module(G, H, beta, alpha):
    """`validate_crossed_module` as it stood with the scans over every pair:
    equivariance on G x H, then the Peiffer identity on H x H, in order.
    Returns (exception class, witness), or the CrossedModule."""
    from cechmod.algebra import CrossedModule
    for g in G.elements():
        for h in H.elements():
            if beta.image[alpha.table[g][h]] != G.conj(g, beta.image[h]):
                return EquivarianceFailure, (g, h)
    for h in H.elements():
        for h2 in H.elements():
            if alpha.table[beta.image[h]][h2] != H.conj(h, h2):
                return PeifferFailure, (h, h2)
    return CrossedModule(G, H, beta, alpha)


def test_validate_crossed_module_matches_the_pair_scans():
    # every beta: H -> G and every action alpha of G on H through a
    # homomorphism G -> Aut(H), each passing validate_hom and validate_action,
    # over G and H in {1, Z2, Z3, Z4, S3}: the generator checks give the
    # scans' outcome, the same failure class and first witness or a module
    from cechmod import validate_action, validate_crossed_module, validate_hom
    groups = [trivial_group(), cyclic_group(2), cyclic_group(3), cyclic_group(4),
              symmetric_group(3)]
    kinds = set()
    for G, H in itertools.product(groups, repeat=2):
        aut, taut = automorphism_group(H)
        actions = [validate_action(G, H, [taut.table[phi[g]] for g in G.elements()])
                   for phi in _all_homs(G, aut)]
        for f in _all_homs(H, G):
            beta = validate_hom(H, G, f)
            for alpha in actions:
                want = _reference_validate_crossed_module(G, H, beta, alpha)
                try:
                    got = validate_crossed_module(G, H, beta, alpha)
                except (EquivarianceFailure, PeifferFailure) as exc:
                    got = type(exc), exc.witness
                assert got == want, (G.name, H.name, f, alpha.table)
                kinds.add(want[0] if isinstance(want, tuple) else "module")
    assert kinds == {EquivarianceFailure, PeifferFailure, "module"}


# -- the interchange law on generators ----------------------------------------------

def _reference_interchange(cmx):
    """`two_group_from_crossed_module` as it stood with the scan over every
    two composable pairs.  Returns the AssertionError message, or None."""
    from cechmod.algebra import Strict2Group
    from cechmod.bundle import two_group_groupoid
    tg = Strict2Group(cmx)
    TG = two_group_groupoid(tg)
    bad = TG.check_axioms()
    if bad:
        return f"2-group axiom failure: {bad[0]}"
    for (f1, f2), f12 in TG.compose.items():
        for (f3, f4), f34 in TG.compose.items():
            if tg.tensor(f12, f34) != TG.compose.get((tg.tensor(f1, f3), tg.tensor(f2, f4))):
                return "interchange law fails"
    return None


def _interchange_outcome(cmx):
    try:
        two_group_from_crossed_module(cmx)
    except AssertionError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("cmname", list(CM_BUILDERS))
def test_interchange_on_generators_matches_the_pair_scan_on_the_catalog(cmname):
    assert _interchange_outcome(cm(cmname)) is _reference_interchange(cm(cmname)) is None


def test_interchange_on_generators_matches_the_pair_scan_off_the_axioms():
    # CrossedModule(G, H, beta, alpha) built directly, with beta passing
    # validate_hom and alpha validate_action but the crossed-module axioms
    # unchecked, over G and H in {1, Z2, Z3, Z4, Z2^2, S3}: the check on
    # generators gives the scan's verdict and message.  The law fails where
    # equivariance does (composable pairs are not closed) and where the
    # Peiffer identity does, as for G = 1 and H = S3 (Eckmann-Hilton)
    from cechmod import validate_action, validate_hom
    from cechmod.algebra import CrossedModule
    groups = [trivial_group(), cyclic_group(2), cyclic_group(3), cyclic_group(4),
              _cyclic_product(2, 2), symmetric_group(3)]
    outcomes = {}
    for G, H in itertools.product(groups, repeat=2):
        aut, taut = automorphism_group(H)
        actions = [validate_action(G, H, [taut.table[phi[g]] for g in G.elements()])
                   for phi in _all_homs(G, aut)]
        for f in _all_homs(H, G):
            beta = validate_hom(H, G, f)
            for alpha in actions:
                cmx = CrossedModule(G, H, beta, alpha)
                want = _reference_interchange(cmx)
                assert _interchange_outcome(cmx) == want, (G.name, H.name, f, alpha.table)
                outcomes.setdefault((G.name, H.name), set()).add(want)
    assert outcomes[("1", "S3")] == {"interchange law fails"}
    assert set().union(*outcomes.values()) == {None, "interchange law fails"}
