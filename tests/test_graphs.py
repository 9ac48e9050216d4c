"""Graph-colouring sets.  One prime p_v per vertex and the element
b_uv = p_u p_v^(q-1) per edge give the normal e_u - e_v, whose hyperplane is
x_u = x_v.  So a point of F_q^n lies on no hyperplane iff it is a proper
q-colouring of the graph: the uncovered count is the chromatic polynomial
P_G(q), and the set is a Yes iff the graph has no proper q-colouring."""

import random
from itertools import product
from math import prod

import pytest

from qresidue.covering import covers, uncovered_count
from qresidue.criterion import Verdict, decide, first_odd_primes, skalba_oracle
from qresidue.profiles import QInput, build_profile, hyperplanes_of


def graph_set(n, edges, q):
    """The elements p_u p_v^(q-1), one per edge (u, v) of a graph on vertices 0..n-1."""
    primes = first_odd_primes(q, n)
    return [primes[u] * primes[v] ** (q - 1) for u, v in edges]


def complete(n):
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def cycle(n):
    return [(u, (u + 1) % n) for u in range(n)]


def wheel(n):
    """The cycle on vertices 0..n-1 and a hub, vertex n, joined to each."""
    return cycle(n) + [(n, u) for u in range(n)]


def cycle_polynomial(n, q):
    return (q - 1) ** n + (-1) ** n * (q - 1)


# (graph, its vertex count, P_G(q)) for each family; the graphs have
# 2 to 9 vertices, and each is checked where q^n <= 3^9
CLOSED_FORMS = (
    [(complete(n), n, lambda q, n=n: prod(q - i for i in range(n))) for n in range(2, 10)]
    + [(cycle(n), n, lambda q, n=n: cycle_polynomial(n, q)) for n in range(3, 10)]
    + [(wheel(n), n + 1, lambda q, n=n: q * cycle_polynomial(n, q - 1)) for n in range(3, 9)]
)


@pytest.mark.parametrize("q", [3, 5, 7])
def test_uncovered_count_is_the_chromatic_polynomial(q):
    checked = 0
    for edges, n, chromatic in CLOSED_FORMS:
        if q**n > 3**9:
            continue
        B = graph_set(n, edges, q)
        profile = build_profile(QInput(q, tuple(B)))
        # coordinate u is vertex u: the primes are the support in increasing order
        assert profile.support_primes == first_odd_primes(q, n)
        normals = hyperplanes_of(profile)
        assert normals == [tuple(1 if w == u else q - 1 if w == v else 0 for w in range(n))
                           for u, v in edges]
        count = chromatic(q)
        assert uncovered_count(normals, n, q) == count, (edges, q)
        assert decide(QInput(q, tuple(B))).verdict is (Verdict.YES if count == 0 else Verdict.NO)
        checked += 1
    assert checked == {3: 21, 5: 12, 7: 9}[q]


PETERSEN = cycle(5) + [(5 + i, 5 + (i + 2) % 5) for i in range(5)] + [(i, 5 + i) for i in range(5)]
# the Mycielskian of C5: its cycle 0..4, a shadow 5 + i of each cycle vertex
# i joined to i's two neighbours, and vertex 10 joined to every shadow
GROTZSCH = (cycle(5) + [(5 + i, (i + s) % 5) for i in range(5) for s in (-1, 1)]
            + [(10, 5 + i) for i in range(5)])


def test_petersen_graph_is_a_no_with_a_proper_3_colouring():
    q, n = 3, 10
    decision = decide(QInput(q, tuple(graph_set(n, PETERSEN, q))))
    assert decision.verdict is Verdict.NO
    primes = first_odd_primes(q, n)
    support = decision.profile.support_primes
    colour = [decision.uncovered[support.index(p)] for p in primes]
    assert all(colour[u] % q != colour[v] % q for u, v in PETERSEN)
    # P(Petersen, 3) = 120: its proper 3-colourings, counted with plain ints
    proper = sum(all(x[u] != x[v] for u, v in PETERSEN) for x in product(range(q), repeat=n))
    assert proper == 120
    assert uncovered_count(decision.covering.normals, n, q) == proper


def test_grotzsch_graph_is_a_yes_whose_assignment_holds():
    # the Grötzsch graph has chromatic number 4, so no proper 3-colouring
    q, n = 3, 11
    assert len(GROTZSCH) == 20
    decision = decide(QInput(q, tuple(graph_set(n, GROTZSCH, q))))
    assert decision.verdict is Verdict.YES
    covering = decision.covering
    assert decision.profile.support_primes == first_odd_primes(q, n)
    normals, assignment = covering.normals, covering.assignment
    assert len(assignment) == q**n - 1
    rng = random.Random(11)
    for j in rng.sample(range(q**n - 1), 400):
        point = [(j + 1) // q ** (n - 1 - i) % q for i in range(n)]  # entry j is point j + 1
        on = [sum(a * x for a, x in zip(normal, point)) % q == 0 for normal in normals]
        owner = assignment[j]
        assert on[owner] and not any(on[:owner]), (j, owner)


def random_graph(rng, n_max, e_max):
    """(n, edges): n in [2, n_max] vertices and 1 to e_max distinct edges."""
    n = rng.randint(2, n_max)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return n, rng.sample(pairs, rng.randint(1, min(e_max, len(pairs))))


# (q, vertices, edges): q^n <= 3^9 points and (q-1)^|E| <= 10^5 twists
@pytest.mark.parametrize("q, n_max, e_max", [(3, 9, 16), (5, 6, 8)])
def test_random_graphs_against_the_independent_routes(q, n_max, e_max):
    rng = random.Random(q)
    verdicts = set()
    for _ in range(40):
        n, edges = random_graph(rng, n_max, e_max)
        normals = [tuple(1 if w == u else q - 1 if w == v else 0 for w in range(n))
                   for u, v in edges]
        proper = sum(all(x[u] != x[v] for u, v in edges) for x in product(range(q), repeat=n))
        assert uncovered_count(normals, n, q) == proper, (n, edges)
        covered = covers(normals, n, q).covered
        assert covered == skalba_oracle([list(row) for row in zip(*normals)], q), (n, edges)
        assert covered == (proper == 0)
        verdicts.add(covered)
    # only q = 3 has room for a graph with no proper q-colouring (K_4, say)
    assert verdicts == ({True, False} if q == 3 else {False})
