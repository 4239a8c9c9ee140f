import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from arcinvert.core import (
    InversionFamily,
    MultiDigraph,
    Multigraph,
    apply_inversions,
    is_k_arc_strong,
    reverse,
)
from arcinvert.errors import InvalidArgumentError
from arcinvert.oracles import Hypergraph, exact_inv_kp, max_hypergraph_matching, max_p3_packing
from arcinvert.reductions import (
    ReductionInstance,
    _gadget,
    _strong_tournament,
    gen_do_m22inv,
    gen_hm,
    gen_npsi_22,
    gen_p3p,
    gen_psi_ksi,
    gen_push_n1,
    minimal_pattern_source,
    random_pattern_source,
    rotative_tournament,
)

from conftest import rand_digraph


def test_rotative_tournament_connectivity():
    for m in range(3, 16):
        T = rotative_tournament(m)
        assert T.n == m
        assert T.arc_count() == m * (m - 1) // 2
        assert is_k_arc_strong(T, (m - 1) // 2)
        assert m <= 4 or not is_k_arc_strong(T, (m - 1) // 2 + 1)


def test_rotative_tournament_matches_the_checking_constructor():
    def reference(m):
        if m % 2 == 1:
            return MultiDigraph(m, [(i, (i + d) % m) for i in range(m) for d in range(1, m // 2 + 1)])
        big = reference(m + 1)
        return MultiDigraph(m, [(t, h) for (t, h, _m) in big.arcs() if t < m and h < m])

    for m in range(1, 41):
        T = rotative_tournament(m)
        assert T == reference(m)
        assert list(T.arcs()) == list(reference(m).arcs())


def test_strong_tournament_is_built_once_per_order_and_k():
    assert _strong_tournament(9, 3) is _strong_tournament(9, 3)
    assert _strong_tournament(9, 2) is not _strong_tournament(9, 3)
    assert _strong_tournament(9, 2) == _strong_tournament(9, 3) == rotative_tournament(9)


def test_gadget_rejects_a_repeated_arc():
    assert _gadget(3, [(0, 1), (1, 2), (2, 0)]) == MultiDigraph(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(RuntimeError):
        _gadget(3, [(0, 1), (1, 2), (0, 1)])


def test_gadget_digraphs_pass_the_checking_constructor():
    rng = random.Random(0x6AD6E7)
    instances = [gen_p3p(Multigraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]), k) for k in (1, 2, 3)]
    H = Hypergraph(7, [frozenset({0, 1, 2}), frozenset({2, 3, 4}), frozenset({4, 5, 6})])
    instances += [gen_hm(H, k) for k in (1, 2)]
    for _ in range(6):
        n = rng.randint(3, 7)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if (u + v) % 2 and rng.random() < 0.6]
        instances.append(gen_p3p(Multigraph(n, edges or [(0, 1)]), rng.randint(1, 2)))
    for inst in instances:
        D = inst.digraph
        assert D == MultiDigraph(D.n, [(t, h, m) for (t, h, m) in D.arcs()])
        assert D.is_digraph()


def test_planted_families_are_verified_at_construction():
    D = MultiDigraph(3, [(0, 1), (1, 2), (2, 0)])
    bogus = InversionFamily([[0, 1]])  # breaks the cycle
    with pytest.raises(RuntimeError):
        ReductionInstance(D, "p3p", {"k": 1, "p": 3}, {}, bogus)


def test_p3p_on_a_path_matches_the_packing_formula():
    # path on 3 vertices: one triple packs, value = ceil((3 - 1) / 2) = 1
    G = Multigraph(3, [(0, 1), (1, 2)])
    inst = gen_p3p(G, 1)
    y, _packing = max_p3_packing(G)
    assert y == 1
    assert inst.digraph.n == 9
    assert inst.source_meta["predicted_value"] == 1
    assert len(inst.planted.sets) == 1
    out = apply_inversions(inst.digraph, inst.planted.sets)
    assert is_k_arc_strong(out, 1)
    # lower bound: no single at-most-3 inversion below the formula value
    assert exact_inv_kp(inst.digraph, 1, 3, mode="at-most", l_max=0) is None


def test_p3p_odd_leftover_pads_with_an_overlap():
    # no edges: nothing packs, 5 leftover vertices need 3 pair covers
    G = Multigraph(5, [(0, 1)])
    inst = gen_p3p(G, 1)
    assert inst.source_meta["packing_size"] == 0
    assert inst.source_meta["predicted_value"] == 3
    assert len(inst.planted.sets) == 3


def test_p3p_rejects_odd_cycles():
    G = Multigraph(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(InvalidArgumentError):
        gen_p3p(G, 1)


def test_hm_matches_the_matching_formula():
    H = Hypergraph(6, [frozenset({0, 1, 2}), frozenset({3, 4, 5})])
    inst = gen_hm(H, 1)
    x, _w = max_hypergraph_matching(H)
    assert x == 2
    assert inst.source_meta["predicted_value"] == 2
    assert len(inst.planted.sets) == 2
    assert is_k_arc_strong(apply_inversions(inst.digraph, inst.planted.sets), 1)


def test_hm_leftover_window_pads():
    H = Hypergraph(4, [frozenset({0, 1, 2})])
    inst = gen_hm(H, 1)
    # one matched edge plus one leftover vertex: ceil(3/2) = 2
    assert inst.source_meta["predicted_value"] == 2
    assert len(inst.planted.sets) == 2


def test_hm_rejects_non_uniform_sources():
    H = Hypergraph(5, [frozenset({0, 1, 2}), frozenset({3, 4})])
    with pytest.raises(InvalidArgumentError):
        gen_hm(H, 1)


def test_do_m22inv_arc_multiplicities():
    G = Multigraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    inst = gen_do_m22inv(G, [(0, 1)])
    for (t, h, m) in inst.digraph.arcs():
        assert t < h
        assert m == (1 if (t, h) == (0, 1) else 2)
    assert inst.params == {"k": 2, "p": 2}
    if inst.planted is not None:
        out = apply_inversions(inst.digraph, inst.planted.sets)
        assert is_k_arc_strong(out, 2)


def test_do_m22inv_infeasible_case_has_no_planted():
    # a bridge cannot be in any strong orientation's deletable set
    G = Multigraph(4, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 0)])
    inst = gen_do_m22inv(G, [(0, 1), (1, 2), (2, 0)])
    assert inst.planted is None or is_k_arc_strong(
        apply_inversions(inst.digraph, inst.planted.sets), 2
    )


def test_push_n1_parity_of_the_flip_set():
    # any oriented graph, so that D is often not strong and the search
    # has to flip vertices; non-empty flip sets of both parities occur
    rng = random.Random(701)
    seen = {0: 0, 1: 0}
    for _ in range(60):
        D = rand_digraph(rng, n_max=7, n_min=4, oriented=True)
        inst = gen_push_n1(D)
        if inst.planted is None:
            continue
        flip = inst.source_meta["flip_set"]
        assert inst.source_meta["flip_parity"] == len(flip) % 2
        if flip:
            seen[len(flip) % 2] += 1
        assert len(inst.planted.sets) == len(flip)
        for s in inst.planted.sets:
            assert len(s) == D.n - 1
    assert seen[0] >= 5 and seen[1] >= 5


def test_push_n1_rejects_digons():
    D = MultiDigraph(4, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 0)])
    with pytest.raises(InvalidArgumentError):
        gen_push_n1(D)


def test_psi_ksi_minimal_instance():
    G, parts, H = minimal_pattern_source()
    inst = gen_psi_ksi(G, parts, H, 2)
    assert inst.params == {"k": 2, "p": 9}
    assert inst.digraph.n == 60
    assert inst.planted is not None and len(inst.planted.sets) == 1
    (only,) = inst.planted.sets
    assert len(only) == 9


def test_npsi_22_minimal_instance():
    G, parts, H = minimal_pattern_source()
    inst = gen_npsi_22(G, parts, H)
    assert inst.params["ell"] == 36
    assert inst.digraph.n == 70
    assert len(inst.planted.sets) == 36
    assert all(len(s) == 2 for s in inst.planted.sets)


def test_pattern_normalisation_validation_names_the_failure():
    G, parts, H = minimal_pattern_source()
    with pytest.raises(InvalidArgumentError, match="fewer than 2 parts"):
        gen_psi_ksi(G, [list(range(9))], Multigraph(1, []), 2)
    small = [parts[0][:2], parts[1], parts[2] + parts[0][2:]]
    with pytest.raises(InvalidArgumentError, match="fewer than 3 vertices"):
        gen_psi_ksi(G, small, H, 2)
    inside = Multigraph(9, [(0, 1), (0, 3), (0, 6), (3, 6), (1, 4), (1, 7), (4, 7)])
    with pytest.raises(InvalidArgumentError, match="inside a part"):
        gen_psi_ksi(inside, parts, H, 2)
    sparse = Multigraph(9, [(0, 3), (0, 6), (3, 6), (1, 4), (1, 7)])
    with pytest.raises(InvalidArgumentError, match="fewer than 2 edges between"):
        gen_npsi_22(sparse, parts, H)


def test_random_pattern_sources_build_verified_instances():
    rng = random.Random(702)
    for _ in range(3):
        source = random_pattern_source(rng, r=3, part_size=3, extra_edges=1)
        inst = gen_psi_ksi(*source, 2)
        assert inst.planted is not None
        inst2 = gen_npsi_22(*source)
        assert inst2.planted is not None
        assert len(inst2.planted.sets) == inst2.params["ell"]


def test_push_n1_planted_respects_reversal_symmetry():
    # inverting all (n-1)-complements of an odd flip set reverses the
    # repaired digraph; strongness is invariant under reversal, so the
    # planted family verifies on D directly in either parity
    rng = random.Random(703)
    for _ in range(20):
        n = rng.randint(4, 6)
        arcs = [(i, (i + 1) % n) for i in range(n)]
        D = MultiDigraph(n, arcs)
        inst = gen_push_n1(D)
        assert inst.planted is not None
        out = apply_inversions(D, inst.planted.sets)
        assert is_k_arc_strong(out, 1) or is_k_arc_strong(reverse(out), 1)


SRC = Path(__file__).resolve().parents[1] / "src"


def _gen(tmp_path, *args):
    """(exit code, stdout, stderr) of ``arcinvert gen`` in a child
    interpreter; a generator that never returns fails on the timeout."""
    paths = [str(SRC), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    argv = [sys.executable, "-m", "arcinvert.cli", "gen", *args, "--seed", "1", "-o", str(tmp_path / "g.mdg")]
    out = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    return out.returncode, out.stdout, out.stderr


@pytest.mark.parametrize(
    "args, message",
    [
        (("hm", "--vertices", "4", "--edges", "10", "--arity", "3"), "at most 4 distinct edges fit"),
        (("hm", "--arity", "0"), "--arity must be positive, got 0"),
        (("hm", "--arity", "-1"), "--arity must be positive, got -1"),
        (("p3p", "--edges", "-1"), "--edges must be non-negative, got -1"),
        (("do-m22inv", "--edges", "-2"), "--edges must be non-negative, got -2"),
        (("do-m22inv", "--deletable", "-1"), "--deletable must be non-negative, got -1"),
        (("psi-ksi", "--extra-edges", "9"), "at most 8 extra edges fit per pattern edge"),
    ],
)
def test_gen_rejects_impossible_counts_as_usage_errors(tmp_path, args, message):
    code, out, err = _gen(tmp_path, *args)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_gen_accepts_the_largest_counts_that_fit(tmp_path):
    for args in (("hm", "--vertices", "4", "--edges", "4"), ("psi-ksi", "--extra-edges", "8"),
                 ("p3p", "--edges", "0"), ("do-m22inv", "--edges", "0", "--deletable", "0")):
        code, out, err = _gen(tmp_path, *args)
        assert code == 0 and err == "" and "wrote: " in out
