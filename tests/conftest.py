"""Shared samplers and fixtures.

Every sampler takes an explicit random.Random so test runs are
reproducible from the seeds written into the tests.
"""

import importlib.util
import random
from pathlib import Path

import pytest

from arcinvert.core import INFINITY, MultiDigraph, Multigraph, edge_connectivity

COMPARE_KERNELS = Path(__file__).resolve().parents[1] / "benchmarks" / "compare_kernels.py"


def rand_multidigraph(rng, n_max=10, n_min=2, mult_max=2, density=None):
    """Random multidigraph; density defaults to a random draw."""
    n = rng.randint(n_min, n_max)
    d = density if density is not None else rng.uniform(0.2, 0.9)
    arcs = []
    for t in range(n):
        for h in range(n):
            if t == h or rng.random() >= d:
                continue
            arcs.append((t, h, rng.randint(1, mult_max)))
    return MultiDigraph(n, arcs)


def rand_digraph(rng, n_max=10, n_min=2, density=None, oriented=False):
    """Random digraph (no parallel arcs); oriented=True also bans digons."""
    n = rng.randint(n_min, n_max)
    d = density if density is not None else rng.uniform(0.3, 0.9)
    arcs = []
    for u in range(n):
        for v in range(u + 1, n):
            fwd, bwd = rng.random() < d, rng.random() < d
            if oriented and fwd and bwd:
                fwd, bwd = (True, False) if rng.random() < 0.5 else (False, True)
            if fwd:
                arcs.append((u, v))
            if bwd:
                arcs.append((v, u))
    return MultiDigraph(n, arcs)


def rand_multigraph(rng, n_max=8, n_min=2, mult_max=3, density=None):
    n = rng.randint(n_min, n_max)
    d = density if density is not None else rng.uniform(0.2, 0.9)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < d:
                edges.append((u, v, rng.randint(1, mult_max)))
    return Multigraph(n, edges)


def rand_2kec_digraph(rng, k, n, max_tries=3000):
    """Random digraph on exactly n vertices whose underlying multigraph
    is 2k-edge-connected; digons allowed (they count twice)."""
    for _ in range(max_tries):
        density = rng.uniform(0.5, 0.95)
        arcs = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < density:
                    arcs.append((u, v))
                if rng.random() < density:
                    arcs.append((v, u))
        D = MultiDigraph(n, arcs)
        lam = edge_connectivity(D.underlying())
        if lam != INFINITY and lam >= 2 * k:
            return D
    raise RuntimeError(f"no 2k-edge-connected sample found for k={k}, n={n}")


def rand_family(rng, n, max_sets=4):
    """Random inversion family given as a list of vertex lists."""
    sets = []
    for _ in range(rng.randint(1, max_sets)):
        size = rng.randint(2, max(2, n))
        sets.append(rng.sample(range(n), min(size, n)))
    return sets


@pytest.fixture
def fig2():
    """Four-vertex fixture: one source, one sink, two digons."""
    return MultiDigraph(
        4, [(0, 1), (0, 3), (1, 2), (3, 2), (1, 3), (3, 1), (0, 2), (2, 0)]
    )


CRITERION_LINES = []


def record_criterion(line):
    """Collected by the acceptance tests; replayed after the run so the
    scoreboard survives output capture."""
    CRITERION_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    for line in CRITERION_LINES:
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def cimpl(tmp_path_factory):
    """The compiled backend, as the kernel comparison script loads it:
    the installed extension when there is one, else the checked-in
    _cimpl.c built with gcc into a temporary directory (never into the
    source tree)."""
    spec = importlib.util.spec_from_file_location("compare_kernels", COMPARE_KERNELS)
    compare = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compare)
    module = compare.load_cimpl(tmp_path_factory.mktemp("cimpl"))
    if module is None:
        pytest.skip("compiled backend not built, and no gcc and Python.h to build it")
    return module
