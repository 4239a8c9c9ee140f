import importlib.util
import random
import shutil
import subprocess
import sysconfig
from pathlib import Path

import pytest

from arcinvert import _kernels
from arcinvert._kernels import _pyimpl

from conftest import rand_multidigraph, rand_multigraph


@pytest.fixture(scope="module")
def cimpl(tmp_path_factory):
    """The compiled backend: the installed extension when there is one,
    else the checked-in _cimpl.c built with gcc into a temporary
    directory (never into the source tree) and loaded from there."""
    try:
        return importlib.import_module("arcinvert._kernels._cimpl")
    except ImportError:
        pass
    gcc = shutil.which("gcc")
    include = sysconfig.get_paths()["include"]
    if gcc is None or not Path(include, "Python.h").exists():
        pytest.skip("compiled backend not built, and no gcc and Python.h to build it")
    source = Path(_kernels.__file__).with_name("_cimpl.c")
    target = tmp_path_factory.mktemp("cimpl") / ("_cimpl" + sysconfig.get_config_var("EXT_SUFFIX"))
    subprocess.run(
        [gcc, "-O2", "-shared", "-fPIC", f"-I{include}", str(source), "-o", str(target)],
        check=True,
        capture_output=True,
    )
    spec = importlib.util.spec_from_file_location("arcinvert._kernels._cimpl", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _mask_side(mask, n):
    return {i for i in range(n) if (mask >> i) & 1}


def _cut_out(caps, n, side):
    return sum(
        caps[t * n + h] for t in side for h in range(n) if h not in side
    )


def test_st_max_flow_backends_agree(cimpl):
    rng = random.Random(101)
    for _ in range(120):
        D = rand_multidigraph(rng, n_max=8, mult_max=3)
        caps = D.caps_flat()
        s, t = rng.sample(range(D.n), 2) if D.n >= 2 else (0, 0)
        limit = rng.choice([-1, 1, 2, 3])
        fp, mp = _pyimpl.st_max_flow(D.n, caps, s, t, limit)
        fc, mc = cimpl.st_max_flow(D.n, caps, s, t, limit)
        assert fp == fc
        # min cut sides may differ; both must certify the same value
        if limit == -1 or fp < limit:
            for mask in (mp, mc):
                side = _mask_side(mask, D.n)
                assert s in side and t not in side
                assert _cut_out(caps, D.n, side) == fp


def test_global_min_cut_backends_agree(cimpl):
    rng = random.Random(102)
    for _ in range(100):
        G = rand_multigraph(rng, n_max=8)
        caps = G.caps_flat()
        vp, mp = _pyimpl.global_min_cut(G.n, caps)
        vc, mc = cimpl.global_min_cut(G.n, caps)
        assert vp == vc
        for mask in (mp, mc):
            side = _mask_side(mask, G.n)
            assert 0 < len(side) < G.n
            assert G.cut_size(side) == vp


def test_karc_deficient_cut_backends_agree(cimpl):
    rng = random.Random(103)
    for _ in range(120):
        D = rand_multidigraph(rng, n_max=8)
        caps = D.caps_flat()
        for k in (1, 2, 3):
            mp = _pyimpl.karc_deficient_cut(D.n, caps, k)
            mc = cimpl.karc_deficient_cut(D.n, caps, k)
            assert (mp == -1) == (mc == -1)
            for mask in (mp, mc):
                if mask == -1:
                    continue
                side = _mask_side(mask, D.n)
                assert 0 < len(side) < D.n
                assert _cut_out(caps, D.n, side) < k


def test_dispatch_routes_large_instances_to_python(cimpl, monkeypatch):
    monkeypatch.setattr(_kernels, "_cimpl", cimpl)
    assert _kernels._impl_for(cimpl.MAX_N) is cimpl
    n = cimpl.MAX_N + 2
    caps = [0] * (n * n)
    for i in range(n):
        caps[i * n + (i + 1) % n] = 1
        caps[((i + 1) % n) * n + i] = 1
    flow, _mask = _kernels.st_max_flow(n, caps, 0, n // 2, -1)
    assert flow == 2
