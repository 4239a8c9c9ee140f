"""Byte-stable CLI reports, checked against a recorded transcript.

Every instance is built in-process from a fixed seed and written to a
temporary directory.  The transcript holds, for each command line, its
stdout, its stderr and its exit code, with three things masked: the
temporary directory, the millis: line and the millis column of bench
rows.
"""

import random
import re
from pathlib import Path

from arcinvert.cli import cli_dispatch
from arcinvert.core import MultiDigraph, edge_connectivity, write_mdg
from arcinvert.obstruction import star_matching_obstruction

GOLDEN = Path(__file__).with_name("cli_golden.txt")
BENCH_HEADER = "instance,k,p,solver,value,verified,millis"


def _random_digraph(seed, n, density, lam):
    """A seeded digraph on n vertices whose underlying graph is
    lam-edge-connected and whose vertex 0 is a sink, so that no
    witness is empty."""
    rng = random.Random(seed)
    while True:
        arcs = []
        for u in range(n):
            for v in range(u + 1, n):
                r = rng.random()
                if u == 0 and r < density:
                    arcs.append((v, u))
                elif r < density * 0.8:
                    arcs.append((u, v) if rng.random() < 0.5 else (v, u))
                elif r < density:
                    arcs += [(u, v), (v, u)]
        D = MultiDigraph(n, arcs)
        if edge_connectivity(D.underlying()) >= lam:
            return D


def _transitive_tournament(n):
    return MultiDigraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def _instances():
    obs, _cert = star_matching_obstruction(3)
    return {
        "small.mdg": _random_digraph(11, 5, 0.7, 2),
        "mid.mdg": _random_digraph(12, 8, 0.75, 4),
        "big.mdg": _random_digraph(13, 11, 0.6, 4),
        "obs.mdg": obs,
        # a digon-free tournament: no anchor for even-p pair plans
        "tour.mdg": _transitive_tournament(7),
        # independence number 1: no independent triple for p = 1 mod 4
        "tour9.mdg": _transitive_tournament(9),
        # a cycle with chords and one arc turned round, so 3 is a sink
        "cycle.mdg": MultiDigraph(8, [(i, (i + 1) % 8) for i in range(8) if i != 3] + [(4, 3), (0, 4), (6, 2)]),
    }


def _commands():
    cmds = []
    for name in ("small.mdg", "mid.mdg", "big.mdg"):
        for k in (1, 2):
            for p in (3, 4, 5):
                cmds.append(["feasible", "--k", str(k), "--p", str(p), name])
                cmds.append(["feasible", "--k", str(k), "--p", str(p), "--witness", name])
    for name, p in (("obs.mdg", 3), ("obs.mdg", 4), ("tour.mdg", 4), ("tour9.mdg", 5)):
        cmds.append(["feasible", "--k", "1", "--p", str(p), name])
        cmds.append(["feasible", "--k", "1", "--p", str(p), "--witness", name])
    cmds += [
        ["obstruction", "--k", "1", "obs.mdg"],
        ["obstruction", "--k", "1", "big.mdg"],
        ["obstruction", "--k", "2", "big.mdg"],
        ["approx", "--k", "1", "--p", "3", "cycle.mdg"],
        ["approx", "--k", "1", "--p", "3", "--heuristic", "cycle.mdg"],
        ["approx", "--k", "2", "--p", "4", "mid.mdg"],
        ["approx", "--k", "2", "--p", "4", "--heuristic", "mid.mdg"],
        ["exact", "--k", "1", "--p", "3", "small.mdg"],
        ["exact", "--k", "1", "--p", "3", "--le", "small.mdg"],
        ["exact", "--k", "2", "--p", "4", "--le", "mid.mdg"],
        ["exact", "--k", "1", "--p", "3", "--lmax", "0", "cycle.mdg"],
        ["simulate", "--p", "4", "--set", "0,1", "mid.mdg"],
        ["simulate", "--p", "4", "--set", "2,5", "mid.mdg"],
        ["simulate", "--p", "3", "--set", "0,2,4", "mid.mdg"],
        ["simulate", "--p", "5", "--set", "0,2,4", "big.mdg"],
        ["simulate", "--p", "5", "--set", "0,1,2,3,4", "mid.mdg"],
        ["simulate", "--p", "4", "--set", "0,1", "tour.mdg"],
        ["simulate", "--p", "5", "--set", "0,1,2", "tour9.mdg"],
        ["bench", "manifest.txt"],
    ]
    return cmds


MANIFEST = """\
# every solver
small.mdg 1 3 exact
small.mdg 1 3 exact-le
cycle.mdg 1 3 approx
cycle.mdg 1 3 approx-greedy
mid.mdg 2 4 feasible
obs.mdg 1 3 feasible
tour.mdg 1 4 feasible
tour9.mdg 1 5 feasible
cycle.mdg 2 3 exact
"""


def _mask(lines, tmp):
    out = []
    bench = False
    for line in lines:
        line = line.replace(tmp, "<tmp>")
        if line.startswith("millis: "):
            line = "millis: <masked>"
            bench = False
        elif bench:
            line = re.sub(r",\d+$", ",<masked>", line)
        elif line == BENCH_HEADER:
            bench = True
        out.append(line)
    return out


def transcript(tmp_path, capsys):
    """The masked reports of every command, in order."""
    for name, D in _instances().items():
        write_mdg(str(tmp_path / name), D)
    (tmp_path / "manifest.txt").write_text(MANIFEST)
    tmp = str(tmp_path)
    lines = []
    for argv in _commands():
        argv = [str(tmp_path / a) if a.endswith((".mdg", ".txt")) else a for a in argv]
        code = cli_dispatch(argv)
        captured = capsys.readouterr()
        lines += _mask(captured.out.splitlines(), tmp)
        lines += ["stderr: " + line for line in _mask(captured.err.splitlines(), tmp)]
        lines.append(f"exit: {code}")
    return "\n".join(lines) + "\n"


def test_cli_reports_match_the_recorded_transcript(tmp_path, capsys):
    assert transcript(tmp_path, capsys) == GOLDEN.read_text(encoding="utf-8")
