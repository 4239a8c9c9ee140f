"""Deciding whether p-bounded inversions can make a digraph k-arc-strong.

Above a vertex threshold the answer is structural: for even p it is
exactly 2k-edge-connectivity of the underlying graph, for odd p
additionally the digraph must not carry a k-obstruction partition.
Below the threshold the exhaustive parity-space search of the parity
module, parity._gf2_search, decides; no route here imports the
reference oracles.  For n <= 16 it runs its forced-parity refutation
once its DFS first backtracks, so a decision whose first descent finds
a family pays for no refutation.  The threshold is
max(p + 2, 2k + 2) for even p and max(p + 2, 4k + 2) for odd p.

Witnesses are built from a pair or triple family (small sets are easy
to find) whose members are then rewritten into exact-size-p families by
the simulation plans; symmetric differences of the plans compose
because inversion effects add up over GF(2).  The plans are built
privately (simulation._plan_sets) and never checked one by one: the
merged family is verified once, by _finish, like every witness.  The
triple family, and the exhaustive fallback where the rewriting rules do
not apply, come from the same parity-space search without the
refutation: the decision has already proved that the family exists, so
the 2^n cut scan could only confirm it.
"""

from dataclasses import dataclass

from .approx import _min_pairs
from .core import (
    _check_digraph,
    _check_k,
    _check_p,
    _verified,
    InversionFamily,
    edge_connectivity,
)
from .errors import PreconditionViolatedError, UnsupportedError
from .obstruction import ObstructionCertificate, _obstruction_scan
from .parity import _gf2_search
from .simulation import _plan_sets

REASON_NOT_CONNECTED = "not-2k-edge-connected"
REASON_THEOREM_EVEN = "theorem-even"
REASON_THEOREM_ODD = "theorem-odd"
REASON_OBSTRUCTION = "k-obstruction"
REASON_KERNEL = "kernel-exhaustive"


def threshold(k, p):
    """Smallest n from which feasibility is purely structural."""
    _check_k(k)
    _check_p(p)
    if p % 2 == 0:
        return max(p + 2, 2 * k + 2)
    return max(p + 2, 4 * k + 2)


@dataclass(frozen=True)
class FeasibilityVerdict:
    """Answer with its justification.

    reason is one of not-2k-edge-connected, theorem-even, theorem-odd,
    k-obstruction, kernel-exhaustive.  certificate carries the
    obstruction partition when that is the reason; witness carries a
    verified inversion family when one was requested and exists."""

    feasible: bool
    reason: str
    certificate: ObstructionCertificate | None = None
    witness: InversionFamily | None = None


def is_kp_invertible(D, k, p, witness=False):
    """Can some family of exact-size-p inversions make D k-arc-strong?

    Returns a FeasibilityVerdict.  With witness=True a verified family
    is attached to feasible verdicts.  For odd p above the threshold the
    k-obstruction scan runs once per (D, k): D keeps its answer, so
    other p, witness requests and is_k_obstruction share it."""
    _check_digraph(D, "is_kp_invertible", simple=True)
    _check_k(k)
    _check_p(p)
    if edge_connectivity(D.underlying()) < 2 * k:
        return FeasibilityVerdict(False, REASON_NOT_CONNECTED)
    if D.n < threshold(k, p):
        fam = _gf2_search(D, k, p, "exact-size", refute=True)
        if fam is None:
            return FeasibilityVerdict(False, REASON_KERNEL)
        fam = _finish(D, k, p, fam)
        return FeasibilityVerdict(True, REASON_KERNEL, witness=fam if witness else None)
    if p % 2 == 0:
        reason = REASON_THEOREM_EVEN
    else:
        cert = _obstruction_scan(D, k)
        if cert is not None:
            return FeasibilityVerdict(False, REASON_OBSTRUCTION, certificate=cert)
        reason = REASON_THEOREM_ODD
    return FeasibilityVerdict(True, reason, witness=_witness(D, k, p) if witness else None)


def construct_witness(D, k, p):
    """Verified family of exact-size-p inversions making D k-arc-strong.

    This is the witness of is_kp_invertible(D, k, p, witness=True);
    raises PreconditionViolatedError when the instance is infeasible."""
    verdict = is_kp_invertible(D, k, p, witness=True)
    if not verdict.feasible:
        raise PreconditionViolatedError(f"instance is not ({k},{p})-invertible: {verdict.reason}")
    return verdict.witness


def _witness(D, k, p):
    """Witness for a feasible digraph D with n at or above the threshold.

    Even p goes through an optimal pair family, odd p through a triple
    family; each small set is rewritten by a simulation plan and the
    plans are merged by symmetric difference.  Inputs where the
    rewriting rules do not apply (digon-free tournaments for even p,
    independence number below 3 for p = 1 mod 4) fall back to the
    exhaustive search.

    The plan sets come from simulation._plan_sets, which finds the
    anchor pair or independent triple once for all of them; no plan is
    checked on its own, as _finish verifies the merged family.  The
    plans alone make up the witness: applying plan i equals inverting
    small set i, so their symmetric difference acts as the whole small
    family.  The small sets themselves never enter the
    merge: each is the target of exactly one plan, so with the targets
    they would cancel in pairs, and they cannot meet a plan set, which
    has size p >= 4 against their 2 or 3.

    A D that is already k-arc-strong needs no check of its own here: its
    pair search stops at the root, which has no deficient vertex and
    gets the backend's -1, and its coset search returns on its first
    line, so either base is the empty family, whose zero plans merge to
    the empty family that _finish verifies."""
    base = _min_pairs(D, k) if p % 2 == 0 else _gf2_search(D, k, 3, "exact-size")
    if base is None:
        raise RuntimeError(f"internal error: no family of {2 + p % 2}-sets above the threshold")
    if p <= 3:
        return _finish(D, k, p, base)
    try:
        plans = _plan_sets(D, [sorted(s) for s in base.sets], p)
    except UnsupportedError:
        fam = _gf2_search(D, k, p, "exact-size")
        if fam is None:
            raise RuntimeError("internal error: feasible instance rejected by exhaustive search")
        return _finish(D, k, p, fam)
    return _finish(D, k, p, InversionFamily.symmetric_difference(*plans))


def _finish(D, k, p, fam):
    if any(len(s) != p for s in fam.sets):
        raise RuntimeError("internal error: witness contains a set of the wrong size")
    return _verified(D, fam, k, "constructed witness")
