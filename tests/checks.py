"""Test-side helpers: rendering of verify.CheckResult, the scalar
between-step oracle, the per-point view of tower stacks, and point
selection on tower stacks and walks."""

import operator
from dataclasses import dataclass

import numpy as np

from isograss.linalg import Subspace, complement_rows, enumerate_subspaces, rref
from isograss.towers import TowerStack


def check_line(result) -> str:
    """A check as one PASS/FAIL line; a failure carries its details."""
    status = "PASS" if result.passed else "FAIL"
    extra = f"  [{result.details}]" if result.details and not result.passed else ""
    return f"{status}  {result.name}{extra}"


def scalar_between(lower: Subspace, upper: Subspace, d: int):
    """All X with lower <= X <= upper and dim X = d, one Subspace at a time:
    the greedy complement of lower in upper, then every point of
    Gr_{d-u}(F_p^{w-u}) multiplied into it, stacked under lower and reduced
    by a scalar rref.  The order the batched step must keep."""
    u, w, p = lower.dim, upper.dim, lower.p
    if not u <= d <= w:
        return
    if not upper.contains(lower):
        raise ValueError("lower is not contained in upper")
    if d in (u, w):
        yield lower if d == u else upper
        return
    comp = complement_rows(lower.basis, upper.basis, p)
    for q in enumerate_subspaces(w - u, d - u, p, budget=None):
        yield Subspace(rref(np.vstack([lower.basis, q.basis @ comp % p]), p), lower.n, p)


@dataclass(frozen=True)
class FlagDatum:
    """One point of the resolution: per-factor isotropics and the flag chain."""

    ptildes: tuple[Subspace, ...]  # in B_i coordinates
    ps: tuple[Subspace, ...]       # in B, supported on the first blocks
    hs: tuple[Subspace, ...]      # the last one is the point's target


def flag_datum(stack: TowerStack, i) -> FlagDatum:
    """Point ``i`` of a tower stack as Subspaces."""
    i, n, p = operator.index(i), stack.space.n, stack.space.p
    return FlagDatum(
        tuple(Subspace(x[i], f.n, p) for x, f in zip(stack.ptildes, stack.space.factors)),
        tuple(Subspace(x[i], n, p) for x in stack.ps),
        tuple(Subspace(x[i], n, p) for x in stack.hs),
    )


def flag_data(stack: TowerStack) -> list[FlagDatum]:
    """Every point of a tower stack as Subspaces, in walk order."""
    return [flag_datum(stack, i) for i in range(len(stack))]


def take_points(stack: TowerStack, index) -> TowerStack:
    """The points of ``stack`` at ``index``, in that order (repeats allowed)."""
    index = np.asarray(index, dtype=np.intp)
    return TowerStack(
        stack.space, *([x[index] for x in part] for part in (stack.ptildes, stack.ps, stack.hs))
    )


def same_points(a: TowerStack, b: TowerStack) -> bool:
    """Whether two walks give the same points in the same order."""
    mine, theirs = a.ptildes + a.ps + a.hs, b.ptildes + b.ps + b.hs
    return len(mine) == len(theirs) and all(map(np.array_equal, mine, theirs))


def edit_whole_walks(real, edit):
    """A stand-in for ``towers._walk`` that applies ``edit(space, label,
    points)`` to each whole-resolution job (its ceiling is all of B) and
    leaves the fiber walks as they are."""
    def walk(space, jobs, budget):
        return [edit(space, label, points) if ceiling.dim == space.n else points
                for (label, ceiling), points in zip(jobs, real(space, jobs, budget))]

    return walk
