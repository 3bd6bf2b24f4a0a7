"""Exact KKT solvers for separable problems with box + budget structure.

The enforced-waits problem (Figure 1), after the change of variables
``x_i = t_i + w_i``, relaxes to::

    minimize    sum_i t_i / x_i
    subject to  lo_i <= x_i <= hi_i          (bounds from w >= 0 and caps)
                sum_i b_i x_i <= B           (the deadline budget)

This is a classic *waterfilling* problem: at the optimum either the budget
is slack and every ``x_i`` sits at its cap, or there is a water level
``lam > 0`` with ``x_i = clip(sqrt(t_i / (lam * b_i)), lo_i, hi_i)`` and
the budget tight.  The level is found by bisection on the monotone budget
usage.  The solution is exact (up to bisection tolerance) and its KKT
residual is reported so callers can *certify* optimality.

:func:`waterfill_chain` solves the *full* program, chain rows
``g_{i-1} x_i <= x_{i-1}`` included, exactly: substituting
``y_i = G_i x_i`` with ``G_i = prod_{j<i} g_j`` turns the chain rows into
"``y`` is nonincreasing", so for a fixed budget multiplier the Lagrangian
is an isotonic problem that pool-adjacent-violators solves in one pass,
and the multiplier itself has a closed form once the pooled block
structure is known.  :mod:`repro.core.enforced_waits` uses it for every
``auto`` solve.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import SolverError
from repro.solvers.bisection import bisect_root
from repro.solvers.result import SolverResult, SolverStatus

__all__ = ["waterfill_box_budget", "waterfill_chain", "project_box_budget"]


def _validate_box(lo: np.ndarray, hi: np.ndarray) -> None:
    if (lo > hi + 1e-15).any():
        bad = int(np.argmax(lo - hi))
        raise SolverError(
            f"empty box: lo[{bad}]={lo[bad]:.6g} > hi[{bad}]={hi[bad]:.6g}"
        )


def waterfill_box_budget(
    t: np.ndarray,
    b: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    budget: float,
    *,
    tol: float = 1e-12,
) -> SolverResult:
    """Solve ``min sum t_i/x_i  s.t. lo <= x <= hi, sum b_i x_i <= budget``.

    Requirements: ``t >= 0``, ``b > 0``, ``lo > 0``.  Infinite ``hi``
    entries are allowed (uncapped variables) provided the budget constraint
    keeps the problem bounded whenever it must bind.

    Returns a :class:`SolverResult`; ``extra['lam']`` holds the budget
    multiplier (0 when the budget is slack).
    """
    t = np.asarray(t, dtype=float)
    b = np.asarray(b, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    n = t.size
    if not (b.size == lo.size == hi.size == n):
        raise SolverError("waterfill: t, b, lo, hi must have equal length")
    if (t < 0).any():
        raise SolverError("waterfill: t must be >= 0")
    if (b <= 0).any():
        raise SolverError("waterfill: b must be > 0")
    if (lo <= 0).any():
        raise SolverError("waterfill: lo must be > 0 (objective pole at 0)")
    _validate_box(lo, hi)

    min_usage = float(np.dot(b, lo))
    if min_usage > budget * (1 + 1e-12):
        return SolverResult(
            x=lo.copy(),
            objective=float(np.sum(t / lo)),
            status=SolverStatus.INFEASIBLE,
            message=(
                f"minimum budget usage {min_usage:.6g} exceeds budget "
                f"{budget:.6g}"
            ),
        )

    def x_of(lam: float) -> np.ndarray:
        with np.errstate(divide="ignore"):
            raw = np.sqrt(np.where(t > 0, t, 0.0) / (lam * b))
        raw = np.where(t > 0, raw, lo)  # zero-cost vars pinned at lo
        return np.clip(raw, lo, hi)

    # Budget slack at the caps -> caps are optimal (objective decreasing).
    cap_usage = float(np.dot(b, hi))
    if np.isfinite(cap_usage) and cap_usage <= budget * (1 + 1e-12):
        x = hi.copy()
        # Zero-cost variables still go to lo (saves budget, same objective);
        # keep caps for t>0 only.
        x = np.where(t > 0, x, lo)
        return SolverResult(
            x=x,
            objective=float(np.sum(t / x)),
            status=SolverStatus.OPTIMAL,
            kkt_residual=0.0,
            message="budget slack; all capped",
            extra={"lam": 0.0},
        )

    # Bisection on lam: usage(lam) is nonincreasing.
    def usage(lam: float) -> float:
        return float(np.dot(b, x_of(lam)))

    # Bracket: large lam -> x -> lo -> usage = min_usage <= budget;
    # small lam -> x -> hi -> usage >= budget.
    lam_hi = 1.0
    while usage(lam_hi) > budget and lam_hi < 1e30:
        lam_hi *= 4.0
    lam_lo = lam_hi
    while usage(lam_lo) < budget and lam_lo > 1e-30:
        lam_lo /= 4.0
    if usage(lam_lo) < budget * (1 - 1e-12):
        # Even at tiny lam the caps keep usage below budget; handled above
        # for finite caps — reaching here means numerical corner; treat as
        # slack-at-caps.
        x = x_of(lam_lo)
        return SolverResult(
            x=x,
            objective=float(np.sum(t / x)),
            status=SolverStatus.OPTIMAL,
            kkt_residual=0.0,
            message="budget effectively slack",
            extra={"lam": float(lam_lo)},
        )

    # Geometric bisection on lam (it can span many orders of magnitude;
    # arithmetic bisection loses relative precision at small lam).  Keep
    # the final iterate on the feasible side (usage <= budget).
    lam_lo = max(lam_lo, 1e-300)
    for _ in range(200):
        lam_mid = math.sqrt(lam_lo * lam_hi)
        if usage(lam_mid) > budget:
            lam_lo = lam_mid
        else:
            lam_hi = lam_mid
        if lam_hi / lam_lo < 1 + 1e-14:
            break
    lam = lam_hi
    x = x_of(lam)

    # KKT residual: stationarity on strictly interior coordinates.
    interior = (x > lo * (1 + 1e-9)) & (x < hi * (1 - 1e-9)) & (t > 0)
    if interior.any():
        res = np.abs(-t[interior] / x[interior] ** 2 + lam * b[interior])
        scale = np.maximum(t[interior] / x[interior] ** 2, 1e-300)
        kkt = float(np.max(res / scale))
    else:
        kkt = 0.0

    return SolverResult(
        x=x,
        objective=float(np.sum(t / x)),
        status=SolverStatus.OPTIMAL,
        kkt_residual=kkt,
        message="waterfilled",
        extra={"lam": float(lam)},
    )


#: Safety bound on pool-adjacent-violators sweeps; random chains of up to
#: eight nodes need at most 12, the Table 1 sweep at most 3.
_CHAIN_MAX_PASSES = 200


def _chain_block(start, sum_a, sum_c, lo, cap, lam):
    """One pooled block ``(start, sum_a, sum_c, lo, cap, value, state)``.

    ``value`` minimizes ``sum_a / y + lam * sum_c * y`` over
    ``lo <= y <= cap``; ``state`` is -1 at the lower bound, 1 at the cap
    and 0 when the value is the free stationary point.
    """
    raw = math.sqrt(sum_a / (lam * sum_c)) if lam > 0 else math.inf
    if raw <= lo:
        return (start, sum_a, sum_c, lo, cap, lo, -1)
    if raw >= cap:
        return (start, sum_a, sum_c, lo, cap, cap, 1)
    return (start, sum_a, sum_c, lo, cap, raw, 0)


def _chain_pool(a, c, cap, seg_start, lam):
    """Pool-adjacent-violators for the Lagrangian at multiplier ``lam``.

    Minimizes ``sum_i a_i / y_i + lam * c_i * y_i`` over ``y``
    nonincreasing within each segment and ``a_i <= y_i <= cap_i``.
    """
    blocks = []
    floor = 0
    for i in range(len(a)):
        if seg_start[i]:
            floor = len(blocks)
        blocks.append(_chain_block(i, a[i], c[i], a[i], cap[i], lam))
        while len(blocks) - floor > 1 and blocks[-2][5] < blocks[-1][5]:
            last = blocks.pop()
            prev = blocks[-1]
            blocks[-1] = _chain_block(
                prev[0], prev[1] + last[1], prev[2] + last[2],
                max(prev[3], last[3]), prev[4], lam,
            )
    return blocks


def _chain_budget(blocks):
    return sum(blk[2] * blk[5] for blk in blocks)


def _chain_step(blocks, budget):
    """The ``lam`` solving ``K + S / sqrt(lam) = budget`` for a block structure.

    Free blocks add ``sqrt(sum_a * sum_c)`` to ``S``; clipped ones add
    their fixed usage to ``K``.  NaN when no such ``lam`` exists.
    """
    fixed = slope = 0.0
    for _, sum_a, sum_c, _, _, value, state in blocks:
        if state:
            fixed += sum_c * value
        else:
            slope += math.sqrt(sum_a * sum_c)
    if slope > 0 and budget > fixed:
        return (slope / (budget - fixed)) ** 2
    return math.nan


def _chain_structure(blocks):
    return tuple((blk[0], blk[6]) for blk in blocks)


def waterfill_chain(
    t: np.ndarray,
    g: np.ndarray,
    b: np.ndarray,
    head_cap: float,
    budget: float,
) -> SolverResult:
    """Solve the full enforced-waits chain program exactly::

        minimize    sum_i t_i / x_i
        subject to  x_0 <= head_cap
                    g_{i-1} x_i <= x_{i-1}      (1 <= i < n)
                    sum_i b_i x_i <= budget
                    x_i >= t_i

    With ``y_i = G_i x_i`` and ``G_i = prod_{j<i} g_j`` the chain rows say
    that ``y`` is nonincreasing, the objective is ``sum A_i / y_i`` and the
    budget ``sum C_i y_i`` (``A = t G``, ``C = b / G``), the lower bounds
    are ``y_i >= A_i`` and every ``y_i`` inherits the head cap.  For a
    fixed budget multiplier ``lam`` pool-adjacent-violators solves the
    Lagrangian exactly: a block's value is
    ``clip(sqrt(sum A / (lam sum C)), max A_i, head_cap)``.  For a fixed
    block structure the usage is ``K + S / sqrt(lam)``, so ``lam`` follows
    in closed form; the solver takes that step (a bisection when it leaves
    the bracket on ``lam``) until the structure stops changing.

    A zero gain removes its chain row: ``G`` restarts at 1 and the
    downstream segment has no cap, but all segments share ``lam``.  ``g``
    may have ``n`` entries (the last one is unused) or ``n - 1``.

    Returns a :class:`SolverResult` whose ``extra`` holds ``lam`` (0 when the budget
    is slack), ``chain_binds`` (whether any chain row is tight) and ``passes``
    (pool-adjacent-violators sweeps).
    """
    tl = np.asarray(t, dtype=float).ravel().tolist()
    gl = np.asarray(g, dtype=float).ravel().tolist()
    bl = np.asarray(b, dtype=float).ravel().tolist()
    n = len(tl)
    if n == 0 or len(bl) != n or len(gl) not in (n, n - 1):
        raise SolverError("waterfill_chain: t, b (and g) must have matching lengths")
    if min(tl) <= 0 or min(bl) <= 0:
        raise SolverError("waterfill_chain: t and b must be > 0")
    if gl and (min(gl) < 0 or not all(map(math.isfinite, gl))):
        raise SolverError("waterfill_chain: gains must be finite and >= 0")
    if not (budget > 0 and head_cap > 0):
        raise SolverError("waterfill_chain: budget and head_cap must be > 0")

    gains = [1.0] * n
    seg_start = [True] + [False] * (n - 1)
    cap = [float(head_cap)] * n
    for i in range(1, n):
        if gl[i - 1] > 0:
            gains[i] = gains[i - 1] * gl[i - 1]
            cap[i] = cap[i - 1]
        else:
            seg_start[i] = True
            cap[i] = math.inf
    a = [tl[i] * gains[i] for i in range(n)]
    c = [bl[i] / gains[i] for i in range(n)]

    def result(blocks, lam, passes, message, status=SolverStatus.OPTIMAL):
        y = [0.0] * n
        ends = [blk[0] for blk in blocks[1:]] + [n]
        for blk, end in zip(blocks, ends):
            y[blk[0]:end] = [blk[5]] * (end - blk[0])
        # Map back to periods downstream-first, so the chain rows and the
        # lower bounds hold exactly.  At the minimal periods (lam = inf)
        # y / G is the minimal-period recursion itself, so skip it there.
        x = [0.0] * n
        for i in range(n - 1, -1, -1):
            xi = tl[i] if lam == math.inf else max(tl[i], y[i] / gains[i])
            if i + 1 < n and gl[i] > 0:
                xi = max(xi, gl[i] * x[i + 1])
            x[i] = xi
        return SolverResult(
            x=np.asarray(x),
            objective=math.fsum(ti / xi for ti, xi in zip(tl, x)),
            status=status,
            iterations=passes,
            message=message,
            extra={
                "lam": float(lam),
                "chain_binds": any(
                    y[i] == y[i + 1] and not seg_start[i + 1] for i in range(n - 1)
                ),
                "passes": passes,
            },
        )

    # Minimal periods: every block at its lower bound.
    minimal = _chain_pool(a, c, cap, seg_start, math.inf)
    min_usage = _chain_budget(minimal)
    if minimal[0][5] > head_cap * (1 + 1e-12) or min_usage > budget * (1 + 1e-12):
        return result(
            minimal, math.inf, 0,
            f"minimal periods need head period {minimal[0][5]:.6g} (cap "
            f"{head_cap:.6g}) and budget {min_usage:.6g} (budget {budget:.6g})",
            SolverStatus.INFEASIBLE,
        )
    if min_usage >= budget:
        return result(minimal, math.inf, 0, "deadline pinched; minimal periods")
    if math.fsum(ci * ki for ci, ki in zip(c, cap)) <= budget:
        capped = _chain_pool(a, c, cap, seg_start, 0.0)
        return result(capped, 0.0, 1, "budget slack; all capped")

    # Start where every block would be free: usage sum sqrt(t b) / sqrt(lam).
    lam = (math.fsum(math.sqrt(ti * bi) for ti, bi in zip(tl, bl)) / budget) ** 2
    blocks = _chain_pool(a, c, cap, seg_start, lam)
    lo, hi, hi_blocks = 0.0, math.inf, None  # usage > budget at lo, <= at hi
    for passes in range(1, _CHAIN_MAX_PASSES + 1):
        excess = _chain_budget(blocks) - budget
        if -4e-16 * budget <= excess <= 0:  # the budget spent, to rounding
            return result(blocks, lam, passes, "waterfilled chain")
        if excess > 0:
            lo = lam
        else:
            hi, hi_blocks = lam, blocks
        if hi <= lo * (1 + 1e-15):
            return result(hi_blocks, hi, passes, "waterfilled chain (bracket)")
        # Newton step: the closed form for the current block structure.
        step = _chain_step(blocks, budget)
        if step == lam:
            return result(blocks, lam, passes, "waterfilled chain")
        expect = _chain_structure(blocks)
        if not lo < step < hi:  # no closed form applies: bisect
            expect = None
            if hi == math.inf:
                step = lo * 16.0
            else:
                step = hi / 16.0 if lo == 0.0 else math.sqrt(lo * hi)
        nxt = _chain_pool(a, c, cap, seg_start, step)
        if expect is not None and _chain_structure(nxt) == expect:
            return result(nxt, step, passes + 1, "waterfilled chain")
        lam, blocks = step, nxt
    if hi_blocks is None:
        raise SolverError(
            f"waterfill_chain: no feasible multiplier in {_CHAIN_MAX_PASSES} passes"
        )
    return result(hi_blocks, hi, _CHAIN_MAX_PASSES, "waterfilled chain (pass limit)")


def project_box_budget(
    y: np.ndarray,
    b: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    budget: float,
    *,
    tol: float = 1e-12,
) -> np.ndarray:
    """Euclidean projection onto ``{x : lo <= x <= hi, b^T x <= budget}``.

    ``b`` must be positive and the set nonempty (``b^T lo <= budget``).
    Standard approach: clamp; if the budget is violated, shift along ``-b``
    by a multiplier found with bisection (usage is monotone in the shift).
    """
    y = np.asarray(y, dtype=float)
    b = np.asarray(b, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if (b <= 0).any():
        raise SolverError("project_box_budget: b must be > 0")
    _validate_box(lo, hi)
    if float(np.dot(b, lo)) > budget * (1 + 1e-12):
        raise SolverError("project_box_budget: empty feasible set")

    x = np.clip(y, lo, hi)
    if float(np.dot(b, x)) <= budget * (1 + 1e-12):
        return x

    def usage(lam: float) -> float:
        return float(np.dot(b, np.clip(y - lam * b, lo, hi)))

    lam_hi = 1.0
    while usage(lam_hi) > budget and lam_hi < 1e30:
        lam_hi *= 4.0
    lam = bisect_root(lambda l: usage(l) - budget, 0.0, lam_hi, tol=tol)
    return np.clip(y - lam * b, lo, hi)
