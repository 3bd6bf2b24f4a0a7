"""Resilient solve orchestration: an ordered chain of solver fallbacks.

Production planning cannot afford a hard abort because one numerical
method hit a singular system or an ill-conditioned start.  This module
runs an ordered sequence of solver *rungs* — typically highest-accuracy
first (interior point), then a robust first-order method (projected
gradient), then an always-terminating exhaustive scan (grid) — until one
produces a result that passes an explicit feasibility certificate.

Within a rung, numerical failures are retried with *perturbed* starting
points under exponential backoff: each retry passes a larger attempt
index to the rung, and rungs are expected to scale their start
perturbation as ``base * 2**attempt`` (see
:func:`perturbation_scale`), so consecutive retries move geometrically
farther from the pathological start instead of re-hitting it.

Results are returned as plain :class:`~repro.solvers.result.SolverResult`
objects annotated with the producing rung
(``extra["fallback"]["rung"]``), the attempt that succeeded, the trail
of failures that led there, and the feasibility certificate
(``extra["certificate"]``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.errors import SolverError
from repro.solvers.result import SolverResult, SolverStatus

__all__ = [
    "FeasibilityCertificate",
    "FallbackRung",
    "certify_linear",
    "certify_violations",
    "perturbation_scale",
    "solve_with_fallback",
]


@dataclass(frozen=True)
class FeasibilityCertificate:
    """Explicit evidence that an iterate satisfies ``A x <= c``.

    Attributes
    ----------
    satisfied:
        Whether every constraint holds within ``tol`` (relative to the
        right-hand side's magnitude, clamped at 1).
    max_violation:
        Largest scaled violation ``(A x - c)_i / max(|c_i|, 1)`` over
        all rows (negative when strictly feasible).
    worst_constraint:
        Label of the row attaining ``max_violation``.
    tol:
        The tolerance the certificate was checked against.
    """

    satisfied: bool
    max_violation: float
    worst_constraint: str
    tol: float

    def __repr__(self) -> str:
        verdict = "feasible" if self.satisfied else "INFEASIBLE"
        return (
            f"FeasibilityCertificate({verdict}, "
            f"max_violation={self.max_violation:.3g} at "
            f"{self.worst_constraint!r}, tol={self.tol:g})"
        )


def certify_linear(
    A: np.ndarray,
    c: np.ndarray,
    x: np.ndarray,
    *,
    labels: Sequence[str] | None = None,
    tol: float = 1e-9,
) -> FeasibilityCertificate:
    """Check ``A x <= c`` row by row and report the worst violation.

    Violations are scaled by ``max(|c_i|, 1)`` so the certificate is
    meaningful across constraint magnitudes; non-finite iterates fail
    with an infinite violation.
    """
    A = np.asarray(A, dtype=float)
    c = np.asarray(c, dtype=float)
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        return FeasibilityCertificate(
            satisfied=False,
            max_violation=float("inf"),
            worst_constraint="(non-finite iterate)",
            tol=tol,
        )
    violation = (A @ x - c) / np.maximum(np.abs(c), 1.0)
    return certify_violations(violation.tolist(), labels, tol=tol)


def certify_violations(
    violation: Sequence[float],
    labels: Sequence[str] | None = None,
    *,
    tol: float = 1e-9,
) -> FeasibilityCertificate:
    """The certificate of precomputed scaled row violations.

    ``violation[i]`` is ``(A x - c)_i / max(|c_i|, 1)``, as
    :func:`certify_linear` computes it.  The worst row is the first
    maximum, a NaN counting as the maximum (``np.argmax``'s rule).
    """
    worst, top = 0, violation[0]
    for i, v in enumerate(violation):
        if v != v:
            worst, top = i, v
            break
        if v > top:
            worst, top = i, v
    return FeasibilityCertificate(
        satisfied=top <= tol,
        max_violation=float(top),
        worst_constraint=labels[worst] if labels is not None else f"row_{worst}",
        tol=tol,
    )


def perturbation_scale(attempt: int, *, base: float = 1e-3) -> float:
    """Exponential-backoff perturbation magnitude for retry ``attempt``.

    Attempt 0 is the unperturbed solve (scale 0); attempt ``k >= 1``
    perturbs by ``base * 2**(k - 1)``, doubling the distance from the
    failing start on every retry.
    """
    if attempt <= 0:
        return 0.0
    return base * 2.0 ** (attempt - 1)


@dataclass(frozen=True)
class FallbackRung:
    """One solver in the chain.

    ``solve`` receives the retry attempt index (0-based) and returns a
    :class:`SolverResult`; it may raise
    :class:`~repro.errors.SolverError` (or numpy's ``LinAlgError``) to
    signal numerical failure, which counts as a failed attempt rather
    than aborting the chain.  Rungs should use the attempt index to
    perturb their starting point (:func:`perturbation_scale`).
    """

    name: str
    solve: Callable[[int], SolverResult]


def solve_with_fallback(
    rungs: Sequence[FallbackRung],
    *,
    certify: Callable[[np.ndarray], FeasibilityCertificate] | None = None,
    attempts: int = 3,
) -> SolverResult:
    """Run the fallback chain until a rung produces a certified result.

    Acceptance requires ``SolverStatus.OPTIMAL`` *and* a passing
    certificate (when ``certify`` is given).  Non-optimal but certified
    results (e.g. ``MAX_ITER`` at a feasible iterate) are kept as a
    last-resort candidate: if no rung reaches certified optimality, the
    best such candidate (smallest objective) is returned with its
    original status.  If nothing certifies at all, :class:`SolverError`
    is raised with the full failure trail.

    The returned result's ``extra["fallback"]`` records the producing
    rung's name and index, the successful attempt number, and the trail
    of prior failures; ``extra["certificate"]`` holds the
    :class:`FeasibilityCertificate` (when ``certify`` is given).
    """
    if not rungs:
        raise SolverError("solve_with_fallback needs at least one rung")
    if attempts < 1:
        raise SolverError(f"attempts must be >= 1, got {attempts}")

    trail: list[str] = []
    fallback_best: SolverResult | None = None
    fallback_meta: tuple[str, int, int] | None = None

    def annotate(
        result: SolverResult,
        rung_name: str,
        rung_index: int,
        attempt: int,
        cert: FeasibilityCertificate | None,
    ) -> SolverResult:
        result.extra["fallback"] = {
            "rung": rung_name,
            "rung_index": rung_index,
            "attempt": attempt,
            "trail": tuple(trail),
        }
        if cert is not None:
            result.extra["certificate"] = cert
        return result

    for rung_index, rung in enumerate(rungs):
        for attempt in range(attempts):
            try:
                result = rung.solve(attempt)
            except (SolverError, np.linalg.LinAlgError) as exc:
                trail.append(
                    f"{rung.name}[attempt {attempt}]: raised {exc}"
                )
                continue
            cert = certify(result.x) if certify is not None else None
            if cert is not None and not cert.satisfied:
                trail.append(
                    f"{rung.name}[attempt {attempt}]: certificate failed "
                    f"({cert.max_violation:.3g} at {cert.worst_constraint})"
                )
                continue
            if result.status is SolverStatus.OPTIMAL:
                return annotate(
                    result, rung.name, rung_index, attempt, cert
                )
            trail.append(
                f"{rung.name}[attempt {attempt}]: status "
                f"{result.status.value} ({result.message})"
            )
            # Feasible but not optimal: keep the best as a last resort.
            if np.isfinite(result.objective) and (
                fallback_best is None
                or result.objective < fallback_best.objective
            ):
                fallback_best = result
                fallback_meta = (rung.name, rung_index, attempt)

    if fallback_best is not None:
        name, rung_index, attempt = fallback_meta
        cert = certify(fallback_best.x) if certify is not None else None
        return annotate(fallback_best, name, rung_index, attempt, cert)
    raise SolverError(
        "all fallback rungs failed: " + "; ".join(trail)
    )
