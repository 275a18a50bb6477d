"""Explicit low-Weber non-existence certificate.

Lengths are in units of a = sqrt(|E| / 2 pi), so R below reads mu = R/a;
the section may have any scale.  The admissible Weber numbers of a
translating ring with nonnegative relative vorticity obey
sqrt(We) >= u + v  with

    u = sqrt(2 b* / r_max) |S(b*)|,        b* = pi/(36 R^2)  (R > sqrt(pi)/6)
                                           b* = 1/2          (otherwise)
    v = 2 sqrt(lambda) h,                  4 lambda h^2 >= delta_+ (Bernoulli)

where |S(b)| is the length of the boundary set with n.e_r > b, h the half
height, and delta = int r^-2 dA - 2 pi.  Squaring via (u+v)^2 >= u^2 + v^2
gives  We >= term_curvature + term_bernoulli.  The certificate holds two
variants, each one `Terms` record (term_curvature, term_bernoulli and
their sum we_min) in its own field:

* `universal`: only R and delta enter; the shape-dependent quantities are
  replaced by their worst-case bounds (r_max <= 3R, |S(b*)| >= pi/(3R),
  Delta R <= 3R, pi <= h Delta R), giving
      term_curvature = 2 b* pi^2 / (27 R^3)
      term_bernoulli = 4 pi^2 delta_+ / (3R (4 pi + 18 R^2))
* `measured`: r_max, h and Delta R = r_max - r_min taken from the geometry
  report, and |S(b*)| measured on the report's checked boundary, giving
  the sharper u^2 = 2 b* S(b*)^2 / r_max  and
  v^2 = 4 delta_+ h^2 / (4h + 2 Delta R).

The full derivation of every constant is in docs/BOUND_DERIVATION.md; the
chain-soundness property tests check each intermediate inequality on random
shapes before these constants are trusted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import GeometryReport, surface_set_length, disk_delta
from .shapes import CrossSection, Disk

__all__ = [
    "BoundCertificate",
    "Terms",
    "explicit_bound",
    "universal_bound",
    "verdict",
    "norbury_scaling_probe",
    "RULED_OUT",
    "NOT_RULED_OUT",
]

RULED_OUT = "RuledOut"
NOT_RULED_OUT = "NotRuledOut"

_BRANCH_SPLIT = np.sqrt(np.pi) / 6.0  # b* switches at R = sqrt(pi)/6


@dataclass(frozen=True)
class Terms:
    """One variant of the bound: We >= term_curvature + term_bernoulli."""

    term_curvature: float           # u^2
    term_bernoulli: float           # v^2
    we_min: float                   # the sum of the two terms


@dataclass(frozen=True)
class BoundCertificate:
    """Explicit lower bound for the Weber number of a thick ring."""

    mu: float
    mu_area_convention: float       # mu in the R/sqrt(|E|) convention
    delta: float
    is_thick: bool                  # the report's: verdict reads it
    branch: str                     # "large-R" (R > sqrt(pi)/6) or "small-R"
    b_star: float
    universal: Terms
    measured: Terms

    @property
    def best(self) -> float:
        return max(self.universal.we_min, self.measured.we_min)


def _universal_terms(R: float, delta: float) -> tuple[float, str, float, float]:
    """(b*, branch, u^2, v^2) of the universal certificate."""
    if R > _BRANCH_SPLIT:
        b, branch = np.pi / (36.0 * R * R), "large-R"
    else:
        b, branch = 0.5, "small-R"
    u2 = 2.0 * b * np.pi**2 / (27.0 * R**3)
    dplus = max(delta, 0.0)
    v2 = 4.0 * np.pi**2 * dplus / (3.0 * R * (4.0 * np.pi + 18.0 * R * R))
    return b, branch, u2, v2


def universal_bound(mu: float, delta: float) -> float:
    """Shape-free lower bound from (mu, delta) alone (normalized units)."""
    if not 0 < mu < np.inf:
        raise ValueError("mu must be finite and positive")
    if not np.isfinite(delta):
        raise ValueError("delta must be finite")
    _, _, u2, v2 = _universal_terms(mu, delta)
    return u2 + v2


def explicit_bound(report: GeometryReport,
                   shape: CrossSection) -> BoundCertificate:
    """Certificate of a cross-section of any scale from its geometry report.

    mu and delta are scale invariant; r_max, h and Delta R = r_max - r_min
    come from the report and |S(b*)| from the report's checked boundary,
    with no second sampling, each divided by the report's length scale a.
    `shape` must be the section the report was made from, else ValueError.
    """
    if shape != report.boundary.shape:
        raise ValueError("shape is not the section of the geometry report")
    R = report.mu
    delta = report.delta
    b, branch, u2, v2 = _universal_terms(R, delta)

    s_b = surface_set_length(report.boundary, b) / report.a
    r_max, h = report.r_max / report.a, report.height_h / report.a
    dR = (report.r_max - report.r_min) / report.a
    u2m = 2.0 * b * s_b**2 / r_max
    v2m = 4.0 * max(delta, 0.0) * h**2 / (4.0 * h + 2.0 * dR)

    return BoundCertificate(
        mu=R,
        mu_area_convention=R / np.sqrt(2.0 * np.pi),
        delta=delta,
        is_thick=report.is_thick,
        branch=branch,
        b_star=b,
        universal=Terms(u2, v2, u2 + v2),
        measured=Terms(u2m, v2m, u2m + v2m),
    )


def verdict(cert: BoundCertificate, we: float) -> str:
    """RuledOut iff the shape is thick and we falls below the certificate."""
    if not 0 < we < np.inf:
        raise ValueError("Weber number must be finite and positive")
    if cert.is_thick and we < cert.best:
        return RULED_OUT
    return NOT_RULED_OUT


def norbury_scaling_probe(eps_over_R0) -> list[dict]:
    """Certificate along the near-axis disk family rho0 = R0 - eps, one row
    per relative offset eps/R0 in `eps_over_R0`.

    Every row depends on eps/R0 alone, so R0 = 1.  Each disk is rescaled
    to area 2 pi before certification.  A row holds the relative offset,
    the closed-form delta and delta sqrt(eps/R0), mu, the universal we_min
    and the rescaled disk (`shape`); delta ~ pi sqrt(2) / sqrt(eps/R0)
    blows up as the ring closes onto the axis, and the bound diverges with
    it.
    """
    R0 = 1.0
    rows = []
    for eps in eps_over_R0:
        if not 0.0 < eps < R0:
            raise ValueError("eps/R0 must lie in (0, 1)")
        rho0 = R0 - eps
        scale = np.sqrt(2.0) / rho0          # rescale so the radius is sqrt(2)
        disk = Disk(R0=R0 * scale, rho0=np.sqrt(2.0))
        delta_exact = disk_delta(R0, rho0)   # scale invariant
        mu = R0 * scale
        rows.append({
            "eps_over_R0": eps / R0,
            "delta": delta_exact,
            "delta_scaled": delta_exact * np.sqrt(eps / R0),
            "mu": mu,
            "we_min": universal_bound(mu, delta_exact),
            "shape": disk,
        })
    return rows
