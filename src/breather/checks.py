"""Numerical verification of the hypotheses behind the breather construction.

Three groups of checks:

* ``check_B`` evaluates the closed-form non-degeneracy quantities of the
  untruncated interface model over the finite part of the harmonic cone
  (sign conditions, distance of the harmonic lattice to the memory line
  Im(omega) = -gamma, the modal admittance and transverse-rate minima, and
  the distance to the untruncated point spectrum).
* ``check_A6_cone`` classifies every cone frequency against the spectral
  sets of the truncated pencil, and ``gamma_bound_sweep`` fits the
  smallest constants that dominate the nonlinear coupling coefficients
  with the expected nu * exp(const * T_N * |omega_I| * nu) growth.
* ``drude_truncation_demo`` shows that memory truncation destroys the
  point spectrum of a Drude interface: winding counts over a rectangle
  enclosing the untruncated eigenvalues drop to zero as the truncation
  window grows.  It counts with the same dispersion function as the
  Lorentz pencil, on a context whose minus side is ``TruncatedDrude``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateError,
    QuadratureNotConverged,
    ZeroOnContour,
)
from .pencil import (
    ContourRectangle,
    PencilContext,
    _lorentz_side,
    _quartic_coeffs,
    _winding_integrand,
    coefficient_scale,
    dispersion_G_inf,
    dispersion_G_inf_deriv,
    resolvent_membership,
    untruncated_eigenvalues,
    winding_count_function,
)
from .susceptibility import Constant, MaterialInterface, drude_model

__all__ = [
    "CheckResult",
    "AssumptionReport",
    "check_B",
    "check_A6_cone",
    "gamma_bound_sweep",
    "DrudeParams",
    "drude_truncation_demo",
]


# ----------------------------------------------------------------------
# Report containers
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    """Outcome of a single named check."""

    name: str
    status: str          # "pass" | "fail" | "unverifiable"
    margin: float
    details: str

    def to_dict(self):
        return {
            "name": self.name,
            "status": self.status,
            "margin": self.margin,
            "details": self.details,
        }


@dataclass(frozen=True)
class AssumptionReport:
    """Bundle of check results plus an echo of the input parameters."""

    results: tuple
    params: dict = field(default_factory=dict)

    def __getitem__(self, name):
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(name)

    @property
    def hard_failures(self):
        """Failed checks, excluding the ones declared unverifiable."""
        return [r for r in self.results if r.status == "fail"]

    @property
    def passed(self):
        return not self.hard_failures

    def to_dict(self):
        return {
            "params": self.params,
            "results": [r.to_dict() for r in self.results],
            "passed": self.passed,
        }


# ----------------------------------------------------------------------
# Non-degeneracy quantities of the untruncated model
# ----------------------------------------------------------------------

def admittance_inf(ctx, omega0_inf, n, nu):
    """V_- = -eps0 mu0 omega (1 - sqrt(c_L)/den_L(omega)) at the cone
    frequency omega = n Re omega0_inf + i nu Im omega0_inf.

    The untruncated oscillator transform with the coupling in the
    amplitude (plasma-frequency) convention, sqrt(c_L), continued below
    the memory line Im omega = -gamma, where ``UntruncatedLorentz.ft``
    raises ``DomainError``.
    """
    m = ctx.interface.minus
    omega = n * omega0_inf.real + 1j * nu * omega0_inf.imag
    return -ctx.interface.eps0 * ctx.interface.mu0 * omega * (
        1.0 - math.sqrt(m.c_L) / m.denominator(omega))


def transverse_rate_sq_inf(ctx, omega0_inf, n, nu):
    """mu_-^2 = (n k)^2 + omega V_- at the cone frequency, V_- from
    ``admittance_inf``."""
    omega = n * omega0_inf.real + 1j * nu * omega0_inf.imag
    return (n * ctx.k) ** 2 + omega * admittance_inf(ctx, omega0_inf, n, nu)


def check_B(ctx, omega0_inf):
    """Evaluate the non-degeneracy conditions at an untruncated eigenvalue.

    Parameters
    ----------
    ctx : PencilContext
        Carries the interface material and the transverse wavenumber.  The
        dispersive (minus) side must be an oscillator model exposing
        ``c_L``, ``gamma`` and ``omega_star``.
    omega0_inf : complex
        Eigenvalue of the untruncated pencil (lower half plane).  The
        levels scanned are those strictly above the memory line,
        nu < gamma/|Im omega0_inf|.

    Returns
    -------
    AssumptionReport
        One result per condition (sign/simplicity, memory-line distance,
        admittance minimum, transverse-rate minimum, point-spectrum
        distance, truncation-grid form, and the always-unverifiable
        rationality condition).
    """
    omega0_inf = complex(omega0_inf)
    wR, wI = omega0_inf.real, omega0_inf.imag
    _lorentz_side(ctx, "check_B")
    m = ctx.interface.minus
    gamma = m.gamma
    ratio = gamma / abs(wI) if wI != 0.0 else math.inf
    nu_cut = int(math.ceil(ratio))
    results = []

    # -- sign conditions and simplicity of the dispersion root ---------
    scale = coefficient_scale(ctx, 1, omega0_inf)
    g = abs(dispersion_G_inf(ctx, 1, omega0_inf)) / scale
    dg = abs(dispersion_G_inf_deriv(ctx, 1, omega0_inf)) / scale
    signs_ok = wI < 0.0 and wR > 0.0 and abs(wR) != abs(wI)
    root_ok = g < 1e-6 and dg > 1e-6
    results.append(CheckResult(
        name="B1",
        status="pass" if (signs_ok and root_ok) else "fail",
        margin=dg,
        details=(
            f"|G|/scale = {g:.3e}, |dG|/scale = {dg:.3e}, "
            f"Re = {wR:.6f}, Im = {wI:.6f}"
        ),
    ))

    # -- distance of the harmonic lattice to the memory line -----------
    # |nu*wI + gamma| grows linearly once nu exceeds gamma/|wI|, so the
    # minimum sits at one of the two integers bracketing the ratio.
    cands = sorted({max(1, int(math.floor(ratio))), int(math.ceil(ratio)),
                    max(1, int(math.ceil(ratio)) + 1)})
    d_line = min(abs(nu * wI + gamma) for nu in cands)
    nu_min = min(cands, key=lambda nu: abs(nu * wI + gamma))
    results.append(CheckResult(
        name="B2",
        status="pass" if d_line > 1e-8 else "fail",
        margin=d_line,
        details=f"min at nu = {nu_min}; gamma/|Im omega0| = {ratio:.4f}",
    ))

    # -- admittance and transverse-rate minima over the finite cone ----
    finite = [(n, nu) for nu in range(1, nu_cut) for n in range(-nu, nu + 1)]
    v_min, v_arg = math.inf, None
    mu_min, mu_arg = math.inf, None
    for n, nu in finite:
        v = abs(admittance_inf(ctx, omega0_inf, n, nu))
        if v < v_min:
            v_min, v_arg = v, (n, nu)
        mu2 = abs(transverse_rate_sq_inf(ctx, omega0_inf, n, nu))
        if mu2 < mu_min:
            mu_min, mu_arg = mu2, (n, nu)
    results.append(CheckResult(
        name="B3",
        status="pass" if v_min > 1e-8 else "fail",
        margin=v_min,
        details=f"min |V| = {v_min:.6f} at (n, nu) = {v_arg}",
    ))
    results.append(CheckResult(
        name="B4",
        status="pass" if mu_min > 1e-8 else "fail",
        margin=mu_min,
        details=f"min |mu_-^2| = {mu_min:.6f} at (n, nu) = {mu_arg}",
    ))

    # -- distance of cone frequencies to the untruncated point spectrum
    d_min, d_arg = math.inf, None
    roots_by_n = {}
    for n, nu in finite:
        if (abs(n), nu) == (1, 1):
            continue
        key = abs(n)
        if key not in roots_by_n:
            try:
                # Drop (near-)zero roots: they sit in the degenerate set
                # where the pencil itself breaks down, not in the point
                # spectrum (the dispersion polynomial picks them up for
                # n = 0, where its zeroth-order coefficients vanish).
                roots_by_n[key] = [
                    r for r in untruncated_eigenvalues(ctx, key)
                    if abs(r) > 1e-9
                ]
            except DegenerateError:
                roots_by_n[key] = []
        roots = roots_by_n[key]
        if not roots:
            continue
        w = n * wR + 1j * nu * wI
        if n < 0:
            w = -w.conjugate()          # root sets mirror under n -> -n
        d = min(abs(w - r) for r in roots)
        if d < d_min:
            d_min, d_arg = d, (n, nu)
    results.append(CheckResult(
        name="B5",
        status="pass" if d_min > 1e-8 else "fail",
        margin=d_min,
        details=f"min distance = {d_min:.6f} at (n, nu) = {d_arg}",
    ))

    # -- truncation-window grid form -----------------------------------
    T = getattr(m, "T", None)
    if T is None:
        results.append(CheckResult(
            name="B6", status="unverifiable", margin=0.0,
            details="no memory truncation on the dispersive side",
        ))
        frac = 0.0
    else:
        j = T * m.c_star / math.pi
        j_odd = 2.0 * round((j - 1.0) / 2.0) + 1.0
        off = abs(j - j_odd)
        results.append(CheckResult(
            name="B6",
            status="pass" if off < 1e-9 * max(1.0, j) else "fail",
            margin=off,
            details=f"T c*/pi = {j:.12f} (nearest odd integer {j_odd:.0f})",
        ))
        frac = (ctx.omega_R * T / (2.0 * math.pi)) % 1.0

    # -- rationality of omega_R relative to the window -----------------
    results.append(CheckResult(
        name="B7", status="unverifiable", margin=min(frac, 1.0 - frac),
        details=f"frac(omega_R T / 2 pi) = {frac:.6f}; "
                "not decidable in floating point",
    ))

    params = {
        "k": ctx.k,
        "c_L": m.c_L,
        "gamma": gamma,
        "omega_star": m.omega_star,
        "omega0_inf": [wR, wI],
        "nu_cut": nu_cut,
        "gamma_over_abs_omega_I": ratio,
    }
    return AssumptionReport(results=tuple(results), params=params)


# ----------------------------------------------------------------------
# Cone classification against the truncated spectral sets
# ----------------------------------------------------------------------

def check_A6_cone(ctx, nu_max):
    """Classify every cone frequency (except the seed pair) spectrally.

    Each omega^{(n, nu)} with |n| <= nu <= nu_max, (n, nu) != (+-1, 1)
    must lie in the resolvent set of the truncated pencil at wavenumber
    n k.  Frequencies landing within 1e-8 of the memory line
    Im(omega) = -gamma are flagged as well, since every truncated-model
    bound degenerates there.

    Returns a dict with the list of violations (empty on success).
    """
    gamma = ctx.interface.minus.gamma
    points = [(n, nu) for nu in range(1, nu_max + 1)
              for n in range(-nu, nu + 1) if (abs(n), nu) != (1, 1)]

    def classify(point):
        n, nu = point
        omega = ctx.omega(n, nu)
        if abs(omega.imag + gamma) < 1e-8:
            return (n, nu, "memory_line")
        kind = resolvent_membership(ctx, n, nu)
        return (n, nu, kind)

    classified = [classify(p) for p in points]
    violations = [c for c in classified if c[2] != "resolvent"]
    return {
        "nu_max": nu_max,
        "checked": len(points),
        "violations": violations,
    }


# ----------------------------------------------------------------------
# Growth of the nonlinear coupling coefficients
# ----------------------------------------------------------------------

def gamma_bound_sweep(ctx, nl, nu_max):
    """Fit the smallest constants dominating the coupling coefficients.

    Sweeps all quadratic (and cubic) frequency combinations inside the
    cone up to ``nu_max`` and fits the minimal ``c_beta`` (``c_gamma``)
    such that the sampled coefficient magnitudes stay below
    ``c * nu * exp(sqrt(2) T_N |omega_I| nu)`` (``sqrt(3)`` for the cubic
    ones).  By construction of the fit there are no violations; the
    per-level maxima are returned so callers can inspect the actual
    growth rate.

    ``nl = None`` (linear material) gives zero constants.
    """
    wI = abs(ctx.omega_I)
    eps0, mu0 = ctx.interface.eps0, ctx.interface.mu0
    out = {
        "nu_max": nu_max,
        "c_beta": 0.0,
        "c_gamma": 0.0,
        "beta_profile": [],
        "gamma_profile": [],
        "violations": 0,
    }
    if nl is None:
        return out
    T_N = nl.T_N
    c2max = float(np.max(np.abs(nl.c2)))
    c3max = float(np.max(np.abs(nl.c3)))
    cone = [(n, nu) for nu in range(1, nu_max) for n in range(-nu, nu + 1)]

    # (n, nu, frequency tuple) of every sampled coefficient, one per
    # multiset of cone factors: the transforms are symmetric in their
    # arguments, so every ordering has the same magnitude
    pairs = [
        (m_ + l_, mu + lam, (ctx.omega(m_, mu), ctx.omega(l_, lam)))
        for i, (m_, mu) in enumerate(cone)
        for l_, lam in cone[i:] if mu + lam <= nu_max
    ]
    triples = [
        (m_ + l_ + p_, mu + lam + rho,
         (ctx.omega(m_, mu), ctx.omega(l_, lam), ctx.omega(p_, rho)))
        for i, (m_, mu) in enumerate(cone)
        for j, (l_, lam) in enumerate(cone[i:], i) if mu + lam < nu_max
        for p_, rho in cone[j:] if mu + lam + rho <= nu_max
    ]
    nl.fill_cache(ws for _, _, ws in pairs + triples)

    def level_maxima(samples, order, cmax, chi):
        level = {}
        for n, nu, ws in samples:
            mag = (abs(ctx.omega(n, nu)) * eps0 * mu0**order * cmax
                   * abs(chi(*ws)))
            if mag > level.get(nu, 0.0):
                level[nu] = mag
        return level

    beta_level = level_maxima(pairs, 2, c2max, nl._scalar_chi2_truncated)
    gamma_level = level_maxima(triples, 3, c3max, nl._scalar_chi3_truncated)

    def fit(level, root):
        c = 0.0
        for nu, mag in level.items():
            c = max(c, mag / (nu * math.exp(root * T_N * wI * nu)))
        return c

    out["c_beta"] = fit(beta_level, math.sqrt(2.0))
    out["c_gamma"] = fit(gamma_level, math.sqrt(3.0))
    out["beta_profile"] = sorted(beta_level.items())
    out["gamma_profile"] = sorted(gamma_level.items())
    return out


# ----------------------------------------------------------------------
# Drude truncation demo
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DrudeParams:
    """Interface with a Drude material on the dispersive side."""

    c_D: float
    gamma: float
    alpha: float
    k: float
    eps0: float = 1.0
    mu0: float = 1.0

    def __post_init__(self):
        self.context()  # the models reject c_D, gamma or alpha <= 0

    def context(self, T=None):
        """Pencil frame of the interface, its memory cut at T if given."""
        itf = MaterialInterface(minus=drude_model(self.c_D, self.gamma, T),
                                plus=Constant(self.alpha),
                                eps0=self.eps0, mu0=self.mu0)
        return PencilContext(itf, self.k)


# Increasing truncation windows of the Drude demo.
_DRUDE_WINDOWS = (50.0, 200.0, 1000.0)


def drude_truncation_demo(params):
    """Winding counts of the truncated Drude dispersion over a rectangle.

    The untruncated Drude interface has point spectrum inside the strip
    Im(omega) in (-gamma, 0); after memory truncation those eigenvalues
    disappear for large windows.  Counts the untruncated roots inside the
    rectangle and the zeros of the truncated dispersion for each window
    length T = 50, 200, 1000.  The rectangle is the bounding box of the
    strip roots inflated by 25%, clipped away from the strip edges.
    Truncation pushes the surviving zeros toward the real axis (their
    depth shrinks like log/T), so short windows can still show zeros
    inside a shallow rectangle; the count settles to zero once the window
    exceeds a threshold set by the rectangle's top edge.

    Returns a dict with the rectangle, the untruncated roots and count,
    and ``counts`` as a list of (T, count or None) pairs; ``None`` records
    a contour failure (zero on the contour) rather than a count.
    """
    roots = np.roots(_quartic_coeffs(params.context(), 1))
    strip = [r for r in roots if -params.gamma < r.imag < 0.0]
    if not strip:
        raise DegenerateError(
            "no untruncated Drude eigenvalues inside the strip"
        )
    a = 1.25 * max(max(abs(r.real) for r in strip), 0.1)
    top = max(r.imag for r in strip)
    bot = min(r.imag for r in strip)
    pad = 0.25 * max(top - bot, 0.05)
    rect = ContourRectangle(
        a=a,
        y_top=min(top + pad, -1e-3),
        y_bottom=max(bot - pad, -params.gamma + 1e-3),
    )
    inside = [
        r for r in strip
        if abs(r.real) < rect.a and rect.y_bottom < r.imag < rect.y_top
    ]

    counts = []
    for T in _DRUDE_WINDOWS:
        logderiv, probe = _winding_integrand(params.context(T), 1, T)
        try:
            count, _ = winding_count_function(logderiv, rect, zero_probe=probe)
        except (ZeroOnContour, QuadratureNotConverged):
            count = None
        counts.append((float(T), count))

    return {
        "rect": {"a": rect.a, "y_top": rect.y_top, "y_bottom": rect.y_bottom},
        "untruncated_roots": [complex(r) for r in strip],
        "untruncated_count": len(inside),
        "counts": counts,
    }
