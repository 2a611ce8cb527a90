"""The interface operator pencil: spectral quantities and dispersion tools.

For the TM Maxwell pencil of a two-layer interface, this module evaluates
the side coefficients V_pm = -omega mu0 eps_pm(omega) and transverse decay
exponents mu_pm = sqrt(n^2 k^2 + omega V_pm), the dispersion function whose
zeros are the pencil eigenvalues, closed-form untruncated eigenvalues
(quartic), Newton refinement for the truncated model, argument-principle
winding counts over rectangles, spectral-set membership classification,
and the closed-form surface-mode eigenfunction.

The dispersion function is written once, for any oscillator minus side
(Lorentz or Drude) against a constant plus side, from the family's data
in ``susceptibility``: its quartic parameters and its memory window
G = P + e^E W.  Array evaluation divides out the window growth
e^{max(Re E, 0)}, so one vectorized pass gives the log-derivative, the
zero probe of a whole contour and log|G| at any depth.
"""

import cmath
import logging
import math
from dataclasses import dataclass

import numpy as np

from ._scaled import ScaledComplex
from .errors import (
    DegenerateError,
    DerivativeSingular,
    ModelError,
    NoConvergence,
    OverflowGuard,
    QuadratureNotConverged,
    ZeroOnContour,
)
from .susceptibility import Constant, _Lorentz, _Oscillator

__all__ = [
    "PencilContext",
    "SpectralQuantities",
    "ContourRectangle",
    "spectral_quantities",
    "dispersion_G",
    "dispersion_G_inf",
    "dispersion_logderiv",
    "untruncated_eigenvalues",
    "newton_eigenvalue",
    "winding_count",
    "winding_count_function",
    "delta0_search",
    "in_Omega0",
    "resolvent_membership",
    "eigenfunction",
    "Eigenfunction",
]


@dataclass(frozen=True)
class PencilContext:
    """Interface + wavenumber + base eigenvalue; the recursion's frame.

    omega0 = omega_R + i omega_I is the chosen base eigenvalue; the mixed
    multiples omega^{(n,nu)} = n omega_R + i nu omega_I span the discrete
    cone of the construction.
    """

    interface: object
    k: float
    omega0: complex = None

    @property
    def omega_R(self):
        return self.omega0.real

    @property
    def omega_I(self):
        return self.omega0.imag

    def omega(self, n, nu):
        """Mixed multiple omega^{(n,nu)} = n omega_R + i nu omega_I."""
        return n * self.omega_R + 1j * nu * self.omega_I


@dataclass(frozen=True)
class SpectralQuantities:
    """V_pm and mu_pm at one cone point, in overflow-safe log-polar form."""

    V_plus: ScaledComplex
    V_minus: ScaledComplex
    mu_plus: ScaledComplex
    mu_minus: ScaledComplex

    def as_complex(self, strict=False):
        """(V+, V-, mu+, mu-) as plain complex (inf on overflow)."""
        return tuple(
            q.to_complex(strict=strict)
            for q in (self.V_plus, self.V_minus, self.mu_plus, self.mu_minus)
        )


@dataclass(frozen=True)
class ContourRectangle:
    """Axis-aligned rectangle [-a, a] x [y_bottom, y_top] for winding."""

    a: float
    y_top: float
    y_bottom: float

    def __post_init__(self):
        if not (self.a > 0 and self.y_bottom < self.y_top):
            raise ValueError("need a > 0 and y_bottom < y_top")

    @property
    def corners(self):
        """Counterclockwise corner list starting at the bottom-left."""
        return [
            complex(-self.a, self.y_bottom),
            complex(self.a, self.y_bottom),
            complex(self.a, self.y_top),
            complex(-self.a, self.y_top),
        ]


# Spectral-set classification thresholds.
_POINT_TOL = 1e-6      # |G| relative to coefficient scale
_OMEGA0_TOL = 1e-8     # |omega^2 eps| threshold for Omega_0
_ESS_TOL_IM = 1e-8     # imaginary band around essential curves


# ----------------------------------------------------------------------
# Spectral quantities
# ----------------------------------------------------------------------

def spectral_quantities(ctx, n, nu):
    """V_pm(n,nu) and the principal decay exponents mu_pm(n,nu).

    V_pm = -omega^{(n,nu)} mu0 eps_pm(omega^{(n,nu)});
    mu_pm = principal sqrt of n^2 k^2 + omega^{(n,nu)} V_pm (Re >= 0).
    Everything is carried in scaled arithmetic since the minus-side
    permittivity can reach magnitudes like e^{2000} deep in the cone.
    """
    omega = ctx.omega(n, nu)
    itf = ctx.interface
    mu0 = itf.mu0
    out = {}
    for side in ("plus", "minus"):
        eps = itf.permittivity_scaled(side, omega)
        V = eps * (-omega * mu0)
        mu = ((n * ctx.k) ** 2 + V * omega).sqrt()
        out[side] = (V, mu)
    return SpectralQuantities(
        V_plus=out["plus"][0],
        V_minus=out["minus"][0],
        mu_plus=out["plus"][1],
        mu_minus=out["minus"][1],
    )


# ----------------------------------------------------------------------
# Dispersion functions
# ----------------------------------------------------------------------

def _oscillator_side(ctx):
    m = ctx.interface.minus
    if not isinstance(m, _Oscillator):
        raise ModelError("dispersion function needs an oscillator minus side")
    if not isinstance(ctx.interface.plus, Constant):
        raise ModelError("dispersion function needs a constant plus side")
    eps_plus = ctx.interface.eps0 * (1.0 + ctx.interface.plus.alpha)
    return m, eps_plus


def _lorentz_side(ctx, what):
    """Refuse a non-Lorentz minus side: the eigenvalue seeds, their
    refinement and the cone checks rest on the Lorentz strip
    -gamma <= Im <= 0.  A Drude side serves only the truncation demo."""
    if not isinstance(ctx.interface.minus, _Lorentz):
        raise ModelError(f"{what} needs a Lorentz minus side (c_L, omega_star)")


def _dispersion_pieces(ctx, n, omega, T):
    """(polynomial part P, window part W = -c*R*B, window exponent E,
    deriv), with

        G_n(omega, T) = P(omega) + e^E * W(omega)
                      = den (A + chi_T B),   P = A den - c B,

    A = K (eps_+/eps0 + 1) - mu0 eps_+ omega^2, B = K - mu0 eps_+ omega^2,
    and den, c, E and the bracket R those of the minus-side oscillator
    family at window T.  deriv() returns (dP/domega, dW/domega), so only
    callers that need the derivative pay for it.  Vectorized over omega.
    """
    m, eps_plus = _oscillator_side(ctx)
    eps0, mu0 = ctx.interface.eps0, ctx.interface.mu0
    g, _, c = m.oscillator
    K = (n * ctx.k) ** 2
    omega = np.asarray(omega, dtype=complex) if np.ndim(omega) else complex(omega)
    den = m.denominator(omega)
    A = (K / eps0 - omega * omega * mu0) * eps_plus + K
    B = K - omega * omega * mu0 * eps_plus
    E, R, dR = m.window(omega, T)
    P = A * den - c * B

    def deriv():
        dden = 2 * omega + 2j * g
        dB = -2 * omega * mu0 * eps_plus        # = dA
        dP = dB * den + A * dden - c * dB
        return dP, -c * (dR * B + R * dB)

    return P, -c * R * B, E, deriv


def dispersion_G(ctx, n, omega, T):
    """The truncated dispersion function G_n(omega, T).

    Its zeros (outside the singular set Omega_0) are exactly the
    eigenvalues of the truncated interface pencil.  Raises OverflowGuard
    where the window factor e^E exceeds double range, deep below the line
    Re E = 0; ``_dispersion_shifted`` stays finite there.
    """
    P, W, expo, _ = _dispersion_pieces(ctx, n, omega, T)
    try:
        growth = cmath.exp(expo)
    except OverflowError:
        raise OverflowGuard(
            f"G_n at omega = {omega} (T = {T}): window factor e^E, "
            f"Re E = {expo.real:.6g}, exceeds double range"
        ) from None
    return P + growth * W


def _dispersion_shifted(ctx, n, omega, T):
    """(s, G e^{-s}, G' e^{-s}) at omega (scalar or 1-d array),
    s = max(Re E, 0).

    The shift keeps both values finite however deep the points sit below
    the line Re E = 0 (Im omega = -gamma for Lorentz, the real axis for
    Drude); above it s = 0 and the values are G and G' themselves.
    """
    P, W, expo, deriv = _dispersion_pieces(ctx, n, omega, T)
    dP, dW = deriv()
    s = np.maximum(expo.real, 0.0)
    shift = np.exp(-s)
    E = np.exp(expo - s)
    return (s, P * shift + E * W,
            dP * shift + E * (dW + 1j * T * W))


def dispersion_logderiv(ctx, n, omega, T):
    """G'/G, vectorized over omega and finite at any depth.

    G' and G are both evaluated with the window growth e^{max(Re E, 0)}
    divided out (``_dispersion_shifted``); the factor cancels in the
    ratio, so every point takes the same vectorized path.
    """
    scalar = np.ndim(omega) == 0
    _, G, dG = _dispersion_shifted(ctx, n, np.atleast_1d(omega), T)
    out = dG / G
    return complex(out[0]) if scalar else out


def _log_abs_G(ctx, n, omega, T):
    """(s, log|G e^{-s}|) on a 1-d array of omega; log|G| is their sum."""
    s, G, _ = _dispersion_shifted(ctx, n, omega, T)
    with np.errstate(divide="ignore"):
        return s, np.log(np.abs(G))


def _winding_integrand(ctx, n, T):
    """(logderiv, zero_probe) of G_n(., T) for ``winding_count_function``.

    The probe is log|G e^{-s}|: with the window growth divided out it stays
    flat along a contour whose depth varies (it is log|G| wherever s = 0),
    so only a true near-zero makes it dip.
    """
    return (lambda w: dispersion_logderiv(ctx, n, w, T),
            lambda w: _log_abs_G(ctx, n, w, T)[1])


def _quartic_coeffs(ctx, n):
    """Coefficients, highest power first, of the untruncated dispersion

        (w^2 + 2i g w - omega_*^2) (K eps_+/eps0 + K - mu0 eps_+ w^2)
            - c (K - mu0 eps_+ w^2)

    of the minus-side oscillator family (g, omega_*, c) against the
    constant plus side, K = (n k)^2.
    """
    m, eps_plus = _oscillator_side(ctx)
    g, omega_star, c = m.oscillator
    omega_star_sq = omega_star**2
    K = (n * ctx.k) ** 2
    eps0, mu0 = ctx.interface.eps0, ctx.interface.mu0
    q2 = mu0 * eps_plus
    q0 = K * (eps_plus / eps0 + 1.0)
    return np.array(
        [
            -q2,
            -2j * g * q2,
            q0 + q2 * omega_star_sq + c * mu0 * eps_plus,
            2j * g * q0,
            -q0 * omega_star_sq - c * K,
        ],
        dtype=complex,
    )


def dispersion_G_inf(ctx, n, omega):
    """Untruncated dispersion polynomial G_n^inf(omega) (degree four)."""
    return complex(np.polyval(_quartic_coeffs(ctx, n), complex(omega)))


def dispersion_G_inf_deriv(ctx, n, omega):
    return complex(np.polyval(np.polyder(_quartic_coeffs(ctx, n)), complex(omega)))


def coefficient_scale(ctx, n, omega=1.0):
    """Magnitude scale of the dispersion polynomial near |omega|."""
    c = _quartic_coeffs(ctx, n)
    r = max(1.0, abs(omega))
    return float(sum(abs(ci) * r ** (len(c) - 1 - i) for i, ci in enumerate(c)))


def untruncated_eigenvalues(ctx, n):
    """All roots of the untruncated dispersion quartic for harmonic n.

    Uses the companion-matrix eigenvalue iteration behind numpy's root
    finder (robust near coincident roots).  Roots of the two-sided
    eigenvalue condition always lie in the closed strip -gamma <= Im <= 0.
    """
    _lorentz_side(ctx, "the eigenvalue seed")
    coeffs = _quartic_coeffs(ctx, n)
    scale = float(np.max(np.abs(coeffs)))
    if abs(coeffs[0]) < 1e-14 * scale:
        raise DegenerateError("leading quartic coefficient vanishes")
    return sorted(np.roots(coeffs), key=lambda w: (-w.real, w.imag))


_NEWTON_ITER = 60


def _log_abs_shifted(s, z):
    """log|z e^s|, -inf at z = 0."""
    return s + math.log(abs(z)) if z else -math.inf


def newton_eigenvalue(ctx, n, T, omega_guess, tol=1e-12):
    """Newton refinement of a truncated-model eigenvalue from a seed.

    Seeds normally come from untruncated_eigenvalues (the truncated
    eigenvalues form continuous curves in T emanating from them).
    Converged means |G_n(omega, T)| < tol * coefficient scale.  Each step
    is G e^{-s} / G' e^{-s} from ``_dispersion_shifted``, where the shift
    cancels, and the test compares logs, so an iterate below the memory
    line ends in NoConvergence rather than an overflow.
    """
    _lorentz_side(ctx, "eigenvalue refinement")
    omega = complex(omega_guess)
    scale = coefficient_scale(ctx, n, omega)
    log_tol = math.log(tol * scale)
    for _ in range(_NEWTON_ITER):
        s, g, dg = _dispersion_shifted(ctx, n, omega, T)
        if _log_abs_shifted(s, g) < log_tol:
            return omega
        if _log_abs_shifted(s, dg) < math.log(1e-300 * scale):
            raise DerivativeSingular(
                f"dG/domega ~ 0 at {omega} (T={T}); choose another seed"
            )
        omega = omega - complex(g) / complex(dg)
    s, g, _ = _dispersion_shifted(ctx, n, omega, T)
    log_residual = _log_abs_shifted(s, g) - math.log(scale)
    raise NoConvergence(
        f"Newton did not reach |G| < {tol}*scale in {_NEWTON_ITER} "
        "iterations",
        last_iterate=omega,
        residual=abs(ScaledComplex(log_residual, 0.0)),
    )


# ----------------------------------------------------------------------
# Winding counts (argument principle)
# ----------------------------------------------------------------------

_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(8)

# Segments per logderiv call: 512 eight-node segments are the two halves of
# 256 panels, 4096 nodes, which keeps the integrand's temporaries small.
_SEGMENTS_PER_CALL = 512
_MAX_DEPTH = 28
# Edge tolerance: the whole contour should contribute < ~1e-4 winding
# units of quadrature error (counts only need 0.25).
_EDGE_TOL = 2.0 * math.pi * 1e-5
# Zero-probe sample points per edge.
_PROBE_POINTS = 64

_log = logging.getLogger(__name__)


def _gauss_segments(f, a, b):
    """8-point Gauss rule of f on each segment [a[i], b[i]].

    The last complex product is spelled out in real arithmetic: numpy's
    vector complex multiply fuses multiply-adds, and the values must round
    as the scalar product 0.5 * (b - a) * sum does.
    """
    h = 0.5 * (b - a)
    c = 0.5 * (a + b)
    s = np.empty(a.shape, dtype=complex)
    for lo in range(0, a.size, _SEGMENTS_PER_CALL):
        part = slice(lo, lo + _SEGMENTS_PER_CALL)
        zs = h[part, None] * _GAUSS_NODES + c[part, None]
        vals = np.asarray(f(zs.ravel())).reshape(zs.shape)
        s[part] = np.sum(_GAUSS_WEIGHTS * vals, axis=1)
    out = np.empty_like(s)
    out.real = h.real * s.real - h.imag * s.imag
    out.imag = h.real * s.imag + h.imag * s.real
    return out


def _contour_integrals(f, corners, tol, max_depth=_MAX_DEPTH):
    """Adaptive composite Gauss integrals of f along each edge of a polygon.

    Each panel is bisected until its 8-point Gauss value and the sum over
    its two halves agree within the panel tolerance, or until it sits at
    depth max_depth; a child panel gets half its parent's tolerance,
    floored at roundoff level, and reuses its parent's half value as its
    own coarse value.  All live panels of one depth, over every edge, are
    evaluated together.  The tree is summed bottom-up (left + right), in
    the order of a depth-first recursion, so the edge values are bit-for-bit
    those of that recursion, which tests/test_pencil.py keeps as reference.

    Returns three arrays over the edges (corners[i] -> corners[i + 1],
    closing back to corners[0]): the integrals, the summed error
    estimates, and the number of panels accepted only at the depth cap.
    """
    a = np.asarray(corners, dtype=complex)
    b = np.roll(a, -1)
    mid = 0.5 * (a + b)
    whole = _gauss_segments(f, np.concatenate((a, a, mid)),
                            np.concatenate((b, mid, b)))
    coarse, halves = np.split(whole, [a.size])
    levels = []
    depth = 0
    while True:
        left, right = np.split(halves, 2)
        fine = left + right
        diff = fine - coarse
        err = np.hypot(diff.real, diff.imag)  # rounds as scalar abs() does
        converged = err < tol
        if depth >= max_depth:
            capped, refine = ~converged, np.zeros_like(converged)
        else:
            capped, refine = np.zeros_like(converged), ~converged
        levels.append((fine, err, capped.astype(np.int64), refine))
        if not refine.any():
            break
        # Children in tree order: left0, right0, left1, right1, ...
        a = np.column_stack((a[refine], mid[refine])).ravel()
        b = np.column_stack((mid[refine], b[refine])).ravel()
        coarse = np.column_stack((left[refine], right[refine])).ravel()
        tol = max(0.5 * tol, 1e-12)
        depth += 1
        mid = 0.5 * (a + b)
        halves = _gauss_segments(f, np.concatenate((a, mid)),
                                 np.concatenate((mid, b)))
    children = None
    for *sums, refine in reversed(levels):
        if children is not None:
            for total, child in zip(sums, children):
                total[refine] = child[0::2] + child[1::2]
        children = sums
    return tuple(children)


def winding_count_function(logderiv, rect, zero_probe=None):
    """(1/2 pi i) contour integral of f'/f around the rectangle, rounded.

    logderiv(omega) must return f'(omega)/f(omega) elementwise for a flat
    array of nodes; one call receives up to 4096 nodes drawn from all four
    edges.  zero_probe(omega), if given, receives one flat array of sample
    points spanning the whole contour and returns a log-magnitude of f at
    each, used to reject contours passing through a zero.  Panels accepted
    only at the quadrature depth cap are logged as one warning per contour
    on the ``breather.pencil`` logger.  Returns
    (count, residual); raises QuadratureNotConverged when the pre-rounding
    value sits further than 0.25 from an integer.
    """
    corners = rect.corners
    if zero_probe is not None:
        a = np.array(corners)
        ts = np.linspace(0.0, 1.0, _PROBE_POINTS)
        logs = np.asarray(zero_probe(
            (a[:, None] + ts * (np.roll(a, -1) - a)[:, None]).ravel()))
        if np.min(logs) < np.max(logs) - 27.6:  # 1e-12 relative magnitude dip
            raise ZeroOnContour(
                "dispersion function nearly vanishes on the contour"
            )
    parts, errors, capped = _contour_integrals(logderiv, corners, _EDGE_TOL)
    if capped.any():
        _log.warning(
            "contour |Re| <= %r, %r <= Im <= %r: %d quadrature panel(s) "
            "accepted at depth cap %d, error estimate %.3g",
            float(rect.a), float(rect.y_bottom), float(rect.y_top),
            capped.sum(), _MAX_DEPTH, errors.sum(),
        )
    total = 0j
    for part in parts:
        total += part
    raw = total / (2j * math.pi)
    nearest = round(raw.real)
    residual = abs(raw - nearest)
    if residual > 0.25:
        raise QuadratureNotConverged(
            f"winding integral {raw} is {residual:.3f} from an integer"
        )
    return int(nearest), residual


def winding_count(ctx, n, T, rect):
    """Number of zeros of G_n(., T) inside the rectangle."""
    logderiv, probe = _winding_integrand(ctx, n, T)
    count, _ = winding_count_function(logderiv, rect, zero_probe=probe)
    return count


# delta0 bisection: the delta of the deepest contour probed, and the
# bracket width at which bisection stops.
_DELTA_MIN = 1e-4
_DELTA_TOL = 1e-3


def delta0_search(ctx, n, T, a):
    """Smallest delta with exactly four zeros above Im = -gamma + delta.

    Bisection on the rectangle family with vertices +-a, +-a + i(-gamma +
    delta), down to a bracket of width 1e-3: counts exceed four when the
    contour dips into the band of spurious truncated-model zeros hugging
    Im = -gamma.  Returns 1e-4 when even the contour at that delta still
    counts 4.

    Order of the counts: delta_max first (if it does not count 4, the
    result is 1e-4 when the delta = 1e-4 contour counts 4, else
    NoConvergence); then the bisection; then delta = 1e-4, only if every
    bisection probe counted 4.  That deepest contour sits inside the
    spurious band for every window of the default schedule, where it is
    the costliest contour of the search, so it is counted only when the
    answer depends on it.  While the count is monotone in delta the
    result is the one counting 1e-4 first would give.  If it is not (4 at
    1e-4 but not at some shallower probe), the bisection's upper end is
    returned instead of 1e-4.  The trade: on the reference interface
    delta0 * T is about 3, so delta0 < 1e-4 only for T >~ 3e4, and there
    the whole bisection runs before the 1e-4 probe that settles it.
    """
    gamma = ctx.interface.minus.gamma
    # Deepest delta that still keeps every untruncated eigenvalue inside
    # the rectangle, with a 25% safety margin.
    depth = max(-r.imag for r in untruncated_eigenvalues(ctx, n))
    delta_max = 0.75 * (gamma - depth)
    if delta_max <= _DELTA_MIN:
        raise DegenerateError(
            "untruncated eigenvalues sit too close to Im = -gamma for "
            "a four-zero rectangle to exist"
        )

    def count(delta):
        rect = ContourRectangle(a=a, y_top=0.0, y_bottom=-gamma + delta)
        try:
            return winding_count(ctx, n, T, rect)
        except (ZeroOnContour, QuadratureNotConverged):
            # A contour grazing the band of spurious zeros: treat as "more
            # than four" so bisection backs away from Im = -gamma.
            return -1

    lo, hi = _DELTA_MIN, delta_max
    if count(hi) != 4:
        if count(_DELTA_MIN) == 4:
            return _DELTA_MIN
        raise NoConvergence(
            f"no delta in [{_DELTA_MIN}, {delta_max}] gives a count of 4"
        )
    while hi - lo > _DELTA_TOL:
        midpoint = 0.5 * (lo + hi)
        if count(midpoint) == 4:
            hi = midpoint
        else:
            lo = midpoint
    if lo == _DELTA_MIN and count(_DELTA_MIN) == 4:
        return _DELTA_MIN
    return hi


# ----------------------------------------------------------------------
# Spectral-set membership
# ----------------------------------------------------------------------

def _permittivities(ctx, omega):
    return [ctx.interface.permittivity_scaled(side, omega)
            for side in ("plus", "minus")]


def _essential_membership(ctx, n, omega, eps):
    """Which side's essential-spectrum curve (if any) passes through omega,
    eps the (plus, minus) permittivities there.

    The essential spectrum outside Omega_0 is where omega^2 mu0 eps_pm
    lands on [n^2 k^2, inf) (on (0, inf) when n k = 0), to within 1e-8
    in the imaginary part.
    """
    K = (n * ctx.k) ** 2
    hits = []
    for side, e in zip(("plus", "minus"), eps):
        w = e * (omega * omega * ctx.interface.mu0)
        if w.is_zero:
            continue
        # |Im w| < _ESS_TOL_IM and Re w in the branch interval, in log space.
        sin_p, cos_p = math.sin(w.phase), math.cos(w.phase)
        im_small = (
            w.log_mag + math.log(max(abs(sin_p), 1e-300))
            < math.log(_ESS_TOL_IM)
        )
        lower = math.log(K) if K > 0 else -math.inf
        re_in = cos_p > 0 and w.log_mag + math.log(cos_p) >= lower
        if im_small and re_in:
            hits.append(side)
    if len(hits) == 2:
        return "both"
    if hits:
        return f"{hits[0]}_branch"
    return "none"


def in_Omega0(ctx, omega):
    """True iff |omega^2 eps_plus(omega)| or |omega^2 eps_minus(omega)|
    is below 1e-8."""
    omega = complex(omega)
    return _in_Omega0(omega, _permittivities(ctx, omega))


def _in_Omega0(omega, eps):
    return any(w.is_zero or w.log_mag < math.log(_OMEGA0_TOL)
               for w in (e * (omega * omega) for e in eps))


def resolvent_membership(ctx, n, nu, T=None):
    """Classify omega^{(n,nu)}: resolvent / point_spec / essential / omega0_set.

    The point-spectrum proxy is a dispersion residual below 1e-6 of the
    coefficient scale, compared in logs (log|G| = s + log|G e^{-s}|, so
    deep cone points need no overflow guard); T defaults to the minus-side
    memory window, and a minus side without one raises ModelError.
    """
    if T is None:
        T = getattr(ctx.interface.minus, "T", None)
        if T is None:
            raise ModelError(
                "resolvent membership needs the memory window T of the "
                "minus side (config 'T' or 'j'); "
                f"{type(ctx.interface.minus).__name__} has none"
            )
    omega = ctx.omega(n, nu)
    eps = _permittivities(ctx, omega)
    if _in_Omega0(omega, eps):
        return "omega0_set"
    if _essential_membership(ctx, n, omega, eps) != "none":
        return "essential"
    s, log_g = _log_abs_G(ctx, n, np.array([omega]), T)
    log_scale = math.log(coefficient_scale(ctx, n, omega))
    if s[0] + log_g[0] < log_scale + math.log(_POINT_TOL):
        return "point_spec"
    return "resolvent"


# ----------------------------------------------------------------------
# Eigenfunction
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Eigenfunction:
    """The closed-form surface mode at the base eigenvalue (n, nu) = (1, 1).

    phi(x) decays like e^{mu_- x} for x < 0 and e^{-mu_+ x} for x > 0;
    components 2 and 3 are continuous across x = 0 (component 3 up to the
    dispersion residual of the stored eigenvalue).
    """

    k: float
    mu_minus: complex
    mu_plus: complex
    V_minus: complex
    V_plus: complex

    def __call__(self, x):
        """The three components of phi at x, stacked; one exponential per
        side.  phi_2(0) = mu_- from either side (the normalization)."""
        x = np.asarray(x, dtype=float)
        neg, pos = x < 0, x >= 0
        em = np.exp(self.mu_minus * x[neg])
        ep = np.exp(-self.mu_plus * x[pos])
        ratio = self.mu_minus / self.mu_plus
        out = np.empty((3,) + x.shape, dtype=complex)
        minus = (-1j * self.k, self.mu_minus, -1j * self.V_minus)
        plus = (1j * self.k * ratio, self.mu_minus, 1j * ratio * self.V_plus)
        for a, c_minus, c_plus in zip(out, minus, plus):
            a[neg] = c_minus * em
            a[pos] = c_plus * ep
        return out


def eigenfunction(ctx):
    """Closed-form eigenfunction of the pencil at the stored omega0."""
    sq = spectral_quantities(ctx, 1, 1)
    V_p, V_m, mu_p, mu_m = sq.as_complex(strict=True)
    if mu_p == 0 or mu_m == 0:
        raise DegenerateError("mu_pm(1,1) = 0: no decaying surface mode")
    return Eigenfunction(
        k=ctx.k, mu_minus=mu_m, mu_plus=mu_p, V_minus=V_m, V_plus=V_p
    )
