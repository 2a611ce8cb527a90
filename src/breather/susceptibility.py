"""Material models and exact Fourier-Laplace transforms of memory kernels.

Linear susceptibilities (Lorentz / Drude oscillators, with or without a
finite memory window, and constant dielectrics) and the quadratic/cubic
oscillator-driven nonlinear susceptibilities, all evaluated in closed form
at arbitrary complex frequencies.  The truncated (compact-memory) kernels
are entire in every frequency argument; their transforms are computed by
exact exponential-sum algebra (see _expalg) rather than quadrature.

The scalar chi2/chi3 transforms are cached per frequency tuple, under a
key that ignores argument order and the mirror w -> -conj w (the kernels
are real, so a mirrored tuple's transform is the conjugate).  One kernel,
vectorized over a batch of K pairs or triples, serves both orders;
``NonlinearSusceptibility.fill_cache`` sends all misses of a batch
through it at once (the series recursion fills a whole level, the
coupling sweep its whole scan), and a single lookup that misses is a
batch of one.  The recursion only asks for tuples of
even-parity harmonics (n + nu even), since the others vanish.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from ._expalg import g_window, simplex_transform, triangle_transform
from ._scaled import ScaledComplex
from .errors import ConfigError, DomainError, PoleError

__all__ = [
    "LinearSusceptibility",
    "TruncatedLorentz",
    "UntruncatedLorentz",
    "TruncatedDrude",
    "UntruncatedDrude",
    "drude_model",
    "Constant",
    "NonlinearSusceptibility",
    "MaterialInterface",
    "window_T",
    "ft_chi1",
    "ft_chi2_untruncated",
    "ft_chi2_truncated",
    "ft_chi3_truncated",
]


# ----------------------------------------------------------------------
# Linear susceptibilities
# ----------------------------------------------------------------------

class LinearSusceptibility:
    """Base class: closed-form chi^(1) transforms for one material model."""

    def ft(self, omega):
        raise NotImplementedError

    def ft_scaled(self, omega):
        """Transform as a ScaledComplex (overflow-safe); default wraps ft."""
        return ScaledComplex.from_complex(self.ft(omega))


def _lorentz_denominator(omega, gamma, omega_star):
    return omega * omega + 2j * gamma * omega - omega_star * omega_star


def _c_star(gamma, omega_star):
    """c_* = sqrt(omega_*^2 - gamma^2), the damped oscillation frequency."""
    return math.sqrt(omega_star**2 - gamma**2)


def window_T(j, gamma, omega_star):
    """Memory window T = j pi / c_* of the window index j."""
    return j * math.pi / _c_star(gamma, omega_star)


class _Oscillator(LinearSusceptibility):
    """One damped-oscillator family, its dispersion data stated once.

    ``oscillator`` is (g, omega_*, c): the untruncated transform is
    chi(w) = -c / den(w), den(w) = w^2 + 2i g w - omega_*^2, convergent for
    Im w > -a (a = ``rate``).  Cut at t = T, the kernel has the entire
    transform

        chi_T(w) = -c / den(w) * (1 + e^E R(w)),

    whose exponent E = (i w - a) T, bracket R (linear in w) and dR/dw
    ``window(w, T)`` returns, vectorized over w.  Lorentz: (gamma, omega_*,
    c_L), a = gamma; Drude: (gamma/2, 0, c_D), a = 0.  The interface
    dispersion function of ``pencil`` reads the same data.
    """

    def denominator(self, omega):
        g, omega_star, _ = self.oscillator
        return _lorentz_denominator(omega, g, omega_star)

    def ft(self, omega):
        omega = complex(omega)
        if omega.imag <= -self.rate:
            raise DomainError(
                "untruncated oscillator transform converges only for "
                f"Im omega > {-self.rate}; got {omega.imag}"
            )
        return -self.oscillator[2] / self.denominator(omega)


class _Truncated(_Oscillator):
    """chi_T of an oscillator family at its own memory window T."""

    def ft(self, omega):
        omega = complex(omega)
        E, R, _ = self.window(omega, self.T)
        return -self.oscillator[2] / self.denominator(omega) * (
            1.0 + np.exp(E) * R)

    def ft_scaled(self, omega):
        omega = complex(omega)
        E, R, _ = self.window(omega, self.T)
        factor = 1.0 + ScaledComplex.exp(E) * R
        return factor * (-self.oscillator[2]) / self.denominator(omega)


class _Lorentz(_Oscillator):
    """R(w) = (i w - gamma) sin(c_* T)/c_* - cos(c_* T)."""

    @property
    def oscillator(self):
        return self.gamma, self.omega_star, self.c_L

    @property
    def rate(self):
        return self.gamma

    @property
    def c_star(self):
        return _c_star(self.gamma, self.omega_star)

    def window(self, omega, T):
        cs = self.c_star
        return ((1j * omega - self.gamma) * T,
                (1j * omega - self.gamma) / cs * math.sin(cs * T)
                - math.cos(cs * T),
                1j / cs * math.sin(cs * T))


class _Drude(_Oscillator):
    """R(w) = i w (1 - e^{-gamma T})/gamma - 1."""

    @property
    def oscillator(self):
        return 0.5 * self.gamma, 0.0, self.c_D

    rate = 0.0

    def window(self, omega, T):
        s = (1.0 - math.exp(-self.gamma * T)) / self.gamma
        return 1j * omega * T, 1j * omega * s - 1.0, 1j * s


@dataclass(frozen=True)
class UntruncatedLorentz(_Lorentz):
    """chi^(1)(omega) = -c_L / (omega^2 + 2 i gamma omega - omega_*^2)."""

    c_L: float
    gamma: float
    omega_star: float

    def __post_init__(self):
        if not (self.omega_star > self.gamma > 0 and self.c_L > 0):
            raise ConfigError("Lorentz model needs omega_star > gamma > 0, c_L > 0")


@dataclass(frozen=True)
class TruncatedLorentz(_Truncated, _Lorentz):
    """Lorentz oscillator with memory cut off at t = T (entire transform)."""

    c_L: float
    gamma: float
    omega_star: float
    T: float

    def __post_init__(self):
        if not (self.omega_star > self.gamma > 0 and self.c_L > 0 and self.T > 0):
            raise ConfigError(
                "truncated Lorentz model needs omega_star > gamma > 0, "
                "c_L > 0, T > 0"
            )


@dataclass(frozen=True)
class UntruncatedDrude(_Drude):
    """chi^(1)(omega) = -c_D / (omega^2 + i gamma omega)."""

    c_D: float
    gamma: float

    def __post_init__(self):
        if not (self.gamma > 0 and self.c_D > 0):
            raise ConfigError("Drude model needs gamma > 0, c_D > 0")


@dataclass(frozen=True)
class TruncatedDrude(_Truncated, _Drude):
    """Drude conductor with memory cut off at t = T (entire transform)."""

    c_D: float
    gamma: float
    T: float

    def __post_init__(self):
        if not (self.gamma > 0 and self.c_D > 0 and self.T > 0):
            raise ConfigError("truncated Drude model needs gamma > 0, c_D > 0, T > 0")


def drude_model(c_D, gamma, T=None):
    """Drude response of the dispersive side, its memory cut at T if given."""
    if T is None:
        return UntruncatedDrude(c_D=c_D, gamma=gamma)
    return TruncatedDrude(c_D=c_D, gamma=gamma, T=T)


@dataclass(frozen=True)
class Constant(LinearSusceptibility):
    """Instantaneous dielectric response chi^(1) = alpha."""

    alpha: float

    def __post_init__(self):
        if not self.alpha > 0:
            raise ConfigError("constant susceptibility needs alpha > 0")

    def ft(self, omega):
        return complex(self.alpha)


def ft_chi1(model, omega):
    """Closed-form Fourier-Laplace transform chi^(1)(omega) of the model."""
    return model.ft(omega)


# ----------------------------------------------------------------------
# Nonlinear susceptibility
# ----------------------------------------------------------------------

# Tuples per kernel call.  Each ordering of a chi3 tuple is one
# divided-difference call over 8 rate combinations, which holds the 10
# upper-triangle entries of a 4x4 matrix exponential per combination
# (twice while squaring); taking the orderings one call at a time caps the
# temporaries of a call at about a MiB.
_MAX_BATCH = 256


@dataclass(frozen=True)
class NonlinearSusceptibility:
    """Quadratic and cubic responses driven by one damped oscillator.

    c2 : (3,3,3) coupling tensor c^(2)_{j,p,q}
    c3 : (3,3,3,3) coupling tensor c^(3)_{j,p,q,r}
    gamma_tilde, omega_star_tilde : oscillator damping / resonance
    T_N : nonlinear memory window (transforms are entire in all arguments)

    TM compatibility requires the third-row couplings that would feed the
    magnetic component from in-plane fields to vanish identically.
    """

    c2: np.ndarray
    c3: np.ndarray
    gamma_tilde: float
    omega_star_tilde: float
    T_N: float
    _cache2: dict = field(default_factory=dict, repr=False, compare=False)
    _cache3: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "c2", np.asarray(self.c2, dtype=float))
        object.__setattr__(self, "c3", np.asarray(self.c3, dtype=float))
        if self.c2.shape != (3, 3, 3) or self.c3.shape != (3, 3, 3, 3):
            raise ConfigError("c2 must be (3,3,3) and c3 must be (3,3,3,3)")
        if not (self.omega_star_tilde > self.gamma_tilde > 0 and self.T_N > 0):
            raise ConfigError(
                "nonlinear model needs omega_star_tilde > gamma_tilde > 0, T_N > 0"
            )
        if np.any(self.c2[2, :2, :2] != 0.0):
            raise ConfigError(
                "TM compatibility: c2[3,p,q] must vanish for p,q in {1,2}"
            )
        if np.any(self.c3[2, :2, :2, :2] != 0.0):
            raise ConfigError(
                "TM compatibility: c3[3,p,q,r] must vanish for p,q,r in {1,2}"
            )
        self.c2.flags.writeable = False
        self.c3.flags.writeable = False

    @property
    def c_tilde(self):
        return math.sqrt(self.omega_star_tilde**2 - self.gamma_tilde**2)

    def d_hat(self, omega):
        """Oscillator transfer function -1/(omega^2 + 2i gt omega - ost^2)."""
        omega = complex(omega)
        denom = _lorentz_denominator(omega, self.gamma_tilde, self.omega_star_tilde)
        if abs(denom) < 1e-12 * max(1.0, abs(omega) ** 2, self.omega_star_tilde**2):
            raise PoleError(f"omega = {omega} hits a pole of the oscillator response")
        return -1.0 / denom

    # -- truncated scalar transforms (exponential-sum algebra) ---------
    def _rates_amps(self):
        ct = self.c_tilde
        lam = np.array(
            [-self.gamma_tilde + 1j * ct, -self.gamma_tilde - 1j * ct]
        )
        amp = np.array([1.0 / (2j * ct), -1.0 / (2j * ct)])
        return lam, amp

    def fill_cache(self, tuples):
        """Evaluate every frequency pair/triple of ``tuples`` not yet cached.

        The misses of each order go through the kernel in vectorized
        passes of up to _MAX_BATCH tuples.  Each is evaluated as its
        canonical key (``_cache_key``), so the cached bits do not depend on
        which ordering or mirror of a tuple comes first, nor on whether it
        is filled ahead or on demand; keys already cached are left
        untouched.
        """
        pending = {2: {}, 3: {}}
        for ws in tuples:
            key, _ = _cache_key(ws)
            if key not in self._cache(len(key)):
                pending[len(key)][key] = None
        for order, todo in pending.items():
            keys = list(todo)
            for lo in range(0, len(keys), _MAX_BATCH):
                batch = keys[lo: lo + _MAX_BATCH]
                vals = self._chi_kernel(np.array(batch))
                for key, val in zip(batch, vals):
                    if _is_self_mirror(key):
                        val = val.real
                    self._cache(order)[key] = complex(val)

    def _cache(self, order):
        return self._cache2 if order == 2 else self._cache3

    def _lookup(self, ws):
        """Cached scalar transform; a miss is filled as a batch of one."""
        key, mirrored = _cache_key(ws)
        cache = self._cache(len(ws))
        if key not in cache:
            self.fill_cache([ws])
        return cache[key].conjugate() if mirrored else cache[key]

    def _scalar_chi2_truncated(self, w1, w2):
        return self._lookup((w1, w2))

    def _scalar_chi3_truncated(self, w1, w2, w3):
        return self._lookup((w1, w2, w3))

    def _chi_kernel(self, w):
        """Scalar chi2 (m = 2) or chi3 (m = 3) transforms of the K
        frequency tuples w[:, 0:m].

        With z_i = lam_{r_i} + i w_i for the rates r_i of the m driven
        factors, lam_l that of the self-convolution and delta = lam_l
        - sum_i lam_{r_i}, the transform is the sum over all rates of
        a_{r_1} ... a_{r_m} a_l / delta times

            sum over orderings s of S(z_s0 + delta, z_s1, ..., z_s(m-1))
            - g(z_1) ... g(z_m),

        S the triangle (m = 2) or simplex (m = 3) transform of the ordered
        region of the window whose earliest argument is s0.  The last node
        of S is a + b (+ c) = lam_l + i sum w and the others are sums of
        z_s1, ..., z_s(m-1), so S does not depend on the rate of s0: each
        ordering is evaluated once on (K, 2, ..., 2), over the rates of
        s1, ..., s(m-1) and l, against the weight summed over the rate of
        s0 (one sum serves every ordering, as delta is symmetric in the
        driven rates).  g is evaluated once per factor, on (K, 2).
        """
        T = self.T_N
        K, m = w.shape
        lam, amp = self._rates_amps()
        # weight[r_1, ..., r_m, l]; Re delta = (m - 1) gamma_tilde > 0
        idx = np.ix_(*[range(2)] * (m + 1))
        weight = math.prod(amp[i] for i in idx) / (
            lam[idx[-1]] - sum(lam[i] for i in idx[:-1]))

        def axis(v, i):  # (K, 2) -> rate axis i of (K, 2, ..., 2), m axes
            return v.reshape((K,) + (1,) * i + (2,) + (1,) * (m - 1 - i))

        z = lam + 1j * w[:, :, None]
        top = axis(lam + 1j * w.sum(axis=1, keepdims=True), m - 1)
        ordered = triangle_transform if m == 2 else simplex_transform
        free = weight.sum(axis=0)
        acc = 0.0
        for s in itertools.permutations(range(m)):
            rest = [axis(z[:, si], i) for i, si in enumerate(s[1:])]
            acc = acc + free * ordered(top - sum(rest), *rest, T)
        g = math.prod(axis(g_window(z[:, i], T), i) for i in range(m))
        return (acc.reshape(K, -1).sum(axis=1)
                - (weight.sum(axis=-1) * g).reshape(K, -1).sum(axis=1))


def _cache_key(ws):
    """Canonical cache key of a frequency tuple, and whether ws maps to it
    through the mirror.

    The transforms are symmetric in their arguments, and real kernels give
    chi(-conj w_1, ..., -conj w_m) = conj chi(w_1, ..., w_m).  The key is
    the smaller of the sorted tuple and its sorted mirror; a lookup
    through the mirror conjugates the stored value.
    """
    key = sorted([(w.real, w.imag) for w in ws])
    mirror = sorted([(-x, y) for x, y in key])
    if mirror < key:
        return tuple([complex(*p) for p in mirror]), True
    return tuple([complex(*p) for p in key]), False


def _is_self_mirror(key):
    """Whether a sorted tuple is its own mirror (its transform is real)."""
    return (sorted([(-w.real, w.imag) for w in key])
            == [(w.real, w.imag) for w in key])


def ft_chi2_untruncated(nl, omega1, omega2):
    """c^(2)_{jpq} D(omega1) D(omega2) D(omega1+omega2), componentwise."""
    scalar = nl.d_hat(omega1) * nl.d_hat(omega2) * nl.d_hat(omega1 + omega2)
    return nl.c2 * scalar


def ft_chi2_truncated(nl, omega1, omega2):
    """Exact transform of the memory-windowed quadratic kernel.

    The window restricts (t1, t2) to [0, T_N]^2; the inner self-convolution
    integral over [0, min(t1, t2)] is done in closed form on the
    exponential-sum representation of the oscillator kernel, and the outer
    transform splits over the two triangles of the square.  Entire in both
    frequency arguments.
    """
    return nl.c2 * nl._scalar_chi2_truncated(omega1, omega2)


def ft_chi3_truncated(nl, omega1, omega2, omega3):
    """Exact transform of the memory-windowed cubic kernel (see chi2)."""
    return nl.c3 * nl._scalar_chi3_truncated(omega1, omega2, omega3)


# ----------------------------------------------------------------------
# Interface
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MaterialInterface:
    """Two homogeneous half-lines meeting at x = 0.

    minus/plus are the linear models on x < 0 and x > 0; nl_minus/nl_plus
    the optional nonlinear responses on each side.
    """

    minus: LinearSusceptibility
    plus: LinearSusceptibility
    nl_minus: NonlinearSusceptibility = None
    nl_plus: NonlinearSusceptibility = None
    eps0: float = 1.0
    mu0: float = 1.0

    def __post_init__(self):
        if not (self.eps0 > 0 and self.mu0 > 0):
            raise ConfigError("eps0 and mu0 must be positive")

    def side_model(self, side):
        if side == "minus":
            return self.minus
        if side == "plus":
            return self.plus
        raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")

    def nl_side(self, side):
        if side == "minus":
            return self.nl_minus
        if side == "plus":
            return self.nl_plus
        raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")

    def permittivity(self, side, omega):
        return self.eps0 * (1.0 + self.side_model(side).ft(omega))

    def permittivity_scaled(self, side, omega):
        return self.eps0 * (1.0 + self.side_model(side).ft_scaled(omega))
