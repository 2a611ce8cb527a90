"""Scaled complex arithmetic: numbers stored as log-magnitude + phase.

The truncated-memory dispersion quantities carry factors like
e^{(-nu*omega_I - gamma) T} whose magnitude exceeds the double-precision
range (exponents beyond ~709) for deep cone levels at large memory
windows.  ScaledComplex represents w = exp(log_mag) * exp(i*phase) and
supports the handful of operations the solvers need (multiply, divide,
add, square root, negation, conjugation) without ever materializing the
raw magnitude.
"""

import cmath
import math

from .errors import OverflowGuard

_LOG_HUGE = 709.0  # log of the largest finite double, rounded down


class ScaledComplex:
    """A complex number exp(log_mag + i*phase) in log-polar form."""

    __slots__ = ("log_mag", "phase")

    def __init__(self, log_mag, phase):
        if math.isinf(log_mag) and log_mag > 0:
            raise OverflowGuard("infinite log-magnitude")
        self.log_mag = float(log_mag)
        # Keep phases wrapped so sqrt stays on the principal branch.
        self.phase = math.remainder(float(phase), 2.0 * math.pi)

    # -- constructors ---------------------------------------------------
    @classmethod
    def zero(cls):
        return cls(-math.inf, 0.0)

    @classmethod
    def from_complex(cls, z):
        z = complex(z)
        if z == 0:
            return cls.zero()
        # not cmath.phase: it raises OverflowError when the phase
        # underflows (2 + 5e-324j); atan2 gives 0.0 and agrees elsewhere
        return cls(math.log(abs(z)), math.atan2(z.imag, z.real))

    @classmethod
    def exp(cls, w):
        """exp(w) for complex w with arbitrarily large real part."""
        w = complex(w)
        return cls(w.real, w.imag)

    # -- conversions ----------------------------------------------------
    @property
    def is_zero(self):
        return math.isinf(self.log_mag) and self.log_mag < 0

    def to_complex(self, strict=True):
        """Materialize as a plain complex.

        With strict=True an out-of-range magnitude raises OverflowGuard;
        otherwise it saturates to an infinite complex (underflow gives 0).
        """
        if self.is_zero:
            return 0j
        if self.log_mag > _LOG_HUGE:
            if strict:
                raise OverflowGuard(
                    f"magnitude e^{self.log_mag:.1f} exceeds double range"
                )
            return cmath.rect(math.inf, self.phase)
        return cmath.rect(math.exp(self.log_mag), self.phase)

    def __complex__(self):
        return self.to_complex()

    # -- arithmetic -----------------------------------------------------
    @staticmethod
    def _coerce(other):
        if isinstance(other, ScaledComplex):
            return other
        return ScaledComplex.from_complex(other)

    def __mul__(self, other):
        o = self._coerce(other)
        if self.is_zero or o.is_zero:
            return ScaledComplex.zero()
        return ScaledComplex(self.log_mag + o.log_mag, self.phase + o.phase)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o.is_zero:
            raise ZeroDivisionError("ScaledComplex division by zero")
        if self.is_zero:
            return ScaledComplex.zero()
        return ScaledComplex(self.log_mag - o.log_mag, self.phase - o.phase)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __add__(self, other):
        o = self._coerce(other)
        if self.is_zero:
            return o
        if o.is_zero:
            return self
        big, small = (self, o) if self.log_mag >= o.log_mag else (o, self)
        # value = e^{big.log} * (e^{i big.phase} + e^{small.log-big.log+i small.phase})
        rest = cmath.rect(1.0, big.phase) + cmath.rect(
            math.exp(small.log_mag - big.log_mag), small.phase
        )
        if rest == 0:
            return ScaledComplex.zero()
        return ScaledComplex(
            big.log_mag + math.log(abs(rest)), math.atan2(rest.imag, rest.real)
        )

    __radd__ = __add__

    def __neg__(self):
        if self.is_zero:
            return self
        return ScaledComplex(self.log_mag, self.phase + math.pi)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def conjugate(self):
        return ScaledComplex(self.log_mag, -self.phase)

    def sqrt(self):
        """Principal square root (result phase in (-pi/2, pi/2], Re >= 0)."""
        if self.is_zero:
            return self
        return ScaledComplex(0.5 * self.log_mag, 0.5 * self.phase)

    def __abs__(self):
        if self.is_zero:
            return 0.0
        if self.log_mag > _LOG_HUGE:
            return math.inf
        return math.exp(self.log_mag)

    def __repr__(self):
        return f"ScaledComplex(log_mag={self.log_mag!r}, phase={self.phase!r})"
