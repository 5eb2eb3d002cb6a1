"""Oscillation frequency bookkeeping.

Everything downstream works with omega decomposed as omega = 2*pi*k + epsilon
with |epsilon| <= pi.  When epsilon is exactly zero the table recursion may
substitute sin(2*omega) = 0 and cos(2*omega) = 1 symbolically, which is both
faster and more accurate than evaluating trig functions at large arguments,
so the decomposition is tracked explicitly instead of being re-derived from
the float value of omega.
"""

from __future__ import annotations

import logging
import math
import numbers
import re
import sys
from dataclasses import dataclass

logger = logging.getLogger(__name__)

TWO_PI = 2.0 * math.pi

# Relative slack for recognizing a plain real as a 2*pi*k multiple.
_PROMOTION_RTOL = 1e-12

_EXACT_SPEC = re.compile(r"^\s*2\s*pi\s*\*\s*(\d+)\s*$", re.IGNORECASE)


class StabilityWarning(UserWarning):
    """Construction requested outside the omega > N stability regime."""


@dataclass(frozen=True)
class Frequency:
    """A frequency omega with its decomposition omega = 2*pi*k + epsilon.

    Attributes
    ----------
    omega : float
        The frequency itself, > 0.
    k : int
        Nearest-integer multiple of 2*pi contained in omega.
    epsilon : float
        Remainder, |epsilon| <= pi.  Exactly 0.0 marks an exact multiple.
    """

    omega: float
    k: int
    epsilon: float

    def __post_init__(self):
        for name, value in (("omega", self.omega), ("epsilon", self.epsilon)):
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        if not 0 < self.omega <= sys.float_info.max:
            raise ValueError(f"omega must be positive and finite, got {self.omega!r}")
        if isinstance(self.k, bool) or not isinstance(self.k, numbers.Integral):
            raise ValueError(f"k must be an integer, got {self.k!r}")
        if self.k < 0:
            raise ValueError(f"k must be >= 0, got {self.k}")
        # omega >= (2k - 1) pi, so k > omega is inconsistent; 2 pi k stays a float
        if self.k > self.omega:
            raise ValueError(
                f"inconsistent decomposition: k={self.k} > omega={self.omega!r}")
        # both checks below fail a NaN epsilon
        if not abs(self.epsilon) <= math.pi:
            raise ValueError(
                f"epsilon must satisfy |epsilon| <= pi, got {self.epsilon!r}"
            )
        resid = abs(self.omega - (TWO_PI * self.k + self.epsilon))
        if not resid <= _PROMOTION_RTOL * max(1.0, abs(self.omega)):
            raise ValueError(
                f"inconsistent decomposition: omega={self.omega!r} vs "
                f"2*pi*{self.k} + {self.epsilon!r} (residual {resid:.3e})"
            )

    @property
    def exact_multiple(self) -> bool:
        """True iff epsilon is exactly zero."""
        return self.epsilon == 0.0

    def double_angle(self) -> tuple[float, float]:
        """(sin 2 omega, cos 2 omega), substituted as exactly (0.0, 1.0) at
        an exact multiple instead of evaluated at a large argument."""
        if self.exact_multiple:
            return 0.0, 1.0
        return math.sin(2.0 * self.omega), math.cos(2.0 * self.omega)

    @classmethod
    def exact(cls, k: int) -> "Frequency":
        """The frequency 2*pi*k with epsilon = 0 guaranteed."""
        if not 1 <= k <= sys.float_info.max / TWO_PI:
            raise ValueError(f"exact multiple needs k >= 1 and 2*pi*k finite, got {k}")
        return cls(omega=TWO_PI * k, k=k, epsilon=0.0)

    @classmethod
    def from_omega(cls, omega: float) -> "Frequency":
        """Decompose a plain real omega.

        A value within 1e-12 relative of some 2*pi*k is promoted to an exact
        multiple (epsilon forced to 0.0); the promotion is logged so that it
        never happens silently.
        """
        if not 0 < omega <= sys.float_info.max:
            raise ValueError(f"omega must be positive and finite, got {omega!r}")
        # round half down so a tie at epsilon = +/-pi picks the smaller k
        k = int(math.ceil(omega / TWO_PI - 0.5))
        epsilon = omega - TWO_PI * k
        # division rounding near a tie can leave the computed remainder just
        # past +/-pi; renormalize against the computed value
        while epsilon > math.pi and k >= 0:
            k += 1
            epsilon = omega - TWO_PI * k
        while epsilon < -math.pi and k >= 1:
            k -= 1
            epsilon = omega - TWO_PI * k
        if k >= 1 and abs(epsilon) <= _PROMOTION_RTOL * max(1.0, omega):
            logger.info("promoting omega=%r to exact multiple 2pi*%d", omega, k)
            return cls(omega=omega, k=k, epsilon=0.0)
        return cls(omega=omega, k=k, epsilon=epsilon)


def parse_omega_spec(text: str) -> Frequency:
    """Parse an omega argument: either the form ``2pi*k`` or a plain real.

    The ``2pi*k`` form sets exact_multiple without any float comparison.
    """
    m = _EXACT_SPEC.match(text)
    if m:
        return Frequency.exact(int(m.group(1)))
    try:
        omega = float(text)
    except ValueError:
        raise ValueError(
            f"omega spec {text!r} is neither a real number nor of the form '2pi*k'"
        ) from None
    return Frequency.from_omega(omega)
