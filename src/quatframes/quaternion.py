"""Scalar arithmetic in the quaternion division ring.

A quaternion is written q = r0 + r1*i + r2*j + r3*k with real components
and the Hamilton multiplication rules

    i*i = j*j = k*k = -1,   i*j = -j*i = k,   j*k = -k*j = i,   k*i = -i*k = j.

Multiplication is associative but not commutative, so left and right
factors must never be swapped silently.
"""

from __future__ import annotations

import math


class Quaternion:
    """Immutable quaternion with float64 components.

    Supports +, -, * (quaternion or real, both sides for reals), / by a
    real, conjugation, modulus via abs(), and inversion.
    """

    __slots__ = ("r0", "r1", "r2", "r3")

    def __init__(self, r0=0.0, r1=0.0, r2=0.0, r3=0.0):
        self.r0 = float(r0)
        self.r1 = float(r1)
        self.r2 = float(r2)
        self.r3 = float(r3)

    @classmethod
    def from_components(cls, comps) -> "Quaternion":
        """Build from any length-4 sequence [r0, r1, r2, r3]."""
        a, b, c, d = comps
        return cls(a, b, c, d)

    @property
    def components(self) -> tuple[float, float, float, float]:
        return (self.r0, self.r1, self.r2, self.r3)

    @property
    def real(self) -> float:
        return self.r0

    def conjugate(self) -> "Quaternion":
        """Negate the imaginary part: conj(q) = r0 - r1*i - r2*j - r3*k."""
        return Quaternion(self.r0, -self.r1, -self.r2, -self.r3)

    def norm_sq(self) -> float:
        return self.r0 * self.r0 + self.r1 * self.r1 + self.r2 * self.r2 + self.r3 * self.r3

    def __abs__(self) -> float:
        # hypot avoids spurious overflow/underflow of the squared sum
        return math.hypot(self.r0, self.r1, self.r2, self.r3)

    def inverse(self) -> "Quaternion":
        """Multiplicative inverse conj(q)/|q|^2.

        Raises ZeroDivisionError when |q| is 0 or 1/|q| is not finite:
        below about 5.6e-309 it overflows.
        """
        m = abs(self)
        if m == 0.0 or not math.isfinite(1.0 / m):
            raise ZeroDivisionError(f"quaternion modulus {m!r} has no finite inverse")
        c = self.conjugate()
        # divide by the modulus twice instead of by its square so that
        # moduli near the underflow boundary stay representable
        return Quaternion(c.r0 / m / m, c.r1 / m / m, c.r2 / m / m, c.r3 / m / m)

    def __add__(self, other):
        if not isinstance(other, Quaternion):
            return NotImplemented
        return Quaternion(self.r0 + other.r0, self.r1 + other.r1,
                          self.r2 + other.r2, self.r3 + other.r3)

    def __sub__(self, other):
        if not isinstance(other, Quaternion):
            return NotImplemented
        return Quaternion(self.r0 - other.r0, self.r1 - other.r1,
                          self.r2 - other.r2, self.r3 - other.r3)

    def __neg__(self):
        return Quaternion(-self.r0, -self.r1, -self.r2, -self.r3)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion(self.r0 * other, self.r1 * other,
                              self.r2 * other, self.r3 * other)
        if not isinstance(other, Quaternion):
            return NotImplemented
        a0, a1, a2, a3 = self.components
        b0, b1, b2, b3 = other.components
        return Quaternion(
            a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
        )

    def __rmul__(self, other):
        # reals commute with every quaternion, so only reals are accepted here
        if isinstance(other, (int, float)):
            return self * other
        return NotImplemented

    def __truediv__(self, other):
        # division by a quaternion is ambiguous (left vs right); use inverse()
        if isinstance(other, (int, float)):
            return Quaternion(self.r0 / other, self.r1 / other,
                              self.r2 / other, self.r3 / other)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, Quaternion):
            return NotImplemented
        return self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def __repr__(self):
        return f"Quaternion({self.r0!r}, {self.r1!r}, {self.r2!r}, {self.r3!r})"

    def __str__(self):
        return f"{self.r0:g} + {self.r1:g}i + {self.r2:g}j + {self.r3:g}k"


ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
I = Quaternion(0.0, 1.0, 0.0, 0.0)
J = Quaternion(0.0, 0.0, 1.0, 0.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)
