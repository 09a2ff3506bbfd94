"""Homogeneous binary polynomials and the 2x2 matrix calculus on them.

Degree-k polynomials in u1, u2 carry the GL(2,R) substitution action.
The conventions here are pinned by the frame-change formulas of the
torsion calculus: acting by g on a form means substituting by the
adjugate of g, so that the degree-3 action reproduces the torsion of a
frame changed by g^{-1} (see ``flow.frame_change_torsion``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

Scalar = Union[int, float, Fraction]


class BinaryForm:
    """Homogeneous polynomial of degree k in u1, u2.

    coeffs[j] is the coefficient of u1^(k-j) u2^j.
    """

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs: Sequence[Scalar]):
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        if len(coeffs) != degree + 1:
            raise ValueError(f"degree {degree} needs {degree + 1} coefficients")
        self.degree = degree
        self.coeffs = tuple(coeffs)

    @staticmethod
    def zero(degree: int) -> "BinaryForm":
        return BinaryForm(degree, [0] * (degree + 1))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BinaryForm)
            and self.degree == other.degree
            and all(a == b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __hash__(self):
        return hash((self.degree, self.coeffs))

    def __add__(self, other: "BinaryForm") -> "BinaryForm":
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")
        return BinaryForm(self.degree, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "BinaryForm") -> "BinaryForm":
        return self + (-1) * other

    def __neg__(self) -> "BinaryForm":
        return (-1) * self

    def __rmul__(self, c: Scalar) -> "BinaryForm":
        return BinaryForm(self.degree, [c * v for v in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, BinaryForm):
            deg = self.degree + other.degree
            out = [0] * (deg + 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
            return BinaryForm(deg, out)
        return other * self

    def __pow__(self, n: int) -> "BinaryForm":
        if n < 0:
            raise ValueError("exponent must be nonnegative")
        out = BinaryForm(0, [1])
        for _ in range(n):
            out = out * self
        return out

    def __call__(self, u1: Scalar, u2: Scalar) -> Scalar:
        k = self.degree
        total: Scalar = 0
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            total = total + c * u1 ** (k - j) * u2 ** j
        return total

    def substitute(self, m11: Scalar, m12: Scalar, m21: Scalar, m22: Scalar) -> "BinaryForm":
        """Substitute u1 -> m11 u1 + m12 u2, u2 -> m21 u1 + m22 u2."""
        f1 = BinaryForm(1, [m11, m12])
        f2 = BinaryForm(1, [m21, m22])
        out = BinaryForm.zero(self.degree)
        for j, c in enumerate(self.coeffs):
            if c != 0:
                out = out + c * (f1 ** (self.degree - j) * f2 ** j)
        return out

    def to_float(self) -> "BinaryForm":
        try:
            return BinaryForm(self.degree, [float(c) for c in self.coeffs])
        except OverflowError:
            raise ValueError("a binary form coefficient is beyond the float range") from None

    def norm(self) -> float:
        return math.sqrt(sum(float(c) ** 2 for c in self.coeffs))

    def __repr__(self):
        names = []
        k = self.degree
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mono = []
            if k - j:
                mono.append("u1" + (f"^{k - j}" if k - j > 1 else ""))
            if j:
                mono.append("u2" + (f"^{j}" if j > 1 else ""))
            names.append(f"{c}*" + "*".join(mono) if mono else f"{c}")
        return " + ".join(names) if names else "0"

    def to_json(self) -> dict:
        return {"degree": self.degree, "coeffs": [_scalar_json(c) for c in self.coeffs]}

    @staticmethod
    def from_json(data: dict) -> "BinaryForm":
        return BinaryForm(data["degree"], [_scalar_from_json(c) for c in data["coeffs"]])


def _scalar_json(c: Scalar):
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return c.numerator
        return f"{c.numerator}/{c.denominator}"
    return c


def _scalar_from_json(c):
    if isinstance(c, str):
        return Fraction(c)
    return c


@dataclass(frozen=True)
class GL2:
    """A 2x2 real matrix (x y / z w); invertibility is checked where needed."""

    x: Scalar
    y: Scalar
    z: Scalar
    w: Scalar

    def det(self) -> Scalar:
        return self.x * self.w - self.y * self.z

    def adjugate(self) -> "GL2":
        return GL2(self.w, -self.y, -self.z, self.x)

    def __matmul__(self, other: "GL2") -> "GL2":
        return GL2(
            self.x * other.x + self.y * other.z,
            self.x * other.y + self.y * other.w,
            self.z * other.x + self.w * other.z,
            self.z * other.y + self.w * other.w,
        )

    @staticmethod
    def identity() -> "GL2":
        return GL2(1, 0, 0, 1)

    @staticmethod
    def diag(a: Scalar, b: Scalar) -> "GL2":
        return GL2(a, 0, 0, b)

    def to_array(self) -> np.ndarray:
        return np.array([[self.x, self.y], [self.z, self.w]], dtype=float)

    def to_json(self) -> dict:
        return {k: _scalar_json(getattr(self, k)) for k in ("x", "y", "z", "w")}

    @staticmethod
    def from_json(data: dict) -> "GL2":
        return GL2(*(_scalar_from_json(data[k]) for k in ("x", "y", "z", "w")))


def act(g: GL2, f: BinaryForm) -> BinaryForm:
    """Substitution action of g on f: f composed with the adjugate of g.

    Normalized so that for cubics act(g, lambda) is the torsion of the
    frame changed by g^{-1}; in particular act(diag(x,w), .) sends
    lambda_1 -> lambda_1 w^3 and lambda_4 -> lambda_4 x^3.
    """
    a = g.adjugate()
    return f.substitute(a.x, a.y, a.z, a.w)


def discriminant(f: BinaryForm) -> Scalar:
    """Discriminant of a binary quadratic or cubic."""
    if f.degree == 2:
        y1, y2, y3 = f.coeffs
        return y2 * y2 - 4 * y3 * y1
    if f.degree == 3:
        q1, q2, q3, q4 = f.coeffs
        return (
            q2 * q2 * q3 * q3
            - 4 * q1 * q3 ** 3
            - 4 * q2 ** 3 * q4
            + 18 * q1 * q2 * q3 * q4
            - 27 * q1 * q1 * q4 * q4
        )
    raise ValueError(f"discriminant supports degrees 2 and 3, got {f.degree}")


def resultant(x: BinaryForm, y: BinaryForm) -> Scalar:
    """Resultant of a linear form x and a quadratic y; zero iff they share a root."""
    if x.degree != 1 or y.degree != 2:
        raise ValueError("resultant expects degrees (1, 2)")
    x1, x2 = x.coeffs
    y1, y2, y3 = y.coeffs
    return x2 * x2 * y1 + y3 * x1 * x1 - y2 * x2 * x1


def split_b1_b2(x: BinaryForm, y: BinaryForm) -> tuple[BinaryForm, BinaryForm]:
    """Split the product of a linear and a quadratic form into cubic + linear parts.

    The cubic part is the plain product x*y; the linear part is the
    complementary equivariant component of the tensor product, an int
    on int input where 3 divides it.
    """
    if x.degree != 1 or y.degree != 2:
        raise ValueError("split_b1_b2 expects degrees (1, 2)")
    x1, x2 = x.coeffs
    y1, y2, y3 = y.coeffs
    cubic = BinaryForm(3, [x1 * y1, x1 * y2 + x2 * y1, x1 * y3 + x2 * y2, x2 * y3])
    linear = BinaryForm(1, [_two_thirds(2 * x2 * y1 - x1 * y2),
                            _two_thirds(x2 * y2 - 2 * x1 * y3)])
    return cubic, linear


def _two_thirds(v):
    if isinstance(v, int):
        quot, rem = divmod(2 * v, 3)
        return Fraction(2 * v, 3) if rem else quot
    return Fraction(2, 3) * v


def q_map(g: GL2) -> BinaryForm:
    """The cubic (1/3)(x u1 + y u2)^3 - (x u1 + y u2)(z u1 + w u2)^2."""
    f1 = BinaryForm(1, [g.x, g.y])
    f2 = BinaryForm(1, [g.z, g.w])
    return Fraction(1, 3) * (f1 * f1 * f1) - f1 * (f2 * f2)


def hessian(q: BinaryForm) -> BinaryForm:
    """Hessian covariant of a cubic: q11 q22 - q12^2 = 4 hessian(q).

    It vanishes exactly when q is a multiple of a cube, and
    hessian(q_map(g)) = -det(g)^2 (f1^2 + f2^2) for the rows f1, f2 of g.
    """
    q1, q2, q3, q4 = q.coeffs
    return BinaryForm(2, [3 * q1 * q3 - q2 * q2, 9 * q1 * q4 - q2 * q3, 3 * q2 * q4 - q3 * q3])


def cubic_covariant(q: BinaryForm) -> BinaryForm:
    """The cubic covariant q_u1 H_u2 - q_u2 H_u1, with H = hessian(q).

    At q = q_map(g) it is -2 det(g)^3 Im(zeta^3), where zeta = f1 + i f2
    for the rows f1, f2 of g.
    """
    q1, q2, q3, q4 = q.coeffs
    h1, h2, h3 = hessian(q).coeffs
    return BinaryForm(3, [3 * q1 * h2 - 2 * q2 * h1, 6 * q1 * h3 + q2 * h2 - 4 * q3 * h1,
                          4 * q2 * h3 - q3 * h2 - 6 * q4 * h1, 2 * q3 * h3 - 3 * q4 * h2])


def q_invert(q: BinaryForm) -> list[GL2]:
    """The three preimages with det > 0 of a positive-discriminant cubic under q_map.

    With zeta = f1 + i f2 for the rows of g, q_map(g) = Re(zeta^3)/3.  On
    the det > 0 branch det(g)^3 = sqrt(3/4 Delta), so the cubic covariant
    gives qhat = Im(zeta^3)/3 and 3(q + i qhat) = zeta^3 is a known cube.
    Its three cube roots are the preimages; they differ by rotations
    through 2 pi/3 (the even elements of ``sigma3_all``).  Raises for
    discriminant <= 0.
    """
    if q.degree != 3:
        raise ValueError("q_invert expects a cubic")
    disc = float(discriminant(q))
    if disc <= 0:
        raise ValueError("not in covering image: discriminant <= 0")
    scale = -1.0 / (6.0 * math.sqrt(0.75 * disc))
    c1, c2, c3, c4 = (complex(float(a), scale * float(b))
                      for a, b in zip(q.coeffs, cubic_covariant(q).coeffs))
    # zeta = alpha u1 + beta u2, so zeta^3 = (alpha^3, 3 alpha^2 beta, 3 alpha beta^2, beta^3);
    # the cube root is taken at the larger end
    if abs(c4) > abs(c1):
        pairs = [(c3 / b ** 2, b) for b in _cube_roots(3 * c4)]
    else:
        pairs = [(a, c2 / a ** 2) for a in _cube_roots(3 * c1)]
    return [GL2(a.real, b.real, a.imag, b.imag) for a, b in pairs]


def _cube_roots(c: complex) -> list[complex]:
    root = c ** (1 / 3)
    return [root, root * _OMEGA, root * _OMEGA.conjugate()]


_OMEGA = complex(-0.5, math.sqrt(3.0) / 2.0)   # exp(2 pi i / 3)


_A = GL2(-0.5, math.sqrt(3.0) / 2.0, math.sqrt(3.0) / 2.0, 0.5)  # (12)
_B = GL2(1.0, 0.0, 0.0, -1.0)                                    # (23)

# image tuple -> matrix; the last three are products of (12) and (23)
_SIGMA3 = {
    (0, 1, 2): GL2(1.0, 0.0, 0.0, 1.0),
    (1, 0, 2): _A,
    (0, 2, 1): _B,
    (2, 1, 0): (_A @ _B) @ _A,
    (1, 2, 0): _A @ _B,
    (2, 0, 1): _B @ _A,
}


def sigma3_element(perm: Sequence[int]) -> GL2:
    """The 2x2 matrix representing a permutation of three letters.

    perm is the image tuple, e.g. (1, 0, 2) for the transposition (12);
    the map is a group homomorphism.
    """
    try:
        return _SIGMA3[tuple(perm)]
    except KeyError:
        raise ValueError("perm must be a permutation of (0, 1, 2)") from None


def sigma3_all() -> list[GL2]:
    """All six matrices of the permutation subgroup."""
    return list(_SIGMA3.values())
