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

    def __call__(self, u1: Scalar, u2: Scalar) -> Scalar:
        k = self.degree
        total: Scalar = 0
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            total = total + c * u1 ** (k - j) * u2 ** j
        return total

    def d_u1(self) -> "BinaryForm":
        """Partial derivative with respect to u1."""
        k = self.degree
        if k == 0:
            return BinaryForm.zero(0)
        return BinaryForm(k - 1, [(k - j) * self.coeffs[j] for j in range(k)])

    def d_u2(self) -> "BinaryForm":
        """Partial derivative with respect to u2."""
        k = self.degree
        if k == 0:
            return BinaryForm.zero(0)
        return BinaryForm(k - 1, [(j + 1) * self.coeffs[j + 1] for j in range(k)])

    def substitute(self, m11: Scalar, m12: Scalar, m21: Scalar, m22: Scalar) -> "BinaryForm":
        """Substitute u1 -> m11 u1 + m12 u2, u2 -> m21 u1 + m22 u2."""
        f1 = BinaryForm(1, [m11, m12])
        f2 = BinaryForm(1, [m21, m22])
        out = BinaryForm.zero(self.degree)
        one = BinaryForm(0, [1])
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            term = one
            for _ in range(self.degree - j):
                term = term * f1
            for _ in range(j):
                term = term * f2
            out = out + c * term
        return out

    def to_float(self) -> "BinaryForm":
        return BinaryForm(self.degree, [float(c) for c in self.coeffs])

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
    complementary equivariant component of the tensor product.
    """
    if x.degree != 1 or y.degree != 2:
        raise ValueError("split_b1_b2 expects degrees (1, 2)")
    x1, x2 = x.coeffs
    y1, y2, y3 = y.coeffs
    cubic = BinaryForm(3, [x1 * y1, x1 * y2 + x2 * y1, x1 * y3 + x2 * y2, x2 * y3])
    linear = BinaryForm(1, [Fraction(2, 3) * (2 * x2 * y1 - x1 * y2),
                            Fraction(2, 3) * (x2 * y2 - 2 * x1 * y3)])
    return cubic, linear


def q_map(g: GL2) -> BinaryForm:
    """The cubic (1/3)(x u1 + y u2)^3 - (x u1 + y u2)(z u1 + w u2)^2."""
    f1 = BinaryForm(1, [g.x, g.y])
    f2 = BinaryForm(1, [g.z, g.w])
    return Fraction(1, 3) * (f1 * f1 * f1) - f1 * (f2 * f2)


# Normalization constants of the covering recipe: f1 is rescaled by
# (3/4)^(1/3) and f2 - f3 by 48^(-1/6).
_C1 = (3.0 / 4.0) ** (1.0 / 3.0)
_C2 = 48.0 ** (-1.0 / 6.0)


def _cubic_real_roots(f: BinaryForm) -> list[tuple[float, float]]:
    """Projective real roots [a : b] of a cubic with three distinct real roots.

    Returned as unit vectors (a, b) with a deterministic sign, sorted
    lexicographically.  Rational coefficients get an exact rational-root
    scan first; remaining roots come from the companion matrix.
    """
    c = [float(v) for v in f.coeffs]
    roots: list[tuple[float, float]] = []
    work = np.array(c, dtype=float)
    if abs(work[0]) < 1e-300:
        # u2 divides: root at [1 : 0]
        roots.append((1.0, 0.0))
        work = work[1:]
        rr = np.roots(work) if len(work) > 1 else []
    else:
        rr = np.roots(work)
    for r in rr:
        if abs(r.imag) > 1e-8 * (1 + abs(r.real)):
            raise ValueError("cubic does not have three real roots")
        t = float(r.real)
        n = math.hypot(t, 1.0)
        roots.append((t / n, 1.0 / n))
    normed = []
    for a, b in roots:
        if b < 0 or (b == 0 and a < 0):
            a, b = -a, -b
        normed.append((a, b))
    normed.sort()
    return normed


def q_invert(q: BinaryForm) -> list[GL2]:
    """Preimages of a positive-discriminant cubic under q_map.

    Returns one matrix per orbit of the residual symmetric-group action,
    i.e. up to three essentially different matrices; q_map of each
    reproduces q.  Raises for discriminant <= 0.
    """
    if q.degree != 3:
        raise ValueError("q_invert expects a cubic")
    disc = float(discriminant(q))
    if disc <= 0:
        raise ValueError("not in covering image: discriminant <= 0")
    roots = _cubic_real_roots(q)
    # linear factors g_i(u) = b_i u1 - a_i u2 for root [a_i : b_i]
    gs = [BinaryForm(1, [b, -a]) for a, b in roots]
    out = []
    for k in range(3):
        f1r, f2r, f3r = gs[k], gs[(k + 1) % 3], gs[(k + 2) % 3]
        g = _assemble_preimage(q, f1r, f2r, f3r)
        if g is not None:
            out.append(g)
    return out


def _assemble_preimage(q: BinaryForm, g1: BinaryForm, g2: BinaryForm, g3: BinaryForm):
    """Scale linear factors so f1 f2 f3 = q with f1 + f2 + f3 = 0, then read off g."""
    a1, b1 = (float(v) for v in g1.coeffs)
    a2, b2 = (float(v) for v in g2.coeffs)
    a3, b3 = (float(v) for v in g3.coeffs)
    # write g3 = alpha g1 + beta g2
    det = a1 * b2 - a2 * b1
    if abs(det) < 1e-14:
        return None
    alpha = (a3 * b2 - a2 * b3) / det
    beta = (a1 * b3 - a3 * b1) / det
    prod = alpha * beta
    if prod == 0:
        return None
    # c1 g1 + c2 g2 + c3 g3 = 0 and (c1 g1)(c2 g2)(c3 g3) = q,
    # so c3^3 = lead / (alpha beta) with q = lead * g1 g2 g3
    lead = _leading_value(q, g1, g2, g3)
    ratio = lead / prod
    c3 = math.copysign(abs(ratio) ** (1.0 / 3.0), ratio)
    c1, c2 = -c3 * alpha, -c3 * beta
    f1 = c1 * g1.to_float()
    f2 = c2 * g2.to_float()
    f3 = c3 * g3.to_float()
    x, y = (_C1 * v for v in f1.coeffs)
    z, w = (_C2 * (f2.coeffs[i] - f3.coeffs[i]) for i in range(2))
    if z < 0 or (z == 0 and w < 0):
        z, w = -z, -w
    g = GL2(x, y, z, w)
    return _polish_preimage(q, g)


def _leading_value(q, g1, g2, g3) -> float:
    """Scale s with q = s * g1 g2 g3 for the unscaled factors."""
    prod = g1 * g2 * g3
    qf = [float(v) for v in q.coeffs]
    pf = [float(v) for v in prod.coeffs]
    num = max(range(4), key=lambda i: abs(pf[i]))
    return qf[num] / pf[num]


def _polish_preimage(q: BinaryForm, g: GL2) -> GL2:
    """One or two Newton steps on the coefficients of q_map(g) - q."""
    v = np.array([g.x, g.y, g.z, g.w], dtype=float)
    target = np.array([float(c) for c in q.coeffs])
    for _ in range(3):
        gx = GL2(*v)
        res = np.array([float(c) for c in q_map(gx).coeffs]) - target
        if np.max(np.abs(res)) < 1e-14 * max(1.0, np.max(np.abs(target))):
            break
        jac = np.zeros((4, 4))
        h = 1e-7
        for j in range(4):
            vp = v.copy()
            vp[j] += h
            jac[:, j] = (np.array([float(c) for c in q_map(GL2(*vp)).coeffs])
                         - res - target) / h
        try:
            v = v - np.linalg.solve(jac, res)
        except np.linalg.LinAlgError:
            break
    return GL2(*v)


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
