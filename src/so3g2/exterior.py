"""Exterior algebra on a fixed six-dimensional vector space.

Forms are stored as sparse dictionaries over strictly increasing index
tuples drawn from {1..6}, with the sign of any index reordering absorbed
into the coefficient.  Coefficients are either exact (Python ints or
``fractions.Fraction``) or floats; the kinds mix the way Python scalars
do, so a computation stays exact until a float enters it.

Chevalley-Eilenberg operators (a choice of d on degree one, extended as
an anti-derivation) live here too, together with the d^2 = 0 test that
encodes the Jacobi identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

from ._exact import is_exact

Scalar = Union[int, float, Fraction]

DIM = 6


def _sort_with_sign(indices: Sequence[int]):
    """Sort an index tuple, returning (sorted_tuple, sign) or None if repeated."""
    idx = list(indices)
    sign = 1
    # insertion sort; tuples have length <= 6
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(idx)):
        if idx[i - 1] == idx[i]:
            return None
    return tuple(idx), sign


class KForm:
    """A degree-k exterior form on R^6."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs: Mapping[tuple, Scalar] | None = None):
        if not 0 <= degree <= DIM:
            raise ValueError(f"degree must be in 0..{DIM}, got {degree}")
        self.degree = degree
        clean: dict[tuple, Scalar] = {}
        if coeffs:
            for idx, c in coeffs.items():
                if c == 0:
                    continue
                srt = _sort_with_sign(idx)
                if srt is None:
                    continue
                key, sign = srt
                if len(key) != degree:
                    raise ValueError(f"index {idx} has wrong length for degree {degree}")
                if any(not 1 <= i <= DIM for i in key):
                    raise ValueError(f"index {idx} out of range 1..{DIM}")
                val = clean.get(key, 0) + sign * c
                if val == 0:
                    clean.pop(key, None)
                else:
                    clean[key] = val
        self.coeffs = clean

    @staticmethod
    def zero(degree: int) -> "KForm":
        return KForm(degree, {})

    @staticmethod
    def basis(*indices: int) -> "KForm":
        """The monomial e^{i1...ik}."""
        return KForm(len(indices), {tuple(indices): 1})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __iter__(self):
        return iter(sorted(self.coeffs.items()))

    def __getitem__(self, idx) -> Scalar:
        srt = _sort_with_sign(idx)
        if srt is None:
            return 0
        key, sign = srt
        return sign * self.coeffs.get(key, 0)

    def __add__(self, other: "KForm") -> "KForm":
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            v = out.get(k, 0) + c
            if v == 0:
                out.pop(k, None)
            else:
                out[k] = v
        res = KForm.zero(self.degree)
        res.coeffs = out
        return res

    def __sub__(self, other: "KForm") -> "KForm":
        return self + (-1) * other

    def __neg__(self) -> "KForm":
        return (-1) * self

    def __rmul__(self, c: Scalar) -> "KForm":
        if c == 0:
            return KForm.zero(self.degree)
        res = KForm.zero(self.degree)
        res.coeffs = {k: c * v for k, v in self.coeffs.items()}
        return res

    def __mul__(self, c: Scalar) -> "KForm":
        return c * self

    def __truediv__(self, c: Scalar) -> "KForm":
        return (1 / c) * self

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, KForm)
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.degree, tuple(sorted(self.coeffs.items()))))

    def max_abs(self) -> float:
        """Largest absolute coefficient (0.0 for the zero form)."""
        return max((abs(c) for c in self.coeffs.values()), default=0)

    def to_float(self) -> "KForm":
        res = KForm.zero(self.degree)
        res.coeffs = {k: float(v) for k, v in self.coeffs.items()}
        return res

    def prune(self, tol: float) -> "KForm":
        """Drop coefficients of magnitude below tol."""
        res = KForm.zero(self.degree)
        res.coeffs = {k: v for k, v in self.coeffs.items() if abs(v) > tol}
        return res

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for idx, c in sorted(self.coeffs.items()):
            label = "e" + "".join(str(i) for i in idx) if idx else "1"
            parts.append(f"{c}*{label}" if idx else f"{c}")
        return " + ".join(parts)

    def to_json(self) -> dict:
        terms = []
        for idx, c in sorted(self.coeffs.items()):
            if isinstance(c, Fraction):
                terms.append({"idx": list(idx), "num": c.numerator, "den": c.denominator})
            elif isinstance(c, int):
                terms.append({"idx": list(idx), "num": c, "den": 1})
            else:
                terms.append({"idx": list(idx), "value": float(c)})
        return {"degree": self.degree, "terms": terms}

    @staticmethod
    def from_json(data: dict) -> "KForm":
        coeffs = {}
        for term in data["terms"]:
            if "value" in term:
                c: Scalar = term["value"]
            else:
                c = Fraction(term["num"], term.get("den", 1))
            coeffs[tuple(term["idx"])] = c
        return KForm(data["degree"], coeffs)


def wedge(a: KForm, b: KForm) -> KForm:
    """Exterior product a ^ b."""
    deg = a.degree + b.degree
    if deg > DIM:
        raise ValueError(f"wedge degree overflow: {a.degree} + {b.degree} > {DIM}")
    out: dict[tuple, Scalar] = {}
    for ia, ca in a.coeffs.items():
        for ib, cb in b.coeffs.items():
            srt = _sort_with_sign(ia + ib)
            if srt is None:
                continue
            key, sign = srt
            v = out.get(key, 0) + sign * ca * cb
            if v == 0:
                out.pop(key, None)
            else:
                out[key] = v
    res = KForm.zero(deg)
    res.coeffs = out
    return res


def wedge_all(*forms: KForm) -> KForm:
    res = forms[0]
    for f in forms[1:]:
        res = wedge(res, f)
    return res


def interior(v: Union[int, Sequence[Scalar]], a: KForm) -> KForm:
    """Interior product v -| a.

    v is either a basis index in 1..6 or a sequence of six vector
    components.  Graded derivation of degree -1.
    """
    if a.degree == 0:
        return KForm.zero(0)
    if isinstance(v, int):
        components: Iterable[tuple[int, Scalar]] = [(v, 1)]
    else:
        components = [(i + 1, c) for i, c in enumerate(v) if c != 0]
    out: dict[tuple, Scalar] = {}
    for i, vc in components:
        for idx, c in a.coeffs.items():
            if i not in idx:
                continue
            pos = idx.index(i)
            sign = -1 if pos % 2 else 1
            key = idx[:pos] + idx[pos + 1:]
            val = out.get(key, 0) + sign * vc * c
            if val == 0:
                out.pop(key, None)
            else:
                out[key] = val
    res = KForm.zero(a.degree - 1)
    res.coeffs = out
    return res


@dataclass(frozen=True)
class CEOperator:
    """A Chevalley-Eilenberg differential, given by the images d(e^i) in degree 2."""

    images: tuple

    def __post_init__(self):
        if len(self.images) != DIM:
            raise ValueError("CEOperator needs exactly 6 images")
        for im in self.images:
            if im.degree != 2:
                raise ValueError("each image of d must have degree 2")
        object.__setattr__(self, "images", tuple(self.images))

    def d1(self, i: int) -> KForm:
        """Image of e^i, i in 1..6."""
        return self.images[i - 1]

    def to_float(self) -> "CEOperator":
        return CEOperator(tuple(im.to_float() for im in self.images))

    def to_json(self) -> dict:
        return {"images": [im.to_json() for im in self.images]}

    @staticmethod
    def from_json(data: dict) -> "CEOperator":
        return CEOperator(tuple(KForm.from_json(im) for im in data["images"]))


def apply_d(d: CEOperator, a: KForm) -> KForm:
    """Extend d from degree one to a as an anti-derivation.

    d(e^{j1...jk}) = sum_p (-1)^(p-1) de^{jp} ^ e^{j1...^jp...jk};
    degree-0 constants map to 0.
    """
    if a.degree == 0:
        return KForm.zero(1)
    if a.degree == DIM:
        return KForm.zero(DIM)  # no forms above the top degree
    out = KForm.zero(a.degree + 1)
    for idx, c in a.coeffs.items():
        for p, jp in enumerate(idx):
            rest = idx[:p] + idx[p + 1:]
            sign = -1 if p % 2 else 1
            term = wedge(d.d1(jp), KForm(len(rest), {rest: sign * c}))
            out = out + term
    return out


def pullback(m, a: KForm) -> KForm:
    """Pullback of a by the endomorphism with matrix m (m[i][j] = (m e_j)_i).

    (m^* a)(X1, ..., Xk) = a(m X1, ..., m Xk); on the coframe this is the
    substitution e^i -> sum_j m[i][j] e^j.
    """
    images = [KForm(1, {(j + 1,): m[i][j] for j in range(DIM)}) for i in range(DIM)]
    out = KForm.zero(a.degree)
    for idx, c in a.coeffs.items():
        term = KForm(0, {(): c})
        for i in idx:
            term = wedge(term, images[i - 1])
        out = out + term
    return out


def d_squared_residual(d: CEOperator) -> Scalar:
    """Max absolute coefficient of d(d(e^i)) over i; zero iff Jacobi holds."""
    worst: Scalar = 0
    for i in range(1, DIM + 1):
        dd = apply_d(d, d.d1(i))
        m = dd.max_abs()
        if m > worst:
            worst = m
    return worst


def require_lie_algebra(d: CEOperator) -> None:
    """Raise ValueError unless d satisfies the Jacobi identity: exactly when
    every coefficient is exact, beyond roundoff (1e-9) otherwise."""
    residual = d_squared_residual(d)
    exact = is_exact(v for im in d.images for v in im.coeffs.values())
    if (exact and residual != 0) or float(residual) > 1e-9:
        raise ValueError("not a Lie algebra: d^2 != 0")
