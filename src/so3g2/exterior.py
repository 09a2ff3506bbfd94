"""Exterior algebra on a fixed six-dimensional vector space.

Forms are stored as sparse dictionaries over strictly increasing index
tuples drawn from {1..6}, with the sign of any index reordering absorbed
into the coefficient.  Coefficients are either exact (Python ints or
``fractions.Fraction``) or floats; the kinds mix the way Python scalars
do, so a computation stays exact until a float enters it.

The linear maps act on coefficient vectors in the order of ``BASIS[k]``,
the increasing index tuples of Lambda^k (sizes 1, 6, 15, 20, 15, 6, 1).
A Chevalley-Eilenberg operator is a choice of d on degree one, extended
as an anti-derivation; d, and the d^2 = 0 test that encodes the Jacobi
identity, are products of d_k: Lambda^k -> Lambda^(k+1) with the nonzero
coefficients of a form.  An operator whose coefficients are all floats
builds d_k once as a float64 matrix.  Any other sums the column of each
nonzero coefficient in its Python scalars, straight from the images,
through one static fan-in table per degree (form key, then image key,
giving the row and the sign); the d^2 test of a rational operator runs
on its images scaled to Python ints.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from ._exact import is_exact, scale_to_ints

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


#: BASIS[k]: the increasing index tuples of Lambda^k(R^6), in vector order
BASIS = tuple(tuple(itertools.combinations(range(1, DIM + 1), k)) for k in range(DIM + 1))
_POSITION = tuple({idx: n for n, idx in enumerate(b)} for b in BASIS)


@functools.cache
def _contract_wedge(k: int, l: int):
    """Index arrays (j, p, q, row, sign) over the nonzero products
    (e_j -| e^P) ^ e^Q = sign * e^R, for P = BASIS[k][p], Q = BASIS[l][q]
    and R = BASIS[k - 1 + l][row], with 0-based j."""
    out = []
    for p, pidx in enumerate(BASIS[k]):
        for pos, j in enumerate(pidx):
            rest = pidx[:pos] + pidx[pos + 1:]
            for q, qidx in enumerate(BASIS[l]):
                srt = _sort_with_sign(rest + qidx)
                if srt is not None:
                    key, sign = srt
                    out.append((j - 1, p, q, _POSITION[len(key)][key], -sign if pos % 2 else sign))
    return tuple(np.array(out, dtype=np.intp).reshape(-1, 5).T)


@functools.cache
def _d_fanin(k: int):
    """d_k by form key: {P: ((j, {Q: (row, negate)}), ...)} over P in
    BASIS[k], one entry per 0-based j with e^(j+1) in P, in increasing j;
    the coefficient of e^Q in de^(j+1) adds to row `row` of d e^P, negated
    where `negate`.  Read off _contract_wedge(k, 2)."""
    out = {key: {} for key in BASIS[k]}
    for j, p, q, row, sign in zip(*(a.tolist() for a in _contract_wedge(k, 2))):
        out[BASIS[k][p]].setdefault(j, {})[BASIS[2][q]] = (row, sign < 0)
    return {key: tuple(fans.items()) for key, fans in out.items()}


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
        return max(map(abs, self.coeffs.values()), default=0)

    def nonzero(self, dtype=object):
        """BASIS[degree] positions of the stored coefficients, and their values."""
        return ([_POSITION[self.degree][key] for key in self.coeffs],
                np.array(list(self.coeffs.values()), dtype=dtype))

    def to_vector(self, dtype=object) -> np.ndarray:
        """Coefficients in BASIS[degree] order."""
        vec = np.zeros(len(BASIS[self.degree]), dtype)
        pos, vals = self.nonzero(dtype)
        vec[pos] = vals
        return vec

    @staticmethod
    def from_vector(degree: int, vec: np.ndarray) -> "KForm":
        """The form with coefficients vec in BASIS[degree] order."""
        res = KForm.zero(degree)
        res.coeffs = {key: c for key, c in zip(BASIS[degree], vec.tolist()) if c != 0}
        return res

    def to_float(self) -> "KForm":
        res = KForm.zero(self.degree)
        try:
            res.coeffs = {k: float(v) for k, v in self.coeffs.items()}
        except OverflowError:
            raise ValueError("a form coefficient is beyond the float range") from None
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
        object.__setattr__(self, "_floats", all(
            isinstance(c, float) for im in self.images for c in im.coeffs.values()))
        object.__setattr__(self, "_d_matrices", {})

    def d1(self, i: int) -> KForm:
        """Image of e^i, i in 1..6."""
        return self.images[i - 1]

    def d_matrix(self, k: int) -> np.ndarray:
        """d_k: Lambda^k -> Lambda^(k+1) in BASIS order, built on first use.

        float64 when every image coefficient is a float; otherwise an
        object array whose column p is apply_d of e^P, P = BASIS[k][p].
        """
        m = self._d_matrices.get(k)
        if m is None:
            shape = (len(BASIS[k + 1]), len(BASIS[k]))
            if self._floats:
                images = np.stack([im.to_vector(float) for im in self.images], axis=1)
                # d e^P = sum_j (e_j -| e^P) ^ de^j, the images being 2-forms
                j, p, q, row, sign = _contract_wedge(k, 2)
                keep = (images != 0)[q, j]
                m = np.zeros(shape[0] * shape[1])
                np.add.at(m, row[keep] * shape[1] + p[keep], sign[keep] * images[q[keep], j[keep]])
                m = m.reshape(shape)
            else:
                m = np.zeros(shape, object)
                for p, key in enumerate(BASIS[k]):
                    col = apply_d(self, KForm(k, {key: 1}))
                    for idx, v in col.coeffs.items():
                        m[_POSITION[k + 1][idx], p] = v
            self._d_matrices[k] = m
        return m

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
    degree-0 constants map to 0.  One product of d_k with the nonzero
    coefficients of a: the float64 matrix of a float operator; for any
    other, each coefficient's column d e^P is summed in Python scalars
    from the images through the static fan-in table of d_k.
    """
    if a.degree == DIM:
        return KForm.zero(DIM)  # no forms above the top degree
    if d._floats:
        m = d.d_matrix(a.degree)
        cols, vals = a.nonzero(m.dtype)
        return KForm.from_vector(a.degree + 1, m[:, cols] @ vals)
    # exact: a column holds no structural zeros of d_k, so 0 * x does not
    # turn an int sum into a Fraction or an exact sum into a float
    images, fanin = [im.coeffs for im in d.images], _d_fanin(a.degree)
    sums: dict[int, Scalar] = {}
    for key, c in a.coeffs.items():
        # the column d e^P, P = key: each entry the sum of its image terms
        # in increasing j, before it is multiplied by c
        col: dict[int, Scalar] = {}
        for j, fan in fanin[key]:
            for q, v in images[j].items():
                hit = fan.get(q)
                if hit is not None:
                    row, negate = hit
                    col[row] = col.get(row, 0) - v if negate else col.get(row, 0) + v
        for row, v in col.items():
            if v != 0:
                sums[row] = sums.get(row, 0) + v * c
    out = {}
    basis = BASIS[a.degree + 1]
    for row in sorted(sums):
        v = sums[row]
        # symbolic (sympy): an identically zero sum becomes 0
        if not isinstance(v, (int, Fraction, float)) and hasattr(v, "expand"):
            v = v.expand()
        if v != 0:
            out[basis[row]] = v
    res = KForm.zero(a.degree + 1)
    res.coeffs = out
    return res


def d_squared_residual(d: CEOperator) -> Scalar:
    """Max absolute coefficient of d(d(e^i)) over i; zero iff Jacobi holds
    (for sympy coefficients: 0 when it holds identically).

    d^2 is homogeneous of degree 2 in the images, so an operator with
    int and Fraction coefficients, at least one a Fraction, is decided on
    its images times s, the lcm of their denominators, in Python ints; its
    nonzero max returns as the Fraction max / s^2.
    """
    values = [c for im in d.images for c in im.coeffs.values()]
    types = set(map(type, values))
    if Fraction in types and types <= {int, Fraction}:
        ints, s = scale_to_ints(values)
        it = iter(ints)
        scaled = []
        for im in d.images:
            f = KForm.zero(2)
            f.coeffs = dict(zip(im.coeffs, it))
            scaled.append(f)
        worst = _d_squared_max(CEOperator(tuple(scaled)))
        return Fraction(worst, s * s) if worst else 0
    return _d_squared_max(d)


def _d_squared_max(d: CEOperator) -> Scalar:
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
