"""Exterior algebra on a fixed six-dimensional vector space.

Forms are stored as sparse dictionaries over strictly increasing index
tuples drawn from {1..6}, with the sign of any index reordering absorbed
into the coefficient.  Coefficients are either exact (Python ints or
``fractions.Fraction``) or floats; the kinds mix the way Python scalars
do, so a computation stays exact until a float enters it.

The linear maps act on coefficient vectors in the order of ``BASIS[k]``,
the increasing index tuples of Lambda^k (sizes 1, 6, 15, 20, 15, 6, 1):
a pullback multiplies by the matrix of k x k minors, and each
Chevalley-Eilenberg operator (a choice of d on degree one, extended as
an anti-derivation) builds its matrices d_k: Lambda^k -> Lambda^(k+1)
once, so d, and the d^2 = 0 test that encodes the Jacobi identity, are
matrix-vector products.  The arrays are float64 for float coefficients
and object arrays of the exact scalars otherwise.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

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


#: BASIS[k]: the increasing index tuples of Lambda^k(R^6), in vector order
BASIS = tuple(tuple(itertools.combinations(range(1, DIM + 1), k)) for k in range(DIM + 1))
_POSITION = tuple({idx: n for n, idx in enumerate(b)} for b in BASIS)


@functools.cache
def _minor_table(k: int):
    """Flat indices into a 6x6 matrix and permutation signs for its k x k minors.

    Entry [r, I, s, J] of the index array is (I_{perm_s(r)}, J_r) for
    I, J in BASIS[k], so the product over r, summed over the permutations s
    with their signs, is det m[I, J].
    """
    perms = list(itertools.permutations(range(k)))
    sign = np.array([_sort_with_sign(p)[1] for p in perms])
    idx = np.array(BASIS[k], dtype=np.intp) - 1
    flat = idx[:, perms][:, :, None, :] * DIM + idx[None, None, :, :]
    return np.moveaxis(flat, 3, 0).copy(), sign


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
        object.__setattr__(self, "_d_matrices", {})

    def d1(self, i: int) -> KForm:
        """Image of e^i, i in 1..6."""
        return self.images[i - 1]

    def d_matrix(self, k: int) -> np.ndarray:
        """d_k: Lambda^k -> Lambda^(k+1) in BASIS order, built on first use.

        float64 when every image coefficient is a float, otherwise an
        object array whose entries are sums of image coefficients.
        """
        m = self._d_matrices.get(k)
        if m is None:
            floats = all(isinstance(c, float) for im in self.images for c in im.coeffs.values())
            dtype = float if floats else object
            images = np.stack([im.to_vector(dtype) for im in self.images], axis=1)
            # d e^P = sum_j (e_j -| e^P) ^ de^j, the images being 2-forms
            j, p, q, row, sign = _contract_wedge(k, 2)
            keep = (images != 0)[q, j]
            m = np.zeros(len(BASIS[k + 1]) * len(BASIS[k]), dtype)
            np.add.at(m, row[keep] * len(BASIS[k]) + p[keep], sign[keep] * images[q[keep], j[keep]])
            m = self._d_matrices[k] = m.reshape(len(BASIS[k + 1]), len(BASIS[k]))
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
    coefficients of a.
    """
    if a.degree == DIM:
        return KForm.zero(DIM)  # no forms above the top degree
    m = d.d_matrix(a.degree)
    cols, vals = a.nonzero(m.dtype)
    block = m[:, cols]
    if m.dtype == object:
        # exact: skip the structural zeros of d_k, so that 0 * x does not
        # turn an int sum into a Fraction or an exact sum into a float
        terms = np.zeros(block.shape, object)
        np.multiply(block, vals, out=terms, where=block != 0)
        sums = terms.sum(axis=1)
        for n, v in enumerate(sums.tolist()):
            if hasattr(v, "expand"):  # symbolic (sympy): an identically zero sum becomes 0
                sums[n] = v.expand()
        return KForm.from_vector(a.degree + 1, sums)
    return KForm.from_vector(a.degree + 1, block @ vals)


def pullback(m, a: KForm) -> KForm:
    """Pullback of a by the endomorphism with matrix m (m[i][j] = (m e_j)_i).

    (m^* a)(X1, ..., Xk) = a(m X1, ..., m Xk); on the coframe this is the
    substitution e^i -> sum_j m[i][j] e^j, so the coefficients are
    multiplied by the matrix of k x k minors, (m^* a)_J = sum_I a_I det m[I, J].
    Only the rows I where a has a coefficient are formed.  Runs in float64
    for a float matrix, on the exact scalars otherwise.
    """
    k = a.degree
    if k == 0:
        return a  # constants pull back to themselves
    m = np.asarray(m)
    if m.dtype.kind != "f":
        m = m.astype(object)
    flat, sign = _minor_table(k)
    rows, vals = a.nonzero(m.dtype)
    minors = sign @ m.reshape(-1)[flat[:, rows]].prod(axis=0)
    return KForm.from_vector(k, vals @ minors)


def d_squared_residual(d: CEOperator) -> Scalar:
    """Max absolute coefficient of d(d(e^i)) over i; zero iff Jacobi holds
    (for sympy coefficients: 0 when it holds identically)."""
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
