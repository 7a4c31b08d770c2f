"""Exact arithmetic in the representation ring of sl2 and its level quotient.

Elements are integer combinations of classes of the simple modules V_k
(highest weight k, dimension k+1), stored sparsely by weight.  The plain
product decomposes V_i (x) V_j = V_|i-j| + V_|i-j|+2 + ... + V_i+j; at level
``l`` the fusion product cuts the same string off at min(i+j, 2l-i-j), and the
level quotient divides out the ideal generated by [V_{l+1}], reducing each
class to the alcove 0..l by a signed affine-Weyl reflection.  Everything is
exact integer arithmetic.
"""

from __future__ import annotations

import operator
from typing import Iterator, Mapping

from .bracketing import BracketTree, _check_level, check_alcove, resolve_tree
from .diagrams import _as_weight, _weight_key


class RingElement:
    """An integer linear combination of simple-module classes, keyed by weight."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        data: dict[int, int] = {}
        if coeffs:
            for k, c in coeffs.items():
                k = _weight_key(k)
                c = operator.index(c)
                if c != 0:
                    data[k] = c
        self._coeffs = data

    @classmethod
    def _from_ints(cls, coeffs: dict[int, int]) -> "RingElement":
        """Wrap int weights and coefficients that the package computed; only zeros are dropped.

        The element takes ``coeffs`` over when none is zero, so the caller
        passes a dict it no longer uses.
        """
        x = object.__new__(cls)
        x._coeffs = coeffs if all(coeffs.values()) else {k: c for k, c in coeffs.items() if c}
        return x

    @classmethod
    def zero(cls) -> "RingElement":
        return cls()

    @classmethod
    def unit(cls) -> "RingElement":
        return cls({0: 1})

    @classmethod
    def simple(cls, k: int) -> "RingElement":
        return cls({k: 1})

    def coeff(self, k: int) -> int:
        return self._coeffs.get(k, 0)

    @property
    def coeffs(self) -> dict[int, int]:
        return dict(sorted(self._coeffs.items()))

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._coeffs))

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self._coeffs.items()))

    def max_weight(self) -> int | None:
        return max(self._coeffs) if self._coeffs else None

    def total_dim(self) -> int:
        return sum(c * (k + 1) for k, c in self._coeffs.items())

    def is_effective(self) -> bool:
        return all(c >= 0 for c in self._coeffs.values())

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, RingElement):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def __add__(self, other: "RingElement") -> "RingElement":
        if not isinstance(other, RingElement):
            return NotImplemented
        out = dict(self._coeffs)
        for k, c in other._coeffs.items():
            out[k] = out.get(k, 0) + c
        return RingElement(out)

    def __neg__(self) -> "RingElement":
        return RingElement({k: -c for k, c in self._coeffs.items()})

    def __sub__(self, other: "RingElement") -> "RingElement":
        if not isinstance(other, RingElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, RingElement):
            return ring_mul(self, other)
        if isinstance(other, int):
            return RingElement({k: c * other for k, c in self._coeffs.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"RingElement({self.coeffs!r})"

    def format_text(self) -> str:
        """Readable sum, e.g. ``"V0 + 2·V2"``; the zero element prints ``"0"``."""
        if not self._coeffs:
            return "0"
        terms = []
        for k, c in self.items():
            terms.append(f"V{k}" if c == 1 else f"{c}·V{k}")
        return " + ".join(terms)

    def to_json_dict(self) -> dict:
        return {"coeffs": {str(k): c for k, c in self.items()}}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "RingElement":
        return cls(obj["coeffs"])


def _product(x: RingElement, y: RingElement, level: int | None = None) -> RingElement:
    """Bilinear product on the weight strings |i-j|, ..., i+j, cut at min(i+j, 2l-i-j) at level l."""
    acc: dict[int, int] = {}
    for i, ci in x._coeffs.items():
        for j, cj in y._coeffs.items():
            c = ci * cj
            top = i + j if level is None else min(i + j, 2 * level - i - j)
            for k in range(abs(i - j), top + 1, 2):
                acc[k] = acc.get(k, 0) + c
    return RingElement._from_ints(acc)


def tensor_cg(i, j) -> RingElement:
    """Decomposition of V_i (x) V_j: weight string |i-j|, |i-j|+2, ..., i+j."""
    return _product(RingElement.simple(_as_weight(i)), RingElement.simple(_as_weight(j)))


def fuse_pair(i, j, level) -> RingElement:
    """Level fusion of two simples: the weight string cut at min(i+j, 2l-i-j)."""
    i = _as_weight(i)
    j = _as_weight(j)
    level = check_alcove((i, j), level)
    return _product(RingElement.simple(i), RingElement.simple(j), level)


def ring_mul(x: RingElement, y: RingElement) -> RingElement:
    """Bilinear extension of :func:`tensor_cg`; commutative, unit [V_0]."""
    return _product(x, y)


def tensor_many(ws) -> RingElement:
    """The plain tensor product of the simples V_w for w in ``ws`` (the unit when empty)."""
    acc = RingElement.unit()
    for w in ws:
        acc = _product(acc, RingElement.simple(_as_weight(w)))
    return acc


def fuse_many(ws, level, tree: BracketTree | None = None) -> RingElement:
    """Fold the pair fusion over a bracketing tree (default: left comb).

    The result does not depend on the tree; that associativity is one of the
    verified properties rather than an assumption of the implementation.
    """
    ws = [_as_weight(w) for w in ws]
    level = check_alcove(ws, level)
    if not ws:
        return RingElement.unit()
    return resolve_tree(tree, len(ws)).fold(
        lambda i: RingElement._from_ints({ws[i - 1]: 1}), lambda x, y: _product(x, y, level)
    )


def quotient_reduce(x: RingElement, level) -> RingElement:
    """Reduce to the canonical representative supported on weights 0..l.

    Kac-Walton reflection: with n = (k + 1) mod (2l + 4), a term c·[V_k] is
    zero on a wall (n = 0 or n = l + 2), equals c·[V_{n-1}] for n in 1..l+1,
    and reflects to -c·[V_{2l+3-n}] above.  Each term differs from its image
    by an element of the ideal generated by [V_{l+1}], which meets the span
    of [V_0]..[V_l] only in zero, so the representative is unique.
    """
    level = _check_level(level)
    out: dict[int, int] = {}
    for k, c in x._coeffs.items():
        n = (k + 1) % (2 * level + 4)
        if n == 0 or n == level + 2:
            continue
        if n <= level + 1:
            out[n - 1] = out.get(n - 1, 0) + c
        else:
            out[2 * level + 3 - n] = out.get(2 * level + 3 - n, 0) - c
    return RingElement(out)


def dim_hom_tensor(ws, mu) -> int:
    """Multiplicity of V_mu in the plain tensor product of the given simples."""
    mu = _as_weight(mu)
    return tensor_many(ws).coeff(mu)


def dim_hom_fusion(ws, mu, level, tree: BracketTree | None = None) -> int:
    """Multiplicity of V_mu in the level fusion product under ``tree``."""
    mu = _as_weight(mu)
    return fuse_many(ws, level, tree).coeff(mu)


def weight_multiplicities(x: RingElement) -> dict[int, int]:
    """Dimensions of the weight spaces of an effective element.

    Weight k appears once in each V_mu with mu >= |k| and mu = k (mod 2).
    """
    if not x.is_effective():
        raise ValueError(f"weight census needs nonnegative coefficients, got {x.coeffs}")
    out: dict[int, int] = {}
    for mu, c in x.items():
        for k in range(-mu, mu + 1, 2):
            out[k] = out.get(k, 0) + c
    return dict(sorted(out.items()))
