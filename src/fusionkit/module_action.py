"""The sl2-module carried by the span of truncation-passing oriented matches.

The basis splits into blocks, one per underlying match b: the mu(b)+1
orientations of b span a copy of the irreducible V_mu(b), graded by
weight mu - 2*downs.  Within a block the generators act by the standard
highest-weight normalization

    H a_k = (mu - 2k) a_k,   F a_k = a_{k+1},   E a_k = k(mu - k + 1) a_{k-1},

so E, F, H are block-diagonal integer matrices with at most one nonzero
entry per column, stored as sparse ``(row, col, value)`` triples, and
(b, downs=0) is the highest-weight vector of its block.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

from .bracketing import BracketTree, _passing_arc_sets, _plan
from .diagrams import (
    BoxConfig,
    LowerMatch,
    OrientedLowerMatch,
    canonical_keys,
)


@dataclass(frozen=True)
class ModuleBasis:
    """Oriented basis held as its passing matches, in canonical order: one block per match."""

    boxes: BoxConfig
    level: int
    tree: BracketTree
    matches: tuple[LowerMatch, ...]

    @property
    def elements(self) -> tuple[OrientedLowerMatch, ...]:
        """Each match's orientations by ascending downs, built anew on each access."""
        oriented = OrientedLowerMatch._unchecked
        return tuple(oriented(m, k) for m in self.matches for k in range(m.mu + 1))

    @property
    def dim(self) -> int:
        return sum(m.mu + 1 for m in self.matches)

    def blocks(self) -> list[tuple[int, int]]:
        """(start, stop) index ranges of the per-match blocks, in order."""
        stops = list(itertools.accumulate(m.mu + 1 for m in self.matches))
        return list(zip([0, *stops], stops))


def build_basis(boxes, level, tree: BracketTree | None = None) -> ModuleBasis:
    boxes, level, tree, _, _ = _plan(boxes, level, tree, routed=False)
    matches = tuple(
        LowerMatch._from_kernel(boxes, arcs) for arcs in _passing_arc_sets(boxes.sizes, level, tree)
    )
    return ModuleBasis(boxes=boxes, level=level, tree=tree, matches=matches)


Triple = tuple[int, int, int]


@dataclass(frozen=True)
class ActionMatrices:
    """Integer matrices of E, F, H on a module basis (columns act on kets).

    Each matrix is the tuple of its nonzero ``(row, col, value)`` triples in
    row-major order, the form its JSON carries.
    """

    e: tuple[Triple, ...]
    f: tuple[Triple, ...]
    h: tuple[Triple, ...]
    labels: tuple[tuple[str, int], ...]

    @property
    def size(self) -> int:
        return len(self.labels)

    def to_json_dict(self) -> dict:
        return {
            "size": self.size,
            "basis": [[key, downs] for key, downs in self.labels],
            "e": [list(t) for t in self.e],
            "f": [list(t) for t in self.f],
            "h": [list(t) for t in self.h],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ActionMatrices":
        labels = tuple((key, downs) for key, downs in obj["basis"])
        n = obj["size"]
        if n != len(labels):
            raise ValueError(f"size {n} does not match the {len(labels)} basis labels")

        def triples(name: str) -> tuple[Triple, ...]:
            entries: dict[tuple[int, int], int] = {}
            for triple in obj[name]:
                r, c, v = (operator.index(x) for x in triple)
                if not (0 <= r < n and 0 <= c < n):
                    raise ValueError(f"{name} entry ({r}, {c}) lies outside 0..{n - 1}")
                if (r, c) in entries:
                    raise ValueError(f"{name} entry ({r}, {c}) is repeated")
                entries[r, c] = v
            return tuple((r, c, v) for (r, c), v in sorted(entries.items()) if v)

        return cls(e=triples("e"), f=triples("f"), h=triples("h"), labels=labels)


def action_matrices(basis: ModuleBasis) -> ActionMatrices:
    e: list[Triple] = []
    f: list[Triple] = []
    h: list[Triple] = []
    labels: list[tuple[str, int]] = []
    idx = 0
    for key, m in zip(canonical_keys(basis.matches), basis.matches):
        mu = m.mu
        for k in range(mu + 1):
            if k > 0:
                e.append((idx - 1, idx, k * (mu - k + 1)))
            if k < mu:
                f.append((idx + 1, idx, 1))
            if mu != 2 * k:
                h.append((idx, idx, mu - 2 * k))
            labels.append((key, k))
            idx += 1
    return ActionMatrices(e=tuple(e), f=tuple(f), h=tuple(h), labels=tuple(labels))


def isotypic_census(basis: ModuleBasis) -> dict[int, int]:
    """Multiplicity of each highest weight: one copy of V_mu per match."""
    out: dict[int, int] = {}
    for m in basis.matches:
        out[m.mu] = out.get(m.mu, 0) + 1
    return dict(sorted(out.items()))


def _entries(triples, scale: int = 1) -> dict[tuple[int, int], int]:
    out: dict[tuple[int, int], int] = {}
    for r, c, v in triples:
        out[r, c] = out.get((r, c), 0) + scale * v
    return {key: v for key, v in out.items() if v}


def _commutator(a, b) -> dict[tuple[int, int], int]:
    """Nonzero entries of AB - BA, from sparse row-by-column products."""
    out: dict[tuple[int, int], int] = {}
    for x, y, sign in ((a, b, 1), (b, a, -1)):
        y_rows: dict[int, list[tuple[int, int]]] = {}
        for r, c, v in y:
            y_rows.setdefault(r, []).append((c, v))
        for r, k, v in x:
            for c, w in y_rows.get(k, ()):
                out[r, c] = out.get((r, c), 0) + sign * v * w
    return {key: v for key, v in out.items() if v}


def verify_sl2(matrices: ActionMatrices) -> bool:
    """Exact check of [E,F] = H, [H,E] = 2E, [H,F] = -2F.

    [E,F] is always a sparse product.  When H is diagonal, as in every
    basis :func:`action_matrices` writes, [H,X] has entry (h_r - h_c)·x_rc,
    so [H,E] = 2E holds iff h_r - h_c = 2 on every nonzero entry of E, and
    [H,F] = -2F iff it is -2 on every nonzero entry of F: O(nnz) in all.
    Any other H takes the sparse products.
    """
    e, f, h = matrices.e, matrices.f, matrices.h
    h_entries = _entries(h)
    if _commutator(e, f) != h_entries:
        return False
    if any(r != c for r, c in h_entries):
        return _commutator(h, e) == _entries(e, 2) and _commutator(h, f) == _entries(f, -2)
    weight = {r: v for (r, _), v in h_entries.items()}

    def shifts_weight_by(x, step: int) -> bool:
        return all(weight.get(r, 0) - weight.get(c, 0) == step for r, c in _entries(x))

    return shifts_weight_by(e, 2) and shifts_weight_by(f, -2)
