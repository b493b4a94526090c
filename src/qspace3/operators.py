"""Truncation windows, labeled band operators and representation families."""

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np
import scipy.sparse as sp

from .context import QContext
from .errors import WindowError

__all__ = ["RepWindow", "Coords", "LabeledOperator", "RepFamily"]


class Coords(Sequence):
    """Quantum numbers of the basis states, one array per label name.

    Item i is the dict {name: value} of state i; the arrays themselves are
    in `arrays`.
    """

    def __init__(self, arrays):
        self.arrays = {k: np.asarray(v) for k, v in arrays.items()}
        self._n = len(next(iter(self.arrays.values())))

    def __len__(self):
        return self._n

    def __getitem__(self, i):
        return {k: v[i].item() for k, v in self.arrays.items()}


@dataclass(frozen=True)
class RepWindow:
    """Integer ranges for the quantum-number lattice plus interior policy.

    Edges imposed by the construction itself (a ladder that terminates, a
    constrained label) are *hard*: states there are exact and carry no
    interior margin.  All other edges are artificial truncation cuts; states
    within `margin` of them are excluded from interior verification.
    """

    ranges: tuple          # ((name, (lo, hi)), ...)
    hard_lo: frozenset = frozenset()
    hard_hi: frozenset = frozenset()
    margin: int = 2

    def __post_init__(self):
        if self.margin < 2:
            raise WindowError(f"interior margin must be >= 2, got {self.margin}")
        for name, (lo, hi) in self.ranges:
            if hi < lo:
                raise WindowError(f"empty range for {name}: [{lo}, {hi}]")

    @staticmethod
    def make(ranges: dict, hard_lo=(), hard_hi=(), margin: int = 2):
        return RepWindow(tuple(sorted(ranges.items())),
                         frozenset(hard_lo), frozenset(hard_hi), margin)

    @property
    def range_map(self) -> dict:
        return dict(self.ranges)

    def interior_mask(self, coords: Coords):
        """Boolean array: which states keep `margin` from every soft edge.
        Labels the window has no range for are not constrained."""
        inside = np.ones(len(coords), dtype=bool)
        for name, (lo, hi) in self.ranges:
            v = coords.arrays.get(name)
            if v is None:
                continue
            if name not in self.hard_lo:
                inside &= v >= lo + self.margin
            if name not in self.hard_hi:
                inside &= v <= hi - self.margin
        return inside

    def is_interior(self, coords: dict) -> bool:
        one = Coords({k: [v] for k, v in coords.items()})
        return bool(self.interior_mask(one)[0])


class _EntryView(Mapping):
    """Read-only {(i, j): value} view of the stored entries of a CSR."""

    def __init__(self, mat):
        self._mat = mat

    def __len__(self):
        return self._mat.nnz

    def __iter__(self):
        c = self._mat.tocoo()
        return zip(c.row.tolist(), c.col.tolist())

    def __getitem__(self, key):
        i, j = key
        m = self._mat
        if not 0 <= i < m.shape[0]:
            raise KeyError(key)
        lo, hi = m.indptr[i], m.indptr[i + 1]
        hit = np.flatnonzero(m.indices[lo:hi] == j)
        if not hit.size:
            raise KeyError(key)
        return float(m.data[lo + hit[0]])


class LabeledOperator:
    """Sparse band matrix over an ordered list of basis labels.

    Convention: acting on a ket indexed by column j produces amplitudes in
    rows i, i.e. entry (i, j) multiplies |basis[i]> in A|basis[j]>.  The
    matrix is held as one CSR with sorted indices and no duplicates;
    explicitly stored zeros are kept.
    """

    def __init__(self, name, basis, matrix, shift=None):
        self.name = name
        self.basis = tuple(basis)
        self.shift = shift          # tuple of allowed shift dicts, or None
        matrix = matrix.tocsr()
        matrix.sum_duplicates()
        self._csr = matrix

    @property
    def n(self):
        return len(self.basis)

    @property
    def entries(self):
        """Read-only {(i, j): value} view of the stored entries."""
        return _EntryView(self._csr)

    @cached_property
    def index(self):
        """Read-only {label: position} map of the basis."""
        return MappingProxyType({s: i for i, s in enumerate(self.basis)})

    def to_csr(self):
        return self._csr

    def to_dense(self):
        return self._csr.toarray()

    def diagonal(self):
        return self._csr.diagonal()

    def shift_violations(self, coords: Coords):
        """Nonzero entries whose (row - column) coordinate change is not
        among the declared shift signatures, as [((i, j), delta dict)].
        Empty when shift is None."""
        if not self.shift:
            return []
        c = self._csr.tocoo()
        names = sorted(set(coords.arrays).union(*self.shift))
        zero = np.zeros(len(coords), dtype=int)
        delta = {k: coords.arrays.get(k, zero)[c.row]
                 - coords.arrays.get(k, zero)[c.col] for k in names}
        allowed = np.zeros(c.nnz, dtype=bool)
        for s in self.shift:
            match = np.ones(c.nnz, dtype=bool)
            for k in names:
                match &= delta[k] == s.get(k, 0)
            allowed |= match
        bad = np.flatnonzero((c.data != 0.0) & ~allowed)
        return [((int(c.row[p]), int(c.col[p])),
                 {k: d[p].item() for k, d in delta.items() if d[p]})
                for p in bad]


class RepFamily:
    """A named set of LabeledOperators sharing one basis.

    Immutable after construction; operators are keyed canonically
    ("T3", "T+", "T-", "tau", "X3", ...) regardless of the family flavor.
    """

    def __init__(self, kind, params, operators, window, ctx: QContext,
                 coords: Coords):
        self.kind = kind
        self.params = dict(params)
        self.operators = dict(operators)
        self.window = window
        self.ctx = ctx
        self.coords = coords
        ops = next(iter(self.operators.values()))
        self.basis = ops.basis
        self.interior = window.interior_mask(coords)

    def __getitem__(self, key) -> LabeledOperator:
        return self.operators[key]

    def __contains__(self, key):
        return key in self.operators

    @property
    def n(self):
        return len(self.basis)

    def op_csr(self, key):
        return self.operators[key].to_csr()
