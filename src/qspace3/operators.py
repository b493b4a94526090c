"""Truncation windows, labeled band operators and representation families."""

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import WindowError

__all__ = ["RepWindow", "Coords", "LabeledOperator", "RepFamily"]

_MARGIN = 2        # interior distance from every artificial window edge


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
    within _MARGIN of them are excluded from interior verification.
    """

    ranges: tuple          # ((name, (lo, hi)), ...)
    hard_lo: frozenset = frozenset()
    hard_hi: frozenset = frozenset()

    def __post_init__(self):
        for name, (lo, hi) in self.ranges:
            if hi < lo:
                raise WindowError(f"empty range for {name}: [{lo}, {hi}]")

    @staticmethod
    def make(ranges: dict, hard_lo=(), hard_hi=()):
        return RepWindow(tuple(sorted(ranges.items())),
                         frozenset(hard_lo), frozenset(hard_hi))

    @property
    def range_map(self) -> dict:
        return dict(self.ranges)

    def interior_mask(self, coords: Coords):
        """Boolean array: which states keep _MARGIN from every soft edge.
        Labels the window has no range for are not constrained."""
        inside = np.ones(len(coords), dtype=bool)
        for name, (lo, hi) in self.ranges:
            v = coords.arrays.get(name)
            if v is None:
                continue
            if name not in self.hard_lo:
                inside &= v >= lo + _MARGIN
            if name not in self.hard_hi:
                inside &= v <= hi - _MARGIN
        return inside

    def is_interior(self, coords: dict) -> bool:
        one = Coords({k: [v] for k, v in coords.items()})
        return bool(self.interior_mask(one)[0])


class _Band(Mapping):
    """An n x n band matrix as {offset d: (v, present)}, read as the
    {(i, j): value} mapping of its stored entries.

    v holds the diagonal entries (i, i + d) for the rows i from max(0, -d),
    as np.diagonal does, so a transpose only negates d.  present is None
    when every entry of the diagonal is stored, else a boolean mask; an
    absent entry holds 0 in v.  Vectors are never changed in place.

    The arithmetic is scipy.sparse's, value for value: a product entry sums
    its terms in ascending left offset (csr_matmat's order on a canonical
    left operand), exact zeros of sums and products are dropped, stored
    zeros of an operand are kept, and A / s is A * (1 / s).
    """

    __slots__ = ("n", "diags")
    __array_ufunc__ = None          # numpy scalars defer to __rmul__

    def __init__(self, n, diags):
        self.n = n
        self.diags = diags

    @classmethod
    def from_entries(cls, n, rows, cols, vals):
        """The band holding vals[k] at (rows[k], cols[k]) (arrays), stored
        zeros kept; no position may repeat."""
        d = cols - rows
        low = int(d.min()) if d.size else 0
        diags = {}
        for off in (np.flatnonzero(np.bincount(d - low)) + low).tolist():
            pick = d == off
            k = rows[pick] - max(0, -off)
            v = np.zeros(n - abs(off))
            v[k] = vals[pick]
            present = np.zeros(v.size, dtype=bool)
            present[k] = True
            diags[off] = (v, None if present.all() else present)
        return cls(n, diags)

    @classmethod
    def identity(cls, n):
        return cls(n, {0: (np.ones(n), None)})

    @classmethod
    def _dropping_zeros(cls, n, vectors):
        """The band of computed diagonals, exact zeros dropped."""
        diags = {}
        for d, v in vectors.items():
            nz = v != 0
            if nz.all():
                diags[d] = (v, None)
            elif nz.any():
                diags[d] = (v, nz)
        return cls(n, diags)

    def coo(self):
        """(rows, cols, values) of the stored entries, row-major."""
        parts = [(np.zeros(0, int), np.zeros(0, int), np.zeros(0))]
        for d, (v, present) in self.diags.items():
            k = np.arange(v.size) if present is None \
                else np.flatnonzero(present)
            parts.append((k + max(0, -d), k + max(0, d), v[k]))
        rows, cols, vals = (np.concatenate(x) for x in zip(*parts))
        order = np.lexsort((cols, rows))
        return rows[order], cols[order], vals[order]

    def __len__(self):
        return sum(v.size if m is None else int(np.count_nonzero(m))
                   for v, m in self.diags.values())

    def __iter__(self):
        rows, cols, _ = self.coo()
        return zip(rows.tolist(), cols.tolist())

    def __getitem__(self, key):
        i, j = key
        v, present = self.diags.get(j - i, ((), None))
        k = min(i, j)                   # the position on diagonal j - i
        if not 0 <= k < len(v) or (present is not None and not present[k]):
            raise KeyError(key)
        return float(v[k])

    @property
    def T(self):
        return _Band(self.n, {-d: e for d, e in self.diags.items()})

    def __neg__(self):
        return _Band(self.n, {d: (-v, m) for d, (v, m) in self.diags.items()})

    def __mul__(self, s):
        # x * inf is NaN on a stored zero, but an absent entry stays absent
        return _Band(self.n, {
            d: (v * s if m is None else np.where(m, v * s, 0.0), m)
            for d, (v, m) in self.diags.items()})

    __rmul__ = __mul__

    def __truediv__(self, s):
        return self * (1 / s)

    def __add__(self, other):
        return self._combine(other, np.add)

    def __sub__(self, other):
        return self._combine(other, np.subtract)

    @np.errstate(over="ignore", invalid="ignore")   # as scipy's C++ loops
    def _combine(self, other, op):
        """op entrywise, an entry absent on one side read as 0."""
        a, b, zero = self.diags, other.diags, (0.0, None)
        return _Band._dropping_zeros(self.n, {
            d: op(a.get(d, zero)[0], b.get(d, zero)[0])
            for d in a.keys() | b.keys()})

    @np.errstate(over="ignore", invalid="ignore")
    def kron(self, other):
        """The Kronecker product self x other: every product of a stored
        entry of self and one of other is stored, zeros included, as
        scipy.sparse.kron stores it."""
        ra, ca, va = self.coo()
        rb, cb, vb = other.coo()
        n = other.n
        return _Band.from_entries(self.n * n,
                                  np.add.outer(ra * n, rb).ravel(),
                                  np.add.outer(ca * n, cb).ravel(),
                                  np.multiply.outer(va, vb).ravel())

    @np.errstate(over="ignore", invalid="ignore")
    def __matmul__(self, other):
        n = self.n
        out = {}
        for da in sorted(self.diags):   # ascending intermediate index
            a, ma = self.diags[da]
            la = max(0, -da)
            for db, (b, mb) in other.diags.items():
                d = da + db
                lo, hi = max(0, -da, -d), min(n, n - da, n - d)
                if lo >= hi:
                    continue
                lb, lc = max(0, -db), max(0, -d)
                sa, sb = slice(lo - la, hi - la), slice(lo + da - lb,
                                                        hi + da - lb)
                t = a[sa] * b[sb]
                if ma is not None or mb is not None:
                    both = (True if ma is None else ma[sa]) \
                        & (True if mb is None else mb[sb])
                    t = np.where(both, t, 0.0)
                if d not in out:
                    out[d] = np.zeros(n - abs(d))
                out[d][lo - lc:hi - lc] += t
        return _Band._dropping_zeros(n, out)


class LabeledOperator:
    """Sparse band matrix over the states of a family, ordered as its Coords.

    Convention: acting on a ket indexed by column j produces amplitudes in
    rows i, i.e. entry (i, j) multiplies state i in A applied to state j.
    The matrix is held as one _Band; explicitly stored zeros are kept.
    to_csr exports it to scipy.sparse on demand.
    """

    def __init__(self, name, band, shift=None):
        self.name = name
        self.shift = shift          # tuple of allowed shift dicts, or None
        self.band = band

    @property
    def n(self):
        return self.band.n

    @property
    def entries(self):
        """Read-only {(i, j): value} view of the stored entries."""
        return self.band

    def to_csr(self):
        """The canonical scipy CSR matrix of the stored entries."""
        # imported when called, so that `import qspace3.cli` loads no scipy
        import scipy.sparse as sp
        rows, cols, vals = self.band.coo()
        return sp.csr_matrix((vals, (rows, cols)), shape=(self.n, self.n))

    def to_dense(self):
        return self.to_csr().toarray()

    def diagonal(self):
        return self.band.diags.get(0, (np.zeros(self.n),))[0].copy()

    def shift_violations(self, coords: Coords):
        """Nonzero entries whose (row - column) coordinate change is not
        among the declared shift signatures, as [((i, j), delta dict)].
        Empty when shift is None."""
        if not self.shift:
            return []
        rows, cols, vals = self.band.coo()
        names = sorted(set(coords.arrays).union(*self.shift))
        zero = np.zeros(len(coords), dtype=int)
        delta = {k: coords.arrays.get(k, zero)[rows]
                 - coords.arrays.get(k, zero)[cols] for k in names}
        allowed = np.zeros(rows.size, dtype=bool)
        for s in self.shift:
            match = np.ones(rows.size, dtype=bool)
            for k in names:
                match &= delta[k] == s.get(k, 0)
            allowed |= match
        bad = np.flatnonzero((vals != 0.0) & ~allowed)
        return [((int(rows[p]), int(cols[p])),
                 {k: d[p].item() for k, d in delta.items() if d[p]})
                for p in bad]


class RepFamily:
    """A named set of n x n LabeledOperators on the n states of coords, the
    one record of their labels (the joint family's are (m_t, m_k), with
    nu = m_t + M and m = m_t + m_k).

    Immutable after construction; operators are keyed canonically
    ("T3", "T+", "T-", "tau", "X3", ...) regardless of the family flavor.
    `derived` keeps what repspace computes once from them.
    """

    def __init__(self, kind, params, operators, window, coords: Coords):
        self.kind = kind
        self.params = dict(params)
        self.operators = dict(operators)
        self.window = window
        self.coords = coords
        for key, op in self.operators.items():
            if op.n != len(coords):
                raise WindowError(f"operator {key} is {op.n} x {op.n}; the "
                                  f"{kind} family has {len(coords)} states")
        self.interior = window.interior_mask(coords)
        self.derived = {}

    def __getitem__(self, key) -> LabeledOperator:
        return self.operators[key]

    def __contains__(self, key):
        return key in self.operators

    @property
    def n(self):
        return len(self.coords)
