"""Constant-memory online summaries for metric streams.

Every structure here answers one question about an unbounded stream in
bounded memory, because the anomaly engine runs forever inside the process
it watches and must never become the memory leak it is supposed to detect:

* :class:`DecayedMeanVar` -- "what is normal *lately*?"  Welford's online
  mean/variance with exponential decay, so the baseline tracks regime
  changes instead of averaging over the whole process lifetime.  O(1)
  state, O(1) update.
* :class:`WindowedQuantileSketch` -- "what does the recent distribution
  look like?"  A bounded ring of the last *window* observations with
  nearest-rank quantiles; the exemplar attached to anomaly events comes
  from here.  O(window) state, O(1) update, O(window log window) query
  (queries happen at poll cadence, not per operation).
* :class:`FrequentDirections` -- "which series move *together*?"  The
  Liberty frequent-directions matrix sketch: a deterministic, provably
  bounded low-rank summary of the stream of per-poll series vectors.  The
  top retained direction names the correlated group an anomalous series
  belongs to, which turns "latency p99 jumped" into "latency p99 jumped
  together with retry rate and circuit rejections".  O(sketch_size x dim)
  state, amortized O(sketch_size x dim) update via a pure-python Jacobi
  eigensolver on the small ``sketch_size x sketch_size`` Gram matrix
  (independent of how many polls the stream has seen).

Nothing here imports beyond the stdlib; the sketches are usable standalone
(they know nothing about metrics or rules).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Iterable, Sequence

from ...errors import ConfigurationError
from ..metrics import percentile

__all__ = ["DecayedMeanVar", "WindowedQuantileSketch", "FrequentDirections"]


class DecayedMeanVar:
    """Exponentially-decayed Welford mean/variance.

    ``alpha`` is the weight of each new observation: the effective memory is
    roughly the last ``1/alpha`` observations (``alpha=0.05`` ~ the last 20
    polls).  ``update`` keeps the classic numerically-stable recurrence::

        diff      = x - mean
        mean     += alpha * diff
        variance  = (1 - alpha) * (variance + alpha * diff^2)

    which for a stationary stream converges to the stream's variance, and
    for a shifting stream forgets the old regime at rate ``1 - alpha``.
    ``zscore`` guards against a degenerate (constant) baseline with a
    minimum standard deviation floor.
    """

    __slots__ = ("_alpha", "_mean", "_var", "_count", "_min_std")

    def __init__(self, *, alpha: float = 0.05, min_std: float = 1e-9) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ConfigurationError("alpha must be within (0, 1]")
        if min_std < 0:
            raise ConfigurationError("min_std must be non-negative")
        self._alpha = alpha
        self._mean = 0.0
        self._var = 0.0
        self._count = 0
        self._min_std = min_std

    def update(self, value: float) -> None:
        """Fold one observation into the decayed baseline."""
        if self._count == 0:
            self._mean = float(value)
            self._var = 0.0
        else:
            diff = float(value) - self._mean
            increment = self._alpha * diff
            self._mean += increment
            self._var = (1.0 - self._alpha) * (self._var + diff * increment)
        self._count += 1

    @property
    def count(self) -> int:
        """Observations folded in so far (undecayed tally)."""
        return self._count

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def variance(self) -> float:
        return self._var

    @property
    def std(self) -> float:
        return math.sqrt(self._var)

    def zscore(self, value: float) -> float:
        """Robust deviation of *value* from the decayed baseline.

        Returns 0.0 until at least one observation exists; the divisor is
        floored at ``min_std`` so a perfectly flat baseline (variance 0)
        yields a large-but-finite score instead of a division error.
        """
        if self._count == 0:
            return 0.0
        return (float(value) - self._mean) / max(self.std, self._min_std)

    def __repr__(self) -> str:
        return (
            f"DecayedMeanVar(mean={self._mean:.6g}, std={self.std:.6g}, "
            f"count={self._count})"
        )


class WindowedQuantileSketch:
    """Nearest-rank quantiles over the last *window* observations.

    A plain bounded ring: O(window) memory forever, O(1) update.  Queries
    sort a copy, which at the engine's poll cadence (a handful per second
    at most) is far cheaper than maintaining a tree.  Also the source of
    the ``recent`` exemplar attached to anomaly events.
    """

    __slots__ = ("_ring",)

    def __init__(self, window: int = 128) -> None:
        if window < 1:
            raise ConfigurationError("window must be at least 1")
        self._ring: deque[float] = deque(maxlen=window)

    def update(self, value: float) -> None:
        self._ring.append(float(value))

    def quantile(self, fraction: float) -> float:
        """Nearest-rank quantile of the retained window (0.0 when empty)."""
        if not 0.0 <= fraction <= 1.0:
            raise ConfigurationError("quantile fraction must be within [0, 1]")
        return percentile(self._ring, fraction)

    def recent(self, count: int | None = None) -> list[float]:
        """Newest-last copy of the retained values (the exemplar window)."""
        values = list(self._ring)
        return values if count is None else values[-count:]

    @property
    def window(self) -> int:
        return self._ring.maxlen or 0

    def __len__(self) -> int:
        return len(self._ring)

    def __repr__(self) -> str:
        return f"WindowedQuantileSketch(len={len(self)}, window={self.window})"


# ----------------------------------------------------------------------
# Frequent directions
# ----------------------------------------------------------------------
def _jacobi_eigh(matrix: list[list[float]], *, sweeps: int = 32,
                 tol: float = 1e-12) -> tuple[list[float], list[list[float]]]:
    """Eigen-decomposition of a small symmetric matrix by cyclic Jacobi.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvectors as *rows*,
    sorted by descending eigenvalue.  Pure python on purpose: the matrices
    here are ``sketch_size x sketch_size`` (a dozen rows), where Jacobi's
    O(n^3) per sweep is microseconds and numpy would be the project's first
    hard dependency.
    """
    n = len(matrix)
    a = [row[:] for row in matrix]
    # Eigenvector accumulator, starts as identity (rows are vectors).
    v = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    for _ in range(sweeps):
        off = math.sqrt(sum(a[i][j] ** 2 for i in range(n) for j in range(n) if i != j))
        if off <= tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p][q]) <= tol:
                    continue
                # Rotation angle zeroing a[p][q].
                theta = (a[q][q] - a[p][p]) / (2.0 * a[p][q])
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                for k in range(n):
                    akp, akq = a[k][p], a[k][q]
                    a[k][p] = c * akp - s * akq
                    a[k][q] = s * akp + c * akq
                for k in range(n):
                    apk, aqk = a[p][k], a[q][k]
                    a[p][k] = c * apk - s * aqk
                    a[q][k] = s * apk + c * aqk
                for k in range(n):
                    vpk, vqk = v[p][k], v[q][k]
                    v[p][k] = c * vpk - s * vqk
                    v[q][k] = s * vpk + c * vqk
    eigen = sorted(
        ((a[i][i], v[i]) for i in range(n)), key=lambda pair: pair[0], reverse=True
    )
    return [value for value, _vec in eigen], [vec for _value, vec in eigen]


class FrequentDirections:
    """The frequent-directions matrix sketch (Liberty, KDD 2013).

    Maintains ``B``, a ``sketch_size x dim`` matrix such that for any unit
    vector ``x``::

        0 <= |A x|^2 - |B x|^2 <= |A|_F^2 / (sketch_size / 2)

    where ``A`` is the full (unbounded) history of appended rows.  In other
    words: directions along which the stream has persistent mass survive in
    the sketch; noise is shrunk away -- deterministically, with no
    randomness to seed and no dependence on stream length.

    The anomaly engine appends one row per poll (the vector of watched
    series, z-normalized), so the top retained direction is the dominant
    *co-movement pattern* across series, and :meth:`correlates` names the
    series that move together along it.
    """

    def __init__(self, dim: int, *, sketch_size: int = 8) -> None:
        if dim < 1:
            raise ConfigurationError("dim must be at least 1")
        if sketch_size < 2:
            raise ConfigurationError("sketch_size must be at least 2")
        self._dim = dim
        self._size = sketch_size
        self._rows: list[list[float]] = []
        self._appended = 0
        self._shrinkages = 0

    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        return self._dim

    @property
    def appended(self) -> int:
        """Rows appended over the sketch's lifetime."""
        return self._appended

    @property
    def shrinkages(self) -> int:
        """How many times the sketch compacted itself."""
        return self._shrinkages

    # ------------------------------------------------------------------
    def update(self, row: Sequence[float]) -> None:
        """Append one row (a per-poll vector of series values)."""
        if len(row) != self._dim:
            raise ConfigurationError(
                f"row has {len(row)} entries, sketch dimension is {self._dim}"
            )
        self._rows.append([float(value) for value in row])
        self._appended += 1
        if len(self._rows) >= self._size:
            self._shrink()

    def _shrink(self) -> None:
        """SVD shrinkage via the small Gram matrix ``B B^T``.

        ``B = U S V^T`` implies ``B B^T = U S^2 U^T`` -- an eigenproblem of
        size ``len(rows) x len(rows)``, *independent of dim*.  The right
        singular vectors are recovered as ``V^T = S^-1 U^T B`` and the
        singular values are shrunk by the median eigenvalue, halving the
        occupied rows.
        """
        rows = self._rows
        m = len(rows)
        gram = [
            [sum(rows[i][k] * rows[j][k] for k in range(self._dim)) for j in range(m)]
            for i in range(m)
        ]
        eigenvalues, eigenvectors = _jacobi_eigh(gram)
        # Shrink by the middle eigenvalue: standard FD keeps size/2 rows.
        cutoff_index = self._size // 2
        cutoff = eigenvalues[cutoff_index] if cutoff_index < m else 0.0
        survivors: list[list[float]] = []
        for value, u_row in zip(eigenvalues, eigenvectors):
            shrunk = value - cutoff
            if shrunk <= 1e-12:
                continue
            sigma = math.sqrt(max(value, 0.0))
            if sigma <= 1e-12:
                continue
            # v = (1/sigma) * B^T u ; survivor row = sqrt(shrunk) * v.
            scale = math.sqrt(shrunk) / sigma
            survivors.append(
                [
                    scale * sum(u_row[i] * rows[i][k] for i in range(m))
                    for k in range(self._dim)
                ]
            )
        self._rows = survivors
        self._shrinkages += 1

    # ------------------------------------------------------------------
    def directions(self) -> list[tuple[float, list[float]]]:
        """Retained ``(weight, unit_vector)`` pairs, heaviest first.

        Weight is the row's squared norm -- its share of the retained
        energy along that direction.
        """
        out: list[tuple[float, list[float]]] = []
        for row in self._rows:
            norm_sq = sum(value * value for value in row)
            if norm_sq <= 1e-24:
                continue
            norm = math.sqrt(norm_sq)
            out.append((norm_sq, [value / norm for value in row]))
        out.sort(key=lambda pair: pair[0], reverse=True)
        return out

    def top_direction(self) -> list[float] | None:
        """Unit vector of the heaviest retained direction (``None`` when
        the sketch is empty)."""
        directions = self.directions()
        return directions[0][1] if directions else None

    def correlates(self, *, threshold: float = 0.3) -> list[int]:
        """Indices whose |component| in the top direction >= *threshold*.

        The "these series move together" answer: indices of the vector
        positions (series) that carry real weight in the dominant
        co-movement direction.
        """
        top = self.top_direction()
        if top is None:
            return []
        return [index for index, value in enumerate(top) if abs(value) >= threshold]

    def covariance_with(self, index: int) -> list[float]:
        """Sketched inner products of series *index* with every series
        (column ``index`` of ``B^T B``) -- a cheap correlation profile."""
        if not 0 <= index < self._dim:
            raise ConfigurationError("index out of range")
        return [
            sum(row[index] * row[k] for row in self._rows) for k in range(self._dim)
        ]

    def __repr__(self) -> str:
        return (
            f"FrequentDirections(dim={self._dim}, size={self._size}, "
            f"rows={len(self._rows)}, appended={self._appended})"
        )
