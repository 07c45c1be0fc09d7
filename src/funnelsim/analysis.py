"""Ranking and outlier analysis used as inter-stage filters and for
evaluating surrogate score quality.

Scores follow the docking convention: lower is better.  Items rank by
score, then by id only between equal scores (``-0.0`` equals ``0.0``);
in a ``ScoredSet(ids=None)`` item ``i``'s id is ``i``.  Ranks are thus
deterministic and invariant under strictly increasing score transforms.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError


# Characters of text the fast scores reader holds at a time, about 1 MB.
_CHUNK_CHARS = 1 << 20


@dataclass
class ScoredSet:
    """(id, true score, predicted score) triples; ``ids=None`` means ids 0..u-1.

    A set is ranked once: the first ``top_k_recall`` or ``compute_res``
    keeps the ranks for later calls, so a set's ids and score arrays must
    not change after its first ranking.
    """
    ids: list[str] | None
    true_scores: np.ndarray
    predicted_scores: np.ndarray
    _ranks: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.true_scores = np.asarray(self.true_scores, dtype=float)
        self.predicted_scores = np.asarray(self.predicted_scores, dtype=float)
        if len(self.true_scores) != len(self.predicted_scores) or \
                (self.ids is not None and len(self.ids) != self.u):
            raise InputError("ids and score arrays must have equal length")
        if self.u == 0:
            raise InputError("no scored items")
        if self.ids is not None and len(set(self.ids)) != self.u:
            raise InputError("ids must be unique")
        if not (np.isfinite(self.true_scores).all() and np.isfinite(self.predicted_scores).all()):
            raise InputError("scores must be finite")

    @property
    def u(self) -> int:
        return len(self.true_scores)

    @classmethod
    def from_csv(cls, path) -> "ScoredSet":
        """Rows of ``ligand_id,true_score,predicted_score``: an optional
        ``ligand_id`` header on line 1, rows of blank cells skipped, and
        columns after the third ignored.  Most files are read by
        ``_read_scores_fast``; any file it refuses by ``_read_scores_csv``,
        which gives the same columns and names the line of a bad row."""
        return cls(*(_read_scores_fast(path) or _read_scores_csv(path)))


def _read_scores_csv(path) -> tuple[list[str], np.ndarray, np.ndarray]:
    ids, ts, ps = [], [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if lineno == 1 and row and row[0].strip().lower() == "ligand_id":
                continue
            if not row or all(not c.strip() for c in row):
                continue
            try:
                ids.append(row[0].strip())
                ts.append(float(row[1]))
                ps.append(float(row[2]))
            except (IndexError, ValueError) as exc:
                raise InputError(f"bad scores row at line {lineno}: {exc}", line=lineno) from exc
    return ids, np.array(ts), np.array(ps)


def _read_scores_fast(path) -> tuple[list[str], np.ndarray, np.ndarray] | None:
    """What ``_read_scores_csv`` reads, with the score columns parsed by
    ``np.loadtxt``, or None for a file it may read differently.

    ``loadtxt`` parses a number with the routine ``float`` uses, so it
    reads each number it accepts bit for bit as ``float`` does; it is
    stricter (no ``1_0``, no non-ASCII digits).  Without a quote or a
    carriage return, ``csv`` splits a line at every comma, as ``loadtxt``
    does.  A line whose id is blank, such as a blank line that
    ``loadtxt`` would skip, is refused, as is a line longer than the
    ``csv`` field limit and any file ``loadtxt`` rejects.  The text is
    checked and the ids taken one chunk of lines at a time, and
    ``loadtxt`` reads the file itself.
    """
    ids: list[str] = []
    skip = None
    limit = csv.field_size_limit()
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            while lines := fh.readlines(_CHUNK_CHARS):
                text = "".join(lines)
                if '"' in text or "\r" in text or max(map(len, lines)) > limit:
                    return None
                if skip is None:    # line 1 is a header if its first cell is
                    skip = int(lines[0].partition(",")[0].strip().lower() == "ligand_id")
                    del lines[:skip]
                chunk_ids = [line.partition(",")[0].strip() for line in lines]
                if "" in chunk_ids:
                    return None
                ids += chunk_ids
        if not ids:
            return None
        ts, ps = np.loadtxt(path, delimiter=",", usecols=(1, 2), comments=None,
                            skiprows=skip, encoding="utf-8", ndmin=2, unpack=True)
    except ValueError:  # a bad number, a short row, or text that is not UTF-8
        return None
    return (ids, ts, ps) if len(ts) == len(ids) else None


def _true_ranks_by_prediction(scored: ScoredSet) -> np.ndarray:
    """The true-score rank of each item, listed in predicted order.  Ids
    are sorted at most once, and only if a column has equal scores."""
    orders, id_rank = [], None
    for scores in (scored.true_scores, scored.predicted_scores):
        order = np.argsort(scores)
        steps = np.diff(scores[order]) != 0
        if not steps.all():  # ties: sort on (score group, id rank), exact for u < 3e9
            if id_rank is None:
                id_rank = np.arange(scored.u)
                if scored.ids is not None:
                    # An object array: a unicode one drops trailing NULs.
                    by_id = np.argsort(np.array(scored.ids, dtype=object), kind="stable")
                    id_rank[by_id] = np.arange(scored.u)
            group = np.concatenate(([0], np.cumsum(steps)))
            order = order[np.argsort(group * scored.u + id_rank[order])]
        orders.append(order)
    rank = np.empty(scored.u, dtype=np.int64)
    rank[orders[0]] = np.arange(scored.u)
    return rank[orders[1]]


def _ranked(scored: ScoredSet) -> np.ndarray:
    """``_true_ranks_by_prediction(scored)``, computed on the set's first
    ranking and kept, read-only, for the rest."""
    if scored._ranks is None:
        ranks = _true_ranks_by_prediction(scored)
        ranks.flags.writeable = False
        scored._ranks = ranks
    return scored._ranks


def top_k_recall(scored: ScoredSet, k: int, delta: int) -> float:
    """Fraction of the true top-k found in the predicted top-delta."""
    for name, value in (("k", k), ("delta", delta)):
        if not 1 <= value <= scored.u:
            raise ValueError(f"{name} must be in [1, {scored.u}], got {value}")
    hits = int(np.count_nonzero(_ranked(scored)[:delta] < k))
    return hits / k


@dataclass
class RESGrid:
    """Recall of the true top f*u as a function of the prediction budget
    b*u: one cell per (budget fraction, top fraction) pair."""
    budget_fractions: np.ndarray
    top_fractions: np.ndarray
    cells: np.ndarray  # shape (len(budget_fractions), len(top_fractions))

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["budget_fraction"] + [f"{f:.6g}" for f in self.top_fractions])
            for b, row in zip(self.budget_fractions, self.cells):
                writer.writerow([f"{b:.6g}"] + [f"{v:.10g}" for v in row])


def default_grid() -> np.ndarray:
    """Log-spaced fractions 1e-4 .. 1, ten per decade."""
    return np.logspace(-4, 0, 41)


def compute_res(scored: ScoredSet,
                budget_fractions=None, top_fractions=None) -> RESGrid:
    bf = np.asarray(default_grid() if budget_fractions is None else budget_fractions, dtype=float)
    tf = np.asarray(default_grid() if top_fractions is None else top_fractions, dtype=float)
    if ((bf <= 0) | (bf > 1)).any() or ((tf <= 0) | (tf > 1)).any():
        raise ValueError("grid fractions must lie in (0, 1]")
    true_ranks = _ranked(scored)
    ks = np.array([math.ceil(f * scored.u) for f in tf], dtype=np.int64)
    cells = np.empty((len(bf), len(tf)))
    for i, b in enumerate(bf):  # hits: true ranks below k among the first delta
        cells[i] = np.searchsorted(np.sort(true_ranks[:math.ceil(b * scored.u)]), ks) / ks
    return RESGrid(bf, tf, cells)


# ---------------------------------------------------------------------------
# point-set operations

def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise InputError("point set must be a non-empty n x d matrix")
    if not np.isfinite(pts).all():
        raise InputError("point set entries must be finite")
    return pts


def _pairwise_sq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances.  Direct differencing keeps exact
    zeros for coincident points; the gram-matrix route is only used when
    the broadcast would be too large, with a clamp at 0."""
    if a.shape[0] * b.shape[0] * a.shape[1] <= 2 ** 25:
        diff = a[:, None, :] - b[None, :, :]
        return np.einsum("ijk,ijk->ij", diff, diff)
    sq_a = np.sum(a * a, axis=1)
    sq_b = np.sum(b * b, axis=1)
    d2 = sq_a[:, None] + sq_b[None, :] - 2.0 * (a @ b.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


def load_points_csv(path) -> np.ndarray:
    rows = []
    width = None
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or all(not c.strip() for c in row):
                continue
            try:
                vals = [float(c) for c in row]
            except ValueError as exc:
                raise InputError(f"bad point row at line {lineno}: {exc}", line=lineno) from exc
            if width is None:
                width = len(vals)
            elif len(vals) != width:
                raise InputError(f"ragged point row at line {lineno}", line=lineno)
            rows.append(vals)
    if not rows:
        raise InputError("point set file is empty")
    return np.asarray(rows)


def lof(points, k_neighbors: int) -> np.ndarray:
    """Local outlier factor per point: about 1 for inliers, larger for
    points in sparser regions than their neighbors.

    The k-distance is the k-th smallest *distinct* neighbor distance, so
    duplicates do not starve the neighborhood.  A point whose k-distance
    is 0 gets infinite local reachability density; density ratios where
    both sides are infinite count as 1.
    """
    pts = _as_points(points)
    n = len(pts)
    if not 1 <= k_neighbors < n:
        raise ValueError(f"k_neighbors must be in [1, {n - 1}], got {k_neighbors}")
    dist = np.sqrt(_pairwise_sq(pts, pts))

    k_dist = np.empty(n)
    neighborhoods: list[np.ndarray] = []
    idx = np.arange(n)
    for i in range(n):
        row = dist[i]
        distinct = np.unique(row[idx != i])
        k_dist[i] = distinct[k_neighbors - 1] if len(distinct) >= k_neighbors else distinct[-1]
        nb = idx[(idx != i) & (row <= k_dist[i] + 0.0)]
        neighborhoods.append(nb)

    lrd = np.empty(n)
    for i, nb in enumerate(neighborhoods):
        reach = np.maximum(k_dist[nb], dist[i, nb])
        mean_reach = reach.mean()
        lrd[i] = math.inf if mean_reach == 0.0 else 1.0 / mean_reach

    scores = np.empty(n)
    for i, nb in enumerate(neighborhoods):
        ratios = np.empty(len(nb))
        for j, q in enumerate(nb):
            if math.isinf(lrd[q]) and math.isinf(lrd[i]):
                ratios[j] = 1.0
            elif math.isinf(lrd[i]):
                ratios[j] = 0.0
            else:
                ratios[j] = lrd[q] / lrd[i]
        scores[i] = ratios.mean()
    return scores


def select_outliers(scores, m: int) -> list[int]:
    """Indices of the m largest scores; ties go to the lower index."""
    scores = np.asarray(scores, dtype=float)
    if not 0 <= m <= len(scores):
        raise ValueError(f"m must be in [0, {len(scores)}], got {m}")
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return order[:m]


def chamfer(a, b) -> float:
    """Symmetric point-set distance: mean squared nearest-neighbor
    distance from a to b plus the same from b to a."""
    pa = _as_points(a)
    pb = _as_points(b)
    if pa.shape[1] != pb.shape[1]:
        raise InputError(f"dimension mismatch: {pa.shape[1]} vs {pb.shape[1]}")
    d2 = _pairwise_sq(pa, pb)
    return float(d2.min(axis=1).mean() + d2.min(axis=0).mean())
