"""Analysis math checked against brute-force oracles.

The oracles deliberately use plain sorting, set intersection, and
double loops so they share no code path with the implementations.
"""
import csv
import dataclasses
import math

import numpy as np
import pytest

from funnelsim import analysis
from funnelsim.analysis import (ScoredSet, _read_scores_csv, _read_scores_fast,
                                _true_ranks_by_prediction, chamfer, compute_res,
                                default_grid, lof, select_outliers, top_k_recall)
from funnelsim.errors import InputError
from funnelsim.workload import (generate_library, ligand_id, recall_at_operating_point,
                                surrogate_scores)


# ---------------------------------------------------------------------------
# oracles

def oracle_recall(ids, true_scores, pred_scores, k, delta):
    true_order = [i for _, _, i in sorted((s, ids[i], i) for i, s in enumerate(true_scores))]
    pred_order = [i for _, _, i in sorted((s, ids[i], i) for i, s in enumerate(pred_scores))]
    hits = set(ids[i] for i in true_order[:k]) & set(ids[i] for i in pred_order[:delta])
    return len(hits) / k


def oracle_lof(points, k):
    n = len(points)
    dist = [[math.dist(points[i], points[j]) for j in range(n)] for i in range(n)]
    k_dist = []
    neighborhoods = []
    for i in range(n):
        others = sorted(dist[i][j] for j in range(n) if j != i)
        distinct = sorted(set(others))
        kd = distinct[k - 1] if len(distinct) >= k else distinct[-1]
        k_dist.append(kd)
        neighborhoods.append([j for j in range(n) if j != i and dist[i][j] <= kd])
    lrd = []
    for i in range(n):
        reach = [max(k_dist[j], dist[i][j]) for j in neighborhoods[i]]
        mean_reach = sum(reach) / len(reach)
        lrd.append(math.inf if mean_reach == 0.0 else 1.0 / mean_reach)
    scores = []
    for i in range(n):
        vals = []
        for j in neighborhoods[i]:
            if math.isinf(lrd[j]) and math.isinf(lrd[i]):
                vals.append(1.0)
            elif math.isinf(lrd[i]):
                vals.append(0.0)
            else:
                vals.append(lrd[j] / lrd[i])
        scores.append(sum(vals) / len(vals))
    return scores


def oracle_chamfer(a, b):
    fwd = sum(min(sum((x - y) ** 2 for x, y in zip(p, q)) for q in b) for p in a) / len(a)
    bwd = sum(min(sum((x - y) ** 2 for x, y in zip(p, q)) for q in a) for p in b) / len(b)
    return fwd + bwd


def scored_set(n, seed, noise=0.5, ties=False):
    rng = np.random.default_rng(seed)
    true = rng.standard_normal(n)
    if ties:
        true = np.round(true, 1)
    pred = true + noise * rng.standard_normal(n)
    if ties:
        pred = np.round(pred, 1)
    ids = [f"x{i:05d}" for i in rng.permutation(n)]
    return ScoredSet(ids, true, pred)


# ---------------------------------------------------------------------------
# recall / RES

def test_empty_scored_set_rejected():
    for ids in ([], None):
        with pytest.raises(InputError):
            ScoredSet(ids, [], [])


class TestTopKRecall:
    def test_perfect_predictor_full_recall(self):
        s = scored_set(100, 0, noise=0.0)
        for k, delta in ((5, 5), (5, 20), (30, 60)):
            assert top_k_recall(s, k, delta) == 1.0

    def test_hand_case_matches_oracle(self):
        ids = [f"m{i}" for i in range(10)]
        true = np.array([5.0, 1.0, 3.0, 9.0, 2.0, 8.0, 0.0, 7.0, 4.0, 6.0])
        pred = np.array([4.0, 2.0, 9.0, 1.0, 3.0, 8.0, 5.0, 0.0, 6.0, 7.0])
        s = ScoredSet(ids, true, pred)
        assert top_k_recall(s, 3, 2) == oracle_recall(ids, true, pred, 3, 2)

    def test_matches_oracle_randomized(self):
        for seed in range(10):
            s = scored_set(173, seed, ties=(seed % 2 == 0))
            rng = np.random.default_rng(seed + 1000)
            k = int(rng.integers(1, 173))
            delta = int(rng.integers(1, 173))
            assert top_k_recall(s, k, delta) == \
                oracle_recall(s.ids, s.true_scores, s.predicted_scores, k, delta)

    def test_nul_suffixed_ids_break_ties_as_python_sorts_them(self):
        # A numpy unicode array drops trailing NULs, so "a\x00" would tie
        # with "a"; Python orders "a" < "a\x00" < "b".
        ids = ["a\x00", "a", "b"]
        s = ScoredSet(ids, np.zeros(3), np.array([0.0, 1.0, 2.0]))
        assert _true_ranks_by_prediction(s).tolist() == [1, 0, 2]
        for k in (1, 2, 3):
            for delta in (1, 2, 3):
                assert top_k_recall(s, k, delta) == oracle_recall(
                    ids, s.true_scores, s.predicted_scores, k, delta)

    def test_rank_invariance_under_monotone_transform(self):
        s = scored_set(300, 4)
        warped = ScoredSet(s.ids, s.true_scores,
                           np.exp(0.7 * s.predicted_scores) + 3.0)
        for k, delta in ((10, 30), (50, 50), (1, 300)):
            assert top_k_recall(s, k, delta) == top_k_recall(warped, k, delta)

    def test_bounds_checked(self):
        s = scored_set(10, 0)
        with pytest.raises(ValueError):
            top_k_recall(s, 0, 5)
        with pytest.raises(ValueError):
            top_k_recall(s, 5, 11)


class TestComputeRes:
    def test_perfect_predictor_cells(self):
        s = scored_set(1000, 1, noise=0.0)
        grid = compute_res(s)
        u = s.u
        for i, b in enumerate(grid.budget_fractions):
            for j, f in enumerate(grid.top_fractions):
                delta, k = math.ceil(b * u), math.ceil(f * u)
                expect = 1.0 if delta >= k else delta / k
                assert grid.cells[i, j] == pytest.approx(expect)

    def test_random_predictor_cell_approx_budget(self):
        # E[recall] for an uninformative predictor is the budget fraction.
        bf = np.array([0.05, 0.2, 0.5])
        tf = np.array([0.1])
        acc = np.zeros((3, 1))
        for seed in range(100):
            rng = np.random.default_rng(seed)
            s = ScoredSet([f"i{i}" for i in range(400)],
                          rng.standard_normal(400), rng.standard_normal(400))
            acc += compute_res(s, bf, tf).cells
        acc /= 100
        for i, b in enumerate(bf):
            assert acc[i, 0] == pytest.approx(b, abs=0.02)

    def test_matches_oracle_exactly(self):
        for seed in range(3):
            n = int(np.random.default_rng(seed).integers(50, 2000))
            s = scored_set(n, seed, ties=True)
            true_order, pred_order = (
                [s.ids[i] for _, _, i in sorted((sc, s.ids[i], i) for i, sc in enumerate(col))]
                for col in (s.true_scores, s.predicted_scores))
            grid = compute_res(s)
            for i, b in enumerate(grid.budget_fractions):
                pred_set = set(pred_order[:math.ceil(b * n)])
                for j, f in enumerate(grid.top_fractions):
                    k = math.ceil(f * n)
                    assert grid.cells[i, j] == len(set(true_order[:k]) & pred_set) / k

    def test_monotone_in_budget(self):
        for seed in range(5):
            s = scored_set(500, seed, noise=1.0)
            grid = compute_res(s)
            diffs = np.diff(grid.cells, axis=0)
            assert (diffs >= -1e-12).all()

    def test_default_grid_shape(self):
        g = default_grid()
        assert len(g) == 41
        assert g[0] == pytest.approx(1e-4)
        assert g[-1] == pytest.approx(1.0)

    def test_bad_fraction_rejected(self):
        s = scored_set(10, 0)
        with pytest.raises(ValueError):
            compute_res(s, [0.0], [0.5])


# ---------------------------------------------------------------------------
# tie-aware ranking against the full lexsort it replaced

def lexsort_rank_orders(scored):
    """Reference ranking: the rank of each item under one full lexsort by
    (score, id), per score kind; ``ids=None`` reads as ids 0..u-1."""
    ids = np.arange(scored.u) if scored.ids is None else np.array(scored.ids)

    def rank(scores):
        out = np.empty(scored.u, dtype=np.int64)
        out[np.lexsort((ids, scores))] = np.arange(scored.u)
        return out

    return rank(scored.true_scores), rank(scored.predicted_scores)


def lexsort_recall(scored, k, delta):
    true_rank, pred_rank = lexsort_rank_orders(scored)
    return int(np.count_nonzero((true_rank < k) & (pred_rank < delta))) / k


def lexsort_res_cells(scored, bf, tf):
    """Reference RES: one mask intersection per cell over lexsort ranks."""
    u = scored.u
    true_rank, pred_rank = lexsort_rank_orders(scored)
    cells = np.empty((len(bf), len(tf)))
    for i, b in enumerate(bf):
        in_budget = pred_rank < math.ceil(b * u)
        for j, f in enumerate(tf):
            k = math.ceil(f * u)
            cells[i, j] = int(np.count_nonzero(in_budget & (true_rank < k))) / k
    return cells


def tied_columns(n, rng):
    """Two score columns rounded to 0.1, about a fifth of each set to
    0.0 or -0.0 at random."""
    cols = []
    for _ in range(2):
        col = np.round(rng.standard_normal(n), 1)
        zero = rng.random(n) < 0.2
        col[zero] = np.where(rng.random(int(zero.sum())) < 0.5, -0.0, 0.0)
        cols.append(col)
    return cols


class TestRankingDifferential:
    def assert_matches_lexsort(self, s, bf=None, tf=None):
        true_rank, pred_rank = lexsort_rank_orders(s)
        assert np.array_equal(_true_ranks_by_prediction(s), true_rank[np.argsort(pred_rank)])
        # Against a distinct 0..u-1 column, one column's order shows on its own.
        index = np.arange(s.u, dtype=float)
        assert np.array_equal(_true_ranks_by_prediction(ScoredSet(s.ids, s.true_scores, index)),
                              true_rank)
        assert np.array_equal(_true_ranks_by_prediction(ScoredSet(s.ids, index, s.predicted_scores)),
                              np.argsort(pred_rank))
        cuts = sorted(c for c in {1, 2, s.u // 3, s.u // 2, s.u - 1, s.u} if 1 <= c <= s.u)
        for k in cuts:
            for delta in cuts:
                assert top_k_recall(s, k, delta) == lexsort_recall(s, k, delta)
        bf = default_grid() if bf is None else bf
        tf = default_grid() if tf is None else tf
        assert np.array_equal(compute_res(s, bf, tf).cells, lexsort_res_cells(s, bf, tf))

    def test_ties_and_signed_zeros_with_permuted_ids(self):
        for seed in range(12):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 400))
            ids = [f"x{i:05d}" for i in rng.permutation(n)]
            self.assert_matches_lexsort(ScoredSet(ids, *tied_columns(n, rng)))

    def test_every_cut_through_tie_groups(self):
        rng = np.random.default_rng(7)
        ids = [f"t{i:03d}" for i in rng.permutation(30)]
        true, pred = (np.round(rng.standard_normal(30), 0) for _ in range(2))
        s = ScoredSet(ids, true, pred)
        for k in range(1, 31):
            for delta in range(1, 31):
                assert top_k_recall(s, k, delta) == lexsort_recall(s, k, delta)

    def test_all_equal_scores(self):
        n = 50
        ids = [f"e{i:02d}" for i in np.random.default_rng(3).permutation(n)]
        signed = np.where(np.arange(n) % 2 == 0, 0.0, -0.0)
        for true, pred in ((np.full(n, 1.5), np.full(n, 1.5)), (signed, signed[::-1])):
            for id_list in (ids, None):
                self.assert_matches_lexsort(ScoredSet(id_list, true, pred))

    def test_single_item(self):
        for ids in (["only"], None):
            s = ScoredSet(ids, [0.3], [-0.0])
            self.assert_matches_lexsort(s)
            assert top_k_recall(s, 1, 1) == 1.0
            assert (compute_res(s).cells == 1.0).all()

    def test_no_ids_equals_index_ordered_ids(self):
        for seed in range(6):
            rng = np.random.default_rng(100 + seed)
            n = int(rng.integers(1, 300))
            true, pred = tied_columns(n, rng) if seed % 2 else rng.standard_normal((2, n))
            bare = ScoredSet(None, true, pred)
            named = ScoredSet([f"i{i:06d}" for i in range(n)], true, pred)
            self.assert_matches_lexsort(bare)
            assert np.array_equal(compute_res(bare).cells, compute_res(named).cells)
            k, delta = (int(v) for v in rng.integers(1, n + 1, size=2))
            assert top_k_recall(bare, k, delta) == top_k_recall(named, k, delta)

    def test_unsorted_custom_grids(self):
        for seed in range(4):
            rng = np.random.default_rng(200 + seed)
            n = int(rng.integers(20, 500))
            ids = [f"g{i:04d}" for i in rng.permutation(n)]
            s = ScoredSet(ids, *tied_columns(n, rng))
            bf = rng.permutation(np.concatenate([rng.uniform(1e-3, 1, 9), [1.0, 0.5, 0.5]]))
            tf = rng.permutation(np.concatenate([rng.uniform(1e-3, 1, 6), [1e-4, 1.0]]))
            self.assert_matches_lexsort(s, bf, tf)

    def test_operating_point_equals_ligand_id_ranking(self):
        u = 100_000
        for seed in range(3):
            true = generate_library(u, seed)
            s = ScoredSet([ligand_id(i) for i in range(u)], true,
                          surrogate_scores(true, 0.8, seed))
            for k_frac, delta_frac in ((1e-4, 1e-3), (1e-2, 5e-2)):
                assert recall_at_operating_point(u, 0.8, seed, k_frac, delta_frac) == \
                    top_k_recall(s, math.ceil(k_frac * u), math.ceil(delta_frac * u))


class TestRankOnce:
    def test_one_set_ranks_once_with_fresh_set_results(self, monkeypatch):
        s = scored_set(500, 3, ties=True)
        fresh = [ScoredSet(list(s.ids), s.true_scores.copy(), s.predicted_scores.copy())
                 for _ in range(3)]
        want = (top_k_recall(fresh[0], 10, 50), compute_res(fresh[1]).cells,
                top_k_recall(fresh[2], 25, 100))
        calls = []

        def counting(scored):
            calls.append(scored)
            return _true_ranks_by_prediction(scored)

        monkeypatch.setattr(analysis, "_true_ranks_by_prediction", counting)
        got = (top_k_recall(s, 10, 50), compute_res(s).cells, top_k_recall(s, 25, 100))
        assert calls == [s]
        assert got[0] == want[0] and got[2] == want[2]
        assert np.array_equal(got[1], want[1])

    def test_cache_is_private_and_leaves_caller_arrays_writable(self):
        true, pred = np.array([3.0, 1.0, 2.0]), np.array([1.0, 2.0, 3.0])
        s = ScoredSet(None, true, pred)
        top_k_recall(s, 1, 1)
        assert s.true_scores is true and true.flags.writeable and pred.flags.writeable
        assert not s._ranks.flags.writeable
        assert "_ranks" not in repr(s)
        cache = {f.name: f for f in dataclasses.fields(ScoredSet)}["_ranks"]
        assert not cache.init and not cache.compare


# ---------------------------------------------------------------------------
# scores CSV: the fast reader against the csv reader

def read_columns(read, path):
    """The ids and the bytes of the score arrays that ``read`` returns,
    as columns or as a ScoredSet, or its error and the line it names."""
    try:
        got = read(path)
    except (InputError, ValueError, csv.Error) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    ids, true, pred = ((got.ids, got.true_scores, got.predicted_scores)
                       if isinstance(got, ScoredSet) else got)
    return ids, np.asarray(true, float).tobytes(), np.asarray(pred, float).tobytes()


HEADER = "ligand_id,true_score,predicted_score\n"

# (text, whether the fast reader takes it); every other file goes to the csv reader.
ODD_SCORE_FILES = {
    "underscore digits": ("a,1_0,2\n", False),
    "arabic-indic digit": ("a,\u0661,2\n", False),
    "fullwidth digit": ("a,\uff11,2\n", False),
    "inf and nan": ("a,inf,nan\nb,-inf,-nan\n", True),
    "overflow": ("a,1e999,-1e999\n", True),
    "plus sign": ("a,+1,+.5\n", True),
    "spaces around numbers": ("a, 1 ,\t2\u00a0\n", True),
    "exponents": ("a,1e5,-1E-5\n", True),
    "signed zeros": ("a,-0,0\nb,0.0,-0.0\n", True),
    "hex float": ("a,0x10,2\n", False),
    "ids with spaces": ("  a b  ,1,2\nc d,3,4\n", True),
    "ids with NULs": ("a\x00,1,2\na,3,4\n\x00b,5,6\n", True),
    "quoted id": ('"a",1,2\n', False),
    "quoted comma in id": ('"a,b",1,2\nc,3,4\n', False),
    "hash in id": ("a#1,1,2\n#b,3,4\n", True),
    "hash in number": ("a,1#x,2\n", False),
    "crlf": ("ligand_id,t,p\r\na,1,2\r\nb,3,4\r\n", False),
    "lone cr": ("a,1,2\rb,3,4\r", False),
    "blank line": ("a,1,2\n\nb,3,4\n", False),
    "trailing blank line": ("a,1,2\n\n", False),
    "whitespace-only line": ("a,1,2\n   \t\nb,3,4\n", False),
    "blank cells": (HEADER + "a,1,2\n , , \nb,3,4\n", False),
    "empty id": (",1,2\n", False),
    "mixed-case header": ("Ligand_ID,x,y\na,1,2\n", True),
    "padded header": (" ligand_id ,x,y\na,1,2\n", True),
    "one-cell header": ("ligand_id\na,1,2\n", True),
    "no header": ("a,1,2\nb,3,4\n", True),
    "header only": (HEADER, False),
    "header on line 2": ("a,1,2\n" + HEADER, False),
    "no final newline": (HEADER + "a,1,2\nb,3,4", True),
    "extra columns": (HEADER + "a,1,2,x,y\nb,3,4\nc,5,6,z\n", True),
    "short row": (HEADER + "a,1,2\nb,3\n", False),
    "empty row value": (HEADER + "a,,2\n", False),
    "empty file": ("", False),
    "bom before header": ("\ufeff" + HEADER + "a,1,2\n", False),
    "bom before a row": ("\ufeffa,1,2\n", True),
    "duplicate ids": (HEADER + "a,1,2\na,3,4\n", True),
    "vertical tab inside a line": ("a,1,2\x0bb,3,4\n", False),
    "id past the csv field limit": ("x" * (csv.field_size_limit() + 1) + ",1,2\n", False),
}


@pytest.mark.parametrize("name", ODD_SCORE_FILES)
def test_fast_scores_reader_agrees_with_csv_reader(name, tmp_path):
    text, fast_takes = ODD_SCORE_FILES[name]
    path = tmp_path / "scores.csv"
    path.write_bytes(text.encode("utf-8"))
    assert (_read_scores_fast(path) is not None) == fast_takes
    assert read_columns(lambda p: _read_scores_fast(p) or _read_scores_csv(p), path) == \
        read_columns(_read_scores_csv, path)
    assert read_columns(ScoredSet.from_csv, path) == \
        read_columns(lambda p: ScoredSet(*_read_scores_csv(p)), path)


def test_fast_scores_reader_refuses_text_that_is_not_utf8(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_bytes(b"a,1,2\n\xff,3,4\n")
    assert _read_scores_fast(path) is None
    with pytest.raises(UnicodeDecodeError):
        ScoredSet.from_csv(path)


def test_fast_scores_reader_reads_across_chunks(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    true, pred = rng.standard_normal(500), rng.standard_normal(500)
    path = tmp_path / "scores.csv"
    path.write_text(HEADER + "".join(f"L{i:04d},{t!r},{p!r}\n"
                                     for i, (t, p) in enumerate(zip(true.tolist(), pred.tolist()))))
    monkeypatch.setattr(analysis, "_CHUNK_CHARS", 100)
    ids, got_true, got_pred = _read_scores_fast(path)
    assert ids == [f"L{i:04d}" for i in range(500)]
    assert got_true.tobytes() == true.tobytes() and got_pred.tobytes() == pred.tobytes()
    assert read_columns(_read_scores_fast, path) == read_columns(_read_scores_csv, path)


# ---------------------------------------------------------------------------
# LOF

class TestLof:
    def test_uniform_grid_interior_scores_near_one(self):
        xs, ys = np.meshgrid(np.arange(10), np.arange(10))
        pts = np.column_stack([xs.ravel(), ys.ravel()]).astype(float)
        scores = lof(pts, 10)
        interior = [i for i, (x, y) in enumerate(pts)
                    if 2 <= x <= 7 and 2 <= y <= 7]
        assert all(0.8 <= scores[i] <= 1.3 for i in interior)

    def test_far_point_has_max_score(self):
        rng = np.random.default_rng(11)
        cluster = rng.standard_normal((50, 3))
        radius = np.linalg.norm(cluster, axis=1).max()
        pts = np.vstack([cluster, [[100 * radius, 0.0, 0.0]]])
        scores = lof(pts, 5)
        assert np.argmax(scores) == 50
        assert scores[50] > 2.0
        assert scores[50] > scores[:50].max()

    def test_identical_points_all_score_one(self):
        pts = np.ones((12, 3)) * 4.2
        scores = lof(pts, 3)
        assert np.all(scores == 1.0)

    def test_matches_oracle(self):
        for seed, k in ((0, 3), (1, 5), (2, 10)):
            rng = np.random.default_rng(seed)
            pts = rng.standard_normal((60, 3))
            got = lof(pts, k)
            want = oracle_lof(pts.tolist(), k)
            np.testing.assert_allclose(got, want, rtol=1e-9)

    def test_matches_oracle_with_duplicates(self):
        rng = np.random.default_rng(3)
        base = rng.standard_normal((20, 2))
        pts = np.vstack([base, base[:5]])   # duplicated points
        got = lof(pts, 4)
        want = oracle_lof(pts.tolist(), 4)
        np.testing.assert_allclose(got, want, rtol=1e-9)

    def test_translation_and_scale_invariance(self):
        rng = np.random.default_rng(8)
        pts = rng.standard_normal((40, 3))
        ref = lof(pts, 6)
        np.testing.assert_allclose(lof(pts + 100.0, 6), ref, rtol=1e-8)
        np.testing.assert_allclose(lof(pts * 7.5, 6), ref, rtol=1e-8)

    def test_k_bounds(self):
        pts = np.zeros((5, 2))
        with pytest.raises(ValueError):
            lof(pts, 0)
        with pytest.raises(ValueError):
            lof(pts, 5)


class TestSelectOutliers:
    def test_all_indices_when_m_equals_n(self):
        assert select_outliers([1.0, 3.0, 2.0], 3) == [1, 2, 0]

    def test_empty_when_m_zero(self):
        assert select_outliers([1.0, 2.0], 0) == []

    def test_ties_break_by_lower_index(self):
        assert select_outliers([2.0, 5.0, 5.0, 1.0], 2) == [1, 2]

    def test_far_point_included(self):
        rng = np.random.default_rng(11)
        cluster = rng.standard_normal((50, 3))
        pts = np.vstack([cluster, [[1000.0, 0.0, 0.0]]])
        scores = lof(pts, 5)
        assert 50 in select_outliers(scores, 5)


# ---------------------------------------------------------------------------
# Chamfer

class TestChamfer:
    def test_identity_is_zero(self):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((30, 3))
        assert chamfer(pts, pts) == 0.0

    def test_single_point_pair(self):
        assert chamfer([[0.0, 0.0]], [[3.0, 4.0]]) == pytest.approx(50.0)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = rng.standard_normal((int(rng.integers(1, 40)), 3))
            b = rng.standard_normal((int(rng.integers(1, 40)), 3))
            assert chamfer(a, b) == chamfer(b, a)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((64, 3))
        b = rng.standard_normal((64, 3))
        got = chamfer(a, b)
        want = oracle_chamfer(a.tolist(), b.tolist())
        assert got == pytest.approx(want, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            chamfer([[0.0, 0.0]], [[1.0, 2.0, 3.0]])

    def test_zero_iff_mutual_coincidence(self):
        a = [[0.0, 0.0], [1.0, 1.0]]
        b = [[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]]
        assert chamfer(a, b) == 0.0
        c = [[0.0, 0.0], [2.0, 2.0]]
        assert chamfer(a, c) > 0.0
