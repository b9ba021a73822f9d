"""Flat-array regression trees: the packed layout and its tree walks.

Arrow's surrogate is an Extra-Trees ensemble (Geurts, Ernst & Wehenkel,
2006) refitted after every measurement.  The level-synchronous builders
in :mod:`repro.ml.tree_builder` grow whole ensembles straight into one
set of flat node arrays, :class:`PackedTrees`; this module holds that
layout and the vectorised walks over it:

* :func:`predict_packed` descends every ``(tree, row)`` cursor of an
  ensemble at once, one loop iteration per tree level;
* :class:`PairRows` keeps the surrogate's candidate x source query as
  its two factors, which large queries walk as destination-set x
  source-set products;
* :func:`predict_packed_many` walks many ensembles in one pass for the
  cross-search driver;
* :meth:`PackedTrees.splice` swaps regrown trees into an ensemble for
  warm refits.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np


def coerce_training_data(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Validate and coerce ``(X, y)`` once, for a whole ensemble.

    Every tree grower in this package accepts the result without
    re-validating, so an ensemble fit pays the (cheap, but per-tree
    repeated) checks exactly once.

    Raises:
        ValueError: on empty or mismatched inputs.
    """
    X = np.ascontiguousarray(X, dtype=float)
    y = np.ascontiguousarray(y, dtype=float).reshape(-1)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if X.shape[0] != y.shape[0]:
        raise ValueError(f"X has {X.shape[0]} rows but y has {y.shape[0]}")
    if X.shape[0] == 0:
        raise ValueError("cannot fit a tree on zero observations")
    return X, y


@dataclass(frozen=True)
class PackedTrees:
    """A whole ensemble as one set of flat node arrays.

    Nodes are stored tree-major: each tree's nodes form one contiguous
    span starting at its root, in breadth-first order, and child
    indices are absolute (leaves have ``feature == -1`` and children
    ``-1``).  The *entire ensemble* is evaluated with one vectorised
    traversal over ``n_trees x n_rows`` cursor states instead of one
    Python-level traversal per tree.

    Attributes:
        feature: split feature per node (-1 for leaves), all trees.
        threshold: split threshold per node.
        left: absolute (packed) index of the left child, -1 for leaves.
        right: absolute (packed) index of the right child, -1 for leaves.
        value: node mean, used at leaves.
        roots: packed index of each tree's root, one per tree.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    roots: np.ndarray

    @property
    def n_trees(self) -> int:
        """Number of trees packed together."""
        return int(self.roots.size)

    @property
    def node_count(self) -> int:
        """Total number of nodes across all packed trees."""
        return int(self.feature.size)

    @property
    def counts(self) -> np.ndarray:
        """Node count of each tree (the length of its span)."""
        return np.diff(self.roots, append=self.node_count)

    def splice(self, slots: np.ndarray, regrown: PackedTrees) -> PackedTrees:
        """This ensemble with tree ``slots[i]`` replaced by tree ``i`` of
        ``regrown``.

        The warm-refit step: every span keeps its tree order, kept spans
        are copied and regrown spans take the replaced trees' places, so
        the result holds exactly the live trees' nodes.

        ``slots`` must be distinct tree indices.

        Raises:
            ValueError: when ``slots`` and ``regrown`` disagree on the
                number of trees.
        """
        slots = np.asarray(slots, dtype=np.int64)
        if slots.size != regrown.n_trees:
            raise ValueError(
                f"{slots.size} slots but {regrown.n_trees} regrown trees"
            )
        counts = self.counts
        keep = np.ones(self.n_trees, dtype=bool)
        keep[slots] = False
        old_tree = np.repeat(np.arange(self.n_trees), counts)
        kept = keep[old_tree]
        # Every surviving node's tree slot and its source tree's root; a
        # stable sort by slot lays the spans out tree-major again.
        tree = np.concatenate([old_tree[kept], np.repeat(slots, regrown.counts)])
        source_root = np.concatenate([
            self.roots[old_tree[kept]], np.repeat(regrown.roots, regrown.counts)
        ])
        order = np.argsort(tree, kind="stable")
        counts[slots] = regrown.counts
        roots = np.concatenate([[0], np.cumsum(counts)[:-1]])
        shift = (roots[tree] - source_root)[order]

        def gather(name: str) -> np.ndarray:
            return np.concatenate(
                [getattr(self, name)[kept], getattr(regrown, name)]
            )[order]

        left, right = gather("left"), gather("right")
        return PackedTrees(
            feature=gather("feature"),
            threshold=gather("threshold"),
            left=np.where(left >= 0, left + shift, -1),
            right=np.where(right >= 0, right + shift, -1),
            value=gather("value"),
            roots=roots,
        )


#: Row-chunk size for :func:`predict_packed`.  Bounds the transient
#: ``n_trees * chunk`` cursor arrays when scoring hundreds of candidates
#: against many sources (u * m query rows grows quadratically over a
#: search); rows traverse independently, so chunking is bit-identical.
PREDICT_CHUNK_ROWS = 16384

#: Pair count (``u * m``) from which a :class:`PairRows` query is walked
#: as factored destination-set x source-set products.  Below it the rows
#: are materialised and walked flat, which costs less: the factored
#: walk's fixed per-level bookkeeping only pays off once the products
#: are large.  Measured with the 24-tree Arrow surrogate on a 2-vCPU x86
#: VM: 621 pairs (u=207, m=3) ran 1.6x slower factored, 1025-1161 pairs
#: broke even, 1224 ran at 0.93x the flat time, 1925 at 0.65x and
#: u * m >= 2700 at 0.5x or less.
FACTORED_MIN_PAIRS = 1024


class PairRows:
    """The ``u * m`` query rows ``[dest_i | source_t]``, held as factors.

    Arrow's surrogate scores every (candidate destination, measured
    source) pair, and each such row is the concatenation of one
    destination row and one source row.  Keeping the two factors
    instead of the ``u * m`` dense rows lets :func:`predict_packed` walk
    the trees over destination *sets* and source *sets*
    (see :func:`_walk_pairs`).

    Attributes:
        dest: ``(u, dest width)`` destination rows.
        source: ``(m, source width)`` source rows.
    """

    __slots__ = ("dest", "source")

    def __init__(self, dest: np.ndarray, source: np.ndarray) -> None:
        self.dest = np.ascontiguousarray(dest, dtype=float)
        self.source = np.ascontiguousarray(source, dtype=float)
        if self.dest.ndim != 2 or self.source.ndim != 2:
            raise ValueError(
                f"dest and source must be 2-D, got shapes {self.dest.shape} "
                f"and {self.source.shape}"
            )

    @property
    def shape(self) -> tuple[int, int]:
        """``(u * m, width)``: the shape of :meth:`materialize`."""
        return (
            self.dest.shape[0] * self.source.shape[0],
            self.dest.shape[1] + self.source.shape[1],
        )

    def materialize(self) -> np.ndarray:
        """The dense rows, destination-major: row ``i * m + t`` is
        ``[dest[i] | source[t]]``."""
        u, m = self.dest.shape[0], self.source.shape[0]
        split = self.dest.shape[1]
        rows = np.empty(self.shape)
        grid = rows.reshape(u, m, self.shape[1])
        grid[:, :, :split] = self.dest[:, None, :]
        grid[:, :, split:] = self.source[None, :, :]
        return rows


def _as_rows(X) -> np.ndarray:
    """Dense 2-D query rows from an array, a single row or :class:`PairRows`."""
    if isinstance(X, PairRows):
        return X.materialize()
    X = np.asarray(X, dtype=float)
    return X.reshape(1, -1) if X.ndim == 1 else X


def _factored(X) -> bool:
    return isinstance(X, PairRows) and X.shape[0] >= FACTORED_MIN_PAIRS


def _stack_packed(packeds: Sequence[PackedTrees]) -> tuple[PackedTrees, list[np.ndarray]]:
    """Many ensembles as one node array set (child pointers rebased),
    plus each ensemble's rebased roots."""
    if len(packeds) == 1:
        return packeds[0], [packeds[0].roots]
    node_counts = [p.node_count for p in packeds]
    offsets = np.concatenate([[0], np.cumsum(node_counts)[:-1]])
    roots = [p.roots + off for p, off in zip(packeds, offsets)]
    stacked = PackedTrees(
        feature=np.concatenate([p.feature for p in packeds]),
        threshold=np.concatenate([p.threshold for p in packeds]),
        left=np.concatenate(
            [np.where(p.left >= 0, p.left + off, -1) for p, off in zip(packeds, offsets)]
        ),
        right=np.concatenate(
            [np.where(p.right >= 0, p.right + off, -1) for p, off in zip(packeds, offsets)]
        ),
        value=np.concatenate([p.value for p in packeds]),
        roots=np.concatenate(roots),
    )
    return stacked, roots


def _split_output(values: np.ndarray, sizes: list[tuple[int, int]]) -> list[np.ndarray]:
    """Cut a flat tree-major output into one ``(n_trees, n_rows)`` per block."""
    out = []
    pos = 0
    for n_trees, n_rows in sizes:
        n = n_trees * n_rows
        out.append(values[pos : pos + n].reshape(n_trees, n_rows))
        pos += n
    return out


def _walk_rows(
    packed: PackedTrees, roots: list[np.ndarray], Xs: list[np.ndarray]
) -> list[np.ndarray]:
    """Flat walk: every ``(tree, row)`` cursor of every block descends
    simultaneously; block ``i`` runs the trees rooted at ``roots[i]`` over
    the dense rows ``Xs[i]``."""
    row_counts = [X.shape[0] for X in Xs]
    if len(Xs) == 1:
        X_all, row_offsets = Xs[0], [0]
    else:
        # Ragged feature widths are fine: each cursor only ever indexes
        # its own block's rows.  Pad to the widest for one flat array.
        row_offsets = np.concatenate([[0], np.cumsum(row_counts)[:-1]])
        X_all = np.zeros((sum(row_counts), max(X.shape[1] for X in Xs)))
        for X, off in zip(Xs, row_offsets):
            X_all[off : off + X.shape[0], : X.shape[1]] = X
    node = np.concatenate(
        [np.repeat(r, n) for r, n in zip(roots, row_counts)]
    )
    cols = np.concatenate(
        [np.tile(np.arange(n), r.size) + off
         for r, n, off in zip(roots, row_counts, row_offsets)]
    )
    feature, threshold, left, right = (
        packed.feature, packed.threshold, packed.left, packed.right,
    )
    active = feature[node] >= 0
    while active.any():
        current = node[active]
        feats = feature[current]
        go_left = X_all[cols[active], feats] <= threshold[current]
        node[active] = np.where(go_left, left[current], right[current])
        active = feature[node] >= 0
    return _split_output(
        packed.value[node], [(r.size, n) for r, n in zip(roots, row_counts)]
    )


def _walk_pairs(
    packed: PackedTrees, roots: list[np.ndarray], pairs: list[PairRows]
) -> list[np.ndarray]:
    """Factored walk over :class:`PairRows` blocks, level by level.

    A split tests one column of one factor: a destination column
    partitions a node's destination set and sends its whole source set
    both ways, a source column does the reverse.  So the pairs reaching
    any node always form a product ``D_node x S_node``, and a level
    costs ``O(|D| + |S|)`` per node instead of one cursor per pair.
    Each pair still meets exactly the comparisons (same operands, same
    ``<=``) and the leaf it would meet in :func:`_walk_rows`, so the
    result is bit-identical to walking ``pair.materialize()``.  Every
    block must hold at least one destination and one source row.

    State is kept per *node visit* ``k`` (one tree's node reached by a
    non-empty product): its node id, the destination-width boundary and
    source count of its block, and the output offset ``base[k]`` such
    that pair ``(d, s)`` (indices into the stacked factor tables) lands
    at ``base[k] + d * m[k] + s``.  The destination and source members
    of every visit are held flat, grouped contiguously by visit.
    """
    n_trees = [r.size for r in roots]
    n_dest = [p.dest.shape[0] for p in pairs]
    n_src = [p.source.shape[0] for p in pairs]
    sizes = [(t, u * m) for t, u, m in zip(n_trees, n_dest, n_src)]
    dest_off = np.cumsum([0] + n_dest[:-1])
    src_off = np.cumsum([0] + n_src[:-1])
    out_off = np.cumsum([0] + [t * n for t, n in sizes[:-1]])
    if len(pairs) == 1:
        dest_all, src_all = pairs[0].dest, pairs[0].source
    else:
        dest_all = np.zeros((sum(n_dest), max(p.dest.shape[1] for p in pairs)))
        src_all = np.zeros((sum(n_src), max(p.source.shape[1] for p in pairs)))
        for p, doff, soff in zip(pairs, dest_off, src_off):
            dest_all[doff : doff + p.dest.shape[0], : p.dest.shape[1]] = p.dest
            src_all[soff : soff + p.source.shape[0], : p.source.shape[1]] = p.source

    # One visit per tree root, holding its block's whole factor tables.
    node = np.concatenate(roots)
    split_col = np.repeat([p.dest.shape[1] for p in pairs], n_trees)
    m = np.repeat(n_src, n_trees)
    base = np.concatenate([
        out_off[i] + np.arange(n_trees[i]) * sizes[i][1]
        - dest_off[i] * n_src[i] - src_off[i]
        for i in range(len(pairs))
    ])
    d_cnt = np.repeat(n_dest, n_trees)
    s_cnt = np.repeat(n_src, n_trees)
    d_items = np.concatenate([
        np.tile(np.arange(dest_off[i], dest_off[i] + n_dest[i]), n_trees[i])
        for i in range(len(pairs))
    ])
    s_items = np.concatenate([
        np.tile(np.arange(src_off[i], src_off[i] + n_src[i]), n_trees[i])
        for i in range(len(pairs))
    ])
    d_visit = np.repeat(np.arange(node.size), d_cnt)
    s_visit = np.repeat(np.arange(node.size), s_cnt)

    out = np.empty(sum(t * n for t, n in sizes))
    feature, threshold, value = packed.feature, packed.threshold, packed.value
    while node.size:
        feat = feature[node]
        leaf = feat < 0
        if leaf.any():
            # Every pair of a leaf visit takes the leaf value: for each
            # destination member, the visit's source members in turn.
            at_leaf = leaf[d_visit]
            dests, owner = d_items[at_leaf], d_visit[at_leaf]
            per_dest = s_cnt[owner]
            s_start = np.cumsum(s_cnt) - s_cnt
            first = np.cumsum(per_dest) - per_dest
            slots = np.repeat(s_start[owner] - first, per_dest) + np.arange(per_dest.sum())
            targets = np.repeat(base[owner] + dests * m[owner], per_dest) + s_items[slots]
            out[targets] = np.repeat(value[node[owner]], per_dest)
        inner = ~leaf
        n_inner = int(inner.sum())
        if not n_inner:
            break
        # The j-th inner visit's children are visits j (left) and
        # n_inner + j (right), which keeps members grouped by visit.
        rank = np.cumsum(inner) - 1
        on_dest = inner & (feat < split_col)
        on_src = inner & ~on_dest
        thr = threshold[node]
        d_items, d_visit = _partition(
            d_items, d_visit, on_dest, on_src, rank, n_inner, dest_all, feat, thr
        )
        s_items, s_visit = _partition(
            s_items, s_visit, on_src, on_dest, rank, n_inner, src_all,
            feat - split_col, thr,
        )
        node = np.concatenate([packed.left[node[inner]], packed.right[node[inner]]])
        split_col = np.tile(split_col[inner], 2)
        m = np.tile(m[inner], 2)
        base = np.tile(base[inner], 2)
        d_cnt = np.bincount(d_visit, minlength=node.size)
        s_cnt = np.bincount(s_visit, minlength=node.size)
        keep = (d_cnt > 0) & (s_cnt > 0)
        if not keep.all():
            # A child no pair reaches (one side empty) is dropped.
            renumber = np.cumsum(keep) - 1
            d_kept, s_kept = keep[d_visit], keep[s_visit]
            d_items, d_visit = d_items[d_kept], renumber[d_visit[d_kept]]
            s_items, s_visit = s_items[s_kept], renumber[s_visit[s_kept]]
            node, split_col, m, base = node[keep], split_col[keep], m[keep], base[keep]
            d_cnt, s_cnt = d_cnt[keep], s_cnt[keep]
    return _split_output(out, sizes)


def _partition(
    items: np.ndarray,
    visit: np.ndarray,
    splits_here: np.ndarray,
    splits_other: np.ndarray,
    rank: np.ndarray,
    n_inner: int,
    table: np.ndarray,
    column: np.ndarray,
    thr: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One factor's members, moved to the children of their visits.

    Members of a visit that splits on this factor go left or right by
    ``table[member, column] <= threshold``; members of a visit that
    splits on the other factor go to both children; members of leaf
    visits are dropped.  Returns the members and their child visit ids,
    still grouped by visit (all left children, then all right ones).
    """
    tested = splits_here[visit]
    owner = visit[tested]
    below = np.zeros(items.size, dtype=bool)
    below[tested] = table[items[tested], column[owner]] <= thr[owner]
    shared = splits_other[visit]
    to_left = shared | below
    to_right = shared | (tested & ~below)
    child = np.concatenate([rank[visit[to_left]], n_inner + rank[visit[to_right]]])
    return np.concatenate([items[to_left], items[to_right]]), child


def predict_packed(
    packed: PackedTrees, X, chunk_rows: int | None = None
) -> np.ndarray:
    """Per-tree predictions for ``X`` in one ensemble-wide walk.

    For dense rows all ``n_trees * n_rows`` cursors descend
    simultaneously; the loop runs for the depth of the deepest tree
    rather than once per tree.  Inputs wider than ``chunk_rows`` rows
    (default :data:`PREDICT_CHUNK_ROWS`) are traversed in row chunks so
    the cursor arrays stay cache-sized at large candidate counts — each
    row descends independently, so the result is the same bit for bit.

    ``X`` may be a :class:`PairRows`: from :data:`FACTORED_MIN_PAIRS`
    pairs on it is walked factored (:func:`_walk_pairs`), below that it
    is materialised first.  Returns an ``(n_trees, n_rows)`` array
    identical to walking each tree on its own over the dense rows.
    """
    chunk = PREDICT_CHUNK_ROWS if chunk_rows is None else int(chunk_rows)
    if chunk < 1:
        raise ValueError(f"chunk_rows must be positive, got {chunk_rows}")
    if _factored(X):
        return _walk_pairs(packed, [packed.roots], [X])[0]
    X = _as_rows(X)
    n_rows = X.shape[0]
    if n_rows <= chunk:
        return _walk_rows(packed, [packed.roots], [X])[0]
    out = np.empty((packed.n_trees, n_rows))
    for start in range(0, n_rows, chunk):
        stop = min(start + chunk, n_rows)
        out[:, start:stop] = _walk_rows(packed, [packed.roots], [X[start:stop]])[0]
    return out


def predict_packed_many(
    packeds: Sequence[PackedTrees], Xs: Sequence
) -> list[np.ndarray]:
    """Per-tree predictions for many (ensemble, query) pairs in one walk.

    Concatenates the ensembles' node arrays (child pointers rebased) and
    all query rows, then descends every ``(tree, row)`` cursor of every
    pair simultaneously — one traversal loop bounded by the deepest tree
    anywhere instead of one loop per ensemble.  :class:`PairRows`
    queries from :data:`FACTORED_MIN_PAIRS` pairs on share one factored
    walk instead; smaller ones are materialised into the flat walk.
    Each pair's descent is independent and compares exactly the
    operands the per-ensemble :func:`predict_packed` would, so result
    ``i`` is bit-identical to ``predict_packed(packeds[i], Xs[i])``.

    Intended for cross-search drivers batching modest per-search query
    sets; dense rows are not chunked, so keep the total cursor count
    (``sum(n_trees_i * n_rows_i)``) within cache-friendly bounds.

    Raises:
        ValueError: on length mismatch or an empty pair list.
    """
    if len(packeds) != len(Xs):
        raise ValueError(
            f"got {len(packeds)} ensembles but {len(Xs)} query sets"
        )
    if not packeds:
        raise ValueError("cannot batch-predict zero ensembles")
    stacked, roots = _stack_packed(packeds)
    out: list[np.ndarray | None] = [None] * len(Xs)
    factored = [_factored(X) for X in Xs]
    for walk_factored, walk in ((False, _walk_rows), (True, _walk_pairs)):
        picks = [i for i, flag in enumerate(factored) if flag == walk_factored]
        if not picks:
            continue
        queries = [Xs[i] if walk_factored else _as_rows(Xs[i]) for i in picks]
        for i, result in zip(picks, walk(stacked, [roots[i] for i in picks], queries)):
            out[i] = result
    return out
