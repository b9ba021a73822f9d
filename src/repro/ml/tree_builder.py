"""Level-synchronous, vectorized construction of tree ensembles.

The surrogate refit — Arrow's inner loop, re-run after every
measurement — is the dominant cost of every experiment grid, so trees
are never grown node by node in Python.  Growth is *breadth-first*: all
frontier nodes of **all trees of the ensemble** advance one depth level
per iteration, and each level's split search is a handful of batched
numpy reductions instead of thousands of tiny per-node calls.

Mechanics shared by both builders:

* the samples of every (tree, node) pair live in one flat ``rows``
  array, grouped contiguously by frontier node, so per-node sums, mins
  and maxima are single ``ufunc.reduceat`` calls over segment offsets
  (:class:`_RowFrontier`; a pair-set frontier holds member lists
  instead, :class:`_PairFrontier`);
* children are emitted in a deterministic node-major order, so parent
  child-pointers are assigned *before* the children exist and the whole
  forest materialises as flat node arrays in one pass;
* nodes are finally stably re-ordered tree-major, which *is* the
  :class:`repro.ml.tree.PackedTrees` layout — ``predict_packed``
  consumes the builder's output with no conversion.

Split search per level:

* **Extra-Trees** (:func:`build_extra_trees`): one uniform threshold per
  (frontier node, candidate feature), drawn as a single matrix; the
  children's summed squared error comes from masked running sums
  (``sse = sum(y^2) - sum(y)^2 / n`` on each side).  Given the pair
  set's factors (:class:`TrainingPairs`), the frontier starts as
  destination x source member sets: every node is a product ``D x S``,
  so its split search (:func:`_factored_split`) and its partition cost
  ``|D| + |S|`` members instead of ``|D| |S|`` rows, and a proven
  rounding bound plus a dense re-evaluation of ties keeps the trees
  bit-identical.  Rows are built once, at the hand-off to small nodes.
* **CART** (:func:`build_cart_forest`): exact best-split search using
  cumulative-sum SSE over feature columns sorted *within each frontier
  node* (one ``lexsort`` per feature per level), evaluating every
  boundary where the sorted feature value changes.

``tests/tree_reference.py`` keeps the textbook depth-first growers;
``tests/test_ml_tree_builder.py`` checks that, given the same stubbed
random draws, both builders make exactly the reference's splits, and
that factored growth matches dense growth bit for bit.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.ml.tree import PackedTrees, _partition

#: A level splitter: (rows, sizes, starts, tree ids) for the splittable
#: frontier -> (found, best_feature, best_threshold, go_left) where
#: ``go_left`` is per-row and the rest are per-node.  The tree ids let
#: multi-ensemble splitters (the stacked builder) route random draws to
#: the right per-ensemble generator; single-ensemble splitters ignore
#: them.
_SplitFn = Callable[
    [np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
]


def check_growth_limits(min_samples_split: int, max_depth: int | None) -> None:
    """Reject growth limits no tree can honour.

    Raises:
        ValueError: on ``min_samples_split < 2`` or ``max_depth < 1``.
    """
    if min_samples_split < 2:
        raise ValueError("min_samples_split must be at least 2")
    if max_depth is not None and max_depth < 1:
        raise ValueError("max_depth must be at least 1")


def _resolve_k(max_features: int | None, n_features: int) -> int:
    """Per-split candidate count: ``max_features`` clamped to ``[1, d]``."""
    k = max_features if max_features is not None else n_features
    return min(max(k, 1), n_features)


def _candidate_mask(rng: np.random.Generator, S: int, d: int, k: int) -> np.ndarray | None:
    """A random k-of-d feature subset per frontier node (None = all)."""
    if k >= d:
        return None
    # Rank d iid uniforms per node; the k smallest form a uniformly
    # random k-subset — the batched equivalent of per-node rng.choice.
    ranks = rng.random((S, d)).argsort(axis=1).argsort(axis=1)
    return ranks < k


def _split_sse(left_n, left_sum, left_sq, total_sum, total_sq, n_node):
    """Both children's summed squared error, ``sum(y^2) - sum(y)^2 / n``
    per side, from the left side's and the node's running sums."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return (
            left_sq
            - left_sum**2 / left_n
            + (total_sq - left_sq)
            - (total_sum - left_sum) ** 2 / (n_node - left_n)
        )


def _offsets(counts: np.ndarray) -> np.ndarray:
    """Start of each group in a flat array grouped by ``counts``."""
    return np.cumsum(counts) - counts


def _ragged_arange(counts: np.ndarray) -> np.ndarray:
    """``0..c-1`` for every ``c`` in ``counts``, concatenated."""
    return np.arange(counts.sum()) - np.repeat(_offsets(counts), counts)


#: Training-pair count (``m * m``) from which
#: :meth:`repro.ml.extra_trees.ExtraTreesRegressor.fit` grows a
#: :class:`TrainingPairs` set over its factors.  Below it the factored
#: split's fixed per-level cost eats the saved rows.  Measured with the
#: 24-tree Arrow surrogate (``min_samples_split=6``) on the pair sets of
#: multicloud HybridBO and AugmentedBO searches, 2-vCPU x86 VM (dense
#: time / factored time, best of 5): 0.7x at m = 8, 0.9x at m = 12-14,
#: 1.0-1.15x at m = 15-18, 1.1-1.3x at m = 19-21, 1.6-2.3x at m = 22-26
#: and 2.2-2.8x at m = 33-39.  At m = 20 the gain is clear, and the
#: 18-type aws-2017 searches (m <= 18) stay dense.
FACTORED_MIN_TRAIN_PAIRS = 400

#: Mean rows per splittable node below which a pair-set frontier turns
#: into rows for good: small nodes hold few rows per factor member, so
#: the factors save less than a factored level's fixed cost.  Measured
#: on the 60 pair-set fits (m = 20-39) of three multicloud HybridBO
#: searches, 24 trees, ``min_samples_split=6``, 2-vCPU x86 VM (sum of
#: per-fit best of 3, in-process alternation): against 16 rows, 8 rows
#: took 1.01x, 10 rows 0.98x, 12 rows 0.97x, 14 rows 0.97x and 24 rows
#: 1.11x; a level of ~1,000 nodes at ~16 rows each costs ~8.5 ms
#: factored against ~11.5 ms dense, and below ~11 rows the dense level
#: is cheaper.
FACTORED_HANDOFF_ROWS = 12

#: Unit roundoff of float64.
_U = 2.0**-53


@dataclass(frozen=True)
class TrainingPairs:
    """The ``m * m`` pair training set ``(X, y)``, held as factors.

    Arrow's surrogate trains on every ordered (source, destination) pair
    of the ``m`` measured VMs, source-major: row ``s * m + t`` is
    ``[dest[t] | source[s]]`` with target ``a[t] - b[s]`` (log ratios
    take ``b = a``, absolute targets ``b = 0``).

    Attributes:
        dest: ``(m, dest width)`` destination rows.
        source: ``(m, source width)`` source rows.
        a: ``(m,)`` destination target terms.
        b: ``(m,)`` source target terms.
    """

    dest: np.ndarray
    source: np.ndarray
    a: np.ndarray
    b: np.ndarray

    def materialize(self) -> tuple[np.ndarray, np.ndarray]:
        """The dense ``(X, y)``, source-major."""
        m = self.a.size
        split = self.dest.shape[1]
        X = np.empty((m, m, split + self.source.shape[1]))
        X[:, :, :split] = self.dest[None, :, :]
        X[:, :, split:] = self.source[:, None, :]
        y = self.a[None, :] - self.b[:, None]
        return X.reshape(m * m, -1), y.reshape(-1)


def _product_rows(
    d_start: np.ndarray, n_dest: np.ndarray, s_start: np.ndarray, n_src: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Where the factor members of every row of products ``D x S`` sit.

    Node ``i``'s destination members are positions ``d_start[i]`` on
    (``n_dest[i]`` of them) of a flat member array, its source members
    positions ``s_start[i]`` on.  Returns ``(d_at, s_at)``, one entry per
    row: nodes in turn, each node's rows source-major — its dense order.
    """
    s_at = np.repeat(s_start, n_src) + _ragged_arange(n_src)
    # Each source member's run of rows pairs it with all of the node's
    # destination members.
    run = np.repeat(n_dest, n_src)
    d_at = np.repeat(np.repeat(d_start, n_src) - _offsets(run), run) + np.arange(run.sum())
    return d_at, np.repeat(s_at, run)


class _RowFrontier:
    """A level's nodes as one flat list of sample rows, grouped by node.

    ``split_fn`` searches the splittable nodes' rows; children keep
    their parent's row order (a stable partition).
    """

    def __init__(
        self, y: np.ndarray, rows: np.ndarray, sizes: np.ndarray, split_fn: _SplitFn
    ):
        self.y, self.rows, self.sizes, self.split_fn = y, rows, sizes, split_fn
        self.starts = _offsets(sizes)
        self.yl = y[rows]

    def y_range(self) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.minimum.reduceat(self.yl, self.starts),
            np.maximum.reduceat(self.yl, self.starts),
        )

    def settle(self, splittable: np.ndarray) -> _RowFrontier:
        return self

    def node_sums(self) -> np.ndarray:
        return np.add.reduceat(self.yl, self.starts)

    def split(
        self, splittable: np.ndarray, tree2: np.ndarray, sum_y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, _RowFrontier | None]:
        """``(found, feature, threshold)`` per splittable node, and the
        children (left then right per split node) or ``None``."""
        r2 = self.rows[np.repeat(splittable, self.sizes)]
        sizes2 = self.sizes[splittable]
        starts2 = np.zeros(sizes2.size + 1, dtype=np.int64)
        np.cumsum(sizes2, out=starts2[1:])
        found, best_feature, best_threshold, go_left = self.split_fn(
            r2, sizes2, starts2, tree2
        )
        if not found.any():
            return found, best_feature, best_threshold, None
        node_of_row = np.repeat(np.arange(sizes2.size), sizes2)
        left_n = np.add.reduceat(go_left.astype(np.int64), starts2[:-1])
        keep = found[node_of_row]
        # Stable sort by (node, side) groups each split node's rows into
        # its left then right child, preserving order.
        key = node_of_row[keep] * 2 + (1 - go_left[keep])
        next_sizes = np.empty(2 * int(found.sum()), dtype=np.int64)
        next_sizes[0::2] = left_n[found]
        next_sizes[1::2] = sizes2[found] - left_n[found]
        children = _RowFrontier(
            self.y, r2[keep][np.argsort(key, kind="stable")], next_sizes, self.split_fn
        )
        return found, best_feature, best_threshold, children


@dataclass(frozen=True)
class _PairGrowth:
    """What every level of one pair-set fit shares: the pair set, its
    factor tables feature-major (``(width, m)``), the dense targets, the
    candidate count, the generator, and the dense split for the hand-off."""

    pairs: TrainingPairs
    tables: tuple[np.ndarray, np.ndarray]
    y: np.ndarray
    k: int
    rng: np.random.Generator
    dense_split: _SplitFn


class _PairFrontier:
    """A level's nodes of a pair-set forest as products ``D x S``.

    A destination split partitions a node's destination members and a
    source split its source members, so from the roots (every tree:
    all ``m`` of each) every node is the product of its two member
    lists, held flat and grouped by node, each ascending — so the rows
    ``s * m + t`` a node holds, source-major, are ascending too: the
    dense builder's order.  Sizes and ``ymin``/``ymax`` come from the
    factors; node sums from the rows generated in that order.  Once a
    level's mean splittable node holds fewer than
    :data:`FACTORED_HANDOFF_ROWS` rows, :meth:`settle` hands the level
    to a :class:`_RowFrontier` over the same rows.
    """

    def __init__(
        self,
        growth: _PairGrowth,
        d_items: np.ndarray,
        n_dest: np.ndarray,
        s_items: np.ndarray,
        n_src: np.ndarray,
    ):
        self.growth = growth
        self.d_items, self.n_dest = d_items, n_dest
        self.s_items, self.n_src = s_items, n_src
        self.sizes = n_dest * n_src
        self.d_start, self.s_start = _offsets(n_dest), _offsets(n_src)
        self.a_d, self.b_s = growth.pairs.a[d_items], growth.pairs.b[s_items]

    def y_range(self) -> tuple[np.ndarray, np.ndarray]:
        # Rounding is monotone, so the extreme fl(a_t - b_s) come from
        # the extreme factor terms.
        a_lo = np.minimum.reduceat(self.a_d, self.d_start)
        a_hi = np.maximum.reduceat(self.a_d, self.d_start)
        b_lo = np.minimum.reduceat(self.b_s, self.s_start)
        b_hi = np.maximum.reduceat(self.b_s, self.s_start)
        return a_lo - b_hi, a_hi - b_lo

    def _rows(self) -> tuple[np.ndarray, np.ndarray]:
        return _product_rows(self.d_start, self.n_dest, self.s_start, self.n_src)

    def settle(self, splittable: np.ndarray) -> _PairFrontier | _RowFrontier:
        n_split = np.count_nonzero(splittable)
        if self.sizes[splittable].sum() >= FACTORED_HANDOFF_ROWS * n_split:
            return self
        d_at, s_at = self._rows()
        growth = self.growth
        rows = self.s_items[s_at] * growth.pairs.a.size + self.d_items[d_at]
        return _RowFrontier(growth.y, rows, self.sizes, growth.dense_split)

    def node_sums(self) -> np.ndarray:
        d_at, s_at = self._rows()
        return np.add.reduceat(self.a_d[d_at] - self.b_s[s_at], _offsets(self.sizes))

    def split(
        self, splittable: np.ndarray, tree2: np.ndarray, sum_y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, _PairFrontier | None]:
        F = self.sizes.size
        keep_d = splittable[np.repeat(np.arange(F), self.n_dest)]
        keep_s = splittable[np.repeat(np.arange(F), self.n_src)]
        d_member, s_member = self.d_items[keep_d], self.s_items[keep_s]
        n_dest, n_src = self.n_dest[splittable], self.n_src[splittable]
        growth = self.growth
        pairs = growth.pairs
        found, best, best_threshold = _factored_split(
            pairs, growth.tables, growth.k, growth.rng, d_member, n_dest, s_member, n_src,
            sum_y[splittable],
        )
        n_found = int(found.sum())
        if not n_found:
            return found, best, best_threshold, None
        S = n_dest.size
        split = pairs.dest.shape[1]
        rank = np.cumsum(found) - 1
        on_dest = found & (best < split)
        on_src = found & ~on_dest
        d_items, d_child = _partition(
            d_member, np.repeat(np.arange(S), n_dest), on_dest, on_src, rank, n_found,
            pairs.dest, best, best_threshold,
        )
        s_items, s_child = _partition(
            s_member, np.repeat(np.arange(S), n_src), on_src, on_dest, rank, n_found,
            pairs.source, best - split, best_threshold,
        )
        children = _PairFrontier(
            growth,
            *_interleave(d_items, d_child, n_found),
            *_interleave(s_items, s_child, n_found),
        )
        return found, best, best_threshold, children


def _interleave(
    items: np.ndarray, child: np.ndarray, n_found: int
) -> tuple[np.ndarray, np.ndarray]:
    """Members :func:`~repro.ml.tree._partition` grouped all left
    children then all right ones, regrouped left, right per split node
    (stable, so each child's members stay ascending), and their counts."""
    child = 2 * child - np.where(child >= n_found, 2 * n_found - 1, 0)
    order = np.argsort(child, kind="stable")
    return items[order], np.bincount(child, minlength=2 * n_found)


def _factored_split(
    pairs: TrainingPairs,
    tables: tuple[np.ndarray, np.ndarray],
    k: int,
    rng: np.random.Generator,
    d_member: np.ndarray,
    n_dest: np.ndarray,
    s_member: np.ndarray,
    n_src: np.ndarray,
    total_sum: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Extra-Trees level split of ``build_extra_trees``, searched over
    pair factors and bit-identical to the dense one.

    Each node is a product ``D x S``: ``n_dest`` members of ``d_member``
    and ``n_src`` of ``s_member``, grouped by node; ``total_sum`` is each
    node's dense y sum.  Column ranges, thresholds (from the same draws),
    counts and validity are exact over the factors.  Candidates are
    ranked by the factored SSE (:func:`_factored_sse`); those within its
    bound ``B`` of the minimum go to :func:`_resolve_ties`.  Returns
    ``(found, best_feature, best_threshold)`` per node.
    """
    S = n_dest.size
    split = pairs.dest.shape[1]
    d_node, s_node = np.repeat(np.arange(S), n_dest), np.repeat(np.arange(S), n_src)
    # Feature-major (column, member) tables: per-member terms broadcast
    # along the contiguous axis, and each column reduces on its own.
    Xd, Xs = tables[0][:, d_member], tables[1][:, s_member]
    d_start, s_start = _offsets(n_dest), _offsets(n_src)
    fmin = np.vstack([
        np.minimum.reduceat(Xd, d_start, axis=1), np.minimum.reduceat(Xs, s_start, axis=1)
    ])
    fmax = np.vstack([
        np.maximum.reduceat(Xd, d_start, axis=1), np.maximum.reduceat(Xs, s_start, axis=1)
    ])
    d = fmin.shape[0]
    candidates = _candidate_mask(rng, S, d, k)
    # The node-major draws, transposed: the same values, elementwise.
    thresholds = fmin + rng.uniform(size=(S, d)).T * (fmax - fmin)
    go_d = Xd <= thresholds[:split, d_node]
    go_s = Xs <= thresholds[split:, s_node]

    a_d, b_s = pairs.a[d_member], pairs.b[s_member]
    sse, valid, bound = _factored_sse(go_d, go_s, a_d, b_s, n_dest, n_src)
    valid &= (fmin < fmax).T
    if candidates is not None:
        valid &= candidates
    sse = np.where(valid, sse, np.inf)
    ambiguous = valid & ~(sse > (sse.min(axis=1) + bound)[:, None])
    n_ambiguous = ambiguous.sum(axis=1)
    best = np.argmax(ambiguous, axis=1)
    found = n_ambiguous > 0
    tied = np.flatnonzero(n_ambiguous > 1)
    if tied.size:
        # All members' go flags in one table, destinations then sources,
        # and where each node's members of either factor sit in it.
        go = np.zeros((d, d_member.size + s_member.size), dtype=bool)
        go[:split, : d_member.size] = go_d
        go[split:, d_member.size :] = go_s
        at = np.stack([d_start, d_member.size + s_start], axis=1)
        count = np.stack([n_dest, n_src], axis=1)
        best[tied], found[tied] = _resolve_ties(
            a_d, b_s, go, at, count, tied, ambiguous[tied], split, total_sum
        )
    return found, best, thresholds[best, np.arange(S)]


def _factored_sse(
    go_d: np.ndarray,
    go_s: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    n_dest: np.ndarray,
    n_src: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Children's SSE of every (node, candidate) from the pair factors.

    ``go_d``/``go_s`` hold the destination/source members' go-left flags,
    one row per candidate column (feature-major), and ``a``/``b`` their
    target terms, grouped by node (``n_dest``/``n_src`` members each).
    Returns, node-major, the SSE from the
    product identity ``SSE(D x S) = |S| ss(a_D) + |D| ss(b_S)`` (``ss``
    the sum of squares about each factor's midpoint), whether each
    candidate sends rows both ways, and each node's rounding bound
    ``B = 256 gamma_{n+8} n M^2``: ``n`` rows, ``M`` the largest ``|y|``
    or centred term, ``gamma_k = k u / (1 - k u)``.

    Both the dense and this float SSE lie within ``B / 4`` of the exact
    SSE of the node's ``y = fl(a_t - b_s)``.  Each float sum either
    formula takes adds at most ``n`` terms of magnitude ``<= M^2``, so
    each of its ~10 roundings errs by at most ``gamma_n n M^2``: about
    23 such units for the dense formula and 44 here, counting the
    ``|S|``/``|D|`` weights and the rounding of ``y`` and of the
    centring — both below 64.
    """
    d_start, s_start = _offsets(n_dest), _offsets(n_src)
    a_hi, a_lo = np.maximum.reduceat(a, d_start), np.minimum.reduceat(a, d_start)
    b_hi, b_lo = np.maximum.reduceat(b, s_start), np.minimum.reduceat(b, s_start)
    a_mid, b_mid = a_lo + (a_hi - a_lo) / 2, b_lo + (b_hi - b_lo) / 2

    def factor_sse(go, v, starts, count):
        go_f = go.astype(float)
        left_n = np.add.reduceat(go_f, starts, axis=1)
        left_sum = np.add.reduceat(go_f * v, starts, axis=1)
        left_sq = np.add.reduceat(go_f * (v * v), starts, axis=1)
        total_sum, total_sq = np.add.reduceat(v, starts), np.add.reduceat(v * v, starts)
        n_f = count.astype(float)
        children = _split_sse(left_n, left_sum, left_sq, total_sum, total_sq, n_f)
        whole = total_sq - total_sum**2 / count
        return children, whole, (left_n > 0) & (left_n < n_f)

    ss_d, whole_a, valid_d = factor_sse(go_d, a - np.repeat(a_mid, n_dest), d_start, n_dest)
    ss_s, whole_b, valid_s = factor_sse(go_s, b - np.repeat(b_mid, n_src), s_start, n_src)
    nd, ns = n_dest.astype(float), n_src.astype(float)
    sse = np.vstack([ns * ss_d + nd * whole_b, nd * ss_s + ns * whole_a]).T

    # Rounding is monotone, so the extreme fl(a_t - b_s) and centred
    # terms come from the extreme factor terms.
    M = np.max(np.abs([
        a_hi - b_lo, a_lo - b_hi, a_hi - a_mid, a_lo - a_mid, b_hi - b_mid, b_lo - b_mid
    ]), axis=0)
    n = (n_dest * n_src).astype(float)
    gamma = (n + 8) * _U / (1 - (n + 8) * _U)
    # Floor M^2 so products that underflow stay covered; give up (all
    # candidates ambiguous) where the sums could overflow.
    scale = n * np.maximum(M * M, 2.0**-900)
    bound = np.where(n * scale < 2.0**1000, 256 * gamma * scale, np.inf)
    return sse, np.vstack([valid_d, valid_s]).T, bound


def _resolve_ties(
    a_d: np.ndarray,
    b_s: np.ndarray,
    go: np.ndarray,
    at: np.ndarray,
    count: np.ndarray,
    tied: np.ndarray,
    ambiguous: np.ndarray,
    split: int,
    total_sum: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The dense winner among each ``tied`` node's ambiguous candidates.

    ``go`` holds every factor member's go flags, destinations then
    sources; node ``i``'s members of factor ``f`` (0 destination, 1
    source) are rows ``at[i, f]`` on, and ``count[i, f]`` of them.
    ``a_d``/``b_s`` are the members' target terms and ``total_sum`` each
    node's dense y sum.  Candidates on the same factor with the same
    go-mask over its members route the same dense rows, so their dense
    SSE is the same float and the lowest feature index wins: masks are
    packed into 64-bit words and sorted (stably) by node, factor and
    words, and the first of each run of equal keys stands for its
    class.  One candidate per remaining class is re-evaluated with the
    dense formula over the node's rows, generated in dense order:
    ``reduceat`` reduces each segment on its own, so these sums carry
    the dense split's bits.  Returns ``(best, found)`` per tied node.
    """
    pair_node, feat = np.nonzero(ambiguous)  # node-major, features ascending
    node = tied[pair_node]
    factor = (feat >= split).astype(np.int64)
    length = count[node, factor]
    owner = np.repeat(np.arange(node.size), length)
    position = _ragged_arange(length)
    masks = np.zeros((node.size, 64 * -(-int(length.max()) // 64)), dtype=bool)
    masks[owner, position] = go[feat[owner], at[node, factor][owner] + position]
    words = np.packbits(masks, axis=1).view(np.uint64)
    order = np.lexsort((*words.T[::-1], factor, node))
    first = np.ones(node.size, dtype=bool)
    key_node, key_factor, key_words = node[order], factor[order], words[order]
    first[1:] = (
        (key_node[1:] != key_node[:-1])
        | (key_factor[1:] != key_factor[:-1])
        | (key_words[1:] != key_words[:-1]).any(axis=1)
    )
    rep = np.sort(order[first])  # one candidate per mask class: its lowest index
    n_classes = np.bincount(pair_node[rep], minlength=tied.size)
    best = feat[np.searchsorted(pair_node, np.arange(tied.size))]
    found = np.ones(tied.size, dtype=bool)
    rep = rep[n_classes[pair_node[rep]] > 1]
    if rep.size:
        redo, slot = np.unique(pair_node[rep], return_inverse=True)
        q = tied[redo]
        # The redone nodes' rows once each, and their dense sums of squares.
        d_at, s_at = _product_rows(
            at[q, 0], count[q, 0], at[q, 1] - a_d.size, count[q, 1]
        )
        yr = a_d[d_at] - b_s[s_at]
        yy = yr * yr
        seg = count[q, 0] * count[q, 1]
        starts = _offsets(seg)
        total_sq = np.add.reduceat(yy, starts)
        # Each class representative over its node's rows: position
        # ``pos`` reads the doubled node-row tables, destination members
        # in the first half and source members in the second.
        f = feat[rep]
        rseg = seg[slot]
        start = starts[slot] + (f >= split) * yr.size
        pos = np.repeat(start - _offsets(rseg), rseg) + np.arange(rseg.sum())
        member = np.concatenate([d_at, a_d.size + s_at])
        go_f = go.ravel()[np.repeat(f * go.shape[1], rseg) + member[pos]].astype(float)
        yv, yyv = np.tile(yr, 2)[pos], np.tile(yy, 2)[pos]
        rstarts = _offsets(rseg)
        sse = _split_sse(
            np.add.reduceat(go_f, rstarts),
            np.add.reduceat(go_f * yv, rstarts),
            np.add.reduceat(go_f * yyv, rstarts),
            total_sum[q][slot],
            total_sq[slot],
            rseg.astype(float),
        )
        table = np.full((redo.size, ambiguous.shape[1]), np.inf)
        table[slot, f] = sse
        best[redo] = np.argmin(table, axis=1)
        found[redo] = np.isfinite(table[np.arange(redo.size), best[redo]])
    return best, found


def _grow(
    frontier: _RowFrontier | _PairFrontier,
    n_trees: int,
    min_samples_split: int,
    max_depth: int | None,
) -> PackedTrees:
    """Breadth-first forest growth from a root frontier of one node per
    tree."""
    level_feature: list[np.ndarray] = []
    level_threshold: list[np.ndarray] = []
    level_left: list[np.ndarray] = []
    level_right: list[np.ndarray] = []
    level_value: list[np.ndarray] = []
    level_tree: list[np.ndarray] = []

    tree_ids = np.arange(n_trees, dtype=np.int64)
    total_nodes = 0
    depth = 0
    while frontier is not None and frontier.sizes.size:
        sizes = frontier.sizes
        F = sizes.size
        ymin, ymax = frontier.y_range()
        splittable = (sizes >= min_samples_split) & (ymin < ymax)
        if max_depth is not None and depth >= max_depth:
            splittable[:] = False
        frontier = frontier.settle(splittable)
        sum_y = frontier.node_sums()
        values = sum_y / sizes

        feature = np.full(F, -1, dtype=np.int64)
        threshold = np.zeros(F)
        left = np.full(F, -1, dtype=np.int64)
        right = np.full(F, -1, dtype=np.int64)
        children = None
        next_tree = tree_ids[:0]

        if splittable.any():
            sidx = np.flatnonzero(splittable)
            found, best_feature, best_threshold, children = frontier.split(
                splittable, tree_ids[sidx], sum_y
            )
            fidx = sidx[found]
            n_found = fidx.size
            if n_found:
                feature[fidx] = best_feature[found]
                threshold[fidx] = best_threshold[found]
                # Children are emitted next level in node-major order
                # (left before right), so their ids are known now.
                child_base = total_nodes + F + 2 * np.arange(n_found, dtype=np.int64)
                left[fidx] = child_base
                right[fidx] = child_base + 1
                next_tree = np.repeat(tree_ids[fidx], 2)

        level_feature.append(feature)
        level_threshold.append(threshold)
        level_left.append(left)
        level_right.append(right)
        level_value.append(values)
        level_tree.append(tree_ids)
        total_nodes += F
        frontier, tree_ids = children, next_tree
        depth += 1

    g_tree = np.concatenate(level_tree)
    g_left = np.concatenate(level_left)
    g_right = np.concatenate(level_right)
    # Re-order breadth-first interleaved nodes tree-major (stable, so
    # each tree's nodes stay in its own breadth-first order) — this is
    # exactly the packed layout, so no further conversion is needed.
    order = np.argsort(g_tree, kind="stable")
    perm = np.empty(total_nodes, dtype=np.int64)
    perm[order] = np.arange(total_nodes, dtype=np.int64)
    g_left = np.where(g_left >= 0, perm[g_left], -1)[order]
    g_right = np.where(g_right >= 0, perm[g_right], -1)[order]
    # A tree's first breadth-first node is its root, emitted in level 0.
    return PackedTrees(
        feature=np.concatenate(level_feature)[order],
        threshold=np.concatenate(level_threshold)[order],
        left=g_left,
        right=g_right,
        value=np.concatenate(level_value)[order],
        roots=perm[:n_trees],
    )


def build_extra_trees(
    X: np.ndarray,
    y: np.ndarray,
    n_trees: int,
    *,
    max_features: int | None = None,
    min_samples_split: int = 2,
    max_depth: int | None = None,
    rng: np.random.Generator,
    pairs: TrainingPairs | None = None,
) -> PackedTrees:
    """Grow a whole Extra-Trees ensemble level-synchronously.

    All trees train on the full ``(X, y)`` sample (classic Extra-Trees,
    no bootstrap); each level draws one uniform threshold per (frontier
    node, candidate feature) and keeps the SSE-minimising split.

    ``pairs``, when given, must describe ``(X, y)`` as a pair set
    (``X, y == pairs.materialize()``, bit for bit); the frontier then
    starts as destination x source member sets (:class:`_PairFrontier`)
    and turns into rows once, at the first level whose mean splittable
    node holds fewer than :data:`FACTORED_HANDOFF_ROWS` rows.  The trees
    are bit-identical either way.

    ``X``/``y`` must already be coerced
    (:func:`repro.ml.tree.coerce_training_data`).
    """
    n, d = X.shape
    k = _resolve_k(max_features, d)

    def split(
        r2: np.ndarray, sizes2: np.ndarray, starts2: np.ndarray, tree2: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        S = sizes2.size
        if d == 0:
            none = np.zeros(S, dtype=bool)
            return none, np.full(S, -1), np.zeros(S), np.zeros(r2.size, dtype=bool)
        Xr = X[r2]
        yr = y[r2]
        node_of_row = np.repeat(np.arange(S), sizes2)
        fmin = np.minimum.reduceat(Xr, starts2[:-1], axis=0)
        fmax = np.maximum.reduceat(Xr, starts2[:-1], axis=0)
        candidates = _candidate_mask(rng, S, d, k)
        thresholds = fmin + rng.uniform(size=(S, d)) * (fmax - fmin)
        go = Xr <= thresholds[node_of_row]
        go_f = go.astype(float)
        left_n = np.add.reduceat(go_f, starts2[:-1], axis=0)
        left_sum = np.add.reduceat(go_f * yr[:, None], starts2[:-1], axis=0)
        left_sq = np.add.reduceat(go_f * (yr * yr)[:, None], starts2[:-1], axis=0)
        total_sum = np.add.reduceat(yr, starts2[:-1])
        total_sq = np.add.reduceat(yr * yr, starts2[:-1])
        n_node = sizes2[:, None].astype(float)
        valid = (fmin < fmax) & (left_n > 0) & (left_n < n_node)
        if candidates is not None:
            valid &= candidates
        sse = _split_sse(
            left_n, left_sum, left_sq, total_sum[:, None], total_sq[:, None], n_node
        )
        sse = np.where(valid, sse, np.inf)
        best = np.argmin(sse, axis=1)
        node_index = np.arange(S)
        found = np.isfinite(sse[node_index, best])
        best_threshold = thresholds[node_index, best]
        go_left = go[np.arange(r2.size), best[node_of_row]]
        return found, best, best_threshold, go_left

    if pairs is not None and d > 0:
        m = pairs.a.size
        members = np.tile(np.arange(m, dtype=np.int64), n_trees)
        counts = np.full(n_trees, m, dtype=np.int64)
        tables = (np.ascontiguousarray(pairs.dest.T), np.ascontiguousarray(pairs.source.T))
        growth = _PairGrowth(pairs, tables, y, k, rng, split)
        frontier = _PairFrontier(growth, members, counts, members, counts)
    else:
        rows = np.tile(np.arange(n, dtype=np.int64), n_trees)
        frontier = _RowFrontier(y, rows, np.full(n_trees, n, dtype=np.int64), split)
    return _grow(frontier, n_trees, min_samples_split, max_depth)


def build_cart_forest(
    X: np.ndarray,
    y: np.ndarray,
    n_trees: int,
    *,
    max_features: int | None = None,
    min_samples_split: int = 2,
    max_depth: int | None = None,
    rng: np.random.Generator,
    sample_indices: np.ndarray | None = None,
) -> PackedTrees:
    """Grow a CART forest level-synchronously with exact best splits.

    Args:
        sample_indices: optional ``(n_trees, m)`` row multisets (the
            bootstrap resamples of a random forest); ``None`` trains
            every tree on the full sample.

    ``X``/``y`` must already be coerced
    (:func:`repro.ml.tree.coerce_training_data`).
    """
    n, d = X.shape
    k = _resolve_k(max_features, d)

    def split(
        r2: np.ndarray, sizes2: np.ndarray, starts2: np.ndarray, tree2: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        S = sizes2.size
        R = r2.size
        if d == 0:
            none = np.zeros(S, dtype=bool)
            return none, np.full(S, -1), np.zeros(S), np.zeros(R, dtype=bool)
        Xr = X[r2]
        yr = y[r2]
        node_of_row = np.repeat(np.arange(S), sizes2)
        candidates = _candidate_mask(rng, S, d, k)
        position = np.arange(R) - np.repeat(starts2[:-1], sizes2)
        total = np.add.reduceat(yr, starts2[:-1])
        total_row = np.repeat(total, sizes2)
        size_row = np.repeat(sizes2, sizes2).astype(float)
        segment_offset = np.concatenate([[0.0], np.cumsum(total)[:-1]])

        best_score = np.full(S, np.inf)
        best_feature = np.full(S, -1, dtype=np.int64)
        best_threshold = np.zeros(S)
        row_index = np.arange(R)
        for j in range(d):
            if candidates is not None and not candidates[:, j].any():
                continue
            column = Xr[:, j]
            # Sort rows by feature value *within* each frontier node.
            order = np.lexsort((column, node_of_row))
            sorted_col = column[order]
            sorted_y = yr[order]
            prefix = np.cumsum(sorted_y) - np.repeat(segment_offset, sizes2)
            # Cutting before sorted position p leaves `position` rows on
            # the left with sum `prefix - sorted_y` (prefix excluding p).
            left_sum = prefix - sorted_y
            previous = np.empty_like(sorted_col)
            previous[0] = np.inf
            previous[1:] = sorted_col[:-1]
            valid = (position >= 1) & (previous < sorted_col)
            if candidates is not None:
                valid &= candidates[node_of_row, j]
            with np.errstate(divide="ignore", invalid="ignore"):
                score = (
                    -(left_sum**2) / position
                    - (total_row - left_sum) ** 2 / (size_row - position)
                )
            score = np.where(valid, score, np.inf)
            segment_min = np.minimum.reduceat(score, starts2[:-1])
            has_cut = np.isfinite(segment_min)
            if not has_cut.any():
                continue
            # First position attaining the per-node minimum.
            at_min = score == np.repeat(segment_min, sizes2)
            first = np.minimum.reduceat(
                np.where(at_min, row_index, R), starts2[:-1]
            )
            first = np.clip(first, 1, R - 1)
            threshold_j = 0.5 * (sorted_col[first - 1] + sorted_col[first])
            better = has_cut & (segment_min < best_score)
            best_score = np.where(better, segment_min, best_score)
            best_feature = np.where(better, j, best_feature)
            best_threshold = np.where(better, threshold_j, best_threshold)
        found = best_feature >= 0
        go_left = (
            Xr[row_index, np.maximum(best_feature, 0)[node_of_row]]
            <= best_threshold[node_of_row]
        )
        return found, best_feature, best_threshold, go_left

    if sample_indices is None:
        rows = np.tile(np.arange(n, dtype=np.int64), n_trees)
        sizes = np.full(n_trees, n, dtype=np.int64)
    else:
        sample_indices = np.asarray(sample_indices, dtype=np.int64)
        if sample_indices.ndim != 2 or sample_indices.shape[0] != n_trees:
            raise ValueError(
                f"sample_indices must be ({n_trees}, m), "
                f"got shape {sample_indices.shape}"
            )
        rows = sample_indices.reshape(-1)
        sizes = np.full(n_trees, sample_indices.shape[1], dtype=np.int64)
    return _grow(_RowFrontier(y, rows, sizes, split), n_trees, min_samples_split, max_depth)


@dataclass(frozen=True)
class StackedGrowTask:
    """One ensemble's growth request for :func:`build_extra_trees_stacked`.

    ``X``/``y`` must already be coerced
    (:func:`repro.ml.tree.coerce_training_data`); ``rng`` is the
    ensemble's own generator — the stacked builder consumes from it
    exactly the draws (same sizes, same order) the per-ensemble
    :func:`build_extra_trees` would, which is what makes the stacked
    result bit-identical.
    """

    X: np.ndarray
    y: np.ndarray
    n_trees: int
    rng: np.random.Generator
    max_features: int | None = None
    min_samples_split: int = 2
    max_depth: int | None = None


def build_extra_trees_stacked(
    tasks: list[StackedGrowTask],
) -> list[PackedTrees]:
    """Grow many Extra-Trees ensembles in one level-synchronous pass.

    All tasks' frontiers are concatenated (task-major) into a single
    global frontier, so each depth level costs one batched numpy split
    search for *every* ensemble of *every* search instead of one per
    ensemble — the per-level dispatch overhead that dominates small-n
    fits is paid once, not S times.

    Bit-identity: every per-node quantity (reduceat segment sums,
    thresholds, SSE, child ordering) is segment-local, and each task's
    random draws come from its own ``rng`` in the exact per-level order
    the per-ensemble builder uses, so each returned
    :class:`~repro.ml.tree.PackedTrees` equals — bit for bit — what
    :func:`build_extra_trees` would have produced for that task alone.

    Constraints: all tasks must share the feature dimension,
    ``min_samples_split`` and ``max_depth`` (the lock-step levels apply
    those globally).  Raises ``ValueError`` otherwise — callers fall
    back to per-ensemble builds.
    """
    if not tasks:
        return []
    d = tasks[0].X.shape[1]
    min_samples_split = tasks[0].min_samples_split
    max_depth = tasks[0].max_depth
    for task in tasks:
        if task.X.shape[1] != d:
            raise ValueError(
                "stacked growth needs one shared feature dimension; "
                f"got {task.X.shape[1]} and {d}"
            )
        if (
            task.min_samples_split != min_samples_split
            or task.max_depth != max_depth
        ):
            raise ValueError(
                "stacked growth needs shared min_samples_split/max_depth"
            )
    # One global sample store; each task's rows are offset into it.  The
    # feature matrix is kept feature-major (d, n): the stacked frontier
    # is long enough that ``reduceat`` along the contiguous row axis is
    # measurably faster than the row-major axis-0 form, and every
    # reduction is still segment-local so the sums are bit-identical.
    X = np.ascontiguousarray(np.vstack([task.X for task in tasks]).T)
    y = np.concatenate([task.y for task in tasks])
    n_rows = np.array([task.X.shape[0] for task in tasks], dtype=np.int64)
    row_offsets = np.concatenate([[0], np.cumsum(n_rows)[:-1]])
    tree_counts = np.array([task.n_trees for task in tasks], dtype=np.int64)
    # Global tree ids are task-major: task t owns the contiguous id range
    # [tree_bounds[t], tree_bounds[t + 1]).
    tree_bounds = np.concatenate([[0], np.cumsum(tree_counts)])
    n_trees_total = int(tree_bounds[-1])
    ks = [_resolve_k(task.max_features, d) for task in tasks]

    def split(
        r2: np.ndarray, sizes2: np.ndarray, starts2: np.ndarray, tree2: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        S = sizes2.size
        if d == 0:
            none = np.zeros(S, dtype=bool)
            return none, np.full(S, -1), np.zeros(S), np.zeros(r2.size, dtype=bool)
        # All per-level matrices are feature-major (d, R) / (d, S): the
        # reductions run over the contiguous axis, which is what makes
        # the stacked level cheaper than S per-ensemble levels.  Every
        # value is the transpose of the per-ensemble builder's — the
        # comparisons and segment sums pair the same operands in the
        # same order, so the split decisions are bit-identical.
        Xr = X[:, r2]
        yr = y[r2]
        node_of_row = np.repeat(np.arange(S), sizes2)
        fmin = np.minimum.reduceat(Xr, starts2[:-1], axis=1)
        fmax = np.maximum.reduceat(Xr, starts2[:-1], axis=1)
        # Route the random draws per task, in task order.  Frontier tree
        # ids are nondecreasing (children inherit their parents' order),
        # so each task's splittable nodes form one contiguous block and
        # its rng sees exactly the per-level draw sequence the
        # per-ensemble builder consumes (node-major (S, d) draws,
        # transposed after the fact — same values, different layout).
        bounds = np.searchsorted(tree2, tree_bounds)
        candidates: np.ndarray | None = None
        uniform = np.empty((S, d))
        for t, task in enumerate(tasks):
            lo, hi = int(bounds[t]), int(bounds[t + 1])
            if lo == hi:
                continue
            mask = _candidate_mask(task.rng, hi - lo, d, ks[t])
            if mask is not None:
                if candidates is None:
                    candidates = np.ones((d, S), dtype=bool)
                candidates[:, lo:hi] = mask.T
            uniform[lo:hi] = task.rng.uniform(size=(hi - lo, d))
        thresholds = fmin + uniform.T * (fmax - fmin)
        go = Xr <= thresholds[:, node_of_row]
        # One segment reduction covers all three per-(node, feature)
        # sums: rows 0..d hold the left-side counts, d..2d the masked
        # y sums, 2d..3d the masked y^2 sums.  Rows reduce
        # independently, so each block equals its own reduceat (and the
        # bool -> float products equal the per-ensemble builder's
        # ``go_f * y`` values exactly).
        stacked = np.empty((3 * d, r2.size))
        stacked[:d] = go
        np.multiply(go, yr[None, :], out=stacked[d : 2 * d])
        np.multiply(go, (yr * yr)[None, :], out=stacked[2 * d :])
        sums = np.add.reduceat(stacked, starts2[:-1], axis=1)
        left_n = sums[:d]
        left_sum = sums[d : 2 * d]
        left_sq = sums[2 * d :]
        total_sum = np.add.reduceat(yr, starts2[:-1])
        total_sq = np.add.reduceat(yr * yr, starts2[:-1])
        n_node = sizes2[None, :].astype(float)
        valid = (fmin < fmax) & (left_n > 0) & (left_n < n_node)
        if candidates is not None:
            valid &= candidates
        sse = _split_sse(
            left_n, left_sum, left_sq, total_sum[None, :], total_sq[None, :], n_node
        )
        sse = np.where(valid, sse, np.inf)
        best = np.argmin(sse, axis=0)
        node_index = np.arange(S)
        found = np.isfinite(sse[best, node_index])
        best_threshold = thresholds[best, node_index]
        go_left = go[best[node_of_row], np.arange(r2.size)]
        return found, best, best_threshold, go_left

    rows = np.concatenate(
        [
            offset + np.tile(np.arange(n, dtype=np.int64), int(count))
            for offset, n, count in zip(row_offsets, n_rows, tree_counts)
        ]
    )
    sizes = np.repeat(n_rows, tree_counts)
    built = _grow(
        _RowFrontier(y, rows, sizes, split), n_trees_total, min_samples_split, max_depth
    )

    # Carve the global tree-major forest back into per-task forests.
    # Packed nodes are contiguous per task (task-major tree ids), so each
    # task is one slice with child pointers rebased to its start.
    results: list[PackedTrees] = []
    span_bounds = np.append(built.roots, built.node_count)
    for t in range(len(tasks)):
        lo_tree, hi_tree = int(tree_bounds[t]), int(tree_bounds[t + 1])
        start = int(span_bounds[lo_tree])
        sl = slice(start, int(span_bounds[hi_tree]))
        left = built.left[sl]
        right = built.right[sl]
        results.append(
            PackedTrees(
                feature=built.feature[sl].copy(),
                threshold=built.threshold[sl].copy(),
                left=np.where(left >= 0, left - start, -1),
                right=np.where(right >= 0, right - start, -1),
                value=built.value[sl].copy(),
                roots=built.roots[lo_tree:hi_tree] - start,
            )
        )
    return results
