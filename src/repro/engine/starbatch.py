"""Batched star-distance evaluation — the engine's in-process fast path,
bit-identical to :class:`repro.ged.star.StarDistance` (tests assert ``==``):

* **Star columns** — a list's star profiles live in one append-only
  :class:`StarColumns` (per vertex: root-label id, degree, branch-mask
  words; per graph: vertex offset), a graph's rows filled with numpy by
  the first batch or filter call that reads them; a batch gathers its
  vertices by index.
* **Overlap by popcount** — a vertex pair costs ``max(deg_u, deg_v) −
  Σ_tok min(c_u, c_v)``.  The k-th copy of a branch token is its own
  column ``(token, k)``, so a star is a set of bits in ``⌈columns / 64⌉``
  words and the sum is ``popcount(mask_u & mask_v)``.  Column numbers
  never enter a count; a graph packed before the registry crossed a word
  has no bit past its words, so a batch ANDs the narrower width.
* **Rectangular assignment** — a Riesen–Bunke solution pairs each star of
  the smaller side with a distinct one and sends the rest to null stars,
  so its optimum is the larger side's ``Σ null`` plus an ``n_small ×
  n_large`` assignment of ``cost − null``; a long batch solves each run of
  equal-sized targets as one tensor.  Costs are integers far below 2⁵³:
  the sums are exact in any order, whichever optimum the solver picks.
"""

from __future__ import annotations

import threading
from itertools import chain
from typing import Sequence

import numpy as np

from repro import obs
from repro.bitset.kernel import num_words, word_counts
from repro.cascade.features import StageFeatures, _grown
from repro.ged.lsap import linear_sum_assignment
from repro.graphs.database import GraphList
from repro.graphs.graph import LabeledGraph

#: Batch graphs whose overlap block is materialized at once: a dud build's
#: temporaries stay near a megabyte (256 cost ~2 MB of peak, no speed).
_BLOCK_PROFILES = 128
#: Graphs packed at once: a fill's temporaries stay near 300 kB (one pack
#: of all 5 000 dud graphs cost a served deployment ~20 MB of peak).
_FILL_GRAPHS = 64
_ATTACH = threading.Lock()


def _intern(vocab: dict, keys: list) -> np.ndarray:
    """The id of every key in ``vocab``, adding new keys."""
    ids = list(map(vocab.get, keys))
    if None in ids:
        ids = [vocab.setdefault(key, len(vocab)) for key in keys]
    return np.array(ids, dtype=np.int64)


def _lookup(table, keys: np.ndarray):
    """``(table, ids)``: the id of each of ``keys`` in ``table`` — its keys
    sorted, their ids alongside, a last key above all — merging in keys it
    lacks, numbered on in order of first occurrence."""
    known, ids = table
    if (found := known[at := known.searchsorted(keys)] == keys).all():
        return table, ids[at]
    new, first = np.unique(keys[~found], return_index=True)
    numbers = len(ids) - 1 + first.argsort(kind="stable").argsort(kind="stable")
    at = known.searchsorted(new)
    known, ids = np.insert(known, at, new), np.insert(ids, at, numbers)
    return (known, ids), ids[known.searchsorted(keys)]


def _spans(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The indices ``starts[i] … starts[i] + sizes[i] − 1``, concatenated."""
    ends = sizes.cumsum()
    return np.arange(ends[-1]) - (ends - sizes - starts).repeat(sizes)


class StarColumns:
    """A list's star profiles as append-only columns, plus the
    :class:`StageFeatures` rows the same fill writes.  Row ``i`` is
    ``graphs[i]`` of the one list that fills it, written by the first call
    that asks for it; arrays are replaced, never shrunk, and a row is
    marked ready (a byte of :attr:`ready`, read without the lock) once
    written, so a reader of ready rows may read whichever array it finds."""

    def __init__(self):
        self._lock = threading.RLock()
        self._labels: dict[str, int] = {}
        self._edges: dict[str, int] = {}
        # Sorted keys edge << 32 | label → token, token << 32 | level → column.
        self._tokens = self._columns = np.array([2**63 - 1]), np.array([-1])
        self.column_count = 0  # (token, level) columns interned: the mask bits in use
        self.ready = bytearray()
        self.offsets = np.zeros(1, dtype=np.int64)
        self.roots = np.zeros(0, dtype=np.uint8)
        self.degrees = np.zeros(0, dtype=np.uint8)
        self.masks = np.zeros((0, 1), dtype=np.uint64)
        self.features = StageFeatures(self._labels)

    def fill(self, graphs, rows) -> None:
        """Make rows ``rows`` of ``graphs`` ready: append the spans of new
        graphs, then pack the rows not ready and scatter them to their
        spans."""
        rows = np.asarray(rows, dtype=np.int64)
        ready = np.frombuffer(self.ready, dtype=bool)
        if not rows.size or rows.max() < len(ready) and ready[rows].all():
            return  # read without the lock: a filter's repeat call
        with self._lock:
            count = len(self.ready)
            if len(graphs) > count:
                sizes = [g.num_nodes for g in graphs[count:]]
                self.offsets = np.append(self.offsets, self.offsets[-1] + np.cumsum(sizes))
                spare = int(self.offsets[-1])
                if spare > len(self.roots):  # appends leave an eighth spare
                    spare = max(spare, len(self.roots) * 9 // 8 if count else 0)
                    self.roots = _grown(self.roots, (spare,))
                    self.degrees = _grown(self.degrees, (spare,))
                    self.masks = _grown(self.masks, (spare, self.masks.shape[1]))
                self.ready = self.ready + bytes(len(graphs) - count)
            ready = np.frombuffer(self.ready, dtype=bool)
            todo = np.zeros_like(ready)
            todo[rows] = True  # not np.unique: it imports numpy.ma (~0.7 MB)
            rows = np.flatnonzero(todo & ~ready)
            for start in range(0, len(rows), _FILL_GRAPHS):
                self._write(graphs, rows[start:start + _FILL_GRAPHS], ready)

    def _write(self, graphs, rows: np.ndarray, ready: np.ndarray) -> None:
        """Pack ``rows`` of ``graphs`` and scatter them to their spans."""
        sizes, codes, degrees, masks = self.pack([graphs[row] for row in rows.tolist()])
        vertices = _spans(self.offsets[rows], sizes)
        if len(self._labels) > np.iinfo(self.roots.dtype).max:  # wider dtypes
            self.roots = self.roots.astype(np.min_scalar_type(len(self._labels)))
        if degrees.max(initial=0) > np.iinfo(self.degrees.dtype).max:
            self.degrees = self.degrees.astype(np.min_scalar_type(degrees.max()))
        if masks.shape[1] > self.masks.shape[1]:  # the registry crossed a word
            self.masks = _grown(self.masks, (len(self.masks), masks.shape[1]))
        self.roots[vertices] = codes
        self.degrees[vertices] = degrees
        self.masks[vertices, :masks.shape[1]] = masks
        self.features.write(len(ready), rows, sizes, codes, degrees)
        ready[rows] = True

    def pack(self, graphs):
        """``(sizes, label codes, degrees, masks)`` of ``graphs`` (at least
        one), flat over their vertices in order, interning new labels and
        columns."""
        with self._lock:
            sizes = np.array([g.num_nodes for g in graphs], dtype=np.int64)
            codes = _intern(self._labels, [x for g in graphs for x in g.node_labels])
            degrees = chain.from_iterable(g.degrees() for g in graphs)
            degrees = np.fromiter(degrees, np.int64, len(codes))
            neighbours, edges = zip(*(g.slots() for g in graphs))
            vertex = np.repeat(np.arange(len(codes)), degrees)
            # A slot's neighbour id counts from its graph's first vertex.
            neighbour = np.fromiter(chain.from_iterable(neighbours), np.int64, len(vertex))
            neighbour += np.repeat(sizes.cumsum() - sizes, sizes)[vertex]
            edge = _intern(self._edges, list(chain.from_iterable(edges)))
            self._tokens, tokens = _lookup(self._tokens, edge << 32 | codes[neighbour])
            # Slots by (vertex, token): a copy's level is its rank in its run.
            key = vertex * (int(tokens.max(initial=0)) + 1) + tokens
            order = key.argsort(kind="stable")
            key, vertex, tokens = key[order], vertex[order], tokens[order]
            level = np.arange(len(key)) - key.searchsorted(key)
            self._columns, column = _lookup(self._columns, tokens << 32 | level)
            self.column_count = len(self._columns[1]) - 1
            width = max(1, num_words(self.column_count))
        masks = np.zeros((len(codes), width), dtype=np.uint64)
        np.bitwise_or.at(masks, (vertex, column >> 6), np.left_shift(
            np.uint64(1), (column & 63).astype(np.uint64)
        ))
        return sizes, codes, degrees, masks


class BatchStarEvaluator:
    """Bit-identical :class:`StarDistance` values, a batch at a time.  Over
    a graph list (the engine's) it gathers the list's graphs — found by
    ``graph_id`` and an identity check — from its :class:`StarColumns`; a
    batch holding any other graph (every batch, over no list) is packed
    for the call by the same routine, and nothing of it is kept."""

    def __init__(self, normalized: bool = False, graphs=None):
        self.normalized = normalized
        self.graphs = graphs
        self._private = StarColumns()

    def columns(self) -> tuple[Sequence, StarColumns]:
        """``(owner list, store)``: a database's list reads its origin's
        store, made on first use; any other list (or none) a private one."""
        if not isinstance(self.graphs, GraphList):
            return self.graphs, self._private
        owner = self.graphs if self.graphs.origin is None else self.graphs.origin
        if owner.columns is None:
            with _ATTACH:
                if owner.columns is None:
                    owner.columns = StarColumns()
        return owner, owner.columns

    def fill(self, graphs) -> tuple[StarColumns, list[int]]:
        """Fill the rows of those ``graphs`` the list holds (found by
        ``graph_id`` and identity); ``(store, each graph's row or -1)``.
        A batch whose rows are ready costs a few list operations."""
        owner, store = self.columns()
        n = len(owner) if owner is not None else 0
        rows = [
            gid if (gid := h.graph_id) is not None and 0 <= gid < n
            and owner[gid] is h else -1
            for h in graphs
        ]
        ours, ready = [row for row in rows if row >= 0] if -1 in rows else rows, store.ready
        if ours and (max(ours) >= len(ready) or not all(map(ready.__getitem__, ours))):
            store.fill(owner, ours)
        return store, rows

    def _pool(self, graphs):
        """``(roots, degrees, masks, starts, sizes, rows)``: graph ``i``'s
        vertices are the ``sizes[rows[i]]`` from ``starts[rows[i]]``."""
        store, rows = self.fill(graphs)
        if -1 in rows:  # a graph outside the list: pack the batch alone
            sizes, roots, degrees, masks = store.pack(graphs)
            return (roots, degrees, masks, sizes.cumsum() - sizes, sizes,
                    np.arange(len(graphs)))
        return (store.roots, store.degrees, store.masks, store.offsets,
                store.features.sizes, np.array(rows))

    def one_to_many(self, g: LabeledGraph, others: Sequence[LabeledGraph]) -> np.ndarray:
        """``[d(g, h) for h in others]`` as one batch."""
        out = np.empty(len(others), dtype=np.float64)
        if not len(others):
            return out
        obs.counter("ged.star.batch_calls")
        obs.counter("ged.star.batch_pairs", len(others))
        pool = self._pool([g, *others])
        if len(others) <= 64:
            # A query's batches of ~2, up to where the two paths cross
            # (EXPERIMENTS.md, "The kernel's price"): grouping costs more
            # than it saves.  One gather, the source first; a pair's picked
            # costs are integers, so a Python sum is exact.
            roots, degrees, masks, sizes = _gather(pool, slice(None))
            sizes, null, totals = sizes.tolist(), 1.0 + degrees, []
            n_g = start = sizes[0]
            deletion = null[:n_g]
            cost = _costs((roots[:n_g], degrees[:n_g], masks[:n_g]),
                          (roots[n_g:], degrees[n_g:], masks[n_g:]))
            for n_h in sizes[1:]:
                stop = start + n_h
                block = cost[:, start - n_g:stop - n_g]
                matrix, total = _reduced(block, deletion, null[start:stop])
                totals.append(total + sum(matrix[linear_sum_assignment(matrix)].tolist()))
                start = stop
            out[:] = totals
            return _normalize(out, degrees, sizes) if self.normalized else out
        # Targets in size order: a chunk then holds a few long runs of one
        # size, each solved as one (count, n_small, n_large) tensor.
        sizes = pool[4][pool[5]].astype(np.int64)
        source = _gather(pool, slice(0, 1))[:3]
        n_g, deletion = sizes[0], 1.0 + source[1]
        order = np.argsort(sizes[1:], kind="stable")
        for start in range(0, len(order), _BLOCK_PROFILES):
            chunk = order[start:start + _BLOCK_PROFILES]
            roots, their_degrees, masks, their_sizes = _gather(pool, chunk + 1)
            cost = _costs(source, (roots, their_degrees, masks))
            insertion = 1.0 + their_degrees
            lo = column = 0
            for n_h, count in zip(*np.unique(their_sizes, return_counts=True)):
                span = slice(column, column + count * n_h)
                block = cost[:, span].reshape(n_g, count, n_h).transpose(1, 0, 2)
                tensor, totals = _reduced(block, deletion, insertion[span].reshape(count, n_h))
                if tensor.shape[1]:  # a side without stars leaves nothing to solve
                    chosen = [linear_sum_assignment(matrix)[1] for matrix in tensor]
                    chosen = np.concatenate(chosen).reshape(*tensor.shape[:2], 1)
                    totals = totals + np.take_along_axis(tensor, chosen, 2).sum(axis=(1, 2))
                out[chunk[lo:lo + count]] = totals
                lo += count
                column = span.stop
        if not self.normalized:
            return out
        return _normalize(out, _gather(pool, slice(None))[1], sizes.tolist())

    def __call__(self, g1: LabeledGraph, g2: LabeledGraph) -> float:
        return float(self.one_to_many(g1, [g2])[0])


def _reduced(block, deletion, insertion):
    """``(cost − null, Σ null)`` of Riesen–Bunke problems: ``block[..., u,
    v]`` prices source star ``u`` against target star ``v``, ``deletion``
    and ``insertion`` their null stars; the smaller side's stars become the
    rows, the larger side's, less their null price, the columns."""
    if block.shape[-2] <= block.shape[-1]:  # the source's stars as rows
        return np.subtract(block, insertion[..., None, :], order="C"), np.add.reduce(insertion, -1)
    return np.subtract(np.swapaxes(block, -1, -2), deletion, order="C"), np.add.reduce(deletion)


def _normalize(values, degrees, sizes) -> np.ndarray:
    """Each value over ``max(4, the pair's top degree + 1)``; ``degrees``
    and ``sizes`` run over the source, then the targets."""
    ends = np.cumsum(sizes).tolist()
    tops = [degrees[end - n:end].max(initial=0.0) for end, n in zip(ends, sizes)]
    values /= [max(4.0, max(tops[0], top) + 1.0) for top in tops[1:]]
    return values


def _costs(source, target) -> np.ndarray:
    """``max(deg_u, deg_v) + [root_u ≠ root_v] − popcount(mask_u & mask_v)``
    of every source vertex against every target vertex, in ``int32``."""
    (roots, degrees, masks), (their_roots, their_degrees, their_masks) = source, target
    cost = np.maximum(degrees[:, None], their_degrees, dtype=np.int32)
    cost += roots[:, None] != their_roots
    for word in range(min(masks.shape[1], their_masks.shape[1])):
        cost -= word_counts(masks[:, word, None] & their_masks[:, word])
    return cost


def _gather(pool, picks):
    """``(roots, degrees, masks, sizes)`` of the pool's graphs
    ``picks``, their vertices concatenated in that order."""
    roots, degrees, masks, starts, sizes, rows = pool
    rows = rows[picks]
    sizes = sizes[rows].astype(np.int64)
    vertices = _spans(starts[rows], sizes)
    return roots[vertices], degrees[vertices], masks[vertices], sizes
