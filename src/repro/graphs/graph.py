"""The labelled-graph data model.

The paper's database objects are undirected graphs whose vertices carry labels
(atom symbols in DUD, community ids in DBLP, product categories in Amazon) and
whose edges optionally carry labels (bond types).  :class:`LabeledGraph` is an
immutable value object: build it once, then share it freely between indexes,
caches and answer sets without defensive copies.

Vertices are always the integers ``0 .. n-1``.  This lets the adjacency be
a few flat arrays (CSR) instead of one dict per vertex, and lets the
edit-distance code address vertices by array index.
"""

from __future__ import annotations

import zlib
from array import array
from collections import Counter
from itertools import accumulate, chain
from operator import index, sub
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

if TYPE_CHECKING:  # networkx is imported by the two converters that use it
    import networkx as nx

#: Label used for edges when the caller does not supply one.
DEFAULT_EDGE_LABEL = "-"


class LabeledGraph:
    """An immutable undirected graph with node labels and edge labels.

    Parameters
    ----------
    node_labels:
        One label per vertex; vertex ``i`` gets ``node_labels[i]``.
    edges:
        Iterable of ``(u, v)`` or ``(u, v, label)`` tuples with
        ``0 <= u, v < len(node_labels)`` and ``u != v``.  Duplicate edges
        (in either orientation) are rejected.
    graph_id:
        Optional stable identifier (e.g. position in the database); carried
        along for provenance but ignored by equality.

    The adjacency is packed CSR: ``_csr`` holds ``n + 1`` offsets followed
    by the ``2|E|`` neighbour ids, ``_slot_labels`` the edge label of each
    neighbour slot.  Vertex ``v`` owns slots ``_csr[v]:_csr[v + 1]``, which
    list its neighbours in edge insertion order.  Only this class reads
    that layout; callers go through the accessors.
    """

    # __weakref__ lets distance caches hold per-graph data without pinning
    # the graph (StarDistance keys star profiles by id(); a weak reference
    # is what makes stale entries evictable when ids are recycled).
    # ``_digest`` stays unset until :attr:`digest` is first read.
    __slots__ = (
        "_node_labels", "_csr", "_slot_labels", "graph_id", "_digest",
        "__weakref__",
    )

    def __init__(
        self,
        node_labels: Iterable[str],
        edges: Iterable[tuple] = (),
        graph_id: int | None = None,
    ):
        self._node_labels: tuple[str, ...] = tuple(str(l) for l in node_labels)
        n = len(self._node_labels)
        # Insertion-ordered dicts group each vertex's slots and make the
        # duplicate check O(1); they are packed end to end, then dropped.
        adj: list[dict[int, str]] = [{} for _ in range(n)]
        for edge in edges:
            if len(edge) == 3:
                u, v, label = edge
                label = str(label)
            elif len(edge) == 2:
                u, v = edge
                label = DEFAULT_EDGE_LABEL
            else:
                raise ValueError(f"edge must be (u, v) or (u, v, label), got {edge!r}")
            u, v = int(u), int(v)
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {edge!r} references a vertex outside 0..{n - 1}")
            if u == v:
                raise ValueError(f"self-loop on vertex {u} is not allowed")
            if v in adj[u]:
                raise ValueError(f"duplicate edge ({u}, {v})")
            adj[u][v] = label
            adj[v][u] = label
        csr = [0]
        csr += accumulate(map(len, adj))
        csr += chain.from_iterable(adj)
        top = max(n, csr[n])
        self._csr = array("B" if top < 0x100 else "H" if top < 0x10000 else "q", csr)
        self._slot_labels: tuple[str, ...] = tuple(chain.from_iterable(map(dict.values, adj)))
        # A plain int (a numpy integer is converted): pair caches pack ids
        # into 64-bit keys with Python integer arithmetic.
        self.graph_id = None if graph_id is None else index(graph_id)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self._node_labels)

    @property
    def num_edges(self) -> int:
        return len(self._slot_labels) // 2

    @property
    def node_labels(self) -> tuple[str, ...]:
        return self._node_labels

    def node_label(self, v: int) -> str:
        return self._node_labels[v]

    def nodes(self) -> range:
        return range(len(self._node_labels))

    def edges(self) -> Iterator[tuple[int, int, str]]:
        """Yield each undirected edge once as ``(u, v, label)`` with ``u < v``."""
        csr, labels = self._csr, self._slot_labels
        u, stop = -1, 0
        for slot, v in enumerate(csr[len(self._node_labels) + 1:]):
            while slot >= stop:  # slot is past u's row: move to the next vertex
                u += 1
                stop = csr[u + 1]
            if u < v:
                yield (u, v, labels[slot])

    def neighbors(self, v: int) -> Sequence[int]:
        """``v``'s neighbour ids, in edge insertion order."""
        start, stop = self._span(v)
        return self._csr[start:stop]

    def degree(self, v: int) -> int:
        start, stop = self._span(v)
        return stop - start

    def degrees(self) -> list[int]:
        """The degree of every vertex, in vertex order."""
        n, csr = len(self._node_labels), self._csr
        return list(map(sub, csr[1:n + 1], csr[:n]))

    def has_edge(self, u: int, v: int) -> bool:
        start, stop = self._span(u)
        return v in self._csr[start:stop]

    def edge_label(self, u: int, v: int) -> str:
        """Label of edge ``(u, v)``; raises ``KeyError`` if absent."""
        start, stop = self._span(u)
        try:
            slot = self._csr.index(v, start, stop)
        except ValueError:
            raise KeyError(v) from None
        return self._slot_labels[slot - len(self._node_labels) - 1]

    def edge_maps(self) -> list[dict[int, str]]:
        """A fresh ``{neighbour: edge label}`` dict per vertex, for loops
        that probe many edges per call: a dict probe, not a slot scan."""
        n, csr = len(self._node_labels), self._csr
        pairs = list(zip(csr[n + 1:], self._slot_labels))
        return [dict(pairs[a:b]) for a, b in zip(csr[:n], csr[1:n + 1])]

    def _span(self, v: int) -> tuple[int, int]:
        """``v``'s neighbour ids are ``_csr[start:stop]``."""
        n = len(self._node_labels)
        if not 0 <= v < n:
            raise IndexError(f"vertex {v} is not in 0..{n - 1}")
        return n + 1 + self._csr[v], n + 1 + self._csr[v + 1]

    # ------------------------------------------------------------------
    # Derived summaries (used by edit-distance bounds and closures)
    # ------------------------------------------------------------------
    def label_histogram(self) -> dict[str, int]:
        """Multiset of node labels as a label → count mapping."""
        return dict(Counter(self._node_labels))

    def edge_label_histogram(self) -> dict[str, int]:
        """Multiset of edge labels as a label → count mapping."""
        return dict(Counter(label for _, _, label in self.edges()))

    def star(self, v: int) -> tuple[str, tuple[tuple[str, str], ...]]:
        """The *star* of vertex ``v``: its label plus the sorted multiset of
        ``(edge label, neighbor label)`` branch tokens.

        Stars are the unit of comparison in the star edit distance of Zeng
        et al. (PVLDB'09), which the paper cites as its edit-distance
        reference [28].
        """
        start, stop = self._span(v)
        base, labels = len(self._node_labels) + 1, self._node_labels
        branches = zip(self._slot_labels[start - base:stop - base],
                       map(labels.__getitem__, self._csr[start:stop]))
        return (labels[v], tuple(sorted(branches)))

    def stars(self) -> list[tuple[str, tuple[tuple[str, str], ...]]]:
        """Stars of all vertices, in vertex order."""
        return [(label, tuple(sorted(tokens)))
                for label, tokens in zip(self._node_labels, self.branch_tokens())]

    def slots(self) -> tuple[Sequence[int], tuple[str, ...]]:
        """Every neighbour slot as ``(neighbour ids, edge labels)``, two
        parallel sequences: vertex ``v``'s ``degree(v)`` slots follow those
        of every vertex before it, each in :meth:`neighbors` order."""
        return self._csr[len(self._node_labels) + 1:], self._slot_labels

    def branch_tokens(self) -> list[list[tuple[str, str]]]:
        """Every vertex's ``(edge label, neighbour label)`` branch tokens, in
        :meth:`neighbors` order; the star builders read these."""
        n, labels, csr = len(self._node_labels), self._node_labels, self._csr
        tokens = list(zip(self._slot_labels, map(labels.__getitem__, csr[n + 1:])))
        return [tokens[a:b] for a, b in zip(csr[:n], csr[1:n + 1])]

    # ------------------------------------------------------------------
    # Interop
    # ------------------------------------------------------------------
    def to_networkx(self) -> nx.Graph:
        """Convert to a :class:`networkx.Graph` with ``label`` attributes."""
        import networkx as nx

        g = nx.Graph()
        for v, label in enumerate(self._node_labels):
            g.add_node(v, label=label)
        for u, v, label in self.edges():
            g.add_edge(u, v, label=label)
        return g

    @classmethod
    def from_networkx(cls, g: nx.Graph, graph_id: int | None = None) -> "LabeledGraph":
        """Build from a networkx graph.

        Node identities may be arbitrary hashables; they are renumbered to
        ``0..n-1`` in sorted-by-insertion order.  Node/edge ``label``
        attributes default to ``str(node)`` / :data:`DEFAULT_EDGE_LABEL`.
        """
        index = {node: i for i, node in enumerate(g.nodes())}
        labels = [str(g.nodes[node].get("label", node)) for node in g.nodes()]
        edges = [
            (index[u], index[v], str(data.get("label", DEFAULT_EDGE_LABEL)))
            for u, v, data in g.edges(data=True)
        ]
        return cls(labels, edges, graph_id=graph_id)

    def permuted(self, permutation: "Iterable[int]") -> "LabeledGraph":
        """The same graph under a vertex renumbering.

        ``permutation[i]`` is the new id of old vertex ``i``; must be a
        bijection on ``0..n-1``.  The result is isomorphic to ``self`` —
        used to test isomorphism-invariant machinery (WL hashes, GED).
        """
        mapping = [int(p) for p in permutation]
        if sorted(mapping) != list(range(self.num_nodes)):
            raise ValueError("permutation must be a bijection on the vertices")
        labels = [""] * self.num_nodes
        for old, new in enumerate(mapping):
            labels[new] = self._node_labels[old]
        edges = [
            (mapping[u], mapping[v], label) for u, v, label in self.edges()
        ]
        return LabeledGraph(labels, edges)

    def renumbered(self, graph_id: int | None = None) -> "LabeledGraph":
        """An O(1) copy under another ``graph_id``, sharing this graph's
        structure.

        ``graph_id`` is the only slot anything ever reassigns; labels and
        adjacency are immutable, so the copy references them instead of
        rebuilding them — a sub-database (a shard, a snapshot) holds each
        graph's structure once, with its own dense ids.
        """
        copy = LabeledGraph.__new__(LabeledGraph)
        copy._node_labels = self._node_labels
        copy._csr = self._csr
        copy._slot_labels = self._slot_labels
        copy.graph_id = None if graph_id is None else index(graph_id)
        if hasattr(self, "_digest"):
            copy._digest = self._digest
        return copy

    # ------------------------------------------------------------------
    # Value semantics
    # ------------------------------------------------------------------
    def canonical_form(self) -> tuple:
        """A representation invariant under the stored vertex order.

        Two graphs with the same labels and edge set (same numbering) compare
        equal.  This is *not* isomorphism-invariant; it exists so tests and
        caches can compare concrete graph objects cheaply.
        """
        edge_set = tuple(sorted(self.edges()))
        return (self._node_labels, edge_set)

    @property
    def digest(self) -> int:
        """``crc32(repr(canonical_form()))``: the graph's entry in a
        database fingerprint and its hash partition.  Computed on first
        read and kept — the graph is immutable, and a :meth:`renumbered`
        copy made after that read shares it."""
        try:
            return self._digest
        except AttributeError:
            self._digest = zlib.crc32(repr(self.canonical_form()).encode())
            return self._digest

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        return self.canonical_form() == other.canonical_form()

    def __hash__(self) -> int:
        return hash(self.canonical_form())

    def __repr__(self) -> str:
        gid = f" id={self.graph_id}" if self.graph_id is not None else ""
        return f"<LabeledGraph{gid} |V|={self.num_nodes} |E|={self.num_edges}>"


def path_graph(labels: Iterable[str], edge_label: str = DEFAULT_EDGE_LABEL) -> LabeledGraph:
    """A path on the given labels — handy in tests and docs."""
    labels = list(labels)
    edges = [(i, i + 1, edge_label) for i in range(len(labels) - 1)]
    return LabeledGraph(labels, edges)


def cycle_graph(labels: Iterable[str], edge_label: str = DEFAULT_EDGE_LABEL) -> LabeledGraph:
    """A cycle on the given labels (requires at least 3 vertices)."""
    labels = list(labels)
    if len(labels) < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    edges = [(i, (i + 1) % len(labels), edge_label) for i in range(len(labels))]
    return LabeledGraph(labels, edges)


def star_graph(
    center_label: str,
    leaf_labels: Iterable[str],
    edge_label: str = DEFAULT_EDGE_LABEL,
) -> LabeledGraph:
    """A star with the given center and leaves."""
    leaves = list(leaf_labels)
    labels = [center_label] + leaves
    edges = [(0, i + 1, edge_label) for i in range(len(leaves))]
    return LabeledGraph(labels, edges)
