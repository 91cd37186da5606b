"""The top-level public API: :class:`TopKRepresentativeQuery`.

A thin facade tying the pieces together for the common workflow:

>>> from repro import TopKRepresentativeQuery, quartile_relevance
>>> engine = TopKRepresentativeQuery(database)          # doctest: +SKIP
>>> q = quartile_relevance(database)                    # doctest: +SKIP
>>> result = engine.run(q, theta=10.0, k=10)            # doctest: +SKIP
>>> [database[i] for i in result.answer]                # doctest: +SKIP

The default distance is the polynomial star edit distance (a true metric,
see DESIGN.md); pass ``distance=ExactGED()`` for exact edit distances on
small databases.  The default engine is the NB-Index; ``method='greedy'``
runs the quadratic Algorithm 1 instead.
"""

from __future__ import annotations

from repro.core.greedy import baseline_greedy
from repro.core.results import QueryResult
from repro.ged.metric import GraphDistanceFn
from repro.ged.star import StarDistance
from repro.graphs.database import GraphDatabase
from repro.index.nbindex import NBIndex, QuerySession


class TopKRepresentativeQuery:
    """Query engine facade over a graph database.

    Parameters
    ----------
    database:
        The graph database to query.
    distance:
        Metric structural distance; defaults to :class:`StarDistance`.
    index:
        A prebuilt :class:`NBIndex`; built lazily on first NB-Index query
        when omitted.
    seed:
        Drives the lazy index build's stochastic choices (int or numpy
        Generator); forwarded to :meth:`NBIndex.build`.
    index_params:
        Further keyword arguments forwarded to :meth:`NBIndex.build` when
        the index is built lazily (``num_vantage_points``, ``vp_strategy``,
        ``thresholds``, ...).
    """

    def __init__(
        self,
        database: GraphDatabase,
        distance: GraphDistanceFn | None = None,
        index: NBIndex | None = None,
        *,
        seed=None,
        **index_params,
    ):
        self.database = database
        self.distance = distance if distance is not None else StarDistance()
        self._index = index
        if seed is not None:
            index_params["seed"] = seed
        self._index_params = index_params

    @property
    def index(self) -> NBIndex:
        """The NB-Index, building it on first use."""
        if self._index is None:
            self._index = NBIndex.build(
                self.database, self.distance, **self._index_params
            )
        return self._index

    def run(
        self,
        query_fn,
        theta: float,
        k: int,
        method: str = "nbindex",
        **kwargs,
    ) -> QueryResult:
        """Answer a top-k representative query.

        ``method='nbindex'`` (default) uses the index; ``method='greedy'``
        runs the baseline Algorithm 1 without any index.
        """
        if method == "nbindex":
            return self.index.query(query_fn, theta, k, **kwargs)
        if method == "greedy":
            return baseline_greedy(
                self.database, self.distance, query_fn, theta, k, **kwargs
            )
        raise ValueError(f"unknown method {method!r}; use 'nbindex' or 'greedy'")

    def session(self, query_fn) -> QuerySession:
        """An interactive session for θ refinement (Sec. 7's zoom mode)."""
        return self.index.session(query_fn)

    def __repr__(self) -> str:
        built = "built" if self._index is not None else "lazy"
        return (
            f"<TopKRepresentativeQuery n={len(self.database)} "
            f"distance={self.distance!r} index={built}>"
        )
