"""Tests for database (de)serialization."""

import json

import numpy as np
import pytest

from repro.graphs import GraphDatabase, LabeledGraph, load_database, save_database
from repro.graphs.io import graph_from_dict, graph_to_dict


def _db():
    graphs = [
        LabeledGraph(["C", "N"], [(0, 1, "=")]),
        LabeledGraph(["O"]),
        LabeledGraph(["C", "C", "C"], [(0, 1), (1, 2)]),
    ]
    return GraphDatabase(graphs, np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]]))


class TestGraphDict:
    def test_roundtrip(self):
        g = LabeledGraph(["C", "N", "O"], [(0, 1, "="), (1, 2)])
        assert graph_from_dict(graph_to_dict(g)) == g

    def test_graph_id_passthrough(self):
        g = graph_from_dict({"labels": ["C"], "edges": []}, graph_id=7)
        assert g.graph_id == 7

    @pytest.mark.parametrize("edge", [[0], [0, 1], [0, 1, "-", "x"]])
    def test_edge_that_is_not_a_triple_is_rejected(self, edge):
        # The file and wire format is [u, v, label] triples, as
        # graph_to_dict writes them; the constructor's (u, v) shorthand
        # is not part of it.
        with pytest.raises(ValueError):
            graph_from_dict({"labels": ["C", "N"], "edges": [edge]})


class TestDatabaseRoundtrip:
    def test_roundtrip(self, tmp_path):
        db = _db()
        path = tmp_path / "db.jsonl"
        save_database(db, path)
        loaded = load_database(path)
        assert len(loaded) == len(db)
        assert np.allclose(loaded.features, db.features)
        for a, b in zip(db, loaded):
            assert a == b

    def test_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"format": "something-else"}) + "\n")
        with pytest.raises(ValueError, match="not a repro"):
            load_database(path)

    def test_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"format": "repro-graphdb", "version": 999}) + "\n"
        )
        with pytest.raises(ValueError, match="version"):
            load_database(path)

    def test_rejects_truncated_file(self, tmp_path):
        db = _db()
        path = tmp_path / "db.jsonl"
        save_database(db, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError, match="declares"):
            load_database(path)

    def test_blank_lines_ignored(self, tmp_path):
        db = _db()
        path = tmp_path / "db.jsonl"
        save_database(db, path)
        path.write_text(path.read_text() + "\n\n")
        assert len(load_database(path)) == 3
