"""``load_graph`` and ``load_coauthorship`` against the per-line readers of
``parser_oracle``: on every input both return equal graphs, or equal
complexes with the same signal bits, or raise the same ``DataError`` with
the same ``path:line`` message, and through ``cli.run`` a bad file exits 2
with one line on stderr. ``load_graph_dataset`` on accepted JSON lines."""

import tempfile
import warnings
from pathlib import Path

import numpy as np
import parser_oracle
import pytest
from parser_oracle import EDGES_FOR_TABLES, outcome, table_files, write

from flowerpetals.cli import run
from flowerpetals.complexes import DataError, load_coauthorship, load_graph, load_graph_dataset

EDGE_CASES = {
    "comment-after-pair": "0 1\n1 2 # x\n",
    "underscore-id": "1_0 2\n",
    "plus-sign": "+3 4\n",
    "float-id": "3.0 2\n",
    "arabic-indic-digit": "\u0661 2\n",
    "crlf": "#n=4\r\n0 1\r\n2 3\r\n",
    "cr": "0 1\r1 2\r",
    "whitespace-lines": "0 1\n   \n\t\n1 2\n",
    "comment-mid-file": "0 1\n# mid\n1 2\n",
    "header-only": "#n=3\n",
    "comment-line-1": "# hello\n0 1\n",
    "header-after-blank-line": "\n#n=9\n0 1\n",
    "bad-header": "#n=x\n0 1\n",
    "negative-header": "#n=-2\n",
    "header-below-max-id": "#n=2\n0 5\n",
    "negative-id": "0 1\n0 -1\n",
    "negative-id-past-int64": "0 1\n-9223372036854775809 2\n",
    "id-past-key-width": "0\t3037000499\n",
    "id-past-key-width-then-letters": "0 1\n3037000499 0\nx y\n",
    "self-loop-past-key-width": "0 1\n3037000499 3037000499\n",
    "three-fields": "0 1 2\n",
    "ragged-fields": "0 1\n3\n",
    "letters": "0\t1\nx\ty\n",
    "empty": "",
    "self-loops": "0 1\n1 1\n2 2\n",
    "duplicates": "1 0\n0 1\n2 1\n1 2\n",
    "no-break-space": "0\xa01\n",
    "hex-id": "0x1 2\n",
    "exponent-id": "1e3 2\n",
}

FEATURE_CASES = {
    "repr": "0.1,-2.5e-300\n1.0,0.0\n-0.0,3\n",
    "overflow": "1e400,1\n0,0\n1,1\n",
    "nan": "1,1\nnan,1\n1,1\n",
    "inf": "1,1\n1,1\n-inf,1\n",
    "ragged": "1,2\n1\n1,1\n",
    "blank-lines": "1,2\n\n  \n0,0\n1,1\n",
    "spaces-around-values": " 1.5 , 2\n0,0\n1,1\n",
    "trailing-comma": "1,2,\n0,0\n1,1\n",
    "underscore": "1_0,2\n0,0\n1,1\n",
    "arabic-indic-digit": "\u0661,2\n0,0\n1,1\n",
    "one-column": "1\n2\n3\n",
    "too-few-rows": "1,2\n0,0\n",
    "crlf": "1,2\r\n0,0\r\n1,1\r\n",
    "letters": "1,2\n0,a\n1,1\n",
    "empty": "",
}

LABEL_CASES = {
    "plain": "0\n1\n1\n",
    "float-label": "0\n1.0\n1\n",
    "two-fields": "0\n1 2\n1\n",
    "plus-sign": "+0\n1\n1\n",
    "underscore": "0\n1_0\n1\n",
    "negative": "0\n-1\n1\n",
    "negative-after-blanks": "0\n\n \n-2\n1\n",
    "negative-on-the-line-scan": "0\n1_0\n-1\n",
    "negative-and-too-few": "-1\n0\n",
    "too-few": "0\n1\n",
    "blank-lines": "0\n\n1\n \n1\n",
    "crlf": "0\r\n1\r\n1\r\n",
    "comment": "0\n# x\n1\n",
}

COAUTHORSHIP_CASES = {
    "plain": "#n=4\n0\t0\t5\n0\t1\t6\n1\t0,1\t4\n1\t2,3\t2\n2\t0,1,2\t3\n",
    "only-a-3-simplex": "3\t0,1,2,3\t5\n",
    "orders-1-and-3": "1\t0,1\t4\n3\t2,3,4,5\t5\n",
    "orders-2-and-4": "2\t0,1,2\t4\n4\t1,2,3,4,5\t7.5\n0\t6\t1\n",
    "repeated-simplices-sum": "1\t0,1\t3\n1\t1,0\t4.5\n2\t0,1,2\t3\n2\t2,1,0\t0.1e2\n"
                              "1\t0,2\t1e300\n",
    "repeated-node-lines-sum": "0\t0\t1\n0\t2\t0.1\n0\t0\t2.5\n0\t0\t0.2\n",
    "dropped-lines-count-n": "0\t0\t1\n1\t0,7\t2\n3\t1,2,3,9\t0\n",
    "unsorted-nodes": "2\t2,0,1\t9\n",
    "crlf": "#n=3\r\n0\t0\t1\r\n1\t0,1\t3\r\n",
    "blank-lines": "\n0\t0\t1\n  \n1\t0,1\t3\n",
    "comment-mid-file": "0\t0\t1\n# x\n1\t0,1\t3\n",
    "header-only": "#n=5\n",
    "header-after-blank-line": "\n#n=9\n1\t0,1\t3\n",
    "bad-header": "#n=x\n0\t0\t1\n",
    "header-past-int64": "#n=9223372036854775808\n1\t0,1\t3\n",
    "header-below-max-id": "#n=2\n1\t0,5\t3\n",
    "space-separated": "0 0 1\n",
    "two-fields": "0\t0\n",
    "four-fields": "0\t0\t1\t2\n",
    "float-order": "1.0\t0,1\t3\n",
    "float-node": "1\t0,1.0\t3\n",
    "empty-node-field": "1\t\t3\n",
    "spaces-around-nodes": "1\t0 , 1\t3\n",
    "underscore-node": "1\t0,1_0\t3\n",
    "underscore-order-0-node": "0\t1_0\t3\n",
    "arabic-indic-node": "0\t\u0661\t3\n",
    "underscore-order": "0_1\t0,1\t3\n",
    "underscore-signal": "1\t0,1\t1_0\n",
    "arabic-indic-signal": "1\t0,1\t\u0663\n",
    "no-break-space-around-node": "1\t0,\xa01\t3\n",
    "nan-signal": "1\t0,1\tnan\n",
    "inf-signal": "1\t0,1\tinf\n",
    "negative-signal": "1\t0,1\t-3\n",
    "negative-order": "-1\t0\t3\n",
    "too-few-nodes": "2\t0,1\t3\n",
    "repeated-node": "1\t0,0\t5\n",
    "negative-node": "0\t0\t5\n1\t-1,0\t5\n",
    "node-past-int64": "1\t0,9223372036854775808\t5\n",
    "empty": "",
}


def coauthorship_outcome(load, path):
    """The complex and each order's signal bytes, or the text of the DataError."""
    cc = outcome(load, path)
    if isinstance(cc, str):
        return cc
    return cc.complex, {p: (v.dtype, v.tobytes()) for p, v in cc.signals.items()}


@pytest.mark.parametrize("text", COAUTHORSHIP_CASES.values(), ids=COAUTHORSHIP_CASES.keys())
def test_coauthorship_file_matches_the_line_reader(tmp_path, text):
    path = write(tmp_path / "cc.tsv", text)
    assert (coauthorship_outcome(load_coauthorship, path)
            == coauthorship_outcome(parser_oracle.load_coauthorship, path))


def test_closure_reaches_order_1_across_skipped_orders(tmp_path):
    cc = load_coauthorship(write(tmp_path / "cc.tsv", "3\t0,1,2,3\t5\n"))
    assert cc.complex.counts() == {1: 6, 2: 4, 3: 1}
    assert cc.signals[3].tolist() == [5.0] and not cc.signals[1].any()
    cc = load_coauthorship(write(tmp_path / "cc.tsv", "1\t0,1\t4\n3\t2,3,4,5\t5\n"))
    assert cc.complex.counts() == {1: 7, 2: 4, 3: 1}
    assert cc.complex.simplices[1][:2].tolist() == [[0, 1], [2, 3]]
    assert cc.signals[1][:2].tolist() == [4.0, 0.0]


@pytest.mark.parametrize("text", EDGE_CASES.values(), ids=EDGE_CASES.keys())
def test_edge_file_matches_the_line_reader(tmp_path, text):
    path = write(tmp_path / "e.tsv", text)
    assert outcome(load_graph, path) == outcome(parser_oracle.load_graph, path)


@pytest.mark.parametrize("text", FEATURE_CASES.values(), ids=FEATURE_CASES.keys())
def test_feature_file_matches_the_line_reader(tmp_path, text):
    paths = (write(tmp_path / "e.tsv", EDGES_FOR_TABLES), write(tmp_path / "f.csv", text))
    assert outcome(load_graph, *paths) == outcome(parser_oracle.load_graph, *paths)


@pytest.mark.parametrize("text", LABEL_CASES.values(), ids=LABEL_CASES.keys())
def test_label_file_matches_the_line_reader(tmp_path, text):
    paths = (write(tmp_path / "e.tsv", EDGES_FOR_TABLES), None, write(tmp_path / "l.csv", text))
    assert outcome(load_graph, *paths) == outcome(parser_oracle.load_graph, *paths)


def test_parsed_tables_hold_the_line_readers_values(tmp_path):
    edges = write(tmp_path / "e.tsv", "#n=4\n2 1\n0 3\n")
    features = write(tmp_path / "f.csv", "0.1,2\n-0.0,1e-310\n5e300,-7\n3,4\n")
    labels = write(tmp_path / "l.csv", "3\n0\n1\n2\n")
    g, oracle = load_graph(edges, features, labels), parser_oracle.load_graph(edges, features, labels)
    assert g == oracle
    assert np.array_equal(g.features.view(np.int64), oracle.features.view(np.int64))
    assert g.edges.tolist() == [[0, 3], [1, 2]]


@pytest.mark.parametrize("table, text, line", [
    ("e.tsv", "0 1\n0 9223372036854775808\n", 2),
    ("l.csv", "0\n99999999999999999999\n1\n", 2),
    ("l.csv", "0\n-99999999999999999999\n1\n", 2),
], ids=["edge-id", "label", "negative-label"])
def test_numbers_past_int64_name_their_line(tmp_path, table, text, line):
    # the line reader fails here with an error naming no line, or an OverflowError
    path = write(tmp_path / table, text)
    paths = [path] if table == "e.tsv" else [write(tmp_path / "e.tsv", EDGES_FOR_TABLES), None, path]
    with pytest.raises(DataError, match=f"^{path}:{line}: .*int64"):
        load_graph(*paths)


def test_header_only_file_warns_nothing(tmp_path):
    # numpy warns on a file with no rows; the loader keeps that warning in
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        g = load_graph(write(tmp_path / "e.tsv", "#n=3\n"))
    assert (g.n, g.num_edges, caught) == (3, 0, [])


FLOAT_CASES = [
    pytest.param("edges", "3.7 2\n", id="edge-3.7"),
    pytest.param("edges", "1e3 2\n", id="edge-1e3"),
    pytest.param("edges", "3.0 2\n", id="edge-3.0"),
    pytest.param("labels", "0\n1.0\n1\n", id="label-1.0"),
    pytest.param("labels", "0\n1.7\n1\n", id="label-1.7"),
]


def loadtxt_reading_ints_via_floats(loadtxt):
    """``np.loadtxt`` as numpy releases with the int-via-float deprecation
    run it: a float in an int column warns once, then is truncated; a
    warning raised as an error comes out as a ValueError. ``source`` is a
    file or a list of lines."""
    def load(source, dtype, **kwargs):
        try:
            return loadtxt(source, dtype, **kwargs)
        except ValueError:
            if np.dtype(dtype).kind != "i":
                raise
            if hasattr(source, "seek"):
                source.seek(0)
            table = loadtxt(source, np.float64, **kwargs)
        try:
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning)
        except DeprecationWarning as exc:
            raise ValueError("could not convert string to int") from exc
        return table.astype(dtype)
    return load


@pytest.mark.filterwarnings("ignore::DeprecationWarning")  # as outside pytest
@pytest.mark.parametrize("old_numpy", [False, True], ids=["numpy", "old-numpy"])
@pytest.mark.parametrize("kind, text", FLOAT_CASES)
def test_float_in_an_int_column_is_rejected(tmp_path, monkeypatch, old_numpy, kind, text):
    if old_numpy:
        monkeypatch.setattr(np, "loadtxt", loadtxt_reading_ints_via_floats(np.loadtxt))
    paths = table_files(tmp_path, kind, text)
    expected = outcome(parser_oracle.load_graph, *paths)
    assert expected.startswith(f"DataError: {tmp_path / kind}:")
    assert outcome(load_graph, *paths) == expected


def oracle_fails(kind, text) -> bool:
    with tempfile.TemporaryDirectory() as tmp:
        paths = table_files(Path(tmp), kind, text)
        try:
            parser_oracle.load_graph(*paths)
        except (DataError, OverflowError):
            return True
    return False


BAD_FILES = [
    pytest.param(kind, text, id=f"{kind}-{name}")
    for kind, table in (("edges", EDGE_CASES), ("features", FEATURE_CASES),
                        ("labels", LABEL_CASES))
    for name, text in table.items()
    if oracle_fails(kind, text)
] + [
    pytest.param("edges", "0 99999999999999999999\n", id="edges-past-int64"),
    pytest.param("labels", "0\n99999999999999999999\n1\n", id="labels-past-int64"),
]


@pytest.mark.parametrize("kind, text", BAD_FILES)
def test_cli_exits_2_on_every_bad_file(tmp_path, capsys, kind, text):
    paths = table_files(tmp_path, kind, text)
    if kind == "edges":
        argv = ["lift", "--edges", str(paths[0])]
    else:
        (tmp_path / "cfg.json").write_text('{"epochs": 1}')
        argv = ["train", "--edges", str(paths[0]), "--features", str(paths[1]),
                "--labels", str(paths[2]), "--config", str(tmp_path / "cfg.json")]
    code = run(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {tmp_path / kind}") and err.count("\n") == 1


def coauthorship_oracle_fails(text) -> bool:
    with tempfile.TemporaryDirectory() as tmp:
        path = write(Path(tmp) / "cc.tsv", text)
        return isinstance(outcome(parser_oracle.load_coauthorship, path), str)


@pytest.mark.parametrize("text", [
    pytest.param(text, id=name) for name, text in COAUTHORSHIP_CASES.items()
    if coauthorship_oracle_fails(text)
])
def test_impute_exits_2_on_every_bad_coauthorship_file(tmp_path, capsys, text):
    path = write(tmp_path / "cc.tsv", text)
    assert run(["impute", "--simplices", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}") and err.count("\n") == 1


# (file text, each graph's (n, edges, features), labels)
DATASET_CASES = {
    "blank-lines": ('\n{"n": 2, "edges": [[0, 1]], "label": 1}\n\n  \n'
                    '{"n": 3, "edges": [[2, 1], [1, 2]], "label": 0}\n',
                    [(2, [[0, 1]], None), (3, [[1, 2]], None)], [1, 0]),
    "crlf": ('{"n": 2, "edges": [[1, 0]], "label": 0}\r\n{"n": 1, "edges": [], "label": 2}\r\n',
             [(2, [[0, 1]], None), (1, [], None)], [0, 2]),
    "features": ('{"n": 2, "edges": [], "label": 3, "features": [[0.1, -2.5e-300], [1e300, 0]]}\n'
                 '{"n": 1, "edges": [], "label": 0, "features": [[-0.0, 7]]}\n',
                 [(2, [], [[0.1, -2.5e-300], [1e300, 0.0]]), (1, [], [[-0.0, 7.0]])], [3, 0]),
}


@pytest.mark.parametrize("text, graphs, labels", DATASET_CASES.values(), ids=DATASET_CASES.keys())
def test_graph_dataset_records_are_read_as_given(tmp_path, text, graphs, labels):
    def as_bits(features):
        return None if features is None else np.asarray(features, dtype=np.float64).tobytes()

    got, got_labels = load_graph_dataset(write(tmp_path / "gs.jsonl", text))
    assert ([(g.n, g.edges.tolist(), as_bits(g.features)) for g in got]
            == [(n, edges, as_bits(features)) for n, edges, features in graphs])
    assert got_labels.dtype == np.int64 and got_labels.tolist() == labels


def test_graph_dataset_error_names_the_line_after_blank_lines(tmp_path):
    path = write(tmp_path / "gs.jsonl", '\n{"n": 2, "edges": [[0, 1]], "label": 0}\n\n'
                                        '{"n": 0, "edges": [], "label": 0}\n')
    with pytest.raises(DataError, match=f"^{path}:4: bad graph record"):
        load_graph_dataset(path)
