"""Every CSV loader of the package, on good files, bad files and any text."""

import importlib
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import PROPERTY
from statforge import concentration as con
from statforge import estimation as est
from statforge import glm
from statforge import hypothesis as hyp
from statforge import regression as reg
from statforge.errors import DomainError, StatforgeError

LOADERS = {
    "sample": est.load_sample_csv,
    "regression": reg.load_regression_csv,
    "groups": hyp.load_groups_csv,
    "points": con.load_points_csv,
    "graph": con.read_graph_csv,
    "item-bank": glm.load_item_bank_csv,
    "responses": glm.load_responses_csv,
}

# (loader, case, file text, line the error names)
BAD_FILES = [
    ("sample", "ragged", "1.5\n2.5,3\n", 2),
    ("sample", "non-number", "1.5\nx\n", 2),
    ("sample", "nan", "1.5\n\nnan\n", 3),
    ("sample", "inf", "inf\n", 1),
    ("sample", "empty", "", 1),
    ("regression", "ragged", "y,a\n1,2\n3\n", 3),
    ("regression", "non-number", "y,a\n1,b\n", 2),
    ("regression", "nan", "y,a\n1,nan\n", 2),
    ("regression", "inf", "y,a\n-inf,2\n", 2),
    ("regression", "narrower", "y,a,b\n1,2\n", 2),
    ("regression", "empty", "", 1),
    ("regression", "header", "x,a\n1,2\n", 1),
    ("regression", "no-rows", "y,a\n\n", 3),
    ("groups", "ragged", "group,value\na,1\nb,2,3\n", 3),
    ("groups", "non-number", "group,value\na,one\n", 2),
    ("groups", "nan", "group,value\na,1\na,NaN\n", 3),
    ("groups", "inf", "group,value\na,Infinity\n", 2),
    ("groups", "narrower", "group,value\na\n", 2),
    ("groups", "empty", "", 1),
    ("points", "ragged", "1,2\n3\n", 2),
    ("points", "non-number", "1,2\n3,y\n", 2),
    ("points", "nan", "nan,2\n", 1),
    ("points", "inf", "1,2\n3,inf\n", 2),
    ("points", "empty", "\n\n", 3),
    ("graph", "ragged", "5,0.2\n0,1,2\n", 2),
    ("graph", "non-number", "5,0.2\n0,one\n", 2),
    ("graph", "nan", "5,nan\n", 1),
    ("graph", "inf", "5,inf\n", 1),
    ("graph", "narrower", "5\n", 1),
    ("graph", "empty", "", 1),
    ("graph", "huge-vertex", "5,0.2\n0,9223372036854775808\n", 2),
    ("graph", "unordered-edge", "5,0.2\n0,1\n\n3,2\n", 4),
    ("item-bank", "ragged", "a,b\n1,2\n1,2,3\n", 3),
    ("item-bank", "non-number", "a,b\n1,b\n", 2),
    ("item-bank", "nan", "a,b\nnan,1\n", 2),
    ("item-bank", "inf", "a,b\n1,inf\n", 2),
    ("item-bank", "narrower", "a,b\n1\n", 2),
    ("item-bank", "empty", "", 1),
    ("item-bank", "nonpositive-a", "a,b\n1,0\n\n0,1\n", 4),
    ("responses", "ragged", "1,0\n0\n", 2),
    ("responses", "non-number", "1,0\n0,?\n", 2),
    ("responses", "nan", "1,nan\n", 1),
    ("responses", "inf", "1,0\ninf,0\n", 2),
    ("responses", "empty", "", 1),
    ("responses", "not-binary", "\n1,0\n0,2\n", 3),
]


@pytest.mark.parametrize("loader,text,line", [
    pytest.param(loader, text, line, id=f"{loader}-{case}")
    for loader, case, text, line in BAD_FILES])
def test_bad_file_names_file_and_line(tmp_path, loader, text, line):
    path = tmp_path / "data.csv"
    path.write_text(text)
    with pytest.raises(DomainError, match=f"^{re.escape(str(path))}, line {line}:"):
        LOADERS[loader](path)


@pytest.mark.parametrize("loader", sorted(LOADERS))
def test_non_utf8_file_names_the_line(tmp_path, loader):
    path = tmp_path / "data.csv"
    path.write_bytes(b"a,b\n1,2\n1,\xe9\n")
    with pytest.raises(DomainError, match=f"^{re.escape(str(path))}, line 3: not UTF-8"):
        LOADERS[loader](path)


def test_columns_are_named(tmp_path):
    path = tmp_path / "groups.csv"
    path.write_text("group,value\na,x\n")
    with pytest.raises(DomainError, match=r"line 2: column 2 must be a finite number, got 'x'"):
        hyp.load_groups_csv(path)


def test_single_observation_sample_and_single_column_points(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("2.5\n")
    assert est.load_sample_csv(path).tolist() == [2.5]
    path.write_text("1\n2\n\n3\n")
    assert con.load_points_csv(path).shape == (3, 1)


def test_edgeless_graph_round_trip(tmp_path):
    graph = con.ErdosRenyiGraph(4, 0.0, np.zeros((0, 2), dtype=np.int64))
    path = tmp_path / "graph.csv"
    con.write_graph_csv(graph, path)
    assert path.read_text() == "4,0.0\n"
    back = con.read_graph_csv(path)
    assert (back.n_vertices, back.p, back.edges.shape) == (4, 0.0, (0, 2))


# text that is mostly CSV-shaped, so that loaders get past their first line
CSV_TEXT = st.text(alphabet="0123456789.,-+e \n\rnaifyabgroupvlue", max_size=80)
NOT_UTF8 = [b"\xff", b"1,2\n\x80\n", b"y,a\n1,\xc3(\n", b"\xed\xa0\x80", b"group,value\na,1\xfe"]


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("property") / "data.csv"


@pytest.mark.parametrize("loader", sorted(LOADERS))
@PROPERTY
@given(data=st.one_of(st.text().map(str.encode), CSV_TEXT.map(str.encode),
                      st.sampled_from(NOT_UTF8)))
def test_any_file_loads_or_raises_statforge_error(scratch, loader, data):
    scratch.write_bytes(data)
    try:
        LOADERS[loader](scratch)
    except StatforgeError:
        pass


def test_documented_csv_functions_are_exported():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    formats = readme.split("## Data formats", 1)[1].split("\n## ", 1)[0]
    names = re.findall(r"`(\w+)\.(\w+_csv)`", formats)
    assert len(names) == 9
    for module, name in names:
        assert name in importlib.import_module(f"statforge.{module}").__all__, name
