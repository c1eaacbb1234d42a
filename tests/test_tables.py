"""On-disk CSV formats.

The pinned bytes below are the files every writer produced before the
writers shared one table codec: the csv module's dialect (CRLF line ends,
quoted headers that hold a comma), repr() for floats, and each file's
header and index base.  A change to any of them fails here first.
"""
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mlpp.diagnostics
from mlpp.diagnostics import export_density, export_trace, write_diagnostics_csv
from mlpp.fpca import (EigenBasis, FunctionalDataset, write_basis,
                       write_dataset_csv, write_time_grid_csv)
from mlpp.model import ModelState, save_state, sticks_to_weights
from mlpp.partitions import write_similarity_csv
from mlpp.sampler import ChainArchive, save_archives, scalar_names
from mlpp.tables import write_table

from conftest import reference_write_table

PINNED = {
    "data.csv":
        b"subject_id,channel_id,group_code,t0,t1,t2\r\n"
        b"7,1,2,0.1,-1.5,2e-05\r\n"
        b"7,2,2,0.3333333333333333,0.0,-0.0\r\n"
        b"9,1,3,1e+300,7.0,-2.25\r\n"
        b"9,2,3,3.0,4.5,1e-07\r\n",
    "time_grid.csv":
        b"time\r\n0.0\r\n0.5\r\n1.0\r\n",
    "basis/mean_curve.csv":
        b"time,mean\r\n0.0,0.25\r\n0.5,-0.125\r\n1.0,0.3333333333333333\r\n",
    "basis/eigenfunctions.csv":
        b"time,component_1,component_2\r\n"
        b"0.0,1.0,0.5\r\n"
        b"0.5,0.1,-0.2\r\n"
        b"1.0,0.6666666666666666,1e-09\r\n",
    "basis/scores.csv":
        b"subject,channel,score_1,score_2\r\n"
        b"1,1,0.0,0.14285714285714285\r\n"
        b"1,2,0.2857142857142857,0.42857142857142855\r\n"
        b"1,3,0.5714285714285714,0.7142857142857143\r\n"
        b"2,1,0.8571428571428571,1.0\r\n"
        b"2,2,1.1428571428571428,1.2857142857142858\r\n"
        b"2,3,1.4285714285714286,1.5714285714285714\r\n",
    "state/scores.csv":
        b"subject,channel,dim,value\r\n"
        b"0,0,0,0.5\r\n"
        b"0,0,1,-1.25\r\n"
        b"1,0,0,0.3333333333333333\r\n"
        b"1,0,1,2e-08\r\n",
    "state/clusters.csv":
        b"dim,slot,mean,prec\r\n"
        b"0,0,0.0,2.0\r\n"
        b"0,1,1.0,4.0\r\n"
        b"0,2,-1.0,5.0\r\n"
        b"0,3,0.1,1.5\r\n"
        b"0,4,0.2,2.5\r\n"
        b"0,5,-0.1,5.5\r\n"
        b"0,6,-0.2,6.5\r\n"
        b"1,0,0.1,3.0\r\n"
        b"1,1,0.5,6.0\r\n"
        b"1,2,-0.5,7.0\r\n"
        b"1,3,0.3,3.5\r\n"
        b"1,4,0.4,4.5\r\n"
        b"1,5,-0.3,7.5\r\n"
        b"1,6,0.14285714285714285,8.5\r\n",
    "run/chain_00/draws_scalar.csv":
        b"draw,noise_prec,weight_common[1],weight_group[1],weight_subject[1],"
        b"common_mean[1],common_prec[1],\"group_mean[1,2]\",\"group_prec[1,2]\","
        b"\"group_mean[1,3]\",\"group_prec[1,3]\",count_common[1],count_group[1],"
        b"count_subject[1]\r\n"
        b"1,0.0,0.3333333333333333,0.6666666666666666,1.0,1.3333333333333333,"
        b"1.6666666666666667,2.0,2.3333333333333335,2.6666666666666665,3.0,"
        b"3.3333333333333335,3.6666666666666665,4.0\r\n"
        b"2,4.333333333333333,4.666666666666667,5.0,5.333333333333333,"
        b"5.666666666666667,6.0,6.333333333333333,6.666666666666667,7.0,"
        b"7.333333333333333,7.666666666666667,8.0,8.333333333333334\r\n",
    "run/chain_00/labels_g.csv":
        b"draw,subject,dim,category\r\n"
        b"1,1,1,1\r\n1,2,1,3\r\n2,1,1,3\r\n2,2,1,2\r\n",
    "run/chain_00/labels_eta.csv":
        b"draw,subject,channel,dim,label\r\n"
        b"1,2,1,1,4\r\n1,2,2,1,6\r\n2,1,1,1,5\r\n2,1,2,1,5\r\n",
    "trace.csv":
        b"chain,draw,common_mean[1]\r\n"
        b"1,1,0.0\r\n1,2,1.0\r\n1,3,2.0\r\n1,4,3.0\r\n"
        b"2,1,1.5\r\n2,2,1.5\r\n2,3,1.5\r\n2,4,1.5\r\n",
    "density.csv":
        b"chain,common_mean[1],density\r\n"
        b"1,-0.30000000000000004,0.25\r\n"
        b"1,1.4999999999999998,0.25\r\n"
        b"1,3.3,0.25\r\n",
    "diagnostics.csv":
        b"parameter,mean,sd,rhat,ess,flags\r\n"
        b"noise_prec,12.5,0.1,1.0,8.0,\r\n"
        b"\"group_mean[1,2]\",0.3333333333333333,nan,1.25,3.5,rhat;ess\r\n",
    "similarity.csv":
        b"subject_id,1,2,3\r\n"
        b"1,1.0,0.5,0.0\r\n"
        b"2,0.5,1.0,0.3333333333333333\r\n"
        b"3,0.0,0.3333333333333333,1.0\r\n",
}


def small_state() -> ModelState:
    """Two subjects, one channel, two dimensions, two subject clusters:
    7 grid slots per dimension (common, two groups, subject 0's two
    clusters, subject 1's two)."""
    raw = np.array([[[0.5, 0.25], [0.75, 0.5]], [[0.1, 0.9], [0.3, 0.6]]])
    return ModelState(
        scores=np.array([[[0.5, -1.25]], [[1.0 / 3, 2e-8]]]), noise_prec=12.5,
        subject_alloc=np.array([[1, 3], [2, 3]]),
        channel_alloc=np.array([[[4, 5]], [[5, 4]]]),
        cluster_mean=np.array([[0.0, 1.0, -1.0, 0.1, 0.2, -0.1, -0.2],
                               [0.1, 0.5, -0.5, 0.3, 0.4, -0.3, 1.0 / 7]]),
        cluster_prec=np.array([[2.0, 4.0, 5.0, 1.5, 2.5, 5.5, 6.5],
                               [3.0, 6.0, 7.0, 3.5, 4.5, 7.5, 8.5]]),
        category_weights=np.array([[0.5, 0.25, 0.25], [0.2, 0.3, 0.5]]),
        raw_sticks=raw, stick_weights=sticks_to_weights(raw),
        group_codes=np.array([2, 3]))


def small_basis() -> EigenBasis:
    return EigenBasis(
        mean_curve=np.array([0.25, -0.125, 1.0 / 3]),
        eigenfunctions=np.array([[1.0, 0.5], [0.1, -0.2], [2.0 / 3, 1e-9]]),
        eigenvalues=np.array([2.5, 0.1]), var_explained=np.array([0.75, 0.2]),
        scores=np.arange(12.0).reshape(2, 3, 2) / 7.0,
        time_grid=np.array([0.0, 0.5, 1.0]))


def small_archive() -> ChainArchive:
    """Two draws of two subjects x two channels, one dimension."""
    names = scalar_names(1, 2)
    scalars = np.arange(2 * len(names), dtype=float).reshape(2, -1) / 3.0
    alloc = np.array([[[1], [3]], [[3], [2]]], dtype=np.int8)
    chan = np.full((2, 2, 2, 1), -1, dtype=np.int16)
    chan[0, 1, :, 0] = [4, 6]
    chan[1, 0, :, 0] = [5, 5]
    return ChainArchive(names, scalars, alloc, chan, np.array([2, 3]),
                        meta={"chain_index": 0, "n_subjects": 2, "n_channels": 2,
                              "n_components": 1})


def test_every_csv_writer_keeps_its_bytes(tmp_path, monkeypatch):
    # the density values are replaced by a constant: this pins the file
    # layout, not the kernel estimate's last-bit arithmetic
    monkeypatch.setattr(mlpp.diagnostics, "gaussian_density",
                        lambda draws, grid: grid * 0.0 + 0.25)
    grid = np.array([0.0, 0.5, 1.0])
    data = FunctionalDataset(
        np.array([[[0.1, -1.5, 2e-5], [1.0 / 3, 0.0, -0.0]],
                  [[1e300, 7.0, -2.25], [3.0, 4.5, 1e-7]]]),
        grid, np.array([2, 3]), [7, 9])
    write_dataset_csv(data, tmp_path / "data.csv")
    write_time_grid_csv(grid, tmp_path / "time_grid.csv")
    write_basis(small_basis(), tmp_path / "basis")
    save_state(small_state(), tmp_path / "state")
    save_archives([small_archive()], tmp_path / "run")
    chains = np.array([[0.0, 1.0, 2.0, 3.0], [1.5, 1.5, 1.5, 1.5]])
    export_trace(tmp_path / "trace.csv", chains, name="common_mean[1]")
    export_density(tmp_path / "density.csv", chains, name="common_mean[1]",
                   grid_size=3)
    write_diagnostics_csv(tmp_path / "diagnostics.csv", [
        {"name": "noise_prec", "mean": 12.5, "sd": 0.1, "rhat": 1.0, "ess": 8.0,
         "flags": []},
        {"name": "group_mean[1,2]", "mean": 1.0 / 3, "sd": float("nan"),
         "rhat": 1.25, "ess": 3.5, "flags": ["rhat", "ess"]}])
    sim = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 1.0 / 3], [0.0, 1.0 / 3, 1.0]])
    write_similarity_csv(tmp_path / "similarity.csv", sim)
    written = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*.csv"))
    assert written == sorted(PINNED)
    for name, expected in PINNED.items():
        assert (tmp_path / name).read_bytes() == expected, name


# ---------------------------------------------------------------------------
# write_table against the csv module's writer
# ---------------------------------------------------------------------------

_EDGE_FLOATS = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324,
                2.2250738585072014e-308, 1e16, 1e-5, 1e-4, 9999999999999998.0, 1e300]
_TEXT = st.text(alphabet=st.sampled_from(list(',"\r\n \0a1-é;#\'')) | st.characters(),
                max_size=6)


@st.composite
def _tables(draw):
    """A header and columns of one row count: integer (negative, large,
    narrow or wide), float (edge values among them) and text columns, 1-D
    or 2-D."""
    rows = draw(st.integers(0, 12))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["int", "narrow", "extreme", "uint", "float", "text",
                                     "object"]))
        width = draw(st.sampled_from([None, 1, 3]))
        size = rows * (width or 1)
        if kind == "int":
            values = draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=size, max_size=size))
            col = np.array(values, dtype=np.int64)
        elif kind == "extreme":     # a narrow range at either end of int64
            low = draw(st.sampled_from([-2**63, 2**63 - 100]))
            values = draw(st.lists(st.integers(low, low + 99), min_size=size, max_size=size))
            col = np.array(values, dtype=np.int64)
        elif kind == "narrow":
            values = draw(st.lists(st.integers(-128, 127), min_size=size, max_size=size))
            col = np.array(values, dtype=np.int8)
        elif kind == "uint":
            values = draw(st.lists(st.integers(2**64 - 3000, 2**64 - 1) | st.integers(0, 9),
                                   min_size=size, max_size=size))
            col = np.array(values, dtype=np.uint64)
        elif kind == "float":
            values = draw(st.lists(st.floats(allow_subnormal=True) | st.sampled_from(_EDGE_FLOATS),
                                   min_size=size, max_size=size))
            col = np.array(values, dtype=float)
        elif kind == "text":
            col = np.array(draw(st.lists(_TEXT, min_size=size, max_size=size)), dtype=object)
        else:
            values = draw(st.lists(_TEXT | st.integers() | st.none() | st.floats(),
                                   min_size=size, max_size=size))
            col = np.empty(size, dtype=object)
            col[:] = values
        columns.append(col if width is None else col.reshape(rows, width))
    n_fields = sum(1 if col.ndim == 1 else col.shape[1] for col in columns)
    header = draw(st.lists(_TEXT, min_size=n_fields, max_size=n_fields))
    return header, columns


@settings(max_examples=300, deadline=None)
@given(_tables())
def test_write_table_matches_the_csv_module_writer(table):
    header, columns = table
    with tempfile.TemporaryDirectory() as tmp:
        ours, ref = Path(tmp) / "ours.csv", Path(tmp) / "ref.csv"
        try:
            reference_write_table(ref, header, *columns)
        except UnicodeEncodeError:
            # text no UTF-8 file can hold, such as a lone surrogate: the
            # csv module's writer fails, and write_table must fail alike
            with pytest.raises(UnicodeEncodeError):
                write_table(ours, header, *columns)
            return
        write_table(ours, header, *columns)
        assert ours.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("values", [[""], [None], ["", "x", None]])
def test_write_table_quotes_an_empty_only_field(tmp_path, values):
    col = np.empty(len(values), dtype=object)
    col[:] = values
    write_table(tmp_path / "ours.csv", [""], col)
    reference_write_table(tmp_path / "ref.csv", [""], col)
    assert (tmp_path / "ours.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert (tmp_path / "ours.csv").read_bytes().startswith(b'""\r\n""\r\n')


@pytest.mark.parametrize("n_chains", [1, 2])
def test_density_header_only_when_every_chain_is_constant(tmp_path, n_chains):
    export_density(tmp_path / "d.csv", np.full((n_chains, 5), 2.0), name="x")
    assert (tmp_path / "d.csv").read_bytes() == b"chain,x,density\r\n"


# ---------------------------------------------------------------------------
# Malformed files: every reader names the file and the line
# ---------------------------------------------------------------------------

def _edit_lines(path, edit):
    """Rewrite a CSV file through edit(lines) -> lines (header included)."""
    lines = path.read_text().splitlines()
    path.write_text("\n".join(edit(lines)) + "\n")


def _drop(i):
    return lambda lines: lines[:i] + lines[i + 1:]


def _replace(i, text):
    return lambda lines: lines[:i] + [text] + lines[i + 1:]


def _repeat(i):
    return lambda lines: lines + [lines[i]]


def _set_json(key, value):
    """Set one entry of a one-line JSON file."""
    def edit(lines):
        doc = json.loads(lines[0])
        doc[key] = value
        return [json.dumps(doc)]
    return edit


def _case_ids(cases):
    return [f"{name.split('.')[0]}-{i}" for i, (name, _, _) in enumerate(cases)]


ARCHIVE_CASES = [
    # labels_g.csv covers every (draw, subject, dim): draw 0 does not exist
    ("labels_g.csv", _replace(1, "0,1,1,1"), r"labels_g.csv: line 2: index \[0, 1, 1\]"),
    ("labels_g.csv", _drop(3), r"labels_g.csv: no row for cell \[2, 1, 1\]"),
    ("labels_g.csv", _repeat(2), r"labels_g.csv: line 6 repeats cell \[1, 2, 1\]"),
    ("labels_g.csv", _replace(0, "draw,subject,dim,cat"), r"labels_g.csv: header"),
    ("labels_g.csv", _replace(2, "1,2,1"), r"labels_g.csv: .*columns"),
    ("labels_eta.csv", _replace(1, "1,2,3,1,4"), r"labels_eta.csv: line 2: index \[1, 2, 3, 1\]"),
    ("labels_eta.csv", _repeat(1), r"labels_eta.csv: line 6 repeats cell \[1, 2, 1, 1\]"),
    ("draws_scalar.csv", _replace(2, "3" + 13 * ",0.5"), r"draws_scalar.csv: line 3: index \[3.0\]"),
    # the draw count is the row count: without draw 1, draw 2 is out of range
    ("draws_scalar.csv", _drop(1), r"draws_scalar.csv: line 2: index \[2.0\]"),
    ("draws_scalar.csv", lambda lines: [lines[0].replace('"', "")] + lines[1:],
     r"draws_scalar.csv: header"),
]


@pytest.mark.parametrize("name,edit,message", ARCHIVE_CASES, ids=_case_ids(ARCHIVE_CASES))
def test_load_archives_rejects_malformed_chain_files(tmp_path, name, edit, message):
    from mlpp.sampler import load_archives
    save_archives([small_archive()], tmp_path)
    load_archives(tmp_path)
    _edit_lines(tmp_path / "chain_00" / name, edit)
    with pytest.raises(ValueError, match=message):
        load_archives(tmp_path)


BASIS_CASES = [
    # scores.csv covers every (subject, channel) from 1
    ("scores.csv", _drop(4), r"scores.csv: no row for cell \[2, 1\]"),
    ("scores.csv", _replace(4, "2,4,0.5,0.5"), r"scores.csv: line 5: index \[2.0, 4.0\]"),
    ("scores.csv", _replace(4, "2,1.5,0.5,0.5"), r"scores.csv: line 5: index \[2.0, 1.5\]"),
    ("scores.csv", _repeat(1), r"scores.csv: line 8 repeats cell \[1, 1\]"),
    ("scores.csv", _replace(1, "1,1,0.5"), r"scores.csv: .*columns"),
    ("mean_curve.csv", _replace(0, "t,mean"), r"mean_curve.csv: header"),
    ("eigenfunctions.csv", _replace(2, "0.5,0.1"), r"eigenfunctions.csv: .*columns"),
    ("eigenfunctions.csv", _drop(2), r"eigenfunctions.csv: time column differs"),
]


@pytest.mark.parametrize("name,edit,message", BASIS_CASES, ids=_case_ids(BASIS_CASES))
def test_read_basis_rejects_malformed_files(tmp_path, name, edit, message):
    from mlpp.fpca import read_basis
    write_basis(small_basis(), tmp_path)
    read_basis(tmp_path)
    _edit_lines(tmp_path / name, edit)
    with pytest.raises(ValueError, match=message):
        read_basis(tmp_path)


STATE_CASES = [
    # both CSV files cover every cell, counted from 0
    ("scores.csv", _drop(2), r"scores.csv: no row for cell \[0, 0, 1\]"),
    ("scores.csv", _replace(2, "0,0,2,0.5"), r"scores.csv: line 3: index \[0.0, 0.0, 2.0\]"),
    ("scores.csv", _replace(2, "0,-1,1,0.5"), r"scores.csv: line 3: index \[0.0, -1.0, 1.0\]"),
    ("scores.csv", _repeat(4), r"scores.csv: line 6 repeats cell \[1, 0, 1\]"),
    ("clusters.csv", _drop(14), r"/clusters.csv: no row for cell \[1, 6\]"),
    ("clusters.csv", _replace(1, "0,7,0.0,2.0"), r"/clusters.csv: line 2: index \[0.0, 7.0\]"),
    ("clusters.csv", _replace(1, "0,0,0.0"), r"/clusters.csv: .*columns"),
    ("clusters.csv", _replace(0, "dim,slot,mean"), r"/clusters.csv: header"),
    # a channel label past 3+J, which cluster_index would send into the
    # next subject's slots, and an array of the wrong shape
    ("state.json", _set_json("channel_alloc", [[[6, 5]], [[5, 4]]]),
     r"channel allocations out of range"),
    ("state.json", _set_json("subject_alloc", [[1, 3, 1], [2, 3, 1]]),
     r"state.json: subject_alloc has shape \[2, 3\], expected \[2, 2\]"),
]


@pytest.mark.parametrize("name,edit,message", STATE_CASES, ids=_case_ids(STATE_CASES))
def test_load_state_rejects_malformed_files(tmp_path, name, edit, message):
    from mlpp.model import load_state
    save_state(small_state(), tmp_path)
    load_state(tmp_path)
    _edit_lines(tmp_path / name, edit)
    with pytest.raises(ValueError, match=message):
        load_state(tmp_path)


def test_dataset_csv_round_trips_text_subject_ids(tmp_path):
    # ids holding a comma are quoted; a '#' is data, not a comment; "\u00b2"
    # (a superscript two) passes str.isdigit() but not int(), so it stays text
    from mlpp.fpca import read_dataset_csv
    data = FunctionalDataset(np.arange(16.0).reshape(4, 2, 2) / 3.0, np.array([0.0, 1.0]),
                             np.array([2, 3, 2, 3]), ["s#1", "a,b", "-4", "\u00b2"])
    write_dataset_csv(data, tmp_path / "data.csv")
    write_time_grid_csv(data.time_grid, tmp_path / "grid.csv")
    assert (tmp_path / "data.csv").read_bytes().count(b'"a,b"') == 2
    back = read_dataset_csv(tmp_path / "data.csv", tmp_path / "grid.csv")
    assert back.subject_ids == ["s#1", "a,b", -4, "\u00b2"]
    np.testing.assert_array_equal(back.values, data.values)
    np.testing.assert_array_equal(back.group_codes, data.group_codes)
