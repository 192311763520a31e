"""Golden tests for the rendered reference answer grids.

The expected grids were tabulated by hand for the two worked
three-server examples (complete graph on three vertices; doubled
three-vertex path). Some desired-index cases admit several equivalent
index labelings: any per-file bijective renaming of bit indices yields
the same scheme, since the indices pass through uniform permutations
anyway. For those cases the grids are compared up to a per-file
renaming; the remaining cases must match literally.
"""
import re
from pathlib import Path

import pytest

from graphpir.tables import bound_row, render_table, table_four, table_three

REFERENCE_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "reference"

# rows = answer position, columns = servers S_1..S_3
REFERENCE_K3 = {
    "theta=(1,2)": [
        ["a_1", "a_3", "b_2"],
        ["b_6", "c_5", "c_4"],
        ["a_2+b_2", "a_4+c_4", "b_5+c_5"],
        ["a_5+b_5", "a_6+c_6", "b_6+c_6"],
    ],
    "theta=(1,3)": [
        ["a_6", "a_2", "b_3"],
        ["b_1", "c_4", "c_5"],
        ["a_2+b_2", "a_5+c_5", "b_4+c_4"],
        ["a_5+b_5", "a_6+c_6", "b_6+c_6"],
    ],
    "theta=(2,3)": [
        ["a_2", "a_6", "b_5"],
        ["b_4", "c_1", "c_3"],
        ["a_5+b_5", "a_2+c_2", "b_4+c_4"],
        ["a_6+b_6", "a_5+c_5", "b_6+c_6"],
    ],
}

REFERENCE_DOUBLED_P3 = {
    "theta=(1,1)": [
        ["a_1", "a_2+b_2", "b_2"],
        ["a'_1", "a'_2+b'_2", "b'_2"],
        ["a_4+a'_2", "a_3+a'_1+b_4+b'_4", "b_4+b'_4"],
    ],
    "theta=(1,2)": [
        ["a_1", "a_2+b_2", "b_2"],
        ["a'_1", "a'_2+b'_2", "b'_2"],
        ["a_2+a'_4", "a_1+a'_3+b_4+b'_4", "b_4+b'_4"],
    ],
    "theta=(2,1)": [
        ["a_1", "a_1+b_1", "b_2"],
        ["a'_1", "a'_1+b'_1", "b'_2"],
        ["a_2+a'_2", "a_2+a'_2+b_4+b'_2", "b_3+b'_1"],
    ],
    "theta=(2,2)": [
        ["a_1", "a_1+b_1", "b_2"],
        ["a'_1", "a'_1+b'_1", "b'_2"],
        ["a_2+a'_2", "a_2+a'_2+b_2+b'_4", "b_1+b'_3"],
    ],
}

_TERM = re.compile(r"^([a-z]'*)_(\d+)$")


def _parse_cell(cell):
    """Cell text -> {letter: index}; each letter appears at most once."""
    out = {}
    for term in cell.split("+"):
        m = _TERM.match(term)
        assert m, term
        letter, idx = m.group(1), int(m.group(2))
        assert letter not in out, cell
        out[letter] = idx
    return out


def assert_grids_match_up_to_renaming(got, want):
    """There must be one bijective index renaming per file letter that
    maps `got` onto `want` cell by cell."""
    assert len(got) == len(want)
    mapping = {}
    for grow, wrow in zip(got, want):
        assert len(grow) == len(wrow)
        for gcell, wcell in zip(grow, wrow):
            gp, wp = _parse_cell(gcell), _parse_cell(wcell)
            assert set(gp) == set(wp), (gcell, wcell)
            for letter in gp:
                fwd = mapping.setdefault(letter, {})
                src, dst = gp[letter], wp[letter]
                assert fwd.setdefault(src, dst) == dst, (letter, fwd, src, dst)
    for letter, fwd in mapping.items():
        assert len(set(fwd.values())) == len(fwd), (letter, fwd)


def test_complete_grid_shape():
    grids = table_three()
    assert set(grids) == set(REFERENCE_K3)
    for grid in grids.values():
        assert len(grid) == 4 and all(len(row) == 3 for row in grid)


def test_complete_grid_literal_case():
    assert table_three()["theta=(1,2)"] == REFERENCE_K3["theta=(1,2)"]


@pytest.mark.parametrize("key", sorted(REFERENCE_K3))
def test_complete_grid_matches_reference(key):
    assert_grids_match_up_to_renaming(table_three()[key], REFERENCE_K3[key])


def test_doubled_path_grid_shape():
    grids = table_four()
    assert set(grids) == set(REFERENCE_DOUBLED_P3)
    for grid in grids.values():
        assert len(grid) == 3 and all(len(row) == 3 for row in grid)


@pytest.mark.parametrize("key", ["theta=(1,1)", "theta=(1,2)"])
def test_doubled_path_grid_literal_cases(key):
    assert table_four()[key] == REFERENCE_DOUBLED_P3[key]


@pytest.mark.parametrize("key", sorted(REFERENCE_DOUBLED_P3))
def test_doubled_path_grid_matches_reference(key):
    assert_grids_match_up_to_renaming(
        table_four()[key], REFERENCE_DOUBLED_P3[key]
    )


def test_render_table_names():
    assert "| family |" in render_table("tableI")
    assert "multi-path" in render_table("tableII")
    assert "theta=(1,2)" in render_table("tableIII")
    assert "a'_1" in render_table("tableIV")
    with pytest.raises(ValueError):
        render_table("tableV")


def test_renaming_helper_rejects_inconsistent_grids():
    with pytest.raises(AssertionError):
        assert_grids_match_up_to_renaming(
            [["a_1", "a_1"]], [["a_1", "a_2"]]
        )
    with pytest.raises(AssertionError):
        assert_grids_match_up_to_renaming([["a_1"]], [["b_1"]])


@pytest.mark.parametrize("name", ["tableI", "tableII", "tableIII", "tableIV"])
def test_tables_match_reference_files_byte_for_byte(name):
    want = (REFERENCE_DIR / (name + ".md")).read_text()
    assert render_table(name) + "\n" == want


@pytest.mark.parametrize("lower,upper", [
    ("no such source", "path capacity"),  # no entry
    ("", "path capacity"),  # several lower entries
])
def test_bound_row_refuses_missing_or_ambiguous_source(lower, upper):
    with pytest.raises(LookupError):
        bound_row("path", "N=5", "path:5", lower, upper)
