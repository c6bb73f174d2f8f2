import io

import numpy as np
import pytest

from blockdid.biasmap import build_w_csnyt, build_w_imputation
from blockdid.panel import (
    BadAdoptionTime,
    DuplicateCell,
    InconsistentCohortLabel,
    MissingField,
    NoNeverTreated,
    NonFiniteOutcome,
    NonIntegerTime,
    PanelError,
    UnbalancedPanel,
    build_cell_index,
    build_layout,
    load_panel,
)


def make_csv(rows, header="unit,time,outcome,cohort"):
    return header + "\n" + "\n".join(rows) + "\n"


def grid_csv(units, T, line_sep="\n"):
    """units: list of (name, cohort_label); outcomes are i*10 + t."""
    lines = ["unit,time,outcome,cohort"]
    for i, (name, label) in enumerate(units):
        for t in range(1, T + 1):
            lines.append(f"{name},{t},{i * 10 + t},{label}")
    return line_sep.join(lines) + line_sep


def test_load_toy_panel():
    text = grid_csv([("a", "5"), ("b", "7"), ("c", "never")], T=8)
    panel = load_panel(io.StringIO(text))
    assert panel.n_units == 3
    assert panel.n_periods == 8
    assert panel.adoption == (5, 7, None)
    assert panel.outcome[1, 3] == 14.0
    layout = build_layout(panel)
    assert layout.times == (5, 7)


def test_row_order_irrelevant():
    base = grid_csv([("a", "3"), ("z", "never")], T=4)
    lines = base.strip().split("\n")
    shuffled = [lines[0]] + list(reversed(lines[1:]))
    p1 = load_panel(io.StringIO(base))
    p2 = load_panel(io.StringIO("\n".join(shuffled) + "\n"))
    assert np.array_equal(
        p1.outcome[sorted(range(2), key=lambda i: p1.units[i])],
        p2.outcome[sorted(range(2), key=lambda i: p2.units[i])],
    )


def test_crlf_and_scientific_notation():
    text = grid_csv([("a", "2"), ("b", "never")], T=2, line_sep="\r\n")
    text = text.replace("a,1,1,2", "a,1,1.5e-1,2")
    panel = load_panel(io.StringIO(text))
    assert panel.outcome[0, 0] == pytest.approx(0.15)


@pytest.mark.parametrize("comment", ["", "# exported\n"])
def test_a_byte_order_mark_is_read_past(tmp_path, comment):
    """Spreadsheet "CSV UTF-8" exports start with a byte-order mark; the file
    loads to the same panel as without it, header or comment line first."""
    text = comment + grid_csv([("a", "3"), ("z", "never")], T=4)
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    want, got = load_panel(str(plain)), load_panel(str(marked))
    assert got.units == want.units == ("a", "z")
    assert got.adoption == want.adoption and got.time_labels == want.time_labels
    assert np.array_equal(got.outcome, want.outcome)


def test_times_shifted_to_internal_range():
    lines = ["unit,time,outcome,cohort"]
    for name, label in [("x", "2004"), ("y", "never")]:
        for t in range(2001, 2008):
            lines.append(f"{name},{t},{t},{label}")
    panel = load_panel(io.StringIO("\n".join(lines) + "\n"))
    assert panel.n_periods == 7
    assert panel.time_labels == tuple(range(2001, 2008))
    assert panel.adoption[0] == 4


def test_duplicate_cell():
    text = grid_csv([("a", "2"), ("b", "never")], T=2) + "a,1,9,2\n"
    with pytest.raises(DuplicateCell):
        load_panel(io.StringIO(text))


def test_missing_cell():
    text = grid_csv([("a", "2"), ("b", "never")], T=3)
    assert "b,2,12,never\n" in text
    text = text.replace("b,2,12,never\n", "")
    with pytest.raises(UnbalancedPanel):
        load_panel(io.StringIO(text))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_outcome_has_its_own_code(value):
    text = grid_csv([("a", "2"), ("b", "never")], T=3).replace(
        "b,2,12,never", f"b,2,{value},never"
    )
    with pytest.raises(NonFiniteOutcome) as err:
        load_panel(io.StringIO(text))
    assert err.value.code == "NON_FINITE_OUTCOME"
    assert not isinstance(err.value, UnbalancedPanel)


def test_non_integer_time():
    text = make_csv(["a,1.5,3,never"])
    with pytest.raises(NonIntegerTime):
        load_panel(io.StringIO(text))


@pytest.mark.parametrize(
    "row, missing",
    [("a,2", "outcome"), ("a,2,0.5", "cohort"), ("a", "time")],
)
def test_short_row_names_its_line_and_missing_field(row, missing):
    text = make_csv(["a,1,0.5,never", row])
    with pytest.raises(MissingField) as err:
        load_panel(io.StringIO(text))
    assert err.value.code == "MISSING_FIELD"
    assert str(err.value) == f"line 3: no {missing!r} field"


def test_short_row_keeps_earlier_field_errors():
    # fields are checked in column order: a bad time before the missing
    # outcome is still a bad time, on the same line
    with pytest.raises(NonIntegerTime, match="^line 3: time 'x'"):
        load_panel(io.StringIO(make_csv(["a,1,0.5,never", "a,x"])))
    with pytest.raises(BadAdoptionTime, match="^line 2: cohort"):
        load_panel(io.StringIO(make_csv(["a,1,0.5,later", "a,2"])))


def test_adoption_outside_range():
    with pytest.raises(BadAdoptionTime):
        load_panel(io.StringIO(grid_csv([("a", "1"), ("b", "never")], T=3)))
    with pytest.raises(BadAdoptionTime):
        load_panel(io.StringIO(grid_csv([("a", "9"), ("b", "never")], T=3)))


def test_inconsistent_cohort_label():
    text = grid_csv([("a", "2"), ("b", "never")], T=2)
    text = text.replace("a,2,2,2", "a,2,2,never")
    with pytest.raises(InconsistentCohortLabel):
        load_panel(io.StringIO(text))


def test_all_treated_rejected():
    with pytest.raises(NoNeverTreated):
        load_panel(io.StringIO(grid_csv([("a", "2"), ("b", "3")], T=4)))


def test_a_str_is_always_a_path(tmp_path):
    text = grid_csv([("a", "3"), ("b", "never")], T=4)
    path = tmp_path / "odd\nname.csv"
    path.write_text(text)
    by_path = load_panel(str(path))
    assert np.array_equal(by_path.outcome, load_panel(io.StringIO(text)).outcome)
    # header-only text is an empty panel as a stream, a missing file as a str
    with pytest.raises(PanelError, match="empty panel file") as err:
        load_panel(io.StringIO("unit,time,outcome,cohort"))
    assert err.value.code == "PANEL_ERROR"
    with pytest.raises(FileNotFoundError):
        load_panel(str(tmp_path / "unit,time,outcome,cohort"))


def test_layout_adjustment_weights():
    # one early unit, three mid, one late, four never: mid weight 3/8,
    # late weight 1/5
    units = [("e", "4")] + [(f"m{i}", "6") for i in range(3)]
    units += [("l", "8")] + [(f"n{i}", "never") for i in range(4)]
    layout = build_layout(load_panel(io.StringIO(grid_csv(units, T=8))))
    assert layout.sizes == (1, 3, 1)
    assert layout.weight(1) == pytest.approx(0.375)
    assert layout.weight(2) == pytest.approx(0.2)


def test_layout_initial_controls_toy():
    units = [("a", "5"), ("b", "7"), ("c", "never"), ("d", "never")]
    panel = load_panel(io.StringIO(grid_csv(units, T=8)))
    layout = build_layout(panel)
    assert [u.tolist() for u in layout.cohort_units] == [[0], [1]]
    assert layout.never_units.tolist() == [2, 3]
    assert layout.never_size == 2
    assert sum(layout.sizes) + layout.never_size == panel.n_units


def test_layout_single_cohort_no_adjustment():
    text = grid_csv([("a", "3"), ("b", "never")], T=5)
    layout = build_layout(load_panel(io.StringIO(text)))
    for estimator, builder in (
        ("imputation", build_w_imputation),
        ("csnyt", build_w_csnyt),
    ):
        cells = build_cell_index(layout, 5, estimator)
        assert np.array_equal(builder(layout, cells).W, np.eye(5))


def test_cell_index_toy_golden_order():
    units = [("a", "5"), ("b", "7"), ("c", "never")]
    layout = build_layout(load_panel(io.StringIO(grid_csv(units, T=8))))
    cells = build_cell_index(layout, 8, "csnyt")
    expect = [
        ("g5", -3), ("g7", -5), ("g5", -2), ("g7", -4),
        ("g5", -1), ("g7", -3), ("g5", 0), ("g7", -2),
        ("g5", 1), ("g7", -1), ("g5", 2), ("g7", 0),
        ("g5", 3), ("g7", 1), ("g5", 4), ("g7", 2),
    ]
    assert len(cells) == 16
    got = [(f"g{t_g}", s) for t_g, s in zip(cells.cohort_time, cells.rel)]
    assert got == expect
    # the two reference cells are the structural zeros
    assert [p for p in range(16) if cells.structural_zero(p)] == [6, 11]
    assert len(cells.value_positions) == 14


def test_cell_index_single_cohort_small():
    text = grid_csv([("a", "2"), ("b", "never")], T=3)
    layout = build_layout(load_panel(io.StringIO(text)))
    cells = build_cell_index(layout, 3, "imputation")
    assert list(zip(cells.rel, cells.cal)) == [(0, 1), (1, 2), (2, 3)]


def test_cell_count_is_cohorts_times_periods():
    units = [("e", "4"), ("m", "6"), ("l", "8"), ("n", "never")]
    layout = build_layout(load_panel(io.StringIO(grid_csv(units, T=8))))
    cells = build_cell_index(layout, 8, "imputation")
    assert len(cells) == 24


def test_cell_index_round_trip_and_tie_order():
    units = [("a", "3"), ("b", "5"), ("c", "6"), ("n", "never")]
    layout = build_layout(load_panel(io.StringIO(grid_csv(units, T=7))))
    cells = build_cell_index(layout, 7, "imputation")
    for p in range(len(cells)):
        c = cells.cell(p)
        assert cells.position(c.cohort_time, c.rel) == p
    cals = cells.cal.tolist()
    assert cals == sorted(cals)
    for p in range(len(cells) - 1):
        a, b = cells.cell(p), cells.cell(p + 1)
        if a.cal == b.cal:
            assert a.cohort_time < b.cohort_time


def test_pre_period_counts():
    units = [("a", "3"), ("b", "5"), ("n", "never")]
    layout = build_layout(load_panel(io.StringIO(grid_csv(units, T=6))))
    cells = build_cell_index(layout, 6, "imputation")
    for g, t_g in enumerate(layout.times):
        n_pre = int((cells.pre & (cells.cohort == g)).sum())
        assert n_pre == t_g - 1
        assert n_pre >= 1
