import csv
import io

import numpy as np
import pytest

from blockdid.biasmap import build_w_csnyt, build_w_imputation
from blockdid.panel import (
    BadAdoptionTime,
    DuplicateCell,
    InconsistentCohortLabel,
    MalformedCsv,
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


@pytest.mark.parametrize("stray", [
    10**9,  # the range 1..10**9 would be a billion ints
    "\u06619223372036854775805",  # int() reads 19223372036854775805, past ssize_t
])
def test_periods_that_are_not_consecutive_fail_at_once(stray):
    low = 9223372036854775805 if isinstance(stray, str) else 1
    rows = [f"a,{t},1.0,never" for t in range(low, low + 10)] + [f"b,{stray},1.0,never"]
    with pytest.raises(UnbalancedPanel, match="not a consecutive range") as err:
        load_panel(io.StringIO(make_csv(rows)))
    assert err.value.code == "UNBALANCED_PANEL"


def test_a_bare_carriage_return_stream_fails_with_a_panel_code():
    # a text stream splits lines at LF only, so the csv reader sees a
    # carriage return inside an unquoted field
    text = grid_csv([("a", "2"), ("b", "never")], T=3, line_sep="\r")
    with pytest.raises(MalformedCsv, match="new-line character seen") as err:
        load_panel(io.StringIO(text))
    assert err.value.code == "MALFORMED_CSV"


def test_a_field_past_the_csv_size_limit_fails_with_a_panel_code(tmp_path):
    # even in a column the panel does not read
    long = "x" * (csv.field_size_limit() + 1)
    text = grid_csv([("a", "2"), ("b", "never")], T=3)
    lines = text.splitlines()
    lines[0] += ",note"
    lines[1:] = [row + "," + (long if n == 2 else "") for n, row in enumerate(lines[1:])]
    path = tmp_path / "wide_field.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MalformedCsv, match="field larger than field limit") as err:
        load_panel(str(path))
    assert err.value.code == "MALFORMED_CSV"


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


# --- the one-call parse against the csv reader -----------------------------

_ODD_NAMES = (
    " u{} ", "Zürich {}", "x" * 30 + "{}", "unit" * 8 + "{}", "a,b{}", 'say "hi" {}',
    "two\nlines {}", "\tpad{}", "u{}\0", "#u{}",
)
# the number forms include non-ASCII digits and letters, which np.loadtxt
# misreads, and white space that str.strip takes off
_ODD_TIMES = ("+{}", " {} ", "{}.0", "{}_0", "{}x", "", "\u0661{}", "\u01fe{}", "\x1c{}")
_ODD_OUTCOMES = (
    "1_0", "Infinity", "nan", "+3", "1.0", " 2.5 ", "1e400", "-0", "", "abc",
    "\x1c1", "1e5\x1f", "\u01fe1", "\u0663.5", "2\u2003",
)
_ODD_LABELS = ("later", "Never", " never ", "1_0", "+{}", "{}.0")


def _field(text):
    """A CSV field, quoted when the csv reader needs it to be."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _respelled(field, rng):
    """``field`` with white space around it, or a leading zero on a
    non-negative integer: the same unit or adoption time to the loader."""
    forms = [" {} ", "{} ", "\t{}"] + ["0{}"] * field.isdigit()
    return rng.choice(forms).format(field)


def fuzz_csv(rng):
    """A random panel CSV text: a unit-by-period grid, written plainly or
    with the odds and ends of real exports at a random rate.  Rows come
    unit-major, time-major or cohort-major, and units and adoption times may
    be spelled more than one way, so that the one-call parse meets runs of
    equal fields of every length, broken and across block edges."""
    odd = 0.0 if rng.random() < 0.4 else rng.choice((0.01, 0.05, 0.2, 0.5))
    n, T = rng.randint(1, 6), rng.randint(1, 6)
    lo = rng.choice((1, 1, 1, 2001, -2, 2**63 - 3))
    units = []
    for i in range(n):
        form = rng.choice(_ODD_NAMES) if rng.random() < 2 * odd else "u{}"
        label = "never" if i == 0 or T < 2 else str(lo + rng.randint(1, T - 1))
        if rng.random() < odd / 2:
            label = rng.choice(_ODD_LABELS).format(lo + 1)
        units.append((form.format(i), label))
    columns = ["unit", "time", "outcome", "cohort"]
    if rng.random() < odd:
        rng.shuffle(columns)
    if rng.random() < odd:
        columns.insert(rng.randint(0, 4), "extra")
    if rng.random() < odd:
        columns.append(rng.choice(columns))  # the later column is the one read

    order = [(i, t) for i in range(n) for t in range(lo, lo + T)]
    layout = rng.choice(("unit", "unit", "time", "cohort"))
    if layout == "time":
        order.sort(key=lambda it: it[1])
    elif layout == "cohort":
        order.sort(key=lambda it: units[it[0]][1])
    respell = rng.choice((0.0, 0.0, 0.2, 0.5))
    rows = []
    for i, t in order:
        name, label = units[i]
        if rng.random() < respell:
            name = _respelled(name, rng)
        if rng.random() < respell:
            label = _respelled(label, rng)
        time = str(t)
        if rng.random() < odd / 4:
            time = rng.choice(_ODD_TIMES).format(t)
        outcome = repr(rng.gauss(0.0, 10.0 ** rng.randint(-3, 3)))
        if rng.random() < odd / 4:
            outcome = rng.choice(_ODD_OUTCOMES)
        row = {"unit": name, "time": time, "outcome": outcome,
               "cohort": label, "extra": "x"}
        rows.append([row[c] for c in columns])
    if rng.random() < odd:
        rng.shuffle(rows)
    if rows and rng.random() < odd:
        rows.append(list(rng.choice(rows)))  # a duplicate cell
    if rows and rng.random() < odd:
        rows.pop(rng.randrange(len(rows)))  # a missing cell

    lines = [",".join(columns)]
    for row in rows:
        r = rng.random()
        if r < odd / 8:
            row = row[: rng.randint(1, len(row) - 1)]  # a short row
        elif r < odd / 4:
            row = row + ["more"]  # a ragged row
        if rng.random() < odd / 4:
            lines.append(rng.choice(("", "  ", "# note", "\t", "#" + ",".join(row))))
        quote = rng.random() < odd / 4
        lines.append(",".join(
            '"' + f.replace('"', '""') + '"' if quote else _field(f) for f in row
        ))
    eol = rng.choice(("\n", "\n", "\n", "\r\n", "\r\n", "\r"))
    text = "".join(
        line + (rng.choice(("\n", "\r\n", "\r")) if rng.random() < odd / 8 else eol)
        for line in lines
    )
    if rng.random() < odd:
        text = text.rstrip("\r\n")
    if rng.random() < 0.2:
        text = "# exported\n" * rng.randint(1, 2) + text
    if rng.random() < 0.2:
        text = "\ufeff" + text
    return text


def _result(load, source):
    """A loaded panel, bit for bit, or the loader's exception."""
    try:
        p = load(source)
    except Exception as err:  # any exception must match the reference's
        return "error", type(err), getattr(err, "code", None), str(err)
    outcome = p.outcome
    return (
        "panel", p.units, p.n_periods, p.adoption, p.time_labels,
        tuple(map(type, p.adoption)), outcome.dtype, outcome.shape,
        outcome.tobytes(),
    )


def _results(texts, tmp_path, monkeypatch):
    """Per text, the panel or error of ``load_panel`` and of the csv-reader
    loader, each text read at a block size of its own, from a stream or a
    file."""
    import random

    from blockdid import panel as panel_module
    from oracles import load_panel_csv

    rng = random.Random(0)
    results = []
    for n, text in enumerate(texts):
        block = rng.choice((2, 3, 5, 1024))
        monkeypatch.setattr(panel_module, "_LOAD_BLOCK", block)
        if rng.random() < 0.5:
            path = tmp_path / f"{n}.csv"
            path.write_bytes(text.encode("utf-8"))
            sources = str(path), str(path)
        else:
            sources = io.StringIO(text), io.StringIO(text)
        results.append((
            _result(load_panel, sources[0]),
            _result(lambda s: load_panel_csv(s, block), sources[1]),
        ))
    return results


def _spy_on_plain_blocks(monkeypatch):
    """A list that records, per block, whether it parsed plain."""
    from blockdid import panel as panel_module

    plain, take = [], panel_module._plain_block

    def spy(*args):
        parsed = take(*args)
        plain.append(parsed is not None)
        return parsed

    monkeypatch.setattr(panel_module, "_plain_block", spy)
    return plain


def _fuzz_texts(count, seed=20):
    import random

    rng = random.Random(seed)
    return [fuzz_csv(rng) for _ in range(count)]


def test_loader_matches_the_csv_reader_bit_for_bit(tmp_path, monkeypatch):
    """Thousands of seeded texts load to the same panel, or fail with the
    same exception class, code and message, as through the csv reader alone;
    both the one-call parse and the csv reader see many blocks."""
    plain = _spy_on_plain_blocks(monkeypatch)
    results = _results(_fuzz_texts(3000), tmp_path, monkeypatch)
    assert [n for n, (got, want) in enumerate(results) if got != want] == []
    assert sum(got[0] == "panel" for got, _ in results) > 900
    assert plain.count(True) > 3000 and plain.count(False) > 500


def test_the_width_check_is_what_keeps_long_names_whole(tmp_path, monkeypatch):
    """Mutation check: with the text-width check dropped, ``np.loadtxt`` cuts
    long unit names short and the comparison above fails."""
    from blockdid import panel as panel_module

    monkeypatch.setattr(panel_module, "_TEXT_WIDTH", 10**9)
    results = _results(_fuzz_texts(600), tmp_path, monkeypatch)
    assert any(got != want for got, want in results)


def test_an_integer_read_via_a_float_goes_to_the_csv_reader(monkeypatch):
    """Older numpy reads time "1.0" as 1 and only warns; the block goes to
    the csv reader, which refuses the time as ``int`` does."""
    import warnings

    real = np.loadtxt

    def loadtxt_with_the_old_warning(lines, **kwargs):
        warnings.warn("Parsing an integer via a float is deprecated", DeprecationWarning)
        return real([line.replace(",1.0,", ",1,") for line in lines], **kwargs)

    monkeypatch.setattr(np, "loadtxt", loadtxt_with_the_old_warning)
    text = make_csv(["a,1.0,0.5,never", "a,2,0.5,never"])
    with pytest.raises(NonIntegerTime, match="^line 2: time '1.0'"):
        load_panel(io.StringIO(text))


@pytest.mark.parametrize("late", [
    "{0},{1},{2},{3}", '"{0}",{1},{2},{3}', "# note\n{0},{1},{2},{3}",
    "{0},{1},{2},{3}\r", "{0},{1},{2},{3}\r{0}x,{1},{2},{3}", " {0} ,{1},{2},{3}",
    "{0},{1},\u0663.5,{3}", "{0},{1},1_0,{3}", "{0},{1},{2}", "{0},{1}.0,{2},{3}",
])
def test_a_large_file_switches_to_the_csv_reader_where_it_stops_being_plain(
    tmp_path, late
):
    """At the default block size, a file whose row 1,500 is rewritten, after
    plain blocks, loads as through the csv reader alone, errors and their
    line numbers included."""
    from oracles import load_panel_csv

    units = [(f"u{i}", "never" if i % 3 else "3") for i in range(400)]
    lines = grid_csv(units, T=5).splitlines(keepends=True)
    lines[1500] = late.format(*lines[1500].rstrip("\n").split(",")) + "\n"
    path = tmp_path / "panel.csv"
    path.write_text("".join(lines), encoding="utf-8", newline="")
    assert _result(load_panel, str(path)) == _result(load_panel_csv, str(path))


def test_a_simulated_panel_takes_the_one_call_parse(tmp_path, monkeypatch):
    """The CSV ``simulate`` writes parses plain, every block."""
    from blockdid import panel as panel_module
    from blockdid.cli import RunConfig, run

    path = tmp_path / "toy.csv"
    run(RunConfig("simulate", example="toy", seed=3, out=str(path)))
    monkeypatch.setattr(panel_module, "_LOAD_BLOCK", 16)
    plain = _spy_on_plain_blocks(monkeypatch)
    load_panel(str(path))
    assert len(plain) > 2 and all(plain)


def test_a_time_major_simulated_panel_takes_the_one_call_parse(tmp_path, monkeypatch):
    """Rows sorted by period, so that every unit field starts a run of its
    own, still parse plain, every block, to the same panel."""
    from blockdid import panel as panel_module
    from blockdid.cli import RunConfig, run

    path = tmp_path / "toy.csv"
    run(RunConfig("simulate", example="toy", seed=3, out=str(path)))
    lines = path.read_text().splitlines(keepends=True)
    data = [line for line in lines if not line.startswith("#")]
    header, rows = data[0], data[1:]
    rows.sort(key=lambda line: int(line.split(",")[1]))
    time_major = tmp_path / "time_major.csv"
    time_major.write_text(header + "".join(rows))
    monkeypatch.setattr(panel_module, "_LOAD_BLOCK", 16)
    plain = _spy_on_plain_blocks(monkeypatch)
    assert _result(load_panel, str(time_major)) == _result(load_panel, str(path))
    assert len(plain) > 4 and all(plain)
