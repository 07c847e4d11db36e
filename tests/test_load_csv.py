"""load_csv against a per-cell reference loader, on generated CSV text."""

import csv
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustgmm import CARD_STANDIN_COLUMNS, Dataset, load_csv

MISSING_MARKERS = {"", "na", "nan", "null"}
DATA_CSV = Path(__file__).resolve().parents[1] / "data" / "card_standin.csv"


def reference_load_csv(path, columns):
    """The row-by-row, cell-by-cell loader that load_csv must reproduce."""
    response = columns["response"]
    treatment = columns.get("treatment")
    instruments = [columns["instruments"]] if isinstance(columns["instruments"], str) \
        else list(columns["instruments"])
    covariates = [columns["covariates"]] if isinstance(columns["covariates"], str) \
        else list(columns["covariates"])
    wanted = [response] + ([treatment] if treatment else []) + instruments + covariates

    with open(path, "r", newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("no data rows") from None
        header = [h.strip() for h in header]
        positions = {}
        for name in wanted:
            if name not in header:
                raise ValueError(f"column {name!r} not found in header")
            positions[name] = header.index(name)

        parsed = []
        dropped = 0
        for lineno, row in enumerate(reader, start=2):
            record = []
            missing = False
            for name in wanted:
                pos = positions[name]
                cell = row[pos].strip() if pos < len(row) else ""
                if cell.lower() in MISSING_MARKERS:
                    missing = True
                    break
                try:
                    record.append(float(cell))
                except ValueError:
                    raise ValueError(
                        f"line {lineno}, column {name!r}: cannot parse {cell!r}"
                    ) from None
            if missing:
                dropped += 1
                continue
            parsed.append(record)

    if dropped:
        warnings.warn(f"dropped {dropped} rows with missing values")
    if not parsed:
        raise ValueError("no data rows")

    table = np.asarray(parsed, dtype=np.float64)
    cursor = 0
    Y = table[:, cursor]
    cursor += 1
    T = None
    if treatment:
        T = table[:, cursor]
        cursor += 1
    Z = table[:, cursor : cursor + len(instruments)]
    cursor += len(instruments)
    X = table[:, cursor : cursor + len(covariates)]
    return Dataset(X=X, Y=Y, Z=Z, T=T)


def outcome(loader, path, columns):
    """(result, warnings): the arrays as raw bytes, or the error message."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            data = loader(path, columns)
        except ValueError as exc:
            result = ("error", str(exc))
        else:
            result = ("data", [None if a is None else (a.shape, a.tobytes())
                               for a in (data.X, data.Y, data.Z, data.T)])
    return result, [(w.category, str(w.message)) for w in caught]


def assert_same_as_reference(path, columns):
    got = outcome(load_csv, path, columns)
    assert got == outcome(reference_load_csv, path, columns)
    return got


COLUMN_MAPS = [
    {"response": "y", "instruments": "z1", "covariates": "x1"},
    # z1 is both an instrument and a covariate
    {"response": "y", "treatment": "t", "instruments": ["z1", "z2"], "covariates": ["x1", "z1"]},
    {"response": "y", "instruments": ["z2"], "covariates": ["x2", "x1"]},
]
NAMES = ["y", "t", "z1", "z2", "x1", "x2", "extra"]

finite_numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["1_000", "-0", "+5", ".5", "5.", "-1e-400", "1e-3"]),
)
# float() reads these as numbers, so the row is kept and Dataset rejects it
non_finite = st.sampled_from(["1e400", "inf", "-Infinity", "-nan", "+NaN"])
markers = st.sampled_from(["", "na", "NA", "Na", "nan", "NaN", "NAN", "null", "NULL", "Null"])
unparseable = st.sampled_from(["oops", "1,5", "--1", "1__0", "_1", "1 2", "n a", "0x1f",
                               'say "hi"', "1\n2"])
pads = st.sampled_from(["", " ", "  ", "\t"])


def render(cell, quote):
    if quote or any(c in cell for c in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


@st.composite
def csv_texts(draw):
    names = draw(st.permutations(NAMES))
    dropped_name = draw(st.sampled_from([None] * 30 + NAMES))
    names = [n for n in names if n != dropped_name]
    if draw(st.booleans()):  # a duplicate header: the first one wins
        names.insert(draw(st.integers(0, len(names))), draw(st.sampled_from(names)))
    header = [draw(pads) + n + draw(pads) for n in names]
    # most examples hold only numbers and missing markers, so that most of
    # them load; the rest mix in cells that raise at their own rate
    kinds = [finite_numbers] * 12 + [markers] * 2
    if draw(st.booleans()):
        kinds += [unparseable]
    if draw(st.booleans()):
        kinds += [non_finite]
    text = st.sampled_from(kinds).flatmap(lambda kind: kind)
    cell = st.builds(lambda a, t, b: a + t + b, pads, text, pads)
    lines = [",".join(header)]
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["full"] * 6 + ["short", "long", "blank"]))
        if kind == "blank":
            lines.append("")
            continue
        width = {"full": len(names), "long": len(names) + 2,
                 "short": draw(st.integers(0, len(names) - 1))}[kind]
        lines.append(",".join(render(draw(cell), draw(st.booleans())) for _ in range(width)))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + (end if draw(st.booleans()) else "")


@settings(max_examples=150, deadline=None)
@given(csv_texts(), st.sampled_from(COLUMN_MAPS))
def test_load_csv_matches_reference_loader(text, columns):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "gen.csv"
        path.write_text(text, encoding="utf-8", newline="")
        assert_same_as_reference(path, columns)


COLS = {"response": "y", "instruments": "z1", "covariates": "x1"}


@pytest.mark.parametrize("text, expected", [
    # an unparseable cell before a missing one raises ...
    ("y,z1,x1\n1,oops,na\n", ("error", "line 2, column 'z1': cannot parse 'oops'")),
    # ... after one, the row is dropped
    ("y,z1,x1\n1,na,oops\n2,3,4\n", "dropped 1 rows with missing values"),
    # "before" is role order (response, instruments, covariates), not file order
    ("x1,z1,y\noops,na,1\n4,3,2\n", "dropped 1 rows with missing values"),
    ("x1,z1,y\nna,oops,1\n", ("error", "line 2, column 'z1': cannot parse 'oops'")),
    # the first bad row raises, with no warning for the rows dropped before it
    ("y,z1,x1\n1, NULL ,2\n\n3,4,bad\n5,6,7\n", ("error", "line 4, column 'x1': cannot parse 'bad'")),
    # short rows and blank lines count as dropped; quotes are stripped
    ('y,z1,x1\n1,2\n\n"3"," 4 ",1_000\n', "dropped 2 rows with missing values"),
])
def test_load_csv_first_error_and_drop_order(tmp_path, text, expected):
    path = tmp_path / "order.csv"
    path.write_text(text)
    result, caught = assert_same_as_reference(path, COLS)
    if isinstance(expected, tuple):
        assert result == expected and caught == []
    else:
        assert result[0] == "data" and caught == [(UserWarning, expected)]


def test_load_csv_skips_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_text("y,z1,x1\n1,2,3\n4,5,6\n", encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    got = load_csv(path, COLS)
    np.testing.assert_array_equal(got.Y, [1.0, 4.0])
    np.testing.assert_array_equal(got.X, [[3.0], [6.0]])


# the bundled file is clean, so load_csv takes its bulk path; exper in two
# roles is the map of the regime scan's clean-two-instrument design
BUNDLED_MAPS = [
    CARD_STANDIN_COLUMNS,
    {"response": "lwage", "instruments": ["nearc4", "exper"], "covariates": ["educ", "exper"]},
]


@pytest.mark.parametrize("columns", BUNDLED_MAPS)
def test_load_csv_reads_the_bundled_file_like_the_reference(columns):
    result, caught = assert_same_as_reference(DATA_CSV, columns)
    assert result[0] == "data" and caught == []


@pytest.mark.parametrize("columns", BUNDLED_MAPS)
def test_load_csv_reads_a_dirty_copy_like_the_reference(tmp_path, columns):
    # a missing response, a row cut short of expersq and a blank line send
    # load_csv down its row loop
    lines = DATA_CSV.read_text().splitlines()
    lines[5] = "na," + lines[5].split(",", 1)[1]
    lines[10] = lines[10].rsplit(",", 1)[0]
    lines.insert(20, "")
    path = tmp_path / "dirty.csv"
    path.write_text("\n".join(lines) + "\n")
    result, caught = assert_same_as_reference(path, columns)
    # the short row lacks only expersq, which the second map does not read
    lost = 2 if "expersq" in columns["covariates"] else 1
    y_shape = result[1][1][0]
    assert result[0] == "data" and y_shape == (3010 - lost,)
    # the blank line is dropped too
    assert caught == [(UserWarning, f"dropped {lost + 1} rows with missing values")]
