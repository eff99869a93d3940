"""Mutated input CSVs never end in a traceback, a warning, or a non-finite output.

Each example takes one valid input file (a table override, a split-pricing
component yield, or a `validate` series) through a few mutations: fields
dropped, added or replaced by extreme or non-numeric text, rows blanked,
repeated or removed, and quotes or control characters inserted. `luccsim`
then runs a 1x2 grid for two cycles of one drawn weather level, or
validates, on it: a neighbor reads `alpha_bn`, every `alpha_wgc` row is
read by some examples, and an overflowing aspiration factor first shows in
cycle 1.
Exit 0 must write only finite numbers; any other exit is 2, 3 or 4 with
one stderr line.
"""

import contextlib
import csv
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from luccsim import TechLevel, Wgc, default_tables
from luccsim.cli import main


def _table(header, rows):
    return "\n".join([header, *(",".join(map(str, row)) for row in rows)]) + "\n"


_FILES = {
    "wct.csv": _table("tl,value", [("L", 252), ("A", 333), ("H", 413)]),
    "wheat.csv": _table("tl,wgc,value", [(tl.code, w.code, 2.0 + w) for tl in TechLevel for w in Wgc]),
    "soy2.csv": _table("tl,wgc,value", [(tl.code, w.code, 1.5) for tl in TechLevel for w in Wgc]),
    "alpha_wgc.csv": _table("wgc,value", [(w.code, default_tables().alpha_wgc[w]) for w in Wgc]),
    "alpha_bn.csv": _table("tl,bn_tl,value", [(tl.code, bn.code, default_tables().alpha_bn[tl, bn])
                                             for tl in TechLevel for bn in TechLevel]),
    "cycles.csv": _table("cycle,wgc,cover_m,mean_p", [(0, "A", 40.0, 110.5), (1, "F", 42.0, 130.25),
                                                      (2, "U", 41.0, 95.0)]),
    "observed.csv": _table("cover_maize,year,mean_p", [(30, 1, 100), (35, 2, 120), (32, 3, 90)]),
}
_SCENARIO = {"preset": "longterm", "grid_rows": 1, "grid_cols": 2, "cycles": 2}
_MUTABLE = ("wct.csv", "alpha_wgc.csv", "alpha_bn.csv", "wheat.csv", "soy2.csv", "cycles.csv",
            "observed.csv")

_CELLS = st.sampled_from([
    "", " ", "abc", "nan", "NaN", "-inf", "Infinity", "1e400", "-1e400", "1e308", "-1e308",
    "1.7976931348623157e308", "1e-310", "5e-324", "-5e-324", "0", "-0.0", "1_0", "0x10", "1e",
    "L", "A", "H", "VF", "M", "tl", "value", '"', '""', '"1,2"', "9" * 131_073,
]) | st.floats().map(repr) | st.text(max_size=4)
_LEVELS = st.sampled_from([w.code for w in Wgc])
_CHARS = st.sampled_from(['"', "'", ",", "\x00", "\r", "\n", "\t", "\x0b", "\x1f", "\ufeff",
                          "\u00a0", "\u2009", "\u00e9", " "])


@st.composite
def _mutated(draw, text):
    """`text` after one to four edits of its rows and fields."""
    rows = [line.split(",") for line in text.split("\n")[:-1]]
    for _ in range(draw(st.integers(1, 4))):
        if not rows:
            rows.append([])
        r = draw(st.integers(0, len(rows) - 1) | st.integers(min(1, len(rows) - 1), len(rows) - 1))
        row = rows[r]
        last = max(len(row) - 1, 0)
        c = draw(st.integers(0, last) | st.just(last))  # the value column, more often
        edit = draw(st.sampled_from(["cell", "cell", "drop", "extra", "blank", "repeat", "remove",
                                     "char"]))
        if edit == "cell" and row:
            row[c] = draw(_CELLS)
        elif edit == "drop" and row:
            del row[c]
        elif edit == "extra":
            row.insert(c, draw(_CELLS))
        elif edit == "blank":
            rows.insert(r, [])
        elif edit == "repeat":
            rows.insert(r, list(row))
        elif edit == "remove":
            del rows[r]
        elif edit == "char" and row:
            at = draw(st.integers(0, len(row[c])))
            row[c] = row[c][:at] + draw(_CHARS) + row[c][at:]
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(",".join(row) for row in rows) + draw(st.sampled_from([end, ""]))


@st.composite
def _cases(draw):
    name = draw(st.sampled_from(_MUTABLE))
    return name, draw(_mutated(_FILES[name])), draw(_LEVELS)


def _refuse(token):
    raise ValueError(f"non-finite JSON token {token}")


def _assert_finite_outputs(out):
    for path in out.iterdir():
        if path.suffix == ".json":
            json.loads(path.read_text(encoding="utf-8"), parse_constant=_refuse)
        else:
            with open(path, newline="", encoding="utf-8") as handle:
                header, *rows = csv.reader(handle)
            for row in rows:
                for name, text in zip(header, row):
                    assert name == "wgc" or math.isfinite(float(text)), (path.name, name, text)


def check_case(name, text, wgc="A"):
    """Run the command that reads `name`, with `text` as that file, and check how it ends.

    A run's weather is `wgc` every cycle, so it reads that row of alpha_wgc.
    """
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        for file, body in {**_FILES, name: text}.items():
            (work / file).write_text(body, encoding="utf-8", newline="")
        tables = ("wct", "alpha_wgc", "alpha_bn")
        scenario = {**_SCENARIO, "climate": {"constant": wgc},
                    "table_overrides": {t: str(work / f"{t}.csv") for t in tables},
                    "split_yield_files": {f: str(work / f"{f}.csv") for f in ("wheat", "soy2")}}
        (work / "scenario.json").write_text(json.dumps(scenario), encoding="utf-8")
        out = work / "out"
        out.mkdir()
        if name in ("cycles.csv", "observed.csv"):
            args = ["validate", str(work / "cycles.csv"), str(work / "observed.csv"),
                    "--series", "cover_m,mean_p"]
        else:
            args = ["run", "--config", str(work / "scenario.json")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning escapes main as an exception
            code = main([*args, "--out-dir", str(out)])
        err = err.getvalue()
        assert code in (0, 2, 3, 4), (code, err)
        if code:
            assert err.count("\n") == 1 and err.endswith("\n"), err
        else:
            assert err == ""
            _assert_finite_outputs(out)
        return code


@settings(derandomize=True, max_examples=150)
@given(_cases())
def test_mutated_input_csv_exits_cleanly(case):
    check_case(*case)


# Any float as the alpha_wgc entry of the one weather level a run reads: the
# (-1, 1) rule refuses most, and the aspiration guard what still overflows.
@settings(derandomize=True, max_examples=100)
@given(_LEVELS, st.floats())
def test_any_alpha_wgc_entry_of_the_weather_exits_cleanly(wgc, value):
    rows = [(w.code, value if w.code == wgc else default_tables().alpha_wgc[w]) for w in Wgc]
    check_case("alpha_wgc.csv", _table("wgc,value", rows), wgc)


def test_the_unmutated_files_run_and_validate():
    for name in ("wct.csv", "observed.csv"):
        assert check_case(name, _FILES[name]) == 0
