"""CLI surface: output schemas, exit codes, config replay."""

import ast
import functools
import inspect
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from smbounds import cli, suites
from smbounds.processes import EventSpec, EventVariant, parse_law


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBoundsCommand:
    def test_table_output(self, capsys):
        code, out, _ = run(["bounds", "--x", "1", "--v", "1", "--n", "2"], capsys)
        assert code == 0
        assert "hoeffding" in out and "prohorov" in out
        assert "0.6299605249474366" in out

    def test_json_values(self, capsys):
        code, out, _ = run(["bounds", "--x", "1", "--v", "1", "--n", "2",
                            "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        by_name = {row["bound_name"]: row for row in doc["bounds"]}
        assert by_name["hoeffding"]["value"] == pytest.approx(2 ** (-2 / 3), rel=1e-12)
        assert by_name["freedman"]["value"] == pytest.approx(math.e / 4, rel=1e-12)

    def test_indicator_regime(self, capsys):
        code, out, _ = run(["bounds", "--x", "3", "--v", "1", "--n", "2",
                            "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        h = next(r for r in doc["bounds"] if r["bound_name"] == "hoeffding")
        assert h["value"] == 0.0
        assert h["log_value"] == "-inf"

    def test_trivial_point_all_ones(self, capsys):
        code, out, _ = run(["bounds", "--x", "0", "--v", "1", "--n", "5",
                            "--format", "json"], capsys)
        doc = json.loads(out)
        assert code == 0
        assert all(r["value"] == 1.0 for r in doc["bounds"])

    # every bound at one query with a range and a level, in report order
    HEADER = "x,v,n,b,y,bound_name,log_value,value,branch,p_hat,ci_low,ci_high,verdict,seed\n"
    ROWS_AT_2 = HEADER + """\
2,3,10,,,hoeffding,-0.22222591556314972,0.800734445526047,,,,,,
2,3,10,,,freedman,-0.2073776500836626,0.81271267101769906,,,,,,
2,3,10,,,bennett,-0.20714315106340503,0.81290327369000015,,,,,,
2,3,10,,,bernstein,-0.20689655172413796,0.81310375981903771,,,,,,
2,3,10,,,prohorov,-0.11088374830128546,0.89504279312637969,,,,,,
2,3,10,0.5,,azuma_refined,-0.35555555555555557,0.70078401059253281,range,,,,,
2,3,10,0.5,,hoeffding_bounded,-0.38010483055654137,0.68378972339772848,,,,,,
2,3,10,,1.5,fuk_nagaev_h_term,-0.21006933918356852,0.81052804266892609,,,,,,
2,3,10,,1.5,fuk_nagaev,-0.19780719149925252,0.82052804266892609,,,,,,
2,3,10,,1.5,courbot,-0.1756207280423448,0.83893610794539719,,,,,,
2,3,10,,1.5,haeusler,0,1,,,,,,
"""
    # at x = 0 haeusler claims nothing and azuma's variance branch is active
    ROWS_AT_0 = HEADER + """\
0,3,10,,,hoeffding,0,1,,,,,,
0,3,10,,,freedman,0,1,,,,,,
0,3,10,,,bennett,0,1,,,,,,
0,3,10,,,bernstein,-0,1,,,,,,
0,3,10,,,prohorov,-0,1,,,,,,
0,3,10,0.5,,azuma_refined,-0,1,variance,,,,,
0,3,10,0.5,,hoeffding_bounded,0,1,,,,,,
0,3,10,,1.5,fuk_nagaev_h_term,0,1,,,,,,
0,3,10,,1.5,fuk_nagaev,0,1,,,,,,
0,3,10,,1.5,courbot,0,1,,,,,,
"""

    def test_optional_families(self, capsys):
        code, out, _ = run(["bounds", "--x", "1", "--v", "1", "--n", "10",
                            "--b", "0.5", "--y", "2", "--format", "csv"], capsys)
        assert code == 0
        names = [line.split(",")[5] for line in out.strip().splitlines()[1:]]
        assert "azuma_refined" in names and "fuk_nagaev" in names
        assert "courbot" in names and "haeusler" in names
        # the supermartingale flag only refuses b > 1, so it prints the same rows
        for x, expected in (("2", self.ROWS_AT_2), ("0", self.ROWS_AT_0)):
            for flag in ([], ["--supermartingale"]):
                code, out, _ = run(["bounds", "--x", x, "--v", "3", "--n", "10", "--b", "0.5",
                                    "--y", "1.5", "--p-exceed", "0.01", "--sum-exceed", "0.02",
                                    "--p-qc-exceed", "0.001", "--format", "csv", *flag], capsys)
                assert (code, out) == (0, expected)
            rows = [dict(zip(cli.CSV_COLUMNS, line.split(","))) for line in out.splitlines()[1:]]
            assert [row["bound_name"] for row in rows] == [
                "hoeffding", "freedman", "bennett", "bernstein", "prohorov", "azuma_refined",
                "hoeffding_bounded", "fuk_nagaev_h_term", "fuk_nagaev", "courbot",
            ] + (["haeusler"] if x == "2" else [])
            for row in rows:
                name = row["bound_name"]
                in_range = name in ("azuma_refined", "hoeffding_bounded")
                truncation = name.startswith(("fuk_nagaev", "courbot", "haeusler"))
                assert row["b"] == ("0.5" if in_range else "")
                assert row["y"] == ("1.5" if truncation else "")
                branch = "range" if x == "2" else "variance"
                assert row["branch"] == (branch if name == "azuma_refined" else "")

    def test_missing_required_is_usage_error(self, capsys):
        code, _, err = run(["bounds", "--x", "1", "--v", "1"], capsys)
        assert code == 2
        assert "--n" in err


class TestCsvSchema:
    def test_columns_are_fixed(self, capsys):
        code, out, _ = run(["bounds", "--x", "1", "--v", "1", "--n", "2",
                            "--format", "csv"], capsys)
        assert code == 0
        header = out.splitlines()[0].split(",")
        assert header == cli.CSV_COLUMNS
        # absent fields are empty, never omitted
        first = out.splitlines()[1].split(",")
        assert len(first) == len(cli.CSV_COLUMNS)
        assert first[cli.CSV_COLUMNS.index("p_hat")] == ""

    def test_17_digit_floats_round_trip(self, capsys):
        _, out, _ = run(["bounds", "--x", "1", "--v", "1", "--n", "2",
                         "--format", "csv"], capsys)
        idx = cli.CSV_COLUMNS.index("value")
        for line in out.strip().splitlines()[1:]:
            cell = line.split(",")[idx]
            # %.17g output: parses back to the same double
            assert cell == f"{float(cell):.17g}"
        assert "0.67957045711476138" in out  # 17 significant digits present


class TestCompareCommand:
    def test_default_grid_passes(self, tmp_path, capsys):
        from smbounds import bounds as bnd

        out_file = tmp_path / "cmp.csv"
        code, _, _ = run(["compare", "--out", str(out_file)], capsys)
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0].split(",") == cli.CSV_COLUMNS
        points = sum(len(vs) * len(xs) for _, vs, xs in bnd.default_grid())
        assert len(lines) == 1 + points * 5
        assert all(line.split(",")[12] == "PASS" for line in lines[1:])

    def test_single_point_grid_matches_bounds(self, tmp_path, capsys):
        grid = tmp_path / "grid.cfg"
        grid.write_text("x = 1\nv = 1\nn = 2\n")
        code, out, _ = run(["compare", "--grid", str(grid)], capsys)
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 5
        h = rows[0].split(",")
        assert h[5] == "hoeffding"
        assert float(h[7]) == pytest.approx(2 ** (-2 / 3), rel=1e-12)

    def test_broken_chain_exits_1(self, tmp_path, capsys, monkeypatch):
        # a bennett kernel below freedman's breaks the chain at every grid
        # point; compare and the chain suite read it through core_logs
        from smbounds import bounds as bnd

        monkeypatch.setattr(bnd, "_bennett_log", lambda x, v: -1e3)
        out_file = tmp_path / "cmp.csv"
        code, _, err = run(["compare", "--out", str(out_file)], capsys)
        assert code == 1
        assert "ordering failed" in err
        verdicts = {line.split(",")[12] for line in out_file.read_text().splitlines()[1:]}
        assert verdicts == {"FAIL"}
        code, out, _ = run(["verify", "--suite", "chain"], capsys)
        assert code == 1
        assert "[chain] FAIL ordering chain" in out

    def test_rows_match_the_dict_rows_of_the_bound_table(self, tmp_path, capsys):
        # compare writes a point's five CSV rows with one template, its x cells
        # once per block and its v,n cells once per v; the bytes must equal
        # _csv_text over dict rows built from the bound table at queries made here
        # in (n, v, x) order: at x = 0 (the -0 bernstein and prohorov cells),
        # x = n, x > n (-inf and 0), x/n rounding to 1 (n > 2^53) and tiny
        # x/v^2, with two n and three v so the shared cells are reused.  The
        # default grid (no --grid) is held to the same reference.
        from smbounds import bounds as bnd

        xs = [0.0, 1e-10, 0.5, 2.0, 9007199254740992.0]
        vs = [0.5, 3.0, 30000.0]
        ns = [2, 9007199254740993]
        grid = tmp_path / "grid.cfg"
        grid.write_text("".join(f"{axis} = {', '.join(map(repr, values))}\n"
                                for axis, values in (("x", xs), ("v", vs), ("n", ns))))
        file_queries = [bnd.TailQuery(x, v, n) for n in ns for v in vs for x in xs]
        assert any(q.x < q.n and q.x / q.n == 1.0 for q in file_queries)
        default_queries = [bnd.TailQuery(x, v, n) for n, dvs, dxs in bnd.default_grid()
                           for v in dvs for x in dxs]

        for grid_args, queries in (([f"--grid={grid}"], file_queries), ([], default_queries)):
            rows, failures = [], 0
            for q in queries:
                pairs = bnd._evaluate(dict(x=q.x, v=q.v, n=q.n))
                ok = bnd.ordering_ok([b.log_value for _, b, _ in pairs])
                failures += not ok
                rows += [dict(x=q.x, v=q.v, n=q.n, bound_name=e.name, log_value=b.log_value,
                              value=math.exp(b.log_value), verdict="PASS" if ok else "FAIL")
                         for e, b, _ in pairs]
            if grid_args:
                cells = {(r["bound_name"], cli.fmt(r["log_value"])) for r in rows}
                assert {("bernstein", "-0"), ("prohorov", "-0"), ("hoeffding", "-inf")} <= cells
            doc = {"command": "compare", "points": len(queries), "ordering_failures": failures,
                   "rows": rows}
            for fmt, expected in (("csv", cli._csv_text(rows)), ("json", cli._json_text(doc))):
                out_file = tmp_path / f"c.{fmt}"
                code, _, _ = run(["compare", *grid_args, "--format", fmt,
                                  "--out", str(out_file)], capsys)
                assert code == (1 if failures else 0)
                assert out_file.read_text() == expected

    def test_bad_grid_file(self, tmp_path, capsys):
        grid = tmp_path / "grid.cfg"
        grid.write_text("x = 1\n")
        code, _, err = run(["compare", "--grid", str(grid)], capsys)
        assert code == 2
        assert "grid" in err


# compare checks its grid one axis value at a time; these grids put each kind
# of value TailQuery refuses at the first, a middle and the last place of its
# axis, alone and with a second bad axis, so the first refusal must be the one
# that building a query at every point in (n, v, x) order meets first
_GRID_AXES = {"x": [0.0, 0.5, 2.0], "v": [0.5, 1.0, 3.0], "n": [1, 4, 10]}
_BAD_VALUES = {"x": [math.nan, math.inf, -1.0],
               "v": [math.inf, math.nan, 0.0, -2.0, 1e-200, 1e200],
               "n": [0, -3]}
# x = -1 is refused after a non-finite v at the same point, so a shared first
# point also tests the order of TailQuery's own checks
_BAD_IN_PAIRS = {"x": -1.0, "v": math.inf, "n": 0}


def _bad_grids():
    for axis, values in _BAD_VALUES.items():
        for value in values:
            for pos in range(3):
                yield ((axis, pos, value),)
    for a, b in (("x", "v"), ("v", "n"), ("x", "n")):
        for pos_a in range(3):
            for pos_b in range(3):
                yield (a, pos_a, _BAD_IN_PAIRS[a]), (b, pos_b, _BAD_IN_PAIRS[b])


@pytest.mark.parametrize("bad", list(_bad_grids()), ids=lambda bad: ",".join(
    f"{axis}[{pos}]={value!r}" for axis, pos, value in bad))
def test_compare_refuses_the_first_bad_point_of_the_product(bad, tmp_path, capsys):
    from smbounds import bounds as bnd

    axes = {axis: list(values) for axis, values in _GRID_AXES.items()}
    for axis, pos, value in bad:
        axes[axis][pos] = value
    with pytest.raises(ValueError) as first:
        for n in axes["n"]:
            for v in axes["v"]:
                for x in axes["x"]:
                    bnd.TailQuery(x, v, n)
    grid = tmp_path / "grid.cfg"
    grid.write_text("".join(f"{axis} = {', '.join(map(repr, values))}\n"
                            for axis, values in axes.items()))
    for fmt in ("csv", "json"):
        code, out, err = run(["compare", "--grid", str(grid), "--format", fmt], capsys)
        assert (code, out, err) == (2, "", f"smbounds compare: {first.value}\n")


@pytest.mark.parametrize("blocks", [
    # per-n x lists, as the default grid has: a bad x only in a later block
    [(1, [0.5, 1.0], [0.0, 0.5]), (2, [0.5, 1.0], [0.0, -1.0])],
    # a later block's bad n, alone and with a bad first x of its own list
    [(1, [0.5, 1.0], [0.0, 0.5]), (0, [0.5, 1.0], [0.0, 0.5])],
    [(1, [0.5, 1.0], [0.0, 0.5]), (0, [0.5, 1.0], [math.nan, 0.5])],
    # a later block's own v list
    [(1, [0.5, 1.0], [0.0, 0.5]), (2, [0.5, 0.0], [0.0, 0.5])],
])
def test_grid_check_of_per_block_lists_keeps_product_order(blocks):
    from smbounds import bounds as bnd

    with pytest.raises(ValueError) as first:
        for n, vs, xs in blocks:
            for v in vs:
                for x in xs:
                    bnd.TailQuery(x, v, n)
    with pytest.raises(ValueError) as checked:
        cli._check_grid(blocks)
    assert str(checked.value) == str(first.value)


#: Points where the ordering chain or the Bennett and Bernstein kernels
#: failed on valid queries: two logs of size 8e8 and 2e5 whose rounding
#: is far above 1e-10, then x^2 and Bennett's denominator both overflowing
#: (NaN), x^2 alone (-inf), and 2x/(3v^2) and x/v^2 (-0, and -inf for F).
LARGE_POINTS = [
    (1.4276988735455078e+20, 3494108508243913.5, 29483769812635640397825),
    (1.1732646865674703e+18, 1837973035557215.0, 3678587061314785281),
    (1e200, 1e-60, 10),
    (1e155, 1e60, 10),
    (1e10, 1e-150, 10),
]


@pytest.mark.parametrize("x, v, n", LARGE_POINTS)
def test_large_points_pass_the_chain(x, v, n, tmp_path, capsys):
    grid = tmp_path / "grid.cfg"
    grid.write_text(f"x = {x!r}\nv = {v!r}\nn = {n}\n")
    code, out, err = run(["compare", "--grid", str(grid)], capsys)
    assert (code, err) == (0, "")
    assert {line.split(",")[12] for line in out.splitlines()[1:]} == {"PASS"}


def test_compare_writes_the_same_bytes_with_the_bounds_wrapped(tmp_path, capsys, monkeypatch):
    # the sweep benchmark runs compare on its grid files in one process, and
    # its traced run does so again with every function in bounds.__all__
    # behind a pass-through wrapper: both must write the bytes of the first
    # run.  Two grids built as the sweep builds them, at n = 10 and 10^6,
    # with v = 3e4 and x near 1e-10, the kernels' cancellation regime
    from smbounds import bounds as bnd

    rng = random.Random(7)
    grids = []
    for i, n in enumerate((10, 10**6)):
        xs = {0.0, 0.3 * n, 0.7 * n, float(n)} | {10.0 ** rng.uniform(-12.0, -9.0) for _ in range(3)}
        xs |= {rng.uniform(0.0, n) for _ in range(20)}
        vs = [3.0e4] + [math.exp(rng.uniform(math.log(0.05), math.log(50.0))) for _ in range(4)]
        grid = tmp_path / f"grid{i}.cfg"
        grid.write_text(f"x = {','.join(map(repr, sorted(xs)))}\n"
                        f"v = {','.join(map(repr, vs))}\nn = {n}\n")
        grids.append(grid)

    def compare_all(tag):
        outputs = []
        for i, grid in enumerate(grids):
            out_file = tmp_path / f"{tag}{i}.csv"
            assert run(["compare", "--grid", str(grid), "--out", str(out_file)], capsys)[0] == 0
            outputs.append(out_file.read_bytes())
        return outputs

    first = compare_all("first")
    for attr in bnd.__all__:
        fn = getattr(bnd, attr)
        if inspect.isfunction(fn):
            monkeypatch.setattr(bnd, attr, functools.wraps(fn)(
                lambda *args, fn=fn, **kwargs: fn(*args, **kwargs)))
    assert compare_all("wrapped") == first
    assert all(b"FAIL" not in out for out in first)


@pytest.mark.parametrize("x, v, n", LARGE_POINTS[2:])
def test_bennett_is_finite_and_below_bernstein_where_it_overflowed(x, v, n, capsys):
    code, out, _ = run(["bounds", "--x", repr(x), "--v", repr(v), "--n", str(n),
                        "--format", "json"], capsys)
    assert code == 0
    logs = {row["bound_name"]: row["log_value"] for row in json.loads(out)["bounds"]}
    assert isinstance(logs["bennett"], float) and math.isfinite(logs["bennett"])
    assert logs["bennett"] < logs["bernstein"] < 0.0


@pytest.mark.parametrize("extra", [[], ["--b", "0.5"], ["--y", "2"]])
def test_a_horizon_past_the_doubles_is_a_usage_error(extra, capsys):
    code, out, err = run(["bounds", "--x", "1", "--v", "1", "--n", str(2**1024)] + extra,
                         capsys)
    assert (code, out) == (2, "")
    assert err.startswith("smbounds bounds: n must be below 2^1024")


class TestSimulateCommand:
    def test_oracle_instance(self, capsys):
        code, out, _ = run(["simulate", "--law", "bounded:1", "--event", "stopped",
                            "--x", "2", "--v", str(math.sqrt(2.0)), "--n", "2",
                            "--trials", "200000", "--seed", "4"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["estimate"]["p_hat"] == pytest.approx(0.25, abs=5e-3)
        names = {c["bound_name"] for c in doc["checks"]}
        assert "hoeffding" in names
        assert all(c["verdict"] == "PASS" for c in doc["checks"])

    def test_impossible_event_one_sided(self, capsys):
        code, out, _ = run(["simulate", "--law", "bounded:1", "--event", "final",
                            "--x", "7", "--v", "100", "--n", "5",
                            "--trials", "1000", "--seed", "5"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["estimate"]["p_hat"] == 0.0
        assert doc["one_sided"].startswith("p <=")

    def test_truncated_end_to_end(self, capsys):
        code, out, _ = run(["simulate", "--law", "cexp", "--event", "truncated",
                            "--x", "6", "--v", str(math.sqrt(20.0)), "--n", "20",
                            "--y", "3", "--trials", "100000", "--seed", "6"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert [c["bound_name"] for c in doc["checks"]] == ["fuk_nagaev", "courbot"]
        assert doc["checks"][0]["verdict"] == "PASS"

    def test_unbounded_law_plain_event_has_no_bounds(self, capsys):
        code, out, _ = run(["simulate", "--law", "cexp", "--event", "final",
                            "--x", "2", "--v", "10", "--n", "5",
                            "--trials", "1000", "--seed", "6"], capsys)
        assert code == 0
        assert json.loads(out)["checks"] == []

    def test_bad_law_is_usage_error(self, capsys):
        code, _, err = run(["simulate", "--law", "cauchy", "--x", "1", "--v", "1",
                            "--n", "2"], capsys)
        assert code == 2 and "law" in err

    def test_unknown_event_is_usage_error(self, capsys):
        code, _, err = run(["simulate", "--law", "cexp", "--event", "x", "--x", "1",
                            "--v", "1", "--n", "2"], capsys)
        assert code == 2
        assert err == ("smbounds simulate: unknown event 'x'; "
                       "choose from ['final', 'max', 'stopped', 'truncated']\n")

    def test_truncated_without_y_is_usage_error(self, capsys):
        code, _, _ = run(["simulate", "--law", "cexp", "--event", "truncated",
                          "--x", "1", "--v", "1", "--n", "2"], capsys)
        assert code == 2

    @pytest.mark.parametrize("law", ["extremal:1", "cexp"])
    @pytest.mark.parametrize("y", ["nan", "inf"])
    def test_non_finite_y_is_refused_before_sampling(self, law, y, monkeypatch, capsys):
        def sample(*args):
            raise AssertionError("paths drawn before the event was checked")

        monkeypatch.setattr("smbounds.montecarlo.estimate_event", sample)
        code, out, err = run(["simulate", "--law", law, "--event", "truncated", "--y", y,
                              "--x", "3", "--v", "3", "--n", "8"], capsys)
        assert (code, out) == (2, "")
        assert err == ("smbounds simulate: truncated events need a finite truncation "
                       f"level y > 0, got y={y}\n")

    @pytest.mark.parametrize("v", ["1e200", "1e-170"])
    def test_bounds_refuse_before_sampling(self, v, monkeypatch, capsys):
        def sample(*args):
            raise AssertionError("paths drawn before the bounds were checked")

        monkeypatch.setattr("smbounds.montecarlo.estimate_event", sample)
        code, out, err = run(["simulate", "--law", "extremal:1", "--x", "1", "--v", v,
                              "--n", "5", "--trials", "10"], capsys)
        assert (code, out) == (2, "")
        assert err == ("smbounds simulate: v squared must be a positive finite double, "
                       f"got v={float(v)!r}\n")

    def test_y_on_untruncated_event_is_usage_error(self, capsys):
        code, out, err = run(["simulate", "--law", "extremal:1", "--event", "stopped",
                              "--x", "3", "--v", "3", "--n", "8", "--y", "2",
                              "--trials", "10"], capsys)
        assert code == 2 and out == ""
        assert err == "smbounds simulate: y only applies to truncated events, got y=2.0\n"

    def test_csv_rows_match_json(self, capsys):
        args = ["simulate", "--law", "bounded:0.5", "--x", "2", "--v", "3", "--n", "10",
                "--trials", "20000", "--seed", "7"]
        code, out, _ = run(args, capsys)
        assert code == 0
        doc = json.loads(out)
        code, out, _ = run(args + ["--format", "csv"], capsys)
        assert code == 0
        header, *lines = out.splitlines()
        assert header == ",".join(cli.CSV_COLUMNS)
        rows = [dict(zip(cli.CSV_COLUMNS, line.split(","))) for line in lines]
        spec = EventSpec(2.0, 3.0, EventVariant.STOPPED_ANY_K)
        names = [name for name, _ in suites.applicable_checks(parse_law("bounded:0.5"), spec, 10)]
        assert [row["bound_name"] for row in rows] == names
        assert [c["bound_name"] for c in doc["checks"]] == names
        for row, check in zip(rows, doc["checks"]):
            for key in ("p_hat", "ci_low", "ci_high"):
                assert float(row[key]) == doc["estimate"][key]
            assert float(row["log_value"]) == check["log_value"]
            assert row["verdict"] == check["verdict"]

    def test_csv_without_bounds_has_one_estimate_row(self, capsys):
        args = ["simulate", "--law", "extremal:1", "--x", "-1", "--v", "3", "--n", "8",
                "--trials", "1000"]
        code, out, _ = run(args, capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["checks"] == []
        code, out, _ = run(args + ["--format", "csv"], capsys)
        assert code == 0
        header, line = out.splitlines()
        assert header == ",".join(cli.CSV_COLUMNS)
        ci_low = cli.fmt(doc["estimate"]["ci_low"])
        assert line == f"-1,3,8,,,,,,,1,{ci_low},1,,20240001"


@pytest.mark.parametrize("argv, refusal", [
    ("bounds --x 1 --v 1 --n 2 --b 1e200", None),
    ("simulate --law extremal:1e300 --x 1 --v 1 --n 3 --trials 10", None),
    ("bounds --x 1e-300 --v 1 --n 5 --y 1e-100", None),
    ("bounds --x 1 --v 1 --n 2 --b 1e308",
     "n*b must be a positive finite double, got n=2, b=1e+308"),
    ("bounds --x 1 --v 1e-170 --n 5", "v squared must be a positive finite double, got v=1e-170"),
    ("bounds --x 1 --v 1e170 --n 5", "v squared must be a positive finite double, got v=1e+170"),
    ("simulate --law extremal:1 --x 1 --v 1e-200 --n 3 --trials 10",
     "v squared must be a positive finite double, got v=1e-200"),
    ("simulate --law extremal:1 --event truncated --y 1e300 --x 1 --v 1 --n 3 --trials 10",
     "v/y squared must be a positive finite double, got v/y=1e-300"),
])
def test_extreme_inputs_are_answered_or_refused(argv, refusal, capsys):
    # a huge b takes the variance branch of the refined Azuma bound, and an
    # x*y that underflows still gives Haeusler's bound; a v (or v/y) whose
    # square leaves the doubles, or an n*b that overflows, is refused by name
    code, out, err = run(argv.split(), capsys)
    if refusal is None:
        assert (code, err) == (0, "")
        assert ("haeusler" if "--y" in argv else "azuma_refined") in out
    else:
        assert (code, out) == (2, "")
        assert err == f"smbounds {argv.split()[0]}: {refusal}\n"


@pytest.mark.parametrize("argv", [
    "bounds --config {missing}/run.cfg",
    "compare --grid {missing}/grid.cfg",
    "bounds --x 1 --v 1 --n 2 --out {missing}/f.txt",
    "bounds --x 1 --v 1 --n 2 --save-config {missing}/c.cfg",
])
def test_unreadable_or_unwritable_file_is_usage_error(argv, tmp_path, capsys):
    # exit 1 is kept for a failed invariant or verification
    missing = tmp_path / "missing"
    code, out, err = run(argv.format(missing=missing).split(), capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"smbounds {argv.split()[0]}: [Errno 2] No such file or directory: ")
    assert str(missing) in err


@pytest.mark.parametrize("argv", [
    "verify --suite chain --out {missing}/r.txt",
    "simulate --law extremal:1 --x 1 --v 2 --n 4 --trials 10 --out {missing}/s.json",
    "bounds --x 1 --v 1 --n 2 --save-config {cfg} --out {missing}/f.txt",
])
def test_unwritable_output_is_refused_before_any_work(argv, tmp_path, monkeypatch, capsys):
    # no report is printed, no path drawn and no config saved before the
    # output file is known to open
    def work(*args, **kwargs):
        raise AssertionError("work done before the output was opened")

    monkeypatch.setattr("smbounds.montecarlo.estimate_event", work)
    monkeypatch.setattr("smbounds.suites.run_suites", work)
    missing, cfg = tmp_path / "missing", tmp_path / "c.cfg"
    code, out, err = run(argv.format(missing=missing, cfg=cfg).split(), capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"smbounds {argv.split()[0]}: [Errno 2] No such file or directory: ")
    assert not cfg.exists()


@pytest.mark.parametrize("argv", [
    ["compare"],
    ["simulate", "--law", "extremal:1", "--x", "1", "--v", "2", "--n", "4", "--trials", "10"],
])
def test_unknown_format_is_usage_error(argv, tmp_path, capsys):
    # the same refusal as bounds, from a flag and from a config file
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format = table\n")
    for extra in (["--format", "table"], ["--config", str(cfg)]):
        code, out, err = run(argv + extra, capsys)
        assert (code, out) == (2, "")
        assert err == f"smbounds {argv[0]}: unknown format 'table'\n"
    code, _, err = run(["bounds", "--x", "1", "--v", "1", "--n", "2", "--format", "xml"], capsys)
    assert (code, err) == (2, "smbounds bounds: unknown format 'xml'\n")


class TestVerifyCommand:
    def test_chain_suite_passes(self, capsys):
        code, out, _ = run(["verify", "--suite", "chain"], capsys)
        assert code == 0
        assert "[chain] ok" in out
        assert "FAIL" not in out

    def test_out_file_holds_the_printed_report(self, tmp_path, capsys):
        path = tmp_path / "report.txt"
        code, out, _ = run(["verify", "--suite", "cumulant", "--out", str(path)], capsys)
        assert code == 0
        assert path.read_bytes() == out.encode()

    def test_unknown_suite(self, capsys):
        code, _, err = run(["verify", "--suite", "nope"], capsys)
        assert code == 2 and "suite" in err

    def test_detects_injected_sign_error(self, capsys, monkeypatch):
        # failure-detection smoke test: a corrupted cumulant bound must flip
        # the exit code
        from smbounds import cumulant

        true_cgf = cumulant.cgf_bound
        monkeypatch.setattr(cumulant, "cgf_bound", lambda lam, t: -true_cgf(lam, t))
        code, out, _ = run(["verify", "--suite", "cumulant"], capsys)
        assert code == 1
        assert "FAIL" in out

    def test_core_kernel_above_probability_one_is_refused(self, tmp_path, capsys,
                                                          monkeypatch):
        # a kernel claiming probability e keeps every ordering edge; the rule
        # that a core log is <= 0 must still fail the chain and refuse output
        from smbounds import bounds as bnd

        monkeypatch.setattr(bnd, "_prohorov_log", lambda x, v: 1.0)
        code, out, _ = run(["verify", "--suite", "chain"], capsys)
        assert code == 1
        assert "[chain] FAIL ordering chain" in out
        code, _, err = run(["compare", "--out", str(tmp_path / "cmp.csv")], capsys)
        assert code == 1
        assert "ordering failed" in err
        code, out, err = run(["bounds", "--x", "1", "--v", "1", "--n", "2"], capsys)
        assert (code, out) == (2, "")
        assert "log probability must be <= 0" in err


class TestConfigReplay:
    def test_bounds_replay(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        code, _, _ = run(["bounds", "--x", "1.25", "--v", "0.75", "--n", "17",
                          "--format", "json", "--save-config", str(cfg),
                          "--out", str(out1)], capsys)
        assert code == 0
        assert "command = bounds" in cfg.read_text()
        code, _, _ = run(["bounds", "--config", str(cfg), "--out", str(out2)], capsys)
        assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_boolean_flag_replay(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
        code, _, _ = run(["bounds", "--x", "1", "--v", "1", "--n", "10", "--b", "0.5",
                          "--supermartingale", "--save-config", str(cfg),
                          "--out", str(out1)], capsys)
        assert code == 0
        assert "supermartingale = true" in cfg.read_text()
        # the flag only gates b > 1, so the re-saved config shows it was read as true
        cfg2 = tmp_path / "replay.cfg"
        code, _, _ = run(["bounds", "--config", str(cfg), "--save-config", str(cfg2),
                          "--out", str(out2)], capsys)
        assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert cfg2.read_bytes() == cfg.read_bytes()

    def test_config_boolean_must_parse(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("x = 1\nv = 1\nn = 10\nb = 0.5\nsupermartingale = maybe\n")
        code, out, err = run(["bounds", "--config", str(cfg)], capsys)
        assert (code, out) == (2, "")
        assert err == "smbounds bounds: not a boolean: 'maybe'\n"

    def test_simulate_replay(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["simulate", "--law", "extremal:0.5", "--x", "1", "--v", "2",
                "--n", "6", "--trials", "30000", "--seed", "99"]
        run(args + ["--save-config", str(cfg), "--out", str(out1)], capsys)
        run(["simulate", "--config", str(cfg), "--out", str(out2)], capsys)
        assert out1.read_bytes() == out2.read_bytes()

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        run(["bounds", "--x", "1", "--v", "1", "--n", "2",
             "--save-config", str(cfg)], capsys)
        code, out, _ = run(["bounds", "--config", str(cfg), "--x", "0",
                            "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["query"]["x"] == 0.0

    def test_config_command_mismatch(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        run(["bounds", "--x", "1", "--v", "1", "--n", "2",
             "--save-config", str(cfg)], capsys)
        code, _, err = run(["compare", "--config", str(cfg)], capsys)
        assert code == 2 and "another command" in err

    def test_config_line_without_equals(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("x = 1\nv 1\n")
        code, out, err = run(["bounds", "--config", str(cfg)], capsys)
        assert (code, out) == (2, "")
        assert err == f"smbounds bounds: {cfg}:2: expected 'key = value', got 'v 1\\n'\n"

    def test_comments_and_unknown_keys(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# a comment\nx = 1\nv = 1\nn = 2\nbogus = 3\n")
        code, _, err = run(["bounds", "--config", str(cfg)], capsys)
        assert code == 2 and "bogus" in err


def test_no_command_imports_scipy(tmp_path):
    # the package needs numpy only; a fresh interpreter running every command,
    # the Monte Carlo interval included, must never load scipy
    code = (
        "import sys\n"
        "from smbounds import cli\n"
        "assert cli.main(['bounds', '--x', '1', '--v', '1', '--n', '2']) == 0\n"
        f"assert cli.main(['compare', '--out', {str(tmp_path / 'cmp.csv')!r}]) == 0\n"
        "assert cli.main(['verify', '--suite', 'oracle']) == 0\n"
        "assert cli.main(['simulate', '--law', 'extremal:1', '--x', '3', '--v', '3',\n"
        "                 '--n', '8', '--trials', '20000']) == 0\n"
        "assert cli.main(['verify', '--suite', 'mc', '--trials', '20000']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout.splitlines()[-1] == "[]"


def test_pure_math_commands_do_not_import_numpy(tmp_path):
    # bounds and compare are closed forms over `math`; only simulate and
    # verify import the numpy stack or `binomial`
    code = (
        "import sys\n"
        "from smbounds import cli\n"
        "assert cli.main(['bounds', '--x', '1', '--v', '1', '--n', '2']) == 0\n"
        f"assert cli.main(['compare', '--out', {str(tmp_path / 'cmp.csv')!r}]) == 0\n"
        "print('numpy' in sys.modules or 'smbounds.binomial' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout.splitlines()[-1] == "False"


def test_import_loads_no_pool_module():
    # of the thread and process pool modules, importing the modules that run
    # Monte Carlo may load only the `threading` that numpy loads itself
    # (Monte Carlo starts its threads from it); any other would add to the
    # start-up of every process
    code = (
        "import sys\n"
        "import smbounds.montecarlo, smbounds.suites\n"
        "pools = ('_thread', 'threading', 'queue', '_queue', 'concurrent',\n"
        "         'multiprocessing', '_multiprocessing')\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in pools))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert set(ast.literal_eval(proc.stdout.splitlines()[-1])) <= {"_thread", "threading"}
