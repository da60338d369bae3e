"""Command-line surface: compute bounds, sweep comparisons, run simulations,
and drive the verification suites.

Single results are emitted as JSON, sweeps as CSV with a fixed column set.
Every run can serialize its resolved parameters to a flat `key = value`
config file (`--save-config`) and be replayed byte-identically from it
(`--config`); explicit flags override config values.

Exit codes: 0 success, 1 invariant/verification failure, 2 usage error
(including a file that cannot be read or written).  The `--out` file is
opened, and truncated, before the command does any work.

`compare` checks its grid once per axis value with `bounds.TailQuery`, which
refuses a bad grid with the same first message as one query per point in
(n, v, x) order (`_check_grid`), then walks the points once.  Per point, the
five kernels and `ordering_ok` are the smaller part of the cost; most of it
is writing the ten 17-digit log and value cells, which are the floor, since
each digit is output.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Any, Callable, Optional, TextIO

from . import bounds as bnd

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

CSV_COLUMNS = [
    "x", "v", "n", "b", "y", "bound_name", "log_value", "value", "branch",
    "p_hat", "ci_low", "ci_high", "verdict", "seed",
]


def fmt(value: Any) -> str:
    """Render one CSV cell; floats carry 17 significant digits."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _json_safe(value: Any) -> Any:
    """Floats pass through untouched except non-finite ones, which JSON
    proper cannot carry."""
    if isinstance(value, float) and not math.isfinite(value):
        return fmt(value)
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "1", "yes"):
        return True
    if t in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


@dataclass(frozen=True)
class Param:
    name: str
    conv: Callable[[str], Any]
    default: Any = None
    help: str = ""
    required: bool = False
    flag: bool = False
    choices: tuple[str, ...] = ()


PARAMS: dict[str, list[Param]] = {
    "bounds": [
        Param("x", float, help="deviation threshold", required=True),
        Param("v", float, help="square root of the variance budget", required=True),
        Param("n", int, help="horizon", required=True),
        Param("b", float, help="lower-range magnitude; adds the bounded-range bounds"),
        Param("y", float, help="truncation level; adds the truncation-family bounds"),
        Param("p_exceed", float, 0.0, "P(max increment > y), for the two-term bound"),
        Param("sum_exceed", float, 0.0, "sum of per-step exceedance probabilities"),
        Param("p_qc_exceed", float, 0.0, "P(variance budget exceeded)"),
        Param("supermartingale", _parse_bool, False,
              "flag the supermartingale regime for the bounded-range bound", flag=True),
        Param("format", str, "table", "table, json, or csv", choices=("table", "json", "csv")),
        Param("out", str, help="write output to this path instead of stdout"),
    ],
    "compare": [
        Param("grid", str, help="grid file with x/v/n lists; defaults to the built-in grid"),
        Param("format", str, "csv", "csv or json", choices=("csv", "json")),
        Param("out", str),
    ],
    "simulate": [
        Param("law", str, help="extremal:S2 | bounded:B | drifted:B,D | cexp", required=True),
        Param("event", str, "stopped", "stopped, max, final, or truncated"),
        Param("x", float, required=True),
        Param("v", float, required=True),
        Param("n", int, required=True),
        Param("y", float, help="truncation level (required for truncated events)"),
        Param("trials", int, 10**5),
        Param("seed", int, 20240001),
        Param("gamma", float, 0.95, "confidence level for the exact interval"),
        Param("format", str, "json", "json or csv", choices=("json", "csv")),
        Param("out", str),
    ],
    "verify": [
        Param("suite", str, "all", "cumulant, chain, variational, oracle, mc, or all"),
        Param("trials", int, 10**6, "Monte Carlo trials per instance (mc suite)"),
        Param("out", str, help="also write the report to this path"),
    ],
}


def load_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
    return values


def save_config(path: str, command: str, merged: dict[str, Any]) -> None:
    lines = [f"command = {command}"]
    for name in sorted(merged):
        if name == "out":
            continue
        value = merged[name]
        if value is None:
            continue
        lines.append(f"{name} = {fmt(value)}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def resolve_params(command: str, args: argparse.Namespace) -> dict[str, Any]:
    config = load_config(args.config) if args.config else {}
    if "command" in config and config.pop("command") != command:
        raise ValueError(f"config file was saved for another command, not {command!r}")
    merged: dict[str, Any] = {}
    for p in PARAMS[command]:
        value = getattr(args, p.name)
        if value is None and p.name in config:
            value = p.conv(config[p.name])
        if value is None:
            value = p.default
        if value is None and p.required:
            raise ValueError(f"missing required parameter --{p.name.replace('_', '-')}")
        if p.choices and value not in p.choices:
            raise ValueError(f"unknown {p.name} {value!r}")
        merged[p.name] = value
    unknown = set(config) - {p.name for p in PARAMS[command]}
    if unknown:
        raise ValueError(f"unknown config keys for {command}: {sorted(unknown)}")
    return merged


def _csv_text(rows: list[dict[str, Any]]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(fmt(row.get(col)) for col in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def _json_text(doc: dict[str, Any]) -> str:
    return json.dumps(_json_safe(doc), indent=2) + "\n"


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def _bound_rows(p: dict[str, Any]) -> list[dict[str, Any]]:
    """A row for each bound of the table whose input `p` gives; a range row
    also carries b, a truncation row y."""
    return [dict({e.needs: p[e.needs]} if e.needs else {}, x=p["x"], v=p["v"], n=p["n"],
                 bound_name=e.name, log_value=lp.log_value, value=math.exp(lp.log_value),
                 branch=branch) for e, lp, branch in bnd._evaluate(p)]


def cmd_bounds(p: dict[str, Any], out: TextIO) -> int:
    rows = _bound_rows(p)
    if p["format"] == "csv":
        out.write(_csv_text(rows))
    elif p["format"] == "json":
        doc = {"command": "bounds",
               "query": {"x": p["x"], "v": p["v"], "n": p["n"], "b": p["b"], "y": p["y"]},
               "bounds": [{k: r.get(k) for k in ("bound_name", "log_value", "value", "branch")}
                          for r in rows]}
        out.write(_json_text(doc))
    else:
        width = max(len(r["bound_name"]) for r in rows)
        lines = [f"query: x={fmt(p['x'])} v={fmt(p['v'])} n={p['n']}"]
        for r in rows:
            branch = f"  [{r['branch']}]" if r.get("branch") else ""
            lines.append(f"  {r['bound_name']:<{width}}  log={fmt(r['log_value'])}  "
                         f"value={fmt(r['value'])}{branch}")
        out.write("\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def _parse_grid_file(path: str) -> list[bnd.GridBlock]:
    values = load_config(path)
    try:
        xs = [float(t) for t in values["x"].split(",")]
        vs = [float(t) for t in values["v"].split(",")]
        ns = [int(t) for t in values["n"].split(",")]
    except KeyError as exc:
        raise ValueError(f"grid file {path} must define x, v and n lists") from exc
    return [(n, vs, xs) for n in ns]


def _check_grid(blocks: list[bnd.GridBlock]) -> None:
    """Refuse the grid as building a `TailQuery` at every point in (n, v, x)
    order would, with the same first message, from one query per axis value
    of each block: its x values at (vs[0], n), then its v values at (xs[0], n);
    the first query also checks n.  `TailQuery` checks each coordinate on its
    own, so once a block's first query passes, the first point the product
    walk would refuse is the first refused here.
    """
    for n, vs, xs in blocks:
        for x in xs:
            bnd.TailQuery(x, vs[0], n)
        for v in vs[1:]:
            bnd.TailQuery(xs[0], v, n)


#: One grid point's five CSV rows, in `bounds.CORE` order.  Each row takes the
#: point's "x,v,n" cells, its log value and value and its verdict; `%.17g`
#: writes the same bytes as `fmt`.
_COMPARE_ROWS = "\n".join(f"%s,,,{name},%.17g,%.17g,,,,,%s," for name in bnd.CORE)


def cmd_compare(p: dict[str, Any], out: TextIO) -> int:
    blocks = _parse_grid_file(p["grid"]) if p["grid"] else bnd.default_grid()
    _check_grid(blocks)
    as_json = p["format"] == "json"
    core_logs, ordering_ok, exp = bnd._core_logs, bnd.ordering_ok, math.exp
    # CSV: the header, then one five-row string per point; JSON: five dict
    # rows per point
    rows: list[Any] = [] if as_json else [",".join(CSV_COLUMNS)]
    failures = 0
    for n, vs, xs in blocks:
        x_cells = [f"{fmt(x)}," for x in xs]
        for v in vs:
            vn = f"{fmt(v)},{fmt(n)}"
            for x, x_cell in zip(xs, x_cells):
                logs = core_logs(x, v, n)
                ok = ordering_ok(logs)
                failures += not ok
                verdict = "PASS" if ok else "FAIL"
                if as_json:
                    rows += [dict(x=x, v=v, n=n, bound_name=name, log_value=lv,
                                  value=exp(lv), verdict=verdict)
                             for name, lv in zip(bnd.CORE, logs)]
                else:
                    head = x_cell + vn
                    l0, l1, l2, l3, l4 = logs
                    rows.append(_COMPARE_ROWS % (
                        head, l0, exp(l0), verdict, head, l1, exp(l1), verdict,
                        head, l2, exp(l2), verdict, head, l3, exp(l3), verdict,
                        head, l4, exp(l4), verdict))
    if as_json:
        doc = {"command": "compare",
               "points": sum(len(vs) * len(xs) for _, vs, xs in blocks),
               "ordering_failures": failures, "rows": rows}
        out.write(_json_text(doc))
    else:
        out.write("\n".join(rows) + "\n")
    if failures:
        sys.stderr.write(f"compare: ordering failed at {failures} grid points\n")
        return EXIT_FAIL
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(p: dict[str, Any], out: TextIO) -> int:
    from . import montecarlo as mc, suites  # numpy, kept off the import path
    from .processes import EventSpec, EventVariant, parse_law

    law = parse_law(p["law"])
    try:
        variant = EventVariant(p["event"])
    except ValueError:
        names = sorted(v.value for v in EventVariant)
        raise ValueError(f"unknown event {p['event']!r}; choose from {names}") from None
    spec = EventSpec(p["x"], p["v"], variant, y=p["y"])
    # the bounds refuse their arguments before any path is drawn
    bounds = suites.applicable_checks(law, spec, p["n"])
    est = mc.estimate_event(law, spec, p["n"], p["trials"], p["seed"], p["gamma"])
    checks = [{"bound_name": name, "log_value": bound.log_value, "value": bound.value,
               "verdict": mc.verify_bound(est, bound).verdict} for name, bound in bounds]
    doc = {
        "command": "simulate",
        "law": law.label(),
        "event": p["event"],
        "x": p["x"], "v": p["v"], "n": p["n"], "y": spec.y,
        "trials": p["trials"], "seed": p["seed"], "gamma": p["gamma"],
        "estimate": {"hits": est.hits, "p_hat": est.p_hat,
                     "ci_low": est.ci_low, "ci_high": est.ci_high},
        "checks": checks,
    }
    if est.p_hat == 0.0:
        doc["one_sided"] = f"p <= {fmt(est.ci_high)}"
    if p["format"] == "csv":
        base = dict(x=p["x"], v=p["v"], n=p["n"], y=spec.y, p_hat=est.p_hat,
                    ci_low=est.ci_low, ci_high=est.ci_high, seed=p["seed"])
        out.write(_csv_text([dict(base, **c) for c in checks] or [base]))
    else:
        out.write(_json_text(doc))
    return EXIT_FAIL if any(c["verdict"] == "FLAG" for c in checks) else EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _use_color() -> bool:
    return sys.stdout.isatty() and not os.environ.get("NO_COLOR")


def cmd_verify(p: dict[str, Any], out: TextIO) -> int:
    from . import suites  # numpy, kept off the import path

    names = list(suites.SUITES) if p["suite"] == "all" else [p["suite"]]
    reports = suites.run_suites(names, trials=p["trials"])
    color = _use_color()
    lines = []
    for rep in reports:
        for check in rep.checks:
            tag = "PASS" if check.passed else "FAIL"
            if color:
                tag = f"\x1b[32m{tag}\x1b[0m" if check.passed else f"\x1b[31m{tag}\x1b[0m"
            detail = f"  ({check.detail})" if check.detail else ""
            lines.append(f"[{rep.name}] {tag} {check.label}{detail}")
        lines.append(f"[{rep.name}] {'ok' if rep.passed else 'FAILED'}: "
                     f"{sum(c.passed for c in rep.checks)}/{len(rep.checks)} checks")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if out is not sys.stdout:
        out.write(text)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_FAIL


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: `parse_args` leaves it
    unchanged, so every `main` call reuses it."""
    parser = argparse.ArgumentParser(
        prog="smbounds",
        description="Tail bounds for supermartingales: closed forms, exact "
                    "oracles, and Monte Carlo verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, params in PARAMS.items():
        sp = sub.add_parser(command, help=f"{command} command")
        for p in params:
            flag = f"--{p.name.replace('_', '-')}"
            if p.flag:
                sp.add_argument(flag, action="store_const", const=True,
                                default=None, help=p.help)
            else:
                sp.add_argument(flag, type=p.conv, default=None, help=p.help)
        sp.add_argument("--config", default=None,
                        help="load parameters from a key = value file")
        sp.add_argument("--save-config", dest="save_config", default=None,
                        help="write the resolved parameters to this file")
    return parser


COMMANDS = {
    "bounds": cmd_bounds,
    "compare": cmd_compare,
    "simulate": cmd_simulate,
    "verify": cmd_verify,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        merged = resolve_params(args.command, args)
        # like a shell redirect, the output file is opened before any work, so
        # a path that cannot be written is refused before a path is drawn or a
        # config is saved
        with (open(merged["out"], "w", encoding="utf-8", newline="\n") if merged["out"]
              else contextlib.nullcontext(sys.stdout)) as out:
            if args.save_config:
                save_config(args.save_config, args.command, merged)
            return COMMANDS[args.command](merged, out)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"smbounds {args.command}: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
