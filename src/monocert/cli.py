"""Command line front end: analyses, polygon drawings, splits, searches, digit systems.

Reports are deterministic for a fixed config (timing aside); JSON is emitted
with sorted keys so runs can be compared byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from . import __version__, cns, fppoly, ore, purefield
from .polygon import IntPoly, phi_expand, polygon_index, principal_polygon

SCHEMA_VERSION = 1
_OUT_DIR_ENV = "MONOCERT_OUT_DIR"

_TERM_RE = re.compile(r"^([+-]?\d*)(x(?:\^(\d+))?)?$")


def parse_poly(text: str) -> IntPoly:
    """Parse the plain grammar c_k x^k +/- ... +/- c_0, e.g. 'x^4-17'."""
    s = text.replace(" ", "").replace("**", "^").replace("*", "")
    if not s:
        raise ValueError("empty polynomial")
    coeffs: dict[int, int] = {}
    for token in re.findall(r"[+-]?[^+-]+", s):
        m = _TERM_RE.match(token)
        if not m or (not m.group(2) and m.group(1) in ("", "+", "-")):
            raise ValueError(f"cannot parse term {token!r} of {text!r}")
        coef_s, xpart, exp_s = m.groups()
        coef = int(coef_s) if coef_s not in ("", "+", "-") else (-1 if coef_s == "-" else 1)
        exp = 0 if not xpart else int(exp_s) if exp_s else 1
        coeffs[exp] = coeffs.get(exp, 0) + coef
    degree = max(coeffs)
    if degree > sys.maxsize:
        raise ValueError(f"degree {degree} is too large for a dense polynomial")
    return IntPoly([coeffs.get(i, 0) for i in range(degree + 1)])


def _parse_range(text: str) -> range:
    """'a:b' inclusive, or a single value."""
    if ":" in text:
        lo, hi = text.split(":", 1)
        return range(int(lo), int(hi) + 1)
    v = int(text)
    return range(v, v + 1)


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok.strip() != "")


# ---------------------------------------------------------------------------
# Rendering.


def _slope_str(side) -> str:
    f: Fraction = side.slope
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


def polygon_render_model(poly) -> dict:
    return {
        "vertices": [list(v) for v in poly.vertices],
        "sides": [
            {
                "label": f"S{i + 1}",
                "start": list(s.start),
                "end": list(s.end),
                "length": s.length,
                "height": s.height,
                "degree": s.side_degree,
                "ram_index": s.ram_index,
                "slope": _slope_str(s),
            }
            for i, s in enumerate(poly.sides)
        ],
    }


def render_ascii(poly) -> str:
    """Figure-style plot: axes with ticks, hull dots, side labels."""
    if poly.is_empty:
        return "(no negative-slope sides)"
    xmax = poly.vertices[-1][0]
    ymax = max(v[1] for v in poly.vertices)
    margin = 5
    avail = 100 - margin - 2
    scale = Fraction(avail, xmax) if xmax > avail else Fraction(min(3, max(1, avail // max(xmax, 1))))

    def col(x: Fraction | int) -> int:
        return int(round(float(Fraction(x) * scale)))

    grid: dict[tuple[int, int], str] = {}
    for side in poly.sides:
        (xs, ys), (xe, ye) = side.start, side.end
        for cx in range(col(xs), col(xe) + 1):
            span = col(xe) - col(xs)
            y = Fraction(ys) if span == 0 else Fraction(ys) + Fraction(ye - ys) * Fraction(cx - col(xs), span)
            grid.setdefault((int(round(float(y))), cx), ".")
    for x, y in poly.vertices:
        grid[(y, col(x))] = "*"
    for i, side in enumerate(poly.sides):
        mid_c = (col(side.start[0]) + col(side.end[0])) // 2
        mid_y = (side.start[1] + side.end[1] + 1) // 2 + 1
        label = f"S{i + 1}"
        if all((mid_y, mid_c + k) not in grid for k in range(len(label))):
            for k, ch in enumerate(label):
                grid[(mid_y, mid_c + k)] = ch
    lines = []
    for y in range(ymax, -1, -1):
        row = "".join(grid.get((y, c), " ") for c in range(col(xmax) + 1)).rstrip()
        lines.append(f"{y:>3} |" + (" " + row if row else ""))
    lines.append("    +" + "-" * (col(xmax) + 2))
    ticks = [" "] * (col(xmax) + 2)
    for x in sorted({v[0] for v in poly.vertices}):
        label = str(x)
        c = col(x) + 1
        if c + len(label) <= len(ticks):
            for k, ch in enumerate(label):
                ticks[c + k] = ch
    lines.append("    " + "".join(ticks).rstrip())
    return "\n".join(lines)


def render_svg(poly) -> str:
    """Standalone SVG 1.1 document of the principal polygon."""
    if poly.is_empty:
        vertices = [(0, 0)]
    else:
        vertices = list(poly.vertices)
    xmax = max(v[0] for v in vertices) or 1
    ymax = max(v[1] for v in vertices) or 1
    ux, uy, margin = 480 / xmax, 320 / ymax, 40

    def px(x):
        return margin + x * ux

    def py(y):
        return margin + (ymax - y) * uy

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{480 + 2 * margin}" height="{320 + 2 * margin}">',
        f'<line x1="{px(0)}" y1="{py(0)}" x2="{px(xmax)}" y2="{py(0)}" stroke="black"/>',
        f'<line x1="{px(0)}" y1="{py(0)}" x2="{px(0)}" y2="{py(ymax)}" stroke="black"/>',
    ]
    for x in sorted({v[0] for v in vertices}):
        parts.append(f'<line x1="{px(x)}" y1="{py(0) - 3}" x2="{px(x)}" y2="{py(0) + 3}" stroke="black"/>')
        parts.append(f'<text x="{px(x)}" y="{py(0) + 16}" font-size="11" text-anchor="middle">{x}</text>')
    for y in sorted({v[1] for v in vertices}):
        parts.append(f'<line x1="{px(0) - 3}" y1="{py(y)}" x2="{px(0) + 3}" y2="{py(y)}" stroke="black"/>')
        parts.append(f'<text x="{px(0) - 8}" y="{py(y) + 4}" font-size="11" text-anchor="end">{y}</text>')
    if not poly.is_empty:
        pts = " ".join(f"{px(x)},{py(y)}" for x, y in vertices)
        parts.append(f'<polyline points="{pts}" fill="none" stroke="blue" stroke-width="1.5"/>')
        for x, y in vertices:
            parts.append(f'<circle cx="{px(x)}" cy="{py(y)}" r="3" fill="black"/>')
        for i, side in enumerate(poly.sides):
            mx = (px(side.start[0]) + px(side.end[0])) / 2
            my = (py(side.start[1]) + py(side.end[1])) / 2 - 8
            parts.append(f'<text x="{mx}" y="{my}" font-size="12" fill="blue">S{i + 1}</text>')
    else:
        parts.append(f'<text x="{px(0) + 10}" y="{py(ymax)}" font-size="12">no negative-slope sides</text>')
    parts.append("</svg>")
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# Report plumbing.


def _report(args, payload: dict, started: float) -> dict:
    """A command's payload between the header (schema, tool, the echo of its `echo` keys) and the timing."""
    config = {k: getattr(args, k) for k in args.echo if getattr(args, k, None) is not None}
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "monocert", "version": __version__},
        "config": config | {"command": args.command},
        **payload,
        "timing": {"seconds": round(time.perf_counter() - started, 6)},
    }


def _flatten(prefix: str, value, out: list[str]) -> None:
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        out.append(f"{prefix.rstrip('.')}: {value}")
        return
    for key, item in items:
        _flatten(f"{prefix}{key}.", item, out)


_SEARCH_COLUMNS = (
    "n",
    "m",
    "status",
    "provenance",
    "p",
    "witness_d",
    "ideal_count",
    "irreducible_count",
    "t",
    "s",
    "generator",
    "error",
)


def _emit(report: dict, args) -> str:
    if args.format == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.format == "csv":
        if "rows" not in report:
            raise ValueError("csv format is only available for analyze and search")
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=_SEARCH_COLUMNS, extrasaction="ignore", lineterminator="\n")
        writer.writeheader()
        for row in report["rows"]:
            writer.writerow({k: row.get(k, "") for k in _SEARCH_COLUMNS})
        return buf.getvalue()
    lines: list[str] = []
    _flatten("", report, lines)
    return "\n".join(lines) + "\n"


def _write_output(text: str, args) -> None:
    if args.out:
        path = args.out
        base = os.environ.get(_OUT_DIR_ENV)
        if base and not os.path.isabs(path):
            path = os.path.join(base, path)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _verdict_row(verdict: purefield.MonogenityVerdict) -> dict:
    d = verdict.to_json_dict()
    row = {k: d[k] for k in _SEARCH_COLUMNS if k in d}
    if verdict.status == "monogenic":
        row["generator"] = str(verdict.generator_poly)
    return row


# ---------------------------------------------------------------------------
# Commands.


# Each command returns its report payload; `main` wraps, emits and writes it.


def _cmd_analyze(args) -> dict:
    verdict = purefield.analyze(args.n, args.m)
    return {"verdict": verdict.to_json_dict(), "rows": [_verdict_row(verdict)]}


def _input_poly(args) -> IntPoly:
    if args.poly:
        return parse_poly(args.poly)
    if args.n is None or args.m is None:
        raise ValueError("give either --poly or both --n and --m")
    return IntPoly.binomial(args.n, args.m)


def _cmd_polygon(args) -> dict:
    F = _input_poly(args)
    if not F.is_monic:
        raise ValueError("polynomial must be monic")
    fbar = F.reduce_mod(args.p)
    if args.phi:
        phi = parse_poly(args.phi)
        phi_bar = phi.reduce_mod(args.p)
        if not (fbar % phi_bar).is_zero:
            raise ValueError(f"{args.phi} is not a factor of the polynomial mod {args.p}")
        # developed through part mult, where the polygon ends, as on the lifted route; a phi_bar that is no
        # irreducible factor has no mult, and its one part goes to principal_polygon, which rejects it
        mult = dict(fppoly.factor(fbar).factors).get(phi_bar, 0)
        developments = [phi_expand(F, phi, count=mult + 1)]
    else:  # lifted and developed as ore_split does: moved by p while the lift divides F over Z, through part mult
        developments = [ore._develop(F, fb, args.p, count=mult + 1) for fb, mult in fppoly.factor(fbar).factors]
    entries = []
    for exp in developments:
        phi = exp.base
        poly = principal_polygon(exp, args.p)
        entry = {
            "phi": list(phi.coeffs),
            "polygon": polygon_render_model(poly),
            "index": polygon_index(poly, phi.degree),
        }
        if poly.is_empty:
            entry["note"] = "no negative-slope sides"
        if args.render == "ascii":
            entry["render"] = render_ascii(poly)
        elif args.render == "svg":
            entry["render"] = render_svg(poly)
        entries.append(entry)
    return {"p": args.p, "polynomial": list(F.coeffs), "polygons": entries}


def _cmd_factor(args) -> dict:
    F = _input_poly(args)
    return {"polynomial": list(F.coeffs), "split": ore.ore_split(F, args.p).to_json_dict()}


def _analyze_task(task) -> dict:
    n, m = task
    try:
        verdict = purefield.analyze(n, m)
        return _verdict_row(verdict)
    except Exception as exc:  # noqa: BLE001 - per-instance errors are data
        return {"n": n, "m": m, "status": "error", "error": str(exc)}


def _generator_task(task) -> dict:
    n, a, u = task
    try:
        return _verdict_row(purefield.construct_generator(n, a, u))
    except purefield.GeneratorHypothesisError as exc:
        return {"n": n, "m": a**u, "status": "skipped", "error": str(exc)}
    except Exception as exc:  # noqa: BLE001
        return {"n": n, "m": a**u, "status": "error", "error": str(exc)}


def _cmd_search(args) -> dict:
    if args.mode == "analyze":
        if not args.n_set and not args.n_range:
            raise ValueError("search --mode analyze needs --n-set or --n-range")
        ns = list(_parse_int_list(args.n_set)) if args.n_set else list(_parse_range(args.n_range))
        ms = list(_parse_range(args.m_range))
        tasks = [(n, m) for n in sorted(ns) for m in ms]
        worker = _analyze_task
    else:
        if args.n is None or not args.a_range or args.u is None:
            raise ValueError("search --mode generator needs --n, --a-range and --u")
        tasks = [(args.n, a, args.u) for a in _parse_range(args.a_range)]
        worker = _generator_task
    if args.jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(worker, tasks, chunksize=max(1, len(tasks) // (4 * args.jobs))))
    else:
        rows = [worker(t) for t in tasks]
    rows.sort(key=lambda r: (r["n"], r["m"]))
    errors = sum(1 for r in rows if r.get("status") == "error")
    return {"columns": list(_SEARCH_COLUMNS), "rows": rows, "errors": errors}


def _cmd_cns(args) -> dict:
    basis = cns.CnsBasis(parse_poly(args.poly), args.digit_mode)
    if args.cns_command == "encode":
        element = _parse_int_list(args.element)
        exp = cns.encode(basis, element, args.step_cap)
        payload = {"element": list(element), "expansion": exp.to_json_dict()}
    elif args.cns_command == "decode":
        digits = _parse_int_list(args.digits)
        payload = {"digits": list(digits), "element": list(cns.decode(basis, digits))}
    else:
        report = cns.verify_box(basis, args.radius, args.step_cap)
        payload = {"radius": args.radius, "box": report.to_json_dict()}
    payload["basis"] = {"poly": list(basis.G.coeffs), "digit_base": basis.digit_base, "digit_mode": basis.digit_mode}
    return payload


# ---------------------------------------------------------------------------
# Argument parsing.


def _add_common_poly_args(sub) -> None:
    sub.add_argument("--n", type=int, default=None, help="binomial degree (x^n - m)")
    sub.add_argument("--m", type=int, default=None, help="binomial constant (x^n - m)")
    sub.add_argument("--poly", type=str, default=None, help="explicit polynomial, e.g. 'x^4-17'")
    sub.add_argument("--p", type=int, required=True, help="prime")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text", "csv"), default="json")
    common.add_argument("--out", type=str, default=None, help=f"output file (resolved against ${_OUT_DIR_ENV})")
    parser = argparse.ArgumentParser(prog="monocert", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", parents=[common], help="monogenity verdict for x^n - m")
    p_an.add_argument("--n", type=int, required=True)
    p_an.add_argument("--m", type=int, required=True)
    p_an.set_defaults(func=_cmd_analyze, echo=("n", "m", "format"))

    p_pg = sub.add_parser("polygon", parents=[common], help="principal polygon data and drawing")
    _add_common_poly_args(p_pg)
    p_pg.add_argument("--phi", type=str, default=None, help="explicit base polynomial")
    p_pg.add_argument("--render", choices=("ascii", "svg", "none"), default="ascii")
    p_pg.set_defaults(func=_cmd_polygon, echo=("n", "m", "poly", "p", "phi", "render", "format"))

    p_fa = sub.add_parser("factor", parents=[common], help="raw prime-splitting data at p")
    _add_common_poly_args(p_fa)
    p_fa.set_defaults(func=_cmd_factor, echo=("n", "m", "poly", "p", "format"))

    p_se = sub.add_parser("search", parents=[common], help="batch campaign over parameter ranges")
    p_se.add_argument("--mode", choices=("analyze", "generator"), default="analyze")
    p_se.add_argument("--n-set", dest="n_set", type=str, default=None, help="comma list of degrees")
    p_se.add_argument("--n-range", dest="n_range", type=str, default=None, help="degree range a:b")
    p_se.add_argument("--m-range", dest="m_range", type=str, default="2:100")
    p_se.add_argument("--n", type=int, default=None, help="generator mode: fixed degree")
    p_se.add_argument("--a-range", dest="a_range", type=str, default=None, help="generator mode: base range a:b")
    p_se.add_argument("--u", type=int, default=None, help="generator mode: exponent")
    p_se.add_argument("--jobs", type=int, default=1, help="worker processes")
    p_se.set_defaults(
        func=_cmd_search, echo=("mode", "n", "n_set", "n_range", "m_range", "a_range", "u", "jobs", "format")
    )

    p_cn = sub.add_parser("cns", help="digit-system tooling")
    cns_sub = p_cn.add_subparsers(dest="cns_command", required=True)
    for name in ("encode", "decode", "verify"):
        sp = cns_sub.add_parser(name, parents=[common])
        sp.add_argument("--poly", type=str, required=True)
        sp.add_argument("--digit-mode", dest="digit_mode", choices=("standard", "signed"), default="standard")
        sp.add_argument("--step-cap", dest="step_cap", type=int, default=None)
        if name == "encode":
            sp.add_argument("--element", type=str, required=True, help="comma-separated coordinates, constant first")
        elif name == "decode":
            sp.add_argument("--digits", type=str, required=True, help="comma-separated digits, least significant first")
        else:
            sp.add_argument("--radius", type=int, required=True)
        sp.set_defaults(func=_cmd_cns, echo=("poly", "digit_mode", "element", "digits", "radius", "step_cap", "format"))
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command.  Exit 1 on search error rows, 2 on a rejected input or --out path, 3 on a failed self-check."""
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        payload = args.func(args)
        text = _emit(_report(args, payload, started), args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except purefield.SelfCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    try:
        _write_output(text, args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if payload.get("errors") else 0


if __name__ == "__main__":
    sys.exit(main())
