"""Command-line front end.

Verbs, one per module capability:

* ``rho``        - alpha-index and Perron vector of a family or graph6 input
* ``bounds``     - degree-average upper and max-degree lower bounds plus rho
* ``enumerate``  - isomorph-free generation by order or size
* ``certify``    - column sums, sign grids, polynomial identities
* ``verify``     - theorem1.3 | theorem1.4 | lemmas campaigns
* ``convert``    - graph6 stream passthrough with filtering and de-duplication

Exit codes: 0 success / all checks passed, 1 verification violations,
2 usage errors, 3 internal numerical failures (a power iteration that does
not converge, or a batched eigenvalue that power iteration does not
confirm), which say nothing about the claim under test.  Identical
invocations produce identical output; pass ``--timings`` to include
wall-clock milliseconds in reports (off by default, since timing is the
one nondeterministic field).
"""

from __future__ import annotations

import argparse
import csv
import inspect
import io
import json
import sys
from typing import Sequence

from . import certificates as ct
from . import harness as hz
from .enumeration import (
    EnumerationLimitError,
    canonical_form,
    graphs_by_order,
    graphs_by_size,
    ingest_graph6,
)
from .families import build, parse_family
from .graphs import Graph6Error, GraphError, emit_graph6, parse_graph6
from .spectral import (
    SpectralError,
    alpha_index,
    column_sum_certificate,
    lower_bound_max_degree,
    upper_bound_degree_average,
)

_FILTER_NAMES = {
    "all": "all",
    "2conn": "two_connected",
    "min2c": "minimally_two_connected",
}

_IDENTITY_CHECKS = {"f": ct.identity_check_f, "g": ct.identity_check_g}


def _parse_int_range(text: str) -> list[int]:
    """Accept "5..8" and "6,8,10" (and mixtures separated by commas)."""
    out: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            lo, hi = part.split("..", 1)
            out.extend(range(int(lo), int(hi) + 1))
        elif part:
            out.append(int(part))
    if not out:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return sorted(set(out))


def _listed(values: Sequence[int]) -> str:
    return ",".join(map(str, values))


def _parse_alphas(text: str) -> list[str]:
    """Alphas stay decimal strings so reports echo them verbatim."""
    out = []
    for part in text.split(","):
        part = part.strip()
        if part:
            float(part)  # validate
            out.append(part)
    if not out:
        raise argparse.ArgumentTypeError(f"no alpha values in {text!r}")
    return out


def _input_graphs(args) -> list[tuple[str, object]]:
    """(label, Graph) pairs from --family, --graph6, --in, or stdin."""
    if getattr(args, "family", None):
        fid = parse_family(args.family)
        return [(str(fid), build(fid)[0])]
    if getattr(args, "graph6", None):
        return [(args.graph6, parse_graph6(args.graph6))]
    stream = open(args.infile) if getattr(args, "infile", None) else sys.stdin
    try:
        pairs = []
        for line in stream:
            line = line.strip()
            if line:
                pairs.append((line, parse_graph6(line)))
        return pairs
    finally:
        if stream is not sys.stdin:
            stream.close()


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_rho(args) -> int:
    records = []
    for label, g in _input_graphs(args):
        result = alpha_index(g, float(args.alpha))
        records.append({
            "input": label,
            "graph6": emit_graph6(g),
            "alpha": args.alpha,
            "rho": result.rho,
            "perron": [float(x) for x in result.perron],
            "residual": result.residual,
            "iterations": result.iterations,
        })
    if args.format == "json":
        _emit(args, json.dumps(records, indent=2) + "\n")
    else:
        lines = []
        for r in records:
            lines.append(f"{r['input']}  alpha={r['alpha']}  rho={r['rho']:.12f}")
            lines.append("  perron = [" + ", ".join(f"{x:.12f}" for x in r["perron"]) + "]")
            lines.append(f"  residual={r['residual']:.3e}  iterations={r['iterations']}")
        _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_bounds(args) -> int:
    records = []
    for label, g in _input_graphs(args):
        alpha = float(args.alpha)
        records.append({
            "input": label,
            "alpha": args.alpha,
            "lower": lower_bound_max_degree(g, alpha),
            "rho": alpha_index(g, alpha).rho,
            "upper": upper_bound_degree_average(g, alpha),
        })
    if args.format == "json":
        _emit(args, json.dumps(records, indent=2) + "\n")
    else:
        lines = [
            f"{r['input']}  alpha={r['alpha']}  "
            f"lower={r['lower']:.12f}  rho={r['rho']:.12f}  upper={r['upper']:.12f}"
            for r in records
        ]
        _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_enumerate(args) -> int:
    filter_name = _FILTER_NAMES[args.filter]
    if args.order is not None:
        graphs = graphs_by_order(args.order, filter_name)
    else:
        if filter_name != "minimally_two_connected":
            raise EnumerationLimitError("--size enumeration supports only --filter min2c")
        graphs = graphs_by_size(args.size)
    if args.format == "json":
        records = [
            {"graph6": emit_graph6(g), "n": g.n, "m": g.m, "degrees": list(g.degrees())}
            for g in graphs
        ]
        _emit(args, json.dumps(records, indent=2) + "\n")
    else:
        _emit(args, "".join(emit_graph6(g) + "\n" for g in graphs))
    return 0


def _cmd_certify(args) -> int:
    if args.what == "columns":
        records = []
        worst = -float("inf")
        for label, g in _input_graphs(args):
            cert = column_sum_certificate(g, float(args.alpha), args.variant)
            worst = max(worst, max(cert.column_sums))
            records.append({
                "input": label,
                "alpha": args.alpha,
                "variant": cert.variant,
                "parameter": cert.parameter,
                "column_sums": list(cert.column_sums),
                "max": max(cert.column_sums),
            })
        if args.format == "json":
            _emit(args, json.dumps(records, indent=2) + "\n")
        else:
            lines = [
                f"{r['input']}  variant={r['variant']}  alpha={r['alpha']}  "
                f"max_c_u={r['max']:.6g}  sums={[round(v, 9) for v in r['column_sums']]}"
                for r in records
            ]
            _emit(args, "\n".join(lines) + "\n")
        return 0
    if args.what == "signs":
        ms = ct.odd_range(args.m_start, args.m_stop)
        alphas = ct.alpha_grid(args.alpha_start, args.alpha_stop, args.alpha_step)
        certs = [ct.sign_grid(p, ms, alphas) for p in args.poly.split(",")]
        payload = [c.to_json_dict() for c in certs]
        if args.format == "json":
            _emit(args, json.dumps(payload, indent=2) + "\n")
        else:
            lines = [
                f"{c['polynomial']}: {'PASS' if c['passed'] else 'FAIL'} "
                f"(min |value| = {c['min_abs_value']:.6g}, violations = {len(c['violations'])})"
                for c in payload
            ]
            _emit(args, "\n".join(lines) + "\n")
        return 0 if all(c["passed"] for c in payload) else 1
    # identities
    ms = ct.odd_range(args.m_start, args.m_stop)
    alphas = ct.alpha_grid(args.alpha_start, args.alpha_stop, args.alpha_step)
    results = []
    ok = True
    for poly in args.poly.split(","):
        if poly not in _IDENTITY_CHECKS:
            raise ValueError(f"unknown identity polynomial {poly!r}; choose from f, g")
        check = _IDENTITY_CHECKS[poly]
        worst = max(check(float(a), m) for a in alphas for m in ms)
        passed = worst <= ct.IDENTITY_RTOL
        ok = ok and passed
        results.append({"polynomial": poly, "max_rel_error": worst, "passed": passed})
    if args.format == "json":
        _emit(args, json.dumps(results, indent=2) + "\n")
    else:
        lines = [
            f"identity {r['polynomial']}: {'PASS' if r['passed'] else 'FAIL'} "
            f"(max relative error {r['max_rel_error']:.3e})"
            for r in results
        ]
        _emit(args, "\n".join(lines) + "\n")
    return 0 if ok else 1


def _render_reports(args, reports: list) -> str:
    if not args.timings:
        for r in reports:
            r.runtime_ms = 0
    if args.format == "json":
        payload = [r.to_json_dict() for r in reports]
        return json.dumps(payload[0] if len(payload) == 1 else payload, indent=2) + "\n"
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        first = True
        for r in reports:
            rows = r.to_csv_rows()
            writer.writerows(rows if first else rows[1:])
            first = False
        return buf.getvalue()
    lines = []
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.target}: {status} ({r.cases} cases)")
        for v in r.violations:
            lines.append(f"  violation: {v}")
        for f in r.flags:
            lines.append(f"  flag: {f}")
    return "\n".join(lines) + "\n"


def _cmd_verify(args) -> int:
    # A flag left out is not passed on, so the harness signatures hold every
    # default and say which target reads which flag (args.campaign: dest -> flag).
    given = {dest: getattr(args, dest) for dest in args.campaign if getattr(args, dest) is not None}
    if args.target == "lemmas":
        run, reads = hz.verify_lemma_suite, hz.lemma_keywords(given.get("targets"))
    else:
        run = hz.verify_theorem_order if args.target == "theorem1.3" else hz.verify_theorem_size
        reads = inspect.signature(run).parameters
    unread = [flag for dest, flag in args.campaign.items() if dest in given and dest not in reads]
    if unread:
        raise ValueError(f"verify {args.target} does not take {', '.join(unread)}")
    reports = run(**given)
    if args.target != "lemmas":
        reports = [reports]
    _emit(args, _render_reports(args, reports))
    return 0 if all(r.passed for r in reports) else 1


def _cmd_convert(args) -> int:
    stream = open(args.infile) if args.infile else sys.stdin
    try:
        graphs = list(ingest_graph6(stream, _FILTER_NAMES[args.filter]))
    finally:
        if stream is not sys.stdin:
            stream.close()
    if args.canonical:
        _emit(args, "".join(canonical_form(g) + "\n" for g in graphs))
    else:
        _emit(args, "".join(emit_graph6(g) + "\n" for g in graphs))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alphaindex",
        description="alpha-index computation and desk-scale verification "
                    "for minimally 2-connected graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, formats=("text", "json")):
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--out", help="write output to this path instead of stdout")

    def add_graph_input(p):
        p.add_argument("--family", help="family syntax: K{a},{b} | SK2,{k} | G{a},{b} | C{n}")
        p.add_argument("--graph6", help="a literal graph6 string")
        p.add_argument("--in", dest="infile", help="file of graph6 lines (default: stdin)")

    p = sub.add_parser("rho", help="alpha-index and Perron vector")
    add_graph_input(p)
    p.add_argument("--alpha", required=True, help="alpha in [0, 1), e.g. 0.5")
    add_io(p)
    p.set_defaults(fn=_cmd_rho)

    p = sub.add_parser("bounds", help="lower/upper alpha-index bounds plus rho")
    add_graph_input(p)
    p.add_argument("--alpha", required=True)
    add_io(p)
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("enumerate", help="isomorph-free generation")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--order", type=int,
                       help="enumerate by order (n <= 13 with --filter min2c, "
                            "otherwise n <= 9; n = 9 takes minutes)")
    group.add_argument("--size", type=int, help="enumerate minimally 2-connected graphs by size (m <= 16)")
    p.add_argument("--filter", choices=sorted(_FILTER_NAMES), default="all")
    add_io(p, formats=("graph6", "json"))
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("certify", help="column sums, sign grids, identities")
    p.add_argument("what", choices=("columns", "signs", "identity"))
    add_graph_input(p)
    p.add_argument("--alpha", default="0.5", help="alpha for column sums")
    p.add_argument("--variant", choices=("order", "size"), default="order")
    p.add_argument("--poly", default="f,g", help="which polynomials: f, g, or f,g")
    p.add_argument("--m-start", type=int, default=9)
    p.add_argument("--m-stop", type=int, default=99)
    p.add_argument("--alpha-start", default="0.50")
    p.add_argument("--alpha-stop", default="0.99")
    p.add_argument("--alpha-step", default="0.01")
    add_io(p)
    p.set_defaults(fn=_cmd_certify)

    p = sub.add_parser(
        "verify",
        help="run a verification campaign",
        description="Campaign defaults: alpha grid 0.50..0.95 step 0.05 plus a "
                    "0.999 probe for theorem targets; extremal strictness margin "
                    "1e-10 (sub-margin gaps are flagged); cubic-root agreement "
                    "1e-9; bound slack tolerance 1e-10.",
    )
    p.add_argument("target", choices=("theorem1.3", "theorem1.4", "lemmas"))
    # Campaign flags: each dest is the harness keyword it sets.
    campaign = [
        p.add_argument("--n", dest="n_values", metavar="N", type=_parse_int_range,
                       help=f"theorem1.3 orders, e.g. 5..8 "
                            f"(default {_listed(hz.THEOREM_ORDERS)}, at most 13)"),
        p.add_argument("--m", dest="m_values", metavar="M", type=_parse_int_range,
                       help=f"theorem1.4 sizes, e.g. 6..13 or 9,11,13 "
                            f"(default {_listed(hz.THEOREM_SIZES)}, at most 16)"),
        p.add_argument("--alpha", dest="alphas", metavar="ALPHA", type=_parse_alphas,
                       help="comma-separated alpha grid (default: each target's own; for "
                            "theorems 0.50..0.95 step 0.05 plus 0.999)"),
        p.add_argument("--targets", type=lambda text: text.split(",") if text else [],
                       help="comma-separated lemma targets (default: all)"),
        p.add_argument("--n-max", type=int,
                       help=f"order cap for lemma corpora (default {hz.LEMMA_N_MAX})"),
        p.add_argument("--rotation-cases", type=int,
                       help=f"lemma7 rotation cases (default {hz.ROTATION_CASES})"),
        p.add_argument("--seed", type=int,
                       help=f"lemma7 corpus seed (default {hz.ROTATION_SEED})"),
    ]
    p.add_argument("--jobs", type=int, choices=[1],
                   help="accepts only 1; campaigns run serially")
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock runtime_ms in reports")
    add_io(p, formats=("text", "json", "csv"))
    p.set_defaults(fn=_cmd_verify, campaign={a.dest: a.option_strings[0] for a in campaign})

    p = sub.add_parser("convert", help="graph6 passthrough with filtering")
    p.add_argument("--in", dest="infile", help="file of graph6 lines (default: stdin)")
    p.add_argument("--filter", choices=sorted(_FILTER_NAMES), default="all")
    p.add_argument("--canonical", action="store_true", help="emit canonical forms")
    add_io(p, formats=("graph6",))
    p.set_defaults(fn=_cmd_convert)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (GraphError, Graph6Error, EnumerationLimitError, ValueError) as exc:
        parser.exit(2, f"error: {exc}\n")
    except SpectralError as exc:  # ConvergenceError included
        parser.exit(3, f"internal error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
