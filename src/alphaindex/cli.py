"""Command-line front end.

Verbs, one per module capability:

* ``rho``        - alpha-index and Perron vector of a family or graph6 input
* ``bounds``     - degree-average upper and max-degree lower bounds plus rho
* ``enumerate``  - isomorph-free generation by order or size
* ``certify``    - column sums, sign grids, polynomial identities
* ``verify``     - theorem1.3 | theorem1.4 | lemmas campaigns
* ``convert``    - graph6 stream passthrough with filtering and de-duplication

An invocation builds only its verb's parser (see :func:`build_parser`),
since building all six is a large share of a short campaign's time; an
argument list that does not start with a verb gets every verb, for the
help or error message that names them all.

Exit codes: 0 success / all checks passed, 1 verification violations,
2 usage errors (files that cannot be read or written included), 3
internal numerical failures (a power iteration that does not converge, or
a batched eigenvalue that power iteration does not confirm), which say
nothing about the claim under test.  Identical
invocations produce identical output; pass ``--timings`` to include
wall-clock milliseconds in reports (off by default, since timing is the
one nondeterministic field).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import inspect
import io
import json
import re
import sys
from typing import Sequence, TextIO

from . import certificates as ct
from . import harness as hz
from .enumeration import (
    MAX_BUILTIN_ORDER,
    MAX_MIN2C_ORDER,
    MAX_SIZE,
    EnumerationLimitError,
    canonical_form,
    graphs_by_order,
    graphs_by_size,
    ingest_graph6,
)
from .families import build
from .graphs import Graph6Error, GraphError, emit_graph6, parse_graph6
from .spectral import (
    SpectralError,
    adjacency_stack,
    alpha_indices,
    column_sums,
    lower_bounds_max_degree,
    upper_bounds_degree_average,
)

_FILTER_NAMES = {
    "all": "all",
    "2conn": "two_connected",
    "min2c": "minimally_two_connected",
}

_IDENTITY_CHECKS = {"f": ct.identity_check_f, "g": ct.identity_check_g}


def _parse_int_range(text: str) -> list[range]:
    """Accept "5..8" and "6,8,10" (and mixtures separated by commas); the
    ranges stay unexpanded until :func:`_capped` has checked them."""
    out: list[range] = []
    for part in map(str.strip, text.split(",")):
        if part:
            lo, hi = part.split("..", 1) if ".." in part else (part, part)
            try:
                out.append(range(int(lo), int(hi) + 1))
            except ValueError:
                raise argparse.ArgumentTypeError(f"bad range {part!r}, expected N or LO..HI") from None
            if not out[-1]:
                raise argparse.ArgumentTypeError(f"empty range {part!r}")
    if not out:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return out


def _capped(ranges: list[range], cap: int, flag: str) -> list[int]:
    """The sorted values of ``ranges``, once each lies in 1..cap."""
    for r in ranges:
        if r and (r[0] < 1 or r[-1] > cap):
            raise ValueError(f"{flag} {r[0]}..{r[-1]} leaves 1..{cap}, the generator's range")
    return sorted(set().union(*ranges))


def _listed(values: Sequence[int]) -> str:
    return ",".join(map(str, values))


def _parse_alphas(text: str) -> list[str]:
    """Alphas stay decimal strings so reports echo them verbatim; two that
    are equal in value (0.5 and 0.50) would repeat every case."""
    out = []
    seen: dict[float, str] = {}
    for part in text.split(","):
        part = part.strip()
        if part:
            try:
                value = float(part)
            except ValueError:
                raise argparse.ArgumentTypeError(f"bad alpha {part!r}, expected a decimal") from None
            if value in seen:
                raise argparse.ArgumentTypeError(f"alpha {part!r} repeats {seen[value]!r}")
            seen[value] = part
            out.append(part)
    if not out:
        raise argparse.ArgumentTypeError(f"no alpha values in {text!r}")
    return out


def _parse_targets(text: str) -> list[str]:
    """Comma-separated lemma targets; the empty text names none, and a
    repeated target is an error.  A module function, not a lambda in the
    parser, which argparse holds in reference cycles."""
    targets = text.split(",") if text else []
    for i, target in enumerate(targets):
        if target in targets[:i]:
            raise argparse.ArgumentTypeError(f"repeated target {target!r}")
    return targets


def _input_graphs(args) -> list[tuple[str, object]]:
    """(label, Graph) pairs from --family, --graph6, --in, or stdin."""
    if args.family:
        g, _ = build(args.family)
        # The label is the text without spaces or leading zeros: " K02,3" is K2,3.
        return [(re.sub(r"\d+", lambda d: str(int(d[0])), args.family.strip()), g)]
    if args.graph6:
        return [(args.graph6, parse_graph6(args.graph6))]
    with _graph6_lines(args) as stream:
        return [(line, parse_graph6(line)) for line in map(str.strip, stream) if line]


def _graph6_lines(args) -> contextlib.AbstractContextManager[TextIO]:
    """The --in file, or stdin when none is given (stdin is left open)."""
    return open(args.infile) if args.infile else contextlib.nullcontext(sys.stdin)


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _print_records(args, records: list[dict], line) -> None:
    """The records as a JSON list, or one ``line(record)`` each as text
    (nothing for no records)."""
    if args.format == "json":
        _emit(args, json.dumps(records, indent=2) + "\n")
    else:
        _emit(args, "".join(line(record) + "\n" for record in records))


def _cmd_rho(args) -> int:
    inputs = _input_graphs(args)
    # One stacked solve; a case gives the same bits alone or stacked.
    results = alpha_indices([(g, float(args.alpha)) for _, g in inputs])
    records = [{
        "input": label,
        "graph6": emit_graph6(g),
        "alpha": args.alpha,
        "rho": result.rho,
        "perron": [float(x) for x in result.perron],
        "residual": result.residual,
        "iterations": result.iterations,
    } for (label, g), result in zip(inputs, results)]
    _print_records(args, records, lambda r: (
        f"{r['input']}  alpha={r['alpha']}  rho={r['rho']:.12f}\n"
        f"  perron = [{', '.join(f'{x:.12f}' for x in r['perron'])}]\n"
        f"  residual={r['residual']:.3e}  iterations={r['iterations']}"
    ))
    return 0


def _cmd_bounds(args) -> int:
    inputs = _input_graphs(args)
    alpha = float(args.alpha)
    stacks = [adjacency_stack([g]) for _, g in inputs]
    # The lower bound checks alpha, so every input's runs before the solve
    # and its error comes first, as it would one input at a time.
    lowers = [float(lower_bounds_max_degree(adj, alpha)[0]) for adj in stacks]
    results = alpha_indices([(g, alpha) for _, g in inputs])
    records = [{
        "input": label,
        "alpha": args.alpha,
        "lower": lower,
        "rho": result.rho,
        "upper": float(upper_bounds_degree_average(adj, alpha)[0]),
    } for (label, _), adj, lower, result in zip(inputs, stacks, lowers, results)]
    _print_records(args, records, lambda r: (
        f"{r['input']}  alpha={r['alpha']}  "
        f"lower={r['lower']:.12f}  rho={r['rho']:.12f}  upper={r['upper']:.12f}"
    ))
    return 0


def _cmd_enumerate(args) -> int:
    filter_name = _FILTER_NAMES[args.filter or ("all" if args.order is not None else "min2c")]
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


def _cmd_columns(args) -> int:
    records = []
    for label, g in _input_graphs(args):
        sums = column_sums(adjacency_stack([g]), float(args.alpha), args.variant)[0].tolist()
        records.append({
            "input": label,
            "alpha": args.alpha,
            "variant": args.variant,
            "parameter": g.n if args.variant == "order" else g.m,
            "column_sums": sums,
            "max": max(sums),
        })
    _print_records(args, records, lambda r: (
        f"{r['input']}  variant={r['variant']}  alpha={r['alpha']}  "
        f"max_c_u={r['max']:.6g}  sums={[round(v, 9) for v in r['column_sums']]}"
    ))
    return 0


def _cmd_signs(args) -> int:
    ms = ct.odd_range(args.m_start, args.m_stop)
    alphas = ct.alpha_grid(args.alpha_start, args.alpha_stop, args.alpha_step)
    records = []
    for poly in args.poly.split(","):
        min_abs, violations = ct.sign_grid(poly, ms, alphas)
        records.append({
            "polynomial": poly,
            "m_values": ms,
            "alphas": alphas,
            "min_abs_value": min_abs,
            "violations": violations,
            "passed": not violations,
        })
    _print_records(args, records, lambda r: (
        f"{r['polynomial']}: {'PASS' if r['passed'] else 'FAIL'} "
        f"(min |value| = {r['min_abs_value']:.6g}, violations = {len(r['violations'])})"
    ))
    return 0 if all(r["passed"] for r in records) else 1


def _cmd_identity(args) -> int:
    ms = ct.odd_range(args.m_start, args.m_stop)
    alphas = ct.alpha_grid(args.alpha_start, args.alpha_stop, args.alpha_step)
    results = []
    for poly in args.poly.split(","):
        if poly not in _IDENTITY_CHECKS:
            raise ValueError(f"unknown identity polynomial {poly!r}; choose from f, g")
        worst, failures = ct.identity_grid(_IDENTITY_CHECKS[poly], ms, alphas)
        results.append({"polynomial": poly, "max_rel_error": worst, "passed": not failures})
    _print_records(args, results, lambda r: (
        f"identity {r['polynomial']}: {'PASS' if r['passed'] else 'FAIL'} "
        f"(max relative error {r['max_rel_error']:.3e})"
    ))
    return 0 if all(r["passed"] for r in results) else 1


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
    for dest, cap in (("n_values", MAX_MIN2C_ORDER), ("m_values", MAX_SIZE)):
        if dest in given:
            given[dest] = _capped(given[dest], cap, args.campaign[dest])
    reports = run(**given)
    if args.target != "lemmas":
        reports = [reports]
    _emit(args, _render_reports(args, reports))
    return 0 if all(r.passed for r in reports) else 1


def _cmd_convert(args) -> int:
    with _graph6_lines(args) as stream:
        kept = list(ingest_graph6(stream, _FILTER_NAMES[args.filter]))
    if args.canonical:
        # A form is None only past the canonical cap, where canonical_form
        # raises the usage error.
        _emit(args, "".join((form or canonical_form(g)) + "\n" for g, form in kept))
    else:
        _emit(args, "".join(emit_graph6(g) + "\n" for g, _ in kept))
    return 0


def _add_io(p, formats=("text", "json")):
    p.add_argument("--format", choices=formats, default=formats[0])
    p.add_argument("--out", help="write output to this path instead of stdout")


# Flags that several verbs share are built in parsers without help that the
# verbs take as parents (argparse copies their actions).
def _graph_input() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_mutually_exclusive_group()
    group.add_argument("--family", help="family syntax: K{a},{b} | SK2,{k} | G{a},{b} | C{n}")
    group.add_argument("--graph6", help="a literal graph6 string")
    group.add_argument("--in", dest="infile", help="file of graph6 lines (default: stdin)")
    _add_io(parent)
    return parent


def _grid() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--poly", default="f,g", help="which polynomials: f, g, or f,g")
    parent.add_argument("--m-start", type=int, default=ct.GRID_M[0])
    parent.add_argument("--m-stop", type=int, default=ct.GRID_M[1])
    parent.add_argument("--alpha-start", default=ct.GRID_ALPHA[0])
    parent.add_argument("--alpha-stop", default=ct.GRID_ALPHA[1])
    parent.add_argument("--alpha-step", default=ct.GRID_ALPHA[2])
    _add_io(parent)
    return parent


def _add_rho(sub) -> None:
    p = sub.add_parser("rho", parents=[_graph_input()], help="alpha-index and Perron vector")
    p.add_argument("--alpha", required=True, help="alpha in [0, 1), e.g. 0.5")
    p.set_defaults(fn=_cmd_rho)


def _add_bounds(sub) -> None:
    p = sub.add_parser("bounds", parents=[_graph_input()],
                       help="lower/upper alpha-index bounds plus rho")
    p.add_argument("--alpha", required=True)
    p.set_defaults(fn=_cmd_bounds)


def _add_enumerate(sub) -> None:
    p = sub.add_parser("enumerate", help="isomorph-free generation")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--order", type=int,
                       help=f"enumerate by order (n <= {MAX_MIN2C_ORDER} with --filter min2c, "
                            f"otherwise n <= {MAX_BUILTIN_ORDER}; n = 9 takes about 41 s and 172 MB)")
    group.add_argument("--size", type=int,
                       help=f"enumerate minimally 2-connected graphs by size (m <= {MAX_SIZE})")
    p.add_argument("--filter", choices=sorted(_FILTER_NAMES),
                   help="default: all with --order, min2c with --size")
    _add_io(p, formats=("graph6", "json"))
    p.set_defaults(fn=_cmd_enumerate)


def _add_certify(sub) -> None:
    p = sub.add_parser("certify", help="column sums, sign grids, identities")
    modes = p.add_subparsers(dest="mode", required=True)
    p = modes.add_parser("columns", parents=[_graph_input()],
                         help="column sums of the proof matrix B")
    p.add_argument("--alpha", default="0.5", help="alpha for column sums")
    p.add_argument("--variant", choices=("order", "size"), default="order")
    p.set_defaults(fn=_cmd_columns)
    grid = _grid()
    p = modes.add_parser("signs", parents=[grid], help="sign grids of f and g")
    p.set_defaults(fn=_cmd_signs)
    p = modes.add_parser("identity", parents=[grid], help="polynomial identities of f and g")
    p.set_defaults(fn=_cmd_identity)


def _add_verify(sub) -> None:
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
                            f"(default {_listed(hz.THEOREM_ORDERS)}, at most {MAX_MIN2C_ORDER})"),
        p.add_argument("--m", dest="m_values", metavar="M", type=_parse_int_range,
                       help=f"theorem1.4 sizes, e.g. 6..13 or 9,11,13 "
                            f"(default {_listed(hz.THEOREM_SIZES)}, at most {MAX_SIZE})"),
        p.add_argument("--alpha", dest="alphas", metavar="ALPHA", type=_parse_alphas,
                       help="comma-separated alpha grid (default: each target's own; for "
                            "theorems 0.50..0.95 step 0.05 plus 0.999)"),
        p.add_argument("--targets", type=_parse_targets,
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
    _add_io(p, formats=("text", "json", "csv"))
    p.set_defaults(fn=_cmd_verify, campaign={a.dest: a.option_strings[0] for a in campaign})


def _add_convert(sub) -> None:
    p = sub.add_parser("convert", help="graph6 passthrough with filtering")
    p.add_argument("--in", dest="infile", help="file of graph6 lines (default: stdin)")
    p.add_argument("--filter", choices=sorted(_FILTER_NAMES), default="all")
    p.add_argument("--canonical", action="store_true", help="emit canonical forms")
    p.add_argument("--out", help="write output to this path instead of stdout")
    p.set_defaults(fn=_cmd_convert)


_VERBS = {
    "rho": _add_rho,
    "bounds": _add_bounds,
    "enumerate": _add_enumerate,
    "certify": _add_certify,
    "verify": _add_verify,
    "convert": _add_convert,
}


def build_parser(verb: str | None = None) -> argparse.ArgumentParser:
    """The parser of every verb, or with only ``verb``'s subparser built
    when ``verb`` names one.

    A one-verb parser prints the same bytes as the full one wherever it can
    be reached: the command's metavar names every verb, so the top-level
    usage line (wrapped as argparse wraps it) is the full parser's, and the
    messages that name the command itself (a missing or unknown verb) come
    only from argument lists that do not start with a verb.
    """
    parser = argparse.ArgumentParser(
        prog="alphaindex",
        description="alpha-index computation and desk-scale verification "
                    "for minimally 2-connected graphs",
    )
    only = verb if verb in _VERBS else None
    metavar = None if only is None else "{" + ",".join(_VERBS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, add in _VERBS.items():
        if only in (None, name):
            add(sub)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    # The imports' objects live as long as the process, so no collection
    # should scan them again: freezing them also resets the collector's
    # counts, and a run's collections see only the objects it makes.  The
    # freeze comes before the parse, so that the parse's garbage stays
    # collectable, and is undone on the way out, so that a long-lived
    # caller's garbage does not stay frozen.
    gc.freeze()
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        # Only the invoked verb's subparser is built; argument lists that do
        # not start with a verb (none, -h, a typo) get every verb for their
        # message.
        parser = build_parser(argv[0] if argv else None)
        args = parser.parse_args(argv)
        try:
            return args.fn(args)
        except (GraphError, Graph6Error, EnumerationLimitError, ValueError, OSError) as exc:
            parser.exit(2, f"error: {exc}\n")
        except SpectralError as exc:  # ConvergenceError included
            parser.exit(3, f"internal error: {exc}\n")
    finally:
        gc.unfreeze()


if __name__ == "__main__":
    sys.exit(main())
