"""Command line front end: ``cds-opt {solve|gen|verify|bench}``.

Exit codes: 0 success (for verify: solution valid; for bench: no bound
violations), 1 failed verification / bound violation, 2 bad input
(malformed instance, out-of-range ids, invalid parameters), 3 internal
verification failure of a freshly computed solution (a solver bug).
A cost sum or ratio past the float range exits 2 and writes no report;
for bench, neither the CSV nor the summary.
"""

from __future__ import annotations

import argparse
import io
import json
import sys

from .bench import OVERFLOW_MESSAGE, load_batch_spec, run_batch, summarize, write_csv
from .generators import KINDS, generate
from .graph import Instance, parse_instance, serialize_instance, unify_line_breaks
from .oracle import DEFAULT_NODE_BUDGET
from .solver import solve, solve_report_dict
from .verify import verify_cds

EMBEDDED_DS = "@embedded"
DESIGNATED_PREFIX = "# designated-ds:"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cds-opt",
        description="Minimum-weight connected m-fold dominating set toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an instance and emit a JSON report")
    p_solve.add_argument("instance", help="instance file path")
    p_solve.add_argument(
        "--given-ds",
        nargs="?",
        const=EMBEDDED_DS,
        default=None,
        metavar="SPEC",
        help="connect this dominating set instead of running the greedy cover; "
        "SPEC is an inline id list or else a node-id file, and without a value the "
        "'# designated-ds:' comment of the instance file is used",
    )
    p_solve.add_argument(
        "--baseline",
        choices=["star", "pairwise"],
        default="star",
        help="connector to use (default: star greedy)",
    )
    p_solve.add_argument("--oracle", action="store_true", help="also compute exact optima and ratios")
    p_solve.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)
    p_solve.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
    p_solve.add_argument("--no-timing", action="store_true", help="omit timings for byte-stable reports")

    p_gen = sub.add_parser("gen", help="generate an instance file")
    gen_sub = p_gen.add_subparsers(dest="kind", required=True)
    for kind, spec in KINDS.items():
        g = gen_sub.add_parser(kind, help=spec.help)
        required = [row for row in spec.params if row[2] is None]
        optional = [row for row in spec.params if row[2] is not None]
        seed = [("seed", int, None)] if spec.seeded else []
        for name, typ, default in required + seed + [("m", int, 1)] + optional:
            g.add_argument("--" + name.replace("_", "-"), type=typ, required=default is None, default=default)
        g.add_argument("--out", default=None)

    p_verify = sub.add_parser("verify", help="verify a solution file against an instance")
    p_verify.add_argument("instance")
    p_verify.add_argument("solution", help="file of whitespace-separated node ids")

    p_bench = sub.add_parser("bench", help="run a batch spec and emit CSV + JSON summary")
    p_bench.add_argument("batch", help="batch spec JSON file")
    p_bench.add_argument("--out-csv", default=None, help="CSV output path (default stdout)")
    p_bench.add_argument("--out-json", default=None, help="JSON summary path (default stdout)")
    p_bench.add_argument("--threads", type=int, default=1, help="worker pool width, at least 1 (capped at cases and CPUs)")
    return parser


def _read_instance(path: str) -> tuple[Instance, str]:
    # newline="" keeps every "\r", so that the parser's line rule decides
    with open(path, "r", encoding="utf-8", newline="") as fh:
        text = fh.read()
    return parse_instance(text), text


def _json_text(doc) -> str:
    """``doc`` as indented JSON, refusing the non-finite numbers JSON cannot hold."""
    try:
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise ValueError(OVERFLOW_MESSAGE) from None


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _parse_id_list(text: str) -> list[int]:
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise ValueError("empty node id list")
    ids = []
    for tok in tokens:
        try:
            ids.append(int(tok))
        except ValueError:
            raise ValueError(f"malformed node id {tok!r}") from None
    return ids


def _resolve_given_ds(spec: str, instance_text: str) -> list[int]:
    if spec == EMBEDDED_DS:
        for raw in unify_line_breaks(instance_text).split("\n"):
            line = raw.strip()
            if line.startswith(DESIGNATED_PREFIX):
                return _parse_id_list(line[len(DESIGNATED_PREFIX):])
        raise ValueError("instance file carries no '# designated-ds:' comment")
    try:
        return _parse_id_list(spec)
    except ValueError as exc:
        error = exc
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            return _parse_id_list(fh.read())
    except FileNotFoundError:
        raise ValueError(f"{error}, and no file {spec!r} exists") from None


def cmd_solve(args) -> int:
    inst, text = _read_instance(args.instance)
    given = None
    if args.given_ds is not None:
        given = _resolve_given_ds(args.given_ds, text)
    result = solve(
        inst,
        given_ds=given,
        connector=args.baseline,
        with_oracle=args.oracle,
        node_budget=args.node_budget,
    )
    doc = solve_report_dict(result, include_timings=not args.no_timing)
    _emit(_json_text(doc), args.out)
    return 0 if result.verify_report.is_cds else 3


def cmd_gen(args) -> int:
    inst, designated = generate(args.kind, vars(args))
    text = serialize_instance(inst)
    if designated is not None:
        head, rest = text.split("\n", 1)
        text = f"{head}\n{DESIGNATED_PREFIX} {' '.join(str(u) for u in sorted(designated))}\n{rest}"
    _emit(text, args.out)
    return 0


def cmd_verify(args) -> int:
    inst, _ = _read_instance(args.instance)
    with open(args.solution, "r", encoding="utf-8") as fh:
        ids = _parse_id_list(fh.read())
    report = verify_cds(inst, ids)
    sys.stdout.write(_json_text(vars(report)))
    return 0 if report.is_cds else 1


def cmd_bench(args) -> int:
    if args.threads < 1:
        raise ValueError("--threads must be >= 1")
    with open(args.batch, "r", encoding="utf-8") as fh:
        cases = load_batch_spec(fh.read())
    rows = run_batch(cases, threads=args.threads)
    # both outputs are rendered before either is written, so an overflow writes neither file
    summary = summarize(rows)
    summary_text = _json_text(summary)
    buf = io.StringIO()
    write_csv(rows, buf)
    _emit(buf.getvalue(), args.out_csv)
    _emit(summary_text, args.out_json)
    return 1 if summary["violations"] else 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "solve": cmd_solve,
        "gen": cmd_gen,
        "verify": cmd_verify,
        "bench": cmd_bench,
    }[args.command]
    try:
        return handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
