"""Command-line front end: enumeration listings, counting tables, catalogs
and verification reports, in text, CSV or JSON form.

Exit codes: 0 success/verified, 1 verification failure, 2 usage or I/O
error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from functools import cache
from json.encoder import encode_basestring_ascii

from . import __version__
from .diagrams import (
    MINUS,
    FilledDiagram,
    check_modulus,
    count_by_size,
    diagram_to_json,
)
from .orbits import (
    CASES,
    GradingSpec,
    centralizer_dim,
    component_group_order,
    duality,
    orbit_listing,
)
from .oracle import build_representative, is_distinguished_oracle
from .series import (
    COUNT_FAMILIES,
    family_modulus,
    gf_distinguished_ai,
    gf_distinguished_ii,
    gf_orbit_count,
    weight_sums,
)
from .sheaves import SheafLabel, catalog, cuspidal_ai, verify_bijection

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2

FAMILY_CASE = {"A": "AII", "C": "CII", "D": "DII"}


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"--dims must be a comma-separated integer list, got {text!r}")


def _modulus_from_args(args) -> int:
    """The modulus, --m0 for case AII and --m for the others, checked
    against the case; the other case's flag is rejected."""
    flag, other = ("--m0", "--m") if args.case == "AII" else ("--m", "--m0")
    modulus, stray = (args.m0, args.m) if args.case == "AII" else (args.m, args.m0)
    if stray is not None:
        raise ValueError(f"case {args.case} takes {flag}, not {other}")
    if modulus is None:
        raise ValueError(f"case {args.case} requires {flag}")
    check_modulus(args.case, modulus)
    return modulus


def _grading_from_args(args) -> GradingSpec:
    modulus = _modulus_from_args(args)
    if args.dims is None:
        raise ValueError("this command requires --dims")
    return GradingSpec(args.case, modulus, _parse_dims(args.dims))


def _order_from_args(args, case: str) -> dict:
    """--a as keyword arguments: {"a": a} for case AI, which requires it, and
    {} for the type II cases, which reject it and take the default order."""
    if case != "AI":
        if args.a is not None:
            raise ValueError(f"--a applies to case AI only, not {case}")
        return {}
    if args.a is None:
        raise ValueError("case AI requires --a")
    return {"a": args.a}


def _emit(args, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
        # Flush here so that a closed pipe fails inside main(), not at exit.
        sys.stdout.flush()


def _render_table(header, rows, fmt: str) -> str:
    cells = [[_bool(v) if isinstance(v, bool) else str(v) for v in row] for row in rows]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(cells)
        return buf.getvalue()
    widths = [len(h) for h in header]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header)).rstrip()]
    for row in cells:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines)


def _write(args, payload, header, rows) -> None:
    """The payload as indented JSON, or the header and rows as a text or CSV
    table, whichever --format asks for."""
    if args.format == "json":
        chunks: list[str] = []
        _put_json(payload, chunks.append)
        _emit(args, "".join(chunks))
    else:
        _emit(args, _render_table(header, rows, args.format))


def _put_json(obj, put, indent: str = "\n") -> None:
    """Pass obj to `put` in chunks that join to `json.dumps(obj, indent=2,
    default=_json_form)`, with `indent` the line break and indentation of
    its nesting level.  The standard library encodes with an indent in pure
    Python, one generator per container; this writes the same bytes with
    one call per value, one per diagram and one per key with a bool."""
    if isinstance(obj, str):
        put(encode_basestring_ascii(obj))
    elif obj is None:
        put("null")
    elif obj is True:
        put("true")
    elif obj is False:
        put("false")
    elif isinstance(obj, int):
        put(int.__repr__(obj))
    elif isinstance(obj, float):
        put(json.dumps(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            put("[]")
            return
        inner, sep = indent + "  ", "["
        for value in obj:
            put(sep + inner)
            _put_json(value, put, inner)
            sep = ","
        put(indent + "]")
    elif isinstance(obj, dict):
        if not obj:
            put("{}")
            return
        inner, sep = indent + "  ", "{"
        for key, value in obj.items():
            head = f"{sep}{inner}{encode_basestring_ascii(key)}: "
            if value is True or value is False:
                put(head + ("true" if value else "false"))
            else:
                put(head)
                _put_json(value, put, inner)
            sep = ","
        put(indent + "}")
    elif isinstance(obj, FilledDiagram):
        put(_diagram_chunk(obj, indent))
    else:
        _put_json(_json_form(obj), put, indent)


def _diagram_chunk(diagram: FilledDiagram, indent: str) -> str:
    """`diagram_to_json(diagram)` as `_put_json` writes it at `indent`, in
    one chunk."""
    inner = indent + "  "
    rows = "[]"
    if diagram.rows:
        row = f'{inner}  {{{inner}    "len": %d,{inner}    "start": %d{inner}  }}'
        rows = "[" + ",".join([row % r for r in diagram.rows]) + inner + "]"
    sign = encode_basestring_ascii(diagram.sign)
    return f'{{{inner}"modulus": {diagram.modulus:d},{inner}"sign": {sign},{inner}"rows": {rows}{indent}}}'


def _grading_json(grading) -> dict:
    return {"case": grading.case, "modulus": grading.modulus, "dims": list(grading.dims)}


def _json_form(obj):
    """The JSON form of a library object in a payload, for `_put_json`;
    anything else is not serializable."""
    if isinstance(obj, FilledDiagram):
        return diagram_to_json(obj)
    if isinstance(obj, SheafLabel):
        # the label's family picks its stratum's form
        s = obj.stratum
        if obj.case == "AI":
            stratum = {"a": s.a, "l": s.rank, "mu": s.mu, "d_check": s.d_check,
                       "braid_rank": s.rank}
        else:
            stratum = {"k": s.rank, "mu": s.mu}
        return {
            "type": obj.case,
            "stratum": stratum,
            "psi": {"mod": obj.psi.modulus, "idx": obj.psi.index, "order": obj.psi.order},
            "tau": obj.tau,
            "flags": {
                "nilp": obj.nilpotent_support,
                "full": obj.full_support,
                "cuspidal_conj": obj.cuspidal_conjectural,
            },
        }
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _bool(v: bool) -> str:
    return "true" if v else "false"


def _tau_str(tau) -> str:
    return json.dumps([list(c) for c in tau], separators=(",", ":"))


# ---------------------------------------------------------------------------
# subcommands


def cmd_orbits(args) -> int:
    grading = _grading_from_args(args)
    if grading.case == "AI":
        header = ["diagram", "d_lambda", "distinguished", "orbit_dim"]
        # `orbit_dim`, with the box counts every listed diagram has
        squares = sum(v * v for v in grading.dims)

        def describe(lam, g, plain):
            return lam, g, plain, squares - centralizer_dim(lam)
    else:
        header = ["diagram", "component_group", "distinguished"]

        def describe(lam, g, plain):
            return lam, component_group_order(lam, grading), plain

    entries = [
        dict(zip(header, describe(*listed)))
        for listed in orbit_listing(grading.case, grading.modulus, grading.dims)
    ]
    payload = {**_grading_json(grading), "orbits": entries}
    _write(args, payload, header, (e.values() for e in entries))
    return EXIT_OK


def _count_rows(args):
    """One row per n = 0..--n: the series coefficient, the weight sum, the
    enumerated count and whether the three match."""
    family = args.family
    n_max = args.n
    if n_max < 0:
        raise ValueError("--n must be nonnegative")
    if family == "dist-AI":
        if args.l is not None:
            raise ValueError("family dist-AI takes --m and --a, not --l")
        if args.m is None or args.a is None:
            raise ValueError("family dist-AI requires --m and --a")
        m, a = args.m, args.a
        gf = gf_distinguished_ai(m, a, n_max)
        weight_params = {"m": m, "a": a}
        # row n counts the diagrams of size a*n distinguished at order a
        modulus, step, rule = m, a, {"distinguished": True, "order": a}
    else:
        if args.m is not None or args.a is not None:
            raise ValueError(f"family {family} takes --l, not --m or --a")
        if args.l is None:
            raise ValueError(f"family {family} requires --l")
        l = args.l
        base = family.removeprefix("dist-")
        distinguished = family.startswith("dist-")
        gf = (gf_distinguished_ii if distinguished else gf_orbit_count)(base, l, n_max)
        weight_params = {"l": l}
        modulus, step = family_modulus(base, l), 2
        rule = {"case": FAMILY_CASE[base], "distinguished": distinguished}
    counts = count_by_size(modulus, MINUS, [step * n for n in range(n_max + 1)], **rule)
    sums = weight_sums(n_max, family, **weight_params)
    rows = []
    for n, (enum, weights) in enumerate(zip(counts, sums)):
        coeff = gf[n]
        rows.append({
            "n": n,
            "gf_coeff": coeff,
            "weight_sum": weights,
            "enum_count": enum,
            "match": coeff == weights == enum,
        })
    return rows


def cmd_count(args) -> int:
    rows = _count_rows(args)
    header = ["n", "gf_coeff", "weight_sum", "enum_count", "match"]
    _write(args, {"family": args.family, "rows": rows}, header, (r.values() for r in rows))
    return EXIT_OK if all(r["match"] for r in rows) else EXIT_VERIFY_FAILED


def _labels_output(args, grading, labels, **order) -> None:
    """The labels as a table, or as JSON after the grading and any order."""
    if grading.case == "AI":
        header = ["a", "l", "mu", "d_check", "psi", "tau", "nilp", "full", "cuspidal_conj"]
        rows = (
            (
                lab.stratum.a,
                lab.stratum.rank,
                str(lab.stratum.mu),
                lab.stratum.d_check,
                f"{lab.psi.index}/{lab.psi.modulus}",
                _tau_str(lab.tau),
                lab.nilpotent_support,
                lab.full_support,
                lab.cuspidal_conjectural,
            )
            for lab in labels
        )
    else:
        header = ["k", "mu", "rho", "nilp", "full"]
        rows = (
            (
                lab.stratum.rank,
                str(lab.stratum.mu),
                json.dumps(list(lab.tau[0]), separators=(",", ":")),
                lab.nilpotent_support,
                lab.full_support,
            )
            for lab in labels
        )
    _write(args, {**_grading_json(grading), **order, "labels": labels}, header, rows)


def cmd_sheaves(args) -> int:
    grading = _grading_from_args(args)
    order = _order_from_args(args, grading.case)
    _labels_output(args, grading, catalog(grading, **order), **order)
    return EXIT_OK


def cmd_verify(args) -> int:
    grading = _grading_from_args(args)
    report = verify_bijection(grading, **_order_from_args(args, grading.case))
    payload = {
        "case": report.case,
        "a": report.a,
        "orbital_complexes": report.complexes,
        "catalog_labels": report.labels,
        "counts_equal": report.counts_equal,
        "injective": report.injective,
        "surjective": report.surjective,
        "ok": report.ok,
    }
    if args.format == "json":
        _write(args, payload, None, None)
    else:
        lines = [
            f"{key}={_bool(value) if isinstance(value, bool) else value}"
            for key, value in payload.items()
            if key != "ok"
        ]
        lines.append(f"result={'PASS' if report.ok else 'FAIL'}")
        _emit(args, "\n".join(lines))
    return EXIT_OK if report.ok else EXIT_VERIFY_FAILED


def cmd_cuspidal(args) -> int:
    grading = _grading_from_args(args)
    if grading.case != "AI":
        raise ValueError("the cuspidal catalog is available for case AI only")
    _labels_output(args, grading, cuspidal_ai(grading))
    return EXIT_OK


def cmd_distinguished(args) -> int:
    if (args.dims is None) == (args.size is None):
        raise ValueError("give exactly one of --dims or --N")
    if args.dims is None:
        modulus, dims = _modulus_from_args(args), None
    else:
        grading = _grading_from_args(args)
        modulus, dims = grading.modulus, grading.dims
    # --a defaults to 1 here; the type II cases still reject it
    a = 1 if args.case == "AI" and args.a is None else _order_from_args(args, args.case).get("a")
    # The oracle is exact, so --seed and --trials change no verdict; they are
    # still checked and echoed for the scripts that pass them.
    if not args.oracle and (args.seed is not None or args.trials is not None):
        raise ValueError("--seed and --trials apply with --oracle only")
    seed = 0 if args.seed is None else args.seed
    trials = 20 if args.trials is None else args.trials
    if trials < 1:
        raise ValueError(f"--trials must be >= 1, got {trials}")
    if seed < 0:
        raise ValueError(f"--seed must be >= 0, got {seed}")
    if args.oracle and args.case != "AI":
        raise ValueError("--oracle applies to case AI only")
    if args.oracle and a != 1:
        raise ValueError("the nilpotency oracle tests order 1 distinguishedness only")
    if args.dump_matrices and args.case != "AI":
        raise ValueError("--dump-matrices applies to case AI only")
    if args.dump_matrices and args.format != "json":
        raise ValueError("--dump-matrices requires --format json")
    entries = []
    all_agree = True
    listing = orbit_listing(args.case, modulus, dims, size=args.size, a=1 if a is None else a)
    for lam, _, pred in listing:
        entry = {"diagram": lam, "distinguished": pred}
        if args.oracle:
            verdict = is_distinguished_oracle(lam)
            entry["oracle"] = verdict
            entry["agrees"] = verdict == pred
            all_agree = all_agree and entry["agrees"]
        if args.dump_matrices:
            x = build_representative(duality(lam))
            entry["blocks"] = [[[str(v) for v in row] for row in b] for b in x.blocks]
        entries.append(entry)
    payload = {
        "case": args.case,
        "modulus": modulus,
        "a": a,
        "seed": seed if args.oracle else None,
        "trials": trials if args.oracle else None,
        "diagrams": entries,
    }
    header = ["diagram", "distinguished"] + (["oracle", "agrees"] if args.oracle else [])
    _write(args, payload, header, (e.values() for e in entries))
    return EXIT_OK if all_agree else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# parser


def _add_io_flags(parser) -> None:
    parser.add_argument("--format", choices=("text", "json", "csv"), default="text")
    parser.add_argument("--output", default=None, help="write to this path instead of stdout")


def _add_grading_flags(parser) -> None:
    parser.add_argument("--case", required=True, choices=CASES)
    parser.add_argument("--m", type=int, default=None, help="modulus (AI, CII, DII)")
    parser.add_argument("--m0", type=int, default=None, help="odd modulus (AII)")
    parser.add_argument("--dims", default=None, help="comma-separated box counts per label")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built on the first call; every later call
    in the process returns that same parser, which `main` reuses."""
    parser = argparse.ArgumentParser(
        prog="gradedorbits",
        description="Enumerate graded nilpotent orbits, verify counting series "
        "and catalog sheaf labels.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("orbits", help="list orbit diagrams for a grading")
    _add_grading_flags(p)
    _add_io_flags(p)
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("count", help="counting table: series vs weights vs enumeration")
    p.add_argument("--family", required=True, choices=COUNT_FAMILIES)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--a", type=int, default=None)
    p.add_argument("--n", type=int, required=True, help="largest table degree")
    _add_io_flags(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("sheaves", help="sheaf-label catalog for a grading")
    _add_grading_flags(p)
    p.add_argument("--a", type=int, default=None, help="central character order (AI)")
    _add_io_flags(p)
    p.set_defaults(func=cmd_sheaves)

    p = sub.add_parser("verify", help="check the orbit-to-label bijection")
    _add_grading_flags(p)
    p.add_argument("--a", type=int, default=None, help="central character order (AI)")
    _add_io_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("cuspidal", help="conjectural cuspidal labels (AI)")
    _add_grading_flags(p)
    _add_io_flags(p)
    p.set_defaults(func=cmd_cuspidal)

    p = sub.add_parser("distinguished", help="distinguished orbits, optionally oracle-checked")
    _add_grading_flags(p)
    p.add_argument("--N", dest="size", type=int, default=None, help="sweep all box-count vectors of this total size")
    p.add_argument("--a", type=int, default=None, help="central character order (AI, default 1)")
    p.add_argument("--oracle", action="store_true", help="cross-check with the nilpotency oracle (AI)")
    p.add_argument("--seed", type=int, default=None,
                   help="accepted with --oracle and echoed; no effect on the verdict (default 0)")
    p.add_argument("--trials", type=int, default=None,
                   help="accepted with --oracle and echoed; no effect on the verdict (default 20)")
    p.add_argument("--dump-matrices", action="store_true", help="include representative blocks (JSON only)")
    _add_io_flags(p)
    p.set_defaults(func=cmd_distinguished)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # OSError covers an unwritable --output path and a closed stdout
        # (BrokenPipeError); neither is a verification failure.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        # the walk recurses once per orbit of start labels: a modulus too large
        print("error: input too large: the walk exceeds the recursion limit", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())
