"""Command-line surface: ball, encode, decode, sieve, verify, bounds, table.

Sequences are passed as comma-separated decimals; plain 0/1 strings are
accepted as shorthand for binary.  Exit codes: 0 success, 1 operational
failure (not decodable, verification witness, a sieve that finds no
word), 2 usage error.
"""
from __future__ import annotations

import argparse
import csv
import sys

from . import bounds, pll2burst, tburst, verify
from .seqcore import (
    Burst,
    NotDecodableError,
    deletion_ball,
    format_sequence,
    parse_sequence,
)

USAGE_ERROR = 2
FAILURE = 1


def _read_sequence(path: str) -> tuple:
    with open(path) as fh:
        return parse_sequence(fh.read().strip())


def _write_sequence(path: str, seq: tuple) -> None:
    with open(path, "w") as fh:
        fh.write(format_sequence(seq) + "\n")


def cmd_ball(args) -> int:
    seq = parse_sequence(args.seq, args.q)
    ball = deletion_ball(seq, args.t, upto=args.upto)
    for d in sorted(ball):
        print(format_sequence(d))
    print(f"size {len(ball)}")
    return 0


def cmd_encode(args) -> int:
    x = _read_sequence(getattr(args, "in"))
    if args.scheme == "pll":
        y = pll2burst.pll_encode(x)
    else:
        if args.delta is None:
            args.delta = tburst.default_delta(len(x), args.t)
        dp = tburst.DensityParams(len(x), args.t, args.delta)
        y = tburst.dense_encode(x, dp)
    _write_sequence(args.out, y)
    print(f"encoded {len(x)} -> {len(y)} symbols")
    return 0


def cmd_decode(args) -> int:
    with open(args.book) as fh:
        book = verify.Codebook.from_json(fh.read())
    received = parse_sequence(args.received)
    decoder = verify.book_decoder(book)
    family = book.spec.family
    needs_window = verify.get_family(family).needs_window
    lo = 1
    if args.window:
        lo, hi = (int(p) for p in args.window.split(":"))
        if not 1 <= lo <= hi:
            raise ValueError("--window requires 1 <= LO <= HI")
        # the decoder searches [LO, LO+P-1]: a longer window would let a
        # burst past it decode to a wrong codeword
        if needs_window and hi - lo + 1 > book.spec.params["P"]:
            raise ValueError(
                f"--window is longer than P = {book.spec.params['P']}"
            )
    elif needs_window:
        print(f"decode: family {family} requires --window", file=sys.stderr)
        return USAGE_ERROR
    burst = Burst(lo, max(1, book.spec.n - len(received)))
    try:
        decoded = decoder(None, received, burst)
    except NotDecodableError as exc:
        print(f"not decodable: {exc}", file=sys.stderr)
        return FAILURE
    print(format_sequence(decoded))
    return 0


def cmd_sieve(args) -> int:
    extra = {k: v for k in ("delta", "P") if (v := getattr(args, k)) is not None}
    book = verify.sieve(
        args.family,
        args.n,
        q=args.q,
        t=args.t,
        budget=args.budget,
        seed=args.seed,
        **extra,
    )
    with open(args.out, "w") as fh:
        fh.write(book.to_json() + "\n")
    tag = " (sampled)" if book.sampled else ""
    print(f"sieved {len(book.words)} words{tag} -> {args.out}")
    return 0


def cmd_verify(args) -> int:
    with open(args.book) as fh:
        book = verify.Codebook.from_json(fh.read())
    t = args.t
    witness = verify.confusability_check(book.words, t)
    if witness is not None:
        u, v, d = witness
        print(
            "confusability witness: "
            f"{format_sequence(u)} and {format_sequence(v)} "
            f"share descendant {format_sequence(d)}"
        )
        return FAILURE
    print(f"confusability: pass ({len(book.words)} words, t={t})")
    if args.sweep:
        report = verify.roundtrip_sweep(book, verify.book_decoder(book), t)
        if not report.ok:
            w, b, got = report.failures[0]
            print(
                f"sweep: {len(report.failures)}/{report.total} failures; "
                f"first: word {format_sequence(w)}, burst {b}, got {got}"
            )
            return FAILURE
        print(f"sweep: pass ({report.total} corruptions)")
    return 0


def cmd_bounds(args) -> int:
    if args.perm:
        report = bounds.perm_bound(args.n, args.t)
    else:
        report = bounds.lp_bound(args.n, args.t, args.q)
    print(report.floor)
    return 0


def cmd_table(args) -> int:
    ns = [int(x) for x in args.ns.split(",")]
    rows = verify.redundancy_table(args.families.split(","), ns, q=args.q)
    with open(args.out, "w", newline="") as fh:
        fh.write(f"# schema_version: {verify.SCHEMA_VERSION}\n")
        writer = csv.writer(fh)
        writer.writerows(rows)
    print(f"wrote {len(rows) - 1} rows -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="burstcodes",
        description="Burst-deletion code toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ball", help="print the deletion ball of a sequence")
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--seq", required=True)
    p.add_argument("--upto", action="store_true")
    p.set_defaults(func=cmd_ball)

    p = sub.add_parser("encode", help="apply a constrained encoder")
    p.add_argument("--scheme", choices=("pll", "dense"), required=True)
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--delta", type=int)
    p.add_argument("--in", dest="in", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode a received word against a book")
    p.add_argument("--book", required=True)
    p.add_argument("--received", required=True)
    p.add_argument("--window", help="LO:HI burst-window side information")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("sieve", help="sieve a codebook to JSON")
    p.add_argument("--family", choices=tuple(verify.FAMILIES), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--delta", type=int)
    p.add_argument("--P", type=int)
    p.add_argument("--budget", type=int, default=verify.DEFAULT_BUDGET)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sieve)

    p = sub.add_parser("verify", help="check a codebook file")
    p.add_argument("--book", required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--sweep", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bounds", help="print a code-size upper bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--perm", action="store_true")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("table", help="emit the redundancy comparison CSV")
    p.add_argument(
        "--families",
        default="vt,levenshtein,tenengolts,induced,c2b,ctb,perm",
    )
    p.add_argument("--ns", default="16,32,64")
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except NotDecodableError as exc:
        print(f"not decodable: {exc}", file=sys.stderr)
        return FAILURE
    except verify.EmptyBookError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAILURE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
