"""Command-line surface: law reports, ideal listings, lemma verification,
structure search and counterexample hunts over .gag files.

Exit codes: 0 all checks passed / results emitted, 1 a property failed or a
counterexample was found, 2 usage, parse or OS error.
"""
from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from pathlib import Path

from .core import GammaGroupoid, Law, check_law, law_sides
from .ideals import _CLOSURE_KINDS, IdealKind, build_ideal_semilattice, enumerate_ideals, \
    ideal_closure
from .io import ParseError, parse_file, serialize
from .search import Filter, SearchSpec, count, enumerate_structures
from .theorems import MASK_KEYS, LemmaId, LemmaStatus, hunt, verify


def _fmt_subset(G: GammaGroupoid, mask: int) -> str:
    return "{" + ",".join(G.labels_of_subset(mask)) + "}"


def _witness_json(G: GammaGroupoid, at) -> list | None:
    if at is None:
        return None
    return [G.labels[v] if i % 2 == 0 else G.gamma_names[v] for i, v in enumerate(at)]


def _fmt_at(G: GammaGroupoid, at: tuple) -> str:
    return "(" + " ".join(_witness_json(G, at)) + ")"


def _lemma_witness_json(G: GammaGroupoid, w: dict) -> dict:
    out = {}
    for key, value in w.items():
        if key in MASK_KEYS:
            out[key] = list(G.labels_of_subset(value))
        elif key == "element":
            out[key] = G.labels[value]
        elif key in ("gamma", "gamma_b"):
            out[key] = G.gamma_names[value]
        elif key == "at":
            out[key] = _witness_json(G, value)
        else:
            out[key] = value
    return out


def _fmt_lemma_witness(w: dict) -> str:
    """A witness's JSON form as key=value pairs; None values are left out."""
    parts = []
    for key, value in w.items():
        if key in MASK_KEYS:
            value = "{" + ",".join(value) + "}"
        elif key == "at" and value is not None:
            value = "(" + " ".join(value) + ")"
        if value is not None:
            parts.append(f"{key}={value}")
    return " ".join(parts)


def _emit(payload: dict, as_json: bool, lines: list[str]):
    if as_json:
        print(json.dumps(payload, ensure_ascii=False, indent=2))
    else:
        for line in lines:
            print(line)


def _cmd_check(args) -> int:
    G = parse_file(args.file)
    lines = [f"{args.file}: order {G.order}, gammas {G.gamma_count}"]
    entries = []
    defining_ok = True
    for law in Law:
        v = check_law(G, law)
        entry = {"law": law.value, "holds": v.holds,
                 "witness": _witness_json(G, v.witness)}
        if v.holds:
            lines.append(f"{law.value}: holds")
        else:
            lhs, rhs = law_sides(G, law, v.witness)
            entry["lhs"], entry["rhs"] = G.labels[lhs], G.labels[rhs]
            lines.append(f"{law.value}: fails at {_fmt_at(G, v.witness)} "
                         f"-> {G.labels[lhs]} != {G.labels[rhs]}")
            if law is Law.LEFT_INVERTIVE:
                defining_ok = False
        entries.append(entry)
    code = 0 if defining_ok else 1
    _emit({"command": "check", "file": args.file, "order": G.order,
           "gammas": G.gamma_count, "laws": entries, "exit_code": code},
          args.json, lines)
    return code


def _cmd_ideals(args) -> int:
    G = parse_file(args.file)
    kind = IdealKind(args.kind)
    found = enumerate_ideals(G, kind)
    lines = [f"{kind.value} ideals of {args.file} ({len(found)} found):"]
    lines += [_fmt_subset(G, S) for S in found]
    _emit({"command": "ideals", "file": args.file, "kind": kind.value,
           "ideals": [list(G.labels_of_subset(S)) for S in found]},
          args.json, lines)
    return 0


def _cmd_closure(args) -> int:
    G = parse_file(args.file)
    labels = [t for t in args.elements.split(",") if t]
    mask = G.subset_of_labels(labels)
    kind = IdealKind(args.kind)
    result = ideal_closure(G, mask, kind)
    lines = [f"{kind.value} closure of {_fmt_subset(G, mask)}: {_fmt_subset(G, result)}"]
    _emit({"command": "closure", "file": args.file, "kind": kind.value,
           "start": list(G.labels_of_subset(mask)),
           "closure": list(G.labels_of_subset(result))},
          args.json, lines)
    return 0


def _cmd_verify(args) -> int:
    G = parse_file(args.file)
    lids = [LemmaId(args.lemma)] if args.lemma else LemmaId
    verdicts = {lid: verify(G, lid) for lid in lids}
    lines = []
    entries = []
    bad = 0
    for lid, v in verdicts.items():
        entry = {"lemma": lid.value, "status": v.status.value}
        if v.status is LemmaStatus.HOLDS:
            line = f"{lid.value}: holds"
        elif v.status is LemmaStatus.NOT_APPLICABLE:
            line = f"{lid.value}: not-applicable (hypothesis {v.hypothesis_failed} failed)"
            entry["hypothesis_failed"] = v.hypothesis_failed
        else:
            bad += 1
            entry["witness"] = _lemma_witness_json(G, v.witness)
            line = f"{lid.value}: counterexample {_fmt_lemma_witness(entry['witness'])}"
        lines.append(line)
        entries.append(entry)
    code = 1 if bad else 0
    _emit({"command": "verify", "file": args.file, "lemmas": entries,
           "exit_code": code}, args.json, lines)
    return code


def _cmd_semilattice(args) -> int:
    G = parse_file(args.file)
    rep = build_ideal_semilattice(G)
    flags = {"closed": rep.closed, "commutative": rep.commutative,
             "associative": rep.associative, "idempotent": rep.idempotent}
    lines = [f"regular: {str(rep.regular).lower()}",
             f"two-sided ideals ({len(rep.ideals)}): "
             + " ".join(_fmt_subset(G, S) for S in rep.ideals)]
    lines += [f"{k}: {str(v).lower()}" for k, v in flags.items()]
    lines.append("product table:")
    for i, row in enumerate(rep.products):
        cells = " ".join(_fmt_subset(G, p) for p in row)
        lines.append(f"  {_fmt_subset(G, rep.ideals[i])}: {cells}")
    code = 0 if all(flags.values()) else 1
    _emit({"command": "semilattice", "file": args.file,
           "regular": rep.regular,
           "ideals": [list(G.labels_of_subset(S)) for S in rep.ideals],
           "products": [[list(G.labels_of_subset(p)) for p in row]
                        for row in rep.products],
           **flags, "exit_code": code}, args.json, lines)
    return code


def _cmd_search(args) -> int:
    spec = SearchSpec(order=args.order, gammas=args.gammas,
                      filters=frozenset(Filter(f) for f in args.filter or []),
                      up_to_iso=args.canonical, limit=args.limit,
                      allow_large=args.allow_large,
                      iso_include_gamma=not args.iso_carrier_only)
    if args.count:
        total = count(spec)
        _emit({"command": "search", "count": total}, args.json, [str(total)])
        return 0
    texts = []  # kept only for the --json payload without --emit
    total = 0
    structures = enumerate_structures(spec)  # refuses an oversized spec before the mkdir
    if args.emit:
        Path(args.emit).mkdir(parents=True, exist_ok=True)
    for G in structures:
        text = serialize(G)
        if args.emit:
            (Path(args.emit) / f"structure_{total:05d}.gag").write_text(text, encoding="utf-8")
        elif args.json:
            texts.append(text)
        else:
            print(text)
        total += 1
    if args.emit:
        _emit({"command": "search", "count": total, "dir": args.emit},
              args.json, [f"wrote {total} structures to {args.emit}"])
    elif args.json:
        _emit({"command": "search", "count": total, "structures": texts}, True, [])
    return 0


def _cmd_hunt(args) -> int:
    lid = LemmaId(args.lemma)
    filters = {Filter(f) for f in args.filter or []}
    if args.hypotheses:
        filters |= set(lid.hypotheses)
    spec = SearchSpec(order=args.order, gammas=args.gammas, filters=filters,
                      allow_large=args.allow_large)
    found = hunt(enumerate_structures(spec), lid)
    if found is None:
        _emit({"command": "hunt", "lemma": lid.value, "counterexample": None},
              args.json, ["no counterexample"])
        return 0
    G, v = found
    text, witness = serialize(G), _lemma_witness_json(G, v.witness)
    lines = [f"counterexample to {lid.value}:", text.rstrip("\n"),
             f"witness: {_fmt_lemma_witness(witness)}"]
    _emit({"command": "hunt", "lemma": lid.value,
           "counterexample": {"structure": text, "witness": witness, "note": None}},
          args.json, lines)
    return 1


@cache
def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="gaglab",
                                description="finite-model laboratory for "
                                            "gamma-indexed AG-groupoids")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--json", action="store_true", help="machine-readable report")

    sp = sub.add_parser("check", help="report every law with holds/witness")
    sp.add_argument("file")
    common(sp)
    sp.set_defaults(func=_cmd_check)

    sp = sub.add_parser("ideals", help="list all ideals of one kind")
    sp.add_argument("file")
    sp.add_argument("--kind", required=True, choices=[k.value for k in IdealKind])
    common(sp)
    sp.set_defaults(func=_cmd_ideals)

    sp = sub.add_parser("closure", help="smallest ideal of a kind containing the elements")
    sp.add_argument("file")
    sp.add_argument("--elements", required=True, help="comma-separated element labels")
    sp.add_argument("--kind", required=True, choices=[k.value for k in _CLOSURE_KINDS])
    common(sp)
    sp.set_defaults(func=_cmd_closure)

    sp = sub.add_parser("verify", help="run the lemma catalog")
    sp.add_argument("file")
    sp.add_argument("--lemma", choices=[l.value for l in LemmaId])
    common(sp)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("semilattice", help="two-sided ideals under the subset product")
    sp.add_argument("file")
    common(sp)
    sp.set_defaults(func=_cmd_semilattice)

    sp = sub.add_parser("search", help="enumerate structures of a given shape")
    sp.add_argument("--order", type=int, required=True)
    sp.add_argument("--gammas", type=int, required=True)
    sp.add_argument("--filter", action="append", choices=[f.value for f in Filter])
    sp.add_argument("--count", action="store_true", help="print only the number of results")
    sp.add_argument("--canonical", action="store_true",
                    help="emit only canonical forms (one per isomorphism class)")
    sp.add_argument("--iso-carrier-only", action="store_true",
                    help="isomorphism without permuting the gamma set")
    sp.add_argument("--emit", metavar="DIR", help="write .gag files instead of stdout")
    sp.add_argument("--limit", type=int, help="stop after this many structures")
    sp.add_argument("--allow-large", action="store_true")
    common(sp)
    sp.set_defaults(func=_cmd_search)

    sp = sub.add_parser("hunt", help="search for a counterexample to one lemma")
    sp.add_argument("--order", type=int, required=True)
    sp.add_argument("--gammas", type=int, required=True)
    sp.add_argument("--lemma", required=True, choices=[l.value for l in LemmaId])
    sp.add_argument("--filter", action="append", choices=[f.value for f in Filter])
    sp.add_argument("--hypotheses", action="store_true",
                    help="also apply the lemma's own hypothesis filters")
    sp.add_argument("--allow-large", action="store_true")
    common(sp)
    sp.set_defaults(func=_cmd_hunt)
    return p


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:
        # str() of a KeyError is the repr of its message
        message = exc.args[0] if isinstance(exc, KeyError) and len(exc.args) == 1 else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
