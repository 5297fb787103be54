"""Command-line surface: law reports, ideal listings, lemma verification,
structure search and counterexample hunts over .gag files.

Exit codes: 0 all checks passed / results emitted, 1 a property failed or a
counterexample was found, 2 usage, parse or OS error, or a check refused by
a limit with no counterexample found.  ``--json`` reports are written by
``_json``, the exact bytes of ``json.dumps(report, ensure_ascii=False,
indent=2)`` without that call's pure-Python encoder.
"""
from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from pathlib import Path

from .core import GammaGroupoid, Law, check_law, check_law_size, law_sides
from .ideals import _CLOSURE_KINDS, IdealKind, build_ideal_semilattice, check_enum_order, \
    enumerate_ideals, ideal_closure
from .io import ParseError, parse_file, serialize, write_file
from .search import Filter, SearchSpec, count, enumerate_structures
from .theorems import MASK_KEYS, LemmaId, LemmaStatus, hunt, verify, verify_all


def _witness_json(G: GammaGroupoid, at) -> list | None:
    if at is None:
        return None
    return [G.labels[v] if i % 2 == 0 else G.gamma_names[v] for i, v in enumerate(at)]


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


_string = json.encoder.encode_basestring
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json(value, indent="\n") -> str:
    """``value`` as ``json.dumps(value, ensure_ascii=False, indent=2)`` writes it, for
    str-keyed dicts, lists, tuples, str, bool, None, int and float at line ``indent``."""
    if isinstance(value, str):
        return _string(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):  # json spells nan, inf and -inf its own way
        return _NON_FINITE.get(text := float.__repr__(value), text)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        items = [_json(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"
    if isinstance(value, dict):  # encoding a key that is not a str raises TypeError
        items = [_string(k) + ": " + _json(v, inner) for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# Each _cmd_* returns its report, the payload that --json prints, and its exit
# code; the text report is rendered from that payload by the _text_* function of
# its command, so the two cannot disagree.

def _subset(labels: list) -> str:
    return "{" + ",".join(labels) + "}"


def _fmt_lemma_witness(w: dict) -> str:
    """A witness's JSON form as key=value pairs; None values are left out."""
    parts = []
    for key, value in w.items():
        if key in MASK_KEYS:
            value = _subset(value)
        elif key == "at" and value is not None:
            value = "(" + " ".join(value) + ")"
        if value is not None:
            parts.append(f"{key}={value}")
    return " ".join(parts)


def _cmd_check(args) -> tuple[dict, int]:
    G = parse_file(args.file)
    for law in Law:  # every law's size is refused before the first law's pass
        check_law_size(G, law)
    entries = []
    for law in Law:
        v = check_law(G, law)
        entry = {"law": law.value, "holds": v.holds, "witness": _witness_json(G, v.witness)}
        if not v.holds:
            entry["lhs"], entry["rhs"] = (G.labels[x] for x in law_sides(G, law, v.witness))
        entries.append(entry)
    code = 0 if check_law(G, Law.LEFT_INVERTIVE).holds else 1
    return {"command": "check", "file": args.file, "order": G.order,
            "gammas": G.gamma_count, "laws": entries, "exit_code": code}, code


def _text_check(r):
    yield f"{r['file']}: order {r['order']}, gammas {r['gammas']}"
    for e in r["laws"]:
        yield (f"{e['law']}: holds" if e["holds"] else
               f"{e['law']}: fails at ({' '.join(e['witness'])}) -> {e['lhs']} != {e['rhs']}")


def _cmd_ideals(args) -> tuple[dict, int]:
    G = parse_file(args.file)
    kind = IdealKind(args.kind)
    return {"command": "ideals", "file": args.file, "kind": kind.value,
            "ideals": [list(G.labels_of_subset(S)) for S in enumerate_ideals(G, kind)]}, 0


def _text_ideals(r):
    yield f"{r['kind']} ideals of {r['file']} ({len(r['ideals'])} found):"
    yield from map(_subset, r["ideals"])


def _cmd_closure(args) -> tuple[dict, int]:
    G = parse_file(args.file)
    mask = G.subset_of_labels([t for t in args.elements.split(",") if t])
    kind = IdealKind(args.kind)
    return {"command": "closure", "file": args.file, "kind": kind.value,
            "start": list(G.labels_of_subset(mask)),
            "closure": list(G.labels_of_subset(ideal_closure(G, mask, kind)))}, 0


def _text_closure(r):
    yield f"{r['kind']} closure of {_subset(r['start'])}: {_subset(r['closure'])}"


def _cmd_verify(args) -> tuple[dict, int]:
    G = parse_file(args.file)
    if args.lemma:
        lid = LemmaId(args.lemma)
        verdicts = {lid: verify(G, lid)}
    else:
        verdicts = verify_all(G)
    entries = []
    for lid, v in verdicts.items():
        entry = {"lemma": lid.value, "status": v.status.value}
        if v.status is LemmaStatus.NOT_APPLICABLE:
            entry["hypothesis_failed"] = v.hypothesis_failed
        elif v.status is LemmaStatus.COUNTEREXAMPLE:
            entry["witness"] = _lemma_witness_json(G, v.witness)
        elif v.status is LemmaStatus.REFUSED:
            entry["refusal"] = v.refusal
        entries.append(entry)
    statuses = {v.status for v in verdicts.values()}
    code = 1 if LemmaStatus.COUNTEREXAMPLE in statuses else \
        2 if LemmaStatus.REFUSED in statuses else 0
    return {"command": "verify", "file": args.file, "lemmas": entries, "exit_code": code}, code


def _text_verify(r):
    for e in r["lemmas"]:
        line = f"{e['lemma']}: {e['status']}"
        if "hypothesis_failed" in e:
            line += f" (hypothesis {e['hypothesis_failed']} failed)"
        if "witness" in e:
            line += " " + _fmt_lemma_witness(e["witness"])
        if "refusal" in e:
            line += f" ({e['refusal']})"
        yield line


_SEMILATTICE_FLAGS = ("closed", "commutative", "associative", "idempotent")


def _cmd_semilattice(args) -> tuple[dict, int]:
    G = parse_file(args.file)
    rep = build_ideal_semilattice(G)
    flags = {k: getattr(rep, k) for k in _SEMILATTICE_FLAGS}
    code = 0 if all(flags.values()) else 1
    return {"command": "semilattice", "file": args.file, "regular": rep.regular,
            "ideals": [list(G.labels_of_subset(S)) for S in rep.ideals],
            "products": [[list(G.labels_of_subset(p)) for p in row] for row in rep.products],
            **flags, "exit_code": code}, code


def _text_semilattice(r):
    yield f"regular: {str(r['regular']).lower()}"
    yield f"two-sided ideals ({len(r['ideals'])}): " + " ".join(map(_subset, r["ideals"]))
    yield from (f"{k}: {str(r[k]).lower()}" for k in _SEMILATTICE_FLAGS)
    yield "product table:"
    for ideal, row in zip(r["ideals"], r["products"]):
        yield f"  {_subset(ideal)}: " + " ".join(map(_subset, row))


def _cmd_search(args) -> tuple[dict, int]:
    if args.emit and args.count:
        raise ValueError("--emit and --count cannot be given together")
    if args.iso_carrier_only and not args.canonical:
        raise ValueError("--iso-carrier-only needs --canonical")
    spec = SearchSpec(order=args.order, gammas=args.gammas,
                      filters=frozenset(Filter(f) for f in args.filter or []),
                      up_to_iso=args.canonical, limit=args.limit,
                      allow_large=args.allow_large,
                      iso_include_gamma=not args.iso_carrier_only)
    if args.count:
        return {"command": "search", "count": count(spec)}, 0
    structures = enumerate_structures(spec)  # refuses an oversized spec before the mkdir
    if args.emit:
        Path(args.emit).mkdir(parents=True, exist_ok=True)
        total = 0
        for G in structures:
            write_file(Path(args.emit) / f"structure_{total:05d}.gag", G)
            total += 1
        return {"command": "search", "count": total, "dir": args.emit}, 0
    texts = map(serialize, structures)
    if args.json:
        texts = list(texts)
        return {"command": "search", "count": len(texts), "structures": texts}, 0
    # in text mode the stream is rendered, and so printed, as it is found
    return {"command": "search", "structures": texts}, 0


def _text_search(r):
    if "structures" in r:
        return r["structures"]
    return [f"wrote {r['count']} structures to {r['dir']}" if "dir" in r else str(r["count"])]


def _cmd_hunt(args) -> tuple[dict, int]:
    lid = LemmaId(args.lemma)
    # a structure outside the hypotheses is not applicable, and every filter and
    # verdict is invariant under relabelling, so the first labelled counterexample
    # meets the hypotheses, is the least of its class and survives the pruning
    filters = {*lid.hypotheses, *(Filter(f) for f in args.filter or [])}
    spec = SearchSpec(order=args.order, gammas=args.gammas, filters=filters,
                      allow_large=args.allow_large, lex_pruned=True)
    structures = enumerate_structures(spec)  # the search's own limits come first
    # a hunt-scope limit: every ideal entry would refuse every structure, and a
    # leaf-only filter can hold back the first one for minutes, so search none
    check_enum_order(spec.order)
    refused = []
    found = hunt(structures, lid, refused)
    report = {"command": "hunt", "lemma": lid.value, "counterexample": None}
    if found is not None:
        G, v = found
        report["counterexample"] = {"structure": serialize(G),
                                    "witness": _lemma_witness_json(G, v.witness),
                                    "note": None}
    if refused:  # the key only when some check was refused, so a clean report is unchanged
        report["refused"] = len(refused)
    return report, 1 if found is not None else 2 if refused else 0


def _text_hunt(r):
    found = r["counterexample"]
    lines = ["no counterexample"] if found is None else [
        f"counterexample to {r['lemma']}:", found["structure"].rstrip("\n"),
        f"witness: {_fmt_lemma_witness(found['witness'])}"]
    if "refused" in r:
        lines.append(f"structures refused: {r['refused']}")
    return lines


_TEXT = {"check": _text_check, "ideals": _text_ideals, "closure": _text_closure,
         "verify": _text_verify, "semilattice": _text_semilattice,
         "search": _text_search, "hunt": _text_hunt}


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
                    help="no effect, kept for existing command lines: a hunt always "
                         "searches only structures that meet the lemma's hypotheses")
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
        report, code = args.func(args)
        if args.json:
            print(_json(report))
        else:
            for line in _TEXT[report["command"]](report):
                print(line)
        return code
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
