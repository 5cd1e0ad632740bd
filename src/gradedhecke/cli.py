"""
Batch command line: verify, eval, params, classify, ext, export.

Exit codes: 0 on success, 1 when a verification or classification check
fails, 2 on input errors.  All output is deterministic for a fixed seed and
configuration; export writes canonical JSON: sorted keys and no spaces.  The
structure table, the one export that grows as |W|^2, is written as that
text directly, with no dict tree and no `json.dumps` over it; the other
exports are small and go through `json.dumps`.  The argument parser is
built once per process.
"""

from __future__ import annotations

import argparse
import functools
import json
import operator
import sys
from fractions import Fraction
from math import comb

from .expressions import ExpressionError, parse_element
from .hecke import HeckeAlgebra
from .homology import ext_self_induced, koszul_dual_dims
from .lie import CuspidalSupportDescriptor, RootGradedLieAlgebra, build_sl, build_so, \
    build_sp, compute_parameters, f4_ratio_admissible, support_weyl_data
from .modules import FiniteDimModule, classify_rank_one, generator_keys, \
    weight_decomposition, zeta_rank_one
from .presets import PRESETS, build_preset, load_algebra_file, parse_cocycle, parse_scalar, \
    parse_table
from .scalars import divide_scalar, scalar_str
from .verification import ALL_SUITES, run_verification

__all__ = ["main"]

# the most products a structure export writes: (|W x| Gamma| * monomials)^2.
# The text takes about 1 kB of memory per entry (G2 at degree cap 4: 176400
# entries, 197 MB peak), so the cap keeps an export near 200 MB.
STRUCTURE_ENTRY_CAP = 200_000


def _algebra_from_args(args) -> HeckeAlgebra:
    if getattr(args, "algebra_file", None):
        algebra = load_algebra_file(args.algebra_file)
    else:
        k = args.k.split(",") if getattr(args, "k", None) else None
        algebra = build_preset(args.preset, k=k, mode=args.mode,
                               gamma=getattr(args, "gamma", None))
    if getattr(args, "cocycle_file", None):
        from .weylgroups import Cocycle

        order = algebra.cyclotomic_order
        with open(args.cocycle_file) as fh:
            table = parse_cocycle(json.load(fh), order)
        cocycle = Cocycle(algebra.group, table, normalize=False)
        algebra = HeckeAlgebra(algebra.group, algebra.k, cocycle,
                               mode=algebra.mode, cyclotomic_order=order)
    return algebra


def _add_algebra_options(sub, mode_default="generic"):
    sub.add_argument("--preset", default="A1", choices=sorted(PRESETS),
                     help="named algebra preset")
    sub.add_argument("--algebra-file", help="JSON algebra description")
    sub.add_argument("--k", help="comma-separated parameter values, one per "
                                 "simple root or per simple-root orbit")
    sub.add_argument("--gamma", help="'none' to drop the preset's diagram "
                                     "automorphisms")
    sub.add_argument("--cocycle-file", help="JSON table overriding the cocycle")
    sub.add_argument("--mode", default=mode_default,
                     choices=["generic", "r1", "k0"])


def cmd_verify(args) -> int:
    algebra = _algebra_from_args(args)
    suites = args.suites.split(",") if args.suites else None
    if suites:
        unknown = [s for s in suites if s not in ALL_SUITES]
        if unknown:
            print(f"unknown suites: {', '.join(unknown)}", file=sys.stderr)
            return 2
    results = run_verification(algebra, seed=args.seed, cases=args.cases,
                               suites=suites)
    for r in results:
        print(r.line())
    return 0 if all(r.passed for r in results) else 1


def cmd_eval(args) -> int:
    algebra = _algebra_from_args(args)
    try:
        element = parse_element(algebra, args.expression)
    except ExpressionError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 2
    print(element.to_string())
    return 0


def _load_lie_fixture(path: str) -> RootGradedLieAlgebra:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("a Lie fixture must be a JSON object")
    if "builder" in data:
        kind = data["builder"]
        size = int(data["size"])
        blocks = [int(b) for b in data["levi_blocks"]]
        builder = {"sl": build_sl, "so": build_so, "sp": build_sp}[kind]
        return builder(size, blocks)
    brackets = {}
    for key, expansion in data["brackets"].items():
        i, j = (int(t) for t in key.split(","))
        brackets[i, j] = {int(t): c for t, c in expansion.items()}
    return RootGradedLieAlgebra(data["basis"], brackets, data["weights"],
                                data["levi"], data["nilradical"])


def cmd_params(args) -> int:
    try:
        lie = _load_lie_fixture(args.lie_file)
    except (OSError, KeyError, TypeError, ValueError, ZeroDivisionError) as err:
        print(f"fixture error: {err}", file=sys.stderr)
        return 2
    v = json.loads(args.v) if args.v else {}
    try:
        values = compute_parameters(lie, v)
    except ValueError as err:
        print(f"parameter error: {err}", file=sys.stderr)
        return 2
    print("restricted root -> k")
    for alpha, k in sorted(values.items()):
        print(f"  {tuple(str(c) for c in alpha)} -> {k}")
    if args.check_f4:
        pairs = sorted(set(values.values()))
        if len(pairs) > 2:
            print("more than two distinct values; not a two-length table")
            return 1
        ks, kl = (pairs[0], pairs[-1]) if len(pairs) == 2 else (pairs[0], pairs[0])
        ok = f4_ratio_admissible(ks, kl)
        print(f"two-length ratio table admissible: {ok}")
        if not ok:
            return 1
    desc = CuspidalSupportDescriptor(lie, v)
    data = support_weyl_data(desc)
    print(f"restricted Weyl group order {len(data.group)}"
          + (" (gamma truncated)" if data.gamma_truncated else ""))
    print("invariance: ok")
    return 0


def cmd_classify(args) -> int:
    if args.module_file:
        return _classify_module_file(args)
    algebra = _algebra_from_args(args)
    try:
        records = classify_rank_one(algebra)
        table, zeta, rows = zeta_rank_one(algebra)
    except ValueError as err:
        print(f"classification error: {err}", file=sys.stderr)
        return 2
    print(f"irreducible modules with real weights, {algebra.describe()}")
    for rec in records:
        print("  " + rec.summary())
    print("matching of tempered modules with group-algebra irreducibles:")
    for label, block in zeta.items():
        print(f"  {label} -> {block.label()}")
    return 0


def _classify_module_file(args) -> int:
    algebra = _algebra_from_args(args)
    try:
        with open(args.module_file) as fh:
            data = json.load(fh)
        if not isinstance(data, dict) or not isinstance(data.get("x"), list) \
                or not isinstance(data.get("N"), dict):
            raise ValueError('a module file must be a JSON object with a list "x" '
                             'and an object "N"')
        x_mats = [parse_table(m) for m in data["x"]]
        keys = generator_keys(algebra)
        gens = {}
        for name, m in data["N"].items():
            if name not in keys:
                raise ValueError(f"no generator {name!r} on this algebra; "
                                 f"its generators are {', '.join(keys)}")
            gens[keys[name]] = parse_table(m)
        module = FiniteDimModule(algebra, x_mats, gens,
                                 r_value=parse_scalar(data.get("r", 1)))
    except (OSError, KeyError, ValueError) as err:
        print(f"module error: {err}", file=sys.stderr)
        return 2
    print(f"module of dimension {module.dim}: relations hold")
    for datum in weight_decomposition(module):
        print(f"  weight {tuple(str(c) for c in datum.weight)} "
              f"multiplicity {datum.multiplicity}")
    return 0


def cmd_ext(args) -> int:
    algebra = _algebra_from_args(args)
    if algebra.mode == "generic":
        algebra = algebra.with_k(algebra.k, mode="r1")
    weight = tuple(parse_scalar(c) for c in args.weight.split(",")) \
        if args.weight is not None else tuple(Fraction(i + 1) for i in range(algebra.rs.dim))
    try:
        table = ext_self_induced(algebra, weight)
    except ValueError as err:
        print(f"ext error: {err}", file=sys.stderr)
        return 2
    print(json.dumps(table.to_json(), sort_keys=True))
    return 0


def cmd_export(args) -> int:
    algebra = _algebra_from_args(args)
    if args.what == "structure":
        # the one payload that grows as |W|^2 is written as text directly
        table = _structure_json(algebra, args.degree_cap)
        text = f'{{"kind":"structure","seed":{args.seed},"table":{table}}}\n'
    else:
        payload = {"kind": args.what, "seed": args.seed}
        base = algebra.with_k(algebra.k, mode="r1") if algebra.mode == "generic" \
            else algebra
        if args.what == "ext":
            weight = tuple(Fraction(i + 1) for i in range(algebra.rs.dim))
            payload["ext"] = ext_self_induced(base, weight).to_json()
            if algebra.mode == "generic":
                payload["koszul_dual"] = {str(n): v for n, v in
                                          sorted(koszul_dual_dims(algebra).items())}
        else:
            records = classify_rank_one(base)
            payload["modules"] = [
                {"label": r.label, "dim": r.module.dim,
                 "weights": [[scalar_str(c) for c in d.weight] for d in r.weights],
                 "tempered": r.tempered, "discrete_series": r.discrete_series}
                for r in records]
            _, zeta, _ = zeta_rank_one(base)
            payload["matching"] = {label: block.label() for label, block in zeta.items()}
        text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _structure_json(algebra: HeckeAlgebra, degree_cap: int) -> str:
    """The products of all PBW basis elements up to the polynomial degree
    cap, as canonical JSON text.

    The text is `json.dumps(table, sort_keys=True, separators=(",", ":"))`
    of the table {"basis": [[label, exponents]], "products": [{"i", "j",
    "terms": [[label, exponents, coefficient string]]}]}, with labels and
    coefficient strings encoded by `json.dumps`; no dict tree is built.  A
    table of more than `STRUCTURE_ENTRY_CAP` products is refused with
    ValueError before any straightening.

    The table is bilinear.  With {t: q_t} the result of moving x^a through
    N_v (its numerators divided by its denominator),

        (N_u x^a)(N_v x^b) = sum_t c(u, v) N_{u t} q_t x^b.

    The moves come from `HeckeAlgebra._prefix_moves`, one exchange letter
    per (a, v), and the u t from `left_row(u)`, one row per u.  Nothing
    needs merging: the twist c(u, v) depends only on the Gamma parts, so
    one value serves every t, and distinct t give distinct u t.  A shift by b keeps exponents
    in lexicographic order, so the terms of each q_t are sorted and their
    coefficients encoded once per (a, v, twist), each shifted exponent once
    per distinct exponent, and the text of each term after its label once
    per b.
    """
    from itertools import product as iproduct

    if degree_cap < 0:
        raise ValueError("degree cap must be at least 0")
    nv = algebra.nvars
    max_var = nv if algebra.mode != "r1" else nv - 1
    group = algebra.group
    size = len(group) * comb(degree_cap + max_var, max_var)
    if size * size > STRUCTURE_ENTRY_CAP:
        raise ValueError(f"the structure table at degree cap {degree_cap} has "
                         f"{size * size} entries, over the cap of {STRUCTURE_ENTRY_CAP}")
    monomials = []
    for expo in iproduct(range(degree_cap + 1), repeat=max_var):
        if sum(expo) <= degree_cap:
            monomials.append(tuple(expo) + (0,) * (nv - max_var))
    monomials.sort()
    elements = group.elements
    labels = [json.dumps(_word_label(algebra, w)) for w in elements]
    # the terms of N_w q x^b are "[" + label + tail for each tail, joined by ","
    opens = ["[" + label for label in labels]
    seps = [",[" + label for label in labels]
    # (a, v.index) -> [(t.index, sorted terms of q_t)], along the prefix tree
    moves = {}
    for a in monomials:
        for vi, (den, moved) in enumerate(algebra._prefix_moves(a)):
            moves[a, vi] = [(ti, sorted((e, divide_scalar(n, den)) for e, n in q.items()))
                            for ti, q in moved.items() if q]
    # exponent e -> per b the text ",e+b," of a term's shifted exponent
    shifted: dict[tuple, list[str]] = {}
    # (a, v.index, u.gamma) -> [(t.index, per b the tails of the terms of c(u, v) q_t x^b)]
    tails: dict[tuple, list] = {}
    m = len(monomials)
    entries = []
    i = 0
    for u in elements:
        row = group.left_row(u)
        for a in monomials:
            head = f'{{"i":{i},"j":'
            i += 1
            for v in elements:
                pieces = tails.get((a, v.index, u.gamma))
                if pieces is None:
                    twist = algebra.cocycle.value(u, v)
                    pieces = [] if twist == 0 else [
                        (ti, _term_tails(terms, twist, monomials, shifted))
                        for ti, terms in moves[a, v.index]]
                    tails[a, v.index, u.gamma] = pieces
                # one run of terms per u t, in the group's order; per b, one entry
                runs = [[opens[wi] + seps[wi].join(per) for per in per_b]
                        for wi, per_b in sorted((row[ti], per_b) for ti, per_b in pieces)]
                entries.extend(f'{head}{j},"terms":[{",".join(texts)}]}}'
                               for j, texts in enumerate(zip(*runs) if runs else [()] * m,
                                                         v.index * m))
    basis_text = ",".join(f"[{label},{_json_ints(e)}]" for label in labels for e in monomials)
    return f'{{"basis":[{basis_text}],"products":[{",".join(entries)}]}}'


def _term_tails(terms, twist, monomials, shifted) -> list[list[str]]:
    """Per shift b, the text after the label of each term of twist * q x^b;
    `shifted` caches, per exponent e, the texts of e + b over b."""
    encoded = []
    for e, c in terms:
        texts = shifted.get(e)
        if texts is None:
            texts = shifted[e] = [f",{_json_ints(map(operator.add, e, b))}," for b in monomials]
        encoded.append((texts, json.dumps(scalar_str(c if twist == 1 else twist * c)) + "]"))
    return [[texts[bi] + coefficient for texts, coefficient in encoded]
            for bi in range(len(monomials))]


def _json_ints(values) -> str:
    return "[" + ",".join(map(str, values)) + "]"


def _word_label(algebra, w) -> str:
    letters = [f"s{i + 1}" for i in w.word]
    if w.gamma:
        letters.append(f"g{w.gamma}")
    return "*".join(letters) if letters else "e"


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="gradedhecke",
        description="exact computations in twisted graded Hecke algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the property suites")
    _add_algebra_options(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=None)
    p.add_argument("--suites", help="comma-separated suite names")

    p = sub.add_parser("eval", help="normalize an element expression")
    _add_algebra_options(p)
    p.add_argument("expression")

    p = sub.add_parser("params", help="geometric parameters from a Lie fixture")
    p.add_argument("lie_file", help="JSON Lie-algebra fixture")
    p.add_argument("--v", help="nilpotent element as JSON {name: coeff}")
    p.add_argument("--check-f4", action="store_true",
                   help="validate two-length ratios against the admissible table")

    p = sub.add_parser("classify", help="rank-one module classification")
    _add_algebra_options(p, mode_default="r1")
    p.add_argument("--module-file", help="validate and decompose a module JSON")

    p = sub.add_parser("ext", help="self-extensions of an induced module")
    _add_algebra_options(p, mode_default="r1")
    p.add_argument("--weight", help="comma-separated exact coordinates")

    p = sub.add_parser("export", help="deterministic JSON export")
    _add_algebra_options(p)
    p.add_argument("what", choices=["structure", "ext", "classification"])
    p.add_argument("--degree-cap", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output path (stdout when omitted)")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # the command is looked up by name on each call, not bound into the parser,
    # so that a wrapper set on this module later is still called
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
