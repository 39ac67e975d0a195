"""Command-line frontend with deterministic text/JSON/LaTeX output.

Exit codes: 0 success (and verdict-style commands passing), 1 failed
verdict or nonzero residuals, 2 usage errors (argparse, bad ``--counts``,
a ``quantize-check`` window beyond the packed mode slots) and malformed
``render`` input (a payload ``DiffPoly.to_json_dict`` cannot emit, which
``DiffPoly.from_json_dict`` refuses, or a non-boolean ``integrated``), 3
missing, unreadable or malformed table file, 4 strict-policy table miss, 5
computation precondition errors (a table whose n is not the sum of
``--counts`` among them), 6 internal errors (any other exception, such as
a failed assertion in a settled check).
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .diffpoly import DiffPoly, LocalFunctional
from .drspin import (
    IntegralTable,
    Profile,
    TableFileError,
    TableMissError,
    a_coefficients,
    assemble_hamiltonian,
    builtin_g11,
    counts_labels,
    enumerate_profiles,
    pair_with_table,
)
from .gdhier import (
    eta_matrix,
    gd_context,
    gd_hamiltonian,
    gd_operator,
    rspin_hamiltonian,
    rspin_operator,
    rspin_system,
)
from .hamops import HamiltonianOperator, flow
from .scalars import excerpt
from .slots import SLOT_MAX, TOP_SLOT
from .quantize import (
    DeformedRule,
    StandardRule,
    WeylContext,
    WeylElement,
    f_r_map,
    monomial,
    weyl_star,
)
from .reconstruct import (
    Bounds,
    check_string_dilaton,
    jet_rewrite,
    omega_from_gd,
    special_solution,
    verify_dr_dz_equivalence,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_TABLE_FILE = 3
EXIT_TABLE_MISS = 4
EXIT_PRECONDITION = 5
EXIT_INTERNAL = 6

def f_names(r):
    return {i + 1: f"f{i}" for i in range(r - 1)}

def w_names(r):
    return {a: f"w{a}" for a in range(1, r)}

def u_names(n):
    return {a: f"u{a}" for a in range(1, n + 1)}

def to_latex(text: str) -> str:
    out = text.replace("eps", r"\varepsilon").replace("d_x", r"\partial_x")
    out = out.replace("*", r" \, ")
    return out

def emit(args, text_value: str, json_value) -> None:
    if args.format == "json":
        print(json.dumps(json_value, sort_keys=True, separators=(",", ":")))
    elif args.format == "latex":
        print(to_latex(text_value))
    else:
        print(text_value)

def cmd_gd(args) -> int:
    ctx = gd_context(args.r)
    K = gd_operator(ctx)
    h = gd_hamiltonian(ctx, args.m)
    names = f_names(args.r)
    text = "K^GD = {}\nh^GD_{} = int {} dx".format(
        K.render(names), args.m, h.render(names))
    emit(args, text, {"operator": K.to_json_dict(),
                      "hamiltonian": h.to_json_dict(), "m": args.m, "r": args.r})
    return EXIT_OK

def cmd_rspin(args) -> int:
    ctx = gd_context(args.r)
    K, h = rspin_system(ctx, args.alpha, args.d)
    names = w_names(args.r)
    text = "K^{{{r}-spin}} = {K}\nh^{{{r}-spin}}_{{{a},{d}}} = int {h} dx".format(
        r=args.r, K=K.render(names), a=args.alpha, d=args.d,
        h=h.render(names))
    emit(args, text, {"operator": K.to_json_dict(),
                      "hamiltonian": h.to_json_dict(),
                      "r": args.r, "alpha": args.alpha, "d": args.d})
    return EXIT_OK

def cmd_enumerate(args) -> int:
    profiles = enumerate_profiles(args.r, args.alpha, args.d)
    lines = [f"g={p.g} counts=({','.join(map(str, p.counts))}) n={p.n}"
             for p in profiles]
    text = "\n".join(lines + [f"total: {len(profiles)} profiles"])
    emit(args, text, [{"g": p.g, "counts": list(p.counts), "n": p.n}
                      for p in profiles])
    return EXIT_OK

def load_table(args) -> IntegralTable:
    table = IntegralTable.load(args.table_file)
    if args.policy == "strict":
        table.default_zero = False
    elif args.policy == "zero":
        table.default_zero = True
    return table

def paired_expansion(args, counts: tuple[int, ...]):
    """Load the table and pair Hain's expansion with it: (table, a-polynomial).

    The table must be for the command line's genus, number of markings
    and, when it records them, marking labels.  The labels are built only
    once the table is read and its n matches.
    """
    table = load_table(args)
    n = sum(counts)
    if table.n != n:
        raise ValueError(
            f"the table is for n = {excerpt(table.n)} but --counts sums to n = {n}")
    if table.g != args.g:
        raise ValueError(f"the table is for g = {excerpt(table.g)} but --g is {args.g}")
    labels = counts_labels(counts)
    if table.labels and table.labels != labels:
        raise ValueError(f"the table has labels {excerpt(list(table.labels))} but "
                         f"--counts implies labels {list(labels)}")
    return table, pair_with_table(table, dilaton=not args.no_dilaton)

def cmd_hain_pair(args) -> int:
    table, poly = paired_expansion(args, args.counts)
    coeffs = a_coefficients(table.g, table.n, poly)
    lines = ["a^({}) : {}".format(",".join(map(str, exps)), value)
             for exps, value in coeffs]
    text = "\n".join(lines) if lines else "0"
    emit(args, text, {"g": table.g, "n": table.n,
                      "coeffs": [[list(e), str(v)] for e, v in coeffs]})
    return EXIT_OK

def cmd_assemble(args) -> int:
    profile = Profile(r=args.r, alpha=args.alpha, d=args.d, g=args.g,
                      counts=args.counts)
    if not profile.selection_holds():
        print("profile violates the degree selection rule", file=sys.stderr)
        return EXIT_PRECONDITION
    _, poly = paired_expansion(args, profile.counts)
    h = assemble_hamiltonian(args.r, [(profile, poly)])
    names = u_names(args.r - 1)
    emit(args, f"int {h.render(names)} dx", h.to_json_dict())
    return EXIT_OK

def cmd_dr_g11(args) -> int:
    h = builtin_g11(args.r)
    names = u_names(args.r - 1)
    emit(args, f"int {h.render(names)} dx", h.to_json_dict())
    return EXIT_OK

def cmd_verify_main(args) -> int:
    ctx = gd_context(args.r)
    report = verify_dr_dz_equivalence(ctx)
    conds = ", ".join(f"{name}: {str(c).lower()}"
                      for name, c in zip(report.CONDITION_NAMES, report.conditions))
    text = f"conditions: [{conds}]\nverdict: {'PASS' if report.verdict else 'FAIL'}"
    emit(args, text, report.to_json_dict())
    if not report.verdict:
        print(report.failure(w_names(args.r)), file=sys.stderr)
    return EXIT_OK if report.verdict else EXIT_FAIL

def cmd_reconstruct(args) -> int:
    if args.r != 2:
        print("reconstruct is wired for r = 2 only: its output names field 1 alone, "
              "as w, and for r >= 4 h^{r-spin}_{1,1} with eta d_x would mix DZ and "
              "DR variables", file=sys.stderr)
        return EXIT_PRECONDITION
    ctx = gd_context(args.r)
    h11 = rspin_hamiltonian(ctx, 1, 1)
    # the rewritten flow is exact only if each of its jets has a t-variable
    # and each of its terms has at most t_deg - 1 jet factors
    flow11 = flow(h11, HamiltonianOperator.eta_dx(ctx.ring_w, eta_matrix(args.r)))
    flow11 = [f.truncate_eps(args.eps_order) for f in flow11]
    order = max(f.max_order() for f in flow11)
    if order > args.tmax:
        print(f"the t^1_1 flow up to eps^{args.eps_order} has jet order {order}, "
              f"above --tmax {args.tmax}", file=sys.stderr)
        return EXIT_PRECONDITION
    factors = max((sum(p for _, _, p in jets)
                   for f in flow11 for (_, jets), _ in f.items()), default=0)
    if factors > args.t_degree - 1:
        print(f"the t^1_1 flow up to eps^{args.eps_order} has a term with {factors} "
              f"jet factors; --t-degree {args.t_degree} allows at most "
              f"{args.t_degree - 1}", file=sys.stderr)
        return EXIT_PRECONDITION
    bounds = Bounds(t_max=args.tmax, t_deg=args.t_degree, eps_max=args.eps_order)
    omega = omega_from_gd(ctx, q_max=1)
    sol = special_solution(h11, omega, bounds)
    report = check_string_dilaton(sol)
    flows = jet_rewrite(sol.flow_series(1, 1), sol)
    text = ("coefficients: {}\nstring residuals: {}\ndilaton residuals: {}\n"
            "t^1_1 flow (rewritten): {}").format(
        sol.entry_count(), len(report.string_residuals),
        len(report.dilaton_residuals), flows[0].render({1: "w"}))
    emit(args, text, {
        "coefficients": sol.entry_count(),
        "string_residuals": len(report.string_residuals),
        "dilaton_residuals": len(report.dilaton_residuals),
        "t11_flow": flows[0].to_json_dict(),
        "bounds": {"t_max": bounds.t_max, "t_deg": bounds.t_deg,
                   "eps_max": bounds.eps_max},
    })
    return EXIT_OK if report.clean else EXIT_FAIL

def cmd_quantize_check(args) -> int:
    rng = random.Random(args.seed)
    r = args.r
    try:
        ctx = WeylContext(n_fields=r - 1, window=args.window)
    except ValueError as exc:  # a window beyond the packed mode slots
        print(f"quantize-check: {exc}", file=sys.stderr)
        return EXIT_USAGE
    rule_std = StandardRule.from_eta(eta_matrix(r))
    checks = {"associativity": 0, "homomorphism": 0}

    def rand_el():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            word = [(rng.randint(1, r - 1), rng.randint(-args.window, args.window))
                    for _ in range(rng.randint(0, 3))]
            terms[(0, 0, tuple((a, k, 1) for a, k in sorted(word)))] = rng.randint(-3, 3)
        return WeylElement(ctx, terms)

    def agree(check, sample, lhs, rhs) -> bool:
        diff = (lhs - rhs).items()
        if diff:
            (h, e, pkey), c = diff[0]
            print(f"{check} failure at sample {sample}: lhs - rhs has coefficient {c}"
                  f" at hbar^{h} eps^{e} {monomial(pkey)}", file=sys.stderr)
        return not diff

    for sample in range(args.samples):
        a, b, c = rand_el(), rand_el(), rand_el()
        lhs = weyl_star(weyl_star(a, b, rule_std), c, rule_std)
        rhs = weyl_star(a, weyl_star(b, c, rule_std), rule_std)
        if not agree("associativity", sample, lhs, rhs):
            return EXIT_FAIL
        checks["associativity"] += 1
    if r in (4, 5):
        rule_def = DeformedRule.from_operator(rspin_operator(gd_context(r)))
        for sample in range(args.samples // 2):
            a, b = rand_el(), rand_el()
            lhs = f_r_map(r, weyl_star(a, b, rule_def))
            rhs = weyl_star(f_r_map(r, a), f_r_map(r, b), rule_std)
            if not agree("homomorphism", sample, lhs, rhs):
                return EXIT_FAIL
            checks["homomorphism"] += 1
    text = "associativity: {associativity} ok\nhomomorphism: {homomorphism} ok".format(
        **checks)
    emit(args, text, checks)
    return EXIT_OK

def cmd_render(args) -> int:
    try:
        data = json.load(sys.stdin)  # JSONDecodeError is a ValueError
        integrated = data.get("integrated", False) if isinstance(data, dict) else False
        if not isinstance(integrated, bool):
            raise ValueError(f"integrated must be true or false, got {excerpt(integrated)}")
        poly = DiffPoly.from_json_dict(data)
    except ValueError as exc:
        print(f"malformed render input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    names = u_names(poly.ring.n_fields)
    if integrated:
        emit(args, f"int {LocalFunctional(poly).render(names)} dx",
             LocalFunctional(poly).to_json_dict())
    else:
        emit(args, poly.render(names), poly.to_json_dict())
    return EXIT_OK

def int_at_least(least: int, most: int | None = None):
    """argparse type for an integer >= least (and <= most, if given);
    anything else is a usage error."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < least or (most is not None and value > most):
            wanted = f">= {least}" if most is None else f"in {least}..{most}"
            raise argparse.ArgumentTypeError(
                f"expected an integer {wanted}, got {text!r}")
        return value
    return parse

def counts_type(text: str) -> tuple[int, ...]:
    """argparse type for --counts: comma-separated integers >= 0, one > 0."""
    try:
        counts = tuple(int(x) for x in text.split(","))
    except ValueError:
        counts = ()
    if not counts or min(counts) < 0 or not any(counts):
        raise argparse.ArgumentTypeError(
            "expected comma-separated integers >= 0, at least one positive, "
            f"got {text!r}")
    return counts

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drhier",
        description="Exact computations for Gelfand-Dickey / r-spin hierarchies")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("text", "json", "latex"),
                       default="text")

    p = sub.add_parser("gd", help="K^GD and h^GD_m")
    p.add_argument("--r", type=int_at_least(2), required=True)
    p.add_argument("--m", type=int_at_least(1), required=True)
    add_common(p)
    p.set_defaults(func=cmd_gd)

    p = sub.add_parser("rspin", help="K^{r-spin} and h^{r-spin}_{alpha,d}")
    p.add_argument("--r", type=int_at_least(2), required=True)
    p.add_argument("--alpha", type=int_at_least(1), required=True)
    p.add_argument("--d", type=int_at_least(0), required=True)
    add_common(p)
    p.set_defaults(func=cmd_rspin)

    p = sub.add_parser("enumerate", help="profiles for g_{alpha,d}")
    p.add_argument("--r", type=int_at_least(2), required=True)
    p.add_argument("--alpha", type=int_at_least(1), required=True)
    p.add_argument("--d", type=int_at_least(0), required=True)
    add_common(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("hain-pair", help="pair a Hain expansion with a table")
    p.add_argument("--g", type=int_at_least(0), required=True)
    p.add_argument("--counts", type=counts_type, required=True,
                   help="comma-separated n_1,..,n_{r-1}")
    p.add_argument("--table-file", required=True)
    p.add_argument("--no-dilaton", action="store_true")
    p.add_argument("--policy", choices=("table", "strict", "zero"),
                   default="table")
    add_common(p)
    p.set_defaults(func=cmd_hain_pair)

    p = sub.add_parser("assemble", help="assemble one profile contribution")
    p.add_argument("--r", type=int_at_least(2), required=True)
    p.add_argument("--alpha", type=int_at_least(1), required=True)
    p.add_argument("--d", type=int_at_least(0), required=True)
    p.add_argument("--g", type=int_at_least(0), required=True)
    p.add_argument("--counts", type=counts_type, required=True)
    p.add_argument("--table-file", required=True)
    p.add_argument("--no-dilaton", action="store_true")
    p.add_argument("--policy", choices=("table", "strict", "zero"),
                   default="table")
    add_common(p)
    p.set_defaults(func=cmd_assemble)

    p = sub.add_parser("dr-g11", help="built-in reference g_{1,1}")
    p.add_argument("--r", type=int_at_least(2), required=True)
    add_common(p)
    p.set_defaults(func=cmd_dr_g11)

    p = sub.add_parser("verify-main", help="three-condition DR/DZ check")
    p.add_argument("--r", type=int_at_least(2), required=True)
    add_common(p)
    p.set_defaults(func=cmd_verify_main)

    p = sub.add_parser("reconstruct", help="special solution and residuals")
    p.add_argument("--r", type=int_at_least(2), default=2)
    # t^1_tmax of the special solution sits at packed slot 3 + tmax
    p.add_argument("--tmax", type=int_at_least(1, TOP_SLOT - 3), default=3)
    # a t-degree or eps order above SLOT_MAX does not fit the packed t-series keys
    p.add_argument("--t-degree", type=int_at_least(1, SLOT_MAX), default=4)
    p.add_argument("--eps-order", type=int_at_least(0, SLOT_MAX), default=4)
    add_common(p)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("quantize-check", help="star-product property checks")
    p.add_argument("--r", type=int_at_least(2), required=True)
    p.add_argument("--samples", type=int_at_least(0), default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--window", type=int_at_least(1), default=3)
    add_common(p)
    p.set_defaults(func=cmd_quantize_check)

    p = sub.add_parser("render", help="render diffpoly JSON from stdin")
    add_common(p)
    p.set_defaults(func=cmd_render)

    return parser

def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verb == "assemble" and len(args.counts) != args.r - 1:
        parser.error(f"assemble: --counts needs r - 1 = {args.r - 1} entries, "
                     f"got {len(args.counts)}")
    try:
        return args.func(args)
    except TableMissError as exc:
        print(f"table miss under strict policy: {exc}", file=sys.stderr)
        return EXIT_TABLE_MISS
    except TableFileError as exc:
        print(f"table file error: {exc}", file=sys.stderr)
        return EXIT_TABLE_FILE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL

if __name__ == "__main__":
    sys.exit(main())
