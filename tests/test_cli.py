import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from drhier import cli, drspin, quantize, reconstruct
from drhier.diffpoly import DiffPoly, LocalFunctional, Ring, integrate
from drhier.drspin import IntegralTable, TautMonomial, hain_expand
from drhier.gdhier import gd_context, gd_hamiltonian
from drhier.hamops import MiuraMap

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture()
def run(capsys):
    def _run(*argv):
        code = cli.main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


@pytest.fixture()
def worked_table(tmp_path):
    entries = {
        TautMonomial(psi=(2, 0)): Fraction(7, 4320),
        TautMonomial(psi=(1, 1)): Fraction(13, 4320),
        TautMonomial(psi=(0, 2)): Fraction(7, 4320),
    }
    for sym in hain_expand(2, 2):
        if sym.boundary:
            entries[sym] = Fraction(0)
    table = IntegralTable(g=2, n=2, labels=(2, 2), entries=entries.items(),
                          default_zero=False)
    path = tmp_path / "t202.json"
    path.write_text(json.dumps(table.to_json_dict()))
    return str(path)


def g3_table_dict() -> dict:
    """A g = 3, n = 4 table for labels (2, 2, 2, 2): a seeded nonzero value
    for every monomial of Hain's expansion, boundary classes included."""
    rng = random.Random(20270)
    entries = [(sym, Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 16)))
               for sym in sorted(hain_expand(3, 4), key=lambda s: (s.psi, s.boundary))]
    return IntegralTable(g=3, n=4, labels=(2, 2, 2, 2), entries=entries,
                         default_zero=False).to_json_dict()


@pytest.fixture(scope="module")
def g3_table(tmp_path_factory):
    path = tmp_path_factory.mktemp("g3") / "t304.json"
    path.write_text(json.dumps(g3_table_dict()))
    return str(path)


GOLDEN_RSPIN_2 = (
    "K^{2-spin} = [[d_x]]\n"
    "h^{2-spin}_{1,1} = int 1/6*w1^3 - 1/24*eps^2*w1_1^2 dx\n"
)


def test_rspin_golden_and_stable(run):
    code, out1, _ = run("rspin", "--r", "2", "--alpha", "1", "--d", "1")
    assert code == 0
    assert out1 == GOLDEN_RSPIN_2
    code, out2, _ = run("rspin", "--r", "2", "--alpha", "1", "--d", "1")
    assert out2 == out1  # byte-identical across runs


@pytest.mark.parametrize("fmt, golden", [("text", "gd-r5-m1.txt"),
                                         ("json", "gd-r5-m1.json")])
def test_gd_r5_golden(run, fmt, golden):
    # K^GD for r = 5 has parenthesised multi-term coefficients, negative
    # terms and d_x^0 entries: the operator renderer and JSON layout in full
    code, out, _ = run("gd", "--r", "5", "--m", "1", "--format", fmt)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


BOUNDARY_GOLDENS = {
    "rspin-r3-a1-d1": ("rspin", "--r", "3", "--alpha", "1", "--d", "1"),
    "rspin-r4-a1-d1": ("rspin", "--r", "4", "--alpha", "1", "--d", "1"),
    "rspin-r5-a1-d1": ("rspin", "--r", "5", "--alpha", "1", "--d", "1"),
    "gd-r3-m1": ("gd", "--r", "3", "--m", "1"),
    "gd-r4-m1": ("gd", "--r", "4", "--m", "1"),
    # L^q o S^s with s >= 2 in the final product (p = 11 in each)
    "gd-r4-m7": ("gd", "--r", "4", "--m", "7"),
    "rspin-r3-a2-d2": ("rspin", "--r", "3", "--alpha", "2", "--d", "2"),
    "rspin-r4-a3-d1": ("rspin", "--r", "4", "--alpha", "3", "--d", "1"),
    # a deep root, res L^{19/4}: a reorder of the root's products must keep it
    "rspin-r4-a3-d3": ("rspin", "--r", "4", "--alpha", "3", "--d", "3"),
    # the built-in reference g_{1,1}
    "dr-g11-r3": ("dr-g11", "--r", "3"),
    "dr-g11-r4": ("dr-g11", "--r", "4"),
    "dr-g11-r5": ("dr-g11", "--r", "5"),
    "rspin-r5-a4-d0": ("rspin", "--r", "5", "--alpha", "4", "--d", "0"),
    "rspin-r5-a2-d1": ("rspin", "--r", "5", "--alpha", "2", "--d", "1"),
    # the default seed, samples and window; r = 4, 5 also check f_r
    "quantize-check-r4": ("quantize-check", "--r", "4"),
    "quantize-check-r5": ("quantize-check", "--r", "5"),
    "render-rspin-r5-a1-d1": ("render",),
    # the worked g = 2 table of the fixture below
    "hain-pair-g2-c02": ("hain-pair", "--g", "2", "--counts", "0,2",
                         "--table-file", "WORKED_TABLE"),
    "assemble-r3-a1-d1-g2-c02": ("assemble", "--r", "3", "--alpha", "1", "--d", "1",
                                 "--g", "2", "--counts", "0,2",
                                 "--table-file", "WORKED_TABLE"),
    # the seeded g = 3, n = 4 table: nonzero boundary values throughout
    "hain-pair-g3-c04": ("hain-pair", "--g", "3", "--counts", "0,4",
                         "--table-file", "G3_TABLE"),
    "assemble-r3-a1-d3-g3-c04": ("assemble", "--r", "3", "--alpha", "1", "--d", "3",
                                 "--g", "3", "--counts", "0,4",
                                 "--table-file", "G3_TABLE"),
}

TABLE_FIXTURES = {"WORKED_TABLE": "worked_table", "G3_TABLE": "g3_table"}

# a verb that reads stdin gets the "hamiltonian" object of this golden
GOLDEN_STDIN = {"render-rspin-r5-a1-d1": "rspin-r5-a1-d1.json"}


@pytest.mark.parametrize("golden", sorted(BOUNDARY_GOLDENS))
@pytest.mark.parametrize("fmt, suffix", [("text", "txt"), ("json", "json")])
def test_rational_and_extension_goldens(run, monkeypatch, request, golden, fmt, suffix):
    # rspin rescales by even powers of sqrt(-r) at the output; every verb
    # prints each rational coefficient as one string, with the context's "d"
    argv = [request.getfixturevalue(TABLE_FIXTURES[a]) if a in TABLE_FIXTURES else a
            for a in BOUNDARY_GOLDENS[golden]]
    if golden in GOLDEN_STDIN:
        data = json.loads((GOLDEN / GOLDEN_STDIN[golden]).read_text())
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(data["hamiltonian"])))
    code, out, _ = run(*argv, "--format", fmt)
    assert code == 0
    assert out == (GOLDEN / f"{golden}.{suffix}").read_text()


def test_enumerate_golden(run):
    code, out, _ = run("enumerate", "--r", "3", "--alpha", "1", "--d", "1")
    assert code == 0
    assert out == (
        "g=0 counts=(0,4) n=4\n"
        "g=0 counts=(2,1) n=3\n"
        "g=1 counts=(0,3) n=3\n"
        "g=1 counts=(2,0) n=2\n"
        "g=2 counts=(0,2) n=2\n"
        "total: 5 profiles\n"
    )


def test_enumerate_r5_profile_count(run):
    code, out, _ = run("enumerate", "--r", "5", "--alpha", "1", "--d", "1")
    assert code == 0
    assert out.strip().endswith("total: 26 profiles")


def test_gd_json_round_trips(run):
    code, out, _ = run("gd", "--r", "2", "--m", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    h = LocalFunctional.from_json_dict(data["hamiltonian"])
    f = DiffPoly.jet(h.ring, 1, 0)
    assert h.var_der(1) == -3 * f ** 2 / 8 - f.dx_pow(2) / 8


def test_gd_json_reads_back_into_the_context_ring(run):
    code, out, _ = run("gd", "--r", "3", "--m", "1", "--format", "json")
    assert code == 0
    h = DiffPoly.from_json_dict(json.loads(out)["hamiltonian"])
    ctx = gd_context(3)
    # the JSON holds the canonical density: the raw one up to total derivatives
    assert h == gd_hamiltonian(ctx, 1).canonical_density()
    assert LocalFunctional(h) == gd_hamiltonian(ctx, 1)
    assert h + ctx.f_var(0) == ctx.f_var(0) + h


def test_dr_g11_json_round_trips(run):
    code, out, _ = run("dr-g11", "--r", "4", "--format", "json")
    data = json.loads(out)
    h = LocalFunctional.from_json_dict(data)
    assert h.ring.n_fields == 3
    assert h.density.is_homogeneous(0)


def test_latex_format(run):
    code, out, _ = run("gd", "--r", "2", "--m", "1", "--format", "latex")
    assert code == 0
    assert r"\partial_x" in out
    assert "dx" in out  # the integral measure survives


def test_verify_main_exit_codes(run):
    code, out, err = run("verify-main", "--r", "3")
    assert code == 0
    assert "verdict: PASS" in out
    assert err == ""


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_main_names_the_first_failed_condition(run, monkeypatch, fmt):
    # a g_{1,1} off by eps^2 w1_1^2 / 7 breaks condition (3) alone
    builtin_g11 = reconstruct.builtin_g11

    def faulty(r):
        h = builtin_g11(r)
        return integrate(h.density + DiffPoly.jet(h.ring, 1, 1, 2, Fraction(1, 7)).eps_shift(2))

    code, good, _ = run("verify-main", "--r", "4", "--format", fmt)
    monkeypatch.setattr(reconstruct, "builtin_g11", faulty)
    code, out, err = run("verify-main", "--r", "4", "--format", fmt)
    assert code == cli.EXIT_FAIL
    if fmt == "text":
        assert out == good.replace("h11: true]", "h11: false]").replace("PASS", "FAIL")
    assert err == ("g11[w] = h11 failure at eps^2: the density of lhs - rhs has "
                   "1/7*eps^2*w1_1^2\n")


def test_verify_main_names_the_failed_entry(run, monkeypatch):
    # without the eps^2 shift of w1, eta d_x pushes forward to K^{4-spin}
    # minus its dispersive (1,1) entry
    monkeypatch.setattr(reconstruct, "dz_miura_map", lambda r, ring: MiuraMap.identity(ring))
    code, out, err = run("verify-main", "--r", "4")
    assert code == cli.EXIT_FAIL
    assert out.startswith("conditions: [dw/du1 = delta: true, push(eta dx) = K: false, ")
    assert err == ("push(eta dx) = K failure at eps^2: entry (1,1) of lhs - rhs has "
                   "-1/48*eps^2 at d_x^3\n")


def test_assemble_worked_example(run, worked_table):
    code, out, _ = run("assemble", "--r", "3", "--alpha", "1", "--d", "1",
                       "--g", "2", "--counts", "0,2",
                       "--table-file", worked_table)
    assert code == 0
    assert out == "int 1/432*eps^4*u2_2^2 dx\n"


def test_hain_pair_strict_miss_exit(run, tmp_path, worked_table):
    data = json.loads(open(worked_table).read())
    data["entries"] = data["entries"][:1]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, _, err = run("hain-pair", "--g", "2", "--counts", "0,2",
                       "--table-file", str(bad))
    assert code == cli.EXIT_TABLE_MISS
    assert "strict" in err


def test_strict_policy_overrides_a_default_zero_table(run, tmp_path, worked_table):
    data = json.loads(open(worked_table).read())
    data["entries"] = data["entries"][:1]
    data["default_zero"] = True
    lenient = tmp_path / "lenient.json"
    lenient.write_text(json.dumps(data))
    argv = ("hain-pair", "--g", "2", "--counts", "0,2", "--table-file", str(lenient))
    assert run(*argv)[0] == cli.EXIT_OK
    code, out, err = run(*argv, "--policy", "strict")
    assert (code, out) == (cli.EXIT_TABLE_MISS, "")
    assert err.startswith("table miss under strict policy: ") and err.count("\n") == 1


def test_assemble_refuses_a_profile_off_the_selection_rule(run, worked_table):
    # r = 3, alpha = 1, d = 1 has the g = 1 profiles (0,3) and (2,0), not (0,2)
    code, out, err = run("assemble", "--r", "3", "--alpha", "1", "--d", "1",
                         "--g", "1", "--counts", "0,2", "--table-file", worked_table)
    assert (code, out) == (cli.EXIT_PRECONDITION, "")
    assert err == "profile violates the degree selection rule\n"


def test_hain_pair_zero_policy_rescues(run, tmp_path, worked_table):
    data = json.loads(open(worked_table).read())
    data["entries"] = [e for e in data["entries"] if not e["boundary"]]
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps(data))
    code, out, _ = run("hain-pair", "--g", "2", "--counts", "0,2",
                       "--table-file", str(partial), "--policy", "zero")
    assert code == 0
    assert "a^(2,2) : 13/4320" in out


def test_missing_table_file_exit(run):
    code, _, err = run("hain-pair", "--g", "2", "--counts", "0,2",
                       "--table-file", "/nonexistent/table.json")
    assert code == cli.EXIT_TABLE_FILE


def test_unknown_verb_exit():
    with pytest.raises(SystemExit) as exc:
        cli.main(["bogus"])
    assert exc.value.code == 2


def one_term(coeff='"1"', jets="[[1,0,1]]", n=1, d=1, eps=0):
    """A render payload of one term, its coefficient given as JSON text."""
    return (f'{{"N":{n},"d":{d},"terms":[{{"coeff":{coeff},"eps":{eps},'
            f'"jets":{jets}}}]}}')


LARGE_PRIME_D = 1000000000000000003


def test_render_stdin(run, monkeypatch):
    payload = DiffPoly.jet(Ring(1), 1, 2) * Fraction(3, 2)
    assert payload.to_json_dict() == {
        "N": 1, "d": 1, "terms": [{"coeff": "3/2", "eps": 0, "jets": [[1, 2, 1]]}]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload.to_json_dict())))
    code, out, _ = run("render")
    assert code == 0
    assert out == "3/2*u1_2\n"


@pytest.mark.parametrize("integrated, out", [
    (True, "int u1^2 dx\n"), (False, "u1^2\n"), (None, "u1^2\n")])
def test_render_integrated_flag(run, monkeypatch, integrated, out):
    payload = (DiffPoly.jet(Ring(1), 1, 0) ** 2).to_json_dict()
    if integrated is not None:
        payload["integrated"] = integrated
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    assert run("render") == (0, out, "")


def test_render_refuses_exact_decimal_strings(run, monkeypatch):
    # "1e-1" is 1/10, but the writer emits "1/10": a decimal is not its form
    monkeypatch.setattr("sys.stdin", io.StringIO(one_term(coeff='"1e-1"')))
    assert run("render") == (2, "", "malformed render input: coefficient '1e-1' "
                                    "is not a nonzero p or p/q in lowest terms "
                                    "written as a string\n")
    monkeypatch.setattr("sys.stdin", io.StringIO(one_term(coeff='"1/10"')))
    assert run("render") == (0, "1/10*u1\n", "")


def test_reconstruct_cli(run):
    # the KdV flow w*w_1 + 1/12*eps^2*w_3 needs t_max >= 3 once eps^2 is in
    # the box; below that the rewritten flow would be wrong, so it is refused
    for tmax in ("1", "2"):
        code, out, err = run("reconstruct", "--r", "2", "--tmax", tmax,
                             "--t-degree", "3", "--eps-order", "2")
        assert code == cli.EXIT_PRECONDITION == 5
        assert out == ""
        assert err == (f"the t^1_1 flow up to eps^2 has jet order 3, "
                       f"above --tmax {tmax}\n")
    # its w*w_1 needs t_deg >= 3: at t_deg = 2 it would come back as w
    code, out, err = run("reconstruct", "--r", "2", "--tmax", "3",
                         "--t-degree", "2", "--eps-order", "2")
    assert code == cli.EXIT_PRECONDITION
    assert out == ""
    assert err == ("the t^1_1 flow up to eps^2 has a term with 2 jet factors; "
                   "--t-degree 2 allows at most 1\n")
    code, out, _ = run("reconstruct", "--r", "2", "--tmax", "3",
                       "--t-degree", "3", "--eps-order", "2")
    assert code == 0
    assert out.endswith("t^1_1 flow (rewritten): w*w_1 + 1/12*eps^2*w_3\n")
    code, out, _ = run("reconstruct", "--r", "2", "--tmax", "1", "--eps-order", "0")
    assert code == 0
    assert "string residuals: 0" in out
    assert "dilaton residuals: 0" in out
    assert out.endswith("t^1_1 flow (rewritten): w*w_1\n")


@pytest.mark.parametrize("r", ["3", "5"])
def test_reconstruct_refuses_r_other_than_2(run, r):
    # the output names only field 1, and for r >= 4 the r-spin h_{1,1} would
    # be paired with the DR operator eta d_x
    code, out, err = run("reconstruct", "--r", r)
    assert (code, out) == (cli.EXIT_PRECONDITION, "")
    assert err.startswith("reconstruct is wired for r = 2 only:") and err.count("\n") == 1


@pytest.mark.parametrize("box, golden", [
    ([], "reconstruct-default"),
    (["--tmax", "2", "--t-degree", "3", "--eps-order", "2"], "reconstruct-t2-d3-e2"),
])
@pytest.mark.parametrize("fmt, suffix", [("text", "txt"), ("json", "json")])
def test_reconstruct_golden(run, box, golden, fmt, suffix):
    # a golden holds what the verb writes: coefficient count, residual counts
    # and the rewritten t^1_1 flow on stdout, or, for a box below the flow's
    # jet order (w_3 at t_max = 2), only the refusal on stderr with exit 5
    code, out, err = run("reconstruct", *box, "--format", fmt)
    assert code == (cli.EXIT_PRECONDITION if err else 0)
    assert out == "" or err == ""
    assert out + err == (GOLDEN / f"{golden}.{suffix}").read_text()


def test_internal_error_exit(run, monkeypatch):
    # a failed assertion inside a stage is a bug, not a failed verdict
    def broken(*args, **kwargs):
        raise AssertionError("recursion inconsistent")

    monkeypatch.setattr(cli, "special_solution", broken)
    code, out, err = run("reconstruct")
    assert code == cli.EXIT_INTERNAL == 6
    assert out == ""
    assert err == "internal error: AssertionError: recursion inconsistent\n"


def test_rspin_without_constant_coefficients_is_refused(run):
    # the exact K^{6-spin} has a jet in its (1,1) entry at d_x
    code, out, err = run("rspin", "--r", "6", "--alpha", "1", "--d", "0")
    assert code == cli.EXIT_PRECONDITION == 5
    assert out == ""
    assert err == ("error: K^{6-spin} has no constant coefficients: "
                   "entry (1,1) has 1/432*eps^2*w5_2 at d_x^1\n")


def test_quantize_check_names_the_first_differing_term(run, monkeypatch):
    # a deformed bracket off by a factor 2 breaks f_4 as a homomorphism
    bracket = quantize.DeformedRule.bracket
    monkeypatch.setattr(quantize, "_REORDER_MEMO", {})
    monkeypatch.setattr(quantize.DeformedRule, "bracket",
                        lambda rule, x, y: [(h, e, 2 * q) for h, e, q in bracket(rule, x, y)])
    code, out, err = run("quantize-check", "--r", "4")
    assert code == cli.EXIT_FAIL
    assert out == ""
    assert err == ("homomorphism failure at sample 6: lhs - rhs has coefficient 27*i "
                   "at hbar^1 eps^0 p1[0]*p2[1]\n")


def test_quantize_check_cli(run):
    code, out, _ = run("quantize-check", "--r", "4", "--samples", "6",
                       "--seed", "1")
    assert code == 0
    assert "associativity: 6 ok" in out


# (stdin, a fragment of the one stderr line that names why it is refused)
MALFORMED_RENDER_INPUT = [
    ("not json", "Expecting value"),
    # the old four-slot form a + b*i + c*sqrt(d) + e*i*sqrt(d) is refused
    # whatever its slots hold, before its slots are read
    ('{"N": 1, "terms": [{"coeff": [1, 0, 0, 0], "eps": 0, "jets": [[1, 0, 1]]}], "d": 1}',
     "coefficient [1, 0, 0, 0] is not a nonzero p or p/q"),
    ('{"N":1,"terms":[{"coeff":["1","0","0","0"],"eps":0,"jets":[[1,0,1]]}],"d":1}',
     "coefficient ['1', '0', '0', '0'] is not a nonzero p or p/q"),
    ('{"N":1,"d":1,"terms":[{"coeff":[0.1,"0","0","0"],"eps":0,"jets":[[1,0,1]]}]}',
     "coefficient [0.1, '0', '0', '0'] is not a nonzero p or p/q"),
    ('{"N":1,"terms":[{"coeff":["1","0","0",0.0],"eps":0,"jets":[[1,0,1]]}],"d":1}',
     "coefficient ['1', '0', '0', 0.0] is not a nonzero p or p/q"),
    ('{"N":1,"terms":[{"coeff":["  1","0","0","0"],"eps":0,"jets":[[1,0,1]]}],"d":1}',
     "coefficient ['  1', '0', '0', '0'] is not a nonzero p or p/q"),
    ('{"N":1,"terms":[{"coeff":["1_000","0","0","0"],"eps":0,"jets":[[1,0,1]]}],"d":1}',
     "coefficient ['1_000', '0', '0', '0'] is not a nonzero p or p/q"),
    ('{"N":1,"terms":[{"coeff":["2/4","0","0","0"],"eps":0,"jets":[[1,0,1]]}],"d":1}',
     "coefficient ['2/4', '0', '0', '0'] is not a nonzero p or p/q"),
    ('{"N":1,"terms":[{"coeff":["0","0","0","0"],"eps":0,"jets":[[1,0,1]]}],"d":1}',
     "coefficient ['0', '0', '0', '0'] is not a nonzero p or p/q"),
    # a coefficient other than a nonzero string str(Fraction(s)): a JSON
    # number (a float would be read as its binary value 3602879701896397/2^55),
    # a decimal, spaces, underscores, a zero denominator, lower terms, zero
    (one_term(coeff="3"), "coefficient 3 is not a nonzero p or p/q"),
    (one_term(coeff="0.1"), "coefficient 0.1 is not a nonzero p or p/q"),
    (one_term(coeff='"1e-1"'), "coefficient '1e-1' is not a nonzero p or p/q"),
    (one_term(coeff='"  1"'), "coefficient '  1' is not a nonzero p or p/q"),
    (one_term(coeff='"1_000"'), "coefficient '1_000' is not a nonzero p or p/q"),
    (one_term(coeff='"1/0"'), "coefficient '1/0' is not a nonzero p or p/q"),
    (one_term(coeff='"2/4"'), "coefficient '2/4' is not a nonzero p or p/q"),
    (one_term(coeff='"0"'), "coefficient '0' is not a nonzero p or p/q"),
    (one_term(coeff='"-0"'), "coefficient '-0' is not a nonzero p or p/q"),
    (one_term(coeff='"3/1"'), "coefficient '3/1' is not a nonzero p or p/q"),
    # a missing key
    ('{"N": 1}', "a payload has no 'd'"),
    ('{"N":1,"terms":[{"coeff":"1","eps":0,"jets":[[1,0,1]]}]}', "a payload has no 'd'"),
    ('{"d":1,"terms":[{"coeff":"1","eps":0,"jets":[[1,0,1]]}]}', "a payload has no 'N'"),
    ('{"N":1,"d":1}', "a payload has no 'terms'"),
    ('{"N":1,"d":1,"terms":[{"coeff":"1","jets":[[1,0,1]]}]}', "a term has no 'eps'"),
    ('{"N":1,"d":1,"terms":[{"coeff":"1","eps":0}]}', "a term has no 'jets'"),
    # d is 1 or the squarefree part of N + 1, checked once N is in range, so a
    # large prime d is refused without trial division up to its square root
    ('{"N":1,"d":3,"terms":[{"coeff":["0","0","0","1"],"eps":0,"jets":[[1,0,1]]}]}',
     "d = 3 is neither 1 nor the squarefree part of N + 1 = 2"),
    ('{"N":1,"d":4,"terms":[{"coeff":["1","0","0","0"],"eps":0,"jets":[[1,0,1]]}]}',
     "d = 4 is neither 1 nor the squarefree part of N + 1 = 2"),
    (one_term(n=2, d=2, jets="[[2,0,1]]"),
     "d = 2 is neither 1 nor the squarefree part of N + 1 = 3"),
    (one_term(d=LARGE_PRIME_D), f"d = {LARGE_PRIME_D} is neither 1"),
    # a field count beyond the packed slots, refused before the d rule is
    # tested and before a name is built for each field: u^N_0 needs slot N + 1
    ('{"N":10000,"terms":[{"coeff":["1","0","0","0"],"eps":0,"jets":[[10000,3000,2]]}],'
     '"d":1}', "10000 fields need packed slot 10001 for u^10000_0, above 4095"),
    ('{"N":4095,"terms":[{"coeff":["1","0","0","0"],"eps":0,"jets":[]}],"d":1}',
     "4095 fields need packed slot 4096"),
    ('{"N":1000000,"terms":[{"coeff":["1","0","0","0"],"eps":0,"jets":[]}],"d":1}',
     "1000000 fields need packed slot 1000001"),
    # jets: a field out of range, a power beyond the 15-bit exponent slot,
    # (field, order) pairs repeated or out of order; eps carries degree -1,
    # so a negative exponent is no differential polynomial
    (one_term(jets="[[2,0,1]]"), "field index 2 out of range 1..1"),
    (one_term(jets="[[1,0,40000]]"), "a monomial exponent exceeds 32767"),
    ('{"N":2,"terms":[{"coeff":["1","0","0","0"],"eps":0,"jets":[[1,0,2],[1,0,3]]}],'
     '"d":3}', "jets [[1, 0, 2], [1, 0, 3]] are not in strictly increasing"),
    (one_term(n=2, jets="[[1,0,2],[1,0,3]]"),
     "jets [[1, 0, 2], [1, 0, 3]] are not in strictly increasing"),
    (one_term(n=2, jets="[[2,0,1],[1,0,1]]"),
     "jets [[2, 0, 1], [1, 0, 1]] are not in strictly increasing"),
    (one_term(eps=-1), "eps must be an integer >= 0, got -1"),
    # one monomial twice
    ('{"N":1,"d":1,"terms":[{"coeff":"1","eps":0,"jets":[[1,0,1]]},'
     '{"coeff":"2","eps":0,"jets":[[1,0,1]]}]}', "two terms at eps^0 and jets [[1, 0, 1]]"),
    # "false" is a string, not a boolean
    ('{"N":1,"d":1,"terms":[{"coeff":"1","eps":0,"jets":[[1,0,1]]}],"integrated":"false"}',
     "integrated must be true or false, got 'false'"),
    ('{"N":1,"terms":[],"integrated":1}', "integrated must be true or false, got 1"),
]


@pytest.mark.parametrize("stdin, reason", MALFORMED_RENDER_INPUT,
                         ids=[stdin for stdin, _ in MALFORMED_RENDER_INPUT])
def test_render_malformed_input_is_a_usage_error(run, monkeypatch, stdin, reason):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code, out, err = run("render")
    assert code == 2
    assert out == ""
    assert err.startswith("malformed render input:") and err.count("\n") == 1
    assert reason in err


def run_cli_subprocess(*argv, timeout, input=None):
    """``python -m drhier.cli *argv`` in a fresh process over this tree's src:
    a regression that stalls fails the test at the timeout instead of
    hanging the suite."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "drhier.cli", *argv], input=input,
                          capture_output=True, text=True, env=env, timeout=timeout)


def test_render_refuses_a_large_d_in_a_subprocess():
    # trial division of this prime d up to its square root would take about
    # 10^9 steps
    done = run_cli_subprocess("render", input=f'{{"N":1,"d":{LARGE_PRIME_D},"terms":[]}}',
                              timeout=10)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == (f"malformed render input: d = {LARGE_PRIME_D} is neither 1 "
                           f"nor the squarefree part of N + 1 = 2\n")


def diffpoly_payloads(node):
    """Every object with an N and a terms list in a parsed JSON document."""
    if isinstance(node, dict):
        if "N" in node and isinstance(node.get("terms"), list):
            yield node
        for value in node.values():
            yield from diffpoly_payloads(value)
    elif isinstance(node, list):
        for value in node:
            yield from diffpoly_payloads(value)


def test_render_reads_every_golden_payload(run, monkeypatch):
    # the strict reader refuses nothing the writer emits, and reads it back
    payloads = []
    for path in [*GOLDEN.glob("*.json"), *(GOLDEN.parents[1] / "perfbench" / "golden").glob(
            "verify-main-*.stdout")]:
        text = path.read_text()
        if text.startswith("{"):
            payloads.extend(diffpoly_payloads(json.loads(text)))
    assert len(payloads) >= 80
    for payload in payloads:
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
        code, out, err = run("render", "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out) == payload


@pytest.mark.parametrize("r, window", [(3, 1024), (5, 512), (3, 100000)])
def test_a_quantize_window_beyond_the_mode_slots_is_a_usage_error(run, r, window):
    # the top mode slot, 2 + (2 window + 1)(r - 1) - 1, passes 4095
    code, out, err = run("quantize-check", "--r", str(r), "--window", str(window))
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err.startswith("quantize-check:") and "above 4095" in err \
        and err.count("\n") == 1


@pytest.mark.parametrize("payload", [
    {"g": 2},
    [1],
    {"g": 2, "n": 2, "entries": [{"psi": [2, 0], "boundary": []}]},
    # boundary symbols that no g = 2, n = 2 expansion holds: h outside 0..g,
    # a marking outside 1..n, a repeated marking
    {"g": 2, "n": 2, "entries": [{"psi": [1, 0], "boundary": [[9, [7, 7]]], "value": "5"}]},
    {"g": 2, "n": 2, "entries": [{"psi": [1, 0], "boundary": [[1, [3]]], "value": "5"}]},
    {"g": 2, "n": 2, "entries": [{"psi": [1, 0], "boundary": [[0, [1, 1]]], "value": "5"}]},
    # one class with two values, given twice or through two representatives
    {"g": 2, "n": 2, "entries": [{"psi": [2, 0], "boundary": [], "value": "7/4320"},
                                 {"psi": [2, 0], "boundary": [], "value": "1"}]},
    {"g": 2, "n": 2, "entries": [{"psi": [1, 0], "boundary": [[1, [1]]], "value": "0"},
                                 {"psi": [1, 0], "boundary": [[1, [2]]], "value": "5"}]},
    # a monomial of degree 3, not g = 2: no lookup can reach it
    {"g": 2, "n": 2, "entries": [{"psi": [3, 0], "boundary": [], "value": "5"}]},
    # a value that is not the string str(Fraction) writes
    *({"g": 2, "n": 2, "entries": [{"psi": [2, 0], "boundary": [], "value": value}]}
      for value in ("2/4", "1_000", "0.5", 5)),
    # boundary classes with no divisor name: delta_0^{1}, delta_0^{} and
    # their other names delta_2^{2}, delta_2^{12}
    *({"g": 2, "n": 2, "entries": [{"psi": [1, 0], "boundary": [symbol], "value": "5"}]}
      for symbol in ([0, [1]], [0, []], [2, [2]], [2, [1, 2]])),
    # labels for three markings on a table for n = 2
    {"g": 2, "n": 2, "labels": [2, 2, 2], "entries": []},
])
def test_malformed_table_file_exit(run, tmp_path, payload):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(payload))
    code, out, err = run("hain-pair", "--g", "2", "--counts", "0,2",
                         "--table-file", str(path))
    assert code == cli.EXIT_TABLE_FILE
    assert out == ""
    assert err.startswith("table file error:") and err.count("\n") == 1


def test_an_exponent_table_value_is_refused_in_a_subprocess(tmp_path):
    # Fraction("1e100000000") would write out a hundred million digits
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"g": 2, "n": 2, "entries": [
        {"psi": [2, 0], "boundary": [], "value": "1e100000000"}]}))
    done = run_cli_subprocess("hain-pair", "--g", "2", "--counts", "0,2",
                              "--table-file", str(path), timeout=10)
    assert (done.returncode, done.stdout) == (cli.EXIT_TABLE_FILE, "")
    assert done.stderr.startswith("table file error:") and done.stderr.count("\n") == 1


LARGE_PRIME_R = 10000000000000061


@pytest.mark.parametrize("argv", [["gd", "--m", "1"], ["rspin", "--alpha", "1", "--d", "0"],
                                  ["verify-main"]])
@pytest.mark.parametrize("r", [LARGE_PRIME_R, 10 ** 20])
def test_a_large_r_is_refused_before_its_trial_division(argv, r):
    # the squarefree part of this prime r would take about 10^8 trial steps
    done = run_cli_subprocess(*argv, "--r", str(r), timeout=10)
    assert (done.returncode, done.stdout) == (cli.EXIT_PRECONDITION, "")
    assert done.stderr == (f"error: {r - 1} fields need packed slot {r} for "
                           f"u^{r - 1}_0, above 4095\n")


@pytest.mark.parametrize("argv, out", [
    (["hain-pair", "--g", "1", "--counts", "0,10"], "0\n"),
    (["assemble", "--r", "3", "--alpha", "1", "--d", "8", "--g", "1", "--counts", "7,3"],
     "int 0 dx\n"),
])
def test_ten_markings_expand_over_a_default_zero_table(run, tmp_path, argv, out):
    # Hain's expansion over n = 10 markings has 1023 base terms at g = 1
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"g": 1, "n": 10, "default_zero": True, "entries": []}))
    assert run(*argv, "--table-file", str(path)) == (0, out, "")


def test_a_class_without_a_divisor_is_refused_not_dropped(run, tmp_path):
    # delta_0^{1} is in no expansion: its 5 would be dropped from the pairing
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"g": 1, "n": 2, "default_zero": True, "entries": [
        {"psi": [1, 0], "boundary": [], "value": "1/24"},
        {"psi": [0, 0], "boundary": [[0, [1]]], "value": "5"},
        {"psi": [0, 0], "boundary": [[1, []]], "value": "7"}]}))
    code, out, err = run("hain-pair", "--g", "1", "--counts", "0,2", "--table-file", str(path))
    assert (code, out) == (cli.EXIT_TABLE_FILE, "")
    assert err.startswith("table file error: ") and err.count("\n") == 1
    assert "boundary symbol [0, [1]] names no divisor" in err


def test_twenty_markings_pair_a_default_zero_table_through_its_entries(run, tmp_path):
    # Hain's expansion over n = 20 markings has over a million base terms at
    # g = 1; a table with no entry pairs to 0 without them
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"g": 1, "n": 20, "default_zero": True, "entries": []}))
    assert run("hain-pair", "--g", "1", "--counts", "0,20", "--table-file", str(path)) \
        == (0, "0\n", "")


def test_an_empty_strict_table_misses_at_the_first_monomial(run, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"g": 1, "n": 14, "entries": []}))
    code, out, err = run("hain-pair", "--g", "1", "--counts", "0,14", "--table-file", str(path))
    assert (code, out) == (cli.EXIT_TABLE_MISS, "")
    assert err == "table miss under strict policy: 'no table entry for psi1'\n"


def test_reconstruct_finishes_at_the_largest_tmax_in_a_subprocess():
    # the construction reads Omega only up to q = 1, so a large --tmax only
    # widens the packed keys
    done = run_cli_subprocess("reconstruct", "--r", "2", "--tmax", "4092",
                              "--format", "json", timeout=30)
    assert (done.returncode, done.stderr) == (0, "")
    report = json.loads(done.stdout)
    assert report["bounds"]["t_max"] == 4092
    assert report["string_residuals"] == report["dilaton_residuals"] == 0


@pytest.mark.parametrize("argv", [
    ["reconstruct", "--tmax", "0"],
    ["reconstruct", "--t-degree", "-1"],
    ["reconstruct", "--eps-order", "-1"],
    ["quantize-check", "--r", "3", "--window", "0"],
    ["quantize-check", "--r", "3", "--samples", "-1"],
    ["quantize-check", "--r", "1", "--samples", "1"],
    ["rspin", "--r", "3", "--alpha", "1", "--d", "-3"],
    ["rspin", "--r", "3", "--alpha", "0", "--d", "1"],
    ["gd", "--r", "1", "--m", "1"],
    ["gd", "--r", "3", "--m", "0"],
    ["enumerate", "--r", "3", "--alpha", "1", "--d", "-1"],
    ["dr-g11", "--r", "1"],
    ["verify-main", "--r", "0"],
    ["reconstruct", "--r", "1"],
    ["hain-pair", "--g", "-1", "--counts", "0,2", "--table-file", "t.json"],
    ["assemble", "--r", "3", "--alpha", "1", "--d", "1", "--g", "-1",
     "--counts", "0,2", "--table-file", "t.json"],
    ["hain-pair", "--g", "2", "--counts", "a,b", "--table-file", "t.json"],
    ["hain-pair", "--g", "2", "--counts", "", "--table-file", "t.json"],
    ["hain-pair", "--g", "2", "--counts", "0,-2", "--table-file", "t.json"],
    ["hain-pair", "--g", "2", "--counts", "0,0", "--table-file", "t.json"],
    ["assemble", "--r", "3", "--alpha", "1", "--d", "1", "--g", "2",
     "--counts", "0,0,2", "--table-file", "t.json"],
    ["reconstruct", "--t-degree", "70000"],
    ["reconstruct", "--t-degree", "32768"],
    ["reconstruct", "--eps-order", "32768"],
    # t^1_tmax sits at packed slot 3 + tmax: refused before Omega is computed
    ["reconstruct", "--tmax", "4093"],
    ["reconstruct", "--tmax", "5000"],
])
def test_out_of_range_bounds_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ["hain-pair", "--g", "0", "--counts", "10000000"],
    ["assemble", "--r", "2", "--alpha", "1", "--d", "9999998", "--g", "0",
     "--counts", "10000000"],
])
def test_labels_are_built_only_after_the_table_is_read(run, monkeypatch, worked_table,
                                                       argv):
    # 10^7 markings: the table is missing or for n = 2, so no label is built
    for module in (cli, drspin):
        monkeypatch.setattr(module, "counts_labels",
                            lambda counts: pytest.fail("labels were built"))
    code, out, err = run(*argv, "--table-file", "/nonexistent.json")
    assert (code, out) == (cli.EXIT_TABLE_FILE, "")
    assert err.startswith("table file error: /nonexistent.json") and err.count("\n") == 1
    code, out, err = run(*argv, "--table-file", worked_table)
    assert (code, out) == (cli.EXIT_PRECONDITION, "")
    assert err == ("error: the table is for n = 2 but --counts sums to n = 10000000\n")


@pytest.mark.parametrize("argv", [
    ["hain-pair", "--g", "2", "--counts", "0,3"],
    ["assemble", "--r", "3", "--alpha", "1", "--d", "1", "--g", "1",
     "--counts", "0,3"],
])
def test_table_n_must_match_counts(run, worked_table, argv):
    # the worked table is for n = 2; under the zero policy a mismatch would
    # otherwise match no key and print 0
    code, out, err = run(*argv, "--table-file", worked_table, "--policy", "zero")
    assert code == cli.EXIT_PRECONDITION
    assert out == ""
    assert "n = 2" in err and "n = 3" in err and err.count("\n") == 1


@pytest.mark.parametrize("argv, named", [
    (["hain-pair", "--g", "2", "--counts", "1,1"], ("[2, 2]", "[1, 2]")),
    (["hain-pair", "--g", "3", "--counts", "0,2", "--policy", "zero"],
     ("g = 2", "--g is 3")),
])
def test_table_g_and_labels_must_match(run, worked_table, argv, named):
    # the worked table is for g = 2 with labels (2, 2); a mismatch would
    # otherwise pair it anyway (7/8640 for labels (1, 2)) or print 0
    code, out, err = run(*argv, "--table-file", worked_table)
    assert code == cli.EXIT_PRECONDITION
    assert out == ""
    assert all(s in err for s in named) and err.count("\n") == 1
