"""Command line interface: formats, exit codes, golden tables."""

import argparse
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import scanex
from scanex import extremes, montecarlo, pipeline, scan_exact
from scanex.cli import build_parser, main
from scanex.extremes import PSequence, error_coefficients, solve_lambda
from scanex.montecarlo import SimulationPlan, simulate_scan_cdf
from scanex.pipeline import (
    format_bound,
    format_probability,
    sandwich,
    scan_approximation,
)
from scanex.scan_exact import BernoulliScanSpec, exact_scan_cdf

GOLDEN = Path(__file__).parent / "golden"


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


# ------------------------------------------------------------------- coeffs


def coeff_values(alpha):
    """The API's coefficients at ``alpha`` under the CLI's column names."""
    c = error_coefficients(alpha)
    return {
        "alpha": c.alpha, "t2": c.t2, "l": c.l, "eta": c.eta, "K": c.K,
        "L": c.Lcoef, "E": c.Ecoef, "Gamma": c.Gamma,
        "1+alpha*K": 1.0 + c.alpha * c.K, "3+alpha*Gamma": 3.0 + c.alpha * c.Gamma,
    }


def test_coeffs_csv_and_json_agree(capsys):
    code, out, err = run_main(capsys, "coeffs", "--alpha", "0.025")
    assert code == 0 and err == ""
    header, rows = parse_csv(out)
    record = dict(zip(header, rows[0]))
    code, out, _ = run_main(capsys, "coeffs", "--alpha", "0.025", "--format", "json")
    assert code == 0
    as_json = json.loads(out)
    for key, val in as_json.items():
        assert float(record[key]) == float(val)


def test_coeffs_published_row(capsys):
    _, out, _ = run_main(capsys, "coeffs", "--alpha", "0.025", "--format", "md")
    rec = parse_md(out)
    assert rec["l"] == "1.0835"
    assert rec["K"] == "17.5663"
    assert rec["Gamma"] == "145.202"
    assert rec["1+alpha*K"] == "1.4391"
    assert rec["3+alpha*Gamma"] == "6.6300"
    # csv carries the API's floats exactly
    _, out, _ = run_main(capsys, "coeffs", "--alpha", "0.025")
    header, rows = parse_csv(out)
    assert dict(zip(header, map(float, rows[0]))) == coeff_values(0.025)


def test_coeffs_domain_error_exit_2(capsys):
    code, out, err = run_main(capsys, "coeffs", "--alpha", "0.2")
    assert code == 2
    assert out == ""
    assert "alpha out of range (0, 0.1]" in err


# ------------------------------------------------------------------- lambda


def test_lambda_from_pfile(capsys, tmp_path):
    pfile = tmp_path / "p.txt"
    pfile.write_text("# geometric, p1 = 0.05\n0.05\n0.0025\n0.000125\n6.25e-6\n\n3.125e-7\n")
    code, out, err = run_main(capsys, "lambda", "--pfile", str(pfile), "--alpha", "0.05")
    assert code == 0 and err == ""
    header, rows = parse_csv(out)
    rec = dict(zip(header, rows[0]))
    lam = float(rec["lambda"])
    assert abs(lam - 1.0 / 0.95) < 1e-7
    assert float(rec["bracket_low"]) < lam < float(rec["bracket_high"])
    assert float(rec["bound_T1"]) > 0.0
    assert abs(lam - float(rec["center_T1"])) <= float(rec["bound_T1"])


def test_lambda_rejects_nan_in_pfile(capsys, tmp_path):
    pfile = tmp_path / "p.txt"
    pfile.write_text("0.05\nnan\n0.0001\n0.00001\n")
    code, out, err = run_main(capsys, "lambda", "--pfile", str(pfile), "--alpha", "0.1")
    assert code == 2 and out == "" and "finite" in err


def test_lambda_rejects_bad_file(capsys, tmp_path):
    pfile = tmp_path / "p.txt"
    pfile.write_text("0.05\nnot-a-number\n")
    code, out, err = run_main(capsys, "lambda", "--pfile", str(pfile), "--alpha", "0.05")
    assert code == 2 and "not a number" in err
    code, _, err = run_main(
        capsys, "lambda", "--pfile", str(tmp_path / "missing.txt"), "--alpha", "0.05"
    )
    assert code == 2


# --------------------------------------------------------------------- scan


def test_scan_exact_value_and_degenerate_flag(capsys):
    code, out, _ = run_main(
        capsys, "scan", "exact", "--m", "3", "--p", "0.5", "--N", "8", "--n", "2"
    )
    assert code == 0
    header, rows = parse_csv(out)
    rec = dict(zip(header, rows[0]))
    assert rec["value"] == "0.58203125"
    assert rec["degenerate"] == "0"
    # N < m: value is trivially 1 and the row says so
    _, out, _ = run_main(
        capsys, "scan", "exact", "--m", "9", "--p", "0.5", "--N", "5", "--n", "2"
    )
    header, rows = parse_csv(out)
    rec = dict(zip(header, rows[0]))
    assert rec["value"] == "1.0" and rec["degenerate"] == "1"


def test_scan_exact_brute_engine_agrees(capsys):
    _, out_chain, _ = run_main(
        capsys, "scan", "exact", "--m", "3", "--p", "0.5", "--N", "8", "--n", "2"
    )
    _, out_brute, _ = run_main(
        capsys, "scan", "exact", "--m", "3", "--p", "0.5", "--N", "8", "--n", "2",
        "--engine", "brute",
    )
    v = lambda s: parse_csv(s)[1][0][parse_csv(s)[0].index("value")]
    assert v(out_chain) == v(out_brute)


def test_scan_exact_capacity_exit_3(capsys):
    code, _, err = run_main(
        capsys, "scan", "exact", "--m", "27", "--p", "0.5", "--N", "60", "--n", "13"
    )
    assert code == 3 and "states" in err
    code, _, err = run_main(
        capsys, "scan", "exact", "--m", "3", "--p", "0.5", "--N", "23", "--n", "1",
        "--engine", "brute",
    )
    assert code == 3


def test_scan_exact_work_cap_exit_3(capsys):
    # C(20, 10) states over 10**9 trials: refused before any step
    code, _, err = run_main(
        capsys, "scan", "exact", "--m", "20", "--p", "0.05", "--N", "1000000000", "--n", "10"
    )
    assert code == 3 and "state-steps" in err


def parse_md(text):
    header, _, row = [
        [c.strip() for c in line.strip().strip("|").split("|")]
        for line in text.splitlines()
    ]
    return dict(zip(header, row))


def test_scan_approx_published_row(capsys):
    argv = ("scan", "approx", "--m", "9", "--p", "0.05", "--L", "10", "--n", "3",
            "--with-exact")
    code, out, _ = run_main(capsys, *argv, "--format", "md")
    assert code == 0
    rec = parse_md(out)
    assert rec["q1"] == "0.99716"
    assert rec["q2"] == "0.99500"
    assert rec["approx"] == "0.98001"
    assert rec["exact"] == "0.98000"
    assert rec["EH"] == "0.00032"
    assert rec["E"] == "0.00010"
    assert rec["range_exceeded"] == "0"
    # csv carries the API's floats exactly
    code, out, _ = run_main(capsys, *argv)
    assert code == 0
    header, rows = parse_csv(out)
    rec = dict(zip(header, rows[0]))
    r = scan_approximation(9, 0.05, 10, 3, want_exact=True)
    want = {"q1": r.q1, "q2": r.q2, "approx": r.approx_T4, "exact": r.exact,
            "EH": r.EH, "E": r.E, "alpha": r.alpha_used}
    assert {k: float(rec[k]) for k in want} == want


def test_scan_approx_json_is_full_precision(capsys):
    code, out, _ = run_main(
        capsys, "scan", "approx", "--m", "9", "--p", "0.05", "--L", "10", "--n", "6",
        "--with-exact", "--t3", "--format", "json",
    )
    assert code == 0
    got = json.loads(out)
    r = scan_approximation(9, 0.05, 10, 6, want_exact=True, want_T3=True)
    assert got["q1"] == r.q1 != 1.0
    for key, val in (("exact", r.exact), ("approx_T3", r.approx_T3), ("E_T3", r.E_T3)):
        assert got[key] == val


def test_scan_approx_t3_columns(capsys):
    _, out, _ = run_main(
        capsys, "scan", "approx", "--m", "9", "--p", "0.05", "--L", "10", "--n", "3",
        "--t3",
    )
    header, rows = parse_csv(out)
    rec = dict(zip(header, rows[0]))
    for key in ("q3", "q4", "approx_T3", "E_T3"):
        assert key in rec and rec[key] != ""


def test_scan_approx_t3_md_uses_the_paper_digits(capsys):
    code, out, _ = run_main(
        capsys, "scan", "approx", "--m", "9", "--p", "0.05", "--L", "10", "--n", "3",
        "--t3", "--format", "md",
    )
    assert code == 0
    rec = parse_md(out)
    r = scan_approximation(9, 0.05, 10, 3, want_T3=True)
    assert rec["q3"] == format_probability(r.q3)
    assert rec["q4"] == format_probability(r.q4)
    assert rec["approx_T3"] == format_probability(r.approx_T3)
    assert rec["E_T3"] == format_bound(r.E_T3)


def test_scan_approx_range_exceeded_note(capsys):
    code, out, err = run_main(
        capsys, "scan", "approx", "--m", "9", "--p", "0.3", "--L", "5", "--n", "2"
    )
    assert code == 0
    header, rows = parse_csv(out)
    rec = dict(zip(header, rows[0]))
    assert rec["range_exceeded"] == "1"
    assert rec["approx"] == "" and rec["E"] == ""
    assert "exceeds" in err or "range" in err


def test_scan_sandwich(capsys):
    _, out, _ = run_main(
        capsys, "scan", "sandwich", "--m", "3", "--p", "0.5", "--N", "10", "--n", "2"
    )
    header, rows = parse_csv(out)
    rec = dict(zip(header, rows[0]))
    assert rec["L"] == "3"
    assert float(rec["lower"]) <= float(rec["upper"])


def test_scan_simulate_deterministic(capsys):
    argv = (
        "scan", "simulate", "--m", "3", "--p", "0.5", "--N", "8", "--n", "2",
        "--reps", "20000", "--seed", "7",
    )
    code, out1, _ = run_main(capsys, *argv)
    assert code == 0
    _, out2, _ = run_main(capsys, *argv)
    assert out1 == out2
    header, rows = parse_csv(out1)
    rec = dict(zip(header, rows[0]))
    est, hw = float(rec["estimate"]), float(rec["half_width_95"])
    assert abs(est - 149 / 256) <= 3 * hw


def test_scan_simulate_thread_env(capsys, monkeypatch):
    argv = (
        "scan", "simulate", "--m", "3", "--p", "0.5", "--N", "8", "--n", "2",
        "--reps", "10000", "--seed", "3",
    )
    _, base, _ = run_main(capsys, *argv)
    monkeypatch.setenv("SCANEX_THREADS", "3")
    _, threaded, _ = run_main(capsys, *argv)
    assert base == threaded


def test_scan_simulate_seed_out_of_range_exit_2(capsys):
    argv = ("scan", "simulate", "--m", "3", "--p", "0.05", "--N", "8", "--n", "1",
            "--reps", "100")
    code, out, err = run_main(capsys, *argv, "--seed", str(2**64))
    assert code == 2 and out == "" and "seed" in err
    code, out, _ = run_main(capsys, *argv, "--seed", str(2**64 - 1))
    assert code == 0 and out


SIM_ARGV = ("scan", "simulate", "--m", "3", "--p", "0.5", "--N", "8", "--n", "2",
            "--reps", "1000")


@pytest.mark.parametrize("argv, env, setting", [
    (("--threads", "0"), None, "--threads"),
    ((), "x", "SCANEX_THREADS"),
    ((), "0", "SCANEX_THREADS"),
])
def test_bad_thread_count_exit_2(capsys, monkeypatch, argv, env, setting):
    if env is not None:
        monkeypatch.setenv("SCANEX_THREADS", env)
    code, out, err = run_main(capsys, *SIM_ARGV, *argv)
    assert code == 2 and out == "" and setting in err


def test_bad_thread_env_ignored_where_unused(capsys, monkeypatch):
    monkeypatch.setenv("SCANEX_THREADS", "x")
    code, out, _ = run_main(capsys, *SIM_ARGV, "--threads", "2")
    assert code == 0 and out
    code, out, _ = run_main(capsys, "coeffs", "--alpha", "0.025")
    assert code == 0 and out


def test_bad_probability_exit_2(capsys):
    code, out, err = run_main(
        capsys, "scan", "exact", "--m", "3", "--p", "1.5", "--N", "8", "--n", "2"
    )
    assert code == 2 and out == "" and "error:" in err


# ------------------------------------------------------------------- tables


@pytest.mark.parametrize("which", ["1", "2", "3", "4"])
def test_tables_match_golden_csv(capsys, which):
    code, out, err = run_main(capsys, "scan", "tables", "--which", which)
    assert code == 0 and err == ""
    assert out == (GOLDEN / f"table{which}.csv").read_text()


def test_table4_markdown_golden(capsys):
    code, out, _ = run_main(capsys, "scan", "tables", "--which", "4", "--format", "md")
    assert code == 0
    assert out == (GOLDEN / "table4.md").read_text()


def test_tables_json_blank_cells_are_null(capsys):
    _, out, _ = run_main(capsys, "scan", "tables", "--which", "3", "--format", "json")
    data = json.loads(out)
    assert len(data) == 6
    assert data[0]["EH"] is None
    assert data[1]["EH"] == "0.00032"


# --------------------------------------------------------- lossless output


def _lossless_case(name, tmp_path):
    """(argv, {column: API value}) for one command's float columns."""
    if name == "coeffs":
        return ["coeffs", "--alpha", "0.025"], coeff_values(0.025)
    if name == "lambda":
        pfile = tmp_path / "p.txt"
        pfile.write_text("0.05\n0.0025\n0.000125\n6.25e-6\n")
        ps = PSequence((1.0, 0.05, 0.0025, 0.000125, 6.25e-6))
        r = solve_lambda(ps, 0.05)
        return ["lambda", "--pfile", str(pfile), "--alpha", "0.05"], {
            "alpha": 0.05, "p1": ps.p1, "lambda": r.lam,
            "bracket_low": r.bracket_low, "bracket_high": r.bracket_high,
            "center_T1": r.center_T1, "bound_T1": r.bound_T1,
            "center_C1": r.center_C1, "bound_C1": r.bound_C1,
            "residual_bound": r.residual_bound,
        }
    spec = ["--m", "9", "--p", "0.05"]
    if name == "exact":
        value = exact_scan_cdf(BernoulliScanSpec(m=9, p=0.05, N=93, n=3))
        return ["scan", "exact", *spec, "--N", "93", "--n", "3"], {
            "p": 0.05, "value": value}
    if name == "sandwich":
        r = sandwich(9, 0.05, 93, 3)
        return ["scan", "sandwich", *spec, "--N", "93", "--n", "3"], {
            "p": 0.05, "lower": r.lower, "upper": r.upper}
    if name == "simulate":
        plan = SimulationPlan(spec=BernoulliScanSpec(m=9, p=0.05, N=90, n=3),
                              reps=20000, seed=1, stream_count=4)
        r = simulate_scan_cdf(plan, threads=1)
        return ["scan", "simulate", *spec, "--N", "90", "--n", "3", "--reps", "20000",
                "--seed", "1"], {
            "p": 0.05, "estimate": r.estimate, "half_width_95": r.half_width_95}
    r = scan_approximation(9, 0.05, 10, 3, want_exact=True, want_T3=True)
    return ["scan", "approx", *spec, "--L", "10", "--n", "3", "--with-exact", "--t3"], {
        "p": 0.05, "q1": r.q1, "q2": r.q2, "approx": r.approx_T4, "exact": r.exact,
        "EH": r.EH, "E": r.E, "alpha": r.alpha_used, "q3": r.q3, "q4": r.q4,
        "approx_T3": r.approx_T3, "E_T3": r.E_T3,
    }


@pytest.mark.parametrize(
    "name", ["coeffs", "lambda", "exact", "sandwich", "simulate", "approx"])
def test_machine_output_is_lossless(capsys, tmp_path, name):
    argv, want = _lossless_case(name, tmp_path)
    code, out, _ = run_main(capsys, *argv)
    assert code == 0
    header, rows = parse_csv(out)
    rec = dict(zip(header, rows[0]))
    assert {k: float(rec[k]) for k in want} == want
    code, out, _ = run_main(capsys, *argv, "--format", "json")
    assert code == 0
    got = json.loads(out)
    assert {k: v for k, v in got.items() if isinstance(v, float)} == want


# ------------------------------------------------------ front-end surface

OPTIONS = {
    ("coeffs",): ["--alpha"],
    ("lambda",): ["--pfile", "--alpha"],
    ("scan", "approx"): ["--m", "--p", "--L", "--n", "--with-exact", "--t3"],
    ("scan", "exact"): ["--m", "--p", "--N", "--n", "--engine"],
    ("scan", "sandwich"): ["--m", "--p", "--N", "--n"],
    ("scan", "simulate"): ["--m", "--p", "--N", "--n", "--reps", "--seed",
                           "--streams", "--threads"],
    ("scan", "tables"): ["--which"],
}


def _subcommands(parser):
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_parser_options_per_command():
    top = _subcommands(build_parser())
    assert list(top) == ["coeffs", "lambda", "scan"]
    assert list(_subcommands(top["scan"])) == [
        "approx", "exact", "sandwich", "simulate", "tables"]
    for path, options in OPTIONS.items():
        parser = top[path[0]] if len(path) == 1 else _subcommands(top["scan"])[path[1]]
        got = [s for a in parser._actions for s in a.option_strings]
        assert got == ["-h", "--help", *options, "--format"], path


# the package's exports before each module's __all__ was re-exported whole
EXPORTS_BEFORE = """
    ALPHA_MAX BernoulliScanSpec BlockSample CapacityError Centers CubicRoot
    ErrorCoefficients Inapplicable LambdaResult LegacyBounds MCEstimate PSequence
    QSequence SandwichResult ScanReport SimulationPlan T3Approx T4Approx
    TableResult __version__ approx_qn_T3 approx_qn_T4 approx_qnlambda_centers
    block_p_sequence block_q_sequence brute_force_scan_cdf c_series_eval
    error_coefficients exact_scan_cdf legacy_bounds legacy_scan_bound p_from_q
    qn_from_p reproduce_table sandwich scan_approximation simulate_block_sequence
    simulate_scan_cdf solve_cubic_t2 solve_lambda
""".split()


def test_package_exports_every_module_all():
    modules = (extremes, montecarlo, pipeline, scan_exact)
    assert scanex.__all__ == ["__version__", *(n for m in modules for n in m.__all__)]
    assert isinstance(scanex.__version__, str)
    for m in modules:
        for name in m.__all__:
            assert getattr(scanex, name) is getattr(m, name)
    assert set(EXPORTS_BEFORE) <= set(scanex.__all__)


def run_fresh(code, *argv):
    """Run ``code`` in a fresh interpreter that imports this scanex."""
    env = dict(os.environ, PYTHONPATH=str(Path(scanex.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# asserts on the package in a fresh interpreter, before and after the first
# use of a name from a numpy module
LAZY_EXPORTS = """
import sys
import scanex
assert "numpy" not in sys.modules
assert set(scanex.__all__) <= set(dir(scanex))
marker = object()
scanex.exact_scan_cdf = marker
names = {}
exec("from scanex import *", names)
assert set(scanex.__all__) <= set(names)
assert names["exact_scan_cdf"] is scanex.exact_scan_cdf is marker
assert scanex.scan_exact is sys.modules["scanex.scan_exact"]
assert scanex.block_q_sequence is scanex.scan_exact.block_q_sequence
assert scanex.montecarlo is sys.modules["scanex.montecarlo"]
assert set(scanex.__all__) <= set(dir(scanex))
"""


def test_package_loads_numpy_modules_on_first_use():
    run_fresh(LAZY_EXPORTS)


# reading one name loads both numpy modules, as a tracer that wraps the
# functions of every loaded scanex module needs; other names still fail
ONE_NAME = """
import sys
import scanex
scanex.exact_scan_cdf
assert {"scanex.scan_exact", "scanex.montecarlo"} <= set(sys.modules)
assert not hasattr(scanex, "no_such_name")  # only AttributeError reads False
"""


def test_one_name_loads_both_numpy_modules():
    run_fresh(ONE_NAME)


# cli.main with numpy blocked: prints each command's stdout as one json list
NO_NUMPY = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
from scanex import cli

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(list(argv))
        except SystemExit as e:  # --version exits from the parser
            code = e.code
    assert code == 0, argv
    return out.getvalue()

outs = [run("coeffs", "--alpha", "0.025"),
        run("lambda", "--pfile", sys.argv[1], "--alpha", "0.05"),
        run("scan", "tables", "--which", "1"),
        run("scan", "tables", "--which", "2"),
        run("--version")]
try:
    run("scan", "exact", "--m", "2", "--p", "0.5", "--N", "3", "--n", "1")
except ImportError:
    outs.append("ImportError")
print(json.dumps(outs))
"""


def test_numpy_free_commands_run_without_numpy(capsys, tmp_path):
    pfile = tmp_path / "p.txt"
    pfile.write_text("# geometric, p1 = 0.05\n0.05\n0.0025\n0.000125\n6.25e-6\n\n3.125e-7\n")
    coeffs, lam, table1, table2, version, blocked = json.loads(
        run_fresh(NO_NUMPY, str(pfile)))
    # the same output as in this process, where numpy is loaded
    assert coeffs == run_main(capsys, "coeffs", "--alpha", "0.025")[1]
    assert lam == run_main(capsys, "lambda", "--pfile", str(pfile), "--alpha", "0.05")[1]
    assert table1 == (GOLDEN / "table1.csv").read_text()
    assert table2 == (GOLDEN / "table2.csv").read_text()
    assert version.startswith("scanex ")
    assert blocked == "ImportError"  # the block works: the chain needs numpy


# ------------------------------------------------------------ entry points


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "scanex", "scan", "exact",
         "--m", "2", "--p", "0.5", "--N", "3", "--n", "1"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "0.625" in proc.stdout


def test_version_flag():
    proc = subprocess.run(
        [sys.executable, "-m", "scanex", "--version"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("scanex ")


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [
    ("coeffs", "--alpha", "0.025"),
    ("scan", "tables", "--which", "3", "--format", "json"),
], ids=["coeffs", "tables-json"])
def test_closed_stdout_exits_1_quietly(argv, unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader: every write to the pipe fails
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
    try:
        proc = subprocess.Popen([sys.executable, "-m", "scanex", *argv],
                                stdout=write_end, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write_end)
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert err == b""
