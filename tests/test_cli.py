"""Command-line behavior: formats, determinism, config files, exit codes."""

import json
import subprocess
import sys
from fractions import Fraction

import pytest

from sdmm.cli import main


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# -- threshold --------------------------------------------------------------------


def test_threshold_text_output(capsys):
    rc, out, err = run_cli(capsys, "threshold",
                           "--scheme", "mp:K=2,M=3,L=2,T=3,D=1")
    assert rc == 0 and err == ""
    assert "N: 24" in out
    assert "P: 8" in out
    assert "N_prime: 28" in out


def test_threshold_json_output(capsys):
    rc, out, _ = run_cli(capsys, "threshold", "--json",
                         "--scheme", "ggasp:K=5,M=2,L=5,T=4,r=2")
    assert rc == 0
    d = json.loads(out)
    assert d["N"] == 82
    assert Fraction(d["rate"]) == Fraction(50, 82)


def test_threshold_rejects_bad_scheme(capsys):
    rc, _, err = run_cli(capsys, "threshold", "--scheme", "mp:K=0,M=3,L=2,T=1")
    assert rc == 2
    assert err.startswith("error:")


# -- sweep and fixed-n search -------------------------------------------------------


def test_sweep_output_is_byte_identical_across_runs(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        rc, _, _ = run_cli(capsys, "sweep", "--K", "2", "--M", "3", "--L", "2",
                           "--t-max", "3", "--out", str(path))
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    assert len(comments) == 3
    header = [ln for ln in lines if not ln.startswith("#")][0]
    assert header == "scheme,K,M,L,T,D_or_r,N,P,rate"
    data = [ln for ln in lines if not ln.startswith("#")][1:]
    assert len(data) == 8  # two schemes, T = 0..3


def test_sweep_json_keeps_exact_rates(capsys):
    rc, out, _ = run_cli(capsys, "sweep", "--K", "2", "--M", "3", "--L", "2",
                         "--t-max", "0", "--json")
    assert rc == 0
    rows = json.loads(out)
    mp_row = next(r for r in rows if r["scheme"] == "mp")
    assert mp_row["N"] == 12
    assert Fraction(mp_row["rate"]) == 1
    gg_row = next(r for r in rows if r["scheme"] == "ggasp")
    assert gg_row["N"] == 14
    assert Fraction(gg_row["rate"]) == Fraction(12, 14)


def test_fixed_n_search_respects_the_budget(capsys):
    rc, out, _ = run_cli(capsys, "fixed-n-search", "--workers", "30",
                         "--t-max", "1", "--m-min", "2", "--json")
    assert rc == 0
    rows = json.loads(out)
    assert rows
    assert all(r["N"] <= 30 for r in rows)
    assert all(Fraction(r["rate"]) <= 1 for r in rows)


# -- simulate ---------------------------------------------------------------------


def test_simulate_json_run_decodes(capsys):
    rc, out, _ = run_cli(capsys, "simulate", "--scheme", "mp:K=2,M=3,L=2,T=1",
                         "--field", "31", "--json", "--seed", "5")
    assert rc == 0
    d = json.loads(out)
    assert d["decode_success"] is True
    assert d["straggler_set"] == []
    assert "wall_time" not in d
    assert d["mult_counts"]["encode"] > 0
    assert d["plan"]["n_workers"] == d["n_workers"]


def test_simulate_is_byte_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["simulate", "--scheme", "mp:K=2,M=3,L=2,T=1", "--field", "31",
            "--json", "--seed", "7", "--stragglers", "random:2"]
    for path in (a, b):
        rc, _, _ = run_cli(capsys, *argv, "--out", str(path))
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


_P31_RUN = ["--scheme", "mp:K=2,M=3,L=2,T=2", "--field", "2147483647", "--rows", "48",
            "--inner", "48", "--cols", "48", "--hypernodes", "10", "--seed", "5"]
_F961_RUN = ["--scheme", "mp:K=2,M=3,L=2,T=1", "--field", "31^2", "--rows", "12",
             "--inner", "12", "--cols", "12", "--hypernodes", "8", "--seed", "4"]
_P31_HASH = "8042a3c734ba719f0d689c0053a659ed2b5593af0f797853cf5aecb549a07919"
_F961_HASH = "c7d83c6d88a9063004e14dcfc5d7f00d562cc81b399c022de9ff470ab3868525"


@pytest.mark.parametrize("argv, counts, digest", [
    (_P31_RUN + ["--stragglers", "random:3"],
     {"encode": 161520, "worker": 248832, "decode": 56072}, _P31_HASH),
    (_P31_RUN + ["--stragglers", "0,3,6"],
     {"encode": 161520, "worker": 248832, "decode": 408348}, _P31_HASH),
    (_F961_RUN, {"encode": 7104, "worker": 3456, "decode": 3776}, _F961_HASH),
    (_F961_RUN + ["--stragglers", "0,3"],
     {"encode": 7104, "worker": 3168, "decode": 29796}, _F961_HASH),
], ids=["p31-hypernode", "p31-full", "f961-hypernode", "f961-full"])
def test_simulate_counts_and_product_hash_are_frozen(capsys, argv, counts, digest):
    # seeded runs down both decode routes: the product and the exact cost
    # model of every phase are fixed
    rc, out, _ = run_cli(capsys, "simulate", *argv, "--json")
    assert rc == 0
    d = json.loads(out)
    assert d["mult_counts"] == counts
    assert d["decoded_product_hash"] == digest


def test_simulate_timing_and_counts_flags(capsys):
    base = ["simulate", "--scheme", "mp:K=1,M=2,L=1,T=0", "--field", "13",
            "--json", "--seed", "1"]
    rc, out, _ = run_cli(capsys, *base, "--timing", "--no-counts")
    assert rc == 0
    d = json.loads(out)
    assert isinstance(d["wall_time"], float)
    assert d["mult_counts"] is None


def test_simulate_text_mode_omits_plan_dump(capsys):
    argv = ["simulate", "--scheme", "mp:K=1,M=2,L=1,T=0", "--field", "13",
            "--seed", "1"]
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == 0
    assert "plan" not in out
    assert "decode_success: True" in out


def test_simulate_reports_decode_failure_with_exit_zero(capsys):
    # the default deployment has no spare hypernodes, so one straggler
    # starves both decoding routes; that outcome is data, not an error
    rc, out, _ = run_cli(capsys, "simulate", "--scheme", "mp:K=2,M=3,L=2,T=1",
                         "--field", "31", "--json", "--seed", "5",
                         "--stragglers", "0")
    assert rc == 0
    d = json.loads(out)
    assert d["decode_success"] is False
    assert d["decoded_product_hash"] is None


def test_simulate_validates_block_divisibility(capsys):
    rc, _, err = run_cli(capsys, "simulate", "--scheme", "mp:K=2,M=3,L=2,T=1",
                         "--field", "31", "--rows", "5")
    assert rc == 2
    assert "error:" in err


# -- find-eval --------------------------------------------------------------------


def test_find_eval_emits_a_checked_plan(capsys):
    rc, out, _ = run_cli(capsys, "find-eval", "--scheme", "mp:K=2,M=3,L=2,T=0",
                         "--field", "31", "--seed", "1")
    assert rc == 0
    d = json.loads(out)
    assert "decodability" in d["checks_passed"]
    assert "minor-scan" in d["checks_passed"]
    assert d["field"] == "31"
    assert d["n_workers"] == 12  # four hypernodes of three workers
    assert len(d["a"]) == 4
    assert len(d["worker_points"]) == 12


def test_find_eval_size_gate_exits_three(capsys):
    rc, _, err = run_cli(capsys, "find-eval", "--scheme", "mp:K=2,M=3,L=2,T=3",
                         "--field", "13", "--max-escalations", "0")
    assert rc == 3
    assert "error:" in err
    assert "cannot host 24" in err  # the field must hold all worker points


# -- p-of-s -----------------------------------------------------------------------


def test_p_of_s_bound_mode(capsys):
    rc, out, _ = run_cli(capsys, "p-of-s", "--scheme", "mp:K=2,M=3,L=2,T=0",
                         "-S", "5", "--hypernodes", "6")
    assert rc == 0
    d = json.loads(out)
    assert d["mode"] == "bound"
    assert Fraction(d["p_of_s"]) == Fraction(5, 476)
    assert abs(d["decimal"] - 0.0105) < 5e-5


def test_p_of_s_exhaustive_mode(capsys):
    rc, out, _ = run_cli(capsys, "p-of-s", "--scheme", "mp:K=1,M=2,L=1,T=0",
                         "--field", "13", "-S", "2", "--mode", "exhaustive",
                         "--hypernodes", "2",
                         "--rows", "1", "--inner", "2", "--cols", "1")
    assert rc == 0
    d = json.loads(out)
    assert Fraction(d["p_of_s"]) == Fraction(1, 3)
    assert d["n_workers"] == 4


def test_p_of_s_decode_modes_need_a_field(capsys):
    rc, _, err = run_cli(capsys, "p-of-s", "--scheme", "mp:K=1,M=2,L=1,T=0",
                         "-S", "1", "--mode", "mc")
    assert rc == 2
    assert "field" in err


# -- verify-examples ---------------------------------------------------------------


def test_verify_examples_all_pass(capsys):
    rc, out, _ = run_cli(capsys, "verify-examples")
    assert rc == 0
    assert "FAIL" not in out
    assert "checks passed" in out


def test_verify_examples_category_filter(capsys):
    rc, out, _ = run_cli(capsys, "verify-examples", "--only", "field")
    assert rc == 0
    full = run_cli(capsys, "verify-examples")[1]
    assert out.count("PASS") < full.count("PASS")


def test_verify_examples_rejects_unknown_category(capsys):
    rc, _, err = run_cli(capsys, "verify-examples", "--only", "bogus")
    assert rc == 2
    assert "error:" in err


# -- config files -----------------------------------------------------------------


def test_config_file_supplies_flags(capsys, tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("K=2\nM=3\nL=2\nt-max=2\njson=true\n")
    rc, out, _ = run_cli(capsys, "sweep", "--config", str(cfg))
    assert rc == 0
    rows = json.loads(out)
    assert {r["T"] for r in rows} == {0, 1, 2}


def test_explicit_flags_override_the_config_file(capsys, tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("K=2\nM=3\nL=2\nt-max=2\njson=true\n")
    rc, out, _ = run_cli(capsys, "sweep", "--config", str(cfg), "--t-max", "0")
    assert rc == 0
    rows = json.loads(out)
    assert {r["T"] for r in rows} == {0}


def test_config_file_rejects_garbage_lines(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this is not a key value pair\n")
    rc, _, err = run_cli(capsys, "sweep", "--K", "2", "--M", "3", "--L", "2",
                         "--config", str(cfg))
    assert rc == 2
    assert "error:" in err


# -- output files and entry point ---------------------------------------------------


def test_out_flag_writes_the_file_and_keeps_stdout_quiet(capsys, tmp_path):
    path = tmp_path / "t.json"
    rc, out, _ = run_cli(capsys, "threshold", "--json",
                         "--scheme", "mp:K=2,M=3,L=2,T=3", "--out", str(path))
    assert rc == 0
    assert out == ""
    assert json.loads(path.read_text())["N"] == 24


def test_module_entry_point_reports_version():
    proc = subprocess.run([sys.executable, "-m", "sdmm.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "sdmm 0.1.0"
