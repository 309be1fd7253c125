"""Command-line behavior: formats, determinism, config files, exit codes."""

import hashlib
import json
import subprocess
import sys
from fractions import Fraction

import pytest

import sdmm.protocol
from sdmm.cli import main
from sdmm.examples import EXAMPLES
from sdmm.matpoly import BlockMatrix


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


@pytest.mark.parametrize("command", [
    ["sweep", "--K", "2", "--M", "3", "--L", "2"],
    ["fixed-n-search", "--workers", "100", "--t-max", "1"],
])
def test_sweeps_reject_unknown_schemes(capsys, command):
    rc, out, err = run_cli(capsys, *command, "--schemes", "mp,ggsap")
    assert rc == 2
    assert out == ""
    assert "unknown scheme 'ggsap'" in err


@pytest.mark.parametrize("command", [
    ["sweep", "--K", "2", "--M", "3", "--L", "2", "--schemes", ","],
    ["fixed-n-search", "--workers", "30", "--schemes", ""],
])
def test_sweeps_reject_an_empty_scheme_list(capsys, command):
    # a header-only table would read as "no grid fits"
    rc, out, err = run_cli(capsys, *command)
    assert rc == 2
    assert out == ""
    assert "no scheme to sweep" in err


@pytest.mark.parametrize("command", [
    ["sweep", "--K", "1", "--M", "2", "--L", "1", "--t-max", "0", "--schemes", "ggasp,ggasp"],
    ["fixed-n-search", "--workers", "40", "--t-max", "1", "--schemes", "mp,mp"],
])
def test_sweeps_reject_a_repeated_scheme(capsys, command):
    # each row would be printed twice
    rc, out, err = run_cli(capsys, *command)
    assert rc == 2
    assert out == ""
    assert "repeated scheme" in err


@pytest.mark.parametrize("workers, digest", [
    ("200", "4abc1d180fde478a15ed500b4ae91b5de8e33464e829947c9fccb7017330c3ed"),
    ("500", "6714d9a726fd6ab570772a531257649573a245e293e417a0fda2e40caace42ea"),
    ("1000", "a3287239471df4198fa6015a1f7739cb51570d3cdad340f725f9f2afcf5c8764"),
], ids=["200", "500", "1000"])
def test_fixed_n_search_table_is_frozen(capsys, workers, digest):
    # the tables of the exhaustive grid loop the pruned search replaced; the
    # 100-worker table is pinned with the other seeded outputs below
    rc, out, _ = run_cli(capsys, "fixed-n-search", "--workers", workers)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_fixed_n_search_respects_the_budget(capsys):
    rc, out, _ = run_cli(capsys, "fixed-n-search", "--workers", "30",
                         "--t-max", "1", "--m-min", "2", "--json")
    assert rc == 0
    rows = json.loads(out)
    assert rows
    assert all(r["N"] <= 30 for r in rows)
    assert all(Fraction(r["rate"]) <= 1 for r in rows)


@pytest.mark.parametrize("command", [
    ["fixed-n-search", "--workers", "-5"],
    ["fixed-n-search", "--workers", "0"],
    ["fixed-n-search", "--t-max", "-1"],
    ["sweep", "--K", "2", "--M", "3", "--L", "2", "--t-max", "-3"],
])
def test_sweeps_reject_a_malformed_range(capsys, command):
    # a header-only table would read as "no grid fits"
    rc, out, err = run_cli(capsys, *command)
    assert rc == 2
    assert out == ""
    assert err.startswith("error:")


def test_fixed_n_search_rejects_a_zero_minimum(capsys):
    rc, out, err = run_cli(capsys, "fixed-n-search", "--workers", "30",
                           "--t-max", "1", "--k-min", "0")
    assert rc == 2
    assert out == ""
    assert "error:" in err


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
     {"encode": 7104, "worker": 3168, "decode": 29854}, _F961_HASH),
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
    rc, out, _ = run_cli(capsys, *base, "--timing")
    assert rc == 0
    d = json.loads(out)
    assert isinstance(d["wall_time"], float)
    assert set(d["mult_counts"]) == {"encode", "worker", "decode"}
    with pytest.raises(SystemExit) as exc:  # counting is no longer optional
        main([*base, "--no-counts"])
    assert exc.value.code == 2


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


@pytest.mark.parametrize("flag,value", [("--inner", "4"), ("--cols", "3")])
def test_simulate_validates_inner_and_cols_divisibility(capsys, flag, value):
    rc, out, err = run_cli(capsys, "simulate", "--scheme", "mp:K=2,M=3,L=2,T=1",
                           "--field", "31", flag, value)
    assert rc == 2
    assert out == ""
    assert f"{flag} must be divisible" in err


def test_simulate_rejects_a_prime_field_modulus_of_the_wrong_shape(capsys):
    rc, out, err = run_cli(capsys, "simulate", "--scheme", "mp:K=2,M=3,L=2,T=1",
                           "--field", "31/1,2,3")
    assert rc == 2
    assert out == ""
    assert "modulus" in err


def test_simulate_exits_one_when_a_decode_is_wrong(capsys, monkeypatch):
    real = sdmm.protocol.decode

    def wrong_decode(responses, plan, counter=None):
        blocks = real(responses, plan, counter)
        blk = blocks[(0, 0)]
        ones = BlockMatrix([[1] * blk.cols for _ in range(blk.rows)], blk.ctx)
        return {**blocks, (0, 0): blk + ones}

    monkeypatch.setattr(sdmm.protocol, "decode", wrong_decode)
    rc, out, err = run_cli(capsys, "simulate", "--scheme", "mp:K=2,M=3,L=2,T=1",
                           "--field", "31", "--json")
    assert rc == 1
    assert out == ""
    assert "decoded product disagrees" in err


@pytest.mark.parametrize("scheme,count", [
    ("mp:K=2,M=3,L=2,T=1", ["--workers", "5"]),
    ("mp:K=2,M=3,L=2,T=1", ["--workers", "0"]),
    ("mp:K=2,M=3,L=2,T=1", ["--hypernodes", "0"]),
    ("ggasp:K=2,M=3,L=2,T=1", ["--hypernodes", "8"]),
])
def test_simulate_rejects_a_count_the_layout_does_not_take(capsys, scheme, count):
    rc, out, err = run_cli(capsys, "simulate", "--scheme", scheme, "--field", "31",
                           *count)
    assert rc == 2
    assert out == ""
    assert "error:" in err


@pytest.mark.parametrize("command", ["simulate", "p-of-s"])
@pytest.mark.parametrize("flag", ["--rows", "--inner", "--cols"])
def test_zero_matrix_dimensions_are_rejected(capsys, command, flag):
    extra = ["-S", "1", "--mode", "exhaustive"] if command == "p-of-s" else []
    rc, out, err = run_cli(capsys, command, "--scheme", "mp:K=2,M=3,L=2,T=1",
                           "--field", "31", flag, "0", *extra)
    assert rc == 2
    assert out == ""
    assert "matrix dimensions too small" in err


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


def test_search_exhaustion_names_each_field_s_failures(capsys):
    # no gate stops this search, so stderr gives the reasons it ran out
    rc, out, err = run_cli(capsys, "simulate", "--scheme", "ggasp:K=2,M=2,L=2,T=2",
                           "--field", "31", "--workers", "20")
    assert rc == 3 and out == ""
    assert err.splitlines() == [
        "error: no evaluation vector found after 200 attempts",
        "  field 31: 200 attempts, 200 decode failures, 0 security failures"]


def test_find_eval_over_the_minor_budget_exits_three(capsys):
    # the refusal names the budget, not a sampled scan that certifies nothing
    rc, out, err = run_cli(capsys, "find-eval", "--scheme", "mp:K=2,M=3,L=2,T=1",
                           "--field", "31", "--budget", "1")
    assert rc == 3
    assert out == ""
    assert "minor budget" in err and "mode=" not in err


@pytest.mark.parametrize("command", ["find-eval", "simulate", "p-of-s"])
def test_a_refused_minor_scan_names_the_budget_option(capsys, command):
    extra = ["-S", "1", "--mode", "exhaustive"] if command == "p-of-s" else []
    argv = [command, "--scheme", "mp:K=2,M=3,L=2,T=1", "--field", "31", *extra]
    rc, out, err = run_cli(capsys, *argv, "--budget", "1")
    assert rc == 3 and out == ""
    assert "minor budget of 1" in err and "--budget" in err
    # the default is the budget the search used before the option existed
    assert run_cli(capsys, *argv) == run_cli(capsys, *argv, "--budget", "200000")


@pytest.mark.parametrize("argv", [
    ["find-eval", "--scheme", "mp:K=2,M=3,L=2,T=0", "--hypernodes", "3",
     "--max-escalations", "2"],
    ["simulate", "--scheme", "mp:K=2,M=3,L=2,T=0", "--hypernodes", "3"],
    ["find-eval", "--scheme", "ggasp:K=2,M=2,L=2,T=1", "--workers", "4"],
])
def test_a_deployment_too_small_to_decode_exits_two(capsys, argv):
    # fewer points than coefficients is a bad configuration, not a search
    # that ran out of fields
    rc, out, err = run_cli(capsys, *argv, "--field", "31")
    assert rc == 2
    assert out == ""
    assert "cannot determine" in err


def test_find_eval_rejects_a_malformed_subgroup(capsys):
    rc, out, err = run_cli(capsys, "find-eval", "--scheme", "mp:K=2,M=3,L=2,T=0",
                           "--field", "31", "--subgroup", "0")
    assert rc == 2
    assert out == ""
    assert "subgroup" in err


@pytest.mark.parametrize("flag, value", [
    ("--attempts", "0"), ("--max-escalations", "-1"), ("--budget", "0"), ("--budget", "-5")])
def test_find_eval_rejects_malformed_search_options(capsys, flag, value):
    rc, out, err = run_cli(capsys, "find-eval", "--scheme", "mp:K=2,M=3,L=2,T=1",
                           "--field", "31", flag, value)
    assert rc == 2
    assert out == ""
    least = 0 if flag == "--max-escalations" else 1
    assert err == f"error: {flag} must be at least {least}, got {value}\n"


@pytest.mark.parametrize("command", ["simulate", "p-of-s"])
def test_a_budget_below_one_is_named_by_its_flag(capsys, command):
    # the message names the option the user typed, not find_evaluation_vector's
    # parameters; p-of-s's bound mode runs no search and ignores the budget
    extra = ["-S", "1", "--mode", "exhaustive"] if command == "p-of-s" else []
    argv = [command, "--scheme", "mp:K=2,M=3,L=2,T=1", "--field", "31", *extra]
    assert run_cli(capsys, *argv, "--budget", "0") == \
        (2, "", "error: --budget must be at least 1, got 0\n")
    bound = ["p-of-s", "--scheme", "mp:K=2,M=3,L=2,T=0", "-S", "2", "--hypernodes", "8"]
    rc, out, err = run_cli(capsys, *bound, "--budget", "0")
    assert rc == 0 and err == "" and (rc, out, err) == run_cli(capsys, *bound)


@pytest.mark.parametrize("argv, digest", [
    (["--scheme", "mp:K=2,M=3,L=2,T=2", "--field", "61", "--hypernodes", "10",
      "--subgroup", "auto", "--seed", "3"],
     "f52ee9211062459e45cf24318c9cf1d2a60101a2054ca8a31ef1589cab45c5cc"),
    (["--scheme", "mp:K=2,M=3,L=2,T=1", "--field", "13", "--hypernodes", "8",
      "--max-escalations", "1"],
     "a000a9cec0085c5d3c750b5286db6d6c2c178d4c29edec0d32601b8d00c27f47"),
], ids=["gf61-subgroup", "gf13-escalated"])
def test_find_eval_output_is_frozen(capsys, argv, digest):
    # seeded searches through the subgroup draw and through one escalation
    # to GF(13^2) print the same plan, byte for byte
    rc, out, _ = run_cli(capsys, "find-eval", *argv)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# -- frozen seeded outputs -----------------------------------------------------------


@pytest.mark.parametrize("argv, digest", [
    (["sweep", "--K", "2", "--M", "3", "--L", "2", "--t-max", "8"],
     "0c773ba5cdb9ed3ce95044bfc35c160a09f222047cb58a6ef0898a2dd03b8956"),
    (["fixed-n-search", "--workers", "100"],
     "c8eb8241f12abc6bd22361f82b266686fd061758252fc1258ba43b4b05f3915e"),
    (["fixed-n-search", "--workers", "300", "--k-min", "1", "--l-min", "1", "--m-min", "1"],
     "48ecfe13ae9852d10b06c27251d0faae86f03da5851a9cc7a15cb11580243739"),
    (["threshold", "--json", "--scheme", "mp:K=2,M=3,L=2,T=3"],
     "9f2d1e19e2ea85705fb8283980291535a6728d8945e0517d05bf8735e220eeb8"),
    (["threshold", "--json", "--scheme", "ggasp:K=5,M=2,L=5,T=4,r=2"],
     "cebb4abbca4afd269908156698fcab29192b1c57d9e185d3dedbafc4fdbfbfd8"),
    (["threshold", "--json", "--scheme", "explicit:K=1,M=2,L=1,T=0,alpha=,beta="],
     "578fc732b96ca19ac8ddfbee07833f59c34e62f9685b6b065fd5f19a3b766006"),
    (["p-of-s", "--scheme", "mp:K=2,M=3,L=2,T=0", "-S", "5", "--hypernodes", "6"],
     "1a3a081d391f940f77811a0711d64909f3186246730aaea5f5562bc96bd8341f"),
    (["p-of-s", "--scheme", "mp:K=2,M=3,L=2,T=1", "--field", "31", "-S", "3",
      "--mode", "exhaustive"],
     "1f5e5b6c43cee5de94d98c0c0a807e4391b6c68151f6cf7fbba0f98e01992062"),
    (["simulate", "--scheme", "mp:K=2,M=3,L=2,T=1", "--field", "31^2", "--hypernodes", "8",
      "--stragglers", "random:2", "--seed", "1", "--json"],
     "e3cff36adfa8325e43ce6efa75b5cd03b0ec82eeba3f1ff71287795bfcf9bfa9"),
    (["simulate", "--scheme", "ggasp:K=2,M=2,L=2,T=2,r=2", "--field", "7681", "--workers", "20",
      "--stragglers", "random:2", "--seed", "1", "--json"],
     "f09319bd99975edf248fbd4cd0f5afad023ac85f6c9127b18f3bdc6a327bab02"),
    # text forms: one key: value line per key, in the report's field order,
    # with V before S_ell, None fields and simulate's plan left out
    (["threshold", "--scheme", "ggasp:K=5,M=2,L=5,T=4,r=2"],
     "d15014c538d3209c7cb7db0874fe95bef8d27f83d545d26baa22d5fae5d3f8b1"),
    (["threshold", "--scheme", "mp:K=2,M=3,L=2,T=3"],
     "a34d09c31ff0c7c799d3ebdc6871f63256b2cedc24a3f1f5ab5a6b8f9bcebd9b"),
    (["simulate", "--scheme", "mp:K=2,M=3,L=2,T=1", "--field", "31^2", "--hypernodes", "8",
      "--stragglers", "random:2", "--seed", "1"],
     "43118620108a8f69244428a88bc2b16c17255d4cef9514c321eafc0de85a587c"),
    # a degree-3 extension, and the sampled p-of-s (p = 73/75)
    (["simulate", "--scheme", "mp:K=2,M=3,L=2,T=1", "--field", "7^3", "--hypernodes", "8",
      "--stragglers", "random:2", "--seed", "1", "--json"],
     "eb3cfc9b47589913bb5f92d2977e836eea343e94988ea90532d200f3234b6827"),
    (["p-of-s", "--scheme", "mp:K=2,M=3,L=2,T=1", "--field", "31", "--hypernodes", "9",
      "-S", "5", "--mode", "mc", "--samples", "300", "--seed", "1"],
     "15ea792541f8f6ef22834e1a15f2ae99b747f2a2b842110cebcdc7bb7620ba1b"),
], ids=["sweep", "fixed-n-search", "fixed-n-search-minima-1", "threshold-mp",
        "threshold-ggasp", "threshold-explicit-t0", "p-of-s-bound", "p-of-s-exhaustive",
        "simulate-31sq", "simulate-flat", "threshold-ggasp-text", "threshold-mp-text",
        "simulate-31sq-text", "simulate-7cube", "p-of-s-mc"])
def test_seeded_cli_output_is_frozen(capsys, argv, digest):
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# -- p-of-s -----------------------------------------------------------------------


def test_p_of_s_bound_mode(capsys):
    rc, out, _ = run_cli(capsys, "p-of-s", "--scheme", "mp:K=2,M=3,L=2,T=0",
                         "-S", "5", "--hypernodes", "6")
    assert rc == 0
    d = json.loads(out)
    assert d["mode"] == "bound"
    assert Fraction(d["p_of_s"]) == Fraction(5, 476)
    assert abs(d["decimal"] - 0.0105) < 5e-5


def test_p_of_s_bound_mode_rejects_zero_hypernodes(capsys):
    rc, out, err = run_cli(capsys, "p-of-s", "--scheme", "mp:K=2,M=3,L=2,T=0",
                           "-S", "0", "--hypernodes", "0")
    assert rc == 2
    assert out == ""
    assert "P >= 1" in err


@pytest.mark.parametrize("scheme", ["mp:K=2,M=3,L=2,T=1", "ggasp:K=2,M=3,L=2,T=0"])
def test_p_of_s_bound_mode_is_for_noise_free_mp_only(capsys, scheme):
    # the exhaustive decode of the T=1 deployment below over GF(31) gives
    # 1/253, which the hypernode count would put at 1
    rc, out, err = run_cli(capsys, "p-of-s", "--scheme", scheme,
                           "-S", "3", "--hypernodes", "8")
    assert rc == 2
    assert out == ""
    assert "bound" in err


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


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_p_of_s_sampling_needs_a_positive_sample_count(capsys, samples):
    rc, out, err = run_cli(capsys, "p-of-s", "--scheme", "mp:K=2,M=3,L=2,T=1",
                           "--field", "31", "-S", "2", "--mode", "mc",
                           "--samples", samples)
    assert rc == 2
    assert out == ""
    assert "sampl" in err


# -- verify-examples ---------------------------------------------------------------


def test_verify_examples_all_pass(capsys):
    rc, out, _ = run_cli(capsys, "verify-examples")
    assert rc == 0
    assert "FAIL" not in out
    assert "checks passed" in out
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "042331c9bef0420b24b5bd26a278f7dab83613822268d39d91180abb9b870733")


def test_verify_examples_category_filter(capsys):
    rc, out, _ = run_cli(capsys, "verify-examples", "--only", "field")
    assert rc == 0
    want = [f"PASS [field] {name}" for cat, name, _ in EXAMPLES if cat == "field"]
    assert len(want) == 5
    assert out.splitlines() == want + ["5/5 checks passed"]


def test_verify_examples_reports_a_failing_check(capsys, monkeypatch):
    monkeypatch.setattr("sdmm.cli.EXAMPLES", [("field", "holds", lambda: None),
                                              ("field", "breaks", lambda: "got 3")])
    rc, out, _ = run_cli(capsys, "verify-examples")
    assert rc == 1
    assert out.splitlines() == ["PASS [field] holds", "FAIL [field] breaks: got 3",
                                "1/2 checks passed"]


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


def test_config_file_blank_and_comment_lines_give_the_typed_flags_bytes(capsys, tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("# a small sweep\n\nK=2\n   \nM=3\nL=2\n# t-max=9\nt-max=2\n")
    rc_file, from_file, _ = run_cli(capsys, "sweep", "--config", str(cfg))
    rc_typed, typed, _ = run_cli(capsys, "sweep", "--K", "2", "--M", "3", "--L", "2",
                                 "--t-max", "2")
    assert rc_file == rc_typed == 0
    assert from_file == typed and "# config=sha256:" in typed


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--config"], "argument --config: expected one argument"),
    (["--config", "CFG"], "error: a subcommand must come before --config"),
    (["--config", "CFG", "sweep"], "error: a subcommand must come before --config"),
], ids=["no-path", "no-subcommand", "subcommand-after-config"])
def test_config_without_a_path_or_a_subcommand_is_an_argparse_error(capsys, tmp_path,
                                                                     argv, message):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("K=2\n")
    with pytest.raises(SystemExit) as exit_info:
        main([str(cfg) if a == "CFG" else a for a in argv])
    err = capsys.readouterr().err
    assert exit_info.value.code == 2
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("case, message", [
    ("missing-config", "cannot read config file"),
    ("empty-key", "empty key"),
    ("out-is-a-directory", "cannot write"),
])
def test_unreadable_config_and_unwritable_output_exit_2(capsys, tmp_path, case, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("=5\n")
    extra = {"missing-config": ["--config", str(tmp_path / "absent.cfg")],
             "empty-key": ["--config", str(cfg)],
             "out-is-a-directory": ["--out", str(tmp_path)]}[case]
    rc, out, err = run_cli(capsys, "threshold", "--scheme", "mp:K=2,M=3,L=2,T=3", *extra)
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and message in err


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
