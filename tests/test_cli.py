import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkod.cli import main
from gkod.oracle import ORACLE_TARGETS

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = GOLDEN_DIR / "table1.txt"


def test_table1_matches_golden_bytes(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == GOLDEN.read_bytes()


@pytest.mark.parametrize("family,param", [
    ("S4", 31), ("U3", 27), ("G2", 11), ("U4", 31)])
def test_verify_json_matches_golden_bytes(capsys, family, param):
    assert main(["verify", family, str(param), "--json"]) == 0
    out = capsys.readouterr().out
    golden = GOLDEN_DIR / f"verify_{family}_{param}.json"
    assert out.encode("utf-8") == golden.read_bytes()


GRAPH_GOLDEN_GROUPS = [("S4", "31"), ("U3", "27"), ("G2", "11"), ("U4", "31"),
                       ("L2", "37"), ("A", "40")]


@pytest.mark.parametrize("family,param", GRAPH_GOLDEN_GROUPS)
@pytest.mark.parametrize("mode,suffix", [(None, "txt"), ("--dot", "dot"),
                                         ("--json", "json")])
def test_graph_matches_golden_bytes(capsys, family, param, mode, suffix):
    argv = ["graph", family, param] + ([mode] if mode else [])
    assert main(argv) == 0
    out = capsys.readouterr().out
    golden = GOLDEN_DIR / f"graph_{family}_{param}.{suffix}"
    assert out.encode("utf-8") == golden.read_bytes()


def test_graph_dot_output(capsys):
    assert main(["graph", "U3", "27", "--dot"]) == 0
    out = capsys.readouterr().out
    assert "  19 -- 37;\n" in out
    assert out.startswith("graph GK {\n")
    assert out.count(" -- ") == 6


def test_graph_text_output(capsys):
    assert main(["graph", "S4", "31"]) == 0
    out = capsys.readouterr().out
    assert "D = (3, 3, 3, 1, 3, 1)" in out
    assert "component 2: {13, 37}" in out


def test_graph_json_output(capsys):
    assert main(["graph", "U4", "31", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["group"] == "U4(31)"
    assert data["degree_pattern"]["degrees"] == [5, 5, 5, 2, 3, 2, 3, 3]
    assert len(data["order_components"]["components"]) == 1


def test_spectrum_text(capsys):
    assert main(["spectrum", "S4", "31"]) == 0
    assert "{480, 481, 930, 992}" in capsys.readouterr().out


def test_spectrum_json(capsys):
    assert main(["spectrum", "U3", "27", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"group": "U3(27)", "mu": [84, 703, 728],
                    "source": "formula"}


def test_spectrum_field_size_above_old_sieve_bound(capsys):
    # q = 100003^2: the characteristic is above the 10^5 trial-division bound
    assert main(["spectrum", "L2", "10000600009"]) == 0
    assert "{100003, 5000300004, 5000300005}" in capsys.readouterr().out


def test_spectrum_field_size_psi_12_is_not_a_prime_power(capsys):
    # 318665857834031151167461 = 399165290221 * 798330580441 passes a
    # Miller-Rabin test to the 12 prime bases 2..37
    assert main(["spectrum", "L2", "318665857834031151167461"]) == 1
    assert "not a prime power" in capsys.readouterr().err


def test_spectrum_field_size_psi_13_is_not_a_prime_power(capsys):
    # 3317044064679887385961981 = 1287836182261 * 2575672364521 passes a
    # Miller-Rabin test to the 13 prime bases 2..41
    assert main(["spectrum", "L2", "3317044064679887385961981"]) == 1
    assert "not a prime power" in capsys.readouterr().err


def test_spectrum_not_implemented_is_domain_error(capsys):
    assert main(["spectrum", "2G2", "27"]) == 1
    err = capsys.readouterr().err
    assert "2G2" in err


def test_verify_json(capsys):
    assert main(["verify", "S4", "31", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "verified"
    assert data["alternatives"]["count"] == 12
    assert data["forced"] == {"all_equal_gk": True, "count": 1}


def test_verify_text_all_groups(capsys):
    for fam, q in (("S4", "31"), ("U3", "27"), ("G2", "11"), ("U4", "31")):
        assert main(["verify", fam, q]) == 0
        assert "verdict verified" in capsys.readouterr().out


def test_verify_unconfigured_group(capsys):
    assert main(["verify", "L2", "37"]) == 1
    assert "case configuration" in capsys.readouterr().err


def test_enumerate_json(capsys):
    assert main(["enumerate", "--max-prime", "37", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["count"] == 13
    assert data["agrees_with_published"] is True
    assert "L2(1331)" in data["groups"]
    assert data["complete"] is True
    assert any("Zsigmondy" in fact for fact in data["assumed_facts"])


def test_enumerate_json_incomplete_above_characteristic_bound(capsys):
    assert main(["enumerate", "--max-prime", "41", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["complete"] is False
    assert "agrees_with_published" not in data


def test_enumerate_p5(capsys):
    assert main(["enumerate", "--max-prime", "5"]) == 0
    out = capsys.readouterr().out
    assert "A5" in out and "U4(2)" in out and "A6" in out


@pytest.mark.parametrize("flags", [["--caps", "f"], ["--show-caps"]],
                         ids=["caps", "show-caps"])
def test_enumerate_caps_flags_are_usage_errors(flags, capsys):
    with pytest.raises(SystemExit) as err:
        main(["enumerate"] + flags)
    assert err.value.code == 2
    err_text = capsys.readouterr().err
    assert err_text.startswith("usage: gk ") and "unrecognized arguments" in err_text


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["bogus-subcommand"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


@pytest.mark.parametrize("argv,message", [
    (["spectrum", "A", "x"], "invalid int value: 'x'"),
    (["enumerate", "--max-prime", "4"], "'4' is not a prime"),
])
def test_bad_argument_is_usage_error(argv, message, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    err_text = capsys.readouterr().err
    assert err_text.startswith("usage: gk ") and message in err_text
    assert "Traceback" not in err_text


def test_unknown_family_selector(capsys):
    assert main(["spectrum", "X4", "31"]) == 1
    assert "unknown family" in capsys.readouterr().err
    assert main(["graph", "L7x", "5"]) == 1
    assert capsys.readouterr().err == "gk: unknown family selector 'L7x'\n"
    # a known family with a negative parameter reaches its own range check
    assert main(["spectrum", "Alt", "-5"]) == 1
    assert capsys.readouterr().err == (
        "gk: alternating groups require degree n >= 5\n")
    assert main(["graph", "L2", "-5"]) == 1
    assert capsys.readouterr().err == "gk: q = -5 is not a prime power\n"


def test_oracle_small_target(capsys):
    assert main(["oracle", "SL2_5"]) == 0
    out = capsys.readouterr().out
    assert "enumerated 120" in out and "match: True" in out


def test_oracle_alternating_target(capsys):
    assert main(["oracle", "A6"]) == 0
    out = capsys.readouterr().out
    assert "match: True" in out


def test_oracle_heavy_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "SP4_5", "--heavy"])
    assert exc.value.code == 2
    assert "--heavy" in capsys.readouterr().err


def test_oracle_sl2_37_needs_no_heavy(capsys):
    assert main(["oracle", "SL2_37"]) == 0
    out = capsys.readouterr().out
    assert "enumerated 50616" in out and "match: True" in out


def test_oracle_unknown_target(capsys):
    assert main(["oracle", "SL3_3"]) == 1
    assert "unknown oracle target" in capsys.readouterr().err


def test_oracle_help_and_unknown_target_lists_the_targets(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--help"])
    assert exc.value.code == 0
    assert "usage: gk oracle" in capsys.readouterr().out
    # A4, A05 and A11 look like alternating targets but are not registered
    for name in ("nosuch", "A4", "A05", "A11"):
        assert main(["oracle", name]) == 1
        err = capsys.readouterr().err
        assert f"unknown oracle target '{name}'" in err
        named = err.split("(known: ")[1].rstrip(")\n").split(", ")
        assert named == list(ORACLE_TARGETS)


_IMPORT_PROBE = """
import contextlib, io, json, sys
from gkod.cli import main
loaded = {}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        status = main(argv)
    loaded[" ".join(argv)] = [status, sorted(m for m in sys.modules
                                             if m.split(".")[0] == "numpy")]
print(json.dumps(loaded))
"""


def _modules_after(argvs):
    """Exit status and loaded numpy modules after each of argvs, run in
    order by main() in one fresh interpreter."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, json.dumps(argvs)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def test_commands_other_than_oracle_start_without_numpy():
    loaded = _modules_after([
        ["table1"], ["spectrum", "U3", "27"], ["graph", "S4", "31", "--json"],
        ["enumerate", "--max-prime", "37"], ["verify", "G2", "11", "--json"]])
    assert loaded == {cmd: [0, []] for cmd in loaded}


def test_oracle_runs_without_numpy_ma():
    """np.unique imports numpy.ma on its first call, 14 ms in a fresh
    process; the oracle does without it."""
    loaded = _modules_after([["oracle", "SL2_5"], ["oracle", "A6"]])
    for status, modules in loaded.values():
        assert status == 0 and "numpy" in modules
        assert "numpy.ma" not in modules


def test_gk_seed_env(monkeypatch, capsys):
    monkeypatch.setenv("GK_SEED", "0xBEEF")
    assert main(["oracle", "SL2_4"]) == 0
    assert "match: True" in capsys.readouterr().out
    monkeypatch.setenv("GK_SEED", "12345")
    assert main(["oracle", "SL2_4"]) == 0
    capsys.readouterr()
    monkeypatch.setenv("GK_SEED", "not-a-seed")
    assert main(["oracle", "SL2_4"]) == 1
    assert "GK_SEED" in capsys.readouterr().err


def test_graph_a100_is_fast(capsys):
    start = time.perf_counter()
    assert main(["graph", "A", "100"]) == 0
    assert time.perf_counter() - start < 3
    assert capsys.readouterr().out


def test_graph_order_beyond_factor_bound_is_domain_error(capsys):
    # |U4(2003)| has a prime factor above the order factorization bound
    assert main(["graph", "U4", "2003"]) == 1
    assert "factor" in capsys.readouterr().err


_FAMILIES = ("A", "Alt", "L2", "L3", "U3", "U4", "S4", "S6", "G2", "2G2",
             "2B2", "O+8", "E8", "X4")
_PARAMS = st.one_of(st.integers(-3, 2100).map(str),
                    st.sampled_from(["x", "", "3.5", "0x1f"]))


@st.composite
def _argv(draw):
    cmd = draw(st.sampled_from(
        ("table1", "spectrum", "graph", "enumerate", "verify")))
    if cmd == "table1":
        return [cmd]
    if cmd == "enumerate":
        argv = [cmd]
        if draw(st.booleans()):
            argv += ["--max-prime", draw(st.sampled_from(
                ("2", "3", "5", "7", "13", "37", "53", "97",
                 "4", "1", "0", "-5", "x")))]
        return argv + (["--json"] if draw(st.booleans()) else [])
    argv = [cmd, draw(st.sampled_from(_FAMILIES)), draw(_PARAMS)]
    choices = ("--json", "--dot") if cmd == "graph" else ("--json",)
    return argv + sorted(draw(st.sets(st.sampled_from(choices))))


@settings(max_examples=200, deadline=None)
@given(_argv())
def test_cli_fuzz_exit_status_and_no_traceback(argv):
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
    assert status in (0, 1, 2), (argv, status)
    assert "Traceback" not in err.getvalue(), argv
