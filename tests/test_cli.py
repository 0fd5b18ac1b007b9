import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkod.cli import _seed, main
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
    (["enumerate", "--max-prime", "10007"],
     "10007 is above 10000, the largest supported bound"),
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


def _oracle_golden():
    """The stdout of `gk oracle <name>` at the default seed, by name: four
    lines a target in tests/golden/oracle.txt, the first naming it."""
    lines = (GOLDEN_DIR / "oracle.txt").read_bytes().splitlines(keepends=True)
    return {lines[i].split(b":")[0].decode(): b"".join(lines[i:i + 4])
            for i in range(0, len(lines), 4)}


ORACLE_GOLDEN = _oracle_golden()


def test_oracle_golden_covers_every_target():
    assert tuple(ORACLE_GOLDEN) == ORACLE_TARGETS


@pytest.mark.parametrize("name", ORACLE_TARGETS)
def test_oracle_matches_golden_bytes(capsys, monkeypatch, cached_oracle, name):
    monkeypatch.delenv("GK_SEED", raising=False)
    assert main(["oracle", name]) == 0
    assert capsys.readouterr().out.encode("utf-8") == ORACLE_GOLDEN[name]


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


SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def _fresh(*args):
    """Run `python -W error -X importtime *args` in a fresh interpreter
    with gkod from src/ and GK_SEED unset: its stdout, its stderr without
    the import-time lines, and every module it imported."""
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    env.pop("GK_SEED", None)
    run = subprocess.run([sys.executable, "-W", "error", "-X", "importtime", *args],
                         env=env, capture_output=True, timeout=120)
    imported, err = set(), []
    for line in run.stderr.decode().splitlines(keepends=True):
        if line.startswith("import time:"):
            imported.add(line.rsplit("|", 1)[1].strip())
        else:
            err.append(line)
    assert run.returncode == 0, "".join(err)
    return run.stdout, "".join(err), imported


def _gkod_modules(imported):
    return {m for m in imported if m.split(".")[0] == "gkod"} - {"gkod.data"}


# every command loads gkod, arith and catalog (main's error boundary names
# catalog.ParameterError alone), then the layers of its own; every command
# but enumerate runs spectra, and numpy loads for the oracle alone
_BASE = {"gkod", "gkod.arith", "gkod.catalog"}
_COMMANDS = [
    (["table1"], GOLDEN.read_bytes(),
     {"gkod.spectra", "gkod.graph", "gkod.verifier"}),
    (["graph", "U4", "31", "--json"], (GOLDEN_DIR / "graph_U4_31.json").read_bytes(),
     {"gkod.spectra", "gkod.graph"}),
    (["graph", "U3", "27", "--dot"], (GOLDEN_DIR / "graph_U3_27.dot").read_bytes(),
     {"gkod.spectra", "gkod.graph"}),
    (["verify", "G2", "11", "--json"], (GOLDEN_DIR / "verify_G2_11.json").read_bytes(),
     {"gkod.spectra", "gkod.graph", "gkod.verifier"}),
    (["enumerate", "--max-prime", "37", "--json"], None, set()),
    (["spectrum", "A", "38", "--json"], None, {"gkod.spectra"}),
    (["oracle", "SL2_5"], ORACLE_GOLDEN["SL2_5"], {"gkod.spectra", "gkod.oracle"}),
    (["oracle", "A6"], ORACLE_GOLDEN["A6"], {"gkod.spectra", "gkod.oracle"}),
]


@pytest.mark.parametrize("argv,golden,layers", _COMMANDS,
                         ids=[" ".join(c[0]) for c in _COMMANDS])
def test_command_in_a_fresh_process(argv, golden, layers, capsys):
    """In-process tests share sys.modules, so a handler that forgot one of
    its imports would pass them; here each command starts from nothing.
    Its stdout is the golden file's (or, without one, in-process main's),
    it writes nothing to stderr (the tests' filterwarnings does not reach
    a subprocess, -W error does) and it loads only its own layers.  np.unique
    would import numpy.ma, 14 ms in a fresh process; the oracle does
    without it."""
    out, err, imported = _fresh("-m", "gkod.cli", *argv)
    if golden is None:
        assert main(argv) == 0
        golden = capsys.readouterr().out.encode("utf-8")
    assert out == golden
    assert err == ""
    assert _gkod_modules(imported) == _BASE | layers
    assert ("numpy" in imported) == (argv[0] == "oracle")
    assert "numpy.ma" not in imported


_PASSRUN_SETUP = ("import gkod, gkod.cli; gkod.sporadic_order('M11'); "
                  "gkod.canonicalize(gkod.GroupId('L', n=2, q=4))")


@pytest.mark.parametrize("code,modules", [
    ("import gkod", {"gkod"}),
    (_PASSRUN_SETUP, {"gkod", "gkod.arith", "gkod.catalog", "gkod.cli"}),
], ids=["import gkod", "gk setup"])
def test_start_up_loads_no_layer_it_does_not_run(code, modules):
    """`import gkod` loads no submodule; the start-up that every gk command
    pays (bench/passrun.py's setup step: import gkod.cli, then the first
    data-table load) loads arith and catalog alone, without numpy."""
    out, err, imported = _fresh("-c", code)
    assert out == b"" and err == ""
    assert _gkod_modules(imported) == modules
    assert "numpy" not in imported


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


@pytest.mark.parametrize("raw,seed", [
    ("012", 12), ("007", 7), ("-0x1f", -31), ("+0XbeEF", 0xBEEF), ("-1", -1)])
def test_gk_seed_is_signed_decimal_or_hex(raw, seed, monkeypatch):
    monkeypatch.setenv("GK_SEED", raw)
    assert _seed() == seed


@pytest.mark.parametrize("raw", ["0b11", "0o7", "0x", "", "-", " 12", "1_000", "١٢"])
def test_gk_seed_rejects_other_forms(raw, monkeypatch, capsys):
    monkeypatch.setenv("GK_SEED", raw)
    assert main(["oracle", "SL2_4"]) == 1
    assert capsys.readouterr().err == (
        f"gk: GK_SEED must be decimal or 0x-hex, got {raw!r}\n")


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
# unknown names, some shaped like registered ones, and two cheap targets
_ORACLE_NAMES = ("", "SL2_3", "A4", "A11", "x", "SL2_4", "A5")
# unset, malformed, negative and zero-padded decimal
_GK_SEEDS = (None, "0x", "-1", "012")


@st.composite
def _argv(draw):
    cmd = draw(st.sampled_from(
        ("table1", "spectrum", "graph", "enumerate", "verify", "oracle")))
    if cmd == "table1":
        return [cmd]
    if cmd == "oracle":
        return [cmd, draw(st.sampled_from(_ORACLE_NAMES))]
    if cmd == "enumerate":
        argv = [cmd]
        if draw(st.booleans()):
            argv += ["--max-prime", draw(st.sampled_from(
                ("2", "3", "5", "7", "13", "37", "53", "97",
                 "4", "1", "0", "-5", "x", "10007")))]
        return argv + (["--json"] if draw(st.booleans()) else [])
    argv = [cmd, draw(st.sampled_from(_FAMILIES)), draw(_PARAMS)]
    choices = ("--json", "--dot") if cmd == "graph" else ("--json",)
    return argv + sorted(draw(st.sets(st.sampled_from(choices))))


def _assert_exit_status_without_traceback(argv, gk_seed):
    err = io.StringIO()
    with mock.patch.dict(os.environ), redirect_stdout(io.StringIO()), \
            redirect_stderr(err):
        os.environ.pop("GK_SEED", None)
        if gk_seed is not None:
            os.environ["GK_SEED"] = gk_seed
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
    assert status in (0, 1, 2), (argv, gk_seed, status)
    assert "Traceback" not in err.getvalue(), (argv, gk_seed)


@settings(max_examples=240, deadline=None)
@given(_argv(), st.sampled_from(_GK_SEEDS))
def test_cli_fuzz_exit_status_and_no_traceback(argv, gk_seed):
    _assert_exit_status_without_traceback(argv, gk_seed)


@pytest.mark.parametrize("gk_seed", _GK_SEEDS)
@pytest.mark.parametrize("name", _ORACLE_NAMES)
def test_oracle_grammar_exit_status_and_no_traceback(name, gk_seed):
    """Every oracle case of the fuzz grammar, each seed with each name."""
    _assert_exit_status_without_traceback(["oracle", name], gk_seed)
