"""Exit codes, output formats, and determinism of the command-line surface.

Every test but the last three runs `cli.main` in-process, through the
`run_cli` fixture of conftest.py; those three run `python -m etacert.cli`.
"""

import json
import os
import subprocess
import sys
import tracemalloc

import pytest

from etacert import (
    DEFAULT_ORDER_CAP, EtaQuotientSpec, TruncatedSeries, cli, dissect, expand_eta_quotient,
    finite_check, pipelines, reduce_mod, series,
)


class TestExpand:
    def test_b_sequence_text(self, run_cli):
        assert run_cli("expand", "--spec", "1:-3,2:1", "--order", "10") == (
            0, "1,3,8,19,41,83,161,299,538,942,1610\n", "")

    def test_pentagonal_signs(self, run_cli):
        assert run_cli("expand", "--spec", "1:1", "--order", "12") == (
            0, "1,-1,-1,0,0,1,0,1,0,0,0,0,-1\n", "")

    def test_zero_exponent_is_constant_one(self, run_cli):
        assert run_cli("expand", "--spec", "1:0", "--order", "5") == (0, "1,0,0,0,0,0\n", "")

    def test_mod_reduction_and_json(self, run_cli):
        code, out, _ = run_cli("expand", "--spec", "1:-3,2:1", "--order", "6", "--mod", "5",
                               "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["coeffs"] == ["1", "3", "3", "4", "1", "3", "1"]
        assert data["order"] == 6 and data["modulus"] == 5

    def test_mod_below_two_exits_64(self, run_cli):
        assert run_cli("expand", "--spec", "1:-3,2:1", "--order", "6", "--mod", "1") == (
            64, "", "etacert: modulus must be >= 2, got 1\n")

    def test_parse_error_exits_64(self, run_cli):
        code, out, err = run_cli("expand", "--spec", "1:x", "--order", "5")
        assert (code, out) == (64, "")
        assert "position" in err

    def test_order_cap_env(self, run_cli, monkeypatch):
        monkeypatch.setenv("ETA_CERT_ORDER_CAP", "10")
        assert run_cli("expand", "--spec", "1:1", "--order", "50") == (
            65, "", "etacert: order 50 exceeds cap 10\n")

    def test_non_integer_order_cap_env_exits_64(self, run_cli, monkeypatch):
        monkeypatch.setenv("ETA_CERT_ORDER_CAP", "5e3")

        def refuse(*args, **kwargs):
            raise AssertionError("expanded before the cap was read")

        monkeypatch.setattr(cli, "expand_eta_quotient", refuse)
        assert run_cli("expand", "--spec", "1:1", "--order", "5") == (
            64, "", "etacert: ETA_CERT_ORDER_CAP must be an integer, got '5e3'\n")

    def test_parser_reused_across_calls(self, run_cli):
        # main builds the parser once and reuses it, also after a usage error
        cli._build_parser.cache_clear()
        argv = ["expand", "--spec", "1:-3,4:2", "--order", "200"]
        first = run_cli(*argv)
        code, out, err = run_cli("expand", "--spec", "1:1")
        assert (code, out) == (64, "")
        assert err.endswith("error: the following arguments are required: --order\n")
        assert run_cli(*argv) == first
        assert first.code == 0 and first.out.startswith("1,")
        assert cli._build_parser.cache_info().misses == 1


class TestDissect:
    def test_cube_classes(self, run_cli):
        code, out, _ = run_cli("dissect", "--spec", "1:3", "--m", "5", "--mod", "5",
                               "--order", "100")
        assert code == 0
        lines = out.splitlines()
        assert lines[2] == "class 2: nonzero=0 zero_mod_5=yes"
        assert lines[3].startswith("class 3:") and lines[3].endswith("zero_mod_5=yes")
        assert lines[4] == "class 4: nonzero=0 zero_mod_5=yes"
        assert lines[0].endswith("zero_mod_5=no")

    def test_doubled_cube_classes(self, run_cli):
        code, out, _ = run_cli("dissect", "--spec", "2:3", "--m", "5", "--mod", "5",
                               "--order", "100")
        assert code == 0
        assert out.splitlines()[1].endswith("zero_mod_5=yes")  # class 1 vanishes mod 5

    def test_constant_spec(self, run_cli):
        assert run_cli("dissect", "--spec", "1:0", "--m", "3", "--order", "9") == (
            0, "class 0: nonzero=1 first=q^0\nclass 1: nonzero=0\nclass 2: nonzero=0\n", "")

    def test_json_format(self, run_cli):
        code, out, _ = run_cli("dissect", "--spec", "1:3", "--m", "5", "--mod", "5",
                               "--order", "60", "--format", "json")
        assert code == 0
        assert [c["zero_mod"] for c in json.loads(out)["classes"]] == [
            False, False, True, True, True]


def _reference_dissect_classes(spec, m, order, mod):
    """Per-class summaries built from the full-length classes of the library `dissect`."""
    split = dissect(expand_eta_quotient(EtaQuotientSpec.from_string(spec), order), m)
    classes = []
    for i, cls in enumerate(split):
        support = cls.support()
        entry = {"residue": i, "nonzero_terms": len(support),
                 "first_exponent": support[0] if support else None}
        if mod is not None:
            entry["zero_mod"] = reduce_mod(cls, mod).is_zero() if support else True
        classes.append(entry)
    return classes


class TestDissectSummary:
    CASES = [
        ("1:4,2:1", 5, 200, 5),
        ("1:4,2:1", 49, 600, 7),
        ("1:-3,2:1", 7, 300, None),
        ("1:3", 13, 12, 5),  # m = order + 1
        ("1:3", 40, 10, 5),  # m > order + 1: classes past the order are empty
        ("1:-3,2:1", 9, 0, 3),
        ("1:0", 1, 20, 2),
    ]

    @pytest.mark.parametrize("spec,m,order,mod", CASES)
    def test_matches_full_classes(self, spec, m, order, mod, run_cli):
        argv = ["dissect", "--spec", spec, "--m", m, "--order", order]
        if mod is not None:
            argv += ["--mod", mod]
        classes = _reference_dissect_classes(spec, m, order, mod)
        lines = []
        for entry in classes:
            line = f"class {entry['residue']}: nonzero={entry['nonzero_terms']}"
            if entry["first_exponent"] is not None:
                line += f" first=q^{entry['first_exponent']}"
            if mod is not None:
                line += f" zero_mod_{mod}={'yes' if entry['zero_mod'] else 'no'}"
            lines.append(line + "\n")
        assert run_cli(*argv) == (0, "".join(lines), "")
        spec_text = EtaQuotientSpec.from_string(spec).to_spec_string()
        payload = {"spec": spec_text, "m": m, "order": order, "modulus": mod, "classes": classes}
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        assert run_cli(*argv, "--format", "json") == (0, text, "")

    @pytest.mark.parametrize("mod", ["1", "0", "-5"])
    def test_mod_below_two_exits_64(self, mod, run_cli, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("expanded before the --mod check")

        monkeypatch.setattr(cli, "expand_eta_quotient", refuse)
        assert run_cli("dissect", "--spec", "1:3", "--m", "5", "--order", "20", "--mod", mod) == (
            64, "", f"etacert: modulus must be >= 2, got {mod}\n")

    @pytest.mark.parametrize("m", [0, 51, 10**6])
    def test_m_outside_cap_exits_64_before_expanding(self, m, run_cli, monkeypatch):
        monkeypatch.setenv("ETA_CERT_ORDER_CAP", "50")

        def refuse(*args, **kwargs):
            raise AssertionError("expanded before the --m check")

        monkeypatch.setattr(cli, "expand_eta_quotient", refuse)
        assert run_cli("dissect", "--spec", "1:3", "--m", m, "--order", "10") == (
            64, "", f"etacert: dissection modulus must be in 1..50, got {m}\n")

    def test_m_at_cap_runs(self, run_cli, monkeypatch):
        monkeypatch.setenv("ETA_CERT_ORDER_CAP", "50")
        code, out, err = run_cli("dissect", "--spec", "1:3", "--m", "50", "--order", "10",
                                 "--mod", "5")
        lines = out.splitlines()
        assert (code, err, len(lines)) == (0, "", 50)
        assert lines[0] == "class 0: nonzero=1 first=q^0 zero_mod_5=no"
        assert lines[49] == "class 49: nonzero=0 zero_mod_5=yes"

    def test_m_above_a_raised_env_cap_exits_64(self, run_cli, monkeypatch):
        monkeypatch.setenv("ETA_CERT_ORDER_CAP", "999999")
        assert run_cli("dissect", "--spec", "1:3", "--m", "1000000", "--order", "10") == (
            64, "", "etacert: dissection modulus must be in 1..999999, got 1000000\n")

    def test_peak_memory_independent_of_m(self, run_cli):
        # m full-length classes would take about 60 MiB here
        tracemalloc.start()
        try:
            code, _, _ = run_cli("dissect", "--spec", "1:4,2:1", "--m", "400",
                                 "--order", "10000", "--mod", "5")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 8 * 2**20


class TestCertify:
    MOD25 = ["certify", "--m", "125", "--M", "10", "--N", "10", "--t", "99",
             "--r", "1:22,2:1,5:-5", "--rprime", "1:13", "--mod", "25"]

    def test_verified_instance(self, tmp_path, run_cli):
        out = tmp_path / "cert.json"
        assert run_cli(*self.MOD25, "--output", out) == (0, "", "")
        data = json.loads(out.read_text())
        assert data["status"] == "verified"
        assert data["v"]["floor"] == 21
        assert data["p_set"] == [99]

    def test_t47_instance(self, run_cli):
        code, out, _ = run_cli("certify", "--m", "49", "--M", "14", "--N", "14", "--t", "47",
                               "--r", "1:4,2:1,7:-1", "--rprime", "1:3", "--mod", "7")
        assert code == 0
        assert json.loads(out)["p_set"] == [47]

    def test_counterexample_exit_3(self, run_cli):
        code, out, _ = run_cli("certify", "--m", "125", "--M", "10", "--N", "10", "--t", "98",
                               "--r", "1:22,2:1,5:-5", "--rprime", "1:13", "--mod", "25")
        assert code == 3
        assert json.loads(out)["status"] == "counterexample"

    def test_hypothesis_violation_exit_2(self, run_cli):
        code, out, _ = run_cli("certify", "--m", "1", "--M", "1", "--N", "1", "--t", "0",
                               "--r", "1:-1", "--rprime", "1:0", "--mod", "2")
        assert code == 2
        assert json.loads(out)["status"] == "hypothesis_violation"

    def test_delta_star_violation_exit_2(self, run_cli):
        # f7^2 has c(7) = -2, so c(2n + 1) == 0 (mod 3) is false; its scan to
        # n = 0 is clean, and the tuple fails conditions 1, 3, 4 and 5 of Delta*
        code, out, err = run_cli("certify", "--m", "2", "--M", "7", "--N", "7", "--t", "1",
                                 "--r", "7:2", "--rprime", "1:0", "--mod", "3")
        assert (code, err) == (2, "")
        data = json.loads(out)
        assert (data["status"], data["checked_upto"]) == ("hypothesis_violation", 0)
        assert data["witness"] == {"delta_star_conditions": [1, 3, 4, 5]}

    def test_negative_v_floor_exit_3_and_negative_check_upto_exit_64(self, run_cli):
        # v = -1/24: n = 0 is scanned and f_r = 1/f1^2 has coefficient 1 there
        argv = ["certify", "--m", "2", "--M", "1", "--N", "1", "--t", "0",
                "--r", "1:-2", "--rprime", "1:4", "--mod", "5"]
        code, out, _ = run_cli(*argv)
        assert code == 3
        data = json.loads(out)
        assert (data["v"]["floor"], data["checked_upto"]) == (-1, 0)
        assert data["witness"] == {"n": 0, "exponent": 0, "value": 1, "t_prime": 0}
        assert run_cli(*argv, "--check-upto", "-1") == (
            64, "", "etacert: check_upto must be nonnegative, got -1\n")

    def test_strict_mode_exit_4(self, run_cli):
        code, out, _ = run_cli("certify", "--m", "49", "--M", "14", "--N", "14", "--t", "47",
                               "--r", "1:4,2:1,7:-1", "--rprime", "1:3", "--mod", "7",
                               "--strict")
        assert code == 4
        assert json.loads(out)["status"] == "delta_star_unverified"

    def test_malformed_r_exits_64(self, run_cli):
        code, out, err = run_cli("certify", "--m", "125", "--M", "10", "--N", "10", "--t", "99",
                                 "--r", "1:22,3:1", "--rprime", "1:13", "--mod", "25")
        assert (code, out) == (64, "")
        assert err.startswith("etacert: ")

    def test_incomplete_cusp_table_exits_64(self, run_cli):
        # Gamma0(9) has 4 cusps; the divisors 1, 3, 9 give only 3 cusp sums
        code, out, err = run_cli("certify", "--m", "1", "--M", "1", "--N", "9", "--t", "0",
                                 "--r", "1:-1", "--rprime", "1:1", "--mod", "2")
        assert (code, out) == (64, "")
        assert "cusps" in err

    def test_order_cap_flag_exits_65(self, run_cli):
        code, out, err = run_cli(*self.MOD25, "--order-cap", "100")
        assert (code, out) == (65, "")
        assert err.endswith("exceeds cap 100\n")

    def test_check_upto_over_cap_exits_65(self, run_cli):
        # m * check_upto + t exceeds the cap: refused before the 24m-unit orbit
        code, out, err = run_cli("certify", "--m", "1000000", "--M", "14", "--N", "14",
                                 "--t", "33", "--r", "1:4,2:1,7:-1", "--rprime", "1:3",
                                 "--mod", "7", "--check-upto", "10")
        assert (code, out) == (65, "")
        assert "exceeds cap 1000000" in err

    def test_m_over_cap_exits_65(self, run_cli):
        # floor(v) <= 0 at t keeps m * floor(v) + t under the cap, so only the
        # bound on m stops the 12m-unit orbit, which ran past 20 s without it
        code, out, err = run_cli("certify", "--m", "100000000", "--M", "10", "--N", "10",
                                 "--t", "5", "--r", "1:22,2:1,5:-5", "--rprime", "1:-40",
                                 "--mod", "25")
        assert (code, out) == (65, "")
        assert "m = 100000000 exceeds cap 1000000" in err


class TestVerifyTheorem:
    def test_regressions(self, run_cli):
        code, out, err = run_cli("verify-theorem", "regressions", "--order", "700")
        assert (code, err) == (0, "")
        assert json.loads(out)["overall"] is True

    # alias: theorem id and the least order that reaches its largest residue
    ALIASES = {"1": ("T1_mod5", 24), "2": ("T2_mod25", 99), "3": ("T3_mod7", 47),
               "4": ("T4_mod49", 341), "regressions": ("regression", 327)}

    def test_aliases_are_exactly_these(self):
        # the aliases are built from the theorem table; the contract is pinned here
        assert cli._THEOREM_BY_ID == {alias: tid for alias, (tid, _) in self.ALIASES.items()}

    @pytest.mark.parametrize("alias", sorted(ALIASES))
    def test_alias_runs_its_theorem(self, alias, run_cli):
        theorem_id, order = self.ALIASES[alias]
        code, out, err = run_cli("verify-theorem", alias, "--order", order)
        assert (code, err) == (0, "")
        assert json.loads(out)["theorem"] == theorem_id

    @pytest.mark.parametrize("name", ["T1_mod5", "regression", "5"])
    def test_theorem_ids_are_not_aliases(self, name, run_cli):
        code, out, err = run_cli("verify-theorem", name)
        assert (code, out) == (64, "")
        assert f"argument id: invalid choice: '{name}'" in err

    def test_failed_step_exits_1(self, run_cli, tmp_path, monkeypatch):
        # b(47) + 1 (mod 7): each T3 step that reads b there fails with a witness at 47
        real = pipelines.b_series
        monkeypatch.setattr(pipelines, "b_series", lambda order, modulus: reduce_mod(
            real(order, modulus) + TruncatedSeries.monomial(47, order), modulus))
        path = tmp_path / "t3.json"
        code, out, err = run_cli("verify-theorem", "3", "--output", path)
        report = json.loads(path.read_text())
        failed = [step for step in report["steps"] if step["status"] == "fail"]
        names = [step["name"] for step in failed]
        assert (code, out, err) == (1, "", f"failed steps: {', '.join(names)}\n")
        assert report["overall"] is False
        assert [step for step in report["steps"] if "witness" in step] == failed
        assert names == ["congruent_form_mod7", "certificate_m49_t47", "b_family_scan_mod7",
                         "lift_k24_m49_t47_mod7"]
        assert failed[0]["witness"] == {"exponent": 47, "lhs": 1, "rhs": 0}
        assert {(s["witness"]["exponent"], s["witness"]["value"]) for s in failed[1:]} == {(47, 1)}

    def test_order_below_residue_exits_64(self, run_cli):
        # order 5 reaches no exponent 343n + t of the mod-49 lifts
        code, out, err = run_cli("verify-theorem", "4", "--order", "5")
        assert (code, out) == (64, "")
        assert "no coefficient" in err

    @pytest.mark.parametrize("theorem", ["1", "4", "regressions"])
    def test_negative_order_exits_64(self, theorem, run_cli):
        assert run_cli("verify-theorem", theorem, "--order", "-1") == (
            64, "", "etacert: order must be nonnegative, got -1\n")

    def test_invalid_id_exits_64(self, run_cli):
        code, out, err = run_cli("verify-theorem", "9")
        assert (code, out) == (64, "")
        assert "argument id: invalid choice: '9'" in err

    def test_order_cap_env(self, run_cli, monkeypatch):
        monkeypatch.setenv("ETA_CERT_ORDER_CAP", "10")
        code, out, err = run_cli("verify-theorem", "1", "--order", "50")
        assert (code, out) == (65, "")
        assert "exceeds cap 10" in err

    @pytest.mark.parametrize(
        "theorem,order", [("4", 19549), ("1", 1024), ("regressions", 3071)]
    )
    def test_lowered_env_cap_bounds_default_orders(self, theorem, order, run_cli, monkeypatch):
        # without --order the default scan orders must still meet the cap
        monkeypatch.setenv("ETA_CERT_ORDER_CAP", "1000")
        code, out, err = run_cli("verify-theorem", theorem)
        assert (code, out) == (65, "")
        assert f"order {order} exceeds cap 1000" in err

    def test_library_order_cap_exits_65(self, run_cli, monkeypatch):
        # a raised environment cap still meets run_theorem's own cap
        monkeypatch.setenv("ETA_CERT_ORDER_CAP", "3000000")
        code, out, err = run_cli("verify-theorem", "2", "--order", "2000000")
        assert (code, out) == (65, "")
        assert "exceeds cap 1000000" in err


class TestOrderRefusals:
    """Every order a command refuses exits 64 (negative) or 65 (over the cap) before expanding."""

    @pytest.fixture
    def no_series_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("series work started before the order was checked")

        for module in (cli, finite_check):
            monkeypatch.setattr(module, "expand_eta_quotient", refuse)

    @pytest.mark.parametrize("command", [["expand"], ["dissect", "--m", "5"]],
                             ids=["expand", "dissect"])
    @pytest.mark.parametrize(
        "order,code,message",
        [
            (-1, 64, "order must be nonnegative, got -1"),
            (DEFAULT_ORDER_CAP + 1, 65, f"order {DEFAULT_ORDER_CAP + 1} exceeds cap "
                                        f"{DEFAULT_ORDER_CAP}"),
        ],
        ids=["negative", "above_cap"],
    )
    def test_expand_and_dissect(self, command, order, code, message, no_series_work, run_cli):
        argv = [*command, "--spec", "1:-3,2:1", "--order", order]
        assert run_cli(*argv) == (code, "", f"etacert: {message}\n")

    def test_certify_order_cap_exits_65(self, no_series_work, run_cli):
        code, out, err = run_cli(*TestCertify.MOD25, "--order-cap", "100")
        assert (code, out) == (65, "")
        assert err.endswith("exceeds cap 100\n")


class TestUnwritableOutput:
    """An --output that cannot be written exits 64 and leaves no temporary file."""

    COMMANDS = {
        "expand": ["expand", "--spec", "1:1", "--order", "5"],
        "certify": TestCertify.MOD25,
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("target", ["missing_dir", "dir_path"])
    def test_exits_64_without_traceback(self, command, target, tmp_path, run_cli):
        path = tmp_path / "missing" / "x.json" if target == "missing_dir" else tmp_path
        code, out, err = run_cli(*self.COMMANDS[command], "--output", path)
        assert (code, out) == (64, "")
        assert err.startswith(f"etacert: cannot write {path}") and err.count("\n") == 1
        assert list(tmp_path.rglob(".etacert-*")) == []


class TestTrace:
    """--trace FILE writes the kernel's counters beside the output, never into it."""

    COMMANDS = {
        "certify": TestCertify.MOD25,
        "verify-theorem-4": ["verify-theorem", "4"],
        "verify-theorem-1": ["verify-theorem", "1"],
        "counterexample": ["certify", "--m", "49", "--M", "14", "--N", "14", "--t", "34",
                           "--r", "1:4,2:1,7:-1", "--rprime", "1:3", "--mod", "7"],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_output_bytes_do_not_change(self, command, tmp_path, run_cli):
        argv = self.COMMANDS[command]
        plain = run_cli(*argv)
        trace = tmp_path / "trace.json"
        assert run_cli(*argv, "--trace", trace) == plain
        counters = json.loads(trace.read_text())
        assert set(counters) == {"expand", "product"}
        assert sum(map(len, counters["expand"].values())) >= 1
        assert series._trace is None

    def test_counters_repeat_exactly(self, tmp_path, run_cli):
        texts = []
        for name in ("a.json", "b.json"):
            run_cli("verify-theorem", "2", "--trace", tmp_path / name)
            texts.append((tmp_path / name).read_text())
        assert texts[0] == texts[1]

    def test_unwritable_trace_exits_64(self, tmp_path, run_cli):
        path = tmp_path / "missing" / "trace.json"
        code, out, err = run_cli(*TestCertify.MOD25, "--trace", path)
        assert code == 64
        assert json.loads(out)["status"] == "verified"  # the output came first
        assert err.startswith(f"etacert: cannot write {path}")

    @pytest.mark.parametrize("command", [["expand", "--spec", "1:1", "--order", "5"],
                                         ["dissect", "--spec", "1:1", "--m", "2", "--order", "5"]],
                             ids=["expand", "dissect"])
    def test_only_certify_and_verify_theorem_trace(self, command, tmp_path, run_cli):
        code, out, err = run_cli(*command, "--trace", tmp_path / "t.json")
        assert (code, out) == (64, "")
        assert "unrecognized arguments: --trace" in err


class TestMainReturns:
    """`cli.main` returns argparse's exit codes too; it never raises SystemExit.

    The other usage errors, an invalid choice, an unknown option and a
    missing option, are each tested above."""

    def test_no_command_returns_64(self, run_cli):
        code, out, err = run_cli()
        assert (code, out) == (64, "")
        assert err.endswith("error: the following arguments are required: command\n")

    @pytest.mark.parametrize("argv", [["--help"], ["certify", "-h"]], ids=["top", "certify"])
    def test_help_returns_0(self, argv, run_cli):
        code, out, err = run_cli(*argv)
        assert (code, err) == (0, "")
        assert out.startswith("usage: etacert")


# The documented codes at the process boundary: `python -m etacert.cli` exits
# with what `main` returns.  These are the module's only subprocess runs.

def _run_module(*argv):
    env = {key: value for key, value in os.environ.items() if key != "ETA_CERT_ORDER_CAP"}
    return subprocess.run([sys.executable, "-m", "etacert.cli", *argv], capture_output=True,
                          text=True, env=env, timeout=60)


def test_module_exits_with_mains_code():
    proc = _run_module(*TestTrace.COMMANDS["counterexample"])
    assert (proc.returncode, proc.stderr) == (3, "")
    assert json.loads(proc.stdout)["status"] == "counterexample"


def test_module_usage_error_exits_64():
    proc = _run_module("verify-theorem", "9")
    assert (proc.returncode, proc.stdout) == (64, "")
    assert "argument id: invalid choice: '9'" in proc.stderr


def test_help_runs():
    proc = _run_module("--help")
    assert (proc.returncode, proc.stderr) == (0, "")
    for command in ("expand", "dissect", "certify", "verify-theorem"):
        assert command in proc.stdout
