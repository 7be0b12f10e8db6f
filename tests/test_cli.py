"""Exit codes, output formats, and determinism of the command-line surface."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc

import pytest

from etacert import (
    DEFAULT_ORDER_CAP, EtaQuotientSpec, cli, dissect, expand_eta_quotient, finite_check, reduce_mod,
    series,
)

CLI = [sys.executable, "-m", "etacert.cli"]


def run_cli(*args, env=None, timeout=300):
    """Run the CLI; `env` entries are laid over the inherited environment."""
    if env is not None:
        env = {**os.environ, **env}
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=env, timeout=timeout
    )


class TestExpand:
    def test_b_sequence_text(self):
        proc = run_cli("expand", "--spec", "1:-3,2:1", "--order", "10")
        assert proc.returncode == 0
        assert proc.stdout == "1,3,8,19,41,83,161,299,538,942,1610\n"

    def test_pentagonal_signs(self):
        proc = run_cli("expand", "--spec", "1:1", "--order", "12")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "1,-1,-1,0,0,1,0,1,0,0,0,0,-1"

    def test_zero_exponent_is_constant_one(self):
        proc = run_cli("expand", "--spec", "1:0", "--order", "5")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "1,0,0,0,0,0"

    def test_mod_reduction_and_json(self):
        proc = run_cli("expand", "--spec", "1:-3,2:1", "--order", "6", "--mod", "5",
                       "--format", "json")
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert data["coeffs"] == ["1", "3", "3", "4", "1", "3", "1"]
        assert data["order"] == 6 and data["modulus"] == 5

    def test_mod_below_two_exits_64(self):
        proc = run_cli("expand", "--spec", "1:-3,2:1", "--order", "6", "--mod", "1")
        assert proc.returncode == 64
        assert "modulus must be >= 2" in proc.stderr

    def test_parse_error_exits_64(self):
        proc = run_cli("expand", "--spec", "1:x", "--order", "5")
        assert proc.returncode == 64
        assert "position" in proc.stderr

    def test_order_cap_env(self):
        proc = run_cli("expand", "--spec", "1:1", "--order", "50",
                       env={"ETA_CERT_ORDER_CAP": "10", "PATH": "/usr/bin:/bin"})
        assert proc.returncode == 65

    def test_non_integer_order_cap_env_exits_64(self, monkeypatch):
        monkeypatch.setenv("ETA_CERT_ORDER_CAP", "5e3")

        def refuse(*args, **kwargs):
            raise AssertionError("expanded before the cap was read")

        monkeypatch.setattr(cli, "expand_eta_quotient", refuse)
        code, out, err = _main_output("expand", "--spec", "1:1", "--order", "5")
        assert (code, out) == (64, "")
        assert err == "etacert: ETA_CERT_ORDER_CAP must be an integer, got '5e3'\n"

    def test_parser_reused_across_calls(self):
        # main builds the parser once and reuses it, also after a usage error
        cli._build_parser.cache_clear()
        argv = ["expand", "--spec", "1:-3,4:2", "--order", "200"]
        first = _main_output(*argv)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
            cli.main(["expand", "--spec", "1:1"])
        assert exc.value.code == 64
        assert "the following arguments are required: --order" in err.getvalue()
        assert _main_output(*argv) == first
        assert first[0] == 0 and first[1].startswith("1,")
        assert cli._build_parser.cache_info().misses == 1


class TestDissect:
    def test_cube_classes(self):
        proc = run_cli("dissect", "--spec", "1:3", "--m", "5", "--mod", "5",
                       "--order", "100")
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[2] == "class 2: nonzero=0 zero_mod_5=yes"
        assert lines[3].startswith("class 3:") and lines[3].endswith("zero_mod_5=yes")
        assert lines[4] == "class 4: nonzero=0 zero_mod_5=yes"
        assert lines[0].endswith("zero_mod_5=no")

    def test_doubled_cube_classes(self):
        proc = run_cli("dissect", "--spec", "2:3", "--m", "5", "--mod", "5",
                       "--order", "100")
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[1].endswith("zero_mod_5=yes")  # class 1 vanishes mod 5

    def test_constant_spec(self):
        proc = run_cli("dissect", "--spec", "1:0", "--m", "3", "--order", "9")
        lines = proc.stdout.splitlines()
        assert lines[0] == "class 0: nonzero=1 first=q^0"
        assert lines[1] == "class 1: nonzero=0"
        assert lines[2] == "class 2: nonzero=0"

    def test_json_format(self):
        proc = run_cli("dissect", "--spec", "1:3", "--m", "5", "--mod", "5",
                       "--order", "60", "--format", "json")
        data = json.loads(proc.stdout)
        assert [c["zero_mod"] for c in data["classes"]] == [False, False, True, True, True]


def _main_output(*argv):
    """Exit code, stdout and stderr of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


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
    def test_matches_full_classes(self, spec, m, order, mod):
        argv = ["dissect", "--spec", spec, "--m", str(m), "--order", str(order)]
        if mod is not None:
            argv += ["--mod", str(mod)]
        classes = _reference_dissect_classes(spec, m, order, mod)
        lines = []
        for entry in classes:
            line = f"class {entry['residue']}: nonzero={entry['nonzero_terms']}"
            if entry["first_exponent"] is not None:
                line += f" first=q^{entry['first_exponent']}"
            if mod is not None:
                line += f" zero_mod_{mod}={'yes' if entry['zero_mod'] else 'no'}"
            lines.append(line + "\n")
        assert _main_output(*argv) == (0, "".join(lines), "")
        spec_text = EtaQuotientSpec.from_string(spec).to_spec_string()
        payload = {"spec": spec_text, "m": m, "order": order, "modulus": mod, "classes": classes}
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        assert _main_output(*argv, "--format", "json") == (0, text, "")

    @pytest.mark.parametrize("mod", ["1", "0", "-5"])
    def test_mod_below_two_exits_64(self, mod, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("expanded before the --mod check")

        monkeypatch.setattr(cli, "expand_eta_quotient", refuse)
        code, out, err = _main_output("dissect", "--spec", "1:3", "--m", "5",
                                      "--order", "20", "--mod", mod)
        assert (code, out) == (64, "")
        assert err == f"etacert: modulus must be >= 2, got {mod}\n"

    @pytest.mark.parametrize("m", [0, 51, 10**6])
    def test_m_outside_cap_exits_64_before_expanding(self, m, monkeypatch):
        monkeypatch.setenv("ETA_CERT_ORDER_CAP", "50")

        def refuse(*args, **kwargs):
            raise AssertionError("expanded before the --m check")

        monkeypatch.setattr(cli, "expand_eta_quotient", refuse)
        code, out, err = _main_output("dissect", "--spec", "1:3", "--m", str(m),
                                      "--order", "10")
        assert (code, out) == (64, "")
        assert err == f"etacert: dissection modulus must be in 1..50, got {m}\n"

    def test_m_at_cap_runs(self, monkeypatch):
        monkeypatch.setenv("ETA_CERT_ORDER_CAP", "50")
        code, out, err = _main_output("dissect", "--spec", "1:3", "--m", "50",
                                      "--order", "10", "--mod", "5")
        lines = out.splitlines()
        assert (code, err, len(lines)) == (0, "", 50)
        assert lines[0] == "class 0: nonzero=1 first=q^0 zero_mod_5=no"
        assert lines[49] == "class 49: nonzero=0 zero_mod_5=yes"

    def test_m_above_cap_subprocess(self):
        proc = run_cli("dissect", "--spec", "1:3", "--m", "1000000", "--order", "10",
                       env={"ETA_CERT_ORDER_CAP": "999999"})
        assert (proc.returncode, proc.stdout) == (64, "")
        assert "dissection modulus must be in 1..999999, got 1000000" in proc.stderr

    def test_peak_memory_independent_of_m(self):
        # m full-length classes would take about 60 MiB here
        tracemalloc.start()
        try:
            code, _, _ = _main_output("dissect", "--spec", "1:4,2:1", "--m", "400",
                                      "--order", "10000", "--mod", "5")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 8 * 2**20


class TestCertify:
    MOD25 = ["certify", "--m", "125", "--M", "10", "--N", "10", "--t", "99",
             "--r", "1:22,2:1,5:-5", "--rprime", "1:13", "--mod", "25"]

    def test_verified_instance(self, tmp_path):
        out = tmp_path / "cert.json"
        proc = run_cli(*self.MOD25, "--output", str(out))
        assert proc.returncode == 0
        data = json.loads(out.read_text())
        assert data["status"] == "verified"
        assert data["v"]["floor"] == 21
        assert data["p_set"] == [99]

    def test_t47_instance(self):
        proc = run_cli("certify", "--m", "49", "--M", "14", "--N", "14", "--t", "47",
                       "--r", "1:4,2:1,7:-1", "--rprime", "1:3", "--mod", "7")
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert data["p_set"] == [47]

    def test_counterexample_exit_3(self):
        proc = run_cli("certify", "--m", "125", "--M", "10", "--N", "10", "--t", "98",
                       "--r", "1:22,2:1,5:-5", "--rprime", "1:13", "--mod", "25")
        assert proc.returncode == 3
        assert json.loads(proc.stdout)["status"] == "counterexample"

    def test_hypothesis_violation_exit_2(self):
        proc = run_cli("certify", "--m", "1", "--M", "1", "--N", "1", "--t", "0",
                       "--r", "1:-1", "--rprime", "1:0", "--mod", "2")
        assert proc.returncode == 2

    def test_negative_v_floor_exit_3_and_negative_check_upto_exit_64(self):
        # v = -1/24: n = 0 is scanned and f_r = 1/f1^2 has coefficient 1 there
        argv = ["certify", "--m", "2", "--M", "1", "--N", "1", "--t", "0",
                "--r", "1:-2", "--rprime", "1:4", "--mod", "5"]
        proc = run_cli(*argv)
        assert proc.returncode == 3
        data = json.loads(proc.stdout)
        assert (data["v"]["floor"], data["checked_upto"]) == (-1, 0)
        assert data["witness"] == {"n": 0, "exponent": 0, "value": 1, "t_prime": 0}
        proc = run_cli(*argv, "--check-upto", "-1")
        assert proc.returncode == 64
        assert proc.stdout == "" and "check_upto must be nonnegative" in proc.stderr

    def test_strict_mode_exit_4(self):
        proc = run_cli("certify", "--m", "49", "--M", "14", "--N", "14", "--t", "47",
                       "--r", "1:4,2:1,7:-1", "--rprime", "1:3", "--mod", "7",
                       "--strict")
        assert proc.returncode == 4
        assert json.loads(proc.stdout)["status"] == "delta_star_unverified"

    def test_malformed_r_exits_64(self):
        proc = run_cli("certify", "--m", "125", "--M", "10", "--N", "10", "--t", "99",
                       "--r", "1:22,3:1", "--rprime", "1:13", "--mod", "25")
        assert proc.returncode == 64

    def test_incomplete_cusp_table_exits_64(self):
        # Gamma0(9) has 4 cusps; the divisors 1, 3, 9 give only 3 cusp sums
        proc = run_cli("certify", "--m", "1", "--M", "1", "--N", "9", "--t", "0",
                       "--r", "1:-1", "--rprime", "1:1", "--mod", "2")
        assert proc.returncode == 64
        assert proc.stdout == "" and "cusps" in proc.stderr

    def test_order_cap_flag_exits_65(self):
        proc = run_cli(*self.MOD25, "--order-cap", "100")
        assert proc.returncode == 65

    def test_check_upto_over_cap_exits_65(self):
        # m * check_upto + t exceeds the cap: refused before the 24m-unit orbit
        proc = run_cli("certify", "--m", "1000000", "--M", "14", "--N", "14", "--t", "33",
                       "--r", "1:4,2:1,7:-1", "--rprime", "1:3", "--mod", "7",
                       "--check-upto", "10")
        assert proc.returncode == 65
        assert proc.stdout == "" and "exceeds cap 1000000" in proc.stderr

    def test_m_over_cap_exits_65(self):
        # floor(v) <= 0 at t keeps m * floor(v) + t under the cap, so only the
        # bound on m stops the 12m-unit orbit, which ran past 20 s without it
        proc = run_cli("certify", "--m", "100000000", "--M", "10", "--N", "10", "--t", "5",
                       "--r", "1:22,2:1,5:-5", "--rprime", "1:-40", "--mod", "25", timeout=20)
        assert proc.returncode == 65
        assert proc.stdout == "" and "m = 100000000 exceeds cap 1000000" in proc.stderr


class TestVerifyTheorem:
    def test_theorem_1(self, tmp_path):
        out = tmp_path / "t1.json"
        proc = run_cli("verify-theorem", "1", "--output", str(out))
        assert proc.returncode == 0
        data = json.loads(out.read_text())
        assert data["theorem"] == "T1_mod5" and data["overall"] is True

    def test_regressions(self):
        proc = run_cli("verify-theorem", "regressions", "--order", "700")
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert data["overall"] is True

    # alias: theorem id and the least order that reaches its largest residue
    ALIASES = {"1": ("T1_mod5", 24), "2": ("T2_mod25", 99), "3": ("T3_mod7", 47),
               "4": ("T4_mod49", 341), "regressions": ("regression", 327)}

    def test_aliases_are_exactly_these(self):
        # the aliases are built from the theorem table; the contract is pinned here
        assert cli._THEOREM_BY_ID == {alias: tid for alias, (tid, _) in self.ALIASES.items()}

    @pytest.mark.parametrize("alias", sorted(ALIASES))
    def test_alias_runs_its_theorem(self, alias):
        theorem_id, order = self.ALIASES[alias]
        code, out, err = _main_output("verify-theorem", alias, "--order", str(order))
        assert (code, err) == (0, "")
        assert json.loads(out)["theorem"] == theorem_id

    @pytest.mark.parametrize("name", ["T1_mod5", "regression", "5"])
    def test_theorem_ids_are_not_aliases(self, name):
        with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(io.StringIO()):
            cli.main(["verify-theorem", name])
        assert exc.value.code == 64

    def test_order_below_residue_exits_64(self):
        # order 5 reaches no exponent 343n + t of the mod-49 lifts
        proc = run_cli("verify-theorem", "4", "--order", "5")
        assert proc.returncode == 64
        assert proc.stdout == "" and "no coefficient" in proc.stderr

    @pytest.mark.parametrize("theorem", ["1", "4", "regressions"])
    def test_negative_order_exits_64(self, theorem):
        proc = run_cli("verify-theorem", theorem, "--order", "-1")
        assert proc.returncode == 64 and proc.stdout == ""

    def test_invalid_id_exits_64(self):
        proc = run_cli("verify-theorem", "9")
        assert proc.returncode == 64

    def test_order_cap_env(self):
        proc = run_cli("verify-theorem", "1", "--order", "50",
                       env={"ETA_CERT_ORDER_CAP": "10"})
        assert proc.returncode == 65
        assert "exceeds cap 10" in proc.stderr

    @pytest.mark.parametrize(
        "theorem,order", [("4", 19549), ("1", 1024), ("regressions", 3071)]
    )
    def test_lowered_env_cap_bounds_default_orders(self, theorem, order):
        # without --order the default scan orders must still meet the cap
        proc = run_cli("verify-theorem", theorem, env={"ETA_CERT_ORDER_CAP": "1000"})
        assert proc.returncode == 65
        assert proc.stdout == "" and f"order {order} exceeds cap 1000" in proc.stderr

    def test_library_order_cap_exits_65(self):
        # a raised environment cap still meets run_theorem's own cap
        proc = run_cli("verify-theorem", "2", "--order", "2000000",
                       env={"ETA_CERT_ORDER_CAP": "3000000"})
        assert proc.returncode == 65
        assert "exceeds cap 1000000" in proc.stderr


class TestOrderRefusals:
    """Every order a command refuses exits 64 (negative) or 65 (over the cap) before expanding."""

    @pytest.fixture
    def no_series_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("series work started before the order was checked")

        monkeypatch.delenv("ETA_CERT_ORDER_CAP", raising=False)
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
    def test_expand_and_dissect(self, command, order, code, message, no_series_work):
        argv = [*command, "--spec", "1:-3,2:1", "--order", str(order)]
        assert _main_output(*argv) == (code, "", f"etacert: {message}\n")

    def test_certify_order_cap_exits_65(self, no_series_work):
        code, out, err = _main_output(*TestCertify.MOD25, "--order-cap", "100")
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
    def test_exits_64_without_traceback(self, command, target, tmp_path):
        path = tmp_path / "missing" / "x.json" if target == "missing_dir" else tmp_path
        proc = run_cli(*self.COMMANDS[command], "--output", str(path))
        assert proc.returncode == 64
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"etacert: cannot write {path}")
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
    def test_output_bytes_do_not_change(self, command, tmp_path):
        argv = self.COMMANDS[command]
        plain = _main_output(*argv)
        trace = tmp_path / "trace.json"
        assert _main_output(*argv, "--trace", str(trace)) == plain
        counters = json.loads(trace.read_text())
        assert set(counters) == {"expand", "product"}
        assert sum(map(len, counters["expand"].values())) >= 1
        assert series._trace is None

    def test_counters_repeat_exactly(self, tmp_path):
        texts = []
        for name in ("a.json", "b.json"):
            _main_output("verify-theorem", "2", "--trace", str(tmp_path / name))
            texts.append((tmp_path / name).read_text())
        assert texts[0] == texts[1]

    def test_unwritable_trace_exits_64(self, tmp_path):
        path = tmp_path / "missing" / "trace.json"
        code, out, err = _main_output(*TestCertify.MOD25, "--trace", str(path))
        assert code == 64
        assert json.loads(out)["status"] == "verified"  # the output came first
        assert err.startswith(f"etacert: cannot write {path}")

    @pytest.mark.parametrize("command", [["expand", "--spec", "1:1", "--order", "5"],
                                         ["dissect", "--spec", "1:1", "--m", "2", "--order", "5"]],
                             ids=["expand", "dissect"])
    def test_only_certify_and_verify_theorem_trace(self, command, tmp_path):
        proc = run_cli(*command, "--trace", str(tmp_path / "t.json"))
        assert proc.returncode == 64 and "unrecognized arguments" in proc.stderr


def test_help_runs():
    proc = run_cli("--help")
    assert proc.returncode == 0
    for command in ("expand", "dissect", "certify", "verify-theorem"):
        assert command in proc.stdout
