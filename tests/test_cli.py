import json
import re

import numpy as np
import pytest

import ovalbounds.cli as cli
import ovalbounds.overdamped as od
from ovalbounds.errors import NoConvergence
from ovalbounds.matdense import DampedSystem, SymMatrix, load_system, save_system
from ovalbounds.regions import Method


def write_scalar(tmp_path, m, c, k, name="sys.json"):
    path = tmp_path / name
    path.write_text(
        '{"n": 1, "M": [%r], "C": [%r], "K": [%r]}' % (float(m), float(c), float(k))
    )
    return path


class TestGen:
    def test_roundtrip_bit_identical(self, tmp_path):
        out = tmp_path / "sys.json"
        assert cli.main(["gen", "--output", str(out), "--n", "4", "--seed", "3"]) == 0
        first = load_system(out)
        again = tmp_path / "again.json"
        save_system(first, again)
        assert out.read_text() == again.read_text()
        back = load_system(again)
        for key in ("M", "C", "K"):
            assert np.array_equal(getattr(first, key).array, getattr(back, key).array)

    def test_overdamped_flag(self, tmp_path):
        out = tmp_path / "sys.json"
        assert (
            cli.main(
                ["gen", "--output", str(out), "--n", "3", "--seed", "1", "--overdamped"]
            )
            == 0
        )
        from ovalbounds.overdamped import exact_definiteness_interval

        assert not exact_definiteness_interval(load_system(out)).empty


class TestOverdampedCommand:
    def test_scalar_report(self, tmp_path, capsys):
        path = write_scalar(tmp_path, 1, 3, 2)
        assert cli.main(["overdamped", "--input", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["exact_interval_lo"] == pytest.approx(-2.0, abs=1e-8)
        assert report["exact_interval_hi"] == pytest.approx(-1.0, abs=1e-8)
        assert report["certificate_norm"] == "success"
        assert report["certificate_gershgorin"] == "success"
        assert report["certificate_norm_p_minus"] == pytest.approx(-2.0, abs=1e-12)
        assert report["certificate_norm_p_plus"] == pytest.approx(-1.0, abs=1e-12)

    def test_underdamped_scalar(self, tmp_path, capsys):
        path = write_scalar(tmp_path, 1, 1, 1)
        assert cli.main(["overdamped", "--input", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["exact_interval"] == "empty"
        assert report["certificate_norm"].startswith("refused")

    def test_underdamped_scalar_at_loose_rtol(self, tmp_path, capsys):
        path = write_scalar(tmp_path, 1, 1, 1)
        assert cli.main(["overdamped", "--input", str(path), "--json", "--rtol", "0.6"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["exact_interval"] == "empty"
        assert "exact_interval_lo" not in report

    def test_each_certificate_computed_once(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "sys.json"
        C = np.array([[6.0, 0.1], [0.1, 10.0]])
        save_system(DampedSystem(SymMatrix(np.eye(2)), SymMatrix(C), SymMatrix(np.diag([1.0, 4.0]))), path)
        real, calls = od.sufficient_certificate, []

        def counted(*args):
            calls.append(args[-1])
            return real(*args)

        monkeypatch.setattr(od, "sufficient_certificate", counted)
        assert cli.main(["overdamped", "--input", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["certificate_norm"] == report["certificate_gershgorin"] == "success"
        assert len(report["intervals_gershgorin.mode1.upper"]) == 2
        assert calls == ["norm", "gershgorin"]

    def test_epsilon_envelope_report(self, tmp_path, capsys):
        path = write_scalar(tmp_path, 1, 3, 2)
        code = cli.main(
            ["overdamped", "--input", str(path), "--json", "--epsilon", "0.01"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["envelope_epsilon"] == pytest.approx(0.01)
        assert report["envelope_plus_lower"][0] <= -1.0 <= report["envelope_plus_upper"][0]

    def test_epsilon_too_large_reported_not_fatal(self, tmp_path, capsys):
        path = write_scalar(tmp_path, 1, 2.2, 1)
        code = cli.main(
            ["overdamped", "--input", str(path), "--json", "--epsilon", "0.5"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["envelope"].startswith("unavailable")


class TestAnalyzeCommand:
    def test_json_matches_text_fields(self, tmp_path, capsys):
        out = tmp_path / "sys.json"
        cli.main(["gen", "--output", str(out), "--n", "3", "--seed", "9"])
        capsys.readouterr()
        assert cli.main(["analyze", "--input", str(out), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert cli.main(["analyze", "--input", str(out)]) == 0
        text = capsys.readouterr().out
        keys = [line.split(":", 1)[0] for line in text.strip().splitlines()]
        assert keys == list(report.keys())
        assert report["n"] == 3
        assert "proportional_alpha" in report

    def test_modally_damped_detection(self, tmp_path, capsys):
        path = write_scalar(tmp_path, 1, 3, 2)
        cli.main(["analyze", "--input", str(path), "--json"])
        report = json.loads(capsys.readouterr().out)
        assert report["modally_damped"] is True


class TestRegionsCommand:
    def test_lists_primitives(self, tmp_path, capsys):
        out = tmp_path / "sys.json"
        cli.main(["gen", "--output", str(out), "--n", "2", "--seed", "5"])
        capsys.readouterr()
        code = cli.main(
            [
                "regions",
                "--input",
                str(out),
                "--method",
                "MODAL_OVAL_NORM",
                "--method",
                "BRAUER",
                "--json",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["MODAL_OVAL_NORM.primitives"] == 2
        assert report["BRAUER.primitives"] == 1
        assert report["MODAL_OVAL_NORM.rigorous"] is True


class TestPlotCommand:
    def test_figure_panel_byte_stable(self, tmp_path):
        path = write_scalar(tmp_path, 1, 1, 1)  # omega = 1, d = 1
        svg1 = tmp_path / "a.svg"
        svg2 = tmp_path / "b.svg"
        for svg in (svg1, svg2):
            code = cli.main(
                [
                    "plot",
                    "--input",
                    str(path),
                    "--method",
                    "MODAL_OVAL_NORM",
                    "--extension",
                    "0.3",
                    "--output",
                    str(svg),
                    "--resolution",
                    "256",
                ]
            )
            assert code == 0
        data = svg1.read_bytes()
        assert data == svg2.read_bytes()
        text = data.decode()
        assert text.startswith('<?xml version="1.0"')
        assert "<svg" in text and "</svg>" in text
        assert text.count("<path") >= 2  # two oval loops plus eigenvalue crosses
        assert ">Re<" in text and ">Im<" in text

    def test_svg_path_formats_each_coordinate_as_f6(self):
        # one %-format over the loop against the per-vertex f-strings it replaced
        rng = np.random.default_rng(0)
        special = [0.0, -0.0, 5e-324, -2.5e-310, np.inf, -np.inf, np.nan, 1e300, 123456.5, 1234567.0]
        xs = np.concatenate([rng.standard_normal(2000) * 10.0 ** rng.integers(-300, 300, 2000), special])
        loop = np.column_stack([xs, rng.permutation(xs)])
        for loop in (np.vstack([loop, loop[:1]]), loop[[3, 3]]):
            cmds = [f"M {cli._f6(loop[0][0])} {cli._f6(-loop[0][1])}"]
            cmds += [f"L {cli._f6(x)} {cli._f6(-y)}" for x, y in loop[1:-1]]
            assert cli._svg_path(loop) == " ".join(cmds + ["Z"])

    def test_empty_svg_valid(self, tmp_path):
        cli.emit_svg([], None, tmp_path / "empty.svg")
        text = (tmp_path / "empty.svg").read_text()
        assert "<svg" in text and "</svg>" in text
        assert ">Re<" in text

    def test_rejects_low_resolution(self, tmp_path):
        path = write_scalar(tmp_path, 1, 1, 1)
        code = cli.main(
            [
                "plot",
                "--input",
                str(path),
                "--output",
                str(tmp_path / "x.svg"),
                "--resolution",
                "8",
            ]
        )
        assert code == 2


class TestVerifyCommand:
    def test_all_rigorous_pass(self, tmp_path, capsys):
        out = tmp_path / "sys.json"
        cli.main(["gen", "--output", str(out), "--n", "6", "--seed", "13"])
        capsys.readouterr()
        code = cli.main(["verify", "--input", str(out), "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        for m in Method:
            if m is Method.MODAL_DISK_APPROX:
                continue
            key = f"{m.value}.all_contained"
            skipped = f"{m.value}.skipped"
            assert report.get(key) is True or skipped in report

    def test_violation_sets_exit_code(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "sys.json"
        cli.main(["gen", "--output", str(out), "--n", "3", "--seed", "2"])
        capsys.readouterr()
        import ovalbounds.regions as regions_mod
        from ovalbounds.regions import QuasiOval, RegionUnion

        real_build = regions_mod.build_regions

        def shrunk(form, split, foci, method):
            u = real_build(form, split, foci, method)
            prims = tuple(
                QuasiOval(p.focus_plus, p.focus_minus, p.r / 10.0)
                if isinstance(p, QuasiOval)
                else p
                for p in u.primitives
            )
            return RegionUnion(u.method, prims, u.mode_labels)

        monkeypatch.setattr(cli, "build_regions", shrunk)
        code = cli.main(
            ["verify", "--input", str(out), "--method", "MODAL_OVAL_NORM", "--json"]
        )
        assert code == 3
        report = json.loads(capsys.readouterr().out)
        assert report["MODAL_OVAL_NORM.all_contained"] is False


    def test_each_norm_computed_once(self, tmp_path, capsys, monkeypatch):
        import sys

        import ovalbounds.matdense as matdense

        out = tmp_path / "sys.json"
        cli.main(["gen", "--output", str(out), "--n", "5", "--seed", "4"])
        real, calls = matdense.spectral_norm, []

        def counted(S):
            calls.append(S)
            return real(S)

        for name, mod in list(sys.modules.items()):
            if name.startswith("ovalbounds") and getattr(mod, "spectral_norm", None) is real:
                monkeypatch.setattr(mod, "spectral_norm", counted)
        assert cli.main(["verify", "--input", str(out), "--json"]) == 0
        # D, D' and the frequency-scaled D once each; loading takes the norm
        # of C from its eigenvalues
        assert len(calls) == 3


class TestRejectedFlags:
    @pytest.mark.parametrize(
        "command,flags",
        [
            ("regions", ["--rtol", "1e-3"]),
            ("plot", ["--rtol", "1e-3"]),
            ("verify", ["--rtol", "1e-3"]),
            ("verify", ["--extension", "0.3"]),
            ("regions", ["--method", "BRAUER", "--extension", "0.3"]),
            ("plot", ["--method", "BRAUER", "--extension", "0.3"]),
        ]
        + [
            (command, ["--rtol", value])
            for command in ("analyze", "overdamped")
            for value in ("nan", "-0.5", "0", "1", "0.5e1", "inf", "x")
        ]
        + [
            (command, ["--extension", value])
            for command in ("regions", "plot")
            for value in ("nan", "-0.5", "-1", "inf", "-inf", "x")
        ]
        + [("overdamped", ["--epsilon", value]) for value in ("nan", "-0.1", "1", "inf", "x")]
        + [("plot", ["--json"])],  # plot prints no report
    )
    def test_exit_2_naming_the_flag(self, tmp_path, capsys, command, flags):
        named = [word for word in flags if word.startswith("--")][-1]
        path = write_scalar(tmp_path, 1, 1, 1)
        argv = [command, "--input", str(path)] + flags
        if command == "plot":
            argv += ["--output", str(tmp_path / "x.svg")]
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects unknown flags
            code = exc.code
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err and named in captured.err
        assert not (tmp_path / "x.svg").exists()


class TestRejectedValues:
    @pytest.mark.parametrize("n", ["0", "-1", "2.5", "x"])
    def test_gen_order_below_one(self, tmp_path, capsys, n):
        out = tmp_path / "sys.json"
        try:
            code = cli.main(["gen", "--output", str(out), "--n", n])
        except SystemExit as exc:  # argparse rejects the value
            code = exc.code
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error:" in captured.err and "--n" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", "2.5", "x"])
    def test_gen_seed_below_zero(self, tmp_path, capsys, seed):
        out = tmp_path / "sys.json"
        try:
            code = cli.main(["gen", "--output", str(out), "--seed", seed])
        except SystemExit as exc:  # argparse rejects the value
            code = exc.code
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error:" in captured.err and "--seed" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["regions", "plot"])
    def test_zero_extension_accepted(self, tmp_path, capsys, command):
        path = write_scalar(tmp_path, 1, 3, 2)
        argv = [command, "--input", str(path), "--extension", "0"]
        if command == "plot":
            argv += ["--output", str(tmp_path / "x.svg")]
        assert cli.main(argv) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", ["analyze", "overdamped"])
    def test_rtol_accepted(self, tmp_path, capsys, command):
        path = write_scalar(tmp_path, 1, 3, 2)
        assert cli.main([command, "--input", str(path), "--rtol", "1e-6", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["n"] == 1


class TestParser:
    def test_built_once(self):
        assert cli._parser() is cli._parser()

    @pytest.mark.parametrize("command", ["regions", "verify"])
    def test_methods_do_not_leak_between_calls(self, tmp_path, capsys, command):
        path = write_scalar(tmp_path, 1, 3, 2)

        def methods(extra):
            assert cli.main([command, "--input", str(path), "--json"] + extra) == 0
            report = json.loads(capsys.readouterr().out)
            return {key.split(".")[0] for key in report if "." in key}

        default = methods([])
        picked = ["--method", "MODAL_DISK_NORM", "--method", "BRAUER"]
        assert methods(picked) == {"MODAL_DISK_NORM", "BRAUER"}
        assert methods([]) == default
        assert methods(["--method", "MODAL_DISK_ROWSUM"]) == {"MODAL_DISK_ROWSUM"}
        assert methods([]) == default
        expected = {"MODAL_OVAL_NORM"} if command == "regions" else {
            m.value for m in Method if m is not Method.MODAL_DISK_APPROX
        }
        assert default == expected


class TestCriticalMode:
    """theta = 1: the condition-number regions refuse the critical mode."""

    def test_regions_reports_skip(self, tmp_path, capsys):
        path = write_scalar(tmp_path, 1, 2, 1)
        methods = ["--method", "MODAL_DISK_NORM", "--method", "MODAL_OVAL_NORM"]
        assert cli.main(["regions", "--input", str(path), *methods, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["MODAL_DISK_NORM.skipped"] == "critical mode at index 0"
        assert "MODAL_DISK_NORM.primitives" not in report
        assert report["MODAL_OVAL_NORM.primitives"] == 1

    def test_verify_skips_modal_disks(self, tmp_path, capsys):
        path = write_scalar(tmp_path, 1, 2, 1)
        assert cli.main(["verify", "--input", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        skipped = {k.split(".")[0] for k in report if k.endswith(".skipped")}
        assert skipped == {"MODAL_DISK_NORM", "MODAL_DISK_ROWSUM"}
        assert "MODAL_DISK_NORM.all_contained" not in report
        assert report["MODAL_OVAL_NORM.all_contained"] is True

    def test_plot_refuses(self, tmp_path, capsys):
        path = write_scalar(tmp_path, 1, 2, 1)
        out = tmp_path / "fig.svg"
        argv = ["plot", "--input", str(path), "--output", str(out)]
        assert cli.main([*argv, "--method", "MODAL_DISK_ROWSUM"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: critical mode at index 0\n"
        assert not out.exists()


class TestNumericalFailure:
    @pytest.mark.parametrize(
        "owner,name,command",
        [(cli, "true_spectrum", "verify"), (od, "exact_definiteness_interval", "overdamped")],
    )
    def test_exit_4(self, tmp_path, capsys, monkeypatch, owner, name, command):
        def fail(*args, **kwargs):
            raise NoConvergence("no convergence in the test")

        monkeypatch.setattr(owner, name, fail)
        path = write_scalar(tmp_path, 1, 3, 1)
        assert cli.main([command, "--input", str(path)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: no convergence in the test\n"


class TestErrorPaths:
    def test_missing_file(self, tmp_path, capsys):
        code = cli.main(["analyze", "--input", str(tmp_path / "nope.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli.main(["analyze", "--input", str(path)]) == 2

    def test_indefinite_matrix_names_culprit(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 2, "M": [1, 2, 2, 1], "C": [0, 0, 0, 0], "K": [1, 0, 0, 1]}')
        assert cli.main(["analyze", "--input", str(path)]) == 2
        assert "M" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    def test_tiny_system_loads(self, tmp_path, capsys, command):
        # M = K = 1e-16 is positive definite at its own scale: omega = 1
        path = tmp_path / "tiny.json"
        path.write_text('{"n": 1, "M": [1e-16], "C": [0], "K": [1e-16]}')
        assert cli.main([command, "--input", str(path)]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "K,pivot",
        [([2, 3, 0, 3, 2, 0, 0, 0, 1], -2.5), ([1e286, 1e300, 0, 1e300, 1e300, 0, 0, 0, 1], None)],
    )
    def test_overdamped_names_the_failing_pivot_of_k(self, tmp_path, capsys, K, pivot):
        path = tmp_path / "bad.json"
        doc = {"n": 3, "M": [1, 0, 0, 0, 1, 0, 0, 0, 1], "C": [0] * 9, "K": K}
        path.write_text(json.dumps(doc))
        assert cli.main(["overdamped", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        match = re.fullmatch(
            r"error: matrix K is not positive definite: pivot (-\d\.\d{3}e[+-]\d+) at index 1\n",
            captured.err,
        )
        assert match
        if pivot is not None:
            assert float(match[1]) == pivot

    @pytest.mark.parametrize(
        "doc",
        [
            '{"n": true, "M": [1.0], "C": [0.0], "K": [1.0]}',
            '{"n": 1, "M": ["a"], "C": [0.0], "K": [1.0]}',
            '{"n": 1, "M": 5, "C": [0.0], "K": [1.0]}',
        ],
    )
    def test_malformed_values_exit_2(self, tmp_path, capsys, doc):
        path = tmp_path / "bad.json"
        path.write_text(doc)
        assert cli.main(["analyze", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


class TestFuzz:
    def test_every_run_ends_in_a_known_exit_code(self, tmp_path):
        # each subcommand with up to four of its own flags and at most one
        # flag of any subcommand, with valid values, out-of-range ones,
        # non-finite and non-numeric ones.  Sizes stay small so that no
        # example allocates much, and valid numbers stay in small ranges:
        # finite values beyond about 1e150 overflow in the region boxes and
        # the interval search.
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        odd = st.sampled_from(["nan", "inf", "-inf", "1e400", "-0", "x", ""])

        def numbers(lo, hi):
            return st.floats(lo, hi).map(repr) | odd

        def integers(lo, hi):
            return st.integers(lo, hi).map(str) | st.sampled_from(["2.5", "nan", "x", ""])

        values = {
            "--json": st.none(),
            "--overdamped": st.none(),
            "--method": st.sampled_from([m.value for m in Method] + ["DISK"]),
            "--rtol": numbers(-1.0, 2.0),
            "--epsilon": numbers(-1.0, 2.0),
            "--extension": numbers(-1.0, 4.0),
            "--gamma": numbers(-1.0, 12.0),
            "--resolution": integers(-1, 96),
            "--n": integers(-1, 8),
            "--seed": integers(-1, 99),
        }
        own = {
            "analyze": ["--json", "--rtol"],
            "regions": ["--method", "--json", "--extension"],
            "overdamped": ["--json", "--rtol", "--epsilon"],
            "plot": ["--method", "--extension", "--resolution"],
            "verify": ["--method", "--json"],
            "gen": ["--n", "--seed", "--gamma", "--overdamped"],
        }

        def flags(names, most):
            flag = st.sampled_from(names).flatmap(
                lambda f: values[f].map(lambda v: [f] if v is None else [f, v])
            )
            return st.lists(flag, max_size=most)

        general = tmp_path / "general.json"
        save_system(cli.random_system(3, 1), general)
        modal = tmp_path / "modal.json"  # modally damped and overdamped
        modal.write_text('{"n": 2, "M": [1, 0, 0, 1], "C": [5, 0, 0, 7], "K": [1, 0, 0, 2]}')
        out = tmp_path / "out"

        @hypothesis.settings(max_examples=150, deadline=None)
        @hypothesis.given(st.data(), st.sampled_from([general, modal]))
        def check(data, system):
            command = data.draw(st.sampled_from(sorted(own)))
            drawn = data.draw(flags(own[command], 4)) + data.draw(flags(sorted(values), 1))
            out.unlink(missing_ok=True)
            argv = [command] + ([] if command == "gen" else ["--input", str(system)])
            if command in ("plot", "gen"):
                argv += ["--output", str(out)]
            argv += [word for flag in drawn for word in flag]
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects the flag or value
                code = exc.code
            assert code in (0, 2, 3, 4)
            assert out.exists() == (code == 0 and command in ("plot", "gen"))

        check()
