import json
import math
import socket
import subprocess
import sys
import time

import numpy as np
import pytest

from ldphist import cli
from ldphist.cli import main
from ldphist.core import PublicRandomness, derive_fo_params
from ldphist.freq_oracle import fo_client_report
from ldphist.harness import DatasetSpec, ExperimentConfig, run_experiment
from ldphist.transport import _REPORT_BITS

# An eps whose e^eps overflows a float makes c_eps and the keep probability
# meaningless, and an eps^2 n that overflows makes the oracle's gamma zero.
_EPS_REFUSED = "eps must be finite, > 0 and at most ln(max float) = 709.78, got "

def _run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    return out


class TestCliExperiments:
    def test_fo(self, tmp_path, capsys):
        out = _run(
            ["fo", "--d", "32", "--n", "2000", "--eps", "1.0", "--beta", "0.2",
             "--trials", "1", "--seed", "3", "--out-dir", str(tmp_path)],
            capsys,
        )
        assert "[metrics]" in out
        assert (tmp_path / "fo_estimates.csv").exists()
        assert (tmp_path / "fo_manifest.json").exists()
        from ldphist.freq_oracle import AggregateState

        agg = AggregateState.from_bytes((tmp_path / "fo_aggregate.bin").read_bytes())
        assert agg.n_total == 2000

    def test_fo_one_bit(self, tmp_path, capsys):
        import math

        out = _run(
            ["fo", "--d", "8", "--n", "1500", "--eps", str(math.log(2)),
             "--beta", "0.2", "--one-bit", "--out-dir", str(tmp_path)],
            capsys,
        )
        manifest = json.loads((tmp_path / "fo_manifest.json").read_text())
        rate = manifest["trial_metrics"][0]["acceptance_rate"]
        assert abs(rate - 0.5) < 0.06
        assert manifest["config"]["one_bit"] is True

    def test_fo_respects_env_out(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("LDPHIST_OUT", str(tmp_path / "envout"))
        _run(["fo", "--d", "16", "--n", "500", "--eps", "1.0", "--beta", "0.2"], capsys)
        assert (tmp_path / "envout" / "fo_estimates.csv").exists()

    def test_config_file_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "params.cfg"
        cfg.write_text("d = 16\nn = 400\neps = 1.5\nbeta = 0.2\n")

        def fo_params(argv):
            out = _run(["fo", *argv, "--out-dir", str(tmp_path)], capsys)
            return json.loads(out.split("[derived] ", 1)[1].split("\n", 1)[0])["fo_params"]

        fo = fo_params(["--config", str(cfg)])
        assert (fo["d"], fo["n"], fo["eps"], fo["beta"]) == (16, 400, 1.5, 0.2)
        # The command line overrides the file, before or after --config.
        for argv in (["--n", "300", "--config", str(cfg)], ["--config", str(cfg), "--n", "300"]):
            fo = fo_params(argv)
            assert (fo["d"], fo["n"]) == (16, 300)

    @pytest.mark.parametrize("entry, named", [
        ("k-override = 8", "'k-override'"),  # not an option of fo
        ("d = 16.5", "--d"),
        ("code = concatenated", "'code'"),
        ("one-bit = false", "unrecognized arguments: false"),
    ])
    def test_config_file_rejects_bad_entry(self, tmp_path, capsys, entry, named):
        cfg = tmp_path / "params.cfg"
        cfg.write_text(f"n = 400\n{entry}\n")
        with pytest.raises(SystemExit):
            main(["fo", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert named in capsys.readouterr().err

    def test_config_file_list_and_flag_options(self, tmp_path, capsys):
        cfg = tmp_path / "params.cfg"
        cfg.write_text("m-list = 2 4\neps-list = 1.0\n")
        _run(["audit", "--config", str(cfg), "--out-dir", str(tmp_path)], capsys)
        table = (tmp_path / "audit_randomizer.csv").read_text().split()
        assert [row.split(",")[0] for row in table[1:]] == ["2", "4"]
        cfg.write_text("d = 8\nn = 1500\neps = 0.69\nbeta = 0.2\none-bit = 1\n")
        _run(["fo", "--config", str(cfg), "--out-dir", str(tmp_path)], capsys)
        manifest = json.loads((tmp_path / "fo_manifest.json").read_text())
        assert manifest["config"]["one_bit"] is True

    def test_config_file_roundtrip(self, tmp_path, capsys):
        # Comments, blank lines and spacing around "=" are skipped; a
        # string value is kept as its stripped text.
        cfg = tmp_path / "run.params"
        cfg.write_text("# comment\n\nd = 16\neps=1.5\nn = 400\nbeta = 0.2\n"
                       "dataset = planted  # trailing\nplanted = 3:0.5\n")
        out = _run(["fo", "--config", str(cfg), "--out-dir", str(tmp_path)], capsys)
        fo = json.loads(out.split("[derived] ", 1)[1].split("\n", 1)[0])["fo_params"]
        assert (fo["d"], fo["n"], fo["eps"]) == (16, 400, 1.5)
        manifest = json.loads((tmp_path / "fo_manifest.json").read_text())
        assert manifest["config"]["dataset"]["planted"] == [[3, 0.5]]

    def test_config_file_rejects_garbage(self, tmp_path, capsys):
        cfg = tmp_path / "bad.params"
        cfg.write_text("n = 400\nnot a pair\n")
        with pytest.raises(SystemExit) as exc:
            main(["fo", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert f"{cfg}:2: expected key=value, got 'not a pair'" in capsys.readouterr().err

    @pytest.mark.parametrize("command, entry, refused", [
        ("audit", "m-list = 2 --help", "invalid int value: '--help'"),
        ("audit", "m-list = 2 --config {cfg}", "invalid int value: '--config'"),
        ("audit", "m-list =", "invalid int value: ''"),
        ("fo", "n = --config {cfg}", "invalid int value: '--config {cfg}'"),
        ("fo", "one-bit = 1.0", "one-bit takes 1 or 0"),
        ("fo", "one-bit = 01", "one-bit takes 1 or 0"),
        ("fo", "one-bit = --help", "one-bit takes 1 or 0"),
        ("fo", "d = 16.5", "{cfg}:1: argument --d: invalid int value: '16.5'"),
        ("hist", "mode = slow", "{cfg}:1: argument --mode: invalid choice: 'slow'"),
    ], ids=["list-help", "list-self", "list-empty", "scalar-self", "flag-float",
            "flag-padded", "flag-help", "scalar-type-named", "scalar-choice-named"])
    def test_config_value_sets_only_its_option(self, tmp_path, capsys, command, entry, refused):
        # A value is never read as another option, so a file can neither
        # ask for help nor name itself again.
        cfg = tmp_path / "params.cfg"
        cfg.write_text(entry.format(cfg=cfg) + "\n")
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert refused.format(cfg=cfg) in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("argv", [
        ["fo", "--config", "{missing}"],
        ["fo", "--config", "{dir}"],
        ["submit", "--port", "1", "--reports", "{missing}"],
    ], ids=["config-missing", "config-directory", "reports-missing"])
    def test_unopenable_file_exits_with_message(self, tmp_path, capsys, argv):
        paths = {"missing": str(tmp_path / "missing.txt"), "dir": str(tmp_path)}
        argv = [arg.format(**paths) for arg in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert argv[-1] in err and "Traceback" not in err

    @pytest.mark.parametrize("argv, refused", [
        (["hist", "--d", "16", "--n", "1000", "--eps", "0.6"], "threshold 1.465"),
        (["serve", "--one-bit", "--eps", "2.0", "--port", "0"], "budget 2.0000"),
        (["fo", "--one-bit", "--eps", "1.0"], "budget 1.0000"),
        (["fo", "--d", "65537", "--n", "1000"], "cap is 65536"),
        (["fo", "--d", "16", "--n", "200", "--trials", "0"], "at least one trial, got 0"),
        (["sweep", "--d", "16", "--n-list", "200", "--trials", "0"], "at least one trial, got 0"),
        (["pp", "--d", "256", "--n", "2000", "--eps", "2", "--item", "-1"],
         "promise item -1 outside [0, 256)"),
        (["fo", "--d", "64", "--dataset", "planted", "--planted", "70:0.5"],
         "planted item 70 outside [0, 64)"),
        (["fo", "--d", "64", "--dataset", "planted", "--planted=-3:0.5"],
         "planted item -3 outside [0, 64)"),
        (["audit", "--m-list", "2", "0"], "got 0"),
        (["audit", "--m-list", "-2"], "got -2"),
        (["audit", "--m-list", str(cli._AUDIT_M_MAX + 1)], f"got {cli._AUDIT_M_MAX + 1}"),
        (["hist", "--planted", ","], "--planted takes item:freq[,item:freq...], got ','"),
        (["hist", "--planted", "x"], "--planted takes item:freq[,item:freq...], got 'x'"),
        (["hist", "--planted", "1:2:3"], "--planted takes item:freq[,item:freq...], got '1:2:3'"),
        (["fo", "--dataset", "zipf:abc"], "--dataset takes zipf[:s] with a number s, got 'zipf:abc'"),
        (["fo", "--dataset", "zipfoo"], "unknown dataset kind 'zipfoo'"),
        (["fo", "--d", "64", "--n", "1000", "--dataset", "planted", "--planted", "1:-0.1,2:0.6"],
         "planted frequency -0.1 of item 1 outside [0, 1]"),
        (["fo", "--d", "64", "--dataset", "planted", "--planted", "1:nan"],
         "planted frequency nan of item 1 outside [0, 1]"),
        (["fo", "--d", "64", "--n", "3", "--dataset", "planted", "--planted", "1:0.5,2:0.5"],
         "planted counts sum to 4 > n = 3"),
        (["fo", "--dataset", "zipf:nan"], "zipf exponent s must be finite, got nan"),
        (["fo", "--dataset", "zipf:inf"], "zipf exponent s must be finite, got inf"),
        (["fo", "--d", "16", "--n", "200", "--planted", "7:0.5"],
         "--planted needs --dataset planted, got --dataset uniform"),
        (["hist", "--dataset", "uniform", "--planted", "7:0.5"],
         "--planted needs --dataset planted, got --dataset uniform"),
        (["fo", "--d", "0", "--n", "100"], "universe size must be >= 2, got 0"),
        (["fo", "--eps", "inf"], _EPS_REFUSED + "inf"),
        (["hist", "--eps", "inf"], _EPS_REFUSED + "inf"),
        (["serve", "--eps", "inf", "--port", "0"], _EPS_REFUSED + "inf"),
        (["sweep", "--eps", "inf"], _EPS_REFUSED + "inf"),
        (["fo", "--eps", "1e300"], _EPS_REFUSED + "1e+300"),
        (["hist", "--eps", "1e300"], _EPS_REFUSED + "1e+300"),
        (["serve", "--eps", "1e300", "--port", "0"], _EPS_REFUSED + "1e+300"),
        (["sweep", "--eps", "1e300"], _EPS_REFUSED + "1e+300"),
        (["fo", "--eps", "800"], _EPS_REFUSED + "800.0"),
        (["audit", "--eps-list", "800"], _EPS_REFUSED + "800.0"),
        (["pp", "--eps", "inf"], _EPS_REFUSED + "inf"),
        (["audit", "--eps-list", "1", "inf"], _EPS_REFUSED + "inf"),
        # Count tables past the 2 GiB budget, each larger than this 8 GB machine class.
        (["fo", "--eps", "700"], "the oracle's m_fo = 10250823175 (from eps = 700, n = 10000) "
         "needs a count table of 164,013,170,800 bytes; the budget is 2,147,483,648"),
        (["sweep", "--eps", "700"], "m_fo = 10250823175"),
        (["serve", "--eps", "700", "--n", "100000", "--port", "0"],
         "the oracle's m_fo = 1042487741 (from eps = 63.6364, n = 100000) needs a count table of 16,679,803,856"),
        (["hist", "--d", "4294967296", "--n", "100000", "--eps", "2", "--beta", "0.5", "--code",
          "concatenated", "--dataset", "uniform"], "fast mode's 299477 channel rows at m = 2048 "
         "(99997 distinct items, K = 31622776, T = 3) needs a count table of 9,813,262,336 bytes"),
        # Pure noise passes the outer decoder too often at d <= 2^16 for any verified decode.
        (["hist", "--d", "256", "--n", "20000", "--eps", "2", "--code", "concatenated"],
         "the concatenated code at d = 256 accepts no verified decode"),
        (["serve", "--n", "100000", "--eps", "2", "--code", "concatenated", "--port", "0"],
         "the concatenated code at d = 1024 accepts no verified decode"),
    ], ids=["hist", "serve-one-bit", "fo-one-bit", "fo-universe", "fo-no-trials",
            "sweep-no-trials", "pp-item", "fo-planted-above", "fo-planted-negative",
            "audit-m-zero", "audit-m-negative", "audit-m-above-cap", "hist-planted-empty",
            "hist-planted-one-field", "hist-planted-three-fields", "fo-zipf-exponent",
            "fo-zipf-prefix", "fo-planted-frequency-negative", "fo-planted-frequency-nan",
            "fo-planted-counts-above-n", "fo-zipf-nan", "fo-zipf-inf",
            "fo-planted-without-dataset", "hist-planted-without-dataset", "fo-universe-below-two",
            "fo-eps-inf", "hist-eps-inf", "serve-eps-inf", "sweep-eps-inf", "fo-eps-1e300",
            "hist-eps-1e300", "serve-eps-1e300", "sweep-eps-1e300", "fo-eps-800", "audit-eps-800",
            "pp-eps-inf", "audit-eps-inf", "fo-table", "sweep-table", "serve-table", "hist-table",
            "hist-concatenated-small-d", "serve-concatenated-small-d"])
    def test_refused_parameters_exit_with_message(self, tmp_path, capsys, argv, refused):
        # The library's ValueError becomes a one-line usage error, not a
        # traceback, and neither an output file nor the output directory,
        # which does not exist yet, is made.
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out-dir", str(tmp_path / "out")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert refused in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_zipf_above_its_cap_is_refused_before_drawing(self, tmp_path, capsys):
        # A zipf draw weighs all d items; at d = 2^32 that is 32 GiB of
        # float64 weights, so the refusal must come before any is built.
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(["hist", "--d", "4294967296", "--dataset", "zipf", "--code", "concatenated",
                  "--out-dir", str(tmp_path)])
        assert time.perf_counter() - start < 1.0
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "zipf dataset weighs all d = 4294967296 items; cap is 4194304" in err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 2  # usage, error
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, names", [
        (["hist", "--eps", "2", "--beta", "0.5", "--dataset", "planted"],
         ["hist_manifest.json", "histogram.csv"]),
        (["pp", "--eps", "2"], ["pp_manifest.json", "pp_result.csv"]),
    ], ids=["hist", "pp"])
    def test_paper_universe_runs_in_seconds(self, tmp_path, capsys, argv, names):
        # The metrics read only the items held or published, so no run
        # builds anything of length d: a dense truth at d = 2^32 is 32 GiB.
        start = time.perf_counter()
        _run(argv + ["--d", "4294967296", "--n", "2000", "--code", "concatenated", "--trials", "1",
                     "--seed", "1", "--out-dir", str(tmp_path)], capsys)
        assert time.perf_counter() - start < 5.0
        assert sorted(p.name for p in tmp_path.iterdir()) == names
        manifest = json.loads((tmp_path / names[0]).read_text())
        assert manifest["config"]["dataset"]["d"] == 2**32

    def test_pp(self, tmp_path, capsys):
        out = _run(
            ["pp", "--d", "256", "--n", "20000", "--eps", "2.0", "--beta", "0.1",
             "--eta", "1.0", "--item", "42", "--trials", "2",
             "--out-dir", str(tmp_path)],
            capsys,
        )
        metrics = json.loads(out.split("[metrics] ", 1)[1])
        assert metrics["recovered"] == 2

    def test_hist(self, tmp_path, capsys):
        out = _run(
            ["hist", "--d", "64", "--n", "10000", "--eps", "2.0", "--beta", "0.5",
             "--k-override", "100000", "--planted", "7:0.6", "--seed", "1",
             "--out-dir", str(tmp_path)],
            capsys,
        )
        assert (tmp_path / "histogram.csv").exists()
        assert "median_recall" in out

    def test_audit(self, tmp_path, capsys):
        out = _run(
            ["audit", "--m-list", "2", "4", "--eps-list", "1.0",
             "--out-dir", str(tmp_path)],
            capsys,
        )
        table = (tmp_path / "audit_randomizer.csv").read_text().strip().split("\n")
        assert table[0] == "m,eps,eps_observed,delta_at_eps"
        for line in table[1:]:
            m, eps, observed, delta = line.split(",")
            assert abs(float(observed) - float(eps)) < 1e-9
        amp = (tmp_path / "audit_amplification.csv").read_text().strip().split("\n")
        for line in amp[1:]:
            eta, eps, bound, observed, info = line.split(",")
            assert float(observed) <= float(bound) + 1e-9

    def test_audit_bound_is_finite_at_large_eps(self, tmp_path, capsys):
        # e^(2 eps) overflows past eps = 354.9; the bound is ln eta + 2 eps there.
        _run(["audit", "--m-list", "2", "--eps-list", "400", "--out-dir", str(tmp_path)], capsys)
        amp = (tmp_path / "audit_amplification.csv").read_text().strip().split("\n")
        bounds = {float(line.split(",")[0]): float(line.split(",")[2]) for line in amp[1:]}
        assert bounds[0.0] == 0.0 and bounds[1.0] == 800.0
        assert all(math.isfinite(b) and b == pytest.approx(800 + math.log(eta), abs=1e-9)
                   for eta, b in bounds.items() if eta > 0)

    @pytest.mark.parametrize("argv, config, names", [
        (["fo", "--d", "16", "--n", "300", "--seed", "2"],
         ExperimentConfig("fo", DatasetSpec("uniform", 16, 300, 2), eps=1.0, beta=0.1, seed=2),
         ("fo_estimates.csv", "fo_manifest.json", "fo_aggregate.bin")),
        (["pp", "--d", "64", "--n", "500", "--eps", "2.0", "--item", "5", "--trials", "2",
          "--seed", "4"],
         ExperimentConfig("pp", DatasetSpec("promise", 64, 500, 4, eta=1.0, item=5), eps=2.0,
                          beta=0.1, seed=4, trials=2),
         ("pp_result.csv", "pp_manifest.json", None)),
        (["hist", "--d", "64", "--n", "10000", "--eps", "2.0", "--beta", "0.5",
          "--k-override", "100000", "--planted", "7:0.6", "--seed", "1"],
         ExperimentConfig("hist", DatasetSpec("planted", 64, 10000, 1, planted=((7, 0.6),)),
                          eps=2.0, beta=0.5, seed=1, k_override=100000),
         ("histogram.csv", "hist_manifest.json", None)),
    ], ids=["fo", "pp", "hist"])
    def test_outputs_are_run_experiments(self, tmp_path, capsys, argv, config, names):
        # Each subcommand writes exactly its file set, byte for byte what
        # run_experiment writes for the same configuration.
        cli_dir, lib_dir = tmp_path / "cli", tmp_path / "lib"
        out = _run(argv + ["--out-dir", str(cli_dir)], capsys)
        assert sorted(p.name for p in cli_dir.iterdir()) == sorted(n for n in names if n)
        lib_dir.mkdir()
        csv, manifest, blob = (n and str(lib_dir / n) for n in names)
        record = run_experiment(config, out_csv=csv, out_manifest=manifest, out_aggregate=blob)
        for name in filter(None, names):
            assert (cli_dir / name).read_bytes() == (lib_dir / name).read_bytes(), name
        assert out.startswith("[derived] " + json.dumps(record.derived, sort_keys=True) + "\n")

    def test_sweep(self, tmp_path, capsys):
        out = _run(
            ["sweep", "--d", "64", "--eps", "1.0", "--beta", "0.2",
             "--n-list", "1000", "4000", "--trials", "3",
             "--out-dir", str(tmp_path)],
            capsys,
        )
        assert (tmp_path / "fo_sweep.csv").exists()
        assert "ratios" in out


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class TestCliService:
    def test_serve_and_submit_roundtrip(self, tmp_path, capsys):
        port = _free_port()
        proc = subprocess.Popen(
            [sys.executable, "-m", "ldphist", "serve",
             "--protocol", "fo", "--d", "8", "--n", "50", "--eps", "1.0",
             "--beta", "0.2", "--seed", "12", "--port", str(port)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={**__import__("os").environ, "PYTHONPATH": "src"},
            cwd=str(__import__("pathlib").Path(__file__).resolve().parents[1]),
        )
        try:
            # wait for the listener
            deadline = time.time() + 10
            while time.time() < deadline:
                try:
                    socket.create_connection(("127.0.0.1", port), timeout=0.2).close()
                    break
                except OSError:
                    time.sleep(0.05)
            else:
                raise RuntimeError("service did not come up")

            pub = PublicRandomness.from_any(12)
            params = derive_fo_params(8, 50, 1.0, 0.2)
            rng = np.random.default_rng(0)
            lines = ["kind,user,t,k,position,sign"]
            for user in range(50):
                rep = fo_client_report(user % 8, params, pub, 1.0, rng)
                lines.append(f"fo,{user},0,0,{rep.position},{rep.sign}")
            reports = tmp_path / "reports.csv"
            reports.write_text("\n".join(lines) + "\n")

            out = _run(
                ["submit", "--host", "127.0.0.1", "--port", str(port),
                 "--reports", str(reports), "--close"],
                capsys,
            )
            assert "item,estimated_frequency" in out
            stdout, _ = proc.communicate(timeout=10)
            assert "item,estimated_frequency" in stdout
        finally:
            if proc.poll() is None:
                proc.kill()


def test_field_bounds_follow_report_wire_widths():
    # The report-file check and ReportPayload.pack share one width table;
    # the file names the user field "user" where the payload says "user_id".
    assert list(cli._FIELD_BOUNDS) == ["user", "t", "k", "position"]
    assert list(cli._FIELD_BOUNDS.values()) == [1 << bits for bits in _REPORT_BITS.values()]
    assert list(_REPORT_BITS) == ["user_id", "t", "k", "position"]


class TestCliSubmitChecks:
    """A report file is checked line by line before the service is
    contacted, so these need no server (nothing listens on port 1)."""

    @pytest.mark.parametrize("line, named", [
        ("fo,1,0,0,3,0", "sign"),
        ("pp,1,0,0,3,7", "sign"),
        ("bit,1,0,0,0,7", "sign"),
        ("bit,1,0,0,0,-1", "sign"),
        ("fo,-1,0,0,3,1", "user -1"),
        ("fo,18446744073709551616,0,0,3,1", "user"),
        ("pp,1,65536,0,3,1", "t 65536"),
        ("pp,1,0,4294967296,3,1", "k 4294967296"),
        ("fo,1,0,0,-3,1", "position -3"),
        ("fo,1,0,0,3", "five integer fields"),
        ("fo,1,0,0,3,1,1", "five integer fields"),
        ("pp,1,0,x,3,1", "five integer fields"),
        ("", "unknown report kind"),
        ("oracle,1,0,0,3,1", "unknown report kind"),
    ])
    def test_bad_line_refused_before_connecting(self, tmp_path, capsys, line, named):
        reports = tmp_path / "reports.csv"
        reports.write_text("kind,user,t,k,position,sign\nfo,0,0,0,1,-1\n" + line + "\n")
        with pytest.raises(SystemExit) as exc:
            main(["submit", "--port", "1", "--reports", str(reports)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "line 3:" in err and named in err and "Traceback" not in err
