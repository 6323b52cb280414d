import math
import time
import tracemalloc
from fractions import Fraction

import pytest

from profile_tools import format_profile
from skalab import cli
from skalab.cli import main
from skalab.profiles import ComplexityProfile, all_nonempty_subsets, ceil_log2
from skalab.protocols import Margins, SessionConfig, run_session
from skalab.runner import run_plan, summarize, sweep_configs
from skalab.sources import parse_model_spec


def one_config(spec="identical:n=12", protocol="light", seed=9):
    return (SessionConfig(parse_model_spec(spec), protocol, Fraction(1, 16), seed),)


def test_run_plan_csv_columns():
    out = run_plan(one_config(), 5)
    lines = out["csv"].strip().splitlines()
    assert lines[0] == "trial,agreed,key_len,comm_bits,target_key_len,target_comm,decode_status"
    assert len(lines) == 6
    assert out["summaries"][0]["agreement_rate"] == 1.0


def test_run_plan_replay_byte_identical():
    a = run_plan(one_config(), 5)["csv"]
    b = run_plan(one_config(), 5)["csv"]
    assert a == b


def test_empty_plan():
    out = run_plan((), 10)
    assert out["summaries"] == []
    assert out["csv"].strip().splitlines()[0].startswith("trial,")


def test_sweep_hamming_message_length_tracks_entropy_bound():
    """Sweeping t at n=31: reconciliation payload follows ceil(h(t/31)*31)
    within the log-binomial-vs-entropy slack (<= 2.5 bits here)."""
    configs = sweep_configs(
        "hamming:n=31,t=1", None, [1, 2, 3], [Fraction(1, 16)], "light", seed=3
    )
    assert len(configs) == 3
    out = run_plan(configs, 20)
    for t, summary in zip([1, 2, 3], out["summaries"]):
        d = t / 31
        h_bits = 31 * (d * math.log2(1 / d) + (1 - d) * math.log2(1 / (1 - d)))
        k = ceil_log2(math.comb(31, t))
        payload = float(summary["mean_payload_bits"]) - 4  # minus check bits
        assert payload == k
        assert abs(k - math.ceil(h_bits)) <= 2.5
        assert float(summary["agreement_rate"]) >= 0.9


def test_summaries_count_decode_statuses():
    # t=12 at n=63 and eps=1/256 decodes by a walk over a 2^13-word coset;
    # t=10 at eps=1/2 leaves 2^25 words and 7.7 million subsets in the
    # larger half of the meet in the middle, both past the sphere's cap.
    configs = sweep_configs("hamming:n=63,t=2", None, [2, 12], [Fraction(1, 256)], "light", seed=4)
    configs += sweep_configs("hamming:n=63,t=10", None, None, [Fraction(1, 2)], "light", seed=4)
    out = run_plan(configs, 3)
    assert [s["decode_statuses"] for s in out["summaries"]] == ["unique:3", "unique:3", "search_limit:3"]
    assert out["csv"].count(",search_limit\n") == 3


def test_sweep_csv_has_config_columns():
    configs = sweep_configs("identical:n=8", [8, 10], None, [Fraction(1, 4)], "light", 1)
    out = run_plan(configs, 2)
    header = out["csv"].splitlines()[0]
    assert header.startswith("model,protocol,eps,trial,")
    assert "identical:n=10" in out["csv"]


def test_summarize_fields():
    config = SessionConfig(parse_model_spec("identical:n=8"), "light", Fraction(1, 4), 2)
    s = summarize(config, [run_session(config, t) for t in range(4)])
    assert s["model"] == "identical:n=8" and s["trials"] == 4
    assert s["eps"] == "1/4"


# ---------------------------------------------------------
# CLI
# ---------------------------------------------------------

def test_cli_simulate(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    rc = main(
        [
            "simulate",
            "--model", "line-point:n=12",
            "--protocol", "light",
            "--eps", "1/64",
            "--trials", "50",
            "--seed", "5",
            "--out", str(out),
        ]
    )
    assert rc == 0
    text = out.read_text()
    assert text.splitlines()[0].startswith("trial,")
    assert len(text.strip().splitlines()) == 51
    assert "agreement=" in capsys.readouterr().err


def test_cli_rates(tmp_path, capsys):
    profile_file = tmp_path / "triple.profile"
    profile_file.write_text(format_profile(parse_model_spec("triple:n=16").profile()))
    rc = main(["rates", "--profile", str(profile_file)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "CO = 72" in out
    assert "rates = (24, 24, 24)" in out
    assert "key_capacity = 8" in out
    assert "CO_closed_form = 72" in out


@pytest.mark.parametrize(
    "text",
    [
        "1=1\n2=x\n1,2=2\n",  # does not parse
        "1=1\n2=1\n1,2=3\n",  # not a polymatroid
        "1=5\n",  # one party has no rate region
        format_profile(ComplexityProfile(9, {s: len(s) for s in all_nonempty_subsets(9)})),
    ],
)
def test_cli_rates_reports_bad_profile(tmp_path, capsys, text):
    profile_file = tmp_path / "bad.profile"
    profile_file.write_text(text)
    assert main(["rates", "--profile", str(profile_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "text, lineno",
    [("1=2\n2=2\n1,2,2=3\n", 3), ("1=2\n+2=2\n1,2=3\n", 2), ("1=2\n0_2=2\n1,2=3\n", 2),
     ("\uff11=4\n2=2\n1,2=3\n", 1)],
    ids=["repeated", "plus", "underscore", "full-width"],
)
def test_cli_rates_rejects_lenient_party_indices(tmp_path, capsys, text, lineno):
    # int() alone reads each of these as a valid two-party profile: "1,2,2"
    # as {1, 2}, "+2" and "0_2" as party 2, a full-width 1 as party 1.
    profile_file = tmp_path / "lenient.profile"
    profile_file.write_text(text, encoding="utf-8")
    assert main(["rates", "--profile", str(profile_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: line {lineno}: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "text, lineno",
    [("1=2\n2=1e1\n1,2=3\n", 2), ("1=+4\n2=2\n1,2=3\n", 1), ("1=2\n2=2\n1,2=1_6\n", 3),
     ("1=\uff14\n2=2\n1,2=3\n", 1)],
    ids=["exponent", "plus", "underscore", "full-width"],
)
def test_cli_rates_rejects_lenient_values(tmp_path, capsys, text, lineno):
    # Fraction() alone reads "1e1" as 10, "+4" as 4, "1_6" as 16 and a
    # full-width 4 as 4.
    profile_file = tmp_path / "lenient.profile"
    profile_file.write_text(text, encoding="utf-8")
    assert main(["rates", "--profile", str(profile_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: line {lineno}: ") and captured.err.count("\n") == 1


def test_cli_rates_reports_a_profile_that_is_not_utf8(tmp_path, capsys):
    profile_file = tmp_path / "bad.profile"
    profile_file.write_bytes(b"\xff\xfe\x00bad")
    assert main(["rates", "--profile", str(profile_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("party", [9, 16])
def test_cli_rates_rejects_a_party_past_the_limit(tmp_path, capsys, party):
    # Rejected while parsing, before the profile builds its 2^party - 1
    # subsets, whose list would otherwise fill the error line.
    profile_file = tmp_path / "wide.profile"
    profile_file.write_text(f"1=1\n{party}=1\n")
    assert main(["rates", "--profile", str(profile_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1 and len(captured.err) < 80


def test_cli_rates_reports_missing_subsets_in_one_short_line(tmp_path, capsys):
    # Party 8 makes a profile of 255 subsets, 253 of them missing here: the
    # error names the counts and the first few, not every subset.
    profile_file = tmp_path / "sparse.profile"
    profile_file.write_text("1=1\n8=1\n")
    assert main(["rates", "--profile", str(profile_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1 and len(captured.err.encode()) < 200
    assert "missing 253 [(1, 2), " in captured.err and "extra 0 []" in captured.err


def test_cli_audit(tmp_path):
    report = tmp_path / "audit.txt"
    rc = main(
        [
            "audit",
            "--model", "identical:n=8",
            "--protocol", "light",
            "--eps", "1/4",
            "--trials", "3000",
            "--seed", "12",
            "--report", str(report),
        ]
    )
    text = report.read_text()
    assert "est_tv=" in text and "leakage_bits=" in text
    assert rc in (0, 1)  # pass depends on the fixed seed's hash rank


def test_cli_audit_without_verdict_exits_3(tmp_path):
    # 200 line-point:n=16 trials fall into distinct strata: no verdict.
    report = tmp_path / "audit.txt"
    rc = main(
        [
            "audit",
            "--model", "line-point:n=16",
            "--protocol", "light",
            "--trials", "200",
            "--report", str(report),
        ]
    )
    assert "passed=0\ninconclusive=1\n" in report.read_text()
    assert rc == 3


def test_cli_audit_without_any_key_exits_3(tmp_path, capsys):
    # No triple:n=64 session decodes at default margins (its cosets are
    # past the joint search's cap), so no trial gives party 1 a key.
    report = tmp_path / "audit.txt"
    rc = main(
        [
            "audit",
            "--model", "triple:n=64",
            "--protocol", "omniscience",
            "--trials", "3",
            "--report", str(report),
        ]
    )
    assert rc == 3
    assert "inconclusive=1\n" in report.read_text() and "stratum_count=0\n" in report.read_text()
    assert "Traceback" not in capsys.readouterr().err


def test_cli_audit_wide_key_needs_no_table_of_its_values(tmp_path, capsys):
    # A 32-bit key: the threshold must not cost anything of size 2^32.  At
    # the default seed the 200 draws do not collide, so the audit passes.
    report = tmp_path / "audit.txt"
    tracemalloc.start()
    start = time.perf_counter()
    try:
        rc = main(
            [
                "audit",
                "--model", "identical:n=32",
                "--protocol", "light",
                "--eps", "1/4",
                "--trials", "200",
                "--report", str(report),
            ]
        )
        elapsed = time.perf_counter() - start
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 0 and "key_len=32\n" in report.read_text() and "passed=1\n" in report.read_text()
    assert "Traceback" not in capsys.readouterr().err
    assert elapsed < 2.0 and peak < 64 << 20


def test_cli_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    summary = tmp_path / "sweep.txt"
    rc = main(
        [
            "sweep",
            "--model", "hamming:n=15,t=1",
            "--protocol", "light",
            "--t", "1", "2",
            "--eps-list", "1/16",
            "--trials", "10",
            "--seed", "4",
            "--out", str(out),
            "--summary", str(summary),
            "--quiet",
        ]
    )
    assert rc == 0
    assert len(out.read_text().strip().splitlines()) == 21
    assert len(summary.read_text().strip().splitlines()) == 2


@pytest.mark.parametrize("trials", [0, 2])
def test_cli_sweep_summary_reads_the_plan(tmp_path, trials):
    # The key length and targets are the plan's whether or not a session
    # ran (light line-point:n=8 at eps=1/4 plans 8, 8 and 10); the rate and
    # the means of no session stay 0.
    summary = tmp_path / "s.txt"
    argv = ["sweep", "--model", "line-point:n=8", "--protocol", "light", "--eps", "1/4",
            "--trials", str(trials), "--out", str(tmp_path / "c.csv"), "--summary", str(summary), "--quiet"]
    assert main(argv) == 0
    fields = dict(field.split("=", 1) for field in summary.read_text().split())
    assert (fields["key_len"], fields["target_key_len"], fields["target_comm"]) == ("8", "8", "10")
    config = SessionConfig(parse_model_spec("line-point:n=8"), "light", Fraction(1, 4), 0)
    for o in (run_session(config, t) for t in range(trials)):
        assert (o.key_len, o.target_key_len, o.target_comm) == (8, 8, 10)
    if not trials:
        assert [fields[k] for k in ("agreement_rate", "mean_comm_bits", "mean_payload_bits")] == ["0.0"] * 3


def test_cli_sweep_margin_flag_keeps_each_configs_other_margins(tmp_path):
    # --margin-k 24 is the default k_slack at n=64, so setting it must
    # change nothing: every swept eps keeps its own default phase-1 and
    # deficiency margins.
    assert Margins.defaults(64, Fraction(1, 4)).k_slack == 24
    argv = [
        "sweep",
        "--model", "line-point:n=64",
        "--protocol", "two-phase",
        "--eps-list", "1/4", "1/256",
        "--trials", "2",
        "--quiet",
    ]
    outs = []
    for extra in ([], ["--margin-k", "24"]):
        out = tmp_path / f"sweep{len(extra)}.csv"
        assert main(argv + extra + ["--out", str(out)]) == 0
        outs.append(out.read_text())
    assert outs[0] == outs[1]


# An unknown model, margins that leave the extractor no output (m = 0), and
# a field degree with no registered polynomial.  The last sweep's first
# config is valid, and still no session may run before the bad one fails.
BAD_CONFIGS = [
    ("bogus:n=2", "light", "1/256", "2"),
    ("line-point:n=2", "two-phase", "1/2", "2"),
    ("line-point:n=70", "light", "1/256", "8 70"),
]


@pytest.mark.parametrize("command", ["simulate", "audit", "sweep"])
@pytest.mark.parametrize("model,protocol,eps,sweep_n", BAD_CONFIGS)
def test_cli_bad_config_is_a_usage_error(capsys, command, model, protocol, eps, sweep_n):
    argv = [command, "--model", model, "--protocol", protocol, "--eps", eps, "--trials", "2"]
    if command == "sweep":
        argv += ["--n", *sweep_n.split()]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("value", ["0", "3/2"])
def test_cli_extractor_eps_outside_unit_interval_is_a_usage_error(capsys, value):
    # 0 is no error bound, so it may not stand for the session eps.
    argv = ["simulate", "--model", "identical:n=64", "--protocol", "two-phase", "--extractor-eps", value, "--trials", "2"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: extractor eps must be in (0, 1], got {value}\n"


def test_cli_sweep_t_on_a_model_without_t_is_a_usage_error(capsys):
    # A t axis on a model that takes none would run the same config once
    # per t value and write duplicate rows.
    argv = ["sweep", "--model", "line-point:n=8", "--protocol", "light", "--t", "1", "2", "--trials", "2"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line-point takes no t parameter\n"


def test_cli_sweeps_identical_over_n_but_not_over_t(capsys):
    # identical is hamming with t held at 0, which is no parameter of its
    # spec: an n axis sweeps it, a t axis is a usage error.
    argv = ["sweep", "--model", "identical:n=8", "--protocol", "light", "--eps", "1/4", "--trials", "2", "--quiet"]
    assert main(argv + ["--n", "8", "16"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["identical:n=8"] * 2 + ["identical:n=16"] * 2
    assert main(argv + ["--t", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: identical takes no t parameter\n"


@pytest.mark.parametrize(
    "model,message",
    [("line-point:n=4,n=8", "model parameter n given twice"), ("identical:n=8,t=0", "identical takes no t parameter")],
)
def test_cli_model_spec_that_names_another_config_is_a_usage_error(capsys, model, message):
    # Neither spec string may run silently as a config it does not name.
    assert main(["simulate", "--model", model, "--protocol", "light", "--eps", "1/256", "--trials", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_cli_config_file(tmp_path, capsys):
    conf = tmp_path / "flags.conf"
    conf.write_text(
        "simulate\n--model\nidentical:n=8\n--protocol\nlight\n--eps\n1/4\n--trials\n5\n--quiet\n"
    )
    rc = main([f"@{conf}"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("trial,")


def test_cli_rejects_bad_eps():
    with pytest.raises(SystemExit):
        main(["simulate", "--model", "identical:n=8", "--protocol", "light", "--eps", "x"])


@pytest.mark.parametrize(
    "command,trials,valid",
    [("simulate", "-1", False), ("sweep", "-1", False), ("audit", "0", False), ("audit", "-5", False),
     ("simulate", "0", True), ("sweep", "0", True), ("audit", "1", True)],
)
def test_cli_validates_trials(capsys, command, trials, valid):
    argv = [command, "--model", "identical:n=8", "--protocol", "light", "--eps", "1/4", "--trials", trials, "--quiet"]
    if valid:
        assert main(argv) in (0, 3)  # one audit trial judges no stratum
        return
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --trials" in err and "Traceback" not in err


@pytest.mark.parametrize("flag", ["--margin-k", "--margin-phase1", "--margin-deficiency"])
def test_cli_margins_are_not_negative(capsys, flag):
    # A negative margin cuts a fingerprint or the key material below what
    # the error bound needs (--margin-k -30 left every hamming:n=63,t=2
    # two-phase session ambiguous), so it is a usage error like a bad --trials.
    argv = ["simulate", "--model", "hamming:n=63,t=2", "--protocol", "two-phase", "--trials", "1", flag, "-1"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}" in err and "-1 is less than 0" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "flag,value",
    [("--trials", "1_0"), ("--trials", "+3"), ("--trials", " 3"), ("--seed", "+3"), ("--seed", "1_0"),
     ("--n", "1_6"), ("--t", "+1"), ("--margin-k", "2_4"), ("--margin-phase1", "+4"),
     ("--margin-deficiency", "4_0"), ("--eps", "1/1_6"), ("--eps-list", "1/2_56"), ("--extractor-eps", "1/1_6"),
     ("--eps", "+1/4"), ("--eps", " 1/4"), ("--eps", "1/4 "), ("--eps", "1e-2"), ("--eps", ".5"), ("--eps", "1."),
     ("--eps-list", "+1/4"), ("--extractor-eps", "1e-2"),
     ("--eps", "\uff11/\uff14"), ("--seed", "\uff15"), ("--n", "\uff16"), ("--t", "\u0661"),
     ("--eps-list", "\uff10.\uff12\uff15"), ("--margin-k", "\u0968")],
)
def test_cli_numeric_flags_take_only_plain_decimals(capsys, flag, value):
    # int() and Fraction() would take each of these; the integer flags take
    # an optional "-" and ASCII digits, the rational ones [-]digits[/digits]
    # or [-]digits.digits.
    argv = ["sweep", "--model", "hamming:n=15,t=1", "--protocol", "light", "--eps", "1/4", "--trials", "1", flag, value]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}" in err and repr(value) in err and "Traceback" not in err


@pytest.mark.parametrize("command,flag", [("simulate", "--out"), ("sweep", "--out"), ("sweep", "--summary"), ("audit", "--report")])
def test_cli_unwritable_path_is_one_error_line(tmp_path, capsys, command, flag):
    path = tmp_path / "missing" / "out.txt"
    argv = [command, "--model", "identical:n=8", "--protocol", "light", "--eps", "1/4", "--trials", "3", flag, str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(path) in err


def test_cli_bad_summary_path_fails_before_any_session(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_plan", lambda *a: pytest.fail("a session ran"))
    out, summary = tmp_path / "sweep.csv", tmp_path / "missing" / "s.txt"
    argv = ["sweep", "--model", "identical:n=8", "--protocol", "light", "--trials", "3",
            "--out", str(out), "--summary", str(summary)]
    assert main(argv) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(summary) in err


@pytest.mark.parametrize("summary", ["sweep.csv", "./sweep.csv", "link.csv"])
def test_cli_outputs_naming_one_file_fail_before_any_session(tmp_path, monkeypatch, capsys, summary):
    # The summary would overwrite the CSV: rejected, whichever spelling or
    # link names the file, before a session runs or a file is written.
    monkeypatch.setattr(cli, "run_plan", lambda *a: pytest.fail("a session ran"))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "link.csv").symlink_to(tmp_path / "sweep.csv")
    argv = ["sweep", "--model", "identical:n=8", "--protocol", "light", "--trials", "3",
            "--out", "sweep.csv", "--summary", summary]
    assert main(argv) == 2
    assert not (tmp_path / "sweep.csv").exists()
    err = capsys.readouterr().err
    assert err == f"error: --out and --summary name the same file {summary!r}\n"
