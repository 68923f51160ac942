"""Scenario parsing, experiment outputs and CLI behavior."""

import io
import math
import re
import warnings
from dataclasses import FrozenInstanceError, fields, replace

import pytest

from lisec_rtf import experiment
from lisec_rtf.cli import main
from lisec_rtf.config import ARMS, RULES, SimParams
from lisec_rtf.engine import SetupError, build_random_world
from lisec_rtf.experiment import RUNS_HEADER, SUMMARY_HEADER, run_experiment, run_single
from lisec_rtf.scenario import (
    Scenario,
    ScenarioError,
    load_scenario,
    parse_scenario,
    parse_seeds,
)


SMALL = """
# small, fast experiment used across these tests
grid_m = 120
n_clients = 8
n_attackers = 1
duration_s = 420
startup_stagger_s = 120
data_warmup_s = 180
seeds = 3
arms = baseline,attack,defense
"""


# -- parsing --------------------------------------------------------------


def test_empty_file_gives_defaults(tmp_path):
    path = tmp_path / "empty.scenario"
    path.write_text("")
    s = load_scenario(path)
    assert s.n_clients == 29
    assert s.params.duration_s == 1800.0
    assert s.params.grid_m == 200.0
    assert s.params.tx_range_m == 50.0
    assert s.seeds == tuple(range(10))


def test_unknown_key_rejected():
    with pytest.raises(ScenarioError, match="frobnicate"):
        parse_scenario("frobnicate = 7")


def test_malformed_numeric_names_key():
    with pytest.raises(ScenarioError, match="duration_s"):
        parse_scenario("duration_s = soon")


def test_attacker_count_relaxed_with_warning():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        s = parse_scenario("n_attackers = 5")
    assert s.n_attackers == 5
    assert any("n_attackers" in str(w.message) for w in caught)


def test_attack_arm_requires_attacker():
    with pytest.raises(ScenarioError, match="n_attackers"):
        parse_scenario("n_attackers = 0\narms = attack")


def test_seed_forms():
    assert parse_seeds("4") == [0, 1, 2, 3]
    assert parse_seeds("3,5,9") == [3, 5, 9]
    with pytest.raises(ScenarioError):
        parse_seeds("a,b")


def test_comments_and_blank_lines_ignored():
    s = parse_scenario("\n# comment\nn_clients = 5  # trailing\n\n")
    assert s.n_clients == 5


def test_encrypted_swaps_defense_arm():
    s = parse_scenario("encrypted = on")
    assert s.arms == ("baseline", "attack", "defense_encrypted")


def test_wide_license_requires_encrypted_mode():
    with pytest.raises(ScenarioError, match="license_width"):
        parse_scenario("license_width = 16")
    parse_scenario("license_width = 16\nencrypted = on\narms = defense")
    # the default arms keep baseline and attack, whose licenses stay plain
    with pytest.raises(ScenarioError, match="license_width: arm 'baseline'"):
        parse_scenario("license_width = 12\nencrypted = on")


def test_encrypted_license_must_fit_the_dao_options():
    # the DAO, the options' length octet, the nonce and the ciphertext share
    # one 127-octet frame
    s = parse_scenario(SMALL + "license_width = 656\nencrypted = on\n"
                               "arms = defense\nseeds = 1\n")
    assert run_single(s, "defense_encrypted", 0).pdr > 0
    with pytest.raises(ScenarioError, match="^license_width: at most 656 bits"):
        replace(s.params, license_width=657)


def test_encrypted_license_past_one_frame_refused_by_name():
    # 657 bits made a 128-octet DAO, one past an 802.15.4 frame
    for make in (lambda: SimParams(license_width=657),
                 lambda: parse_scenario("arms = defense\nencrypted = on\n"
                                        "license_width = 657\n")):
        with pytest.raises(ScenarioError, match="^license_width: .*127-octet frame"):
            make()


def test_negative_seed_rejected():
    # Random(-n) seeds exactly as Random(n): the two rows would be one sample
    with pytest.raises(ScenarioError, match="^seeds: must be non-negative"):
        parse_scenario("seeds = -2,2")


def test_seed_base_that_makes_a_seed_negative_rejected():
    scenario = parse_scenario(SMALL + "seeds = 2,3\n")
    with pytest.raises(ScenarioError, match="^base: run seed -1 "):
        run_experiment(scenario, base=-3)


@pytest.mark.parametrize("text, key", [
    ("seeds = 3,3,4", "seeds"),
    ("arms = baseline,attack,attack", "arms"),
    # encrypted=on runs defense as defense_encrypted
    ("encrypted = on\narms = defense,defense_encrypted", "arms"),
])
def test_repeated_seed_or_arm_rejected(text, key):
    with pytest.raises(ScenarioError, match=f"^{key}: .* is listed twice"):
        parse_scenario(text)


@pytest.mark.parametrize("value, key", [
    *[(value, key) for value in ("0", "-1", "nan")
      for key in ("data_period_s", "dis_period_s", "dao_period_s",
                  "attack_period_s", "mobility_tick_s",
                  "trickle_imin_s", "duration_s", "bitrate_bps", "tx_range_m",
                  "grid_m")],
    # "nan" is not an int
    *[(value, key) for value in ("0", "-1")
      for key in ("license_width", "data_bytes", "dio_bytes", "dis_bytes",
                  "trickle_k")],
])
def test_non_positive_period_rejected(value, key):
    with pytest.raises(ScenarioError, match=f"^{key}: must be positive"):
        parse_scenario(f"{key} = {value}")


@pytest.mark.parametrize("key, value", [
    *[(key, value) for key in ("d_hop_s", "startup_stagger_s",
                               "attacker_start_window_s", "data_warmup_s",
                               "speed_min_mps", "speed_max_mps", "pause_s",
                               "attacker_self_dao_delay_s", "p_tx_mw", "p_rx_mw",
                               "p_cpu_mw", "p_lpm_mw", "cpu_per_packet_s",
                               "route_lifetime_s")
      for value in ("-0.1", "nan")],
    # "nan" is not an int; a negative hysteresis swaps parents in a loop (at
    # -300 a baseline run made 139 times the default's DAO-path traffic)
    *[(key, "-1") for key in ("trickle_doublings", "forged_per_period",
                              "rt_cap", "root_rt_cap", "hysteresis")],
])
def test_negative_delay_or_window_rejected(key, value):
    with pytest.raises(ScenarioError, match=f"^{key}: must be non-negative"):
        parse_scenario(f"{key} = {value}")
    # the bound itself is allowed; a warm-up of 0 also needs a stagger of 0;
    # a relay's table keeps 4 routes spare and holds the default attacker's
    bound = 5 if key == "rt_cap" else 0
    parse_scenario(f"startup_stagger_s = 0\n{key} = {bound}")


@pytest.mark.parametrize("key", ["duration_s", "grid_m", "speed_min_mps",
                                 "speed_max_mps", "trickle_imin_s",
                                 # an infinite power once gave APC inf, CI nan
                                 "p_tx_mw", "p_rx_mw", "p_cpu_mw", "p_lpm_mw",
                                 "cpu_per_packet_s"])
def test_infinite_horizon_or_grid_rejected(key):
    with pytest.raises(ScenarioError, match=f"^{key}: must be finite"):
        parse_scenario(f"{key} = inf")


@pytest.mark.parametrize("text", [
    "trickle_doublings = 4000",  # 2**4000 is no float
    "trickle_doublings = 1022",  # 4 * 2**1022 overflows
    "trickle_imin_s = 1e300\ntrickle_doublings = 100",
    "trickle_doublings = 100000000000000000000",  # no 2**d is ever built
])
def test_trickle_cap_past_float_range_rejected(text):
    pattern = r"^trickle_doublings: trickle_imin_s \* 2\*\*\d+ must be finite"
    with pytest.raises(ScenarioError, match=pattern):
        parse_scenario(text)
    parse_scenario("trickle_doublings = 1021")  # 4 * 2**1021 fits


@pytest.mark.parametrize("text", [
    "data_period_s = 100\nduration_s = 60",  # no data time within the run
    "duration_s = 1200",                      # the last one falls at the warm-up
])
def test_scenario_without_counted_data_rejected(text):
    with pytest.raises(ScenarioError, match="^data_warmup_s: no data packet"):
        parse_scenario(text)


def test_warmup_rule_follows_accumulated_data_times():
    # data goes at exactly 3 x 1.1 = 3.3 s, which is not after a 3.3 s
    # warm-up, although the float sum 1.1 + 1.1 + 1.1 lands past it
    with pytest.raises(ScenarioError, match=r"^data_warmup_s: no data packet is "
                                            r"sent after 3.3 s; the last goes at 3.3 s$"):
        parse_scenario("data_period_s = 1.1\ndata_warmup_s = 3.3\n"
                       "duration_s = 3.3\nstartup_stagger_s = 0\n")


def test_cli_refuses_a_run_without_counted_data(tmp_path, capsys):
    # no packet is sent after the warm-up, so PDR has no value; this once
    # ended in a MetricUndefinedError traceback with exit 1
    path = tmp_path / "late.scenario"
    path.write_text("data_period_s = 100\nduration_s = 60\n")
    out = tmp_path / "res"
    assert main(["--scenario", str(path), "--seeds", "1", "--arms", "baseline",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: data_warmup_s: ") and "Traceback" not in err
    assert not out.exists()


def test_a_client_busy_past_the_run_reports_apc_nan(tmp_path):
    # at 1 bit/s a DIO takes 192 s on the air and frames overlap, so a
    # client is busy for longer than the run; its APC once came out of a
    # low-power time clamped at 0
    p = SimParams(bitrate_bps=1, grid_m=120.0, duration_s=420.0,
                  startup_stagger_s=120.0, data_warmup_s=180.0)
    scenario = Scenario(params=p, n_clients=4, n_attackers=0, arms=("baseline",),
                        seeds=(0, 1))
    report = run_experiment(scenario, out_dir=tmp_path)
    assert [math.isnan(r.apc_mw) for r in report.rows] == [True, True]
    assert [r.pdr for r in report.rows] == [1.0, 1.0]  # the other metrics stand
    assert math.isnan(report.summary[0]["apc_mw_mean"])
    rows = (tmp_path / "runs.csv").read_text().splitlines()[1:]
    assert [row.split(",")[6] for row in rows] == ["nan", "nan"]


def test_stagger_past_warmup_rejected():
    # clients still off after the warm-up counted their packets as sent: this
    # ran with exit 0 and reported PDR 0.000
    text = "duration_s = 600\ndata_warmup_s = 300\nstartup_stagger_s = {}\n"
    with pytest.raises(ScenarioError, match=r"^startup_stagger_s: must not exceed "
                                            r"data_warmup_s \(300.0\), got 3000.0"):
        parse_scenario(text.format(3000))
    with pytest.raises(ScenarioError, match="^startup_stagger_s: "):
        parse_scenario(text.format("300.001"))
    parse_scenario(text.format(300))  # every client is on by then


def test_cli_refuses_stagger_past_warmup(tmp_path, capsys):
    path = tmp_path / "late.scenario"
    path.write_text("seeds = 2\narms = baseline\nduration_s = 600\n"
                    "data_warmup_s = 300\nstartup_stagger_s = 3000\n")
    out = tmp_path / "res"
    assert main(["--scenario", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: startup_stagger_s: ") and "Traceback" not in err
    assert not out.exists()


def test_cli_refuses_a_table_too_small_to_place(tmp_path, capsys):
    # once "error: seed 0: ... (disconnected 150, ...)" after 200 tries,
    # leaving an empty --out directory behind
    path = tmp_path / "small.scenario"
    path.write_text("rt_cap = 4\n")
    out = tmp_path / "res"
    assert main(["--scenario", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: rt_cap: ") and err.count("\n") == 1
    assert not out.exists()


def test_cli_refuses_a_grid_with_no_point_two_hops_deep(tmp_path, capsys):
    # once "error: seed 0: ... (disconnected 0, attacker too shallow 200,
    # ...)" after 200 tries, leaving an empty --out directory behind
    path = tmp_path / "small.scenario"
    path.write_text("grid_m = 60\n")
    out = tmp_path / "res"
    assert main(["--scenario", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: grid_m: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("key", ["mobility_tick_s"])
def test_cli_refuses_a_loop_with_infinite_period(tmp_path, capsys, key):
    # an infinite period once ended in a traceback; it is no whole number
    # of microseconds
    path = tmp_path / "inf.scenario"
    path.write_text(f"{key} = inf\nmobility = on\nseeds = 1\n"
                    "arms = baseline\nduration_s = 60\nn_clients = 3\n"
                    "startup_stagger_s = 0\ndata_warmup_s = 0\n")
    out = tmp_path / "res"
    assert main(["--scenario", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: {key}: must be a non-negative whole number of "
                   "microseconds, got inf\n")
    assert not out.exists()


# -- the parameter gate -----------------------------------------------------


@pytest.mark.parametrize("key, bad", [
    ("bitrate_bps", 0), ("loss_prob", 2.0), ("hysteresis", -1), ("trickle_k", 0),
    ("p_tx_mw", math.inf),
])
def test_bad_parameter_refused_where_it_is_made(key, bad):
    # a world built straight from SimParams once ran these: PDR 0 at
    # loss_prob 2, nine times the control traffic at hysteresis -300, and a
    # ZeroDivisionError at bitrate 0
    with pytest.raises(ScenarioError, match=f"^{key}: "):
        SimParams(**{key: bad})
    with pytest.raises(ScenarioError, match=f"^{key}: "):
        build_random_world(SimParams(**{key: bad}), ARMS["baseline"], seed=3,
                           n_clients=3, n_attackers=0)


def test_rule_table_lists_every_field():
    assert set(RULES) == {f.name for f in fields(SimParams)}


def test_parameters_are_frozen_and_replace_checks_again():
    params = SimParams()
    with pytest.raises(FrozenInstanceError):
        params.loss_prob = 2.0
    assert replace(params, loss_prob=0.5).us == params.us
    with pytest.raises(ScenarioError, match=r"^loss_prob: must be in \[0, 1\], got 2.0$"):
        replace(params, loss_prob=2.0)


@pytest.mark.parametrize("kwargs, key", [
    # each once ran through run_single: PDR 0.000 with clients still off
    # after the warm-up, a defense arm with no attacker at PDR 1.000, and a
    # ValueError from the DAO codec for a 12-bit license in a plain arm
    ({"params": SimParams(duration_s=600.0, data_warmup_s=300.0,
                          startup_stagger_s=3000.0)}, "startup_stagger_s"),
    ({"n_attackers": -1, "arms": ["defense"]}, "n_attackers"),
    ({"params": SimParams(license_width=12), "arms": ["defense"]}, "license_width"),
])
def test_scenario_that_breaks_a_rule_cannot_be_made(kwargs, key):
    with pytest.raises(ScenarioError, match=f"^{key}: "):
        Scenario(**kwargs)


@pytest.mark.parametrize("kwargs, message", [
    # each was once made: half a client, a float and a bool seed, and a
    # mobile run from the truthy string "off"; "3" clients was a TypeError
    ({"n_clients": 2.5}, "n_clients: must be an integer, got 2.5"),
    ({"n_clients": "3"}, "n_clients: must be an integer, got '3'"),
    ({"n_clients": True}, "n_clients: must be an integer, got True"),
    ({"n_attackers": 1.0}, "n_attackers: must be an integer, got 1.0"),
    ({"n_attackers": False, "arms": ["baseline"]},
     "n_attackers: must be an integer, got False"),
    ({"seeds": [0, 0.5]}, "seeds: must be an integer, got 0.5"),
    ({"seeds": [True]}, "seeds: must be an integer, got True"),
    ({"seeds": ["1"]}, "seeds: must be an integer, got '1'"),
    ({"mobility": "off"}, "mobility: must be True or False, got 'off'"),
    ({"mobility": 1}, "mobility: must be True or False, got 1"),
])
def test_scenario_of_a_wrong_type_cannot_be_made(kwargs, message):
    with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
        Scenario(**kwargs)
    with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
        replace(Scenario(), **kwargs)


@pytest.mark.parametrize("make, message", [
    # no other test reaches these checks
    (lambda: Scenario(arms=("nope",)), "arms: unknown arm 'nope'"),
    (lambda: Scenario(n_clients=0), "n_clients: need at least one client"),
    (lambda: Scenario(n_attackers=-1, arms=("baseline",)),
     "n_attackers: must be non-negative"),
    (lambda: Scenario(seeds=()), "seeds: need at least one seed"),
    (lambda: parse_scenario("mobility = maybe"), "mobility: expected on/off, got 'maybe'"),
    (lambda: parse_scenario("seeds = 2\nmobility on\n"),
     "line 2: expected key=value, got 'mobility on'"),
])
def test_input_check_names_its_key_or_cause(make, message):
    with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
        make()


def test_encrypted_without_a_defense_arm_refused(tmp_path, capsys):
    # once ran the plain arms and exited 0, encrypting nothing
    with pytest.raises(ScenarioError, match="^encrypted: "):
        parse_scenario("arms = baseline,attack\n", {"encrypted": "on"})
    assert parse_scenario("arms = defense_encrypted\n",
                          {"encrypted": "on"}).arms == ("defense_encrypted",)
    out = tmp_path / "res"
    assert main(["--arms", "baseline,attack", "--encrypted", "on",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: encrypted: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("text, flags, key", [
    # the arms' own fault comes first; it once read as a missing defense arm
    ("", {"arms": "nope", "encrypted": "on"}, "arms"),
    # a plain arm with a wide license is named before the missing defense arm
    ("license_width = 12\narms = baseline,attack\n", {"encrypted": "on"}, "license_width"),
])
def test_encrypted_names_a_fault_of_the_scenario_first(text, flags, key):
    with pytest.raises(ScenarioError, match=f"^{key}: "):
        parse_scenario(text, flags)


def test_unknown_arm_with_encrypted_on_names_arms(tmp_path, capsys):
    assert main(["--arms", "nope", "--encrypted", "on",
                 "--out", str(tmp_path / "res")]) == 2
    assert capsys.readouterr().err == "error: arms: unknown arm 'nope'\n"


def test_scenarios_are_frozen_and_replace_checks_again():
    scenario = Scenario(arms=["defense"], seeds=[0, 1])
    assert (scenario.arms, scenario.seeds) == (("defense",), (0, 1))
    with pytest.raises(FrozenInstanceError):
        scenario.arms = ["attack"]
    with pytest.raises(ScenarioError, match="^seeds: must be non-negative, got -1$"):
        replace(scenario, seeds=[-1])
    assert replace(scenario, seeds=[2]).seeds == (2,)


def test_run_single_runs_only_the_scenarios_arms():
    scenario = parse_scenario(SMALL + "arms = baseline\nseeds = 1\n")
    with pytest.raises(ScenarioError, match="^arms: 'attack' is not an arm "):
        run_single(scenario, "attack", 0)


def test_a_flag_overrides_the_file_line_with_its_key(tmp_path):
    path = tmp_path / "flags.scenario"
    path.write_text("seeds = 5\nn_attackers = 2\narms = attack\nencrypted = on\n")
    scenario = load_scenario(path, {"seeds": "1,3", "arms": "baseline, defense"})
    assert (scenario.seeds, scenario.n_attackers, scenario.arms) == (
        (1, 3), 2, ("baseline", "defense_encrypted"))
    assert parse_scenario("encrypted = on", {"encrypted": "off"}).arms == (
        "baseline", "attack", "defense")
    # valid only with its flags: encrypted is read after every line and flag
    assert parse_scenario("license_width = 16", {"arms": "defense", "encrypted": "on"}
                          ).arms == ("defense_encrypted",)
    with pytest.raises(ScenarioError, match="^unknown key 'nonsense'$"):
        parse_scenario("", {"nonsense": "1"})


@pytest.mark.parametrize("text", [
    "trickle_doublings = 1030\ntrickle_imin_s = 0.000001\n",
    "trickle_imin_s = 0.000001\ntrickle_doublings = 1030\n",
])
def test_line_order_never_decides_acceptance(text):
    # 1030 doublings overflow the default 4 s interval but not 1 µs
    scenario = parse_scenario(text)
    assert (scenario.params.trickle_doublings, scenario.params.trickle_imin_s) == (1030, 1e-6)


@pytest.mark.parametrize("text", ["", SMALL, "mobility = on\ngrid_m = 150\nseeds = 4"])
def test_parse_checks_one_set_of_parameters(monkeypatch, text):
    checked = []
    post_init = SimParams.__post_init__

    def counted(self):
        post_init(self)
        checked.append(self)

    monkeypatch.setattr(SimParams, "__post_init__", counted)
    scenario = parse_scenario(text)
    assert checked == [scenario.params]


@pytest.mark.parametrize("key", ["data_bytes", "dio_bytes", "dis_bytes"])
def test_frame_longer_than_802154_refused(key):
    # a 100000-octet data frame once ran with PDR 1.000 while one client's
    # radio was busy 3,252.7 s of an 1,800 s run
    for value in (128, 100000):
        with pytest.raises(ScenarioError,
                           match=f"^{key}: must be at most 127 octets, got {value}$"):
            parse_scenario(f"{key} = {value}")
    assert getattr(parse_scenario(f"{key} = 127").params, key) == 127


# -- experiment outputs -----------------------------------------------------


@pytest.fixture(scope="module")
def small_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("results")
    scenario = parse_scenario(SMALL)
    report = run_experiment(scenario, out_dir=out, trace=True, base=0)
    return scenario, report, out


def test_row_count_matches_arms_times_seeds(small_report):
    scenario, report, _ = small_report
    assert len(report.rows) == 3 * 3


def test_runs_csv_layout(small_report):
    _, _, out = small_report
    lines = (out / "runs.csv").read_text().splitlines()
    assert lines[0] == RUNS_HEADER
    assert len(lines) == 1 + 9
    first = lines[1].split(",")
    assert first[0] == "baseline" and first[3] == "off"


def test_summary_csv_layout(small_report):
    _, _, out = small_report
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[0] == SUMMARY_HEADER
    assert len(lines) == 1 + 3


def test_trace_files_written(small_report):
    scenario, _, out = small_report
    traces = sorted(p.name for p in out.glob("trace-*.log"))
    assert len(traces) == 9
    assert "trace-baseline-0.log" in traces
    body = (out / "trace-baseline-0.log").read_text().splitlines()
    fields = body[0].split("\t")
    assert len(fields) == 4  # time, node, event, detail


def test_trace_files_stream_each_run(small_report):
    scenario, report, out = small_report
    for row in report.rows:
        trace = io.StringIO()
        run_single(scenario, row.arm, row.seed, trace=trace)
        assert (out / f"trace-{row.arm}-{row.seed}.log").read_text() == trace.getvalue()
    assert not list(out.glob(".*"))  # no staged file is left behind


def test_run_writes_its_trace_into_the_staged_file(tmp_path, monkeypatch):
    build = experiment.build_random_world
    streams = []

    def build_with_open_stream(*args, trace=None, **kwargs):
        streams.append(trace)
        assert not trace.closed and trace.name.endswith(".part")
        return build(*args, trace=trace, **kwargs)

    monkeypatch.setattr(experiment, "build_random_world", build_with_open_stream)
    scenario = parse_scenario(SMALL + "seeds = 1\narms = baseline\n")
    run_experiment(scenario, out_dir=tmp_path, trace=True, base=0)
    assert [s.name for s in streams] == [str(tmp_path / ".trace-baseline-0.log.part")]
    assert all(s.closed for s in streams)


def test_trace_without_out_dir_refused():
    # traces are streamed into files; there is no in-memory place for them
    with pytest.raises(ValueError, match="out_dir"):
        run_experiment(parse_scenario(SMALL), trace=True, base=0)


def test_write_report_refuses_traces(tmp_path):
    # each run streams its own trace file; the report writes none
    report = experiment.ExperimentReport(rows=[], summary=[])
    with pytest.raises(ValueError, match="no traces"):
        experiment.write_report(report, {("baseline", 0): ["a line"]},
                                tmp_path / "res")
    assert not (tmp_path / "res").exists()
    experiment.write_report(report, {}, tmp_path / "res")
    assert sorted(p.name for p in (tmp_path / "res").iterdir()) == [
        "runs.csv", "summary.csv"]


def test_setup_error_part_way_leaves_traces_as_they_were(tmp_path, monkeypatch):
    out = tmp_path / "res"
    out.mkdir()
    (out / "trace-baseline-1.log").write_text("an earlier experiment\n")
    build = experiment.build_random_world
    calls = []

    def fail_on_third(*args, **kwargs):
        calls.append(args)
        if len(calls) == 3:
            raise SetupError("no connected topology")
        return build(*args, **kwargs)

    monkeypatch.setattr(experiment, "build_random_world", fail_on_third)
    with pytest.raises(SetupError):
        run_experiment(parse_scenario(SMALL), out_dir=out, trace=True, base=0)
    assert len(calls) == 3
    assert sorted(p.name for p in out.iterdir()) == ["trace-baseline-1.log"]
    assert (out / "trace-baseline-1.log").read_text() == "an earlier experiment\n"


def test_trace_vocabulary(small_report):
    _, _, out = small_report
    events = set()
    for path in out.glob("trace-*.log"):
        for line in path.read_text().splitlines():
            events.add(line.split("\t")[2])
    allowed = {"DIS_TX", "DIO_TX", "DAO_TX", "DAO_FWD", "ROUTE_ADD",
               "ROUTE_FULL", "ACK", "NACK", "BLACKLIST", "DATA_TX", "DATA_RX"}
    assert events <= allowed
    assert {"DIO_TX", "DAO_TX", "ROUTE_ADD", "DATA_RX", "ACK"} <= events


def test_baseline_lossfree_pdr_exactly_one(small_report):
    _, report, _ = small_report
    baseline = [row for row in report.rows if row.arm == "baseline"]
    assert baseline and all(row.pdr == 1.0 for row in baseline)


def test_dao_trace_lines_carry_decodable_frames(small_report):
    from lisec_rtf.messages import decode_dao
    _, _, out = small_report
    frames = 0
    for line in (out / "trace-defense-0.log").read_text().splitlines():
        _, _, event, detail = line.split("\t")
        if event in ("DAO_TX", "DAO_FWD"):
            frame = bytes.fromhex(detail.split("frame=")[1])
            decode_dao(frame)
            frames += 1
    assert frames > 0


def test_thirty_rows_for_three_arms_ten_seeds(tmp_path):
    scenario = parse_scenario(
        "grid_m = 90\nn_clients = 6\nn_attackers = 1\nduration_s = 240\n"
        "startup_stagger_s = 60\ndata_warmup_s = 90\nseeds = 10\n"
        "arms = baseline,attack,defense\n")
    report = run_experiment(scenario, base=0)
    assert len(report.rows) == 30


def test_data_schedule_arithmetic():
    # a full-length run generates exactly 60 counted packets per client
    from lisec_rtf.config import ARMS, SimParams
    from lisec_rtf.engine import build_random_world
    params = SimParams(duration_s=1800.0, data_period_s=30.0,
                       startup_stagger_s=0.0, data_warmup_s=0.0, grid_m=90.0)
    world = build_random_world(params, ARMS["baseline"], seed=3, n_clients=5,
                               n_attackers=0)
    counters = world.run()
    assert counters.sent_per_node == {f"c{i:02d}": 60 for i in range(1, 6)}


def test_seed_base_offsets_runs(tmp_path):
    scenario = parse_scenario(SMALL)
    r0 = run_experiment(scenario, base=0)
    r7 = run_experiment(scenario, base=7)
    assert [r.seed for r in r7.rows] == [r.seed + 7 for r in r0.rows]


def test_run_experiment_reads_no_seed_offset_from_the_environment(monkeypatch):
    # LISEC_SEED_BASE once offset every seed; an explicit seed list replays
    # any range instead
    monkeypatch.setenv("LISEC_SEED_BASE", "100")
    scenario = parse_scenario(SMALL + "arms = baseline\n")
    assert [r.seed for r in run_experiment(scenario).rows] == [0, 1, 2]


# -- CLI ---------------------------------------------------------------------


def write_scenario(tmp_path):
    path = tmp_path / "small.scenario"
    path.write_text(SMALL)
    return path


def test_cli_writes_outputs(tmp_path, capsys):
    path = write_scenario(tmp_path)
    out = tmp_path / "res"
    code = main(["--scenario", str(path), "--seeds", "2", "--out", str(out)])
    assert code == 0
    assert (out / "runs.csv").exists() and (out / "summary.csv").exists()
    stdout = capsys.readouterr().out
    assert "baseline" in stdout and "runs.csv" in stdout


def test_cli_flag_overrides(tmp_path):
    path = write_scenario(tmp_path)
    out = tmp_path / "res"
    code = main(["--scenario", str(path), "--arms", "baseline", "--seeds", "2",
                 "--attackers", "2", "--out", str(out)])
    assert code == 0
    lines = (out / "runs.csv").read_text().splitlines()
    assert len(lines) == 1 + 2
    assert all(line.split(",")[0] == "baseline" for line in lines[1:])
    assert all(line.split(",")[2] == "2" for line in lines[1:])


def test_cli_rejects_bad_scenario(tmp_path, capsys):
    # a removed key is refused like one that never existed
    for key in ("nonsense_key", "rt_sample_period_s", "min_rank",
                "rank_increase", "max_rank", "shared_key_bytes"):
        path = tmp_path / "bad.scenario"
        path.write_text(f"{key} = 30\n")
        out = tmp_path / "res"
        assert main(["--scenario", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: unknown key {key!r}\n"
        assert not out.exists()


def test_cli_refuses_an_unwritable_out_before_any_run(tmp_path, capsys, monkeypatch):
    # once a NotADirectoryError traceback, raised only after the whole matrix ran
    builds = []
    monkeypatch.setattr(experiment, "build_random_world",
                        lambda *args, **kwargs: builds.append(args))
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "res"
    assert main(["--seeds", "2", "--arms", "baseline", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write to {out}: ") and err.count("\n") == 1
    assert builds == []


def test_cli_wide_license_with_plain_arm_exits_2(tmp_path, capsys):
    path = tmp_path / "wide.scenario"
    path.write_text("license_width = 12\n")
    out = tmp_path / "res"
    assert main(["--scenario", str(path), "--encrypted", "on", "--seeds", "2",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: license_width") and "'baseline'" in err
    assert not out.exists()


def test_cli_flags_parse_like_scenario_lines(tmp_path):
    path = write_scenario(tmp_path)
    out = tmp_path / "res"
    code = main(["--scenario", str(path), "--arms", " defense ,", "--seeds", "1",
                 "--mobility", "on", "--encrypted", "on", "--out", str(out)])
    assert code == 0
    _, row = (out / "runs.csv").read_text().splitlines()
    assert row.split(",")[:4] == ["defense_encrypted", "0", "1", "on"]
    assert main(["--scenario", str(path), "--seeds", "x"]) == 2
    assert main(["--scenario", str(path), "--attackers", "two"]) == 2


def test_cli_refuses_zero_period(tmp_path, capsys):
    path = tmp_path / "zero.scenario"
    path.write_text("dis_period_s = 0\n")
    out = tmp_path / "res"
    assert main(["--scenario", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: dis_period_s")
    assert not out.exists()


def test_cli_refuses_an_empty_arm_list(tmp_path, capsys):
    # both once exited 0 with header-only runs.csv and summary.csv
    path = tmp_path / "none.scenario"
    path.write_text("arms =\n")
    out = tmp_path / "res"
    for argv in (["--scenario", str(path)], ["--arms", ""]):
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: arms: need at least one arm\n"
    assert not out.exists()


def test_cli_refuses_a_scenario_file_that_is_not_utf8(tmp_path, capsys):
    # once a UnicodeDecodeError traceback
    path = tmp_path / "latin1.scenario"
    path.write_bytes(b"seeds = 2\n\xff\n")
    out = tmp_path / "res"
    assert main(["--scenario", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read scenario file: ") and err.count("\n") == 1
    assert not out.exists()


def test_cli_refuses_out_of_range_world_parameters(tmp_path, capsys):
    # each of these used to end in a traceback, run on silently, or burn
    # every placement try and report a SetupError naming no key
    for line in ("d_hop_s = -0.1", "d_hop_s = nan", "startup_stagger_s = -5",
                 "attacker_start_window_s = -1", "data_warmup_s = -1",
                 "trickle_doublings = -1", "duration_s = -1",
                 "bitrate_bps = 0", "license_width = -1", "loss_prob = 1.5",
                 "loss_prob = -0.1", "tx_range_m = 0", "tx_range_m = nan",
                 "grid_m = 0", "grid_m = -5", "data_bytes = -30", "dio_bytes = 0",
                 "dis_bytes = -8", "data_bytes = 100000", "dio_bytes = 128",
                 "speed_min_mps = nan", "speed_max_mps = -1",
                 "speed_max_mps = inf", "pause_s = nan",
                 "attacker_self_dao_delay_s = -1", "trickle_imin_s = inf",
                 "trickle_doublings = 4000", "p_tx_mw = -1", "p_rx_mw = -1",
                 "p_cpu_mw = -1", "p_lpm_mw = -1", "cpu_per_packet_s = -1",
                 "p_tx_mw = inf", "cpu_per_packet_s = inf",
                 "forged_per_period = -1", "root_rt_cap = -1",
                 "route_lifetime_s = -1", "trickle_k = -1", "rt_cap = -1",
                 "license_width = 657", "seeds = -1,1"):
        path = tmp_path / "bad.scenario"
        path.write_text(f"seeds = 1\narms = defense\n{line}\n")
        out = tmp_path / "res"
        # defense_encrypted draws the shared keys; mobility reads the speeds
        flags = ["--encrypted", "on", "--mobility", "on"]
        assert main(["--scenario", str(path), *flags, "--out", str(out)]) == 2, line
        err = capsys.readouterr().err
        assert err.startswith(f"error: {line.split()[0]}:"), err
        assert not out.exists()


def test_cli_refuses_repeated_seeds_and_arms(tmp_path, capsys):
    out = tmp_path / "res"
    for flag, value in (("--seeds", "3,3,4"), ("--arms", "baseline,attack,attack")):
        assert main([flag, value, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag[2:]}: ") and "listed twice" in err, err
        assert not out.exists()


def test_cli_reruns_are_byte_identical(tmp_path):
    path = write_scenario(tmp_path)
    blobs = []
    for name in ("one", "two"):
        out = tmp_path / name
        code = main(["--scenario", str(path), "--seeds", "2",
                     "--trace", "on", "--out", str(out)])
        assert code == 0
        runs = (out / "runs.csv").read_bytes()
        traces = b"".join(p.read_bytes() for p in sorted(out.glob("trace-*.log")))
        blobs.append((runs, traces))
    assert blobs[0] == blobs[1]


def test_single_seed_reports_no_ci(tmp_path, capsys):
    path = write_scenario(tmp_path)
    out = tmp_path / "res"
    code = main(["--scenario", str(path), "--seeds", "0,", "--out", str(out)])
    assert code == 0
    assert "±nan" in capsys.readouterr().out
    header, *rows = (out / "summary.csv").read_text().splitlines()
    assert len(rows) == 3
    for row in rows:
        fields = dict(zip(header.split(","), row.split(",")))
        for metric in ("pdr", "ae2ed_s", "apc_mw"):
            assert fields[f"{metric}_ci95"] == "nan"
            assert fields[f"{metric}_mean"] != "nan"


@pytest.mark.parametrize("seeds, runs, summary", [
    ((0, 1),
     ["baseline,0,0,off,0.000000,nan,0.055555,0,0",
      "baseline,1,0,off,0.000000,nan,0.055529,0,0"],
     "baseline,0,off,0.000000,0.000000,nan,nan,0.055542,0.000160"),
    ((0,),
     ["baseline,0,0,off,0.000000,nan,0.055555,0,0"],
     "baseline,0,off,0.000000,nan,nan,nan,0.055555,nan"),
])
def test_run_that_delivers_nothing_reports_nan(tmp_path, seeds, runs, summary):
    # every frame is lost: no delay is measured, so none is reported, and
    # one seed gives no interval for any metric
    scenario = Scenario(params=SimParams(loss_prob=1.0), n_clients=5, n_attackers=0,
                        arms=("baseline",), seeds=seeds)
    run_experiment(scenario, out_dir=tmp_path)
    assert (tmp_path / "runs.csv").read_text().splitlines() == [RUNS_HEADER, *runs]
    assert (tmp_path / "summary.csv").read_text().splitlines() == [SUMMARY_HEADER, summary]
