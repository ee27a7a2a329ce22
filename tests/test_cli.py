import copy
import json
import shlex
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import abprobe.experiment
import abprobe.fbm
import abprobe.path
from abprobe.cli import SCENARIO_FLAGS, _scenario, build_parser, main
from abprobe.experiment import COMPARE_HEADER, ESTIMATE_HEADER, SWEEP_HEADER, RunConfig
from abprobe.fbm import peak_bytes

FAST = ["--sequences", "20", "--seed", "3"]
README = Path(__file__).resolve().parents[1] / "README.md"


def refuse(*args):
    raise AssertionError("trace synthesis reached")


def trace_key(cfg):
    """The (n_samples, hurst) of the trace a config's run synthesizes."""
    params = cfg.finalize().fbm_params()
    return params.n_samples, params.hurst


def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def test_run_writes_estimate_stream(tmp_path, capsys):
    out = tmp_path / "est.csv"
    rc = main(["run", *FAST, "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ESTIMATE_HEADER
    assert len(rows) == 20
    summary = capsys.readouterr().out
    assert "xi=" in summary


def test_run_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", *FAST, "--out", str(a)]) == 0
    assert main(["run", *FAST, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_event_log(tmp_path):
    out = tmp_path / "est.csv"
    events = tmp_path / "events.csv"
    rc = main(["run", "--sequences", "3", "--packets", "10", "--portions", "2",
               "--out", str(out), "--event-log", str(events)])
    assert rc == 0
    header, rows = read_csv(events)
    assert header == ["seq_id", "pkt_idx", "portion", "send_t", "arrive_t", "depart_t"]
    assert len(rows) == 3 * 10
    # FIFO: departures strictly increase within a sequence
    dep = [float(r[5]) for r in rows if r[0] == "0"]
    assert all(a < b for a, b in zip(dep, dep[1:]))


def test_seed_changes_output(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["run", "--sequences", "20", "--seed", "1", "--out", str(a)])
    main(["run", "--sequences", "20", "--seed", "2", "--out", str(b)])
    assert a.read_bytes() != b.read_bytes()


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sequences": 5, "capacity": 5e6, "seed": 9}))
    out1 = tmp_path / "one.csv"
    rc = main(["run", "--config", str(cfg), "--out", str(out1)])
    assert rc == 0
    _, rows = read_csv(out1)
    assert len(rows) == 5  # file value applied
    out2 = tmp_path / "two.csv"
    rc = main(["run", "--config", str(cfg), "--sequences", "7", "--out", str(out2)])
    assert rc == 0
    _, rows = read_csv(out2)
    assert len(rows) == 7  # flag wins over file


def test_bad_config_exits_2(tmp_path):
    # portions too large for the packet count
    assert main(["run", "--packets", "6", "--portions", "3", "--out", str(tmp_path / "x.csv")]) == 2
    # unparseable config file
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["run", "--config", str(bad)]) == 2
    # unknown config key
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"capactiy": 1e7}))
    assert main(["run", "--config", str(unknown)]) == 2
    # sequence span overflows the launch cadence
    assert main(["run", "--rate-min", "1e4", "--out", str(tmp_path / "y.csv")]) == 2


@pytest.mark.parametrize("flag, value", [("--sigma", "nan"), ("--mu", "inf"), ("--lambda", "nan")])
def test_non_finite_values_exit_2(tmp_path, capsys, flag, value):
    assert main(["run", "--sequences", "5", flag, value, "--out", str(tmp_path / "x.csv")]) == 2
    assert "must be a finite number" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_trace_beyond_physical_memory_exits_2_before_synthesis(
    tmp_path, capsys, monkeypatch, command
):
    monkeypatch.setattr(abprobe.path, "generate_trace", refuse)
    out = tmp_path / "x.csv"
    argv = [command, "--capacity", "1e9", "--sequences", "100000", "--out", str(out)]
    assert main(argv) == 2
    assert "GiB of physical memory" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_probe_arrays_beyond_physical_memory_exit_2_before_synthesis(
    tmp_path, capsys, monkeypatch, command
):
    # the trace fits in memory, but not with the run's N x M probe arrays
    monkeypatch.setattr(abprobe.path, "generate_trace", refuse)
    trace = peak_bytes([trace_key(RunConfig(sequences=300, packets=201))])
    probes = abprobe.experiment.PROBE_BYTES * 300 * 201
    out = tmp_path / "x.csv"
    argv = [command, "--sequences", "300", "--packets", "201", "--out", str(out)]
    monkeypatch.setattr(abprobe.experiment, "PHYSICAL_MEMORY", trace + probes // 2)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "GiB of physical memory" in err and "packets" in err and "sequences" in err
    assert not out.exists()
    # with room for both, the guard lets the run through to synthesis
    monkeypatch.setattr(abprobe.experiment, "PHYSICAL_MEMORY", trace + probes)
    with pytest.raises(AssertionError, match="trace synthesis reached"):
        main(argv)


def test_ensemble_beyond_physical_memory_exits_2_before_synthesis(tmp_path, capsys, monkeypatch):
    # every variant fits on its own, but not with the spectral scales fbm
    # caches for the others
    monkeypatch.setattr(abprobe.path, "generate_trace", refuse)
    caps = [1e7, 2e7, 3e7]
    traces = [trace_key(RunConfig(capacity=c, packet_size=500.0, sequences=300)) for c in caps]
    one, ensemble = peak_bytes(traces[2:]), peak_bytes(traces)
    assert one < ensemble
    monkeypatch.setattr(abprobe.experiment, "PHYSICAL_MEMORY", (one + ensemble) // 2)
    out = tmp_path / "x.csv"
    argv = ["sweep", "--capacity", ",".join(map(str, caps)), "--packet-size", "500",
            "--sequences", "300", "--packets", "13", "--portions", "3", "--out", str(out)]
    assert main(argv) == 2
    assert "ensemble of 3 traffic traces" in capsys.readouterr().err
    assert not out.exists()


def test_ensemble_memory_counts_each_worker(tmp_path, capsys, monkeypatch):
    # two workers each synthesize a trace: one fits, two at once do not
    class NoPool:
        def __init__(self, max_workers):
            raise AssertionError("worker pool started")

    monkeypatch.setattr(abprobe.path, "generate_trace", refuse)
    monkeypatch.setattr(abprobe.experiment, "ProcessPoolExecutor", NoPool)
    monkeypatch.setattr(abprobe.fbm, "CPUS", 2)
    one = peak_bytes([trace_key(RunConfig(sequences=300))])
    monkeypatch.setattr(abprobe.experiment, "PHYSICAL_MEMORY", 3 * one // 2)
    out = tmp_path / "x.csv"
    argv = ["sweep", "--sequences", "300", "--seeds", "0,1", "--out", str(out)]
    assert main([*argv, "--workers", "2"]) == 2
    assert "ensemble of 1 traffic traces on 2 worker(s)" in capsys.readouterr().err
    with pytest.raises(AssertionError, match="trace synthesis reached"):
        main([*argv, "--workers", "1"])
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["run"],
    ["sweep", "--seeds", "0,1", "--workers", "2"],  # raised in a worker process
])
def test_indefinite_embedding_exits_2(tmp_path, capsys, command):
    # H = 0.99 on ~1e6 samples: both embeddings round to indefinite
    out = tmp_path / "x.csv"
    assert main([*command, "--hurst", "0.99", "--sequences", "300", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "rounds to indefinite" in err and "hurst=0.99" in err and "lower hurst" in err
    assert not out.exists()


def test_compare_bart_validates_every_variant_before_synthesis(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(abprobe.path, "generate_trace", refuse)
    out = tmp_path / "cmp.csv"
    argv = ["compare-bart", "--packets", "17", "--portions", "2,9", "--out", str(out)]
    assert main(argv) == 2
    assert "M=17, P=9" in capsys.readouterr().err
    assert not out.exists()


# config keys of removed RunConfig fields, each with a value the field took
REMOVED_KEYS = {"access_capacity": 1e8, "c_ref": 1e7, "y_max": 9e6, "inter_sequence_gap": 2.0,
                "r_floor": 1e-6}


@pytest.mark.parametrize("key", REMOVED_KEYS)
def test_removed_access_capacity_key_exits_2(tmp_path, capsys, monkeypatch, key):
    monkeypatch.setattr(abprobe.path, "generate_trace", refuse)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: REMOVED_KEYS[key]}))
    assert main(["run", "--config", str(cfg), "--sequences", "5"]) == 2
    assert f"unknown config key {key!r}" in capsys.readouterr().err


def test_every_scenario_field_has_a_flag_but_psi0():
    dests = {dest for dest, _, _ in SCENARIO_FLAGS.values()}
    assert {f.name for f in fields(RunConfig)} == dests | {"psi0"}


def test_run_options_in_config_file_exit_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(abprobe.path, "generate_trace", refuse)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seeds": "0:3", "out": str(tmp_path / "x.csv")}))
    assert main(["sweep", "--config", str(cfg), "--packets", "13"]) == 2
    assert "go on the command line" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("packets", "34", "packets must be an integer"),
        ("packets", [13, 22], "packets must be an integer"),
        ("sequences", 5.5, "sequences must be an integer"),
        ("capacity", "1e7", "capacity must be a number"),
        ("reset_queue", 1, "reset_queue must be true or false"),
        ("gate_threshold", None, "gate_threshold must be a number"),
    ],
)
def test_ill_typed_config_value_exits_2(tmp_path, capsys, key, value, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, file_cfg, message",
    [
        (["--lambda", "-1"], {}, "lam must be >= 0"),
        ([], {"psi0": -1}, "psi0 must be >= 0"),
        ([], {"gate_threshold": -0.1}, "gate_threshold must be >= 0"),
    ],
)
def test_bad_filter_values_exit_2_before_synthesis(
    tmp_path, capsys, monkeypatch, flags, file_cfg, message
):
    monkeypatch.setattr(abprobe.path, "generate_trace", refuse)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(file_cfg))
    out = tmp_path / "x.csv"
    assert main(["run", "--config", str(cfg), *flags, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["compare-bart", "--packets", "13,22"],
        ["sweep", "--initial-ab", "2e6,5e6"],
        ["compare-bart", "--capacity", "1e7,2e7"],
        ["model-eval", "--capacity", "1e7,7e7"],
        ["run", "--seeds", "3:6"],
        ["sweep", "--workers", "0"],
        ["sweep", "--workers", "-3"],
    ],
)
def test_flag_a_subcommand_cannot_honour_exits_2(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setattr(abprobe.path, "generate_trace", refuse)
    out = tmp_path / "x.csv"
    try:
        rc = main([*argv, "--sequences", "5", "--out", str(out)])
    except SystemExit as exc:
        rc = exc.code
    assert rc == 2
    assert argv[1] in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sweep", "--seeds", "0,-1"], "every seed must be >= 0, got -1"),
        (["sweep", "--seeds", "0,0"], "seeds must be distinct; [0] listed more than once"),
        (["compare-bart", "--seeds", "0:3,1"], "seeds must be distinct; [1] listed more than once"),
        (["run", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["sweep", "--seed", "-1"], "seed must be >= 0, got -1"),
    ],
)
def test_negative_or_repeated_seeds_exit_2_before_synthesis(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.setattr(abprobe.path, "generate_trace", refuse)
    out = tmp_path / "x.csv"
    assert main([*argv, "--sequences", "5", "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep", "compare-bart"])
def test_seed_beside_seeds_exits_2_before_synthesis(tmp_path, capsys, monkeypatch, command):
    # --seeds lists the ensemble's seeds; a --seed beside it used to be dropped
    monkeypatch.setattr(abprobe.path, "generate_trace", refuse)
    out = tmp_path / "x.csv"
    argv = [command, "--seed", "3", "--seeds", "0,1", "--sequences", "5", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "--seed " in err and "--seeds" in err
    assert not out.exists()


def test_run_with_one_path_for_csv_and_event_log_exits_2(tmp_path, capsys, monkeypatch):
    # the estimate CSV would overwrite the event log; the same file by another name too
    monkeypatch.setattr(abprobe.path, "generate_trace", refuse)
    out = tmp_path / "x.csv"
    for log in (out, tmp_path / "sub" / ".." / "x.csv"):
        assert main(["run", "--sequences", "5", "--out", str(out), "--event-log", str(log)]) == 2
        assert "--out and --event-log name the same file" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("value", ["false", "no", 1, 0, None])
def test_config_switch_other_than_true_or_false_exits_2(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setattr(abprobe.path, "generate_trace", refuse)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"no-gating": value}))
    out = tmp_path / "x.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert "'no-gating' is a switch: give true or false" in capsys.readouterr().err
    assert not out.exists()


def test_config_switch_true_is_the_flag_and_false_the_default(tmp_path):
    outs = {}
    on = {"no-gating": True, "reset-queue": True}
    off = {"no-gating": False, "reset-queue": False}
    for name, file_cfg, flags in [("flag", {}, ["--no-gating", "--reset-queue"]), ("true", on, []),
                                  ("default", {}, []), ("false", off, [])]:
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(file_cfg))
        outs[name] = tmp_path / f"{name}.csv"
        assert main(["run", *FAST, "--config", str(cfg), *flags, "--out", str(outs[name])]) == 0
    assert outs["flag"].read_bytes() == outs["true"].read_bytes()
    assert outs["default"].read_bytes() == outs["false"].read_bytes()
    assert outs["flag"].read_bytes() != outs["default"].read_bytes()


@pytest.mark.parametrize(
    "argv, culprit",
    [
        (["run", "--out", "{missing}/a.csv"], "--out {missing}/a.csv"),
        (["run", "--out", "{tmp}/a.csv", "--event-log", "{missing}/e.csv"],
         "--event-log {missing}/e.csv"),
        (["run", "--out", "{tmp}"], "--out {tmp} is not a writable file"),
        (["sweep", "--out", "{missing}/s.csv"], "--out {missing}/s.csv"),
        (["compare-bart", "--out", "{tmp}"], "--out {tmp} is not a writable file"),
        (["model-eval", "--xi-target", "0.01", "--out", "{missing}/m.csv"], "--out {missing}/m.csv"),
    ],
    ids=["run-missing-dir", "event-log-missing-dir", "run-directory", "sweep-missing-dir",
         "compare-directory", "model-eval-missing-dir"],
)
def test_unwritable_output_exits_2_before_synthesis(tmp_path, capsys, monkeypatch, argv, culprit):
    monkeypatch.setattr(abprobe.path, "generate_trace", refuse)
    names = {"tmp": str(tmp_path), "missing": str(tmp_path / "missing")}
    argv = [arg.format(**names) for arg in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert culprit.format(**names) in captured.err
    assert captured.out == ""
    assert not (tmp_path / "a.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [["run", "--rate-max", "1e30"], ["run", "--rate-max", "1e22"],
     ["sweep", "--rate-max", "1e22", "--packet-size", "500,1500"]],
)
def test_probe_gaps_below_clock_resolution_exit_2_before_synthesis(
    tmp_path, capsys, monkeypatch, argv
):
    monkeypatch.setattr(abprobe.path, "generate_trace", refuse)
    out = tmp_path / "x.csv"
    assert main([*argv, "--sequences", "5", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "8*packet_size/rate_max" in err and "lower rate_max or raise packet_size" in err
    assert not out.exists()


def test_lambda_config_key_sets_lam(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(abprobe.path, "generate_trace", refuse)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lambda": -1}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
    assert "lam must be >= 0" in capsys.readouterr().err


def readme_cli_commands():
    """argv of every `abprobe ...` line in the README's CLI code block."""
    block = README.read_text().split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("abprobe ")]


def test_readme_cli_commands_parse():
    commands = readme_cli_commands()
    assert len(commands) == 7
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: abprobe {shlex.join(argv)}")


def test_sweep_config_leaves_args_unchanged():
    args = build_parser().parse_args(
        ["sweep", "--capacity", "1e7,2e7", "--packets", "13,22", "--portions", "3"]
    )
    before = copy.deepcopy(vars(args))
    base = _scenario(args)
    assert vars(args) == before
    assert (base.capacity, base.packets, base.portions) == (10e6, 34, 3)


def test_flags_accepted(tmp_path):
    out = tmp_path / "flags.csv"
    rc = main([
        "run", "--sequences", "10", "--capacity", "1e7",
        "--hurst", "0.7", "--sigma", "2e5", "--mu", "4e6", "--packets", "22",
        "--portions", "3", "--packet-size", "900", "--rate-min", "1e6",
        "--rate-max", "1.2e7", "--lambda", "1e-4", "--initial-ab", "5e6",
        "--seed", "0", "--reset-queue", "--no-gating", "--out", str(out),
    ])
    assert rc == 0


def test_sweep_paired_and_aggregates(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main([
        "sweep", "--sequences", "15", "--packets", "13,22", "--packet-size", "500,900",
        "--portions", "3", "--paired", "--seeds", "0,1", "--out", str(out),
    ])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == SWEEP_HEADER
    # 2 paired points x (2 seeds + mean + median)
    assert len(rows) == 2 * 4
    seeds = [r[6] for r in rows]
    assert "mean" in seeds and "median" in seeds
    ms = sorted({r[0] for r in rows})
    assert ms == ["13", "22"]


def test_sweep_cross_product(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main([
        "sweep", "--sequences", "10", "--packets", "13,22", "--portions", "2,3",
        "--seeds", "0:2", "--out", str(out),
    ])
    assert rc == 0
    _, rows = read_csv(out)
    assert len(rows) == 4 * 4  # 4 grid points x (2 seeds + 2 aggregates)


def test_sweep_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--sequences", "10", "--packets", "13,22", "--seeds", "0:2"]
    main([*args, "--out", str(a)])
    main([*args, "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_compare_bart(tmp_path):
    out = tmp_path / "cmp.csv"
    rc = main([
        "compare-bart", "--sequences", "15", "--packets", "17", "--portions", "2",
        "--initial-ab", "2.5e6,5e6", "--seeds", "0:2", "--out", str(out),
    ])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == COMPARE_HEADER
    methods = {r[0] for r in rows}
    assert methods == {"bart", "mrbart"}
    # 2 methods x 2 initial ABs x (2 seeds + 2 aggregates)
    assert len(rows) == 4 * 4


def test_compare_bart_self_comparison_identical(tmp_path):
    out = tmp_path / "cmp.csv"
    rc = main([
        "compare-bart", "--sequences", "15", "--packets", "17", "--portions", "1",
        "--seeds", "0", "--out", str(out),
    ])
    assert rc == 0
    _, rows = read_csv(out)
    # P=1 vs P=1: single method emitted, xi values identical per seed
    xi = {r[6] for r in rows if r[5] == "0"}
    assert len(xi) == 1


def test_compare_bart_defaults_to_the_scenario(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"portions": 3}))
    out = tmp_path / "cmp.csv"
    argv = ["compare-bart", "--config", str(cfg), "--sequences", "5", "--seeds", "0"]
    assert main([*argv, "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert sorted({r[1] for r in rows}) == ["1", "3"]  # the config file's P
    assert {r[4] for r in rows} == {"5000000"}  # the initial guess used, 0.5 C


def test_model_eval_target(tmp_path, capsys):
    out = tmp_path / "m.csv"
    rc = main([
        "model-eval", "--capacity", "1e7", "--portions", "3",
        "--xi-target", "0.00705", "--out", str(out),
    ])
    assert rc == 0
    assert "M=34" in capsys.readouterr().out
    header, rows = read_csv(out)
    assert header == ["P", "C", "a", "b", "xi_target", "M"]
    assert rows[0][-1] == "34"


def test_model_eval_grid(tmp_path):
    out = tmp_path / "grid.csv"
    rc = main([
        "model-eval", "--capacity", "1e7", "--packets", "16:40:6",
        "--portions", "1,2,3", "--out", str(out),
    ])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["M", "P", "C", "xi_analytic", "xi_empirical"]
    assert len(rows) == 4 * 3
    # analytic error decreases with M at fixed P
    for p in ("1", "2", "3"):
        xs = [float(r[3]) for r in rows if r[1] == p]
        assert all(a > b for a, b in zip(xs, xs[1:]))


def test_model_eval_grid_needs_no_trace_memory(tmp_path, monkeypatch):
    # a 1 Gb/s scenario whose trace would not fit in memory: model-eval
    # synthesizes no trace, so its grid is still evaluated
    monkeypatch.setattr(abprobe.path, "generate_trace", refuse)
    out = tmp_path / "grid.csv"
    assert main(["model-eval", "--capacity", "1e9", "--packets", "16:40:6", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert [row[0] for row in rows] == ["16", "22", "28", "34"]


def test_model_eval_target_config_type_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"capacity": "1e7"}))
    argv = ["model-eval", "--config", str(cfg)]
    for extra in (["--xi-target", "0.00705"], []):  # target mode, then grid mode
        assert main([*argv, *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "capacity must be a number, got '1e7'" in captured.err


def test_model_eval_axes_default_to_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"portions": 2, "packets": 22}))
    assert main(["model-eval", "--config", str(cfg), "--xi-target", "0.00705"]) == 0
    assert capsys.readouterr().out.startswith("P=2 ")
    out = tmp_path / "grid.csv"
    assert main(["model-eval", "--config", str(cfg), "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert [row[:2] for row in rows] == [["22", "2"]]


def test_model_eval_packets_with_xi_target_exits_2(tmp_path, capsys):
    out = tmp_path / "m.csv"
    argv = ["model-eval", "--xi-target", "0.00705", "--packets", "20", "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--packets" in captured.err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--hurst", "0.9", "--seed", "4"], "drop --hurst, --seed"),
        (["--reset-queue"], "drop --reset-queue"),
        (["--capacity=-1"], "capacity must be a finite number > 0"),
        (["--capacity", "0"], "capacity must be a finite number > 0"),
        (["--capacity", "nan"], "capacity must be a finite number > 0"),
        (["--xi-target", "nan"], "xi_target must be a finite number > 0"),
        (["--xi-target", "inf"], "xi_target must be a finite number > 0"),
    ],
    ids=["hurst-seed", "reset-queue", "capacity-neg", "capacity-0", "capacity-nan",
         "target-nan", "target-inf"],
)
def test_model_eval_target_bad_input_exits_2(tmp_path, capsys, flags, message):
    out = tmp_path / "m.csv"
    argv = ["model-eval", "--xi-target", "0.00705", *flags, "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert not out.exists()


def test_model_eval_target_beyond_float_range_exits_2(capsys):
    assert main(["model-eval", "--xi-target", "1e-300", "--portions", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "xi_target=1e-300" in captured.err and "1e308 packets" in captured.err


def test_model_eval_rejects_p_outside_table():
    assert main(["model-eval", "--capacity", "1e7", "--portions", "7",
                 "--xi-target", "0.01"]) == 2
