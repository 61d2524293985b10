import json
import time

import pytest
from hypothesis import given, settings, strategies as st

from elasticmoe import expert_cache, hwmodel, runner, toymoe
from elasticmoe.cli import main as cli_main
from elasticmoe.hwmodel import Arch, GIB
from elasticmoe.runner import (
    ConfigError,
    CSV_COLUMNS,
    ResultRow,
    RunnerError,
    ablation_suite,
    dump_config,
    example_config_path,
    load_config,
    parse_config_text,
    render_csv,
    render_json,
    rows_from_json,
    run_scenario,
    run_scenarios,
    scenario_from_dict,
)

FAST = {
    "scenario_id": "fast",
    "model": {"n_experts": 8, "top_k": 2},
    "hw": {"hb_capacity_gib": 0.001},
    "schemes": ["ar_only", "elastic_sd"],
    "batch_sizes": [1, 4],
    "trace": {"n_tokens": 40, "seed": 3},
    "run": {"n_new_tokens": 8},
    "sd": {"pool_capacity": 4},
}


def fast_config(**overrides):
    data = json.loads(json.dumps(FAST))
    data.update(overrides)
    return scenario_from_dict(data)


def test_minimal_config_fills_defaults():
    cfg = scenario_from_dict({"scenario_id": "m"})
    assert cfg.shape.n_experts == 16
    assert cfg.arch is Arch.OURS
    assert cfg.schemes == ("ar_only", "elastic_sd")
    assert cfg.batch_sizes == (1, 2, 4, 8)
    assert cfg.sd.width == 2
    assert cfg.trace.zipf_exponent == 1.0
    assert set(cfg.analytic) == {"eagle_sd", "slm_sd", "quant_sd"}


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown key"):
        scenario_from_dict({"scenario_id": "m", "zoom": 1})
    with pytest.raises(ConfigError, match="unknown key"):
        scenario_from_dict({"scenario_id": "m", "sd": {"widthh": 2}})
    with pytest.raises(ConfigError, match="unknown key"):
        scenario_from_dict({"scenario_id": "m", "hw": {"hb_banks_count": 4}})


def test_config_rejects_small_pool():
    with pytest.raises(ConfigError, match="pool_capacity"):
        scenario_from_dict(
            {"scenario_id": "m", "model": {"top_k": 4}, "sd": {"pool_capacity": 2}}
        )


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError, match="arch"):
        scenario_from_dict({"scenario_id": "m", "arch": "vax"})
    with pytest.raises(ConfigError, match="scheme"):
        scenario_from_dict({"scenario_id": "m", "schemes": ["warp_sd"]})
    with pytest.raises(ConfigError, match="batch_sizes"):
        scenario_from_dict({"scenario_id": "m", "batch_sizes": [0]})
    with pytest.raises(ConfigError, match="batch_sizes"):
        scenario_from_dict({"scenario_id": "m", "batch_sizes": [10**400]})
    with pytest.raises(ConfigError, match="draft_reconstruct"):
        scenario_from_dict({"scenario_id": "m", "sd": {"draft_reconstruct": "chop"}})


def test_config_rejects_full_draft_reconstruct(capsys, tmp_path):
    # A draft reads the MSB slice; the message lists the three draft modes.
    path = tmp_path / "full.json"
    path.write_text(json.dumps(
        {"scenario_id": "m", "sd": {"draft_reconstruct": "full"}}
    ))
    assert cli_main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "['lsb_augment', 'msb_round', 'truncate']" in err


def test_sd_schemes_require_ours_arch():
    with pytest.raises(ConfigError, match="require arch"):
        scenario_from_dict(
            {"scenario_id": "m", "arch": "xpu", "schemes": ["elastic_sd"]}
        )


def test_parse_error_reports_line():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config_text('{\n "scenario_id": "x",\n "oops\n}')


def test_config_round_trip():
    configs = load_config(example_config_path())
    text = dump_config(configs)
    again = parse_config_text(text)
    assert again == configs


# Positive floats spread over 18 decades, so unit scaling meets mantissas
# of every size.
_MAGNITUDE = st.builds(
    lambda m, e: m * 10.0**e, st.floats(1.0, 10.0, exclude_max=True), st.integers(-9, 9)
)


@st.composite
def _accepted_scenarios(draw):
    n_experts = draw(st.integers(1, 16))
    top_k = draw(st.integers(1, n_experts))
    schemes = draw(st.lists(st.sampled_from(runner.ALL_SCHEMES), min_size=1, unique=True))
    arch = "ours" if set(schemes) - {"ar_only"} else draw(st.sampled_from([a.value for a in Arch]))
    hw_keys = draw(st.lists(st.sampled_from(sorted(runner._HW_KEY_MAP)), unique=True))
    hw = {}
    for key in hw_keys:
        if key in ("nmp_channels", "total_channels"):
            continue
        if key in ("hb_derate", "ext_derate"):
            hw[key] = draw(st.floats(0.0, 1.0, exclude_max=True))
        elif key in ("hb_banks", "macs_per_pe_per_cycle"):
            hw[key] = draw(st.integers(1, 2**20))
        else:
            hw[key] = draw(_MAGNITUDE)
    if "total_channels" in hw_keys:
        hw["total_channels"] = draw(st.integers(3, 16))
        hw["nmp_channels"] = draw(st.integers(1, hw["total_channels"] - 1))
    return {
        "scenario_id": draw(st.text(min_size=1, max_size=8)),
        "model": {
            "d_model": draw(st.sampled_from([32, 64])),
            "d_ff": draw(st.sampled_from([32, 64, 128])),
            "n_experts": n_experts,
            "top_k": top_k,
            "n_layers": draw(st.integers(1, 3)),
            "vocab": draw(st.integers(1, 64)),
        },
        "hw": hw,
        "arch": arch,
        "schemes": schemes,
        "batch_sizes": draw(st.lists(st.integers(1, 64), min_size=1, max_size=4)),
        "trace": {
            "n_tokens": draw(st.integers(1, 500)),
            "zipf_exponent": draw(st.floats(0.0, 3.0)),
            "correlation": draw(st.floats(0.0, 1.0)),
            "seed": draw(st.integers(0, 2**31)),
        },
        "sd": {
            "width": draw(st.integers(1, 4)),
            "depth": draw(st.integers(0, 4)),
            "pool_capacity": draw(st.integers(top_k, n_experts + 2)),
            "hotness_decay_factor": draw(st.floats(0.0, 1.0)),
            "draft_reconstruct": draw(st.sampled_from(["truncate", "lsb_augment", "msb_round"])),
        },
        "run": {
            "prompt_len": draw(st.integers(1, 16)),
            "kv_coeff": draw(_MAGNITUDE),
        },
        "analytic": {
            name: {"mean_accept": draw(st.floats(0.0, 8.0)), "footprint_multiplier": draw(st.floats(1.0, 4.0))}
            for name in draw(st.lists(st.sampled_from(runner.ANALYTIC_SCHEMES), unique=True))
        },
    }


@settings(max_examples=100, deadline=None)
@given(data=_accepted_scenarios())
def test_config_round_trip_property(data):
    cfg = scenario_from_dict(data)
    assert scenario_from_dict(runner.scenario_to_dict(cfg)) == cfg
    assert parse_config_text(dump_config([cfg])) == [cfg]


def test_hw_unit_conversion():
    cfg = scenario_from_dict(
        {
            "scenario_id": "m",
            "hw": {"hb_bw_per_bank_gbps": 51.2, "hb_capacity_gib": 2, "clock_ghz": 1.5},
        }
    )
    assert cfg.hw.hb_bw_per_bank == pytest.approx(51.2e9)
    assert cfg.hw.hb_capacity_bytes == pytest.approx(2 * 1024**3)
    assert cfg.hw.clock_hz == pytest.approx(1.5e9)


def test_duplicate_scenario_ids_rejected():
    text = json.dumps(
        {"scenarios": [{"scenario_id": "a"}, {"scenario_id": "a"}]}
    )
    with pytest.raises(ConfigError, match="unique"):
        parse_config_text(text)


def test_run_scenario_row_shape():
    rows = run_scenario(fast_config())
    assert len(rows) == 4
    schemes = [(r.scheme, r.batch) for r in rows]
    assert schemes == [("ar_only", 1), ("ar_only", 4), ("elastic_sd", 1), ("elastic_sd", 4)]
    for r in rows:
        assert r.per_token_latency_s > 0
        assert r.per_token_energy_j > 0
        assert r.speedup_vs_xpu > 0
        total = (
            r.energy_compute_j + r.energy_hb_mem_j + r.energy_ext_mem_j
            + r.energy_comm_j + r.energy_static_j
        )
        assert total == pytest.approx(r.per_token_energy_j, rel=1e-6)


def test_ar_only_rows_have_no_accept_column():
    rows = run_scenario(fast_config())
    ar = [r for r in rows if r.scheme == "ar_only"]
    sd = [r for r in rows if r.scheme == "elastic_sd"]
    assert all(r.accept_length_mean is None and r.mode == "ar" for r in ar)
    assert all(r.accept_length_mean is not None for r in sd)
    assert all(r.verify_msb_hit_rate is not None for r in sd)


def test_run_scenario_deterministic():
    a = run_scenario(fast_config())
    b = run_scenario(fast_config())
    assert a == b


def test_sequential_matches_concurrent():
    configs = [fast_config(), fast_config(scenario_id="other")]
    seq = run_scenarios(configs, max_workers=None)
    par = run_scenarios(configs, max_workers=4)
    assert seq == par


def test_rows_sorted_by_scenario_id():
    configs = [fast_config(scenario_id="zz"), fast_config(scenario_id="aa")]
    rows = run_scenarios(configs)
    ids = [r.scenario_id for r in rows]
    assert ids == sorted(ids)


def test_analytic_scheme_rows():
    cfg = fast_config(schemes=["quant_sd"], batch_sizes=[1])
    rows = run_scenario(cfg)
    assert len(rows) == 1
    row = rows[0]
    assert row.accept_length_mean == pytest.approx(2.4)
    assert row.verify_msb_hit_rate is None
    assert row.mode in ("ar", "sd")


def test_quant_footprint_lowers_hit_rate():
    base = run_scenario(fast_config(schemes=["eagle_sd"], batch_sizes=[1]))[0]
    quant = run_scenario(fast_config(schemes=["quant_sd"], batch_sizes=[1]))[0]
    # Same trace, same capacity: doubling the per-item footprint cannot help.
    assert quant.ar_hit_rate <= base.ar_hit_rate


def test_runner_error_carries_scenario_id():
    cfg = fast_config(
        scenario_id="toosmall", hw={"hb_capacity_gib": 0.00003}, batch_sizes=[16]
    )
    with pytest.raises(RunnerError, match="toosmall"):
        run_scenario(cfg)


def test_verify_cache_holds_msb_pieces_below_a_full_expert():
    # HB headroom after the draft pool fits one MSB piece but not a full
    # expert.  The verify stream caches MSB pieces only, so the scenario
    # runs; a cache sized for full experts rejected it.
    probe = scenario_from_dict({"scenario_id": "probe", "batch_sizes": [1]})
    headroom = hwmodel.hb_headroom_bytes(
        probe.hw, probe.shape, 1, probe.run.seq_len, probe.run.kv_coeff,
        probe.sd.pool_capacity,
    )
    msb = hwmodel.expert_bytes_msb(probe.shape)
    full = hwmodel.expert_bytes_full(probe.shape)
    used = probe.hw.hb_capacity_bytes - headroom
    cfg = scenario_from_dict({
        "scenario_id": "tight",
        "batch_sizes": [1],
        "hw": {"hb_capacity_gib": (used + (msb + full) / 2) / GIB},
    })
    (sd_row,) = [r for r in run_scenario(cfg) if r.scheme == "elastic_sd"]
    assert 0.0 <= sd_row.verify_msb_hit_rate <= 1.0


def test_render_csv_stable_header_and_precision():
    rows = run_scenario(fast_config())
    text = render_csv(rows)
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + len(rows)
    # AR rows leave the accept column empty.
    first = lines[1].split(",")
    assert first[CSV_COLUMNS.index("accept_length_mean")] == ""


def test_render_csv_byte_identical_across_runs():
    a = render_csv(run_scenario(fast_config()))
    b = render_csv(run_scenario(fast_config()))
    assert a == b


def test_render_json_round_trip():
    rows = run_scenario(fast_config())
    text = render_json(rows)
    assert rows_from_json(text) == rows


def test_emit_rejects_empty():
    with pytest.raises(RunnerError):
        render_csv([])
    with pytest.raises(RunnerError):
        render_json([])


def test_emit_writes_files(tmp_path):
    rows = run_scenario(fast_config())
    csv_path = tmp_path / "out.csv"
    json_path = tmp_path / "out.json"
    runner.emit(rows, "csv", str(csv_path))
    runner.emit(rows, "json", str(json_path))
    assert csv_path.read_text().startswith(CSV_COLUMNS[0])
    assert rows_from_json(json_path.read_text()) == rows


def test_emit_dash_writes_stdout(capsys):
    rows = run_scenario(fast_config())
    runner.emit(rows, "json", "-")
    assert rows_from_json(capsys.readouterr().out) == rows


def test_speedup_definition_consistency():
    rows = run_scenario(fast_config(arch="xpu", schemes=["ar_only"]))
    # On the xPU baseline itself the speedup must be exactly 1.
    for r in rows:
        assert r.speedup_vs_xpu == pytest.approx(1.0, rel=1e-9)


def test_shared_work_runs_once_per_scenario(monkeypatch):
    calls = {}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(toymoe, "gen_model")
    counted(toymoe, "greedy_decode")
    counted(expert_cache, "expected_unique_experts")
    counted(expert_cache, "decisions_to_trace")
    (cfg,) = load_config(example_config_path())
    run_scenario(cfg)
    # 3 batch sizes x (AR, elastic_sd verify, random_pool_sd verify), and
    # one access trace per decision stream: AR and the two sessions' verify.
    assert calls == {
        "gen_model": 1, "greedy_decode": 1, "expected_unique_experts": 9,
        "decisions_to_trace": 3,
    }


def test_ablation_suite_names():
    with pytest.raises(ConfigError, match="unknown ablation suite"):
        ablation_suite("no_such_suite")


def test_ablation_cache_capacity_monotone_hit_rate():
    rows = ablation_suite("cache_capacity")
    ar_rows = [r for r in rows if r.scheme == "ar_only"]
    ar_rows.sort(key=lambda r: r.scenario_id)
    hits = [r.ar_hit_rate for r in ar_rows]
    assert hits == sorted(hits)
    assert hits[-1] > hits[0]


# ---------------------------------------------------------------------------
# CLI


def test_cli_validate_ok(capsys):
    assert cli_main(["validate", example_config_path()]) == 0
    assert "OK" in capsys.readouterr().out


def test_cli_validate_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"scenario_id": "x", "bogus_key": 1}')
    assert cli_main(["validate", str(bad)]) == 1
    assert "config error" in capsys.readouterr().err


def test_cli_missing_config_file(capsys):
    assert cli_main(["validate", "/nonexistent/nope.json"]) == 1


def test_cli_run_to_stdout(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(FAST))
    assert cli_main(["run", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == ",".join(CSV_COLUMNS)


def test_cli_run_writes_json(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(FAST))
    out_path = tmp_path / "rows.json"
    code = cli_main(
        ["run", str(cfg_path), "--format", "json", "-o", str(out_path)]
    )
    assert code == 0
    assert rows_from_json(out_path.read_text())


def test_cli_runtime_error_exit_code(tmp_path, capsys):
    data = json.loads(json.dumps(FAST))
    data["hw"] = {"hb_capacity_gib": 0.00003}
    data["batch_sizes"] = [16]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    assert cli_main(["run", str(cfg_path)]) == 2
    assert "runtime error" in capsys.readouterr().err


# Each case is (section, field overrides); the parameter name fixes the
# test ids (model0, model1, ...).
@pytest.mark.parametrize(
    "model",
    [
        ("model", {"d_model": "64"}),
        ("model", {"d_model": 64.0}),
        ("model", {"top_k": True}),
        ("trace", {"n_tokens": 2.5}),
        ("trace", {"seed": 7.5}),
        ("sd", {"width": 2.0}),
        ("sd", {"depth": 1.5}),
        ("run", {"n_new_tokens": True}),
        ("analytic", {"eagle_sd": {"mean_accept": True}}),
    ],
)
@pytest.mark.parametrize("command", ["validate", "run"])
def test_cli_rejects_non_integer_model_fields(tmp_path, capsys, command, model):
    section, fields = model
    data = json.loads(json.dumps(FAST))
    data.setdefault(section, {}).update(fields)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    assert cli_main([command, str(cfg_path)]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {section}.")


@pytest.mark.parametrize(
    "hw",
    [
        {"pim_bw_multiplier": 0},
        {"pim_bw_multiplier": -1},
        {"logic_pim_compute_multiplier": 0},
        {"nmp_internal_multiplier": 0},
        {"hb_energy_pj_per_bit": -1},
        {"static_power_w": -5},
        {"hb_bw_per_bank_gbps": float("nan")},
        {"ext_bw_gbps": float("inf")},
        {"ext_bw_gbps": 10**400},
        {"ext_bw_gbps": 1e300},
    ],
)
@pytest.mark.parametrize("command", ["validate", "run"])
def test_cli_rejects_unpriceable_hw_numbers(tmp_path, capsys, command, hw):
    data = json.loads(json.dumps(FAST))
    data["hw"].update(hw)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    assert cli_main([command, str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: hw")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "section, fields",
    [
        ("sd", {"width": runner.MAX_SD_WIDTH + 1}),
        ("sd", {"depth": runner.MAX_SD_DEPTH + 1}),
        ("sd", {"width": 10**9}),
        ("run", {"prompt_len": runner.MAX_PROMPT_LEN + 1}),
    ],
)
@pytest.mark.parametrize("command", ["validate", "run"])
def test_cli_rejects_sizes_above_bounds(tmp_path, capsys, command, section, fields):
    data = json.loads(json.dumps(FAST))
    data[section].update(fields)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    assert cli_main([command, str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {section}.")
    assert len(err.splitlines()) == 1


def test_scenario_at_size_bounds_runs_in_seconds():
    # The largest accepted draft tree and prompt: a 1 + 8 * 8 token verify
    # call and a 256-token prefill.  About 0.6 s on a 2-vCPU x86_64 VM.
    data = json.loads(json.dumps(FAST))
    data["batch_sizes"] = [1]
    data["sd"].update(width=runner.MAX_SD_WIDTH, depth=runner.MAX_SD_DEPTH)
    data["run"]["prompt_len"] = runner.MAX_PROMPT_LEN
    start = time.perf_counter()
    rows = run_scenario(scenario_from_dict(data))
    assert time.perf_counter() - start < 10.0
    assert {r.scheme for r in rows} == {"ar_only", "elastic_sd"}


def test_cli_run_overflow_is_runtime_error(tmp_path, capsys):
    # Valid on its own, but the PE array's peak rate overflows a float.
    data = json.loads(json.dumps(FAST))
    data["hw"].update(hb_banks=10**300, macs_per_pe_per_cycle=10**300)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    assert cli_main(["validate", str(cfg_path)]) == 0
    capsys.readouterr()
    assert cli_main(["run", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error: scenario 'fast'")
    assert len(err.splitlines()) == 1


def test_cli_ablate_unknown_suite(capsys):
    assert cli_main(["ablate", "bogus"]) == 1


def test_cli_unwritable_output(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(FAST))
    code = cli_main(["run", str(cfg_path), "-o", "/nonexistent_dir/out.csv"])
    assert code == 2
