import copy
import dataclasses
import json
import math
import time
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from elasticmoe import elastic_sd, expert_cache, hwmodel, runner, toymoe
from elasticmoe.cli import main as cli_main
from elasticmoe.hwmodel import Arch, GIB
from elasticmoe.runner import (
    ConfigError,
    CSV_COLUMNS,
    ResultRow,
    RunnerError,
    ablation_suite,
    example_config_path,
    load_config,
    parse_config_text,
    render_csv,
    render_json,
    run_scenario,
    run_scenarios,
    scenario_from_dict,
)


def scenario_to_dict(cfg: runner.ScenarioConfig) -> dict:
    """Fully explicit form: re-loading it reproduces the same scenario."""
    hw = {}
    for fname, (key, scale, *_) in hwmodel.HW_FIELDS.items():
        value = getattr(cfg.hw, fname)
        hw[key] = value if runner._HW_TYPES[fname] is int else value / scale
    return {
        "scenario_id": cfg.scenario_id,
        "model": {k: getattr(cfg.shape, k) for k in runner._MODEL_DEFAULTS},
        "hw": hw,
        "arch": cfg.arch.value,
        "schemes": list(cfg.schemes),
        "batch_sizes": list(cfg.batch_sizes),
        "trace": dataclasses.asdict(cfg.trace),
        "sd": dataclasses.asdict(cfg.sd),
        "run": dataclasses.asdict(cfg.run),
        "analytic": {k: dataclasses.asdict(v) for k, v in sorted(cfg.analytic.items())},
    }


def dump_config(configs: list[runner.ScenarioConfig]) -> str:
    """Serialize scenarios in the fully explicit round-trippable form."""
    payload = {"scenarios": [scenario_to_dict(c) for c in configs]}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def rows_from_json(text: str) -> list[ResultRow]:
    return [ResultRow(**item) for item in json.loads(text)]


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
    # Nothing prices an external-memory capacity, so there is no such key.
    with pytest.raises(ConfigError, match="hw: unknown key 'ext_capacity_gib'"):
        scenario_from_dict({"scenario_id": "m", "hw": {"ext_capacity_gib": 64}})


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


_SECTION_TYPES = {
    "scenario": {"batch_sizes": int},
    **{section: typing.get_type_hints(cls) for section, cls in (
        ("model", toymoe.MoEShape), ("trace", runner.TraceParams),
        ("sd", runner.SdSchemeParams), ("run", runner.RunParams),
        ("analytic", runner.AnalyticParams),
    )},
}
# Caps on the fields that size a run, so that a drawn scenario runs in
# well under a second.
_SMALL = {
    ("scenario", "batch_sizes"): 16, ("trace", "n_tokens"): 64, ("sd", "width"): 4,
    ("sd", "depth"): 4, ("run", "prompt_len"): 16, ("run", "n_new_tokens"): 16,
}


def _in_range(section, key, caps):
    """Values inside the key's RANGES row, its open top capped at 2**31 and
    a sizing field's top at caps."""
    low, high = runner.RANGES[section, key]
    high = caps.get((section, key), 2**31 if high == math.inf else high)
    if _SECTION_TYPES[section][key] is int:
        return st.integers(low, high)
    return st.floats(low, high)


_HW_TYPES = typing.get_type_hints(hwmodel.HwConfig)
_HW_KEYS = {key: fname for fname, (key, *_) in hwmodel.HW_FIELDS.items()}


def _hw_value(draw, fname):
    """A config value for an HwConfig field, anywhere in its HW_FIELDS row
    (either end included, a 0 low drawn as 0 or from MIN_POSITIVE up); the
    two channel counts and the derates' open top are cross-checks, drawn
    by the caller."""
    _, scale, low, high = hwmodel.HW_FIELDS[fname]
    if fname in ("hb_derate", "ext_derate"):
        return draw(st.floats(low, 1.0, exclude_max=True))
    if _HW_TYPES[fname] is int:
        return draw(st.integers(max(1, low), int(high)))
    # The least and greatest config values whose scaled field is in range.
    lo = max(low, hwmodel.MIN_POSITIVE) / scale
    lo = lo if lo * scale >= low else math.nextafter(lo, math.inf)
    hi = high / scale
    hi = hi if hi * scale <= high else math.nextafter(hi, 0.0)
    value = draw(
        st.sampled_from([lo, hi])
        | st.floats(math.log10(lo), math.log10(hi)).map(lambda e: min(max(10.0**e, lo), hi))
    )
    return draw(st.sampled_from([0.0, value])) if low == 0 else value


@st.composite
def _accepted_scenarios(draw, small=False):
    """Scenario documents that load: every bounded value is drawn from its
    RANGES or HW_FIELDS row, the pool from [top_k, n_experts] and the HB
    capacity so that it holds the largest batch.  With small, sizing
    fields stay under _SMALL."""
    caps = _SMALL if small else {}

    def ranged(section):
        return {
            key: draw(_in_range(sec, key, caps)) for sec, key in runner.RANGES if sec == section
        }

    def analytic_params():
        # A tree step accepts at most depth draft tokens.
        params = ranged("analytic")
        params["mean_accept"] = draw(st.floats(0, params["depth"]))
        return params

    n_experts = draw(st.integers(1, 16))
    top_k = draw(st.integers(1, n_experts))
    schemes = draw(st.lists(st.sampled_from(runner.ALL_SCHEMES), min_size=1, unique=True))
    arch = "ours" if set(schemes) - {"ar_only"} else draw(st.sampled_from([a.value for a in Arch]))
    model = {
        "d_model": draw(st.sampled_from([32, 64])),
        "d_ff": draw(st.sampled_from([32, 64, 128])),
        "n_experts": n_experts,
        "top_k": top_k,
        "n_layers": draw(st.integers(1, 3)),
        "vocab": draw(st.integers(1, 64)),
    }
    sections = {section: ranged(section) for section in ("trace", "sd", "run")}
    sections["sd"]["pool_capacity"] = draw(st.integers(top_k, n_experts))
    sections["sd"]["draft_reconstruct"] = draw(
        st.sampled_from(["truncate", "lsb_augment", "msb_round"])
    )
    batch_sizes = draw(st.lists(
        _in_range("scenario", "batch_sizes", caps), min_size=1, max_size=4
    ))
    hw = {}
    hw_keys = draw(st.lists(st.sampled_from(sorted(_HW_KEYS)), unique=True))
    for key in hw_keys:
        if key not in ("nmp_channels", "total_channels"):
            hw[key] = _hw_value(draw, _HW_KEYS[key])
    if "total_channels" in hw_keys:
        # At least one channel each for the NMP tier and the host.  Up to
        # 2**53 channels every split passes HwConfig's share check; above
        # it the host's share can round to 0.
        total = hw["total_channels"] = draw(st.integers(2, 2**53))
        hw["nmp_channels"] = draw(st.integers(1, total - 1))
    if Arch(arch).has_hb:
        run = sections["run"]
        shape = toymoe.MoEShape(**model)
        need = (
            hwmodel.dense_bytes(shape)
            + hwmodel.kv_bytes(shape, max(batch_sizes), run["seq_len"], run["kv_coeff"])
            + sections["sd"]["pool_capacity"] * shape.n_layers * hwmodel.expert_bytes_msb(shape)
        )
        hw["hb_capacity_gib"] = need / GIB * draw(st.floats(1.001, 1e6))
    return {
        "scenario_id": draw(st.text(min_size=1, max_size=8)),
        "model": model,
        "hw": hw,
        "arch": arch,
        "schemes": schemes,
        "batch_sizes": batch_sizes,
        **sections,
        "analytic": {
            name: analytic_params()
            for name in draw(st.lists(st.sampled_from(runner.ANALYTIC_SCHEMES), unique=True))
        },
    }


@settings(max_examples=100, deadline=None)
@given(data=_accepted_scenarios())
def test_config_round_trip_property(data):
    cfg = scenario_from_dict(data)
    assert scenario_from_dict(scenario_to_dict(cfg)) == cfg
    assert parse_config_text(dump_config([cfg])) == [cfg]


def test_every_numeric_config_field_has_a_table_row():
    numeric = {
        (section, key) for section, types in _SECTION_TYPES.items()
        for key, typ in types.items() if typ in (int, float)
    }
    assert set(runner.RANGES) == numeric
    assert set(hwmodel.HW_FIELDS) == set(_HW_TYPES)


@pytest.mark.filterwarnings("ignore::elasticmoe.hwmodel.CommOverlapWarning")
@settings(max_examples=20, deadline=None)
@given(data=_accepted_scenarios(small=True))
def test_accepted_scenario_runs_to_finite_rows(data):
    # Default hw: a scenario that loads runs, and every float it writes is
    # finite.  Values at the top of run.seq_len and run.kv_coeff overflow
    # the default HB capacity, so those load only on the archs without it.
    try:
        cfg = scenario_from_dict(data)
    except ConfigError:
        return
    for row in run_scenario(cfg):
        values = dataclasses.astuple(row)
        assert all(math.isfinite(v) for v in values if isinstance(v, float)), row


# Key names the config knows, so random documents get past the key checks
# into the value checks.
_CONFIG_KEYS = sorted(
    {"scenarios", *runner._SCENARIO_KEYS, *runner._MODEL_DEFAULTS, *_HW_KEYS,
     *runner.ANALYTIC_SCHEMES}
    | {f.name for cls in (runner.TraceParams, runner.SdSchemeParams, runner.RunParams,
                          runner.AnalyticParams) for f in dataclasses.fields(cls)}
)
_JSON_SCALARS = (
    st.sampled_from([
        float("nan"), float("inf"), float("-inf"), 2**63, -(2**63), 2**64, 10**400,
        True, False, None, 0, -1, 1e308, 5e-324, "", "ours", "lsb_augment",
    ])
    | st.integers()
    | st.floats()
    | st.text(max_size=6)
)
_JSON = st.recursive(
    _JSON_SCALARS,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.sampled_from(_CONFIG_KEYS) | st.text(max_size=4), kids, max_size=4),
    max_leaves=8,
)


def _json_paths(node, prefix=()):
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ()
    )
    for key, child in items:
        yield prefix + (key,)
        yield from _json_paths(child, prefix + (key,))


_BUNDLED = scenario_to_dict(load_config(example_config_path())[0])


def _parse_or_config_error(doc):
    try:
        parse_config_text(json.dumps(doc))
    except ConfigError:
        pass


@settings(max_examples=80, deadline=None)
@given(doc=_JSON)
def test_random_json_raises_only_config_error(doc):
    _parse_or_config_error(doc)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_bundled_scenario_with_random_values_raises_only_config_error(data):
    # The bundled scenario's explicit form with one or two values, at any
    # depth, overwritten by random JSON (NaN, infinities, 2**63, bools,
    # nested lists and dicts among them).
    doc = copy.deepcopy(_BUNDLED)
    for _ in range(data.draw(st.integers(1, 2), label="overwrites")):
        path = data.draw(st.sampled_from(list(_json_paths(doc))), label="path")
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = data.draw(_JSON, label="value")
    _parse_or_config_error(doc)


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


# Loads only without the HW_FIELDS highs; the PE array's peak rate then
# overflows a float when priced.
_OVERFLOW_HW = {"hb_banks": 10**300, "macs_per_pe_per_cycle": 10**300}


@pytest.fixture
def unbounded_hw(monkeypatch):
    """HW_FIELDS without highs: every hw value that loads prices finite, so
    only this lets a config reach the runner's runtime checks."""
    for fname, (key, scale, low, _) in list(hwmodel.HW_FIELDS.items()):
        monkeypatch.setitem(hwmodel.HW_FIELDS, fname, (key, scale, low, math.inf))


def test_runner_error_carries_scenario_id(unbounded_hw):
    cfg = fast_config(scenario_id="overflow", hw={**FAST["hw"], **_OVERFLOW_HW})
    with pytest.raises(RunnerError, match="overflow"):
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


# Fast external memory and no KV: FAST's sessions verify 7 tokens a step,
# so a batch-b row routes 7 * b verify tokens.  With links of 1e5 Gbps the
# SD floor beats AR in every row but random_pool_sd's at batch 1; at 1e3
# Gbps only in elastic_sd's at batches 1 and 4.  At trace seed 6
# random_pool_sd accepts 3.0 tokens a step to elastic_sd's 2.0, and at
# batch 1 only its floor beats AR.
_FAST_HW = {"aggr_link_bw_gbps": 1e5, "streamline_bw_gbps": 1e5, "ext_bw_gbps": 1e4}


def _fast_sd(links=1e5, trace_seed=3, batch_sizes=(1, 4, 16)):
    data = json.loads(json.dumps(FAST))
    data["hw"].update(_FAST_HW, aggr_link_bw_gbps=links, streamline_bw_gbps=links)
    data.update(schemes=["ar_only", "elastic_sd", "random_pool_sd"], batch_sizes=list(batch_sizes))
    data["trace"]["seed"] = trace_seed
    data["run"]["seq_len"] = 0
    return data


def _assert_verify_estimate(cfg, call, draws, needing):
    """call, the verify estimate's (args, kwargs), covers exactly draws and
    the verify popularities of the needing sessions, in scheme order."""
    (batches, _, n_experts), kwargs = call
    assert list(batches) == draws
    model, traces, prompt, _ = runner._decode_inputs(cfg)
    sessions = runner._sd_sessions(cfg, model, prompt, traces, needing)
    popularity = [runner._popularity(sessions[s][1], n_experts) for s in needing]
    assert np.array_equal(kwargs["popularity"], popularity)


def test_shared_work_runs_once_per_scenario(monkeypatch):
    calls = {}

    def counted(module, name):
        original = getattr(module, name)
        calls[name] = []

        def wrapper(*args, **kwargs):
            calls[name].append((args, kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    def counts():
        return {name: len(made) for name, made in calls.items()}

    counted(toymoe, "gen_model")
    counted(toymoe, "greedy_decode")
    # Every model step, as perfbench counts them: the sessions' prefills
    # call toymoe.step and their phases elastic_sd.step, both into "step".
    counted(toymoe, "step")
    counted(elastic_sd, "step")
    counted(expert_cache, "expected_unique_experts")
    counted(expert_cache.AccessTrace, "from_columns")
    counted(expert_cache, "simulate_lru")
    counted(hwmodel, "build_workloads")
    (cfg,) = load_config(example_config_path())
    run_scenario(cfg)
    # One unique-expert estimate over every AR batch size; no session's SD
    # floor beats the AR step at any batch, so there is no verify estimate.
    # One access trace per decision stream: AR and the two sessions'
    # verify.  The AR routing is read off the traces, so no AR tokens are
    # decoded.  Per batch (3 of them): one XPU price, one AR replay and
    # price per cache footprint (4: 1.0 and the three analytic
    # multipliers), and one verify replay and SD floor per session (2), but
    # no SD price.  The two sessions step in lockstep: one prefill each,
    # then per round one call per draft depth (3) and one verify call for
    # both; the random-pool session needs 8 rounds and the hotness one 6,
    # where stepping them apart took 56 calls after the prefills.
    assert counts() == {
        "gen_model": 1, "greedy_decode": 0, "step": 2 + 8 * (3 + 1),
        "expected_unique_experts": 1, "from_columns": 3, "simulate_lru": 12 + 6,
        "build_workloads": 3 + 12 + 6,
    }
    # The runner replays its traces without a phase map, so it builds them
    # from layer, expert and kind columns alone: no step ids.
    assert [(len(args), kwargs) for args, kwargs in calls["from_columns"]] == [(3, {})] * 3
    # Where SD wins: the AR estimate and one verify estimate.  Per batch
    # (3), one XPU price, one AR replay and price (footprint 1.0 only), one
    # verify replay and SD floor per session (2), and an SD price in each
    # of the 5 rows whose floor beats AR.  Both sessions take 3 rounds.
    for made in calls.values():
        made.clear()
    cfg = scenario_from_dict(_fast_sd())
    run_scenario(cfg)
    assert counts() == {
        "gen_model": 1, "greedy_decode": 0, "step": 2 + 3 * (3 + 1),
        "expected_unique_experts": 2,
        "from_columns": 3, "simulate_lru": 3 + 6, "build_workloads": 3 + 3 + 6 + 5,
    }
    _assert_verify_estimate(
        cfg, calls["expected_unique_experts"][1], [7, 28, 112], ["elastic_sd", "random_pool_sd"]
    )


@pytest.mark.filterwarnings("ignore::elasticmoe.hwmodel.CommOverlapWarning")
def test_suites_build_each_model_once(monkeypatch):
    # The store is cleared first, so each miss is one run of the uncached
    # builder for these suites: 23 scenarios share one (shape, model seed).
    configs = [c for which in runner.ABLATION_SUITES for c in runner._ablation_configs(which)]
    keys = {(c.shape, c.run.model_seed) for c in configs}
    assert (len(configs), len(keys)) == (23, 1)
    made = []
    gen_model = toymoe.gen_model

    def recording(shape, seed):
        made.append(gen_model(shape, seed))
        return made[-1]

    monkeypatch.setattr(toymoe, "gen_model", recording)
    toymoe._build_model.cache_clear()
    for which in runner.ABLATION_SUITES:
        ablation_suite(which)
    info = toymoe._build_model.cache_info()
    assert (info.misses, info.hits) == (len(keys), len(configs) - len(keys))
    assert info.currsize <= toymoe.MODEL_CACHE_SIZE
    assert len(made) == len(configs)
    assert len({id(model) for model in made}) == len(keys)


@pytest.mark.filterwarnings("ignore::elasticmoe.hwmodel.CommOverlapWarning")
def test_second_run_on_the_shared_model_renders_the_golden_csv():
    # The second run reuses the first run's model and its draft code sets,
    # which carry no state into the results.
    golden = (Path(__file__).with_name("golden") / "example_sweep.csv").read_bytes()
    configs = load_config(example_config_path())
    toymoe._build_model.cache_clear()
    for _ in range(2):
        assert render_csv(run_scenarios(configs)).encode() == golden
    info = toymoe._build_model.cache_info()
    assert (info.misses, info.hits) == (1, 1)


@pytest.mark.filterwarnings("ignore::elasticmoe.hwmodel.CommOverlapWarning")
@pytest.mark.parametrize("data, draws, needing", [
    (_fast_sd(links=1e3), [7, 28], ["elastic_sd"]),
    (_fast_sd(trace_seed=6, batch_sizes=[1]), [7], ["random_pool_sd"]),
])
def test_verify_estimate_skips_rows_whose_floor_does_not_beat_ar(
    monkeypatch, data, draws, needing
):
    calls = []
    original = expert_cache.expected_unique_experts

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(expert_cache, "expected_unique_experts", spy)
    cfg = scenario_from_dict(data)
    run_scenario(cfg)
    assert len(calls) == 2
    _assert_verify_estimate(cfg, calls[1], draws, needing)


@pytest.mark.filterwarnings("ignore::elasticmoe.hwmodel.CommOverlapWarning")
def test_batch_rows_do_not_depend_on_the_other_batch_sizes():
    # Fast links and external memory and no KV, so both sessions' SD steps
    # win at some batches and each row carries the price of its own
    # batch's verify estimate.  One estimate serves every batch size, and
    # each entry equals the call for that batch alone, so a batch's rows
    # equal those of a scenario with that one batch size.
    data = _fast_sd()
    rows = run_scenario(scenario_from_dict(data))
    assert {(r.scheme, r.batch) for r in rows if r.mode == "sd"} == {
        ("elastic_sd", 4), ("elastic_sd", 16), ("random_pool_sd", 16),
    }
    for batch in data["batch_sizes"]:
        alone = run_scenario(scenario_from_dict({**data, "batch_sizes": [batch]}))
        assert alone == [r for r in rows if r.batch == batch]


def _rows_or_error(cfg):
    try:
        return run_scenario(cfg)
    except RunnerError as exc:
        return str(exc)


@pytest.mark.filterwarnings("ignore::elasticmoe.hwmodel.CommOverlapWarning")
@settings(max_examples=15, deadline=None)
@given(
    data=_accepted_scenarios(small=True), no_kv=st.booleans(),
    ext_gbps=st.sampled_from([1e3, 1e4]),
)
@example(data=_fast_sd(trace_seed=6, batch_sizes=[1]), no_kv=True, ext_gbps=1e4)
@example(data=_fast_sd(batch_sizes=[2, 4]), no_kv=True, ext_gbps=1e3)
def test_rows_equal_those_with_every_verify_estimate_drawn(data, no_kv, ext_gbps):
    # Fast links and external memory (and, with no_kv, no KV reads) let
    # the SD step win in some rows.  Skipping the verify estimate and the
    # SD price where the floor does not beat AR changes no row and no
    # error: a floor that always does draws and prices every row.  The
    # first example needs the estimate for random_pool_sd alone; in the
    # second, elastic_sd's SD step wins where its price at every expert
    # would not beat AR.
    data = copy.deepcopy(data)
    data["hw"].update(_FAST_HW, ext_bw_gbps=ext_gbps)
    if no_kv:
        data["run"]["seq_len"] = 0
    if data.get("arch", "ours") == "ours":
        data["schemes"] += [s for s in ("elastic_sd", "random_pool_sd") if s not in data["schemes"]]
    try:
        cfg = scenario_from_dict(data)
    except ConfigError:
        return
    rows = _rows_or_error(cfg)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hwmodel, "sd_latency_floor", lambda *args: -math.inf)
        assert _rows_or_error(cfg) == rows


def assert_ar_routing_is_greedy_decode_routing(cfg):
    """_decode_inputs' AR decision stream (the one the runner prices) is,
    position by position, the routing greedy_decode applies to the
    scenario's prompt and new tokens under the scenario's traces."""
    model, traces, prompt, selected = runner._decode_inputs(cfg)
    _, want = toymoe.greedy_decode(
        model, prompt, cfg.run.n_new_tokens, toymoe.PrecisionMode.INT8_FULL,
        score_traces=traces,
    )
    n_positions = cfg.run.prompt_len + cfg.run.n_new_tokens
    assert selected.shape == want.shape == (n_positions, cfg.shape.n_layers, cfg.shape.top_k)
    assert np.array_equal(selected, want)
    # Its access trace holds the (layer, expert, kind) columns the tuple
    # records of that routing give, in position, layer, then slot order,
    # and no step ids.
    records = [
        (pos, [(layer, e) for layer, ids in enumerate(row) for e in ids])
        for pos, row in enumerate(want.tolist())
    ]
    got = runner._access_trace(selected, "full")
    ref = expert_cache.decisions_to_trace(records, "full")
    assert got.step is None
    for name in ("layer", "expert", "kind"):
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name


# These tests price nothing they check; the AR step's comm-overlap
# warnings are beside the point here.
_NO_COMM_WARNINGS = pytest.mark.filterwarnings("ignore::elasticmoe.hwmodel.CommOverlapWarning")


@_NO_COMM_WARNINGS
def test_ar_routing_of_bundled_scenario_is_greedy_decode_routing():
    for cfg in load_config(example_config_path()):
        assert_ar_routing_is_greedy_decode_routing(cfg)


@_NO_COMM_WARNINGS
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_ar_routing_is_greedy_decode_routing(data):
    # Traces shorter and longer than the run, so rows wrap or not.
    n_experts = data.draw(st.integers(1, 8), label="n_experts")
    top_k = data.draw(st.integers(1, n_experts), label="top_k")
    assert_ar_routing_is_greedy_decode_routing(scenario_from_dict({
        "scenario_id": "ar",
        "model": {"d_model": 32, "d_ff": 32, "n_experts": n_experts, "top_k": top_k,
                  "n_layers": data.draw(st.integers(1, 3)), "vocab": 16},
        "schemes": ["ar_only"],
        "batch_sizes": [1],
        "trace": {
            "n_tokens": data.draw(st.integers(1, 40), label="trace tokens"),
            "correlation": data.draw(st.floats(0.0, 1.0)),
            "seed": data.draw(st.integers(0, 2**31)),
        },
        "sd": {"pool_capacity": top_k},
        "run": {
            "prompt_len": data.draw(st.integers(1, 8), label="prompt_len"),
            "n_new_tokens": data.draw(st.integers(1, 30), label="n_new_tokens"),
        },
    }))


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
        # Rates so slow that a latency leaves float range, or that a
        # product of rates underflows to 0.
        {"ext_bw_gbps": 5e-324},
        {"clock_ghz": 1e-300},
        {"ext_bw_gbps": 3.466397954619193e-280, "nmp_internal_multiplier": 3.466397954619193e-280},
        # An NMP share whose tier bandwidth underflows to 0, and a host
        # share that rounds to 0.
        {
            "total_channels": 10**300,
            "nmp_channels": 1,
            "ext_bw_gbps": 1e-12,
            "nmp_internal_multiplier": 1e-30,
        },
        {"total_channels": 10**20, "nmp_channels": 10**20 - 1},
        # Values above the highs: a static energy that overflows to inf, and
        # a PE array whose peak rate overflows a float.
        {"static_power_w": 1e308, "clock_ghz": 1e-30},
        _OVERFLOW_HW,
        {"hb_energy_pj_per_bit": 1e43},
    ],
)
@pytest.mark.parametrize("command", ["validate", "run"])
def test_cli_rejects_unpriceable_hw_numbers(tmp_path, capsys, command, hw):
    data = json.loads(json.dumps(FAST))
    data["hw"].update(hw)
    if "nmp_channels" in hw:
        # Only the NMP arch prices the channel split.
        data.update(arch="xpu_nmp", schemes=["ar_only"])
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
        ("run", {"n_new_tokens": runner.MAX_NEW_TOKENS + 1}),
        ("trace", {"n_tokens": runner.MAX_TRACE_TOKENS + 1}),
        # A top-level field; its message starts with its own key.
        (None, {"batch_sizes": [1, runner.MAX_BATCH + 1]}),
        # A draft pool of more experts than the model has (FAST has 8).
        ("sd", {"pool_capacity": 100}),
        ("run", {"seq_len": runner.RANGES["run", "seq_len"][1] + 1}),
        ("run", {"kv_coeff": runner.RANGES["run", "kv_coeff"][1] * 2}),
        ("run", {"kv_coeff": 1e300, "seq_len": 10**10}),
        ("trace", {"zipf_exponent": 400.0}),
        (None, {"analytic": {"eagle_sd": {"depth": runner.MAX_SD_DEPTH + 1}}}),
        *(("model", {key: runner.RANGES["model", key][1] + 1})
          for key in ("d_model", "d_ff", "n_experts", "n_layers", "vocab")),
    ],
)
@pytest.mark.parametrize("command", ["validate", "run"])
def test_cli_rejects_sizes_above_bounds(tmp_path, capsys, command, section, fields):
    data = json.loads(json.dumps(FAST))
    (data if section is None else data[section]).update(fields)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    assert cli_main([command, str(cfg_path)]) == 1
    err = capsys.readouterr().err
    prefix = f"{section}." if section else next(iter(fields))
    assert err.startswith(f"config error: {prefix}")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "prefix, overrides",
    [
        # Dense weights and batch-16 KV overflow 0.00003 GiB of HB.
        ("hw.hb_capacity_gib", {"hw": {"hb_capacity_gib": 0.00003}, "batch_sizes": [16]}),
        # KV traffic that priced to inf latency and energy on the xPU.
        ("run.", {"arch": "xpu", "schemes": ["ar_only"],
                  "run": {"kv_coeff": 1e300, "seq_len": 10**10}}),
        # An accept length beyond the tree depth, which made the SD step's
        # token count inf and its per-token latency 0.
        ("analytic.eagle_sd.mean_accept", {
            "hw": {}, "schemes": ["eagle_sd"], "batch_sizes": [64],
            "analytic": {"eagle_sd": {"mean_accept": 1e308}},
        }),
        # A model too wide for numpy to allocate; run exited 2 with
        # "Maximum allowed dimension exceeded".
        ("model.d_model", {"arch": "xpu", "schemes": ["ar_only"],
                           "model": {"d_model": 32 * 10**200}}),
    ],
)
@pytest.mark.parametrize("command", ["validate", "run"])
def test_cli_rejects_scenarios_run_cannot_price(tmp_path, capsys, command, prefix, overrides):
    data = json.loads(json.dumps(FAST))
    data.update(overrides)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    assert cli_main([command, str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {prefix}")
    assert len(err.splitlines()) == 1


def test_scenario_at_size_bounds_runs_in_seconds():
    # One scenario at every size bound: a 1 + 8 * 8 token verify call, a
    # 256-token prefill, 256 new tokens, a 4,096-token trace, a batch of
    # 64 and the largest model shape (top_k stays 2), whose verify
    # unique-expert estimate dominates: 4,000 samples of 64 * 65 tokens'
    # draws over 24 experts.  That estimate is drawn only where the SD
    # step can beat AR, so fast links, external memory and clock and no
    # KV let elastic_sd's SD step win.  5.3-6.5 s on a 2-vCPU x86_64 VM,
    # 4.8-5.0 s of it in that estimate.
    data = json.loads(json.dumps(FAST))
    data["hw"] = dict(
        aggr_link_bw_gbps=1e6, streamline_bw_gbps=1e6, ext_bw_gbps=1e4, clock_ghz=10
    )
    data["model"].update(
        {key: high for (section, key), (_, high) in runner.RANGES.items()
         if section == "model" and key != "top_k"}
    )
    data["batch_sizes"] = [runner.MAX_BATCH]
    data["sd"].update(width=runner.MAX_SD_WIDTH, depth=runner.MAX_SD_DEPTH)
    data["run"].update(
        prompt_len=runner.MAX_PROMPT_LEN, n_new_tokens=runner.MAX_NEW_TOKENS
    )
    data["trace"]["n_tokens"] = runner.MAX_TRACE_TOKENS
    data["run"]["seq_len"] = 0
    start = time.perf_counter()
    rows = run_scenario(scenario_from_dict(data))
    assert time.perf_counter() - start < 10.0
    assert [(r.scheme, r.mode) for r in rows] == [("ar_only", "ar"), ("elastic_sd", "sd")]


def test_cli_run_overflow_is_runtime_error(tmp_path, capsys, unbounded_hw):
    data = json.loads(json.dumps(FAST))
    data["hw"].update(_OVERFLOW_HW)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    assert cli_main(["validate", str(cfg_path)]) == 0
    capsys.readouterr()
    assert cli_main(["run", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error: scenario 'fast'")
    assert len(err.splitlines()) == 1


@pytest.mark.filterwarnings("ignore::elasticmoe.hwmodel.CommOverlapWarning")
def test_cli_run_non_finite_row_is_runtime_error(tmp_path, capsys, unbounded_hw):
    # Valid without the hw highs and priced, but the static energy
    # overflows to inf; run stops at the first such value instead of
    # writing it.
    data = json.loads(json.dumps(FAST))
    data.update(schemes=["ar_only"], batch_sizes=[1])
    data["hw"].update(static_power_w=1e308, clock_ghz=1e-30)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    assert cli_main(["validate", str(cfg_path)]) == 0
    capsys.readouterr()
    assert cli_main(["run", str(cfg_path)]) == 2
    assert capsys.readouterr().err == (
        "runtime error: scenario 'fast': ar_only batch 1: per_token_energy_j is inf\n"
    )


def test_memory_error_is_runtime_error(tmp_path, capsys, monkeypatch):
    # A MemoryError from the unique-expert estimate (a stand-in raises it
    # here; no memory is allocated) is a runtime error.
    def out_of_memory(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(expert_cache, "expected_unique_experts", out_of_memory)
    with pytest.raises(RunnerError, match="scenario 'fast': MemoryError"):
        run_scenario(fast_config())
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(FAST))
    assert cli_main(["run", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "runtime error: scenario 'fast': MemoryError\n"
    assert "Traceback" not in captured.out + captured.err


def test_cli_ablate_unknown_suite(capsys):
    assert cli_main(["ablate", "bogus"]) == 1


@pytest.mark.parametrize("jobs", ["0", "-2"])
@pytest.mark.parametrize("command", ["run", "ablate"])
def test_cli_rejects_jobs_below_one(command, jobs, tmp_path, capsys):
    # A usage error, exit 2 from argparse, before anything runs.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(FAST))
    target = str(cfg_path) if command == "run" else "bit_axis"
    with pytest.raises(SystemExit) as exc:
        cli_main([command, target, "--jobs", jobs])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--jobs: must be at least 1, got {jobs}" in captured.err


def test_cli_unwritable_output(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(FAST))
    code = cli_main(["run", str(cfg_path), "-o", "/nonexistent_dir/out.csv"])
    assert code == 2
