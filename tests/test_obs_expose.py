"""Tests for the exposure surfaces (repro.obs.expose): OpenMetrics
exposition lint, HTTP endpoint, file flusher, NDJSON event log with
rotation, the REPRO_TRACE atexit metrics dump, and the CLI commands."""

import json
import os
import re
import urllib.request

import pytest

from repro import obs
from repro.obs.expose import (EventLog, MetricsFlusher, configure_event_log,
                              emit_event, event_log, metric_name,
                              openmetrics_text, parse_openmetrics,
                              start_metrics_server)
from repro.obs.registry import registry, set_enabled

NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


@pytest.fixture(autouse=True)
def _fresh_state():
    registry().reset()
    event_log().clear()
    prev = set_enabled(True)
    yield
    set_enabled(prev)
    configure_event_log(None)
    registry().reset()
    obs.disable()


def _seed_registry():
    reg = registry()
    reg.count("demo.hits", 3)
    reg.gauge("demo.workers", 4)
    reg.observe("demo.lat_ns", 1_000, weight=2)
    reg.observe("demo.lat_ns", 8_000)


# ----------------------------------------------------------------- lint


def test_exposition_lint():
    """OpenMetrics validity: legal names, TYPE before samples, counters
    suffixed _total, terminating # EOF."""
    _seed_registry()
    text = openmetrics_text(extra_info={"version": "1"})
    lines = text.splitlines()
    assert lines[-1] == "# EOF"
    typed = set()
    for line in lines:
        if line.startswith("# TYPE "):
            _, _, name, mtype = line.split(" ", 3)
            assert NAME_RE.match(name), name
            assert mtype in ("counter", "gauge", "summary")
            typed.add(name)
        elif line and not line.startswith("#"):
            sample = line.split("{")[0].split(" ")[0]
            base = re.sub(r"_(total|count|sum)$", "", sample)
            assert sample in typed or base in typed, line
    parsed = parse_openmetrics(text)
    assert parsed["eof"]
    assert parsed["counters"]["repro_demo_hits"] == 3
    assert parsed["gauges"]["repro_demo_workers"] == 4
    summ = parsed["summaries"]["repro_demo_lat_ns"]
    assert summ["count"] == 3
    assert 0.5 in summ["quantiles"] and 0.999 in summ["quantiles"]


def test_counter_sample_names_end_in_total():
    _seed_registry()
    parsed = parse_openmetrics(openmetrics_text())
    for name, mtype in parsed["types"].items():
        if mtype == "counter":
            assert not name.endswith("_total")  # base name is bare


def test_counters_monotonic_across_scrapes():
    registry().count("mono.events", 5)
    first = parse_openmetrics(openmetrics_text())["counters"]
    registry().count("mono.events", 2)
    second = parse_openmetrics(openmetrics_text())["counters"]
    for name, value in first.items():
        assert second.get(name, 0) >= value
    assert second["repro_mono_events"] == 7


def test_metric_name_sanitisation():
    assert metric_name("plancache.hits") == "repro_plancache_hits"
    assert metric_name("delay.plan.Q(x) :- R(x, y)") \
        == "repro_delay_plan_Q_x__:__R_x__y_"
    assert NAME_RE.match(metric_name("weird name/with%chars"))


def test_plancache_state_exposed_as_gauges():
    parsed = parse_openmetrics(openmetrics_text())
    assert "repro_plancache_state_entries" in parsed["gauges"]
    assert "repro_plancache_state_maxsize" in parsed["gauges"]


# -------------------------------------------------------------- escaping


def test_label_escape_round_trip_specials():
    """The OpenMetrics spec's escaping table: backslash, double quote
    and line feed must survive render -> parse unchanged."""
    from repro.obs.expose import escape_label_value, unescape_label_value

    for raw in ('plain', 'with "quotes"', 'back\\slash', 'line\nfeed',
                'all\\of "them"\ntogether', '\\n is not a newline',
                'trailing\\'):
        assert unescape_label_value(escape_label_value(raw)) == raw


def test_label_escaping_survives_exposition_round_trip():
    """A build-info label containing every special character comes back
    intact through the full render -> parse cycle."""
    nasty = 'a"b\\c\nd'
    text = openmetrics_text(extra_info={"nasty": nasty})
    # the raw newline must not produce a stray exposition line
    for line in text.splitlines():
        assert not line.startswith("d")
    parsed = parse_openmetrics(text)
    assert parsed["build_info"]["nasty"] == nasty


def test_escape_is_not_double_applied():
    from repro.obs.expose import escape_label_value

    once = escape_label_value("\\n")
    assert once == "\\\\n"  # backslash escaped first, no re-escape


def test_unescape_tolerates_unknown_escapes():
    from repro.obs.expose import unescape_label_value

    assert unescape_label_value("\\q") == "q"
    assert unescape_label_value("ok") == "ok"


# ----------------------------------------------------------------- HTTP


def test_metrics_server_serves_openmetrics():
    _seed_registry()
    server = start_metrics_server(port=0)
    try:
        port = server.server_address[1]
        with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/metrics") as resp:
            assert resp.status == 200
            assert "openmetrics-text" in resp.headers["Content-Type"]
            body = resp.read().decode()
        parsed = parse_openmetrics(body)
        assert parsed["counters"]["repro_demo_hits"] == 3
        with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/healthz") as resp:
            assert resp.read() == b"ok\n"
        with pytest.raises(urllib.error.HTTPError):
            urllib.request.urlopen(f"http://127.0.0.1:{port}/nope")
    finally:
        server.shutdown()
        server.server_close()


# ---------------------------------------------------------------- flusher


def test_flusher_writes_exposition_and_json(tmp_path):
    _seed_registry()
    path = str(tmp_path / "metrics.prom")
    flusher = MetricsFlusher(path, interval=60.0)
    flusher.flush_once()
    parsed = parse_openmetrics(open(path).read())
    assert parsed["eof"]
    snap = json.load(open(path + ".json"))
    assert snap["counters"]["demo.hits"] == 3
    assert snap["sketches"]["demo.lat_ns"]["count"] == 3


def test_flusher_background_thread(tmp_path):
    path = str(tmp_path / "bg.prom")
    registry().count("bg.ticks")
    flusher = MetricsFlusher(path, interval=0.05).start()
    try:
        import time
        deadline = time.monotonic() + 2.0
        while not os.path.exists(path) and time.monotonic() < deadline:
            time.sleep(0.02)
    finally:
        flusher.stop()
    assert os.path.exists(path) and os.path.exists(path + ".json")


# ----------------------------------------------------------------- events


def test_event_log_ring_and_file(tmp_path):
    path = str(tmp_path / "events.ndjson")
    log = EventLog(path)
    log.emit("pool.respawn", workers=4)
    log.emit("delta.overflow", relation="R")
    events = log.recent()
    assert [e["event"] for e in events] == ["pool.respawn", "delta.overflow"]
    assert log.recent(name="pool.respawn")[0]["workers"] == 4
    lines = [json.loads(line) for line in open(path)]
    assert len(lines) == 2 and lines[0]["pid"] == os.getpid()


def test_event_log_rotation(tmp_path):
    path = str(tmp_path / "rot.ndjson")
    log = EventLog(path, max_bytes=200)
    for i in range(30):
        log.emit("tick", i=i)
    assert os.path.exists(path + ".1")
    assert os.path.getsize(path) <= 200
    # every line in both generations is valid NDJSON
    for p in (path, path + ".1"):
        for line in open(p):
            json.loads(line)


def test_emit_event_counts_in_registry(tmp_path):
    configure_event_log(str(tmp_path / "ev.ndjson"))
    emit_event("guarantee.violation", plan="Q")
    emit_event("guarantee.violation", plan="Q")
    assert registry().counter("event.guarantee.violation") == 2
    assert len(event_log().recent(name="guarantee.violation")) == 2


def test_configure_event_log_preserves_ring(tmp_path):
    event_log().emit("before.configure")
    log = configure_event_log(str(tmp_path / "cfg.ndjson"))
    assert any(e["event"] == "before.configure" for e in log.recent())


# ------------------------------------------------------------ atexit dump


def test_atexit_dump_writes_metrics_next_to_trace(tmp_path):
    registry().count("dump.check", 9)
    path = str(tmp_path / "run.trace.json")
    tracer = obs.enable()
    with obs.span("dump.span"):
        pass
    metrics_path = obs._atexit_dump(path)
    obs.disable()
    assert metrics_path == path + ".metrics.json"
    trace = json.load(open(path))
    assert "traceEvents" in trace
    dump = json.load(open(metrics_path))
    assert dump["registry"]["counters"]["dump.check"] == 9
    assert tracer is not None


# -------------------------------------------------------------------- CLI


def test_cli_metrics_serve_smoke(tmp_path, capsys):
    from repro.cli import main

    out = str(tmp_path / "cli.prom")
    ev = str(tmp_path / "cli.ndjson")
    registry().count("cli.smoke", 1)
    rc = main(["metrics-serve", "--port", "0", "--duration", "0.3",
               "--metrics-out", out, "--interval", "0.1", "--events", ev])
    assert rc == 0
    assert "serving OpenMetrics" in capsys.readouterr().out
    parsed = parse_openmetrics(open(out).read())
    assert parsed["counters"]["repro_cli_smoke"] == 1
    assert os.path.exists(out + ".json")


def test_cli_top_once(capsys):
    from repro.cli import main

    registry().count("top.smoke", 2)
    registry().observe("enum.delay_ns", 1_500, weight=3)
    emit_event("pool.respawn", workers=2)
    rc = main(["top", "--once"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "repro top" in out
    assert "enum.delay_ns" in out
    assert "top.smoke" in out
    assert "pool.respawn" in out


def test_cli_doctor_mentions_cache_counters(capsys):
    from repro.cli import main

    rc = main(["doctor"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "arena cache:" in out
    assert "pool lifecycle:" in out
    assert "symbol workspace:" in out
    assert "delay watchdog:" in out
