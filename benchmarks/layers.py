"""Per-layer figures from the traced run, and what each one should move.

Layers are the convmap modules that do measurable work of their own:
series, maps, functionals, levelset, critical and cli (grid, jet and errors
do none).  A span's layer is the module that defines the callee.  Times
are self times (span duration minus the time its child spans cover) unless
a figure says "per call", which is the whole span.

``PER_LAYER`` is the contract with BENCHMARK.json: name, unit, which
direction is better, and the end-to-end metric and workload the figure
should move.  ``ROADMAP`` holds the baselines that the normalised ``norm.*``
figures are compared with, measured before this benchmark existed (Python
3.11.7, NumPy 2.4.6, 2 cores).
"""

from __future__ import annotations

from spans import SpanTable

PER_LAYER = (
    # series: Horner evaluation of the stacked derivative table
    ("series.eval_calls", "1/job", "lower",
     "level_march job_ms_p90 and jobs_per_s, grid_scan job_ms_p90; not job_ms_p50 on either"),
    ("series.eval_points", "1/job", "lower", "as series.eval_calls"),
    ("series.eval_ms", "ms/job", "lower", "as series.eval_calls"),
    ("series.table_ms", "ms/job", "lower", "as series.eval_calls (the table is rebuilt on every call)"),
    ("series.recurrence_ms", "ms/map", "lower",
     "setup_s on grid_scan and level_march; cli_session gen calls"),
    # maps: jets
    ("maps.gen_ms", "ms/map", "lower", "setup_s on grid_scan and level_march; cli_session gen calls"),
    ("maps.jet_of_calls", "1/job", "lower", "level_march jobs_per_s (scalar jets)"),
    ("maps.jet_of_ms", "ms/job", "lower", "level_march jobs_per_s (scalar jets)"),
    ("maps.jet_fields_points", "1/job", "lower", "grid_scan jobs_per_s (array jets)"),
    ("maps.jet_fields_ms", "ms/job", "lower", "grid_scan jobs_per_s (array jets)"),
    # functionals: the field kernel
    ("functionals.grid_points", "1/job", "lower",
     "grid_scan job_ms_p50 and jobs_per_s, cli_session job_ms_p90"),
    ("functionals.grid_ms", "ms/job", "lower", "as functionals.grid_points"),
    ("functionals.report_ms", "ms/job", "lower", "as functionals.grid_points"),
    ("functionals.scalar_ms", "ms/job", "lower", "as functionals.grid_points"),
    # levelset: the tracer
    ("levelset.start_ms", "ms/call", "lower", "level_march job_ms_p50 and jobs_per_s; grid_scan unchanged"),
    ("levelset.trace_ms", "ms/call", "lower", "level_march job_ms_p50 and jobs_per_s; grid_scan unchanged"),
    ("levelset.accepted_points", "1/trace", "higher", "level_march job_ms_p50 and jobs_per_s"),
    ("levelset.jet_of_per_point", "1/point", "lower", "level_march job_ms_p50 and jobs_per_s"),
    ("levelset.write_csv_ms", "ms/call", "lower", "cli_session job_ms_p90 and jobs_per_s"),
    # critical
    ("critical.find_ms", "ms/call", "lower", "level_march jobs_per_s"),
    ("critical.classify_ms", "ms/call", "lower", "grid_scan job_ms_p50"),
    ("critical.jet_evals_per_search", "1/call", "lower", "level_march jobs_per_s"),
    # cli
    ("cli.process_ms", "ms/job", "lower", "cli_session job_ms_p50"),
    ("cli.check_ms", "ms/call", "lower", "cli_session job_ms_p90 and jobs_per_s; others unchanged"),
    ("cli.trace_ms", "ms/call", "lower", "cli_session job_ms_p90 and jobs_per_s; others unchanged"),
    ("cli.curvature_map_ms", "ms/call", "lower", "cli_session job_ms_p90 and jobs_per_s; others unchanged"),
    ("cli.gen_ms", "ms/call", "lower", "cli_session job_ms_p90 and jobs_per_s; others unchanged"),
    ("cli.self_ms", "ms/job", "lower", "cli_session job_ms_p90 and jobs_per_s; others unchanged"),
    ("cli.bytes_written", "B/job", "lower", "cli_session job_ms_p90 and jobs_per_s; others unchanged"),
    # normalised figures, comparable with the ROADMAP baselines
    ("norm.series_jet_of_us_o192", "us", "lower", "level_march jobs_per_s"),
    ("norm.grid_ns_per_point_o384", "ns", "lower", "grid_scan job_ms_p90"),
    ("norm.grid_ns_per_point_polygon5", "ns", "lower", "grid_scan job_ms_p50, cli_session job_ms_p90"),
    ("norm.find_ms_polygon5", "ms", "lower", "level_march jobs_per_s"),
    ("norm.find_ms_o192", "ms", "lower", "level_march job_ms_p90 and jobs_per_s"),
    ("norm.gen_ms_o384", "ms", "lower", "setup_s on grid_scan; cli_session gen calls"),
    # the traced run itself
    ("trace.jobs_per_s_untraced", "1/s", "higher", "reference for the tracing overhead"),
    ("trace.jobs_per_s_traced", "1/s", "higher", "reference for the tracing overhead"),
    ("trace.overhead_ratio", "ratio", "lower", "none: traced over untraced time for the same jobs"),
)

# ROADMAP item 1 baselines, in the units of the norm.* figures.  The grid
# figures there were 1.06 s and 0.13 s for 160,000 points; the critical
# search figure was for an order-384 series, not order 192.
ROADMAP = {
    "norm.series_jet_of_us_o192": 382.0,
    "norm.grid_ns_per_point_o384": 1.06e9 / 160000,
    "norm.grid_ns_per_point_polygon5": 0.13e9 / 160000,
    "norm.find_ms_polygon5": 29.0,
    "norm.find_ms_o192": 620.0,
    "norm.gen_ms_o384": 2.3,
    "levelset.jet_of_per_point": 4.0,
}

RECURRENCES = ("series.series_inv", "series.series_exp", "series.series_mul", "series.series_integrate")
CLI_COMMANDS = {
    "cli.check_ms": "cli.cmd_check",
    "cli.trace_ms": "cli.cmd_trace",
    "cli.curvature_map_ms": "cli.cmd_curvature_map",
    "cli.gen_ms": "cli.cmd_gen",
}


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def layer_figures(t: SpanTable, n_jobs: int, bytes_written: int, process_ms: float) -> dict[str, float]:
    """Figures for every PER_LAYER name except trace.*; 0 where the workload
    never exercises the layer.  Set-up spans count only toward the per-map
    generator figures."""
    in_jobs = t.job >= 0
    ms = 1e3

    def total(mask) -> float:
        return float(t.dur[mask].sum())

    def own(mask) -> float:
        return float(t.self_time[mask].sum())

    def per_call_ms(name: str, extra=True) -> float:
        m = t.mask(name) & extra
        return _ratio(total(m) * ms, m.sum())

    eval_m = t.mask("series.eval_table") & in_jobs
    table_m = t.mask("series.derivative_table") & in_jobs
    gen_m = t.mask("maps.gen_herglotz")
    jet_of_m = t.mask("maps.jet_of")
    scalar_fields = t.mask("maps.jet_fields") & t.parent_is("maps.jet_of")
    array_fields = t.mask("maps.jet_fields") & ~scalar_fields
    grid_m = t.mask("functionals.grid_functionals")
    trace_m = t.mask("levelset.trace_level_set")
    find_m = t.mask("critical.find_critical_point")
    jobs = float(n_jobs)

    out = {
        "series.eval_calls": _ratio(eval_m.sum(), jobs),
        "series.eval_points": _ratio(t.points[eval_m].sum(), jobs),
        "series.eval_ms": _ratio(own(eval_m) * ms, jobs),
        "series.table_ms": _ratio(own(table_m) * ms, jobs),
        "series.recurrence_ms": _ratio(own(t.mask(*RECURRENCES)) * ms, gen_m.sum()),
        "maps.gen_ms": _ratio(total(gen_m) * ms, gen_m.sum()),
        "maps.jet_of_calls": _ratio((jet_of_m & in_jobs).sum(), jobs),
        # a scalar jet's own maps-layer time includes its jet_fields child
        "maps.jet_of_ms": _ratio(own((jet_of_m | scalar_fields) & in_jobs) * ms, jobs),
        "maps.jet_fields_points": _ratio(t.points[array_fields & in_jobs].sum(), jobs),
        "maps.jet_fields_ms": _ratio(own(array_fields & in_jobs) * ms, jobs),
        "functionals.grid_points": _ratio(t.points[grid_m & in_jobs].sum(), jobs),
        "functionals.grid_ms": _ratio(own(grid_m & in_jobs) * ms, jobs),
        "functionals.report_ms": _ratio(own(t.mask("functionals.convexity_report") & in_jobs) * ms, jobs),
        "functionals.scalar_ms": _ratio(
            own(t.mask("functionals.p_field", "functionals.poincare_density") & in_jobs) * ms, jobs),
        "levelset.start_ms": per_call_ms("levelset.find_level_start"),
        "levelset.trace_ms": per_call_ms("levelset.trace_level_set"),
        "levelset.accepted_points": _ratio(t.points[trace_m].sum(), trace_m.sum()),
        "levelset.jet_of_per_point": _ratio(
            (jet_of_m & t.under("levelset.trace_level_set")).sum(), t.points[trace_m].sum()),
        "levelset.write_csv_ms": per_call_ms("levelset.LevelCurve.write_csv"),
        "critical.find_ms": per_call_ms("critical.find_critical_point"),
        "critical.classify_ms": per_call_ms("critical.classify_phi"),
        "critical.jet_evals_per_search": _ratio(
            (jet_of_m & t.under("critical.find_critical_point")).sum(), find_m.sum()),
        "cli.process_ms": process_ms,
        "cli.self_ms": _ratio(own(t.mask("cli.main", *CLI_COMMANDS.values()) & in_jobs) * ms, jobs),
        "cli.bytes_written": _ratio(bytes_written, jobs),
        "norm.series_jet_of_us_o192": per_call_ms("maps.jet_of", t.keyed("series192")) * 1e3,
        "norm.grid_ns_per_point_o384": _ratio(
            total(grid_m & t.keyed("series384")) * 1e9, t.points[grid_m & t.keyed("series384")].sum()),
        "norm.grid_ns_per_point_polygon5": _ratio(
            total(grid_m & t.keyed("polygon5")) * 1e9, t.points[grid_m & t.keyed("polygon5")].sum()),
        "norm.find_ms_polygon5": per_call_ms("critical.find_critical_point", t.keyed("polygon5")),
        "norm.find_ms_o192": per_call_ms("critical.find_critical_point", t.keyed("series192")),
        "norm.gen_ms_o384": per_call_ms("maps.gen_herglotz", t.keyed("series384")),
    }
    for figure, span_name in CLI_COMMANDS.items():
        out[figure] = per_call_ms(span_name)
    return out


def span_summary(t: SpanTable) -> dict[str, dict]:
    """Count, total and self milliseconds per span name, for the record."""
    out = {}
    for i, name in enumerate(t.names):
        m = t.name == i
        if m.any():
            out[name] = {
                "count": int(m.sum()),
                "total_ms": float(t.dur[m].sum() * 1e3),
                "self_ms": float(t.self_time[m].sum() * 1e3),
                "points": int(t.points[m].sum()),
            }
    return out


def roadmap_comparison(figures: dict[str, float]) -> dict[str, dict]:
    return {name: {"value": figures[name], "roadmap": base} for name, base in ROADMAP.items()}

