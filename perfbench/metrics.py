"""Metric names and units the benchmark reports; BENCHMARK.json lists the
same names (the benchmark's tests check that)."""

import resource

END_TO_END = {
    "setup_s": "s",
    "ok_ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ops_ok_frac": "ratio",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {"calls": "count", "self_s": "s"}

# named per-function self times and counters, by layer
NAMED = {
    "sympoly.plethysm_poly.self_s": "s",
    "sympoly.decompose_schur.self_s": "s",
    "sympoly.plethysm_poly.terms": "count",
    "characters.plethysm_schur_table.self_s": "s",
    "characters.kronecker.self_s": "s",
    "characters.mn.hit_ratio": "ratio",
    "characters.mn.misses": "count",
    "characters.plethysm_power_expansion.misses": "count",
    "tableaux.kostka.hit_ratio": "ratio",
    "tableaux.kostka.misses": "count",
    "tableaux.count_weighted_ssyt.self_s": "s",
    "tableaux.ssyt_weights.letters": "count",
    "coefficients.jacobi_trudi_coeff.self_s": "s",
    "coefficients.q_cache.entries": "count",
    "coefficients.route.jacobi-trudi": "count",
    "coefficients.route.monomial-peel": "count",
    "tomography.count_point_sets.self_s": "s",
    "tomography.count_pyramids.self_s": "s",
    "tomography.count_2dxray.self_s": "s",
    "tomography.count_sym_2dxray.self_s": "s",
    "tomography.excess0.calls": "count",
    "tomography.excess1_3.calls": "count",
    "tomography.excess4plus.calls": "count",
    "reductions.resolve_coefficient.self_s": "s",
    "reductions.kronecker_plethysm_triple.self_s": "s",
    "reductions.route.promise-pyramid-count": "count",
    "reductions.route.bounds-collapse": "count",
    "reductions.route.jacobi-trudi": "count",
    "reductions.route.monomial-peel": "count",
    "reductions.route.degree-mismatch": "count",
    "restricted.count_cone_ssyt.self_s": "s",
    "restricted.psi_splits.self_s": "s",
    "cli.import_s": "s",
    "cli.coeff.process_s": "s",
    "cli.kron.process_s": "s",
    "cli.count.process_s": "s",
    "cli.reduce.process_s": "s",
    "cli.table.process_s": "s",
    "trace.overhead_frac": "ratio",
}

# counters recorded from a function's arguments or result: the function
# must exist in the traced package for the counter to be reported
COUNTER_SOURCES = {
    "sympoly.plethysm_poly.terms": "sympoly.plethysm_poly",
    "tableaux.ssyt_weights.letters": "tableaux.ssyt_weights",
    "coefficients.route.jacobi-trudi": "coefficients.general_plethysm",
    "coefficients.route.monomial-peel": "coefficients.general_plethysm",
    "tomography.excess0.calls": "tomography.count_point_sets",
    "tomography.excess1_3.calls": "tomography.count_point_sets",
    "tomography.excess4plus.calls": "tomography.count_point_sets",
    **{
        f"reductions.route.{method}": "reductions.resolve_coefficient"
        for method in ("promise-pyramid-count", "bounds-collapse", "jacobi-trudi", "monomial-peel", "degree-mismatch")
    },
}

CLI_SUBCOMMANDS = ("coeff", "kron", "count", "reduce", "table")


def per_layer(layers) -> dict[str, str]:
    out = {f"{layer}.{stat}": unit for layer in layers for stat, unit in LAYER_UNITS.items()}
    out.update(NAMED)
    return out


# cli_shim.py ends its stderr with this prefix and its own peak RSS in KiB
PEAK_RSS_PREFIX = "peak_rss_kb "


def own_peak_rss_kb() -> int:
    """Peak resident set of this process's own memory, in KiB.  VmHWM starts
    afresh at exec, whereas ru_maxrss also counts the resident set of the
    parent the process was spawned from."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
