"""Metric names, units and directions, as listed in BENCHMARK.json."""

# (name, unit, better, bound): bound is the share of the parent's median
# by which the metric may worsen before a change counts as a regression.
# Times are at reference host speed (hostspeed.py); their bounds leave
# room for the residual spread of one run's median on a two-core shared
# host (see README.md).  setup_s, which the probe samples least, has the
# widest.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("first_report_s", "s", "lower", 0.24),
    ("report_s_p50", "s", "lower", 0.24),
    ("checks_per_s", "1/s", "higher", 0.24),
    ("checks_met_ratio", "ratio", "higher", 0.01),
    ("peak_rss_mb", "MB", "lower", 0.05),
)

# Per report.  `.calls` is an exact call count, `.s` inclusive busy time,
# `<layer>.self_s` time inside the layer not covered by a nested span of
# another layer.
PER_LAYER = (
    "basis.to_coords.calls",
    "basis.to_coords.s",
    "basis.hermitian_basis.hit_ratio",
    "basis.self_s",
    "channels.apply_local_super.calls",
    "channels.apply_local_super.s",
    "channels.super_to_choi.calls",
    "channels.choi_to_super.calls",
    "channels.self_s",
    "core.compose.calls",
    "core.compose.s",
    "core.trans_norm.calls",
    "core.trans_norm.s",
    "core.pair.calls",
    "core.self_s",
    "quantum.apply_local.calls",
    "quantum.apply_local.s",
    "quantum.random_cp.calls",
    "quantum.random_cp.s",
    "quantum.kraus_to_choi.calls",
    "quantum.self_s",
    "infodim.dim_identities.calls",
    "infodim.dim_identities.s",
    "infodim.affine_state_dimension.s",
    "infodim.informational_dimension.s",
    "infodim.transformation_affine_dimension.s",
    "infodim.self_s",
    "faithful.local_action_matrix.calls",
    "faithful.local_action_matrix.s",
    "faithful.spectral_split.calls",
    "faithful.spectral_split.s",
    "faithful.prepare_witness.calls",
    "faithful.prepare_witness.s",
    "faithful.self_s",
    "gns.gns_space.calls",
    "gns.gns_space.s",
    "gns.TransposeSolver.calls",
    "gns.TransposeSolver.s",
    "gns.TransposeSolver.transpose.calls",
    "gns.TransposeSolver.transpose.s",
    "gns.adjoint_map.calls",
    "gns.adjoint_map.s",
    "gns.gns_rep.calls",
    "gns.gns_rep.s",
    "gns.transformation_coords.calls",
    "gns.transformation_coords.s",
    "gns.self_s",
    "cli.run_suite.s",
    "cli.emit_report.s",
    "cli.parse_report.s",
    "cli.load_theory.s",
    "cli.validate_spec.calls",
    "cli.self_s",
)

# Traced report_s_p50 minus untraced report_s_p50 in the same process.
TRACE_OVERHEAD = "trace.overhead_s"


def layer_unit(name):
    """(unit, better) of a per-layer metric, from its suffix."""
    if name.endswith(".calls"):
        return "count", "lower"
    if name.endswith(".hit_ratio"):
        return "ratio", "higher"
    return "s", "lower"
