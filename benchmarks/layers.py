"""Per-layer metrics computed from the spans of traced rounds.

Every count and time is per round (one round is the fixed request set a
workload repeats, see ``workloads.py``), so the figures stay comparable when
a faster program fits more rounds into the same run.  Which end-to-end
metric each layer metric should move is tabulated in ``LAYERS.md``.
"""

from __future__ import annotations

import numpy as np

from tracer import STATE_NEW, Tracer

#: Metric prefix -> span names whose calls, self time and errors it sums.
GROUPS = {
    "core.state_new": (STATE_NEW,),
    "core.channel": ("core.loss_channel", "core.beam_splitter", "core.add_correlated_noise",
                     "core.tensor", "core.select_modes", "core.relabel"),
    "core.symplectic_form": ("core.symplectic_form",),
    "criteria.ppt_min": ("criteria.ppt_min",),
    "criteria.steerability": ("criteria.steerability",),
    "criteria.symplectic_eigenvalues": ("criteria.symplectic_eigenvalues",),
    "criteria.full_report": ("criteria.full_report",),
    "protocol.build": ("protocol.build_network_state",),
    "protocol.server_output": ("protocol.server_output_state",),
    "protocol.qss_scenario": ("protocol.qss_scenario",),
    "optimize.numeric": ("optimize.numeric_optimize_coefficient",),
    "optimize.golden": ("optimize.golden_section_maximize",),
    "sampler.simulate": ("sampler.simulate_shots",),
    "sampler.estimate": ("sampler.estimate_covariance",),
    "sampler.compare": ("sampler.compare_covariance",),
    "cli.scan": ("cli.cmd_scan",),
    "cli.format": ("cli.format_scan_csv", "cli.format_scan_json", "cli.format_report_json"),
    "cli.read_matrix": ("cli.read_cov_matrix_file",),
    "cli.montecarlo": ("cli.cmd_montecarlo",),
}

#: Metrics summed over traced rounds and reported per round.  ``metrics``
#: adds the ratios and the tracing overhead.
SUMS = (
    "core.state_new.calls", "core.state_new.self_s",
    "core.channel.calls", "core.channel.self_s",
    "core.symplectic_form.calls",
    *(f"criteria.{f}.{k}" for f in ("ppt_min", "steerability", "symplectic_eigenvalues",
                                     "full_report")
      for k in ("calls", "self_s", "errors")),
    "protocol.build.calls", "protocol.build.self_s",
    "protocol.server_output.self_s", "protocol.qss_scenario.self_s",
    "optimize.numeric.calls", "optimize.numeric.self_s", "optimize.golden.self_s",
    "sampler.simulate.self_s", "sampler.estimate.self_s", "sampler.compare.self_s",
    "sampler.shot_bytes",
    "cli.scan.self_s", "cli.format.self_s", "cli.format.bytes",
    "cli.read_matrix.self_s", "cli.montecarlo.self_s",
)


class LayerTotals:
    """Accumulates span statistics over the traced rounds of one run."""

    def __init__(self) -> None:
        self.rounds = 0
        self.sums = dict.fromkeys(SUMS, 0.0)
        self.counts = dict.fromkeys(("points", "criteria_evals", "numeric_prebob",
                                     "numeric_steer"), 0)
        self.spans = 0

    def add_round(self, tracer: Tracer, points: int) -> None:
        """Fold in the spans recorded during one traced round."""
        cols = tracer.arrays()
        names = tracer.names
        n_names = len(names)
        calls = np.bincount(cols["name_id"], minlength=n_names)
        self_s = np.bincount(cols["name_id"], weights=cols["self"], minlength=n_names)
        errors = np.bincount(cols["name_id"], weights=(~cols["ok"]).astype(float),
                             minlength=n_names)
        per_name = {name: (calls[i], self_s[i], errors[i]) for i, name in enumerate(names)}

        for prefix, members in GROUPS.items():
            for field, pos in (("calls", 0), ("self_s", 1), ("errors", 2)):
                key = f"{prefix}.{field}"
                if key in self.sums:
                    self.sums[key] += sum(float(per_name.get(m, (0, 0, 0))[pos])
                                          for m in members)

        for idx, note in tracer.notes.items():
            name = names[tracer.name_id[idx]]
            if name.startswith("cli.format_"):
                self.sums["cli.format.bytes"] += note
            elif name == "sampler.simulate_shots":
                self.sums["sampler.shot_bytes"] += note

        # coefficient trials of the optimizer: one pre-bob build each
        in_numeric = tracer.within(cols, "optimize.numeric_optimize_coefficient")
        steer_id = names.index("criteria.steerability") if "criteria.steerability" in names else -1
        prebob = np.zeros(len(cols["name_id"]), dtype=bool)
        for idx, note in tracer.notes.items():
            if note == "pre_bob":
                prebob[idx] = True
        numeric_prebob = int(np.count_nonzero(in_numeric & prebob))
        self.counts["numeric_prebob"] += numeric_prebob
        self.counts["numeric_steer"] += int(np.count_nonzero(
            in_numeric & (cols["name_id"] == steer_id)))
        self.counts["criteria_evals"] += int(per_name.get("criteria.ppt_min", (0,))[0]
                                             + per_name.get("criteria.steerability", (0,))[0])
        self.counts["points"] += points + numeric_prebob
        self.spans += len(prebob)
        self.rounds += 1

    def metrics(self, overhead_s: float) -> dict[str, float]:
        """Per-round sums, the ratios, and the tracing overhead per round."""
        out = {k: v / self.rounds for k, v in self.sums.items()}
        c = self.counts
        numeric_calls = self.sums["optimize.numeric.calls"]
        out["criteria.evals_per_point"] = _ratio(c["criteria_evals"], c["points"])
        out["protocol.builds_per_point"] = _ratio(self.sums["protocol.build.calls"], c["points"])
        out["optimize.evals_per_call"] = _ratio(c["numeric_prebob"], numeric_calls)
        out["optimize.feasible_ratio"] = _ratio(c["numeric_steer"], c["numeric_prebob"])
        out["trace.overhead_s"] = overhead_s
        return out


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 where the layer did no work in this workload."""
    return float(num) / float(den) if den else 0.0
