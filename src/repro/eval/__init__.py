"""Experiment harness regenerating every table and figure in
EXPERIMENTS.md (see DESIGN.md §4 for the experiment index)."""

from repro.eval.experiments import (
    ExperimentScale,
    prepare_data,
    run_fig2_clip_length,
    run_fig3_data_scaling,
    run_fig4_attention_ablation,
    run_fig5_label_noise,
    run_fig6_localization,
    run_fig7_traffic_density,
    run_fig8_criticality,
    run_table1_model_comparison,
    run_table2_per_tag,
    run_table3_retrieval,
    run_table4_efficiency,
    run_table6_pretraining,
    run_table7_view_ablation,
    train_model,
)
from repro.eval.efficiency import (
    estimate_flops,
    measure_throughput,
    quantized_accuracy_delta,
)
from repro.eval.formatting import format_figure_series, format_table

__all__ = [
    "ExperimentScale",
    "prepare_data",
    "train_model",
    "run_table1_model_comparison",
    "run_table2_per_tag",
    "run_table3_retrieval",
    "run_table4_efficiency",
    "run_table6_pretraining",
    "run_table7_view_ablation",
    "run_fig2_clip_length",
    "run_fig3_data_scaling",
    "run_fig4_attention_ablation",
    "run_fig5_label_noise",
    "run_fig6_localization",
    "run_fig7_traffic_density",
    "run_fig8_criticality",
    "estimate_flops",
    "measure_throughput",
    "quantized_accuracy_delta",
    "format_table",
    "format_figure_series",
]
