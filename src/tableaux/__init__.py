"""Exact path counts in graded lattice graphs, computed three independent
ways (closed formulas, brute-force DP, weight-series coefficients) with a
mechanically verified identity suite behind the formulas."""

from .graded_graphs import (CustomBoxGraph, GradedGraph, PascalGraph,
                            RestrictedYoungGraph, SeriesConstructionError,
                            StrictPartitionGraph, WeightSeries,
                            construct_weight_series, count_paths_dp,
                            make_graph, path_count_table,
                            verify_weight_conditions, weighted_path_count)
from .formulas import (format_partition, hook_lengths, hook_product,
                       multinomial_paths, parse_partition,
                       partition_to_young_vertex, skew_weight_fn,
                       skew_weight_polynomial, strict_count,
                       strict_partition_to_vertex, strict_pfaffian_count,
                       strict_skew_count,
                       strict_skew_path_series, strict_vertex_to_partition,
                       syt_count, syt_count_hook, young_path_count,
                       young_vertex_to_partition)
from .laurent import (LaurentSeries, LimitInfiniteError, RationalFn,
                      coefficients, evaluate_with_limits, expand,
                      polynomial_component, verify_pfaffian_product)
from .multipoly import MultiPoly, canonical_text
from .reports import CountReport, VerifyReport

__all__ = [
    "CountReport", "CustomBoxGraph", "GradedGraph", "LaurentSeries",
    "LimitInfiniteError", "MultiPoly", "PascalGraph", "RationalFn",
    "RestrictedYoungGraph", "SeriesConstructionError",
    "StrictPartitionGraph", "VerifyReport", "WeightSeries", "canonical_text",
    "coefficients", "construct_weight_series", "count_paths_dp",
    "evaluate_with_limits", "expand", "format_partition", "hook_lengths",
    "hook_product", "make_graph", "multinomial_paths", "parse_partition",
    "partition_to_young_vertex", "path_count_table", "polynomial_component",
    "skew_weight_fn", "skew_weight_polynomial", "strict_count",
    "strict_partition_to_vertex", "strict_pfaffian_count", "strict_skew_count",
    "strict_skew_path_series", "strict_vertex_to_partition", "syt_count",
    "syt_count_hook", "verify_pfaffian_product", "verify_weight_conditions",
    "weighted_path_count", "young_path_count", "young_vertex_to_partition",
]

__version__ = "0.1.0"
