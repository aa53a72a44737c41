"""Samplers and verification oracles for uniform random trees and connected
multigraphs with fixed degree sequence and surplus, their continuum
scaling limits, and the cycle-breaking / stick-breaking machinery
connecting them."""

from .continuum import (GluedSpace, IcrtRealization, MetricTree,
                        WeightedSample, core_measure, metric_glue,
                        sample_icrg_weighted, sample_icrt, sb_build)
from .errors import CapExceeded, ValidationError
from .labels import Vertex, internal, overflow, parse_vertex, star
from .multigraph import (Multigraph, bias, bias_bound, bias_components,
                         cb_probability, cycle_break, glue_leaves,
                         glue_tree_leaves)
from .params import (DegreeSequence, PVector, RegimeGap, ThetaVector,
                     regime_gap, validate)
from .reconstruct import (check_four_point, core_measure_from_matrix,
                          gromov_height, reconstruct)
from .samplers import (cm_conditioned_oracle, dk_table, pk_law_oracle,
                       sample_configuration_model, sample_dk_graph,
                       sample_dk_graph_keys, sample_multiplicative_graph,
                       sample_multiplicative_multigraph,
                       sample_pk_graph_prefix)
from .trees import (LabeledTree, enumerate_d_trees, sample_d_tree,
                    sample_d_tree_keys, sample_d_tuple, sample_p_tree_prefix,
                    stick_break_tree, tree_count, tree_distance_matrix)

__version__ = "0.1.0"
