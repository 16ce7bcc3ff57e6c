"""Relational empirical risk minimization: pluggable graph subsampling
defines the empirical risk, SGD with unbiased stochastic gradients fits
embedding and global parameters, and a graphex simulator checks the
convergence behavior empirically."""

from .graph import (CategoryMap, Graph, LabelTable, from_edges, induced_pairs,
                    load_cache, load_edge_list, load_labels, save_cache, validate)
from .samplers import (SamplerConfig, SubgraphBatch, UnigramTable, build_unigram, draw,
                       negative_unigram, outcome_batch, random_walk, skipgram_pairs)
from .losses import LossConfig, ParamStore, SparseGradient, combined_loss, gradient
from .trainer import (RiskEstimate, TrainConfig, check_unbiasedness,
                      estimate_risk, exact_risk, sgd_step, train)
from .evaluation import (Split, macro_f1, make_split, simultaneous_eval,
                         two_stage_eval)
from .graphex import (GraphonSpec, LatentGraph, MarkingKernel, mark_embeddings,
                      risk_convergence_experiment, sample_graphex,
                      sample_graphex_coupled, stability_experiment)

__version__ = "0.1.0"
